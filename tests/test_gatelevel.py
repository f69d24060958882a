"""Gate-level IR: evaluation, simplification, structural hashing, miters."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipcamo.aig import NodeType, pattern_words, random_tree
from ipcamo.gatelevel import (Circuit, CompiledCircuit, Gate, circuit_from_obj,
                              circuit_to_obj, from_aig, miter, prune, simplify,
                              substitute)


def xor_circuit():
    c = Circuit()
    c.add("a", "input")
    c.add("b", "input")
    c.add("y", "xor", "a", "b")
    c.outputs = ["y"]
    return c


def test_evaluate_all_ops():
    c = Circuit()
    c.add("a", "input")
    c.add("b", "input")
    for op in ("and", "or", "nand", "xor", "xnor"):
        c.add(op, op, "a", "b")
    c.add("n", "not", "a")
    c.add("f", "buf", "b")
    c.outputs = ["and", "or", "nand", "xor", "xnor", "n", "f"]
    got = c.evaluate({"a": 1, "b": 0})
    assert got == {"and": 0, "or": 1, "nand": 1, "xor": 1, "xnor": 0,
                   "n": 0, "f": 0}


def test_gate_validation_and_cycles():
    with pytest.raises(ValueError, match="unknown gate op"):
        Gate("mux", ("a", "b"))
    with pytest.raises(ValueError, match="one input"):
        Gate("not", ("a", "b"))
    c = Circuit()
    c.add("a", "input")
    c.gates["x"] = Gate("and", ("a", "y"))
    c.gates["y"] = Gate("not", "x")
    with pytest.raises(ValueError, match="cycle"):
        c.topo_order()
    c2 = Circuit()
    c2.gates["z"] = Gate("not", ("missing",))
    with pytest.raises(ValueError, match="undriven"):
        c2.topo_order()


def test_simplify_constant_propagation():
    c = Circuit()
    c.add("a", "input")
    c.add("one", "const1")
    c.add("zero", "const0")
    c.add("x", "and", "a", "one")   # -> a
    c.add("y", "or", "x", "zero")   # -> a
    c.add("z", "xor", "y", "one")   # -> not a
    c.outputs = ["z"]
    s = simplify(c)
    for v in (0, 1):
        assert s.evaluate({"a": v}) == c.evaluate({"a": v})
    assert s.cell_count() == 1  # a single inverter remains


def test_strash_collapses_identical_cones():
    g = random_tree(np.random.default_rng(0), 5)
    c = from_aig(g)
    m = simplify(miter(c, c))
    assert m.gates[m.outputs[0]].op == "const0"  # no search needed


def test_miter_detects_difference():
    c1 = xor_circuit()
    c2 = Circuit()
    c2.add("a", "input")
    c2.add("b", "input")
    c2.add("y", "xnor", "a", "b")
    c2.outputs = ["y"]
    m = simplify(miter(c1, c2))
    assert m.gates[m.outputs[0]].op == "const1"  # differ everywhere


def test_substitute():
    c = xor_circuit()
    s = substitute(c, {"a": 1})
    for b in (0, 1):
        assert s.evaluate({"b": b})["y"] == 1 - b
    with pytest.raises(ValueError, match="not an input"):
        substitute(c, {"y": 1})


def test_prune_drops_dead_logic():
    c = xor_circuit()
    c.add("dead", "and", "a", "b")
    p = prune(c)
    assert "dead" not in p.gates
    assert set(p.outputs) == {"y"}


def test_renamed():
    c = xor_circuit()
    r = c.renamed({"y": "out", "a": "a2"})
    assert r.evaluate({"a2": 1, "b": 1})["out"] == 0


def test_json_obj_roundtrip():
    c = xor_circuit()
    again = circuit_from_obj(circuit_to_obj(c))
    assert again.gates == c.gates
    assert again.outputs == c.outputs


def _eval_aig(g, assign):
    """One pattern straight off the AIG nodes: the reference for from_aig."""
    preds = g.pred_table()
    val, out = [0] * g.n, {}
    for i, t in enumerate(g.types):
        if t is NodeType.PI:
            val[i] = assign[g.names[i]]
            continue
        bits = [val[s] ^ inv for s, inv in preds[i]]
        val[i] = int(all(bits))
        if t is NodeType.PO:
            out[g.names[i]] = val[i]
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_from_aig_matches_simulation(seed, n_ands):
    g = random_tree(np.random.default_rng(seed), n_ands)
    c = from_aig(g)
    pis = g.pi_names
    rng = np.random.default_rng(seed + 1)
    for _ in range(6):
        assign = {n: int(rng.integers(2)) for n in pis}
        assert c.evaluate(assign) == _eval_aig(g, assign)
        s = simplify(c)
        assert s.evaluate(assign) == _eval_aig(g, assign)


# one pattern at a time, in insertion order: the reference for the word pass
_ONE_PATTERN = {
    "const0": lambda ins: 0,
    "const1": lambda ins: 1,
    "buf": lambda ins: ins[0],
    "not": lambda ins: 1 - ins[0],
    "and": lambda ins: int(all(ins)),
    "or": lambda ins: int(any(ins)),
    "nand": lambda ins: 1 - int(all(ins)),
    "xor": lambda ins: ins[0] ^ ins[1],
    "xnor": lambda ins: 1 - (ins[0] ^ ins[1]),
}
_ARITY = {"const0": 0, "const1": 0, "buf": 1, "not": 1, "xor": 2, "xnor": 2}


@st.composite
def circuits_with_every_op(draw):
    """Random netlist, built in topological order, using each op at least once."""
    c = Circuit()
    nets = [c.add(f"i{j}", "input") for j in range(draw(st.integers(1, 6)))]
    extra = draw(st.lists(st.sampled_from(sorted(_ONE_PATTERN)), max_size=12))
    for j, op in enumerate(draw(st.permutations(sorted(_ONE_PATTERN) + extra))):
        arity = _ARITY.get(op)
        if arity is None:  # n-ary and / or / nand
            arity = draw(st.integers(1, 4))
        ins = draw(st.lists(st.sampled_from(nets), min_size=arity, max_size=arity))
        nets.append(c.add(f"g{j}", op, *ins))
    c.outputs = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=4))
    return c


@settings(max_examples=60, deadline=None)
@given(circuits_with_every_op())
def test_word_pass_matches_per_pattern_evaluation(c):
    inputs = c.inputs
    words, full = pattern_words(len(inputs))
    got = CompiledCircuit(c).run(dict(zip(inputs, words)), full)
    for idx in range(1 << len(inputs)):
        assign = {n: (idx >> j) & 1 for j, n in enumerate(inputs)}
        val = {}
        for net, g in c.gates.items():
            val[net] = assign[net] if g.op == "input" else \
                _ONE_PATTERN[g.op]([val[s] for s in g.ins])
        want = [val[o] for o in c.outputs]
        assert [(w >> idx) & 1 for w in got] == want
        assert c.evaluate(assign) == dict(zip(c.outputs, want))


def test_evaluate_errors_and_input_normalisation():
    c = xor_circuit()
    with pytest.raises(KeyError, match="missing assignment for input 'b'"):
        c.evaluate({"a": 1})
    assert c.evaluate({"a": 2, "b": 0}) == {"y": 1}   # int(bool(2)) == 1
    c.gates["y"] = Gate("xor", ("a", "nowhere"))
    with pytest.raises(ValueError, match="undriven"):
        c.evaluate({"a": 1, "b": 0})
