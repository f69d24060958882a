"""Gate-level IR: evaluation, simplification, structural hashing, miters."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipcamo.aig import AigGraph, NodeType, pattern_words, random_tree
from ipcamo.camouflage import baseline_cells
from ipcamo.gatelevel import (OPS, Circuit, CompiledCircuit, Gate, circuit_from_obj,
                              circuit_to_obj, from_aig, miter, prune, simplify)


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


# op -> (fewest inputs, most inputs or None for no bound, the error a bad count gives)
_FAN_IN = {
    "input": (0, 0, "input gate takes no inputs"),
    "const0": (0, 0, "const0 gate takes no inputs"),
    "const1": (0, 0, "const1 gate takes no inputs"),
    "buf": (1, 1, "buf gate takes one input"),
    "not": (1, 1, "not gate takes one input"),
    "xor": (2, 2, "xor gate takes two inputs"),
    "xnor": (2, 2, "xnor gate takes two inputs"),
    "and": (1, None, "and gate needs at least one input"),
    "or": (1, None, "or gate needs at least one input"),
    "nand": (1, None, "nand gate needs at least one input"),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_gate_arity_edges(op):
    """Fan-ins just outside an op's range raise; the ones at its ends make an
    immutable, hashable gate equal to its twin."""
    assert set(_FAN_IN) == OPS
    lo, hi, message = _FAN_IN[op]
    nets = tuple(f"a{k}" for k in range(6))
    outside = [k for k in (lo - 1, None if hi is None else hi + 1) if k is not None and k >= 0]
    assert outside
    for k in outside:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Gate(op, nets[:k])
        with pytest.raises(ValueError, match=f"^{message}$"):
            Gate(op, nets[:lo])._replace(ins=nets[:k])
    for k in (lo, 5 if hi is None else hi):
        g, twin = Gate(op, nets[:k]), Gate(op, tuple(list(nets[:k])))
        assert (g.op, g.ins) == (op, nets[:k])
        assert g == twin and hash(g) == hash(twin) and {g: k}[twin] == k
        for field_name in ("op", "ins"):
            with pytest.raises(AttributeError):
                setattr(g, field_name, "x")


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


def test_strash_folds_inverters_of_one_net():
    # g0 and the inverter inside g3 both complement i0, so both copies of
    # each output must reach one literal for the miter to fold
    c = Circuit()
    c.add("i0", "input")
    c.add("g0", "not", "i0")
    c.add("g1", "xnor", "g0", "i0")
    c.add("g2", "const0")
    c.add("g3", "xnor", "g2", "g0")
    c.outputs = ["g1", "g3"]
    m = simplify(miter(c, c))
    assert m.gates[m.outputs[0]].op == "const0"


def test_miter_detects_difference():
    c1 = xor_circuit()
    c2 = Circuit()
    c2.add("a", "input")
    c2.add("b", "input")
    c2.add("y", "xnor", "a", "b")
    c2.outputs = ["y"]
    m = simplify(miter(c1, c2))
    assert m.gates[m.outputs[0]].op == "const1"  # differ everywhere


def test_fresh_takes_the_first_free_suffix():
    c = xor_circuit()
    assert c.fresh("z") == "z"
    assert c.fresh("a") == "a_1"
    c.add("a_1", "not", "a")
    assert c.fresh("a", taken={"a_2"}) == "a_3"
    assert c.fresh("z", taken=("z",)) == "z_1"


def test_miter_of_circuits_with_inputs_named_like_its_nets():
    """Inputs named like the miter's own nets stay shared inputs, and the
    miter is 1 exactly where the two circuits differ."""
    names = ["m_a_y", "m_b_y", "m_diff0", "m_out"]
    c1, c2 = Circuit(), Circuit()
    for c in (c1, c2):
        for n in names:
            c.add(n, "input")
    c1.add("y", "and", "y_1", "m_diff0")  # reads a net listed after it
    c1.add("y_1", "or", "m_a_y", "m_b_y")
    c1.outputs = ["y"]
    c2.add("y", "xor", "m_out", "m_b_y")
    c2.outputs = ["y"]
    m = miter(c1, c2)
    assert m.inputs == names and m.outputs == ["m_out_1"]
    assert {"m_a_y_1", "m_a_y_1_1", "m_b_y_1", "m_diff0_1"} <= set(m.gates)
    for bits in range(16):
        x = {n: bits >> k & 1 for k, n in enumerate(names)}
        want = c1.evaluate(x)["y"] ^ c2.evaluate(x)["y"]
        assert m.evaluate(x) == {"m_out_1": want}, x
    same = simplify(miter(c1, c1))
    assert same.gates[same.outputs[0]].op == "const0"


def test_prune_drops_dead_logic():
    c = xor_circuit()
    c.add("dead", "and", "a", "b")
    p = prune(c)
    assert "dead" not in p.gates
    assert set(p.outputs) == {"y"}


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


def test_from_aig_renames_only_clashing_nets():
    # AND 3 (default n3) clashes with PI n3; the inverter n4__n1 with PI n4__n1
    g = AigGraph([NodeType.PI, NodeType.PI, NodeType.PI, NodeType.AND, NodeType.AND,
                  NodeType.PO],
                 [(0, 3, False), (1, 3, False), (2, 4, True), (3, 4, True), (4, 5, False)],
                 ["a", "n3", "n4__n1", None, None, "y"])
    c = from_aig(g)
    assert list(c.gates) == ["a", "n3", "n4__n1", "n3_1", "n4__n0", "n4__n1_1", "n4", "y"]
    assert c.gates["n3_1"] == Gate("and", ("a", "n3"))
    assert c.gates["n4"] == Gate("and", ("n4__n0", "n4__n1_1"))
    # without a clash every AND net keeps its default name
    plain = random_tree(np.random.default_rng(0), 4)
    nets = from_aig(plain).gates
    assert all(f"n{i}" in nets for i in plain.and_indices)


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


@st.composite
def circuits_with_shared_outputs(draw):
    """`circuits_with_every_op` plus an output listed twice and an input as an output."""
    c = draw(circuits_with_every_op())
    c.outputs += [draw(st.sampled_from(c.outputs)), draw(st.sampled_from(c.inputs))]
    return c


@settings(max_examples=200, deadline=None)
@given(circuits_with_shared_outputs())
def test_simplify_keeps_function_and_outputs(c):
    s = simplify(c)
    assert s.outputs == c.outputs
    assert set(s.inputs) <= set(c.inputs)
    support = prune(c).inputs
    words, full = pattern_words(len(support))
    bound = dict(zip(support, words))
    assert CompiledCircuit(s).run(bound, full) == CompiledCircuit(prune(c)).run(bound, full)
    m = simplify(miter(c, c))
    assert m.gates[m.outputs[0]].op == "const0"


@st.composite
def aigs_with_shared_names(draw):
    """A canonical AIG, PIs and ANDs interleaved: PI names drawn from a small
    pool (so equal names recur), ANDs that no PO reads, and 1-3 POs."""
    types, names, edges = [], [], []
    for _ in range(draw(st.integers(1, 14))):
        if not types or draw(st.booleans()):
            types.append(NodeType.PI)
            names.append(f"x{draw(st.integers(0, 3))}")
        else:
            me = len(types)
            for _ in range(2):
                edges.append((draw(st.integers(0, me - 1)), me, draw(st.booleans())))
            types.append(NodeType.AND)
            names.append(None)
    body = len(types)
    for k in range(draw(st.integers(1, 3))):
        edges.append((draw(st.integers(0, body - 1)), len(types), draw(st.booleans())))
        types.append(NodeType.PO)
        names.append(f"y{k}")
    return AigGraph(types, edges, names)


@settings(max_examples=150, deadline=None)
@given(aigs_with_shared_names())
def test_compiled_from_aig_matches_the_lowered_cones(g):
    """Compiled straight from an AIG: the inputs, outputs and `run` words of
    CompiledCircuit(prune(from_aig(g)))."""
    direct, lowered = CompiledCircuit.from_aig(g), CompiledCircuit(prune(from_aig(g)))
    assert (direct.inputs, direct.outputs) == (lowered.inputs, lowered.outputs)
    words, full = pattern_words(len(direct.inputs))
    bound = dict(zip(direct.inputs, words))
    assert direct.run(bound, full) == lowered.run(bound, full)


@settings(max_examples=150, deadline=None)
@given(aigs_with_shared_names())
def test_baseline_cells_counts_the_lowered_cells(g):
    assert baseline_cells(g) == from_aig(g).cell_count()


def test_compiled_from_aig_rejects_non_canonical():
    g = AigGraph([NodeType.PI, NodeType.AND, NodeType.PO], [(0, 1, False), (1, 2, False)])
    with pytest.raises(ValueError, match="AND node 1 has in-degree 1"):
        CompiledCircuit.from_aig(g)
