"""Tseitin encoding, equivalence checking, keyization and the DIP attack."""
import hashlib
import itertools

import numpy as np
import pytest

from ipcamo.aig import random_tree
from ipcamo import attack
from ipcamo.attack import (KeyedNetlist, dip_attack, equivalence_check,
                           key_is_correct, keyize_netlist, make_ll_baseline,
                           make_oracle, tseitin_encode)
from ipcamo.camouflage import CamouflagedNetlist, camouflage_pipeline
from ipcamo.cnf import CnfFormula, SatResult, sat_solve
from ipcamo.covert import CovertConfig, CovertGateKind, CovertInstance, draw_cell
from ipcamo.evaluation import random_covert_insertion
from ipcamo.gatelevel import Circuit, from_aig, prune


def _random_circuit(seed, n_ands=4):
    return from_aig(random_tree(np.random.default_rng(seed), n_ands))


@pytest.mark.parametrize("seed", range(8))
def test_tseitin_matches_evaluate(seed):
    c = _random_circuit(seed)
    cnf = CnfFormula()
    t = cnf.new_var()
    cnf.add_clause([t])
    in_lits = {n: cnf.new_var() for n in c.inputs}
    lits = tseitin_encode(cnf, c, in_lits, t)
    out = c.outputs[0]
    for bits in itertools.product((0, 1), repeat=len(c.inputs)):
        assign = dict(zip(c.inputs, bits))
        want = c.evaluate(assign)[out]
        assumps = [in_lits[n] if v else -in_lits[n] for n, v in assign.items()]
        res = sat_solve(cnf, assumptions=assumps + [lits[out]])
        assert (res.status == "SAT") == bool(want)


def test_tseitin_xor_and_constants():
    c = Circuit()
    c.add("a", "input")
    c.add("one", "const1")
    c.add("x", "xor", "a", "one")   # = not a
    c.outputs = ["x"]
    cnf = CnfFormula()
    t = cnf.new_var()
    cnf.add_clause([t])
    a = cnf.new_var()
    lits = tseitin_encode(cnf, c, {"a": a}, t)
    assert sat_solve(cnf, assumptions=[a, lits["x"]]).status == "UNSAT"
    assert sat_solve(cnf, assumptions=[-a, lits["x"]]).status == "SAT"


def test_tseitin_rejects_bad_literals_before_encoding():
    c = _mixed_circuit()
    cnf = CnfFormula()
    t = cnf.new_var()
    cnf.add_clause([t])
    a, b, x = [cnf.new_var() for _ in range(3)]
    for true_lit, bound in ((t, {"a": a, "b": b, "c": 1.0}),
                            (t, {"a": a, "b": -5, "c": x}),
                            (t, {"a": a, "b": b, "c": np.int64(3)}),
                            (0, {"a": a, "b": b, "c": x})):
        with pytest.raises(ValueError, match=r"^bad literal .* \(have 4 vars\)$"):
            tseitin_encode(cnf, c, bound, true_lit)
    with pytest.raises(KeyError, match="no literal bound for input 'c'"):
        tseitin_encode(cnf, c, {"a": a, "b": b}, t)
    assert (cnf.n_vars, cnf.clauses) == (4, [[t]])
    lits = tseitin_encode(cnf, c, {"a": a, "b": b, "c": x}, t)
    assert cnf.n_vars > 4
    for cl in cnf.clauses:   # what add_clause would have accepted
        CnfFormula(cnf.n_vars).add_clause(cl)
    assert all(abs(l) <= cnf.n_vars for l in lits.values())


def _mixed_circuit():
    """Every gate op, with constant ties; every non-input net an output."""
    c = Circuit()
    for net in ("a", "b", "c"):
        c.add(net, "input")
    c.add("one", "const1")
    c.add("zero", "const0")
    c.add("x", "xor", "a", "one")
    c.add("xn", "xnor", "b", "c")
    c.add("o", "or", "x", "xn", "zero")
    c.add("n", "nand", "o", "c", "one")
    c.add("y", "and", "n", "b", "a")
    c.add("bf", "buf", "y")
    c.add("nt", "not", "bf")
    c.outputs = [n for n, g in c.gates.items() if g.op != "input"]
    return c


@pytest.mark.parametrize("seed", list(range(8)) + ["mixed"])
def test_tseitin_folds_constant_inputs(seed):
    """Each subset of inputs bound to +-t: every output still matches
    evaluate, through assumptions on the inputs left free."""
    c = _mixed_circuit() if seed == "mixed" else _random_circuit(seed)
    for bits in itertools.product((0, 1), repeat=len(c.inputs)):
        assign = dict(zip(c.inputs, bits))
        want = c.evaluate(assign)
        for fixed in itertools.product((False, True), repeat=len(c.inputs)):
            cnf = CnfFormula()
            t = cnf.new_var()
            cnf.add_clause([t])
            in_lits = {n: (t if assign[n] else -t) if fx else cnf.new_var()
                       for n, fx in zip(c.inputs, fixed)}
            lits = tseitin_encode(cnf, c, in_lits, t)
            free = [in_lits[n] if assign[n] else -in_lits[n]
                    for n, fx in zip(c.inputs, fixed) if not fx]
            for out, v in want.items():
                o = lits[out] if v else -lits[out]
                assert sat_solve(cnf, assumptions=free + [o]).status == "SAT"
                assert sat_solve(cnf, assumptions=free + [-o]).status == "UNSAT"


@pytest.mark.parametrize("seed", list(range(8)) + ["mixed"])
def test_tseitin_constant_circuit_adds_nothing(seed):
    c = _mixed_circuit() if seed == "mixed" else _random_circuit(seed)
    for bits in itertools.product((0, 1), repeat=len(c.inputs)):
        assign = dict(zip(c.inputs, bits))
        cnf = CnfFormula()
        t = cnf.new_var()
        cnf.add_clause([t])
        lits = tseitin_encode(cnf, c, {n: t if v else -t for n, v in assign.items()}, t)
        assert (cnf.n_vars, len(cnf.clauses)) == (1, 1)
        assert {o: lits[o] for o in c.outputs} == \
            {o: t if v else -t for o, v in c.evaluate(assign).items()}


def test_equivalence_check_small():
    g = random_tree(np.random.default_rng(0), 3)
    c = from_aig(g)
    assert equivalence_check(g, c)
    # flip the output polarity -> inequivalent
    flipped = from_aig(g)
    out = flipped.outputs[0]
    gate = flipped.gates[out]
    flipped.gates[out] = type(gate)("not" if gate.op == "buf" else "buf", gate.ins)
    assert not equivalence_check(c, flipped)


def test_equivalence_check_wide_support_uses_sat():
    # 18 shared inputs forces the miter/SAT path; AND reassociation is sound
    c1, c2 = Circuit(), Circuit()
    names = [f"i{k}" for k in range(18)]
    for c in (c1, c2):
        for n in names:
            c.add(n, "input")
    c1.add("y", "and", *names)
    half1 = c2.add("h1", "and", *names[:9])
    half2 = c2.add("h2", "and", *names[9:])
    c2.add("y", "and", half1, half2)
    c1.outputs = c2.outputs = ["y"]
    assert equivalence_check(c1, c2)
    c2.gates["y"] = type(c2.gates["y"])("nand", c2.gates["y"].ins)
    assert not equivalence_check(c1, c2)


def _parity(k, flip=None):
    """Parity of k inputs; flip="ones" ("zeros") also XORs in the minterm
    that is 1 only on the all-ones (all-zeros) pattern."""
    c = Circuit()
    names = [c.add(f"i{j:02d}", "input") for j in range(k)]
    acc = names[0]
    for j, n in enumerate(names[1:]):
        acc = c.add(f"x{j}", "xor", acc, n)
    if flip == "ones":
        acc = c.add("f", "xor", acc, c.add("p", "and", *names))
    elif flip == "zeros":
        lows = [c.add(f"n{j}", "not", n) for j, n in enumerate(names)]
        acc = c.add("f", "xor", acc, c.add("p", "and", *lows))
    c.add("y", "buf", acc)
    c.outputs = ["y"]
    return c


def _no_sat(*args, **kwargs):
    raise AssertionError("small-support check reached the SAT solver")


@pytest.mark.parametrize("flip", ["ones", "zeros"])
def test_equivalence_check_word_edges_at_support_16(flip, monkeypatch):
    # the all-ones pattern is the word's top bit, the all-zeros pattern bit 0
    monkeypatch.setattr(attack, "sat_solve", _no_sat)
    assert not equivalence_check(_parity(16, flip), _parity(16))
    assert not equivalence_check(_parity(16), _parity(16, flip))
    assert equivalence_check(_parity(16, flip), _parity(16, flip))


def test_equivalence_check_support_17_takes_sat_path(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sat_solve(*args, **kwargs)

    monkeypatch.setattr(attack, "sat_solve", counted)
    assert not equivalence_check(_parity(17, "ones"), _parity(17))
    assert calls == [1]


def _n_candidates(nl):
    """Covert placements plus genuine inverter/buffer/NAND cells."""
    src = nl.appearance_view
    consumed = {p.out for p in nl.placements}
    genuine = sum(1 for n, g in src.gates.items()
                  if g.op in ("not", "buf", "nand") and n not in consumed)
    return len(nl.placements) + genuine


def test_keyize_key_count_law():
    f = random_tree(np.random.default_rng(1), 5)
    nl = random_covert_insertion(f, "fraction", 0.5, np.random.default_rng(2))
    kn = keyize_netlist(nl)
    assert kn.n_key_bits == 2 * _n_candidates(nl)
    assert len(kn.correct_key) == kn.n_key_bits


def _keyize_cases(params):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        f, a = random_tree(rng, 6, n_pi_pool=6), random_tree(rng, 6, n_pi_pool=6)
        for p, th in ((0.5, 0.05), (0.0, 0.5)):
            yield camouflage_pipeline(f, a, params, p=p, th=th, seed=seed)
        yield random_covert_insertion(f, "fraction", 0.5, rng)
        yield random_covert_insertion(f, "match_area", 3.0, rng)


def test_keyize_builds_only_the_output_cone(toy_checkpoint):
    """Neither the netlists nor their keyed models hold floating logic."""
    params, _ = toy_checkpoint
    for nl in _keyize_cases(params):
        view = nl.appearance_view
        assert list(prune(view).gates.items()) == list(view.gates.items())
        assert all(e["action"] is not None for e in nl.fix_log)
        kn = keyize_netlist(nl)
        assert list(prune(kn.circuit).gates.items()) == list(kn.circuit.gates.items())
        assert len(kn.key_inputs) == 2 * _n_candidates(nl)
        assert set(kn.key_inputs) <= set(kn.circuit.inputs)


def test_keyed_circuit_under_its_correct_key_is_the_fabricated_circuit(toy_checkpoint):
    """keyize_netlist and covert.realize replace the covert cells in one pass,
    so the keyed model under correct_key computes what realize builds."""
    from ipcamo.covert import realize
    from ipcamo.gatelevel import substitute
    params, _ = toy_checkpoint
    for nl in _keyize_cases(params):
        kn = keyize_netlist(nl)
        assert equivalence_check(substitute(kn.circuit, kn.bind(kn.correct_key)),
                                 realize(nl.appearance_view, nl.placements))


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_keyize_golden_desk_netlist(toy_checkpoint):
    """ac08's netlist: desk pair 0 at p 0.5, Th 0.05, pipeline seed 0."""
    params, _ = toy_checkpoint
    rng = np.random.default_rng(100)
    f, a = random_tree(rng, 82, n_pi_pool=10), random_tree(rng, 82, n_pi_pool=10)
    kn = keyize_netlist(camouflage_pipeline(f, a, params, p=0.5, th=0.05, seed=0))
    gates = (f"{n} {g.op} {' '.join(g.ins)}" for n, g in kn.circuit.gates.items())
    assert len(kn.circuit.gates) == 1_359
    assert kn.circuit.outputs == ["po0"]
    assert kn.n_key_bits == 482
    assert _sha256(gates) == (
        "8e07d65d881b828905f845ccc45daa6fe45b964ad099242dfb1c244653e50b03")
    assert _sha256(kn.key_inputs) == (
        "9e1f4fbd3dc8ceed94ec028cdef91a5fdffa6efaeb63ce70a2a8088e3978db0d")
    assert _sha256(map(str, kn.correct_key)) == (
        "cc2087853141c019ba719245b07e9ef3b3f8c2abaf5c576d81b18c14eb18df69")


def _small_camo_netlist(params):
    """A Th 0.05 pipeline netlist with 12 key candidates."""
    rng = np.random.default_rng(7)
    f, a = random_tree(rng, 4, n_pi_pool=6), random_tree(rng, 4, n_pi_pool=6)
    kn = keyize_netlist(camouflage_pipeline(f, a, params, p=0.5, th=0.05, seed=0))
    assert kn.n_key_bits == 24
    return kn


def test_dip_attack_on_small_camo_netlist_is_pinned(toy_checkpoint):
    kn = _small_camo_netlist(toy_checkpoint[0])
    trace = dip_attack(kn, make_oracle(kn))
    assert (trace.status, trace.iterations, trace.conflicts) == ("solved", 4, 41)
    assert "".join(map(str, trace.key)) == "000100100010111011001010"


def _floating_candidate_netlist():
    """y = AND(NOT x, UT-A(z; decoy d)) beside two cells that drive nothing:
    a genuine inverter f1 and an FI cell f2."""
    c = Circuit()
    for net in ("x", "z", "d"):
        c.add(net, "input")
    c.add("a", "not", "x")
    c.add("b", "nand", "z", "d")
    c.add("y", "and", "a", "b")
    c.add("f1", "not", "z")
    c.add("f2", "not", "x")
    c.outputs = ["y"]
    ut = CovertInstance(CovertGateKind.UT_A, CovertConfig.NORMAL, out="b",
                        real_in="z", dummy_in="d")
    fi = CovertInstance(CovertGateKind.FI, CovertConfig.CONST1, out="f2", real_in="x")
    kn = keyize_netlist(CamouflagedNetlist(None, c, [ut, fi], []))
    pruned = keyize_netlist(CamouflagedNetlist(None, prune(c), [ut], []))
    return kn, pruned


@pytest.mark.parametrize("op, net, clash", [
    ("not", "key0", True),       # a key input of candidate a
    ("not", "a__pick", True),    # a's pick gate
    ("not", "a__norm", True),    # a's true cell function
    ("buf", "a__norm", False),   # a buffer cell makes no __norm net
])
def test_keyize_keeps_every_net_single_driven(op, net, clash):
    c = Circuit()
    c.add("x", "input")
    c.add("a", op, "x")
    c.add(net, "and", "a", "x")
    c.outputs = [net]
    nl = CamouflagedNetlist(None, c, [], [])
    if clash:
        with pytest.raises(ValueError, match=f"^net '{net}' already driven$"):
            keyize_netlist(nl)
        return
    kn = keyize_netlist(nl)
    assert kn.key_inputs == ["key0", "key1"]
    for x in (0, 1):
        assert kn.evaluate(kn.correct_key, {"x": x}) == c.evaluate({"x": x})


def test_floating_candidates_get_no_keys():
    kn, pruned = _floating_candidate_netlist()
    assert kn.key_inputs == ["key0", "key1", "key2", "key3"]
    assert kn.correct_key == [0, 0, 0, 0]
    assert kn.payload_inputs == ["x", "z"]  # the decoy-only d is kept out
    assert list(kn.circuit.gates.items()) == list(pruned.circuit.gates.items())


def test_key_is_correct_ignores_dead_keys():
    """The floating cells carry no key bits, so the key covers only y's cone."""
    kn, _ = _floating_candidate_netlist()
    assert key_is_correct(kn, kn.correct_key)
    assert not key_is_correct(kn, [1] + kn.correct_key[1:])  # ties a high


def test_dip_attack_gives_dead_keys_no_variables(monkeypatch):
    """The floating cells add no solver variables: the attack makes the same
    solves as on the pruned view."""
    kn, pruned = _floating_candidate_netlist()
    n_vars = []

    def recording_solve(cnf, *args, **kwargs):
        n_vars.append(cnf.n_vars)
        return sat_solve(cnf, *args, **kwargs)

    monkeypatch.setattr(attack, "sat_solve", recording_solve)
    traces = [dip_attack(k, make_oracle(k)) for k in (kn, pruned)]
    half = len(n_vars) // 2  # the two attacks make the same solves
    assert n_vars[:half] == n_vars[half:]
    assert traces[0].status == "solved"
    assert traces[0].key == traces[1].key
    assert key_is_correct(kn, traces[0].key)


def _one_cell_netlist(kind, config=None):
    """y = kind(x[, d]): a genuine cell when kind is an op name, else one
    covert cell laid out by draw_cell with real input x and dummy tap d."""
    c = Circuit()
    c.add("x", "input")
    c.add("d", "input")
    placements = []
    if config is not None:
        dummy = "d" if kind.decoy else None
        placements.append(draw_cell(c, kind, config, "y", "x", dummy))
    elif kind == "nand":
        c.add("y", "nand", "x", "d")
    else:
        c.add("y", kind, "x")
    c.outputs = ["y"]
    # keyize_netlist reads only the appearance view and the placements
    return CamouflagedNetlist(None, c, placements, [])


_KEY00 = {  # the true cell function each candidate keeps under key 00
    CovertGateKind.UT_A: lambda x, d: x,
    CovertGateKind.UT_B: lambda x, d: 1 - x,
    CovertGateKind.FI: lambda x, d: 1 - x,
    CovertGateKind.FB: lambda x, d: x,
    "not": lambda x, d: 1 - x,
    "buf": lambda x, d: x,
    "nand": lambda x, d: 1 - (x & d),
}


def test_keyize_candidate_semantics():
    cases = [(op, None) for op in ("not", "buf", "nand")]
    cases += [(kind, cfg) for kind in CovertGateKind
              for cfg in sorted(CovertConfig, key=lambda c: c.value)
              if cfg is not CovertConfig.NORMAL or kind.real is not None]
    for kind, cfg in cases:
        kn = keyize_netlist(_one_cell_netlist(kind, cfg))
        assert kn.n_key_bits == 2
        want_key = (0, 0) if cfg is None else cfg.key_bits
        assert tuple(kn.correct_key) == want_key, (kind, cfg)
        for x, d in itertools.product((0, 1), repeat=2):
            for key, want in (((0, 0), _KEY00[kind](x, d)), ((0, 1), 0),
                              ((1, 0), 1), ((1, 1), 1)):
                got = kn.evaluate(list(key), {"x": x, "d": d})["y"]
                assert got == want, (kind, cfg, key, x, d)


@pytest.mark.parametrize("seed", range(5))
def test_keyize_correct_key_restores_function(seed):
    rng = np.random.default_rng(seed)
    f = random_tree(rng, 4)
    nl = random_covert_insertion(f, "fraction", 0.4, rng)
    kn = keyize_netlist(nl)
    pis = kn.payload_inputs
    for _ in range(12):
        assign = {n: int(rng.integers(2)) for n in pis}
        want = from_aig(f).evaluate({n: assign[n] for n in from_aig(f).inputs})
        got = kn.evaluate(kn.correct_key, assign)
        assert list(got.values()) == list(want.values())


def test_keyize_wrong_key_diverges_somewhere():
    rng = np.random.default_rng(9)
    f = random_tree(rng, 4)
    nl = random_covert_insertion(f, "fraction", 0.4, rng)
    kn = keyize_netlist(nl)
    wrong = list(kn.correct_key)
    wrong[0] ^= 1
    wrong[1] ^= 1  # flip a whole candidate's config, not just the alias bit
    diverged = any(
        kn.evaluate(wrong, dict(zip(kn.payload_inputs, bits)))
        != kn.evaluate(kn.correct_key, dict(zip(kn.payload_inputs, bits)))
        for bits in itertools.product((0, 1), repeat=len(kn.payload_inputs))
    )
    assert diverged


def test_ll_baseline_semantics():
    f = random_tree(np.random.default_rng(3), 5)
    kn = make_ll_baseline(f, n_key_bits=4, seed=1)
    assert kn.n_key_bits == 4
    c = from_aig(f)
    rng = np.random.default_rng(4)
    for _ in range(10):
        assign = {n: int(rng.integers(2)) for n in kn.payload_inputs}
        assert kn.evaluate(kn.correct_key, assign) == c.evaluate(assign)
    flipped = [1 - k for k in kn.correct_key]
    assert any(kn.evaluate(flipped, {n: int(b) for n, b in
                                     zip(kn.payload_inputs,
                                         rng.integers(2, size=len(kn.payload_inputs)))})
               != kn.evaluate(kn.correct_key, {n: int(b) for n, b in
                                               zip(kn.payload_inputs,
                                                   rng.integers(2, size=len(kn.payload_inputs)))})
               for _ in range(4)) or len(kn.payload_inputs) == 0
    with pytest.raises(ValueError, match="lockable"):
        make_ll_baseline(f, n_key_bits=10_000)


def test_keys_of_the_wrong_length_are_rejected():
    kn = make_ll_baseline(random_tree(np.random.default_rng(7), 5), 6, seed=2)
    assign = dict.fromkeys(kn.payload_inputs, 0)
    for key in (kn.correct_key + [1, 0, 1], kn.correct_key[:5]):
        with pytest.raises(ValueError, match="6"):
            key_is_correct(kn, key)
        with pytest.raises(ValueError, match="6"):
            kn.evaluate(key, assign)
    assert key_is_correct(kn, kn.correct_key)


@pytest.mark.parametrize("seed", range(6))
def test_dip_attack_recovers_function(seed):
    rng = np.random.default_rng(seed)
    f = random_tree(rng, 3)
    nl = random_covert_insertion(f, "fraction", 0.5, rng)
    kn = keyize_netlist(nl)
    trace = dip_attack(kn, make_oracle(kn), time_budget=30.0)
    assert trace.status == "solved"
    assert key_is_correct(kn, trace.key)


def test_dip_attack_on_ll_baseline_is_fast():
    f = random_tree(np.random.default_rng(7), 5)
    kn = make_ll_baseline(f, n_key_bits=6, seed=2)
    trace = dip_attack(kn, make_oracle(kn), time_budget=30.0)
    assert trace.status == "solved"
    assert key_is_correct(kn, trace.key)
    assert trace.iterations <= 64


def test_dip_attack_budget_path():
    f = random_tree(np.random.default_rng(8), 4)
    nl = random_covert_insertion(f, "fraction", 0.5, np.random.default_rng(8))
    kn = keyize_netlist(nl)
    trace = dip_attack(kn, make_oracle(kn), time_budget=0.0)
    assert trace.status == "budget" and trace.key is None

    trace2 = dip_attack(kn, make_oracle(kn), max_iters=0)
    assert trace2.status == "budget"


def test_dip_trace_sums_every_solve(monkeypatch):
    results = []

    def recording_solve(*args, **kwargs):
        results.append(sat_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(attack, "sat_solve", recording_solve)
    kn = make_ll_baseline(random_tree(np.random.default_rng(7), 5), 6, seed=2)
    trace = dip_attack(kn, make_oracle(kn))
    assert trace.status == "solved"
    assert len(results) == trace.iterations + 2  # DIPs, the UNSAT miter, the key
    for name in ("conflicts", "decisions", "propagations"):
        assert getattr(trace, name) == sum(getattr(r, name) for r in results)
    assert trace.decisions > 0 and trace.propagations > 0


def test_dip_trace_records_each_solve(monkeypatch):
    """One (conflicts, decisions, propagations) row per SAT call, in call
    order, and the trace's totals are the sums of its rows."""
    results = []

    def recording_solve(*args, **kwargs):
        results.append(sat_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(attack, "sat_solve", recording_solve)
    f = random_tree(np.random.default_rng(8), 4)
    nl = random_covert_insertion(f, "fraction", 0.5, np.random.default_rng(8))
    kn = keyize_netlist(nl)
    trace = dip_attack(kn, make_oracle(kn))
    assert trace.status == "solved"
    assert trace.solves == [(r.conflicts, r.decisions, r.propagations) for r in results]
    assert (trace.conflicts, trace.decisions, trace.propagations) == \
        tuple(map(sum, zip(*trace.solves)))
    assert trace.propagations > 0
    assert dip_attack(kn, make_oracle(kn), max_iters=0).solves == []


def test_dip_attack_key_extraction_budget_exit(monkeypatch):
    """A key-extraction solve that runs out of budget leaves no key, but its
    statistics still count."""
    kn = make_ll_baseline(random_tree(np.random.default_rng(7), 5), 6, seed=2)
    full = dip_attack(kn, make_oracle(kn))
    results = []

    def budget_after_unsat(*args, **kwargs):
        if results and results[-1].status == "UNSAT":
            results.append(SatResult("BUDGET", None, 7, 11, 13))
        else:
            results.append(sat_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(attack, "sat_solve", budget_after_unsat)
    trace = dip_attack(kn, make_oracle(kn))
    assert results[-1].status == "BUDGET"
    assert trace.status == "budget" and trace.key is None
    assert trace.iterations == full.iterations
    for name in ("conflicts", "decisions", "propagations"):
        assert getattr(trace, name) == sum(getattr(r, name) for r in results)


def test_dip_attack_rejects_multiple_outputs():
    c = Circuit()
    a, b, k = c.add("a", "input"), c.add("b", "input"), c.add("k", "input")
    c.add("y0", "xor", a, k)
    c.add("y1", "and", a, b)
    c.outputs = ["y0", "y1"]
    kn = KeyedNetlist(c, ["k"], [0])
    with pytest.raises(ValueError, match="single-output"):
        dip_attack(kn, make_oracle(kn))


def test_key_alias_counts_as_correct():
    # flipping key bit pattern 10 -> 11 on a covert constant keeps the function
    rng = np.random.default_rng(11)
    f = random_tree(rng, 3)
    nl = random_covert_insertion(f, "fraction", 0.5, rng)
    kn = keyize_netlist(nl)
    alias = list(kn.correct_key)
    changed = False
    for i in range(0, len(alias), 2):
        if (alias[i], alias[i + 1]) == (1, 0):
            alias[i + 1] = 1
            changed = True
    assert changed, "expected at least one CONST1 candidate"
    assert key_is_correct(kn, alias)
