"""Tseitin encoding, equivalence checking, keyization and the DIP attack."""
import itertools

import numpy as np
import pytest

from ipcamo.aig import random_tree
from ipcamo import attack
from ipcamo.attack import (KeyedNetlist, dip_attack, equivalence_check,
                           key_is_correct, keyize_netlist, make_ll_baseline,
                           make_oracle, tseitin_encode)
from ipcamo.cnf import CnfFormula, sat_solve
from ipcamo.evaluation import random_covert_insertion
from ipcamo.gatelevel import Circuit, from_aig


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


def test_equivalence_check_small():
    g = random_tree(np.random.default_rng(0), 3)
    c = from_aig(g)
    assert equivalence_check(g, c)
    # flip the output polarity -> inequivalent
    flipped = from_aig(g, prefix="q_")
    out = flipped.outputs[0]
    gate = flipped.gates[out]
    flipped.gates[out] = type(gate)("not" if gate.op == "buf" else "buf", gate.ins)
    ren = {n: n[2:] if n.startswith("q_") else n for n in flipped.gates}
    ren[out] = g.po_names[0]
    assert not equivalence_check(c, flipped.renamed(ren))


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


def test_keyize_key_count_law():
    f = random_tree(np.random.default_rng(1), 5)
    nl = random_covert_insertion(f, "fraction", 0.5, np.random.default_rng(2))
    kn = keyize_netlist(nl)
    src = nl.appearance_view
    consumed = set()
    for p in nl.placements:
        consumed.add(p.out)
        if p.kind.value == "FB":
            consumed.add(src.gates[p.out].ins[0])
    genuine = sum(1 for n, g in src.gates.items()
                  if g.op in ("not", "buf", "nand") and n not in consumed)
    assert kn.n_key_bits == 2 * (len(nl.placements) + genuine)
    assert len(kn.correct_key) == kn.n_key_bits


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
