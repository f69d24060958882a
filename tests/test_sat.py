"""CDCL solver checked against brute-force enumeration on random formulas,
with its search pinned on fixed instances."""
import itertools

import numpy as np
import pytest

from ipcamo.aig import random_tree
from ipcamo.attack import dip_attack, make_ll_baseline, make_oracle
from ipcamo.cnf import CnfFormula, SatResult, _luby, sat_solve


def brute_force_sat(cnf: CnfFormula, assumptions=()) -> bool:
    clauses = [list(cl) for cl in cnf.clauses] + [[a] for a in assumptions]
    for bits in itertools.product((False, True), repeat=cnf.n_vars):
        val = {i + 1: b for i, b in enumerate(bits)}
        if all(any(val[abs(l)] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def model_satisfies(cnf: CnfFormula, model: dict[int, bool], assumptions=()) -> bool:
    clauses = [list(cl) for cl in cnf.clauses] + [[a] for a in assumptions]
    return all(any(model[abs(l)] == (l > 0) for l in cl) for cl in clauses)


def random_lits(rng, n_vars, k) -> list[int]:
    vs = rng.choice(n_vars, size=min(k, n_vars), replace=False) + 1
    return [int(v) if rng.integers(2) else -int(v) for v in vs]


def random_cnf(rng, n_vars, n_clauses, width=3) -> CnfFormula:
    cnf = CnfFormula()
    cnf.new_vars(n_vars)
    for _ in range(n_clauses):
        cnf.add_clause(random_lits(rng, n_vars, 1 + int(rng.integers(width))))
    return cnf


def pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    cnf = CnfFormula()
    p = {(i, j): cnf.new_var() for i in range(pigeons) for j in range(holes)}
    for i in range(pigeons):
        cnf.add_clause([p[(i, j)] for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                cnf.add_clause([-p[(i1, j)], -p[(i2, j)]])
    return cnf


def test_trivial_cases():
    cnf = CnfFormula()
    x = cnf.new_var()
    assert sat_solve(cnf).status == "SAT"  # no clauses
    cnf.add_clause([x])
    cnf.add_clause([-x])
    assert sat_solve(cnf).status == "UNSAT"


def test_add_clause_accepts_and_rejects_exactly():
    cnf = CnfFormula()
    n = len(cnf.new_vars(3))
    good = ([1], [-n, n], [True], (2, -1, True), (l for l in (3, -2)))
    for lits in good:
        cnf.add_clause(lits)
    assert cnf.clauses == [[1], [-3, 3], [True], [2, -1, True], [3, -2]]
    bad = {"empty clause": [[], ()],
           "bad literal": [[0], [n + 1], [-(n + 1)], [1.0], ["1"], [False], [2, 0],
                           [1, n + 1], [np.int64(1)], [None]]}
    for message, cases in bad.items():
        for lits in cases:
            with pytest.raises(ValueError, match=message):
                cnf.add_clause(lits)
    assert len(cnf.clauses) == len(good)
    with pytest.raises(ValueError, match=r"^bad literal 4 \(have 3 vars\)$"):
        cnf.add_clause([4])


def test_top_level_unsat_reports_its_propagations():
    # the first propagation pass already conflicts, before any decision
    cnf = CnfFormula()
    x, y = cnf.new_vars(2)
    for cl in ([x], [-x, y], [-x, -y]):
        cnf.add_clause(cl)
    res = sat_solve(cnf)
    assert (res.status, res.decisions, res.propagations) == ("UNSAT", 0, 1)


def test_unit_propagation_chain():
    cnf = CnfFormula()
    vs = cnf.new_vars(6)
    cnf.add_clause([vs[0]])
    for a, b in zip(vs, vs[1:]):
        cnf.add_clause([-a, b])  # a -> b
    res = sat_solve(cnf)
    assert res.status == "SAT"
    assert all(res.model[v] for v in vs)
    assert res.decisions == 0  # pure propagation


@pytest.mark.parametrize("seed", range(40))
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    cnf = random_cnf(rng, n_vars=2 + int(rng.integers(7)),
                     n_clauses=int(rng.integers(1, 25)))
    res = sat_solve(cnf)
    expected = brute_force_sat(cnf)
    assert (res.status == "SAT") == expected
    if expected:
        assert model_satisfies(cnf, res.model)


def test_assumptions():
    cnf = CnfFormula()
    a, b = cnf.new_vars(2)
    cnf.add_clause([a, b])
    res = sat_solve(cnf, assumptions=[-a])
    assert res.status == "SAT" and res.model[b]
    assert sat_solve(cnf, assumptions=[-a, -b]).status == "UNSAT"
    with pytest.raises(ValueError, match="assumption"):
        sat_solve(cnf, assumptions=[5])


def test_assumptions_do_not_mutate_formula():
    cnf = CnfFormula()
    a = cnf.new_var()
    cnf.add_clause([a, -a])
    before = [list(cl) for cl in cnf.clauses]
    sat_solve(cnf, assumptions=[-a])
    assert cnf.clauses == before


def test_deterministic_reruns():
    rng = np.random.default_rng(123)
    cnf = random_cnf(rng, n_vars=9, n_clauses=35)
    r1 = sat_solve(cnf.copy())
    r2 = sat_solve(cnf.copy())
    assert (r1.status, r1.model, r1.conflicts, r1.decisions) == \
           (r2.status, r2.model, r2.conflicts, r2.decisions)


def test_conflict_budget_trips():
    cnf = pigeonhole(4, 3)  # UNSAT and needs real search
    assert sat_solve(cnf).status == "UNSAT"
    again = sat_solve(cnf)  # the formula stays UNSAT without a search
    assert (again.status, again.conflicts) == ("UNSAT", 0)
    res = sat_solve(pigeonhole(4, 3), conflict_budget=1)
    assert res.status == "BUDGET" and res.model is None
    assert sat_solve(pigeonhole(4, 3), time_budget=0.0).status == "BUDGET"


@pytest.mark.parametrize("seed", range(30))
def test_incremental_solves_match_brute_force(seed):
    """One formula built in 3 batches of variables and clauses, solved after
    each batch under random assumptions."""
    rng = np.random.default_rng(seed)
    cnf = CnfFormula()
    for _ in range(3):
        cnf.new_vars(1 + int(rng.integers(3)))
        for _ in range(int(rng.integers(1, 5))):
            cnf.add_clause(random_lits(rng, cnf.n_vars, 1 + int(rng.integers(3))))
        for _ in range(3):
            assumps = random_lits(rng, cnf.n_vars, int(rng.integers(cnf.n_vars + 1)))
            res = sat_solve(cnf, assumptions=assumps)
            expected = brute_force_sat(cnf, assumps)
            assert (res.status == "SAT") == expected
            if expected:
                assert model_satisfies(cnf, res.model, assumps)


def test_assumptions_hold_for_one_call():
    cnf = CnfFormula()
    a, b = cnf.new_vars(2)
    cnf.add_clause([a, b])
    assert sat_solve(cnf, assumptions=[-a, -b]).status == "UNSAT"
    assert sat_solve(cnf).status == "SAT"


def test_clause_added_after_a_solve_meets_level_zero():
    cnf = CnfFormula()
    a, b, c = cnf.new_vars(3)
    cnf.add_clause([a])
    cnf.add_clause([-a, b])
    assert sat_solve(cnf).status == "SAT"  # a and b now hold at level 0
    cnf.add_clause([-b, c])                # -b is false: the clause is unit c
    res = sat_solve(cnf)
    assert res.status == "SAT" and res.model[c] and res.decisions == 0
    cnf.add_clause([-a, -b, -c])           # every literal false at level 0
    assert sat_solve(cnf).status == "UNSAT"
    assert sat_solve(cnf, assumptions=[a]).status == "UNSAT"


def test_budget_exit_leaves_formula_usable():
    for cnf, want in ((pigeonhole(4, 3), "UNSAT"), (random_3sat(3), "SAT")):
        n_clauses = len(cnf.clauses)
        assert sat_solve(cnf, conflict_budget=1).status == "BUDGET"
        res = sat_solve(cnf)
        assert res.status == want
        assert len(cnf.clauses) == n_clauses  # learnt clauses stay private
        if want == "SAT":
            assert model_satisfies(cnf, res.model)


def test_luby_sequence():
    got = [_luby(i) for i in range(1, 16)]
    assert got == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_clause_validation():
    cnf = CnfFormula()
    a, b = cnf.new_vars(2)
    cnf.add_clause([a, -b])
    with pytest.raises(ValueError, match="empty"):
        cnf.add_clause([])
    with pytest.raises(ValueError, match="bad literal"):
        cnf.add_clause([3])
    for bad in ([0], [-3], [1.5], ["1"], [a, np.int64(1)], [a, False]):
        with pytest.raises(ValueError, match="bad literal"):
            cnf.add_clause(bad)
    c2 = cnf.copy()
    c2.add_clause([b])
    assert len(cnf.clauses) == 1  # copies are independent
    c2.add_clause([True, -a])  # an int subclass is a literal: True is 1


def test_ties_branch_on_lowest_index_first():
    # no clauses: every decision is a tie at activity 0 and saved phase False
    cnf = CnfFormula()
    cnf.new_vars(12)
    res = sat_solve(cnf)
    assert res.status == "SAT" and res.decisions == 12
    assert not any(res.model.values())
    # (x1 | x2), (x3 | x4), ...: deciding x1 = False forces x2 = True, and so
    # on; a highest-index-first order would give the mirror-image model
    cnf = CnfFormula()
    vs = cnf.new_vars(12)
    for a, b in zip(vs[::2], vs[1::2]):
        cnf.add_clause([a, b])
    res = sat_solve(cnf)
    assert res.decisions == 6
    assert [res.model[v] for v in vs] == [False, True] * 6


def random_3sat(seed: int, n_vars: int = 60, ratio: float = 4.26) -> CnfFormula:
    rng = np.random.default_rng(seed)
    cnf = CnfFormula()
    cnf.new_vars(n_vars)
    for _ in range(round(ratio * n_vars)):
        vs = rng.choice(n_vars, size=3, replace=False) + 1
        cnf.add_clause([int(v) if rng.integers(2) else -int(v) for v in vs])
    return cnf


# (status, conflicts, decisions, propagations) of the linear-scan branching
# the solver started from. Any change to the branching order, the learning
# scheme or the restarts moves these; an equivalent faster search does not.
GOLDEN_SEARCH = {
    "php(5,4)": ("UNSAT", 28, 38, 297),
    "3sat-0": ("UNSAT", 87, 99, 1380),
    "3sat-1": ("UNSAT", 99, 116, 1479),
    "3sat-2": ("UNSAT", 106, 124, 1753),
    "3sat-3": ("SAT", 50, 77, 876),
    "3sat-4": ("UNSAT", 122, 137, 2028),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SEARCH))
def test_search_is_pinned(name):
    cnf = pigeonhole(5, 4) if name == "php(5,4)" else random_3sat(int(name[-1]))
    res = sat_solve(cnf)
    assert (res.status, res.conflicts, res.decisions, res.propagations) == \
        GOLDEN_SEARCH[name]
    if res.status == "SAT":
        assert model_satisfies(cnf, res.model)


def test_dip_attack_search_is_pinned():
    kn = make_ll_baseline(random_tree(np.random.default_rng(7), 5), 6, seed=2)
    trace = dip_attack(kn, make_oracle(kn))
    assert (trace.status, trace.iterations, trace.conflicts) == ("solved", 3, 12)
    assert trace.key == [0, 0, 0, 1, 1, 0]
    assert trace.dips == [{"pi5": 0, "pi3": 0, "pi4": 0, "pi2": 0},
                          {"pi5": 0, "pi3": 0, "pi4": 1, "pi2": 0},
                          {"pi5": 0, "pi3": 0, "pi4": 1, "pi2": 1}]
