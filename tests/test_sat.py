"""CDCL solver checked against brute-force enumeration on random formulas,
with its search pinned on fixed instances."""
import itertools

import numpy as np
import pytest

from ipcamo.aig import random_tree
from ipcamo.attack import dip_attack, make_ll_baseline, make_oracle
from ipcamo import cnf as cnf_module
from ipcamo.cnf import CHRONO_LEVELS, CnfFormula, SatResult, _luby, sat_solve


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
    cnf = CnfFormula(n_vars)
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
    cnf = CnfFormula(3)
    n = cnf.n_vars
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
    x, y = [cnf.new_var() for _ in range(2)]
    for cl in ([x], [-x, y], [-x, -y]):
        cnf.add_clause(cl)
    res = sat_solve(cnf)
    assert (res.status, res.decisions, res.propagations) == ("UNSAT", 0, 1)


def test_unit_propagation_chain():
    cnf = CnfFormula()
    vs = [cnf.new_var() for _ in range(6)]
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
    a, b = [cnf.new_var() for _ in range(2)]
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
        cnf.n_vars += 1 + int(rng.integers(3))
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
    a, b = [cnf.new_var() for _ in range(2)]
    cnf.add_clause([a, b])
    assert sat_solve(cnf, assumptions=[-a, -b]).status == "UNSAT"
    assert sat_solve(cnf).status == "SAT"


def test_clause_added_after_a_solve_meets_level_zero():
    cnf = CnfFormula()
    a, b, c = [cnf.new_var() for _ in range(3)]
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
    a, b = [cnf.new_var() for _ in range(2)]
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
    cnf = CnfFormula(12)
    res = sat_solve(cnf)
    assert res.status == "SAT" and res.decisions == 12
    assert not any(res.model.values())
    # (x1 | x2), (x3 | x4), ...: deciding x1 = False forces x2 = True, and so
    # on; a highest-index-first order would give the mirror-image model
    cnf = CnfFormula()
    vs = [cnf.new_var() for _ in range(12)]
    for a, b in zip(vs[::2], vs[1::2]):
        cnf.add_clause([a, b])
    res = sat_solve(cnf)
    assert res.decisions == 6
    assert [res.model[v] for v in vs] == [False, True] * 6


def random_3sat(seed: int, n_vars: int = 60, ratio: float = 4.26) -> CnfFormula:
    rng = np.random.default_rng(seed)
    cnf = CnfFormula(n_vars)
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


def test_bad_assumption_leaves_the_formula_usable():
    # a float assumption used to raise TypeError inside the search, at
    # decision level 1, and the next call then broke its own assumption
    cnf = CnfFormula()
    a, b = [cnf.new_var() for _ in range(2)]
    cnf.add_clause([a, b])
    for bad in ([-a, 1.0], [-a, "1"], [np.int64(1)], [a, None], [-a, 0], [-a, 3]):
        with pytest.raises(ValueError, match=r"^bad assumption literal .* \(have 2 vars\)$"):
            sat_solve(cnf, bad)
    res = sat_solve(cnf, [a])
    assert res.status == "SAT" and res.model[a]
    res = sat_solve(cnf, [-a])
    assert res.status == "SAT" and res.model == {a: False, b: True}


# -- chronological backtracking ------------------------------------------------
# A padded formula: variable 1, PAD free variables that occur in no clause,
# then a random core over variable 1 and the core variables. With no
# activity yet, the first descent decides 1, the free variables, then the
# core, so a learnt clause over 1 and one core variable backjumps over the
# whole pad.

PAD = 150


def core_clauses(rng, core: list[int], n_clauses: int) -> list[list[int]]:
    """Random 3-clauses over core[1:], about half of them with core[0] in
    place of their first literal."""
    out = []
    for _ in range(n_clauses):
        vs = [int(v) for v in rng.choice(core[1:], size=3, replace=False)]
        if rng.random() < 0.5:
            vs[0] = core[0]
        out.append([v if rng.integers(2) else -v for v in vs])
    return out


def padded_cnf(seed: int, n_core: int = 14, ratio: float = 4.3) -> CnfFormula:
    rng = np.random.default_rng(seed)
    cnf = CnfFormula()
    first = cnf.new_var()
    cnf.n_vars += PAD
    core = [first] + [cnf.new_var() for _ in range(n_core)]
    for cl in core_clauses(rng, core, round(ratio * n_core)):
        cnf.add_clause(cl)
    return cnf


def core_models(cnf: CnfFormula):
    """Every assignment of the variables that occur in clauses, as bit rows
    by variable, and which of them satisfy every clause."""
    vs = sorted({abs(l) for cl in cnf.clauses for l in cl})
    idx = np.arange(1 << len(vs))
    bits = {v: (idx >> i) & 1 == 1 for i, v in enumerate(vs)}
    ok = np.ones(len(idx), bool)
    for cl in cnf.clauses:
        ok &= np.logical_or.reduce([bits[l] if l > 0 else ~bits[-l] for l in cl])
    return bits, ok


def check_against_core(cnf: CnfFormula, res: SatResult, assumptions=()) -> None:
    bits, ok = core_models(cnf)
    under = ok.copy()
    for a in assumptions:
        under &= bits[a] if a > 0 else ~bits[-a]
    assert res.status == ("SAT" if under.any() else "UNSAT")
    if res.status == "SAT":
        assert model_satisfies(cnf, res.model, assumptions)
    # the call ends at level 0, and each literal left there follows from
    # the clauses alone
    s = cnf._search
    assert not s.lim and all(s.level[abs(l)] == 0 for l in s.trail)
    for l in s.trail:
        assert not (ok & (~bits[l] if l > 0 else bits[-l])).any()


def solve_padded(seed: int) -> None:
    cnf = padded_cnf(seed)
    check_against_core(cnf, sat_solve(cnf))


def solve_padded_incrementally(seed: int) -> None:
    """Three batches, each of PAD free variables and five core variables,
    solved after each batch without and with assumptions; later batches'
    clauses also use the earlier core variables."""
    rng = np.random.default_rng(1000 + seed)
    cnf = CnfFormula()
    core = [cnf.new_var()]
    level0: set[int] = set()
    for _ in range(3):
        cnf.n_vars += PAD
        core += [cnf.new_var() for _ in range(5)]
        for cl in core_clauses(rng, core, 20):
            cnf.add_clause(cl)
        for k in (0, 1, 3):
            assumps = [core[a] if a > 0 else -core[-a]
                       for a in random_lits(rng, len(core) - 1, k)]
            res = sat_solve(cnf, assumps)
            check_against_core(cnf, res, assumps)
            assert level0 <= set(cnf._search.trail)    # level-0 literals survive
            level0 = set(cnf._search.trail)


@pytest.mark.parametrize("seed", range(12))
def test_padded_formulas_match_brute_force(seed):
    solve_padded(seed)


@pytest.mark.parametrize("seed", range(12))
def test_padded_formulas_incremental_match_brute_force(seed):
    solve_padded_incrementally(seed)


# (status, conflicts, decisions, propagations) of padded_cnf(seed). Seed 3
# keeps the pad after its long backjump, where a purely non-chronological
# search re-decides it: ("SAT", 4, 311, 337). Seed 2 moves when implied
# literals take the current level or kept literals are not propagated
# again; non-chronologically it is ("SAT", 3, 310, 335).
GOLDEN_PADDED = {2: ("SAT", 4, 314, 340), 3: ("SAT", 4, 161, 187)}


@pytest.mark.parametrize("seed", sorted(GOLDEN_PADDED))
def test_padded_search_is_pinned(seed):
    res = sat_solve(padded_cnf(seed))
    assert (res.status, res.conflicts, res.decisions, res.propagations) == \
        GOLDEN_PADDED[seed]


def test_padded_formulas_take_long_backjumps(monkeypatch):
    """The padded formulas above do reach the chronological path: most of
    them learn a clause more than CHRONO_LEVELS levels below its conflict,
    and some then meet a conflict below the current level, among literals
    propagated out of order."""
    jumps: list[int] = []
    low_conflicts: list[int] = []
    analyze, propagate = cnf_module._Search.analyze, cnf_module._Search.propagate

    def recording_analyze(self, confl):
        learnt, back = analyze(self, confl)
        jumps.append(len(self.lim) - back)
        return learnt, back

    def recording_propagate(self):
        confl = propagate(self)
        if confl is not None:
            c = max(self.level[abs(q)] for q in self.clauses[confl])
            low_conflicts.append(len(self.lim) - c)
        return confl

    monkeypatch.setattr(cnf_module._Search, "analyze", recording_analyze)
    monkeypatch.setattr(cnf_module._Search, "propagate", recording_propagate)
    fired = 0
    for seed in range(12):
        for run in (solve_padded, solve_padded_incrementally):
            del jumps[:]
            run(seed)
            fired += max(jumps, default=0) > CHRONO_LEVELS
    assert fired >= 12
    assert sum(d > 0 for d in low_conflicts) >= 5


@pytest.mark.parametrize("seed", range(20))
def test_always_chronological_matches_brute_force(seed, monkeypatch):
    """With the threshold at 0 every backjump is chronological, so out-of-order
    literals fill the trail even on small formulas."""
    monkeypatch.setattr(cnf_module, "CHRONO_LEVELS", 0)
    rng = np.random.default_rng(2000 + seed)
    cnf = random_cnf(rng, n_vars=10, n_clauses=int(rng.integers(30, 50)))
    check_against_core(cnf, sat_solve(cnf))
    solve_padded(seed)
    solve_padded_incrementally(seed)
    cnf = random_3sat(seed, n_vars=18)
    for k in (3, 0, 6):
        assumps = random_lits(rng, 18, k)
        check_against_core(cnf, sat_solve(cnf, assumps), assumps)
