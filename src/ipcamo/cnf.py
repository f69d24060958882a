"""CNF container, DIMACS export, and a deterministic CDCL SAT solver.

Two-watched-literal propagation, first-UIP clause learning, VSIDS-style
activities with phase saving and Luby restarts. Small and dependency-free.

Branching takes the unassigned variable of highest activity from an indexed
binary max-heap (MiniSat's order heap, Een & Sorensson 2003): a position
array locates each variable, so a bump sifts it up in place and the heap
never holds a variable twice. Assigned variables stay in the heap until a
decision pops them; backtracking re-inserts what it unassigns. The order is
total: equal activities break toward the lowest variable index, so the
heap picks exactly what a scan over all variables would, and runs repeat
bit-for-bit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class CnfFormula:
    n_vars: int = 0
    clauses: list[list[int]] = field(default_factory=list)

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def new_vars(self, k: int) -> list[int]:
        return [self.new_var() for _ in range(k)]

    def add_clause(self, lits) -> None:
        lits = list(lits)
        if not lits:
            raise ValueError("empty clause")
        for l in lits:
            if not isinstance(l, int) or l == 0 or abs(l) > self.n_vars:
                raise ValueError(f"bad literal {l!r} (have {self.n_vars} vars)")
        self.clauses.append(lits)

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.n_vars} {len(self.clauses)}"]
        lines += [" ".join(map(str, cl)) + " 0" for cl in self.clauses]
        return "\n".join(lines) + "\n"

    def copy(self) -> "CnfFormula":
        return CnfFormula(self.n_vars, [list(cl) for cl in self.clauses])


@dataclass
class SatResult:
    status: str                     # "SAT" | "UNSAT" | "BUDGET"
    model: dict[int, bool] | None = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0


def _luby(i: int) -> int:
    """1,1,2,1,1,2,4,... (1-indexed)."""
    k = i + 1
    if k & (k - 1) == 0:
        return k >> 1
    return _luby(i - (1 << (k.bit_length() - 1)) + 1)


def sat_solve(
    cnf: CnfFormula,
    assumptions: tuple[int, ...] | list[int] = (),
    conflict_budget: int | None = None,
    time_budget: float | None = None,
) -> SatResult:
    """Solve cnf (plus unit assumptions); BUDGET when a limit trips first."""
    n = cnf.n_vars
    clauses = [list(cl) for cl in cnf.clauses]
    for a in assumptions:
        if a == 0 or abs(a) > n:
            raise ValueError(f"bad assumption literal {a}")
        clauses.append([a])

    value = [0] * (n + 1)       # 0 unassigned, +1 true, -1 false
    level = [0] * (n + 1)
    reason: list[int | None] = [None] * (n + 1)
    saved = [False] * (n + 1)   # phase saving
    activity = [0.0] * (n + 1)
    var_inc = 1.0
    trail: list[int] = []
    lim: list[int] = []
    qhead = 0
    watches: dict[int, list[int]] = {}
    stats = SatResult("BUDGET")
    deadline = time.monotonic() + time_budget if time_budget is not None else None

    def val(lit: int) -> int:
        v = value[abs(lit)]
        return v if lit > 0 else -v

    def enqueue(lit: int, why: int | None) -> None:
        v = abs(lit)
        value[v] = 1 if lit > 0 else -1
        level[v] = len(lim)
        reason[v] = why
        trail.append(lit)

    def attach(ci: int) -> bool:
        """Set up watches; returns False on immediate top-level conflict."""
        cl = clauses[ci]
        if len(cl) == 1:
            if val(cl[0]) < 0:
                return False
            if val(cl[0]) == 0:
                enqueue(cl[0], ci)
            return True
        watches.setdefault(cl[0], []).append(ci)
        watches.setdefault(cl[1], []).append(ci)
        return True

    def done(status: str, model: dict[int, bool] | None = None) -> SatResult:
        return SatResult(status, model, stats.conflicts, stats.decisions,
                         stats.propagations)

    for ci in range(len(clauses)):
        if not attach(ci):
            return done("UNSAT")

    def propagate() -> int | None:
        nonlocal qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            stats.propagations += 1
            false_lit = -lit
            ws = watches.get(false_lit, [])
            keep: list[int] = []
            i = 0
            while i < len(ws):
                ci = ws[i]
                i += 1
                cl = clauses[ci]
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                if val(cl[0]) > 0:
                    keep.append(ci)
                    continue
                moved = False
                for k in range(2, len(cl)):
                    if val(cl[k]) >= 0:
                        cl[1], cl[k] = cl[k], cl[1]
                        watches.setdefault(cl[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(ci)
                if val(cl[0]) < 0:
                    keep.extend(ws[i:])
                    watches[false_lit] = keep
                    return ci
                enqueue(cl[0], ci)
            watches[false_lit] = keep
        return None

    # heap[0] is the next decision; "u before v" means activity[u] >
    # activity[v], or equal activities and u < v. pos[v] == -1: not in heap.
    heap = list(range(1, n + 1))     # all activities 0: index order is a heap
    pos = list(range(-1, n))

    def sift_up(i: int) -> None:
        v = heap[i]
        act = activity[v]
        while i:
            up = (i - 1) >> 1
            u = heap[up]
            au = activity[u]
            if au > act or (au == act and u < v):
                break
            heap[i] = u
            pos[u] = i
            i = up
        heap[i] = v
        pos[v] = i

    def sift_down(i: int) -> None:
        v = heap[i]
        act = activity[v]
        size = len(heap)
        while True:
            child = 2 * i + 1
            if child >= size:
                break
            c = heap[child]
            ac = activity[c]
            if child + 1 < size:
                r = heap[child + 1]
                ar = activity[r]
                if ar > ac or (ar == ac and r < c):
                    child, c, ac = child + 1, r, ar
            if act > ac or (act == ac and v < c):
                break
            heap[i] = c
            pos[c] = i
            i = child
        heap[i] = v
        pos[v] = i

    def bump(v: int) -> None:
        nonlocal var_inc
        activity[v] += var_inc
        if activity[v] > 1e100:
            for u in range(1, n + 1):
                activity[u] *= 1e-100
            var_inc *= 1e-100
            # underflow can turn a strict order into a tie: rebuild the heap
            for i in range(len(heap) // 2 - 1, -1, -1):
                sift_down(i)
        elif pos[v] >= 0:
            sift_up(pos[v])

    seen = [False] * (n + 1)    # analyze() leaves it all False again

    def analyze(confl: int) -> tuple[list[int], int]:
        learnt = [0]
        counter = 0
        p = None
        idx = len(trail) - 1
        ci: int | None = confl
        while True:
            cl = clauses[ci]
            for q in cl:
                if p is not None and q == p:
                    continue
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    bump(v)
                    if level[v] == len(lim):
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            seen[abs(p)] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            ci = reason[abs(p)]
        for q in learnt[1:]:
            seen[abs(q)] = False
        learnt[0] = -p
        back = 0
        if len(learnt) > 1:
            # watch a literal from the backjump level in slot 1
            hi = max(range(1, len(learnt)), key=lambda k: level[abs(learnt[k])])
            learnt[1], learnt[hi] = learnt[hi], learnt[1]
            back = level[abs(learnt[1])]
        return learnt, back

    def cancel_until(lvl: int) -> None:
        nonlocal qhead
        while trail and level[abs(trail[-1])] > lvl:
            lit = trail.pop()
            v = abs(lit)
            saved[v] = lit > 0
            value[v] = 0
            reason[v] = None
            if pos[v] < 0:
                pos[v] = len(heap)
                heap.append(v)
                sift_up(pos[v])
        del lim[lvl:]
        qhead = len(trail)

    def decide() -> int | None:
        while heap:
            v = heap[0]
            pos[v] = -1
            last = heap.pop()
            if heap:
                heap[0] = last
                sift_down(0)
            if value[v] == 0:
                return v if saved[v] else -v
        return None

    restarts = 0
    conflicts_until_restart = 64 * _luby(1)
    confl = propagate()
    if confl is not None:
        return done("UNSAT")
    while True:
        if deadline is not None and time.monotonic() > deadline:
            return done("BUDGET")
        confl = propagate()
        if confl is not None:
            stats.conflicts += 1
            if conflict_budget is not None and stats.conflicts > conflict_budget:
                return done("BUDGET")
            if not lim:
                return done("UNSAT")
            learnt, back = analyze(confl)
            cancel_until(back)
            ci = len(clauses)
            clauses.append(learnt)
            if len(learnt) > 1:
                watches.setdefault(learnt[0], []).append(ci)
                watches.setdefault(learnt[1], []).append(ci)
            enqueue(learnt[0], ci)
            var_inc /= 0.95
            conflicts_until_restart -= 1
            if conflicts_until_restart <= 0:
                restarts += 1
                conflicts_until_restart = 64 * _luby(restarts + 1)
                cancel_until(0)
            continue
        lit = decide()
        if lit is None:
            return done("SAT", {v: value[v] > 0 for v in range(1, n + 1)})
        stats.decisions += 1
        lim.append(len(trail))
        enqueue(lit, None)
