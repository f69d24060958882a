"""CNF container and a deterministic, incremental CDCL SAT solver.

Two-watched-literal propagation, first-UIP clause learning, VSIDS-style
activities with phase saving and Luby restarts. Small and dependency-free.

Backjumps are chronological when they are long (Nadel & Ryvchin, SAT 2018;
Moehle & Biere, SAT 2019). A conflict's level c is the highest level in the
conflicting clause: the search first cancels to c, where `analyze` takes the
first UIP, and then backjumps to the learnt clause's level b, unless
c - b > CHRONO_LEVELS: then it cancels one level only, to c - 1, keeping the
levels in between, and the asserting literal goes in at level b all the
same (out of order). So the trail is no longer sorted by level. A propagated literal takes
the highest level of its reason's other literals, and `cancel_until(l)`
keeps the trail literals of level <= l, in their order, and propagates them
again. Every backjump of at most CHRONO_LEVELS levels runs as it did in a
purely non-chronological solver, so a search that makes only such jumps is
the same search, count for count.

Branching takes the unassigned variable of highest activity, equal
activities breaking toward the lowest variable index; the order is total, so
runs repeat bit-for-bit. The choice comes from two tiers. Variables with
activity > 0 sit in a binary heap of (-activity, variable) entries kept by
`heapq`, as MiniSat's order heap does (Een & Sorensson 2003): a bump pushes a
fresh entry and leaves the old one stale, a decision pops and skips stale and
assigned entries, and backtracking re-inserts what it unassigns. Variables
never bumped (most of a Tseitin formula) stay out of the heap: when the heap
holds no unassigned variable, a decision scans up from a cursor, below which
no unassigned activity-0 variable lies, and backtracking lowers the cursor.
A rescale that underflows activities to 0 sorts every variable into its tier
again. So the two tiers pick exactly what a scan over all variables would.

The solver is incremental, with MiniSat's interface. A formula carries its
own search state, created by its first `sat_solve` call: the learnt
clauses, watches, activities, saved phases, the order heap and the level-0
trail. Each later call continues from that state:
- it grows the state to `n_vars` and attaches the clauses appended since
  the last call (`clauses` is append-only; learnt clauses stay private);
- each new clause is first simplified against the level-0 assignment that
  held before the batch: a satisfied clause is dropped, false literals are
  dropped, an empty clause makes the formula UNSAT for good, and a clause
  left with one literal is enqueued at level 0. A fresh formula has no such
  assignment, so its first call attaches every clause as given;
- assumptions are the first decision levels, not unit clauses, so they bind
  one call only. They are checked by `add_clause`'s rule before the search
  state is touched. An assumption found false makes that call UNSAT and
  leaves the formula usable;
- every call ends back at level 0, keeping the level-0 literals that were
  enqueued out of order, and a conflict among level-0 literals makes the
  formula UNSAT for good.
`CnfFormula(f.n_vars, [list(cl) for cl in f.clauses])` gives the same
clauses with a fresh search state.

Values and watch lists are indexed by literal: a list of 2n + 1 entries
holds +v at index v and -v at index -v (Python's negative indexing), so a
literal's value is one lookup.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

# longest backjump taken in full; past it the search backtracks one level
# (the threshold of Nadel & Ryvchin, SAT 2018)
CHRONO_LEVELS = 100


def check_literals(lits, n: int, what: str = "literal") -> None:
    """Raise ValueError unless every literal is a nonzero int in [-n, n]."""
    for l in lits:
        if not isinstance(l, int) or l == 0 or not -n <= l <= n:
            raise ValueError(f"bad {what} {l!r} (have {n} vars)")


@dataclass
class CnfFormula:
    n_vars: int = 0
    clauses: list[list[int]] = field(default_factory=list)
    _search: _Search | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def add_clause(self, lits) -> None:
        lits = list(lits)
        if not lits:
            raise ValueError("empty clause")
        check_literals(lits, self.n_vars)
        self.clauses.append(lits)


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


class _Search:
    """The search state one formula keeps between `sat_solve` calls."""

    def __init__(self) -> None:
        self.n = 0
        self.attached = 0                       # cnf.clauses taken in so far
        self.clauses: list[list[int]] = []      # attached and learnt clauses
        self.value = [0]         # by literal: +1 true, -1 false, 0 unassigned
        self.watches: list[list[int]] = [[]]    # by literal
        self.level = [0]
        self.reason: list[int | None] = [None]
        self.saved = [False]     # phase saving
        self.activity = [0.0]
        self.seen = [False]      # analyze() leaves it all False again
        self.var_inc = 1.0
        # (-activity[v], v) entries of variables with activity > 0: heap[0]
        # is the next decision, and equal activities break toward the lowest
        # index. in_heap[v]: v has an entry with its current activity; other
        # entries of v are stale. Every unassigned variable of activity > 0
        # is in the heap, and no unassigned one of activity 0 is below
        # cursor, which never passes n + 1.
        self.heap: list[tuple[float, int]] = []
        self.in_heap = [False]
        self.cursor = 1
        self.trail: list[int] = []
        self.lim: list[int] = []
        self.qhead = 0
        self.unsat = False
        self.conflicts = self.decisions = self.propagations = 0

    def grow(self, n: int) -> None:
        old, k = self.n, n - self.n
        if k <= 0:
            return
        # new literals go between +old and -old, keeping the 2n + 1 layout
        self.value[old + 1:old + 1] = [0] * (2 * k)
        self.watches[old + 1:old + 1] = [[] for _ in range(2 * k)]
        self.level += [0] * k
        self.reason += [None] * k
        self.saved += [False] * k
        self.activity += [0.0] * k
        self.seen += [False] * k
        self.in_heap += [False] * k     # cursor <= old + 1: nothing to lower
        self.n = n

    def attach(self, new: list[list[int]]) -> bool:
        """Take in new clauses; False when they make the formula UNSAT.

        Each clause is simplified against the level-0 assignment that held
        before the batch; its units are enqueued after the batch, in order."""
        value, clauses, watches = self.value, self.clauses, self.watches
        get = value.__getitem__
        units = []
        for cl in new:
            vals = list(map(get, cl))
            if 1 in vals:
                continue
            cl = [l for l, x in zip(cl, vals) if not x] if -1 in vals else list(cl)
            if len(cl) > 1:
                watches[cl[0]].append(len(clauses))
                watches[cl[1]].append(len(clauses))
                clauses.append(cl)
            elif not cl:
                return False
            else:
                units.append(cl[0])
        for l in units:
            if value[l] < 0:
                return False
            if value[l] == 0:
                self.enqueue(l, None, 0)
        return True

    def enqueue(self, lit: int, why: int | None, lvl: int) -> None:
        v = abs(lit)
        self.value[lit] = 1
        self.value[-lit] = -1
        self.level[v] = lvl
        self.reason[v] = why
        self.trail.append(lit)

    def propagate(self) -> int | None:
        """Index of a conflicting clause, or None at the fixpoint."""
        trail, value, watches = self.trail, self.value, self.watches
        clauses, level, reason = self.clauses, self.level, self.reason
        depth = len(self.lim)
        qhead = start = self.qhead
        confl = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            # an implied literal takes its reason's highest level, which is
            # the current one when false_lit is at it
            top = level[abs(false_lit)] == depth
            # compacted in place: ws[:j] keeps the watches that stay
            ws = watches[false_lit]
            j = 0
            for i, ci in enumerate(ws):
                cl = clauses[ci]
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], false_lit
                first = cl[0]
                if value[first] > 0:
                    ws[j] = ci
                    j += 1
                    continue
                for k in range(2, len(cl)):
                    q = cl[k]
                    if value[q] >= 0:
                        cl[1], cl[k] = q, false_lit
                        watches[q].append(ci)
                        break
                else:
                    ws[j] = ci
                    j += 1
                    if value[first] < 0:
                        confl = ci
                        del ws[j:i + 1]
                        break
                    # enqueue(first, ci), inlined on the hot path
                    value[first] = 1
                    value[-first] = -1
                    v = abs(first)
                    level[v] = depth if top else max(
                        [level[abs(q)] for q in cl[1:]])
                    reason[v] = ci
                    trail.append(first)
            if confl is not None:
                break
            del ws[j:]
        self.qhead = qhead
        self.propagations += qhead - start
        return confl

    def bump(self, v: int) -> None:
        activity = self.activity
        activity[v] += self.var_inc
        if activity[v] > 1e100:
            for u in range(1, self.n + 1):
                activity[u] *= 1e-100
            self.var_inc *= 1e-100
            self.rebuild_heap()   # every entry is now stale
        elif self.in_heap[v] or not self.value[v]:   # first bump if unassigned
            self.in_heap[v] = True
            heapq.heappush(self.heap, (-activity[v], v))
            if len(self.heap) > 2 * self.n:   # mostly stale entries
                self.rebuild_heap()

    def rebuild_heap(self) -> None:
        """Sort every variable into its tier again; activities may have
        underflowed to 0."""
        activity, in_heap, value = self.activity, self.in_heap, self.value
        for v in range(1, self.n + 1):
            in_heap[v] = activity[v] > 0 and (in_heap[v] or not value[v])
        self.heap[:] = [(-activity[v], v) for v in range(1, self.n + 1) if in_heap[v]]
        heapq.heapify(self.heap)
        self.cursor = 1

    def analyze(self, confl: int) -> tuple[list[int], int]:
        """The first-UIP clause at the current level, which is the conflict's
        level, and the level to assert it at."""
        trail, level, reason, seen = self.trail, self.level, self.reason, self.seen
        depth = len(self.lim)
        learnt = [0]
        counter = 0
        p = None
        idx = len(trail) - 1
        ci: int | None = confl
        while True:
            for q in self.clauses[ci]:
                if p is not None and q == p:
                    continue
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self.bump(v)
                    if level[v] == depth:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                v = abs(trail[idx])
                # skip lower-level literals sitting out of order on the trail
                if seen[v] and level[v] == depth:
                    break
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

    def cancel_until(self, lvl: int) -> None:
        """Unassign every level above lvl; the literals of level <= lvl that
        sit above it on the trail keep their order and propagate again."""
        trail, value, saved, reason = self.trail, self.value, self.saved, self.reason
        heap, in_heap, activity, level = self.heap, self.in_heap, self.activity, self.level
        if len(self.lim) > lvl:
            stop = self.lim[lvl]
            cursor = self.cursor
            kept = []
            for lit in trail[stop:]:
                v = abs(lit)
                if level[v] <= lvl:
                    kept.append(lit)
                    continue
                saved[v] = lit > 0
                value[lit] = value[-lit] = 0
                reason[v] = None
                if in_heap[v]:
                    continue
                if activity[v]:
                    in_heap[v] = True
                    heapq.heappush(heap, (-activity[v], v))
                elif v < cursor:
                    cursor = v
            self.cursor = cursor
            trail[stop:] = kept
            del self.lim[lvl:]
            self.qhead = stop

    def decide(self) -> int | None:
        heap, in_heap, activity = self.heap, self.in_heap, self.activity
        while heap:
            act, v = heapq.heappop(heap)
            if -act != activity[v] or not in_heap[v]:
                continue
            in_heap[v] = False
            if self.value[v] == 0:
                return v if self.saved[v] else -v
        # no unassigned variable has activity > 0: the lowest unassigned one
        value, v = self.value, self.cursor
        while v <= self.n and value[v]:
            v += 1
        self.cursor = v
        return None if v > self.n else v if self.saved[v] else -v

    def result(self, status: str, model: dict[int, bool] | None = None) -> SatResult:
        self.cancel_until(0)
        return SatResult(status, model, self.conflicts, self.decisions,
                         self.propagations)

    def solve(self, assumptions: list[int], conflict_budget: int | None,
              deadline: float | None) -> SatResult:
        self.conflicts = self.decisions = self.propagations = 0
        if self.unsat or self.propagate() is not None:
            self.unsat = True
            return self.result("UNSAT")
        lim = self.lim
        restarts = 0
        conflicts_until_restart = 64 * _luby(1)
        while True:
            if deadline is not None and time.monotonic() > deadline:
                return self.result("BUDGET")
            confl = self.propagate()
            if confl is not None:
                self.conflicts += 1
                c = max([self.level[abs(q)] for q in self.clauses[confl]])
                if c == 0:
                    self.unsat = True
                    return self.result("UNSAT")
                if conflict_budget is not None and self.conflicts > conflict_budget:
                    return self.result("BUDGET")
                self.cancel_until(c)
                learnt, back = self.analyze(confl)
                self.cancel_until(c - 1 if c - back > CHRONO_LEVELS else back)
                ci = len(self.clauses)
                self.clauses.append(learnt)
                if len(learnt) > 1:
                    self.watches[learnt[0]].append(ci)
                    self.watches[learnt[1]].append(ci)
                self.enqueue(learnt[0], ci, back)
                self.var_inc /= 0.95
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restarts += 1
                    conflicts_until_restart = 64 * _luby(restarts + 1)
                    self.cancel_until(0)
                continue
            if len(lim) < len(assumptions):
                lit = assumptions[len(lim)]
                if self.value[lit] < 0:
                    return self.result("UNSAT")
                if self.value[lit] > 0:
                    lim.append(len(self.trail))     # an empty level keeps count
                    continue
            else:
                lit = self.decide()
                if lit is None:
                    value = self.value
                    return self.result("SAT", {v: value[v] > 0
                                               for v in range(1, self.n + 1)})
                self.decisions += 1
            lim.append(len(self.trail))
            self.enqueue(lit, None, len(lim))


def sat_solve(
    cnf: CnfFormula,
    assumptions: tuple[int, ...] | list[int] = (),
    conflict_budget: int | None = None,
    time_budget: float | None = None,
) -> SatResult:
    """Solve cnf under assumptions; BUDGET when a limit trips first.

    Continues the formula's search state from its previous call (see the
    module docstring); assumptions hold for this call only."""
    n = cnf.n_vars
    assumptions = list(assumptions)
    check_literals(assumptions, n, "assumption literal")
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    s = cnf._search
    if s is None:
        s = cnf._search = _Search()
    s.grow(n)
    new = cnf.clauses[s.attached:]
    s.attached = len(cnf.clauses)
    if not s.unsat and not s.attach(new):
        s.unsat = True
    return s.solve(assumptions, conflict_budget, deadline)
