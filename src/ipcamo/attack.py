"""Attack-side tooling: CNF encoding, equivalence checking and the DIP loop.

The camouflaged netlist is re-expressed as an ordinary circuit with extra
key inputs (2 bits per candidate cell in the output cone, each one read by
the circuit), so the oracle-guided SAT attack and the logic-locking
baseline share one code path.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .aig import AigGraph, pattern_words
from .camouflage import CamouflagedNetlist
from .cnf import CnfFormula, SatResult, check_literals, sat_solve
from .covert import CovertGateKind, replace_cells
from .gatelevel import (Circuit, CompiledCircuit, Gate, from_aig, make_gate, miter, prune,
                        simplify)

# -- Tseitin ------------------------------------------------------------------


def tseitin_encode(
    cnf: CnfFormula,
    c: Circuit | CompiledCircuit,
    inputs: dict[str, int],
    true_lit: int,
) -> dict[str, int]:
    """Encode the circuit over pre-assigned input literals; returns net -> literal.

    inputs may bind input nets to any literal, including +-true_lit for
    constants, which fold through the encoding: a net whose value they fix
    maps to +-true_lit, and a gate left with one live input maps to that
    input's literal or its negation. Only a gate with two or more live
    inputs gets an auxiliary variable; an AND costs one clause per input
    plus one, and OR is the negated AND of negated inputs. A circuit whose
    inputs are all constant adds no variables and no clauses. Callers that
    encode one circuit many times pass it compiled, so its topological
    order is computed once. An unbound input net (KeyError) or a bad
    true_lit or input literal (add_clause's ValueError) is caught before
    the formula changes.
    """
    cc = c if isinstance(c, CompiledCircuit) else CompiledCircuit(c)
    t = true_lit
    n = cnf.n_vars
    for net in cc.inputs:
        if net not in inputs:
            raise KeyError(f"no literal bound for input {net!r}")
    # the bound literals are checked once, by add_clause's rule; every clause
    # below is made of them and of new variables, so it is appended unchecked
    check_literals([t] + [inputs[net] for net in cc.inputs], n)
    clauses = cnf.clauses
    lit = [0] * len(cc.nets)
    for i, (op, fanin) in enumerate(zip(cc.ops, cc.fanin)):
        if op == "not":
            lit[i] = -lit[fanin[0]]
        elif op == "and" or op == "or" or op == "nand":
            # or(x..) = not and(not x..)
            if op == "or":
                ins = [-lit[s] for s in fanin]
                negate = True
            else:
                ins = [lit[s] for s in fanin]
                negate = op == "nand"
            if -t in ins:
                lit[i] = t if negate else -t
                continue
            if t in ins:
                ins = [x for x in ins if x != t]
            if len(ins) > 1:
                n += 1
                o = n
                clauses += [[-o, x] for x in ins]
                clauses.append([o] + [-x for x in ins])
            else:
                o = ins[0] if ins else t
            lit[i] = -o if negate else o
        elif op == "input":
            lit[i] = inputs[cc.nets[i]]
        elif op == "buf":
            lit[i] = lit[fanin[0]]
        elif op == "xor" or op == "xnor":
            a, b = lit[fanin[0]], lit[fanin[1]]
            flip = op == "xnor"
            if abs(a) == t:
                a, b = b, a
            if abs(b) == t:   # xor with a constant: a or its negation
                lit[i] = -a if (b == t) != flip else a
                continue
            n += 1
            w = -n if flip else n
            clauses += ([-w, a, b], [-w, -a, -b], [w, -a, b], [w, a, -b])
            lit[i] = n
        else:   # const1, const0
            lit[i] = t if op == "const1" else -t
    cnf.n_vars = n
    return dict(zip(cc.nets, lit))


# -- Equivalence --------------------------------------------------------------


def _cones(x) -> Circuit | CompiledCircuit:
    """x cut to its output cones: an AIG compiled straight, a Circuit pruned."""
    return CompiledCircuit.from_aig(x) if isinstance(x, AigGraph) else prune(x)


def _tables(support, *circuits: Circuit | CompiledCircuit) -> list[list[int]]:
    """Each circuit's output words over all 2^k patterns of the k sorted
    support inputs."""
    words, full = pattern_words(len(support))
    bound = dict(zip(sorted(support), words))
    return [(c if isinstance(c, CompiledCircuit) else CompiledCircuit(c)).run(bound, full)
            for c in circuits]


def equivalence_check(a, b, time_budget: float | None = None) -> bool:
    """Exact combinational equivalence; truth tables when small, miter-SAT else.

    Both operands are cut to their output cones first, so inputs with no
    path to an output never enter the comparison; an AIG is compiled
    straight to its cones, without lowering it to gates. Up to 16 support
    inputs, each side's truth table comes from one bit-parallel pass over
    all 2^k patterns. Above that the miter of the two circuits is
    simplified once, which can drop inputs that cancel and folds
    structurally identical designs to a constant with no inputs left. If at
    most 16 inputs remain, the miter's truth table must be 0; otherwise SAT
    must find the miter unsatisfiable.
    """
    c1, c2 = _cones(a), _cones(b)
    if len(c1.outputs) != len(c2.outputs):
        return False
    support = set(c1.inputs) | set(c2.inputs)
    if len(support) <= 16:
        t1, t2 = _tables(support, c1, c2)
        return t1 == t2
    m = simplify(miter(*(prune(from_aig(x)) if isinstance(x, AigGraph) else c
                         for x, c in ((a, c1), (b, c2)))))
    if len(m.inputs) <= 16:
        return _tables(m.inputs, m) == [[0]]
    cnf = CnfFormula()
    t = cnf.new_var()
    cnf.add_clause([t])
    lits = tseitin_encode(cnf, m, {n: cnf.new_var() for n in m.inputs}, t)
    cnf.add_clause([lits[m.outputs[0]]])
    res = sat_solve(cnf, time_budget=time_budget)
    if res.status == "BUDGET":
        raise TimeoutError("equivalence check exceeded its time budget")
    return res.status == "UNSAT"


# -- Keyed netlists -----------------------------------------------------------


@dataclass
class KeyedNetlist:
    """A circuit whose inputs split into payload inputs and key inputs."""

    circuit: Circuit
    key_inputs: list[str]
    correct_key: list[int]

    @property
    def n_key_bits(self) -> int:
        return len(self.key_inputs)

    @property
    def payload_inputs(self) -> list[str]:
        keys = set(self.key_inputs)
        return [n for n in self.circuit.inputs if n not in keys]

    def under(self, key: list[int]) -> Circuit:
        """The circuit with each key input tied to its bit by a const0 or const1
        gate; a key of any length but n_key_bits raises ValueError."""
        if len(key) != self.n_key_bits:
            raise ValueError(
                f"key has {len(key)} bits; the netlist has {self.n_key_bits} key inputs")
        ties = {net: Gate("const1" if bit else "const0")
                for net, bit in zip(self.key_inputs, key)}
        return Circuit({**self.circuit.gates, **ties}, list(self.circuit.outputs))


_KEYED_OPS = frozenset(kind.look for kind in CovertGateKind)


def keyize_netlist(nl: CamouflagedNetlist) -> KeyedNetlist:
    """Attacker's key-programmable model of a camouflaged netlist.

    The model starts from the key-00 view: the appearance view with each
    covert cell, one gate of the view, read as `kind.key00` of its real
    input (covert.replace_cells), pruned to the output cone. Each inverter,
    buffer and NAND net of that cone is a candidate with 2 key bits
    (`key{2i}`, `key{2i+1}` for the i-th in sorted net order): 00 keeps its
    gate, 01 ties the output low, 10 (and its alias 11) ties it high. So
    each covert cell is one candidate. The correct key is a placement's
    `config.key_bits`, or 00 for a genuine cell. The nets made for candidate
    x (its key inputs, `x__norm`, `x__nk0` and `x__pick`) are named by
    `Circuit.fresh` with the cone's nets taken.
    """
    # the one reading of the secret: each covert cell is its key-00 gate
    cone = prune(replace_cells(nl.appearance_view, nl.placements,
                               lambda p: make_gate(p.kind.key00, (p.real_in,))))
    live = cone.gates
    key_of = {p.out: p.config.key_bits for p in nl.placements}
    keyed = sorted(net for net, g in live.items() if g.op in _KEYED_OPS)

    # one pass in the circuit's net order: the live unkeyed nets, then per
    # keyed net its key inputs, the true cell function (none for a buffer),
    # and out = k1 ? 1 : (k0 ? 0 : normal)
    keyed_c = Circuit({n: g for n, g in live.items() if g.op not in _KEYED_OPS}, cone.outputs)
    key_input = make_gate("input")
    key_inputs: list[str] = []
    correct: list[int] = []

    def made(base: str, gate: Gate) -> str:
        net = keyed_c.fresh(base, live)
        keyed_c.gates[net] = gate
        return net

    for i, net in enumerate(keyed):
        cell = live[net]
        correct += key_of.get(net, (0, 0))
        k1 = made(f"key{2 * i}", key_input)
        k0 = made(f"key{2 * i + 1}", key_input)
        normal = cell.ins[0] if cell.op == "buf" else made(f"{net}__norm", cell)
        nk0 = made(f"{net}__nk0", make_gate("not", (k0,)))
        pick = made(f"{net}__pick", make_gate("and", (nk0, normal)))
        keyed_c.gates[net] = make_gate("or", (k1, pick))
        key_inputs += (k1, k0)
    return KeyedNetlist(keyed_c, key_inputs, correct)


def make_ll_baseline(f: AigGraph, n_key_bits: int, seed: int = 0) -> KeyedNetlist:
    """Area-matched logic-locking reference: XOR/XNOR key gates on random nets."""
    c = from_aig(f)
    sites = sorted(n for n, g in c.gates.items() if g.op not in ("input",))
    if n_key_bits > len(sites):
        raise ValueError(f"only {len(sites)} lockable nets for {n_key_bits} key bits")
    rng = np.random.default_rng(seed)
    chosen = [sites[i] for i in sorted(rng.choice(len(sites), size=n_key_bits,
                                                  replace=False))]
    locked = Circuit(gates=dict(c.gates), outputs=list(c.outputs))
    key_inputs, correct = [], []
    for i, net in enumerate(chosen):
        raw = locked.fresh(f"{net}__raw")
        locked.gates[raw] = locked.gates[net]
        k = locked.add(locked.fresh(f"key{i}"), "input")
        key_inputs.append(k)
        flavor = int(rng.integers(2))  # 0: XOR (key 0), 1: XNOR (key 1)
        locked.gates[net] = Gate("xnor" if flavor else "xor", (raw, k))
        correct.append(flavor)
    return KeyedNetlist(locked, key_inputs, correct)


# -- DIP-based SAT attack -----------------------------------------------------


@dataclass
class DipTrace:
    status: str                      # "solved" | "budget"
    key: list[int] | None
    iterations: int
    dips: list[dict] = field(default_factory=list)
    # (conflicts, decisions, propagations) of each SAT call of the attack
    solves: list[tuple[int, int, int]] = field(default_factory=list)

    def add_solve(self, res: SatResult) -> None:
        self.solves.append((res.conflicts, res.decisions, res.propagations))

    # conflicts summed over every call, as `ipcamo attack` reports them
    @property
    def conflicts(self) -> int:
        return sum(s[0] for s in self.solves)


def make_oracle(kn: KeyedNetlist):
    """Black-box oracle: the netlist evaluated under its correct key."""
    return CompiledCircuit(kn.under(kn.correct_key)).evaluate


def dip_attack(
    kn: KeyedNetlist,
    oracle,
    time_budget: float | None = None,
    max_iters: int = 10_000,
) -> DipTrace:
    """Classic oracle-guided attack: find distinguishing inputs until the
    two-key miter is UNSAT, then read a consistent key off the constraints.

    The whole attack is one incremental formula. The miter's two
    disagreement clauses are guarded by an activation variable m: the DIP
    loop solves under the assumption m, and each DIP adds its two
    constraint copies, with the payload inputs folded to constants, to the
    same formula. Key extraction is one solve under -m, which reads the
    first key copy; the learnt clauses and phases of every solve carry over
    to the next.

    The miter compares one output, so netlists with several outputs are
    rejected rather than attacked on their first output alone."""
    if len(kn.circuit.outputs) != 1:
        raise ValueError(f"dip_attack needs a single-output netlist, "
                         f"got {len(kn.circuit.outputs)} outputs")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    xs = kn.payload_inputs
    out_net = kn.circuit.outputs[0]
    sim = CompiledCircuit(kn.circuit)  # one topological order for every copy

    cnf = CnfFormula()
    t = cnf.new_var()
    cnf.add_clause([t])
    x_vars = {n: cnf.new_var() for n in xs}
    ka = {n: cnf.new_var() for n in kn.key_inputs}
    kb = {n: cnf.new_var() for n in kn.key_inputs}
    oa = tseitin_encode(cnf, sim, {**x_vars, **ka}, t)[out_net]
    ob = tseitin_encode(cnf, sim, {**x_vars, **kb}, t)[out_net]
    m = cnf.new_var()
    cnf.add_clause([oa, ob, -m])
    cnf.add_clause([-oa, -ob, -m])

    trace = DipTrace("budget", None, 0)

    def solve(assumption: int) -> SatResult | None:
        """The solver's result, or None once the time budget is spent."""
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
        res = sat_solve(cnf, [assumption], time_budget=remaining)
        trace.add_solve(res)
        return None if res.status == "BUDGET" else res

    while trace.iterations < max_iters:
        res = solve(m)
        if res is None:
            return trace
        if res.status == "UNSAT":
            break
        dip = {n: int(res.model[x_vars[n]]) for n in xs}
        y = oracle(dip)[out_net]
        trace.dips.append(dip)
        trace.iterations += 1
        binding = {n: t if dip[n] else -t for n in xs}
        for keys in (ka, kb):
            o = tseitin_encode(cnf, sim, {**binding, **keys}, t)[out_net]
            cnf.add_clause([o if y else -o])
    else:  # ran out of iterations with distinguishing inputs left
        return trace

    # key extraction: any key satisfying every recorded observation
    res = solve(-m)
    if res is None or res.status != "SAT":
        return trace
    trace.status = "solved"
    trace.key = [int(res.model[ka[n]]) for n in kn.key_inputs]
    return trace


def key_is_correct(kn: KeyedNetlist, key: list[int]) -> bool:
    """Does the recovered key realize the oracle function (not necessarily
    bit-identical to the designer's key, thanks to the 11/10 alias)?"""
    return equivalence_check(kn.under(key), kn.under(kn.correct_key))
