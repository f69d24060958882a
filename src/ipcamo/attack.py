"""Attack-side tooling: CNF encoding, equivalence checking and the DIP loop.

The camouflaged netlist is re-expressed as an ordinary circuit with extra
key inputs (2 bits per candidate cell), so the oracle-guided SAT attack and
the logic-locking baseline share one code path.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .aig import AigGraph, pattern_words
from .camouflage import CamouflagedNetlist
from .cnf import CnfFormula, SatResult, sat_solve
from .covert import CovertGateKind, CovertInstance, config_key_bits
from .gatelevel import (Circuit, CompiledCircuit, Gate, from_aig, miter, prune,
                        simplify, substitute)

# -- Tseitin ------------------------------------------------------------------


def tseitin_encode(
    cnf: CnfFormula,
    c: Circuit | CompiledCircuit,
    inputs: dict[str, int],
    true_lit: int,
) -> dict[str, int]:
    """Encode the circuit over pre-assigned input literals; returns net -> literal.

    inputs may bind input nets to any literal, including +-true_lit for
    constants. One auxiliary variable per internal net; an AND costs three
    clauses. Callers that encode one circuit many times pass it compiled,
    so its topological order is computed once.
    """
    cc = c if isinstance(c, CompiledCircuit) else CompiledCircuit(c)
    lit = [0] * len(cc.nets)
    for i, (net, op, fanin) in enumerate(zip(cc.nets, cc.ops, cc.fanin)):
        if op == "input":
            if net not in inputs:
                raise KeyError(f"no literal bound for input {net!r}")
            lit[i] = inputs[net]
            continue
        if op == "const1":
            lit[i] = true_lit
            continue
        if op == "const0":
            lit[i] = -true_lit
            continue
        ins = [lit[s] for s in fanin]
        if op == "buf":
            lit[i] = ins[0]
            continue
        if op == "not":
            lit[i] = -ins[0]
            continue
        o = cnf.new_var()
        if op in ("and", "nand"):
            w = o if op == "and" else -o
            for x in ins:
                cnf.add_clause([-w, x])
            cnf.add_clause([w] + [-x for x in ins])
        elif op == "or":
            for x in ins:
                cnf.add_clause([o, -x])
            cnf.add_clause([-o] + ins)
        elif op in ("xor", "xnor"):
            a, b = ins
            w = o if op == "xor" else -o
            cnf.add_clause([-w, a, b])
            cnf.add_clause([-w, -a, -b])
            cnf.add_clause([w, -a, b])
            cnf.add_clause([w, a, -b])
        lit[i] = o
    return dict(zip(cc.nets, lit))


# -- Equivalence --------------------------------------------------------------


def _as_circuit(x) -> Circuit:
    return from_aig(x) if isinstance(x, AigGraph) else x


def equivalence_check(a, b, time_budget: float | None = None) -> bool:
    """Exact combinational equivalence; truth tables when small, miter-SAT else.

    Both circuits are simplified and pruned first, so inputs with no path to
    an output never enter the comparison and structurally identical designs
    collapse without search. Up to 16 support inputs, each side's truth
    table comes from one bit-parallel pass over all 2^k patterns.
    """
    c1 = simplify(_as_circuit(a))
    c2 = simplify(_as_circuit(b))
    if len(c1.outputs) != len(c2.outputs):
        return False
    support = sorted(set(c1.inputs) | set(c2.inputs))
    if len(support) <= 16:
        words, full = pattern_words(len(support))
        bound = dict(zip(support, words))
        return (CompiledCircuit(c1).run(bound, full)
                == CompiledCircuit(c2).run(bound, full))
    m = simplify(miter(c1, c2))
    g = m.gates[m.outputs[0]]
    if g.op == "const0":
        return True
    if g.op == "const1":
        return False
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

    def evaluate(self, key: list[int], assignment: dict[str, int]) -> dict[str, int]:
        full = dict(assignment)
        full.update({n: k for n, k in zip(self.key_inputs, key)})
        return self.circuit.evaluate(full)


def _keyed_cell(c: Circuit, out: str, normal: str, k1: str, k0: str) -> None:
    """out = k1 ? 1 : (k0 ? 0 : normal)."""
    nk0 = c.add(f"{out}__nk0", "not", k0)
    pick = c.add(f"{out}__pick", "and", nk0, normal)
    c.add(out, "or", k1, pick)


def keyize_netlist(nl: CamouflagedNetlist) -> KeyedNetlist:
    """Attacker's key-programmable model of a camouflaged netlist.

    Every covert placement and every genuine inverter/buffer/NAND cell is a
    candidate with 2 key bits: 00 keeps the true cell function, 01 ties the
    output low, 10 (and its alias 11) ties it high.
    """
    src = nl.appearance_view
    by_out = {p.out: p for p in nl.placements}
    consumed: set[str] = set()
    for p in nl.placements:
        consumed.add(p.out)
        if p.kind is CovertGateKind.FB:  # second cell of the inverter pair
            consumed.add(src.gates[p.out].ins[0])

    candidates: list[tuple[str, CovertInstance | None]] = []
    for net in sorted(src.gates):
        if net in by_out:
            candidates.append((net, by_out[net]))
        elif src.gates[net].op in ("not", "buf", "nand") and net not in consumed:
            candidates.append((net, None))

    cand_nets = {n for n, _ in candidates}
    c = Circuit()
    for net, g in src.gates.items():
        if net not in cand_nets:
            c.gates[net] = g
    c.outputs = list(src.outputs)
    key_inputs: list[str] = []
    correct: list[int] = []
    for i, (net, p) in enumerate(candidates):
        k1 = c.add(f"key{2 * i}", "input")
        k0 = c.add(f"key{2 * i + 1}", "input")
        key_inputs += [k1, k0]
        if p is not None:
            b1, b0 = config_key_bits(p.config)
            if p.kind in (CovertGateKind.UT_A, CovertGateKind.FB):
                normal = p.real_in  # UT-A passes through; FB reads as a buffer
            else:  # UT-B passes inverted; FI has no pass mode, key 00 reads the mask
                normal = c.add(f"{net}__norm", "not", p.real_in)
        else:
            b1 = b0 = 0
            g = src.gates[net]
            if g.op == "not":
                normal = c.add(f"{net}__norm", "not", g.ins[0])
            elif g.op == "buf":
                normal = g.ins[0]
            else:
                normal = c.add(f"{net}__norm", "nand", *g.ins)
        correct += [b1, b0]
        _keyed_cell(c, net, normal, k1, k0)
    return KeyedNetlist(prune(c), key_inputs, correct)


def make_ll_baseline(f: AigGraph, n_key_bits: int, seed: int = 0) -> KeyedNetlist:
    """Area-matched logic-locking reference: XOR/XNOR key gates on random nets."""
    c = _as_circuit(f)
    sites = sorted(n for n, g in c.gates.items() if g.op not in ("input",))
    if n_key_bits > len(sites):
        raise ValueError(f"only {len(sites)} lockable nets for {n_key_bits} key bits")
    rng = np.random.default_rng(seed)
    chosen = [sites[i] for i in sorted(rng.choice(len(sites), size=n_key_bits,
                                                  replace=False))]
    locked = Circuit(gates=dict(c.gates), outputs=list(c.outputs))
    key_inputs, correct = [], []
    for i, net in enumerate(chosen):
        raw = f"{net}__raw"
        locked.gates[raw] = locked.gates[net]
        k = locked.add(f"key{i}", "input")
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
    # solver statistics summed over every SAT call of the attack
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    elapsed: float = 0.0

    def add_solve(self, res: SatResult) -> None:
        self.conflicts += res.conflicts
        self.decisions += res.decisions
        self.propagations += res.propagations


def make_oracle(kn: KeyedNetlist):
    """Black-box oracle: the netlist evaluated under its correct key."""
    sim = CompiledCircuit(kn.circuit)
    key = dict(zip(kn.key_inputs, kn.correct_key))

    def oracle(assignment: dict[str, int]) -> dict[str, int]:
        return sim.evaluate({**assignment, **key})
    return oracle


def dip_attack(
    kn: KeyedNetlist,
    oracle,
    time_budget: float | None = None,
    max_iters: int = 10_000,
) -> DipTrace:
    """Classic oracle-guided attack: find distinguishing inputs until the
    two-key miter is UNSAT, then read a consistent key off the constraints.

    The miter compares one output, so netlists with several outputs are
    rejected rather than attacked on their first output alone."""
    if len(kn.circuit.outputs) != 1:
        raise ValueError(f"dip_attack needs a single-output netlist, "
                         f"got {len(kn.circuit.outputs)} outputs")
    t0 = time.monotonic()
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
    cnf.add_clause([oa, ob])
    cnf.add_clause([-oa, -ob])

    observations: list[tuple[dict[str, int], int]] = []

    def add_constraints(target: CnfFormula, keys: dict[str, int], tl: int,
                        obs) -> None:
        for dip, y in obs:
            binding = {n: tl if dip[n] else -tl for n in xs}
            o = tseitin_encode(target, sim, {**binding, **keys}, tl)[out_net]
            target.add_clause([o if y else -o])

    trace = DipTrace("budget", None, 0)
    proved = False
    while trace.iterations < max_iters:
        remaining = None
        if time_budget is not None:
            remaining = time_budget - (time.monotonic() - t0)
            if remaining <= 0:
                trace.elapsed = time.monotonic() - t0
                return trace
        res = sat_solve(cnf, time_budget=remaining)
        trace.add_solve(res)
        if res.status == "BUDGET":
            trace.elapsed = time.monotonic() - t0
            return trace
        if res.status == "UNSAT":
            proved = True
            break
        dip = {n: int(res.model[x_vars[n]]) for n in xs}
        y = oracle(dip)[out_net]
        observations.append((dip, y))
        trace.dips.append(dip)
        trace.iterations += 1
        add_constraints(cnf, ka, t, [observations[-1]])
        add_constraints(cnf, kb, t, [observations[-1]])

    if not proved:  # ran out of iterations with distinguishing inputs left
        trace.elapsed = time.monotonic() - t0
        return trace

    # key extraction: any key satisfying every recorded observation
    final = CnfFormula()
    tf = final.new_var()
    final.add_clause([tf])
    kf = {n: final.new_var() for n in kn.key_inputs}
    add_constraints(final, kf, tf, observations)
    remaining = None
    if time_budget is not None:
        remaining = time_budget - (time.monotonic() - t0)
        if remaining <= 0:
            trace.elapsed = time.monotonic() - t0
            return trace
    res = sat_solve(final, time_budget=remaining)
    trace.add_solve(res)
    trace.elapsed = time.monotonic() - t0
    if res.status != "SAT":
        return trace
    trace.status = "solved"
    trace.key = [int(res.model[kf[n]]) for n in kn.key_inputs]
    return trace


def key_is_correct(kn: KeyedNetlist, key: list[int]) -> bool:
    """Does the recovered key realize the oracle function (not necessarily
    bit-identical to the designer's key, thanks to the 11/10 alias)?"""
    keyed = substitute(kn.circuit, dict(zip(kn.key_inputs, key)))
    truth = substitute(kn.circuit, dict(zip(kn.key_inputs, kn.correct_key)))
    return equivalence_check(keyed, truth)
