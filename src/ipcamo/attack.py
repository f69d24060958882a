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
from .covert import CovertInstance, cell_nets
from .gatelevel import (Circuit, CompiledCircuit, Gate, from_aig, miter, simplify,
                        substitute)

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


def keyize_netlist(nl: CamouflagedNetlist) -> KeyedNetlist:
    """Attacker's key-programmable model of a camouflaged netlist.

    Every covert placement and every genuine inverter/buffer/NAND cell is a
    candidate with 2 key bits: 00 keeps the true cell function, 01 ties the
    output low, 10 (and its alias 11) ties it high. Only candidates in the
    output cone get a cell and key bits (`key{2i}`, `key{2i+1}` for the i-th
    of them), so every key input is an input of the circuit.
    """
    src = nl.appearance_view
    by_out = {p.out: p for p in nl.placements}
    consumed = {net for p in nl.placements for net in cell_nets(p, src)}

    candidates: list[tuple[str, CovertInstance | None]] = []
    for net in sorted(src.gates):
        if net in by_out:
            candidates.append((net, by_out[net]))
        elif src.gates[net].op in ("not", "buf", "nand") and net not in consumed:
            candidates.append((net, None))

    # output cone over the nets each keyed cell reads: a placement reads
    # only its real input (not a UT decoy tap or an FB middle inverter)
    cand = dict(candidates)
    live: set[str] = set()
    stack = list(src.outputs)
    while stack:
        net = stack.pop()
        if net in live:
            continue
        live.add(net)
        p = cand.get(net)
        stack.extend((p.real_in,) if p is not None else src.gates[net].ins)

    # one pass in the circuit's net order: the live non-candidate nets of the
    # view, then per keyed candidate its key inputs, the true cell function
    # (none for a buffer), and out = k1 ? 1 : (k0 ? 0 : normal)
    gates = {net: g for net, g in src.gates.items() if net in live and net not in cand}
    key_input = Gate("input")
    key_inputs: list[str] = []
    correct: list[int] = []
    for i, (net, p) in enumerate((n, p) for n, p in candidates if n in live):
        if p is not None:
            op, ins = p.kind.key00, (p.real_in,)
            correct += p.config.key_bits
        else:
            op, ins = src.gates[net]
            correct += (0, 0)
        k1, k0, nk0, pick = f"key{2 * i}", f"key{2 * i + 1}", f"{net}__nk0", f"{net}__pick"
        if op == "buf":
            normal, made = ins[0], (k1, k0, nk0, pick)
        else:
            normal = f"{net}__norm"
            made = (k1, k0, normal, nk0, pick)
        # made names differ from each other by their suffixes and every out
        # is a live net, so a net is driven twice only if a made name is live
        if not live.isdisjoint(made):
            clash = next(m for m in made if m in live)
            raise ValueError(f"net {clash!r} already driven")
        gates[k1] = gates[k0] = key_input
        if op != "buf":
            gates[normal] = Gate(op, ins)
        gates[nk0] = Gate("not", (k0,))
        gates[pick] = Gate("and", (nk0, normal))
        gates[net] = Gate("or", (k1, pick))
        key_inputs += (k1, k0)
    return KeyedNetlist(Circuit(gates, list(src.outputs)), key_inputs, correct)


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
    # (conflicts, decisions, propagations) of each SAT call of the attack
    solves: list[tuple[int, int, int]] = field(default_factory=list)

    def add_solve(self, res: SatResult) -> None:
        self.solves.append((res.conflicts, res.decisions, res.propagations))

    # the same statistics summed over every call
    @property
    def conflicts(self) -> int:
        return sum(s[0] for s in self.solves)

    @property
    def decisions(self) -> int:
        return sum(s[1] for s in self.solves)

    @property
    def propagations(self) -> int:
        return sum(s[2] for s in self.solves)


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
    return equivalence_check(substitute(kn.circuit, dict(zip(kn.key_inputs, key))),
                             substitute(kn.circuit,
                                        dict(zip(kn.key_inputs, kn.correct_key))))
