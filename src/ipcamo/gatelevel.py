"""Small gate-level netlist IR: named nets, bit-parallel simulation, and
`simplify`, one structural-hashing rule over (net, inverted) literals that
also propagates constants.

A `Gate` is a validated named tuple (op, ins): immutable, hashable and equal
to any gate with the same op and fan-in.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Container
from dataclasses import dataclass, field

from .aig import AigGraph, NodeType, fresh_name

# op -> (min fan-in, max fan-in, the rule a bad fan-in breaks)
_ARITY = {
    **{op: (0, 0, "takes no inputs") for op in ("input", "const0", "const1")},
    **{op: (1, 1, "takes one input") for op in ("buf", "not")},
    **{op: (2, 2, "takes two inputs") for op in ("xor", "xnor")},
    **{op: (1, math.inf, "needs at least one input") for op in ("and", "or", "nand")},
}
OPS = set(_ARITY)


class Gate(namedtuple("Gate", "op ins")):
    """A gate: its op and the tuple of nets it reads."""

    __slots__ = ()

    def __new__(cls, op: str, ins: tuple[str, ...] = ()):
        return make_gate(op, ins)

    @classmethod
    def _make(cls, iterable) -> "Gate":  # namedtuple's _make and _replace skip __new__
        return cls(*iterable)


def make_gate(op: str, ins: tuple[str, ...] = ()) -> Gate:
    """`Gate(op, ins)`, checked the same way, without the class call: the
    constructor of the gates every camouflage cell builds."""
    try:
        lo, hi, rule = _ARITY[op]
    except KeyError:
        raise ValueError(f"unknown gate op {op!r}") from None
    if not lo <= len(ins) <= hi:
        raise ValueError(f"{op} gate {rule}")
    return tuple.__new__(Gate, (op, ins))


@dataclass
class Circuit:
    """Combinational netlist; gates maps each net to its (unique) driver."""

    gates: dict[str, Gate] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    def add(self, net: str, op: str, *ins: str) -> str:
        if net in self.gates:
            raise ValueError(f"net {net!r} already driven")
        self.gates[net] = make_gate(op, ins)
        return net

    def fresh(self, base: str, taken: Container[str] = ()) -> str:
        """A generated net's name by `aig.fresh_name`: `base`, or else the first
        `base_k` (k = 1, 2, ...) that no gate drives and `taken` does not hold."""
        return fresh_name(base, self.gates, taken)

    @property
    def inputs(self) -> list[str]:
        return [n for n, g in self.gates.items() if g.op == "input"]

    def cell_count(self) -> int:
        """Physical cell estimate; inputs and constant ties are free."""
        return sum(1 for g in self.gates.values()
                   if g.op not in ("input", "const0", "const1"))

    def topo_order(self) -> list[str]:
        order: list[str] = []
        state: dict[str, int] = {}
        for root in self.gates:
            stack = [(root, False)]
            while stack:
                net, expanded = stack.pop()
                if expanded:
                    state[net] = 2
                    order.append(net)
                    continue
                st = state.get(net, 0)
                if st == 2:
                    continue
                if st == 1:
                    raise ValueError(f"combinational cycle through net {net!r}")
                if net not in self.gates:
                    raise ValueError(f"undriven net {net!r}")
                state[net] = 1
                stack.append((net, True))
                for src in self.gates[net].ins:
                    stack.append((src, False))
        return order

    def evaluate(self, assignment: dict[str, int]) -> dict[str, int]:
        """Output values under a complete primary-input assignment."""
        return CompiledCircuit(self).evaluate(assignment)


class CompiledCircuit:
    """A circuit flattened once for repeated simulation and encoding.

    Nets are held in topological order with their op and the positions of
    their fan-in nets, so a pass is one loop over lists. `run` is
    bit-parallel, as in FRAIG-style equivalence checking (Mishchenko et
    al., 2005): every net is a Python int whose bit i is its value under
    input pattern i, so one pass evaluates every pattern the words hold.
    """

    def __init__(self, c: Circuit):
        nets = c.topo_order()
        pos = {net: i for i, net in enumerate(nets)}
        gates = [c.gates[net] for net in nets]
        self._set(nets, [g.op for g in gates], [tuple(pos[s] for s in g.ins) for g in gates],
                  list(c.outputs), [pos[o] for o in c.outputs])

    def _set(self, nets: list, ops: list[str], fanin: list[tuple[int, ...]],
             outputs: list[str], out_pos: list[int]) -> None:
        self.nets, self.ops, self.fanin = nets, ops, fanin
        self.inputs = [n for n, op in zip(nets, ops) if op == "input"]
        self.outputs, self._out_pos = outputs, out_pos

    @classmethod
    def from_aig(cls, g: AigGraph) -> "CompiledCircuit":
        """`CompiledCircuit(prune(from_aig(g)))`, compiled straight from the
        AIG, with the same inputs in the same order and the same `run`
        outputs. Only the POs' fan-in cones are compiled: PIs with equal names
        share one input, placed where the name first occurs; each inverted
        edge into an AND is a `not`; each PO is a `buf` or `not` named as the
        PO. The AND and inverter nets are unnamed (None)."""
        bad = g.issues()
        if bad:
            raise ValueError("graph is not canonical: " + "; ".join(bad))
        types, names, preds = g.types, g.names, g.pred_table()
        PI, AND, PO = NodeType.PI, NodeType.AND, NodeType.PO
        live = [t is PO for t in types]
        for d in range(len(types) - 1, -1, -1):  # every edge points to a higher index
            if live[d]:
                for s, _ in preds[d]:
                    live[s] = True
        read = {names[i] for i, t in enumerate(types) if live[i] and t is PI}
        nets: list[str | None] = []
        ops: list[str] = []
        fanin: list[tuple[int, ...]] = []
        pos = [0] * len(types)  # each live node's position
        input_at: dict[str, int] = {}
        outputs, out_pos = [], []
        for i, t in enumerate(types):
            if t is PI:
                name = names[i]
                if name in read and name not in input_at:
                    input_at[name] = len(nets)
                    nets.append(name)
                    ops.append("input")
                    fanin.append(())
                if live[i]:
                    pos[i] = input_at[name]
                continue
            if not live[i]:
                continue
            ins = []
            for s, inv in preds[i]:
                if inv and t is AND:
                    nets.append(None)
                    ops.append("not")
                    fanin.append((pos[s],))
                    ins.append(len(nets) - 1)
                else:
                    ins.append(pos[s])
            pos[i] = len(nets)
            if t is AND:
                nets.append(None)
                ops.append("and")
            else:
                nets.append(names[i])
                ops.append("not" if preds[i][0][1] else "buf")
                outputs.append(names[i])
                out_pos.append(pos[i])
            fanin.append(tuple(ins))
        cc = cls.__new__(cls)
        cc._set(nets, ops, fanin, outputs, out_pos)
        return cc

    def run(self, words: dict[str, int], full: int) -> list[int]:
        """Output words in output order; `words` binds every input net and
        `full` is the word with every pattern's bit set."""
        val = [0] * len(self.nets)
        for i, (op, ins) in enumerate(zip(self.ops, self.fanin)):
            if op == "and" or op == "nand":
                v = full
                for s in ins:
                    v &= val[s]
                val[i] = v if op == "and" else v ^ full
            elif op == "not":
                val[i] = val[ins[0]] ^ full
            elif op == "or":
                v = 0
                for s in ins:
                    v |= val[s]
                val[i] = v
            elif op == "input":
                val[i] = words[self.nets[i]]
            elif op == "buf":
                val[i] = val[ins[0]]
            elif op == "xor":
                val[i] = val[ins[0]] ^ val[ins[1]]
            elif op == "xnor":
                val[i] = val[ins[0]] ^ val[ins[1]] ^ full
            else:
                val[i] = full if op == "const1" else 0
        return [val[p] for p in self._out_pos]

    def evaluate(self, assignment: dict[str, int]) -> dict[str, int]:
        """Output values under one complete primary-input assignment."""
        bits = {}
        for net in self.inputs:
            if net not in assignment:
                raise KeyError(f"missing assignment for input {net!r}")
            bits[net] = int(bool(assignment[net]))
        return dict(zip(self.outputs, self.run(bits, 1)))


def circuit_to_obj(c: Circuit) -> dict:
    return {
        "gates": {n: {"op": g.op, "ins": list(g.ins)} for n, g in sorted(c.gates.items())},
        "outputs": list(c.outputs),
    }


def circuit_from_obj(obj: dict) -> Circuit:
    gates = {n: Gate(rec["op"], tuple(rec["ins"])) for n, rec in obj["gates"].items()}
    return Circuit(gates=gates, outputs=list(obj["outputs"]))


def from_aig(g: AigGraph) -> Circuit:
    """Lower a canonical AIG to gates; PIs with equal names share one input net.

    PI and PO nets keep their AIG names; AND i is `n{i}` and an inverted edge k
    into x reads `x__n{k}`, named by `Circuit.fresh` with the PI and PO names taken."""
    bad = g.issues()
    if bad:
        raise ValueError("graph is not canonical: " + "; ".join(bad))
    c = Circuit()
    preds = g.pred_table()
    net_of: dict[int, str] = {}
    reserved = {g.names[i] for i, t in enumerate(g.types) if t is not NodeType.AND}

    def lit(src: int, inv: bool, dst_net: str, k: int) -> str:
        if not inv:
            return net_of[src]
        return c.add(c.fresh(f"{dst_net}__n{k}", reserved), "not", net_of[src])

    for i, t in enumerate(g.types):
        if t is NodeType.PI:
            name = g.names[i]
            if name not in c.gates:
                c.add(name, "input")
            net_of[i] = name
        elif t is NodeType.AND:
            net = c.fresh(f"n{i}", reserved)
            ins = [lit(s, inv, net, k) for k, (s, inv) in enumerate(preds[i])]
            c.add(net, "and", *ins)
            net_of[i] = net
        else:
            net = g.names[i]
            (s, inv), = preds[i]
            c.add(net, "not" if inv else "buf", net_of[s])
            net_of[i] = net
            c.outputs.append(net)
    return c


def prune(c: Circuit) -> Circuit:
    """Keep only the fan-in cones of the outputs (inputs outside them drop too)."""
    keep: set[str] = set()
    stack = list(c.outputs)
    while stack:
        net = stack.pop()
        if net in keep:
            continue
        keep.add(net)
        stack.extend(c.gates[net].ins)
    return Circuit(gates={n: g for n, g in c.gates.items() if n in keep},
                   outputs=list(c.outputs))


def simplify(c: Circuit) -> Circuit:
    """Structural hashing over literals, with constant propagation.

    Every net becomes a literal: a net of the result and whether it is
    inverted, or a constant (net None). `buf` is an alias and `not` a flip.
    `and`, `nand` and `or` (the complement of the AND of complements) share
    one AND rule: true and repeated inputs drop, a false input or x and ¬x
    gives false, a single live input is itself, and otherwise the AND is
    hashed on its sorted literals. `xor` and `xnor` are hashed on their two
    plain nets with both inversions moved into the literal, and fold on a
    constant input or on x ⊕ x. So structurally identical cones collapse to
    one net, and a miter of two copies of the same circuit reduces to a
    constant without any search (Kuehlmann et al., IEEE TCAD 2002).

    The result holds `and` and `xor` gates, a `not` wherever an AND reads an
    inverted literal, and each output under its own name, through a `buf`,
    `not` or constant gate where its literal is not a net of that name.
    """
    out = Circuit()
    lit: dict[str, tuple[str | None, bool]] = {}
    hashed: dict[tuple, str] = {}  # (op, *input literals) -> net of the result

    def gate(op: str, lits: list, net: str, inv: bool) -> str:
        """The hashed `op` gate over `lits`, named `net` if read plain."""
        key = (op, *lits)
        if key not in hashed:
            ins = tuple(gate("not", [(n, False)], n, True) if i else n for n, i in lits)
            hashed[key] = name = out.fresh(net, c.gates) if inv else net
            out.gates[name] = Gate(op, ins)
        return hashed[key]

    def conj(lits: list, net: str, inv: bool) -> tuple[str | None, bool]:
        live = set(lits) - {(None, True)}
        if (None, False) in live or any((n, not i) in live for n, i in live):
            return None, inv
        if len(live) <= 1:
            n, i = live.pop() if live else (None, True)
            return n, i ^ inv
        return gate("and", sorted(live), net, inv), inv

    def xor(a_lit, b_lit, net: str, inv: bool) -> tuple[str | None, bool]:
        (a, ia), (b, ib) = a_lit, b_lit
        inv ^= ia ^ ib
        if a == b:
            return None, inv
        if a is None or b is None:
            return (b if a is None else a), inv
        return gate("xor", sorted([(a, False), (b, False)]), net, inv), inv

    for net in c.topo_order():
        op, ins = c.gates[net]
        lits = [lit[s] for s in ins]
        if op == "input":
            out.gates[net] = Gate("input")
            lit[net] = net, False
        elif op in ("const0", "const1"):
            lit[net] = None, op == "const1"
        elif op in ("buf", "not"):
            n, i = lits[0]
            lit[net] = n, i ^ (op == "not")
        elif op in ("xor", "xnor"):
            lit[net] = xor(*lits, net, op == "xnor")
        else:
            if op == "or":
                lits = [(n, not i) for n, i in lits]
            lit[net] = conj(lits, net, op != "and")

    for o in c.outputs:
        n, inv = lit[o]
        if (n, inv) != (o, False) and o not in out.gates:
            out.gates[o] = (Gate("const1" if inv else "const0") if n is None
                            else Gate("not" if inv else "buf", (n,)))
    out.outputs = list(c.outputs)
    return prune(out)


def miter(c1: Circuit, c2: Circuit) -> Circuit:
    """Single-output circuit that is 1 iff the two circuits disagree.

    Inputs with equal names are shared; the output lists must align. Other
    nets x become `m_a_x` (c1) and `m_b_x` (c2), feeding `m_diff{k}` and
    `m_out`, all named by `Circuit.fresh` with the input names taken.
    """
    if len(c1.outputs) != len(c2.outputs):
        raise ValueError("output count mismatch")
    m = Circuit()
    inputs = set(c1.inputs) | set(c2.inputs)
    out_nets = []
    for src, tag in ((c1, "a"), (c2, "b")):
        # name every net before rewiring: a gate may read a later net
        ren = {}
        for n, g in src.gates.items():
            ren[n] = n if g.op == "input" else m.fresh(f"m_{tag}_{n}", inputs)
            m.gates[ren[n]] = g
        for n, g in src.gates.items():
            m.gates[ren[n]] = Gate(g.op, tuple(ren[s] for s in g.ins))
        out_nets.append([ren[o] for o in src.outputs])
    diffs = [m.add(m.fresh(f"m_diff{k}"), "xor", o1, o2)
             for k, (o1, o2) in enumerate(zip(*out_nets))]
    out = m.add(m.fresh("m_out"), "or" if len(diffs) > 1 else "buf", *diffs)
    m.outputs = [out]
    return m
