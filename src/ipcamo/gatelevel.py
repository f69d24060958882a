"""Small gate-level netlist IR: named nets, bit-parallel simulation, const-prop,
strashing.

A `Gate` is a validated named tuple (op, ins): immutable, hashable and equal
to any gate with the same op and fan-in.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

from .aig import AigGraph, NodeType

# op -> (min fan-in, max fan-in, the rule a bad fan-in breaks)
_ARITY = {
    **{op: (0, 0, "takes no inputs") for op in ("input", "const0", "const1")},
    **{op: (1, 1, "takes one input") for op in ("buf", "not")},
    **{op: (2, 2, "takes two inputs") for op in ("xor", "xnor")},
    **{op: (1, math.inf, "needs at least one input") for op in ("and", "or", "nand")},
}
OPS = set(_ARITY)
_COMMUTATIVE = {"and", "or", "nand", "xor", "xnor"}


class Gate(namedtuple("Gate", "op ins")):
    """A gate: its op and the tuple of nets it reads."""

    __slots__ = ()

    def __new__(cls, op: str, ins: tuple[str, ...] = ()):
        try:
            lo, hi, rule = _ARITY[op]
        except KeyError:
            raise ValueError(f"unknown gate op {op!r}") from None
        if not lo <= len(ins) <= hi:
            raise ValueError(f"{op} gate {rule}")
        return tuple.__new__(cls, (op, ins))

    @classmethod
    def _make(cls, iterable) -> "Gate":  # namedtuple's _make and _replace skip __new__
        return cls(*iterable)


@dataclass
class Circuit:
    """Combinational netlist; gates maps each net to its (unique) driver."""

    gates: dict[str, Gate] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    def add(self, net: str, op: str, *ins: str) -> str:
        if net in self.gates:
            raise ValueError(f"net {net!r} already driven")
        self.gates[net] = Gate(op, ins)
        return net

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

    def renamed(self, mapping: dict[str, str]) -> "Circuit":
        """Copy with nets renamed; unmapped nets keep their name."""
        f = lambda n: mapping.get(n, n)
        gates = {f(n): Gate(g.op, tuple(f(s) for s in g.ins))
                 for n, g in self.gates.items()}
        return Circuit(gates=gates, outputs=[f(o) for o in self.outputs])


class CompiledCircuit:
    """A circuit flattened once for repeated simulation and encoding.

    Nets are held in topological order with their op and the positions of
    their fan-in nets, so a pass is one loop over lists. `run` is
    bit-parallel, as in FRAIG-style equivalence checking (Mishchenko et
    al., 2005): every net is a Python int whose bit i is its value under
    input pattern i, so one pass evaluates every pattern the words hold.
    """

    def __init__(self, c: Circuit):
        self.nets = c.topo_order()
        pos = {net: i for i, net in enumerate(self.nets)}
        gates = [c.gates[net] for net in self.nets]
        self.ops = [g.op for g in gates]
        self.fanin = [tuple(pos[s] for s in g.ins) for g in gates]
        self.inputs = [n for n, op in zip(self.nets, self.ops) if op == "input"]
        self.outputs = list(c.outputs)
        self._out_pos = [pos[o] for o in c.outputs]

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
    """Lower a canonical AIG to gates; PIs with equal names share one input net."""
    bad = g.issues()
    if bad:
        raise ValueError("graph is not canonical: " + "; ".join(bad))
    c = Circuit()
    preds = g.pred_table()
    net_of: dict[int, str] = {}
    # PI and PO nets carry their AIG names; an AND or inverter net whose
    # default name is one of those, or already used, takes the first free
    # `<name>_<k>`, so graphs without such a clash keep the default names.
    reserved = {g.names[i] for i, t in enumerate(g.types) if t is not NodeType.AND}

    def free(net: str) -> str:
        k, name = 0, net
        while name in reserved or name in c.gates:
            k += 1
            name = f"{net}_{k}"
        return name

    def lit(src: int, inv: bool, dst_net: str, k: int) -> str:
        if not inv:
            return net_of[src]
        return c.add(free(f"{dst_net}__n{k}"), "not", net_of[src])

    for i, t in enumerate(g.types):
        if t is NodeType.PI:
            name = g.names[i]
            if name not in c.gates:
                c.add(name, "input")
            net_of[i] = name
        elif t is NodeType.AND:
            net = free(f"n{i}")
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
    """Constant propagation, buffer elision and structural hashing.

    Structurally identical cones collapse to one net, so a miter of two
    copies of the same circuit reduces to a constant without any search.
    """
    rep: dict[str, str] = {}       # net -> representative net in the new circuit
    out = Circuit()
    hashed: dict[tuple, str] = {}
    const_of: dict[str, int] = {}  # representative -> constant value, if known
    compl: dict[str, str] = {}     # representative -> its known complement
    _OPPOSITE = {"xor": "xnor", "xnor": "xor", "and": "nand", "nand": "and"}

    def mark_compl(a: str, b: str) -> None:
        compl[a] = b
        compl[b] = a

    def emit(net: str, op: str, ins: tuple[str, ...]) -> str:
        key = (op, tuple(sorted(ins)) if op in _COMMUTATIVE else ins)
        if key in hashed:
            return hashed[key]
        out.gates[net] = Gate(op, ins)
        hashed[key] = net
        if op == "const0":
            const_of[net] = 0
        elif op == "const1":
            const_of[net] = 1
        elif op == "not":
            mark_compl(net, ins[0])
        elif op in _OPPOSITE:
            twin = hashed.get((_OPPOSITE[op], tuple(sorted(ins))))
            if twin is not None:
                mark_compl(net, twin)
        return net

    for net in c.topo_order():
        g = c.gates[net]
        if g.op == "input":
            out.gates.setdefault(net, g)
            rep[net] = net
            continue
        ins = tuple(rep[s] for s in g.ins)
        consts = [const_of.get(s) for s in ins]
        op = g.op

        if op == "buf":
            rep[net] = ins[0]
            continue
        if op == "not":
            v = consts[0]
            if v is not None:
                rep[net] = emit(net, "const1" if v == 0 else "const0", ())
            elif ins[0] in compl:  # double negation
                rep[net] = compl[ins[0]]
            else:
                rep[net] = emit(net, "not", ins)
            continue
        if op in ("const0", "const1"):
            rep[net] = emit(net, op, ())
            continue
        if op in ("and", "nand"):
            if 0 in consts:
                rep[net] = emit(net, "const1" if op == "nand" else "const0", ())
                continue
            live = tuple(dict.fromkeys(s for s, v in zip(ins, consts) if v != 1))
            if any(compl.get(a) in live for a in live):  # x AND NOT x
                rep[net] = emit(net, "const1" if op == "nand" else "const0", ())
            elif not live:  # all inputs tied to 1
                rep[net] = emit(net, "const0" if op == "nand" else "const1", ())
            elif len(live) == 1 and op == "and":
                rep[net] = live[0]
            elif len(live) == 1:
                rep[net] = emit(net, "not", live)
            else:
                rep[net] = emit(net, op, live)
            continue
        if op == "or":
            if 1 in consts:
                rep[net] = emit(net, "const1", ())
                continue
            live = tuple(dict.fromkeys(s for s, v in zip(ins, consts) if v != 0))
            if any(compl.get(a) in live for a in live):  # x OR NOT x
                rep[net] = emit(net, "const1", ())
            elif not live:
                rep[net] = emit(net, "const0", ())
            elif len(live) == 1:
                rep[net] = live[0]
            else:
                rep[net] = emit(net, "or", live)
            continue
        # xor / xnor
        a, b = ins
        va, vb = consts
        odd = op == "xor"
        if va is not None and vb is not None:
            bit = (va ^ vb) if odd else 1 - (va ^ vb)
            rep[net] = emit(net, "const1" if bit else "const0", ())
        elif a == b:
            rep[net] = emit(net, "const0" if odd else "const1", ())
        elif compl.get(a) == b:
            rep[net] = emit(net, "const1" if odd else "const0", ())
        elif va is not None or vb is not None:
            x, v = (b, va) if va is not None else (a, vb)
            plain = (v == 0) if odd else (v == 1)
            rep[net] = x if plain else emit(net, "not", (x,))
        else:
            rep[net] = emit(net, op, ins)

    outs = []
    for o in c.outputs:
        r = rep[o]
        if r not in out.gates:  # representative is a raw input net
            out.gates.setdefault(r, Gate("input"))
        if r != o and o not in out.gates:  # keep the output's public name
            g = out.gates[r]
            out.gates[o] = g if g.op in ("const0", "const1") else Gate("buf", (r,))
            r = o
        outs.append(r)
    out.outputs = outs
    return prune(out)


def miter(c1: Circuit, c2: Circuit) -> Circuit:
    """Single-output circuit that is 1 iff the two circuits disagree.

    Inputs with equal names are shared; the output lists must align.
    """
    if len(c1.outputs) != len(c2.outputs):
        raise ValueError("output count mismatch")
    m = Circuit()
    out_nets = []
    for src, tag in ((c1, "a"), (c2, "b")):
        ren = {n: n if g.op == "input" else f"m_{tag}_{n}"
               for n, g in src.gates.items()}
        part = src.renamed(ren)
        for n, g in part.gates.items():
            if n in m.gates:
                if g.op == "input" and m.gates[n].op == "input":
                    continue
                raise ValueError(f"net collision on {n!r}")
            m.gates[n] = g
        out_nets.append([ren[o] for o in src.outputs])
    diffs = []
    for k, (o1, o2) in enumerate(zip(*out_nets)):
        diffs.append(m.add(f"m_diff{k}", "xor", o1, o2))
    if len(diffs) == 1:
        m.add("m_out", "buf", diffs[0])
    else:
        m.add("m_out", "or", *diffs)
    m.outputs = ["m_out"]
    return m
