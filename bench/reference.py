"""Exhaustive bit-parallel evaluator used to check the program's outputs.

It reads only the plain data of an AIG (types, edges, names) or of a gate
netlist (op, input nets, outputs) and shares no code with the simulators
under test (`aig.simulate`, `Circuit.evaluate`). Each net holds one Python
int whose bit i is the net's value under input pattern i, so one pass
evaluates all 2^k patterns of a k-input support.
"""
from __future__ import annotations

MAX_SUPPORT = 20


def pattern_masks(names: list[str]) -> tuple[dict[str, int], int]:
    """Bit masks of each input over all 2^k patterns, and the all-ones mask."""
    k = len(names)
    if k > MAX_SUPPORT:
        raise ValueError(f"support of {k} inputs is too large to enumerate")
    width = 1 << k
    full = (1 << width) - 1
    masks = {}
    for j, name in enumerate(names):
        run = 1 << j                                 # pattern i has bit j of i
        block = ((1 << run) - 1) << run
        span = 2 * run
        while span < width:
            block |= block << span
            span *= 2
        masks[name] = block & full
    return masks, full


def aig_output(g, masks: dict[str, int], full: int) -> int:
    """Truth table of the single PO of an AIG; an AND with no inputs is 1."""
    kind = [t.name for t in g.types]
    fanin: list[list[tuple[int, bool]]] = [[] for _ in kind]
    for src, dst, inv in g.edges:
        fanin[dst].append((src, inv))
    val = [0] * len(kind)
    out = None
    for i, t in enumerate(kind):              # node indices are topological
        if t == "PI":
            val[i] = masks[g.names[i]]
            continue
        v = full
        for src, inv in fanin[i]:
            v &= (val[src] ^ full) if inv else val[src]
        val[i] = v
        if t == "PO":
            if out is not None:
                raise ValueError("reference evaluator expects a single PO")
            out = v
    if out is None:
        raise ValueError("AIG has no PO")
    return out


def _gate_value(op: str, ins: list[int], full: int) -> int:
    if op == "const0":
        return 0
    if op == "const1":
        return full
    if op == "buf":
        return ins[0]
    if op == "not":
        return ins[0] ^ full
    if op in ("and", "nand"):
        v = full
        for x in ins:
            v &= x
        return v if op == "and" else v ^ full
    if op == "or":
        v = 0
        for x in ins:
            v |= x
        return v
    if op == "xor":
        return ins[0] ^ ins[1]
    if op == "xnor":
        return ins[0] ^ ins[1] ^ full
    raise ValueError(f"unknown gate op {op!r}")


def circuit_outputs(c, masks: dict[str, int], full: int) -> list[int]:
    """Truth tables of every output of a gate netlist.

    `masks` binds every input net the outputs depend on; key inputs are bound
    to 0 or `full`.
    """
    val: dict[str, int] = {}
    for root in c.outputs:
        stack = [root]
        while stack:
            net = stack[-1]
            if net in val:
                stack.pop()
                continue
            gate = c.gates[net]
            if gate.op == "input":
                val[net] = masks[net]
                stack.pop()
                continue
            missing = [s for s in gate.ins if s not in val]
            if missing:
                if len(stack) > len(c.gates):
                    raise ValueError("combinational cycle")
                stack.extend(missing)
                continue
            val[net] = _gate_value(gate.op, [val[s] for s in gate.ins], full)
            stack.pop()
    return [val[o] for o in c.outputs]


def keyed_matches_function(kn, key: list[int], f) -> bool:
    """Does the keyed netlist under `key` compute the AIG `f` on every
    payload pattern (over the union of both supports)?"""
    key_nets = set(kn.key_inputs)
    payload = [n for n, g in kn.circuit.gates.items()
               if g.op == "input" and n not in key_nets]
    names = sorted(set(payload) | {f.names[i] for i, t in enumerate(f.types)
                                   if t.name == "PI"})
    masks, full = pattern_masks(names)
    for net, bit in zip(kn.key_inputs, key):
        masks[net] = full if bit else 0
    outs = circuit_outputs(kn.circuit, masks, full)
    return len(outs) == 1 and outs[0] == aig_output(f, masks, full)


def aig_equivalent(g, f) -> bool:
    """Same single-PO function over the union of both PI name sets."""
    names = sorted({x.names[i] for x in (g, f)
                    for i, t in enumerate(x.types) if t.name == "PI"})
    masks, full = pattern_masks(names)
    return aig_output(g, masks, full) == aig_output(f, masks, full)
