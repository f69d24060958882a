"""Reference tools the tests check the package against.

Elementary tape ops that the fused autodiff nodes must agree with, an
exhaustive truth table that the simulator must agree with, a structural
comparison of AIGs, and the two readings of one drawn covert cell."""
import numpy as np

from ipcamo.aig import AigGraph, pattern_words
from ipcamo.autodiff import MlpParams, Tensor, tanh
from ipcamo.covert import CovertConfig, CovertGateKind, draw_cell, realize
from ipcamo.gatelevel import Circuit, CompiledCircuit, from_aig


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def bwd(g, ps=tuple(parts), sz=tuple(sizes), ax=axis):
        ofs = 0
        for p, s in zip(ps, sz):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[ax] = slice(ofs, ofs + s)
                p._accum(g[tuple(sl)])
            ofs += s

    return Tensor._make(out_data, tuple(parts), bwd)


def mlp_forward(p: MlpParams, x: Tensor) -> Tensor:
    """tanh after every layer but the last, as elementary tape ops."""
    h = x
    for k, (w, b) in enumerate(p.layers):
        if h.shape[-1] != w.shape[0]:
            raise ValueError(f"dimension mismatch: {h.shape} @ {w.shape}")
        h = h @ w + b
        if k < len(p.layers) - 1:
            h = tanh(h)
    return h


def truth_table(g: AigGraph, pi_order: list[str] | None = None) -> np.ndarray:
    """Exhaustive output table; rows ordered lexicographically over the PIs.

    Returns a 1-D array of length 2^|PI| for single-PO graphs, else one row
    per PO in PO order.
    """
    pis = pi_order if pi_order is not None else g.pi_names
    if len(pis) > 20:
        raise ValueError(f"too many PIs for truth table: {len(pis)}")
    rows = 1 << len(pis)
    words, full = pattern_words(len(pis))
    # row idx is MSB-first: the first PI is the top bit of idx
    out = CompiledCircuit(from_aig(g)).run(dict(zip(pis, reversed(words))), full)
    table = np.zeros((len(out), rows), dtype=np.uint8)
    for r, word in enumerate(out):
        packed = np.frombuffer(word.to_bytes((rows + 7) // 8, "little"), np.uint8)
        table[r] = np.unpackbits(packed, bitorder="little")[:rows]
    return table[0] if len(out) == 1 else table


def same_structure(g: AigGraph, h: AigGraph) -> bool:
    """Same node types in order and the same edge set."""
    return g.types == h.types and sorted(g.edges) == sorted(h.edges)


def cell_bits(kind: CovertGateKind, config: CovertConfig, x: int, d: int = 1) -> tuple[int, int]:
    """(looks, does): the output bit of one cell drawn on real input x and
    dummy tap d, simulated as drawn and as `realize` fabricates it."""
    c = Circuit()
    c.add("x", "input")
    c.add("d", "input")
    p = draw_cell(c, kind, config, "y", "x", "d" if kind.decoy else None)
    c.outputs = ["y"]
    bits = {"x": x, "d": d}
    return c.evaluate(bits)["y"], realize(c, [p]).evaluate(bits)["y"]
