"""Minimal dense-tensor reverse-mode autodiff with GRU, MLP, pair head and Adam.

Float64 throughout; single-threaded tape; gradients are validated against
central finite differences in the test suite.

Besides elementary ops the tape has fused nodes, each one tensor with a
hand-written backward that lists every tensor it reads as a parent:
`gru_step` (one GRU update of any number of rows), `gru_decode` (a whole
GRU run fed its own softmax head, backpropagated through time) and
`pair_head` (an edge MLP over every row pair). `Tensor.backward` walks the
recorded nodes reachable from the loss in reverse creation order, which is
a topological order because a node is created after all of its parents;
leaves never enter the walk. Each `gru_decode` step makes one product of
its state with the stacked `[W0 | w_z | w_r]` and one of its type row with
the stacked `[u_z | u_r | u_h]`.

Training packs the parameters into an `arena`: one parameter vector that
every parameter's data views and one gradient vector that every grad
views. `adam_step` updates the vector in one pass, and a step's gradient
reset is one fill.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

_grad_enabled = True
_creation = itertools.count()  # creation index of every recorded node


class no_grad:
    """Context manager disabling tape recording (evaluation fast path)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad back down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _records(parents) -> bool:
    """Whether a node over these parents goes on the tape."""
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                return True
    return False


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_order")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward
        self._order = next(_creation) if backward is not None else -1

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers --

    @staticmethod
    def _make(data, parents, backward):
        if not _records(parents):
            return Tensor(data)
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)

    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def bwd(g, a=self, b=other):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.shape))

        return Tensor._make(out_data, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        def bwd(g, a=self):
            if a.requires_grad:
                a._accum(-g)

        return Tensor._make(-self.data, (self,), bwd)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def bwd(g, a=self, b=other):
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.data, b.shape))

        return Tensor._make(out_data, (self, other), bwd)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = as_tensor(other)
        out_data = self.data @ other.data

        def bwd(g, a=self, b=other):
            if a.requires_grad:
                a._accum(g @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ g)

        return Tensor._make(out_data, (self, other), bwd)

    def __pow__(self, k: float):
        out_data = self.data ** k

        def bwd(g, a=self):
            if a.requires_grad:
                a._accum(g * k * a.data ** (k - 1))

        return Tensor._make(out_data, (self,), bwd)

    def sum(self):
        def bwd(g, a=self):
            if a.requires_grad:
                a._accum(np.full(a.shape, g))

        return Tensor._make(self.data.sum(), (self,), bwd)

    def _accum(self, g):
        if self.grad is None:
            # a copy: one backward closure can hand the same array to several parents
            self.grad = g.copy() if g.shape == self.shape else np.zeros(self.shape) + g
        else:
            self.grad += g

    def backward(self):
        """Accumulate d self / d leaf into every leaf that requires grad.

        Recorded nodes reachable from self start from no gradient and run in
        reverse creation order, so a node's gradient is complete before its
        backward runs.
        """
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar loss")
        nodes: list[Tensor] = []
        seen = {id(self)}
        stack = [self] if self._backward is not None else []
        while stack:  # only recorded nodes: leaves never enter the walk
            node = stack.pop()
            nodes.append(node)
            node.grad = None
            for p in node._parents:
                if p._backward is not None and id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        nodes.sort(key=attrgetter("_order"), reverse=True)
        self.grad = np.asarray(1.0)
        for node in nodes:
            if node.grad is not None:
                node._backward(node.grad)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def sigmoid(x: Tensor) -> Tensor:
    out_data = _sigmoid(x.data)

    def bwd(g, a=x, o=out_data):
        if a.requires_grad:
            a._accum(g * o * (1.0 - o))

    return Tensor._make(out_data, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def bwd(g, a=x, o=out_data):
        if a.requires_grad:
            a._accum(g * (1.0 - o * o))

    return Tensor._make(out_data, (x,), bwd)


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def bwd(g, a=x, o=out_data):
        if a.requires_grad:
            a._accum(g * o)

    return Tensor._make(out_data, (x,), bwd)


def log(x: Tensor) -> Tensor:
    out_data = np.log(x.data)

    def bwd(g, a=x):
        if a.requires_grad:
            a._accum(g / a.data)

    return Tensor._make(out_data, (x,), bwd)


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis."""
    out_data = _softmax(x.data)

    def bwd(g, a=x, o=out_data):
        if a.requires_grad:
            dot = (g * o).sum(axis=-1, keepdims=True)
            a._accum(o * (g - dot))

    return Tensor._make(out_data, (x,), bwd)


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


def take(x: Tensor, index) -> Tensor:
    """x.data[index] as a tensor: a gather of rows or a block of columns.

    The backward accumulates repeated rows (np.add.at), so a gather may read
    one row many times.
    """
    out_data = x.data[index]

    def bwd(g, a=x):
        if a.requires_grad:
            full = np.zeros(a.shape)
            np.add.at(full, index, g)
            a._accum(full)

    return Tensor._make(out_data, (x,), bwd)


# -- Parameter containers -----------------------------------------------------


@dataclass
class GruParams:
    """Gate/candidate weights for one GRU cell (message, conditioning, bias)."""

    w_z: Tensor
    w_r: Tensor
    w_h: Tensor
    u_z: Tensor
    u_r: Tensor
    u_h: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{k}": getattr(self, k) for k in
                ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")}


def init_gru(rng: np.random.Generator, hidden: int, cond: int) -> GruParams:
    def w(rows, cols):
        return _init_tensor(rng, (rows, cols))

    def b(cols):
        return Tensor(np.zeros(cols), requires_grad=True)

    return GruParams(
        w_z=w(hidden, hidden), w_r=w(hidden, hidden), w_h=w(hidden, hidden),
        u_z=w(cond, hidden), u_r=w(cond, hidden), u_h=w(cond, hidden),
        b_z=b(hidden), b_r=b(hidden), b_h=b(hidden),
    )


def _gru_forward(p: GruParams, m_prods: tuple, t_prods: tuple,
                 hd: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The GRU equations on arrays: the new state and the gates its backward reads.

    m_prods are m @ w_z and m @ w_r, t_prods are t @ u_z, t @ u_r and t @ u_h.
    """
    (mz, mr), (tz, tr, th) = m_prods, t_prods
    z = _sigmoid(mz + tz + p.b_z.data)
    r = _sigmoid(mr + tr + p.b_r.data)
    rh = r * hd
    h_tilde = np.tanh(rh @ p.w_h.data + th + p.b_h.data)
    return (1.0 - z) * hd + z * h_tilde, (z, r, rh, h_tilde)


def _gru_transposes(p: GruParams) -> tuple:
    """The weight transposes _gru_backward reads, in its order."""
    return tuple(w.data.T for w in (p.w_h, p.w_z, p.w_r, p.u_z, p.u_r, p.u_h))


def _gru_backward(wt: tuple, g: np.ndarray, hd: np.ndarray, gates: tuple,
                  need_t: bool = True):
    """Backward of _gru_forward for output gradient g; wt is _gru_transposes(p).

    Returns the pre-activation gradients (z, r and candidate), then the
    gradients of m, t (None unless need_t) and h_prev.
    """
    w_h, w_z, w_r, u_z, u_r, u_h = wt
    z, r, _, h_tilde = gates
    d_h = g * z * (1.0 - h_tilde * h_tilde)
    d_rh = d_h @ w_h
    d_r = d_rh * hd * r * (1.0 - r)
    d_z = g * (h_tilde - hd) * z * (1.0 - z)
    d_m = d_z @ w_z + d_r @ w_r
    d_t = d_z @ u_z + d_r @ u_r + d_h @ u_h if need_t else None
    return (d_z, d_r, d_h), d_m, d_t, g * (1.0 - z) + d_rh * r


def _gru_weight_grads(p: GruParams, md: np.ndarray, td: np.ndarray, rh: np.ndarray,
                      pre: tuple) -> None:
    """Accumulate the nine weight gradients, each one matmul over all rows."""
    for x, d, w, u, b in ((md, pre[0], p.w_z, p.u_z, p.b_z), (md, pre[1], p.w_r, p.u_r, p.b_r),
                          (rh, pre[2], p.w_h, p.u_h, p.b_h)):
        if w.requires_grad:
            w._accum(x.T @ d)
        if u.requires_grad:
            u._accum(td.T @ d)
        if b.requires_grad:
            b._accum(d.sum(axis=0))


def gru_step(p: GruParams, m: Tensor, t: Tensor, h_prev: Tensor) -> Tensor:
    """One gated update: z/r gates from (m, t), candidate from (r*h_prev, t).

    One tape node with a hand-written backward; m, t and h_prev have one row
    per sequence, and m may be h_prev itself.
    """
    md, td, hd = m.data, t.data, h_prev.data
    if not md.shape[0] == td.shape[0] == hd.shape[0]:
        raise ValueError(f"row mismatch: m {md.shape}, t {td.shape}, h_prev {hd.shape}")
    out_data, gates = _gru_forward(p, (md @ p.w_z.data, md @ p.w_r.data),
                                   (td @ p.u_z.data, td @ p.u_r.data, td @ p.u_h.data), hd)

    def bwd(g):
        pre, d_m, d_t, d_prev = _gru_backward(_gru_transposes(p), g, hd, gates,
                                              t.requires_grad)
        _gru_weight_grads(p, md, td, gates[2], pre)
        if m.requires_grad:
            m._accum(d_m)
        if t.requires_grad:
            t._accum(d_t)
        if h_prev.requires_grad:
            h_prev._accum(d_prev)

    return Tensor._make(out_data, (m, t, h_prev, *vars(p).values()), bwd)


def gru_decode(p: GruParams, head: MlpParams, h0: Tensor, t0: np.ndarray,
               n: int) -> Tensor:
    """A GRU run that feeds itself its own type head, as one tape node.

    h_0 = h0 (1, H) and t_0 = t0 (1, k); for i = 1..n-1 (n >= 2),
    h_i = gru_step(p, h_{i-1}, t_{i-1}, h_{i-1}) and t_i = head(h_i), where
    head is tanh then softmax. Returns the (n, H + k) matrix whose row i is
    [h_i, t_i]. Each step makes one product of its state with the stacked
    [W0 | w_z | w_r], which feeds its head and the next step's gates, and one
    of its type row with the stacked [u_z | u_r | u_h]. The backward runs
    through time over the stored gates, then forms each weight gradient with
    one matmul over the stacked steps.
    """
    (w0, b0, act0), (w1, b1, act1) = head.layers
    if (act0, act1) != ("tanh", "softmax"):
        raise ValueError(f"type head needs tanh then softmax, got {act0}, {act1}")
    if n < 2:
        raise ValueError(f"a run needs at least 2 states, got n={n}")
    width, mid = h0.shape[1], w0.shape[1]
    by_state = np.hstack([w0.data, p.w_z.data, p.w_r.data])
    by_type = np.hstack([p.u_z.data, p.u_r.data, p.u_h.data])
    out_data = np.empty((n, width + w1.shape[1]))
    out_data[0, :width], out_data[0, width:] = h0.data, t0
    parents = (h0, *vars(p).values(), w0, b0, w1, b1)
    record = _records(parents)
    gates, hidden = [], []
    h, t = h0.data, t0
    hp = h @ by_state
    for i in range(1, n):
        tp = t @ by_type
        h, step_gates = _gru_forward(
            p, (hp[:, mid : mid + width], hp[:, mid + width :]),
            (tp[:, :width], tp[:, width : 2 * width], tp[:, 2 * width :]), h)
        hp = h @ by_state
        a = np.tanh(hp[:, :mid] + b0.data)
        t = _softmax(a @ w1.data + b1.data)
        out_data[i, :width], out_data[i, width:] = h, t
        if record:
            gates.append(step_gates)
            hidden.append(a)

    def bwd(g):
        states, types = out_data[:, :width], out_data[:, width:]
        wt, w0t, w1t = _gru_transposes(p), w0.data.T, w1.data.T
        pre = [np.empty((n - 1, width)) for _ in range(3)]
        d_logit = np.empty((n - 1, w1.shape[1]))
        d_a = np.empty((n - 1, mid))
        d_h, d_t = 0.0, 0.0  # gradients reaching h_i and t_i from step i + 1
        for i in range(n - 1, 0, -1):
            s, a = types[i : i + 1], hidden[i - 1]
            d_s = g[i : i + 1, width:] + d_t
            d_logit[i - 1] = s * (d_s - (d_s * s).sum(axis=-1, keepdims=True))
            d_a[i - 1] = (d_logit[i - 1] @ w1t) * (1.0 - a * a)
            d_state = g[i : i + 1, :width] + d_h + d_a[i - 1] @ w0t
            step_pre, d_m, d_t, d_prev = _gru_backward(wt, d_state, states[i - 1 : i],
                                                       gates[i - 1])
            for rows, d in zip(pre, step_pre):
                rows[i - 1] = d
            d_h = d_m + d_prev
        if h0.requires_grad:
            h0._accum(g[:1, :width] + d_h)
        rh = np.concatenate([step_gates[2] for step_gates in gates])
        _gru_weight_grads(p, states[:-1], types[:-1], rh, pre)
        for w, b, x, d in ((w0, b0, states[1:], d_a), (w1, b1, np.concatenate(hidden), d_logit)):
            if w.requires_grad:
                w._accum(x.T @ d)
            if b.requires_grad:
                b._accum(d.sum(axis=0))

    return Tensor._make(out_data, parents, bwd)


@dataclass
class MlpParams:
    """Affine layers with activation tags: tanh | sigmoid | softmax | identity."""

    layers: list[tuple[Tensor, Tensor, str]]

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for i, (w, b, _) in enumerate(self.layers):
            out[f"{prefix}.w{i}"] = w
            out[f"{prefix}.b{i}"] = b
        return out


_ACTIVATIONS = {
    "tanh": tanh,
    "sigmoid": sigmoid,
    "softmax": softmax,
    "identity": lambda x: x,
}


def init_mlp(rng: np.random.Generator, dims: list[int], activations: list[str]) -> MlpParams:
    assert len(activations) == len(dims) - 1
    layers = []
    for d_in, d_out, act in zip(dims[:-1], dims[1:], activations):
        if act not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {act!r}")
        layers.append((_init_tensor(rng, (d_in, d_out)),
                       Tensor(np.zeros(d_out), requires_grad=True), act))
    return MlpParams(layers)


def mlp_forward(p: MlpParams, x: Tensor) -> Tensor:
    h = x
    for w, b, act in p.layers:
        if h.shape[-1] != w.shape[0]:
            raise ValueError(f"dimension mismatch: {h.shape} @ {w.shape}")
        h = _ACTIVATIONS[act](h @ w + b)
    return h


@functools.cache
def tril_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.tril_indices(n, -1), computed once per n and read-only.

    The cache keeps every n it is asked for: two index arrays of n(n-1)/2
    entries each, about 0.2 MB at n = 166.
    """
    low = np.tril_indices(n, -1)
    for idx in low:
        idx.flags.writeable = False
    return low


def pair_head(h: Tensor, p: MlpParams) -> Tensor:
    """sigmoid(tanh([h_i, h_j] W0 + b0) W1 + b1) for every row pair j < i of h.

    Returns a (n(n-1)/2, k) tensor in np.tril_indices(n, -1) order; one tape
    node. Row i is scored from the projections h @ W0[:H] and h @ W0[H:], so
    an unrecorded forward builds no (pairs x width) array. A recorded one
    keeps the hidden rows, and its backward runs over all of them at once.
    """
    (w0, b0, act0), (w1, b1, act1) = p.layers
    if (act0, act1) != ("tanh", "sigmoid"):
        raise ValueError(f"pair head needs tanh then sigmoid, got {act0}, {act1}")
    hd = h.data
    n, width = hd.shape
    if w0.shape[0] != 2 * width:
        raise ValueError(f"dimension mismatch: pairs of {hd.shape} @ {w0.shape}")
    parents = (h, w0, b0, w1, b1)
    n_pairs = n * (n - 1) // 2
    left = hd @ w0.data[:width]
    right = hd @ w0.data[width:]
    hidden = np.empty((n_pairs, w0.shape[1])) if _records(parents) else None
    pre = np.empty((n_pairs, w1.shape[1]))
    for i in range(1, n):
        a = np.tanh(left[i] + right[:i] + b0.data)
        block = slice(i * (i - 1) // 2, i * (i + 1) // 2)
        pre[block] = a @ w1.data
        if hidden is not None:
            hidden[block] = a
    out_data = _sigmoid(pre + b1.data)

    def bwd(g):
        d_pre = g * out_data * (1.0 - out_data)
        d_a = (d_pre @ w1.data.T) * (1.0 - hidden * hidden)
        by_pair = np.zeros((n, n, w0.shape[1]))
        by_pair[tril_indices(n)] = d_a
        d_left, d_right = by_pair.sum(axis=1), by_pair.sum(axis=0)
        if w1.requires_grad:
            w1._accum(hidden.T @ d_pre)
        if b1.requires_grad:
            b1._accum(d_pre.sum(axis=0))
        if b0.requires_grad:
            b0._accum(d_a.sum(axis=0))
        if w0.requires_grad:
            w0._accum(np.vstack([hd.T @ d_left, hd.T @ d_right]))
        if h.requires_grad:
            h._accum(d_left @ w0.data[:width].T + d_right @ w0.data[width:].T)

    return Tensor._make(out_data, parents, bwd)


def _init_tensor(rng: np.random.Generator, shape: tuple[int, int]) -> Tensor:
    bound = 1.0 / np.sqrt(shape[0])
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


# -- Adam ---------------------------------------------------------------------


def arena(tensors) -> tuple[np.ndarray, np.ndarray]:
    """Pack the tensors, in order, into one parameter vector and one gradient vector.

    Every tensor's data becomes a view of the parameter vector (its values
    kept) and its grad a view of the zeroed gradient vector, so a backward
    accumulates into the gradient vector and one write to the parameter
    vector updates every tensor.
    """
    tensors = list(tensors)
    flat = np.concatenate([t.data.ravel() for t in tensors])
    grad = np.zeros_like(flat)
    ofs = 0
    for t in tensors:
        shape, size = t.data.shape, t.data.size
        t.data = flat[ofs : ofs + size].reshape(shape)
        t.grad = grad[ofs : ofs + size].reshape(shape)
        ofs += size
    return flat, grad


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 1e-4
    step: int = 0
    m: np.ndarray | None = None  # moments, one entry per parameter entry
    v: np.ndarray | None = None


def adam_step(state: AdamState, flat: np.ndarray, grad: np.ndarray) -> None:
    """Bias-corrected Adam update of the parameter vector flat, in place; deterministic.

    grad and the moments must have flat's shape; all are checked before
    anything changes. Each Adam expression runs once over the whole vector.
    """
    if grad.shape != flat.shape:
        raise ValueError(f"gradient shape {grad.shape} differs from parameters {flat.shape}")
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
    elif state.m.shape != flat.shape or state.v.shape != flat.shape:
        raise ValueError(f"moment shapes {state.m.shape}, {state.v.shape} differ "
                         f"from parameters {flat.shape}")
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * grad * grad
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    flat -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- Checkpoint I/O -----------------------------------------------------------

CHECKPOINT_FORMAT = "ipcamo-params-v1"


def params_to_json(params: dict[str, Tensor], meta: dict | None = None) -> str:
    """Bit-exact JSON serialization (repr of float64 round-trips)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "meta": meta or {},
        "params": {
            name: {"shape": list(t.shape), "data": t.data.ravel().tolist()}
            for name, t in sorted(params.items())
        },
    }
    return json.dumps(payload, sort_keys=True)


def params_from_json(text: str) -> tuple[dict[str, np.ndarray], dict]:
    obj = json.loads(text)
    if obj.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format: {obj.get('format')!r}")
    out = {}
    for name, rec in obj["params"].items():
        out[name] = np.array(rec["data"], dtype=np.float64).reshape(rec["shape"])
    return out, obj.get("meta", {})
