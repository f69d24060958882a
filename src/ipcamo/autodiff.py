"""Minimal dense-tensor reverse-mode autodiff with fused GRU and MLP nodes, and Adam.

Float64 throughout; single-threaded tape; gradients are validated against
central finite differences in the test suite.

Besides the elementary ops that training uses (`+`, `*`, `exp` and `take`)
the tape has fused nodes, each one tensor with a hand-written backward that
lists every tensor it reads as a parent, so a VAE training step is a
handful of nodes:

- `gru_encode`: a GRU up the levels of a DAG, one update of all of a
  level's rows at a time, then the mu and logvar heads; it reads a
  `LevelPlan` (level starts, signed-incidence blocks, type rows, leaf rows)
  that its caller builds once per graph.
- `gru_decode`: h_0 = tanh(z W + b), then a whole GRU run fed its own
  softmax type head, backpropagated through time.
- `edge_heads`: both edge MLPs over every row pair, one double-width hidden
  row per pair. Its scores come from `PairScorer`, which inference calls
  directly to score one head on chosen pairs only.

Every GRU update computes its z and r gates as one stacked block, forward
and backward, and forms each weight gradient with one product over all the
rows of a node. `Tensor.backward` walks the recorded nodes reachable from
the loss in reverse creation order, which is a topological order because a
node is created after all of its parents; leaves never enter the walk.

Training packs the parameters into an `arena`: one parameter vector that
every parameter's data views and one gradient vector that every grad
views. `adam_step` updates the vector in place, with two scratch rows kept
in its state, and a step's gradient reset is one fill.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

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


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)), into out when given (which may be x)."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


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


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def bwd(g, a=x, o=out_data):
        if a.requires_grad:
            a._accum(g * o)

    return Tensor._make(out_data, (x,), bwd)


def take(x: Tensor, index) -> Tensor:
    """x.data[index] as a tensor: a gather of rows or a block of slices.

    The backward accumulates repeated rows (np.add.at), so a gather may read
    one row many times; a block reads each entry once, so its backward is
    one assignment.
    """
    out_data = x.data[index]
    block = isinstance(index, tuple) and all(isinstance(i, slice) for i in index)

    def bwd(g, a=x):
        if a.requires_grad:
            full = np.zeros(a.shape)
            if block:
                full[index] = g
            else:
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


@dataclass
class MlpParams:
    """Affine layers (w, b). The node that runs an MLP fixes its activations."""

    layers: list[tuple[Tensor, Tensor]]

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(self.layers):
            out[f"{prefix}.w{i}"] = w
            out[f"{prefix}.b{i}"] = b
        return out


def init_mlp(rng: np.random.Generator, dims: list[int]) -> MlpParams:
    return MlpParams([(_init_tensor(rng, (d_in, d_out)),
                       Tensor(np.zeros(d_out), requires_grad=True))
                      for d_in, d_out in zip(dims[:-1], dims[1:])])


def _init_tensor(rng: np.random.Generator, shape: tuple[int, int]) -> Tensor:
    bound = 1.0 / np.sqrt(shape[0])
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


# -- Fused nodes --------------------------------------------------------------


def _accum_grads(pairs) -> None:
    """Accumulate each (tensor, gradient) pair into the tensors that require grad."""
    for t, g in pairs:
        if t.requires_grad:
            t._accum(g)


def _gru_stacks(p: GruParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[w_z | w_r], [u_z | u_r | u_h] and [b_z | b_r | b_h]: the z and r gates as one block."""
    return (np.concatenate([p.w_z.data, p.w_r.data], axis=1),
            np.concatenate([p.u_z.data, p.u_r.data, p.u_h.data], axis=1),
            np.concatenate([p.b_z.data, p.b_r.data, p.b_h.data]))


def _gru_cell(w_h: np.ndarray, zr: np.ndarray, th: np.ndarray, hd: np.ndarray,
              rh: np.ndarray, h_tilde: np.ndarray, h_new: np.ndarray) -> None:
    """One GRU update of the rows hd, written into buffers the backward reads.

    On entry zr holds m @ [w_z | w_r] + t @ [u_z | u_r] + [b_z | b_r] and th
    holds t @ u_h + b_h. On return zr holds the gates [z | r], rh = r * hd,
    h_tilde the candidate tanh(rh @ w_h + th) and h_new = (1 - z) * hd +
    z * h_tilde, computed as hd + z * (h_tilde - hd).
    """
    _sigmoid(zr, out=zr)
    width = hd.shape[-1]
    np.multiply(zr[..., width:], hd, out=rh)
    np.matmul(rh, w_h, out=h_tilde)
    h_tilde += th
    np.tanh(h_tilde, out=h_tilde)
    np.subtract(h_tilde, hd, out=h_new)
    h_new *= zr[..., :width]
    h_new += hd


def _gru_coefficients(zr: np.ndarray, h_tilde: np.ndarray, hd: np.ndarray) -> tuple:
    """The factors _gru_backward reads, for every stored row at once.

    (c_h, c_z, c_r, keep, r): the candidate's pre-activation gradient is
    g * c_h, z's is g * c_z, r's is d_rh * c_r, and h_prev's through the
    update and the candidate is g * keep + d_rh * r.
    """
    width = hd.shape[1]
    z, r = zr[:, :width], zr[:, width:]
    keep = 1.0 - z
    return z * (1.0 - h_tilde * h_tilde), (h_tilde - hd) * z * keep, hd * r * (1.0 - r), keep, r


def _gru_backward(coef: tuple, g: np.ndarray, d: np.ndarray, w_h_t: np.ndarray) -> np.ndarray:
    """Backward of _gru_cell for output gradient g, given its rows of _gru_coefficients.

    Writes the pre-activation gradients [z | r | candidate] into d and returns
    h_prev's gradient, except for the part through the gates' message m.
    """
    c_h, c_z, c_r, keep, r = coef
    width = g.shape[-1]
    cand = d[..., 2 * width:]
    np.multiply(g, c_h, out=cand)
    d_rh = cand @ w_h_t
    np.multiply(g, c_z, out=d[..., :width])
    np.multiply(d_rh, c_r, out=d[..., width : 2 * width])
    return g * keep + d_rh * r


def _gru_weight_grads(p: GruParams, m: np.ndarray, t: np.ndarray, rh: np.ndarray,
                      d: np.ndarray) -> None:
    """Accumulate the nine GRU weight gradients, each from one product over all rows.

    m, t and rh are every row's message, type row and r * h_prev; d holds
    their [z | r | candidate] pre-activation gradients.
    """
    width = m.shape[1]
    g_zr = m.T @ d[:, : 2 * width]
    g_u = t.T @ d
    g_b = d.sum(axis=0)
    _accum_grads(((p.w_z, g_zr[:, :width]), (p.w_r, g_zr[:, width:]),
                  (p.w_h, rh.T @ d[:, 2 * width :]), (p.u_z, g_u[:, :width]),
                  (p.u_r, g_u[:, width : 2 * width]), (p.u_h, g_u[:, 2 * width :]),
                  (p.b_z, g_b[:width]), (p.b_r, g_b[width : 2 * width]),
                  (p.b_h, g_b[2 * width :])))


class LevelPlan(NamedTuple):
    """The rows of a levelled DAG in the order gru_encode reads them.

    Rows are sorted by level. Level 0, rows [0, starts[1]), are leaves whose
    states are rows leaf_rows of the embedding. Level l > 0 holds rows
    [starts[l], starts[l + 1]); its messages are incidence[l - 1] times the
    states of rows [0, starts[l]), and its type rows are those rows of types,
    which has one row per non-leaf row. The heads read row out_row.
    """

    leaf_rows: np.ndarray
    starts: tuple[int, ...]
    incidence: tuple[np.ndarray, ...]
    types: np.ndarray
    out_row: int


def gru_encode(p: GruParams, embed: Tensor, mu: MlpParams, logvar: MlpParams,
               plan: LevelPlan) -> Tensor:
    """A GRU up the levels of a DAG, then its mu and logvar heads, as one tape node.

    Each level above 0 is one GRU update of all its rows, whose message m,
    also its previous state, is the level's incidence block times the states
    below it. The heads are tanh(h W0 + b0) W1 + b1 on the state of row
    plan.out_row, their first layers one product with the stacked [W0 | W0'].
    Returns the (1, 2d) row [mu | logvar]. The backward runs down the levels,
    then forms each GRU weight gradient with one product over all rows.
    """
    starts, inc, types = plan.starts, plan.incidence, plan.types
    n, n_leaf, width = starts[-1], starts[1], embed.shape[1]
    if types.shape[0] != n - n_leaf or any(
            block.shape != (hi - lo, lo) for block, lo, hi in zip(inc, starts[1:], starts[2:])):
        raise ValueError(f"row mismatch: {n} rows in levels {starts}, types {types.shape}, "
                         f"incidence {[block.shape for block in inc]}")
    (w0m, b0m), (w1m, b1m) = mu.layers
    (w0v, b0v), (w1v, b1v) = logvar.layers
    mid, d_out = w0m.shape[1], w1m.shape[1]
    w_zr, u_all, b_all = _gru_stacks(p)
    states = np.empty((n, width))
    states[:n_leaf] = embed.data[plan.leaf_rows]
    msg = np.empty((n - n_leaf, width))  # each row's message, also its previous state
    type_prods = types @ u_all + b_all  # every row's, for all levels at once
    zr, th = type_prods[:, : 2 * width], type_prods[:, 2 * width :]
    rh, h_tilde = np.empty_like(msg), np.empty_like(msg)
    for block, lo, hi in zip(inc, starts[1:], starts[2:]):
        s = slice(lo - n_leaf, hi - n_leaf)
        m = np.matmul(block, states[:lo], out=msg[s])
        zr[s] += m @ w_zr
        _gru_cell(p.w_h.data, zr[s], th[s], m, rh[s], h_tilde[s], states[lo:hi])
    h_out = states[plan.out_row]
    w0 = np.concatenate([w0m.data, w0v.data], axis=1)
    hidden = np.tanh(h_out @ w0 + np.concatenate([b0m.data, b0v.data]))
    out_data = np.concatenate([hidden[:mid] @ w1m.data + b1m.data,
                               hidden[mid:] @ w1v.data + b1v.data]).reshape(1, 2 * d_out)

    def bwd(g):
        g_mu, g_lv = g[0, :d_out], g[0, d_out:]
        d_hidden = np.concatenate([g_mu @ w1m.data.T, g_lv @ w1v.data.T]) * (1.0 - hidden * hidden)
        g_w0 = np.outer(h_out, d_hidden)
        _accum_grads(((w1m, np.outer(hidden[:mid], g_mu)), (b1m, g_mu),
                      (w1v, np.outer(hidden[mid:], g_lv)), (b1v, g_lv),
                      (w0m, g_w0[:, :mid]), (b0m, d_hidden[:mid]),
                      (w0v, g_w0[:, mid:]), (b0v, d_hidden[mid:])))
        d_states = np.zeros((n, width))
        d_states[plan.out_row] = d_hidden @ w0.T
        coef = _gru_coefficients(zr, h_tilde, msg)
        d = np.empty((n - n_leaf, 3 * width))
        w_h_t, w_zr_t = p.w_h.data.T, w_zr.T
        for block, lo, hi in zip(reversed(inc), reversed(starts[1:-1]), reversed(starts[2:])):
            s = slice(lo - n_leaf, hi - n_leaf)
            d_prev = _gru_backward([c[s] for c in coef], d_states[lo:hi], d[s], w_h_t)
            d_prev += d[s, : 2 * width] @ w_zr_t
            d_states[:lo] += block.T @ d_prev
        if embed.requires_grad:
            full = np.zeros(embed.shape)
            np.add.at(full, plan.leaf_rows, d_states[:n_leaf])
            embed._accum(full)
        _gru_weight_grads(p, msg, types, rh, d)

    parents = (embed, *vars(p).values(), w0m, b0m, w1m, b1m, w0v, b0v, w1v, b1v)
    return Tensor._make(out_data, parents, bwd)


def gru_decode(p: GruParams, head: MlpParams, z: Tensor, init_w: Tensor, init_b: Tensor,
               t0: np.ndarray, n: int) -> Tensor:
    """A GRU run from tanh(z W + b) that feeds itself its own type head, as one tape node.

    h_0 = tanh(z init_w + init_b) for the (1, d) latent z and t_0 = t0 (k,).
    For i = 1..n-1 (n >= 2), h_i is the GRU update of h_{i-1} with message
    h_{i-1} and type row t_{i-1}, and t_i = softmax(tanh(h_i W0 + b0) W1 + b1).
    Returns the (n, H + k) matrix whose row i is [h_i, t_i]. Each step makes
    one product of its state with the stacked [W0 | w_z | w_r], which feeds
    its head and the next step's gates, and one of its type row with the
    stacked [u_z | u_r | u_h]. The backward runs through time over the stored
    gates, one product with [[w_z | w_r | 0], [u_z | u_r | u_h]]^T a step
    giving the gradients of h_{i-1} and t_{i-1}, then forms each weight
    gradient with one product over the stacked steps.
    """
    if n < 2:
        raise ValueError(f"a run needs at least 2 states, got n={n}")
    (w0, b0), (w1, b1) = head.layers
    width, mid, k = init_w.shape[1], w0.shape[1], w1.shape[1]
    w_zr, u_all, b_all = _gru_stacks(p)
    by_state = np.concatenate([w0.data, w_zr], axis=1)
    out_data = np.empty((n, width + k))
    h0 = np.tanh(z.data @ init_w.data + init_b.data)
    out_data[0, :width], out_data[0, width:] = h0, t0
    zr = np.empty((n - 1, 2 * width))
    rh, h_tilde = np.empty((n - 1, width)), np.empty((n - 1, width))
    hidden = np.empty((n - 1, mid))
    w_h, b0_row, w1_mat, b1_row = p.w_h.data, b0.data, w1.data, b1.data
    h, t = out_data[0, :width], out_data[0, width:]
    hp = h @ by_state
    # each step's row of every buffer it writes, as views made once
    steps = zip(out_data[1:, :width], out_data[1:, width:], zr, zr[:, :width],
                zr[:, width:], rh, h_tilde, hidden)
    for h_new, t_new, zr_i, z_i, r_i, rh_i, cand, a in steps:
        tp = t @ u_all
        tp += b_all
        np.add(hp[mid:], tp[: 2 * width], out=zr_i)
        # _gru_cell, inline: zr_i becomes the gates [z | r]
        np.negative(zr_i, out=zr_i)
        np.exp(zr_i, out=zr_i)
        zr_i += 1.0
        np.divide(1.0, zr_i, out=zr_i)
        np.multiply(r_i, h, out=rh_i)
        np.matmul(rh_i, w_h, out=cand)
        cand += tp[2 * width :]
        np.tanh(cand, out=cand)
        np.subtract(cand, h, out=h_new)
        h_new *= z_i
        h_new += h
        h, t = h_new, t_new
        hp = h @ by_state
        np.add(hp[:mid], b0_row, out=a)
        np.tanh(a, out=a)
        logit = a @ w1_mat
        logit += b1_row
        logit -= np.maximum.reduce(logit)
        np.exp(logit, out=logit)
        np.divide(logit, np.add.reduce(logit), out=t)

    def bwd(g):
        states, types = out_data[:, :width], out_data[:, width:]
        coef = list(zip(*_gru_coefficients(zr, h_tilde, states[:-1])))
        w_h_t, w0t, w1t = p.w_h.data.T, w0.data.T, w1.data.T
        by_grad = np.zeros((3 * width, width + k))  # [d_z | d_r | d_cand] -> [d_h | d_t]
        by_grad[: 2 * width, :width] = w_zr.T
        by_grad[:, width:] = u_all.T
        # The head maps a gradient d_s of t_i to one of h_i linearly: d_s @ head_t[i - 1],
        # with softmax Jacobian diag(t_i) - t_i t_i^T; one batched product for all steps.
        soft = types[1:]
        jac = soft[:, :, None] * (np.eye(k) - soft[:, None, :])
        tanh_grad = 1.0 - hidden * hidden
        head_t = ((jac @ w1t) * tanh_grad[:, None, :]) @ w0t
        d = np.empty((n - 1, 3 * width))
        d_soft = np.empty((n - 1, k))
        d_h, d_t = 0.0, 0.0  # gradients reaching h_i and t_i from step i + 1
        for i in range(n - 1, 0, -1):
            d_s = np.add(g[i, width:], d_t, out=d_soft[i - 1])
            d_state = g[i, :width] + d_h + d_s @ head_t[i - 1]
            d_prev = _gru_backward(coef[i - 1], d_state, d[i - 1], w_h_t)
            d_ht = d[i - 1] @ by_grad
            d_h, d_t = d_ht[:width] + d_prev, d_ht[width:]
        d_logit = (d_soft[:, None, :] @ jac)[:, 0]
        d_a = (d_logit @ w1t) * tanh_grad
        d_init = (g[0, :width] + d_h) * (1.0 - h0 * h0)
        _gru_weight_grads(p, states[:-1], types[:-1], rh, d)
        _accum_grads(((init_w, z.data.T @ d_init), (init_b, d_init[0]),
                      (w0, states[1:].T @ d_a), (b0, d_a.sum(axis=0)),
                      (w1, hidden.T @ d_logit), (b1, d_logit.sum(axis=0)),
                      (z, d_init @ init_w.data.T)))

    parents = (z, init_w, init_b, *vars(p).values(), w0, b0, w1, b1)
    return Tensor._make(out_data, parents, bwd)


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


_PAIR_BLOCK = 512  # pairs per block of an unrecorded scoring
CONN_HEAD, INV_HEAD, BOTH_HEADS = slice(0, 1), slice(1, 2), slice(0, 2)  # score columns


class PairScorer:
    """The edge heads of the rows of h: sigmoid(tanh([h_i, h_j] W0 + b0) W1 + b1)
    for a pair (i, j), the conn head in column 0 and the inv head in column 1.

    h is projected once, by the stacked [W0[:H] | W0'[:H] | W0[H:] | W0'[H:]],
    and a pair's hidden row is left_i + right_j + [b0 | b0'], one block per
    head. Calling the scorer scores the given pairs on a slice of the heads,
    `_PAIR_BLOCK` pairs at a time, so it builds no (pairs x width) array.
    Each score is one einsum over its pair's hidden block, whose sum order
    depends neither on the block size (a BLAS product's does) nor on the
    other pairs or heads scored with it, so a pair's score has the same bits
    however it is asked for.
    """

    def __init__(self, h: np.ndarray, conn: MlpParams, inv: MlpParams):
        (w0c, b0c), (w1c, b1c) = conn.layers
        (w0i, b0i), (w1i, b1i) = inv.layers
        width = h.shape[1]
        mid = w0c.shape[1]
        if (w0c.shape != (2 * width, mid) or w0i.shape != w0c.shape
                or {w1c.shape, w1i.shape} != {(mid, 1)}):
            raise ValueError(f"dimension mismatch: pairs of {h.shape} @ {w0c.shape}, "
                             f"{w0i.shape}; W1 {w1c.shape}, {w1i.shape}")
        self.mid = mid
        self.proj_w = np.hstack([w0c.data[:width], w0i.data[:width],
                                 w0c.data[width:], w0i.data[width:]])
        proj = h @ self.proj_w
        self.left, self.right = proj[:, : 2 * mid], proj[:, 2 * mid :]
        self.b0 = np.concatenate([b0c.data, b0i.data])
        self.w1 = np.concatenate([w1c.data, w1i.data]).reshape(2, mid)
        self.b1 = np.concatenate([b1c.data, b1i.data])

    def hidden(self, rows: np.ndarray, cols: np.ndarray, heads: slice = BOTH_HEADS) -> np.ndarray:
        """The pairs' tanh hidden rows, the heads' blocks side by side."""
        span = slice(heads.start * self.mid, heads.stop * self.mid)
        out = self.left[rows, span]
        out += self.right[cols, span]
        out += self.b0[span]
        return np.tanh(out, out=out)

    def logits(self, hidden: np.ndarray, heads: slice = BOTH_HEADS) -> np.ndarray:
        """Each head's W1 over its block of the hidden rows, without b1."""
        k = heads.stop - heads.start
        return np.einsum("pkm,km->pk", hidden.reshape(-1, k, self.mid), self.w1[heads])

    def __call__(self, rows: np.ndarray, cols: np.ndarray,
                 heads: slice = BOTH_HEADS) -> np.ndarray:
        """(pairs, heads) scores of the pairs (rows[k], cols[k])."""
        pre = np.empty((len(rows), heads.stop - heads.start))
        for lo in range(0, len(rows), _PAIR_BLOCK):
            block = slice(lo, lo + _PAIR_BLOCK)
            pre[block] = self.logits(self.hidden(rows[block], cols[block], heads), heads)
        pre += self.b1[heads]
        return _sigmoid(pre, out=pre)


def edge_heads(h: Tensor, conn: MlpParams, inv: MlpParams) -> Tensor:
    """Both edge heads of `PairScorer` for every row pair j < i of h.

    Returns the (n(n-1)/2, 2) tensor of conn and inv scores, rows in
    np.tril_indices(n, -1) order; one tape node. Unrecorded, it is one
    `PairScorer` call over those pairs. Recorded, it scores every pair as
    one block and keeps it, the hidden rows its backward reads; the scores
    have the same bits either way.
    """
    hd = h.data
    n = hd.shape[0]
    scorer = PairScorer(hd, conn, inv)
    (w0c, b0c), (w1c, b1c) = conn.layers
    (w0i, b0i), (w1i, b1i) = inv.layers
    parents = (h, w0c, b0c, w1c, b1c, w0i, b0i, w1i, b1i)
    rows, cols = tril_indices(n)
    if not _records(parents):
        return Tensor(scorer(rows, cols))
    mid, w1, proj_w = scorer.mid, scorer.w1, scorer.proj_w
    n_pairs = len(rows)
    hidden = scorer.hidden(rows, cols)
    pre = scorer.logits(hidden)
    pre += scorer.b1
    out_data = _sigmoid(pre, out=pre)

    def bwd(g):
        d_pre = g * out_data * (1.0 - out_data)
        d_a = (d_pre[:, :, None] * w1).reshape(n_pairs, 2 * mid) * (1.0 - hidden * hidden)
        by_pair = np.zeros((n, n, 2 * mid))
        by_pair[rows, cols] = d_a
        d_left, d_right = by_pair.sum(axis=1), by_pair.sum(axis=0)
        d_proj = np.concatenate([d_left, d_right], axis=1)
        g_w0 = hd.T @ d_proj
        g_w1 = hidden.reshape(n_pairs, 2, mid).transpose(1, 2, 0) @ d_pre.T[:, :, None]
        g_b0, g_b1 = d_a.sum(axis=0), d_pre.sum(axis=0)
        _accum_grads(((w0c, np.vstack([g_w0[:, :mid], g_w0[:, 2 * mid : 3 * mid]])),
                      (w0i, np.vstack([g_w0[:, mid : 2 * mid], g_w0[:, 3 * mid :]])),
                      (b0c, g_b0[:mid]), (b0i, g_b0[mid:]), (w1c, g_w1[0]), (w1i, g_w1[1]),
                      (b1c, g_b1[:1]), (b1i, g_b1[1:]), (h, d_proj @ proj_w.T)))

    return Tensor._make(out_data, parents, bwd)


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
    work: np.ndarray | None = None  # two rows of scratch, so a step allocates nothing


def adam_step(state: AdamState, flat: np.ndarray, grad: np.ndarray) -> None:
    """Bias-corrected Adam update of the parameter vector flat, in place; deterministic.

    grad and the moments must have flat's shape; all are checked before
    anything changes. Each Adam expression runs once over the whole vector,
    in place or into the state's two scratch rows.
    """
    if grad.shape != flat.shape:
        raise ValueError(f"gradient shape {grad.shape} differs from parameters {flat.shape}")
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
    elif state.m.shape != flat.shape or state.v.shape != flat.shape:
        raise ValueError(f"moment shapes {state.m.shape}, {state.v.shape} differ "
                         f"from parameters {flat.shape}")
    if state.work is None or state.work.shape != (2, *flat.shape):
        state.work = np.empty((2, *flat.shape))
    state.step += 1
    t = state.step
    m, v, (a, b) = state.m, state.v, state.work
    np.multiply(grad, 1 - ADAM_BETA1, out=a)
    m *= ADAM_BETA1
    m += a
    np.multiply(grad, 1 - ADAM_BETA2, out=a)
    a *= grad
    v *= ADAM_BETA2
    v += a
    np.divide(v, 1 - ADAM_BETA2 ** t, out=a)  # sqrt(v_hat) + eps
    np.sqrt(a, out=a)
    a += ADAM_EPS
    np.divide(m, 1 - ADAM_BETA1 ** t, out=b)  # lr * m_hat / a
    b *= state.lr
    b /= a
    flat -= b


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
