"""Graph VAE over AIG trees: BFS-ordered encoder, sequential decoder, training."""
from __future__ import annotations

import csv
import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .aig import AigGraph, NodeType, TensorTriple, to_tensors
from .autodiff import (AdamState, GruParams, LevelPlan, MlpParams, Tensor, adam_step,
                       init_gru, init_mlp, no_grad)

_TYPE_ROWS = np.eye(3)  # row t.value is the one-hot of NodeType t


@dataclass
class Hyperparams:
    alpha: float = 0.3
    beta: float = 0.3
    gamma: float = 0.3
    delta: float = 0.1
    lr: float = 1e-4
    epochs: int = 100
    patience: int = 10
    latent_dim: int = 512
    hidden_dim: int | None = None  # defaults to latent_dim
    mlp_hidden: int | None = None  # defaults to hidden
    max_pi: int = 200
    seed: int = 0

    @property
    def hidden(self) -> int:
        return self.hidden_dim if self.hidden_dim is not None else self.latent_dim

    @property
    def mlp_width(self) -> int:
        return self.mlp_hidden if self.mlp_hidden is not None else self.hidden


@dataclass
class LatentCode:
    mu: np.ndarray
    sigma: np.ndarray


@dataclass
class VaeParams:
    hidden: int
    latent: int
    max_pi: int
    pi_embed: Tensor
    enc: GruParams
    mlp_mu: MlpParams
    mlp_logvar: MlpParams
    dec_init_w: Tensor
    dec_init_b: Tensor
    dec: GruParams
    mlp_add: MlpParams
    mlp_conn: MlpParams
    mlp_inv: MlpParams

    def named(self) -> dict[str, Tensor]:
        out = {
            "pi_embed": self.pi_embed,
            "dec_init.w": self.dec_init_w,
            "dec_init.b": self.dec_init_b,
        }
        out.update(self.enc.named("enc"))
        out.update(self.mlp_mu.named("mlp_mu"))
        out.update(self.mlp_logvar.named("mlp_logvar"))
        out.update(self.dec.named("dec"))
        out.update(self.mlp_add.named("mlp_add"))
        out.update(self.mlp_conn.named("mlp_conn"))
        out.update(self.mlp_inv.named("mlp_inv"))
        return out


def init_vae(h: Hyperparams, rng: np.random.Generator) -> VaeParams:
    H, d, w = h.hidden, h.latent_dim, h.mlp_width
    return VaeParams(
        hidden=H, latent=d, max_pi=h.max_pi,
        pi_embed=ad._init_tensor(rng, (h.max_pi, H)),
        enc=init_gru(rng, H, 3),
        mlp_mu=init_mlp(rng, [H, w, d]),
        mlp_logvar=init_mlp(rng, [H, w, d]),
        dec_init_w=ad._init_tensor(rng, (d, H)),
        dec_init_b=Tensor(np.zeros(H), requires_grad=True),
        dec=init_gru(rng, H, 3),
        mlp_add=init_mlp(rng, [H, w, 3]),
        mlp_conn=init_mlp(rng, [2 * H, w, 1]),
        mlp_inv=init_mlp(rng, [2 * H, w, 1]),
    )


# -- Encoder ------------------------------------------------------------------


def encoder_plan(g: AigGraph, max_pi: int) -> LevelPlan:
    """The rows `autodiff.gru_encode` reads for tree g, built once per graph.

    PIs are level 0 and a gate's level is one more than the highest level of
    its fan-ins; rows are sorted by level, then by node index. PI k reads
    `pi_embed` row min(k, max_pi - 1). A gate's message is the sum of its
    fan-in states, each negated on an inverted edge: one row of a signed
    incidence block per level. The heads read the PO's row.
    """
    if not g.is_tree():
        raise ValueError("encoder input must be a canonical single-PO tree")
    preds = g.pred_table()
    level = [0] * g.n
    for i, t in enumerate(g.types):  # canonical: every fan-in has a lower index
        if t is not NodeType.PI:
            level[i] = 1 + max(level[s] for s, _ in preds[i])
    order = sorted(range(g.n), key=level.__getitem__)  # by level, then by index
    row = {v: k for k, v in enumerate(order)}  # each node's row in the stacked states
    starts = (0, *itertools.accumulate(np.bincount(level).tolist()))  # first row per level
    # level l's block holds rows [starts[l], starts[l + 1]) over the rows below them
    incidence = [np.zeros((hi - lo, lo)) for lo, hi in zip(starts[1:], starts[2:])]
    for s, d, inv in g.edges:
        incidence[level[d] - 1][row[d] - starts[level[d]], row[s]] += -1.0 if inv else 1.0
    return LevelPlan(
        leaf_rows=np.minimum(np.arange(starts[1]), max_pi - 1), starts=starts,
        incidence=tuple(incidence),
        types=_TYPE_ROWS[[g.types[v].value for v in order[starts[1]:]]],
        out_row=row[g.po_indices[0]])


def encode_tensors(g: AigGraph | LevelPlan, p: VaeParams) -> tuple[Tensor, Tensor]:
    """Differentiable encode of a tree or its `encoder_plan`: (mu, logvar) as (1, d) tensors.

    One `autodiff.gru_encode` node over all levels and both heads.
    """
    plan = g if isinstance(g, LevelPlan) else encoder_plan(g, p.max_pi)
    out = ad.gru_encode(p.enc, p.pi_embed, p.mlp_mu, p.mlp_logvar, plan)
    return (ad.take(out, (slice(None), slice(None, p.latent))),
            ad.take(out, (slice(None), slice(p.latent, None))))


def encode(g: AigGraph, p: VaeParams) -> LatentCode:
    """Deterministic evaluation-mode encoding; the latent point is `mu`."""
    with no_grad():
        mu, logvar = encode_tensors(g, p)
    mu = mu.data.ravel().copy()
    sigma = np.exp(0.5 * logvar.data.ravel())
    return LatentCode(mu=mu, sigma=sigma)


# -- Decoder ------------------------------------------------------------------


def _lower(mat: np.ndarray) -> np.ndarray:
    """Strictly lower-triangle entries of a square matrix as a column, in
    np.tril_indices(n, -1) order."""
    return mat[ad.tril_indices(mat.shape[0])].reshape(-1, 1)


@dataclass
class DecodedSoft:
    """Decoder outputs kept as tape tensors for the loss."""

    n: int
    types: Tensor                    # (n, 3) type distributions
    conn: Tensor                     # (n(n-1)/2, 1) scores of pairs j < i, tril order
    inv: Tensor


def _decoder_run(z: Tensor, node_count: int, p: VaeParams) -> tuple[Tensor, Tensor]:
    """The GRU run of a decode: its (n, H) states and (n, 3) types."""
    if z.data.ndim != 2 or z.data.shape[0] != 1:
        raise ValueError(f"latent must be a (1, d) row, got shape {z.data.shape}")
    run = ad.gru_decode(p.dec, p.mlp_add, z, p.dec_init_w, p.dec_init_b,
                        NodeType.PI.one_hot(), node_count)
    return (ad.take(run, (slice(None), slice(None, p.hidden))),
            ad.take(run, (slice(None), slice(p.hidden, None))))


def decode_tensors(z: Tensor, node_count: int, p: VaeParams) -> DecodedSoft:
    """Decode z to the soft tensors of a node_count-node graph.

    `gru_decode` runs h_0 = tanh(z W + b), the type MLP and the GRU over all
    nodes as one tape node (node 0 is forced PI), and `edge_heads` scores
    connections and inversions over all state pairs as another.
    """
    states, types = _decoder_run(z, node_count, p)
    edges = ad.edge_heads(states, p.mlp_conn, p.mlp_inv)
    return DecodedSoft(node_count, types, ad.take(edges, (slice(None), slice(0, 1))),
                       ad.take(edges, (slice(None), slice(1, 2))))


def decode(z: np.ndarray, node_count: int, p: VaeParams,
           pick: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
           ) -> TensorTriple:
    """Evaluation-mode decode to a soft TensorTriple (upper triangle zero).

    The GRU runs once and the conn head scores every pair j < i. The inv
    head scores the (rows, cols) pairs that `pick(types, conn)` names, or
    every pair j < i when pick is None; every other inversion is 0. Each
    score has the bits of `decode_tensors`', and `autodiff.PairScorer`
    scores the pairs a block at a time, so no (pairs x width) array is built.
    """
    with no_grad():
        states, types = _decoder_run(Tensor(np.reshape(z, (1, -1))), node_count, p)
    score = ad.PairScorer(states.data, p.mlp_conn, p.mlp_inv)
    low = ad.tril_indices(node_count)
    conn = np.zeros((node_count, node_count))
    conn[low] = score(*low, ad.CONN_HEAD)[:, 0]
    rows, cols = low if pick is None else pick(types.data, conn)
    inv = np.zeros((node_count, node_count))
    inv[rows, cols] = score(rows, cols, ad.INV_HEAD)[:, 0]
    return TensorTriple(types.data.copy(), conn, inv)


# -- Loss ---------------------------------------------------------------------


def loss_tensors(x: TensorTriple, decoded: DecodedSoft, mu: Tensor,
                 logvar: Tensor, h: Hyperparams) -> tuple[Tensor, dict[str, float]]:
    """Weighted MSE over the three tensors plus the closed-form KL term.

    One tape node: alpha * type + beta * conn + gamma * inv + delta * kl, where
    type is the squared error of the type rows over 3n, conn and inv those of
    the lower-triangle columns over n^2, and kl is
    0.5 * sum(exp(logvar) + mu^2 - logvar - 1). comps holds the four terms.
    """
    if x.n != decoded.n:
        raise ValueError(f"node count mismatch: {x.n} vs {decoded.n}")
    n = x.n
    parts = ((decoded.types, x.type_mat, 1.0 / (n * 3), h.alpha),
             (decoded.conn, _lower(x.conn_mat), 1.0 / (n * n), h.beta),
             (decoded.inv, _lower(x.inv_mat), 1.0 / (n * n), h.gamma))
    diffs = [pred.data - target for pred, target, _, _ in parts]
    terms = [(d * d).sum() * scale for d, (_, _, scale, _) in zip(diffs, parts)]
    var = np.exp(logvar.data)
    l_kl = (var + mu.data * mu.data - logvar.data - 1.0).sum() * 0.5
    total = (h.alpha * terms[0] + h.beta * terms[1] + h.gamma * terms[2]
             + h.delta * l_kl)

    def bwd(g):
        for (pred, _, scale, weight), d in zip(parts, diffs):
            if pred.requires_grad:
                pred._accum(2.0 * (g * weight * scale * d))
        k = g * h.delta * 0.5
        if mu.requires_grad:
            mu._accum(2.0 * (k * mu.data))
        if logvar.requires_grad:
            logvar._accum(k * var - k)

    comps = {"type": float(terms[0]), "conn": float(terms[1]),
             "inv": float(terms[2]), "kl": float(l_kl)}
    return Tensor._make(total, (decoded.types, decoded.conn, decoded.inv, mu, logvar),
                        bwd), comps


# -- Training -----------------------------------------------------------------


def train(dataset: list[AigGraph], h: Hyperparams) -> tuple[VaeParams, list[dict]]:
    """Per-graph SGD with Adam, 80-20 train/validation split, early stopping.

    The parameters train on one arena (`autodiff.arena`): one Adam step and
    one gradient reset per graph, and the best epoch's snapshot is a copy of
    the parameter vector. Each graph's `encoder_plan` and target tensors are
    built once. Every grad is None again on return.
    """
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(h.seed)
    order = rng.permutation(len(dataset))
    n_val = max(1, len(dataset) // 5) if len(dataset) > 1 else 0
    val_set = [dataset[i] for i in order[:n_val]]
    train_set = [dataset[i] for i in order[n_val:]]

    params = init_vae(h, rng)
    named = params.named()
    flat, grad = ad.arena(named.values())
    opt = AdamState(lr=h.lr)
    train_examples = [(encoder_plan(g, h.max_pi), to_tensors(g)) for g in train_set]
    val_examples = [(encoder_plan(g, h.max_pi), to_tensors(g)) for g in val_set]

    history: list[dict] = []
    best_val = np.inf
    best = flat.copy()
    bad_epochs = 0
    for epoch in range(1, h.epochs + 1):
        idx = rng.permutation(len(train_set))
        train_losses, comp_sums = [], {"type": 0.0, "conn": 0.0, "inv": 0.0, "kl": 0.0}
        for k in idx:
            plan, target = train_examples[k]
            mu, logvar = encode_tensors(plan, params)
            eps = rng.standard_normal(mu.shape)
            z = mu + ad.exp(logvar * 0.5) * Tensor(eps)
            decoded = decode_tensors(z, target.n, params)
            total, comps = loss_tensors(target, decoded, mu, logvar, h)
            total.backward()
            adam_step(opt, flat, grad)
            grad.fill(0.0)
            train_losses.append(float(total.data))
            for c in comp_sums:
                comp_sums[c] += comps[c]
        val_loss = (evaluate_loss(val_examples, params, h) if val_examples
                    else float(np.mean(train_losses)))
        row = {
            "epoch": epoch,
            "train_loss": float(np.mean(train_losses)),
            "val_loss": val_loss,
        }
        row.update({f"l_{c}": comp_sums[c] / len(train_set) for c in comp_sums})
        history.append(row)
        if val_loss < best_val:
            best_val = val_loss
            best = flat.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > h.patience:
                break
    flat[:] = best
    for t in named.values():
        t.grad = None
    return params, history


def evaluate_loss(examples: list[tuple[AigGraph | LevelPlan, TensorTriple]], params: VaeParams,
                  h: Hyperparams) -> float:
    """Mean evaluation-mode loss (z = mu, no sampling) over pairs of a graph (or its
    `encoder_plan`) and to_tensors(graph)."""
    if not examples:
        raise ValueError("no graphs to evaluate")
    vals = []
    with no_grad():
        for g, target in examples:
            mu, logvar = encode_tensors(g, params)
            decoded = decode_tensors(mu, target.n, params)
            total, _ = loss_tensors(target, decoded, mu, logvar, h)
            vals.append(float(total.data))
    return float(np.mean(vals))


def write_history_csv(history: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(history[0].keys()))
        writer.writeheader()
        writer.writerows(history)


# -- Checkpoints --------------------------------------------------------------


def save_vae(params: VaeParams, path: str) -> None:
    meta = {"hidden": params.hidden, "latent": params.latent, "max_pi": params.max_pi,
            "mlp_width": params.mlp_add.layers[0][0].shape[1]}
    text = ad.params_to_json(params.named(), meta=meta)
    with open(path, "w") as fh:
        fh.write(text)


def load_vae(path: str) -> VaeParams:
    with open(path) as fh:
        data, meta = ad.params_from_json(fh.read())
    h = Hyperparams(latent_dim=meta["latent"], hidden_dim=meta["hidden"],
                    mlp_hidden=meta["mlp_width"], max_pi=meta["max_pi"])
    params = init_vae(h, np.random.default_rng(0))
    for name, t in params.named().items():
        if name not in data:
            raise ValueError(f"checkpoint missing parameter {name}")
        if t.data.shape != data[name].shape:
            raise ValueError(f"checkpoint shape mismatch for {name}")
        t.data = data[name]
    return params
