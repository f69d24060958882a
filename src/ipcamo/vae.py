"""Graph VAE over AIG trees: BFS-ordered encoder, sequential decoder, training."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .aig import AigGraph, NodeType, TensorTriple, to_tensors
from .autodiff import (AdamState, GruParams, MlpParams, Tensor, adam_step,
                       gru_step, init_gru, init_mlp, mlp_forward, no_grad)

_ONE_HOT = {t: t.one_hot().reshape(1, 3) for t in NodeType}


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
    z: np.ndarray


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
        mlp_mu=init_mlp(rng, [H, w, d], ["tanh", "identity"]),
        mlp_logvar=init_mlp(rng, [H, w, d], ["tanh", "identity"]),
        dec_init_w=ad._init_tensor(rng, (d, H)),
        dec_init_b=Tensor(np.zeros(H), requires_grad=True),
        dec=init_gru(rng, H, 3),
        mlp_add=init_mlp(rng, [H, w, 3], ["tanh", "softmax"]),
        mlp_conn=init_mlp(rng, [2 * H, w, 1], ["tanh", "sigmoid"]),
        mlp_inv=init_mlp(rng, [2 * H, w, 1], ["tanh", "sigmoid"]),
    )


# -- Encoder ------------------------------------------------------------------


def encode_tensors(g: AigGraph, p: VaeParams) -> tuple[Tensor, Tensor]:
    """Differentiable encode; returns (mu, logvar) as (1, d) tensors."""
    if not g.is_tree():
        raise ValueError("encoder input must be a canonical single-PO tree")
    preds = g.pred_table()
    h: list[Tensor | None] = [None] * g.n
    pi_ordinal = 0
    h_po = None
    for i, t in enumerate(g.types):
        if t is NodeType.PI:
            row = min(pi_ordinal, p.max_pi - 1)
            h[i] = ad.take_row(p.pi_embed, row)
            pi_ordinal += 1
            continue
        m = None
        for src, inv in preds[i]:
            if h[src] is None:
                raise RuntimeError(f"predecessor {src} of node {i} not yet processed")
            term = -h[src] if inv else h[src]
            m = term if m is None else m + term
        hv = gru_step(p.enc, m, Tensor(_ONE_HOT[t]), m)
        h[i] = hv
        if t is NodeType.PO:
            h_po = hv
    mu = mlp_forward(p.mlp_mu, h_po)
    logvar = mlp_forward(p.mlp_logvar, h_po)
    return mu, logvar


def encode(g: AigGraph, p: VaeParams) -> LatentCode:
    """Deterministic evaluation-mode encoding; z is the mean."""
    with no_grad():
        mu, logvar = encode_tensors(g, p)
    mu = mu.data.ravel().copy()
    sigma = np.exp(0.5 * logvar.data.ravel())
    return LatentCode(mu=mu, sigma=sigma, z=mu.copy())


def sample_latent(code: LatentCode, mode: str, rng: np.random.Generator | None = None) -> np.ndarray:
    if mode == "eval":
        return code.mu.copy()
    if mode == "train":
        if rng is None:
            raise ValueError("train-mode sampling needs an rng")
        eps = rng.standard_normal(code.mu.shape)
        return code.mu + code.sigma * eps
    raise ValueError(f"unknown mode {mode!r}")


# -- Decoder ------------------------------------------------------------------


@dataclass
class DecodedSoft:
    """Per-node decoder outputs kept as tape tensors for the loss."""

    n: int
    type_rows: list[Tensor]          # each (1, 3)
    conn_cols: list[Tensor]          # index i-1 holds (i, 1) scores vs nodes < i
    inv_cols: list[Tensor]

    def to_triple(self) -> TensorTriple:
        n = self.n
        type_mat = np.vstack([r.data for r in self.type_rows])
        conn = np.zeros((n, n))
        inv = np.zeros((n, n))
        for i in range(1, n):
            conn[i, :i] = self.conn_cols[i - 1].data.ravel()
            inv[i, :i] = self.inv_cols[i - 1].data.ravel()
        return TensorTriple(type_mat, conn, inv)


def decode_tensors(z: Tensor, node_count: int, p: VaeParams) -> DecodedSoft:
    if node_count < 2:
        raise ValueError("decoder needs at least 2 nodes")
    if z.data.ndim != 2 or z.data.shape[0] != 1:
        raise ValueError(f"latent must be a (1, d) row, got shape {z.data.shape}")
    h = ad.tanh(z @ p.dec_init_w + p.dec_init_b)
    rows: list[Tensor] = []
    type_rows: list[Tensor] = []
    conn_cols: list[Tensor] = []
    inv_cols: list[Tensor] = []
    for i in range(node_count):
        if i == 0:
            t_row = Tensor(_ONE_HOT[NodeType.PI])  # first node is forced PI
        else:
            t_row = mlp_forward(p.mlp_add, h)
        type_rows.append(t_row)
        if i > 0:
            prev = ad.concat(rows, axis=0) if len(rows) > 1 else rows[0]
            pair = ad.concat([ad.repeat_rows(h, i), prev], axis=1)
            conn_cols.append(mlp_forward(p.mlp_conn, pair))
            inv_cols.append(mlp_forward(p.mlp_inv, pair))
        rows.append(h)
        h = gru_step(p.dec, h, t_row, h)
    return DecodedSoft(node_count, type_rows, conn_cols, inv_cols)


def decode(z: np.ndarray, node_count: int, p: VaeParams) -> TensorTriple:
    """Evaluation-mode decode to a soft TensorTriple (upper triangle zero)."""
    with no_grad():
        out = decode_tensors(Tensor(np.asarray(z, dtype=np.float64).reshape(1, -1)),
                             node_count, p)
    return out.to_triple()


# -- Loss ---------------------------------------------------------------------


def loss(x: TensorTriple, x_hat: TensorTriple, code: LatentCode,
         h: Hyperparams) -> tuple[float, dict[str, float]]:
    """Evaluation-mode loss_tensors() of a plain triple and latent code."""
    n = x_hat.n
    decoded = DecodedSoft(
        n,
        [Tensor(x_hat.type_mat[i : i + 1]) for i in range(n)],
        [Tensor(x_hat.conn_mat[i, :i].reshape(-1, 1)) for i in range(1, n)],
        [Tensor(x_hat.inv_mat[i, :i].reshape(-1, 1)) for i in range(1, n)],
    )
    with no_grad():
        total, comps = loss_tensors(x, decoded, Tensor(code.mu.reshape(1, -1)),
                                    Tensor(2.0 * np.log(code.sigma).reshape(1, -1)), h)
    return float(total.data), comps


def loss_tensors(x: TensorTriple, decoded: DecodedSoft, mu: Tensor,
                 logvar: Tensor, h: Hyperparams) -> tuple[Tensor, dict[str, float]]:
    """Weighted MSE over the three tensors plus the closed-form KL term."""
    if x.n != decoded.n:
        raise ValueError(f"node count mismatch: {x.n} vs {decoded.n}")
    n = x.n
    type_sq = None
    for i, row in enumerate(decoded.type_rows):
        d = row - Tensor(x.type_mat[i : i + 1])
        s = (d * d).sum()
        type_sq = s if type_sq is None else type_sq + s
    l_type = type_sq * (1.0 / (n * 3))

    conn_sq = Tensor(0.0)
    inv_sq = Tensor(0.0)
    for i in range(1, n):
        dc = decoded.conn_cols[i - 1] - Tensor(x.conn_mat[i, :i].reshape(-1, 1))
        conn_sq = conn_sq + (dc * dc).sum()
        dv = decoded.inv_cols[i - 1] - Tensor(x.inv_mat[i, :i].reshape(-1, 1))
        inv_sq = inv_sq + (dv * dv).sum()
    l_conn = conn_sq * (1.0 / (n * n))
    l_inv = inv_sq * (1.0 / (n * n))

    var = ad.exp(logvar)
    l_kl = (var + mu * mu - logvar - 1.0).sum() * 0.5

    total = h.alpha * l_type + h.beta * l_conn + h.gamma * l_inv + h.delta * l_kl
    comps = {"type": float(l_type.data), "conn": float(l_conn.data),
             "inv": float(l_inv.data), "kl": float(l_kl.data)}
    return total, comps


# -- Training -----------------------------------------------------------------


def _snapshot(params: VaeParams) -> dict[str, np.ndarray]:
    return {k: t.data.copy() for k, t in params.named().items()}


def _restore(params: VaeParams, snap: dict[str, np.ndarray]) -> None:
    for k, t in params.named().items():
        t.data = snap[k].copy()


def train(dataset: list[AigGraph], h: Hyperparams) -> tuple[VaeParams, list[dict]]:
    """Per-graph SGD with Adam, 80-20 train/validation split, early stopping."""
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(h.seed)
    order = rng.permutation(len(dataset))
    n_val = max(1, len(dataset) // 5) if len(dataset) > 1 else 0
    val_set = [dataset[i] for i in order[:n_val]]
    train_set = [dataset[i] for i in order[n_val:]]
    if not train_set:
        train_set, val_set = val_set, []

    params = init_vae(h, rng)
    named = params.named()
    opt = AdamState(lr=h.lr)
    targets = {id(g): to_tensors(g) for g in dataset}

    history: list[dict] = []
    best_val = np.inf
    best_snap = _snapshot(params)
    bad_epochs = 0
    for epoch in range(1, h.epochs + 1):
        idx = rng.permutation(len(train_set))
        train_losses, comp_sums = [], {"type": 0.0, "conn": 0.0, "inv": 0.0, "kl": 0.0}
        for k in idx:
            g = train_set[k]
            mu, logvar = encode_tensors(g, params)
            eps = rng.standard_normal(mu.shape)
            z = mu + ad.exp(logvar * 0.5) * Tensor(eps)
            decoded = decode_tensors(z, g.n, params)
            total, comps = loss_tensors(targets[id(g)], decoded, mu, logvar, h)
            total.backward()
            grads = {name: t.grad for name, t in named.items() if t.grad is not None}
            adam_step(opt, named, grads)
            for t in named.values():
                t.grad = None
            train_losses.append(float(total.data))
            for c in comp_sums:
                comp_sums[c] += comps[c]
        val_loss = evaluate_loss(val_set, params, h) if val_set else float(np.mean(train_losses))
        row = {
            "epoch": epoch,
            "train_loss": float(np.mean(train_losses)),
            "val_loss": val_loss,
        }
        row.update({f"l_{c}": comp_sums[c] / len(train_set) for c in comp_sums})
        history.append(row)
        if val_loss < best_val:
            best_val = val_loss
            best_snap = _snapshot(params)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > h.patience:
                break
    _restore(params, best_snap)
    return params, history


def evaluate_loss(graphs: list[AigGraph], params: VaeParams, h: Hyperparams) -> float:
    """Mean evaluation-mode loss (z = mu, no sampling)."""
    if not graphs:
        raise ValueError("no graphs to evaluate")
    vals = []
    with no_grad():
        for g in graphs:
            mu, logvar = encode_tensors(g, params)
            decoded = decode_tensors(mu, g.n, params)
            total, _ = loss_tensors(to_tensors(g), decoded, mu, logvar, h)
            vals.append(float(total.data))
    return float(np.mean(vals))


def write_history_csv(history: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(history[0].keys()))
        writer.writeheader()
        writer.writerows(history)


# -- Reconstruction -----------------------------------------------------------


def reconstruct(g: AigGraph, p: VaeParams, th: float) -> AigGraph:
    """encode -> decode at |g| -> threshold filter -> graph (possibly non-canonical)."""
    from .camouflage import threshold_filter  # local import avoids a cycle
    from .aig import from_tensors

    code = encode(g, p)
    soft = decode(code.mu, g.n, p)
    return from_tensors(threshold_filter(soft, th))


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
