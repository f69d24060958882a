"""VAE encode/decode/loss/training contracts."""
import copy

import numpy as np
import pytest

from conftest import TOY_HP
from test_autodiff import assert_grads_match, backward_grads, fd_grad, gru_by_ops
from test_camouflage import _desk_pair
from ipcamo.aig import (AigGraph, NodeType, TensorTriple, from_tensors, random_tree,
                        to_tensors)
from ipcamo import autodiff as ad
from ipcamo import vae
from ipcamo.autodiff import Tensor, exp, no_grad
from ipcamo.camouflage import threshold_filter
from ipcamo.vae import (Hyperparams, LatentCode, decode, encode, init_vae,
                        load_vae, save_vae, train)
from reference_tools import loss, mlp_forward, neg, same_structure, sub, sum_all

SMALL_HP = Hyperparams(latent_dim=8, hidden_dim=8, mlp_hidden=8, max_pi=8,
                       seed=0, epochs=2, lr=1e-3)


@pytest.fixture(scope="module")
def small_params():
    return init_vae(SMALL_HP, np.random.default_rng(0))


def test_loss_zero_point():
    g = random_tree(np.random.default_rng(0), 3)
    x = to_tensors(g)
    code = LatentCode(mu=np.zeros(4), sigma=np.ones(4))
    total, comps = loss(x, x, code, SMALL_HP)
    assert total < 1e-12
    assert all(abs(v) < 1e-12 for v in comps.values())


def test_kl_unit_case():
    # d=1, mu=1, sigma=1 -> KL = 0.5 exactly
    x = to_tensors(random_tree(np.random.default_rng(0), 3))
    code = LatentCode(mu=np.ones(1), sigma=np.ones(1))
    assert loss(x, x, code, SMALL_HP)[1]["kl"] == 0.5


def test_loss_weights_and_normalization():
    g = random_tree(np.random.default_rng(1), 2)
    x = to_tensors(g)
    x_hat = TensorTriple(np.zeros_like(x.type_mat), np.zeros_like(x.conn_mat),
                         np.zeros_like(x.inv_mat))
    code = LatentCode(mu=np.zeros(2), sigma=np.ones(2))
    total, comps = loss(x, x_hat, code, SMALL_HP)
    n = x.n
    assert comps["type"] == pytest.approx(x.type_mat.sum() / (3 * n))
    assert comps["conn"] == pytest.approx(x.conn_mat.sum() / n ** 2)
    assert comps["inv"] == pytest.approx(x.inv_mat.sum() / n ** 2)
    assert total == pytest.approx(0.3 * (comps["type"] + comps["conn"]
                                         + comps["inv"]))


def test_loss_tensor_and_plain_agree(small_params):
    g = random_tree(np.random.default_rng(2), 3)
    x = to_tensors(g)
    mu_t, logvar_t = vae.encode_tensors(g, small_params)
    decoded = vae.decode_tensors(mu_t, g.n, small_params)
    total_t, comps_t = vae.loss_tensors(x, decoded, mu_t, logvar_t, SMALL_HP)
    code = encode(g, small_params)
    total, comps = loss(x, decode(code.mu, g.n, small_params), code, SMALL_HP)
    assert float(total_t.data) == pytest.approx(total, abs=1e-12)
    for k in comps:
        assert comps_t[k] == pytest.approx(comps[k], abs=1e-12)


def _encode_by_ops(g: AigGraph, p: vae.VaeParams) -> tuple[Tensor, Tensor]:
    """The encoder node by node in index order, as elementary tape ops."""
    preds = g.pred_table()
    h: list = [None] * g.n
    n_pi = 0
    for i, t in enumerate(g.types):
        if t is NodeType.PI:
            h[i] = ad.take(p.pi_embed, [min(n_pi, p.max_pi - 1)])
            n_pi += 1
            continue
        terms = [neg(h[src]) if inv else h[src] for src, inv in preds[i]]
        m = terms[0]
        for term in terms[1:]:
            m = m + term
        h[i] = gru_by_ops(p.enc, m, Tensor(t.one_hot().reshape(1, 3)), m)
    h_po = h[g.po_indices[0]]
    return mlp_forward(p.mlp_mu, h_po), mlp_forward(p.mlp_logvar, h_po)


PI, AND, PO = NodeType.PI, NodeType.AND, NodeType.PO
ENCODER_TREES = {
    # 5 PIs past max_pi 3, one interleaved with the gates; inverted edges;
    # level 1 holds gates 2 and 5; the PO reads an inverted edge
    "deep": AigGraph([PI, PI, AND, PI, PI, AND, PI, AND, AND, PO],
                     [(0, 2, False), (1, 2, True), (3, 5, False), (4, 5, False),
                      (2, 7, True), (6, 7, False), (5, 8, False), (7, 8, True),
                      (8, 9, True)]),
    "pi_to_po": AigGraph([PI, PO], [(0, 1, False)]),
    # three gates on level 1, PIs 3-5 past max_pi 3
    "wide": AigGraph([PI] * 6 + [AND] * 5 + [PO],
                     [(0, 6, False), (1, 6, False), (2, 7, True), (3, 7, False),
                      (4, 8, False), (5, 8, True), (6, 9, False), (7, 9, True),
                      (9, 10, False), (8, 10, False), (10, 11, True)]),
}


def test_encoder_plan_levels_and_signs():
    plan = vae.encoder_plan(ENCODER_TREES["deep"], max_pi=3)
    # rows: PIs 0 1 3 4 6 | gates 2 5 | 7 | 8 | PO 9
    assert plan.starts == (0, 5, 7, 8, 9, 10)
    assert plan.leaf_rows.tolist() == [0, 1, 2, 2, 2]
    assert plan.out_row == 9
    assert [block.shape for block in plan.incidence] == [(2, 5), (1, 7), (1, 8), (1, 9)]
    assert plan.incidence[0].tolist() == [[1, -1, 0, 0, 0], [0, 0, 1, 1, 0]]
    assert plan.incidence[1].tolist() == [[0, 0, 0, 0, 1, -1, 0]]  # 7 = ~2 & 6
    assert plan.incidence[3].tolist() == [[0] * 8 + [-1]]           # PO = ~8
    assert plan.types.tolist() == [AND.one_hot().tolist()] * 4 + [PO.one_hot().tolist()]


@pytest.mark.parametrize("tree", sorted(ENCODER_TREES))
def test_level_batched_encoder_matches_reference(tree):
    g = ENCODER_TREES[tree]
    assert g.is_tree()
    hp = Hyperparams(latent_dim=3, hidden_dim=4, mlp_hidden=3, max_pi=3)
    rng = np.random.default_rng(5)
    p = init_vae(hp, rng)
    tensors = {k: t for k, t in p.named().items()
               if k.split(".")[0] in ("pi_embed", "enc", "mlp_mu", "mlp_logvar")}
    for name, t in tensors.items():  # nonzero biases exercise the bias gradients
        if ".b" in name:
            t.data[...] = rng.standard_normal(t.shape)
    w_mu, w_lv = Tensor(rng.standard_normal((1, 3))), Tensor(rng.standard_normal((1, 3)))

    def run(encoder):
        mu, logvar = encoder(g, p)
        return sum_all(mu * w_mu) + sum_all(logvar * w_lv)

    mu, logvar = vae.encode_tensors(g, p)
    ref_mu, ref_logvar = _encode_by_ops(g, p)
    np.testing.assert_allclose(mu.data, ref_mu.data, rtol=1e-12)
    np.testing.assert_allclose(logvar.data, ref_logvar.data, rtol=1e-12)
    # the graph's plan, built once, and an unrecorded run give the same bits
    plan = vae.encoder_plan(g, p.max_pi)
    with no_grad():
        plain = vae.encode_tensors(plan, p)
    for recorded, unrecorded in zip((mu, logvar), plain):
        assert np.array_equal(recorded.data, unrecorded.data)
    grads = backward_grads(run(vae.encode_tensors), tensors)
    assert_grads_match(grads, backward_grads(run(_encode_by_ops), tensors))
    if tree == "deep":  # the PIs past max_pi - 1 all add into its last row
        assert np.abs(grads["pi_embed"][2]).max() > 0
    for name, w in tensors.items():
        fd = fd_grad(lambda: float(run(vae.encode_tensors).data), w.data)
        np.testing.assert_allclose(grads[name], fd, rtol=1e-6, atol=1e-8, err_msg=name)


def _loss_by_ops(x: TensorTriple, decoded: vae.DecodedSoft, mu: Tensor, logvar: Tensor,
                 h: Hyperparams) -> tuple[Tensor, dict]:
    """loss_tensors composed of elementary tape ops."""
    def squared_error(pred, target):
        d = sub(pred, Tensor(target))
        return sum_all(d * d)

    n = x.n
    l_type = squared_error(decoded.types, x.type_mat) * (1.0 / (n * 3))
    l_conn = squared_error(decoded.conn, vae._lower(x.conn_mat)) * (1.0 / (n * n))
    l_inv = squared_error(decoded.inv, vae._lower(x.inv_mat)) * (1.0 / (n * n))
    l_kl = sum_all(sub(sub(exp(logvar) + mu * mu, logvar), 1.0)) * 0.5
    total = h.alpha * l_type + h.beta * l_conn + h.gamma * l_inv + h.delta * l_kl
    return total, {"type": float(l_type.data), "conn": float(l_conn.data),
                   "inv": float(l_inv.data), "kl": float(l_kl.data)}


def test_loss_node_matches_reference():
    x = to_tensors(random_tree(np.random.default_rng(4), 3))
    n = x.n
    hp = Hyperparams(alpha=0.3, beta=0.5, gamma=0.7, delta=0.2)
    rng = np.random.default_rng(6)
    tensors = {"types": Tensor(rng.uniform(0, 1, (n, 3)), requires_grad=True),
               "conn": Tensor(rng.uniform(0, 1, (n * (n - 1) // 2, 1)), requires_grad=True),
               "inv": Tensor(rng.uniform(0, 1, (n * (n - 1) // 2, 1)), requires_grad=True),
               "mu": Tensor(rng.standard_normal((1, 4)), requires_grad=True),
               "logvar": Tensor(rng.standard_normal((1, 4)), requires_grad=True)}
    decoded = vae.DecodedSoft(n, tensors["types"], tensors["conn"], tensors["inv"])

    def run(loss_fn):
        return loss_fn(x, decoded, tensors["mu"], tensors["logvar"], hp)

    total, comps = run(vae.loss_tensors)
    ref_total, ref_comps = run(_loss_by_ops)
    np.testing.assert_allclose(float(total.data), float(ref_total.data), rtol=1e-12)
    assert comps.keys() == ref_comps.keys()
    for k in comps:
        assert comps[k] == pytest.approx(ref_comps[k], rel=1e-12), k
    grads = backward_grads(total, tensors)
    assert_grads_match(grads, backward_grads(ref_total, tensors))
    for name, w in tensors.items():
        fd = fd_grad(lambda: float(run(vae.loss_tensors)[0].data), w.data)
        np.testing.assert_allclose(grads[name], fd, rtol=1e-6, atol=1e-8, err_msg=name)


def test_unrecorded_forward_equals_recorded(small_params):
    g = random_tree(np.random.default_rng(7), 4)
    x = to_tensors(g)

    def forward():
        mu, logvar = vae.encode_tensors(g, small_params)
        decoded = vae.decode_tensors(mu, g.n, small_params)
        total, comps = vae.loss_tensors(x, decoded, mu, logvar, SMALL_HP)
        return [mu.data, logvar.data, decoded.types.data, decoded.conn.data,
                decoded.inv.data, total.data], comps

    recorded, comps = forward()
    with no_grad():
        plain, plain_comps = forward()
    assert comps == plain_comps
    for a, b in zip(recorded, plain):
        assert a.shape == b.shape and (a == b).all()


def test_encode_rejects_non_tree(small_params):
    g = AigGraph(types=[NodeType.PI, NodeType.PO, NodeType.PO],
                 edges=[(0, 1, False), (0, 2, False)])
    with pytest.raises(ValueError, match="tree"):
        encode(g, small_params)
    # canonical with n - 1 edges, but the AND reads PI 0 twice and PI 1 floats
    repeated = AigGraph(types=[NodeType.PI, NodeType.PI, NodeType.AND, NodeType.PO],
                        edges=[(0, 2, False), (0, 2, True), (2, 3, False)])
    with pytest.raises(ValueError, match="tree"):
        encode(repeated, small_params)


def test_encode_eval_deterministic(small_params):
    g = random_tree(np.random.default_rng(3), 4)
    c1 = encode(g, small_params)
    c2 = encode(g, small_params)
    assert (c1.mu == c2.mu).all() and (c1.sigma == c2.sigma).all()
    assert (c1.sigma > 0).all()


def test_decode_shape_contract(small_params):
    z = np.zeros(SMALL_HP.latent_dim)
    soft = decode(z, 6, small_params)
    assert soft.type_mat.shape == (6, 3)
    # first node forced PI, strictly lower-triangular support
    assert soft.type_mat[0].tolist() == [1.0, 0.0, 0.0]
    assert np.triu(soft.conn_mat).sum() == 0
    assert np.triu(soft.inv_mat).sum() == 0
    assert ((soft.conn_mat >= 0) & (soft.conn_mat <= 1)).all()
    with pytest.raises(ValueError):
        decode(z, 1, small_params)


@pytest.mark.parametrize("n", [2, 40, 166])
def test_decode_equals_decode_tensors_bit_for_bit(toy_checkpoint, n):
    """The inference decode, each head scored a block of pairs at a time,
    gives the bits of the one-block `decode_tensors` under no_grad: the types
    and the lower triangles of conn and inv. n = 166 is the desk layout's
    node count; the latents are the desk pair's ends and their midpoint.
    The copy with the inv head's output bias raised by 2 scores many
    inversions above 0.5, as the toy checkpoint does not."""
    params, _ = toy_checkpoint
    inverting = copy.deepcopy(params)
    inverting.mlp_inv.layers[-1][1].data += 2.0
    f, a = _desk_pair(100)
    z_f, z_a = encode(f, params).mu, encode(a, params).mu
    low = ad.tril_indices(n)
    for model in (params, inverting):
        for z in (z_f, z_a, 0.5 * (z_f + z_a)):
            got = decode(z, n, model)
            with no_grad():
                want = vae.decode_tensors(Tensor(z.reshape(1, -1)), n, model)
            assert np.array_equal(got.type_mat, want.types.data)
            assert np.array_equal(got.conn_mat[low], want.conn.data[:, 0])
            assert np.array_equal(got.inv_mat[low], want.inv.data[:, 0])
    assert n == 2 or (got.inv_mat[low] > 0.5).any()


def test_decode_builds_no_pair_matrix(toy_checkpoint):
    """The inference decode scores pairs a block at a time: at n = 166 with
    the toy width no (pairs x width) array exists, though the recorded
    `decode_tensors` builds one."""
    import tracemalloc

    params, _ = toy_checkpoint
    z = np.zeros(params.latent)
    ad.tril_indices(166)  # cached index arrays are not the decode's to count
    pair_matrix = 166 * 165 // 2 * params.mlp_conn.layers[0][0].shape[1] * 8
    for record in (False, True):
        tracemalloc.start()
        try:
            if record:
                vae.decode_tensors(Tensor(z.reshape(1, -1)), 166, params)
            else:
                decode(z, 166, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak > pair_matrix) == record, (record, peak)


def test_decode_with_pick_scores_inversions_at_the_picks_only(small_params):
    """decode hands its picker the full decode's types and connections and
    fills each picked pair's inversion with the full decode's bits; every
    other inversion entry is 0."""
    rng = np.random.default_rng(3)
    z, n = rng.standard_normal(SMALL_HP.latent_dim), 30
    full = decode(z, n, small_params)
    rows, cols = ad.tril_indices(n)
    some = rng.permutation(len(rows))[:25]
    seen = []

    def pick(types, conn):
        seen.append((types.copy(), conn.copy()))
        return rows[some], cols[some]

    got = decode(z, n, small_params, pick)
    (types, conn), = seen
    for m in (types, got.type_mat):
        assert np.array_equal(m, full.type_mat)
    for m in (conn, got.conn_mat):
        assert np.array_equal(m, full.conn_mat)
    picked = np.zeros((n, n), dtype=bool)
    picked[rows[some], cols[some]] = True
    assert np.array_equal(got.inv_mat[picked], full.inv_mat[picked])
    assert not got.inv_mat[~picked].any()


def test_train_deterministic_and_improves():
    rng = np.random.default_rng(5)
    data = [random_tree(rng, 1 + int(rng.integers(3)), n_pi_pool=4)
            for _ in range(8)]
    hp = Hyperparams(latent_dim=12, hidden_dim=12, mlp_hidden=12, max_pi=8,
                     seed=1, epochs=3, lr=3e-3)
    p1, h1 = train(data, hp)
    p2, h2 = train(data, hp)
    assert h1 == h2  # bitwise-identical history
    for k, t in p1.named().items():
        assert (t.data == p2.named()[k].data).all()
    assert h1[-1]["train_loss"] < h1[0]["train_loss"]


def test_train_early_stopping():
    rng = np.random.default_rng(6)
    data = [random_tree(rng, 2, n_pi_pool=4) for _ in range(5)]
    hp = Hyperparams(latent_dim=8, hidden_dim=8, mlp_hidden=8, max_pi=8,
                     seed=0, epochs=200, patience=0, lr=1e-1)  # diverges fast
    _, hist = train(data, hp)
    assert len(hist) < 200
    with pytest.raises(ValueError, match="empty"):
        train([], hp)


def _train_by_parameter(dataset, h: Hyperparams):
    """vae.train as a loop over the named tensors: a fresh tape gradient per
    graph, the Adam equations per parameter, and a dict snapshot of the best
    epoch restored at the end."""
    rng = np.random.default_rng(h.seed)
    order = rng.permutation(len(dataset))
    n_val = max(1, len(dataset) // 5) if len(dataset) > 1 else 0
    val_set = [(dataset[i], to_tensors(dataset[i])) for i in order[:n_val]]
    train_set = [(dataset[i], to_tensors(dataset[i])) for i in order[n_val:]]
    params = init_vae(h, rng)
    named = params.named()
    opt = ad.AdamState(lr=h.lr)
    m = {k: np.zeros(t.shape) for k, t in named.items()}
    v = {k: np.zeros(t.shape) for k, t in named.items()}
    step, history, best_val, bad = 0, [], np.inf, 0
    best = {k: t.data.copy() for k, t in named.items()}
    for epoch in range(1, h.epochs + 1):
        losses, comps_sum = [], dict.fromkeys(("type", "conn", "inv", "kl"), 0.0)
        for k in rng.permutation(len(train_set)):
            g, target = train_set[k]
            for t in named.values():
                t.grad = None
            mu, logvar = vae.encode_tensors(g, params)
            z = mu + exp(logvar * 0.5) * Tensor(rng.standard_normal(mu.shape))
            total, comps = vae.loss_tensors(target, vae.decode_tensors(z, g.n, params),
                                            mu, logvar, h)
            total.backward()
            step += 1
            for name, t in named.items():
                grad = t.grad if t.grad is not None else np.zeros(t.shape)
                m[name] = m[name] * ad.ADAM_BETA1 + (1 - ad.ADAM_BETA1) * grad
                v[name] = v[name] * ad.ADAM_BETA2 + (1 - ad.ADAM_BETA2) * grad * grad
                t.data = t.data - opt.lr * (m[name] / (1 - ad.ADAM_BETA1 ** step)) / (
                    np.sqrt(v[name] / (1 - ad.ADAM_BETA2 ** step)) + ad.ADAM_EPS)
            losses.append(float(total.data))
            for c in comps_sum:
                comps_sum[c] += comps[c]
        val = vae.evaluate_loss(val_set, params, h) if val_set else float(np.mean(losses))
        history.append({"epoch": epoch, "train_loss": float(np.mean(losses)), "val_loss": val,
                        **{f"l_{c}": comps_sum[c] / len(train_set) for c in comps_sum}})
        if val < best_val:
            best_val, bad = val, 0
            best = {k: t.data.copy() for k, t in named.items()}
        else:
            bad += 1
            if bad > h.patience:
                break
    for k, t in named.items():
        t.data = best[k]
    return params, history


@pytest.mark.parametrize("patience, lr", [(0, 1e-1), (10, 3e-3)])
def test_train_equals_per_parameter_loop(patience, lr):
    """train on its parameter arena gives the bits of the per-parameter loop."""
    rng = np.random.default_rng(11)
    data = [random_tree(rng, 1 + int(rng.integers(3)), n_pi_pool=4) for _ in range(6)]
    hp = Hyperparams(latent_dim=8, hidden_dim=8, mlp_hidden=8, max_pi=8,
                     seed=2, epochs=6, patience=patience, lr=lr)
    params, history = train(data, hp)
    ref_params, ref_history = _train_by_parameter(data, hp)
    assert history == ref_history
    if patience == 0:  # stopped early, and the best epoch is not the last one
        vals = [row["val_loss"] for row in history]
        assert len(history) < hp.epochs and int(np.argmin(vals)) < len(vals) - 1
    ref = ref_params.named()
    for name, t in params.named().items():
        assert np.array_equal(t.data, ref[name].data), name
        assert t.grad is None, name


@pytest.mark.parametrize("size", [1, 2])
def test_train_on_one_or_two_graphs(size):
    data = [random_tree(np.random.default_rng(12 + k), 2, n_pi_pool=4) for k in range(size)]
    hp = Hyperparams(latent_dim=8, hidden_dim=8, mlp_hidden=8, max_pi=8,
                     seed=0, epochs=3, lr=3e-3)
    _, history = train(data, hp)
    assert len(history) == 3
    for row in history:
        assert all(np.isfinite(x) for x in row.values()), row
        if size == 1:  # nothing to validate on: the validation loss is the training loss
            assert row["val_loss"] == row["train_loss"]


def test_checkpoint_roundtrip(tmp_path, small_params):
    path = tmp_path / "ckpt.json"
    save_vae(small_params, str(path))
    again = load_vae(str(path))
    for k, t in small_params.named().items():
        assert (t.data == again.named()[k].data).all()  # bitwise
    g = random_tree(np.random.default_rng(7), 3)
    assert (encode(g, small_params).mu == encode(g, again).mu).all()


def test_reconstruct_deterministic(toy_checkpoint, toy_data):
    params, _ = toy_checkpoint
    g = toy_data[0][0]

    def skeleton():
        return from_tensors(threshold_filter(decode(encode(g, params).mu, g.n, params), 0.5))

    r1, r2 = skeleton(), skeleton()
    assert same_structure(r1, r2)
    assert r1.n == g.n


# Loss of each of the first 5 toy training graphs, and per parameter the norm
# and a fixed random projection of the gradient summed over them, at
# init_vae(TOY_HP, seed 0) with z = mu + sigma * eps. Recorded with a tape of
# one node per elementary op, so the fused encoder, decoder and edge-head nodes answer to it.
GOLDEN_LOSSES = [0.11267469425930893, 0.13702971724251467, 0.14329374766863986,
                 0.13297582470216968, 0.15105226183493273]
GOLDEN_GRADS = {
    'dec.b_h': (0.055364010237840294, 0.0035556734124543334),
    'dec.b_r': (0.0010314469306978383, 0.00014797731481562163),
    'dec.b_z': (0.001971737133083782, -0.002523809418271754),
    'dec.u_h': (0.03262415176309823, 0.007360944646706629),
    'dec.u_r': (0.0006149156759277539, 0.0007135515852199281),
    'dec.u_z': (0.0015375467690937094, -0.0020879569234521322),
    'dec.w_h': (0.026228592039536727, -0.012133155526010771),
    'dec.w_r': (0.0013348497644861928, -0.0009612865863898837),
    'dec.w_z': (0.002525106084229691, -0.0018119448880120972),
    'dec_init.b': (0.013039940907224686, 0.0004751889864114873),
    'dec_init.w': (0.023588363692235194, -0.0018145189971038166),
    'enc.b_h': (0.019410452011079233, 0.0005272993334965916),
    'enc.b_r': (0.0025530755918460233, 0.0027744555274501924),
    'enc.b_z': (0.008971842331764556, -0.0050741026710733935),
    'enc.u_h': (0.051943513635985594, 0.0261483639776027),
    'enc.u_r': (0.0019003180974676277, -0.00029075622011400914),
    'enc.u_z': (0.008872721502026426, -0.0008296488361580548),
    'enc.w_h': (0.04492372063484185, -0.0017144575228044932),
    'enc.w_r': (0.001731658343628125, -0.00044736546239446),
    'enc.w_z': (0.009186543042049597, 0.006505278621680027),
    'mlp_add.b0': (0.04103532810315076, 0.01487427955567553),
    'mlp_add.b1': (0.06909632245703066, -0.018617401196831133),
    'mlp_add.w0': (0.041153139244808144, 0.013353265157807196),
    'mlp_add.w1': (0.04481630426184243, -0.02047427296571154),
    'mlp_conn.b0': (0.04981689269826259, 0.021740042617656982),
    'mlp_conn.b1': (0.09629745110547631, 0.027062991971477948),
    'mlp_conn.w0': (0.0671945082120996, -0.07763549308818433),
    'mlp_conn.w1': (0.05648442430632388, 0.05949593801229183),
    'mlp_inv.b0': (0.0700607436139392, -0.01350393409481208),
    'mlp_inv.b1': (0.1469672584047851, -0.0624050743999232),
    'mlp_inv.w0': (0.09178829724614178, -0.03637651129883409),
    'mlp_inv.w1': (0.08498099885635707, -0.006545583112532873),
    'mlp_logvar.b0': (0.05156636728412943, -0.04187159477768375),
    'mlp_logvar.b1': (0.06854594186881172, -0.025412948202977136),
    'mlp_logvar.w0': (0.05002297114984888, 0.03490728600343857),
    'mlp_logvar.w1': (0.03746895089485783, 0.022107161579832595),
    'mlp_mu.b0': (0.09859635731441259, -0.05691777529766002),
    'mlp_mu.b1': (0.12795081509919698, 0.10260116928977744),
    'mlp_mu.w0': (0.08617256088484526, 0.07689140808491196),
    'mlp_mu.w1': (0.0543984376193183, -0.005401049009238495),
    'pi_embed': (0.019093866876509838, -0.0049700946954580605),
}


def test_golden_loss_and_gradients(toy_data):
    params = init_vae(TOY_HP, np.random.default_rng(0))
    eps_rng = np.random.default_rng(1)
    losses = []
    for g in toy_data[0][:5]:
        mu, logvar = vae.encode_tensors(g, params)
        z = mu + exp(logvar * 0.5) * Tensor(eps_rng.standard_normal(mu.shape))
        decoded = vae.decode_tensors(z, g.n, params)
        total, _ = vae.loss_tensors(to_tensors(g), decoded, mu, logvar, TOY_HP)
        total.backward()  # gradients accumulate over the five graphs
        losses.append(float(total.data))
    np.testing.assert_allclose(losses, GOLDEN_LOSSES, rtol=1e-12)
    w_rng = np.random.default_rng(2)
    named = params.named()
    assert sorted(named) == sorted(GOLDEN_GRADS)
    for name in sorted(named):
        grad = named[name].grad
        norm = float(np.sqrt((grad ** 2).sum()))
        proj = float((grad * w_rng.uniform(-1, 1, grad.shape)).sum())
        ref_norm, ref_proj = GOLDEN_GRADS[name]
        assert norm == pytest.approx(ref_norm, rel=1e-12), name
        # the projection cancels, so its tolerance is relative to the norm
        assert proj == pytest.approx(ref_proj, rel=1e-12, abs=1e-12 * ref_norm), name


def test_toy_checkpoint_final_losses(toy_checkpoint):
    _, history = toy_checkpoint
    assert len(history) == TOY_HP.epochs
    assert history[-1]["train_loss"] == pytest.approx(0.06031372669597111, rel=1e-9)
    assert history[-1]["val_loss"] == pytest.approx(0.07064097893174263, rel=1e-9)
