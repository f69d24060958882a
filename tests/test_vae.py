"""VAE encode/decode/loss/training contracts."""
import numpy as np
import pytest

from ipcamo.aig import AigGraph, NodeType, TensorTriple, random_tree, to_tensors
from ipcamo import vae
from ipcamo.vae import (Hyperparams, LatentCode, decode, encode, init_vae,
                        load_vae, loss, sample_latent, save_vae, train)

SMALL_HP = Hyperparams(latent_dim=8, hidden_dim=8, mlp_hidden=8, max_pi=8,
                       seed=0, epochs=2, lr=1e-3)


@pytest.fixture(scope="module")
def small_params():
    return init_vae(SMALL_HP, np.random.default_rng(0))


def test_loss_zero_point():
    g = random_tree(np.random.default_rng(0), 3)
    x = to_tensors(g)
    code = LatentCode(mu=np.zeros(4), sigma=np.ones(4), z=np.zeros(4))
    total, comps = loss(x, x, code, SMALL_HP)
    assert total < 1e-12
    assert all(abs(v) < 1e-12 for v in comps.values())


def test_kl_unit_case():
    # d=1, mu=1, sigma=1 -> KL = 0.5 exactly
    x = to_tensors(random_tree(np.random.default_rng(0), 3))
    code = LatentCode(mu=np.ones(1), sigma=np.ones(1), z=np.ones(1))
    assert loss(x, x, code, SMALL_HP)[1]["kl"] == 0.5


def test_loss_weights_and_normalization():
    g = random_tree(np.random.default_rng(1), 2)
    x = to_tensors(g)
    x_hat = TensorTriple(np.zeros_like(x.type_mat), np.zeros_like(x.conn_mat),
                         np.zeros_like(x.inv_mat))
    code = LatentCode(mu=np.zeros(2), sigma=np.ones(2), z=np.zeros(2))
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
    total, comps = loss(x, decoded.to_triple(), code, SMALL_HP)
    assert float(total_t.data) == pytest.approx(total, abs=1e-12)
    for k in comps:
        assert comps_t[k] == pytest.approx(comps[k], abs=1e-12)


def test_encode_rejects_non_tree(small_params):
    g = AigGraph(types=[NodeType.PI, NodeType.PO, NodeType.PO],
                 edges=[(0, 1, False), (0, 2, False)])
    with pytest.raises(ValueError, match="tree"):
        encode(g, small_params)


def test_encode_eval_deterministic(small_params):
    g = random_tree(np.random.default_rng(3), 4)
    c1 = encode(g, small_params)
    c2 = encode(g, small_params)
    assert (c1.mu == c2.mu).all() and (c1.sigma == c2.sigma).all()
    assert (c1.sigma > 0).all()
    assert (c1.z == c1.mu).all()


def test_sample_latent_modes():
    code = LatentCode(mu=np.array([1.0, -2.0]), sigma=np.array([0.5, 2.0]),
                      z=np.zeros(2))
    assert (sample_latent(code, "eval") == code.mu).all()  # bitwise
    rng = np.random.default_rng(0)
    z = sample_latent(code, "train", rng)
    eps = np.random.default_rng(0).standard_normal(2)
    np.testing.assert_allclose(z, code.mu + code.sigma * eps)
    with pytest.raises(ValueError):
        sample_latent(code, "test")
    with pytest.raises(ValueError, match="rng"):
        sample_latent(code, "train")


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
    r1 = vae.reconstruct(g, params, th=0.5)
    r2 = vae.reconstruct(g, params, th=0.5)
    assert r1.structurally_equal(r2)
    assert r1.n == g.n
