"""Reverse-mode tape vs. central finite differences; optimizer behavior."""
import json

import numpy as np
import pytest

from ipcamo import autodiff as ad
from ipcamo.autodiff import (AdamState, Tensor, adam_step, gru_decode, gru_step,
                             init_gru, init_mlp, mlp_forward, no_grad,
                             params_from_json, params_to_json)


def fd_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = fn()
        x[idx] = orig - h
        fm = fn()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def assert_grads_match(grads: dict, ref: dict, rtol: float = 1e-12) -> None:
    """Every gradient equals its reference to rtol of the reference's largest entry."""
    assert sorted(grads) == sorted(ref)
    for name, r in ref.items():
        np.testing.assert_allclose(grads[name], r, rtol=rtol,
                                   atol=rtol * float(np.abs(r).max()), err_msg=name)


def backward_grads(loss: Tensor, tensors: dict) -> dict:
    """Run loss.backward() from cleared gradients; return each tensor's gradient."""
    for t in tensors.values():
        t.grad = None
    loss.backward()
    return {k: t.grad.copy() for k, t in tensors.items()}


def gru_by_ops(p, m: Tensor, t: Tensor, h: Tensor) -> Tensor:
    """The GRU update as elementary tape ops (the reference for the fused nodes)."""
    z = ad.sigmoid(m @ p.w_z + t @ p.u_z + p.b_z)
    r = ad.sigmoid(m @ p.w_r + t @ p.u_r + p.b_r)
    h_tilde = ad.tanh((r * h) @ p.w_h + t @ p.u_h + p.b_h)
    return (1.0 - z) * h + z * h_tilde


def check(build, *shapes, seed=0):
    """build(tensors...) -> scalar Tensor; FD-check every input."""
    rng = np.random.default_rng(seed)
    ts = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    out = build(*ts)
    out.backward()
    for t in ts:
        fd = fd_grad(lambda: float(build(*ts).data), t.data)
        an = t.grad if t.grad is not None else np.zeros_like(t.data)
        np.testing.assert_allclose(an, fd, rtol=1e-5, atol=1e-7)


def test_elementwise_ops():
    check(lambda a, b: ((a * b + a - b) ** 3.0).sum(), (3, 4), (3, 4))


def test_matmul_and_broadcast_bias():
    check(lambda a, w, b: ((a @ w + b) ** 2.0).sum(), (2, 3), (3, 5), (5,))


def test_activations():
    check(lambda a: (ad.sigmoid(a) * ad.tanh(a) + ad.exp(a * 0.1)).sum(), (4, 4))
    check(lambda a: ad.log(ad.exp(a) + 1.0).sum(), (6,))


def test_softmax_rows():
    x = Tensor(np.random.default_rng(1).standard_normal((3, 5)))
    s = ad.softmax(x)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0)
    check(lambda a: (ad.softmax(a) * ad.softmax(a)).sum(), (3, 5))


def test_concat_repeat_take():
    check(lambda a, b: (ad.concat([a, b], axis=0) ** 2.0).sum(), (2, 3), (4, 3))
    check(lambda a: (ad.take(a, [2]) ** 2.0).sum(), (4, 3))
    check(lambda a: (ad.take(a, (slice(None), slice(1, None))) ** 3.0).sum(), (4, 3))
    # a gather that reads row 1 three times accumulates all three gradients
    check(lambda a: (ad.take(a, np.array([1, 0, 1, 1])) ** 3.0).sum(), (3, 2))


def test_gru_step_gradients():
    rng = np.random.default_rng(3)
    p = init_gru(rng, 6, 3)
    m = Tensor(rng.standard_normal((1, 6)), requires_grad=True)
    t = Tensor(rng.standard_normal((1, 3)))

    def run():
        return (gru_step(p, m, t, m) ** 2.0).sum()

    out = run()
    out.backward()
    for name, w in {**p.named("g"), "m": m}.items():
        fd = fd_grad(lambda: float(run().data), w.data)
        np.testing.assert_allclose(w.grad, fd, rtol=1e-5, atol=1e-7,
                                   err_msg=name)


@pytest.mark.parametrize("rows, same_m, t_grad", [
    (1, False, False),   # message m is not the previous state
    (1, True, True),     # t on the tape, as the decoder's type row is
    (3, False, True),    # several sequences at once
])
def test_fused_gru_step_matches_finite_differences(rows, same_m, t_grad):
    rng = np.random.default_rng(rows)
    p = init_gru(rng, 5, 3)
    for b in (p.b_z, p.b_r, p.b_h):  # nonzero biases exercise the bias gradients
        b.data[...] = rng.standard_normal(b.shape)
    h = Tensor(rng.standard_normal((rows, 5)), requires_grad=True)
    m = h if same_m else Tensor(rng.standard_normal((rows, 5)), requires_grad=True)
    t = Tensor(rng.standard_normal((rows, 3)), requires_grad=t_grad)
    weights = rng.standard_normal((rows, 5))

    def run():
        return (gru_step(p, m, t, h) * Tensor(weights)).sum()

    run().backward()
    inputs = {"h": h, "m": m, **({"t": t} if t_grad else {})}
    for name, w in {**p.named("g"), **inputs}.items():
        fd = fd_grad(lambda: float(run().data), w.data)
        np.testing.assert_allclose(w.grad, fd, rtol=1e-6, atol=1e-8, err_msg=name)
    if not t_grad:
        assert t.grad is None


def _gru_decode_by_ops(p, head, h0: Tensor, t0: np.ndarray, n: int) -> Tensor:
    """gru_decode as a loop of elementary tape ops."""
    h, t = h0, Tensor(t0)
    rows = [ad.concat([h, t], axis=1)]
    for _ in range(1, n):
        h = gru_by_ops(p, h, t, h)
        t = mlp_forward(head, h)
        rows.append(ad.concat([h, t], axis=1))
    return ad.concat(rows, axis=0)


def _gru_decode_rows(p, head, h0: np.ndarray, t0: np.ndarray, n: int) -> np.ndarray:
    """gru_decode's forward on arrays, one product per weight: _gru_forward
    then the tanh/softmax head, step by step."""
    (w0, b0, _), (w1, b1, _) = head.layers
    h, t = h0, t0
    rows = [np.hstack([h, t])]
    for _ in range(1, n):
        h, _ = ad._gru_forward(p, (h @ p.w_z.data, h @ p.w_r.data),
                               (t @ p.u_z.data, t @ p.u_r.data, t @ p.u_h.data), h)
        t = ad._softmax(np.tanh(h @ w0.data + b0.data) @ w1.data + b1.data)
        rows.append(np.hstack([h, t]))
    return np.vstack(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gru_decode_matches_reference_and_finite_differences(n):
    rng = np.random.default_rng(20 + n)
    p = init_gru(rng, 4, 3)
    head = init_mlp(rng, [4, 5, 3], ["tanh", "softmax"])
    tensors = {**p.named("gru"), **head.named("head")}
    for name, t in tensors.items():  # nonzero biases exercise the bias gradients
        if ".b" in name:
            t.data[...] = rng.standard_normal(t.shape)
    h0 = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
    tensors["h0"] = h0
    t0 = np.array([[1.0, 0.0, 0.0]])
    weights = Tensor(rng.standard_normal((n, 7)))

    out = gru_decode(p, head, h0, t0, n)
    ref = _gru_decode_by_ops(p, head, h0, t0, n)
    assert out.shape == (n, 7)
    np.testing.assert_allclose(out.data, ref.data, rtol=1e-12)
    # the stacked products give the bits of one product per weight
    rows = _gru_decode_rows(p, head, h0.data, t0, n)
    assert np.array_equal(out.data, rows)
    with no_grad():
        assert np.array_equal(gru_decode(p, head, h0, t0, n).data, rows)

    def run():
        return (gru_decode(p, head, h0, t0, n) * weights).sum()

    grads = backward_grads(run(), tensors)
    assert_grads_match(grads, backward_grads((ref * weights).sum(), tensors))
    for name, w in tensors.items():
        fd = fd_grad(lambda: float(run().data), w.data)
        np.testing.assert_allclose(grads[name], fd, rtol=1e-6, atol=1e-8, err_msg=name)


def test_gru_decode_rejects_other_heads():
    rng = np.random.default_rng(0)
    p = init_gru(rng, 4, 3)
    h0 = Tensor(np.zeros((1, 4)))
    with pytest.raises(ValueError, match="tanh then softmax"):
        gru_decode(p, init_mlp(rng, [4, 5, 3], ["tanh", "sigmoid"]), h0, np.zeros((1, 3)), 3)
    with pytest.raises(ValueError, match="at least 2"):
        gru_decode(p, init_mlp(rng, [4, 5, 3], ["tanh", "softmax"]), h0, np.zeros((1, 3)), 1)


def test_gru_step_rejects_row_mismatch():
    p = init_gru(np.random.default_rng(0), 4, 2)
    h = Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="row mismatch"):
        gru_step(p, h, Tensor(np.zeros((1, 2))), h)


def test_gru_zero_params_halves_state():
    p = init_gru(np.random.default_rng(0), 4, 2)
    for t in p.named("g").values():
        t.data[...] = 0.0
    h = Tensor(np.array([[1.0, -2.0, 3.0, 0.5]]))
    out = gru_step(p, h, Tensor(np.zeros((1, 2))), h)
    np.testing.assert_allclose(out.data, 0.5 * h.data)  # z=0.5, candidate=0


def test_mlp_forward_and_shape_error():
    rng = np.random.default_rng(4)
    p = init_mlp(rng, [3, 5, 2], ["tanh", "sigmoid"])
    y = mlp_forward(p, Tensor(rng.standard_normal((7, 3))))
    assert y.shape == (7, 2)
    assert (y.data > 0).all() and (y.data < 1).all()
    with pytest.raises(ValueError, match="dimension mismatch"):
        mlp_forward(p, Tensor(np.zeros((1, 4))))


def _pair_head_by_rows(h: Tensor, p) -> Tensor:
    """The edge head as a plain MLP over explicit [h_i, h_j] rows."""
    n = h.shape[0]
    pairs = [ad.concat([ad.take(h, [i]), ad.take(h, [j])], axis=1)
             for i in range(1, n) for j in range(i)]
    return mlp_forward(p, ad.concat(pairs, axis=0))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pair_head_matches_finite_differences(n):
    rng = np.random.default_rng(n)
    p = init_mlp(rng, [8, 5, 1], ["tanh", "sigmoid"])
    for _, b, _ in p.layers:
        b.data[...] = rng.standard_normal(b.shape)
    h = Tensor(rng.standard_normal((n, 4)), requires_grad=True)
    weights = Tensor(rng.standard_normal((n * (n - 1) // 2, 1)))
    out = ad.pair_head(h, p)
    assert out.shape == (n * (n - 1) // 2, 1)
    ref = _pair_head_by_rows(h, p)
    np.testing.assert_allclose(out.data, ref.data, rtol=1e-12)
    with no_grad():
        assert (ad.pair_head(h, p).data == out.data).all()

    def run():
        return (ad.pair_head(h, p) * weights).sum()

    # the recorded node keeps its hidden rows; the backward reads them
    tensors = {**p.named("head"), "h": h}
    grads = backward_grads(run(), tensors)
    assert_grads_match(grads, backward_grads((ref * weights).sum(), tensors))
    for name, w in tensors.items():
        fd = fd_grad(lambda: float(run().data), w.data)
        np.testing.assert_allclose(grads[name], fd, rtol=1e-6, atol=1e-8, err_msg=name)


def test_tril_indices_cached_read_only():
    low = ad.tril_indices(5)
    assert all(np.array_equal(a, b) for a, b in zip(low, np.tril_indices(5, -1)))
    assert ad.tril_indices(5) is low  # every caller shares one copy, so none may write it
    with pytest.raises(ValueError, match="read-only"):
        low[0][0] = 1


def test_pair_head_rejects_other_layers():
    rng = np.random.default_rng(0)
    h = Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="tanh then sigmoid"):
        ad.pair_head(h, init_mlp(rng, [8, 5, 1], ["tanh", "identity"]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        ad.pair_head(h, init_mlp(rng, [6, 5, 1], ["tanh", "sigmoid"]))


def test_backward_walks_nodes_in_creation_order():
    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)
    y = Tensor(np.array([1.1, 0.4]), requires_grad=True)
    u = x * y            # feeds both later nodes
    v = ad.exp(u)
    # the sum node lists u after v, so a stack pops u (and would run its
    # backward) before v has passed on its share of u's gradient
    loss = (v + u).sum()
    loss.backward()
    xy = x.data * y.data
    np.testing.assert_allclose(x.grad, y.data * (np.exp(xy) + 1.0), rtol=1e-15)
    np.testing.assert_allclose(y.grad, x.data * (np.exp(xy) + 1.0), rtol=1e-15)
    # a second loss over the same u: leaves accumulate, u starts from zero again
    g_x, g_y = x.grad.copy(), y.grad.copy()
    (u * u).sum().backward()
    np.testing.assert_allclose(x.grad, g_x + 2.0 * xy * y.data, rtol=1e-15)
    np.testing.assert_allclose(y.grad, g_y + 2.0 * xy * x.data, rtol=1e-15)


def test_no_grad_skips_tape():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = (a * a).sum()
    assert not out.requires_grad
    with pytest.raises(ValueError):
        Tensor(np.ones((2, 2))).backward()  # non-scalar


def test_adam_step_known_update():
    p = {"w": Tensor(np.array([1.0]), requires_grad=True),
         "u": Tensor(np.array([[3.0, -1.0]]), requires_grad=True)}
    flat, grad = ad.arena(p.values())
    grad[:] = [2.0, -0.5, 0.0]
    st = AdamState(lr=0.1)
    adam_step(st, flat, grad)
    # the tensors view the vector: first step m_hat = g, v_hat = g^2 -> update = lr * sign(g)
    np.testing.assert_allclose(p["w"].data, 1.0 - 0.1 * (2.0 / (2.0 + 1e-8)))
    np.testing.assert_allclose(p["u"].data, [[3.0 + 0.1 * (0.5 / (0.5 + 1e-8)), -1.0]])
    before, m, v = flat.copy(), st.m.copy(), st.v.copy()
    resized_v = AdamState(lr=0.1, step=1, m=st.m, v=np.zeros(4))
    for state, args in ((st, (flat, grad[:2])),            # short gradient
                        (st, (flat, grad.reshape(1, 3))),  # same size, 2-D
                        (st, (flat[:2], grad[:2])),        # not the moments' size
                        (resized_v, (flat, grad))):        # one moment resized
        with pytest.raises(ValueError, match="differ"):
            adam_step(state, *args)
        assert state.step == 1
        assert (flat == before).all()
        assert (state.m == m).all()
    assert (st.v == v).all() and (resized_v.v == 0.0).all()


def test_adam_step_matches_per_parameter_update():
    """The one-pass update is the elementwise per-parameter Adam, bit for bit."""
    rng = np.random.default_rng(9)
    shapes = {"a": (3, 2), "b": (4,), "c": (1, 5)}
    p = {k: Tensor(rng.standard_normal(s), requires_grad=True) for k, s in shapes.items()}
    ref = {k: t.data.copy() for k, t in p.items()}
    flat, grad = ad.arena(p.values())
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    st = AdamState(lr=0.01)
    for step in range(1, 4):
        grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
        for k, g in grads.items():
            p[k].grad[...] = g  # the tensor's grad is its slice of the vector
        adam_step(st, flat, grad)
        ofs = 0
        for k, g in grads.items():
            m[k] = m[k] * 0.9 + (1 - 0.9) * g
            v[k] = v[k] * 0.999 + (1 - 0.999) * g * g
            ref[k] -= 0.01 * (m[k] / (1 - 0.9 ** step)) / (
                np.sqrt(v[k] / (1 - 0.999 ** step)) + 1e-8)
            assert (p[k].data == ref[k]).all(), (step, k)
            assert (flat[ofs : ofs + g.size] == ref[k].ravel()).all(), (step, k)
            ofs += g.size


def test_params_json_bit_exact():
    rng = np.random.default_rng(8)
    params = {"a": Tensor(rng.standard_normal((3, 2))),
              "b": Tensor(rng.standard_normal(4))}
    text = params_to_json(params, meta={"k": 1})
    data, meta = params_from_json(text)
    assert meta == {"k": 1}
    for k, t in params.items():
        assert (data[k] == t.data).all()  # bitwise
    with pytest.raises(ValueError, match="format"):
        params_from_json(json.dumps({"format": "other", "params": {}}))
