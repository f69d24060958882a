"""Reverse-mode tape vs. central finite differences; optimizer behavior."""
import json

import numpy as np
import pytest

from ipcamo import autodiff as ad
from ipcamo.autodiff import (AdamState, LevelPlan, Tensor, adam_step, edge_heads,
                             gru_decode, gru_encode, init_gru, init_mlp, no_grad,
                             params_from_json, params_to_json)
from reference_tools import (concat, matmul, mlp_forward, power, sigmoid, softmax, sub,
                             sum_all, tanh)


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
    z = sigmoid(matmul(m, p.w_z) + matmul(t, p.u_z) + p.b_z)
    r = sigmoid(matmul(m, p.w_r) + matmul(t, p.u_r) + p.b_r)
    h_tilde = tanh(matmul(r * h, p.w_h) + matmul(t, p.u_h) + p.b_h)
    return sub(1.0, z) * h + z * h_tilde


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
    check(lambda a, b: sum_all(power(sub(a * b + a, b), 3.0)), (3, 4), (3, 4))


def test_matmul_and_broadcast_bias():
    check(lambda a, w, b: sum_all(power(matmul(a, w) + b, 2.0)), (2, 3), (3, 5), (5,))


def test_activations():
    check(lambda a: sum_all(sigmoid(a) * tanh(a) + ad.exp(a * 0.1)), (4, 4))


def test_softmax_rows():
    x = Tensor(np.random.default_rng(1).standard_normal((3, 5)))
    s = softmax(x)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0)
    check(lambda a: sum_all(softmax(a) * softmax(a)), (3, 5))


def test_concat_repeat_take():
    check(lambda a, b: sum_all(power(concat([a, b], axis=0), 2.0)), (2, 3), (4, 3))
    check(lambda a: sum_all(power(ad.take(a, [2]), 2.0)), (4, 3))
    check(lambda a: sum_all(power(ad.take(a, (slice(None), slice(1, None))), 3.0)), (4, 3))
    # a gather that reads row 1 three times accumulates all three gradients
    check(lambda a: sum_all(power(ad.take(a, np.array([1, 0, 1, 1])), 3.0)), (3, 2))


def gru_step(p, m: Tensor, t: Tensor, h: Tensor) -> Tensor:
    """One GRU update as a tape node built from the cell helpers that
    gru_encode and gru_decode share; m need not be h, and t may be on the tape."""
    md, td, hd = m.data, t.data, h.data
    width = hd.shape[1]
    w_zr, u_all, b_all = ad._gru_stacks(p)
    type_prods = td @ u_all + b_all
    zr, th = type_prods[:, : 2 * width] + md @ w_zr, type_prods[:, 2 * width :]
    rh, h_tilde, out = np.empty_like(hd), np.empty_like(hd), np.empty_like(hd)
    ad._gru_cell(p.w_h.data, zr, th, hd, rh, h_tilde, out)

    def bwd(g):
        d = np.empty((hd.shape[0], 3 * width))
        d_prev = ad._gru_backward(ad._gru_coefficients(zr, h_tilde, hd), g, d, p.w_h.data.T)
        ad._gru_weight_grads(p, md, td, rh, d)
        ad._accum_grads(((m, d[:, : 2 * width] @ w_zr.T), (t, d @ u_all.T), (h, d_prev)))

    return Tensor._make(out, (m, t, h, *vars(p).values()), bwd)


def test_gru_step_gradients():
    rng = np.random.default_rng(3)
    p = init_gru(rng, 6, 3)
    m = Tensor(rng.standard_normal((1, 6)), requires_grad=True)
    t = Tensor(rng.standard_normal((1, 3)))

    def run():
        return sum_all(power(gru_step(p, m, t, m), 2.0))

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
        return sum_all(gru_step(p, m, t, h) * Tensor(weights))

    np.testing.assert_allclose(gru_step(p, m, t, h).data, gru_by_ops(p, m, t, h).data,
                               rtol=1e-12)
    run().backward()
    inputs = {"h": h, "m": m, **({"t": t} if t_grad else {})}
    for name, w in {**p.named("g"), **inputs}.items():
        fd = fd_grad(lambda: float(run().data), w.data)
        np.testing.assert_allclose(w.grad, fd, rtol=1e-6, atol=1e-8, err_msg=name)
    if not t_grad:
        assert t.grad is None


def _gru_decode_by_ops(p, head, z: Tensor, init_w: Tensor, init_b: Tensor,
                       t0: np.ndarray, n: int) -> Tensor:
    """gru_decode as a loop of elementary tape ops."""
    h, t = tanh(matmul(z, init_w) + init_b), Tensor(t0.reshape(1, -1))
    rows = [concat([h, t], axis=1)]
    for _ in range(1, n):
        h = gru_by_ops(p, h, t, h)
        t = softmax(mlp_forward(head, h))
        rows.append(concat([h, t], axis=1))
    return concat(rows, axis=0)


def _gru_decode_rows(p, head, z: np.ndarray, init_w: np.ndarray, init_b: np.ndarray,
                     t0: np.ndarray, n: int) -> np.ndarray:
    """gru_decode's forward on arrays, one product per weight and no stacking,
    in the node's order of float operations."""
    (w0, b0), (w1, b1) = head.layers
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))  # noqa: E731
    h, t = np.tanh(z @ init_w + init_b)[0], t0
    rows = [np.concatenate([h, t])]
    for _ in range(1, n):
        zg = sig(h @ p.w_z.data + (t @ p.u_z.data + p.b_z.data))
        r = sig(h @ p.w_r.data + (t @ p.u_r.data + p.b_r.data))
        h_tilde = np.tanh((r * h) @ p.w_h.data + (t @ p.u_h.data + p.b_h.data))
        h = h + zg * (h_tilde - h)
        logit = np.tanh(h @ w0.data + b0.data) @ w1.data + b1.data
        e = np.exp(logit - logit.max())
        t = e / e.sum()
        rows.append(np.concatenate([h, t]))
    return np.vstack(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gru_decode_matches_reference_and_finite_differences(n):
    rng = np.random.default_rng(20 + n)
    p = init_gru(rng, 4, 3)
    head = init_mlp(rng, [4, 5, 3])
    init_w = Tensor(rng.uniform(-0.5, 0.5, (2, 4)), requires_grad=True)
    init_b = Tensor(rng.standard_normal(4), requires_grad=True)
    tensors = {**p.named("gru"), **head.named("head"), "init_w": init_w, "init_b": init_b}
    for name, t in tensors.items():  # nonzero biases exercise the bias gradients
        if ".b" in name:
            t.data[...] = rng.standard_normal(t.shape)
    z = Tensor(rng.standard_normal((1, 2)), requires_grad=True)
    tensors["z"] = z
    t0 = np.array([1.0, 0.0, 0.0])
    weights = Tensor(rng.standard_normal((n, 7)))

    out = gru_decode(p, head, z, init_w, init_b, t0, n)
    ref = _gru_decode_by_ops(p, head, z, init_w, init_b, t0, n)
    assert out.shape == (n, 7)
    np.testing.assert_allclose(out.data, ref.data, rtol=1e-12)
    # the stacked products and the in-place steps give the bits of the plain equations
    rows = _gru_decode_rows(p, head, z.data, init_w.data, init_b.data, t0, n)
    assert np.array_equal(out.data, rows)
    with no_grad():
        assert np.array_equal(gru_decode(p, head, z, init_w, init_b, t0, n).data, rows)

    def run():
        return sum_all(gru_decode(p, head, z, init_w, init_b, t0, n) * weights)

    grads = backward_grads(run(), tensors)
    assert_grads_match(grads, backward_grads(sum_all(ref * weights), tensors))
    for name, w in tensors.items():
        fd = fd_grad(lambda: float(run().data), w.data)
        np.testing.assert_allclose(grads[name], fd, rtol=1e-6, atol=1e-8, err_msg=name)
    with pytest.raises(ValueError, match="at least 2"):
        gru_decode(p, head, z, init_w, init_b, t0, 1)


def _plan_pi_to_po(n_gate_rows: int = 1) -> LevelPlan:
    """PI -> PO: one leaf reading embedding row 0, one level whose message is the leaf."""
    return LevelPlan(leaf_rows=np.array([0]), starts=(0, 1, 2),
                     incidence=(np.ones((1, 1)),),
                     types=np.tile([[0.0, 0.0, 1.0]], (n_gate_rows, 1)), out_row=1)


def test_gru_encode_rejects_row_mismatch():
    rng = np.random.default_rng(0)
    p, embed = init_gru(rng, 4, 3), Tensor(np.zeros((2, 4)))
    heads = init_mlp(rng, [4, 3, 2]), init_mlp(rng, [4, 3, 2])
    with pytest.raises(ValueError, match="row mismatch"):  # two type rows for one gate
        gru_encode(p, embed, *heads, _plan_pi_to_po(2))
    bad = _plan_pi_to_po()._replace(incidence=(np.ones((2, 1)),))
    with pytest.raises(ValueError, match="row mismatch"):
        gru_encode(p, embed, *heads, bad)


def test_gru_zero_params_halves_state():
    """With zero GRU weights z = 0.5 and the candidate is 0, so the PO's state,
    whose message and previous state are the PI's, is half the PI's."""
    rng = np.random.default_rng(0)
    p = init_gru(rng, 4, 3)
    for t in p.named("g").values():
        t.data[...] = 0.0
    embed = Tensor(np.array([[1.0, -2.0, 3.0, 0.5], [9.0, 9.0, 9.0, 9.0]]))
    mu, logvar = init_mlp(rng, [4, 3, 2]), init_mlp(rng, [4, 3, 2])
    out = gru_encode(p, embed, mu, logvar, _plan_pi_to_po())
    half = Tensor(0.5 * embed.data[:1])
    np.testing.assert_allclose(out.data[:, :2], mlp_forward(mu, half).data, rtol=1e-12)
    np.testing.assert_allclose(out.data[:, 2:], mlp_forward(logvar, half).data, rtol=1e-12)


def test_mlp_forward_and_shape_error():
    rng = np.random.default_rng(4)
    p = init_mlp(rng, [3, 5, 2])
    x = rng.standard_normal((7, 3))
    y = mlp_forward(p, Tensor(x))
    (w0, b0), (w1, b1) = p.layers
    assert y.shape == (7, 2)
    np.testing.assert_array_equal(y.data, np.tanh(x @ w0.data + b0.data) @ w1.data + b1.data)
    with pytest.raises(ValueError, match="dimension mismatch"):
        mlp_forward(p, Tensor(np.zeros((1, 4))))


def _pair_head_by_rows(h: Tensor, p) -> Tensor:
    """One edge head as a plain MLP over explicit [h_i, h_j] rows."""
    n = h.shape[0]
    pairs = [concat([ad.take(h, [i]), ad.take(h, [j])], axis=1)
             for i in range(1, n) for j in range(i)]
    return sigmoid(mlp_forward(p, concat(pairs, axis=0)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 40])
def test_pair_head_matches_finite_differences(n):
    """edge_heads scores both heads of every pair as one node; at n = 40 an
    unrecorded forward scores the 780 pairs in two blocks."""
    rng = np.random.default_rng(n)
    conn, inv = init_mlp(rng, [8, 5, 1]), init_mlp(rng, [8, 5, 1])
    tensors = {**conn.named("conn"), **inv.named("inv")}
    for name, t in tensors.items():  # nonzero biases exercise the bias gradients
        if ".b" in name:
            t.data[...] = rng.standard_normal(t.shape)
    h = Tensor(rng.standard_normal((n, 4)), requires_grad=True)
    tensors["h"] = h
    weights = Tensor(rng.standard_normal((n * (n - 1) // 2, 2)))
    out = edge_heads(h, conn, inv)
    assert out.shape == (n * (n - 1) // 2, 2)
    ref = concat([_pair_head_by_rows(h, conn), _pair_head_by_rows(h, inv)], axis=1)
    np.testing.assert_allclose(out.data, ref.data, rtol=1e-12)
    with no_grad():  # unrecorded blocks give the recorded block's bits
        assert np.array_equal(edge_heads(h, conn, inv).data, out.data)

    def run():
        return sum_all(edge_heads(h, conn, inv) * weights)

    # the recorded node keeps its hidden rows; the backward reads them
    grads = backward_grads(run(), tensors)
    assert_grads_match(grads, backward_grads(sum_all(ref * weights), tensors))
    for name, w in tensors.items():
        fd = fd_grad(lambda: float(run().data), w.data)
        np.testing.assert_allclose(grads[name], fd, rtol=1e-6, atol=1e-8, err_msg=name)
    with pytest.raises(ValueError, match="dimension mismatch"):
        edge_heads(Tensor(np.zeros((n, 3))), conn, inv)


def test_edge_heads_unrecorded_builds_no_pair_matrix():
    """Unrecorded, the heads score one node's pairs at a time: at n = 166 no
    (pairs x hidden width) array exists, though the recorded gather builds one."""
    import tracemalloc

    rng = np.random.default_rng(0)
    conn, inv = init_mlp(rng, [48, 24, 1]), init_mlp(rng, [48, 24, 1])
    h = Tensor(rng.standard_normal((166, 24)))
    ad.tril_indices(166)  # cached index arrays are not the node's to count
    pair_matrix = 166 * 165 // 2 * 24 * 8  # bytes of one head's hidden rows
    for record in (False, True):
        tracemalloc.start()
        try:
            if record:
                edge_heads(h, conn, inv)
            else:
                with no_grad():
                    edge_heads(h, conn, inv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak > pair_matrix) == record, (record, peak)


@pytest.mark.parametrize("n", [2, 40, 166])
def test_pair_scorer_bits_do_not_depend_on_the_pairs_asked(n):
    """A pair's score has edge_heads' bits whichever pairs and heads it is
    scored with: every pair, a shuffled subset, or one head at a time."""
    rng = np.random.default_rng(n)
    conn, inv = init_mlp(rng, [48, 24, 1]), init_mlp(rng, [48, 24, 1])
    for mlp in (conn, inv):  # nonzero biases, so a head's bias slice matters
        for _, b in mlp.layers:
            b.data[...] = rng.standard_normal(b.shape)
    h = rng.standard_normal((n, 24))
    with no_grad():
        full = edge_heads(Tensor(h), conn, inv).data
    score = ad.PairScorer(h, conn, inv)
    rows, cols = ad.tril_indices(n)
    assert np.array_equal(score(rows, cols), full)
    some = rng.permutation(len(rows))[: max(1, len(rows) // 7)]
    for heads, col in ((ad.CONN_HEAD, 0), (ad.INV_HEAD, 1)):
        got = score(rows[some], cols[some], heads)
        assert got.shape == (len(some), 1)
        assert np.array_equal(got[:, 0], full[some, col])
    assert score(rows[:0], cols[:0], ad.INV_HEAD).shape == (0, 1)


def test_tril_indices_cached_read_only():
    low = ad.tril_indices(5)
    assert all(np.array_equal(a, b) for a, b in zip(low, np.tril_indices(5, -1)))
    assert ad.tril_indices(5) is low  # every caller shares one copy, so none may write it
    with pytest.raises(ValueError, match="read-only"):
        low[0][0] = 1


def test_backward_walks_nodes_in_creation_order():
    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)
    y = Tensor(np.array([1.1, 0.4]), requires_grad=True)
    u = x * y            # feeds both later nodes
    v = ad.exp(u)
    # the sum node lists u after v, so a stack pops u (and would run its
    # backward) before v has passed on its share of u's gradient
    loss = sum_all(v + u)
    loss.backward()
    xy = x.data * y.data
    np.testing.assert_allclose(x.grad, y.data * (np.exp(xy) + 1.0), rtol=1e-15)
    np.testing.assert_allclose(y.grad, x.data * (np.exp(xy) + 1.0), rtol=1e-15)
    # a second loss over the same u: leaves accumulate, u starts from zero again
    g_x, g_y = x.grad.copy(), y.grad.copy()
    sum_all(u * u).backward()
    np.testing.assert_allclose(x.grad, g_x + 2.0 * xy * y.data, rtol=1e-15)
    np.testing.assert_allclose(y.grad, g_y + 2.0 * xy * x.data, rtol=1e-15)


def test_no_grad_skips_tape():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = sum_all(a * a)
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


def test_adam_step_allocates_no_vector():
    """After the first step (which allocates the moments and scratch rows) a
    step makes no temporary of the parameter vector's size."""
    import tracemalloc

    flat, grad = np.zeros(100_000), np.full(100_000, 0.5)
    st = AdamState(lr=0.1)
    adam_step(st, flat, grad)
    tracemalloc.start()
    try:
        adam_step(st, flat, grad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < flat.nbytes // 10
    assert st.step == 2 and (flat < 0).all()


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
