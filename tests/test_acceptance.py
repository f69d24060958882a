"""Acceptance suite: twelve end-to-end criteria, one test (and one verdict
line under pytest -v) per criterion.

Scale notes: models train at toy size, circuits are desk-scale cones
(~166 nodes), and attack budgets are 60 s. The structural laws are exact;
the statistical targets are the toy-scale thresholds."""
import itertools
import time

import numpy as np
import pytest

from ipcamo import vae
from ipcamo.aig import random_tree, to_tensors
from ipcamo.attack import (dip_attack, equivalence_check, keyize_netlist,
                           make_ll_baseline, make_oracle)
from ipcamo.camouflage import (camouflage_pipeline, fix_lookup, interpolate,
                               threshold_filter)
from ipcamo.covert import CovertConfig, CovertGateKind, realize
from ipcamo.evaluation import ged_lsd_study, pearson_r, random_covert_insertion
from ipcamo.gatelevel import from_aig
from ipcamo.vae import Hyperparams, decode, encode, init_vae
from reference_tools import cell_bits

GRID_P = (0.1, 0.3, 0.5, 0.7, 0.9)
GRID_TH = tuple(round(0.01 * k, 2) for k in range(1, 10))


@pytest.fixture(scope="module")
def desk_pairs():
    """Four desk-scale (F, A) cone pairs, ~166 nodes each, 10 shared PIs."""
    pairs = []
    for seed in (100, 101, 102, 103):
        rng = np.random.default_rng(seed)
        pairs.append((random_tree(rng, 82, n_pi_pool=10),
                      random_tree(rng, 82, n_pi_pool=10)))
    return pairs


def test_ac01_gradient_correctness():
    """End-to-end loss gradients match central finite differences (< 10 s)."""
    t0 = time.monotonic()
    hp = Hyperparams(latent_dim=8, hidden_dim=8, mlp_hidden=8, max_pi=8, seed=0)
    params = init_vae(hp, np.random.default_rng(0))
    g = random_tree(np.random.default_rng(2), 2, n_pi_pool=2)
    x = to_tensors(g)

    def forward():
        mu, logvar = vae.encode_tensors(g, params)
        decoded = vae.decode_tensors(mu, g.n, params)
        total, _ = vae.loss_tensors(x, decoded, mu, logvar, hp)
        return total

    forward().backward()
    h = 1e-5
    for name, t in params.named().items():
        flat = t.data.reshape(-1)
        grad = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(forward().data)
            flat[i] = orig - h
            fm = float(forward().data)
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-4 * max(abs(fd), 1e-6), (name, i)
    assert time.monotonic() - t0 < 10.0


def test_ac02_loss_zero_point():
    """Identical triples at mu=0, sigma=1 give zero loss; KL(1,1) = 0.5."""
    hp = Hyperparams(latent_dim=4, hidden_dim=4, mlp_hidden=4, max_pi=8, seed=0)
    g = random_tree(np.random.default_rng(0), 3)
    x = to_tensors(g)
    code = vae.LatentCode(mu=np.zeros(4), sigma=np.ones(4), z=np.zeros(4))
    total, comps = vae.loss(x, x, code, hp)
    assert total < 1e-12
    assert all(abs(v) < 1e-12 for v in comps.values())
    unit = vae.LatentCode(mu=np.ones(1), sigma=np.ones(1), z=np.ones(1))
    assert vae.loss(x, x, unit, hp)[1]["kl"] == 0.5


def test_ac03_fix_table_conformance():
    """All 18 cells of the two-phase fix table, collapsed no-conn states."""
    # rows: generated state; columns: target state
    functional = {
        ("nc", "nc"): None, ("nc", "10"): "connect", ("nc", "11"): "insert_inv",
        ("10", "nc"): "fb", ("10", "10"): None, ("10", "11"): "ut_b",
        ("11", "nc"): "fi", ("11", "10"): "ut_a", ("11", "11"): None,
    }
    appearance = {
        ("nc", "nc"): None, ("nc", "10"): "fb", ("nc", "11"): "fi",
        ("10", "nc"): None, ("10", "10"): None, ("10", "11"): "ut_a",
        ("11", "nc"): None, ("11", "10"): "ut_b", ("11", "11"): None,
    }
    checked = 0
    for phase, table in (("functional", functional), ("appearance", appearance)):
        for (gs, ts), action in table.items():
            for g in (("00", "01") if gs == "nc" else (gs,)):
                for t in (("00", "01") if ts == "nc" else (ts,)):
                    assert fix_lookup(g, t, phase) == action, (phase, g, t)
            checked += 1
    assert checked == 18


def test_ac04_formal_equivalence_grid(toy_checkpoint, desk_pairs):
    """Every grid cell of every pair builds a netlist whose fabricated circuit,
    each covert cell replaced by its real gate, is == F (< 10 min)."""
    params, _ = toy_checkpoint
    t0 = time.monotonic()
    failures = []
    for idx, (f, a) in enumerate(desk_pairs):
        for p in GRID_P:
            for th in GRID_TH:
                nl = camouflage_pipeline(f, a, params, p, th, seed=idx)
                fab = realize(nl.appearance_view, nl.placements)
                if not equivalence_check(fab, f):
                    failures.append((idx, p, th))
    assert failures == []
    assert time.monotonic() - t0 < 600.0


def test_ac05_interpolation_endpoints(toy_checkpoint):
    """p=0 / p=1 filtered decodes are bitwise identical to single-latent ones."""
    params, _ = toy_checkpoint
    rng = np.random.default_rng(50)
    f = random_tree(rng, 5)
    a = random_tree(rng, 6)
    z_f = encode(f, params).mu
    z_a = encode(a, params).mu
    n, th = 14, 0.05
    for p, z_ref in ((0.0, z_f), (1.0, z_a)):
        got = threshold_filter(decode(interpolate(z_f, z_a, p), n, params), th)
        want = threshold_filter(decode(z_ref, n, params), th)
        assert (got.type_mat == want.type_mat).all()
        assert (got.conn_mat == want.conn_mat).all()
        assert (got.inv_mat == want.inv_mat).all()


def test_ac06_key_count_law():
    """#K = 2 x candidates on every netlist; a ~166-candidate netlist has ~332."""
    rng = np.random.default_rng(60)
    for trial in range(5):
        f = random_tree(rng, 3 + trial)
        nl = random_covert_insertion(f, "fraction", 0.3, rng)
        kn = keyize_netlist(nl)
        src = nl.appearance_view
        consumed = {p.out for p in nl.placements}
        consumed |= {src.gates[p.out].ins[0] for p in nl.placements
                     if p.kind is CovertGateKind.FB}
        genuine = sum(1 for n, g in src.gates.items()
                      if g.op in ("not", "buf", "nand") and n not in consumed)
        assert kn.n_key_bits == 2 * (len(nl.placements) + genuine)

    # engineer ~166 candidates total -> ~332 key bits
    f = random_tree(np.random.default_rng(61), 60, n_pi_pool=8)
    c = from_aig(f)
    genuine = sum(1 for g in c.gates.values() if g.op in ("not", "buf", "nand"))
    k = 166 - genuine
    assert k > 0
    nl = random_covert_insertion(f, "match_area", 1.0 + k / c.cell_count(),
                                 np.random.default_rng(62))
    kn = keyize_netlist(nl)
    assert kn.n_key_bits == 2 * (len(nl.placements) + genuine)
    assert abs(kn.n_key_bits - 332) <= 4  # rounding in the area target


def test_ac07_dip_attack_soundness():
    """50 seeded trials, <= 10 key bits: recovered key sits in the brute-force
    equivalence class of the correct key (< 5 min)."""
    t0 = time.monotonic()
    trials = 0
    seed = 0
    while trials < 50:
        seed += 1
        rng = np.random.default_rng(700 + seed)
        f = random_tree(rng, 2, n_pi_pool=3)
        nl = random_covert_insertion(f, "fraction", 0.25, rng)
        kn = keyize_netlist(nl)
        if kn.n_key_bits > 10:
            continue
        trials += 1
        trace = dip_attack(kn, make_oracle(kn), time_budget=30.0)
        assert trace.status == "solved", seed

        xs = kn.payload_inputs
        patterns = list(itertools.product((0, 1), repeat=len(xs)))

        def table(key):
            return tuple(tuple(kn.evaluate(key, dict(zip(xs, bits))).values())
                         for bits in patterns)

        oracle_table = table(kn.correct_key)
        good = {key for key in itertools.product((0, 1), repeat=kn.n_key_bits)
                if table(list(key)) == oracle_table}
        assert tuple(kn.correct_key) in good
        assert tuple(trace.key) in good, seed
    assert time.monotonic() - t0 < 300.0


def test_ac08_attack_resistance_trend(toy_checkpoint, desk_pairs):
    """Camouflaged netlist stalls the DIP attack; an area-matched locking
    baseline (~5% overhead worth of XOR key gates) falls within the budget."""
    params, _ = toy_checkpoint
    f, a = desk_pairs[0]
    nl = camouflage_pipeline(f, a, params, p=0.5, th=0.05, seed=0)
    kn = keyize_netlist(nl)

    n_ll_bits = max(1, round(0.05 * nl.metadata["baseline_cells"]))
    ll = make_ll_baseline(f, n_key_bits=n_ll_bits, seed=0)
    budget = 60.0
    ll_trace = dip_attack(ll, make_oracle(ll), time_budget=budget)
    assert ll_trace.status == "solved"

    camo_trace = dip_attack(kn, make_oracle(kn), time_budget=budget)
    stalled = camo_trace.status == "budget"
    out_iterated = camo_trace.iterations >= 10 * max(1, ll_trace.iterations)
    assert stalled or out_iterated
    assert kn.n_key_bits > 10 * ll.n_key_bits  # key-space gap behind the trend


def test_ac09_ged_lsd_analytics(toy_checkpoint, toy_data):
    """Study completes with >= 90% valid pairs and positive correlation;
    perfectly linear data scores r = 1 exactly."""
    params, _ = toy_checkpoint
    _, test_set = toy_data
    assert len(test_set) >= 20
    report = ged_lsd_study(test_set, params, bins=20, timeout=5.0)
    total = report.valid_pairs + report.discarded
    assert report.valid_pairs / total >= 0.9
    assert report.pearson_r is not None and report.pearson_r > 0.0
    xs = np.linspace(0.0, 3.0, 40)
    assert abs(pearson_r(xs, 2.0 * xs + 1.0) - 1.0) <= 1e-9


def test_ac10_reconstruction_sanity(toy_checkpoint, toy_data):
    """Pooled per-entry binary agreement > 0.9 on the training set; training
    loss at epoch 10 strictly below epoch 1."""
    params, history = toy_checkpoint
    train_set, _ = toy_data
    match = total = 0
    for g in train_set:
        x = to_tensors(g)
        soft = decode(encode(g, params).mu, g.n, params)
        type_hat = np.zeros_like(soft.type_mat)
        type_hat[np.arange(g.n), soft.type_mat.argmax(axis=1)] = 1.0
        for hat, ref in ((type_hat, x.type_mat),
                         ((soft.conn_mat > 0.5).astype(float), x.conn_mat),
                         ((soft.inv_mat > 0.5).astype(float), x.inv_mat)):
            match += int((hat == ref).sum())
            total += hat.size
    assert match / total > 0.9
    assert history[9]["train_loss"] < history[0]["train_loss"]


def test_ac11_cli_determinism(toy_checkpoint, tmp_path):
    """Two cmd_camouflage runs with one config+seed: byte-identical netlists."""
    import json

    from ipcamo.cli import EXIT_OK, main
    params, _ = toy_checkpoint
    vae.save_vae(params, str(tmp_path / "ckpt.json"))
    rng = np.random.default_rng(90)
    for name, n_ands in (("f", 4), ("a", 5)):
        (tmp_path / f"{name}.json").write_text(
            random_tree(rng, n_ands, n_pi_pool=5).to_json())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "checkpoint": str(tmp_path / "ckpt.json"),
        "functional": str(tmp_path / "f.json"),
        "appearance": str(tmp_path / "a.json"),
        "p": [0.3, 0.7], "th": [0.05],
    }))
    outs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        assert main(["camouflage", "--config", str(cfg),
                     "--out", str(out), "--seed", "5"]) == EXIT_OK
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("netlist_*.json"))
    assert len(names) == 2
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_ac12_covert_gate_semantics():
    """Exhaustive truth tables for every kind/config/arity: each cell is
    drawn, and simulated as it looks and as `realize` fabricates it."""
    K, C = CovertGateKind, CovertConfig

    def does(kind, cfg, x, d=1):
        return cell_bits(kind, cfg, x, d)[1]

    def looks(kind, x, d=1):  # the layout does not show the configuration
        return {cell_bits(kind, cfg, x, d)[0] for cfg in (C.CONST0, C.CONST1)}

    for kind in K:
        for cfg, bit in ((C.CONST0, 0), (C.CONST1, 1)):
            for x in (0, 1):
                assert does(kind, cfg, x) == bit  # input-independent
    for x in (0, 1):
        assert does(K.UT_A, C.NORMAL, x) == x          # real buffer
        assert does(K.UT_B, C.NORMAL, x) == 1 - x      # real inverter
        assert looks(K.FI, x) == {1 - x}
        assert looks(K.FB, x) == {x}
        for kind in (K.UT_A, K.UT_B):
            for d in (0, 1):
                assert looks(kind, x, d) == {1 - (x & d)}
    for kind in (K.FI, K.FB):
        with pytest.raises(ValueError, match="cannot be configured normal"):
            cell_bits(kind, C.NORMAL, 0)  # no pass-through mode exists
