"""Interpolation, thresholding, the fix table and the end-to-end pipeline."""
import copy
import itertools

import numpy as np
import pytest

from ipcamo.aig import (AigGraph, NodeType, TensorTriple, from_tensors, normalize,
                        pad_to_match, pattern_words, random_tree, to_tensors)
from ipcamo.camouflage import (PAIR_RULES, CamouflagedNetlist, _pair_states,
                               area_overhead, camouflage_grid, camouflage_pipeline,
                               camouflage_skeleton, checkpoint_sha256, fix_lookup, fix_pairs,
                               interpolate, threshold_filter)
from ipcamo.attack import equivalence_check, keyize_netlist
from ipcamo.covert import CovertConfig, CovertGateKind, draw_cell, realize
from ipcamo.gatelevel import Circuit, CompiledCircuit, from_aig, prune
from ipcamo.vae import decode, encode
from reference_tools import same_structure


def test_interpolation_endpoints_bitwise():
    rng = np.random.default_rng(0)
    z_f = rng.standard_normal(16)
    z_a = rng.standard_normal(16)
    assert (interpolate(z_f, z_a, 0.0) == z_f).all()
    assert (interpolate(z_f, z_a, 1.0) == z_a).all()
    mid = interpolate(z_f, z_a, 0.25)
    np.testing.assert_allclose(mid, 0.75 * z_f + 0.25 * z_a)
    with pytest.raises(ValueError, match="range"):
        interpolate(z_f, z_a, 1.5)
    with pytest.raises(ValueError, match="shape"):
        interpolate(z_f, z_a[:8], 0.5)


def test_threshold_filter_semantics():
    n = 4
    type_mat = np.array([[0.2, 0.5, 0.3],   # argmax says PO, but row 0 -> PI
                         [0.1, 0.1, 0.8],   # AND
                         [0.1, 0.6, 0.3],   # PO (not last -> demoted to AND)
                         [0.2, 0.5, 0.3]])  # PO (last one kept)
    conn = np.zeros((n, n))
    inv = np.zeros((n, n))
    conn[1, 0] = 0.5          # strictly above th -> kept
    conn[2, 0] = 0.3          # exactly th -> dropped
    conn[3, 1] = 0.9
    inv[3, 1] = 0.8           # rides on a kept edge -> kept
    inv[2, 1] = 0.9           # no connection underneath -> cleared
    inv[0, 3] = 0.9           # upper triangle -> cleared
    got = threshold_filter(TensorTriple(type_mat, conn, inv), th=0.3)
    assert got.type_mat[0].tolist() == list(NodeType.PI.one_hot())
    assert got.type_mat[2].tolist() == list(NodeType.AND.one_hot())
    assert got.type_mat[3].tolist() == list(NodeType.PO.one_hot())
    assert got.conn_mat[1, 0] == 1 and got.conn_mat[2, 0] == 0
    assert got.inv_mat[3, 1] == 1 and got.inv_mat[2, 1] == 0
    assert np.triu(got.conn_mat).sum() == 0 and np.triu(got.inv_mat).sum() == 0

    # the fan-in budget: an AND row keeps its two best sources above Th, the
    # PO row its best one, ties go to the lower index, and only an inversion
    # probability above 0.5 inverts a kept edge
    n = 6
    type_mat = np.tile([0.1, 0.1, 0.8], (n, 1))  # ANDs ...
    type_mat[5] = [0.1, 0.8, 0.1]                # ... and the PO last
    conn = np.zeros((n, n))
    inv = np.zeros((n, n))
    conn[3, :3] = [0.4, 0.6, 0.5]                # three above th: 0.6, 0.5 kept
    conn[4, :4] = [0.7, 0.7, 0.7, 0.2]           # a tie: the two lowest kept
    conn[5, :5] = [0.2, 0.4, 0.9, 0.8, 0.1]      # the PO keeps 0.9 only
    inv[5, 2] = 0.4                              # between th and 0.5: not inverted
    inv[3, 1] = 0.6                              # above 0.5: inverted
    got = threshold_filter(TensorTriple(type_mat, conn, inv), th=0.3)
    assert np.flatnonzero(got.conn_mat[3]).tolist() == [1, 2]
    assert np.flatnonzero(got.conn_mat[4]).tolist() == [0, 1]
    assert np.flatnonzero(got.conn_mat[5]).tolist() == [2]
    assert got.inv_mat[5, 2] == 0 and got.inv_mat[3, 1] == 1
    assert got.inv_mat.sum() == 1


def test_threshold_filter_invents_po_when_missing():
    type_mat = np.tile([0.1, 0.0, 0.9], (3, 1))  # every argmax is AND
    z = np.zeros((3, 3))
    got = threshold_filter(TensorTriple(type_mat, z, z), th=0.5)
    assert got.type_mat[2].tolist() == list(NodeType.PO.one_hot())


def test_roundtrip_through_filter_is_identity_on_binary():
    g = random_tree(np.random.default_rng(3), 4)
    x = to_tensors(g)
    again = threshold_filter(x, th=0.5)
    assert (again.type_mat == x.type_mat).all()
    assert (again.conn_mat == x.conn_mat).all()
    assert (again.inv_mat == x.inv_mat).all()


# The full fix table, frozen. Keys are (generated state, target state);
# "00"/"01" both mean "no connection".
EXPECTED_FUNCTIONAL = {
    ("00", "00"): None, ("00", "01"): None, ("01", "00"): None, ("01", "01"): None,
    ("00", "10"): "connect", ("01", "10"): "connect",
    ("00", "11"): "insert_inv", ("01", "11"): "insert_inv",
    ("10", "00"): "fb", ("10", "01"): "fb",
    ("11", "00"): "fi", ("11", "01"): "fi",
    ("10", "10"): None, ("11", "11"): None,
    ("10", "11"): "ut_b", ("11", "10"): "ut_a",
}
EXPECTED_APPEARANCE = {
    ("00", "00"): None, ("00", "01"): None, ("01", "00"): None, ("01", "01"): None,
    ("00", "10"): "fb", ("01", "10"): "fb",
    ("00", "11"): "fi", ("01", "11"): "fi",
    ("10", "00"): None, ("10", "01"): None,   # extra visible wiring stays
    ("11", "00"): None, ("11", "01"): None,
    ("10", "10"): None, ("11", "11"): None,
    ("10", "11"): "ut_a", ("11", "10"): "ut_b",
}


@pytest.mark.parametrize("phase,expected",
                         [("functional", EXPECTED_FUNCTIONAL),
                          ("appearance", EXPECTED_APPEARANCE)])
def test_fix_table_frozen(phase, expected):
    for (g, t), action in expected.items():
        assert fix_lookup(g, t, phase) == action, (phase, g, t)


def test_fix_lookup_rejects_garbage():
    with pytest.raises(ValueError, match="state"):
        fix_lookup("2", "10", "functional")
    with pytest.raises(ValueError, match="phase"):
        fix_lookup("10", "11", "later")


def _slots(layout):
    """The layout's nodes of each type, as `camouflage_skeleton` hands them to `_pair_states`."""
    return {t: layout.indices(t) for t in NodeType}


def test_position_space_mapping():
    PI, AND, PO = NodeType.PI, NodeType.AND, NodeType.PO
    layout = AigGraph(types=[PI, PI, AND, AND, PO],
                      edges=[(0, 2, False), (1, 2, True), (1, 3, False),
                             (2, 3, False), (3, 4, False)])
    # g has one PI (node 3) and one AND (node 5) more than the layout; the
    # k-th node of each type in g takes the layout's k-th node of that type
    g = AigGraph(types=[PI, AND, PI, PI, AND, AND, PO],
                 edges=[(0, 1, False),   # PI 0 -> AND 0: slots (0, 2)
                        (2, 1, True),    # PI 1 -> AND 0: slots (1, 2), inverted
                        (0, 2, False),   # into a PI slot: dropped
                        (3, 4, False),   # from the surplus PI: dropped
                        (1, 4, True),    # AND 0 -> AND 1: slots (2, 3)
                        (4, 5, False),   # into the surplus AND: dropped
                        (5, 6, False),   # from the surplus AND: dropped
                        (4, 6, False)])  # AND 1 -> PO: slots (3, 4)
    assert _pair_states(g, _slots(layout)) == {
        (0, 2): "10", (1, 2): "11", (2, 3): "11", (3, 4): "10"}


def test_pair_states_drops_backward_edges():
    """An edge of g that maps backward on the layout is dropped, not turned
    around: an AND into a PI, the PO into an AND or into a PI."""
    PI, AND, PO = NodeType.PI, NodeType.AND, NodeType.PO
    layout = AigGraph(types=[PI, PI, AND, AND, PO],
                      edges=[(0, 2, False), (1, 2, True), (1, 3, False),
                             (2, 3, False), (3, 4, False)])
    # g's nodes take slots PI 0 -> 0, AND 1 -> 2, PO 2 -> 4, PI 3 -> 1, AND 4 -> 3
    g = AigGraph(types=[PI, AND, PO, PI, AND],
                 edges=[(0, 1, False),   # slots (0, 2)
                        (1, 3, False),   # AND into a PI, slots 2 -> 1: dropped
                        (1, 2, True),    # slots (2, 4), inverted
                        (2, 3, True),    # the PO into a PI, slots 4 -> 1: dropped
                        (2, 4, False),   # the PO into an AND, slots 4 -> 3: dropped
                        (3, 4, False),   # slots (1, 3)
                        (0, 3, False)])  # into a PI slot: dropped
    assert _pair_states(g, _slots(layout)) == {(0, 2): "10", (2, 4): "11", (1, 3): "10"}


def test_pair_states_records_polarity():
    PI, AND, PO = NodeType.PI, NodeType.AND, NodeType.PO
    layout = AigGraph(types=[PI, PI, AND, AND, PO],
                      edges=[(0, 2, False), (1, 2, True), (1, 3, False),
                             (2, 3, False), (3, 4, False)])
    assert _pair_states(layout, _slots(layout)) == {
        (0, 2): "10", (1, 2): "11", (1, 3): "10", (2, 3): "10", (3, 4): "10"}
    g = random_tree(np.random.default_rng(2), 3, n_pi_pool=4)
    states = _pair_states(g, _slots(g))
    assert len(states) == len(g.edges)
    assert set(states.values()) <= {"10", "11"}
    assert sorted(v == "11" for v in states.values()) == sorted(
        inv for _, _, inv in g.edges)


def _kinds(incoming):
    """(source slot, slot) -> the kind wired on that pair."""
    return {(u, v): kind for v, ins in incoming.items() for u, kind, _ in ins}


def test_functional_preserve_actions():
    g_states = {(0, 2): "10", (1, 2): "11", (2, 4): "10"}
    f_states = {(0, 2): "11", (1, 3): "10", (3, 4): "10"}
    incoming, log = fix_pairs(g_states, f_states, {})  # no target: phase 1 only
    assert incoming == {2: [(0, "ut_b", True), (1, "fi", False)],
                        3: [(1, "wire", True)],
                        4: [(2, "fb", False), (3, "wire", True)]}
    # one row per pair, in pair order, naming the kind wired on it
    assert [tuple(e["pair"]) for e in log] == sorted(_kinds(incoming))
    assert {tuple(e["pair"]): e["action"] for e in log} == _kinds(incoming)
    assert log[0] == {"pair": [0, 2], "states": ["10", "11", "00"], "action": "ut_b"}
    # phase 2 sees the new connection (1, 3) as wired: an inverted target
    # makes it a camouflaged NAND, not a fake inverter on an empty pair
    incoming, log = fix_pairs(g_states, f_states, {(1, 3): "11"})
    assert incoming[3] == [(1, "ut_a", True)]
    assert log[2] == {"pair": [1, 3], "states": ["00", "10", "11"], "action": "ut_a"}
    assert {tuple(e["pair"]): e["action"] for e in log} == _kinds(incoming)


def test_appearance_mimic_respects_function():
    g_states = {(0, 2): "10", (1, 2): "11"}
    f_states = {(0, 2): "10", (1, 2): "10"}  # phase 1: a wire and a UT-A
    a_states = {(0, 2): "11", (1, 2): "10", (1, 3): "10"}
    incoming, log = fix_pairs(g_states, f_states, a_states)
    # (1, 2) is already a camouflaged NAND and stays one
    assert incoming == {2: [(0, "ut_a", True), (1, "ut_a", True)],
                        3: [(1, "fb", False)]}
    assert {tuple(e["pair"]): e["action"] for e in log} == _kinds(incoming)
    assert log[1] == {"pair": [1, 2], "states": ["11", "10", "10"], "action": "ut_a"}


PAIR_STATES = ("00", "10", "11")  # absent, a wire, an inverted wire


def _closed_form(sg, sf, sa):
    """The kind the fix pass wires on a pair, in closed form."""
    ut = {"10": "ut_a", "11": "ut_b"}
    if sf != "00":  # an edge of F carries a real signal
        if {sg, sa} <= {"00", sf}:
            return "wire" if sf == "10" else "inv"
        return ut[sf]
    if sg == sa == "00":
        return None
    if "00" not in (sg, sa) and sg != sa:
        return ut[sg]
    return {"10": "fb", "11": "fi"}[sg if sg != "00" else sa]


def test_pair_rules_match_the_closed_form():
    assert len(PAIR_RULES) == 27
    for states in itertools.product(PAIR_STATES, repeat=3):
        assert PAIR_RULES[states] == _closed_form(*states), states


def test_pair_rules_cell_computes_f_literal():
    """Each pair's cell, drawn and realized, computes F's literal on an edge
    of F and the constant 1 elsewhere: the per-pair half of realize == F."""
    for states in itertools.product(PAIR_STATES, repeat=3):
        kind, sf = PAIR_RULES[states], states[1]
        assert kind is not None or sf == "00", states
        c = Circuit()
        c.add("x", "input")
        c.add("d", "input")
        out, placements = "y", []
        if kind is None:  # no wiring: the AND the pair feeds reads a 1
            c.add(out, "const1")
        elif kind == "wire":
            out = "x"
        elif kind == "inv":
            c.add(out, "not", "x")
        else:
            gk = CovertGateKind[kind.upper()]
            cfg = CovertConfig.NORMAL if sf != "00" else CovertConfig.CONST1
            placements.append(draw_cell(c, gk, cfg, out, "x", "d" if gk.decoy else None))
        c.outputs = [out]
        fab = realize(c, placements)
        for x in (0, 1):
            for d in (0, 1):
                want = {"10": x, "11": 1 - x, "00": 1}[sf]
                assert fab.evaluate({"x": x, "d": d})[out] == want, (states, x, d)


def _toy_pair(seed):
    rng = np.random.default_rng(seed)
    return (random_tree(rng, 4, n_pi_pool=5), random_tree(rng, 5, n_pi_pool=5))


def _desk_pair(seed):
    rng = np.random.default_rng(seed)
    return (random_tree(rng, 82, n_pi_pool=10), random_tree(rng, 82, n_pi_pool=10))


def test_skeleton_fan_in_on_the_desk_grid(toy_checkpoint):
    """Decoded as an AIG, every desk skeleton at ac04's Th list and at Th 0.3
    and 0.5 gives each AND at most two fan-ins, the PO one and a PI none,
    for p 0, 0.5 and 1."""
    params, _ = toy_checkpoint
    ths = [round(0.01 * k, 2) for k in range(1, 10)] + [0.3, 0.5]
    for seed in (100, 101, 102, 103):
        f, a = _desk_pair(seed)
        z_f, z_a = encode(f, params).mu, encode(a, params).mu
        n = pad_to_match(f, a).n  # the layout's node count
        for p in (0.0, 0.5, 1.0):
            soft = decode(interpolate(z_f, z_a, p), n, params)
            for th in ths:
                g = from_tensors(threshold_filter(soft, th))
                fan_in = np.bincount([d for _, d, _ in g.edges], minlength=g.n)
                assert fan_in[g.indices(NodeType.AND)].max() <= 2, (seed, p, th)
                assert fan_in[g.indices(NodeType.PO)].tolist() == [1], (seed, p, th)
                assert fan_in[g.indices(NodeType.PI)].sum() == 0, (seed, p, th)


def test_fix_log_counts_the_cells_built(toy_checkpoint):
    """On every desk pair, each covert action is logged once per placement
    of its kind, so the log names only cells the netlist contains."""
    params, _ = toy_checkpoint
    for idx, seed in enumerate((100, 101, 102, 103)):
        f, a = _desk_pair(seed)
        for th in (0.05, 0.5):
            nl = camouflage_pipeline(f, a, params, p=0.5, th=th, seed=idx)
            for kind in CovertGateKind:
                logged = sum(e["action"] == kind.name.lower() for e in nl.fix_log)
                placed = sum(p.kind is kind for p in nl.placements)
                assert logged == placed, (seed, th, kind)


@pytest.mark.parametrize("p,th", [(0.0, 0.01), (0.5, 0.05), (1.0, 0.5)])
def test_pipeline_builds_every_slot_of_the_layout(toy_checkpoint, p, th):
    """Each AND slot of F padded to A is built, the fix log stays on the
    layout, and nothing in the view floats."""
    params, _ = toy_checkpoint
    pairs = [_toy_pair(s) for s in (10, 11)] + [_desk_pair(s) for s in (100, 101, 102, 103)]
    for f, a in pairs:
        fp = normalize(pad_to_match(f, a))
        nl = camouflage_pipeline(f, a, params, p=p, th=th, seed=1)
        view = nl.appearance_view
        for i in fp.and_indices:
            body = view.gates[f"g{i}"]
            assert body.op == "and" and body.ins
        for e in nl.fix_log:
            assert max(e["pair"]) < fp.n and e["action"] is not None
        assert list(prune(view).gates.items()) == list(view.gates.items())


def test_pipeline_preserves_function(toy_checkpoint):
    params, _ = toy_checkpoint
    f, a = _toy_pair(10)
    nl = camouflage_pipeline(f, a, params, p=0.5, th=0.05, seed=3)
    assert equivalence_check(realize(nl.appearance_view, nl.placements), f)
    # the appearance view is a well-formed circuit covering the real function
    assign = {n: 0 for n in nl.appearance_view.inputs}
    nl.appearance_view.evaluate(assign)
    for key in ("p", "th", "seed", "checkpoint_sha256", "baseline_cells"):
        assert key in nl.metadata
    assert area_overhead(nl) > 0


def test_skeleton_core_needs_no_checkpoint():
    """The fix pass alone, on the empty skeleton and on F and A padded to
    each other, builds a netlist whose fabricated circuit computes F; all
    three give the same appearance view and placements."""
    for idx, seed in enumerate((100, 101, 102, 103)):
        f, a = _desk_pair(seed)
        built = []
        for g_hat in (AigGraph([], []), normalize(pad_to_match(f, a)),
                      normalize(pad_to_match(a, f))):
            nl = camouflage_skeleton(f, a, g_hat, seed=idx)
            assert equivalence_check(realize(nl.appearance_view, nl.placements), f)
            assert CamouflagedNetlist.from_json(nl.to_json()).to_json() == nl.to_json()
            assert nl.metadata["g_hat_nodes"] == g_hat.n
            built.append((nl.appearance_view.gates, nl.placements))
        assert built[0] == built[1] == built[2], seed


def test_functional_view_is_f_on_the_layout_names(toy_checkpoint):
    params, _ = toy_checkpoint
    for f, a in (_toy_pair(10), _toy_pair(11), _desk_pair(100)):
        fp = normalize(pad_to_match(f, a))
        nl = camouflage_pipeline(f, a, params, p=0.5, th=0.05, seed=1)
        view = nl.functional_view
        assert same_structure(view, normalize(f))
        first = len(fp.pi_indices)  # F's k-th AND is the layout's slot first + k
        assert view.names == [f.names[i] for i in f.pi_indices] + [
            f"g{first + k}" for k in range(len(f.and_indices))] + f.po_names
        assert set(view.names) <= set(nl.appearance_view.gates)


def test_skeleton_of_f_with_names_like_the_nets_it_builds():
    """F's inputs and output named like the slot, wiring and key nets the
    build makes: the netlist computes F when realized and under its correct
    key, reloads, and its functional view names F's ANDs with the AND nets
    of its appearance view."""
    f, a = _toy_pair(10)
    first = len(normalize(pad_to_match(f, a)).pi_indices)  # F's first AND slot
    rename = dict(zip(f.pi_names, [f"g{first}", "key0", f"g{first + 1}_e0",
                                   f"g{first}_1"]))
    f.names = [rename.get(n, n) for n in f.names]
    f.names[f.po_indices[0]] = f"g{first + 2}"
    assert len(set(rename.values()) & set(f.pi_names)) == 4
    for g_hat in (AigGraph([], []), normalize(pad_to_match(f, a))):
        nl = camouflage_skeleton(f, a, g_hat, seed=1)
        assert equivalence_check(realize(nl.appearance_view, nl.placements), f)
        kn = keyize_netlist(nl)
        assert equivalence_check(kn.under(kn.correct_key), f)
        assert CamouflagedNetlist.from_json(nl.to_json()).to_json() == nl.to_json()
        view = nl.functional_view
        assert equivalence_check(view, f)
        ands = [view.names[i] for i in view.and_indices]
        assert ands[0] == f"g{first}_2"
        assert all(nl.appearance_view.gates[n].op == "and" for n in ands)
        assert set(view.names) <= set(nl.appearance_view.gates)


def test_skeleton_keeps_a_pi_named_like_a_pad_apart():
    # F's input `dummy_pi0` and the first pad PI are two inputs of the look
    f = AigGraph([NodeType.PI, NodeType.PI, NodeType.AND, NodeType.PO],
                 [(0, 2, False), (1, 2, True), (2, 3, False)], ["dummy_pi0", "b", None, "y"])
    a = random_tree(np.random.default_rng(1), 6)
    nl = camouflage_skeleton(f, a, AigGraph([], []))
    assert len(nl.appearance_view.inputs) == len(a.pi_indices) == 7
    assert "dummy_pi0_1" in nl.appearance_view.inputs
    assert equivalence_check(realize(nl.appearance_view, nl.placements), f)


def test_keyed_netlist_computes_f_under_the_correct_key(toy_checkpoint):
    """The built netlist, not the functional view: keyed under its correct
    key, and realized with each covert cell's real gate, each desk cell
    computes F on all 2^10 patterns of its inputs."""
    params, _ = toy_checkpoint
    for idx, seed in enumerate((100, 101, 102, 103)):
        f, a = _desk_pair(seed)
        pis = f.pi_names
        words, full = pattern_words(len(pis))
        payload = dict(zip(pis, words))
        want = CompiledCircuit(from_aig(f)).run(payload, full)
        for p in (0.1, 0.9):
            for th in (0.01, 0.05, 0.09, 0.5):
                nl = camouflage_pipeline(f, a, params, p, th, seed=idx)
                kn = keyize_netlist(nl)
                key = {k: full if b else 0 for k, b in zip(kn.key_inputs, kn.correct_key)}
                assert set(kn.circuit.inputs) == set(pis) | set(key)
                fab = prune(realize(nl.appearance_view, nl.placements))
                assert set(fab.inputs) <= set(pis)
                got = CompiledCircuit(kn.circuit).run(payload | key, full)
                assert got == want, (seed, p, th)
                assert CompiledCircuit(fab).run(payload, full) == want, (seed, p, th)


def test_checkpoint_sha256_follows_the_weights(toy_checkpoint, tmp_path):
    from ipcamo.vae import load_vae, save_vae
    params, _ = toy_checkpoint
    digest = checkpoint_sha256(params)
    save_vae(params, str(tmp_path / "ckpt.json"))
    assert checkpoint_sha256(load_vae(str(tmp_path / "ckpt.json"))) == digest
    w = params.dec_init_b.data
    old = w.flat[0]
    try:
        w.flat[0] = np.nextafter(old, np.inf)
        assert checkpoint_sha256(params) != digest
    finally:
        w.flat[0] = old
    assert checkpoint_sha256(params) == digest


def test_pipeline_deterministic_json(toy_checkpoint):
    params, _ = toy_checkpoint
    f, a = _toy_pair(11)
    j1 = camouflage_pipeline(f, a, params, p=0.3, th=0.02, seed=7).to_json()
    j2 = camouflage_pipeline(f, a, params, p=0.3, th=0.02, seed=7).to_json()
    assert j1 == j2
    again = CamouflagedNetlist.from_json(j1)
    assert again.to_json() == j1
    with pytest.raises(ValueError, match="format"):
        CamouflagedNetlist.from_json('{"format": "other"}')


def test_grid_matches_single_cells(toy_checkpoint, monkeypatch):
    """The grid yields, p-major, the netlist of each one-cell pipeline call,
    from 2 encodes, one (inference) decode per p and one checkpoint hash."""
    import ipcamo.camouflage as camo
    params, _ = toy_checkpoint
    f, a = _desk_pair(100)
    ps, ths = (0.0, 0.5, 1.0), (0.05, 0.5)
    calls = dict.fromkeys(("encode", "decode", "checkpoint_sha256"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(camo, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(camo, name, counted)
    grid = [nl.to_json() for nl in camo.camouflage_grid(f, a, params, ps, ths, seed=2)]
    assert calls == {"encode": 2, "decode": 3, "checkpoint_sha256": 1}
    monkeypatch.undo()
    cells = [camouflage_pipeline(f, a, params, p, th, seed=2).to_json()
             for p in ps for th in ths]
    assert grid == cells


AC04_P = (0.1, 0.3, 0.5, 0.7, 0.9)
AC04_TH = tuple(round(0.01 * k, 2) for k in range(1, 10))


def _full_decode_cells(f, a, params, ps, ths, seed):
    """Each (p, Th) netlist by the full decode, every inversion scored:
    camouflage_skeleton(f, a, from_tensors(threshold_filter(decode(...), th)), seed)."""
    z_f, z_a = encode(f, params).mu, encode(a, params).mu
    n = pad_to_match(f, a).n
    for p in ps:
        soft = decode(interpolate(z_f, z_a, p), n, params)
        for th in ths:
            yield camouflage_skeleton(f, a, from_tensors(threshold_filter(soft, th)), seed)


def test_grid_equals_the_full_decode_path(toy_checkpoint):
    """Scoring inversions only at the fan-in budget's picks changes no
    netlist: on the desk pairs over ac04's (p, Th) grid and on seeded small
    pairs, each grid cell's netlist equals the full decode's byte for byte.
    The toy checkpoint keeps no inverted edge (its inversion scores at the
    picks stay below 0.34), so the grid also runs on a copy whose inversion
    head's output bias is raised by 2, which inverts about half the picks."""
    params, _ = toy_checkpoint
    inverting = copy.deepcopy(params)
    inverting.mlp_inv.layers[-1][1].data += 2.0
    pairs = ([_desk_pair(s) for s in (100, 101, 102, 103)]
             + [_toy_pair(s) for s in range(20, 28)])
    cells = inverted = inverted_po = 0
    for model in (params, inverting):
        for idx, (f, a) in enumerate(pairs):
            got = camouflage_grid(f, a, model, AC04_P, AC04_TH, seed=idx)
            want = _full_decode_cells(f, a, model, AC04_P, AC04_TH, seed=idx)
            for nl, ref in zip(got, want, strict=True):
                for key in ("p", "th", "latent_dim", "checkpoint_sha256"):
                    del nl.metadata[key]
                assert nl.to_json() == ref.to_json(), (idx, cells)
                po_slot = ref.metadata["padded_nodes"] - 1
                for e in ref.fix_log:  # the skeleton's inverted edges
                    if e["states"][0] == "11":
                        inverted += 1
                        inverted_po += e["pair"][1] == po_slot
                cells += 1
    assert cells == 2 * len(pairs) * len(AC04_P) * len(AC04_TH)
    assert inverted > 0 and inverted_po > 0, (inverted, inverted_po)


def test_pipeline_rejects_non_trees(toy_checkpoint):
    params, _ = toy_checkpoint
    f, a = _toy_pair(12)
    dag = AigGraph(types=[NodeType.PI, NodeType.AND, NodeType.AND, NodeType.PO],
                   edges=[(0, 1, False), (0, 2, False), (1, 3, False),
                          (1, 2, True), (2, 3, False)])
    # canonical with n - 1 edges, but the AND reads PI 0 twice and PI 1 floats
    repeated = AigGraph(types=[NodeType.PI, NodeType.PI, NodeType.AND, NodeType.PO],
                        edges=[(0, 2, False), (0, 2, True), (2, 3, False)])
    for bad in (dag, repeated):
        with pytest.raises(ValueError, match="tree"):
            camouflage_pipeline(bad, a, params, p=0.5, th=0.05)
        with pytest.raises(ValueError, match="tree"):
            camouflage_pipeline(f, bad, params, p=0.5, th=0.05)
        with pytest.raises(ValueError, match="functional target"):
            camouflage_skeleton(bad, a, AigGraph([], []))
        with pytest.raises(ValueError, match="appearance target"):
            camouflage_skeleton(f, bad, AigGraph([], []))


def test_area_overhead_requires_metadata():
    nl = CamouflagedNetlist(functional_view=None, appearance_view=None,
                            placements=[], fix_log=[], metadata={})
    with pytest.raises(ValueError, match="baseline_cells"):
        area_overhead(nl)
