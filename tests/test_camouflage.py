"""Interpolation, thresholding, the fix table and the end-to-end pipeline."""
import numpy as np
import pytest

from ipcamo.aig import NodeType, TensorTriple, random_tree, to_tensors
from ipcamo.camouflage import (CamouflagedNetlist, PositionSpace,
                               _pair_states, _positions, appearance_mimic,
                               area_overhead, camouflage_pipeline, edge_state,
                               fix_lookup, functional_preserve, interpolate,
                               threshold_filter)
from ipcamo.attack import equivalence_check


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
    assert edge_state(1, 0) == "10" and edge_state(1, 1) == "11"
    assert edge_state(0, 1) == "01"


def test_position_space_mapping():
    space = PositionSpace(n_pi=3, n_and=2)
    assert space.n == 6 and space.po == 5
    assert [space.type_of(i) for i in range(6)] == [
        NodeType.PI, NodeType.PI, NodeType.PI,
        NodeType.AND, NodeType.AND, NodeType.PO]
    g = random_tree(np.random.default_rng(1), 2, n_pi_pool=3)
    pos = _positions(g, PositionSpace(n_pi=len(g.pi_indices), n_and=2))
    assert len(pos) == g.n and len(set(pos)) == g.n
    with pytest.raises(ValueError, match="too few"):
        _positions(g, PositionSpace(n_pi=0, n_and=2))


def test_pair_states_records_polarity():
    g = random_tree(np.random.default_rng(2), 3, n_pi_pool=4)
    space = PositionSpace(n_pi=len(g.pi_indices), n_and=3)
    states = _pair_states(g, space)
    assert len(states) == len(g.edges)
    assert set(states.values()) <= {"10", "11"}


def test_functional_preserve_actions():
    space = PositionSpace(n_pi=2, n_and=2)
    g_states = {(0, 2): "10", (1, 2): "11", (2, 4): "10"}
    f_states = {(0, 2): "11", (1, 3): "10", (3, 4): "10"}
    real, gf, log = functional_preserve(g_states, f_states, space)
    assert real[(0, 2)]["kind"] == "ut_b" and real[(0, 2)]["functional"]
    assert real[(1, 2)] == {"kind": "fi", "functional": False}
    assert real[(1, 3)] == {"kind": "wire", "functional": True}
    assert gf[(1, 3)] == "10"  # new connection shows up in the apparent states
    assert real[(2, 4)] == {"kind": "fb", "functional": False}
    actions = {tuple(e["pair"]): e["action"] for e in log}
    assert actions[(0, 2)] == "ut_b" and actions[(3, 4)] == "connect"


def test_appearance_mimic_respects_function():
    space = PositionSpace(n_pi=2, n_and=2)
    real = {(0, 2): {"kind": "wire", "functional": True},
            (1, 2): {"kind": "ut_a", "functional": True}}
    gf = {(0, 2): "10", (1, 2): "11"}
    a_states = {(0, 2): "11", (1, 2): "10", (1, 3): "10"}
    log = appearance_mimic(gf, a_states, real, space)
    assert real[(0, 2)] == {"kind": "ut_a", "functional": True}
    assert real[(1, 3)] == {"kind": "fb", "functional": False}
    skipped = [e for e in log if e.get("skipped")]
    assert len(skipped) == 1 and skipped[0]["pair"] == [1, 2]
    assert real[(1, 2)]["kind"] == "ut_a"  # untouched


def _toy_pair(seed):
    rng = np.random.default_rng(seed)
    return (random_tree(rng, 4, n_pi_pool=5), random_tree(rng, 5, n_pi_pool=5))


def test_pipeline_preserves_function(toy_checkpoint):
    params, _ = toy_checkpoint
    f, a = _toy_pair(10)
    nl = camouflage_pipeline(f, a, params, p=0.5, th=0.05, seed=3)
    assert equivalence_check(nl.functional_view, f)
    # the appearance view is a well-formed circuit covering the real function
    assign = {n: 0 for n in nl.appearance_view.inputs}
    nl.appearance_view.evaluate(assign)
    for key in ("p", "th", "seed", "checkpoint_sha256", "baseline_cells"):
        assert key in nl.metadata
    assert area_overhead(nl) > 0


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


def test_pipeline_rejects_non_trees(toy_checkpoint):
    params, _ = toy_checkpoint
    f, a = _toy_pair(12)
    from ipcamo.aig import AigGraph
    dag = AigGraph(types=[NodeType.PI, NodeType.AND, NodeType.AND, NodeType.PO],
                   edges=[(0, 1, False), (0, 2, False), (1, 3, False),
                          (1, 2, True), (2, 3, False)])
    with pytest.raises(ValueError, match="tree"):
        camouflage_pipeline(dag, a, params, p=0.5, th=0.05)
    with pytest.raises(ValueError, match="tree"):
        camouflage_pipeline(f, dag, params, p=0.5, th=0.05)


def test_area_overhead_requires_metadata():
    nl = CamouflagedNetlist(functional_view=None, appearance_view=None,
                            placements=[], fix_log=[], metadata={})
    with pytest.raises(ValueError, match="baseline_cells"):
        area_overhead(nl)
