"""AIG data model, AIGER I/O, cones, tensors, simulation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipcamo.aig import (AigGraph, AigerParseError, NodeType, extract_cone_tree,
                        from_tensors, normalize, pad_to_match, parse_aiger,
                        random_tree, simulate, to_tensors, truth_table,
                        write_aiger)

# a & ~b, i.e. aag: 1=a, 2=b, 3=and
SIMPLE_AAG = """aag 3 2 0 1 1
2
4
6
6 2 5
i0 a
i1 b
o0 y
"""


def simple_graph():
    return parse_aiger(SIMPLE_AAG)


def test_parse_simple():
    g = simple_graph()
    assert g.types == [NodeType.PI, NodeType.PI, NodeType.AND, NodeType.PO]
    assert g.names[:2] == ["a", "b"]
    assert g.po_names == ["y"]
    assert sorted(g.edges) == [(0, 2, False), (1, 2, True), (2, 3, False)]
    assert g.is_canonical and g.is_tree()


def test_simulate_and_truth_table():
    g = simple_graph()
    # y = a AND (NOT b)
    assert simulate(g, {"a": 1, "b": 0}) == {"y": 1}
    assert simulate(g, {"a": 1, "b": 1}) == {"y": 0}
    assert simulate(g, {"a": 0, "b": 0}) == {"y": 0}
    # rows in lexicographic (a, b) order: 00 01 10 11
    assert truth_table(g).tolist() == [0, 0, 1, 0]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 10))
def test_truth_table_rows_match_simulate(seed, n_ands):
    g = random_tree(np.random.default_rng(seed), n_ands, n_pi_pool=8)
    pis = g.pi_names
    table = truth_table(g)
    for idx in range(2 ** len(pis)):
        assign = {n: (idx >> (len(pis) - 1 - k)) & 1 for k, n in enumerate(pis)}
        assert table[idx] == simulate(g, assign)[g.po_names[0]]


def test_dummy_and_evaluates_to_one():
    # PI 0 unused; AND 1 has no fan-in; PO 2 reads it: not canonical, so
    # the simulator refuses it instead of evaluating the empty AND
    g = AigGraph([NodeType.PI, NodeType.AND, NodeType.PO], [(1, 2, False)],
                 ["a", None, "y"])
    with pytest.raises(ValueError, match="not canonical"):
        simulate(g, {"a": 0})
    with pytest.raises(ValueError, match="not canonical"):
        truth_table(g)


def test_simulate_missing_pi():
    with pytest.raises(KeyError):
        simulate(simple_graph(), {"a": 1})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(AigerParseError, match="line 1"):
        parse_aiger("not a header\n")
    with pytest.raises(AigerParseError, match="latch"):
        parse_aiger("aag 3 1 1 1 0\n2\n4 6\n4\n")
    with pytest.raises(AigerParseError, match="dangling"):
        parse_aiger("aag 3 1 0 1 1\n2\n6\n6 2 8\n")
    with pytest.raises(AigerParseError, match="cyclic"):
        parse_aiger("aag 3 1 0 1 2\n2\n4\n4 6 2\n6 4 2\n")
    with pytest.raises(AigerParseError, match="constant"):
        parse_aiger("aag 2 1 0 1 1\n2\n4\n4 2 1\n")


def test_aiger_roundtrip_simple():
    g = simple_graph()
    again = parse_aiger(write_aiger(g))
    assert normalize(g).structurally_equal(normalize(again))
    assert again.names[:2] == ["a", "b"]


def test_write_rejects_non_canonical():
    g = AigGraph(types=[NodeType.PI, NodeType.AND, NodeType.PO],
                 edges=[(0, 1, False), (1, 2, False)])  # AND in-degree 1
    with pytest.raises(ValueError, match="not canonical"):
        write_aiger(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_random_tree_aiger_roundtrip(seed, n_ands):
    g = random_tree(np.random.default_rng(seed), n_ands)
    assert g.is_tree()
    again = parse_aiger(write_aiger(normalize(g)))
    assert normalize(g).structurally_equal(normalize(again))
    # function survives the roundtrip
    assert truth_table(g).tolist() == truth_table(again,
                                                  pi_order=g.pi_names).tolist()


def shared_node_dag():
    # two POs over a shared AND: y0 = (a&b), y1 = (a&b)&c
    return AigGraph(
        types=[NodeType.PI, NodeType.PI, NodeType.PI, NodeType.AND,
               NodeType.AND, NodeType.PO, NodeType.PO],
        edges=[(0, 3, False), (1, 3, False), (2, 4, False), (3, 4, False),
               (3, 5, False), (4, 6, True)],
        names=["a", "b", "c", None, None, "y0", "y1"],
    )


def test_cone_extraction_duplicates_shared_logic():
    g = shared_node_dag()
    t0 = extract_cone_tree(g, "y0")
    assert t0 is not None and t0.is_tree()
    assert t0.type_counts()[NodeType.AND] == 1
    t1 = extract_cone_tree(g, "y1")
    assert t1 is not None and t1.is_tree()
    # cone behavior matches the original output
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                full = simulate(g, {"a": a, "b": b, "c": c})
                assert simulate(t1, {"a": a, "b": b, "c": c})["y1"] == full["y1"]


def test_cone_extraction_max_nodes_rejection():
    g = shared_node_dag()
    assert extract_cone_tree(g, "y1", max_nodes=4) is None
    with pytest.raises(KeyError):
        extract_cone_tree(g, "nope")


def test_tensor_roundtrip():
    g = simple_graph()
    t = to_tensors(g)
    assert t.is_binary()
    assert t.type_mat.shape == (4, 3)
    assert np.triu(t.conn_mat).sum() == 0  # strictly lower triangular
    assert g.structurally_equal(from_tensors(t))


def test_from_tensors_drops_orphan_inverter_bits():
    t = to_tensors(simple_graph())
    t.inv_mat[3, 0] = 1.0  # inverter without a connection
    with pytest.warns(UserWarning, match="dropped 1 inverter"):
        g = from_tensors(t)
    assert g.structurally_equal(simple_graph())


def test_pad_to_match():
    small = random_tree(np.random.default_rng(0), 2)
    big = random_tree(np.random.default_rng(1), 6)
    padded = pad_to_match(small, big)
    for t in (NodeType.PI, NodeType.AND):
        assert padded.type_counts()[t] == max(small.type_counts()[t],
                                              big.type_counts()[t])
    assert padded.type_counts()[NodeType.PO] == 1
    assert sum(padded.dummy) == padded.n - small.n
    # padding is function-preserving: dummies are isolated
    assert padded.edges == small.edges
    dummies = {i for i, d in enumerate(padded.dummy) if d}
    assert not any(s in dummies or d in dummies for s, d, _ in padded.edges)


def test_pad_rejects_po_mismatch():
    g = shared_node_dag()
    with pytest.raises(ValueError, match="PO counts"):
        pad_to_match(extract_cone_tree(g, "y0"), g)


def test_json_roundtrip():
    g = random_tree(np.random.default_rng(5), 4)
    again = AigGraph.from_json(g.to_json())
    assert again.structurally_equal(g)
    assert again.names == g.names


def test_normalize_layout():
    g = simple_graph()
    n = normalize(g)
    kinds = [t for t in n.types]
    assert kinds == sorted(kinds, key=lambda t: {NodeType.PI: 0, NodeType.AND: 1,
                                                 NodeType.PO: 2}[t])
    assert truth_table(n, pi_order=g.pi_names).tolist() == truth_table(g).tolist()
