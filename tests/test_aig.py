"""AIG data model, AIGER I/O, cones, tensors, simulation."""
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipcamo.aig import (AigGraph, AigerParseError, NodeType, TensorTriple,
                        extract_cone_tree, from_tensors, normalize, pad_to_match, parse_aiger,
                        random_tree, to_tensors, write_aiger)
from ipcamo.gatelevel import CompiledCircuit, from_aig
from reference_tools import same_structure, truth_table

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
    assert from_aig(g).evaluate({"a": 1, "b": 0}) == {"y": 1}
    assert from_aig(g).evaluate({"a": 1, "b": 1}) == {"y": 0}
    assert from_aig(g).evaluate({"a": 0, "b": 0}) == {"y": 0}
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
        assert table[idx] == from_aig(g).evaluate(assign)[g.po_names[0]]


def test_dummy_and_evaluates_to_one():
    # PI 0 unused; AND 1 has no fan-in; PO 2 reads it: not canonical, so
    # the simulator refuses it instead of evaluating the empty AND
    g = AigGraph([NodeType.PI, NodeType.AND, NodeType.PO], [(1, 2, False)],
                 ["a", None, "y"])
    with pytest.raises(ValueError, match="not canonical"):
        from_aig(g).evaluate({"a": 0})
    with pytest.raises(ValueError, match="not canonical"):
        truth_table(g)


def test_pi_named_like_an_and_net():
    # PI "n2" and AND node 2 would share the net name n2
    g = AigGraph([NodeType.PI, NodeType.PI, NodeType.AND, NodeType.PO],
                 [(0, 2, False), (1, 2, True), (2, 3, False)], ["a", "n2", None, "y"])
    assert g.is_canonical
    assert from_aig(g).evaluate({"a": 1, "n2": 0}) == {"y": 1}
    assert from_aig(g).evaluate({"a": 1, "n2": 1}) == {"y": 0}
    assert truth_table(g).tolist() == [0, 0, 1, 0]


def test_po_name_clash_is_an_issue():
    g = AigGraph([NodeType.PI, NodeType.PO, NodeType.PO],
                 [(0, 1, False), (0, 2, True)], ["a", "a", "y"])
    assert g.issues() == ["PO node 1 reuses the name 'a'"]
    g.names[1:] = ["y", "y"]
    assert g.issues() == ["PO node 2 reuses the name 'y'"]
    with pytest.raises(ValueError, match="not canonical"):
        from_aig(g).evaluate({"a": 1})


def test_parse_default_names_avoid_symbol_names():
    """An unnamed input (output) takes pi{k} (po{k}), or else the first
    pi{k}_{j} that no symbol entry names, so two inputs stay two."""
    g = parse_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 2 5\ni0 pi1\n")
    assert g.pi_names == ["pi1", "pi1_1"] and g.po_names == ["po0"]
    assert truth_table(g).tolist() == [0, 0, 1, 0]  # x1 and not x2
    g = parse_aiger("aag 1 1 0 1 0\n2\n2\ni0 po0\n")
    assert g.po_names == ["po0_1"] and g.is_canonical


def test_default_names_avoid_given_names():
    """An unnamed PI (PO) k takes fresh_name(f"pi{k}") (`po{k}`) beside every
    name the graph was given, so two inputs stay two."""
    g = AigGraph([NodeType.PI, NodeType.PI, NodeType.AND, NodeType.PO],
                 [(0, 2, False), (1, 2, True), (2, 3, False)], [None, "pi0", None, "y"])
    assert g.names == ["pi0_1", "pi0", None, "y"] and g.is_canonical
    assert truth_table(g).tolist() == [0, 0, 1, 0]  # x0 and not x1
    assert from_aig(g).evaluate({"pi0_1": 1, "pi0": 0}) == {"y": 1}
    g = AigGraph([NodeType.PI, NodeType.PO], [(0, 1, False)], ["po0", None])
    assert g.names == ["po0", "po0_1"] and g.is_canonical


def test_simulate_missing_pi():
    with pytest.raises(KeyError):
        from_aig(simple_graph()).evaluate({"a": 1})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(AigerParseError, match="line 1"):
        parse_aiger("not a header\n")
    with pytest.raises(AigerParseError, match="latch"):
        parse_aiger("aag 3 1 1 1 0\n2\n4 6\n4\n")
    with pytest.raises(AigerParseError, match="dangling"):
        parse_aiger("aag 4 1 0 1 1\n2\n6\n6 2 8\n")
    with pytest.raises(AigerParseError, match="cyclic"):
        parse_aiger("aag 3 1 0 1 2\n2\n4\n4 6 2\n6 4 2\n")
    with pytest.raises(AigerParseError, match="constant"):
        parse_aiger("aag 2 1 0 1 1\n2\n4\n4 2 1\n")


@pytest.mark.parametrize("text,line", [
    ("aag 3 2 0 1 2\n2\n4\n6\n6 2 4\n6 3 5\n", 6),  # an AND defined twice
    ("aag 3 2 0 1 2\n2\n4\n6\n6 2 4\n4 2 2\n", 6),  # an AND redefines an input
    ("aag 2 2 0 1 1\n2\n2\n4\n4 2 3\n", 3),          # an input listed twice
], ids=["and-twice", "and-redefines-input", "input-twice"])
def test_parse_rejects_literals_defined_twice(text, line):
    with pytest.raises(AigerParseError, match="defined twice") as err:
        parse_aiger(text)
    assert err.value.line == line


@pytest.mark.parametrize("text,line", [
    ("aag 1 1 0 1 1\n2\n4\n4 2 2\n", 3),        # an output past M
    ("aag 2 1 0 1 1\n2\n4\n6 2 2\n", 4),        # an AND's output past M
    ("aag 2 1 0 1 1\n2\n4\n4 2 7\n", 4),        # an AND's input past M
    ("aag 1 2 0 1 0\n2\n4\n2\n", 3),            # an input past M
], ids=["output", "and-lhs", "and-input", "input"])
def test_parse_rejects_variables_past_m(text, line):
    with pytest.raises(AigerParseError, match="past the header's M") as err:
        parse_aiger(text)
    assert err.value.line == line


@pytest.mark.parametrize("text,line,match", [
    ("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 a\ni7 zz\n", 7, "out of range: 2 inputs"),
    ("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\no3 q\n", 6, "out of range: 1 outputs"),
    ("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 a\ni0 b\n", 7, "i0 named twice"),
    # two outputs named y: the second cone would be lost behind the first
    ("aag 3 2 0 2 1\n2\n4\n6\n7\n6 2 4\no0 y\no1 y\n", 8, "o1 repeats the name 'y' of o0"),
    ("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni1 b\no0 b\n", 7, "o0 repeats the name 'b' of i1"),
    ("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\no0 b\ni1 b\n", 7, "i1 repeats the name 'b' of o0"),
], ids=["input-past-count", "output-past-count", "input-named-twice", "output-repeats-output",
        "output-repeats-input", "input-repeats-output"])
def test_parse_rejects_bad_symbols(text, line, match):
    with pytest.raises(AigerParseError, match=match) as err:
        parse_aiger(text)
    assert err.value.line == line


# PI1 is read by nothing, and the AND reads PI0 twice: y = a & ~a = 0
REPEATED_FAN_IN = AigGraph(
    types=[NodeType.PI, NodeType.PI, NodeType.AND, NodeType.PO],
    edges=[(0, 2, False), (0, 2, True), (2, 3, False)])


def test_is_tree_rejects_repeated_fan_in():
    assert REPEATED_FAN_IN.is_canonical
    assert len(REPEATED_FAN_IN.edges) == REPEATED_FAN_IN.n - 1
    assert not REPEATED_FAN_IN.is_tree()
    po_feeds = AigGraph(types=[NodeType.PI, NodeType.PO, NodeType.PI, NodeType.AND],
                        edges=[(0, 1, False), (1, 3, False), (2, 3, False)])
    assert not po_feeds.is_tree()  # a PO that feeds an AND


def test_is_tree_accepts_random_trees():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for n_ands in (1, 2, 5, 13, 40, 82):
            for pool in (1, 6, 10):  # one shared leaf name up to many
                assert random_tree(rng, n_ands, n_pi_pool=pool).is_tree()


# a shared AND (8) read by two gates and an output, and an AND (14) that
# reads one literal twice; every output cone is a tree after duplication
SHARED_FANOUT_AAG = """aag 7 3 0 3 4
2
4
6
8
12
15
8 2 4
10 8 6
12 10 9
14 12 12
i0 a
i1 b
i2 c
o0 y0
o1 y1
o2 y2
"""


def test_cone_trees_of_shared_fanout_aag_are_trees():
    g = parse_aiger(SHARED_FANOUT_AAG)
    assert not g.is_tree()
    assignments = [dict(zip("abc", bits)) for bits in np.ndindex(2, 2, 2)]
    for name in g.po_names:
        cone = extract_cone_tree(g, name)
        assert cone is not None and cone.is_tree(), name
        for assign in assignments:
            assert from_aig(cone).evaluate(assign)[name] == from_aig(g).evaluate(assign)[name]


def test_aiger_roundtrip_simple():
    g = simple_graph()
    again = parse_aiger(write_aiger(g))
    assert same_structure(normalize(g), normalize(again))
    assert again.names[:2] == ["a", "b"]


def test_write_rejects_non_canonical():
    g = AigGraph(types=[NodeType.PI, NodeType.AND, NodeType.PO],
                 edges=[(0, 1, False), (1, 2, False)])  # AND in-degree 1
    with pytest.raises(ValueError, match="not canonical"):
        write_aiger(g)


def test_every_aig_reader_refuses_a_non_canonical_graph_alike():
    """The lowering, the compiler, the tensor encoding and the AIGER writer
    raise check_canonical's one message, which lists the graph's issues."""
    g = AigGraph(types=[NodeType.PI, NodeType.AND, NodeType.AND, NodeType.PO],
                 edges=[(0, 1, False), (0, 2, False), (1, 2, True), (2, 3, False)])
    want = "graph is not canonical: AND node 1 has in-degree 1"
    for read in (AigGraph.check_canonical, from_aig, CompiledCircuit.from_aig, to_tensors,
                 write_aiger):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            read(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_random_tree_aiger_roundtrip(seed, n_ands):
    g = random_tree(np.random.default_rng(seed), n_ands)
    assert g.is_tree()
    again = parse_aiger(write_aiger(normalize(g)))
    assert same_structure(normalize(g), normalize(again))
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
                full = from_aig(g).evaluate({"a": a, "b": b, "c": c})
                assert from_aig(t1).evaluate({"a": a, "b": b, "c": c})["y1"] == full["y1"]


def test_cone_extraction_node_order():
    # post-order, fan-ins in edge order: c, then a and b under their AND
    t1 = extract_cone_tree(shared_node_dag(), "y1")
    assert t1.types == [NodeType.PI] * 3 + [NodeType.AND] * 2 + [NodeType.PO]
    assert t1.names == ["c", "a", "b", None, None, "y1"]
    assert t1.edges == [(1, 3, False), (2, 3, False), (0, 4, False), (3, 4, False),
                        (4, 5, True)]


def _chain_aag(n_ands: int) -> str:
    """y = x0 AND x1 as a chain of n_ands ANDs, each reading the one before."""
    ands = ["6 2 4"] + [f"{2 * v} {2 * v - 2} {2 + 2 * (v % 2)}" for v in range(4, n_ands + 3)]
    return "\n".join([f"aag {n_ands + 2} 2 0 1 {n_ands}", "2", "4", str(2 * n_ands + 4),
                      *ands, "i0 x0", "i1 x1", "o0 y"]) + "\n"


def test_cone_extraction_of_a_deep_chain():
    # 1,500 levels: deeper than Python's default recursion limit
    g = parse_aiger(_chain_aag(1500))
    tree = extract_cone_tree(g, "y", max_nodes=10_000)
    assert tree is not None and tree.is_tree() and tree.n == 3002
    assert tree.type_counts()[NodeType.AND] == 1500
    assert extract_cone_tree(g, "y", max_nodes=3002).edges == tree.edges
    assert extract_cone_tree(g, "y", max_nodes=3001) is None
    for x0, x1 in np.ndindex(2, 2):
        assert from_aig(tree).evaluate({"x0": x0, "x1": x1}) == {"y": x0 & x1}


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
    assert same_structure(g, from_tensors(t))


def test_from_tensors_drops_orphan_inverter_bits():
    t = to_tensors(simple_graph())
    t.inv_mat[3, 0] = 1.0  # inverter without a connection
    with pytest.warns(UserWarning, match="dropped 1 inverter"):
        g = from_tensors(t)
    assert same_structure(g, simple_graph())


def _from_tensors_by_loops(t):
    """from_tensors' checks and edges as a double loop over the strict lower
    triangle; returns the types, the edges and the dropped inverter bits."""
    types = []
    for i in range(t.n):
        row = t.type_mat[i]
        if row.sum() != 1.0:
            raise ValueError(f"type row {i} is not one-hot: {row.tolist()}")
        types.append(NodeType(int(np.argmax(row))))
    edges, dropped = [], 0
    for i in range(t.n):
        for j in range(i):
            if t.conn_mat[i, j]:
                edges.append((j, i, bool(t.inv_mat[i, j])))
            elif t.inv_mat[i, j]:
                dropped += 1
    return types, edges, dropped


@pytest.mark.parametrize("n", [2, 7, 40, 166])
def test_from_tensors_matches_double_loop(n):
    rng = np.random.default_rng(n)
    type_mat = np.eye(3)[rng.integers(3, size=n)]
    conn = (rng.random((n, n)) < 0.3).astype(float)  # upper-triangle bits are ignored
    inv = (rng.random((n, n)) < 0.3).astype(float)
    conn[n - 1, 0], inv[n - 1, 0] = 0.0, 1.0  # at least one orphan inverter bit
    t = TensorTriple(type_mat, conn, inv)
    types, edges, dropped = _from_tensors_by_loops(t)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = from_tensors(t)
    assert [(w.category, str(w.message), w.filename) for w in caught] == [
        (UserWarning, f"dropped {dropped} inverter bit(s) without a connection bit", __file__)]
    assert g.types == types
    assert g.edges == edges
    assert all(type(s) is int and type(d) is int and type(v) is bool for s, d, v in g.edges)


def test_from_tensors_rejects_soft_triples_and_non_one_hot_rows():
    t = to_tensors(simple_graph())
    with pytest.raises(ValueError, match="^triple is not binary$"):
        from_tensors(TensorTriple(t.type_mat, t.conn_mat * 0.5, t.inv_mat))
    with pytest.raises(ValueError, match="^triple is not binary$"):
        from_tensors(TensorTriple(t.type_mat, t.conn_mat, t.inv_mat + 2.0))
    types = t.type_mat.copy()
    types[1] = 0.0
    types[3] = 1.0
    for mat, row in ((types, "1 is not one-hot: [0.0, 0.0, 0.0]"),
                     (types[[0, 3]], "1 is not one-hot: [1.0, 1.0, 1.0]")):
        with pytest.raises(ValueError, match=re.escape(f"type row {row}")):
            _from_tensors_by_loops(TensorTriple(mat, t.conn_mat, t.inv_mat))
        with pytest.raises(ValueError, match=re.escape(f"type row {row}")):
            from_tensors(TensorTriple(mat, t.conn_mat, t.inv_mat))


def test_pad_to_match():
    small = random_tree(np.random.default_rng(0), 2)
    big = random_tree(np.random.default_rng(1), 6)
    padded = pad_to_match(small, big)
    for t in (NodeType.PI, NodeType.AND):
        assert padded.type_counts()[t] == max(small.type_counts()[t],
                                              big.type_counts()[t])
    assert padded.type_counts()[NodeType.PO] == 1
    # the pads are the nodes from small.n on, PIs first, numbered from 0
    pads = range(small.n, padded.n)
    assert padded.types[:small.n] == small.types and padded.names[:small.n] == small.names
    assert [padded.names[i] for i in pads] == [
        f"dummy_{padded.types[i].name.lower()}{k}" for k, i in enumerate(pads)]
    # padding is function-preserving: pads are isolated
    assert padded.edges == small.edges
    assert not any(s in pads or d in pads for s, d, _ in padded.edges)


def test_pad_names_avoid_given_names():
    f = AigGraph([NodeType.PI, NodeType.PI, NodeType.AND, NodeType.PO],
                 [(0, 2, False), (1, 2, True), (2, 3, False)], ["dummy_pi0", "b", None, "y"])
    padded = pad_to_match(f, random_tree(np.random.default_rng(1), 6))
    assert padded.names[f.n] == "dummy_pi0_1"
    assert len(padded.pi_names) == len(padded.pi_indices)


def test_pad_rejects_po_mismatch():
    g = shared_node_dag()
    with pytest.raises(ValueError, match="PO counts"):
        pad_to_match(extract_cone_tree(g, "y0"), g)


def test_json_roundtrip():
    g = random_tree(np.random.default_rng(5), 4)
    again = AigGraph.from_json(g.to_json())
    assert same_structure(again, g)
    assert again.names == g.names


def test_from_json_rejects_a_v1_dump():
    obj = json.loads(simple_graph().to_json())
    obj.update(format="ipcamo-aig-v1", dummy=[False] * 4)
    with pytest.raises(ValueError, match="^unsupported graph dump format: 'ipcamo-aig-v1'$"):
        AigGraph.from_json(json.dumps(obj))


def test_normalize_layout():
    g = simple_graph()
    n = normalize(g)
    kinds = [t for t in n.types]
    assert kinds == sorted(kinds, key=lambda t: {NodeType.PI: 0, NodeType.AND: 1,
                                                 NodeType.PO: 2}[t])
    assert truth_table(n, pi_order=g.pi_names).tolist() == truth_table(g).tolist()
