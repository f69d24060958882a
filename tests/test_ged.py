"""Exact GED against an independent brute-force oracle."""
import itertools

import numpy as np
import pytest

from ipcamo.aig import AigGraph, NodeType, random_tree
from ipcamo.ged import graph_edit_distance

EPS = -1


def brute_force_ged(g1: AigGraph, g2: AigGraph) -> int:
    """Enumerate every injective mapping g1 -> g2 ∪ {delete}; unit costs."""
    n1, n2 = g1.n, g2.n
    e1 = {(s, d): inv for s, d, inv in g1.edges}
    e2 = {(s, d): inv for s, d, inv in g2.edges}
    best = None
    for kept in range(0, min(n1, n2) + 1):
        for subset1 in itertools.combinations(range(n1), kept):
            for subset2 in itertools.permutations(range(n2), kept):
                mapping = dict(zip(subset1, subset2))
                cost = (n1 - kept) + (n2 - kept)  # node deletes + inserts
                cost += sum(1 for i, j in mapping.items()
                            if g1.types[i] is not g2.types[j])
                matched2 = set()
                for (a, b), inv in e1.items():
                    if a in mapping and b in mapping:
                        img = (mapping[a], mapping[b])
                        if img in e2:
                            matched2.add(img)
                            cost += int(e2[img] != inv)
                            continue
                    cost += 1  # edge deletion
                cost += len(e2) - len(matched2)  # edge insertions
                if best is None or cost < best:
                    best = cost
    return best


def tiny(types, edges):
    return AigGraph(types=list(types), edges=list(edges))


def test_identical_graphs_zero():
    g = random_tree(np.random.default_rng(0), 3)
    assert graph_edit_distance(g, g) == 0


def test_single_inversion_flip_costs_one():
    a = tiny([NodeType.PI, NodeType.PI, NodeType.AND, NodeType.PO],
             [(0, 2, False), (1, 2, False), (2, 3, False)])
    b = tiny([NodeType.PI, NodeType.PI, NodeType.AND, NodeType.PO],
             [(0, 2, False), (1, 2, True), (2, 3, False)])
    assert graph_edit_distance(a, b) == 1


def test_node_type_change_costs_one():
    a = tiny([NodeType.PI, NodeType.PO], [(0, 1, False)])
    b = tiny([NodeType.PI, NodeType.PI], [(0, 1, False)])
    assert graph_edit_distance(a, b) == 1


def test_against_brute_force_oracle():
    rng = np.random.default_rng(11)
    empty = AigGraph(types=[], edges=[])
    sizes = set()
    for trial in range(12):
        g1 = random_tree(rng, 1, n_pi_pool=3)
        g2 = random_tree(rng, int(rng.integers(1, 3)), n_pi_pool=3)
        for a, b in ((g1, g2), (g2, g1), (empty, g1), (g2, empty)):
            expect = brute_force_ged(a, b)
            got = graph_edit_distance(a, b, timeout=30.0)
            assert got == expect, f"trial {trial}, {a.n} -> {b.n}: {got} != {expect}"
            sizes.add((a.n > b.n) - (a.n < b.n))
    assert sizes == {-1, 0, 1}
    assert graph_edit_distance(empty, empty) == brute_force_ged(empty, empty) == 0


def renumbered(g: AigGraph, rng) -> AigGraph:
    """g with node k moved to perm[k]; some edges then run high -> low."""
    perm = [int(k) for k in rng.permutation(g.n)]
    types = [None] * g.n
    for k, t in enumerate(g.types):
        types[perm[k]] = t
    return tiny(types, [(perm[s], perm[d], inv) for s, d, inv in g.edges])


def test_invariant_to_renumbering_and_argument_order():
    P, A, O = NodeType.PI, NodeType.AND, NodeType.PO
    rng = np.random.default_rng(5)
    graphs = {
        # no PO, and node 3 (where the walk then starts) reaches nothing
        "no_po": tiny([P, P, A, P], [(0, 2, False), (1, 2, True)]),
        "two_po": tiny([P, P, A, O, O],
                       [(0, 2, False), (1, 2, True), (2, 3, False), (1, 4, True)]),
        "tree": random_tree(rng, 2, n_pi_pool=3),
        "empty": AigGraph(types=[], edges=[]),
    }
    assert graphs["tree"].n <= 6  # keeps brute_force_ged cheap
    backward_edges = 0
    for (na, a), (nb, b) in itertools.combinations_with_replacement(graphs.items(), 2):
        expect = brute_force_ged(a, b)
        for trial in range(3):
            ra, rb = renumbered(a, rng), renumbered(b, rng)
            backward_edges += sum(s > d for s, d, _ in ra.edges + rb.edges)
            for x, y in ((a, b), (b, a), (ra, b), (a, rb), (rb, ra)):
                assert graph_edit_distance(x, y) == expect, f"{na} vs {nb}, trial {trial}"
    assert backward_edges


# GED of every pair (i, j), i < j, of the 22 toy test trees (data seed 42):
# row i lists j = i+1..21. Recorded with the search that recomputed its
# bound from scratch for every state; any exact search returns the same.
TOY_TEST_GED = [
    [6, 9, 7, 9, 8, 6, 7, 3, 6, 7, 10, 10, 9, 5, 5, 8, 3, 3, 6, 8, 5],
    [5, 1, 5, 11, 1, 11, 6, 9, 10, 6, 6, 5, 1, 7, 10, 7, 6, 0, 10, 6],
    [5, 0, 13, 5, 13, 10, 13, 13, 2, 2, 0, 6, 9, 13, 10, 10, 5, 13, 10],
    [5, 12, 2, 12, 7, 10, 11, 5, 5, 5, 2, 8, 11, 6, 7, 1, 11, 7],
    [13, 5, 13, 10, 13, 13, 2, 2, 0, 6, 9, 13, 10, 10, 5, 13, 10],
    [10, 2, 8, 7, 6, 15, 15, 13, 10, 8, 3, 7, 7, 11, 3, 6],
    [10, 7, 10, 10, 7, 7, 5, 2, 6, 10, 7, 7, 1, 9, 7],
    [8, 6, 4, 15, 15, 13, 10, 6, 3, 8, 8, 11, 1, 6],
    [9, 6, 9, 9, 10, 7, 5, 9, 6, 4, 6, 7, 4],
    [6, 15, 15, 13, 10, 8, 7, 7, 9, 9, 6, 8],
    [14, 14, 13, 11, 5, 3, 7, 8, 10, 3, 7],
    [0, 2, 6, 11, 14, 10, 10, 6, 15, 10],
    [2, 6, 11, 14, 10, 10, 6, 15, 10],
    [6, 9, 13, 10, 10, 5, 13, 10],
    [6, 11, 7, 7, 1, 10, 5],
    [8, 6, 7, 7, 5, 2],
    [7, 5, 10, 4, 8],
    [2, 7, 9, 6],
    [6, 9, 5],
    [10, 6],
    [7],
]


def test_toy_test_set_distances_are_pinned(toy_data):
    _, test_set = toy_data
    n = len(test_set)
    # both argument orders: the search maps whichever graph is smaller
    for order in (lambda a, b: (a, b), lambda a, b: (b, a)):
        got = [[graph_edit_distance(*order(test_set[i], test_set[j]), timeout=120.0)
                for j in range(i + 1, n)]
               for i in range(n - 1)]
        assert got == TOY_TEST_GED


def test_symmetry():
    rng = np.random.default_rng(2)
    g1 = random_tree(rng, 2)
    g2 = random_tree(rng, 3)
    assert graph_edit_distance(g1, g2) == graph_edit_distance(g2, g1)


def test_timeout_returns_none():
    rng = np.random.default_rng(9)
    g1 = random_tree(rng, 12)
    g2 = random_tree(rng, 13)
    assert graph_edit_distance(g1, g2, timeout=1e-9) is None
