"""Exact graph edit distance between AIGs, with a wall-clock timeout.

The search is A* (Hart, Nilsson & Raphael, 1968) over partial node mappings,
as in exact GED search (Abu-Aisheh et al., ICPRAM 2015). A state at depth d
maps g1's nodes 0..d-1, each to an unused g2 node or to deletion, and its
cost g counts every edit those choices fix: node substitutions and deletions,
and every edge between mapped nodes matched, flipped, deleted or inserted.
Completing a mapping inserts every unused g2 node and every g2 edge that
touches one.

A state's f is g plus a bound on the edits still to come, the sum of
- a label term: the larger of the two remaining node counts, minus the
  nodes each label can pair off between g1's unmapped nodes and g2's unused
  ones (each unpaired node needs a substitution, deletion or insertion);
- an edge term: the difference between the number of g1 edges touching an
  unmapped node and of g2 edges touching an unused node (each edge edit
  pairs at most one edge of each side).
Node and edge edits are disjoint and neither term overestimates its kind,
so the bound is admissible; at depth n1 the two terms sum to exactly the
cost of completing the mapping, so a complete state's f is its total cost.
The bound is kept incrementally: g1's per-depth label counts and open-edge
counts are precomputed, each child's terms are derived from its parent's,
the edit cost of one mapping step is O(degree), and used g2 nodes are an int
bitmask.

Ties on f go to the larger g (the deeper partial mapping), then to the
earlier push. Because the bound is admissible, the first complete state
popped has the least cost; the edit distance is that unique minimum, so the
result does not depend on the order the search takes, only its time does.

That order is chosen for speed. At unit costs the reverse of an edit path
costs the same, so the distance is symmetric and the search maps the
smaller graph (the first one on a tie). It takes that graph's nodes
breadth-first from its POs over undirected edges, ties to the lower index
(from the last node if there is no PO; unreached nodes follow in index
order), so each node it maps meets its edges to the nodes mapped before it.
In index order a graph's PIs come first; they share no edge, so the edge
cost stays flat over the first depths and the heap fills with equal-cost
permutations of interchangeable PIs.
"""
from __future__ import annotations

import heapq
import time
from collections import deque

from .aig import AigGraph, NodeType

EPS = -1  # deletion marker


def _po_bfs_order(g: AigGraph) -> list[int]:
    """g's nodes breadth-first from its POs over undirected edges.

    Sources and each node's neighbours go in index order. With no PO the
    walk starts at the last node; nodes it never reaches follow in index
    order.
    """
    if not g.n:
        return []
    nbr: list[set[int]] = [set() for _ in range(g.n)]
    for s, d, _ in g.edges:
        nbr[s].add(d)
        nbr[d].add(s)
    order = g.po_indices or [g.n - 1]
    seen = set(order)
    queue = deque(order)
    while queue:
        for k in sorted(nbr[queue.popleft()]):
            if k not in seen:
                seen.add(k)
                order.append(k)
                queue.append(k)
    return order + [k for k in range(g.n) if k not in seen]


def graph_edit_distance(
    g1: AigGraph, g2: AigGraph, timeout: float = 10.0
) -> int | None:
    """Minimum number of unit-cost node/edge edits turning g1 into g2.

    Nodes are labeled by type, edges by their inversion flag; edges are
    directed. Returns None when the search exceeds the timeout.
    """
    deadline = time.monotonic() + timeout
    if g1.n > g2.n:
        g1, g2 = g2, g1
    n1, n2 = g1.n, g2.n
    # g1's depth-d node is order[d]; from here on g1 is seen in that order
    order = _po_bfs_order(g1)
    depth_of = {k: d for d, k in enumerate(order)}
    lab1 = [g1.types[k].value for k in order]
    lab2 = [t.value for t in g2.types]
    n_lab = len(NodeType)

    # g1, per depth d: label counts of nodes d.., and edges touching them
    suffix1 = [[0] * n_lab for _ in range(n1 + 1)]
    for d in range(n1 - 1, -1, -1):
        suffix1[d][:] = suffix1[d + 1]
        suffix1[d][lab1[d]] += 1
    open1 = [0] * (n1 + 1)
    # each g1 node's edges to nodes mapped before it: (k, edge is k -> i, inv)
    back1: list[list[tuple[int, bool, bool]]] = [[] for _ in range(n1)]
    edges1 = {(depth_of[s], depth_of[d]): inv for s, d, inv in g1.edges}
    for (a, b), inv in edges1.items():
        open1[max(a, b)] += 1
        if a < b:
            back1[b].append((a, True, inv))
        elif b < a:
            back1[a].append((b, False, inv))
    for d in range(n1 - 1, -1, -1):
        open1[d] += open1[d + 1]

    # g2: inversion flag by successor and by predecessor, and a neighbour
    # bitmask per node (a DAG has no edge pair a -> b, b -> a, so the bits
    # of nbr2[j] inside a node set count j's edges into that set)
    succ2: list[dict[int, bool]] = [{} for _ in range(n2)]
    pred2: list[dict[int, bool]] = [{} for _ in range(n2)]
    nbr2 = [0] * n2
    for s, d, inv in g2.edges:
        succ2[s][d] = pred2[d][s] = inv
        nbr2[s] |= 1 << d
        nbr2[d] |= 1 << s
    n_edges2 = sum(len(s) for s in succ2)
    count2 = [0] * n_lab
    for lab in lab2:
        count2[lab] += 1

    def node_bound(depth: int, free2: list[int], n_free: int) -> int:
        # every remaining node is edited, except one pair per shared label
        return max(n1 - depth, n_free) - sum(map(min, suffix1[depth], free2))

    # entries (f, -g, push counter, mapping, used g2 nodes as a bitmask)
    f0 = node_bound(0, count2, n2) + abs(open1[0] - n_edges2)
    heap: list[tuple[int, int, int, tuple[int, ...], int]] = [(f0, 0, 0, (), 0)]
    counter = 0
    while True:
        if time.monotonic() > deadline:
            return None
        f, neg_g, _, mapping, used = heapq.heappop(heap)
        g = -neg_g
        depth = len(mapping)
        if depth == n1:
            return f
        # this state's unused g2 labels and g2 edges touching an unused node
        free2 = count2[:]
        inside = 0
        for j in mapping:
            if j != EPS:
                free2[lab2[j]] -= 1
                inside += (nbr2[j] & used).bit_count()
        open2 = n_edges2 - inside // 2
        n_free = n2 - used.bit_count()
        i, d1 = depth, depth + 1
        gap = open1[d1]
        # label term of a child that maps i to a g2 node of each label
        term = [0] * n_lab
        for lab in range(n_lab):
            if free2[lab]:
                free2[lab] -= 1
                term[lab] = node_bound(d1, free2, n_free - 1)
                free2[lab] += 1
        # g1 edges from i to mapped nodes: those whose partner was deleted
        # cost 1 whatever i maps to; the rest may match a g2 edge
        base = g
        live = []
        for k, into_i, inv in back1[i]:
            jk = mapping[k]
            if jk == EPS:
                base += 1
            else:
                live.append(((succ2 if into_i else pred2)[jk], inv))
        li = lab1[i]
        for j in range(n2):
            if used >> j & 1:
                continue
            # j's g2 edges into the used set: each is inserted unless matched
            near = (nbr2[j] & used).bit_count()
            c = base + (li != lab2[j]) + near
            for flags, inv in live:
                e = flags.get(j)
                if e is None:
                    c += 1
                else:
                    c += (e != inv) - 1
            lb = c + term[lab2[j]] + abs(gap - open2 + near)
            counter += 1
            heapq.heappush(heap, (lb, -c, counter, mapping + (j,), used | 1 << j))
        c = g + 1 + len(back1[i])
        lb = c + node_bound(d1, free2, n_free) + abs(gap - open2)
        counter += 1
        heapq.heappush(heap, (lb, -c, counter, mapping + (EPS,), used))
