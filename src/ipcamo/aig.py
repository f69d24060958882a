"""And-Inverter Graph data model, AIGER I/O, cone extraction and tensor encoding."""
from __future__ import annotations

import enum
import json
import warnings
from collections.abc import Container
from dataclasses import dataclass, field

import numpy as np

AIG_JSON_FORMAT = "ipcamo-aig-v2"
AAG_COMMENT = "ipcamo-aag-v1"


class NodeType(enum.Enum):
    """A node's type. Reading a member off the class costs about 0.14 us on
    CPython 3.11, several times a local name's, so the per-cell loops over
    nodes bind the members they compare with to locals first."""

    PI = 0
    PO = 1
    AND = 2

    def one_hot(self) -> np.ndarray:
        v = np.zeros(3)
        v[self.value] = 1.0
        return v


def fresh_name(base: str, taken: Container[str], also: Container[str] = ()) -> str:
    """The package's one naming rule: `base`, or else the first `base_k`
    (k = 1, 2, ...) that neither `taken` nor `also` holds."""
    name, k = base, 0
    while name in taken or name in also:
        k += 1
        name = f"{base}_{k}"
    return name


class AigerParseError(ValueError):
    """Raised on malformed AIGER input; message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class AigGraph:
    """A DAG of PI/PO/AND nodes with inversion flags on edges.

    Nodes are indexed 0..n-1 in topological order; every edge goes from a
    lower index to a higher index. An unnamed PI (PO) k is named
    `fresh_name(f"pi{k}", ...)` (`po{k}`), avoiding every name it was given.
    """

    types: list[NodeType]
    edges: list[tuple[int, int, bool]]  # (src, dst, inverted)
    names: list[str | None] = field(default_factory=list)

    def __post_init__(self):
        if not self.names:
            self.names = [None] * len(self.types)
        given = None  # the names the graph was given, built at the first unnamed PI or PO
        pi_k = po_k = 0
        PI, AND = NodeType.PI, NodeType.AND
        for i, t in enumerate(self.types):
            if t is AND:
                continue
            if self.names[i] is None:
                if given is None:
                    given = set(self.names)
                self.names[i] = fresh_name(f"pi{pi_k}" if t is PI else f"po{po_k}", given)
            if t is PI:
                pi_k += 1
            else:
                po_k += 1

    @property
    def n(self) -> int:
        return len(self.types)

    def indices(self, t: NodeType) -> list[int]:
        return [i for i, x in enumerate(self.types) if x is t]

    @property
    def pi_indices(self) -> list[int]:
        return self.indices(NodeType.PI)

    @property
    def po_indices(self) -> list[int]:
        return self.indices(NodeType.PO)

    @property
    def and_indices(self) -> list[int]:
        return self.indices(NodeType.AND)

    @property
    def pi_names(self) -> list[str]:
        """Distinct PI names in first-occurrence order (cone trees repeat names)."""
        seen, out = set(), []
        for i in self.pi_indices:
            nm = self.names[i]
            if nm not in seen:
                seen.add(nm)
                out.append(nm)
        return out

    @property
    def po_names(self) -> list[str]:
        return [self.names[i] for i in self.po_indices]

    def pred_table(self) -> list[list[tuple[int, bool]]]:
        tbl: list[list[tuple[int, bool]]] = [[] for _ in range(self.n)]
        for s, d, inv in self.edges:
            tbl[d].append((s, inv))
        return tbl

    def issues(self) -> list[str]:
        """Structural violations of the canonical-AIG invariants (empty = canonical)."""
        out = []
        n = len(self.types)
        indeg = [0] * n
        for s, d, inv in self.edges:
            if not (0 <= s < n and 0 <= d < n):
                out.append(f"edge ({s},{d}) out of range")
                continue
            if s >= d:
                out.append(f"edge ({s},{d}) not forward")
            indeg[d] += 1
        PI, AND, PO = NodeType.PI, NodeType.AND, NodeType.PO
        for i, t in enumerate(self.types):
            if t is PI and indeg[i] != 0:
                out.append(f"PI node {i} has in-degree {indeg[i]}")
            elif t is AND and indeg[i] != 2:
                out.append(f"AND node {i} has in-degree {indeg[i]}")
            elif t is PO and indeg[i] != 1:
                out.append(f"PO node {i} has in-degree {indeg[i]}")
        seen = set(self.pi_names)
        for i in self.po_indices:
            if self.names[i] in seen:
                out.append(f"PO node {i} reuses the name {self.names[i]!r}")
            seen.add(self.names[i])
        return out

    @property
    def is_canonical(self) -> bool:
        return not self.issues()

    def is_tree(self) -> bool:
        """Canonical, one PO, and every other node feeds exactly one edge."""
        pos = self.po_indices
        srcs = {s for s, _, _ in self.edges}
        return (
            len(pos) == 1
            and len(self.edges) == len(srcs) == self.n - 1
            and pos[0] not in srcs
            and self.is_canonical
        )

    def type_counts(self) -> dict[NodeType, int]:
        types = self.types
        return {t: types.count(t) for t in NodeType}

    # -- JSON debug dump ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": AIG_JSON_FORMAT,
                "types": [t.name for t in self.types],
                "names": self.names,
                "edges": [[s, d, int(inv)] for s, d, inv in self.edges],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "AigGraph":
        obj = json.loads(text)
        if obj.get("format") != AIG_JSON_FORMAT:
            raise ValueError(f"unsupported graph dump format: {obj.get('format')!r}")
        return AigGraph(
            types=[NodeType[t] for t in obj["types"]],
            edges=[(s, d, bool(inv)) for s, d, inv in obj["edges"]],
            names=list(obj["names"]),
        )


@dataclass
class TensorTriple:
    """Matrix encoding of an AIG: node types, connections and inverters."""

    type_mat: np.ndarray  # N x 3
    conn_mat: np.ndarray  # N x N, strictly lower triangular support
    inv_mat: np.ndarray  # N x N

    @property
    def n(self) -> int:
        return self.type_mat.shape[0]

    def is_binary(self) -> bool:
        return all(
            np.isin(m, (0.0, 1.0)).all()
            for m in (self.type_mat, self.conn_mat, self.inv_mat)
        )


# -- AIGER (ASCII "aag") ------------------------------------------------------


def parse_aiger(data: bytes | str) -> AigGraph:
    """Parse a combinational ASCII AIGER file into an AigGraph.

    An input or output the symbol table leaves unnamed is passed as None,
    so AigGraph gives it its default name. An output symbol that repeats
    another symbol's name is an error, as is an input symbol that repeats
    an output's."""
    if isinstance(data, bytes):
        data = data.decode("ascii")
    lines = data.splitlines()
    if not lines or not lines[0].strip():
        raise AigerParseError("missing header", line=1)
    head = lines[0].split()
    if len(head) != 6 or head[0] != "aag":
        raise AigerParseError(f"malformed header {lines[0]!r}", line=1)
    try:
        m, i_cnt, l_cnt, o_cnt, a_cnt = (int(x) for x in head[1:])
    except ValueError:
        raise AigerParseError(f"non-numeric header field in {lines[0]!r}", line=1)
    if l_cnt != 0:
        raise AigerParseError("latch declarations present; only combinational AIGs are supported", line=1)

    pos = 1

    def take(expect: str) -> tuple[list[int], int]:
        nonlocal pos
        if pos >= len(lines):
            raise AigerParseError(f"unexpected end of file, expected {expect}", line=pos + 1)
        ln = pos + 1
        try:
            vals = [int(x) for x in lines[pos].split()]
        except ValueError:
            raise AigerParseError(f"malformed {expect} {lines[pos]!r}", line=ln)
        for lit in vals:
            if lit // 2 > m:
                raise AigerParseError(f"literal {lit} names variable {lit // 2}, "
                                      f"past the header's M = {m}", line=ln)
        pos += 1
        return vals, ln

    in_lits = []
    seen_lits: set[int] = set()  # literals defined by an input or an AND
    for _ in range(i_cnt):
        vals, ln = take("input literal")
        if len(vals) != 1 or vals[0] < 2 or vals[0] % 2:
            raise AigerParseError(f"invalid input literal {lines[ln - 1]!r}", line=ln)
        if vals[0] in seen_lits:
            raise AigerParseError(f"literal {vals[0]} defined twice", line=ln)
        seen_lits.add(vals[0])
        in_lits.append(vals[0])
    out_lits = []
    for _ in range(o_cnt):
        vals, ln = take("output literal")
        if len(vals) != 1 or vals[0] < 0:
            raise AigerParseError(f"invalid output literal {lines[ln - 1]!r}", line=ln)
        out_lits.append((vals[0], ln))
    and_defs = []
    for _ in range(a_cnt):
        vals, ln = take("AND definition")
        if len(vals) != 3 or vals[0] < 2 or vals[0] % 2:
            raise AigerParseError(f"invalid AND definition {lines[ln - 1]!r}", line=ln)
        if vals[0] in seen_lits:
            raise AigerParseError(f"literal {vals[0]} defined twice", line=ln)
        seen_lits.add(vals[0])
        and_defs.append((vals, ln))

    # symbol table; an output's name must be its own, while inputs may share
    # one (cone trees repeat leaf names)
    in_names: dict[int, str] = {}
    out_names: dict[int, str] = {}
    first_tag: dict[str, str] = {}  # each name -> the first symbol that gave it
    while pos < len(lines) and lines[pos].strip():
        ln = lines[pos]
        if ln == "c":
            break
        parts = ln.split(None, 1)
        tag = parts[0]
        if tag[0] in "io" and tag[1:].isdigit() and len(parts) == 2:
            idx = int(tag[1:])
            table, count = (in_names, i_cnt) if tag[0] == "i" else (out_names, o_cnt)
            if idx >= count:
                raise AigerParseError(f"symbol {ln!r} is out of range: {count} "
                                      f"{'inputs' if tag[0] == 'i' else 'outputs'}", line=pos + 1)
            if idx in table:
                raise AigerParseError(f"symbol {tag} named twice", line=pos + 1)
            prev = first_tag.setdefault(parts[1], tag)
            if "o" in (tag[0], prev[0]) and prev != tag:
                raise AigerParseError(f"symbol {tag} repeats the name {parts[1]!r} of {prev}; "
                                      "an output's name must be its own", line=pos + 1)
            table[idx] = parts[1]
        elif tag[0] == "l":
            raise AigerParseError("latch symbol present", line=pos + 1)
        else:
            raise AigerParseError(f"malformed symbol entry {ln!r}", line=pos + 1)
        pos += 1

    var_node: dict[int, int] = {}
    types: list[NodeType] = []
    names: list[str | None] = []
    for k, lit in enumerate(in_lits):
        var_node[lit // 2] = len(types)
        types.append(NodeType.PI)
        names.append(in_names.get(k))

    # AND gates in topological order (aag files are not required to be sorted)
    defined = {v[0] // 2: (v, ln) for v, ln in and_defs}
    order: list[int] = []
    state: dict[int, int] = {}

    def visit(var: int, ln: int):
        stack = [(var, ln, False)]
        while stack:
            v, l, expanded = stack.pop()
            if v in var_node or state.get(v) == 2:
                continue
            if v not in defined:
                raise AigerParseError(f"dangling literal reference {2 * v}", line=l)
            if expanded:
                state[v] = 2
                order.append(v)
                continue
            if state.get(v) == 1:
                raise AigerParseError(f"cyclic AND definition for literal {2 * v}", line=l)
            state[v] = 1
            stack.append((v, l, True))
            (lhs, a, b), dln = defined[v]
            for child in (a, b):
                if child < 2:
                    raise AigerParseError("constant literals are not supported", line=dln)
                stack.append((child // 2, dln, False))

    for v, (vals, ln) in sorted(defined.items()):
        visit(v, ln)

    edges: list[tuple[int, int, bool]] = []
    for v in order:
        (lhs, a, b), ln = defined[v]
        var_node[v] = len(types)
        types.append(NodeType.AND)
        names.append(None)
        for child in (a, b):
            edges.append((var_node[child // 2], var_node[v], bool(child & 1)))

    for k, (lit, ln) in enumerate(out_lits):
        if lit < 2:
            raise AigerParseError("constant output literals are not supported", line=ln)
        if lit // 2 not in var_node:
            raise AigerParseError(f"dangling literal reference {lit}", line=ln)
        src = var_node[lit // 2]
        dst = len(types)
        types.append(NodeType.PO)
        names.append(out_names.get(k))
        edges.append((src, dst, bool(lit & 1)))

    return AigGraph(types=types, edges=edges, names=names)


def write_aiger(g: AigGraph) -> bytes:
    """Serialize a canonical AigGraph as ASCII AIGER; inverse of parse_aiger."""
    bad = g.issues()
    if bad:
        raise ValueError("graph is not canonical: " + "; ".join(bad))
    pis = g.pi_indices
    ands = g.and_indices  # index order is topological by invariant
    pos = g.po_indices
    var_of = {}
    for k, i in enumerate(pis):
        var_of[i] = k + 1
    for k, i in enumerate(ands):
        var_of[i] = len(pis) + k + 1

    def lit(src: int, inv: bool) -> int:
        return 2 * var_of[src] + int(inv)

    preds = g.pred_table()
    out = [f"aag {len(pis) + len(ands)} {len(pis)} 0 {len(pos)} {len(ands)}"]
    for i in pis:
        out.append(str(2 * var_of[i]))
    for i in pos:
        (src, inv), = preds[i]
        out.append(str(lit(src, inv)))
    for i in ands:
        (s0, i0), (s1, i1) = preds[i]
        a, b = sorted((lit(s0, i0), lit(s1, i1)), reverse=True)
        out.append(f"{2 * var_of[i]} {a} {b}")
    for k, i in enumerate(pis):
        out.append(f"i{k} {g.names[i]}")
    for k, i in enumerate(pos):
        out.append(f"o{k} {g.names[i]}")
    out.append("c")
    out.append(AAG_COMMENT)
    return ("\n".join(out) + "\n").encode("ascii")


def normalize(g: AigGraph) -> AigGraph:
    """Reorder nodes as PIs, ANDs (topological), POs; the write_aiger layout."""
    order = g.pi_indices + g.and_indices + g.po_indices
    perm = {old: new for new, old in enumerate(order)}
    return AigGraph(
        types=[g.types[i] for i in order],
        edges=sorted((perm[s], perm[d], inv) for s, d, inv in g.edges),
        names=[g.names[i] for i in order],
    )


# -- Cone extraction ----------------------------------------------------------


def extract_cone_tree(g: AigGraph, output_name: str, max_nodes: int = 200) -> AigGraph | None:
    """Fan-in cone of one output, with shared nodes duplicated into a tree.

    Returns None (rejection, not an error) when the tree exceeds max_nodes.
    """
    try:
        po = next(i for i in g.po_indices if g.names[i] == output_name)
    except StopIteration:
        raise KeyError(f"unknown output name {output_name!r}")
    preds = g.pred_table()

    types: list[NodeType] = []
    names: list[str | None] = []
    edges: list[tuple[int, int, bool]] = []
    # post-order duplication on an explicit stack; each visit materializes a
    # fresh node, and `done` holds the tree nodes still waiting for a parent
    (root, root_inv), = preds[po]
    todo, done = [(root, False)], []
    while todo:
        node, expanded = todo.pop()
        if len(types) >= max_nodes:
            return None
        if g.types[node] is NodeType.PI:
            types.append(NodeType.PI)
            names.append(g.names[node])
        elif expanded:
            me, cut = len(types), len(done) - len(preds[node])
            types.append(NodeType.AND)
            names.append(None)
            edges.extend((k, me, inv) for k, (_, inv) in zip(done[cut:], preds[node]))
            del done[cut:]
        else:
            todo.append((node, True))
            todo.extend((src, False) for src, _ in reversed(preds[node]))
            continue
        done.append(len(types) - 1)
    top, = done
    if len(types) + 1 > max_nodes:
        return None
    types.append(NodeType.PO)
    names.append(output_name)
    edges.append((top, len(types) - 1, root_inv))
    return AigGraph(types=types, edges=edges, names=names)


# -- Tensor encoding ----------------------------------------------------------


def to_tensors(g: AigGraph) -> TensorTriple:
    bad = g.issues()
    if bad:
        raise ValueError("graph is not canonical: " + "; ".join(bad))
    n = g.n
    type_mat = np.zeros((n, 3))
    for i, t in enumerate(g.types):
        type_mat[i, t.value] = 1.0
    conn = np.zeros((n, n))
    inv = np.zeros((n, n))
    for s, d, e in g.edges:
        conn[d, s] = 1.0
        if e:
            inv[d, s] = 1.0
    return TensorTriple(type_mat, conn, inv)


def from_tensors(t: TensorTriple) -> AigGraph:
    """Rebuild a (possibly non-canonical) AigGraph from a binary triple.

    Edges come from the strict lower triangle in row-major order: (j, i, inv)
    for each connection bit at row i, column j < i. An inverter bit there
    without a connection bit is dropped with a warning.
    """
    if not t.is_binary():
        raise ValueError("triple is not binary")
    bad = np.flatnonzero(t.type_mat.sum(axis=1) != 1.0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"type row {i} is not one-hot: {t.type_mat[i].tolist()}")
    types = [NodeType(v) for v in t.type_mat.argmax(axis=1).tolist()]
    lower = np.tri(t.n, k=-1, dtype=bool)
    conn = lower & (t.conn_mat != 0)
    inv = t.inv_mat != 0
    dst, src = np.nonzero(conn)
    edges = list(zip(src.tolist(), dst.tolist(), inv[dst, src].tolist()))
    dropped = int(np.count_nonzero(inv & lower & ~conn))
    if dropped:
        warnings.warn(
            f"dropped {dropped} inverter bit(s) without a connection bit",
            stacklevel=2,
        )
    return AigGraph(types=types, edges=edges)


# -- Padding ------------------------------------------------------------------


def pad_to_match(g: AigGraph, reference: AigGraph) -> AigGraph:
    """Extend g with unconnected PI and AND nodes, from index g.n on, so
    per-type counts reach the pairwise max. Pad k is named
    `fresh_name(f"dummy_pi{k}", ...)` (`dummy_and{k}`) beside g's names."""
    mine = g.type_counts()
    ref = reference.type_counts()
    if mine[NodeType.PO] != ref[NodeType.PO]:
        raise ValueError("PO counts differ; dummy POs are not supported")
    types = list(g.types)
    names = list(g.names)
    taken = set(names)  # pad bases differ from each other and from every `base_k`
    for t in (NodeType.PI, NodeType.AND):
        for _ in range(max(0, ref[t] - mine[t])):
            names.append(fresh_name(f"dummy_{t.name.lower()}{len(types) - g.n}", taken))
            types.append(t)
    return AigGraph(types=types, edges=list(g.edges), names=names)


# -- Simulation ---------------------------------------------------------------


def pattern_words(k: int) -> tuple[list[int], int]:
    """Words that enumerate all 2^k patterns of k inputs in one pass.

    Bit i of words[j] is bit j of the pattern index i; `full` has all 2^k
    bits set. words[j] repeats 2^j zeros then 2^j ones, so it is that
    2^(j+1)-bit block times the repunit (2^(2^k) - 1) / (2^(2^(j+1)) - 1).
    """
    full = (1 << (1 << k)) - 1
    words = []
    for j in range(k):
        run = 1 << j
        words.append(full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
    return words, full


# -- Random tree generation (toy datasets, demos, tests) ----------------------

INV_PROB = 0.3  # chance that random_tree inverts an edge


def random_tree(
    rng: np.random.Generator,
    n_ands: int,
    n_pi_pool: int = 6,
) -> AigGraph:
    """Random single-PO AIG tree with n_ands AND nodes; PI names drawn from a pool."""
    if n_ands < 1:
        raise ValueError("need at least one AND node")
    # shape: random recursive split of the AND budget
    types: list[NodeType] = []
    names: list[str | None] = []
    edges: list[tuple[int, int, bool]] = []

    def build(budget: int) -> int:
        if budget == 0:
            types.append(NodeType.PI)
            names.append(f"pi{int(rng.integers(n_pi_pool))}")
            return len(types) - 1
        left = int(rng.integers(budget))  # ANDs under the left child
        a = build(left)
        b = build(budget - 1 - left)
        types.append(NodeType.AND)
        names.append(None)
        me = len(types) - 1
        edges.append((a, me, bool(rng.random() < INV_PROB)))
        edges.append((b, me, bool(rng.random() < INV_PROB)))
        return me

    root = build(n_ands)
    types.append(NodeType.PO)
    names.append("po0")
    edges.append((root, len(types) - 1, bool(rng.random() < INV_PROB)))
    return AigGraph(types=types, edges=edges, names=names)
