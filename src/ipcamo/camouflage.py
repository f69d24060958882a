"""Latent interpolation, threshold filtering and the two-phase fix engine.

The generated graph G-hat is reconciled against the functional target F and
the appearance target A on a shared "position space": after padding, the k-th
node of each type in either graph occupies the same slot, ordered PIs, then
ANDs, then the output.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .aig import AigGraph, NodeType, TensorTriple, from_tensors, normalize, pad_to_match
from .covert import CovertConfig, CovertGateKind, CovertInstance
from .gatelevel import Circuit, circuit_from_obj, circuit_to_obj, from_aig
from .vae import VaeParams, decode, encode

CAMO_JSON_FORMAT = "ipcamo-camo-v1"

# -- Latent-space operations --------------------------------------------------


def interpolate(z_f: np.ndarray, z_a: np.ndarray, p: float) -> np.ndarray:
    """Convex combination of the two latents; p is the appearance weight."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"interpolation weight out of range: {p}")
    z_f = np.asarray(z_f, dtype=np.float64)
    z_a = np.asarray(z_a, dtype=np.float64)
    if z_f.shape != z_a.shape:
        raise ValueError("latent shape mismatch")
    return (1.0 - p) * z_f + p * z_a


def threshold_filter(soft: TensorTriple, th: float) -> TensorTriple:
    """Binarize a decoded triple: entries <= th drop to 0, others snap to 1.

    Types are resolved by argmax; the result is sanitized so node 0 is a PI,
    exactly one PO survives (the last one, or the last node if none), and
    inverter bits without a matching connection are cleared.
    """
    n = soft.n
    type_mat = np.zeros_like(soft.type_mat)
    for i in range(n):
        type_mat[i, int(np.argmax(soft.type_mat[i]))] = 1.0
    type_mat[0] = NodeType.PI.one_hot()
    po_rows = [i for i in range(n) if type_mat[i, NodeType.PO.value] == 1.0]
    if not po_rows:
        type_mat[n - 1] = NodeType.PO.one_hot()
    else:
        for i in po_rows[:-1]:
            type_mat[i] = NodeType.AND.one_hot()
    conn = (soft.conn_mat > th).astype(float)
    inv = (soft.inv_mat > th).astype(float)
    conn = np.tril(conn, -1)
    inv = np.tril(inv, -1) * conn  # orphan inverter bits carry no edge
    return TensorTriple(type_mat, conn, inv)


# -- Edge states and the fix table --------------------------------------------

STATES = ("00", "01", "10", "11")


def edge_state(conn: int, inv: int) -> str:
    return f"{int(bool(conn))}{int(bool(inv))}"


def _no_conn(s: str) -> bool:
    return s in ("00", "01")


def fix_lookup(g_state: str, target_state: str, phase: str) -> str | None:
    """Fix action for one node pair; None means the cell is not applicable."""
    if g_state not in STATES or target_state not in STATES:
        raise ValueError(f"bad edge state: {g_state!r} vs {target_state!r}")
    g_abs, t_abs = _no_conn(g_state), _no_conn(target_state)
    if g_abs and t_abs:
        return None
    if g_state == target_state:
        return None
    if phase == "functional":
        if g_abs:
            return "connect" if target_state == "10" else "insert_inv"
        if t_abs:
            return "fb" if g_state == "10" else "fi"
        return "ut_b" if g_state == "10" else "ut_a"
    if phase == "appearance":
        if g_abs:
            return "fb" if target_state == "10" else "fi"
        if t_abs:
            return None  # extra visible wiring is left in place
        return "ut_a" if g_state == "10" else "ut_b"
    raise ValueError(f"unknown phase {phase!r}")


# -- Position space -----------------------------------------------------------


@dataclass(frozen=True)
class PositionSpace:
    """Typed slots shared by F, A and G-hat: PIs, then ANDs, then one PO."""

    n_pi: int
    n_and: int

    @property
    def n(self) -> int:
        return self.n_pi + self.n_and + 1

    @property
    def po(self) -> int:
        return self.n_pi + self.n_and

    def type_of(self, idx: int) -> NodeType:
        if idx < self.n_pi:
            return NodeType.PI
        if idx < self.po:
            return NodeType.AND
        return NodeType.PO


def _positions(g: AigGraph, space: PositionSpace) -> list[int]:
    """Map each node to its slot: the k-th node of a type gets that type's k-th slot."""
    pos = []
    counts = {NodeType.PI: 0, NodeType.AND: 0, NodeType.PO: 0}
    for t in g.types:
        k = counts[t]
        counts[t] += 1
        if t is NodeType.PI:
            if k >= space.n_pi:
                raise ValueError("position space has too few PI slots")
            pos.append(k)
        elif t is NodeType.AND:
            if k >= space.n_and:
                raise ValueError("position space has too few AND slots")
            pos.append(space.n_pi + k)
        else:
            if k >= 1:
                raise ValueError("position space holds a single PO")
            pos.append(space.po)
    return pos


def _pair_states(g: AigGraph, space: PositionSpace) -> dict[tuple[int, int], str]:
    pos = _positions(g, space)
    states: dict[tuple[int, int], str] = {}
    for s, d, inv in g.edges:
        u, v = sorted((pos[s], pos[d]))
        states[(u, v)] = "11" if inv else "10"
    return states


# -- Fix phases ---------------------------------------------------------------
#
# A realization record tracks, per pair, how the visible wiring is built and
# whether a real signal rides on it ("functional") or it is quietly tied off.


def functional_preserve(
    g_states: dict, f_states: dict, space: PositionSpace
) -> tuple[dict, dict, list[dict]]:
    """Phase 1: make the generated wiring compute F. Returns (realization,
    post-fix apparent states, fix log)."""
    realization: dict[tuple[int, int], dict] = {}
    gf_states = dict(g_states)
    log = []
    for pair in sorted(set(g_states) | set(f_states)):
        sg = g_states.get(pair, "00")
        sf = f_states.get(pair, "00")
        action = fix_lookup(sg, sf, "functional")
        log.append({"phase": "functional", "pair": list(pair),
                    "g_state": sg, "f_state": sf, "action": action})
        if action == "connect":
            realization[pair] = {"kind": "wire", "functional": True}
            gf_states[pair] = "10"
        elif action == "insert_inv":
            realization[pair] = {"kind": "inv", "functional": True}
            gf_states[pair] = "11"
        elif action == "fb":
            realization[pair] = {"kind": "fb", "functional": False}
        elif action == "fi":
            realization[pair] = {"kind": "fi", "functional": False}
        elif action == "ut_a":
            realization[pair] = {"kind": "ut_a", "functional": True}
        elif action == "ut_b":
            realization[pair] = {"kind": "ut_b", "functional": True}
        elif not _no_conn(sg):  # states already agree; keep the plain wiring
            realization[pair] = {"kind": "wire" if sg == "10" else "inv",
                                 "functional": True}
    return realization, gf_states, log


def appearance_mimic(
    gf_states: dict, a_states: dict, realization: dict, space: PositionSpace
) -> list[dict]:
    """Phase 2: reshape the visible wiring toward A without touching function."""
    log = []
    for pair in sorted(set(gf_states) | set(a_states)):
        sg = gf_states.get(pair, "00")
        sa = a_states.get(pair, "00")
        action = fix_lookup(sg, sa, "appearance")
        entry = {"phase": "appearance", "pair": list(pair),
                 "g_state": sg, "a_state": sa, "action": action}
        if action in ("fb", "fi"):
            realization[pair] = {"kind": action, "functional": False}
        elif action in ("ut_a", "ut_b"):
            prev = realization[pair]  # sg is connected, so a record exists
            if prev["kind"] in ("ut_a", "ut_b"):
                entry["skipped"] = "pair already realized as a camouflaged NAND"
            else:
                realization[pair] = {"kind": action,
                                     "functional": prev["functional"]}
        log.append(entry)
    return log


# -- Netlist assembly ---------------------------------------------------------


def _slot_names(space: PositionSpace, fp: AigGraph) -> tuple[list[str], list[bool]]:
    names, dummy = [], []
    by_type = {NodeType.PI: [], NodeType.AND: [], NodeType.PO: []}
    for i, t in enumerate(fp.types):
        by_type[t].append(i)
    for k in range(space.n_pi):
        if k < len(by_type[NodeType.PI]):
            i = by_type[NodeType.PI][k]
            names.append(fp.names[i])
            dummy.append(fp.dummy[i])
        else:
            names.append(f"xpi{k}")
            dummy.append(True)
    for k in range(space.n_and):
        if k < len(by_type[NodeType.AND]):
            i = by_type[NodeType.AND][k]
            names.append(f"g{space.n_pi + k}")
            dummy.append(fp.dummy[i])
        else:
            names.append(f"g{space.n_pi + k}")
            dummy.append(True)
    names.append(fp.names[by_type[NodeType.PO][0]])
    dummy.append(False)
    return names, dummy


def _build_views(
    space: PositionSpace,
    realization: dict,
    names: list[str],
    dummy: list[bool],
    rng: np.random.Generator,
) -> tuple[AigGraph, Circuit, list[CovertInstance]]:
    incoming: dict[int, list] = {v: [] for v in range(space.n)}
    func_edges = []
    for (u, v), r in sorted(realization.items()):
        if space.type_of(v) is NodeType.PI:
            continue  # input slots ignore incoming wiring; nothing to realize
        incoming[v].append((u, r))
        if r["functional"]:
            func_edges.append((u, v, r["kind"] in ("inv", "ut_b")))

    pi_nets = names[: space.n_pi]
    c = Circuit()
    for name in pi_nets:  # duplicated leaf names are one shared signal
        if name not in c.gates:
            c.add(name, "input")
    placements: list[CovertInstance] = []

    def realize_edge(u: int, v: int, r: dict, k: int) -> str:
        src = names[u]
        stem = f"{names[v]}_e{k}"
        kind = r["kind"]
        if kind == "wire":
            return src
        if kind == "inv":
            return c.add(stem, "not", src)
        if kind == "fi":
            out = c.add(stem, "not", src)
            placements.append(CovertInstance(CovertGateKind.FI, CovertConfig.CONST1,
                                             out=out, real_in=src))
            return out
        if kind == "fb":
            mid = c.add(stem + "a", "not", src)
            out = c.add(stem, "not", mid)
            placements.append(CovertInstance(CovertGateKind.FB, CovertConfig.CONST1,
                                             out=out, real_in=src))
            return out
        # camouflaged NAND; the second fan-in is a decoy tap on a primary input
        gk = CovertGateKind.UT_A if kind == "ut_a" else CovertGateKind.UT_B
        cfg = CovertConfig.NORMAL if r["functional"] else CovertConfig.CONST1
        dummy_net = pi_nets[int(rng.integers(len(pi_nets)))]
        out = c.add(stem, "nand", src, dummy_net)
        placements.append(CovertInstance(gk, cfg, out=out, real_in=src,
                                         dummy_in=dummy_net))
        return out

    for v in range(space.n_pi, space.n):
        ins = [realize_edge(u, v, r, k) for k, (u, r) in enumerate(incoming[v])]
        if not ins:  # floating slot still needs a visible cell body
            ins = [pi_nets[int(rng.integers(len(pi_nets)))]]
        net = c.add(names[v], "and", *ins)
        if v == space.po:
            c.outputs.append(net)

    types = [space.type_of(i) for i in range(space.n)]
    full = AigGraph(types=types, edges=sorted(func_edges),
                    names=list(names), dummy=list(dummy))
    return _prune_cone(full), c, placements


def _prune_cone(g: AigGraph) -> AigGraph:
    """Drop nodes with no path to a PO, keeping relative order."""
    preds = g.pred_table()
    keep: set[int] = set()
    stack = list(g.po_indices)
    while stack:
        i = stack.pop()
        if i in keep:
            continue
        keep.add(i)
        stack.extend(s for s, _ in preds[i])
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    return AigGraph(
        types=[g.types[i] for i in order],
        edges=sorted((remap[s], remap[d], inv) for s, d, inv in g.edges
                     if s in keep and d in keep),
        names=[g.names[i] for i in order],
        dummy=[g.dummy[i] for i in order],
    )


# -- Result container ---------------------------------------------------------


@dataclass
class CamouflagedNetlist:
    functional_view: AigGraph
    appearance_view: Circuit
    placements: list[CovertInstance]
    fix_log: list[dict]
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "format": CAMO_JSON_FORMAT,
            "functional_view": json.loads(self.functional_view.to_json()),
            "appearance_view": circuit_to_obj(self.appearance_view),
            "placements": [
                {"kind": p.kind.value, "config": p.config.value, "out": p.out,
                 "real_in": p.real_in, "dummy_in": p.dummy_in, "note": p.note}
                for p in self.placements
            ],
            "fix_log": self.fix_log,
            "metadata": self.metadata,
        }, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CamouflagedNetlist":
        obj = json.loads(text)
        if obj.get("format") != CAMO_JSON_FORMAT:
            raise ValueError(f"unsupported netlist format: {obj.get('format')!r}")
        return CamouflagedNetlist(
            functional_view=AigGraph.from_json(json.dumps(obj["functional_view"])),
            appearance_view=circuit_from_obj(obj["appearance_view"]),
            placements=[
                CovertInstance(CovertGateKind(p["kind"]), CovertConfig(p["config"]),
                               out=p["out"], real_in=p["real_in"],
                               dummy_in=p["dummy_in"], note=p.get("note", ""))
                for p in obj["placements"]
            ],
            fix_log=obj["fix_log"],
            metadata=obj["metadata"],
        )


def area_overhead(nl: CamouflagedNetlist) -> float:
    base = nl.metadata.get("baseline_cells")
    if not base:
        raise ValueError("netlist metadata lacks baseline_cells")
    return nl.appearance_view.cell_count() / base


# -- End-to-end pipeline ------------------------------------------------------


def camouflage_pipeline(
    f: AigGraph,
    a: AigGraph,
    params: VaeParams,
    p: float,
    th: float,
    seed: int = 0,
) -> CamouflagedNetlist:
    """Generate, threshold and repair a camouflaged netlist for F wearing A."""
    for name, g in (("functional", f), ("appearance", a)):
        if not g.is_tree():
            raise ValueError(f"{name} target must be a canonical single-PO tree")
    fp = normalize(pad_to_match(f, a))
    ap = normalize(pad_to_match(a, f))

    z_f = encode(f, params).mu
    z_a = encode(a, params).mu
    z = interpolate(z_f, z_a, p)
    soft = decode(z, fp.n, params)
    g_hat = from_tensors(threshold_filter(soft, th))

    space = PositionSpace(
        n_pi=max(len(fp.pi_indices), len(g_hat.pi_indices)),
        n_and=max(len(fp.and_indices), len(g_hat.and_indices)),
    )
    f_states = _pair_states(fp, space)
    a_states = _pair_states(ap, space)
    g_states = _pair_states(g_hat, space)

    realization, gf_states, log1 = functional_preserve(g_states, f_states, space)
    log2 = appearance_mimic(gf_states, a_states, realization, space)

    names, dummy = _slot_names(space, fp)
    rng = np.random.default_rng(seed)
    functional_view, appearance_view, placements = _build_views(
        space, realization, names, dummy, rng)

    from .autodiff import params_to_json

    checkpoint_sha = hashlib.sha256(params_to_json(params.named()).encode()).hexdigest()
    meta = {
        "p": p, "th": th, "seed": seed,
        "latent_dim": params.latent,
        "checkpoint_sha256": checkpoint_sha,
        "f_nodes": f.n, "a_nodes": a.n, "padded_nodes": fp.n,
        "g_hat_nodes": g_hat.n,
        "baseline_cells": from_aig(f).cell_count(),
    }
    return CamouflagedNetlist(functional_view, appearance_view, placements,
                              log1 + log2, meta)
