"""Latent interpolation, threshold filtering and the two-phase fix engine.

The generated graph G-hat is reconciled against the functional target F and
the appearance target A on the nodes of F padded to A's type counts: PIs,
then ANDs, then the output. A-padded-to-F has the same layout, and the k-th
node of each type in G-hat takes the layout's k-th node of that type, so
G-hat supplies only wiring.
"""
from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .aig import AigGraph, NodeType, TensorTriple, from_tensors, normalize, pad_to_match
from .covert import CovertConfig, CovertGateKind, CovertInstance, apparent_op, draw_cell
from .gatelevel import Circuit, circuit_from_obj, circuit_to_obj, from_aig
from .vae import VaeParams, decode, encode

CAMO_JSON_FORMAT = "ipcamo-camo-v2"

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


@functools.cache
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


# -- Slot layout --------------------------------------------------------------


def _pair_states(g: AigGraph, layout: AigGraph) -> dict[tuple[int, int], str]:
    """Edge states of g placed on the layout's nodes: the k-th node of each
    type in g takes the layout's k-th node of that type. A node past the
    layout's count for its type is dropped with its edges, and so is an
    edge into a PI."""
    slots = {t: iter(layout.indices(t)) for t in NodeType}
    pos = [next(slots[t], None) for t in g.types]
    states: dict[tuple[int, int], str] = {}
    for s, d, inv in g.edges:
        if pos[s] is None or pos[d] is None:
            continue
        u, v = sorted((pos[s], pos[d]))
        if layout.types[v] is not NodeType.PI:
            states[(u, v)] = "11" if inv else "10"
    return states


# -- Fix phases ---------------------------------------------------------------
#
# The realization maps each wired pair to how its visible wiring is built: a
# plain "wire", an "inv", or a covert cell ("fi", "fb", "ut_a", "ut_b"). A
# real signal rides on a pair exactly when it is an edge of F; the cells on
# every other pair are tied off.

_ADDED = {"connect": "wire", "insert_inv": "inv"}  # phase-1 action -> wiring it adds


def functional_preserve(
    g_states: dict, f_states: dict
) -> tuple[dict, dict, list[dict]]:
    """Phase 1: make the generated wiring compute F. Returns (realization,
    post-fix apparent states, fix log)."""
    realization: dict[tuple[int, int], str] = {}
    gf_states = dict(g_states)
    log = []
    for pair in sorted(set(g_states) | set(f_states)):
        sg = g_states.get(pair, "00")
        sf = f_states.get(pair, "00")
        action = fix_lookup(sg, sf, "functional")
        if action is not None:
            log.append({"phase": "functional", "pair": list(pair),
                        "g_state": sg, "f_state": sf, "action": action})
            realization[pair] = _ADDED.get(action, action)
            if action in _ADDED:
                gf_states[pair] = sf
        elif not _no_conn(sg):  # states already agree; keep the plain wiring
            realization[pair] = "wire" if sg == "10" else "inv"
    return realization, gf_states, log


def appearance_mimic(gf_states: dict, a_states: dict, realization: dict) -> list[dict]:
    """Phase 2: reshape the visible wiring toward A without touching function."""
    log = []
    for pair in sorted(set(gf_states) | set(a_states)):
        sg = gf_states.get(pair, "00")
        sa = a_states.get(pair, "00")
        action = fix_lookup(sg, sa, "appearance")
        if action is None:
            continue
        entry = {"phase": "appearance", "pair": list(pair),
                 "g_state": sg, "a_state": sa, "action": action}
        if realization.get(pair) in ("ut_a", "ut_b"):
            entry["skipped"] = "pair already realized as a camouflaged NAND"
        else:
            realization[pair] = action
        log.append(entry)
    return log


# -- Netlist assembly ---------------------------------------------------------


# realization kind ("fi", "fb", "ut_a" or "ut_b") -> the covert cell it places,
# and whether that cell reads a decoy tap: a camouflaged NAND's second fan-in
# is a primary input
_CELL_KIND = {k.name.lower(): (k, apparent_op(k) == "nand") for k in CovertGateKind}


def _build_appearance(
    fp: AigGraph, realization: dict, f_states: dict, rng: np.random.Generator
) -> tuple[Circuit, list[CovertInstance]]:
    """Appearance view and its covert placements: NORMAL on an edge of F,
    CONST1 elsewhere. Each slot is a node of F or of A, both trees, so every
    AND slot has wiring into it, every PI slot is read, and every slot has a
    path to the PO."""
    n_pi = len(fp.pi_indices)
    names = [f"g{i}" if t is NodeType.AND else fp.names[i]
             for i, t in enumerate(fp.types)]
    incoming: dict[int, list] = {v: [] for v in range(n_pi, fp.n)}
    for (u, v), kind in sorted(realization.items()):
        incoming[v].append((u, kind))

    pi_nets = names[:n_pi]
    c = Circuit()
    for name in pi_nets:  # duplicated leaf names are one shared signal
        if name not in c.gates:
            c.add(name, "input")
    placements: list[CovertInstance] = []

    def realize_edge(u: int, v: int, kind: str, k: int) -> str:
        src = names[u]
        stem = f"{names[v]}_e{k}"
        if kind == "wire":
            return src
        if kind == "inv":
            return c.add(stem, "not", src)
        gk, decoy = _CELL_KIND[kind]
        cfg = CovertConfig.NORMAL if (u, v) in f_states else CovertConfig.CONST1
        dummy = pi_nets[int(rng.integers(len(pi_nets)))] if decoy else None
        placements.append(draw_cell(c, gk, cfg, stem, src, dummy))
        return stem

    for v, edges in incoming.items():
        ins = [realize_edge(u, v, kind, k) for k, (u, kind) in enumerate(edges)]
        c.add(names[v], "and", *ins)
    c.outputs.append(names[-1])
    return c, placements


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


def checkpoint_sha256(params: VaeParams) -> str:
    """Fingerprint of the weights: each parameter's name and shape, then its
    values as little-endian float64, in name order."""
    h = hashlib.sha256()
    for name, t in sorted(params.named().items()):
        h.update(json.dumps([name, list(t.data.shape)]).encode())
        h.update(np.asarray(t.data, dtype="<f8").tobytes())
    return h.hexdigest()


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

    f_states = _pair_states(fp, fp)
    realization, gf_states, log1 = functional_preserve(
        _pair_states(g_hat, fp), f_states)
    log2 = appearance_mimic(gf_states, _pair_states(ap, fp), realization)
    appearance_view, placements = _build_appearance(
        fp, realization, f_states, np.random.default_rng(seed))
    # the functional view is F on the layout's net names: F's k-th AND is
    # the slot and net g{n_pi(fp) + k}
    view = normalize(f)
    shift = len(fp.pi_indices) - len(f.pi_indices)
    view.names = [f"g{i + shift}" if t is NodeType.AND else view.names[i]
                  for i, t in enumerate(view.types)]

    meta = {
        "p": p, "th": th, "seed": seed,
        "latent_dim": params.latent,
        "checkpoint_sha256": checkpoint_sha256(params),
        "f_nodes": f.n, "a_nodes": a.n, "padded_nodes": fp.n,
        "g_hat_nodes": g_hat.n,
        "baseline_cells": from_aig(f).cell_count(),
    }
    return CamouflagedNetlist(view, appearance_view, placements,
                              log1 + log2, meta)
