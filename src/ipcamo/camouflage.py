"""Latent interpolation, threshold filtering and the fix pass.

The generated graph G-hat is read off a soft decode as an AIG: each AND
keeps at most two sources and the output one, and Th only drops a kept
source, so G-hat has at most two edges per node and a netlist is O(n) cells
at every Th. G-hat is reconciled against the functional target F and the
appearance target A on the nodes of F padded to A's type counts: PIs, then
ANDs, then the output. A-padded-to-F has the same layout, and the k-th node
of each type in G-hat takes the layout's k-th node of that type, so G-hat
supplies only wiring. `camouflage_skeleton` repairs any skeleton and needs
no model. `camouflage_grid` runs the paper's sweep over interpolation
weights p and thresholds Th: it encodes F and A once, decodes one soft
skeleton per p and thresholds it once per Th; `camouflage_pipeline` is its
one-cell call.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .aig import AigGraph, NodeType, TensorTriple, from_tensors, normalize, pad_to_match
from .covert import CovertConfig, CovertGateKind, CovertInstance, draw_cell
from .gatelevel import Circuit, Gate, circuit_from_obj, circuit_to_obj
from .vae import VaeParams, decode_picked, encode

CAMO_JSON_FORMAT = "ipcamo-camo-v3"

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


def fanin_budget(type_probs: np.ndarray, conn: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The resolved types and the pairs the fan-in budget keeps, before Th.

    Types are resolved by argmax; then node 0 is made a PI and exactly one
    PO survives (the last one, or the last node if none). Each AND row
    picks its two highest-scoring sources j < i and the PO row its best one,
    by two argmax passes over the strict lower triangle of conn, so ties go
    to the lower index; PI rows pick none. Returns (type one-hots, rows,
    cols), the picks being (rows[k], cols[k]).
    """
    n = len(type_probs)
    type_mat = np.zeros_like(type_probs)
    type_mat[np.arange(n), type_probs.argmax(axis=1)] = 1.0
    type_mat[0] = NodeType.PI.one_hot()
    po_rows = np.flatnonzero(type_mat[:, NodeType.PO.value] == 1.0)
    if not po_rows.size:
        type_mat[n - 1] = NodeType.PO.one_hot()
    else:
        type_mat[po_rows[:-1]] = NodeType.AND.one_hot()
    rows = np.arange(n)
    is_and = type_mat[:, NodeType.AND.value] == 1.0
    score = np.where(np.tri(n, k=-1, dtype=bool), conn, -np.inf)
    picks = []
    for takers in (is_and | (type_mat[:, NodeType.PO.value] == 1.0), is_and):
        best = score.argmax(axis=1)
        r = rows[takers & (score[rows, best] > -np.inf)]  # a row with no source left picks none
        picks.append((r, best[r]))
        score[rows, best] = -np.inf
    (r1, c1), (r2, c2) = picks
    return type_mat, np.concatenate([r1, r2]), np.concatenate([c1, c2])


def threshold_filter(soft: TensorTriple, th: float) -> TensorTriple:
    """Binarize a decoded triple as an AIG under a fan-in budget: the
    `fanin_budget` picks, of which Th drops any that scores <= th. A kept
    edge is inverted when its inversion probability exceeds 0.5, so only
    the picks' inversion entries are read. The result has at most two edges
    per node at every Th, and PI rows keep none.
    """
    type_mat, r, c = fanin_budget(soft.type_mat, soft.conn_mat)
    keep = soft.conn_mat[r, c] > th
    r, c = r[keep], c[keep]
    conn = np.zeros_like(soft.conn_mat)
    inv = np.zeros_like(soft.inv_mat)
    conn[r, c] = 1.0
    inv[r, c] = soft.inv_mat[r, c] > 0.5
    return TensorTriple(type_mat, conn, inv)


# -- Edge states and the fix table --------------------------------------------

STATES = ("00", "01", "10", "11")


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


# -- Slot layout --------------------------------------------------------------


def _pair_states(g: AigGraph, layout: AigGraph,
                 slots: dict[NodeType, list[int]] | None = None) -> dict[tuple[int, int], str]:
    """Edge states of g placed on the layout's nodes: the k-th node of each
    type in g takes the layout's k-th node of that type (`slots` lists the
    layout's nodes of each type, when the caller has them). A node past the
    layout's count for its type is dropped with its edges, and so is an
    edge that maps backward on the layout or into a PI."""
    if slots is None:
        slots = {t: layout.indices(t) for t in NodeType}
    pos: list[int | None] = [None] * g.n
    for t, on_t in slots.items():
        for i, u in zip(g.indices(t), on_t):
            pos[i] = u
    states: dict[tuple[int, int], str] = {}
    PI, on_layout = NodeType.PI, layout.types
    for s, d, inv in g.edges:
        u, v = pos[s], pos[d]
        if u is not None and v is not None and u < v and on_layout[v] is not PI:
            states[(u, v)] = "11" if inv else "10"
    return states


# -- The fix pass -------------------------------------------------------------
#
# Each wired pair's visible wiring is a plain "wire", an "inv", or a covert
# cell ("fi", "fb", "ut_a", "ut_b"). A real signal rides on a pair exactly
# when it is an edge of F; the cells on every other pair are tied off.

_ADDED = {"connect": "wire", "insert_inv": "inv"}  # phase-1 action -> wiring it adds


def _pair_rule(sg: str, sf: str, sa: str) -> str | None:
    """The kind both fix phases wire on one pair with (G-hat, F, A) states.
    Phase 1 makes the generated wiring compute F; phase 2 then reshapes the
    post-fix wiring toward A without touching function, so it leaves a
    camouflaged NAND alone."""
    # the generated wiring stays as it is unless a phase acts on it
    kind = None if sg == "00" else "wire" if sg == "10" else "inv"
    action = fix_lookup(sg, sf, "functional")
    if action is not None:
        kind = _ADDED.get(action, action)
        if action in _ADDED:  # the new connection is visible to phase 2
            sg = sf
    action = fix_lookup(sg, sa, "appearance")
    if action is not None and kind not in ("ut_a", "ut_b"):
        kind = action
    return kind


# (G-hat, F, A) state triple -> the kind wired on the pair, None if nothing
PAIR_RULES = {states: _pair_rule(*states)
              for states in itertools.product(("00", "10", "11"), repeat=3)}


def fix_pairs(
    g_states: dict, f_states: dict, a_states: dict
) -> tuple[dict[int, list], list[dict]]:
    """Both fix phases, one `PAIR_RULES` lookup per pair. Returns each
    slot's incoming wiring, a list of (source slot, kind, is an edge of F)
    in source order, and the fix log: one row per pair in pair order, its
    states and the kind wired on it."""
    incoming: dict[int, list] = {}
    log = []
    for pair in sorted(g_states.keys() | f_states.keys() | a_states.keys()):
        states = g_states.get(pair, "00"), f_states.get(pair, "00"), a_states.get(pair, "00")
        kind = PAIR_RULES[states]
        log.append({"pair": list(pair), "states": list(states), "action": kind})
        incoming.setdefault(pair[1], []).append((pair[0], kind, states[1] != "00"))
    return incoming, log


# -- Netlist assembly ---------------------------------------------------------


def _build_appearance(
    fp: AigGraph, incoming: dict, rng: np.random.Generator
) -> tuple[Circuit, list[CovertInstance], list[str]]:
    """Appearance view, its covert placements (NORMAL on an edge of F,
    CONST1 elsewhere) and each slot's net. Each slot is a node of F or of A,
    both trees, so every AND slot has wiring into it, every PI slot is read,
    and every slot has a path to the PO. AND slot i is net `g{i}` and edge k
    into slot net x is wired through net `x_e{k}`, both named by
    `Circuit.fresh` with the PI and PO names taken."""
    n_pi = len(fp.pi_indices)
    reserved = {name for name, t in zip(fp.names, fp.types) if t is not NodeType.AND}
    pi_nets = fp.names[:n_pi]
    c = Circuit({name: Gate("input") for name in pi_nets})  # equal names share a net
    names = list(pi_nets)
    placements: list[CovertInstance] = []

    def realize_edge(u: int, kind: str, real: bool, stem: str) -> str:
        src = names[u]
        if kind == "wire":
            return src
        stem = c.fresh(stem, reserved)
        if kind == "inv":
            return c.add(stem, "not", src)
        gk = CovertGateKind[kind.upper()]  # "ut_a" places a UT_A cell
        cfg = CovertConfig.NORMAL if real else CovertConfig.CONST1
        # a decoy tap, a camouflaged NAND's second fan-in, is a primary input
        dummy = pi_nets[int(rng.integers(len(pi_nets)))] if gk.decoy else None
        placements.append(draw_cell(c, gk, cfg, stem, src, dummy))
        return stem

    for v in range(n_pi, fp.n):
        net = c.fresh(f"g{v}", reserved) if fp.types[v] is NodeType.AND else fp.names[v]
        names.append(net)
        ins = [realize_edge(u, kind, real, f"{net}_e{k}")
               for k, (u, kind, real) in enumerate(incoming.get(v, ()))]
        c.add(net, "and", *ins)
    c.outputs.append(names[-1])
    return c, placements, names


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
                 "real_in": p.real_in, "dummy_in": p.dummy_in}
                for p in self.placements
            ],
            "fix_log": self.fix_log,
            "metadata": self.metadata,
        }, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CamouflagedNetlist":
        """Load a netlist; a placement whose cell, drawn with
        covert.draw_cell, differs from the view's gate at its output net
        raises ValueError."""
        obj = json.loads(text)
        if obj.get("format") != CAMO_JSON_FORMAT:
            raise ValueError(f"unsupported netlist format: {obj.get('format')!r}")
        view = circuit_from_obj(obj["appearance_view"])
        placements = [
            CovertInstance(CovertGateKind(p["kind"]), CovertConfig(p["config"]),
                           out=p["out"], real_in=p["real_in"],
                           dummy_in=p["dummy_in"])
            for p in obj["placements"]
        ]
        for p in placements:
            cell = Circuit()
            draw_cell(cell, p.kind, p.config, p.out, p.real_in, p.dummy_in)
            if view.gates.get(p.out) != cell.gates[p.out]:
                raise ValueError(f"{p.kind.value} placement {p.out!r} is not "
                                 "the cell drawn at its output")
        return CamouflagedNetlist(
            functional_view=AigGraph.from_json(json.dumps(obj["functional_view"])),
            appearance_view=view,
            placements=placements,
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


def baseline_cells(g: AigGraph) -> int:
    """The cells of `gatelevel.from_aig(g)`, counted on the AIG: one per AND
    and per PO, and one inverter per inverted edge into an AND."""
    types, AND = g.types, NodeType.AND
    return (len(types) - types.count(NodeType.PI)
            + sum(1 for _, d, inv in g.edges if inv and types[d] is AND))


def camouflage_skeleton(
    f: AigGraph, a: AigGraph, g_hat: AigGraph, seed: int = 0
) -> CamouflagedNetlist:
    """Repair the skeleton g_hat into a netlist that computes F and looks
    like A. Needs no model: g_hat supplies only wiring."""
    for name, g in (("functional", f), ("appearance", a)):
        if not g.is_tree():
            raise ValueError(f"{name} target must be a canonical single-PO tree")
    fp = normalize(pad_to_match(f, a))
    slots = {t: fp.indices(t) for t in NodeType}
    # the type-rank placement keeps each type's order, so F and A need no
    # padding to sit on the layout
    incoming, fix_log = fix_pairs(*(_pair_states(g, fp, slots) for g in (g_hat, f, a)))
    appearance_view, placements, slot_nets = _build_appearance(
        fp, incoming, np.random.default_rng(seed))
    # the functional view is F on the slot nets: F's k-th AND is slot n_pi(fp) + k
    view = normalize(f)
    shift = len(fp.pi_indices) - len(f.pi_indices)
    view.names = [slot_nets[i + shift] if t is NodeType.AND else view.names[i]
                  for i, t in enumerate(view.types)]

    meta = {
        "seed": seed,
        "f_nodes": f.n, "a_nodes": a.n, "padded_nodes": fp.n,
        "g_hat_nodes": g_hat.n,
        "baseline_cells": baseline_cells(f),
    }
    return CamouflagedNetlist(view, appearance_view, placements, fix_log, meta)


def camouflage_grid(f: AigGraph, a: AigGraph, params: VaeParams, ps: Iterable[float],
                    ths: Sequence[float], seed: int = 0) -> Iterator[CamouflagedNetlist]:
    """Yield the netlist of F wearing A for each (p, Th) cell, p-major. F and
    A are encoded once, each p's interpolated latent is decoded once at the
    layout's node count (`vae.decode_picked`, inversions at the fan-in
    budget's picks only), and each Th thresholds that decode into a skeleton
    G-hat (possibly non-canonical), which `camouflage_skeleton` repairs."""
    z_f, z_a = encode(f, params).mu, encode(a, params).mu
    n = sum(map(max, f.type_counts().values(), a.type_counts().values()))  # |F padded to A|
    sha = checkpoint_sha256(params)
    for p in ps:
        # inversions are scored only on the fan-in budget's picks, the one
        # superset of the pairs any Th keeps
        soft = decode_picked(interpolate(z_f, z_a, p), n, params,
                             lambda types, conn: fanin_budget(types, conn)[1:])
        for th in ths:
            nl = camouflage_skeleton(f, a, from_tensors(threshold_filter(soft, th)), seed)
            nl.metadata.update({"p": p, "th": th, "latent_dim": params.latent,
                                "checkpoint_sha256": sha})
            yield nl


def camouflage_pipeline(f: AigGraph, a: AigGraph, params: VaeParams, p: float, th: float,
                        seed: int = 0) -> CamouflagedNetlist:
    """Generate, threshold and repair a camouflaged netlist for F wearing A:
    the one cell (p, th) of `camouflage_grid`."""
    return next(camouflage_grid(f, a, params, [p], [th], seed))
