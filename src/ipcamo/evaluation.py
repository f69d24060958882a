"""Latent-space analytics, random-insertion baselines, and GNN dataset export."""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .aig import AigGraph
from .camouflage import CamouflagedNetlist
from .covert import CovertConfig, CovertGateKind, CovertInstance, draw_cell
from .gatelevel import Circuit, Gate, from_aig
from .ged import graph_edit_distance
from .vae import VaeParams, encode

# -- Statistics ---------------------------------------------------------------


def latent_distance(z1: np.ndarray, z2: np.ndarray) -> float:
    z1 = np.asarray(z1, dtype=np.float64).ravel()
    z2 = np.asarray(z2, dtype=np.float64).ravel()
    if z1.shape != z2.shape:
        raise ValueError(f"dimension mismatch: {z1.shape} vs {z2.shape}")
    return float(np.linalg.norm(z1 - z2))


def pearson_r(xs, ys) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D sequences")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance; correlation undefined")
    return float((dx * dy).sum() / (sx * sy))


@dataclass
class BinStat:
    index: int
    lo: float
    hi: float
    mean_ged: float
    std_ged: float
    count: int


@dataclass
class CorrelationReport:
    pearson_r: float | None      # None when undefined (degenerate variance)
    bin_mean_r: float | None
    valid_pairs: int
    discarded: int
    bins: list[BinStat]
    pairs: list[tuple[int, int, float, int | None]]  # (id1, id2, lsd, ged|None)

    def pairs_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id1", "id2", "lsd", "ged"])
            for i, j, lsd, ged in self.pairs:
                w.writerow([i, j, repr(lsd), "TIMEOUT" if ged is None else ged])

    def bins_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["bin", "lsd_lo", "lsd_hi", "mean_ged", "std_ged", "count"])
            for b in self.bins:
                w.writerow([b.index, repr(b.lo), repr(b.hi),
                            repr(b.mean_ged), repr(b.std_ged), b.count])

    def summary_json(self) -> str:
        return json.dumps({
            "pearson_r": self.pearson_r,
            "bin_mean_r": self.bin_mean_r,
            "valid_pairs": self.valid_pairs,
            "discarded": self.discarded,
            "bins": len(self.bins),
        }, sort_keys=True)


def ged_lsd_study(
    graphs: list[AigGraph],
    params: VaeParams,
    bins: int = 20,
    timeout: float = 5.0,
) -> CorrelationReport:
    """All unordered pairs: latent distance vs. exact edit distance.

    Pairs whose GED search times out are discarded but counted. Pearson r is
    computed over raw valid pairs; the bin-mean r over non-empty bins is
    reported alongside it.
    """
    if len(graphs) < 2:
        raise ValueError("need at least two graphs")
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    codes = [encode(g, params).mu for g in graphs]
    pairs: list[tuple[int, int, float, int | None]] = []
    discarded = 0
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            lsd = latent_distance(codes[i], codes[j])
            ged = graph_edit_distance(graphs[i], graphs[j], timeout=timeout)
            if ged is None:
                discarded += 1
            pairs.append((i, j, lsd, ged))
    valid = [(lsd, ged) for _, _, lsd, ged in pairs if ged is not None]

    r = None
    if len(valid) >= 2:
        try:
            r = pearson_r([v[0] for v in valid], [v[1] for v in valid])
        except ValueError:
            r = None

    stats: list[BinStat] = []
    if valid:
        lo = min(v[0] for v in valid)
        hi = max(v[0] for v in valid)
        width = (hi - lo) / bins if hi > lo else 1.0
        buckets: list[list[int]] = [[] for _ in range(bins)]
        for lsd, ged in valid:
            idx = min(int((lsd - lo) / width), bins - 1) if hi > lo else 0
            buckets[idx].append(ged)
        for k, geds in enumerate(buckets):
            if not geds:
                continue
            arr = np.array(geds, dtype=np.float64)
            stats.append(BinStat(k, lo + k * width, lo + (k + 1) * width,
                                 float(arr.mean()), float(arr.std()), len(geds)))
    bin_r = None
    if len(stats) >= 2:
        try:
            bin_r = pearson_r([(b.lo + b.hi) / 2 for b in stats],
                              [b.mean_ged for b in stats])
        except ValueError:
            bin_r = None
    return CorrelationReport(r, bin_r, len(valid), discarded, stats, pairs)


# -- Random covert insertion baselines ----------------------------------------


def random_covert_insertion(
    f: AigGraph,
    mode: str = "fraction",
    value: float = 0.05,
    rng: np.random.Generator | None = None,
) -> CamouflagedNetlist:
    """Rand baselines: sprinkle covert gates over f without changing function.

    mode "fraction": cover value of the gate count with covert cells (the 5%
    random-insertion reference). mode "match_area": add cells until total
    area reaches value x the original cell count.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    c = from_aig(f)
    base_cells = c.cell_count()
    if mode == "fraction":
        if not 0.0 <= value <= 1.0:
            raise ValueError("fraction out of range")
        k = int(round(value * base_cells))
        if value > 0:
            k = max(k, 1)
    elif mode == "match_area":
        if value < 1.0:
            raise ValueError("area ratio below 1 is unreachable")
        k = int(round((value - 1.0) * base_cells))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    pis = sorted(c.inputs)
    and_nets = sorted(n for n, g in c.gates.items() if g.op == "and")
    if k and not and_nets:
        raise ValueError("no legal insertion sites")
    placements: list[CovertInstance] = []
    out = Circuit(gates=dict(c.gates), outputs=list(c.outputs))
    for step in range(k):
        target = and_nets[int(rng.integers(len(and_nets)))]
        g = out.gates[target]
        kind = tuple(CovertGateKind)[int(rng.integers(4))]
        src = pis[int(rng.integers(len(pis)))]
        stem = out.fresh(f"{target}__cov{step}")
        ins = list(g.ins)
        if kind is CovertGateKind.UT_A:  # a camouflaged buffer spliced into a fan-in wire
            j = int(rng.integers(len(ins)))
            src, ins[j] = ins[j], stem
        else:  # a decoy fan-in whose real value is tied high (non-controlling)
            ins.append(stem)
        dummy = pis[int(rng.integers(len(pis)))] if kind.decoy else None
        cfg = CovertConfig.NORMAL if kind is CovertGateKind.UT_A else CovertConfig.CONST1
        placements.append(draw_cell(out, kind, cfg, stem, src, dummy))
        out.gates[target] = Gate("and", tuple(ins))

    meta = {"method": f"random_{mode}", "value": value,
            "baseline_cells": base_cells, "placements": len(placements)}
    return CamouflagedNetlist(functional_view=f, appearance_view=out,
                              placements=placements, fix_log=[], metadata=meta)


# -- GNN dataset export -------------------------------------------------------

_OP_VOCAB = ("input", "and", "nand", "not", "buf", "or", "xor", "xnor",
             "const0", "const1")


def export_gnn_dataset(netlists: list[CamouflagedNetlist], path: str) -> None:
    """Write nodes/edges/labels CSVs for external graph-learning tooling.

    Every netlist needs metadata["family"]; node features come from the
    appearance view only, node labels mark covert cells.
    """
    for idx, nl in enumerate(netlists):
        if "family" not in nl.metadata:
            raise ValueError(f"netlist {idx} lacks a circuit-family label")
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "nodes.csv"), "w", newline="") as fn, \
         open(os.path.join(path, "edges.csv"), "w", newline="") as fe, \
         open(os.path.join(path, "labels.csv"), "w", newline="") as fl:
        wn = csv.writer(fn)
        we = csv.writer(fe)
        wl = csv.writer(fl)
        wn.writerow(["graph_id", "node", "op"] + [f"is_{op}" for op in _OP_VOCAB])
        we.writerow(["graph_id", "src", "dst"])
        wl.writerow(["graph_id", "node", "family", "is_covert", "covert_kind"])
        for gid, nl in enumerate(netlists):
            c = nl.appearance_view
            covert = {p.out: p.kind.value for p in nl.placements}
            fam = nl.metadata["family"]
            for net in sorted(c.gates):
                g = c.gates[net]
                wn.writerow([gid, net, g.op] +
                            [int(g.op == op) for op in _OP_VOCAB])
                wl.writerow([gid, net, fam, int(net in covert),
                             covert.get(net, "")])
                for src in g.ins:
                    we.writerow([gid, src, net])
    with open(os.path.join(path, "README.md"), "w") as fh:
        fh.write(_GNN_README)


_GNN_README = """\
# Labeled netlist graphs

One row per gate of each appearance-view netlist; functional information is
deliberately absent (an attacker only sees the appearance).

- nodes.csv: graph_id, node (net name), op, then one-hot op indicator columns.
- edges.csv: graph_id, src, dst — a directed wire from driver to sink.
- labels.csv: graph_id, node, family (graph-level circuit family),
  is_covert (1 if the cell belongs to a covert placement), covert_kind
  (FI / FB / UT-A / UT-B, empty for genuine cells).
"""
