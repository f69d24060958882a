"""Command-line driver: dataset, train, camouflage, verify, attack, eval.

Configuration comes from an optional JSON file plus flag overrides (flags
win). Every command writes its artifacts plus a manifest.json with sha256
checksums under the output directory; identical config and seed reproduce
byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import os
import sys

import numpy as np

from . import aig, vae
from .attack import (dip_attack, equivalence_check, key_is_correct, keyize_netlist,
                     make_oracle)
from .camouflage import CamouflagedNetlist, area_overhead, camouflage_grid
from .covert import realize
from .evaluation import export_gnn_dataset, ged_lsd_study

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


def _load_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}")
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    for key, val in vars(args).items():
        if key not in ("command", "config") and val is not None:
            cfg[key] = val
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    return cfg[key]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, command: str, cfg: dict, artifacts: list[str],
                    extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "artifacts": {os.path.relpath(p, out_dir): _sha256(p)
                      for p in sorted(artifacts)},
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_graph(path: str) -> aig.AigGraph:
    data = _read(path)
    if path.endswith(".aag"):
        return aig.parse_aiger(data)
    return aig.AigGraph.from_json(data.decode())


def _netlist_paths(netlists: str) -> list[str]:
    paths = sorted(glob.glob(os.path.join(netlists, "netlist_*.json")))
    if not paths:
        raise ConfigError(f"no netlist_*.json files in {netlists!r}")
    return paths


def _out_dir(cfg: dict) -> str:
    out = _require(cfg, "out")
    os.makedirs(out, exist_ok=True)
    return out


# -- dataset ------------------------------------------------------------------


def cmd_dataset(cfg: dict) -> int:
    out = _out_dir(cfg)
    seed = int(cfg.get("seed", 0))
    max_nodes = int(cfg.get("max_nodes", 200))
    rng = np.random.default_rng(seed)

    cones: list[tuple[str, str, aig.AigGraph]] = []
    if "benchmark_dir" in cfg:
        files = sorted(glob.glob(os.path.join(cfg["benchmark_dir"], "*.aag")))
        if not files:
            raise ConfigError(f"no .aag files under {cfg['benchmark_dir']}")
        for path in files:
            g = aig.parse_aiger(_read(path))
            for po in g.po_names:
                tree = aig.extract_cone_tree(g, po, max_nodes=max_nodes)
                if tree is not None:
                    cones.append((os.path.basename(path), po, tree))
    elif "synthetic" in cfg:
        syn = cfg["synthetic"]
        for k in range(int(syn.get("n_graphs", 50))):
            n_ands = 1 + int(rng.integers(int(syn.get("max_ands", 8))))
            tree = aig.random_tree(rng, n_ands,
                                   n_pi_pool=int(syn.get("pi_pool", 6)))
            cones.append(("synthetic", f"g{k}", tree))
    else:
        raise ConfigError("config needs benchmark_dir or synthetic")
    if not cones:
        raise ConfigError("no cones retained after filtering")

    order = rng.permutation(len(cones))
    n_test = max(1, len(cones) // 5) if len(cones) > 1 else 0
    split = {int(i): ("test" if k < n_test else "train")
             for k, i in enumerate(order)}
    gdir = os.path.join(out, "graphs")
    os.makedirs(gdir, exist_ok=True)
    rows, artifacts = [], []
    for i, (src, po, tree) in enumerate(cones):
        path = os.path.join(gdir, f"g{i:05d}.json")
        with open(path, "w") as fh:
            fh.write(tree.to_json())
        artifacts.append(path)
        rows.append({"id": i, "source": src, "output": po,
                     "nodes": tree.n, "split": split[i]})
    _write_manifest(out, "dataset", cfg, artifacts, extra={
        "graphs": rows,
        "counts": {"total": len(rows),
                   "train": sum(r["split"] == "train" for r in rows),
                   "test": sum(r["split"] == "test" for r in rows)},
    })
    return EXIT_OK


def _load_split(dataset_dir: str, split: str | None) -> list[aig.AigGraph]:
    with open(os.path.join(dataset_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    out = []
    for row in manifest["graphs"]:
        if split and row["split"] != split:
            continue
        out.append(_load_graph(os.path.join(dataset_dir, "graphs",
                                            f"g{row['id']:05d}.json")))
    if not out:
        raise ConfigError(f"no graphs in split {split!r}")
    return out


# -- train --------------------------------------------------------------------


def cmd_train(cfg: dict) -> int:
    out = _out_dir(cfg)
    dataset = _load_split(_require(cfg, "dataset"), "train")
    hp = vae.Hyperparams(seed=int(cfg.get("seed", 0)))
    for key in ("alpha", "beta", "gamma", "delta", "lr"):
        if key in cfg:
            setattr(hp, key, float(cfg[key]))
    for key in ("epochs", "patience", "latent_dim", "hidden_dim",
                "mlp_hidden", "max_pi"):
        if key in cfg:
            setattr(hp, key, int(cfg[key]))
    params, history = vae.train(dataset, hp)
    ckpt = os.path.join(out, "checkpoint.json")
    vae.save_vae(params, ckpt)
    hist = os.path.join(out, "history.csv")
    vae.write_history_csv(history, hist)
    _write_manifest(out, "train", cfg, [ckpt, hist],
                    extra={"epochs_run": len(history),
                           "final_val_loss": history[-1]["val_loss"]})
    return EXIT_OK


# -- camouflage ---------------------------------------------------------------


def _netlist_name(p: float, th: float) -> str:
    return f"netlist_p{p:g}_th{th:g}.json"


def _grid(cfg: dict) -> tuple[list[float], list[float]]:
    ps = cfg.get("p", [0.5])
    ths = cfg.get("th", [0.05])
    ps = [float(x) for x in (ps if isinstance(ps, list) else [ps])]
    ths = [float(x) for x in (ths if isinstance(ths, list) else [ths])]
    if not ps or not ths:
        raise ConfigError("the p and th lists must not be empty")
    if any(not 0 <= p <= 1 for p in ps):
        raise ConfigError("p values must lie in [0, 1]")
    if any(not 0 < t < 1 for t in ths):
        raise ConfigError("th values must lie in (0, 1)")
    names = [_netlist_name(p, th) for p in ps for th in ths]
    if len(set(names)) < len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ConfigError(f"two grid cells would both write {dup}")
    return ps, ths


def cmd_camouflage(cfg: dict) -> int:
    """Write one netlist per (p, th) cell, after checking that its
    fabricated circuit (covert.realize) computes F; a cell that does not
    raises, so the command exits 1. `verify` re-checks the files. The
    manifest gives each file's area overhead."""
    out = _out_dir(cfg)
    ps, ths = _grid(cfg)
    params = vae.load_vae(_require(cfg, "checkpoint"))
    f = _load_graph(_require(cfg, "functional"))
    a = _load_graph(_require(cfg, "appearance"))
    seed = int(cfg.get("seed", 0))
    artifacts = []
    area = {}
    for nl in camouflage_grid(f, a, params, ps, ths, seed=seed):
        name = _netlist_name(nl.metadata["p"], nl.metadata["th"])
        if not equivalence_check(realize(nl.appearance_view, nl.placements), f):
            raise ValueError(f"{name}: the fabricated circuit does not compute F")
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(nl.to_json())
        artifacts.append(path)
        area[name] = area_overhead(nl)
    _write_manifest(out, "camouflage", cfg, artifacts,
                    extra={"grid_cells": len(artifacts), "area_overhead": area})
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def cmd_verify(cfg: dict) -> int:
    """Check each netlist's fabricated circuit against F: the appearance
    view with every covert cell replaced by its real gate (covert.realize),
    so a wrong placement shows. A check that runs out of its budget writes
    `"equivalent": null` and counts as a failure."""
    out = _out_dir(cfg)
    f = _load_graph(_require(cfg, "functional"))
    paths = _netlist_paths(_require(cfg, "netlists"))
    budget = float(cfg.get("budget", 60.0))
    rows, failures = [], 0
    for path in paths:
        nl = CamouflagedNetlist.from_json(_read(path).decode())
        try:
            ok = bool(equivalence_check(realize(nl.appearance_view, nl.placements), f,
                                        time_budget=budget))
        except TimeoutError:
            ok = None
        failures += ok is not True
        rows.append({"netlist": os.path.basename(path),
                     "equivalent": ok,
                     "p": nl.metadata.get("p"), "th": nl.metadata.get("th")})
    report = os.path.join(out, "verify.json")
    with open(report, "w") as fh:
        json.dump({"results": rows, "failures": failures}, fh,
                  sort_keys=True, indent=2)
    _write_manifest(out, "verify", cfg, [report], extra={"failures": failures})
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


# -- attack -------------------------------------------------------------------


def cmd_attack(cfg: dict) -> int:
    """Run the DIP attack on each netlist's keyed model. A finished attack
    is `solved` only if its key realizes the oracle's function
    (attack.key_is_correct); otherwise the row reads `wrong-key` and the
    command exits 1."""
    out = _out_dir(cfg)
    paths = _netlist_paths(_require(cfg, "netlists"))
    budget = float(cfg.get("budget", 60.0))
    report = os.path.join(out, "attack.csv")
    wrong = 0
    with open(report, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["netlist", "p", "th", "key_bits", "result",
                    "iterations", "conflicts"])
        for path in paths:
            nl = CamouflagedNetlist.from_json(_read(path).decode())
            kn = keyize_netlist(nl)
            trace = dip_attack(kn, make_oracle(kn), time_budget=budget)
            if trace.status != "solved":
                # how far a run gets before its deadline depends on the
                # machine, so a budget row leaves its progress counts empty
                result, counts = "budget-exceeded", ("", "")
            else:
                result = "solved" if key_is_correct(kn, trace.key) else "wrong-key"
                counts = (trace.iterations, trace.conflicts)
                wrong += result == "wrong-key"
            w.writerow([os.path.basename(path), nl.metadata.get("p"),
                        nl.metadata.get("th"), kn.n_key_bits, result, *counts])
    _write_manifest(out, "attack", cfg, [report])
    return EXIT_OK if wrong == 0 else EXIT_VIOLATION


# -- eval ---------------------------------------------------------------------


def cmd_eval(cfg: dict) -> int:
    paths = _netlist_paths(cfg["netlists"]) if "netlists" in cfg else []
    out = _out_dir(cfg)
    params = vae.load_vae(_require(cfg, "checkpoint"))
    graphs = _load_split(_require(cfg, "dataset"), "test")
    report = ged_lsd_study(graphs, params,
                           bins=int(cfg.get("bins", 20)),
                           timeout=float(cfg.get("budget", 5.0)))
    pairs = os.path.join(out, "pairs.csv")
    bins = os.path.join(out, "bins.csv")
    summary = os.path.join(out, "summary.json")
    report.pairs_csv(pairs)
    report.bins_csv(bins)
    with open(summary, "w") as fh:
        fh.write(report.summary_json())
    artifacts = [pairs, bins, summary]
    if paths:
        nls = [CamouflagedNetlist.from_json(_read(p).decode()) for p in paths]
        for nl in nls:
            nl.metadata.setdefault("family", cfg.get("family", "default"))
        gnn_dir = os.path.join(out, "gnn")
        export_gnn_dataset(nls, gnn_dir)
        artifacts += [os.path.join(gnn_dir, f)
                      for f in ("nodes.csv", "edges.csv", "labels.csv", "README.md")]
    _write_manifest(out, "eval", cfg, artifacts)
    return EXIT_OK


# -- entry point --------------------------------------------------------------

_COMMANDS = {
    "dataset": cmd_dataset,
    "train": cmd_train,
    "camouflage": cmd_camouflage,
    "verify": cmd_verify,
    "attack": cmd_attack,
    "eval": cmd_eval,
}
# The flags each command reads, besides --config and --out.
_FLAGS = {
    "dataset": ("seed",),
    "train": ("seed",),
    "camouflage": ("seed", "checkpoint", "p", "th"),
    "verify": ("budget",),
    "attack": ("budget",),
    "eval": ("checkpoint", "budget"),
}


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ipcamo",
                                     description="circuit camouflaging toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "seed": {"type": int},
        "budget": {"type": float, "help": "time budget in seconds"},
        "checkpoint": {},
        "p": {"type": _parse_floats, "help": "comma-separated interpolation weights"},
        "th": {"type": _parse_floats, "help": "comma-separated thresholds"},
    }
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output directory")
        for flag in _FLAGS[name]:
            sp.add_argument(f"--{flag}", **flags[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"ipcamo: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError) as e:
        print(f"ipcamo: error: {e}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
