"""End-to-end CLI runs in a scratch workspace; determinism and exit codes."""
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ipcamo
from ipcamo.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main

TRAIN_CFG = {
    "epochs": 2,
    "latent_dim": 8,
    "hidden_dim": 8,
    "mlp_hidden": 8,
    "max_pi": 8,
    "lr": 3e-3,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """dataset -> train -> camouflage, shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "dataset"
    cfg = root / "dataset.json"
    cfg.write_text(json.dumps({
        "out": str(ds),
        "synthetic": {"n_graphs": 12, "max_ands": 4, "pi_pool": 4},
    }))
    assert main(["dataset", "--config", str(cfg), "--seed", "1"]) == EXIT_OK

    tr = root / "train"
    tcfg = root / "train.json"
    tcfg.write_text(json.dumps({"out": str(tr), "dataset": str(ds), **TRAIN_CFG}))
    assert main(["train", "--config", str(tcfg), "--seed", "0"]) == EXIT_OK

    manifest = json.loads((ds / "manifest.json").read_text())
    train_ids = [r["id"] for r in manifest["graphs"] if r["split"] == "train"]
    f_path = ds / "graphs" / f"g{train_ids[0]:05d}.json"
    a_path = ds / "graphs" / f"g{train_ids[1]:05d}.json"

    camo = root / "camo"
    ccfg = root / "camo.json"
    ccfg.write_text(json.dumps({
        "out": str(camo),
        "checkpoint": str(tr / "checkpoint.json"),
        "functional": str(f_path),
        "appearance": str(a_path),
    }))
    assert main(["camouflage", "--config", str(ccfg), "--seed", "2",
                 "--p", "0.3,0.7", "--th", "0.05"]) == EXIT_OK
    return {"root": root, "dataset": ds, "train": tr, "camo": camo,
            "camo_cfg": ccfg, "functional": f_path, "appearance": a_path}


def test_dataset_artifacts(workspace):
    ds = workspace["dataset"]
    manifest = json.loads((ds / "manifest.json").read_text())
    counts = manifest["counts"]
    assert counts["total"] == 12
    assert counts["train"] + counts["test"] == 12 and counts["test"] >= 1
    for row in manifest["graphs"]:
        assert (ds / "graphs" / f"g{row['id']:05d}.json").exists()


def test_train_artifacts(workspace):
    tr = workspace["train"]
    assert (tr / "checkpoint.json").exists()
    hist = (tr / "history.csv").read_text().splitlines()
    assert hist[0].startswith("epoch,")
    assert len(hist) >= 2


def test_camouflage_grid_and_determinism(workspace, tmp_path):
    camo = workspace["camo"]
    names = sorted(p.name for p in camo.glob("netlist_*.json"))
    assert names == ["netlist_p0.3_th0.05.json", "netlist_p0.7_th0.05.json"]
    manifest = json.loads((camo / "manifest.json").read_text())
    assert manifest["grid_cells"] == 2

    # identical config + seed into a fresh directory: byte-identical artifacts
    rerun = tmp_path / "rerun"
    assert main(["camouflage", "--config", str(workspace["camo_cfg"]),
                 "--out", str(rerun), "--seed", "2",
                 "--p", "0.3,0.7", "--th", "0.05"]) == EXIT_OK
    for name in names:
        assert (rerun / name).read_bytes() == (camo / name).read_bytes()


def test_verify_pass_and_fail(workspace, tmp_path):
    ok_out = tmp_path / "verify_ok"
    assert main(["verify", "--out", str(ok_out), "--config",
                 str(_write_cfg(tmp_path / "v1.json", {
                     "functional": str(workspace["functional"]),
                     "netlists": str(workspace["camo"]),
                 }))]) == EXIT_OK
    report = json.loads((ok_out / "verify.json").read_text())
    assert report["failures"] == 0
    assert all(r["equivalent"] for r in report["results"])

    bad_out = tmp_path / "verify_bad"
    code = main(["verify", "--out", str(bad_out), "--config",
                 str(_write_cfg(tmp_path / "v2.json", {
                     "functional": str(workspace["appearance"]),  # wrong target
                     "netlists": str(workspace["camo"]),
                 }))])
    assert code == EXIT_VIOLATION
    assert json.loads((bad_out / "verify.json").read_text())["failures"] >= 1


def test_verify_rejects_a_wrong_placement(toy_checkpoint, tmp_path):
    """The stored functional view is still F, but one UT cell flipped from
    NORMAL to CONST0 changes the built function, so verify fails."""
    from ipcamo.aig import pattern_words, random_tree
    from ipcamo.attack import keyize_netlist
    from ipcamo.camouflage import camouflage_pipeline
    from ipcamo.covert import CovertConfig
    from ipcamo.gatelevel import CompiledCircuit, from_aig
    params, _ = toy_checkpoint
    rng = np.random.default_rng(100)
    f, a = random_tree(rng, 82, n_pi_pool=10), random_tree(rng, 82, n_pi_pool=10)
    words, full = pattern_words(len(f.pi_names))
    payload = dict(zip(f.pi_names, words))
    want = CompiledCircuit(from_aig(f)).run(payload, full)
    nl = camouflage_pipeline(f, a, params, p=0.5, th=0.5, seed=0)
    # the first flip that the keyed circuit under its correct key shows
    for p in nl.placements:
        if p.config is not CovertConfig.NORMAL:
            continue
        p.config = CovertConfig.CONST0
        kn = keyize_netlist(nl)
        key = {k: full if b else 0 for k, b in zip(kn.key_inputs, kn.correct_key)}
        if CompiledCircuit(kn.circuit).run(payload | key, full) != want:
            break
        p.config = CovertConfig.NORMAL
    else:
        pytest.fail("no NORMAL -> CONST0 flip changes the function")
    f_path = tmp_path / "f.json"
    f_path.write_text(f.to_json())
    nets = tmp_path / "netlists"
    nets.mkdir()
    (nets / "netlist_p0.5_th0.5.json").write_text(nl.to_json())
    out = tmp_path / "verify"
    cfg = _write_cfg(tmp_path / "v.json", {"out": str(out), "functional": str(f_path),
                                           "netlists": str(nets)})
    assert main(["verify", "--config", str(cfg)]) == EXIT_VIOLATION
    report = json.loads((out / "verify.json").read_text())
    assert report["failures"] == 1
    assert [r["equivalent"] for r in report["results"]] == [False]


def _write_cfg(path, obj):
    path.write_text(json.dumps(obj))
    return path


def test_attack_report(workspace, tmp_path):
    out = tmp_path / "attack"
    cfg = _write_cfg(tmp_path / "a.json",
                     {"out": str(out), "netlists": str(workspace["camo"])})
    assert main(["attack", "--config", str(cfg), "--budget", "0.05"]) == EXIT_OK
    lines = (out / "attack.csv").read_text().splitlines()
    assert lines[0] == "netlist,p,th,key_bits,result,iterations,conflicts"
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[4] in ("solved", "budget-exceeded")


def test_attack_budget_rows_are_byte_identical(toy_checkpoint, tmp_path):
    """A run cut by its budget writes no counts that depend on the machine's
    speed. On ac08's desk netlist the second DIP solve alone takes seconds,
    so at a 0.5 s budget both runs stop on the clock."""
    from ipcamo.aig import random_tree
    from ipcamo.camouflage import camouflage_pipeline
    params, _ = toy_checkpoint
    rng = np.random.default_rng(100)
    f, a = random_tree(rng, 82, n_pi_pool=10), random_tree(rng, 82, n_pi_pool=10)
    nets = tmp_path / "netlists"
    nets.mkdir()
    (nets / "netlist_p0.5_th0.05.json").write_text(
        camouflage_pipeline(f, a, params, p=0.5, th=0.05, seed=0).to_json())
    out = tmp_path / "attack"
    cfg = _write_cfg(tmp_path / "a.json", {"out": str(out), "netlists": str(nets)})
    runs = []
    for _ in range(2):
        assert main(["attack", "--config", str(cfg), "--budget", "0.5"]) == EXIT_OK
        runs.append([(out / n).read_bytes() for n in ("attack.csv", "manifest.json")])
    assert runs[0] == runs[1]
    row = runs[0][0].decode().splitlines()[1]
    assert row.split(",")[3:] == ["5708", "budget-exceeded", "", ""]


def test_eval_report(workspace, tmp_path):
    out = tmp_path / "eval"
    cfg = _write_cfg(tmp_path / "e.json", {
        "out": str(out),
        "dataset": str(workspace["dataset"]),
        "checkpoint": str(workspace["train"] / "checkpoint.json"),
        "netlists": str(workspace["camo"]),
        "bins": 5,
    })
    assert main(["eval", "--config", str(cfg), "--budget", "5"]) == EXIT_OK
    assert (out / "pairs.csv").exists() and (out / "bins.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["valid_pairs"] + summary["discarded"] >= 1
    assert (out / "gnn" / "labels.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "gnn/nodes.csv" in manifest["artifacts"]
    zero = _write_cfg(tmp_path / "e0.json", {
        "out": str(tmp_path / "eval0"),
        "dataset": str(workspace["dataset"]),
        "checkpoint": str(workspace["train"] / "checkpoint.json"),
        "bins": 0,
    })
    assert main(["eval", "--config", str(zero)]) == EXIT_VIOLATION


def test_manifest_checksums_match(workspace):
    import hashlib
    camo = workspace["camo"]
    manifest = json.loads((camo / "manifest.json").read_text())
    for rel, digest in manifest["artifacts"].items():
        data = (camo / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_usage_errors(tmp_path):
    # missing required config keys
    assert main(["train", "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert main(["dataset", "--out", str(tmp_path / "y"),
                 "--config", str(_write_cfg(tmp_path / "c.json", {}))]) == EXIT_USAGE
    # unreadable config file
    assert main(["dataset", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "z")]) == EXIT_USAGE
    # bad grid values
    cfg = _write_cfg(tmp_path / "g.json", {
        "out": str(tmp_path / "w"), "checkpoint": "x", "functional": "y",
        "appearance": "z"})
    assert main(["camouflage", "--config", str(cfg), "--th", "1.5"]) == EXIT_USAGE


def _assert_help_lists_commands(cmd, env=None):
    res = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert res.returncode == 0
    for name in ("dataset", "train", "camouflage", "verify", "attack", "eval"):
        assert name in res.stdout


def test_console_script_entry():
    """`python -m ipcamo` works from a checkout, with nothing installed."""
    src = os.path.dirname(os.path.dirname(ipcamo.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    _assert_help_lists_commands([sys.executable, "-m", "ipcamo", "--help"], env)


@pytest.mark.skipif(shutil.which("ipcamo") is None,
                    reason="the ipcamo console script is not installed on PATH")
def test_installed_console_script_on_path():
    _assert_help_lists_commands(["ipcamo", "--help"])


def test_project_script_maps_to_main_entry():
    """pyproject's `ipcamo` script names the function `python -m ipcamo` calls."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ipcamo"]
    module, _, attr = target.partition(":")
    script_main = getattr(importlib.import_module(module), attr)
    assert script_main is importlib.import_module("ipcamo.__main__").main
    assert script_main is main
