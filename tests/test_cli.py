"""End-to-end CLI runs in a scratch workspace; determinism and exit codes."""
import importlib
import itertools
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
    from ipcamo.camouflage import CamouflagedNetlist, area_overhead
    camo = workspace["camo"]
    names = sorted(p.name for p in camo.glob("netlist_*.json"))
    assert names == ["netlist_p0.3_th0.05.json", "netlist_p0.7_th0.05.json"]
    manifest = json.loads((camo / "manifest.json").read_text())
    assert manifest["grid_cells"] == 2
    assert sorted(manifest["area_overhead"]) == names
    for name in names:
        nl = CamouflagedNetlist.from_json((camo / name).read_text())
        assert manifest["area_overhead"][name] == area_overhead(nl)

    # identical config + seed into a fresh directory: byte-identical artifacts
    rerun = tmp_path / "rerun"
    assert main(["camouflage", "--config", str(workspace["camo_cfg"]),
                 "--out", str(rerun), "--seed", "2",
                 "--p", "0.3,0.7", "--th", "0.05"]) == EXIT_OK
    for name in names:
        assert (rerun / name).read_bytes() == (camo / name).read_bytes()


def test_camouflage_grid_that_names_no_file_or_one_file_twice(workspace, tmp_path, capsys):
    """An empty p or th list, or two cells whose files share a name, is a
    usage error, and no netlist is written."""
    for p in ("", "0.5,0.5", "0.1,0.10000001"):
        out = tmp_path / f"camo{len(p)}"
        code = main(["camouflage", "--config", str(workspace["camo_cfg"]),
                     "--out", str(out), "--p", p, "--th", "0.05"])
        assert code == EXIT_USAGE, p
        assert not list(out.glob("netlist_*.json"))
    assert "netlist_p0.1_th0.05.json" in capsys.readouterr().err
    code = main(["camouflage", "--config", str(workspace["camo_cfg"]),
                 "--out", str(tmp_path / "no_th"), "--th", ""])
    assert code == EXIT_USAGE


def test_camouflage_checks_each_netlist_before_writing_it(workspace, tmp_path,
                                                          monkeypatch, capsys):
    """A generated netlist whose fabricated circuit is not F (one NORMAL cell
    flipped to a constant) is not written: the command names its cell and
    exits 1."""
    from ipcamo import cli
    from ipcamo.attack import equivalence_check
    from ipcamo.covert import CovertConfig, realize
    f = cli._load_graph(str(workspace["functional"]))
    grid = cli.camouflage_grid

    def flipped_grid(*args, **kwargs):
        for nl in grid(*args, **kwargs):
            normal = [p for p in nl.placements if p.config is CovertConfig.NORMAL]
            for p, tie in itertools.product(normal, (CovertConfig.CONST0, CovertConfig.CONST1)):
                p.config = tie
                if not equivalence_check(realize(nl.appearance_view, nl.placements), f):
                    break
                p.config = CovertConfig.NORMAL
            else:
                pytest.fail("no flip of a NORMAL cell changes the function")
            yield nl

    monkeypatch.setattr(cli, "camouflage_grid", flipped_grid)
    out = tmp_path / "camo"
    assert main(["camouflage", "--config", str(workspace["camo_cfg"]), "--out", str(out),
                 "--seed", "2", "--p", "0.3,0.7", "--th", "0.05"]) == EXIT_VIOLATION
    assert "netlist_p0.3_th0.05.json" in capsys.readouterr().err
    assert not list(out.glob("*.json"))


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


def test_verify_budget_spent_writes_a_null_row(workspace, tmp_path, monkeypatch):
    """A check cut by its budget decides nothing: its row says null, it counts
    as a failure, and the report and manifest are still written."""
    import ipcamo.cli

    def spent(*args, **kwargs):
        raise TimeoutError("equivalence check exceeded its time budget")

    monkeypatch.setattr(ipcamo.cli, "equivalence_check", spent)
    out = tmp_path / "verify_spent"
    code = main(["verify", "--out", str(out), "--budget", "0.01", "--config",
                 str(_write_cfg(tmp_path / "v.json", {
                     "functional": str(workspace["functional"]),
                     "netlists": str(workspace["camo"]),
                 }))])
    assert code == EXIT_VIOLATION
    report = json.loads((out / "verify.json").read_text())
    assert [r["equivalent"] for r in report["results"]] == [None, None]
    assert report["failures"] == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == 2 and "verify.json" in manifest["artifacts"]


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


def test_verify_rejects_a_cell_that_does_not_read_its_real_input(toy_checkpoint,
                                                                 tmp_path):
    """A UT-A cell redrawn as a NAND of its decoy tap twice still realizes
    F, since realize trusts the placement; loading the file checks every
    placement against the cell drawn at its output, so verify fails."""
    from ipcamo.aig import random_tree
    from ipcamo.attack import equivalence_check
    from ipcamo.camouflage import CamouflagedNetlist, camouflage_pipeline
    from ipcamo.covert import realize
    from ipcamo.gatelevel import circuit_from_obj
    params, _ = toy_checkpoint
    rng = np.random.default_rng(100)
    f, a = random_tree(rng, 82, n_pi_pool=10), random_tree(rng, 82, n_pi_pool=10)
    nl = camouflage_pipeline(f, a, params, p=0.5, th=0.5, seed=0)
    text = nl.to_json()
    assert CamouflagedNetlist.from_json(text).to_json() == text
    obj = json.loads(text)
    gate = obj["appearance_view"]["gates"]["g87_e2"]
    assert gate == {"op": "nand", "ins": ["g86", "pi5"]}
    gate["ins"] = ["pi5", "pi5"]
    tampered = circuit_from_obj(obj["appearance_view"])
    assert equivalence_check(realize(tampered, nl.placements), f)
    with pytest.raises(ValueError, match="g87_e2"):
        CamouflagedNetlist.from_json(json.dumps(obj))

    f_path = tmp_path / "f.json"
    f_path.write_text(f.to_json())
    nets = tmp_path / "netlists"
    nets.mkdir()
    (nets / "netlist_p0.5_th0.5.json").write_text(json.dumps(obj, sort_keys=True))
    cfg = _write_cfg(tmp_path / "v.json", {"out": str(tmp_path / "verify"),
                                           "functional": str(f_path),
                                           "netlists": str(nets)})
    assert main(["verify", "--config", str(cfg)]) == EXIT_VIOLATION


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
    speed. ac08's desk netlist holds out past ac08's 60 s budget, so at a
    0.5 s budget both runs stop on the clock."""
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
    assert row.split(",")[3:] == ["482", "budget-exceeded", "", ""]


def test_attack_reports_a_wrong_key(workspace, tmp_path, monkeypatch):
    """A finished attack whose key does not realize the oracle's function
    writes a `wrong-key` row with its counts, not `solved`, and exits 1."""
    from ipcamo import cli
    from ipcamo.attack import DipTrace, key_is_correct

    def wrong_key_attack(kn, oracle, time_budget=None):
        for i in range(0, kn.n_key_bits, 2):
            key = list(kn.correct_key)
            key[i] ^= 1
            key[i + 1] ^= 1  # flip one candidate's whole configuration
            if not key_is_correct(kn, key):
                return DipTrace("solved", key, 3, solves=[(7, 0, 0)])
        pytest.fail("no single flipped candidate changes the function")

    monkeypatch.setattr(cli, "dip_attack", wrong_key_attack)
    out = tmp_path / "attack"
    cfg = _write_cfg(tmp_path / "a.json",
                     {"out": str(out), "netlists": str(workspace["camo"])})
    assert main(["attack", "--config", str(cfg)]) == EXIT_VIOLATION
    rows = [line.split(",") for line in (out / "attack.csv").read_text().splitlines()]
    assert len(rows) == 3
    assert all(row[4:] == ["wrong-key", "3", "7"] for row in rows[1:])


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


def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys):
    cfg = str(_write_cfg(tmp_path / "a.json", {"netlists": str(tmp_path)}))
    for argv in (["attack", "--config", cfg, "--seed", "3"],
                 ["dataset", "--config", cfg, "--budget", "1"],
                 ["eval", "--config", cfg, "--p", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


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
