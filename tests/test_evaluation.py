"""Latent/GED statistics, random-insertion baselines and dataset export."""
import csv

import numpy as np
import pytest

from ipcamo import evaluation
from ipcamo.aig import random_tree
from ipcamo.evaluation import (BinStat, CorrelationReport, export_gnn_dataset,
                               ged_lsd_study, latent_distance, pearson_r,
                               random_covert_insertion)
from ipcamo.gatelevel import from_aig


def test_latent_distance():
    assert latent_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)
    assert latent_distance([1.0], [1.0]) == 0.0
    with pytest.raises(ValueError, match="mismatch"):
        latent_distance([1.0], [1.0, 2.0])


def test_pearson_r_hand_values():
    assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    # classic textbook value: r = 0.5 for this triple
    assert pearson_r([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="variance"):
        pearson_r([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError, match="two points"):
        pearson_r([1], [2])
    with pytest.raises(ValueError, match="equal-length"):
        pearson_r([1, 2], [1, 2, 3])


def test_ged_lsd_study_small(toy_checkpoint, monkeypatch):
    params, _ = toy_checkpoint
    rng = np.random.default_rng(20)
    graphs = [random_tree(rng, 1 + int(rng.integers(3)), n_pi_pool=4)
              for _ in range(5)]
    report = ged_lsd_study(graphs, params, bins=5, timeout=5.0)
    n_pairs = 5 * 4 // 2
    assert len(report.pairs) == n_pairs
    assert report.valid_pairs + report.discarded == n_pairs
    assert report.valid_pairs >= 1
    if report.pearson_r is not None:
        assert -1.0 <= report.pearson_r <= 1.0
    assert sum(b.count for b in report.bins) == report.valid_pairs
    with pytest.raises(ValueError, match="two graphs"):
        ged_lsd_study(graphs[:1], params)

    def no_ged(*args, **kwargs):
        raise AssertionError("GED ran before the bins check")

    monkeypatch.setattr(evaluation, "graph_edit_distance", no_ged)
    for bins in (0, -1):
        with pytest.raises(ValueError, match="at least one bin"):
            ged_lsd_study(graphs, params, bins=bins)


def test_report_serialization(tmp_path):
    report = CorrelationReport(
        pearson_r=0.5, bin_mean_r=None, valid_pairs=2, discarded=1,
        bins=[BinStat(0, 0.0, 1.0, 3.0, 0.0, 2)],
        pairs=[(0, 1, 0.25, 3), (0, 2, 0.5, 3), (1, 2, 9.0, None)])
    pairs = tmp_path / "pairs.csv"
    bins = tmp_path / "bins.csv"
    report.pairs_csv(str(pairs))
    report.bins_csv(str(bins))
    lines = pairs.read_text().strip().splitlines()
    assert lines[0] == "id1,id2,lsd,ged"
    assert lines[-1].endswith("TIMEOUT")
    assert bins.read_text().startswith("bin,lsd_lo,lsd_hi")
    summary = report.summary_json()
    assert '"pearson_r": 0.5' in summary and '"discarded": 1' in summary


def test_random_insertion_counts_and_modes():
    f = random_tree(np.random.default_rng(30), 6)
    base = from_aig(f).cell_count()
    nl = random_covert_insertion(f, "fraction", 0.05, np.random.default_rng(1))
    assert len(nl.placements) == max(1, round(0.05 * base))
    assert nl.metadata["baseline_cells"] == base

    nl2 = random_covert_insertion(f, "match_area", 1.5, np.random.default_rng(2))
    assert len(nl2.placements) == round(0.5 * base)

    zero = random_covert_insertion(f, "fraction", 0.0)
    assert zero.placements == []
    with pytest.raises(ValueError, match="range"):
        random_covert_insertion(f, "fraction", 2.0)
    with pytest.raises(ValueError, match="unreachable"):
        random_covert_insertion(f, "match_area", 0.5)
    with pytest.raises(ValueError, match="unknown mode"):
        random_covert_insertion(f, "sprinkle", 0.1)


def test_random_insertion_resolves_to_original():
    """Resolving every covert cell to its true behavior recovers f exactly."""
    from ipcamo.attack import key_is_correct, keyize_netlist
    from ipcamo.attack import equivalence_check
    from ipcamo.gatelevel import substitute
    rng = np.random.default_rng(31)
    f = random_tree(rng, 5)
    nl = random_covert_insertion(f, "fraction", 0.3, rng)
    kn = keyize_netlist(nl)
    assert equivalence_check(
        substitute(kn.circuit, dict(zip(kn.key_inputs, kn.correct_key))), f)


def test_gnn_export_roundtrip(tmp_path):
    rng = np.random.default_rng(40)
    nls = []
    for k in range(2):
        f = random_tree(rng, 4)
        nl = random_covert_insertion(f, "fraction", 0.4, rng)
        nl.metadata["family"] = f"fam{k}"
        nls.append(nl)
    out = tmp_path / "gnn"
    export_gnn_dataset(nls, str(out))
    assert (out / "README.md").exists()
    graphs = {gid: {"ops": {}, "edges": [], "labels": {}, "family": set()}
              for gid in range(len(nls))}
    for name in ("nodes", "edges", "labels"):
        with open(out / f"{name}.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                g = graphs[int(row["graph_id"])]
                if name == "nodes":
                    g["ops"][row["node"]] = row["op"]
                elif name == "edges":
                    g["edges"].append((row["src"], row["dst"]))
                else:
                    g["family"].add(row["family"])
                    g["labels"][row["node"]] = int(row["is_covert"])
    for gid, nl in enumerate(nls):
        g = graphs[gid]
        c = nl.appearance_view
        assert g["family"] == {nl.metadata["family"]}
        assert g["ops"] == {n: gate.op for n, gate in c.gates.items()}
        want_edges = sorted((s, n) for n, gate in c.gates.items() for s in gate.ins)
        assert sorted(g["edges"]) == want_edges
        covert_nodes = {n for n, flag in g["labels"].items() if flag}
        expect = set()
        for p in nl.placements:
            expect.add(p.out)
            if p.kind.value == "FB":
                expect.add(c.gates[p.out].ins[0])
        assert covert_nodes == expect


def test_gnn_export_requires_family(tmp_path):
    f = random_tree(np.random.default_rng(41), 3)
    nl = random_covert_insertion(f, "fraction", 0.2)
    with pytest.raises(ValueError, match="family"):
        export_gnn_dataset([nl], str(tmp_path / "x"))
