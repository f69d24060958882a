"""Covert gate semantics: actual vs. apparent behavior."""
import pytest

from ipcamo.attack import keyize_netlist
from ipcamo.camouflage import CamouflagedNetlist
from ipcamo.covert import (LEGAL_CONFIGS, CovertConfig, CovertGateKind,
                           CovertInstance, apparent_function, apparent_op,
                           cell_nets, draw_cell, gate_function)
from ipcamo.gatelevel import Circuit, Gate

K = CovertGateKind
C = CovertConfig


def test_actual_function_exhaustive():
    # constants are input-independent for every kind
    for kind in K:
        for cfg, bit in ((C.CONST0, 0), (C.CONST1, 1)):
            for x in (0, 1):
                assert gate_function(kind, cfg, x) == bit
    # pass-through modes
    for x in (0, 1):
        assert gate_function(K.UT_A, C.NORMAL, x) == x          # buffer
        assert gate_function(K.UT_B, C.NORMAL, x) == 1 - x      # inverter
    # FI/FB have no pass-through
    for kind in (K.FI, K.FB):
        with pytest.raises(ValueError):
            gate_function(kind, C.NORMAL, 0)
        with pytest.raises(ValueError):
            CovertInstance(kind, C.NORMAL, out="o", real_in="x")


def test_apparent_function_exhaustive():
    for x in (0, 1):
        assert apparent_function(K.FI, x) == 1 - x              # reads as INV
        assert apparent_function(K.FB, x) == x                  # reads as BUF
        for kind in (K.UT_A, K.UT_B):
            for d in (0, 1):
                assert apparent_function(kind, x, d) == 1 - (x & d)


def test_appearance_cost_model():
    assert apparent_op(K.FI) == "not"
    assert apparent_op(K.FB) == "buf"
    for kind in (K.UT_A, K.UT_B):
        assert apparent_op(kind) == "nand"


def test_ut_needs_dummy_input():
    with pytest.raises(ValueError, match="dummy"):
        CovertInstance(K.UT_A, C.NORMAL, out="o", real_in="x")
    CovertInstance(K.UT_A, C.NORMAL, out="o", real_in="x", dummy_in="d")


def test_covert_instance_rejects_illegal_pairs_and_missing_dummies():
    ut = (K.UT_A, K.UT_B)
    for kind in K:
        for cfg in C:
            dummy = "d" if kind in ut else None
            if cfg in LEGAL_CONFIGS[kind]:
                p = CovertInstance(kind, cfg, out="o", real_in="x", dummy_in=dummy)
                assert (p.kind, p.config, p.dummy_in) == (kind, cfg, dummy)
            else:
                with pytest.raises(ValueError,
                                   match=f"^{kind.value} cannot be configured {cfg.value}$"):
                    CovertInstance(kind, cfg, out="o", real_in="x", dummy_in=dummy)
    for kind in ut:
        for cfg in C:
            for dummy in (None, ""):
                with pytest.raises(ValueError, match=f"^{kind.value} needs a dummy input net$"):
                    CovertInstance(kind, cfg, out="o", real_in="x", dummy_in=dummy)


def test_draw_cell_layout_matches_cell_nets_and_key_model():
    for kind, configs in LEGAL_CONFIGS.items():
        for cfg in sorted(configs, key=lambda c: c.value):
            c = Circuit()
            c.add("x", "input")
            c.add("d", "input")
            dummy = "d" if apparent_op(kind) == "nand" else None
            p = draw_cell(c, kind, cfg, "y", "x", dummy)
            assert (p.kind, p.config, p.out, p.real_in, p.dummy_in) == \
                (kind, cfg, "y", "x", dummy)
            nets = cell_nets(p, c)
            assert sorted(nets) == sorted(set(c.gates) - {"x", "d"}), (kind, cfg)
            if kind is K.FB:
                assert c.gates[nets[1]] == Gate("not", ("x",))
            c.outputs = ["y"]
            kn = keyize_netlist(CamouflagedNetlist(None, c, [p], []))
            for x in (0, 1):
                for d in (0, 1):
                    got = kn.evaluate(kn.correct_key, {"x": x, "d": d})["y"]
                    assert got == gate_function(kind, cfg, x), (kind, cfg, x, d)
