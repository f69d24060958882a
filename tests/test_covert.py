"""Covert gate semantics: actual vs. apparent behavior."""
import pytest

from ipcamo.attack import keyize_netlist
from ipcamo.camouflage import CamouflagedNetlist
from ipcamo.covert import CovertConfig, CovertGateKind, CovertInstance, draw_cell, realize
from ipcamo.gatelevel import Circuit, Gate
from reference_tools import cell_bits

K = CovertGateKind
C = CovertConfig
# the legal (kind, config) pairs: FI and FB have no pass-through mode
LEGAL = [(kind, cfg) for kind in K for cfg in sorted(C, key=lambda c: c.value)
         if cfg is not C.NORMAL or kind in (K.UT_A, K.UT_B)]


def test_actual_function_exhaustive():
    """What each drawn cell does: `realize` of it, simulated."""
    # constants are input-independent for every kind
    for kind in K:
        for cfg, bit in ((C.CONST0, 0), (C.CONST1, 1)):
            for x in (0, 1):
                assert cell_bits(kind, cfg, x)[1] == bit
    # pass-through modes
    for x in (0, 1):
        assert cell_bits(K.UT_A, C.NORMAL, x)[1] == x          # buffer
        assert cell_bits(K.UT_B, C.NORMAL, x)[1] == 1 - x      # inverter
    # FI/FB have no pass-through
    for kind in (K.FI, K.FB):
        with pytest.raises(ValueError):
            cell_bits(kind, C.NORMAL, 0)
        with pytest.raises(ValueError):
            CovertInstance(kind, C.NORMAL, out="o", real_in="x")


def test_apparent_function_exhaustive():
    """What each drawn cell looks like, under every legal configuration."""
    for kind, cfg in LEGAL:
        for x in (0, 1):
            if kind is K.FI:
                assert cell_bits(kind, cfg, x)[0] == 1 - x     # reads as INV
            elif kind is K.FB:
                assert cell_bits(kind, cfg, x)[0] == x         # reads as BUF
            else:
                for d in (0, 1):
                    assert cell_bits(kind, cfg, x, d)[0] == 1 - (x & d)


def test_appearance_cost_model():
    assert [(k.look, k.real, k.key00, k.decoy) for k in K] == [
        ("not", None, "not", False), ("buf", None, "buf", False),
        ("nand", "buf", "buf", True), ("nand", "not", "not", True)]
    assert [c.key_bits for c in C] == [(0, 0), (0, 1), (1, 0)]


def test_ut_needs_dummy_input():
    with pytest.raises(ValueError, match="dummy"):
        CovertInstance(K.UT_A, C.NORMAL, out="o", real_in="x")
    CovertInstance(K.UT_A, C.NORMAL, out="o", real_in="x", dummy_in="d")


def test_covert_instance_rejects_illegal_pairs_and_missing_dummies():
    ut = (K.UT_A, K.UT_B)
    for kind in K:
        for cfg in C:
            dummy = "d" if kind in ut else None
            if (kind, cfg) in LEGAL:
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


def test_draw_cell_is_one_gate_and_matches_the_key_model():
    """The drawn cell is one gate, `kind.look` at its output, and the keyed
    cell under its correct key computes what the realized cell does."""
    for kind, cfg in LEGAL:
        c = Circuit()
        c.add("x", "input")
        c.add("d", "input")
        dummy = "d" if kind in (K.UT_A, K.UT_B) else None
        p = draw_cell(c, kind, cfg, "y", "x", dummy)
        assert (p.kind, p.config, p.out, p.real_in, p.dummy_in) == \
            (kind, cfg, "y", "x", dummy)
        assert set(c.gates) == {"x", "d", "y"}, (kind, cfg)
        assert c.gates["y"] == Gate(kind.look, ("x", "d") if kind.decoy else ("x",))
        c.outputs = ["y"]
        kn = keyize_netlist(CamouflagedNetlist(None, c, [p], []))
        fab = realize(c, [p])
        assert set(fab.gates) == {"x", "d", "y"}, (kind, cfg)
        for x in (0, 1):
            for d in (0, 1):
                real = fab.evaluate({"x": x, "d": d})["y"]
                got = kn.under(kn.correct_key).evaluate({"x": x, "d": d})["y"]
                assert got == real, (kind, cfg, x, d)
