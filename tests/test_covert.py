"""Covert gate semantics: actual vs. apparent behavior."""
import pytest

from ipcamo.covert import (CovertConfig, CovertGateKind, CovertInstance,
                           apparent_function, apparent_op, gate_function)

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
