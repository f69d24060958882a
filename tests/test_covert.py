"""Covert gate semantics: actual vs. apparent behavior, keyed abstraction."""
import pytest

from ipcamo.covert import (KEY_DECODE, CovertConfig, CovertGateKind,
                           CovertInstance, KeyedElement, apparent_function,
                           apparent_op, config_key_bits,
                           gate_function, keyed_function)

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


def test_key_decode_alias():
    assert KEY_DECODE[(0, 0)] is C.NORMAL
    assert KEY_DECODE[(0, 1)] is C.CONST0
    assert KEY_DECODE[(1, 0)] is C.CONST1
    assert KEY_DECODE[(1, 1)] is C.CONST1  # alias: two codes tie high
    for cfg in (C.NORMAL, C.CONST0, C.CONST1):
        assert KEY_DECODE[config_key_bits(cfg)] is cfg


def test_keyed_element_functions():
    ut = KeyedElement("e0", "nand", out="o", real_in="x", dummy_in="d",
                      covert=CovertInstance(K.UT_B, C.CONST1, out="o",
                                            real_in="x", dummy_in="d"))
    assert ut.correct_key() == (1, 0)
    genuine = KeyedElement("e1", "nand", out="o", real_in="x", dummy_in="d")
    assert genuine.correct_key() == (0, 0)
    for x in (0, 1):
        for d in (0, 1):
            # key 00: covert UT passes through for real, genuine reads apparent
            assert keyed_function(ut, (0, 0), x, d) == 1 - x
            assert keyed_function(genuine, (0, 0), x, d) == 1 - (x & d)
            # constant keys dominate everything
            for key, bit in (((0, 1), 0), ((1, 0), 1), ((1, 1), 1)):
                assert keyed_function(ut, key, x, d) == bit
                assert keyed_function(genuine, key, x, d) == bit


def test_keyed_element_fi_fb_normal_reads_apparent():
    fi = KeyedElement("e2", "not", out="o", real_in="x",
                      covert=CovertInstance(K.FI, C.CONST1, out="o", real_in="x"))
    fb = KeyedElement("e3", "buf", out="o", real_in="x",
                      covert=CovertInstance(K.FB, C.CONST0, out="o", real_in="x"))
    for x in (0, 1):
        assert keyed_function(fi, (0, 0), x) == 1 - x
        assert keyed_function(fb, (0, 0), x) == x
    assert fi.correct_key() == (1, 0)
    assert fb.correct_key() == (0, 1)
