"""Covert gate primitives: actual vs. apparent behavior, key encoding."""
from __future__ import annotations

import enum
from dataclasses import dataclass


class CovertGateKind(enum.Enum):
    FI = "FI"      # fake inverter: looks like an INV, ties the net to a constant
    FB = "FB"      # fake buffer: looks like an INV pair, ties the net to a constant
    UT_A = "UT-A"  # untraceable NAND whose real function is a buffer (or constant)
    UT_B = "UT-B"  # untraceable NAND whose real function is an inverter (or constant)


class CovertConfig(enum.Enum):
    NORMAL = "normal"
    CONST0 = "const0"
    CONST1 = "const1"


# FI/FB have no pass-through mode; their real output is always a constant.
LEGAL_CONFIGS: dict[CovertGateKind, frozenset[CovertConfig]] = {
    CovertGateKind.FI: frozenset({CovertConfig.CONST0, CovertConfig.CONST1}),
    CovertGateKind.FB: frozenset({CovertConfig.CONST0, CovertConfig.CONST1}),
    CovertGateKind.UT_A: frozenset(CovertConfig),
    CovertGateKind.UT_B: frozenset(CovertConfig),
}

_APPEARANCE = {
    CovertGateKind.FI: "not",
    CovertGateKind.FB: "buf",   # reads as back-to-back inverters
    CovertGateKind.UT_A: "nand",
    CovertGateKind.UT_B: "nand",
}


def apparent_op(kind: CovertGateKind) -> str:
    return _APPEARANCE[kind]


@dataclass
class CovertInstance:
    """One placed covert gate; UT kinds take an extra dummy input net."""

    kind: CovertGateKind
    config: CovertConfig
    out: str
    real_in: str | None = None
    dummy_in: str | None = None
    note: str = ""

    def __post_init__(self):
        if self.config not in LEGAL_CONFIGS[self.kind]:
            raise ValueError(f"{self.kind.value} cannot be configured {self.config.value}")
        if self.kind in (CovertGateKind.UT_A, CovertGateKind.UT_B) and not self.dummy_in:
            raise ValueError(f"{self.kind.value} needs a dummy input net")


def gate_function(kind: CovertGateKind, config: CovertConfig, x: int | None = None) -> int:
    """Real (fabricated) output bit; x is the true input for UT pass-through."""
    if config not in LEGAL_CONFIGS[kind]:
        raise ValueError(f"{kind.value} cannot be configured {config.value}")
    if config is CovertConfig.CONST0:
        return 0
    if config is CovertConfig.CONST1:
        return 1
    if x is None:
        raise ValueError("pass-through mode needs the input bit")
    return int(bool(x)) if kind is CovertGateKind.UT_A else 1 - int(bool(x))


def apparent_function(kind: CovertGateKind, x: int, dummy: int = 1) -> int:
    """What an attacker reading the layout would compute for this cell."""
    op = apparent_op(kind)
    x = int(bool(x))
    if op == "not":
        return 1 - x
    if op == "buf":
        return x
    return 1 - (x & int(bool(dummy)))


# -- Key encoding -------------------------------------------------------------
#
# Every inverter, buffer pair and (N)AND-looking cell is a candidate covert
# site, so the attacker models each with 2 key bits selecting its behavior
# (attack.keyize_netlist): 00 keeps the cell function, 01 ties it low, and
# 10 and its alias 11 tie it high.


def config_key_bits(config: CovertConfig) -> tuple[int, int]:
    """Canonical key encoding of a configuration (the non-alias codes)."""
    return {
        CovertConfig.NORMAL: (0, 0),
        CovertConfig.CONST0: (0, 1),
        CovertConfig.CONST1: (1, 0),
    }[config]
