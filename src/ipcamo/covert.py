"""Covert gate primitives: actual vs. apparent behavior, cell layout, key encoding."""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .gatelevel import Circuit


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


# (kind, config) -> whether the cell needs a dummy input net, for legal pairs only
_NEEDS_DUMMY = {(kind, config): kind in (CovertGateKind.UT_A, CovertGateKind.UT_B)
                for kind, configs in LEGAL_CONFIGS.items() for config in configs}


@dataclass(slots=True)
class CovertInstance:
    """One placed covert gate; UT kinds take an extra dummy input net."""

    kind: CovertGateKind
    config: CovertConfig
    out: str
    real_in: str | None = None
    dummy_in: str | None = None
    note: str = ""

    def __post_init__(self):
        needs_dummy = _NEEDS_DUMMY.get((self.kind, self.config))
        if needs_dummy is None:
            raise ValueError(f"{self.kind.value} cannot be configured {self.config.value}")
        if needs_dummy and not self.dummy_in:
            raise ValueError(f"{self.kind.value} needs a dummy input net")


def draw_cell(c: Circuit, kind: CovertGateKind, config: CovertConfig, out: str,
              real_in: str, dummy_in: str | None = None) -> CovertInstance:
    """Add one covert cell driving net out to c and return its placement.

    FI is one inverter; FB is two, its middle net `out + "a"` added first;
    UT-A and UT-B are a NAND of the real input and the dummy tap."""
    cell = CovertInstance(kind, config, out=out, real_in=real_in, dummy_in=dummy_in)
    if kind is CovertGateKind.FI:
        c.add(out, "not", real_in)
    elif kind is CovertGateKind.FB:
        c.add(out, "not", c.add(out + "a", "not", real_in))
    else:
        c.add(out, "nand", real_in, dummy_in)
    return cell


def cell_nets(p: CovertInstance, c: Circuit) -> tuple[str, ...]:
    """Nets of c a placement occupies: its output, and an FB's middle inverter."""
    if p.kind is CovertGateKind.FB:
        return p.out, c.gates[p.out].ins[0]
    return (p.out,)


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
# 10 and its alias 11 tie it high. Key 00 reads a covert cell as the
# one-input op below applied to its real input: a UT pass-through mode, and
# the apparent function of FI and FB, which have none.

KEY00_OP = {
    CovertGateKind.FI: "not",
    CovertGateKind.FB: "buf",
    CovertGateKind.UT_A: "buf",
    CovertGateKind.UT_B: "not",
}


_KEY_BITS = {
    CovertConfig.NORMAL: (0, 0),
    CovertConfig.CONST0: (0, 1),
    CovertConfig.CONST1: (1, 0),
}


def config_key_bits(config: CovertConfig) -> tuple[int, int]:
    """Canonical key encoding of a configuration (the non-alias codes)."""
    return _KEY_BITS[config]
