"""Covert gate primitives: actual vs. apparent behavior, cell layout, key encoding.

Every covert cell is one gate of its netlist: `kind.look` at its output net
(an FB is one `buf`). Every fact about a covert kind or configuration is an
attribute of its enum member; the rest of the package reads these and keeps
no table of its own."""
from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

from .gatelevel import Circuit, Gate, make_gate


class CovertGateKind(enum.Enum):
    """A covert kind. `look` is the op the layout reads as; `real` is the
    pass-through op, None for FI and FB, whose real output is always a
    constant; `key00` (`real or look`) is the one-input op that key 00
    reads the cell as, applied to its real input; `decoy` is true for a
    camouflaged NAND, whose second fan-in is a dummy tap."""

    FI = "FI", "not", None        # fake inverter: ties the net to a constant
    FB = "FB", "buf", None        # fake buffer: ties it too
    UT_A = "UT-A", "nand", "buf"  # untraceable NAND: really a buffer (or constant)
    UT_B = "UT-B", "nand", "not"  # untraceable NAND: really an inverter (or constant)

    def __new__(cls, value: str, look: str, real: str | None):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.look, kind.real = look, real
        kind.key00 = real or look
        kind.decoy = look == "nand"
        return kind


class CovertConfig(enum.Enum):
    """A configuration; `key_bits` is its canonical 2-bit key code (key 11
    is an alias of 10, see attack.keyize_netlist)."""

    NORMAL = "normal", (0, 0)
    CONST0 = "const0", (0, 1)
    CONST1 = "const1", (1, 0)

    def __new__(cls, value: str, key_bits: tuple[int, int]):
        config = object.__new__(cls)
        config._value_ = value
        config.key_bits = key_bits
        return config


@dataclass(slots=True)
class CovertInstance:
    """One placed covert gate; UT kinds take an extra dummy input net."""

    kind: CovertGateKind
    config: CovertConfig
    out: str
    real_in: str | None = None
    dummy_in: str | None = None

    def __post_init__(self):
        if self.config is CovertConfig.NORMAL and self.kind.real is None:
            raise ValueError(f"{self.kind.value} cannot be configured {self.config.value}")
        if self.kind.decoy and not self.dummy_in:
            raise ValueError(f"{self.kind.value} needs a dummy input net")


def draw_cell(c: Circuit, kind: CovertGateKind, config: CovertConfig, out: str,
              real_in: str, dummy_in: str | None = None) -> CovertInstance:
    """Add one covert cell, the one gate `kind.look` driving net out, to c
    and return its placement: FI a `not` and FB a `buf` of the real input,
    UT-A and UT-B a `nand` of the real input and the dummy tap."""
    cell = CovertInstance(kind, config, out=out, real_in=real_in, dummy_in=dummy_in)
    c.add(out, kind.look, *((real_in, dummy_in) if kind.decoy else (real_in,)))
    return cell


def replace_cells(view: Circuit, placements: list[CovertInstance],
                  gate_of: Callable[[CovertInstance], Gate]) -> Circuit:
    """view with each placement's cell replaced by the one gate `gate_of(p)`."""
    gates = dict(view.gates)
    for p in placements:
        gates[p.out] = gate_of(p)
    return Circuit(gates, list(view.outputs))


def realize(view: Circuit, placements: list[CovertInstance]) -> Circuit:
    """The fabricated circuit: each placement's cell becomes a constant tie
    or, under NORMAL, `kind.real` of its real input."""
    return replace_cells(view, placements, lambda p: (
        make_gate(p.kind.real, (p.real_in,)) if p.config is CovertConfig.NORMAL
        else make_gate(p.config.value)))  # "const0" or "const1"

