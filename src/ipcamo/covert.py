"""Covert gate primitives: actual vs. apparent behavior, cell layout, key encoding.

Every fact about a covert kind or configuration is an attribute of its enum
member; the rest of the package reads these and keeps no table of its own."""
from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

from .gatelevel import Circuit, Gate


class CovertGateKind(enum.Enum):
    """A covert kind. `look` is the op the layout reads as; `real` is the
    pass-through op, None for FI and FB, whose real output is always a
    constant; `key00` (`real or look`) is the one-input op that key 00
    reads the cell as, applied to its real input; `decoy` is true for a
    camouflaged NAND, whose second fan-in is a dummy tap."""

    FI = "FI", "not", None        # fake inverter: ties the net to a constant
    FB = "FB", "buf", None        # fake buffer, drawn as an INV pair: ties it too
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


def _check_config(kind: CovertGateKind, config: CovertConfig) -> None:
    if config is CovertConfig.NORMAL and kind.real is None:
        raise ValueError(f"{kind.value} cannot be configured {config.value}")


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
        _check_config(self.kind, self.config)
        if self.kind.decoy and not self.dummy_in:
            raise ValueError(f"{self.kind.value} needs a dummy input net")


def draw_cell(c: Circuit, kind: CovertGateKind, config: CovertConfig, out: str,
              real_in: str, dummy_in: str | None = None) -> CovertInstance:
    """Add one covert cell driving net out to c and return its placement.

    FI is one inverter; FB is two, its middle net `out + "a"` added first;
    UT-A and UT-B are a NAND of the real input and the dummy tap."""
    cell = CovertInstance(kind, config, out=out, real_in=real_in, dummy_in=dummy_in)
    if kind.decoy:
        c.add(out, kind.look, real_in, dummy_in)
    elif kind.look == "buf":  # drawn as back-to-back inverters
        c.add(out, "not", c.add(out + "a", "not", real_in))
    else:
        c.add(out, kind.look, real_in)
    return cell


def cell_nets(p: CovertInstance, c: Circuit) -> tuple[str, ...]:
    """Nets of c a placement occupies: its output, and an FB's middle inverter."""
    if p.kind is CovertGateKind.FB:
        return p.out, c.gates[p.out].ins[0]
    return (p.out,)


def replace_cells(view: Circuit, placements: list[CovertInstance],
                  gate_of: Callable[[CovertInstance], Gate]) -> Circuit:
    """view with each placement's cell replaced by the one gate `gate_of(p)`
    driving its output; an FB's middle inverter goes with its cell."""
    gates = dict(view.gates)
    for p in placements:
        for net in cell_nets(p, view)[1:]:
            del gates[net]
        gates[p.out] = gate_of(p)
    return Circuit(gates, list(view.outputs))


def realize(view: Circuit, placements: list[CovertInstance]) -> Circuit:
    """The fabricated circuit: each placement's cell becomes a constant tie
    or, under NORMAL, `kind.real` of its real input."""
    return replace_cells(view, placements, lambda p: (
        Gate(p.kind.real, (p.real_in,)) if p.config is CovertConfig.NORMAL
        else Gate(p.config.value)))  # "const0" or "const1"


def _bit(op: str, x: int, d: int = 1) -> int:
    """Output bit of a `buf`, `not` or `nand` cell with inputs x (and d)."""
    x = int(bool(x))
    if op == "buf":
        return x
    if op == "not":
        return 1 - x
    return 1 - (x & int(bool(d)))


def gate_function(kind: CovertGateKind, config: CovertConfig, x: int | None = None) -> int:
    """Real (fabricated) output bit; x is the true input for UT pass-through."""
    _check_config(kind, config)
    if config is not CovertConfig.NORMAL:
        return int(config is CovertConfig.CONST1)
    if x is None:
        raise ValueError("pass-through mode needs the input bit")
    return _bit(kind.real, x)


def apparent_function(kind: CovertGateKind, x: int, dummy: int = 1) -> int:
    """What an attacker reading the layout would compute for this cell."""
    return _bit(kind.look, x, dummy)
