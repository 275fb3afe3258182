"""Mixed-radix circuit IR: wires of dimension 2 or 3, gates with leveled controls.

Conventions used throughout the package:

- Wire 0 is the most significant digit of a basis-state label.
- A "generalized ternary CNOT" is any single-target gate carrying a
  ControlSpec whose activation value may be 1 or 2.
- Circuits are immutable values; ``append`` returns a new circuit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence


class GateKind(Enum):
    X = "X"              # flip on the {|0>,|1>} subspace; |2> untouched
    XPLUS1 = "XPLUS1"    # |x> -> |x+1 mod 3>, qutrit targets only
    XMINUS1 = "XMINUS1"  # |x> -> |x-1 mod 3>, qutrit targets only
    H = "H"
    T = "T"
    TDG = "TDG"
    S = "S"
    SDG = "SDG"
    Z = "Z"
    TOFFOLI = "TOFFOLI"  # two |1>-controls, one target, qubit wires only
    MEASURE = "MEASURE"


QUTRIT_ONLY_KINDS = frozenset({GateKind.XPLUS1, GateKind.XMINUS1})
T_KINDS = frozenset({GateKind.T, GateKind.TDG})


@dataclass(frozen=True)
class WireSpec:
    """A circuit wire with radix 2 (qubit) or 3 (qutrit)."""

    dimension: int

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValueError(f"wire dimension must be 2 or 3, got {self.dimension}")


@dataclass(frozen=True)
class ControlSpec:
    """Control wire index plus the level (1 or 2) that activates the gate."""

    wire: int
    value: int


@dataclass(frozen=True)
class GateInstance:
    kind: GateKind
    controls: tuple[ControlSpec, ...] = ()
    targets: tuple[int, ...] = ()

    @property
    def wires(self) -> tuple[int, ...]:
        """All wires the gate touches, control wires first."""
        return tuple(c.wire for c in self.controls) + self.targets


@dataclass(frozen=True)
class CostProfile:
    """Per-Toffoli cost of a lowering strategy.

    ``table_gate_count`` is the quoted headline gate count, which for the
    T-depth-1 baseline differs from the sum of the component counts
    (25 quoted vs 7 + 16); both are kept.
    """

    one_qubit_gates: int
    two_qubit_gates: int
    two_qutrit_gates: int
    depth_per_toffoli: int
    t_depth_per_toffoli: int
    ancilla_wires: int
    table_gate_count: int | None = None

    def __post_init__(self) -> None:
        counts = (self.one_qubit_gates, self.two_qubit_gates, self.two_qutrit_gates,
                  self.depth_per_toffoli, self.t_depth_per_toffoli, self.ancilla_wires)
        if any(c < 0 for c in counts):
            raise ValueError("cost profile counts must be non-negative")

    @property
    def component_gate_count(self) -> int:
        return self.one_qubit_gates + self.two_qubit_gates + self.two_qutrit_gates


def validate_gate(gate: GateInstance, wires: Sequence[WireSpec]) -> None:
    """Raise ValueError unless ``gate`` is well-formed for ``wires``."""
    n = len(wires)
    touched = gate.wires
    for w in touched:
        if not (0 <= w < n):
            raise ValueError(f"wire {w} out of range for {n}-wire circuit")
    if len(set(touched)) != len(touched):
        raise ValueError(f"gate touches a wire more than once: {touched}")
    for c in gate.controls:
        if not (1 <= c.value < wires[c.wire].dimension):
            raise ValueError(
                f"control value {c.value} invalid on wire {c.wire} "
                f"of dimension {wires[c.wire].dimension}"
            )
    if gate.kind is GateKind.MEASURE:
        if gate.controls:
            raise ValueError("MEASURE cannot carry controls")
        if not gate.targets:
            raise ValueError("MEASURE needs at least one target")
        return
    if len(gate.targets) != 1:
        raise ValueError(f"{gate.kind.value} takes exactly one target")
    if gate.kind in QUTRIT_ONLY_KINDS and wires[gate.targets[0]].dimension != 3:
        raise ValueError(f"{gate.kind.value} targets qutrit wires only")
    if gate.kind is GateKind.TOFFOLI:
        if len(gate.controls) != 2:
            raise ValueError("TOFFOLI takes exactly two controls")
        if any(wires[w].dimension != 2 for w in touched):
            raise ValueError("TOFFOLI touches qubit wires only")
        if any(c.value != 1 for c in gate.controls):
            raise ValueError("TOFFOLI controls activate on |1>")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed tuple of wires."""

    wires: tuple[WireSpec, ...]
    gates: tuple[GateInstance, ...] = ()

    def __post_init__(self) -> None:
        if not self.wires:
            raise ValueError("circuit needs at least one wire")
        for gate in self.gates:
            validate_gate(gate, self.wires)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w.dimension for w in self.wires)


# ---------------------------------------------------------------------------
# gate constructors
# ---------------------------------------------------------------------------

def x(target: int) -> GateInstance:
    return GateInstance(GateKind.X, (), (target,))


def xplus1(target: int) -> GateInstance:
    return GateInstance(GateKind.XPLUS1, (), (target,))


def xminus1(target: int) -> GateInstance:
    return GateInstance(GateKind.XMINUS1, (), (target,))


def h(target: int) -> GateInstance:
    return GateInstance(GateKind.H, (), (target,))


def t(target: int) -> GateInstance:
    return GateInstance(GateKind.T, (), (target,))


def tdg(target: int) -> GateInstance:
    return GateInstance(GateKind.TDG, (), (target,))


def s(target: int) -> GateInstance:
    return GateInstance(GateKind.S, (), (target,))


def sdg(target: int) -> GateInstance:
    return GateInstance(GateKind.SDG, (), (target,))


def z(target: int) -> GateInstance:
    return GateInstance(GateKind.Z, (), (target,))


def cx(control: int, target: int, value: int = 1) -> GateInstance:
    """X on ``target`` activated when ``control`` holds ``value`` (1 or 2)."""
    return GateInstance(GateKind.X, (ControlSpec(control, value),), (target,))


def toffoli(control_a: int, control_b: int, target: int) -> GateInstance:
    return GateInstance(
        GateKind.TOFFOLI,
        (ControlSpec(control_a, 1), ControlSpec(control_b, 1)),
        (target,),
    )


def measure(*wires: int) -> GateInstance:
    return GateInstance(GateKind.MEASURE, (), tuple(wires))


def controlled(gate: GateInstance, wire: int, value: int = 1) -> GateInstance:
    """Attach one more control to an existing gate."""
    return replace(gate, controls=gate.controls + (ControlSpec(wire, value),))


# ---------------------------------------------------------------------------
# construction and metrics
# ---------------------------------------------------------------------------

def new_circuit(wires: Sequence[WireSpec | int]) -> Circuit:
    """Empty circuit over the given wires (ints are taken as dimensions)."""
    specs = tuple(w if isinstance(w, WireSpec) else WireSpec(w) for w in wires)
    return Circuit(specs)


def _grow(circuit: Circuit, gates: tuple[GateInstance, ...]) -> Circuit:
    """New circuit with ``gates`` appended. Only the new gates are validated,
    because ``circuit`` was validated when it was built, so a chain of
    appends costs one validation per gate."""
    for gate in gates:
        validate_gate(gate, circuit.wires)
    grown = object.__new__(Circuit)
    object.__setattr__(grown, "wires", circuit.wires)
    object.__setattr__(grown, "gates", circuit.gates + gates)
    return grown


def append(circuit: Circuit, gate: GateInstance) -> Circuit:
    """New circuit with ``gate`` appended; only ``gate`` is validated."""
    return _grow(circuit, (gate,))


def extend(circuit: Circuit, gates: Iterable[GateInstance]) -> Circuit:
    """New circuit with ``gates`` appended; only the new gates are validated."""
    return _grow(circuit, tuple(gates))


def gate_count(circuit: Circuit, kind: GateKind | None = None) -> int:
    """Number of gates, MEASURE excluded unless asked for explicitly."""
    if kind is None:
        return sum(1 for g in circuit.gates if g.kind is not GateKind.MEASURE)
    return sum(1 for g in circuit.gates if g.kind is kind)


def layers(circuit: Circuit) -> list[list[GateInstance]]:
    """ASAP greedy layering: each gate joins the earliest layer where none of
    its wires is occupied. MEASURE gates are skipped."""
    next_free = [0] * len(circuit.wires)
    layers: list[list[GateInstance]] = []
    for gate in circuit.gates:
        if gate.kind is GateKind.MEASURE:
            continue
        layer = max((next_free[w] for w in gate.wires), default=0)
        if layer == len(layers):
            layers.append([])
        layers[layer].append(gate)
        for w in gate.wires:
            next_free[w] = layer + 1
    return layers


def depth(circuit: Circuit) -> int:
    return len(layers(circuit))


def is_qutrit_gate(gate: GateInstance, wires: Sequence[WireSpec]) -> bool:
    """True when the gate leaves the qubit-only gate set."""
    if gate.kind in QUTRIT_ONLY_KINDS:
        return True
    return any(wires[w].dimension == 3 for w in gate.wires)


def t_metrics(circuit: Circuit) -> tuple[int, int]:
    """(t_count, t_depth) for a qubit-only circuit.

    t_depth counts the ASAP layers containing at least one T/Tdg gate.
    """
    for gate in circuit.gates:
        if gate.kind is not GateKind.MEASURE and is_qutrit_gate(gate, circuit.wires):
            raise ValueError("t_metrics is defined for qubit-only circuits")
    t_count = sum(1 for g in circuit.gates if g.kind in T_KINDS)
    t_depth = sum(1 for layer in layers(circuit) if any(g.kind in T_KINDS for g in layer))
    return t_count, t_depth


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def circuit_to_dict(circuit: Circuit) -> dict:
    return {
        "wires": [{"dim": w.dimension} for w in circuit.wires],
        "gates": [
            {
                "kind": g.kind.value,
                "controls": [{"wire": c.wire, "value": c.value} for c in g.controls],
                "targets": list(g.targets),
            }
            for g in circuit.gates
        ],
    }


def circuit_from_dict(data: dict) -> Circuit:
    wires = tuple(WireSpec(w["dim"]) for w in data["wires"])
    gates = tuple(
        GateInstance(
            GateKind(g["kind"]),
            tuple(ControlSpec(c["wire"], c["value"]) for c in g.get("controls", [])),
            tuple(g["targets"]),
        )
        for g in data["gates"]
    )
    return Circuit(wires, gates)


def to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=2)


def from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))
