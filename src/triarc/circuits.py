"""Mixed-radix circuit IR: wires of dimension 2 or 3, gates with leveled controls.

Conventions used throughout the package:

- Wire 0 is the most significant digit of a basis-state label.
- A "generalized ternary CNOT" is any single-target gate carrying a
  ControlSpec whose activation value may be 1 or 2.
- Circuits are immutable values; ``append`` returns a new circuit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from math import isfinite
from numbers import Integral, Real
from typing import Iterable, Iterator, Sequence


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


QUTRIT_ONLY_KINDS = frozenset({GateKind.XPLUS1, GateKind.XMINUS1})
T_KINDS = frozenset({GateKind.T, GateKind.TDG})


def _is_int(value: object) -> bool:
    """True for an int or a numpy integer, False for a bool or anything else."""
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def check_int(**values: object) -> None:
    """Refuse a bool or non-integer value with a ValueError naming its field."""
    for name, value in values.items():
        # the exact-int test first keeps the common case off the _is_int call
        if type(value) is not int and not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(**values: object) -> None:
    """Refuse a bool or non-real value with a ValueError naming its field."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def check_finite(**values: object) -> None:
    """Refuse a bool, non-real, NaN or infinite value with a ValueError
    naming its field; every value is tested by check_real first."""
    check_real(**values)
    for name, value in values.items():
        if not isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class WireSpec:
    """A circuit wire with radix 2 (qubit) or 3 (qutrit)."""

    dimension: int

    def __post_init__(self) -> None:
        if not _is_int(self.dimension) or self.dimension not in (2, 3):
            raise ValueError(f"wire dimension must be the integer 2 or 3, got {self.dimension!r}")


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
    # all wires the gate touches, control wires first; derived from the
    # fields above, so equality, hashing and repr leave it out
    wires: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # runs for every gate built, so the usual 0 and 1 controls skip the
        # generator; each branch refuses targets that are not a tuple
        controls = self.controls
        if not controls:
            wires = () + self.targets
        elif len(controls) == 1:
            wires = (controls[0].wire,) + self.targets
        else:
            wires = tuple(c.wire for c in controls) + self.targets
        object.__setattr__(self, "wires", wires)


def validate_gate(gate: GateInstance, wires: Sequence[WireSpec]) -> None:
    """Raise ValueError unless ``gate`` is well-formed for ``wires``."""
    n = len(wires)
    touched = gate.wires
    # check_int only for a value that is not exactly an int
    for w in touched:
        if type(w) is not int:
            check_int(**{"wire index": w})
        if not (0 <= w < n):
            raise ValueError(f"wire {w} out of range for {n}-wire circuit")
    if len(set(touched)) != len(touched):
        raise ValueError(f"gate touches a wire more than once: {touched}")
    for c in gate.controls:
        if type(c.value) is not int:
            check_int(**{"control value": c.value})
        if not (1 <= c.value < wires[c.wire].dimension):
            raise ValueError(
                f"control value {c.value} invalid on wire {c.wire} "
                f"of dimension {wires[c.wire].dimension}"
            )
    if len(gate.targets) != 1:
        raise ValueError(f"{gate.kind.value} takes exactly one target")
    if gate.kind in QUTRIT_ONLY_KINDS and wires[gate.targets[0]].dimension != 3:
        raise ValueError(f"{gate.kind.value} targets qutrit wires only")
    if gate.kind is GateKind.TOFFOLI:
        if len(gate.controls) != 2:
            raise ValueError("TOFFOLI takes exactly two controls")
        # with every wire a qubit, the control-value check above forces value 1
        if any(wires[w].dimension != 2 for w in touched):
            raise ValueError("TOFFOLI touches qubit wires only")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed tuple of wires."""

    wires: tuple[WireSpec, ...]
    gates: tuple[GateInstance, ...] = ()

    def __post_init__(self) -> None:
        if not self.wires:
            raise ValueError("circuit needs at least one wire")
        # a gate object that sits at several positions is validated once;
        # the dict keeps first-occurrence order, so the first bad gate is
        # still the one reported. Keyed by identity, not equality: x(1)
        # equals a gate whose target is True, and only one of them is valid
        for gate in {id(g): g for g in self.gates}.values():
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
    """Number of gates, or of gates of ``kind`` when it is given."""
    if kind is None:
        return len(circuit.gates)
    return sum(1 for g in circuit.gates if g.kind is kind)


def _asap(circuit: Circuit) -> Iterator[tuple[GateInstance, int]]:
    """(gate, layer) for each gate in order: ASAP greedy layering puts each
    gate in the earliest layer where none of its wires is occupied."""
    next_free = [0] * len(circuit.wires)
    for gate in circuit.gates:
        wires = gate.wires
        layer = 0
        for w in wires:
            if next_free[w] > layer:
                layer = next_free[w]
        yield gate, layer
        layer += 1
        for w in wires:
            next_free[w] = layer


def layers(circuit: Circuit) -> list[list[GateInstance]]:
    """The ASAP layers of ``circuit``."""
    layers: list[list[GateInstance]] = []
    for gate, layer in _asap(circuit):
        if layer == len(layers):
            layers.append([])
        layers[layer].append(gate)
    return layers


def depth(circuit: Circuit) -> int:
    """Number of ASAP layers."""
    return max((layer for _, layer in _asap(circuit)), default=-1) + 1


def is_qutrit_gate(gate: GateInstance, wires: Sequence[WireSpec]) -> bool:
    """True when the gate leaves the qubit-only gate set."""
    if gate.kind in QUTRIT_ONLY_KINDS:
        return True
    return any(wires[w].dimension == 3 for w in gate.wires)


def t_metrics(circuit: Circuit) -> tuple[int, int]:
    """(t_count, t_depth) for a qubit-only circuit.

    t_depth counts the ASAP layers containing at least one T/Tdg gate.
    """
    # without a qutrit wire no gate can touch a qutrit, since validation
    # keeps XPLUS1 and XMINUS1 off qubit targets
    if any(w.dimension == 3 for w in circuit.wires):
        for gate in circuit.gates:
            if is_qutrit_gate(gate, circuit.wires):
                raise ValueError("t_metrics is defined for qubit-only circuits")
    t_count = 0
    t_layers = set()
    for gate, layer in _asap(circuit):
        if gate.kind in T_KINDS:
            t_count += 1
            t_layers.add(layer)
    return t_count, len(t_layers)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

# Every int is written through int(): validation accepts numpy integers,
# which the json module cannot encode, and refuses bools, so int() only
# ever turns an integer into a plain int.

def circuit_to_dict(circuit: Circuit) -> dict:
    return {
        "wires": [{"dim": int(w.dimension)} for w in circuit.wires],
        "gates": [
            {
                "kind": g.kind.value,
                "controls": [{"wire": int(c.wire), "value": int(c.value)} for c in g.controls],
                "targets": [int(t) for t in g.targets],
            }
            for g in circuit.gates
        ],
    }


_KINDS = GateKind._value2member_map_


def circuit_from_dict(data: dict) -> Circuit:
    """Circuit from its ``circuit_to_dict`` form. Every wire dim, control
    wire, control value and target must be an int. Equal gates become one
    shared ``GateInstance``, which the ``Circuit`` constructor validates once."""
    # check_int only for a value that is not exactly an int, which it
    # accepts (a numpy integer) or refuses, in the order of the fields
    wires = []
    for i, w in enumerate(data["wires"]):
        dim = w["dim"]
        if type(dim) is not int:
            check_int(**{f"wires[{i}].dim": dim})
        wires.append(WireSpec(dim))
    shared: dict[tuple, GateInstance] = {}
    gates = []
    for i, g in enumerate(data["gates"]):
        # the enum's own lookup on a miss, so an unknown kind keeps its message
        name = g["kind"]
        kind = _KINDS.get(name) if type(name) is str else None
        if kind is None:
            kind = GateKind(name)
        controls = []
        for j, c in enumerate(g.get("controls", [])):
            w = c["wire"]
            if type(w) is not int:
                check_int(**{f"gates[{i}].controls[{j}].wire": w})
            v = c["value"]
            if type(v) is not int:
                check_int(**{f"gates[{i}].controls[{j}].value": v})
            controls.append((w, v))
        targets = tuple(g["targets"])
        for j, t in enumerate(targets):
            if type(t) is not int:
                check_int(**{f"gates[{i}].targets[{j}]": t})
        # keyed only after check_int accepted every value, so a bool or a
        # float can never pick up a cached gate of equal ints
        key = (kind, tuple(controls), targets)
        gate = shared.get(key)
        if gate is None:
            gate = shared[key] = GateInstance(
                kind, tuple(ControlSpec(w, v) for w, v in controls), targets
            )
        gates.append(gate)
    return Circuit(tuple(wires), tuple(gates))


def _json_array(items: list[str], indent: str) -> str:
    """JSON array of the encoded ``items`` in the layout of
    ``json.dumps(..., indent=2)``, for an array that opens at nesting
    ``indent``; ``[]`` when empty, as json.dumps prints it."""
    if not items:
        return "[]"
    sep = "\n" + indent + "  "
    return "[" + sep + ("," + sep).join(items) + "\n" + indent + "]"


def _gate_json(gate: GateInstance) -> str:
    controls = _json_array(
        [
            f'{{\n          "wire": {int(c.wire)},\n          "value": {int(c.value)}\n        }}'
            for c in gate.controls
        ],
        "      ",
    )
    targets = _json_array([str(int(t)) for t in gate.targets], "      ")
    return (
        f'{{\n      "kind": "{gate.kind.value}",\n      "controls": {controls},'
        f'\n      "targets": {targets}\n    }}'
    )


def to_json(circuit: Circuit) -> str:
    """``json.dumps(circuit_to_dict(circuit), indent=2)``, byte for byte,
    written directly: with ``indent`` set, json.dumps runs the pure-Python
    encoder and builds the dict form first."""
    wires = _json_array([f'{{\n      "dim": {int(w.dimension)}\n    }}' for w in circuit.wires], "  ")
    # a gate object shared by several positions is formatted once
    texts: dict[int, str] = {}
    items = []
    for g in circuit.gates:
        text = texts.get(id(g))
        if text is None:
            text = texts[id(g)] = _gate_json(g)
        items.append(text)
    gates = _json_array(items, "  ")
    return f'{{\n  "wires": {wires},\n  "gates": {gates}\n}}'


def from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))
