"""Mixed-radix circuit IR: wires of dimension 2 or 3, gates with leveled controls.

Conventions used throughout the package:

- Wire 0 is the most significant digit of a basis-state label.
- A "generalized ternary CNOT" is any single-target gate carrying a
  ControlSpec whose activation value may be 1 or 2.
- Circuits are immutable values; ``append`` returns a new circuit.
"""
from __future__ import annotations

import functools
import gc
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from math import isfinite
from numbers import Integral, Real
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

    # members are singletons and compare by identity, so the identity hash
    # is consistent with equality; it runs in C, where Enum.__hash__ (a hash
    # of the name) runs in Python, and every frozenset test, dict key and
    # GateInstance hash that touches a kind pays it
    __hash__ = object.__hash__


QUTRIT_ONLY_KINDS = frozenset({GateKind.XPLUS1, GateKind.XMINUS1})
T_KINDS = frozenset({GateKind.T, GateKind.TDG})


def _gc_paused(fn):
    """Run ``fn`` with the cyclic garbage collector disabled, for a call that
    builds a whole circuit's gates. Gates, ControlSpecs, their tuples and
    parsed JSON containers form no cycles, so refcounting frees them and
    every scan the collector would run meanwhile frees nothing; each scan
    walks every live tracked object, so the saving grows with the heap the
    process already holds. The collector is enabled again on exit only if
    it was enabled on entry, so a caller that disabled it, or an outer
    paused call, keeps its setting; a thread that calls ``gc.disable()``
    while a paused call runs is overridden when that call exits."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


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


def store_floats(obj: object, **values: object) -> None:
    """``check_finite``, then set each field of the frozen dataclass ``obj`` to
    its value as a Python float, so a numpy float32 is not carried into results."""
    check_finite(**values)
    for name, value in values.items():
        object.__setattr__(obj, name, float(value))


def _is_dim(dim: object) -> bool:
    """A wire dimension: the integer 2 (qubit) or 3 (qutrit), an int or a
    numpy integer; a bool or a float is not one."""
    return _is_int(dim) and dim in (2, 3)


def _check_dim(dim: object) -> None:
    """Refuse a wire dimension other than the integer 2 (qubit) or 3 (qutrit)."""
    if not _is_dim(dim):
        raise ValueError(f"wire dimension must be the integer 2 or 3, got {dim!r}")


@dataclass(frozen=True)
class ControlSpec:
    """Control wire index plus the level (1 or 2) that activates the gate."""

    wire: int
    value: int


# slotted: no per-gate __dict__ to allocate, fill and leave to the cyclic
# collector. ControlSpec is left as it is: slotting it too raised the
# noise workload's peak RSS by 0.2 to 0.3 MiB
@dataclass(frozen=True, slots=True)
class GateInstance:
    kind: GateKind
    controls: tuple[ControlSpec, ...]
    target: int
    # all wires the gate touches, control wires first; derived from the
    # fields above, so equality, hashing and repr leave it out
    wires: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # runs for every gate built, so the usual 0 and 1 controls skip the generator
        controls = self.controls
        if not controls:
            wires = (self.target,)
        elif len(controls) == 1:
            wires = (controls[0].wire, self.target)
        else:
            wires = (*(c.wire for c in controls), self.target)
        object.__setattr__(self, "wires", wires)


def validate_gate(gate: GateInstance, dims: Sequence[int]) -> None:
    """Raise ValueError unless ``gate`` is well-formed for wires of ``dims``."""
    n = len(dims)
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
        if not (1 <= c.value < dims[c.wire]):
            raise ValueError(f"control value {c.value} invalid on wire {c.wire} of dimension {dims[c.wire]}")
    if gate.kind in QUTRIT_ONLY_KINDS and dims[gate.target] != 3:
        raise ValueError(f"{gate.kind.value} targets qutrit wires only")
    if gate.kind is GateKind.TOFFOLI:
        if len(gate.controls) != 2:
            raise ValueError("TOFFOLI takes exactly two controls")
        # with every wire a qubit, the control-value check above forces value 1
        if any(dims[w] != 2 for w in touched):
            raise ValueError("TOFFOLI touches qubit wires only")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed tuple of wires, each wire given by its
    dimension: 2 (qubit) or 3 (qutrit)."""

    wires: tuple[int, ...]
    gates: tuple[GateInstance, ...] = ()

    def __post_init__(self) -> None:
        dims = tuple(self.wires)
        for dim in dims:
            _check_dim(dim)
        if not dims:
            raise ValueError("circuit needs at least one wire")
        # plain ints in a tuple, so a list or a numpy integer never reaches dims
        object.__setattr__(self, "wires", tuple(map(int, dims)))
        # a gate object that sits at several positions is validated once;
        # the dict keeps first-occurrence order, so the first bad gate is
        # still the one reported. Keyed by identity, not equality: x(1)
        # equals a gate whose target is True, and only one of them is valid
        for gate in {id(g): g for g in self.gates}.values():
            validate_gate(gate, self.wires)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.wires


# ---------------------------------------------------------------------------
# gate constructors
# ---------------------------------------------------------------------------

def x(target: int) -> GateInstance:
    return GateInstance(GateKind.X, (), target)


def xplus1(target: int) -> GateInstance:
    return GateInstance(GateKind.XPLUS1, (), target)


def xminus1(target: int) -> GateInstance:
    return GateInstance(GateKind.XMINUS1, (), target)


def h(target: int) -> GateInstance:
    return GateInstance(GateKind.H, (), target)


def t(target: int) -> GateInstance:
    return GateInstance(GateKind.T, (), target)


def tdg(target: int) -> GateInstance:
    return GateInstance(GateKind.TDG, (), target)


def s(target: int) -> GateInstance:
    return GateInstance(GateKind.S, (), target)


def sdg(target: int) -> GateInstance:
    return GateInstance(GateKind.SDG, (), target)


def z(target: int) -> GateInstance:
    return GateInstance(GateKind.Z, (), target)


def cx(control: int, target: int, value: int = 1) -> GateInstance:
    """X on ``target`` activated when ``control`` holds ``value`` (1 or 2)."""
    return GateInstance(GateKind.X, (ControlSpec(control, value),), target)


def toffoli(control_a: int, control_b: int, target: int) -> GateInstance:
    return GateInstance(GateKind.TOFFOLI, (ControlSpec(control_a, 1), ControlSpec(control_b, 1)), target)


def controlled(gate: GateInstance, wire: int, value: int = 1) -> GateInstance:
    """Attach one more control to an existing gate."""
    return replace(gate, controls=gate.controls + (ControlSpec(wire, value),))


# ---------------------------------------------------------------------------
# construction and metrics
# ---------------------------------------------------------------------------

def new_circuit(dims: Sequence[int]) -> Circuit:
    """Empty circuit over wires of the given dimensions."""
    return Circuit(dims)


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


def _asap(circuit: Circuit) -> list[int]:
    """The layer of each gate, in gate order: ASAP greedy layering puts each
    gate in the earliest layer where none of its wires is occupied."""
    next_free = [0] * len(circuit.wires)
    gate_layers = []
    for gate in circuit.gates:
        wires = gate.wires
        layer = 0
        for w in wires:
            if next_free[w] > layer:
                layer = next_free[w]
        gate_layers.append(layer)
        layer += 1
        for w in wires:
            next_free[w] = layer
    return gate_layers


def layers(circuit: Circuit) -> list[list[GateInstance]]:
    """The ASAP layers of ``circuit``."""
    layers: list[list[GateInstance]] = []
    for gate, layer in zip(circuit.gates, _asap(circuit)):
        if layer == len(layers):
            layers.append([])
        layers[layer].append(gate)
    return layers


def depth(circuit: Circuit) -> int:
    """Number of ASAP layers."""
    return max(_asap(circuit), default=-1) + 1


def is_qutrit_gate(gate: GateInstance, dims: Sequence[int]) -> bool:
    """True when the gate leaves the qubit-only gate set."""
    if gate.kind in QUTRIT_ONLY_KINDS:
        return True
    return any(dims[w] == 3 for w in gate.wires)


def t_metrics(circuit: Circuit) -> tuple[int, int]:
    """(t_count, t_depth) for a qubit-only circuit.

    t_depth counts the ASAP layers containing at least one T/Tdg gate.
    """
    # without a qutrit wire no gate can touch a qutrit, since validation
    # keeps XPLUS1 and XMINUS1 off qubit targets
    if 3 in circuit.wires:
        for gate in circuit.gates:
            if is_qutrit_gate(gate, circuit.wires):
                raise ValueError("t_metrics is defined for qubit-only circuits")
    t_count = 0
    t_layers = set()
    for gate, layer in zip(circuit.gates, _asap(circuit)):
        if gate.kind in T_KINDS:
            t_count += 1
            t_layers.add(layer)
    return t_count, len(t_layers)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

# A wire dim is a plain int already; every gate int is written through
# int(): validation accepts numpy integers, which the json module cannot
# encode, and refuses bools, so int() only ever turns an integer into a
# plain int. A gate's one target is written as a one-element list.

def circuit_to_dict(circuit: Circuit) -> dict:
    return {
        "wires": [{"dim": d} for d in circuit.wires],
        "gates": [
            {
                "kind": g.kind.value,
                "controls": [{"wire": int(c.wire), "value": int(c.value)} for c in g.controls],
                "targets": [int(g.target)],
            }
            for g in circuit.gates
        ],
    }


_KINDS = GateKind._value2member_map_


def circuit_from_dict(data: dict) -> Circuit:
    """Circuit from its ``circuit_to_dict`` form. Every object must be a
    dict (a subclass such as OrderedDict too) and ``wires``, ``gates`` and
    ``controls`` a list or tuple; a wrong container or a missing field is
    refused with a ValueError naming its path. Every wire dim, control
    wire, control value and target must be an int, and ``targets`` a
    one-element list. Equal gates become one shared ``GateInstance``,
    which the ``Circuit`` constructor validates once."""
    # the happy path, the plain dicts and lists of ``json.loads``, pays one
    # ``type(...) is`` test per container and the isinstance fallback only
    # runs on a subclass or a tuple; a missing field is named from its
    # KeyError, whose key tells which object lacks it.
    # check_int only for a value that is not exactly an int, which it
    # accepts (a numpy integer) or refuses, in the order of the fields
    if type(data) is not dict and not isinstance(data, dict):
        raise ValueError("circuit must be an object")
    try:
        wires_data = data["wires"]
        if type(wires_data) is not list and not isinstance(wires_data, (list, tuple)):
            raise ValueError("wires must be a list")
        wires = []
        for i, w in enumerate(wires_data):
            if type(w) is not dict and not isinstance(w, dict):
                raise ValueError(f"wires[{i}] must be an object")
            dim = w["dim"]
            if type(dim) is not int:
                check_int(**{f"wires[{i}].dim": dim})
            _check_dim(dim)
            wires.append(dim)
        gates_data = data["gates"]
        if type(gates_data) is not list and not isinstance(gates_data, (list, tuple)):
            raise ValueError("gates must be a list")
        shared: dict[tuple, GateInstance] = {}
        gates = []
        for i, g in enumerate(gates_data):
            if type(g) is not dict and not isinstance(g, dict):
                raise ValueError(f"gates[{i}] must be an object")
            # the enum's own lookup on a miss, so an unknown kind keeps its message
            name = g["kind"]
            kind = _KINDS.get(name) if type(name) is str else None
            if kind is None:
                kind = GateKind(name)
            controls_data = g.get("controls", [])
            if type(controls_data) is not list and not isinstance(controls_data, (list, tuple)):
                raise ValueError(f"gates[{i}].controls must be a list")
            controls = []
            for j, c in enumerate(controls_data):
                if type(c) is not dict and not isinstance(c, dict):
                    raise ValueError(f"gates[{i}].controls[{j}] must be an object")
                w = c["wire"]
                if type(w) is not int:
                    check_int(**{f"gates[{i}].controls[{j}].wire": w})
                v = c["value"]
                if type(v) is not int:
                    check_int(**{f"gates[{i}].controls[{j}].value": v})
                controls.append((w, v))
            targets = g["targets"]
            if type(targets) is not list or len(targets) != 1:
                raise ValueError(f"{kind.value} takes exactly one target")
            (target,) = targets
            if type(target) is not int:
                check_int(**{f"gates[{i}].targets[0]": target})
            # keyed only after check_int accepted every value, so a bool or a
            # float can never pick up a cached gate of equal ints
            key = (kind, tuple(controls), target)
            gate = shared.get(key)
            if gate is None:
                gate = shared[key] = GateInstance(kind, tuple(ControlSpec(w, v) for w, v in controls), target)
            gates.append(gate)
    except KeyError as error:
        (missing,) = error.args
        if missing in ("wires", "gates"):
            path = "circuit"
        elif missing in ("wire", "value"):
            path = f"gates[{i}].controls[{j}]"
        else:  # "dim" of wire i, "kind" or "targets" of gate i
            path = f"{'wires' if missing == 'dim' else 'gates'}[{i}]"
        raise ValueError(f'{path} has no "{missing}"') from None
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
    return (
        f'{{\n      "kind": "{gate.kind.value}",\n      "controls": {controls},'
        f'\n      "targets": [\n        {int(gate.target)}\n      ]\n    }}'
    )


def to_json(circuit: Circuit) -> str:
    """``json.dumps(circuit_to_dict(circuit), indent=2)``, byte for byte,
    written directly: with ``indent`` set, json.dumps runs the pure-Python
    encoder and builds the dict form first."""
    wires = _json_array([f'{{\n      "dim": {d}\n    }}' for d in circuit.wires], "  ")
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


@_gc_paused
def from_json(text: str) -> Circuit:
    """Circuit from its ``to_json`` text; refusals as ``circuit_from_dict``.
    The cyclic garbage collector is paused for the call (``_gc_paused``)."""
    return circuit_from_dict(json.loads(text))
