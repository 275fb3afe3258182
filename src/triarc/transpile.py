"""Toffoli-lowering passes and their per-Toffoli cost profiles.

Two functional lowerings are provided:

- QUTRIT: three generalized ternary CNOTs through a temporarily-ternary
  wire. The second control is promoted to dimension 3, climbs to |2> when
  both controls are |1>, triggers the target flip, and is restored, so no
  T gates and no ancilla wires are needed.
- CLIFFORD_T_FUNCTIONAL: the standard 7-T Clifford+T network, used when a
  qubit-only gate-level circuit is wanted.

The profiles of both are measured once, at import, off ``lower_toffolis``
applied to a single Toffoli. SELINGER_COST is an accounting-only profile
for the T-depth-1 construction that spends four ancilla qubits; it has no
gate-level form here, cannot be used to lower circuits, and is the one
profile kept as quoted data.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, replace
from enum import Enum

from .circuits import (
    T_KINDS,
    Circuit,
    GateInstance,
    GateKind,
    _gc_paused,
    check_int,
    controlled,
    cx,
    h,
    is_qutrit_gate,
    layers,
    t,
    tdg,
    toffoli,
    xminus1,
    xplus1,
)


class LoweringStrategy(Enum):
    QUTRIT = "qutrit"
    CLIFFORD_T_FUNCTIONAL = "cliffordt"
    SELINGER_COST = "selinger-cost"


# the one Toffoli that profiles, fidelities and equivalence checks lower
REFERENCE_TOFFOLI = Circuit((2,) * 3, (toffoli(0, 1, 2),))


def check_strategy(strategy: LoweringStrategy) -> None:
    """Refuse anything that is not a LoweringStrategy member, such as its
    string value or None, which would otherwise take the fall-through case."""
    if not isinstance(strategy, LoweringStrategy):
        raise ValueError(f"strategy must be a LoweringStrategy member, got {strategy!r}")


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
        counts = asdict(self)
        if self.table_gate_count is None:  # the quoted headline count is optional
            del counts["table_gate_count"]
        check_int(**counts)
        if any(c < 0 for c in counts.values()):
            raise ValueError("cost profile counts must be non-negative")

    @property
    def component_gate_count(self) -> int:
        return self.one_qubit_gates + self.two_qubit_gates + self.two_qutrit_gates


def decompose_toffoli_qutrit(control_a: int, control_b: int, target: int) -> list[GateInstance]:
    """Three-gate qutrit lowering of a Toffoli; ``control_b`` must be a qutrit.

    |1>-controlled increment lifts ``control_b`` to |2> exactly when both
    controls were |1>; a |2>-controlled X then flips the target; the final
    |1>-controlled decrement reverses the first gate and restores the
    controls.
    """
    return [
        controlled(xplus1(control_b), control_a, 1),
        cx(control_b, target, value=2),
        controlled(xminus1(control_b), control_a, 1),
    ]


def decompose_toffoli_clifford_t(control_a: int, control_b: int, target: int) -> list[GateInstance]:
    """Standard 7-T Clifford+T Toffoli network: 15 gates, one object per
    distinct gate, so a repeated gate is the same object at each position."""
    a, b, tg = control_a, control_b, target
    h_t, cx_bt, tdg_t, cx_at, t_t, cx_ab = h(tg), cx(b, tg), tdg(tg), cx(a, tg), t(tg), cx(a, b)
    return [h_t, cx_bt, tdg_t, cx_at, t_t, cx_bt, tdg_t, cx_at, t(b), t_t, h_t, cx_ab, t(a), tdg(b), cx_ab]


@_gc_paused
def lower_toffolis(circuit: Circuit, strategy: LoweringStrategy) -> Circuit:
    """Replace every TOFFOLI in place with its functional lowering.

    The qutrit strategy promotes each Toffoli's second control wire to
    dimension 3 (idempotent when wires are shared); other gates and the
    circuit's action on the qubit subspace are untouched. Equal Toffolis
    are replaced by the same gate objects, which the result validates once.
    The cyclic garbage collector is paused for the call (``_gc_paused``).
    """
    check_strategy(strategy)
    if strategy is LoweringStrategy.SELINGER_COST:
        raise ValueError("SELINGER_COST is accounting-only and cannot lower circuits")
    new_wires = list(circuit.wires)
    new_gates: list[GateInstance] = []
    # every Toffoli of a Cuccaro adder appears twice (MAJ and UMA), so a
    # repeated Toffoli reuses the gate objects its first lowering built.
    # Keyed by (control, control, target) wires: the source circuit is
    # validated, so a TOFFOLI has exactly two controls, both of value 1, and
    # its three wires name it; an int tuple hashes in C, where the frozen
    # dataclass hash of a GateInstance and its ControlSpecs runs in Python
    lowered: dict[tuple[int, int, int], list[GateInstance]] = {}
    for gate in circuit.gates:
        if gate.kind is not GateKind.TOFFOLI:
            new_gates.append(gate)
            continue
        ca, cb = gate.controls
        a, b, tg = key = (ca.wire, cb.wire, gate.target)
        network = lowered.get(key)
        if network is None:
            if strategy is LoweringStrategy.QUTRIT:
                new_wires[b] = 3
                network = decompose_toffoli_qutrit(a, b, tg)
            else:
                network = decompose_toffoli_clifford_t(a, b, tg)
            lowered[key] = network
        new_gates.extend(network)
    return Circuit(tuple(new_wires), tuple(new_gates))


def _measure_profile(strategy: LoweringStrategy) -> CostProfile:
    """Profile read off the lowering of one Toffoli: gates sorted by wire
    count and by whether they touch a qutrit wire, depth, T-layers and the
    wires the lowering adds."""
    lowered = lower_toffolis(REFERENCE_TOFFOLI, strategy)
    by_class = Counter((is_qutrit_gate(g, lowered.wires), len(g.wires)) for g in lowered.gates)
    gate_layers = layers(lowered)
    return CostProfile(
        one_qubit_gates=by_class[False, 1],
        two_qubit_gates=by_class[False, 2],
        two_qutrit_gates=by_class[True, 2],
        depth_per_toffoli=len(gate_layers),
        t_depth_per_toffoli=sum(any(g.kind in T_KINDS for g in layer) for layer in gate_layers),
        ancilla_wires=len(lowered.wires) - 3,
    )


# Measured once at import: census_for runs once per success-curve point, and
# a lowering per call would cost time and add lower_toffolis calls to traces.
_PROFILES = {
    LoweringStrategy.QUTRIT: replace(_measure_profile(LoweringStrategy.QUTRIT), table_gate_count=3),
    LoweringStrategy.CLIFFORD_T_FUNCTIONAL: _measure_profile(LoweringStrategy.CLIFFORD_T_FUNCTIONAL),
    LoweringStrategy.SELINGER_COST: CostProfile(
        one_qubit_gates=7, two_qubit_gates=16, two_qutrit_gates=0, depth_per_toffoli=7,
        t_depth_per_toffoli=1, ancilla_wires=4, table_gate_count=25),
}


def cost_profile(strategy: LoweringStrategy) -> CostProfile:
    """Per-Toffoli resource profile of a strategy.

    The two functional profiles are measured off ``lower_toffolis``; the
    qutrit one carries the quoted headline gate count 3. The baseline
    profile reports the quoted T-depth-1 figures: depth 7, four ancilla,
    headline gate count 25 alongside the 7 + 16 component counts.
    """
    check_strategy(strategy)
    return _PROFILES[strategy]
