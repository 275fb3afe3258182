"""Circuit IR: construction, validation, metrics, JSON round-trip."""
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from triarc import circuits as C
from triarc.circuits import GateKind


def triple_lowering_gates():
    # the three-gate qutrit lowering on wires (0, 1, 2), wire 1 ternary
    return [
        C.controlled(C.xplus1(1), 0, 1),
        C.cx(1, 2, value=2),
        C.controlled(C.xminus1(1), 0, 1),
    ]


# --- construction ---------------------------------------------------------

def test_new_circuit_three_qubits():
    circ = C.new_circuit([2, 2, 2])
    assert len(circ.wires) == 3
    assert circ.gates == ()


def test_new_circuit_rejects_dimension_4():
    with pytest.raises(ValueError):
        C.new_circuit([2, 4, 2])


def test_new_circuit_rejects_empty():
    with pytest.raises(ValueError):
        C.new_circuit([])


def test_13_qubit_layout_is_valid():
    circ = C.new_circuit([2] * 13)
    assert len(circ.wires) == 13


# --- append validation ----------------------------------------------------

def test_control_value_2_on_qubit_rejected():
    circ = C.new_circuit([2, 2])
    with pytest.raises(ValueError):
        C.append(circ, C.cx(0, 1, value=2))


def test_level2_control_on_qutrit_accepted():
    circ = C.new_circuit([3, 2])
    circ = C.append(circ, C.cx(0, 1, value=2))
    assert len(circ.gates) == 1


def test_toffoli_append():
    circ = C.new_circuit([2, 2, 2])
    circ = C.append(circ, C.toffoli(0, 1, 2))
    assert C.gate_count(circ) == 1


def test_toffoli_rejects_qutrit_wire():
    circ = C.new_circuit([2, 3, 2])
    with pytest.raises(ValueError):
        C.append(circ, C.toffoli(0, 1, 2))


def test_xplus1_rejects_qubit_target():
    circ = C.new_circuit([2, 2])
    with pytest.raises(ValueError):
        C.append(circ, C.xplus1(0))


def test_duplicate_wire_rejected():
    circ = C.new_circuit([2, 2])
    with pytest.raises(ValueError):
        C.append(circ, C.cx(1, 1))


def test_out_of_range_wire_rejected():
    circ = C.new_circuit([2, 2])
    with pytest.raises(ValueError):
        C.append(circ, C.x(5))


@pytest.mark.parametrize(
    "gate, message",
    [
        (C.GateInstance(GateKind.X, (), (0.5,)), "wire index must be an integer"),
        (C.GateInstance(GateKind.X, (), (True,)), "wire index must be an integer"),
        (C.GateInstance(GateKind.X, (C.ControlSpec(1.0, 1),), (0,)), "wire index must be an integer"),
        (C.GateInstance(GateKind.X, (C.ControlSpec(1, True),), (0,)), "control value must be an integer"),
    ],
    ids=["float-target", "bool-target", "float-control-wire", "bool-control-value"],
)
def test_append_refuses_a_non_integer_index(gate, message):
    with pytest.raises(ValueError, match=message):
        C.append(C.new_circuit([2, 2]), gate)


@pytest.mark.parametrize("dim", [2.0, True])
def test_new_circuit_refuses_a_non_integer_dimension(dim):
    with pytest.raises(ValueError, match="must be the integer 2 or 3"):
        C.new_circuit([dim])


def test_numpy_integers_are_accepted():
    circ = C.new_circuit([np.int64(2), np.int8(3)])
    circ = C.append(circ, C.cx(np.int64(1), np.int32(0), value=np.int64(2)))
    assert circ.dims == (2, 3)


def test_measure_rejects_controls():
    circ = C.new_circuit([2, 2])
    with pytest.raises(ValueError):
        C.append(circ, C.controlled(C.measure(0), 1))


def test_append_extend_and_from_json_reject_a_bad_gate():
    circ = C.append(C.new_circuit([2, 3]), C.x(0))
    for bad in (C.x(2), C.cx(0, 1, value=2), C.xplus1(0), C.cx(1, 1)):
        with pytest.raises(ValueError):
            C.append(circ, bad)
        with pytest.raises(ValueError):
            C.extend(circ, [C.x(1), bad])
        data = C.circuit_to_dict(circ)
        data["gates"].append({
            "kind": bad.kind.value,
            "controls": [{"wire": c.wire, "value": c.value} for c in bad.controls],
            "targets": list(bad.targets),
        })
        with pytest.raises(ValueError):
            C.from_json(json.dumps(data))


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["wires"][0].update(dim=2.0), "wires[0].dim"),
        (lambda d: d["wires"][1].update(dim=True), "wires[1].dim"),
        (lambda d: d["gates"][0].update(targets=[0.5]), "gates[0].targets[0]"),
        (lambda d: d["gates"][1]["controls"][0].update(wire=1.0), "gates[1].controls[0].wire"),
        (lambda d: d["gates"][1]["controls"][0].update(value="1"), "gates[1].controls[0].value"),
        (lambda d: d["gates"][1].update(targets=[False]), "gates[1].targets[0]"),
    ],
)
def test_from_json_rejects_a_non_integer_index(edit, field):
    data = C.circuit_to_dict(C.extend(C.new_circuit([2, 3]), [C.x(0), C.cx(1, 0, value=2)]))
    edit(data)
    with pytest.raises(ValueError, match=re.escape(field) + " must be an integer"):
        C.from_json(json.dumps(data))


def test_appends_validate_each_new_gate_once(monkeypatch):
    calls = []
    validate = C.validate_gate

    def counting(gate, wires):
        calls.append(gate)
        validate(gate, wires)

    monkeypatch.setattr(C, "validate_gate", counting)
    gates = [C.x(0), C.cx(0, 1), C.xplus1(1), C.cx(1, 0, value=2)] * 25
    circ = C.new_circuit([2, 3])
    for gate in gates:
        circ = C.append(circ, gate)
    assert calls == gates
    calls.clear()
    circ = C.extend(circ, gates)
    assert calls == gates
    assert circ == C.Circuit(circ.wires, tuple(gates) * 2)


# --- metrics --------------------------------------------------------------

def test_gate_count_empty():
    assert C.gate_count(C.new_circuit([2])) == 0


def test_gate_count_qutrit_lowering_is_3():
    circ = C.extend(C.new_circuit([2, 3, 2]), triple_lowering_gates())
    assert C.gate_count(circ) == 3


def test_gate_count_excludes_measure_by_default():
    circ = C.extend(C.new_circuit([2, 2]), [C.x(0), C.measure(0, 1)])
    assert C.gate_count(circ) == 1
    assert C.gate_count(circ, GateKind.MEASURE) == 1


def test_depth_single_gate():
    assert C.depth(C.append(C.new_circuit([2]), C.x(0))) == 1


def test_depth_qutrit_lowering_is_3():
    circ = C.extend(C.new_circuit([2, 3, 2]), triple_lowering_gates())
    assert C.depth(circ) == 3


def test_depth_disjoint_gates_parallel():
    circ = C.extend(C.new_circuit([2, 2]), [C.x(0), C.x(1)])
    assert C.depth(circ) == 1


def test_t_metrics_clifford_only():
    circ = C.extend(C.new_circuit([2, 2]), [C.h(0), C.s(1), C.cx(0, 1)])
    assert C.t_metrics(circ) == (0, 0)


def test_t_metrics_rejects_qutrit_circuit():
    circ = C.extend(C.new_circuit([2, 3, 2]), triple_lowering_gates())
    with pytest.raises(ValueError):
        C.t_metrics(circ)


def test_t_metrics_counts_t_and_tdg():
    circ = C.extend(C.new_circuit([2]), [C.t(0), C.tdg(0), C.t(0)])
    assert C.t_metrics(circ) == (3, 3)


# --- JSON round trip ------------------------------------------------------

def test_json_round_trip_example():
    circ = C.extend(
        C.new_circuit([2, 3, 2]),
        triple_lowering_gates() + [C.measure(0, 2)],
    )
    assert C.from_json(C.to_json(circ)) == circ


# --- property tests -------------------------------------------------------

@st.composite
def circuits_strategy(draw, max_wires=5, max_gates=12):
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=max_wires))
    n = len(dims)
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        qubit_wires = [w for w in range(n) if dims[w] == 2]
        qutrit_wires = [w for w in range(n) if dims[w] == 3]
        options = ["single"]
        if n >= 2:
            options.append("controlled")
        if qutrit_wires:
            options.append("ternary")
        if len(qubit_wires) >= 3:
            options.append("toffoli")
        choice = draw(st.sampled_from(options))
        if choice == "single":
            kind = draw(st.sampled_from([C.x, C.h, C.t, C.tdg, C.s, C.sdg, C.z]))
            gates.append(kind(draw(st.sampled_from(range(n)))))
        elif choice == "ternary":
            target = draw(st.sampled_from(qutrit_wires))
            kind = draw(st.sampled_from([C.xplus1, C.xminus1]))
            gates.append(kind(target))
        elif choice == "controlled":
            control, target = draw(
                st.permutations(range(n)).map(lambda p: (p[0], p[1]))
            )
            value = draw(st.sampled_from(range(1, dims[control])))
            gates.append(C.cx(control, target, value=value))
        else:
            a, b, tg = draw(
                st.permutations(qubit_wires).map(lambda p: (p[0], p[1], p[2]))
            )
            gates.append(C.toffoli(a, b, tg))
    return C.extend(C.new_circuit(dims), gates)


@given(circuits_strategy())
def test_depth_at_most_gate_count(circ):
    assert C.depth(circ) <= C.gate_count(circ)


@given(circuits_strategy())
def test_append_never_decreases_metrics(circ):
    grown = C.append(circ, C.x(0))
    assert C.depth(grown) >= C.depth(circ)
    assert C.gate_count(grown) >= C.gate_count(circ)


@given(st.integers(1, 4), st.integers(1, 10))
def test_serial_gates_reach_equality(n_wires, n_gates):
    # all gates share wire 0, so depth equals gate count
    circ = C.extend(C.new_circuit([2] * n_wires), [C.x(0)] * n_gates)
    assert C.depth(circ) == C.gate_count(circ)


@given(circuits_strategy())
def test_t_depth_at_most_t_count(circ):
    if any(d == 3 for d in circ.dims):
        return
    t_count, t_depth = C.t_metrics(circ)
    assert t_depth <= t_count
    assert (t_depth == 0) == (t_count == 0)


@given(circuits_strategy())
def test_json_round_trip_property(circ):
    assert C.from_json(C.to_json(circ)) == circ


@st.composite
def arbitrary_gates(draw, n_wires=3):
    """Possibly-invalid gate instances for validation totality."""
    kind = draw(st.sampled_from(list(GateKind)))
    wires = st.integers(-1, n_wires)
    controls = tuple(
        C.ControlSpec(draw(wires), draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(0, 2)))
    )
    targets = tuple(draw(wires) for _ in range(draw(st.integers(0, 2))))
    return C.GateInstance(kind, controls, targets)


@given(arbitrary_gates(), st.lists(st.sampled_from([2, 3]), min_size=3, max_size=3))
def test_validation_is_total(gate, dims):
    circ = C.new_circuit(dims)
    try:
        grown = C.append(circ, gate)
    except ValueError:
        return
    assert grown.gates[-1] == gate
