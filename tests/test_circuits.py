"""Circuit IR: construction, validation, metrics, JSON round-trip."""
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from triarc import arith
from triarc import circuits as C
from triarc import transpile
from triarc.circuits import GateKind
from triarc.transpile import LoweringStrategy

DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("make", [C.xplus1, C.xminus1])
def test_validate_gate_refuses_a_qutrit_only_kind_on_a_qubit_target(make):
    gate = make(0)
    message = f"{gate.kind.value} targets qutrit wires only"
    with pytest.raises(ValueError, match=f"^{message}$"):
        C.validate_gate(gate, (2, 3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        C.append(C.new_circuit([2, 3]), C.controlled(gate, 1, 2))
    C.validate_gate(make(1), (2, 3))


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
        (C.GateInstance(GateKind.X, (), 0.5), "wire index must be an integer"),
        (C.GateInstance(GateKind.X, (), True), "wire index must be an integer"),
        (C.GateInstance(GateKind.X, (C.ControlSpec(1.0, 1),), 0), "wire index must be an integer"),
        (C.GateInstance(GateKind.X, (C.ControlSpec(1, True),), 0), "control value must be an integer"),
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


@pytest.mark.parametrize("dim", [4, True, 2.0])
def test_circuit_refuses_a_wire_dimension_other_than_2_or_3(dim):
    message = f"wire dimension must be the integer 2 or 3, got {dim!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        C.Circuit((2, dim))


def test_circuit_stores_its_wires_as_a_tuple_of_python_ints():
    circ = C.Circuit([np.int64(2), np.uint8(3), 2])
    assert circ.wires == (2, 3, 2)
    assert type(circ.wires) is tuple
    assert [type(d) for d in circ.wires] == [int, int, int]
    assert circ.dims is circ.wires
    grown = C.append(circ, C.x(0))
    assert grown.dims is grown.wires == (2, 3, 2)


def test_numpy_integers_are_accepted():
    circ = C.new_circuit([np.int64(2), np.int8(3)])
    circ = C.append(circ, C.cx(np.int64(1), np.int32(0), value=np.int64(2)))
    assert circ.dims == (2, 3)


def test_gate_wires_are_left_out_of_equality_hash_and_repr():
    gate = C.cx(0, 1, value=2)
    assert gate.wires == (0, 1)
    assert repr(gate) == ("GateInstance(kind=<GateKind.X: 'X'>, "
                          "controls=(ControlSpec(wire=0, value=2),), target=1)")
    stale = C.cx(0, 1, value=2)
    object.__setattr__(stale, "wires", (5,))
    assert stale == gate
    assert hash(stale) == hash(gate)
    assert len({gate, stale}) == 1


def test_controlled_recomputes_the_gate_wires():
    assert C.x(2).wires == (2,)
    assert C.controlled(C.x(2), 0).wires == (0, 2)
    assert C.controlled(C.controlled(C.x(2), 0), 1, 2).wires == (0, 1, 2)
    assert C.toffoli(3, 1, 0).wires == (3, 1, 0)


def test_to_json_writes_numpy_integers_as_plain_ints():
    circ = C.append(C.new_circuit([np.int64(2), 2]), C.x(np.int64(0)))
    text = C.to_json(circ)
    assert text == reference_to_json(C.append(C.new_circuit([2, 2]), C.x(0)))
    assert C.from_json(text) == circ


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
            "targets": [bad.target],
        })
        with pytest.raises(ValueError):
            C.from_json(json.dumps(data))


@pytest.mark.parametrize("targets", [[], [0, 1]], ids=["empty", "two"])
def test_from_json_refuses_a_gate_without_exactly_one_target(targets):
    data = C.circuit_to_dict(C.extend(C.new_circuit([2, 3]), [C.x(0), C.cx(1, 0, value=2)]))
    data["gates"][1]["targets"] = targets
    with pytest.raises(ValueError, match="^X takes exactly one target$"):
        C.circuit_from_dict(data)
    with pytest.raises(ValueError, match="^X takes exactly one target$"):
        C.from_json(json.dumps(data))


def test_from_json_refuses_a_wire_dimension_before_any_gate():
    data = C.circuit_to_dict(C.append(C.new_circuit([2, 3]), C.x(0)))
    data["wires"][1]["dim"] = 4
    data["gates"][0]["targets"] = [0, 1]
    with pytest.raises(ValueError, match="^wire dimension must be the integer 2 or 3, got 4$"):
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


def count_validations(monkeypatch):
    calls = []
    validate = C.validate_gate

    def counting(gate, wires):
        calls.append(gate)
        validate(gate, wires)

    monkeypatch.setattr(C, "validate_gate", counting)
    return calls


def test_a_gate_object_at_many_positions_is_validated_once(monkeypatch):
    calls = count_validations(monkeypatch)
    gate = C.cx(1, 0, value=2)
    circ = C.Circuit(C.new_circuit([2, 3]).wires, (gate,) * 100)
    assert calls == [gate]
    assert len(circ.gates) == 100


@pytest.mark.parametrize(
    "strategy, lowered, parsed",
    [(LoweringStrategy.QUTRIT, 449, 385), (LoweringStrategy.CLIFFORD_T_FUNCTIONAL, 833, 642)],
)
def test_lowering_and_parsing_validate_each_distinct_gate_once(monkeypatch, strategy, lowered,
                                                               parsed):
    # build_adder(64) has 128 Toffolis, each once in MAJ and once in UMA: 64
    # distinct ones, lowered to 3 objects each (qutrit) or 9 (Clifford+T,
    # one per distinct gate of the 15), beside 257 other gates
    adder, _ = arith.build_adder(64)
    calls = count_validations(monkeypatch)
    circ = transpile.lower_toffolis(adder, strategy)
    assert len(calls) == lowered == len({id(g) for g in circ.gates})
    text = C.to_json(circ)
    calls.clear()
    parsed_circ = C.from_json(text)
    assert len(calls) == parsed == len(set(circ.gates))
    assert parsed_circ == circ


def test_a_bool_wired_gate_equal_to_a_valid_one_is_refused_everywhere():
    # x(1) and the bool-wired gate are equal and hash alike, so a validation
    # or a gate cache keyed by equality would let the second one through
    good, bad = C.x(1), C.GateInstance(GateKind.X, (), True)
    assert good == bad and hash(good) == hash(bad)
    wires = C.new_circuit([2, 2]).wires
    message = "wire index must be an integer, got True"
    with pytest.raises(ValueError, match=message):
        C.Circuit(wires, (good, C.x(0), bad))
    with pytest.raises(ValueError, match=message):
        C.append(C.Circuit(wires, (good,)), bad)
    with pytest.raises(ValueError, match=message):
        C.extend(C.Circuit(wires), [good, bad])
    data = C.circuit_to_dict(C.Circuit(wires, (good,)))
    data["gates"].append({"kind": "X", "controls": [], "targets": [True]})
    with pytest.raises(ValueError, match=re.escape("gates[1].targets[0] must be an integer")):
        C.from_json(json.dumps(data))


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda g: g.update(targets=[1.0]), "gates[2].targets[0]"),
        (lambda g: g.update(targets=[True]), "gates[2].targets[0]"),
        (lambda g: g["controls"][0].update(wire=False), "gates[2].controls[0].wire"),
        (lambda g: g["controls"][0].update(value=2.0), "gates[2].controls[0].value"),
    ],
)
def test_from_json_names_the_index_of_a_bad_copy_of_an_earlier_gate(edit, field):
    # gate 2 repeats gate 0, which is valid and already parsed, before the edit
    gate = C.cx(0, 1, value=2)
    data = C.circuit_to_dict(C.extend(C.new_circuit([3, 2]), [gate, C.x(0), gate]))
    edit(data["gates"][2])
    with pytest.raises(ValueError, match=re.escape(field) + " must be an integer"):
        C.from_json(json.dumps(data))


def json_int(value, field):
    C.check_int(**{field: value})
    return value


def json_dim(dim):
    # a wire is refused as it is read, before any gate
    C.new_circuit([dim])
    return dim


def json_target(gate):
    targets = gate["targets"]
    if not isinstance(targets, list) or len(targets) != 1:
        raise ValueError(f"{GateKind(gate['kind']).value} takes exactly one target")
    return targets[0]


def reference_from_dict(data):
    # the reader before equal gates were shared: one new gate per entry
    wires = tuple(
        json_dim(json_int(w["dim"], f"wires[{i}].dim")) for i, w in enumerate(data["wires"])
    )
    gates = tuple(
        C.GateInstance(
            GateKind(g["kind"]),
            tuple(
                C.ControlSpec(
                    json_int(c["wire"], f"gates[{i}].controls[{j}].wire"),
                    json_int(c["value"], f"gates[{i}].controls[{j}].value"),
                )
                for j, c in enumerate(g.get("controls", []))
            ),
            json_int(json_target(g), f"gates[{i}].targets[0]"),
        )
        for i, g in enumerate(data["gates"])
    )
    return C.Circuit(wires, gates)


def outcome(read, data):
    try:
        return read(data)
    except Exception as error:  # compared by type and message
        return type(error), str(error)


BAD_VALUES = [True, False, 1.0, 0.5, "1", None, -1, 0, 1, 2, 7, [1]]


@st.composite
def damaged_dicts(draw):
    """The dict form of a circuit with repeated gates, with a few fields
    replaced by values of the wrong type or range, or deleted."""
    data = C.circuit_to_dict(draw(wide_circuits(max_gates=8)))
    data["gates"] += [json.loads(json.dumps(g)) for g in draw(st.lists(
        st.sampled_from(data["gates"]), max_size=4))] if data["gates"] else []
    for _ in range(draw(st.integers(0, 3))):
        if not data["gates"]:
            break
        gate = draw(st.sampled_from(data["gates"]))
        spots = [(gate, key) for key in ("kind", "controls", "targets") if key in gate]
        if isinstance(gate.get("controls"), list):
            spots += [(c, key) for c in gate["controls"] if isinstance(c, dict)
                      for key in ("wire", "value") if key in c]
        if isinstance(gate.get("targets"), list):
            spots += [(gate["targets"], i) for i in range(len(gate["targets"]))]
        if not spots:
            continue
        holder, key = draw(st.sampled_from(spots))
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[key]
        elif key == "kind":
            holder[key] = draw(st.sampled_from(["Y", "x", 3, ["X"], None, "TOFFOLI"]))
        else:
            holder[key] = draw(st.sampled_from(BAD_VALUES))
    return data


@given(damaged_dicts())
def test_from_json_refuses_as_the_one_gate_per_entry_reader_did(data):
    # same circuit, or the same exception with the same message, first fault first
    assert outcome(C.circuit_from_dict, data) == outcome(reference_from_dict, data)


# --- metrics --------------------------------------------------------------

def test_gate_count_empty():
    assert C.gate_count(C.new_circuit([2])) == 0


def test_gate_count_qutrit_lowering_is_3():
    circ = C.extend(C.new_circuit([2, 3, 2]), triple_lowering_gates())
    assert C.gate_count(circ) == 3


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


def test_t_depth_counts_parallel_t_gates_once():
    circ = C.extend(C.new_circuit([2, 2, 2]), [C.t(0), C.tdg(1), C.cx(0, 1), C.t(2), C.t(0)])
    assert C.t_metrics(circ) == (4, 2)


# --- JSON round trip ------------------------------------------------------

def test_json_round_trip_example():
    circ = C.extend(C.new_circuit([2, 3, 2]), triple_lowering_gates())
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


GOLDEN_CIRCUITS = [
    ("adder3.json", lambda: arith.build_adder(3)[0], None),
    ("adder3_qutrit.json", lambda: arith.build_adder(3)[0], LoweringStrategy.QUTRIT),
    ("adder3_cliffordt.json", lambda: arith.build_adder(3)[0],
     LoweringStrategy.CLIFFORD_T_FUNCTIONAL),
    ("multiplier2x2_qutrit.json", lambda: arith.build_multiplier(2, 2)[0],
     LoweringStrategy.QUTRIT),
    ("multiplier2x2_cliffordt.json", lambda: arith.build_multiplier(2, 2)[0],
     LoweringStrategy.CLIFFORD_T_FUNCTIONAL),
]


@pytest.mark.parametrize("golden, build, strategy", GOLDEN_CIRCUITS,
                         ids=[g for g, _, _ in GOLDEN_CIRCUITS])
def test_to_json_matches_golden(golden, build, strategy):
    circ = build()
    if strategy is not None:
        circ = transpile.lower_toffolis(circ, strategy)
    text = (DATA / golden).read_text()
    assert C.to_json(circ) + "\n" == text
    assert C.from_json(text) == circ


def test_to_json_of_the_mixed_radix_file_reproduces_it():
    text = (DATA / "mixed_radix.json").read_text()
    assert C.to_json(C.from_json(text)) + "\n" == text


def reference_to_json(circ):
    # the encoder's own indent=2 layout, which to_json must reproduce byte for byte
    return json.dumps(C.circuit_to_dict(circ), indent=2)


@st.composite
def wide_circuits(draw, max_wires=5, max_gates=10, dims_from=(2, 3)):
    """Wires of the dimensions ``dims_from``; gates with 0-2 controls of value
    1 or 2, TOFFOLIs, and possibly no gate at all."""
    dims = draw(st.lists(st.sampled_from(dims_from), min_size=1, max_size=max_wires))
    n = len(dims)
    qubit_wires = [w for w in range(n) if dims[w] == 2]
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        order = draw(st.permutations(range(n)))
        choice = draw(st.sampled_from(["unitary", "toffoli"]))
        if choice == "toffoli" and len(qubit_wires) >= 3:
            a, b, target = draw(st.permutations(qubit_wires))[:3]
            gates.append(C.toffoli(a, b, target))
        else:
            target, controls = order[0], order[1:1 + draw(st.integers(0, min(2, n - 1)))]
            kinds = [C.x, C.h, C.t, C.tdg, C.s, C.sdg, C.z]
            if dims[target] == 3:
                kinds += [C.xplus1, C.xminus1]
            gate = draw(st.sampled_from(kinds))(target)
            for w in controls:
                gate = C.controlled(gate, w, draw(st.integers(1, dims[w] - 1)))
            gates.append(gate)
    return C.extend(C.new_circuit(dims), gates)


@given(wide_circuits())
def test_to_json_matches_the_json_module(circ):
    text = C.to_json(circ)
    assert text == reference_to_json(circ)
    assert C.from_json(text) == circ


def test_to_json_of_an_empty_circuit_matches_the_json_module():
    circ = C.new_circuit([2, 3])
    assert C.to_json(circ) == reference_to_json(circ)
    assert '"gates": []' in C.to_json(circ)


def reference_layers(circ):
    # the ASAP layering as written before depth and t_metrics shared one walk
    next_free = [0] * len(circ.wires)
    layers = []
    for gate in circ.gates:
        wires = tuple(c.wire for c in gate.controls) + (gate.target,)
        layer = max((next_free[w] for w in wires), default=0)
        if layer == len(layers):
            layers.append([])
        layers[layer].append(gate)
        for w in wires:
            next_free[w] = layer + 1
    return layers


def reference_t_metrics(circ):
    # count plus layers, as t_metrics computed it before the shared walk
    t_count = sum(1 for g in circ.gates if g.kind in C.T_KINDS)
    t_depth = sum(1 for layer in reference_layers(circ)
                  if any(g.kind in C.T_KINDS for g in layer))
    return t_count, t_depth


@given(wide_circuits())
def test_layers_and_depth_match_the_reference_walk(circ):
    assert C.layers(circ) == reference_layers(circ)
    assert C.depth(circ) == len(C.layers(circ))


@given(st.one_of(wide_circuits(), wide_circuits(dims_from=(2,))))
def test_t_metrics_matches_the_reference_or_refuses_a_qutrit_gate(circ):
    if any(C.is_qutrit_gate(g, circ.wires) for g in circ.gates):
        with pytest.raises(ValueError, match="qubit-only"):
            C.t_metrics(circ)
    else:
        assert C.t_metrics(circ) == reference_t_metrics(circ)


@given(wide_circuits(dims_from=(2,)))
def test_t_metrics_accepts_a_qutrit_wire_no_gate_touches(circ):
    idle = C.Circuit(circ.wires + (3,), circ.gates)
    assert C.t_metrics(idle) == C.t_metrics(circ) == reference_t_metrics(circ)


def test_t_metrics_refuses_a_gate_on_a_qutrit_wire():
    circ = C.extend(C.new_circuit([2, 3]), [C.t(0), C.h(1)])
    with pytest.raises(ValueError, match="qubit-only"):
        C.t_metrics(circ)


@st.composite
def arbitrary_gates(draw, n_wires=3):
    """Possibly-invalid gate instances for validation totality."""
    kind = draw(st.sampled_from(list(GateKind)))
    wires = st.integers(-1, n_wires)
    controls = tuple(
        C.ControlSpec(draw(wires), draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(0, 2)))
    )
    return C.GateInstance(kind, controls, draw(wires))


@given(arbitrary_gates(), st.lists(st.sampled_from([2, 3]), min_size=3, max_size=3))
def test_validation_is_total(gate, dims):
    circ = C.new_circuit(dims)
    try:
        grown = C.append(circ, gate)
    except ValueError:
        return
    assert grown.gates[-1] == gate
