"""Toffoli lowering: structure, cost profiles, and unitary equivalence."""
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from triarc import arith as A
from triarc import circuits as C
from triarc import noise as N
from triarc import simulator as S
from triarc import transpile as T
from triarc.circuits import GateKind
from triarc.transpile import LoweringStrategy

FUNCTIONAL = (LoweringStrategy.QUTRIT, LoweringStrategy.CLIFFORD_T_FUNCTIONAL)


def single_toffoli_circuit():
    return C.append(C.new_circuit([2, 2, 2]), C.toffoli(0, 1, 2))


def random_toffoli_circuit(rng, n_wires, n_toffolis, n_extra):
    """Qubit circuit mixing Toffolis with 1q/2q gates, seeded deterministically."""
    circ = C.new_circuit([2] * n_wires)
    single = [C.x, C.h, C.t, C.tdg, C.s, C.sdg, C.z]
    gates = []
    for _ in range(n_toffolis):
        a, b, t = rng.choice(n_wires, size=3, replace=False)
        gates.append(C.toffoli(int(a), int(b), int(t)))
    for _ in range(n_extra):
        if rng.random() < 0.5 and n_wires >= 2:
            c, t = rng.choice(n_wires, size=2, replace=False)
            gates.append(C.cx(int(c), int(t)))
        else:
            gates.append(single[rng.integers(len(single))](int(rng.integers(n_wires))))
    rng.shuffle(gates)
    return C.extend(circ, gates)


# --- the three-gate lowering ----------------------------------------------

def test_qutrit_decomposition_structure():
    gates = T.decompose_toffoli_qutrit(0, 1, 2)
    assert [g.kind for g in gates] == [GateKind.XPLUS1, GateKind.X, GateKind.XMINUS1]
    assert gates[0].controls == (C.ControlSpec(0, 1),)
    assert gates[1].controls == (C.ControlSpec(1, 2),)
    assert gates[2].controls == (C.ControlSpec(0, 1),)


def test_qutrit_lowering_action_on_basis_states():
    lowered = T.lower_toffolis(single_toffoli_circuit(), LoweringStrategy.QUTRIT)
    assert S.dominant_basis_label(S.simulate(lowered, "110")) == "111"
    assert S.dominant_basis_label(S.simulate(lowered, "011")) == "011"


def test_intermediate_state_reaches_level_2():
    lowered = T.lower_toffolis(single_toffoli_circuit(), LoweringStrategy.QUTRIT)
    partial = C.Circuit(lowered.wires, lowered.gates[:1])
    assert S.dominant_basis_label(S.simulate(partial, "110")) == "120"


# --- lower_toffolis --------------------------------------------------------

def test_lowering_promotes_second_control():
    lowered = T.lower_toffolis(single_toffoli_circuit(), LoweringStrategy.QUTRIT)
    assert lowered.dims == (2, 3, 2)
    assert C.gate_count(lowered) == 3
    assert C.depth(lowered) == 3


def test_lowering_without_toffolis_is_identity():
    circ = C.extend(C.new_circuit([2, 2]), [C.h(0), C.cx(0, 1)])
    for strategy in FUNCTIONAL:
        assert T.lower_toffolis(circ, strategy) == circ


def test_selinger_cost_cannot_lower():
    with pytest.raises(ValueError):
        T.lower_toffolis(single_toffoli_circuit(), LoweringStrategy.SELINGER_COST)


@pytest.mark.parametrize("bad", ["qutrit", None])
def test_lower_toffolis_rejects_non_member_strategy(bad):
    with pytest.raises(ValueError, match="LoweringStrategy member"):
        T.lower_toffolis(single_toffoli_circuit(), bad)


@pytest.mark.parametrize("bad", ["qutrit", None])
def test_cost_profile_rejects_non_member_strategy(bad):
    with pytest.raises(ValueError, match="LoweringStrategy member"):
        T.cost_profile(bad)


def test_shared_second_control_promoted_once():
    circ = C.extend(
        C.new_circuit([2] * 4), [C.toffoli(0, 1, 2), C.toffoli(3, 1, 0)]
    )
    lowered = T.lower_toffolis(circ, LoweringStrategy.QUTRIT)
    assert lowered.dims == (2, 3, 2, 2)
    assert C.gate_count(lowered) == 6


def test_lowering_handles_promoted_target():
    # second Toffoli's target sits on the wire promoted by the first
    circ = C.extend(
        C.new_circuit([2] * 4), [C.toffoli(0, 1, 2), C.toffoli(2, 3, 1)]
    )
    lowered = T.lower_toffolis(circ, LoweringStrategy.QUTRIT)
    assert lowered.dims == (2, 3, 2, 3)
    restricted = S.qubit_subspace_unitary(lowered)
    assert np.allclose(restricted, S.circuit_unitary(circ), atol=1e-10)


def two_pass_lowering(circuit, strategy):
    """Reference lowering: promote every Toffoli's second control first, then
    lower the gates in a second pass."""
    wires = list(circuit.wires)
    if strategy is LoweringStrategy.QUTRIT:
        for gate in circuit.gates:
            if gate.kind is GateKind.TOFFOLI:
                wires[gate.controls[1].wire] = C.WireSpec(3)
    lower = (T.decompose_toffoli_qutrit if strategy is LoweringStrategy.QUTRIT
             else T.decompose_toffoli_clifford_t)
    gates = []
    for gate in circuit.gates:
        if gate.kind is GateKind.TOFFOLI:
            gates.extend(lower(*(c.wire for c in gate.controls), gate.targets[0]))
        else:
            gates.append(gate)
    return tuple(wires), tuple(gates)


def shared_wire_circuit(seed, n_wires=6):
    """One hub wire that is the second control of three Toffolis, the first
    control or the target of four more, and the control of four CNOTs."""
    rng = np.random.default_rng(seed)
    hub = int(rng.integers(n_wires))
    others = [w for w in range(n_wires) if w != hub]
    gates = []
    for role in ("second", "second", "second", "first", "target", "first", "target"):
        a, b = (int(w) for w in rng.choice(others, size=2, replace=False))
        gates.append({"second": C.toffoli(a, hub, b), "first": C.toffoli(hub, a, b),
                      "target": C.toffoli(a, b, hub)}[role])
    gates += [C.cx(hub, int(rng.choice(others))) for _ in range(4)]
    rng.shuffle(gates)
    return C.extend(C.new_circuit([2] * n_wires), gates)


@pytest.mark.parametrize("strategy", FUNCTIONAL)
@pytest.mark.parametrize(
    "build",
    [lambda n=n: A.build_adder(n)[0] for n in range(1, 9)]
    + [lambda: A.build_multiplier(3, 2)[0], lambda: A.build_multiplier(4, 4)[0]]
    + [lambda seed=seed: shared_wire_circuit(seed) for seed in range(6)],
    ids=[f"adder{n}" for n in range(1, 9)] + ["mult3x2", "mult4x4"]
    + [f"shared{seed}" for seed in range(6)],
)
def test_one_pass_lowering_matches_two_pass_reference(strategy, build):
    circuit = build()
    lowered = T.lower_toffolis(circuit, strategy)
    assert (lowered.wires, lowered.gates) == two_pass_lowering(circuit, strategy)


def reference_lowering(circuit, strategy):
    """The lowering as one loop that builds a fresh decomposition for every
    Toffoli, before repeated Toffolis shared their gates."""
    new_wires = list(circuit.wires)
    new_gates = []
    for gate in circuit.gates:
        if gate.kind is not GateKind.TOFFOLI:
            new_gates.append(gate)
            continue
        a, b = (c.wire for c in gate.controls)
        tg = gate.targets[0]
        if strategy is LoweringStrategy.QUTRIT:
            new_wires[b] = C.WireSpec(3)
            new_gates.extend(T.decompose_toffoli_qutrit(a, b, tg))
        else:
            new_gates.extend(T.decompose_toffoli_clifford_t(a, b, tg))
    return C.Circuit(tuple(new_wires), tuple(new_gates))


@st.composite
def repeated_toffoli_circuits(draw):
    """Qubit circuits drawing Toffolis from a small pool, so they repeat, as
    the same object or as a new equal one. The pool holds one Toffoli and
    near copies of it (two wires swapped, or one wire replaced), so a wire
    can be the second control of one Toffoli and a first control, target or
    CNOT wire of another, and only the whole gate tells two Toffolis apart."""
    n = draw(st.integers(3, 6))
    base = draw(st.permutations(range(n)))[:3]
    pool = [tuple(base)]
    for _ in range(draw(st.integers(0, 3))):
        near = list(base)
        i, j = draw(st.permutations(range(3)))[:2]
        spare = [w for w in range(n) if w not in base]
        if spare and draw(st.booleans()):
            near[i] = draw(st.sampled_from(spare))
        else:
            near[i], near[j] = near[j], near[i]
        pool.append(tuple(near))
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        choice = draw(st.sampled_from(["same", "equal", "cnot", "single"]))
        toffolis = [g for g in gates if g.kind is GateKind.TOFFOLI]
        if choice == "same" and toffolis:
            gates.append(draw(st.sampled_from(toffolis)))
        elif choice in ("same", "equal"):
            gates.append(C.toffoli(*draw(st.sampled_from(pool))))
        elif choice == "cnot":
            control, target = draw(st.permutations(range(n)))[:2]
            gates.append(C.cx(control, target))
        else:
            kind = draw(st.sampled_from([C.x, C.h, C.t, C.tdg]))
            gates.append(kind(draw(st.integers(0, n - 1))))
    return C.extend(C.new_circuit([2] * n), gates)


@pytest.mark.parametrize("strategy", FUNCTIONAL)
@given(circuit=repeated_toffoli_circuits())
def test_lowering_with_shared_gates_matches_the_per_toffoli_loop(strategy, circuit):
    lowered = T.lower_toffolis(circuit, strategy)
    reference = reference_lowering(circuit, strategy)
    assert (lowered.wires, lowered.gates) == (reference.wires, reference.gates)
    # the shared gate objects pass a full validation, and serialise and
    # parse as the one-object-per-position circuit does
    assert C.Circuit(lowered.wires, lowered.gates) == lowered
    text = C.to_json(lowered)
    assert text == json.dumps(C.circuit_to_dict(lowered), indent=2) == C.to_json(reference)
    assert C.from_json(text) == lowered


@pytest.mark.parametrize("strategy, size", [(LoweringStrategy.QUTRIT, 3),
                                            (LoweringStrategy.CLIFFORD_T_FUNCTIONAL, 15)])
def test_an_equal_toffoli_reuses_the_gates_of_its_first_lowering(strategy, size):
    circuit = C.extend(C.new_circuit([2] * 4),
                       [C.toffoli(0, 1, 2), C.toffoli(1, 2, 3), C.toffoli(0, 1, 2)])
    gates = T.lower_toffolis(circuit, strategy).gates
    first, other, again = gates[:size], gates[size:2 * size], gates[2 * size:]
    assert all(a is b for a, b in zip(first, again, strict=True))
    assert not any(a is b for a, b in zip(first, other))


def test_clifford_t_network_is_the_fifteen_gate_list_over_nine_objects():
    a, b, tg = 4, 0, 2
    # the network as it was written out gate by gate, one object per position
    reference = [C.h(tg), C.cx(b, tg), C.tdg(tg), C.cx(a, tg), C.t(tg), C.cx(b, tg), C.tdg(tg),
                 C.cx(a, tg), C.t(b), C.t(tg), C.h(tg), C.cx(a, b), C.t(a), C.tdg(b), C.cx(a, b)]
    network = T.decompose_toffoli_clifford_t(a, b, tg)
    assert network == reference
    assert len({id(g) for g in network}) == 9
    # equal gates are one object
    assert all((g is h) == (g == h) for g in network for h in network)


def test_clifford_t_lowering_t_count():
    lowered = T.lower_toffolis(single_toffoli_circuit(), LoweringStrategy.CLIFFORD_T_FUNCTIONAL)
    t_count, _ = C.t_metrics(lowered)
    assert t_count == 7


# --- equivalence and closure properties -------------------------------------

@pytest.mark.parametrize("strategy", FUNCTIONAL)
@pytest.mark.parametrize("seed", range(5))
def test_functional_equivalence_small_random(strategy, seed):
    rng = np.random.default_rng(seed)
    circ = random_toffoli_circuit(rng, n_wires=6, n_toffolis=3, n_extra=4)
    lowered = T.lower_toffolis(circ, strategy)
    assert np.allclose(
        S.qubit_subspace_unitary(lowered), S.circuit_unitary(circ), atol=1e-10
    )


@pytest.mark.parametrize("strategy", FUNCTIONAL)
def test_functional_equivalence_ten_wires_four_toffolis(strategy):
    rng = np.random.default_rng(2024)
    circ = random_toffoli_circuit(rng, n_wires=10, n_toffolis=4, n_extra=6)
    lowered = T.lower_toffolis(circ, strategy)
    assert np.allclose(
        S.qubit_subspace_unitary(lowered), S.circuit_unitary(circ), atol=1e-10
    )


@pytest.mark.parametrize("seed", range(5))
def test_qutrit_subspace_closure(seed):
    # all qubit-subspace inputs end with no weight on any label containing a 2
    rng = np.random.default_rng(100 + seed)
    circ = random_toffoli_circuit(rng, n_wires=5, n_toffolis=3, n_extra=3)
    lowered = T.lower_toffolis(circ, LoweringStrategy.QUTRIT)
    dims = lowered.dims
    inside = S.qubit_subspace_indices(dims)
    outside = np.setdiff1d(np.arange(int(np.prod(dims))), inside)
    for label_index in range(2 ** len(dims)):
        label = format(label_index, f"0{len(dims)}b")
        final = S.simulate(lowered, label)
        assert np.all(np.abs(final.amplitudes[outside]) <= 1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_count_law_and_depth_bound(seed):
    rng = np.random.default_rng(300 + seed)
    circ = random_toffoli_circuit(
        rng, n_wires=6, n_toffolis=int(rng.integers(0, 5)), n_extra=int(rng.integers(0, 6))
    )
    lowered = T.lower_toffolis(circ, LoweringStrategy.QUTRIT)
    n_toffoli = C.gate_count(circ, GateKind.TOFFOLI)
    assert C.gate_count(lowered) == C.gate_count(circ) + 2 * n_toffoli
    toffoli_layers = sum(
        1 for layer in C.layers(circ) if any(g.kind is GateKind.TOFFOLI for g in layer)
    )
    assert C.depth(lowered) <= C.depth(circ) + 2 * toffoli_layers


# --- cost profiles ----------------------------------------------------------

def test_qutrit_profile_exact():
    profile = T.cost_profile(LoweringStrategy.QUTRIT)
    assert profile.two_qutrit_gates == 3
    assert profile.depth_per_toffoli == 3
    assert profile.t_depth_per_toffoli == 0
    assert profile.ancilla_wires == 0
    assert profile.table_gate_count == 3


def test_selinger_profile_exact():
    profile = T.cost_profile(LoweringStrategy.SELINGER_COST)
    assert profile.one_qubit_gates == 7
    assert profile.two_qubit_gates == 16
    assert profile.depth_per_toffoli == 7
    assert profile.t_depth_per_toffoli == 1
    assert profile.ancilla_wires == 4
    assert profile.table_gate_count == 25
    assert profile.component_gate_count == 23


def test_clifford_t_profile_measured_from_network():
    profile = T.cost_profile(LoweringStrategy.CLIFFORD_T_FUNCTIONAL)
    assert profile.one_qubit_gates + profile.two_qubit_gates == 15
    assert profile.two_qutrit_gates == 0


@pytest.mark.parametrize("strategy", FUNCTIONAL)
def test_functional_profile_accounts_for_every_gate_of_the_lowering(strategy):
    lowered = T.lower_toffolis(single_toffoli_circuit(), strategy)
    profile = T.cost_profile(strategy)
    assert profile.component_gate_count == C.gate_count(lowered)
    assert profile.depth_per_toffoli == C.depth(lowered)


def test_profiles_census_and_curve_do_not_lower_per_call(monkeypatch):
    # the profiles are measured once at import, so no call re-lowers a Toffoli
    def refuse(*args, **kwargs):
        raise AssertionError("lower_toffolis called")

    monkeypatch.setattr(T, "lower_toffolis", refuse)
    assert T.cost_profile(LoweringStrategy.QUTRIT) == T.CostProfile(0, 0, 3, 3, 0, 0, 3)
    assert T.cost_profile(LoweringStrategy.SELINGER_COST) == T.CostProfile(7, 16, 0, 7, 1, 4, 25)
    assert T.cost_profile(LoweringStrategy.CLIFFORD_T_FUNCTIONAL) == T.CostProfile(9, 6, 0, 11, 5, 0)
    assert N.census_for(LoweringStrategy.QUTRIT, 30) == N.GateCensus(0, 0, 90, 90)
    assert N.census_for(LoweringStrategy.SELINGER_COST, 30) == N.GateCensus(210, 480, 0, 210)
    assert N.census_for(LoweringStrategy.CLIFFORD_T_FUNCTIONAL, 30) == N.GateCensus(270, 180, 0, 330)
    params = N.NoiseParams(p1=1e-4, p2=1e-2, T1_level1=100.0, T1_level2=30.0, tau_gate=0.0)
    qutrit = dict(N.success_curve(LoweringStrategy.QUTRIT, 30, params))
    conventional = dict(N.success_curve(LoweringStrategy.SELINGER_COST, 30, params))
    assert qutrit[30] == pytest.approx(0.99 ** 90, rel=1e-12)
    assert conventional[30] == pytest.approx(0.9999 ** 210 * 0.99 ** 480, rel=1e-12)


# --- the per-Toffoli profile on built circuits -----------------------------

def split_lowering(circuit, lowered, per_toffoli):
    """Walk a circuit and its lowering together. Returns the gates carried
    over and the blocks that replace each Toffoli; fails unless every
    non-Toffoli gate is carried over unchanged and in order."""
    carried, blocks, pos = [], [], 0
    for gate in circuit.gates:
        if gate.kind is GateKind.TOFFOLI:
            blocks.append(lowered.gates[pos:pos + per_toffoli])
            pos += per_toffoli
        else:
            assert lowered.gates[pos] == gate
            carried.append(gate)
            pos += 1
    assert pos == len(lowered.gates)
    return carried, blocks


BUILT_CIRCUITS = [("adder", n) for n in range(1, 33)] + [
    ("multiplier", shape) for shape in ((3, 2), (4, 4), (8, 8))
]


def build(kind, size):
    circuit, _ = A.build_adder(size) if kind == "adder" else A.build_multiplier(*size)
    return circuit


@pytest.mark.parametrize("kind,size", BUILT_CIRCUITS)
def test_qutrit_lowering_of_built_circuit_is_three_ternary_cnots_per_toffoli(kind, size):
    circuit = build(kind, size)
    profile = T.cost_profile(LoweringStrategy.QUTRIT)
    toffolis = C.gate_count(circuit, GateKind.TOFFOLI)
    lowered = T.lower_toffolis(circuit, LoweringStrategy.QUTRIT)
    carried, blocks = split_lowering(circuit, lowered, profile.two_qutrit_gates)
    produced = [g for block in blocks for g in block]
    assert len(produced) == profile.two_qutrit_gates * toffolis
    assert all(len(g.wires) == 2 and C.is_qutrit_gate(g, lowered.wires) for g in produced)
    # carried-over gates on a promoted wire touch a qutrit too; only they add to 3x
    qutrit_gates = sum(C.is_qutrit_gate(g, lowered.wires) for g in lowered.gates)
    carried_on_qutrits = sum(C.is_qutrit_gate(g, lowered.wires) for g in carried)
    assert qutrit_gates == profile.two_qutrit_gates * toffolis + carried_on_qutrits


@pytest.mark.parametrize("kind,size", BUILT_CIRCUITS)
def test_clifford_t_lowering_of_built_circuit_matches_profile(kind, size):
    circuit = build(kind, size)
    profile = T.cost_profile(LoweringStrategy.CLIFFORD_T_FUNCTIONAL)
    toffolis = C.gate_count(circuit, GateKind.TOFFOLI)
    lowered = T.lower_toffolis(circuit, LoweringStrategy.CLIFFORD_T_FUNCTIONAL)
    per_toffoli = profile.one_qubit_gates + profile.two_qubit_gates
    assert C.gate_count(lowered) == C.gate_count(circuit) - toffolis + per_toffoli * toffolis
    split_lowering(circuit, lowered, per_toffoli)
