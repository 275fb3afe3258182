"""The basis engine against dense simulation; triarc.verify beyond dense reach."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triarc import arith as A
from triarc import circuits as C
from triarc import simulator as S
from triarc import transpile as T
from triarc import verify as V
from triarc.transpile import LoweringStrategy

from test_circuits import circuits_strategy

PERMUTATION_KINDS = {C.GateKind.X, C.GateKind.XPLUS1, C.GateKind.XMINUS1, C.GateKind.TOFFOLI}


def qutrit(circuit):
    return T.lower_toffolis(circuit, LoweringStrategy.QUTRIT)


def dense_label(circuit, digits):
    return S.dominant_basis_label(S.simulate(circuit, "".join(map(str, digits))))


def basis_label(circuit, digits):
    return "".join(map(str, S.run_basis(circuit, np.array([digits]))[0]))


@st.composite
def permutation_case(draw):
    circ = draw(circuits_strategy(max_wires=4, max_gates=16))
    circ = C.Circuit(circ.wires, tuple(g for g in circ.gates if g.kind in PERMUTATION_KINDS))
    digits = [draw(st.integers(0, d - 1)) for d in circ.dims]
    return circ, digits


@given(permutation_case())
@settings(max_examples=60)
def test_run_basis_matches_dense_simulation(case):
    circ, digits = case
    assert basis_label(circ, digits) == dense_label(circ, digits)


@pytest.mark.parametrize("digit", [0, 1, 2])
def test_x_on_qutrit_leaves_2_alone(digit):
    circ = C.extend(C.new_circuit([2, 3]), [C.x(1), C.cx(0, 1)])
    assert basis_label(circ, [1, digit]) == dense_label(circ, [1, digit]) == f"1{digit}"


def test_qutrit_adder_3bit_all_inputs_match_dense():
    circuit, layout = A.build_adder(3)
    lowered = qutrit(circuit)
    pairs = [(a, b) for a in range(8) for b in range(8)]
    digits = A.register_digits(lowered, [(layout.a_wires, [a for a, _ in pairs]),
                                         (layout.b_wires, [b for _, b in pairs])])
    out = S.run_basis(lowered, digits)
    for row_in, row in zip(digits, out):
        assert "".join(map(str, row)) == S.dominant_basis_label(S.simulate(lowered, row_in))


@pytest.mark.parametrize("gate", [C.h(0), C.t(0), C.s(0), C.z(0)])
def test_run_basis_rejects_non_permutations(gate):
    circ = C.extend(C.new_circuit([2, 2]), [C.x(1), gate])
    with pytest.raises(ValueError, match=f"gate 1 \\({gate.kind.value}\\)"):
        S.run_basis(circ, np.zeros((1, 2), dtype=int))


@pytest.mark.parametrize("digits", [np.zeros(2, dtype=int), np.zeros((1, 3), dtype=int),
                                    np.array([[2, 0]]), np.array([[0, 3]]), np.array([[-1, 0]]),
                                    np.zeros((1, 2))])
def test_run_basis_rejects_bad_input(digits):
    with pytest.raises(ValueError):
        S.run_basis(C.new_circuit([2, 3]), digits)


def test_run_basis_leaves_input_alone():
    digits = np.array([[1, 0], [0, 2]])
    out = S.run_basis(C.extend(C.new_circuit([2, 3]), [C.x(0), C.xplus1(1)]), digits)
    assert out.dtype == np.int8 and out.tolist() == [[0, 1], [1, 0]]
    assert digits.tolist() == [[1, 0], [0, 2]]


def test_multiplier_failure_reports_a_changed_b_register():
    circuit, layout = A.build_multiplier(2, 2)
    broken = C.append(circuit, C.x(layout.b_wires[0]))
    assert V.multiplier_failure(broken, layout) == (0, 0, 0, "0010" + "0" * 9)


def test_adder_failure_reports_first_lost_carry():
    circuit, layout = A.build_adder(2)
    assert circuit.gates[6] == C.cx(layout.a_wires[-1], layout.carry_wire)
    broken = C.Circuit(circuit.wires, circuit.gates[:6] + circuit.gates[7:])
    assert V.adder_failure(broken, layout) == (1, 3, 4, "10" + "00" + "00")


@pytest.mark.parametrize("lower", [lambda c: c, qutrit], ids=["plain", "qutrit"])
def test_exhaustive_beyond_dense_reach(lower):
    mult, mult_layout = A.build_multiplier(4, 4)
    assert V.multiplier_failure(lower(mult), mult_layout) is None
    adder, adder_layout = A.build_adder(6)
    assert V.adder_failure(lower(adder), adder_layout) is None


def test_sampled_qutrit_arithmetic_up_to_97_wires():
    rng = np.random.default_rng(2022)
    for n in (16, 32):
        circuit, layout = A.build_adder(n)
        assert V.adder_failure(qutrit(circuit), layout, rng.integers(0, 2 ** n, (200, 2))) is None
    circuit, layout = A.build_multiplier(8, 8)
    assert len(circuit.wires) == 97
    assert V.multiplier_failure(qutrit(circuit), layout, rng.integers(0, 256, (200, 2))) is None


@pytest.mark.parametrize("build, check, pairs", [
    (lambda: A.build_adder(3), lambda c, l, p: V.adder_failure(c, l, p), [(8, 1)]),
    (lambda: A.build_adder(3), lambda c, l, p: V.adder_failure(c, l, p), [(-1, 1)]),
    (lambda: A.build_adder(3), lambda c, l, p: V.adder_failure(c, l, p), [(1.9, 1)]),
    (lambda: A.build_adder(3), lambda c, l, p: V.adder_failure(c, l, p), [(True, 1)]),
    (lambda: A.build_multiplier(2, 2), lambda c, l, p: V.multiplier_failure(c, l, p),
     [(4, 3)]),
], ids=["a-too-large", "a-negative", "a-float", "a-bool", "multiplier-a-too-large"])
def test_checker_refuses_an_operand_its_register_cannot_hold(build, check, pairs):
    circuit, layout = build()
    with pytest.raises(ValueError, match="operand"):
        check(circuit, layout, pairs)


@pytest.mark.parametrize("build, check", [
    (lambda: A.build_adder(3), V.adder_failure),
    (lambda: A.build_multiplier(2, 2), V.multiplier_failure),
], ids=["adder", "multiplier"])
@pytest.mark.parametrize("pairs", [
    lambda: [], lambda: iter([]), lambda: np.zeros((0, 2), dtype=int),
], ids=["list", "iterator", "array"])
def test_checker_refuses_an_empty_pair_list(build, check, pairs):
    circuit, layout = build()
    with pytest.raises(ValueError, match="no operand pairs to check"):
        check(circuit, layout, pairs())


def test_checker_widths_come_from_the_layout(monkeypatch):
    """4^3 adder pairs and 2^(3+2) multiplier pairs, with no width passed."""
    checked = []
    monkeypatch.setattr(V, "_failure", lambda c, layout, pairs, *rest: checked.append(len(pairs)))
    V.adder_failure(*A.build_adder(3))
    V.multiplier_failure(*A.build_multiplier(3, 2))
    assert checked == [64, 32]


def test_exhaustive_check_is_refused_before_any_pair_is_built(monkeypatch):
    def no_pairs(*args):
        raise AssertionError("operand pairs built before the size check")

    monkeypatch.setattr(V, "product", no_pairs)
    for n in (11, 40):
        circuit, layout = A.build_adder(n)
        with pytest.raises(ValueError, match="MAX_STATE_DIM"):
            V.adder_failure(circuit, layout)


def test_the_checker_size_bound_follows_max_state_dim(monkeypatch):
    circuit, layout = A.build_adder(2)  # 16 pairs on 6 wires: 96 digits
    monkeypatch.setattr(S, "MAX_STATE_DIM", 96)
    assert V.adder_failure(circuit, layout) is None
    monkeypatch.setattr(S, "MAX_STATE_DIM", 95)
    for pairs in (None, [(1, 2)] * 16):
        with pytest.raises(ValueError, match="MAX_STATE_DIM = 95"):
            V.adder_failure(circuit, layout, pairs)
    assert V.adder_failure(circuit, layout, [(1, 2)] * 15) is None
