"""Adder and multiplier generators against classical arithmetic oracles."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triarc import arith as A
from triarc import circuits as C
from triarc import simulator as S
from triarc import transpile as T
from triarc import verify as V
from triarc.circuits import GateKind
from triarc.transpile import LoweringStrategy


# --- adder ------------------------------------------------------------------

def test_adder_rejects_n_zero():
    with pytest.raises(ValueError):
        A.build_adder(0)


@pytest.mark.parametrize("build, sizes, name, value", [
    (A.build_adder, {"n": True}, "n", True),
    (A.build_adder, {"n": 2.0}, "n", 2.0),
    (A.build_multiplier, {"na": True, "nb": 2}, "na", True),
    (A.build_multiplier, {"na": 2, "nb": 1.5}, "nb", 1.5),
])
def test_builders_refuse_a_non_integer_size(build, sizes, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        build(**sizes)


def test_builders_accept_numpy_integer_sizes():
    assert A.build_adder(np.int64(3)) == A.build_adder(3)
    assert A.build_multiplier(np.int32(2), np.uint8(3)) == A.build_multiplier(2, 3)


def test_adder_uses_only_x_cx_toffoli():
    circuit, _ = A.build_adder(4)
    assert all(g.kind in (GateKind.X, GateKind.TOFFOLI) for g in circuit.gates)


def operand_digits(circuit, layout, a, b):
    """Basis digits preparing integers a and b on the input registers."""
    return A.register_digits(circuit, [(layout.a_wires, [a]), (layout.b_wires, [b])])[0]


def test_adder_examples_n4():
    circuit, layout = A.build_adder(4)
    # 3 + 5 = 8 with carry 0, ancilla 0: A on wires 0-3, sum on 4-7, then c0, carry
    digits = operand_digits(circuit, layout, 3, 5)
    assert S.dominant_basis_label(S.simulate(circuit, digits)) == "1100" + "0001" + "00"
    assert V.adder_failure(circuit, layout, [(3, 5), (0, 0), (15, 1)]) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adder_exhaustive(n):
    circuit, layout = A.build_adder(n)
    assert V.adder_failure(circuit, layout) is None


@pytest.mark.parametrize("n", [2, 3])
def test_adder_qutrit_lowered_exhaustive(n):
    circuit, layout = A.build_adder(n)
    lowered = T.lower_toffolis(circuit, LoweringStrategy.QUTRIT)
    assert V.adder_failure(lowered, layout) is None


def test_adder_spot_checks_n8():
    circuit, layout = A.build_adder(8)
    pairs = np.random.default_rng(5).integers(0, 256, size=(5, 2))
    assert V.adder_failure(circuit, layout, pairs) is None


# --- multiplier ---------------------------------------------------------------

def test_multiplier_rejects_bad_sizes():
    with pytest.raises(ValueError):
        A.build_multiplier(0, 2)


def test_simulate_refuses_4x4_multiplier_before_allocating(monkeypatch):
    circuit, layout = A.build_multiplier(4, 4)
    assert len(circuit.wires) == 33

    def no_allocation(*args):
        raise AssertionError("simulate allocated a state beyond MAX_STATE_DIM")

    monkeypatch.setattr(S, "_evolve", no_allocation)
    with pytest.raises(ValueError, match="MAX_STATE_DIM"):
        S.simulate(circuit, operand_digits(circuit, layout, 3, 5))


def test_multiplier_3x2_headline_case():
    circuit, layout = A.build_multiplier(3, 2)
    label = S.dominant_basis_label(S.simulate(circuit, operand_digits(circuit, layout, 5, 3)))
    assert A.register_value(label, layout.result_wires) == 15
    assert all(label[w] == "0" for w in layout.ancilla_wires)


def test_multiplier_b_zero():
    circuit, layout = A.build_multiplier(3, 2)
    assert V.multiplier_failure(circuit, layout, [(a, 0) for a in range(8)]) is None


def test_multiplier_exhaustive_3x2():
    circuit, layout = A.build_multiplier(3, 2)
    assert V.multiplier_failure(circuit, layout) is None


def test_multiplier_layout_disjoint_and_covering():
    circuit, layout = A.build_multiplier(3, 2)
    groups = [layout.a_wires, layout.b_wires, layout.ancilla_wires, layout.result_wires]
    flat = [w for group in groups for w in group]
    assert len(flat) == len(set(flat)) == len(circuit.wires)


def test_multiplier_2x2_exhaustive():
    circuit, layout = A.build_multiplier(2, 2)
    assert V.multiplier_failure(circuit, layout) is None


# --- showcase 5x3 circuit ------------------------------------------------------

def test_demo_multiplier_structure():
    circuit, layout = A.build_demo_multiplier()
    assert len(circuit.wires) == 13
    assert C.gate_count(circuit, GateKind.TOFFOLI) == 6


def test_demo_multiplier_yields_15():
    circuit, layout = A.build_demo_multiplier()
    state = S.simulate(circuit, "0" * 13)
    label = S.dominant_basis_label(state)
    assert A.register_value(label, layout.result_wires) == 15
    assert A.register_value(label, layout.a_wires) == 5
    assert A.register_value(label, layout.b_wires) == 3


def test_demo_multiplier_lowered_yields_15():
    circuit, layout = A.build_demo_multiplier()
    lowered = T.lower_toffolis(circuit, LoweringStrategy.QUTRIT)
    label = S.dominant_basis_label(S.simulate(lowered, "0" * 13))
    assert A.register_value(label, layout.result_wires) == 15


@st.composite
def layout_and_operands(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        circuit, layout = A.build_adder(n)
        na = nb = n
    else:
        na, nb = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        circuit, layout = A.build_multiplier(na, nb)
    return circuit, layout, draw(st.integers(0, 2 ** na - 1)), draw(st.integers(0, 2 ** nb - 1))


@given(layout_and_operands())
@settings(max_examples=60)
def test_register_digits_round_trip_through_register_value(case):
    circuit, layout, a, b = case
    digits = operand_digits(circuit, layout, a, b)
    assert len(digits) == len(circuit.wires)
    assert A.register_value(digits, layout.a_wires) == a
    assert A.register_value(digits, layout.b_wires) == b


@pytest.mark.parametrize("a", [8, -1, True, 1.9], ids=["too-large", "negative", "bool", "float"])
def test_register_digits_refuses_an_operand_its_register_cannot_hold(a):
    circuit, layout = A.build_adder(3)
    with pytest.raises(ValueError, match="operand"):
        operand_digits(circuit, layout, a, 1)
    with pytest.raises(ValueError, match="operand"):
        operand_digits(circuit, layout, 1, a)


def test_register_digits_takes_numpy_integer_operands():
    circuit, layout = A.build_adder(3)
    values = np.array([0, 5, 7])
    digits = A.register_digits(circuit, [(layout.a_wires, values)])
    assert [A.register_value(row, layout.a_wires) for row in digits] == [0, 5, 7]
    with pytest.raises(ValueError, match="operand"):
        A.register_digits(circuit, [(layout.a_wires, np.array([0, 8]))])
