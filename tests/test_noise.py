"""Error channels and the analytic success-probability model."""
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triarc import arith as A
from triarc import circuits as C
from triarc import noise as N
from triarc.circuits import GateKind
from triarc.noise import GateCensus, NoiseParams
from triarc.transpile import LoweringStrategy, lower_toffolis

REFERENCE_PARAMS = NoiseParams(p1=1e-4, p2=1e-2, T1_level1=100.0, T1_level2=30.0, tau_gate=0.0)
DATA = Path(__file__).parent / "data"


def channel_completeness_defect(channel):
    size = int(np.prod(channel.dims))
    total = sum(k.conj().T @ k for k in channel.operators)
    return float(np.max(np.abs(total - np.eye(size))))


# --- depolarizing channels ---------------------------------------------------

def test_one_qubit_identity_weight():
    p = 0.01
    channel = N.depolarizing_channel([2], p)
    assert len(channel.operators) == 4
    assert channel.operators[0][0, 0] ** 2 == pytest.approx(1 - 3 * p, abs=1e-15)


def test_two_qubit_identity_weight():
    p = 0.001
    channel = N.depolarizing_channel([2, 2], p)
    assert len(channel.operators) == 16
    assert channel.operators[0][0, 0] ** 2 == pytest.approx(1 - 15 * p, abs=1e-15)


def test_two_qutrit_identity_weight_uses_80():
    p = 0.002
    channel = N.depolarizing_channel([3, 3], p)
    assert len(channel.operators) == 81
    assert channel.operators[0][0, 0] ** 2 == pytest.approx(1 - 80 * p, abs=1e-14)


def test_depolarizing_rejects_excess_probability():
    with pytest.raises(ValueError):
        N.depolarizing_channel([3, 3], 0.02)  # 80 * 0.02 > 1


@given(
    st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3)]),
    st.floats(0.0, 0.012),
)
@settings(max_examples=40)
def test_all_depolarizing_channels_trace_preserving(dims, p):
    channel = N.depolarizing_channel(dims, p)
    assert channel_completeness_defect(channel) < 1e-10


def product_kron_operators(wire_dims, p):
    """The depolarizing construction the stacked broadcast replaced: one
    np.kron chain per itertools.product combination of per-wire Paulis."""
    ops = []
    for combo in product(*[N.generalized_paulis(d) for d in wire_dims]):
        full = combo[0]
        for term in combo[1:]:
            full = np.kron(full, term)
        ops.append(full)
    size = math.prod(wire_dims)
    return [np.sqrt(1 - (len(ops) - 1) * p) * np.eye(size, dtype=complex)] + [
        np.sqrt(p) * op for op in ops[1:]
    ]


@pytest.mark.parametrize("p", [0, 1e-4, 3e-3])
@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_depolarizing_operators_bit_identical_to_product_kron(dims, p):
    operators = N.depolarizing_channel(dims, p).operators
    expected = product_kron_operators(dims, p)
    assert len(operators) == len(expected)
    assert all(np.array_equal(k, ref) for k, ref in zip(operators, expected))


@st.composite
def channels(draw):
    if draw(st.booleans()):
        dims = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3)]))
        return N.depolarizing_channel(dims, draw(st.floats(0.0, 0.012)))
    lam = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        return N.amplitude_damping_qubit(draw(lam))
    return N.amplitude_damping_qutrit(draw(lam), draw(lam))


@given(channels())
@settings(max_examples=40)
def test_superoperator_is_sum_of_kron_products(channel):
    expected = sum(np.kron(k, k.conj()) for k in channel.operators)
    assert channel.superoperator.shape == expected.shape
    assert np.allclose(channel.superoperator, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "operators, dims",
    [
        ((np.eye(8, dtype=complex),), (2, 2, 2)),
        ((np.eye(4, dtype=complex),), (4,)),
        ((np.eye(3, dtype=complex),), (2,)),
        ((np.eye(2, dtype=complex), np.eye(3, dtype=complex)), (2,)),
        ((np.ones(4, dtype=complex),), (2, 2)),
        ((), (2,)),
    ],
)
def test_kraus_channel_refuses_bad_wires_and_shapes_before_building(monkeypatch, operators, dims):
    def no_einsum(*args, **kwargs):
        raise AssertionError("KrausChannel reached np.einsum before refusing")

    monkeypatch.setattr(np, "einsum", no_einsum)
    with pytest.raises(ValueError):
        N.KrausChannel(operators, dims)


def test_depolarizing_refuses_three_wires():
    with pytest.raises(ValueError, match="1 or 2 wires"):
        N.depolarizing_channel([2, 2, 2], 0.0)


# --- channel cache ---------------------------------------------------------------

def test_depolarizing_cache_returns_one_channel_per_key():
    channel = N.depolarizing_channel((2, 3), 1e-3)
    assert N.depolarizing_channel([2, 3], 1e-3) is channel
    assert N.depolarizing_channel([np.int64(2), np.int64(3)], np.float64(1e-3)) is channel
    assert N.depolarizing_channel((2, 3), 2e-3) is not channel
    assert N.depolarizing_channel((3, 2), 1e-3) is not channel


def test_damping_cache_returns_one_channel_per_key():
    assert N.amplitude_damping_qubit(0.25) is N.amplitude_damping_qubit(0.25)
    assert N.amplitude_damping_qubit(0.25) is not N.amplitude_damping_qubit(0.5)
    assert N.amplitude_damping_qutrit(0.1, 0.2) is N.amplitude_damping_qutrit(0.1, 0.2)
    assert N.amplitude_damping_qutrit(0.1, 0.2) is not N.amplitude_damping_qutrit(0.2, 0.1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: N.depolarizing_channel([3, 3], 1e-3),
        lambda: N.depolarizing_channel([2], 1e-3),
        lambda: N.amplitude_damping_qubit(0.3),
        lambda: N.amplitude_damping_qutrit(0.3, 0.4),
    ],
)
def test_cached_channels_are_read_only(build):
    channel = build()
    for i in range(len(channel.operators)):
        with pytest.raises(ValueError, match="read-only"):
            channel.operators[i][0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        channel.superoperator[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        channel.superoperator *= 2
    assert build() is channel


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: N.depolarizing_channel([2], -1e-3), "non-negative"),
        (lambda: N.depolarizing_channel([4], 1e-3), "1 or 2 wires"),
        (lambda: N.depolarizing_channel([2.5], 1e-3), "1 or 2 wires"),
        (lambda: N.depolarizing_channel([2, 2, 2], 1e-3), "1 or 2 wires"),
        (lambda: N.depolarizing_channel([3, 3], 0.02), "exceeds 1"),
        (lambda: N.depolarizing_channel([2], float("nan")), "sum K"),
        (lambda: N.amplitude_damping_qubit(1.5), "damping"),
        (lambda: N.amplitude_damping_qutrit(0.1, -0.1), "damping"),
    ],
)
def test_invalid_channel_arguments_raise_on_every_call(build, match):
    for _ in range(3):
        with pytest.raises(ValueError, match=match):
            build()


@pytest.mark.parametrize(
    "public, builder, args",
    [
        (N.depolarizing_channel, N._depolarizing_channel, (dims, p))
        for dims in [(2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3)]
        for p in (0.0, 1e-4, 3e-3)
    ]
    + [(N.amplitude_damping_qubit, N._amplitude_damping_qubit, (lam,)) for lam in (0.0, 0.3, 1.0)]
    + [(N.amplitude_damping_qutrit, N._amplitude_damping_qutrit, (0.2, 0.7))],
)
def test_cached_channels_equal_uncached_builder(public, builder, args):
    cached, fresh = public(*args), builder.__wrapped__(*args)
    assert fresh is not cached and len(cached.operators) == len(fresh.operators)
    assert all(np.array_equal(k, ref) for k, ref in zip(cached.operators, fresh.operators))
    assert np.array_equal(cached.superoperator, fresh.superoperator)


# --- amplitude damping --------------------------------------------------------

def test_damping_zero_is_identity():
    channel = N.amplitude_damping_qubit(0.0)
    assert np.allclose(channel.operators[0], np.eye(2))
    assert np.allclose(channel.operators[1], 0)


def test_qubit_damping_matrices():
    lam = 0.3
    channel = N.amplitude_damping_qubit(lam)
    assert np.allclose(channel.operators[0], np.diag([1, math.sqrt(1 - lam)]))
    expected = np.zeros((2, 2))
    expected[0, 1] = math.sqrt(lam)
    assert np.allclose(channel.operators[1], expected)


def test_qutrit_damping_matrices():
    l1, l2 = 0.2, 0.5
    channel = N.amplitude_damping_qutrit(l1, l2)
    assert np.allclose(
        channel.operators[0], np.diag([1, math.sqrt(1 - l1), math.sqrt(1 - l2)])
    )
    assert channel.operators[1][0, 1] == pytest.approx(math.sqrt(l1))
    assert channel.operators[2][0, 2] == pytest.approx(math.sqrt(l2))
    assert channel_completeness_defect(channel) < 1e-12


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_damping_channels_trace_preserving(l1, l2):
    assert channel_completeness_defect(N.amplitude_damping_qubit(l1)) < 1e-12
    assert channel_completeness_defect(N.amplitude_damping_qutrit(l1, l2)) < 1e-12


def test_lambda_from_time():
    assert N.lambda_from_time(0.0, 100.0) == 0.0
    assert N.lambda_from_time(1e9, 100.0) == pytest.approx(1.0)
    assert N.lambda_from_time(100.0, 100.0) == pytest.approx(1 - math.exp(-1))


# --- p_success ------------------------------------------------------------------

def test_p_success_qutrit_30_toffolis():
    census = N.census_for(LoweringStrategy.QUTRIT, 30)
    assert census == GateCensus(0, 0, 90, 90)
    assert N.p_success(census, REFERENCE_PARAMS) == pytest.approx(0.99 ** 90)
    assert N.p_success(census, REFERENCE_PARAMS) == pytest.approx(0.4047, abs=5e-4)


def test_p_success_conventional_30_toffolis():
    census = N.census_for(LoweringStrategy.SELINGER_COST, 30)
    assert census == GateCensus(210, 480, 0, 210)
    expected = 0.9999 ** 210 * 0.99 ** 480
    assert N.p_success(census, REFERENCE_PARAMS) == pytest.approx(expected)
    assert N.p_success(census, REFERENCE_PARAMS) == pytest.approx(0.00786, abs=1e-4)


@pytest.mark.parametrize(
    "build, toffolis, qutrit_gates",
    [
        (lambda: A.build_adder(1), 2, 8),
        (lambda: A.build_adder(16), 32, 128),
        (lambda: A.build_adder(32), 64, 256),
        (lambda: A.build_multiplier(8, 8), 240, 845),
    ],
)
def test_census_for_undercounts_qutrit_gates_of_lowered_circuits(build, toffolis, qutrit_gates):
    # census_for charges 3 per Toffoli; carried-over gates on the promoted
    # control wire touch a qutrit too, which it does not count
    circuit, _ = build()
    assert C.gate_count(circuit, GateKind.TOFFOLI) == toffolis
    lowered = lower_toffolis(circuit, LoweringStrategy.QUTRIT)
    assert sum(C.is_qutrit_gate(g, lowered.wires) for g in lowered.gates) == qutrit_gates
    assert N.census_for(LoweringStrategy.QUTRIT, toffolis).two_qutrit_gates == 3 * toffolis


def test_p_success_is_one_without_noise():
    census = N.census_for(LoweringStrategy.QUTRIT, 10)
    assert N.p_success(census, NoiseParams(p1=0, p2=0, tau_gate=0)) == 1.0


def test_p_success_uses_qutrit_t1_when_qutrit_gates_present():
    params = NoiseParams(p1=0, p2=0, tau_gate=1.0)
    qutrit = N.p_success(GateCensus(0, 0, 1, depth=30), params)
    qubit = N.p_success(GateCensus(1, 0, 0, depth=30), params)
    assert qutrit == pytest.approx(math.exp(-30 / 30.0))
    assert qubit == pytest.approx(math.exp(-30 / 100.0))


@given(
    st.floats(0.0, 0.01),
    st.floats(0.0, 0.05),
    st.floats(0.0, 0.5),
    st.integers(0, 50),
)
@settings(max_examples=60)
def test_p_success_in_unit_interval_and_monotone(p1, p2, tau, count):
    params = NoiseParams(p1=p1, p2=p2, tau_gate=tau)
    census = N.census_for(LoweringStrategy.SELINGER_COST, count)
    value = N.p_success(census, params)
    assert 0.0 <= value <= 1.0
    bumped = NoiseParams(p1=p1, p2=min(1.0, p2 + 0.01), tau_gate=tau)
    if count > 0:
        assert N.p_success(census, bumped) < value


def test_p_success_strictly_decreasing_in_each_knob():
    census = GateCensus(5, 7, 3, depth=11)
    base = N.p_success(census, NoiseParams(p1=1e-3, p2=1e-2, tau_gate=0.5))
    assert N.p_success(census, NoiseParams(p1=2e-3, p2=1e-2, tau_gate=0.5)) < base
    assert N.p_success(census, NoiseParams(p1=1e-3, p2=2e-2, tau_gate=0.5)) < base
    assert N.p_success(census, NoiseParams(p1=1e-3, p2=1e-2, tau_gate=1.0)) < base


# --- success curve ---------------------------------------------------------------

def test_success_curve_endpoints():
    qutrit = dict(N.success_curve(LoweringStrategy.QUTRIT, 30, REFERENCE_PARAMS))
    conventional = dict(N.success_curve(LoweringStrategy.SELINGER_COST, 30, REFERENCE_PARAMS))
    assert qutrit[30] == pytest.approx(0.4047, abs=5e-4)
    assert conventional[30] == pytest.approx(0.00786, abs=1e-4)


def test_success_curve_count_zero_is_one():
    series = N.success_curve(LoweringStrategy.QUTRIT, [0], REFERENCE_PARAMS)
    assert series == [(0, 1.0)]


def test_qutrit_curve_dominates_pointwise():
    qutrit = N.success_curve(LoweringStrategy.QUTRIT, 50, REFERENCE_PARAMS)
    conventional = N.success_curve(LoweringStrategy.SELINGER_COST, 50, REFERENCE_PARAMS)
    for (_, pq), (_, pc) in zip(qutrit, conventional):
        assert pq > pc


# --- noisy lowered-Toffoli fidelity ------------------------------------------------

def test_fidelity_is_one_without_noise():
    params = NoiseParams(p1=0, p2=0, tau_gate=0)
    for strategy in (LoweringStrategy.QUTRIT, LoweringStrategy.CLIFFORD_T_FUNCTIONAL):
        assert N.noisy_toffoli_fidelity(strategy, params) == pytest.approx(1.0)


def test_fidelity_qutrit_lower_bound():
    p2 = 1e-2
    fidelity = N.noisy_toffoli_fidelity(LoweringStrategy.QUTRIT, NoiseParams(p1=0, p2=p2))
    assert fidelity >= (1 - 80 * p2) ** 3


def test_fidelity_monotone_in_p2():
    values = [
        N.noisy_toffoli_fidelity(LoweringStrategy.QUTRIT, NoiseParams(p1=0, p2=p2))
        for p2 in (0.0, 0.005, 0.01)
    ]
    assert values[0] > values[1] > values[2]


def test_fidelity_rejects_accounting_strategy():
    with pytest.raises(ValueError):
        N.noisy_toffoli_fidelity(LoweringStrategy.SELINGER_COST, REFERENCE_PARAMS)


def test_fidelity_with_damping_lower_than_without():
    no_idle = N.noisy_toffoli_fidelity(LoweringStrategy.QUTRIT, NoiseParams(p1=0, p2=0.001))
    with_idle = N.noisy_toffoli_fidelity(
        LoweringStrategy.QUTRIT, NoiseParams(p1=0, p2=0.001, tau_gate=1.0)
    )
    assert with_idle < no_idle


def fidelity_grid_lines():
    """One CSV row per (strategy, tau_gate, p2) point, p1 = 1e-4, with the
    fidelity written as its repr so any change in the last bit shows."""
    lines = ["strategy,tau_gate,p2,fidelity"]
    for strategy in (LoweringStrategy.QUTRIT, LoweringStrategy.CLIFFORD_T_FUNCTIONAL):
        for tau in (0.0, 0.01):
            for p2 in [i / 1000 for i in range(13)]:
                params = NoiseParams(p1=1e-4, p2=p2, tau_gate=tau)
                fidelity = N.noisy_toffoli_fidelity(strategy, params)
                lines.append(f"{strategy.value},{tau!r},{p2!r},{fidelity!r}")
    return "\n".join(lines) + "\n"


def test_fidelity_grid_byte_identical_to_golden_file():
    golden = DATA / "noisy_toffoli_fidelity.txt"
    assert fidelity_grid_lines().encode() == golden.read_bytes()


# --- quoted reference figures -------------------------------------------------------

def test_quoted_error_comparison():
    quoted = N.quoted_error_comparison()
    assert quoted["toffoli_count"] == 30
    assert quoted["qutrit_error_percent"] == 60.0
    assert quoted["conventional_error_percent"] == 99.95
    assert "unreconciled" in quoted["footnote"]


def test_quoted_no_error_weights():
    p2 = 0.01
    quoted = N.quoted_no_error_weights(p2)
    assert quoted["two_qubit"] == pytest.approx(1 - 15 * p2)
    assert quoted["two_qutrit_constructed"] == pytest.approx(1 - 80 * p2)
    assert quoted["two_qutrit_quoted"] == pytest.approx(1 - 81 * p2)
    constructed = N.depolarizing_channel([3, 3], p2).operators[0][0, 0] ** 2
    assert constructed == pytest.approx(quoted["two_qutrit_constructed"])


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(p1=-0.1)
    with pytest.raises(ValueError):
        NoiseParams(T1_level2=0.0)
    with pytest.raises(ValueError):
        NoiseParams(tau_gate=-1.0)
