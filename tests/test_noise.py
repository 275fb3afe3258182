"""Error channels and the analytic success-probability model."""
import math
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triarc import arith as A
from triarc import circuits as C
from triarc import noise as N
from triarc import simulator as S
from triarc.circuits import GateKind
from triarc.noise import GateCensus, NoiseParams
from triarc.transpile import REFERENCE_TOFFOLI, CostProfile, LoweringStrategy, lower_toffolis

from test_circuits import circuits_strategy

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


def einsum_superoperator(operators):
    """The superoperator build ``_kron_sum`` replaced, as a flat array."""
    ops = np.asarray(operators, dtype=complex)
    return np.einsum("mik,mjl->ijkl", ops, ops.conj()).reshape(-1)


def fidelity_grid_channels():
    """Every depolarizing (dims, p) the fidelity golden grid builds, in call order."""
    keys = []
    with pytest.MonkeyPatch.context() as mp:
        build = N.depolarizing_channel
        mp.setattr(N, "depolarizing_channel", lambda dims, p: keys.append((tuple(dims), p)) or build(dims, p))
        fidelity_grid_lines()
    return list(dict.fromkeys(keys))


def test_superoperator_equals_einsum_on_the_fidelity_grid_and_damping_channels():
    keys = fidelity_grid_channels()
    # p1 on the Clifford+T single-qubit gates; p2 > 0 on the two-wire gates of each strategy
    assert {dims for dims, _ in keys} == {(2,), (2, 2), (3, 3)} and len(keys) == 1 + 2 * 12
    channels = [N._depolarizing_channel.__wrapped__(dims, p) for dims, p in keys]
    channels += [N.amplitude_damping_qubit(lam) for lam in (0.0, 0.3, 1.0, 1 - math.exp(-0.01 / 100))]
    channels += [N.amplitude_damping_qutrit(l1, l2) for l1, l2 in ((0.0, 0.0), (0.2, 0.7), (1.0, 1.0))]
    for channel in channels:
        assert channel.superoperator.reshape(-1).tobytes() == einsum_superoperator(channel.operators).tobytes()


@given(st.sampled_from([1, 2, 3, 4, 6, 9]), st.integers(1, 40), st.floats(0.0, 1.0),
       st.sampled_from([None, 1, 50, 700]), st.integers(0, 2 ** 31))
@settings(max_examples=150, deadline=None)
def test_kron_sum_equals_einsum_on_random_sparse_complex_sets(size, count, density, chunk, seed):
    """Kraus sets of any sparsity, with +0 and -0 words among the zeros, summed
    in one chunk or in chunks of ``chunk`` pairs, hold einsum's bytes."""
    rng = np.random.default_rng(seed)
    shape = (count, size, size)
    ops = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < density)
    words = ops.view(float)
    words[words == 0] = rng.choice([0.0, -0.0], size=int((words == 0).sum()))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(N, "_KRON_PAIRS_PER_CHUNK", chunk)
        assert N._kron_sum(ops).tobytes() == einsum_superoperator(ops).tobytes()


@pytest.mark.parametrize(
    "operators, dims",
    [
        ((np.eye(8, dtype=complex),), (2, 2, 2)),
        ((np.eye(4, dtype=complex),), (4,)),
        ((np.eye(3, dtype=complex),), (2,)),
        ((np.eye(2, dtype=complex), np.eye(3, dtype=complex)), (2,)),
        ((np.ones(4, dtype=complex),), (2, 2)),
        ((), (2,)),
        ((np.eye(2, dtype=complex),), (2.0,)),
        ((np.eye(3, dtype=complex),), (np.float64(3.0),)),
        ((np.eye(6, dtype=complex),), (2, 3.0)),
    ],
)
def test_kraus_channel_refuses_bad_wires_and_shapes_before_building(monkeypatch, operators, dims):
    def no_einsum(*args, **kwargs):
        raise AssertionError("KrausChannel reached np.einsum before refusing")

    monkeypatch.setattr(np, "einsum", no_einsum)
    monkeypatch.setattr(N, "_kron_sum", no_einsum)
    with pytest.raises(ValueError):
        N.KrausChannel(operators, dims)


def test_generalized_paulis_refused_above_state_limit_before_building(monkeypatch):
    monkeypatch.setattr(S, "MAX_STATE_DIM", 16)
    assert len(N.generalized_paulis(2)) == 4  # 4 matrices of 4 entries

    def no_shift(*args, **kwargs):
        raise AssertionError("generalized_paulis built matrices beyond MAX_STATE_DIM")

    monkeypatch.setattr(np, "roll", no_shift)
    with pytest.raises(ValueError, match="generalized Pauli entries 81 exceeds MAX_STATE_DIM = 16"):
        N.generalized_paulis(3)


def test_kraus_channels_compare_and_hash_by_identity():
    shared = N.amplitude_damping_qubit(0.3)
    fresh = N._amplitude_damping.__wrapped__((0.3,))
    assert shared == shared and shared != fresh
    assert shared in [shared] and shared not in [fresh]
    assert hash(shared) == hash(shared) and len({shared, fresh}) == 2


@pytest.mark.parametrize("dim, accepted", [
    (2, True), (3, True), (np.int64(2), True), (np.uint8(3), True),
    (0, False), (4, False), (True, False), (2.0, False), (np.float64(3.0), False), ("2", False), (None, False),
])
def test_circuit_and_channel_wires_take_one_dimension_rule(dim, accepted):
    assert C._is_dim(dim) is accepted
    for check, message in ((C._check_dim, "wire dimension must be the integer 2 or 3"),
                           (lambda d: N._check_channel_dims((d,)), "1 or 2 wires")):
        if accepted:
            check(dim)
        else:
            with pytest.raises(ValueError, match=message):
                check(dim)


def test_depolarizing_refuses_three_wires():
    with pytest.raises(ValueError, match="1 or 2 wires"):
        N.depolarizing_channel([2, 2, 2], 0.0)


def test_channels_take_numpy_integer_wire_dimensions():
    channel = N.KrausChannel((np.eye(6, dtype=complex),), (np.int64(2), np.int8(3)))
    assert channel.superoperator.shape == (36, 36)
    assert N.depolarizing_channel([np.int32(3)], 0.1).dims == (3,)


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
        (lambda: N.depolarizing_channel([2.0], 1e-3), "1 or 2 wires"),
        (lambda: N.depolarizing_channel([3, np.float64(3.0)], 1e-3), "1 or 2 wires"),
        (lambda: N.depolarizing_channel([True], 1e-3), "1 or 2 wires"),
        (lambda: N.depolarizing_channel([2, 2, 2], 1e-3), "1 or 2 wires"),
        (lambda: N.depolarizing_channel([3, 3], 0.02), "exceeds 1"),
        (lambda: N.depolarizing_channel([2], math.nan), "p must be finite"),
        (lambda: N.depolarizing_channel([3, 3], math.inf), "p must be finite"),
        (lambda: N.depolarizing_channel([2, 3], -math.inf), "p must be finite"),
        (lambda: N.amplitude_damping_qubit(1.5), "damping"),
        (lambda: N.amplitude_damping_qutrit(0.1, -0.1), "damping"),
    ],
)
def test_invalid_channel_arguments_raise_on_every_call(build, match):
    for _ in range(3):
        with pytest.raises(ValueError, match=match):
            build()


@pytest.mark.parametrize(
    "public, args, builder, key",
    [
        (N.depolarizing_channel, (dims, p), N._depolarizing_channel, (dims, p))
        for dims in [(2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3)]
        for p in (0.0, 1e-4, 3e-3)
    ]
    + [(N.amplitude_damping_qubit, (lam,), N._amplitude_damping, ((lam,),)) for lam in (0.0, 0.3, 1.0)]
    + [(N.amplitude_damping_qutrit, (0.2, 0.7), N._amplitude_damping, ((0.2, 0.7),))],
)
def test_cached_channels_equal_uncached_builder(public, args, builder, key):
    cached, fresh = public(*args), builder.__wrapped__(*key)
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


@pytest.mark.parametrize("value", [True, False, "0.01", None, 1j])
@pytest.mark.parametrize("build, name", [
    (lambda v: N.depolarizing_channel([2], v), "p"),
    (lambda v: N.depolarizing_channel([3, 2], v), "p"),
    (lambda v: N.amplitude_damping_qubit(v), "lambda1"),
    (lambda v: N.amplitude_damping_qutrit(v, 0.0), "lambda1"),
    (lambda v: N.amplitude_damping_qutrit(0.0, v), "lambda2"),
    (lambda v: N.lambda_from_time(v, 1.0), "t"),
    (lambda v: N.lambda_from_time(1.0, v), "T1"),
])
def test_channel_builders_refuse_an_argument_that_is_not_a_real_number(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
        build(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_lambda_from_time_refuses_a_non_finite_input(value):
    with pytest.raises(ValueError, match="t must be finite"):
        N.lambda_from_time(value, 100.0)
    with pytest.raises(ValueError, match="T1 must be finite"):
        N.lambda_from_time(1.0, value)


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


def test_p_success_of_float32_params_is_the_python_float_result():
    """A float32 field was kept as given, so p_success ran in float32."""
    values = {"p1": 0.25, "p2": 0.125, "T1_level1": 100.0, "T1_level2": 32.0, "tau_gate": 0.5}
    narrow = NoiseParams(**{name: np.float32(v) for name, v in values.items()})
    assert all(type(v) is float for v in vars(narrow).values())
    for strategy in (LoweringStrategy.QUTRIT, LoweringStrategy.SELINGER_COST):
        census = N.census_for(strategy, 3)
        result = N.p_success(census, narrow)
        assert type(result) is float
        assert result.hex() == N.p_success(census, NoiseParams(**values)).hex()


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


def test_zero_toffolis_succeed_and_an_empty_curve_is_refused():
    assert N.p_success(N.census_for(LoweringStrategy.QUTRIT, 0), REFERENCE_PARAMS) == 1.0
    with pytest.raises(ValueError, match="at least one entry"):
        N.success_curve(LoweringStrategy.QUTRIT, 0, REFERENCE_PARAMS)


COST_PROFILE_COUNTS = ("one_qubit_gates", "two_qubit_gates", "two_qutrit_gates", "depth_per_toffoli",
                       "t_depth_per_toffoli", "ancilla_wires", "table_gate_count")


@pytest.mark.parametrize("count", [2.5, 2.0, True, "3"])
@pytest.mark.parametrize("call, name", [
    (lambda count: N.census_for(LoweringStrategy.QUTRIT, count), "toffoli_count"),
    (lambda count: N.success_curve(LoweringStrategy.QUTRIT, count, REFERENCE_PARAMS),
     "max_toffoli"),
] + [(lambda count, field=field: GateCensus(**{field: count}), field)
     for field in ("one_qubit_gates", "two_qubit_gates", "two_qutrit_gates", "depth")]
  + [(lambda count, field=field: CostProfile(**{**dict.fromkeys(COST_PROFILE_COUNTS, 0), field: count}),
      field) for field in COST_PROFILE_COUNTS])
def test_counts_refuse_a_non_integer(call, name, count):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(count)


def test_cost_profile_takes_no_quoted_count_but_refuses_a_missing_component_count():
    assert CostProfile(9, 6, 0, 11, 5, 0).table_gate_count is None
    with pytest.raises(ValueError, match="^one_qubit_gates must be an integer, got None$"):
        CostProfile(None, 6, 0, 11, 5, 0)


def test_success_curve_refuses_more_points_than_the_state_limit(monkeypatch):
    monkeypatch.setattr(S, "MAX_STATE_DIM", 16)
    assert len(N.success_curve(LoweringStrategy.QUTRIT, 16, REFERENCE_PARAMS)) == 16

    def no_point(*args):
        raise AssertionError("success_curve computed a point beyond MAX_STATE_DIM")

    monkeypatch.setattr(N, "census_for", no_point)
    with pytest.raises(ValueError, match="^success-curve points 17 exceeds MAX_STATE_DIM = 16$"):
        N.success_curve(LoweringStrategy.QUTRIT, 17, REFERENCE_PARAMS)


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


# --- the noisy run ------------------------------------------------------------------

def evolve_density_loop(circuit, label, params):
    """The reference for ``run_noisy``: its noise model as a loop of
    ``evolve_density``, which checks every intermediate state."""
    dims = circuit.dims
    rho = S.basis_density(dims, label)
    l1 = N.lambda_from_time(params.tau_gate, params.T1_level1)
    l2 = N.lambda_from_time(params.tau_gate, params.T1_level2)
    for layer in C.layers(circuit):
        for gate in layer:
            rho = S.evolve_density(rho, gate)
            p = params.p1 if len(gate.wires) == 1 else params.p2
            if p > 0:
                channel = N.depolarizing_channel([dims[w] for w in gate.wires], p)
                rho = S.evolve_density(rho, channel, wires=gate.wires)
        if params.tau_gate > 0:
            for wire, d in enumerate(dims):
                damping = N.amplitude_damping_qutrit(l1, l2) if d == 3 else N.amplitude_damping_qubit(l1)
                rho = S.evolve_density(rho, damping, wires=(wire,))
    return rho


def assert_runs_bit_identical(circuit, label, params):
    rho = N.run_noisy(circuit, label, params)
    expected = evolve_density_loop(circuit, label, params)
    assert rho.dims == expected.dims
    assert rho.entries.tobytes() == expected.entries.tobytes()


@pytest.mark.parametrize("strategy", [LoweringStrategy.QUTRIT, LoweringStrategy.CLIFFORD_T_FUNCTIONAL])
def test_run_noisy_is_bit_identical_to_evolve_density_loop_on_the_golden_grid(strategy):
    lowered = lower_toffolis(REFERENCE_TOFFOLI, strategy)
    if strategy is LoweringStrategy.QUTRIT:
        lowered = C.Circuit((3,) * 3, lowered.gates)
    for tau in (0.0, 0.01):
        for p2 in [i / 1000 for i in range(13)]:
            assert_runs_bit_identical(lowered, "110", NoiseParams(p1=1e-4, p2=p2, tau_gate=tau))


@pytest.mark.parametrize("strategy", [LoweringStrategy.QUTRIT, LoweringStrategy.CLIFFORD_T_FUNCTIONAL])
def test_run_noisy_is_bit_identical_to_evolve_density_loop_on_the_two_bit_adder(strategy):
    adder, layout = A.build_adder(2)
    lowered = lower_toffolis(adder, strategy)
    pairs = list(product(range(4), repeat=2))
    digits = A.register_digits(adder, [(layout.a_wires, [a for a, _ in pairs]),
                                       (layout.b_wires, [b for _, b in pairs])])
    params = NoiseParams(p1=1e-4, p2=1e-4, tau_gate=0.01)
    for label in S.digit_labels(digits):
        assert_runs_bit_identical(lowered, label, params)


@st.composite
def noisy_run_inputs(draw):
    """A circuit of at most 4 wires with one- and two-wire gates only, a basis
    label for it and noise parameters, each p either 0 or drawn."""
    circuit = draw(circuits_strategy(max_wires=4, max_gates=8))
    circuit = C.Circuit(circuit.wires, tuple(g for g in circuit.gates if len(g.wires) <= 2))
    label = "".join(str(draw(st.integers(0, d - 1))) for d in circuit.dims)
    p = st.one_of(st.just(0.0), st.floats(0.0, 0.012))
    params = NoiseParams(p1=draw(p), p2=draw(p), T1_level1=draw(st.floats(1.0, 100.0)),
                         T1_level2=draw(st.floats(1.0, 100.0)),
                         tau_gate=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))))
    return circuit, label, params


@given(noisy_run_inputs())
@settings(max_examples=60, deadline=None)
def test_run_noisy_is_bit_identical_to_evolve_density_loop_on_random_circuits(run):
    assert_runs_bit_identical(*run)


def test_run_noisy_refuses_a_three_wire_gate_by_index_before_any_step(monkeypatch):
    circuit = C.extend(C.new_circuit((2, 2, 2)), [C.x(0), C.cx(0, 1), C.toffoli(0, 1, 2), C.x(2)])

    def no_step(*args):
        raise AssertionError("run_noisy started before refusing")

    monkeypatch.setattr(N, "basis_density", no_step)
    monkeypatch.setattr(N, "_density_step", no_step)
    with pytest.raises(ValueError, match="^gate 2 acts on 3 wires; lower it first$"):
        N.run_noisy(circuit, "000", REFERENCE_PARAMS)


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


@pytest.mark.parametrize("value", [True, False, "0.1", None])
@pytest.mark.parametrize("field", ["p1", "p2", "T1_level1", "T1_level2", "tau_gate"])
def test_noise_params_refuse_a_field_that_is_not_a_real_number(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
        NoiseParams(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["p1", "p2", "T1_level1", "T1_level2", "tau_gate"])
def test_noise_params_refuse_a_non_finite_value(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        NoiseParams(**{field: value})
