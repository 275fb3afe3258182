"""Resource formulas against frozen values and an independent re-coding.

The ``alt_*`` functions re-state every printed expression with different
algebraic grouping and library calls; the module must agree to 1e-9
relative on randomized argument tuples.
"""
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from triarc import resources as R
from triarc.resources import ApproxParams, BaselineCosts
from triarc.transpile import LoweringStrategy, cost_profile


# --- independent second implementations -------------------------------------

def popcount(n):
    return sum(int(ch) for ch in format(n, "b"))


def alt_toffoli_add(n):
    return (10.0 * n - 7.0) - 3.0 * (
        popcount(n) + popcount(n - 1) + math.log2(n) + math.log2(n - 1)
    )


def alt_t_depth_add(n):
    terms = [n, n - 1, n / 3.0, (n - 1) / 3.0]
    return sum(math.floor(math.log2(v)) for v in terms) + 8


def alt_toffoli_mul(n, p):
    return 3.0 * (n * n + 2 * n * p + n - 2 * p * p + 2 * p) / 2.0


def alt_t_depth_mul(n, z):
    add = alt_t_depth_add(n)
    return math.ceil(n / z) * (add + 6) + math.ceil(math.log2(z)) * add


def alt_toffoli_sq(n):
    return (n * n + 6 * n - 8) / 2.0


def alt_t_depth_sq(n):
    return 5 * n + 3


def alt_segment_term(M, d):
    return 2 * M * d * (4 * math.ceil(math.log2(M)) - 8)


def alt_toffoli_exp(n, p, k, M, d):
    return (
        k * (1.5 * n * n + 3 * n * p + 3.5 * n + 3 * p)
        - d * (3 * p * p + 1)
        + alt_segment_term(M, d)
        + 4 * M * n
    )


def alt_toffoli_arcsq(n, p, k, M, d):
    inner = 1.5 * n * n + n * (3 * p + 3.5) - 3 * p * (p - 1) - 1
    return k * inner + n * n / 2.0 + 11 * n + alt_segment_term(M, d) + 4 * M * n - 2


def alt_comparator(n):
    return 2 * math.floor(math.log2(n - 1)) + 5


def alt_t_depth_pp(n, z, k, M):
    return k * (alt_t_depth_mul(n, z) + alt_t_depth_add(n)) + M * alt_comparator(n)


def alt_t_depth_arcsq(n, p, z, k, M):
    return alt_t_depth_sq(n) + alt_t_depth_pp(n, z, k, M) + 8 * n + 6


def alt_cnot_add(n):
    return (30.0 * n - 21.0) - 9.0 * (
        popcount(n) + popcount(n - 1) + math.log2(n) + math.log2(n - 1)
    )


def alt_cnot_mul(n, p):
    return 9.0 * (n * n + 2 * n * p + n - 2 * p * p + 2 * p) / 2.0


def alt_cnot_sq(n):
    return (3 * n * n + 18 * n - 24) / 2.0


def alt_cnot_exp(n, p, k, M, d):
    return (
        k * (4.5 * n * n + 9 * n * p + 10.5 * n + 9 * p)
        - 3 * d * (3 * p * p + 1)
        + 3 * alt_segment_term(M, d)
        + 12 * M * n
    )


def alt_cnot_arcsq(n, p, k, M, d):
    inner = 1.5 * n * n + n * (3 * p + 3.5) - 3 * p * (p - 1) - 1
    return 3 * k * inner + 1.5 * n * n + 33 * n + 3 * alt_segment_term(M, d) + 12 * M * n - 26


def ternary_cnots(op, n, p=0, k=1, M=1, d=None, z=1):
    """The ternary CNOT count that estimate_operation derives."""
    return R.estimate_operation(
        op, n, p, ApproxParams(k, M, d, z), LoweringStrategy.QUTRIT
    ).cnot_count_ternary


def assert_cnots(expected, op, *args, exact=False):
    """The derived count equals ``expected`` (to 1e-9 relative unless
    ``exact``); where ``expected`` is negative, estimate_operation refuses it."""
    if expected < 0:
        with pytest.raises(ValueError, match=f"^{op} at n=.* ternary CNOTs, below 0$"):
            ternary_cnots(op, *args)
    elif exact:
        assert ternary_cnots(op, *args) == expected, (op, args)
    else:
        assert ternary_cnots(op, *args) == pytest.approx(expected, rel=1e-9), (op, args)


def random_tuples(count, seed=20240901):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 64)
        p = rng.randint(0, n)
        k = rng.randint(1, 6)
        M = rng.randint(1, 32)
        d = rng.randint(1, 6)
        z = rng.randint(1, 8)
        yield n, p, k, M, d, z


def test_formulas_match_independent_recoding_on_100_tuples():
    for n, p, k, M, d, z in random_tuples(100):
        pairs = [
            (R.toffoli_count_add(n), alt_toffoli_add(n)),
            (R.t_depth_add(n), alt_t_depth_add(n)),
            (R.toffoli_count_mul(n, p), alt_toffoli_mul(n, p)),
            (R.t_depth_mul(n, z), alt_t_depth_mul(n, z)),
            (R.toffoli_count_sq(n), alt_toffoli_sq(n)),
            (R.t_depth_sq(n), alt_t_depth_sq(n)),
            (R.toffoli_count_exp(n, p, k, M, d), alt_toffoli_exp(n, p, k, M, d)),
            (R.toffoli_count_arcsq(n, p, k, M, d), alt_toffoli_arcsq(n, p, k, M, d)),
            (R.comparator_t_depth(n), alt_comparator(n)),
            (R.t_depth_pp(n, z, k, M), alt_t_depth_pp(n, z, k, M)),
            (R.t_depth_arcsq(n, p, z, k, M), alt_t_depth_arcsq(n, p, z, k, M)),
        ]
        for got, expected in pairs:
            assert got == pytest.approx(expected, rel=1e-9), (n, p, k, M, d, z)
        assert_cnots(alt_cnot_add(n), "add", n, p, k, M, d, z)
        assert_cnots(alt_cnot_mul(n, p), "mul", n, p, k, M, d, z)
        assert_cnots(alt_cnot_sq(n), "sqrt", n, p, k, M, d, z)
        assert_cnots(alt_cnot_exp(n, p, k, M, d), "exp", n, p, k, M, d, z)
        assert_cnots(alt_cnot_arcsq(n, p, k, M, d), "arcsine", n, p, k, M, d, z)


@pytest.mark.parametrize("strategy, count", [
    (LoweringStrategy.SELINGER_COST, "-202 Toffolis"),
    (LoweringStrategy.QUTRIT, "-606 ternary CNOTs"),
])
def test_a_negative_quoted_count_is_refused_naming_the_operation_and_inputs(strategy, count):
    with pytest.raises(ValueError) as caught:
        R.estimate_operation("exp", 15, 11, ApproxParams(k=1, M=7, d=5), strategy)
    assert str(caught.value) == (
        f"exp at n=15, p=11, k=1, M=7, d=5, z=1: the quoted formulas give {count}, below 0"
    )


def test_arcsine_qutrit_count_below_the_offset_is_refused_where_the_baseline_is_not():
    args = ("arcsine", 2, 0, ApproxParams(k=1, M=2, d=3))
    toffolis = R.estimate_operation(*args).toffoli_count
    assert 0 <= toffolis < R.ARCSQ_CNOT_OFFSET / 3
    with pytest.raises(ValueError) as caught:
        R.estimate_operation(*args, LoweringStrategy.QUTRIT)
    assert str(caught.value) == (
        "arcsine at n=2, p=0, k=1, M=2, d=3, z=1: the quoted formulas give -14 ternary CNOTs, below 0"
    )


# --- frozen spot values -------------------------------------------------------

def test_addition_spot_values():
    assert R.toffoli_count_add(8) == pytest.approx(43.577935233827187, rel=1e-12)
    assert R.t_depth_add(8) == 15
    assert R.t_depth_add(4) == 11


def test_multiplication_spot_values():
    assert R.toffoli_count_mul(4, 0) == 30.0
    assert R.t_depth_mul(4, 1) == 68
    assert R.estimate_operation("div", 4).toffoli_count == 30.0


def test_square_root_spot_values():
    assert R.toffoli_count_sq(4) == 16.0
    assert R.t_depth_sq(4) == 23
    assert R.toffoli_count_sq(2) == 4.0


def test_exponential_spot_values():
    assert R.toffoli_count_exp(4, 0, 1, 1, 1) == 37.0
    assert R.toffoli_count_exp(4, 0, 2, 1, 2) == 58.0
    # the M = 1 segment term contributes 2*M*d*(-8)
    assert 2 * 1 * 1 * (4 * math.ceil(math.log2(1)) - 8) == -16


def test_arcsine_spot_values():
    assert R.toffoli_count_arcsq(4, 0, 1, 1, 1) == 87.0
    assert R.comparator_t_depth(8) == 9
    assert R.t_depth_arcsq(4, 0, 1, 1, 1) == 147


def test_cnot_spot_values():
    assert ternary_cnots("mul", 4) == 90.0
    assert ternary_cnots("sqrt", 4) == 48.0
    assert ternary_cnots("arcsine", 4, 0, 1, 1, 1) == 241.0


def test_arcsine_three_times_discrepancy():
    # quoted -26 constant instead of 3*(-2): 241 != 3*87 = 261
    toffoli = R.toffoli_count_arcsq(4, 0, 1, 1, 1)
    cnot = ternary_cnots("arcsine", 4, 0, 1, 1, 1)
    assert cnot != 3 * toffoli
    assert 3 * toffoli - cnot == 20.0
    assert R.ARCSQ_CNOT_NOTE in R.estimate_operation(
        "arcsine", 4, strategy=LoweringStrategy.QUTRIT
    ).notes


# --- structural properties ----------------------------------------------------

@given(st.integers(2, 128), st.data())
def test_factor_of_three_law(n, data):
    p = data.draw(st.integers(0, n))
    k = data.draw(st.integers(1, 8))
    M = data.draw(st.integers(1, 64))
    d = data.draw(st.integers(1, 8))
    for op, toffolis in (
        ("add", R.toffoli_count_add(n)),
        ("sub", R.toffoli_count_add(n)),
        ("mul", R.toffoli_count_mul(n, p)),
        ("div", R.toffoli_count_mul(n, p)),
        ("sqrt", R.toffoli_count_sq(n)),
        ("exp", R.toffoli_count_exp(n, p, k, M, d)),
    ):
        assert_cnots(3 * toffolis, op, n, p, k, M, d, exact=True)


def test_arcsine_cnot_is_derived_count_minus_quoted_offset():
    per_toffoli = cost_profile(LoweringStrategy.QUTRIT).two_qutrit_gates
    assert R.ARCSQ_CNOT_OFFSET == 20
    for n, p, k, M, d, z in random_tuples(100):
        derived = per_toffoli * R.toffoli_count_arcsq(n, p, k, M, d)
        assert_cnots(derived - R.ARCSQ_CNOT_OFFSET, "arcsine", n, p, k, M, d, z, exact=True)


def test_sub_and_div_share_the_add_and_mul_counts():
    approx = ApproxParams(k=2, M=4, z=2)
    for strategy in (LoweringStrategy.QUTRIT, LoweringStrategy.SELINGER_COST):
        for op, same in (("sub", "add"), ("div", "mul")):
            assert R.estimate_operation(op, 16, 4, approx, strategy) == R.estimate_operation(
                same, 16, 4, approx, strategy)


def test_counts_monotone_in_n():
    for fn in (R.toffoli_count_add, R.toffoli_count_sq, lambda n: ternary_cnots("add", n)):
        values = [fn(n) for n in range(4, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))
    values = [R.toffoli_count_mul(n, 2) for n in range(4, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))


@given(st.integers(2, 64))
def test_t_depth_mul_z1_identity(n):
    assert R.t_depth_mul(n, 1) == n * (R.t_depth_add(n) + 6)


def test_floored_log_mode():
    n = 6  # log2(6) and log2(5) are not integers
    as_printed = R.toffoli_count_add(6)
    floored = R.toffoli_count_add(6, floor_logs=True)
    assert floored == 10 * 6 - 3 * 2 - 3 * 2 - 3 * 2 - 3 * 2 - 7
    assert floored != as_printed
    # the quoted ternary-CNOT polynomial with the same floored logs
    assert 3 * floored == 30 * 6 - 9 * 2 - 9 * 2 - 9 * 2 - 9 * 2 - 21


def test_domain_errors():
    with pytest.raises(ValueError):
        R.toffoli_count_add(1)
    with pytest.raises(ValueError):
        R.toffoli_count_mul(4, 5)
    with pytest.raises(ValueError):
        R.t_depth_mul(4, 0)
    with pytest.raises(ValueError):
        R.toffoli_count_exp(4, 0, 0, 1, 1)


@pytest.mark.parametrize("call, name", [
    (lambda: R.estimate_operation("mul", 4, 2.5), "p"),
    (lambda: R.estimate_operation("add", 4.0), "n"),
    (lambda: R.toffoli_count_sq(True), "n"),
    (lambda: R.t_depth_mul(4, 2.0), "z"),
    (lambda: ApproxParams(k=1.5), "k"),
    (lambda: ApproxParams(M=True), "M"),
    (lambda: ApproxParams(d=2.0), "d"),
    (lambda: ApproxParams(z="2"), "z"),
])
def test_count_arguments_refuse_a_non_integer(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


@pytest.mark.parametrize("op", R.OPERATIONS)
@pytest.mark.parametrize("p, message", [
    (True, "p must be an integer, got True"),
    (-5, "integer-bit count p must satisfy 0 <= p <= n"),
    (99, "integer-bit count p must satisfy 0 <= p <= n"),
])
def test_every_operation_refuses_a_p_outside_its_register(op, p, message):
    """add, sub and sqrt read no p, and accepted any before."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        R.estimate_operation(op, 4, p)
    R.estimate_operation(op, 4, 4)


def test_numpy_integer_counts_are_accepted():
    approx = ApproxParams(np.int64(2), np.int64(4), z=np.int64(2))
    for op in R.OPERATIONS:
        assert R.estimate_operation(op, np.int64(16), np.int64(4), approx) == R.estimate_operation(
            op, 16, 4, ApproxParams(2, 4, z=2))


# --- benchmark report ------------------------------------------------------------

def test_benchmark_report_qutrit_conversion():
    baseline = BaselineCosts(t_cost=12e9, t_depth=54e6, overall_depth=378e6)
    report = R.benchmark_report(baseline)
    assert report.t_count == 0.0
    assert report.t_depth == 0.0
    assert report.overall_depth == 162e6
    assert report.cnot_count_ternary == 162e6
    assert any("3/7" in note for note in report.notes)


def test_benchmark_report_zero_baseline():
    report = R.benchmark_report(BaselineCosts(0, 0, 0))
    assert report.overall_depth == 0.0


# --- estimate_operation -----------------------------------------------------------

@pytest.mark.parametrize("bad", ["qutrit", None])
def test_estimate_operation_rejects_non_member_strategy(bad):
    with pytest.raises(ValueError, match="LoweringStrategy member"):
        R.estimate_operation("add", 8, strategy=bad)


def test_estimate_sqrt_qutrit():
    report = R.estimate_operation("sqrt", 4, strategy=LoweringStrategy.QUTRIT)
    assert report.cnot_count_ternary == 48.0
    assert report.t_depth == 0.0
    assert report.t_count == 0.0
    assert any("2n+1" in note for note in report.notes)


def test_estimate_add_baseline():
    report = R.estimate_operation("add", 8)
    assert report.toffoli_count == pytest.approx(43.577935233827187)
    assert report.t_depth == 15


def test_estimate_mul_uses_z():
    report = R.estimate_operation("mul", 4, approx=ApproxParams(z=2))
    assert report.t_depth == R.t_depth_mul(4, 2)


def test_estimate_unknown_op():
    with pytest.raises(ValueError):
        R.estimate_operation("modexp", 4)


def test_benchmark_report_of_float32_costs_is_the_python_float_report():
    """A float32 field was kept as given, so the converted depth ran in float32."""
    values = {"t_cost": 0.25, "t_depth": 1.0, "overall_depth": 378.0}
    costs = BaselineCosts(**{name: np.float32(v) for name, v in values.items()})
    assert all(type(v) is float for v in vars(costs).values())
    report = R.benchmark_report(costs)
    assert type(report.overall_depth) is float
    assert report == R.benchmark_report(BaselineCosts(**values))
    assert report.overall_depth.hex() == (378.0 * 3 / 7).hex()


@pytest.mark.parametrize("value", [math.nan, math.inf, True, "1.0"])
@pytest.mark.parametrize("field", ["t_cost", "t_depth", "overall_depth"])
def test_baseline_costs_refuse_a_non_finite_value(field, value):
    costs = {"t_cost": 1.0, "t_depth": 1.0, "overall_depth": 1.0, field: value}
    reason = "be a real number" if isinstance(value, (bool, str)) else "be finite"
    with pytest.raises(ValueError, match=f"^{field} must {reason}, got "):
        BaselineCosts(**costs)
