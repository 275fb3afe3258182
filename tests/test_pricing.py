"""Pricing-context bounds, Gaussian target states, and energy estimators."""
import hashlib
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triarc import pricing as P
from triarc import simulator as S
from triarc.pricing import GaussianSpec, PricingSetup

from test_simulator import label_keyed_counts


# --- truncation bound ---------------------------------------------------------

def test_trunc_bound_spot_value():
    setup = PricingSetup(d=1, T=1, w=5.0)
    assert P.trunc_error_bound(setup) == pytest.approx(7.453306344157342e-06, abs=1e-12)


def test_trunc_bound_w_zero():
    assert P.trunc_error_bound(PricingSetup(d=3, T=4, w=0.0)) == 24.0


def test_trunc_bound_many_registers():
    setup = PricingSetup(d=3, T=20, w=5.0)
    assert P.trunc_error_bound(setup) == pytest.approx(120 * math.exp(-12.5), rel=1e-12)


def test_trunc_bound_decreasing_in_w_linear_in_dt():
    values = [P.trunc_error_bound(PricingSetup(d=1, T=1, w=w)) for w in (1, 2, 3, 4)]
    assert all(b < a for a, b in zip(values, values[1:]))
    single = P.trunc_error_bound(PricingSetup(d=1, T=1, w=3.0))
    assert P.trunc_error_bound(PricingSetup(d=2, T=5, w=3.0)) == pytest.approx(10 * single)


# --- discretization error ---------------------------------------------------------

def test_disc_error_zero_range():
    assert P.disc_error(PricingSetup(beta=1.0, B_l=2.0, B_u=2.0, n=4)) == 0.0


def test_disc_error_spot_value():
    setup = PricingSetup(d=1, T=1, n=4, beta=1.0, B_l=0.0, B_u=2.0)
    assert P.disc_error(setup) == pytest.approx(8 / 6144, rel=1e-12)


def test_disc_error_quarters_per_added_qubit():
    base = PricingSetup(d=1, T=2, n=5, beta=0.7, B_l=-1.0, B_u=3.0)
    bigger = PricingSetup(d=1, T=2, n=6, beta=0.7, B_l=-1.0, B_u=3.0)
    assert P.disc_error(base) / P.disc_error(bigger) == pytest.approx(4.0, rel=1e-12)
    much_bigger = PricingSetup(d=1, T=2, n=9, beta=0.7, B_l=-1.0, B_u=3.0)
    assert P.disc_error(base) / P.disc_error(much_bigger) == pytest.approx(4.0 ** 4, rel=1e-12)


@given(st.integers(1, 500), st.integers(1, 4), st.integers(1, 4),
       st.floats(0, 1e6), st.floats(-10, 10), st.floats(0, 20))
@settings(max_examples=300)
def test_disc_error_equals_the_division_on_normal_results(n, d, T, beta, low, width):
    setup = PricingSetup(d=d, T=T, n=n, beta=beta, B_l=low, B_u=low + width)
    try:
        divided = beta * (setup.B_u - setup.B_l) ** (d * T + 2) / (24.0 * 2 ** (2 * n))
    except OverflowError:
        return
    assume(divided == 0 or abs(divided) >= sys.float_info.min)
    assert P.disc_error(setup) == divided


def test_disc_error_and_grid_step_at_a_register_too_wide_for_a_float_power():
    assert P.disc_error(PricingSetup(n=600, beta=1.0, B_l=0.0, B_u=2.0)) == 0.0
    assert GaussianSpec(n=1100).dx == 0.0
    assert GaussianSpec(n=10).dx == 8.0 / 1024


# --- Gaussian target state ----------------------------------------------------------

def test_gaussian_state_checks_state_limit(monkeypatch):
    monkeypatch.setattr(S, "MAX_STATE_DIM", 16)
    with pytest.raises(ValueError, match="MAX_STATE_DIM"):
        P.gaussian_target_state(GaussianSpec(n=5))


def test_gaussian_state_is_normalized():
    state = P.gaussian_target_state(GaussianSpec(n=6, sigma=1.0, w=4.0))
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1) < 1e-12


def test_gaussian_state_even_symmetry():
    # grid points paired by negation carry equal amplitude when centered
    spec = GaussianSpec(n=5, x0=0.0, sigma=1.0, w=4.0)
    amps = P.gaussian_target_state(spec).amplitudes
    size = 2 ** spec.n
    for j in range(1, size):
        assert amps[j] == pytest.approx(amps[size - j], abs=1e-15)


def test_gaussian_state_variance_matches_sigma():
    spec = GaussianSpec(n=6, x0=0.0, sigma=1.0, w=4.0)
    probs = np.abs(P.gaussian_target_state(spec).amplitudes) ** 2
    grid = spec.grid()
    variance = float(np.sum(probs * grid ** 2) - np.sum(probs * grid) ** 2)
    assert abs(variance - 1.0) < 0.05


def test_gaussian_variance_error_shrinks_with_n():
    errors = []
    for n in (6, 8):
        spec = GaussianSpec(n=n, x0=0.0, sigma=1.0, w=4.0)
        probs = np.abs(P.gaussian_target_state(spec).amplitudes) ** 2
        grid = spec.grid()
        variance = float(np.sum(probs * grid ** 2) - np.sum(probs * grid) ** 2)
        errors.append(abs(variance - 1.0))
    assert errors[1] < errors[0]


def test_gaussian_state_off_center():
    spec = GaussianSpec(n=6, x0=2.5, sigma=0.5, w=4.0)
    probs = np.abs(P.gaussian_target_state(spec).amplitudes) ** 2
    mean = float(np.sum(probs * spec.grid()))
    assert mean == pytest.approx(2.5, abs=0.05)


# --- energy estimators -----------------------------------------------------------------

def test_energy_x2_zero_when_centered():
    hist = {3: 10.0}
    assert P.energy_x2(hist, m=1.0, dx=1.0, x0=3.0) == 0.0


def test_energy_x2_single_count():
    hist = {1: 1.0}
    assert P.energy_x2(hist, m=1.0, dx=1.0, x0=0.0) == 0.5


def exact_position_energy(n):
    spec = GaussianSpec(n=n, x0=0.0, sigma=1.0, w=4.0)
    probs = np.abs(P.gaussian_target_state(spec).amplitudes) ** 2
    hist = {j: float(p) for j, p in enumerate(probs)}
    # displacement j*dx - w*sigma equals the grid point, so E -> m*sigma^2/2
    return P.energy_x2(hist, m=spec.m, dx=spec.dx, x0=spec.w * spec.sigma), spec


def test_energy_x2_on_exact_gaussian_probabilities():
    energy, spec = exact_position_energy(6)
    target = spec.m * spec.sigma ** 2 / 2
    assert abs(energy - target) / target < 0.05


def test_energy_x2_converges_with_register_size():
    target = 0.25  # m*sigma^2/2 at sigma = 1
    error_6 = abs(exact_position_energy(6)[0] - target)
    error_8 = abs(exact_position_energy(8)[0] - target)
    assert error_8 < error_6


def test_energy_x2_accepts_histogram():
    hist = S.Histogram((2, 2), np.array([1, 3]), np.array([1, 3]))
    expected = (1 * 0.5 * 1.0 + 3 * 0.5 * 9.0) / 4
    assert P.energy_x2(hist, m=1.0, dx=1.0, x0=0.0) == pytest.approx(expected)


def left_to_right_energy_x2(pairs, m, dx, x0):
    """The energy_x2 reference: each ``(j, c)`` term in the order given, in
    Python floats with ``** 2``, added left to right from 0 by an explicit
    loop, over the plain ``sum()`` of the weights. Not a ``sum()`` of the
    terms: from Python 3.12 on it compensates float additions, so its bits
    depend on the Python version."""
    pairs = list(pairs)
    numerator = 0
    for j, c in pairs:
        numerator += c * (m / 2.0) * (j * dx - x0) ** 2
    return numerator / sum(c for _, c in pairs)


def label_path_energy_x2(label_counts, m, dx, x0):
    """energy_x2 as it was when histograms were keyed by label: each label
    parsed back with int(label, 2), then the reference sum in the same order."""
    weights = {int(label, 2): float(c) for label, c in label_counts.items()}
    return left_to_right_energy_x2(weights.items(), m, dx, x0)


@pytest.mark.parametrize("seed", [0, 1, 2024, 2 ** 32 - 1])
@pytest.mark.parametrize("spec", [
    # the benchmark's shape: a dyadic grid, on which every term and the sum are exact
    GaussianSpec(n=20),
    # an off-dyadic grid, on which the summation order and ** 2 each move bits
    GaussianSpec(n=20, x0=0.3, sigma=0.7, w=3.7),
], ids=["dyadic", "off_dyadic"])
def test_energy_x2_of_sampled_counts_is_bit_identical_to_the_label_path(spec, seed):
    state = P.gaussian_target_state(spec)
    hist = S.measure_all(state, 100_000, seed)
    label_counts = label_keyed_counts(state, 100_000, seed,
                                      lambda dims, values: S.digit_labels(S.index_digits(dims, values)))
    assert list(label_counts) == sorted(label_counts)
    args = spec.m, spec.dx, spec.w * spec.sigma
    assert P.energy_x2(hist, *args) == label_path_energy_x2(label_counts, *args)


@pytest.mark.parametrize("seed", [0, 1, 2024, 2 ** 32 - 1])
@pytest.mark.parametrize("spec", [
    GaussianSpec(n=20),
    GaussianSpec(n=20, x0=0.3, sigma=0.7, w=3.7),
], ids=["dyadic", "off_dyadic"])
def test_energy_x2_of_a_histogram_is_bit_identical_to_its_mapping(spec, seed):
    """The Histogram path reads the arrays unchecked; the mapping path
    checks every key and weight, and both sum in index order."""
    hist = S.measure_all(P.gaussian_target_state(spec), 100_000, seed)
    mapping = dict(zip(hist.indices.tolist(), hist.counts.tolist()))
    args = spec.m, spec.dx, spec.w * spec.sigma
    assert P.energy_x2(hist, *args) == P.energy_x2(mapping, *args)


# sha256 of gaussian_target_state(spec).amplitudes.tobytes(), and the
# float.hex() of energy_x2 over measure_all(state, 100_000, seed)
GAUSSIAN_GOLDENS = [
    (GaussianSpec(n=20), "673fc3d7bf1907a29564f25fe625ef2f733c8986890d8d6dc47d6119e9f1370b",
     {0: "0x1.fe7ab240e9eedp-3", 1: "0x1.ff5d1a0a6f828p-3"}),
    (GaussianSpec(n=20, x0=0.3, sigma=0.7, w=3.7), "1ad5c631c744f064879d4ccb31fe08a4dc417b1a64c550892f34df9f93e5d5bf",
     {0: "0x1.fd61b811ec065p-3", 1: "0x1.fe4c415ca4f0ap-3"}),
]


@pytest.mark.parametrize("spec, digest, energies", GAUSSIAN_GOLDENS, ids=["dyadic", "off_dyadic"])
def test_gaussian_state_and_sampled_energy_match_their_goldens(spec, digest, energies):
    state = P.gaussian_target_state(spec)
    assert hashlib.sha256(state.amplitudes.tobytes()).hexdigest() == digest
    args = spec.m, spec.dx, spec.w * spec.sigma
    for seed, value in energies.items():
        assert P.energy_x2(S.measure_all(state, 100_000, seed), *args).hex() == value, seed


@st.composite
def weighted_grids(draw):
    """(counts, pairs, m, dx, x0): a Histogram on 26 qubits or a mapping,
    and its (j, weight) pairs in index order, on an off-dyadic grid whose
    offset puts j*dx - x0 below zero for the low indices. Weights may be
    zero; indices reach the top of the register."""
    indices = sorted(draw(st.sets(st.one_of(st.integers(0, 64), st.integers(0, S.MAX_STATE_DIM - 1)),
                                  min_size=1, max_size=40)))
    dx = draw(st.floats(1e-9, 10.0))
    x0 = draw(st.floats(0.0, 100.0)) + 0.1
    m = draw(st.floats(-10.0, 10.0))
    if draw(st.booleans()):
        weights = draw(st.lists(st.one_of(st.just(0), st.integers(0, 2 ** 62)),
                                min_size=len(indices), max_size=len(indices)))
        assume(sum(weights) > 0)
        counts = S.Histogram((2,) * 26, np.array(indices), np.array(weights))
    else:
        weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
                                min_size=len(indices), max_size=len(indices)))
        assume(sum(weights) > 0)
        counts = dict(zip(indices, weights))
    return counts, list(zip(indices, weights)), m, dx, x0


@given(weighted_grids())
@settings(max_examples=300, deadline=None)
def test_energy_x2_is_bit_identical_to_the_left_to_right_loop(case):
    counts, pairs, m, dx, x0 = case
    assert P.energy_x2(counts, m, dx, x0).hex() == left_to_right_energy_x2(pairs, m, dx, x0).hex()


def test_energy_x2_divides_by_the_exact_total_of_large_counts():
    """The counts sum to 2^63, where an int64 sum wraps to -2^63."""
    hist = S.Histogram((2,), np.array([0, 1]), np.array([2 ** 62, 2 ** 62]))
    assert hist.counts.sum() < 0
    expected = left_to_right_energy_x2([(0, 2 ** 62), (1, 2 ** 62)], 1.0, 0.3, 0.1)
    assert P.energy_x2(hist, 1.0, 0.3, 0.1).hex() == expected.hex()
    assert expected == pytest.approx(0.0125)


def test_energy_x2_sums_to_plus_zero_when_every_term_is_minus_zero():
    assert P.energy_x2({0: 0.0, 1: 2.0}, m=-2.0, dx=3.0, x0=3.0).hex() == (0.0).hex()


@pytest.mark.parametrize("as_histogram", [False, True])
def test_energy_x2_raises_when_a_finite_square_overflows(as_histogram):
    counts = S.Histogram((2, 2), np.array([0, 1]), np.array([1, 1])) if as_histogram else {0: 1.0, 1: 1.0}
    with pytest.raises(OverflowError):
        P.energy_x2(counts, m=1.0, dx=1e200, x0=0.0)


@pytest.mark.parametrize("as_histogram", [False, True])
@pytest.mark.parametrize("weights, dx, expected", [
    # the weight times the square overflows
    ((1, 10 ** 12), 1e150, math.inf),
    # j * dx overflows, so the square is inf without an error, and a zero weight times it is NaN
    ((1, 1), 1e308, math.inf),
    ((0, 1), 1e308, math.inf),
    ((1, 0), 1e308, math.nan),
])
def test_energy_x2_returns_a_non_finite_value_without_a_warning(as_histogram, weights, dx, expected):
    indices = (0, 10)
    if as_histogram:
        counts = S.Histogram((2,) * 4, np.array(indices), np.array(weights))
    else:
        counts = dict(zip(indices, map(float, weights)))
    value = P.energy_x2(counts, m=1.0, dx=dx, x0=0.0)
    assert value == expected or math.isnan(expected) and math.isnan(value)


def test_energy_x2_reads_numpy_integer_keys_as_python_ints():
    assert P.energy_x2({np.int64(2): 1.0}, m=2.0, dx=1.5, x0=0.0) == 9.0


def test_energy_x2_rejects_empty():
    with pytest.raises(ValueError, match="histogram is empty"):
        P.energy_x2({}, m=1.0, dx=1.0, x0=0.0)
    with pytest.raises(ValueError, match="histogram is empty"):
        P.energy_x2(S.Histogram((2,), np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
                    m=1.0, dx=1.0, x0=0.0)


@pytest.mark.parametrize("hist, message", [
    ({True: 1}, "basis index must be an integer, got True"),
    ({0: 1, 1.0: 1}, "basis index must be an integer, got 1.0"),
    ({"01": 1}, "basis index must be an integer, got '01'"),
    ({None: 1}, "basis index must be an integer, got None"),
    ({0: 1, -1: 1}, r"basis index -1 outside \[0, 16\)"),
    ({16: 1}, r"basis index 16 outside \[0, 16\)"),
])
def test_energy_x2_refuses_a_key_that_is_not_a_grid_index(monkeypatch, hist, message):
    monkeypatch.setattr(S, "MAX_STATE_DIM", 16)
    with pytest.raises(ValueError, match=f"^{message}$"):
        P.energy_x2(hist, m=1.0, dx=1.0, x0=0.0)


@pytest.mark.parametrize("dims", [(3,), (2, 3), (3, 2, 2)])
def test_energy_x2_refuses_a_histogram_off_qubit_wires(dims):
    hist = S.Histogram(dims, np.array([1]), np.array([1]))
    with pytest.raises(ValueError, match=re.escape(f"got a histogram on dims {dims}")):
        P.energy_x2(hist, m=1.0, dx=1.0, x0=0.0)


@pytest.mark.parametrize("hist, bad", [
    ({0: math.nan, 1: 1.0}, 0),
    ({0: 1.0, 1: math.inf}, 1),
    ({0: 1.0, 1: -math.inf, 2: math.inf}, 1),
    ({0: -1.0, 1: 2.0}, 0),
    ({0: 1.0, 1: -0.5, 2: 1.0}, 1),
])
def test_energy_x2_refuses_non_finite_and_negative_weights(hist, bad):
    with pytest.raises(ValueError, match=f"histogram index {bad} has weight"):
        P.energy_x2(hist, m=1.0, dx=1.0, x0=0.0)


def test_energy_x2_refuses_a_total_weight_that_overflows():
    with pytest.raises(ValueError, match="total weight inf is not finite"):
        P.energy_x2({0: 1e308, 1: 1e308}, m=1.0, dx=1.0, x0=0.0)


def test_energy_x2_keeps_zero_weights():
    assert P.energy_x2({0: 0.0, 1: 2.0}, m=2.0, dx=3.0, x0=0.0) == 9.0


def test_setup_validation():
    with pytest.raises(ValueError):
        PricingSetup(d=0)
    with pytest.raises(ValueError):
        PricingSetup(B_l=1.0, B_u=0.0)
    with pytest.raises(ValueError):
        GaussianSpec(n=4, sigma=0.0)


@pytest.mark.parametrize("make, name, value", [
    (PricingSetup, "d", 1.5),
    (PricingSetup, "T", True),
    (PricingSetup, "n", True),
    (GaussianSpec, "n", True),
    (GaussianSpec, "n", 2.5),
])
def test_sizes_refuse_a_non_integer(make, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        make(**{name: value})


def test_sizes_accept_numpy_integers():
    setup = PricingSetup(d=np.int64(2), T=np.int32(3), n=np.int64(4), beta=1.0, B_u=2.0)
    assert P.disc_error(setup) == P.disc_error(PricingSetup(d=2, T=3, n=4, beta=1.0, B_u=2.0))
    state = P.gaussian_target_state(GaussianSpec(n=np.int64(3)))
    assert np.array_equal(state.amplitudes, P.gaussian_target_state(GaussianSpec(n=3)).amplitudes)


@pytest.mark.parametrize("make, field", [
    (PricingSetup, "w"), (PricingSetup, "beta"), (PricingSetup, "B_l"), (PricingSetup, "B_u"),
    (lambda **kw: GaussianSpec(n=4, **kw), "x0"),
    (lambda **kw: GaussianSpec(n=4, **kw), "sigma"),
    (lambda **kw: GaussianSpec(n=4, **kw), "w"),
])
@pytest.mark.parametrize("value", [True, False, "2", None, 1j])
def test_float_fields_refuse_a_bool_or_non_real(make, field, value):
    """A bool was read as 0 or 1 and a string raised a bare TypeError."""
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
        make(**{field: value})


def test_float_fields_accept_integers_and_numpy_reals():
    assert P.disc_error(PricingSetup(beta=np.float64(1.0), B_u=2, n=4)) == P.disc_error(
        PricingSetup(beta=1.0, B_u=2.0, n=4))
    spec = GaussianSpec(n=4, x0=np.float64(0.5), sigma=2, w=np.int64(3))
    assert spec.dx == GaussianSpec(n=4, x0=0.5, sigma=2.0, w=3.0).dx


def test_float32_fields_give_the_python_float_results():
    """A float32 field was kept as given, so the results ran in float32."""
    values = {"w": 1.0, "beta": 0.25, "B_l": -1.0, "B_u": 1.5}
    setup = PricingSetup(n=4, **{name: np.float32(v) for name, v in values.items()})
    reference = PricingSetup(n=4, **values)
    for bound in (P.trunc_error_bound, P.disc_error):
        result = bound(setup)
        assert type(result) is float
        assert result.hex() == bound(reference).hex()
    spec = GaussianSpec(n=4, x0=np.float32(0.25), sigma=np.float32(1.5), w=np.float32(3.0))
    reference = GaussianSpec(n=4, x0=0.25, sigma=1.5, w=3.0)
    for name in ("x0", "sigma", "w", "m", "dx"):
        assert type(getattr(spec, name)) is float
        assert getattr(spec, name).hex() == getattr(reference, name).hex()
    assert spec.grid().dtype == np.float64
    assert np.array_equal(spec.grid(), reference.grid())
    assert np.array_equal(P.gaussian_target_state(spec).amplitudes,
                          P.gaussian_target_state(reference).amplitudes)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["w", "beta", "B_l", "B_u"])
def test_setup_refuses_a_non_finite_value(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PricingSetup(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["x0", "sigma", "w"])
def test_gaussian_spec_refuses_a_non_finite_value(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GaussianSpec(n=3, **{field: value})
