"""Pricing-context bounds, Gaussian target states, and energy estimators."""
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
    hist = {format(3, "04b"): 10.0}
    assert P.energy_x2(hist, m=1.0, dx=1.0, x0=3.0) == 0.0


def test_energy_x2_single_count():
    hist = {format(1, "04b"): 1.0}
    assert P.energy_x2(hist, m=1.0, dx=1.0, x0=0.0) == 0.5


def exact_position_energy(n):
    spec = GaussianSpec(n=n, x0=0.0, sigma=1.0, w=4.0)
    probs = np.abs(P.gaussian_target_state(spec).amplitudes) ** 2
    hist = {format(j, f"0{spec.n}b"): float(p) for j, p in enumerate(probs)}
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
    from triarc.simulator import Histogram

    hist = Histogram({"01": 1, "11": 3}, 4)
    expected = (1 * 0.5 * 1.0 + 3 * 0.5 * 9.0) / 4
    assert P.energy_x2(hist, m=1.0, dx=1.0, x0=0.0) == pytest.approx(expected)


def test_energy_x2_rejects_empty():
    with pytest.raises(ValueError):
        P.energy_x2({}, m=1.0, dx=1.0, x0=0.0)


@pytest.mark.parametrize("hist, bad", [
    ({"1": 1, "01": 1, "10": 2}, "01"),  # '01' would overwrite '1'
    ({"0b1": 1}, "0b1"),
    ({"101": 1, " 1_0": 1}, " 1_0"),
    ({"-1": 1}, "-1"),
    ({"": 1}, ""),
    ({"01": 1, "0\u00e9": 1}, "0\u00e9"),
    ({1: 1}, 1),
    ({"01": 1, b"10": 1}, b"10"),
    ({"01": 1, None: 1}, None),
    ({("0", "1"): 1}, ("0", "1")),
])
def test_energy_x2_refuses_malformed_labels(hist, bad):
    match = f"malformed histogram label {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=match):
        P.energy_x2(hist, m=1.0, dx=1.0, x0=0.0)
    with pytest.raises(ValueError, match=match):
        P.energy_x2(S.Histogram(hist, sum(hist.values())), m=1.0, dx=1.0, x0=0.0)


@pytest.mark.parametrize("hist, bad", [
    ({"0": math.nan, "1": 1.0}, "0"),
    ({"0": 1.0, "1": math.inf}, "1"),
    ({"00": 1.0, "01": -math.inf, "10": math.inf}, "01"),
    ({"0": -1.0, "1": 2.0}, "0"),
    ({"00": 1.0, "01": -0.5, "10": 1.0}, "01"),
])
def test_energy_x2_refuses_non_finite_and_negative_weights(hist, bad):
    with pytest.raises(ValueError, match=f"histogram label {re.escape(repr(bad))} has weight"):
        P.energy_x2(hist, m=1.0, dx=1.0, x0=0.0)


def test_energy_x2_refuses_a_total_weight_that_overflows():
    with pytest.raises(ValueError, match="total weight inf is not finite"):
        P.energy_x2({"0": 1e308, "1": 1e308}, m=1.0, dx=1.0, x0=0.0)


def test_energy_x2_keeps_zero_weights():
    assert P.energy_x2({"0": 0.0, "1": 2.0}, m=2.0, dx=3.0, x0=0.0) == 9.0


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
