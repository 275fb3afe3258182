"""Pricing-context bounds, Gaussian target states, and energy estimators."""
import math

import numpy as np
import pytest

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


def test_energy_p2_single_count():
    hist = {"01": 2.0}
    assert P.energy_p2(hist, m=1.0, dp=2.0) == pytest.approx(2.0)


def test_energy_estimators_reject_empty():
    with pytest.raises(ValueError):
        P.energy_x2({}, m=1.0, dx=1.0, x0=0.0)
    with pytest.raises(ValueError):
        P.energy_p2({}, m=1.0, dp=1.0)


# --- payoff rescaling ---------------------------------------------------------------------

def test_rescale_payoff_endpoints():
    assert P.rescale_payoff(0.0, 10.0, 50.0) == 10.0
    assert P.rescale_payoff(1.0, 10.0, 50.0) == 50.0


def test_rescale_payoff_interior():
    assert P.rescale_payoff(0.25, 10.0, 50.0) == 20.0


def test_rescale_payoff_domain():
    with pytest.raises(ValueError):
        P.rescale_payoff(1.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        P.rescale_payoff(0.5, 1.0, 0.0)


def test_setup_validation():
    with pytest.raises(ValueError):
        PricingSetup(d=0)
    with pytest.raises(ValueError):
        PricingSetup(B_l=1.0, B_u=0.0)
    with pytest.raises(ValueError):
        GaussianSpec(n=4, sigma=0.0)
