"""Formula-level derivative-pricing context: truncation/discretization
error bounds, discretized Gaussian target states, harmonic-oscillator
energy estimators, and payoff rescaling.

The Gaussian grid follows x_j = x0 - w*sigma + j*dx with dx = 2*w*sigma/2^n
for j in [0, 2^n); amplitudes are normalized so the squared amplitudes are
the discretized normal distribution N(x0, sigma). Momentum-basis histograms
are supplied by the caller (the centering Fourier transform is out of
scope), so the P^2 estimator only evaluates the quoted sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp
from typing import Mapping

import numpy as np

from .simulator import Histogram, StateVector, check_state_dim


@dataclass(frozen=True)
class PricingSetup:
    """Problem-level knobs shared by the error bounds."""

    d: int = 1            # number of underlyings
    T: int = 1            # timesteps
    n: int = 1            # qubits per register
    w: float = 0.0        # truncation half-width in standard deviations
    beta: float = 0.0     # bound on the integrand's second derivative
    B_l: float = 0.0      # lower integration bound
    B_u: float = 0.0      # upper integration bound
    f_min: float = 0.0    # payoff lower bound
    f_max: float = 0.0    # payoff upper bound

    def __post_init__(self) -> None:
        if self.d < 1 or self.T < 1 or self.n < 1:
            raise ValueError("d, T and n must be >= 1")
        if self.w < 0:
            raise ValueError("truncation width w must be non-negative")
        if self.B_u < self.B_l:
            raise ValueError("integration bounds must satisfy B_u >= B_l")
        if self.f_max < self.f_min:
            raise ValueError("payoff bounds must satisfy f_max >= f_min")


@dataclass(frozen=True)
class GaussianSpec:
    """Target Gaussian on an n-qubit register, truncated at w sigmas."""

    n: int
    x0: float = 0.0
    sigma: float = 1.0
    w: float = 4.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("register size n must be >= 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.w <= 0:
            raise ValueError("truncation width w must be positive")

    @property
    def m(self) -> float:
        """Oscillator parameter 1/(2 sigma^2)."""
        return 1.0 / (2.0 * self.sigma ** 2)

    @property
    def dx(self) -> float:
        return 2.0 * self.w * self.sigma / 2 ** self.n

    def grid(self) -> np.ndarray:
        check_state_dim(2 ** self.n)
        return self.x0 - self.w * self.sigma + self.dx * np.arange(2 ** self.n)


def trunc_error_bound(setup: PricingSetup) -> float:
    """Probability-mass bound 2*d*T*exp(-w^2/2) for w-sigma truncation."""
    return 2.0 * setup.d * setup.T * exp(-setup.w ** 2 / 2.0)


def disc_error(setup: PricingSetup) -> float:
    """Grid-discretization error beta*(B_u-B_l)^(dT+2) / (24 * 2^(2n))."""
    return (
        setup.beta
        * (setup.B_u - setup.B_l) ** (setup.d * setup.T + 2)
        / (24.0 * 2 ** (2 * setup.n))
    )


def gaussian_target_state(spec: GaussianSpec) -> StateVector:
    """State whose squared amplitudes are the discretized N(x0, sigma)."""
    grid = spec.grid()
    weights = np.exp(-((grid - spec.x0) ** 2) / (2.0 * spec.sigma ** 2))
    amplitudes = np.sqrt(weights / weights.sum()).astype(complex)
    return StateVector((2,) * spec.n, amplitudes)


def _weights(counts: Histogram | Mapping[str, float]) -> tuple[dict[int, float], float]:
    mapping = counts.counts if isinstance(counts, Histogram) else counts
    if not mapping:
        raise ValueError("histogram is empty")
    weights = {int(label, 2): float(c) for label, c in mapping.items()}
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("histogram has zero total weight")
    return weights, total


def energy_x2(counts: Histogram | Mapping[str, float], m: float, dx: float, x0: float) -> float:
    """Position-term estimator: mean of (m/2)*(j*dx - x0)^2 over counts.

    Accepts a measured Histogram or a plain label->weight mapping (e.g.
    exact probabilities); labels are binary register labels.
    """
    weights, total = _weights(counts)
    return sum(c * (m / 2.0) * (j * dx - x0) ** 2 for j, c in weights.items()) / total


def energy_p2(counts: Histogram | Mapping[str, float], m: float, dp: float) -> float:
    """Momentum-term estimator: mean of (1/2m)*(j*dp)^2 over counts."""
    weights, total = _weights(counts)
    return sum(c * (j * dp) ** 2 / (2.0 * m) for j, c in weights.items()) / total


def rescale_payoff(e_tilde: float, f_min: float, f_max: float) -> float:
    """Affine rescale (f_max - f_min)*e_tilde + f_min of a unit-interval mean."""
    if not 0.0 <= e_tilde <= 1.0:
        raise ValueError("normalized expectation must lie in [0, 1]")
    if f_max < f_min:
        raise ValueError("payoff bounds must satisfy f_max >= f_min")
    return (f_max - f_min) * e_tilde + f_min
