"""Formula-level derivative-pricing context: truncation/discretization
error bounds, discretized Gaussian target states and the position-term
harmonic-oscillator energy estimator.

The Gaussian grid follows x_j = x0 - w*sigma + j*dx with dx = 2*w*sigma/2^n
for j in [0, 2^n); amplitudes are normalized so the squared amplitudes are
the discretized normal distribution N(x0, sigma). Grid point j is basis
index j of the register, so the estimator reads sampled counts by index.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, ldexp
from typing import Mapping

import numpy as np

from .circuits import check_finite, check_int
from . import simulator
from .simulator import Histogram, StateVector, check_indices, check_state_dim


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

    def __post_init__(self) -> None:
        check_int(d=self.d, T=self.T, n=self.n)
        check_finite(w=self.w, beta=self.beta, B_l=self.B_l, B_u=self.B_u)
        if self.d < 1 or self.T < 1 or self.n < 1:
            raise ValueError("d, T and n must be >= 1")
        if self.w < 0:
            raise ValueError("truncation width w must be non-negative")
        if self.B_u < self.B_l:
            raise ValueError("integration bounds must satisfy B_u >= B_l")


@dataclass(frozen=True)
class GaussianSpec:
    """Target Gaussian on an n-qubit register, truncated at w sigmas."""

    n: int
    x0: float = 0.0
    sigma: float = 1.0
    w: float = 4.0

    def __post_init__(self) -> None:
        check_int(n=self.n)
        check_finite(x0=self.x0, sigma=self.sigma, w=self.w)
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
        return ldexp(2.0 * self.w * self.sigma, -int(self.n))

    def grid(self) -> np.ndarray:
        size = 2 ** int(self.n)
        check_state_dim(size)
        return self.x0 - self.w * self.sigma + self.dx * np.arange(size)


def trunc_error_bound(setup: PricingSetup) -> float:
    """Probability-mass bound 2*d*T*exp(-w^2/2) for w-sigma truncation."""
    return 2.0 * setup.d * setup.T * exp(-setup.w ** 2 / 2.0)


def disc_error(setup: PricingSetup) -> float:
    """Grid-discretization error beta*(B_u-B_l)^(dT+2) / (24 * 2^(2n))."""
    width = setup.B_u - setup.B_l
    exponent = int(setup.d) * int(setup.T) + 2
    try:
        power = width ** exponent
    except OverflowError:
        raise ValueError(
            f"disc_error: range width {width!r} to the power d*T+2 = {exponent} "
            "overflows a float"
        ) from None
    # scaling by 2^-2n with ldexp: a large n underflows to 0 instead of overflowing the divisor
    return ldexp(setup.beta * power / 24.0, -2 * int(setup.n))


def gaussian_target_state(spec: GaussianSpec) -> StateVector:
    """State whose squared amplitudes are the discretized N(x0, sigma)."""
    grid = spec.grid()
    weights = np.exp(-((grid - spec.x0) ** 2) / (2.0 * spec.sigma ** 2))
    amplitudes = np.sqrt(weights / weights.sum()).astype(complex)
    return StateVector((2,) * spec.n, amplitudes)


def energy_x2(counts: Histogram | Mapping[int, float], m: float, dx: float, x0: float) -> float:
    """Position-term estimator: mean of (m/2)*(j*dx - x0)^2 over counts.

    Accepts a measured Histogram on qubit wires or a plain mapping from grid
    index j to weight (e.g. exact probabilities).
    """
    if isinstance(counts, Histogram):
        if any(d != 2 for d in counts.dims):
            raise ValueError(f"energy_x2 reads a qubit register, got a histogram on dims {counts.dims}")
        mapping = counts.counts
    else:
        # the grid indices of a register of at most MAX_STATE_DIM points, as GaussianSpec.grid allows
        check_indices(simulator.MAX_STATE_DIM, counts)
        mapping = counts
    if not mapping:
        raise ValueError("histogram is empty")
    weights = {int(j): float(c) for j, c in mapping.items()}
    total = sum(weights.values())
    # NaN and infinity reach the total; only a refusal walks the indices, to name one
    if not (isfinite(total) and min(weights.values()) >= 0):
        for j, c in weights.items():
            if not (isfinite(c) and c >= 0):
                raise ValueError(f"histogram index {j} has weight {c}; weights must be finite and >= 0")
        raise ValueError(f"histogram total weight {total} is not finite")
    if total <= 0:
        raise ValueError("histogram has zero total weight")
    return sum(c * (m / 2.0) * (j * dx - x0) ** 2 for j, c in weights.items()) / total
