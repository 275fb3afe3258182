"""Closed-form resource formulas for fixed-point arithmetic circuits.

Toffoli counts and T-depths describe the conventional qubit-only
constructions; the ternary CNOT counts describe the same operations after
the three-gate qutrit lowering (each Toffoli becomes three two-qutrit
CNOTs). Both families are kept exactly as quoted: logarithms of
non-powers-of-two are evaluated as reals unless ``floor_logs`` is set, and
the arcsine CNOT formula keeps its quoted -26 constant even though the
3x rule over its Toffoli counterpart would give -6.

Subtraction shares the addition counts; division shares multiplication.
The symbol ``d`` appearing in the exponential/arcsine counts is kept as an
explicit parameter defaulting to the polynomial degree ``k``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, log2

from .transpile import LoweringStrategy


def ones_count(n: int) -> int:
    """Number of ones in the binary expansion of n."""
    return bin(n).count("1")


def _log2(value: float, floored: bool) -> float:
    term = log2(value)
    return float(floor(term)) if floored else term


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError("register size n must be >= 2")


def _check_np(n: int, p: int) -> None:
    _check_n(n)
    if not 0 <= p <= n:
        raise ValueError("integer-bit count p must satisfy 0 <= p <= n")


def _check_approx(k: int, m: int, d: int, z: int = 1) -> None:
    if k < 1 or m < 1 or d < 1 or z < 1:
        raise ValueError("approximation parameters k, M, d, z must be >= 1")


@dataclass(frozen=True)
class FixedPointFormat:
    """(n, p) fixed-point layout: n bits total, p left of the binary point."""

    n: int
    p: int

    def __post_init__(self) -> None:
        if self.n < 1 or not 0 <= self.p <= self.n:
            raise ValueError("fixed-point format needs n >= 1 and 0 <= p <= n")

    @property
    def resolution(self) -> float:
        return 2.0 ** (self.p - self.n)

    def decode(self, bits: str) -> float:
        """Value of an n-bit string, most significant bit first."""
        if len(bits) != self.n or any(b not in "01" for b in bits):
            raise ValueError(f"expected {self.n} binary digits, got {bits!r}")
        return int(bits, 2) * self.resolution

    def encode(self, value: float) -> str:
        """Nearest representable value as a bit string."""
        steps = round(value / self.resolution)
        if not 0 <= steps < 2 ** self.n:
            raise ValueError(f"{value} is outside the representable range")
        return format(steps, f"0{self.n}b")


@dataclass(frozen=True)
class ApproxParams:
    """Piecewise-polynomial knobs: degree k, subintervals M, the quoted
    degree-symbol multiplicity d (defaults to k), parallelization z."""

    k: int = 1
    M: int = 1
    d: int | None = None
    z: int = 1

    def __post_init__(self) -> None:
        _check_approx(self.k, self.M, self.d if self.d is not None else self.k, self.z)

    @property
    def d_value(self) -> int:
        return self.d if self.d is not None else self.k


@dataclass(frozen=True)
class ResourceReport:
    """Bundle of resource figures with provenance notes."""

    toffoli_count: float | None = None
    t_count: float | None = None
    t_depth: float | None = None
    cnot_count_ternary: float | None = None
    overall_depth: float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("toffoli_count", "t_count", "t_depth", "cnot_count_ternary", "overall_depth"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")

    def to_dict(self) -> dict:
        return {
            "toffoli_count": self.toffoli_count,
            "t_count": self.t_count,
            "t_depth": self.t_depth,
            "cnot_count_ternary": self.cnot_count_ternary,
            "overall_depth": self.overall_depth,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Toffoli counts and T-depths (conventional constructions)
# ---------------------------------------------------------------------------

def toffoli_count_add(n: int, floor_logs: bool = False) -> float:
    _check_n(n)
    return (
        10 * n
        - 3 * ones_count(n)
        - 3 * ones_count(n - 1)
        - 3 * _log2(n, floor_logs)
        - 3 * _log2(n - 1, floor_logs)
        - 7
    )


def t_depth_add(n: int) -> int:
    _check_n(n)
    return (
        floor(log2(n))
        + floor(log2(n - 1))
        + floor(log2(n / 3))
        + floor(log2((n - 1) / 3))
        + 8
    )


def toffoli_count_mul(n: int, p: int) -> float:
    _check_np(n, p)
    return 1.5 * n * n + 3 * n * p + 1.5 * n - 3 * p * p + 3 * p


def t_depth_mul(n: int, z: int) -> int:
    _check_n(n)
    if z < 1:
        raise ValueError("parallelization factor z must be >= 1")
    return ceil(n / z) * (t_depth_add(n) + 6) + ceil(log2(z)) * t_depth_add(n)


def toffoli_count_sq(n: int) -> float:
    _check_n(n)
    return n * n / 2 + 3 * n - 4


def t_depth_sq(n: int) -> int:
    _check_n(n)
    return 5 * n + 3


def toffoli_count_exp(n: int, p: int, k: int, M: int, d: int | None = None) -> float:
    d = k if d is None else d
    _check_np(n, p)
    _check_approx(k, M, d)
    return (
        1.5 * n * n * k
        + 3 * n * p * k
        + 3.5 * n * k
        - 3 * p * p * d
        + 3 * p * k
        - d
        + 2 * M * d * (4 * ceil(log2(M)) - 8)
        + 4 * M * n
    )


def toffoli_count_arcsq(n: int, p: int, k: int, M: int, d: int | None = None) -> float:
    d = k if d is None else d
    _check_np(n, p)
    _check_approx(k, M, d)
    return (
        k * (1.5 * n * n + n * (3 * p + 3.5) - 3 * (p - 1) * p - 1)
        + n * n / 2
        + 11 * n
        + 2 * M * d * (4 * ceil(log2(M)) - 8)
        + 4 * M * n
        - 2
    )


def comparator_t_depth(n: int) -> int:
    _check_n(n)
    return 2 * floor(log2(n - 1)) + 5


def t_depth_pp(n: int, z: int, k: int, M: int) -> int:
    """T-depth of the parallel piecewise-polynomial evaluation circuit."""
    _check_approx(k, M, 1, z)
    return k * (t_depth_mul(n, z) + t_depth_add(n)) + M * comparator_t_depth(n)


def t_depth_arcsq(n: int, p: int, z: int, k: int, M: int) -> int:
    _check_np(n, p)
    return t_depth_sq(n) + t_depth_pp(n, z, k, M) + 8 * n + 6


# aliased operations: identical counts by construction
toffoli_count_sub = toffoli_count_add
t_depth_sub = t_depth_add
toffoli_count_div = toffoli_count_mul
t_depth_div = t_depth_mul


# ---------------------------------------------------------------------------
# ternary CNOT counts (qutrit lowering)
# ---------------------------------------------------------------------------

def cnot_count_add(n: int, floor_logs: bool = False) -> float:
    """30n - 9w(n) - 9w(n-1) - 9log2(n) - 9log2(n-1) - 21, evaluated as
    three times the Toffoli count so the exact 3x rule survives the
    irrational log terms in floating point."""
    return 3.0 * toffoli_count_add(n, floor_logs)


def cnot_count_mul(n: int, p: int) -> float:
    _check_np(n, p)
    return 4.5 * n * n + 9 * n * p + 4.5 * n - 9 * p * p + 9 * p


def cnot_count_sq(n: int) -> float:
    _check_n(n)
    return 1.5 * n * n + 9 * n - 12


def cnot_count_exp(n: int, p: int, k: int, M: int, d: int | None = None) -> float:
    d = k if d is None else d
    _check_np(n, p)
    _check_approx(k, M, d)
    return (
        4.5 * n * n * k
        + 9 * n * p * k
        + 10.5 * n * k
        - 9 * p * p * d
        + 9 * p * k
        - 3 * d
        + 6 * M * d * (4 * ceil(log2(M)) - 8)
        + 12 * M * n
    )


ARCSQ_CNOT_NOTE = (
    "arcsine ternary-CNOT count kept as quoted: its -26 constant differs from "
    "3x the Toffoli formula's -2 (which would give -6), so the exact 3x rule "
    "does not hold for arcsine"
)


def cnot_count_arcsq(n: int, p: int, k: int, M: int, d: int | None = None) -> float:
    d = k if d is None else d
    _check_np(n, p)
    _check_approx(k, M, d)
    return (
        3 * k * (1.5 * n * n + n * (3 * p + 3.5) - 3 * (p - 1) * p - 1)
        + 1.5 * n * n
        + 33 * n
        + 6 * M * d * (4 * ceil(log2(M)) - 8)
        + 12 * M * n
        - 26
    )


cnot_count_sub = cnot_count_add
cnot_count_div = cnot_count_mul


# ---------------------------------------------------------------------------
# benchmark-level report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineCosts:
    """Quoted benchmark totals for a qubit-only compilation."""

    t_cost: float
    t_depth: float
    overall_depth: float

    def __post_init__(self) -> None:
        if min(self.t_cost, self.t_depth, self.overall_depth) < 0:
            raise ValueError("baseline costs must be non-negative")


CNOT_COST_NOTE = (
    "ternary CNOT-cost quoted as equal to the converted overall depth; "
    "carried as the depth conversion, equality unverified"
)


def benchmark_report(strategy: LoweringStrategy, baseline: BaselineCosts) -> ResourceReport:
    """Convert quoted baseline totals to a strategy-level report.

    The qutrit strategy zeroes T-cost and T-depth and converts depth by the
    exact rational 3/7 (per-Toffoli depth 3 versus 7); the baseline strategy
    echoes its inputs.
    """
    if strategy is LoweringStrategy.QUTRIT:
        converted = baseline.overall_depth * 3 / 7
        return ResourceReport(
            t_count=0.0,
            t_depth=0.0,
            cnot_count_ternary=converted,
            overall_depth=converted,
            notes=("overall depth converted by the exact ratio 3/7", CNOT_COST_NOTE),
        )
    return ResourceReport(
        t_count=baseline.t_cost,
        t_depth=baseline.t_depth,
        overall_depth=baseline.overall_depth,
        notes=("baseline totals echoed as quoted",),
    )


# ---------------------------------------------------------------------------
# per-operation estimation (CLI surface)
# ---------------------------------------------------------------------------

def _add_record(n: int, p: int, ap: ApproxParams) -> tuple:
    return toffoli_count_add(n), cnot_count_add(n), t_depth_add(n)


def _mul_record(n: int, p: int, ap: ApproxParams) -> tuple:
    return toffoli_count_mul(n, p), cnot_count_mul(n, p), t_depth_mul(n, ap.z)


# op -> f(n, p, approx) = (Toffoli count, ternary-CNOT count, T-depth or None)
_FORMULAS = {
    "add": _add_record,
    "sub": _add_record,
    "mul": _mul_record,
    "div": _mul_record,
    "sqrt": lambda n, p, ap: (toffoli_count_sq(n), cnot_count_sq(n), t_depth_sq(n)),
    "exp": lambda n, p, ap: (
        toffoli_count_exp(n, p, ap.k, ap.M, ap.d_value),
        cnot_count_exp(n, p, ap.k, ap.M, ap.d_value),
        None,
    ),
    "arcsine": lambda n, p, ap: (
        toffoli_count_arcsq(n, p, ap.k, ap.M, ap.d_value),
        cnot_count_arcsq(n, p, ap.k, ap.M, ap.d_value),
        t_depth_arcsq(n, p, ap.z, ap.k, ap.M),
    ),
}

OPERATIONS = tuple(_FORMULAS)


def estimate_operation(
    op: str,
    n: int,
    p: int = 0,
    approx: ApproxParams = ApproxParams(),
    strategy: LoweringStrategy = LoweringStrategy.SELINGER_COST,
) -> ResourceReport:
    """Resource report for one arithmetic operation under a strategy."""
    if op not in OPERATIONS:
        raise ValueError(f"unknown operation {op!r}; choose from {OPERATIONS}")
    notes: list[str] = []
    if op == "sqrt":
        notes.append(f"requires 2n+1 = {2 * n + 1} qubits")
    if op == "arcsine":
        notes.append(ARCSQ_CNOT_NOTE)
    toffolis, cnots, t_depth = _FORMULAS[op](n, p, approx)
    if strategy is LoweringStrategy.QUTRIT:
        return ResourceReport(
            t_count=0.0, t_depth=0.0, cnot_count_ternary=cnots, notes=tuple(notes)
        )
    if op == "exp":
        notes.append("no quoted T-depth formula for the exponential")
    return ResourceReport(toffoli_count=toffolis, t_depth=t_depth, notes=tuple(notes))
