"""Gate and relaxation error models for the Toffoli lowerings.

Two distinct conventions coexist and are kept apart deliberately:

- Kraus channels model depolarizing gate noise at the density-matrix
  level, where the no-error weight of a D-operator channel is 1-(D-1)p.
  ``run_noisy`` is the one definition of a noisy density run: each gate,
  then its depolarizing channel, then damping on every wire after each
  ASAP layer. It checks the state where it starts and where it ends,
  while ``evolve_density`` checks every step it takes.
- The analytic success model ``p_success`` multiplies per-gate survival
  probabilities 1-p (p being the quoted gate error probability as-is),
  because that is the reading that reproduces the quoted endpoints
  (success ~0.4 for the qutrit lowering and ~0.01 for the conventional
  one at thirty Toffolis).

Relaxation enters ``p_success`` through exp(-depth*tau_gate/T1) with
``tau_gate`` defaulting to 0, since the quoted figures only pin down the
gate-error part; circuits containing qutrit gates use the shorter qutrit
relaxation time.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from math import exp, prod
from typing import Sequence

import numpy as np

from .circuits import Circuit, _is_dim, check_finite, check_int, check_real, layers, store_floats
from .simulator import (
    DensityMatrix,
    _density_step,
    basis_density,
    check_state_dim,
    evolve_density,  # noqa: F401  unused; perfbench's self-test asserts its tracer wraps it here
    label_to_index,
)
from .transpile import REFERENCE_TOFFOLI, LoweringStrategy, cost_profile, lower_toffolis


@dataclass(frozen=True)
class NoiseParams:
    """Gate error probabilities and relaxation times (microseconds)."""

    p1: float = 1e-4           # one-qubit gate error probability
    p2: float = 1e-2           # two-qubit / two-qutrit gate error probability
    T1_level1: float = 100.0   # |1> -> |0> relaxation time
    T1_level2: float = 30.0    # |2> -> |0> relaxation time
    tau_gate: float = 0.0      # per-layer duration

    def __post_init__(self) -> None:
        store_floats(self, **asdict(self))
        if not (0 <= self.p1 <= 1 and 0 <= self.p2 <= 1):
            raise ValueError("gate error probabilities must lie in [0, 1]")
        if self.T1_level1 <= 0 or self.T1_level2 <= 0:
            raise ValueError("relaxation times must be positive")
        if self.tau_gate < 0:
            raise ValueError("gate duration must be non-negative")


def _check_channel_dims(dims: Sequence[int]) -> None:
    """Refuse channel wires other than 1 or 2 wires of dimension 2 or 3, so a
    local superoperator has at most 81x81 entries. A dimension passes
    ``circuits._is_dim``, the rule a circuit wire's passes."""
    if not 1 <= len(dims) <= 2 or not all(_is_dim(d) for d in dims):
        raise ValueError(f"a channel acts on 1 or 2 wires of dimension 2 or 3, got {tuple(dims)!r}")


# Nonzero pairs _kron_sum multiplies at once: 8 MiB per array of reals.
_KRON_PAIRS_PER_CHUNK = 2 ** 20


def _kron_sum(ops: np.ndarray) -> np.ndarray:
    """sum_m ops[m] (x) conj(ops[m]) of a (count, size, size) stack, as a flat
    array in [i, j, k, l] order, from each operator's nonzero entries only.

    Every pair of nonzeros a = K_m[i, k], b = conj(K_m[j, l]) of one operator
    is multiplied in plain float arithmetic (re = ar*br - ai*bi, im = ar*bi
    + ai*br) and added into [i, j, k, l] in operator order, from +0: the
    products and the order of ``np.einsum("mik,mjl->ijkl", ops, ops.conj())``.
    A left-out pair holds a zero factor, so einsum adds a signed zero there,
    which leaves a sum that starts at +0 as it is; a non-finite entry fails
    the completeness check on either build. Operators go in chunks of at
    most _KRON_PAIRS_PER_CHUNK pairs, so a large dense set stays bounded.
    """
    count, size, _ = ops.shape
    s = np.zeros(size ** 4, dtype=complex)
    chunk = max(1, _KRON_PAIRS_PER_CHUNK // size ** 4)
    for start in range(0, count, chunk):
        op, row, col = np.nonzero(ops[start:start + chunk])
        values = ops[start + op, row, col]
        # nonzero e pairs with each nonzero of its own operator in turn: the
        # k-th pair of e's block takes the k-th nonzero of that operator
        counts = np.bincount(op)
        partners = counts[op]
        left = np.repeat(np.arange(len(op)), partners)
        right = np.arange(len(left)) + np.repeat(np.cumsum(counts)[op] - np.cumsum(partners), partners)
        a, b = values[left], values[right].conj()
        flat = ((row[left] * size + row[right]) * size + col[left]) * size + col[right]
        np.add.at(s.real, flat, a.real * b.real - a.imag * b.imag)
        np.add.at(s.imag, flat, a.real * b.imag + a.imag * b.real)
    return s


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving map given by operators with sum K_i^dag K_i = I.
    Channels compare and hash by identity, as states do."""

    operators: tuple[np.ndarray, ...]
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        self.superoperator  # builds S once and runs every check on it

    @cached_property
    def superoperator(self) -> np.ndarray:
        """S = sum_i K_i (x) conj(K_i) on the channel's wires, at most 81x81,
        so that vec(rho') = S vec(rho) with rho flattened row-major.

        S is summed from each operator's nonzero entries by ``_kron_sum``,
        bit-identical to ``np.einsum("mik,mjl->ijkl", ops, ops.conj())``.
        Wires, operator shapes and completeness are checked here, before
        ``S`` is built and on its first read, which also covers a channel
        made without the constructor.
        """
        _check_channel_dims(self.dims)
        size = prod(self.dims)
        if not self.operators or any(np.shape(k) != (size, size) for k in self.operators):
            raise ValueError(f"Kraus operators must be a non-empty set of {size}x{size} matrices")
        s = _kron_sum(np.asarray(self.operators, dtype=complex)).reshape((size,) * 4)
        # tracing the output pair (i = j) leaves sum_m K_m^dag K_m
        completeness = np.einsum("iikl->lk", s)
        if not np.allclose(completeness, np.eye(size), atol=1e-10):
            raise ValueError("Kraus operators do not satisfy sum K^dag K = I within 1e-10")
        return s.reshape(size * size, size * size)

    @cached_property
    def keeps_diagonal(self) -> bool:
        """Whether the channel sends every |k><k| to a diagonal matrix, as the
        depolarizing and damping channels do: column (k, k) of ``S`` holds
        zeros of either sign in every row (i, j) with i != j. Then it keeps a
        diagonal rho diagonal, and ``_density_step`` evolves such a rho on
        its diagonal alone."""
        size = prod(self.dims)
        images = self.superoperator[:, :: size + 1].reshape(size, size, size)
        return not images[~np.eye(size, dtype=bool)].any()


@dataclass(frozen=True)
class GateCensus:
    """Gate-type counts and layer depth of a circuit, for the success model."""

    one_qubit_gates: int = 0
    two_qubit_gates: int = 0
    two_qutrit_gates: int = 0
    depth: int = 0

    def __post_init__(self) -> None:
        check_int(one_qubit_gates=self.one_qubit_gates, two_qubit_gates=self.two_qubit_gates,
                  two_qutrit_gates=self.two_qutrit_gates, depth=self.depth)
        if min(self.one_qubit_gates, self.two_qubit_gates, self.two_qutrit_gates, self.depth) < 0:
            raise ValueError("census counts must be non-negative")


def census_for(strategy: LoweringStrategy, toffoli_count: int) -> GateCensus:
    """Per-Toffoli cost profile scaled to a Toffoli count.

    This counts the Toffolis' own gates only, so it undercounts the qutrit
    gates of a whole lowered circuit: there the carried-over gates on a
    promoted control wire act on a qutrit too. The qutrit-lowered
    ``build_adder(n)`` has 4 qutrit-touching gates per Toffoli (8, 128 and
    256 at n = 1, 16, 32) and ``build_multiplier(8, 8)`` has 845 for 240
    Toffolis, against the 3 per Toffoli charged here.
    """
    check_int(toffoli_count=toffoli_count)
    if toffoli_count < 0:
        raise ValueError("toffoli_count must be non-negative")
    profile = cost_profile(strategy)
    return GateCensus(
        one_qubit_gates=profile.one_qubit_gates * toffoli_count,
        two_qubit_gates=profile.two_qubit_gates * toffoli_count,
        two_qutrit_gates=profile.two_qutrit_gates * toffoli_count,
        depth=profile.depth_per_toffoli * toffoli_count,
    )


# ---------------------------------------------------------------------------
# Kraus channels
# ---------------------------------------------------------------------------

def generalized_paulis(dim: int) -> list[np.ndarray]:
    """The dim^2 products X^j Z^k, X the cyclic shift and Z the phase gate
    diag(1, w, ..., w^(dim-1)) with w = exp(2*pi*i/dim). Refused before
    anything is built when their dim^4 entries exceed MAX_STATE_DIM."""
    check_state_dim(dim ** 4, "generalized Pauli entries")
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    omega = np.exp(2j * np.pi / dim)
    phase = np.diag(omega ** np.arange(dim))
    return [
        np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(phase, k)
        for j in range(dim)
        for k in range(dim)
    ]


# Channels kept per builder. A run under one NoiseParams touches at most
# 6 depolarizing keys (p1 on (2,) and (3,), p2 on the four two-wire dims) and
# 2 damping keys (the qubit and the qutrit lambdas), so 6 keeps every channel
# of a run. Each kept two-qutrit channel holds about 210 KiB; 8 raised the
# noise benchmark's peak RSS above the uncached code, 6 keeps it below.
_CHANNEL_CACHE_SIZE = 6


def _read_only(channel: KrausChannel) -> KrausChannel:
    """Lock a shared channel's arrays, so a caller's in-place write raises
    instead of changing the channel for every later caller."""
    for array in (*channel.operators, channel.superoperator):
        array.flags.writeable = False
    return channel


def depolarizing_channel(wire_dims: Sequence[int], p: float) -> KrausChannel:
    """Uniform generalized-Pauli channel on one or two wires.

    The identity term keeps weight 1-(D-1)p where D is the number of
    generalized Pauli products: 4 on a qubit, 16 on two qubits, 81 on two
    qutrits. Each (dims, p) is built once and shared, read-only.
    """
    wire_dims = tuple(wire_dims)
    _check_channel_dims(wire_dims)
    check_real(p=p)
    return _depolarizing_channel(tuple(int(d) for d in wire_dims), float(p))


# one entry per valid channel wire-dims tuple: (2,), (3,) and the four pairs
@lru_cache(maxsize=6)
def _pauli_stack(wire_dims: tuple[int, ...]) -> np.ndarray:
    """The generalized Paulis of a channel's wires as one read-only
    (D, size, size) stack, the identity first; built once per wire dims,
    since it does not depend on p."""
    size = prod(wire_dims)
    stacks = [np.array(generalized_paulis(d)) for d in wire_dims]
    paulis = stacks[0]
    if len(stacks) == 2:
        # stacked np.kron in itertools.product order: the same single
        # product per entry, so the operators are bit-identical to it
        a, b = stacks
        paulis = (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(-1, size, size)
    paulis.flags.writeable = False
    return paulis


@lru_cache(maxsize=_CHANNEL_CACHE_SIZE)
def _depolarizing_channel(wire_dims: tuple[int, ...], p: float) -> KrausChannel:
    """Checks p here, so a cache hit pays for no check; a refusal is not cached."""
    check_finite(p=p)
    if p < 0:
        raise ValueError("error probability must be non-negative")
    size = prod(wire_dims)
    paulis = _pauli_stack(wire_dims)
    d_total = len(paulis)
    if (d_total - 1) * p > 1:
        raise ValueError(f"(D-1)p = {(d_total - 1) * p} exceeds 1")
    operators = [np.sqrt(1 - (d_total - 1) * p) * np.eye(size, dtype=complex)]
    operators += list(np.sqrt(p) * paulis[1:])
    return _read_only(KrausChannel(tuple(operators), wire_dims))


def amplitude_damping_qubit(lambda1: float) -> KrausChannel:
    """Relaxation |1> -> |0> with probability lambda1, built once per
    lambda1 and shared, read-only."""
    check_real(lambda1=lambda1)
    if not 0 <= lambda1 <= 1:
        raise ValueError("damping probability must lie in [0, 1]")
    return _amplitude_damping((float(lambda1),))


def amplitude_damping_qutrit(lambda1: float, lambda2: float) -> KrausChannel:
    """Relaxation |1> -> |0> and |2> -> |0> with probabilities lambda1,
    lambda2, built once per (lambda1, lambda2) and shared, read-only."""
    check_real(lambda1=lambda1, lambda2=lambda2)
    if not (0 <= lambda1 <= 1 and 0 <= lambda2 <= 1):
        raise ValueError("damping probabilities must lie in [0, 1]")
    return _amplitude_damping((float(lambda1), float(lambda2)))


@lru_cache(maxsize=_CHANNEL_CACHE_SIZE)
def _amplitude_damping(lambdas: tuple[float, ...]) -> KrausChannel:
    """Damping on a wire of dimension len(lambdas) + 1: level k relaxes to
    |0> with probability lambdas[k-1]."""
    dim = len(lambdas) + 1
    operators = [np.diag([1, *(np.sqrt(1 - lam) for lam in lambdas)]).astype(complex)]
    for k, lam in enumerate(lambdas, start=1):
        jump = np.zeros((dim, dim), dtype=complex)
        jump[0, k] = np.sqrt(lam)
        operators.append(jump)
    return _read_only(KrausChannel(tuple(operators), (dim,)))


def lambda_from_time(t: float, T1: float) -> float:
    """Damping probability after idling for t: 1 - exp(-t/T1).

    Damping is sometimes quoted as lambda proportional to exp(-t/T1);
    the standard reading with lambda -> 0 at t = 0 is used here.
    """
    check_finite(t=t, T1=T1)
    if t < 0:
        raise ValueError("duration must be non-negative")
    if T1 <= 0:
        raise ValueError("relaxation time must be positive")
    return 1 - exp(-t / T1)


# ---------------------------------------------------------------------------
# analytic success model
# ---------------------------------------------------------------------------

def p_success(census: GateCensus, params: NoiseParams) -> float:
    """Probability that no gate in the census errs and no relaxation occurs.

    Per-gate survival is 1 minus the quoted gate error probability; the
    relaxation factor is exp(-depth*tau_gate/T1), taking the qutrit T1
    whenever qutrit gates are present.
    """
    survival = (
        (1 - params.p1) ** census.one_qubit_gates
        * (1 - params.p2) ** census.two_qubit_gates
        * (1 - params.p2) ** census.two_qutrit_gates
    )
    t1 = params.T1_level2 if census.two_qutrit_gates > 0 else params.T1_level1
    return survival * exp(-census.depth * params.tau_gate / t1)


def success_curve(
    strategy: LoweringStrategy, max_toffoli: int, params: NoiseParams
) -> list[tuple[int, float]]:
    """(count, p_success) series for per-Toffoli costs scaled by each count
    from 1 to ``max_toffoli``; more points than MAX_STATE_DIM are refused
    before the first is computed."""
    check_int(max_toffoli=max_toffoli)
    if max_toffoli < 1:
        raise ValueError("the count range needs at least one entry")
    check_state_dim(max_toffoli, "success-curve points")
    return [(k, p_success(census_for(strategy, k), params)) for k in range(1, max_toffoli + 1)]


# ---------------------------------------------------------------------------
# density-matrix noise: one run, checked at its ends
# ---------------------------------------------------------------------------

def run_noisy(circuit: Circuit, label: str | Sequence[int], params: NoiseParams) -> DensityMatrix:
    """The density noise model: from basis state ``label``, each gate, then its
    depolarizing channel (p1 on one wire, p2 on two, none when that p is 0),
    then, when ``tau_gate`` > 0, damping on every wire after each ASAP layer.
    A gate on more than two wires is refused, by index, before any step.
    The state is checked where the run starts and where it ends; the steps
    run unchecked, bit-identical to a loop of ``evolve_density``."""
    for index, gate in enumerate(circuit.gates):
        if len(gate.wires) > 2:
            raise ValueError(f"gate {index} acts on {len(gate.wires)} wires; lower it first")
    dims = circuit.dims
    entries = basis_density(dims, label).entries
    l1, l2 = (lambda_from_time(params.tau_gate, t1) for t1 in (params.T1_level1, params.T1_level2))
    damping = [amplitude_damping_qutrit(l1, l2) if d == 3 else amplitude_damping_qubit(l1)
               for d in dims if params.tau_gate > 0]
    for layer in layers(circuit):
        for gate in layer:
            entries = _density_step(entries, dims, gate, None)
            p = params.p1 if len(gate.wires) == 1 else params.p2
            if p != 0:
                channel = depolarizing_channel([dims[w] for w in gate.wires], p)
                entries = _density_step(entries, dims, channel, gate.wires)
        for wire, channel in enumerate(damping):
            entries = _density_step(entries, dims, channel, (wire,))
    return DensityMatrix(dims, entries)


def noisy_toffoli_fidelity(strategy: LoweringStrategy, params: NoiseParams) -> float:
    """Fidelity of one noisy lowered Toffoli on input |110>: the overlap of
    ``run_noisy``'s output with the ideal output |111>.

    For the qutrit strategy all three wires are treated as qutrits so each
    gate carries the full two-qutrit channel. ``lower_toffolis`` refuses
    the accounting-only SELINGER_COST.
    """
    lowered = lower_toffolis(REFERENCE_TOFFOLI, strategy)
    if strategy is LoweringStrategy.QUTRIT:
        lowered = Circuit((3,) * 3, lowered.gates)
    ideal = label_to_index(lowered.dims, "111")
    return float(run_noisy(lowered, "110", params).entries[ideal, ideal].real)


# ---------------------------------------------------------------------------
# quoted reference figures
# ---------------------------------------------------------------------------

ERROR_COMPARISON_FOOTNOTE = (
    "quoted error rates at 30 Toffolis are 60% (qutrit) and 99.95% (conventional); "
    "the analytic model with p1=1e-4, p2=1e-2, tau_gate=0 gives 59.5% and 99.2%, "
    "so the conventional figure reflects an unreconciled parameterization and the "
    "curve follows the analytic model"
)


def quoted_error_comparison() -> dict:
    """Quoted per-decomposition error percentages at thirty Toffolis,
    with the footnote recording that no single parameter set reproduces
    both alongside the analytic success endpoints."""
    return {
        "toffoli_count": 30,
        "qutrit_error_percent": 60.0,
        "conventional_error_percent": 99.95,
        "footnote": ERROR_COMPARISON_FOOTNOTE,
    }


NO_ERROR_WEIGHT_FOOTNOTE = (
    "the quoted two-qutrit no-error weight is 1-81*p2 while the channel "
    "construction has 3^4-1 = 80 non-identity terms giving 1-80*p2; the "
    "constructor follows the construction"
)


def quoted_no_error_weights(p2: float) -> dict:
    """No-error weights of the two-wire depolarizing channels, both as
    constructed and as quoted."""
    return {
        "two_qubit": 1 - 15 * p2,
        "two_qutrit_constructed": 1 - 80 * p2,
        "two_qutrit_quoted": 1 - 81 * p2,
        "footnote": NO_ERROR_WEIGHT_FOOTNOTE,
    }
