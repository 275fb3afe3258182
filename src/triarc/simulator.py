"""Dense state-vector and density-matrix simulation for mixed-radix circuits.

Amplitudes are indexed in mixed radix with wire 0 as the most significant
digit, so the basis label "120" on dims (2, 3, 2) is index 1*6 + 2*2 + 0.
All operations are pure: they return new states and never mutate inputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import pi, prod, sqrt
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .circuits import (
    Circuit,
    GateInstance,
    GateKind,
    QUTRIT_ONLY_KINDS,
    WireSpec,
    _is_int,
    validate_gate,
)

if TYPE_CHECKING:
    from .noise import KrausChannel

UNITARY_DIM_GUARD = 2 ** 12      # largest full-space dimension for unitary extraction
DENSITY_WIRE_GUARD = 6           # largest wire count for a density matrix
MAX_STATE_DIM = 2 ** 26          # largest state-vector dimension for dense simulation


def check_state_dim(size: int) -> None:
    """Refuse a state vector of ``size`` amplitudes above MAX_STATE_DIM."""
    if size > MAX_STATE_DIM:
        raise ValueError(f"state dimension {size} exceeds MAX_STATE_DIM = {MAX_STATE_DIM}")


def _check_density_wires(dims: Sequence[int]) -> None:
    if len(dims) > DENSITY_WIRE_GUARD:
        raise ValueError(f"{len(dims)} wires exceed DENSITY_WIRE_GUARD = {DENSITY_WIRE_GUARD}")


_T_PHASE = np.exp(1j * pi / 4)
_QUBIT_MATRICES = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2),
    GateKind.T: np.diag([1, _T_PHASE]),
    GateKind.TDG: np.diag([1, np.conj(_T_PHASE)]),
    GateKind.S: np.diag([1, 1j]),
    GateKind.SDG: np.diag([1, -1j]),
    GateKind.Z: np.diag([1, -1]),
    GateKind.TOFFOLI: np.array([[0, 1], [1, 0]], dtype=complex),
}
# increment mod 3: columns |0>,|1>,|2> map to |1>,|2>,|0>
_XPLUS1 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)


def kind_matrix(kind: GateKind, dim: int) -> np.ndarray:
    """Target unitary of a gate kind on a wire of the given dimension.

    Qubit kinds embed on the {|0>,|1>} subspace of a qutrit wire, leaving
    |2> untouched.
    """
    if kind is GateKind.XPLUS1:
        return _XPLUS1.copy()
    if kind is GateKind.XMINUS1:
        return _XPLUS1.conj().T.copy()
    if kind is GateKind.MEASURE:
        raise ValueError("MEASURE has no unitary action")
    u2 = _QUBIT_MATRICES[kind]
    if dim == 2:
        return u2.copy()
    u3 = np.eye(3, dtype=complex)
    u3[:2, :2] = u2
    return u3


# ---------------------------------------------------------------------------
# labels and state values
# ---------------------------------------------------------------------------

def check_digits(dims: Sequence[int], digits: np.ndarray) -> None:
    """Refuse a digit array that is not one integer basis label per row on ``dims``."""
    if digits.ndim != 2 or digits.shape[1] != len(dims):
        raise ValueError(f"expected {len(dims)} digits per label, got shape {digits.shape}")
    if not np.issubdtype(digits.dtype, np.integer):
        raise ValueError(f"digits must be integers, got dtype {digits.dtype}")
    bad = (digits < 0) | (digits >= dims)
    if bad.any():
        row, wire = np.argwhere(bad)[0]
        where = f" in row {row}" if len(digits) > 1 else ""
        raise ValueError(f"digit {digits[row, wire]}{where} invalid on wire {wire} of dimension {dims[wire]}")


def parse_label(dims: Sequence[int], label: str | Sequence[int]) -> tuple[int, ...]:
    """Digits of a basis label, a string of digit characters or a sequence
    of integers; a sequence of floats or bools fails check_digits' dtype
    test, as the same digits do in ``run_basis``."""
    digits = [int(ch) for ch in label] if isinstance(label, str) else label
    row = np.array([digits]) if len(digits) else np.zeros((1, 0), dtype=np.int8)
    check_digits(dims, row)
    return tuple(row[0].tolist())


def label_to_index(dims: Sequence[int], label: str | Sequence[int]) -> int:
    idx = 0
    for digit, dim in zip(parse_label(dims, label), dims):
        idx = idx * dim + digit
    return idx


def index_digits(dims: Sequence[int], indices: np.ndarray) -> np.ndarray:
    """Basis digits of each index, one uint8 row per index. Peeled one wire
    at a time, so only one index-sized temporary is alive."""
    digits = np.empty((len(indices), len(dims)), dtype=np.uint8)
    rest = indices
    for wire in reversed(range(len(dims))):
        rest, digits[:, wire] = np.divmod(rest, dims[wire])
    return digits


def digit_labels(digits: np.ndarray) -> list[str]:
    """Basis label of each row of a C-contiguous array of one-byte digits,
    which become their ASCII codes in place and are read as fixed-width strings."""
    digits += ord("0")
    width = digits.shape[1]
    return digits.view(f"S{width}").ravel().astype(str).tolist() if width else [""] * len(digits)


def index_to_label(dims: Sequence[int], index: int) -> str:
    return digit_labels(index_digits(dims, np.array([index])))[0]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes over the mixed-radix basis."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        size = prod(self.dims)
        if self.amplitudes.shape != (size,):
            raise ValueError(f"amplitude vector must have length {size}")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite matrix over the basis."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        size = prod(self.dims)
        entries = self.entries
        if entries.shape != (size, size):
            raise ValueError(f"density matrix must be {size}x{size}")
        # exact equality first: evolve_density's outputs are exactly
        # Hermitian, so only other matrices pay for the tolerance test
        adjoint = entries.conj().T
        if not (np.array_equal(entries, adjoint) or np.allclose(entries, adjoint, atol=1e-10)):
            raise ValueError("density matrix must be Hermitian within 1e-10")
        trace = complex(np.trace(entries))
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {trace} deviates from 1")
        # the eigenvalue bound without an eigensolver: E + 1e-8 I has a
        # Cholesky factor iff lambda_min(E) > -1e-8 (up to round-off), and
        # the factorisation reads the lower triangle, as eigvalsh does
        try:
            np.linalg.cholesky(entries + 1e-8 * np.eye(size))
        except np.linalg.LinAlgError:
            raise ValueError("density matrix has an eigenvalue below -1e-8") from None


@dataclass(frozen=True)
class Histogram:
    """Shot counts keyed by basis-state label."""

    counts: dict[str, int]
    shots: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.shots:
            raise ValueError("histogram counts must sum to the shot total")


def basis_state(dims: Sequence[int], label: str | Sequence[int]) -> StateVector:
    dims = tuple(dims)
    size = prod(dims)
    check_state_dim(size)
    amps = np.zeros(size, dtype=complex)
    amps[label_to_index(dims, label)] = 1.0
    return StateVector(dims, amps)


def basis_density(dims: Sequence[int], label: str | Sequence[int]) -> DensityMatrix:
    _check_density_wires(dims)
    return density_from_state(basis_state(dims, label))


def density_from_state(state: StateVector) -> DensityMatrix:
    _check_density_wires(state.dims)
    return DensityMatrix(state.dims, np.outer(state.amplitudes, state.amplitudes.conj()))


def dominant_basis_label(state: StateVector, atol: float = 1e-12) -> str:
    """Label of the single basis state carrying all probability weight."""
    probs = np.abs(state.amplitudes) ** 2
    idx = int(np.argmax(probs))
    if abs(probs[idx] - 1.0) > atol:
        raise ValueError(f"state is not a basis state (max probability {probs[idx]})")
    return index_to_label(state.dims, idx)


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------

def _wire_specs(dims: Sequence[int]) -> tuple[WireSpec, ...]:
    return tuple(WireSpec(d) for d in dims)


@dataclass(frozen=True)
class _Action:
    """What a gate kind does to its target on a wire of one dimension.

    ``rows`` lists the non-identity rows of ``kind_matrix`` as
    (row, ((col, coeff), ...)) with nonzero terms in column order, so sums
    keep the order of a matrix-vector product; ``sources`` are the columns
    those rows read. A diagonal action scales each of its rows in place.
    """

    rows: tuple[tuple[int, tuple[tuple[int, complex], ...]], ...]
    sources: tuple[int, ...]
    diagonal: bool


def _action(kind: GateKind, dim: int) -> _Action:
    matrix = kind_matrix(kind, dim)
    rows = tuple(
        (r, tuple((c, matrix[r, c]) for c in range(dim) if matrix[r, c] != 0))
        for r in range(dim)
        if not (matrix[r, r] == 1 and all(matrix[r, c] == 0 for c in range(dim) if c != r))
    )
    sources = tuple(sorted({c for _, terms in rows for c, _ in terms}))
    diagonal = all(len(terms) == 1 and terms[0][0] == r for r, terms in rows)
    return _Action(rows, sources, diagonal)


_ACTIONS = {
    (kind, dim): _action(kind, dim)
    for kind in GateKind
    if kind is not GateKind.MEASURE
    for dim in (2, 3)
    if dim == 3 or kind not in QUTRIT_ONLY_KINDS
}


def _control_index(gate: GateInstance, axes: int, offset: int = 0) -> list:
    """Index of the block of a tensor where every control holds its value,
    with wire ``w`` on axis ``offset + w``. The trailing Ellipsis keeps a
    view, not a scalar, when every axis is fixed, and spans any later axes."""
    index: list = [slice(None)] * (offset + axes) + [Ellipsis]
    for c in gate.controls:
        index[offset + c.wire] = c.value
    return index


def _apply_inplace(
    tensor: np.ndarray, gate: GateInstance, dims: Sequence[int], scratch: np.ndarray
) -> None:
    """Apply ``gate`` to a dims-shaped amplitude tensor, mutating it.

    Each write goes through a view of one target level, conditioned on the
    controls. A diagonal gate scales its levels in place; any other gate
    first copies the levels it reads into ``scratch``, a flat buffer at
    least as large as the tensor, so no gate allocates. Every product keeps
    the scalar first (``np.multiply(coeff, a)``, bit-equal to ``coeff * a``
    but not to ``a *= coeff``), so amplitudes are bit-identical to a plain
    matrix-vector product that skips zero terms and unit factors.
    """
    target = gate.targets[0]
    dim = dims[target]
    action = _ACTIONS[gate.kind, dim]
    index = _control_index(gate, len(dims))

    def level(value: int) -> np.ndarray:
        index[target] = value
        return tensor[tuple(index)]

    if action.diagonal:
        for r, ((_, coeff),) in action.rows:
            out = level(r)
            np.multiply(coeff, out, out=out)
        return
    shape = level(0).shape
    block = scratch[: dim * prod(shape)].reshape((dim,) + shape)
    staged = [block[c, ...] for c in range(dim)]
    for c in action.sources:
        np.copyto(staged[c], level(c))
    rows = action.rows
    for i, (r, terms) in enumerate(rows):
        out = level(r)
        for j, (c, coeff) in enumerate(terms):
            if j == 0:
                if coeff == 1:
                    np.copyto(out, staged[c])
                else:
                    np.multiply(coeff, staged[c], out=out)
            elif coeff == 1:
                np.add(out, staged[c], out=out)
            else:
                # the product lands in the next row's level, not yet written,
                # or, in the last row, in the staged source of its first
                # term, which no later term reads
                spare = level(rows[i + 1][0]) if i + 1 < len(rows) else staged[terms[0][0]]
                np.add(out, np.multiply(coeff, staged[c], out=spare), out=out)


def apply_gate(state: StateVector, gate: GateInstance) -> StateVector:
    """New state with the gate's unitary applied on its targets, conditioned
    on every control wire holding its activation value."""
    validate_gate(gate, _wire_specs(state.dims))
    if gate.kind is GateKind.MEASURE:
        raise ValueError("MEASURE has no unitary action; use measure_all")
    tensor = state.amplitudes.reshape(state.dims).copy()
    _apply_inplace(tensor, gate, state.dims, np.empty(tensor.size, dtype=complex))
    return StateVector(state.dims, tensor.reshape(-1))


def simulate(circuit: Circuit, input: str | Sequence[int]) -> StateVector:
    """Run all gates on the given basis-state label. MEASURE gates are
    skipped; sampling lives in measure_all.

    Raises ValueError before allocating when the state dimension exceeds
    MAX_STATE_DIM.
    """
    dims = circuit.dims
    check_state_dim(prod(dims))
    tensor = basis_state(dims, input).amplitudes.reshape(dims)
    scratch = np.empty(tensor.size, dtype=complex)
    for gate in circuit.gates:
        if gate.kind is GateKind.MEASURE:
            continue
        _apply_inplace(tensor, gate, dims, scratch)
    return StateVector(dims, tensor.reshape(-1))


# Digit maps of the basis-permuting kinds: new digit = table[old digit],
# the row holding the 1 of each column of the kind's qutrit matrix.
_BASIS_TABLES = {
    kind: np.argmax(kind_matrix(kind, 3) == 1, axis=0).astype(np.int8)
    for kind in (GateKind.X, GateKind.TOFFOLI, GateKind.XPLUS1, GateKind.XMINUS1)
}


def run_basis(circuit: Circuit, digits: np.ndarray) -> np.ndarray:
    """Run a batch of basis inputs through a basis-permuting circuit.

    ``digits`` has shape (batch, wires), one basis label per row; the
    result is a new int8 array of the same shape and the input is left
    alone. Each gate is one masked update of its target column, so the
    cost is batch x gates instead of a dense state per input. MEASURE
    gates are skipped, as in ``simulate``; any gate that does not permute
    basis states (H, T, S, Z, ...) raises ValueError.
    """
    digits = np.asarray(digits)
    check_digits(circuit.dims, digits)
    state = digits.astype(np.int8)
    for index, gate in enumerate(circuit.gates):
        if gate.kind is GateKind.MEASURE:
            continue
        table = _BASIS_TABLES.get(gate.kind)
        if table is None:
            raise ValueError(f"gate {index} ({gate.kind.value}) does not permute basis states")
        target = gate.targets[0]
        column = table[state[:, target]]
        if gate.controls:
            active = np.logical_and.reduce([state[:, c.wire] == c.value for c in gate.controls])
            column = np.where(active, column, state[:, target])
        state[:, target] = column
    return state


def _unitary_on(circuit: Circuit, basis: np.ndarray) -> np.ndarray:
    """Unitary restricted to the given basis indices: simulate each of them
    as a column and keep its amplitudes on the same indices as rows."""
    matrix = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, digits in enumerate(index_digits(circuit.dims, basis)):
        matrix[:, col] = simulate(circuit, digits).amplitudes[basis]
    return matrix


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary, built by simulating each basis column."""
    size = prod(circuit.dims)
    if size > UNITARY_DIM_GUARD:
        raise ValueError(f"unitary extraction guarded at dimension {UNITARY_DIM_GUARD}")
    if any(g.kind is GateKind.MEASURE for g in circuit.gates):
        raise ValueError("circuit_unitary requires an all-gate circuit")
    return _unitary_on(circuit, np.arange(size))


def qubit_subspace_indices(dims: Sequence[int]) -> np.ndarray:
    """Indices of basis states whose digits are all 0 or 1."""
    dims = tuple(dims)
    idx = np.array([0])
    for dim in dims:
        idx = (idx[:, None] * dim + np.array([0, 1])[None, :]).reshape(-1)
    return idx


def qubit_subspace_unitary(circuit: Circuit) -> np.ndarray:
    """Unitary restricted to the qubit subspace: simulate each all-binary
    basis column and keep the amplitudes on all-binary rows.

    Stays within the extraction guard even when promoted qutrit wires push
    the full space beyond it.
    """
    if 2 ** len(circuit.dims) > UNITARY_DIM_GUARD:
        raise ValueError(f"subspace extraction guarded at dimension {UNITARY_DIM_GUARD}")
    if any(g.kind is GateKind.MEASURE for g in circuit.gates):
        raise ValueError("qubit_subspace_unitary requires an all-gate circuit")
    return _unitary_on(circuit, qubit_subspace_indices(circuit.dims))


# ---------------------------------------------------------------------------
# measurement sampling
# ---------------------------------------------------------------------------

def measure_all(state: StateVector, shots: int, seed: int) -> Histogram:
    """Sample basis labels with probability |amplitude|^2; deterministic
    under a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    outcomes = rng.choice(len(probs), size=shots, p=probs)
    values, counts = np.unique(outcomes, return_counts=True)
    labels = digit_labels(index_digits(state.dims, values))
    return Histogram(dict(zip(labels, counts.tolist())), shots)


def histogram_to_csv(hist: Histogram) -> str:
    lines = ["label,count"]
    lines += [f"{label},{hist.counts[label]}" for label in sorted(hist.counts)]
    return "\n".join(lines) + "\n"


def state_to_json(state: StateVector) -> str:
    return json.dumps([[float(a.real), float(a.imag)] for a in state.amplitudes])


# ---------------------------------------------------------------------------
# density-matrix evolution
# ---------------------------------------------------------------------------

def _contract(tensor: np.ndarray, op: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply ``op`` to the given axes of ``tensor`` (in that order): its
    input indices contract those axes and its output indices take their
    places, and no other axis is visited."""
    k = len(axes)
    local = op.reshape(tuple(tensor.shape[a] for a in axes) * 2)
    return np.moveaxis(np.tensordot(local, tensor, axes=(range(k, 2 * k), axes)), range(k), axes)


def evolve_density(
    rho: DensityMatrix,
    step: "GateInstance | KrausChannel",
    wires: Sequence[int] | None = None,
) -> DensityMatrix:
    """Evolve by a unitary gate or a Kraus channel on the given wires.

    A gate runs on the block where its controls hold their values: its
    target unitary U on the target's row axis, then conj(U) on the target's
    column axis; a channel runs as one contraction of its local
    superoperator over its row and column axes together. Round-off is
    symmetrized away so Hermiticity is exact on the output.
    """
    dims = rho.dims
    _check_density_wires(dims)
    n = len(dims)
    tensor = rho.entries.reshape(dims * 2)
    if isinstance(step, GateInstance):
        if wires is not None:
            raise ValueError("a gate acts on its own wires; wires applies only to a Kraus channel")
        validate_gate(step, _wire_specs(dims))
        target = step.targets[0]
        unitary = kind_matrix(step.kind, dims[target])
        # the target's axis within a block, once the control axes before it are fixed
        axis = target - sum(c.wire < target for c in step.controls)
        tensor = tensor.copy()
        for offset, op in ((0, unitary), (n, unitary.conj())):
            block = tuple(_control_index(step, n, offset))
            tensor[block] = _contract(tensor[block], op, [offset + axis])
    else:
        if wires is None:
            raise ValueError("a Kraus channel needs explicit wires")
        wires = tuple(wires)
        for w in wires:
            if not _is_int(w):
                raise ValueError(f"wire index must be an integer, got {w!r}")
        if len(set(wires)) != len(wires) or not all(0 <= w < n for w in wires):
            raise ValueError(f"channel wires {wires} must be distinct wires of {n}")
        local_dims = tuple(dims[w] for w in wires)
        if tuple(step.dims) != local_dims:
            raise ValueError(f"channel dims {step.dims} do not match wires {local_dims}")
        tensor = _contract(tensor, step.superoperator, wires + tuple(n + w for w in wires))
    out = tensor.reshape(rho.entries.shape)
    out = (out + out.conj().T) / 2
    return DensityMatrix(dims, out)
