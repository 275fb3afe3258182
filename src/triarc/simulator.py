"""State-vector and density-matrix simulation for mixed-radix circuits.

Amplitudes are indexed in mixed radix with wire 0 as the most significant
digit, so the basis label "120" on dims (2, 3, 2) is index 1*6 + 2*2 + 0.
Samples are counted by basis index; labels are built only where they are
printed. Public operations return new values and leave their inputs alone.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import pi, prod, sqrt
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .circuits import (
    Circuit,
    GateInstance,
    GateKind,
    QUTRIT_ONLY_KINDS,
    _check_dim,
    check_int,
    validate_gate,
)

if TYPE_CHECKING:
    from .noise import KrausChannel

MAX_STATE_DIM = 2 ** 26          # largest element count of any array the library allocates


def check_state_dim(size: int, what: str = "state dimension") -> None:
    """Refuse an array of ``size`` elements above MAX_STATE_DIM, a state
    vector's amplitudes unless ``what`` names other elements."""
    if size > MAX_STATE_DIM:
        raise ValueError(f"{what} {size} exceeds MAX_STATE_DIM = {MAX_STATE_DIM}")


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
    """Digits of a basis label, a string of ASCII digit characters or a
    sequence of integers; a sequence of floats or bools fails check_digits'
    dtype test, as the same digits do in ``run_basis``."""
    if isinstance(label, str) and not label.isascii():
        raise ValueError(f"basis label {label!r} holds a non-ASCII character")
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
    """Basis label of each row of an array of one-byte digits: a copy holds
    their ASCII codes and is read as fixed-width strings. Digits of any
    other dtype are refused, as their bytes would be read as characters."""
    if digits.dtype not in (np.int8, np.uint8):
        raise ValueError(f"digits must be one-byte integers, got dtype {digits.dtype}")
    codes = digits + ord("0")
    width = digits.shape[1]
    return codes.view(f"S{width}").ravel().astype(str).tolist() if width else [""] * len(digits)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes over the mixed-radix basis."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        for dim in self.dims:
            _check_dim(dim)
        size = prod(self.dims)
        if self.amplitudes.shape != (size,):
            raise ValueError(f"amplitude vector must have length {size}")
        squares = np.abs(self.amplitudes)
        squares **= 2
        norm = float(np.sum(squares))
        if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")


def _is_diagonal(entries: np.ndarray) -> bool:
    """Whether the square ``entries`` is a complex128 matrix whose every word
    off the diagonal is +0: its nonzero 32-bit words all lie on the
    diagonal, so a -0 or a NaN off it counts as an entry. Other dtypes are
    never diagonal here: the density check's shift refuses an integer matrix
    and its factorisation a float16 one, so they keep the full path."""
    if entries.dtype != complex:
        return False
    size = len(entries)
    words = np.ascontiguousarray(entries).view(np.uint32)
    total = np.count_nonzero(words)
    # more nonzero words than the diagonal holds settles it with one count
    return bool(total <= 4 * size and total == np.count_nonzero(words.reshape(size, size, 4).diagonal()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite matrix over the basis.

    Checked on construction, in this order: Hermitian by exact equality to
    its adjoint or else ``allclose(atol=1e-10)``, trace 1 within 1e-10, and
    no eigenvalue below -1e-8, tested as a Cholesky factorisation of
    ``E + 1e-8 I``. A matrix that ``_is_diagonal`` accepts (complex128, every
    off-diagonal word +0), as a basis-permuting circuit keeps rho under
    Pauli and damping noise, is checked on its diagonal alone with the same
    verdicts and messages: exact Hermitian when each diagonal entry equals
    its conjugate, and positive semidefinite when each
    ``Re(E_jj) + 1e-8 > 0``, the pivot test on which that factorisation
    fails for such a matrix.
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        size = prod(self.dims)
        entries = self.entries
        if entries.shape != (size, size):
            raise ValueError(f"density matrix must be {size}x{size}")
        diagonal = entries.diagonal()
        is_diagonal = _is_diagonal(entries)
        # exact equality first: _density_step's outputs are exactly
        # Hermitian, so only other matrices pay for the tolerance test; on a
        # diagonal matrix exact equality is each entry against its conjugate
        if not (is_diagonal and (diagonal == diagonal.conj()).all()):
            adjoint = entries.conj().T
            if not (np.array_equal(entries, adjoint) or np.allclose(entries, adjoint, atol=1e-10)):
                raise ValueError("density matrix must be Hermitian within 1e-10")
        trace = complex(np.trace(entries))
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {trace} deviates from 1")
        # the eigenvalue bound without an eigensolver: E + 1e-8 I has a
        # Cholesky factor iff lambda_min(E) > -1e-8 (up to round-off), and
        # the factorisation reads the lower triangle, as eigvalsh does. With
        # every off-diagonal entry zero, LAPACK's potrf fails exactly at the
        # first pivot Re(E_jj) + 1e-8 that is <= 0 or NaN, the float sum the
        # shifted copy holds, so a diagonal matrix is tested on that sum
        if is_diagonal:
            positive = (diagonal.real + 1e-8 > 0).all()
        else:
            shifted = entries.copy()
            shifted.reshape(-1)[:: size + 1] += 1e-8
            try:
                np.linalg.cholesky(shifted)
                positive = True
            except np.linalg.LinAlgError:
                positive = False
        if not positive:
            raise ValueError("density matrix has an eigenvalue below -1e-8")


@dataclass(frozen=True, eq=False)
class Histogram:
    """Shot counts on ``dims``, the two arrays ``np.unique(outcomes, return_counts=True)``
    returns: strictly increasing indices in ``[0, prod(dims))`` and non-negative counts."""

    dims: tuple[int, ...]
    indices: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        for name, values in (("indices", self.indices), ("counts", self.counts)):
            if not isinstance(values, np.ndarray) or values.ndim != 1 or values.dtype.kind not in "iu":
                raise ValueError(f"histogram {name} must be a 1-D integer array, got {values!r}")
        if len(self.indices) != len(self.counts):
            raise ValueError("histogram indices and counts must have equal lengths")
        size = prod(self.dims)
        outside = (self.indices < 0) | (self.indices >= size)
        if outside.any():
            raise ValueError(f"basis index {self.indices[outside][0]} outside [0, {size})")
        if (self.indices[1:] <= self.indices[:-1]).any():
            raise ValueError("histogram indices must strictly increase")
        negative = self.counts < 0
        if negative.any():
            raise ValueError(f"count of basis index {self.indices[negative][0]} must be non-negative, "
                             f"got {self.counts[negative][0]}")

    @property
    def shots(self) -> int:
        """The exact total of the counts, which an int64 or uint64 sum could wrap."""
        return sum(self.counts.tolist())


def basis_state(dims: Sequence[int], label: str | Sequence[int]) -> StateVector:
    dims = tuple(dims)
    for dim in dims:
        _check_dim(dim)
    # Python ints, so a product of numpy integers cannot wrap below the limit
    size = prod(map(int, dims))
    check_state_dim(size)
    amps = np.zeros(size, dtype=complex)
    amps[label_to_index(dims, label)] = 1.0
    return StateVector(dims, amps)


def basis_density(dims: Sequence[int], label: str | Sequence[int]) -> DensityMatrix:
    """|label><label|, refused before any array is built above MAX_STATE_DIM entries."""
    for dim in dims:
        _check_dim(dim)
    check_state_dim(prod(map(int, dims)) ** 2, "density matrix entries")
    state = basis_state(dims, label)
    return DensityMatrix(state.dims, np.outer(state.amplitudes, state.amplitudes.conj()))


def dominant_basis_label(state: StateVector) -> str:
    """Label of the single basis state carrying all probability weight
    to within 1e-12."""
    probs = np.abs(state.amplitudes) ** 2
    idx = int(np.argmax(probs))
    if abs(probs[idx] - 1.0) > 1e-12:
        raise ValueError(f"state is not a basis state (max probability {probs[idx]})")
    return digit_labels(index_digits(state.dims, np.array([idx])))[0]


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Action:
    """What a gate kind does to its target on a wire of one dimension.

    ``rows`` lists the non-identity rows of ``kind_matrix`` as
    (row, ((col, coeff), ...)) with nonzero terms in column order, so sums
    keep the order of a matrix-vector product, and ``read`` the columns
    they read, in order. A diagonal action scales each of its rows in
    place. ``keeps_zero`` says whether ``_apply_levels`` maps a column of +0
    to +0 bit for bit; a -1 or -1j factor (Z, SDG) writes -0.
    """

    rows: tuple[tuple[int, tuple[tuple[int, complex], ...]], ...]
    read: tuple[int, ...]
    diagonal: bool
    keeps_zero: bool


def _apply_levels(action: _Action, level: Callable[[int], np.ndarray]) -> None:
    """Apply ``action`` in place to the levels ``level(k)`` of one target,
    views of one shape. A diagonal action scales its levels in place; any
    other copies the levels its rows read once (so X or H on a qutrit wire
    leaves level 2 alone), then writes each product into a level that no
    later term reads, so none is allocated. Every product keeps the scalar
    first (``np.multiply(coeff, a)``, bit-equal to ``coeff * a`` but not to
    ``a *= coeff``), so amplitudes are bit-identical to a plain
    matrix-vector product that skips zero terms and unit factors.
    """
    rows, read = action.rows, action.read
    if action.diagonal:
        for r, ((_, coeff),) in rows:
            out = level(r)
            np.multiply(coeff, out, out=out)
        return
    staged = np.array([level(c) for c in read])
    for i, (r, terms) in enumerate(rows):
        out = level(r)
        for j, (c, coeff) in enumerate(terms):
            if j == 0:
                if coeff == 1:
                    np.copyto(out, staged[read.index(c)])
                else:
                    np.multiply(coeff, staged[read.index(c)], out=out)
            else:
                # the product lands in the next row's level, not yet written,
                # or, in the last row, in (a view of) the staged source of its
                # first term, which no later term reads
                spare = level(rows[i + 1][0]) if i + 1 < len(rows) else staged[read.index(terms[0][0]), ...]
                np.add(out, np.multiply(coeff, staged[read.index(c)], out=spare), out=out)


def _action(kind: GateKind, dim: int) -> _Action:
    matrix = kind_matrix(kind, dim)
    rows = tuple(
        (r, tuple((c, matrix[r, c]) for c in range(dim) if matrix[r, c] != 0))
        for r in range(dim)
        if not (matrix[r, r] == 1 and all(matrix[r, c] == 0 for c in range(dim) if c != r))
    )
    read = tuple(sorted({c for _, terms in rows for c, _ in terms}))
    diagonal = all(len(terms) == 1 and terms[0][0] == r for r, terms in rows)
    column = np.zeros((dim, 1), dtype=complex)
    _apply_levels(_Action(rows, read, diagonal, True), column.__getitem__)
    return _Action(rows, read, diagonal, not np.signbit(column.view(float)).any())


_ACTIONS = {
    (kind, dim): _action(kind, dim)
    for kind in GateKind
    for dim in (2, 3)
    if dim == 3 or kind not in QUTRIT_ONLY_KINDS
}


# Digit maps of the basis-permuting kinds: new digit = table[old digit],
# the row holding the 1 of each column of the kind's qutrit matrix.
_BASIS_TABLES = {
    kind: np.argmax(kind_matrix(kind, 3) == 1, axis=0).astype(np.int8)
    for kind in (GateKind.X, GateKind.TOFFOLI, GateKind.XPLUS1, GateKind.XMINUS1)
}


def _control_index(gate: GateInstance, axes: int, offset: int = 0) -> list:
    """Index of the block of a tensor where every control holds its value,
    with wire ``w`` on axis ``offset + w``. The trailing Ellipsis keeps a
    view, not a scalar, when every axis is fixed, and spans any later axes."""
    index: list = [slice(None)] * (offset + axes) + [Ellipsis]
    for c in gate.controls:
        index[offset + c.wire] = c.value
    return index


def _apply_inplace(tensor: np.ndarray, gate: GateInstance, dims: Sequence[int]) -> None:
    """Apply ``gate`` to a dims-shaped amplitude tensor, mutating it through
    views of its target's levels where the controls hold their values."""
    target = gate.target
    action = _ACTIONS[gate.kind, dims[target]]
    index = _control_index(gate, len(dims))

    def level(value: int) -> np.ndarray:
        index[target] = value
        return tensor[tuple(index)]

    _apply_levels(action, level)


# The sparse start hands the state to the dense kernel once
# support * _SWITCH_FRACTION > size.
_SWITCH_FRACTION = 16


def _digits(idx: np.ndarray, dim: int, stride: int) -> np.ndarray:
    """``idx // stride % dim``, the digits of the non-negative basis indices
    ``idx`` on a wire of dimension ``dim`` and place value ``stride``: a shift
    in place of the division where the stride is a power of two, and ``& 1``
    in place of ``% 2`` on a qubit wire, each several times cheaper."""
    shift = stride.bit_length() - 1
    quotient = idx >> shift if stride == 1 << shift else idx // stride
    return quotient & 1 if dim == 2 else quotient % dim


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for a 1-D int64 array: the
    sorted distinct keys and the slot of each key among them, from one
    ``argsort`` and a first-of-run mask, without ``np.unique``'s overhead."""
    order = keys.argsort()
    ordered = keys[order]
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    slot = np.empty(len(order), dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    return ordered[first], slot


def _controls_hold(idx: np.ndarray, gate: GateInstance, dims: Sequence[int], strides: Sequence[int]) -> np.ndarray:
    """Mask of the basis indices ``idx`` at which every control of ``gate`` holds its value."""
    return np.logical_and.reduce([_digits(idx, dims[c.wire], strides[c.wire]) == c.value for c in gate.controls])


def _apply_sparse(
    idx: np.ndarray, amp: np.ndarray, gate: GateInstance, dims: Sequence[int], strides: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``gate`` to the state holding ``amp`` at the distinct indices
    ``idx`` and +0 everywhere else, as ``_apply_inplace`` applies it to the
    dense tensor, bit for bit; ``idx`` and ``amp`` may be overwritten.

    The gate's action must keep zeros, so that a base holding no entry
    stays +0 in the dense kernel too. A basis-permuting kind moves only
    indices: an index whose controls hold shifts by its target digit's move
    in the kind's ``_BASIS_TABLES`` map, the one ``run_basis`` reads, and
    each amplitude, which the dense kernel copies, stays. Any other
    non-diagonal gate runs the dense kernel's ``_apply_levels`` on a
    (levels, bases) block of the bases that hold entries, and an output is
    dropped only when both its words are +0. Every digit is read by
    ``_digits`` and the bases are grouped by ``_group``.
    """
    target = gate.target
    dim, stride = dims[target], strides[target]
    table = _BASIS_TABLES.get(gate.kind)
    if table is not None:
        digit = _digits(idx, dim, stride)
        move = (table[digit] - digit) * stride
        if gate.controls:
            move *= _controls_hold(idx, gate, dims, strides)
        idx += move
        return idx, amp
    action = _ACTIONS[gate.kind, dim]
    if gate.controls:
        on = _controls_hold(idx, gate, dims, strides)
        idle_idx, idle_amp = idx[~on], amp[~on]
        idx, amp = idx[on], amp[on]
    digit = _digits(idx, dim, stride)
    if action.diagonal:
        # numpy rounds a one-element in-place complex product without fused
        # multiply-add, and every other product with it, so scale in place
        # exactly where the dense kernel's level has one element
        in_place = prod(dims) == dim * prod(dims[c.wire] for c in gate.controls)
        for r, ((_, coeff),) in action.rows:
            at = digit == r
            level = amp[at]
            amp[at] = np.multiply(coeff, level, out=level if in_place else None)
    else:
        bases, slot = _group(idx - digit * stride)
        block = np.zeros((dim, len(bases)), dtype=complex)
        block[digit, slot] = amp
        _apply_levels(action, block.__getitem__)
        words = block.view(np.uint64)
        keep = (words[:, 0::2] | words[:, 1::2]).astype(bool)
        idx = (bases + stride * np.arange(dim)[:, None])[keep]
        amp = block[keep]
    if gate.controls:
        idx, amp = np.concatenate([idle_idx, idx]), np.concatenate([idle_amp, amp])
    return idx, amp


def _evolve(circuit: Circuit, index: int) -> np.ndarray:
    """Flat amplitudes of ``circuit`` run from basis index ``index``.

    The run starts on the sparse support, which holds the one index, and
    scatters into the dense tensor for the rest of the circuit once the
    support exceeds 1/_SWITCH_FRACTION of the state, or before a gate that
    does not keep zeros. Either way the amplitudes equal a dense run's bit
    for bit. A basis-permuting gate only moves the support's indices, so
    an entry holding +0 stays in the support after it and counts toward
    the switch; that can only move the switch, never a bit.
    """
    dims = circuit.dims
    size = prod(dims)
    strides = [prod(dims[w + 1:]) for w in range(len(dims))]
    gates = circuit.gates
    idx, amp = np.array([index], dtype=np.int64), np.ones(1, dtype=complex)
    done = 0
    for gate in gates:
        if len(idx) * _SWITCH_FRACTION > size or not _ACTIONS[gate.kind, dims[gate.target]].keeps_zero:
            break
        idx, amp = _apply_sparse(idx, amp, gate, dims, strides)
        done += 1
    amplitudes = np.zeros(size, dtype=complex)
    amplitudes[idx] = amp
    del idx, amp  # freed before the first dense gate copies its levels
    tensor = amplitudes.reshape(dims)
    for gate in gates[done:]:
        _apply_inplace(tensor, gate, dims)
    return amplitudes


def simulate(circuit: Circuit, input: str | Sequence[int]) -> StateVector:
    """Run all gates on the given basis-state label; sampling lives in
    measure_all.

    Raises ValueError before the first gate when the state dimension
    exceeds MAX_STATE_DIM.
    """
    dims = circuit.dims
    check_state_dim(prod(dims))
    return StateVector(dims, _evolve(circuit, label_to_index(dims, input)))


def run_basis(circuit: Circuit, digits: np.ndarray) -> np.ndarray:
    """Run a batch of basis inputs through a basis-permuting circuit.

    ``digits`` has shape (batch, wires), one basis label per row; the
    result is a new int8 array of the same shape and the input is left
    alone. Each gate is one masked update of its target column, so the
    cost is batch x gates instead of a dense state per input. Any gate
    that does not permute basis states (H, T, S, Z, ...) raises ValueError.
    """
    digits = np.asarray(digits)
    check_digits(circuit.dims, digits)
    state = digits.astype(np.int8)
    for index, gate in enumerate(circuit.gates):
        table = _BASIS_TABLES.get(gate.kind)
        if table is None:
            raise ValueError(f"gate {index} ({gate.kind.value}) does not permute basis states")
        target = gate.target
        column = table[state[:, target]]
        if gate.controls:
            active = np.logical_and.reduce([state[:, c.wire] == c.value for c in gate.controls])
            column = np.where(active, column, state[:, target])
        state[:, target] = column
    return state


def _unitary_on(circuit: Circuit, basis: np.ndarray) -> np.ndarray:
    """Unitary restricted to the given basis indices: run each of them as a
    column and keep its amplitudes on the same indices as rows."""
    matrix = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, index in enumerate(basis.tolist()):
        matrix[:, col] = _evolve(circuit, index)[basis]
    return matrix


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary, built by simulating each basis column; refused before
    anything is built when its size^2 entries exceed MAX_STATE_DIM."""
    size = prod(circuit.dims)
    check_state_dim(size ** 2, "unitary entries")
    return _unitary_on(circuit, np.arange(size))


def qubit_subspace_indices(dims: Sequence[int]) -> np.ndarray:
    """Indices of basis states whose digits are all 0 or 1, refused before
    they are built when their 2^wires exceed MAX_STATE_DIM."""
    dims = tuple(dims)
    check_state_dim(2 ** len(dims), "qubit subspace dimension")
    idx = np.array([0])
    for dim in dims:
        idx = (idx[:, None] * dim + np.array([0, 1])[None, :]).reshape(-1)
    return idx


def qubit_subspace_unitary(circuit: Circuit) -> np.ndarray:
    """Unitary restricted to the qubit subspace: simulate each all-binary
    basis column and keep the amplitudes on all-binary rows.

    Refused before anything is built when its 4^wires entries exceed
    MAX_STATE_DIM; they bound the at most 3^wires amplitudes of the full
    state each column runs on too.
    """
    check_state_dim(4 ** len(circuit.dims), "qubit subspace unitary entries")
    return _unitary_on(circuit, qubit_subspace_indices(circuit.dims))


# ---------------------------------------------------------------------------
# measurement sampling
# ---------------------------------------------------------------------------

def measure_all(state: StateVector, shots: int, seed: int) -> Histogram:
    """Count basis indices sampled with probability |amplitude|^2, in index
    order; deterministic under a fixed seed. More shots than MAX_STATE_DIM
    are refused before any outcome is drawn.

    The draw takes the steps of ``Generator.choice(len(probs), size=shots,
    p=probs)``: normalised cumulative sum, one ``random`` per shot, right-side
    search. It searches the draws in sorted order, so each search starts
    from the last one's result and the cumulative sum is read in order, not
    at random; each draw keeps its outcome, so the counts equal ``choice``'s.
    """
    check_int(shots=shots, seed=seed)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    check_state_dim(shots, "shot count")
    rng = np.random.default_rng(seed)
    probs = np.abs(state.amplitudes)
    probs **= 2
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    draws = rng.random(shots)
    draws.sort()
    outcomes = cdf.searchsorted(draws, side="right")
    return Histogram(state.dims, *np.unique(outcomes, return_counts=True))


def histogram_to_csv(hist: Histogram) -> str:
    """One ``label,count`` row per outcome in index order, which is label
    order: labels are fixed-width digit strings, wire 0 first."""
    labels = digit_labels(index_digits(hist.dims, hist.indices))
    lines = ["label,count"]
    lines += [f"{label},{count}" for label, count in zip(labels, hist.counts.tolist())]
    return "\n".join(lines) + "\n"


def state_to_json(state: StateVector) -> str:
    return json.dumps([[float(a.real), float(a.imag)] for a in state.amplitudes])


# ---------------------------------------------------------------------------
# density-matrix evolution
# ---------------------------------------------------------------------------

def _contract(tensor: np.ndarray, op: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply the C-contiguous square ``op`` to the given axes of ``tensor``
    (in that order): its input indices contract those axes and its output
    indices take their places, and no other axis is visited. It runs the
    ``np.dot`` of ``np.tensordot(op, tensor)`` on the same operands, without
    that call's and ``np.moveaxis``'s axis bookkeeping."""
    order = list(axes) + [a for a in range(tensor.ndim) if a not in axes]
    moved = tensor.transpose(order)
    product = np.dot(op, moved.reshape(len(op), -1))
    # the product's axes come in ``order``; its argsort puts each back in place
    return product.reshape(moved.shape).transpose(sorted(range(len(order)), key=order.__getitem__))


def _channel_diagonal(diagonal: np.ndarray, dims: tuple[int, ...], superoperator: np.ndarray,
                      wires: tuple[int, ...]) -> np.ndarray:
    """The diagonal of a channel's contraction over ``wires`` of the diagonal
    matrix holding ``diagonal``. Each column of the (d^2, rest) block holds
    one basis state of the other wires, its diagonal entries in the (k, k)
    rows and +0 elsewhere: the diagonal columns of the full contraction's
    block, with the same operator and inner dimension, so each kept (i, i)
    entry is the same BLAS sum."""
    order = list(wires) + [w for w in range(len(dims)) if w not in wires]
    local = prod(dims[w] for w in wires)
    columns = np.zeros((local * local, len(diagonal) // local), dtype=complex)
    # row (k, k) of the block is row k * (local + 1)
    columns[:: local + 1] = diagonal.reshape(dims).transpose(order).reshape(local, -1)
    kept = np.dot(superoperator, columns)[:: local + 1].reshape([dims[w] for w in order])
    return kept.transpose(sorted(range(len(order)), key=order.__getitem__)).reshape(-1)


def _density_step(entries: np.ndarray, dims: tuple[int, ...], step, wires) -> np.ndarray:
    """Evolve a raw density matrix by a gate, or a channel on ``wires``, with
    no check, into a new array.

    A basis-permuting gate (a kind in ``_BASIS_TABLES``, with any controls)
    runs the dense kernel, ``_apply_inplace``, on a copy of rho: on the row
    axes of its ``dims * 2`` tensor, then on the column axes of the same
    copy. That kernel only copies such a kind's levels, so each entry moves
    from (i, j) to (f(i), f(j)), f the gate's basis map, bit for bit and in
    rho's dtype. Any other gate runs, in complex128, on the block where its
    controls hold their values: its target unitary U on the target's row
    axis, then conj(U) on the target's column axis. A channel runs as one
    contraction of its local superoperator over its row and column axes
    together.
    Round-off is symmetrized away so Hermiticity is exact on the output:
    conj(out^T), then + out, then / 2, in one buffer, the bits of
    (out + out^dag) / 2.

    A rho that ``_is_diagonal`` accepts (every off-diagonal word +0) stays
    diagonal under a basis-permuting gate and under a channel that
    ``keeps_diagonal`` (depolarizing, damping), so those steps run on its
    diagonal alone, in O(D) for the gate: the same kernel moves the
    diagonal, reshaped to ``dims``, as it moves an amplitude vector, and the
    channel, when every diagonal entry is finite (0 * inf would put NaN off
    the diagonal), keeps the (i, i) rows of ``_channel_diagonal``. The same
    symmetrisation runs on that diagonal, and the output is the zero matrix
    holding it, the +0 words the full step writes off the diagonal.
    Non-permuting gates (whose phases need not cancel bit for bit), other
    channels and other states take the full step.

    The output is bit-identical to the reference step the tests keep (every
    gate as two ``np.tensordot`` contractions, every channel as one) on a
    finite rho that holds no -0 word, as every rho triarc builds and every
    output of this step holds none. Where a caller's rho holds -0 words, a
    permutation copies them where a contraction may write +0, so the values
    are equal but some zero words may differ in sign; where it holds NaN or
    infinity, some NaN words may differ in sign, as the reference adds the
    two halves of the symmetrisation in the other order.
    """
    gate = isinstance(step, GateInstance)
    permutes = gate and step.kind in _BASIS_TABLES
    on_diagonal = (permutes or not gate and step.keeps_diagonal) and _is_diagonal(entries)
    if on_diagonal and not gate:
        on_diagonal = np.isfinite(entries.diagonal()).all()
    n = len(dims)
    if permutes:
        out = (entries.diagonal() if on_diagonal else entries).copy()
        tensor = out.reshape(dims if on_diagonal else dims * 2)
        _apply_inplace(tensor, step, dims)
        if not on_diagonal:
            # column axes first; _control_index's Ellipsis spans the row axes
            _apply_inplace(tensor.transpose(tuple(range(n, 2 * n)) + tuple(range(n))), step, dims)
        buffer = np.empty_like(out)
    elif on_diagonal:
        out = _channel_diagonal(entries.diagonal(), dims, step.superoperator, wires)
        buffer = np.empty_like(out)
    else:
        tensor = entries.reshape(dims * 2)
        if gate:
            target = step.target
            unitary = kind_matrix(step.kind, dims[target])
            # the target's axis within a block, once the control axes before it are fixed
            axis = target - sum(c.wire < target for c in step.controls)
            # a complex copy, whatever rho's dtype, to hold the complex blocks written into it
            tensor = tensor.astype(complex, order="C")
            for offset, op in ((0, unitary), (n, unitary.conj())):
                block = tuple(_control_index(step, n, offset))
                tensor[block] = _contract(tensor[block], op, [offset + axis])
        else:
            tensor = _contract(tensor, step.superoperator, wires + tuple(n + w for w in wires))
        # left as a tensor: its matrix form would be a copy
        out = tensor
        buffer = np.empty(out.shape, dtype=complex)
    # out^T swaps the row axes with the column axes of a matrix or a tensor,
    # and leaves a diagonal as it is
    half = out.ndim // 2
    np.conjugate(out.transpose(tuple(range(half, out.ndim)) + tuple(range(half))), out=buffer)
    buffer += out
    # a complex division, not * 0.5: the two differ in the sign of a zero word
    np.true_divide(buffer, 2, out=buffer)
    if not on_diagonal:
        return buffer.reshape(entries.shape)
    matrix = np.zeros(entries.shape, dtype=complex)
    matrix.reshape(-1)[:: len(matrix) + 1] = buffer
    return matrix


def evolve_density(
    rho: DensityMatrix,
    step: "GateInstance | KrausChannel",
    wires: Sequence[int] | None = None,
) -> DensityMatrix:
    """``_density_step`` by a unitary gate, or a Kraus channel on ``wires``,
    with the step checked against ``rho``'s wires and the output checked.

    This is the checked public step that ``perfbench``'s noise loop and the
    tests call; ``noise.run_noisy`` runs ``_density_step`` unchecked."""
    dims = rho.dims
    for dim in dims:
        _check_dim(dim)
    n = len(dims)
    if isinstance(step, GateInstance):
        if wires is not None:
            raise ValueError("a gate acts on its own wires; wires applies only to a Kraus channel")
        validate_gate(step, dims)
    else:
        if wires is None:
            raise ValueError("a Kraus channel needs explicit wires")
        wires = tuple(wires)
        for w in wires:
            check_int(**{"wire index": w})
        if len(set(wires)) != len(wires) or not all(0 <= w < n for w in wires):
            raise ValueError(f"channel wires {wires} must be distinct wires of {n}")
        local_dims = tuple(dims[w] for w in wires)
        if tuple(step.dims) != local_dims:
            raise ValueError(f"channel dims {step.dims} do not match wires {local_dims}")
    return DensityMatrix(dims, _density_step(rho.entries, dims, step, wires))
