"""State-vector and density-matrix simulation against independent oracles."""
import hashlib
import itertools
import json
import re
import tracemalloc
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triarc import arith
from triarc import circuits as C
from triarc import noise as N
from triarc import pricing
from triarc import simulator as S
from triarc import transpile

from test_circuits import circuits_strategy, triple_lowering_gates


def toffoli_permutation():
    """Classical oracle: 8x8 permutation of (a, b, t) -> (a, b, t ^ (a & b))."""
    matrix = np.zeros((8, 8))
    for a in range(2):
        for b in range(2):
            for t in range(2):
                src = (a << 2) | (b << 1) | t
                dst = (a << 2) | (b << 1) | (t ^ (a & b))
                matrix[dst, src] = 1
    return matrix


# --- single gates ---------------------------------------------------------

def one_gate(dims, gate, label):
    return S.simulate(C.append(C.new_circuit(dims), gate), label)


def test_x_flips_qubit():
    assert S.dominant_basis_label(one_gate([2], C.x(0), "0")) == "1"


def test_xplus1_wraps_2_to_0():
    assert S.dominant_basis_label(one_gate([3], C.xplus1(0), "2")) == "0"


def test_controlled_xplus1_elevates_second_wire():
    assert S.dominant_basis_label(one_gate([2, 3], C.controlled(C.xplus1(1), 0, 1), "11")) == "12"


# --- simulate -------------------------------------------------------------

def qutrit_lowered_toffoli():
    return C.extend(C.new_circuit([2, 3, 2]), triple_lowering_gates())


def test_lowered_toffoli_110_to_111():
    assert S.dominant_basis_label(S.simulate(qutrit_lowered_toffoli(), "110")) == "111"


def test_lowered_toffoli_control_off():
    assert S.dominant_basis_label(S.simulate(qutrit_lowered_toffoli(), "100")) == "100"


def test_simulate_rejects_bad_label():
    with pytest.raises(ValueError):
        S.simulate(qutrit_lowered_toffoli(), "210")  # digit 2 on a qubit wire
    with pytest.raises(ValueError):
        S.simulate(qutrit_lowered_toffoli(), "11")  # wrong length


@pytest.mark.parametrize(
    "dims, label",
    [((2,), [1.9]), ((2, 2), [True, 0.5]), ((2, 2), [True, False]), ((3,), np.array([2.7]))],
)
def test_a_label_of_non_integers_is_refused_as_run_basis_refuses_it(dims, label):
    with pytest.raises(ValueError, match="digits must be integers") as parsed:
        S.parse_label(dims, label)
    with pytest.raises(ValueError, match="digits must be integers"):
        S.basis_state(dims, label)
    with pytest.raises(ValueError) as batch:
        S.run_basis(C.new_circuit(dims), np.array([label]))
    assert str(parsed.value) == str(batch.value)


def test_string_and_integer_labels_give_plain_int_digits():
    dims = (2, 3, 3)
    labels = ["121", [1, 2, 1], (1, np.int64(2), 1), np.array([1, 2, 1], dtype=np.uint8)]
    for label in labels:
        digits = S.parse_label(dims, label)
        assert digits == (1, 2, 1) and all(type(d) is int for d in digits)
    assert S.parse_label((), "") == S.parse_label((), []) == ()
    with pytest.raises(ValueError, match="invalid literal"):
        S.parse_label((2,), "a")


@pytest.mark.parametrize("label", ["\uff110", "\u0661\u0660", "1\u00b2"],
                         ids=["fullwidth", "arabic-indic", "superscript"])
def test_a_label_with_a_non_ascii_character_is_refused(label):
    """int() reads the first two as the digits 10, which named the state |10>."""
    with pytest.raises(ValueError, match=f"basis label '{label}' holds a non-ASCII character"):
        S.parse_label((2, 2), label)


# --- circuit_unitary ------------------------------------------------------

def test_empty_circuit_unitary_is_identity():
    assert np.allclose(S.circuit_unitary(C.new_circuit([2, 2])), np.eye(4))


def test_single_x_unitary():
    circ = C.append(C.new_circuit([2]), C.x(0))
    assert np.allclose(S.circuit_unitary(circ), [[0, 1], [1, 0]])


def test_lowered_toffoli_restricted_unitary_is_permutation():
    # brute force over all 27 basis states, select the 8 qubit-subspace rows/cols
    full = S.circuit_unitary(qutrit_lowered_toffoli())
    sub = S.qubit_subspace_indices((2, 3, 2))
    restricted = full[np.ix_(sub, sub)]
    assert np.allclose(restricted, toffoli_permutation(), atol=1e-10)
    assert np.allclose(restricted, S.qubit_subspace_unitary(qutrit_lowered_toffoli()))


def test_subspace_guard_checks_size_before_indexing(monkeypatch):
    # exactly MAX_STATE_DIM entries are admitted
    monkeypatch.setattr(S, "MAX_STATE_DIM", 64)
    assert np.allclose(S.qubit_subspace_unitary(qutrit_lowered_toffoli()), toffoli_permutation(), atol=1e-10)
    monkeypatch.undo()

    def no_indices(*args):
        raise AssertionError("qubit_subspace_unitary built indices beyond MAX_STATE_DIM")

    monkeypatch.setattr(S, "qubit_subspace_indices", no_indices)
    with pytest.raises(ValueError, match=f"^qubit subspace unitary entries {4 ** 33} exceeds MAX_STATE_DIM = {2 ** 26}$"):
        S.qubit_subspace_unitary(C.new_circuit([2] * 33))


def test_qubit_subspace_indices_refused_above_state_limit(monkeypatch):
    monkeypatch.setattr(S, "MAX_STATE_DIM", 16)
    assert len(S.qubit_subspace_indices([3] * 4)) == 16
    with pytest.raises(ValueError, match="qubit subspace dimension 32 exceeds MAX_STATE_DIM = 16"):
        S.qubit_subspace_indices([3] * 5)


def test_unitary_guard(monkeypatch):
    # exactly MAX_STATE_DIM entries are admitted
    monkeypatch.setattr(S, "MAX_STATE_DIM", 16)
    assert np.allclose(S.circuit_unitary(C.new_circuit([2, 2])), np.eye(4))
    monkeypatch.undo()

    def no_unitary(*args):
        raise AssertionError("circuit_unitary built a unitary beyond MAX_STATE_DIM")

    monkeypatch.setattr(S, "_unitary_on", no_unitary)
    with pytest.raises(ValueError, match=f"^unitary entries {2 ** 28} exceeds MAX_STATE_DIM = {2 ** 26}$"):
        S.circuit_unitary(C.new_circuit([2] * 14))
    with pytest.raises(ValueError, match=f"^unitary entries {2 ** 128} exceeds"):
        S.circuit_unitary(C.new_circuit([2] * 64))  # 2^64 overflows int64


# --- measure_all ----------------------------------------------------------

def counts_of(hist):
    """A histogram's counts keyed by basis index, as plain ints."""
    return dict(zip(hist.indices.tolist(), hist.counts.tolist()))


def test_measure_basis_state_single_bucket():
    hist = S.measure_all(S.basis_state([2, 3], "12"), shots=50, seed=1)
    assert counts_of(hist) == {1 * 3 + 2: 50}
    assert hist.dims == (2, 3)
    assert hist.shots == 50
    assert counts_of(S.measure_all(S.basis_state([], ""), shots=3, seed=1)) == {0: 3}


def test_measure_uniform_superposition_within_binomial_bound():
    hist = S.measure_all(one_gate([2], C.h(0), "0"), shots=100_000, seed=3)
    for index in (0, 1):
        assert abs(counts_of(hist)[index] / 100_000 - 0.5) < 0.02


def test_measure_deterministic_under_seed():
    state = one_gate([2, 2], C.h(0), "00")
    a = S.measure_all(state, shots=500, seed=11)
    b = S.measure_all(state, shots=500, seed=11)
    assert a.dims == b.dims
    assert np.array_equal(a.indices, b.indices) and np.array_equal(a.counts, b.counts)


def test_measure_all_refuses_shots_above_state_limit_before_sampling(monkeypatch):
    state = S.basis_state([2], "1")
    monkeypatch.setattr(S, "MAX_STATE_DIM", 16)
    assert counts_of(S.measure_all(state, shots=16, seed=0)) == {1: 16}

    def no_rng(*args, **kwargs):
        raise AssertionError("measure_all sampled beyond MAX_STATE_DIM")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    with pytest.raises(ValueError, match="shot count 17 exceeds MAX_STATE_DIM = 16"):
        S.measure_all(state, shots=17, seed=0)


@pytest.mark.parametrize("shots", [2.5, 2.0, True, "3"])
def test_measure_all_refuses_a_non_integer_shot_count(shots):
    state = S.basis_state([2], "1")
    with pytest.raises(ValueError, match="^shots must be an integer, got "):
        S.measure_all(state, shots, seed=0)
    assert counts_of(S.measure_all(state, np.int64(3), seed=0)) == {1: 3}


@pytest.mark.parametrize("seed", [True, 1.5, 2.0, "3", None])
def test_measure_all_refuses_a_non_integer_seed(seed):
    """True was read as seed 1 and 1.5 raised numpy's TypeError."""
    state = one_gate([2], C.h(0), "0")
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        S.measure_all(state, 10, seed)
    numpy_seeded = S.measure_all(state, 1000, np.int64(7))
    assert np.array_equal(numpy_seeded.counts, S.measure_all(state, 1000, 7).counts)


def reference_index_to_label(dims, index):
    # the digit loop that wrote a label before the basis codec was shared
    digits = []
    for dim in reversed(dims):
        digits.append(index % dim)
        index //= dim
    return "".join(str(d) for d in reversed(digits))


@given(st.lists(st.sampled_from([2, 3]), min_size=0, max_size=8), st.data())
@settings(max_examples=80, deadline=None)
def test_basis_codec_matches_independent_references(dims, data):
    size = prod(dims)
    indices = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6, unique=True))
    labels = {}
    for index in indices:
        label = reference_index_to_label(dims, index)
        assert label == "".join(str(d) for d in np.unravel_index(index, dims))
        assert S.label_to_index(dims, label) == index
        labels[index] = label
    assert S.digit_labels(S.index_digits(dims, np.array(indices))) == [labels[i] for i in indices]
    amplitudes = np.zeros(size, dtype=complex)
    amplitudes[indices] = 1 / np.sqrt(len(indices))
    hist = S.measure_all(S.StateVector(tuple(dims), amplitudes), shots=200, seed=len(indices))
    assert len(hist.indices) and set(hist.indices.tolist()) <= set(indices)
    single = S.measure_all(S.basis_state(dims, labels[indices[0]]), shots=5, seed=0)
    assert counts_of(single) == {indices[0]: 5}


def test_digit_labels_leave_their_digits_alone():
    digits = np.array([[0, 2], [1, 1]], dtype=np.uint8)
    assert S.digit_labels(digits) == ["02", "11"]
    assert digits.tolist() == [[0, 2], [1, 1]]
    assert S.digit_labels(digits[:, ::-1]) == ["20", "11"]  # not C-contiguous


@pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint32, bool, float])
def test_digit_labels_refuse_digits_wider_than_one_byte(dtype):
    with pytest.raises(ValueError, match=f"^digits must be one-byte integers, got dtype {np.dtype(dtype)}$"):
        S.digit_labels(np.array([[0, 1], [1, 0]], dtype=dtype))


def test_histogram_csv_format():
    hist = S.Histogram((2, 2), np.array([0, 1]), np.array([3, 2]))
    assert S.histogram_to_csv(hist) == "label,count\n00,3\n01,2\n"
    assert S.histogram_to_csv(S.Histogram((), np.array([0]), np.array([4]))) == "label,count\n,4\n"


def reference_labels(dims, indices):
    return [reference_index_to_label(dims, index) for index in indices.tolist()]


def label_keyed_counts(state, shots, seed, labels=reference_labels):
    """``measure_all`` as it was when it keyed counts by label: the same
    draw, then ``labels(dims, indices)`` of the distinct outcomes."""
    rng = np.random.default_rng(seed)
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    values, counts = np.unique(rng.choice(len(probs), size=shots, p=probs), return_counts=True)
    return dict(zip(labels(state.dims, values), counts.tolist()))


@st.composite
def mixed_radix_states(draw):
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=0, max_size=6)))
    size = prod(dims)
    amplitudes = np.array(draw(st.lists(st.complex_numbers(max_magnitude=1, allow_nan=False),
                                        min_size=size, max_size=size)), dtype=complex)
    amplitudes[draw(st.integers(0, size - 1))] += 2.0  # some amplitude of magnitude >= 1
    return S.StateVector(dims, amplitudes / np.linalg.norm(amplitudes))


@given(mixed_radix_states(), st.integers(1, 2000), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_histogram_csv_equals_the_label_sorted_csv(state, shots, seed):
    label_counts = label_keyed_counts(state, shots, seed)
    rows = [f"{label},{label_counts[label]}" for label in sorted(label_counts)]
    assert S.histogram_to_csv(S.measure_all(state, shots, seed)) == "\n".join(["label,count", *rows]) + "\n"


def index_keyed_counts(state, shots, seed):
    return label_keyed_counts(state, shots, seed, lambda dims, values: values.tolist())


@pytest.mark.parametrize("seed", [0, 5, 2024, 2 ** 32 - 1])
def test_sorted_draws_count_as_choice_on_the_sample_gaussian(seed):
    state = pricing.gaussian_target_state(pricing.GaussianSpec(n=20))
    assert counts_of(S.measure_all(state, 100_000, seed)) == index_keyed_counts(state, 100_000, seed)


@given(mixed_radix_states(), st.integers(1, 2000), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_sorted_draws_count_as_choice_with_zero_probability_ends(state, shots, seed, data):
    """The first and last entries, and any others drawn, hold probability 0,
    so runs of equal values sit at both ends of the cumulative sum."""
    amplitudes = state.amplitudes.copy()
    size = len(amplitudes)
    keep = data.draw(st.integers(1, size - 2)) if size > 2 else 0
    zero = data.draw(st.lists(st.integers(0, size - 1), max_size=size)) + [0, size - 1]
    amplitudes[zero] = 0
    amplitudes[keep] = 1  # at least one entry keeps weight (the only one on 2 or fewer)
    state = S.StateVector(state.dims, amplitudes / np.linalg.norm(amplitudes))
    counts = counts_of(S.measure_all(state, shots, seed))
    assert counts == index_keyed_counts(state, shots, seed)
    assert size <= 2 or not {0, size - 1} & set(counts)


def ints(*values):
    return np.array(values, dtype=np.int64)


@pytest.mark.parametrize("dims, indices, message", [
    ((2,), np.array([True]), "histogram indices must be a 1-D integer array, got array([ True])"),
    ((2,), np.array([1.0]), "histogram indices must be a 1-D integer array, got array([1.])"),
    ((2,), np.array(["1"]), "histogram indices must be a 1-D integer array, got array(['1'], dtype='<U1')"),
    ((2, 3), ints(-1, 0), "basis index -1 outside [0, 6)"),
    ((2, 3), ints(6), "basis index 6 outside [0, 6)"),
    ((), ints(1), "basis index 1 outside [0, 1)"),
])
def test_histogram_refuses_a_key_that_is_not_a_basis_index(dims, indices, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        S.Histogram(dims, indices, np.ones(len(indices), dtype=np.int64))


@pytest.mark.parametrize("indices, counts, message", [
    (ints(1, 0), ints(1, 1), "histogram indices must strictly increase"),
    (ints(0, 2, 2), ints(1, 1, 1), "histogram indices must strictly increase"),
    (np.array([2, 1], dtype=np.uint8), ints(1, 1), "histogram indices must strictly increase"),
    (ints(0, 1), ints(1), "histogram indices and counts must have equal lengths"),
    ([0, 1], ints(1, 1), "histogram indices must be a 1-D integer array, got [0, 1]"),
    (ints(0), [1], "histogram counts must be a 1-D integer array, got [1]"),
    (np.array([[0, 1]]), ints(1, 1), "histogram indices must be a 1-D integer array, got array([[0, 1]])"),
])
def test_histogram_refuses_indices_out_of_order_or_of_another_shape(indices, counts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        S.Histogram((3,), indices, counts)


def test_histogram_accepts_numpy_integer_keys():
    hist = S.Histogram((2, 3), np.array([5], dtype=np.uint8), np.array([2], dtype=np.int32))
    assert counts_of(hist) == {5: 2}
    assert S.histogram_to_csv(hist) == "label,count\n12,2\n"


@pytest.mark.parametrize("counts, message", [
    (ints(-1, 2), "count of basis index 0 must be non-negative, got -1"),
    (np.array([0.5, 0.5]), "histogram counts must be a 1-D integer array, got array([0.5, 0.5])"),
    (np.array([False, True]), "histogram counts must be a 1-D integer array, got array([False,  True])"),
    (ints(-2, 1, 2), "count of basis index 0 must be non-negative, got -2"),
    (ints(1, -3, -2), "count of basis index 1 must be non-negative, got -3"),
])
def test_histogram_refuses_a_count_that_is_not_a_non_negative_integer(counts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        S.Histogram((3,), np.arange(len(counts)), counts)


def test_histogram_accepts_numpy_integer_counts():
    hist = S.Histogram((2, 3), ints(0, 5), np.array([2, 0], dtype=np.uint8))
    assert counts_of(hist) == {0: 2, 5: 0}
    assert hist.shots == 2 and type(hist.shots) is int
    # exact totals, which an int64 sum wraps to -2^63 and a uint64 sum to 0
    assert S.Histogram((2, 3), ints(0, 5), ints(2 ** 62, 2 ** 62)).shots == 2 ** 63
    assert S.Histogram((2, 3), ints(0, 5), np.array([2 ** 63, 2 ** 63], dtype=np.uint64)).shots == 2 ** 64


def test_state_vector_refuses_a_nan_amplitude():
    with pytest.raises(ValueError, match="deviates from 1"):
        S.StateVector((2,), np.array([np.nan, 0], dtype=complex))


def test_state_json_dump():
    data = json.loads(S.state_to_json(S.basis_state([2], "1")))
    assert data == [[0.0, 0.0], [1.0, 0.0]]


# --- density matrices -----------------------------------------------------

def two_level(a, b, off=0.0, off_lower=None):
    """2x2 matrix [[a, off], [off_lower, b]], off_lower defaulting to conj(off)."""
    lower = np.conj(off) if off_lower is None else off_lower
    return np.array([[a, off], [lower, b]], dtype=complex)


def test_density_matrix_hermitian_tolerance_is_allclose_with_rtol():
    # allclose accepts |E - E^H| <= 1e-10 + 1e-5 |E^H| entrywise: at an
    # off-diagonal 0.1 the relative part allows about 1e-6
    S.DensityMatrix((2,), two_level(0.5, 0.5, 0.1 + 5e-7, 0.1))
    S.DensityMatrix((2,), two_level(0.5, 0.5, 5e-11, 0.0))
    with pytest.raises(ValueError, match="Hermitian"):
        S.DensityMatrix((2,), two_level(0.5, 0.5, 0.1 + 2e-6, 0.1))
    with pytest.raises(ValueError, match="Hermitian"):
        S.DensityMatrix((2,), two_level(0.5, 0.5, 2e-10, 0.0))
    with pytest.raises(ValueError, match="Hermitian"):
        S.DensityMatrix((2,), two_level(0.5, 0.5, np.nan))


def test_density_matrix_trace_tolerance():
    S.DensityMatrix((2,), two_level(0.5, 0.5 + 5e-11))
    with pytest.raises(ValueError, match="trace"):
        S.DensityMatrix((2,), two_level(0.5, 0.5 + 2e-10))
    with pytest.raises(ValueError, match="trace"):
        S.DensityMatrix((2,), two_level(0.5, 0.5 - 2e-10))


@pytest.mark.parametrize("angle", [0.0, 0.3])
def test_density_matrix_rejects_an_eigenvalue_below_minus_1e_8(angle):
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])

    def rotated(low):
        entries = rotation @ np.diag([1 - low, low]).astype(complex) @ rotation.T
        return (entries + entries.conj().T) / 2

    S.DensityMatrix((2,), rotated(-5e-9))
    with pytest.raises(ValueError, match="eigenvalue below -1e-8"):
        S.DensityMatrix((2,), rotated(-2e-8))


def eigvalsh_rejects(entries):
    """The PSD predicate the Cholesky test replaced, kept as its reference."""
    return float(np.linalg.eigvalsh(entries).min()) < -1e-8


@given(
    st.integers(2, 144),
    st.floats(1e-12, 1e-9),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_cholesky_psd_verdict_equals_eigvalsh(size, margin, below, diagonal, seed):
    """A dense state takes the Cholesky test; a diagonal one, the spectrum
    in a random order, takes the diagonal test."""
    rng = np.random.default_rng(seed)
    if diagonal:
        unitary = np.eye(size, dtype=complex)[rng.permutation(size)]
    else:
        gaussian = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        unitary, _ = np.linalg.qr(gaussian)
    low = -1e-8 - margin if below else -1e-8 + margin
    rest = rng.uniform(0.1, 1.0, size - 1)
    spectrum = np.concatenate([[low], rest * (1 - low) / rest.sum()])
    entries = (unitary * spectrum) @ unitary.conj().T
    entries = (entries + entries.conj().T) / 2
    assert (np.count_nonzero(entries) == size) == diagonal
    assert eigvalsh_rejects(entries) == below  # round-off stays well inside the margin
    if eigvalsh_rejects(entries):
        with pytest.raises(ValueError, match="eigenvalue below -1e-8"):
            S.DensityMatrix((size,), entries)
    else:
        S.DensityMatrix((size,), entries)


def test_identity_channel_leaves_rho():
    rho = S.basis_density([2], "1")
    channel = N.KrausChannel((np.eye(2, dtype=complex),), (2,))
    out = S.evolve_density(rho, channel, wires=(0,))
    assert np.allclose(out.entries, rho.entries)


def test_full_amplitude_damping_relaxes_1_to_0():
    rho = S.basis_density([2], "1")
    out = S.evolve_density(rho, N.amplitude_damping_qubit(1.0), wires=(0,))
    assert np.allclose(out.entries, S.basis_density([2], "0").entries)


def test_qutrit_damping_lambda2_full():
    rho = S.basis_density([3], "2")
    out = S.evolve_density(rho, N.amplitude_damping_qutrit(0.0, 1.0), wires=(0,))
    assert np.allclose(out.entries, S.basis_density([3], "0").entries)


def test_two_qutrit_depolarizing_no_error_weight():
    p2 = 0.002
    channel = N.depolarizing_channel([3, 3], p2)
    weight = channel.operators[0][0, 0] ** 2
    assert weight == pytest.approx(1 - (3 ** 4 - 1) * p2, abs=1e-15)


def test_evolve_density_rejects_non_trace_preserving():
    rho = S.basis_density([2], "0")
    bad = N.KrausChannel.__new__(N.KrausChannel)  # skip constructor validation
    object.__setattr__(bad, "operators", (np.eye(2, dtype=complex) * 0.5,))
    object.__setattr__(bad, "dims", (2,))
    with pytest.raises(ValueError):
        S.evolve_density(rho, bad, wires=(0,))


def test_evolve_density_rejects_wires_with_a_gate():
    rho = S.basis_density([2, 2], "00")
    with pytest.raises(ValueError, match="own wires"):
        S.evolve_density(rho, C.x(0), wires=(1,))


def test_evolve_density_gate_matches_statevector():
    circ = C.extend(C.new_circuit([2, 3]), [C.h(0), C.controlled(C.xplus1(1), 0, 1)])
    state = S.simulate(circ, "00")
    rho = S.basis_density([2, 3], "00")
    for gate in circ.gates:
        rho = S.evolve_density(rho, gate)
    assert np.allclose(rho.entries, np.outer(state.amplitudes, state.amplitudes.conj()), atol=1e-12)


@pytest.mark.parametrize("wires", [(-1,), (2,), (0, 0)])
def test_evolve_density_rejects_bad_channel_wires(wires):
    rho = S.basis_density([2, 2], "00")
    channel = N.depolarizing_channel([2] * len(wires), 0.01)
    with pytest.raises(ValueError, match="distinct"):
        S.evolve_density(rho, channel, wires=wires)


def test_density_guard(monkeypatch):
    def no_state(*args):
        raise AssertionError("a density matrix was built beyond MAX_STATE_DIM")

    monkeypatch.setattr(S, "basis_state", no_state)
    message = f"^density matrix entries {2 ** 28} exceeds MAX_STATE_DIM = {2 ** 26}$"
    with pytest.raises(ValueError, match=message):
        S.basis_density([2] * 14, "0" * 14)
    with pytest.raises(ValueError, match=message):
        N.run_noisy(C.new_circuit([2] * 14), "0" * 14, N.NoiseParams())
    # an int64 square of these dims' product wraps to 0
    with pytest.raises(ValueError, match=f"^density matrix entries {2 ** 64} exceeds"):
        S.basis_density([np.int64(2)] * 32, "0" * 32)


def test_basis_state_checks_state_limit(monkeypatch):
    # an int64 product of these dims wraps to 0
    with pytest.raises(ValueError, match=f"^state dimension {2 ** 64} exceeds MAX_STATE_DIM"):
        S.basis_state([np.int64(2)] * 64, "0" * 64)
    monkeypatch.setattr(S, "MAX_STATE_DIM", 16)
    with pytest.raises(ValueError, match="MAX_STATE_DIM"):
        S.basis_state([2] * 5, "0" * 5)


def test_basis_density_checks_wire_limit_before_building_state(monkeypatch):
    monkeypatch.setattr(S, "MAX_STATE_DIM", 36)
    assert S.basis_density([2, 3], "12").entries[5, 5] == 1

    def no_state(*args):
        raise AssertionError("basis_density built a state beyond MAX_STATE_DIM")

    monkeypatch.setattr(S, "basis_state", no_state)
    with pytest.raises(ValueError, match="^density matrix entries 64 exceeds MAX_STATE_DIM = 36$"):
        S.basis_density([2, 2, 2], "000")


@pytest.mark.parametrize("dims, label, bad", [((4,), "3", 4), ((np.int64(2), True), "01", True),
                                             ((2, 2.0), "00", 2.0)])
def test_state_wires_of_dimension_other_than_2_or_3_are_refused(dims, label, bad):
    message = f"^wire dimension must be the integer 2 or 3, got {bad!r}$"
    with pytest.raises(ValueError, match=message):
        S.basis_state(dims, label)
    amplitudes = np.zeros(prod(int(d) for d in dims), dtype=complex)
    amplitudes[0] = 1
    with pytest.raises(ValueError, match=message):
        S.StateVector(tuple(dims), amplitudes)


def test_density_wires_of_dimension_other_than_2_or_3_are_refused():
    message = "^wire dimension must be the integer 2 or 3, got 4$"
    with pytest.raises(ValueError, match=message):
        S.basis_density((2, 4), "00")
    rho = S.DensityMatrix((4,), np.diag([1.0, 0, 0, 0]).astype(complex))
    with pytest.raises(ValueError, match=message):
        S.evolve_density(rho, C.x(0))


# --- invariants (property tests) ------------------------------------------

@given(circuits_strategy(max_wires=4, max_gates=8), st.integers(0, 10_000))
@settings(max_examples=40)
def test_norm_preserved_by_every_gate(circ, seed_index):
    rng = np.random.default_rng(seed_index)
    dims = circ.dims
    tensor = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    tensor /= np.linalg.norm(tensor)
    for gate in circ.gates:
        S._apply_inplace(tensor, gate, dims)
        assert abs(np.sum(np.abs(tensor) ** 2) - 1) < 1e-12


@given(circuits_strategy(max_wires=4, max_gates=8))
@settings(max_examples=25)
def test_circuit_unitary_is_unitary(circ):
    matrix = S.circuit_unitary(circ)
    size = matrix.shape[0]
    assert np.allclose(matrix @ matrix.conj().T, np.eye(size), atol=1e-10)


@given(
    st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 3)]),
    st.floats(0.0, 0.01),
    st.integers(0, 2 ** 31),
)
@settings(max_examples=30)
def test_channel_evolution_preserves_invariants(dims, p, seed):
    rng = np.random.default_rng(seed)
    size = int(np.prod(dims))
    vec = rng.normal(size=size) + 1j * rng.normal(size=size)
    vec /= np.linalg.norm(vec)
    rho = S.DensityMatrix(tuple(dims), np.outer(vec, vec.conj()))
    channel = N.depolarizing_channel(dims, p)
    out = S.evolve_density(rho, channel, wires=tuple(range(len(dims))))
    assert abs(np.trace(out.entries) - 1) < 1e-10
    assert np.array_equal(out.entries, out.entries.conj().T)
    assert np.linalg.eigvalsh(out.entries).min() >= -1e-8


def embedded_reference(op, wires, dims):
    """Full-space matrix of ``op`` acting on ``wires`` (in that order): the
    Kronecker product with the identity on the other wires, then a wire
    permutation back to wire order."""
    n = len(dims)
    rest = [w for w in range(n) if w not in wires]
    order = list(wires) + rest
    full = np.kron(op, np.eye(prod(dims[w] for w in rest), dtype=complex))
    inv = [order.index(w) for w in range(n)]
    tensor = full.reshape([dims[w] for w in order] * 2).transpose(inv + [n + p for p in inv])
    return tensor.reshape(prod(dims), prod(dims))


def gate_local_unitary(gate, dims):
    """(wires, unitary) of a gate over only the wires it touches."""
    wires = gate.wires
    local_dims = [dims[w] for w in wires]
    size = prod(local_dims)
    target_dim = dims[gate.target]
    matrix = np.eye(size, dtype=complex)
    # controls come first in `wires`, the target is last (stride 1)
    offset = 0
    for c, dim in zip(gate.controls, local_dims):
        offset = offset * dim + c.value
    offset *= target_dim
    block = slice(offset, offset + target_dim)
    matrix[block, block] = S.kind_matrix(gate.kind, target_dim)
    return wires, matrix


@st.composite
def noisy_runs(draw):
    """Random mixed 2/3 circuit with channels interleaved after its gates,
    as (dims, [(step, wires), ...]); wires come in any order."""
    circ = draw(circuits_strategy(max_wires=4, max_gates=6))
    dims = circ.dims
    steps = []
    for gate in circ.gates:
        steps.append((gate, gate.wires))
        if not draw(st.booleans()):
            continue
        count = draw(st.integers(1, min(2, len(dims))))
        wires = tuple(draw(st.permutations(range(len(dims))))[:count])
        if draw(st.booleans()):
            channel = N.depolarizing_channel([dims[w] for w in wires], draw(st.floats(0.0, 0.01)))
        else:
            wires = wires[:1]
            lam = st.floats(0.0, 1.0)
            if dims[wires[0]] == 2:
                channel = N.amplitude_damping_qubit(draw(lam))
            else:
                channel = N.amplitude_damping_qutrit(draw(lam), draw(lam))
        steps.append((channel, wires))
    return dims, steps


@given(noisy_runs(), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_evolve_density_matches_kron_reference(run, seed):
    dims, steps = run
    rng = np.random.default_rng(seed)
    size = prod(dims)
    vec = rng.normal(size=size) + 1j * rng.normal(size=size)
    vec /= np.linalg.norm(vec)
    rho = S.DensityMatrix(dims, np.outer(vec, vec.conj()))
    expected = rho.entries
    for step, wires in steps:
        if isinstance(step, C.GateInstance):
            rho = S.evolve_density(rho, step)
            operators = [gate_local_unitary(step, dims)[1]]
        else:
            rho = S.evolve_density(rho, step, wires=wires)
            operators = step.operators
        fulls = [embedded_reference(k, wires, dims) for k in operators]
        expected = sum(full @ expected @ full.conj().T for full in fulls)
        assert np.allclose(rho.entries, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("wires", [(1,), (2, 0), (0, 2)])
def test_evolve_density_applies_a_complex_channel_as_its_kraus_sum(wires):
    """Depolarizing and damping channels are unchanged by conjugating their
    operators, so they cannot tell the row axes of a superoperator from its
    column axes; random complex Kraus operators can."""
    rng = np.random.default_rng(11)
    dims = (2, 3, 3)
    size = prod(dims[w] for w in wires)
    count = 3
    isometry, _ = np.linalg.qr(
        rng.normal(size=(count * size, size)) + 1j * rng.normal(size=(count * size, size))
    )
    channel = N.KrausChannel(tuple(isometry.reshape(count, size, size)), tuple(dims[w] for w in wires))
    vec = rng.normal(size=prod(dims)) + 1j * rng.normal(size=prod(dims))
    vec /= np.linalg.norm(vec)
    rho = S.DensityMatrix(dims, np.outer(vec, vec.conj()))
    out = S.evolve_density(rho, channel, wires=wires)
    fulls = [embedded_reference(k, wires, dims) for k in channel.operators]
    expected = sum(full @ rho.entries @ full.conj().T for full in fulls)
    assert np.allclose(out.entries, expected, rtol=0, atol=1e-12)


# --- bit identity with the slice-copy kernel --------------------------------

def slice_copy_reference(tensor, gate, dims):
    """The dense kernel the action table replaced: copy each level a
    non-identity row reads, then assign each row as a sum in column order of
    ``coeff * old`` terms (``old`` itself for a unit coefficient)."""
    target = gate.target
    dim = dims[target]
    matrix = S.kind_matrix(gate.kind, dim)
    base = [slice(None)] * len(dims)
    for c in gate.controls:
        base[c.wire] = c.value

    def sel(level):
        idx = list(base)
        idx[target] = level
        return tuple(idx)

    rows = [
        r for r in range(dim)
        if not (matrix[r, r] == 1 and all(matrix[r, c] == 0 for c in range(dim) if c != r))
    ]
    cols = {c for r in rows for c in range(dim) if matrix[r, c] != 0}
    olds = {c: tensor[sel(c)].copy() for c in cols}
    for r in rows:
        acc = None
        for c in range(dim):
            coeff = matrix[r, c]
            if coeff == 0:
                continue
            term = olds[c] if coeff == 1 else coeff * olds[c]
            acc = term if acc is None else acc + term
        tensor[sel(r)] = acc


def assert_bit_identical(actual, expected):
    assert np.array_equal(actual, expected)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(actual, part)), np.signbit(getattr(expected, part)))


@st.composite
def any_unitary_gate(draw, dims, kinds=tuple(C.GateKind)):
    """A valid gate of any unitary kind on ``dims`` (of one of ``kinds``, when
    given), with up to two controls of any activation value the control
    wire allows."""
    n = len(dims)
    kinds = [
        k for k in kinds
        if (k not in C.QUTRIT_ONLY_KINDS or 3 in dims)
        and (k is not C.GateKind.TOFFOLI or dims.count(2) >= 3)
    ]
    kind = draw(st.sampled_from(kinds))
    if kind is C.GateKind.TOFFOLI:
        a, b, target = draw(st.permutations([w for w in range(n) if dims[w] == 2]))[:3]
        return C.toffoli(a, b, target)
    allowed = [w for w in range(n) if kind not in C.QUTRIT_ONLY_KINDS or dims[w] == 3]
    target = draw(st.sampled_from(allowed))
    others = draw(st.permutations([w for w in range(n) if w != target]))
    controls = tuple(
        C.ControlSpec(w, draw(st.integers(1, dims[w] - 1)))
        for w in others[: draw(st.integers(0, min(2, len(others))))]
    )
    return C.GateInstance(kind, controls, target)


@st.composite
def mixed_circuits(draw):
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=5)))
    gates = draw(st.lists(any_unitary_gate(dims), max_size=14))
    return C.extend(C.new_circuit(dims), gates)


@given(mixed_circuits(), st.data())
@settings(max_examples=150, deadline=None)
def test_simulate_is_bit_identical_to_slice_copy_kernel(circ, data):
    dims = circ.dims
    label = "".join(str(data.draw(st.integers(0, d - 1))) for d in dims)
    expected = S.basis_state(dims, label).amplitudes.reshape(dims)
    for gate in circ.gates:
        slice_copy_reference(expected, gate, dims)
    assert_bit_identical(S.simulate(circ, label).amplitudes, expected.reshape(-1))


def dense_run(circ, label):
    """``simulate`` as the dense kernel alone runs it: every gate through
    ``_apply_inplace`` on the full tensor, from the first gate on."""
    dims = circ.dims
    tensor = S.basis_state(dims, label).amplitudes.reshape(dims)
    for gate in circ.gates:
        S._apply_inplace(tensor, gate, dims)
    return tensor.reshape(-1)


# 1 never leaves the sparse support except before Z or SDG; 2 ** 40 goes
# dense before the first gate; the others switch part way through
SWITCH_FRACTIONS = [1, 2, 4, 16, 2 ** 40]


@given(mixed_circuits(), st.sampled_from(SWITCH_FRACTIONS), st.data())
@settings(max_examples=300, deadline=None)
def test_simulate_is_bit_identical_to_the_dense_kernel_at_any_switch(circ, fraction, data):
    label = "".join(str(data.draw(st.integers(0, d - 1))) for d in circ.dims)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "_SWITCH_FRACTION", fraction)
        assert_bit_identical(S.simulate(circ, label).amplitudes, dense_run(circ, label))


@pytest.mark.parametrize("fraction", SWITCH_FRACTIONS)
def test_sparse_t_on_a_one_element_level_rounds_as_the_dense_kernel(fraction, monkeypatch):
    """A T on a one-qubit circuit scales a dense level of one element in
    place, which numpy rounds without fused multiply-add: T.T|1> has real
    part 2.2e-16 there, against 1.79e-16 from an out-of-place product."""
    gates = [C.x(0), C.x(0), C.t(0), C.x(0), C.x(0), C.x(0), C.x(0), C.t(0)]
    circ = C.extend(C.new_circuit((2,)), gates)
    monkeypatch.setattr(S, "_SWITCH_FRACTION", fraction)
    assert_bit_identical(S.simulate(circ, "1").amplitudes, dense_run(circ, "1"))


def signed_zero_support(dims, seed):
    """A sparse start on ``dims`` and its dense tensor: present entries may
    hold +0 or -0 in either word; absent ones are +0."""
    size = prod(dims)
    rng = np.random.default_rng(seed)
    words = rng.choice([0.0, -0.0, 0.5, -1.25, 3e-17], size=(size, 2))
    idx = np.flatnonzero(rng.random(size) < 0.5)
    amp = words[idx].view(complex).reshape(-1)
    tensor = np.zeros(size, dtype=complex)
    tensor[idx] = amp
    return idx, amp, tensor.reshape(dims)


@given(mixed_circuits(), st.integers(0, 2 ** 31))
@settings(max_examples=100, deadline=None)
def test_apply_sparse_is_bit_identical_on_a_state_with_signed_zeros(circ, seed):
    dims = circ.dims
    size = prod(dims)
    strides = [prod(dims[w + 1:]) for w in range(len(dims))]
    idx, amp, tensor = signed_zero_support(dims, seed)
    for gate in circ.gates:
        if not S._ACTIONS[gate.kind, dims[gate.target]].keeps_zero:
            continue
        idx, amp = S._apply_sparse(idx, amp, gate, dims, strides)
        S._apply_inplace(tensor, gate, dims)
        assert len(np.unique(idx)) == len(idx)
        scattered = np.zeros(size, dtype=complex)
        scattered[idx] = amp
        assert_bit_identical(scattered, tensor.reshape(-1))


@pytest.mark.parametrize("dims", [(3, 2, 2, 3, 2), (2, 3, 2, 2), (2, 3, 2, 3, 2), (3, 3, 2)])
def test_digits_equal_the_division_on_every_wire(dims):
    """Qubit wires with strides that are and are not powers of two, and
    qutrit wires with both, on every index of the space."""
    strides = [prod(dims[w + 1:]) for w in range(len(dims))]
    idx = np.arange(prod(dims), dtype=np.int64)
    for wire, (dim, stride) in enumerate(zip(dims, strides)):
        digits = S._digits(idx, dim, stride)
        assert digits.dtype == np.int64
        assert np.array_equal(digits, idx // stride % dim), wire


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_digits_equal_the_division_on_random_indices_up_to_the_limit(seed):
    """Random non-negative int64 indices below MAX_STATE_DIM, at every stride
    of a mixed register of 10 qubits and 10 qutrits, alternating."""
    dims = (2, 3) * 10
    assert prod(dims) <= S.MAX_STATE_DIM
    strides = [prod(dims[w + 1:]) for w in range(len(dims))]
    idx = np.random.default_rng(seed).integers(0, S.MAX_STATE_DIM, 4400, dtype=np.int64)
    idx[:2] = 0, S.MAX_STATE_DIM - 1
    for wire, (dim, stride) in enumerate(zip(dims, strides)):
        digits = S._digits(idx, dim, stride)
        assert digits.dtype == np.int64
        assert np.array_equal(digits, idx // stride % dim), wire


@pytest.mark.parametrize("size", [0, 1, 2, 107, 3400])
@pytest.mark.parametrize("seed", [0, 1])
def test_group_equals_unique_on_random_supports(size, seed):
    """Bases of random supports of 14 qubits, as an H step groups them:
    each base holds one or two entries; a controlled step may group none."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(2 ** 14, size, replace=False).astype(np.int64)
    keys = idx - S._digits(idx, 2, 2 ** 7) * 2 ** 7
    bases, slot = S._group(keys)
    expected_bases, expected_slot = np.unique(keys, return_inverse=True)
    assert np.array_equal(bases, expected_bases)
    assert np.array_equal(slot, expected_slot)


# on dims (2, 3, 2, 3, 2): qubit targets 0, 2, 4 and qutrit targets 1, 3,
# each kind with 0-2 controls, control values 1 and 2
PERMUTATION_GATES = [
    C.x(0), C.cx(2, 0), C.cx(1, 0, value=2), C.controlled(C.cx(2, 0), 3),
    C.x(1), C.cx(0, 1), C.cx(3, 1, value=2), C.controlled(C.cx(0, 1), 3, 2),
    C.toffoli(0, 2, 4), C.toffoli(4, 0, 2),
    C.xplus1(1), C.controlled(C.xplus1(3), 0), C.controlled(C.controlled(C.xplus1(3), 1, 2), 4),
    C.xminus1(3), C.controlled(C.xminus1(1), 3, 2), C.controlled(C.controlled(C.xminus1(1), 0), 2),
]


@pytest.mark.parametrize("gate", PERMUTATION_GATES, ids=lambda g: f"{g.kind.value}{g.wires}")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_apply_sparse_moves_only_indices_for_a_permutation_gate(gate, seed, monkeypatch):
    """No level kernel and no ``np.unique``: entries keep their amplitudes,
    +0 and -0 words included, and move to the indices the dense kernel
    copies them to."""
    dims = (2, 3, 2, 3, 2)
    size = prod(dims)
    strides = [prod(dims[w + 1:]) for w in range(len(dims))]
    idx, amp, tensor = signed_zero_support(dims, seed)
    S._apply_inplace(tensor, gate, dims)

    def no_kernel(*args, **kwargs):
        raise AssertionError("a permutation gate ran a level kernel")

    monkeypatch.setattr(S, "_apply_levels", no_kernel)
    monkeypatch.setattr(np, "unique", no_kernel)
    out_idx, out_amp = S._apply_sparse(idx.copy(), amp.copy(), gate, dims, strides)
    monkeypatch.undo()
    assert len(np.unique(out_idx)) == len(out_idx)
    assert out_amp.tobytes() == amp.tobytes()
    scattered = np.zeros(size, dtype=complex)
    scattered[out_idx] = out_amp
    assert_bit_identical(scattered, tensor.reshape(-1))


@pytest.mark.parametrize("seed", range(4))
def test_simulate_of_the_clifford_t_8_bit_adder_equals_the_dense_kernel(seed):
    adder, layout = arith.build_adder(8)
    circ = transpile.lower_toffolis(adder, transpile.LoweringStrategy.CLIFFORD_T_FUNCTIONAL)
    rng = np.random.default_rng(seed)
    a, b = (int(v) for v in rng.integers(0, 2 ** 8, size=2))
    label = arith.register_digits(circ, [(layout.a_wires, [a]), (layout.b_wires, [b])])[0]
    assert S.simulate(circ, label).amplitudes.tobytes() == dense_run(circ, label).tobytes()


def test_only_z_and_sdg_turn_a_zero_column_negative():
    lacking = {kind for (kind, _), action in S._ACTIONS.items() if not action.keeps_zero}
    assert lacking == {C.GateKind.Z, C.GateKind.SDG}


def test_dense_simulate_peaks_at_two_states():
    """The dense kernel holds one copy of a gate's levels beside the state,
    and the sparse support is freed before the first dense gate: 32.4 MiB on
    20 qubits, against 35.4 MiB with the support kept and 40.3 MiB with each
    row's products allocated."""
    n = 20
    gates = [C.h(w) for w in range(n)] * 2 + [C.cx(0, 1), C.x(3), C.t(2)]
    circ = C.extend(C.new_circuit((2,) * n), gates)
    tracemalloc.start()
    try:
        S.simulate(circ, "0" * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** n * 16 + 2 ** 20


def test_simulate_refuses_above_the_state_limit_before_the_first_gate(monkeypatch):
    def no_gate(*args):
        raise AssertionError("simulate ran a gate beyond MAX_STATE_DIM")

    monkeypatch.setattr(S, "MAX_STATE_DIM", 4)
    monkeypatch.setattr(S, "_apply_sparse", no_gate)
    monkeypatch.setattr(S, "_apply_inplace", no_gate)
    circ = C.extend(C.new_circuit((2, 2, 2)), [C.h(0), C.z(1)])
    with pytest.raises(ValueError, match="MAX_STATE_DIM = 4"):
        S.simulate(circ, "000")


def test_unitary_columns_run_from_their_indices_without_a_label(monkeypatch):
    def no_label(*args):
        raise AssertionError("a unitary column went through parse_label")

    circ = C.extend(C.new_circuit((2, 3, 2)), [C.h(0), C.controlled(C.xplus1(1), 0, 1), C.t(2)])
    full, subspace = S.circuit_unitary(circ), S.qubit_subspace_unitary(circ)
    monkeypatch.setattr(S, "parse_label", no_label)
    assert_bit_identical(S.circuit_unitary(circ), full)
    assert_bit_identical(S.qubit_subspace_unitary(circ), subspace)


@given(mixed_circuits(), st.data())
@settings(max_examples=100, deadline=None)
def test_apply_inplace_is_bit_identical_on_a_superposition(circ, data):
    dims = circ.dims
    tensor = S.basis_state(dims, "0" * len(dims)).amplitudes.reshape(dims)
    for w, d in enumerate(dims):
        S._apply_inplace(tensor, C.h(w), dims)
        if d == 3:
            S._apply_inplace(tensor, C.controlled(C.xplus1(w), 0, 1) if w else C.xplus1(w), dims)
    for gate in circ.gates + (data.draw(any_unitary_gate(dims)),):
        expected = tensor.copy()
        slice_copy_reference(expected, gate, dims)
        S._apply_inplace(tensor, gate, dims)
        assert_bit_identical(tensor.reshape(-1), expected.reshape(-1))


def two_contraction_reference(entries, gate, dims):
    """The density gate step the control-selected block replaced: the gate's
    local unitary U over all its wires contracted into the row axes, then
    conj(U) into the column axes, symmetrised as ``evolve_density``
    symmetrises."""
    n = len(dims)
    wires, local = gate_local_unitary(gate, dims)
    k = len(wires)
    tensor = entries.reshape(dims * 2)
    for op, axes in ((local, list(wires)), (local.conj(), [n + w for w in wires])):
        op = op.reshape(tuple(dims[w] for w in wires) * 2)
        tensor = np.moveaxis(np.tensordot(op, tensor, axes=(range(k, 2 * k), axes)), range(k), axes)
    out = tensor.reshape(entries.shape)
    return (out + out.conj().T) / 2


@given(mixed_circuits(), st.integers(0, 2 ** 31))
@settings(max_examples=100, deadline=None)
def test_evolve_density_gate_step_equals_two_contraction_reference(circ, seed):
    dims = circ.dims
    rng = np.random.default_rng(seed)
    size = prod(dims)
    factor = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    entries = factor @ factor.conj().T
    rho = S.DensityMatrix(dims, entries / np.trace(entries).real)
    for gate in circ.gates:
        expected = two_contraction_reference(rho.entries, gate, dims)
        rho = S.evolve_density(rho, gate)
        assert np.array_equal(rho.entries, expected)


def reference_contract(tensor, op, axes):
    """A gate or channel contraction: ``np.tensordot`` then ``np.moveaxis``."""
    k = len(axes)
    local = op.reshape(tuple(tensor.shape[a] for a in axes) * 2)
    return np.moveaxis(np.tensordot(local, tensor, axes=(range(k, 2 * k), axes)), range(k), axes)


def reference_density_step(entries, dims, step, wires):
    """The density step the permutation and the symmetrisation buffer
    replaced: every gate as U on its target's row axis and conj(U) on its
    column axis within the control block, every channel as one
    superoperator contraction, then ``(out + out^dag) / 2``."""
    n = len(dims)
    tensor = entries.reshape(dims * 2)
    if isinstance(step, C.GateInstance):
        target = step.target
        unitary = S.kind_matrix(step.kind, dims[target])
        axis = target - sum(c.wire < target for c in step.controls)
        tensor = tensor.copy()
        for offset, op in ((0, unitary), (n, unitary.conj())):
            block = tuple(S._control_index(step, n, offset))
            tensor[block] = reference_contract(tensor[block], op, [offset + axis])
    else:
        tensor = reference_contract(tensor, step.superoperator, wires + tuple(n + w for w in wires))
    out = tensor.reshape(entries.shape)
    return (out + out.conj().T) / 2


def reference_density_check(dims, entries):
    """The ``DensityMatrix`` check the diagonal path sits in front of: every
    matrix through the full Hermitian test and the Cholesky factorisation."""
    size = prod(dims)
    if entries.shape != (size, size):
        raise ValueError(f"density matrix must be {size}x{size}")
    adjoint = entries.conj().T
    if not (np.array_equal(entries, adjoint) or np.allclose(entries, adjoint, atol=1e-10)):
        raise ValueError("density matrix must be Hermitian within 1e-10")
    trace = complex(np.trace(entries))
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {trace} deviates from 1")
    shifted = entries.copy()
    shifted.reshape(-1)[:: size + 1] += 1e-8
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise ValueError("density matrix has an eigenvalue below -1e-8") from None


def check_verdict(check, dims, entries):
    """None when ``check`` accepts, else the type and message of what it raises."""
    try:
        check(dims, entries)
    except (TypeError, ValueError) as error:
        return type(error), str(error)
    return None


# -1e-8 and its neighbouring ulps, where the shifted pivot crosses zero
_PIVOT_EDGES = [float(np.nextafter(-1e-8, direction)) for direction in (-1.0, 1.0)]
_DIAGONAL_REALS = [0.0, -0.0, -1e-8, *_PIVOT_EDGES, float(np.nextafter(_PIVOT_EDGES[1], 1.0)),
                   5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf, np.nan]
# inside and outside the 1e-10 Hermitian tolerance
_DIAGONAL_IMAGS = [0.0, -0.0, 5e-324, 5e-11, -5e-11, 2e-10, -2e-10, np.inf, np.nan]


@st.composite
def near_diagonal_matrices(draw):
    """(size, entries): a trace-one positive diagonal of size 1-144 with up to
    four entries replaced by edge values, the trace put back to 1 on an entry
    left alone, and, when drawn, one off-diagonal pair of subnormals, -0
    words or NaNs."""
    size = draw(st.integers(1, 144))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.uniform(0.1, 1.0, size)
    diagonal = (weights / weights.sum()).astype(complex)
    imags = st.one_of(st.just(0.0), st.sampled_from(_DIAGONAL_IMAGS))
    edits = draw(st.lists(st.tuples(st.integers(0, size - 1), st.sampled_from(_DIAGONAL_REALS), imags),
                          max_size=4))
    for index, real, imag in edits:
        diagonal[index] = complex(real, imag)
    untouched = sorted(set(range(size)) - {index for index, _, _ in edits})
    if untouched:
        with np.errstate(invalid="ignore"):
            diagonal[untouched[0]] += 1 - diagonal.real.sum()
    entries = np.diag(diagonal)
    if size > 1 and draw(st.booleans()):
        row, col = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        value = draw(st.sampled_from([5e-324, -5e-324, 5e-324j, 1e-310 - 1e-310j, -0.0, complex(0.0, -0.0),
                                      complex(np.nan, 0.0), complex(0.0, np.nan)]))
        entries[row, col] = value
        entries[col, row] = np.conj(value) if draw(st.booleans()) else value
    return size, entries


@given(near_diagonal_matrices())
@settings(max_examples=400, deadline=None)
def test_density_check_on_near_diagonal_matrices_equals_the_reference(matrix):
    size, entries = matrix
    with np.errstate(invalid="ignore"):
        expected = check_verdict(reference_density_check, (size,), entries)
        assert check_verdict(S.DensityMatrix, (size,), entries) == expected


@pytest.mark.parametrize("dtype", [np.int64, np.float16, np.float32, np.float64, np.complex64])
def test_density_check_of_a_diagonal_in_another_dtype_equals_the_reference(dtype):
    """Only complex128 takes the diagonal path; the shift refuses an integer
    matrix and the factorisation a float16 one, as before."""
    entries = np.diag([1, 0]).astype(dtype)
    assert check_verdict(S.DensityMatrix, (2,), entries) == check_verdict(reference_density_check, (2,), entries)


def test_density_check_factors_only_a_state_with_an_off_diagonal_entry(monkeypatch):
    factored = []
    cholesky = np.linalg.cholesky

    def counted(entries):
        factored.append(entries.shape)
        return cholesky(entries)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    dims = (2, 2, 3, 3, 2, 2)
    rho = S.basis_density(dims, "010201")
    for step, wires in ((C.controlled(C.xplus1(2), 1), None), (N.depolarizing_channel((3, 3), 0.01), (2, 3)),
                        (N.amplitude_damping_qutrit(0.1, 0.2), (3,))):
        rho = S.evolve_density(rho, step, wires)
    with pytest.raises(ValueError, match="eigenvalue below -1e-8"):
        S.DensityMatrix((2,), np.diag([1 + 2e-8, -2e-8]).astype(complex))
    assert factored == []
    # an imaginary subnormal off the diagonal is an off-diagonal entry
    almost = np.diag([0.5, 0.5]).astype(complex)
    almost[0, 1], almost[1, 0] = 5e-324j, -5e-324j
    S.DensityMatrix((2,), almost)
    S.evolve_density(rho, C.h(0))
    assert factored == [(2, 2), (144, 144)]


def complex_channel(dims, seed):
    """Three dense complex Kraus operators on ``dims``, an isometry's blocks."""
    rng = np.random.default_rng(seed)
    size = prod(dims)
    isometry, _ = np.linalg.qr(rng.normal(size=(3 * size, size)) + 1j * rng.normal(size=(3 * size, size)))
    return N.KrausChannel(tuple(isometry.reshape(3, size, size)), tuple(dims))


@st.composite
def density_steps(draw):
    """(dims, steps) on at most 4 mixed wires: gates of every kind with up to
    two controls, and channels on one or two wires in any order."""
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4)))
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            steps.append((draw(any_unitary_gate(dims)), None))
            continue
        wires = tuple(draw(st.permutations(range(len(dims))))[: draw(st.integers(1, min(2, len(dims))))])
        wire_dims = tuple(dims[w] for w in wires)
        build = draw(st.sampled_from(["depolarizing", "damping", "complex"]))
        if build == "depolarizing":
            channel = N.depolarizing_channel(wire_dims, draw(st.floats(0.0, 0.01)))
        elif build == "complex":
            channel = complex_channel(wire_dims, draw(st.integers(0, 2 ** 31)))
        else:
            wires = wires[:1]
            lam = st.floats(0.0, 1.0)
            channel = (N.amplitude_damping_qubit(draw(lam)) if dims[wires[0]] == 2
                       else N.amplitude_damping_qutrit(draw(lam), draw(lam)))
        steps.append((channel, wires))
    return dims, steps


@given(density_steps(), st.booleans(), st.integers(0, 2 ** 31))
@settings(max_examples=200, deadline=None)
def test_density_step_is_bit_identical_to_the_reference_step(run, from_basis, seed):
    """From a random Hermitian state, or from a basis state, whose steps stay
    rich in zeros, every step's bytes equal the reference step's."""
    dims, steps = run
    rng = np.random.default_rng(seed)
    size = prod(dims)
    if from_basis:
        entries = S.basis_density(dims, [int(rng.integers(d)) for d in dims]).entries
    else:
        factor = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        entries = factor @ factor.conj().T
        entries /= np.trace(entries).real
    for step, wires in steps:
        expected = reference_density_step(entries, dims, step, wires)
        entries = S._density_step(entries, dims, step, wires)
        assert entries.tobytes() == expected.tobytes()
        # no -0 word, which a permutation would copy where a contraction writes +0
        words = entries.view(float)
        assert not np.signbit(words[words == 0]).any()


@pytest.mark.parametrize("gate", PERMUTATION_GATES[:8], ids=lambda g: f"{g.kind.value}{g.wires}")
def test_density_step_on_negative_zero_words_equals_the_reference_in_value(gate):
    dims = (2, 3, 2, 3, 2)
    size = prod(dims)
    rng = np.random.default_rng(3)
    factor = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    entries = factor @ factor.conj().T / size ** 2
    mask = np.triu(rng.random((size, size)) < 0.3, 1)
    entries.real[mask | mask.T] = -0.0
    assert np.array_equal(S._density_step(entries, dims, gate, None),
                          reference_density_step(entries, dims, gate, None))


@pytest.mark.parametrize("gate", PERMUTATION_GATES, ids=lambda g: f"{g.kind.value}{g.wires}")
def test_density_step_moves_rows_and_columns_for_a_permutation_gate(gate, monkeypatch):
    dims = (2, 3, 2, 3, 2)
    rho = S.basis_density(dims, "01020")
    for prep in (C.h(0), C.controlled(C.h(2), 1, 1), C.controlled(C.xplus1(3), 0), C.t(4), C.h(4)):
        rho = S.evolve_density(rho, prep)
    expected = reference_density_step(rho.entries, dims, gate, None)

    def no_contraction(*args):
        raise AssertionError("a permutation gate ran a contraction")

    monkeypatch.setattr(S, "_contract", no_contraction)
    assert S.evolve_density(rho, gate).entries.tobytes() == expected.tobytes()


@pytest.mark.parametrize("gate", PERMUTATION_GATES, ids=lambda g: f"{g.kind.value}{g.wires}")
def test_density_step_moves_each_entry_by_the_run_basis_map(gate):
    """Entry (i, j) of rho, diagonal or not, lands at (f(i), f(j)), with f
    read from the batched basis engine over every label."""
    dims = (2, 3, 2, 3, 2)
    size = prod(dims)
    digits = S.index_digits(dims, np.arange(size)).astype(np.int64)
    strides = [prod(dims[w + 1:]) for w in range(len(dims))]
    f = S.run_basis(C.extend(C.new_circuit(dims), [gate]), digits) @ strides
    i, j = np.triu_indices(size)
    full = np.zeros((size, size), dtype=complex)
    # distinct Hermitian entries, integers that the symmetrisation keeps exactly
    full[i, j] = i * size + j + 1j * (j - i)
    full[j, i] = full[i, j].conj()
    diagonal = np.diag(np.arange(1.0, size + 1)).astype(complex)
    for entries in (full, diagonal):
        out = S._density_step(entries, dims, gate, None)
        assert np.array_equal(out[np.ix_(f, f)], entries)


@pytest.mark.parametrize("word, diagonal", [(0.0, True), (-0.0, False), (complex(0.0, -0.0), False),
                                             (complex(np.nan, 0.0), False), (5e-324j, False)])
def test_is_diagonal_counts_every_nonzero_word_off_the_diagonal(word, diagonal):
    entries = np.diag([0.25, 0.0, 0.75]).astype(complex)
    entries[2, 0] = word
    assert S._is_diagonal(entries) is diagonal
    assert S._is_diagonal(np.asfortranarray(entries)) is diagonal
    assert S._is_diagonal(entries.real) is False


@st.composite
def diagonal_states(draw):
    """(dims, entries): a diagonal density matrix on 1-4 mixed wires whose
    probabilities hold zeros, with +0 in every word off the diagonal."""
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4)))
    size = prod(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.random(size) * (rng.random(size) < draw(st.floats(0.1, 1.0)))
    weights[rng.integers(size)] += 1.0
    return dims, np.diag(weights / weights.sum()).astype(complex)


@given(diagonal_states(), st.data())
@settings(max_examples=100, deadline=None)
def test_diagonal_steps_are_bit_identical_to_the_reference_step(state, data):
    """Permutation gates with 0-2 controls, then depolarizing channels on
    every wire subset and damping on every wire, each step from the last."""
    dims, entries = state
    gates = [data.draw(any_unitary_gate(dims, tuple(S._BASIS_TABLES))) for _ in range(3)]
    steps = [(gate, None) for gate in gates]
    for wires in [w for k in (1, 2) for w in itertools.permutations(range(len(dims)), k)]:
        wire_dims = tuple(dims[w] for w in wires)
        steps.append((N.depolarizing_channel(wire_dims, data.draw(st.floats(0.0, 0.0125))), wires))
        if len(wires) == 1:
            lam = st.floats(0.0, 1.0)
            damping = (N.amplitude_damping_qubit(data.draw(lam)) if wire_dims == (2,)
                       else N.amplitude_damping_qutrit(data.draw(lam), data.draw(lam)))
            steps.append((damping, wires))
    for step, wires in steps:
        expected = reference_density_step(entries, dims, step, wires)
        entries = S._density_step(entries, dims, step, wires)
        assert entries.tobytes() == expected.tobytes()


def test_a_diagonal_state_steps_without_a_contraction(monkeypatch):
    """The qutrit-lowered adder's 144-dim state through a permutation gate and
    its depolarizing and damping channels, on the diagonal alone."""
    dims = (2, 2, 3, 3, 2, 2)
    rho = S.basis_density(dims, "010201")
    steps = [(C.controlled(C.xplus1(2), 1), None), (N.depolarizing_channel((3, 3), 0.01), (2, 3)),
             (N.amplitude_damping_qutrit(0.1, 0.2), (3,)), (C.toffoli(0, 1, 4), None)]

    def full_step(*args):
        raise AssertionError("a diagonal step ran a contraction")

    apply_inplace = S._apply_inplace
    moved = []

    def on_the_diagonal(tensor, gate, gate_dims):
        # the diagonal reshaped to dims; rho's tensor would hold twice the axes
        assert tensor.ndim <= len(dims), "a diagonal step moved rows and columns"
        moved.append(gate)
        apply_inplace(tensor, gate, gate_dims)

    monkeypatch.setattr(S, "_contract", full_step)
    monkeypatch.setattr(S, "_apply_inplace", on_the_diagonal)
    for step, wires in steps:
        expected = reference_density_step(rho.entries, dims, step, wires)
        rho = S.evolve_density(rho, step, wires)
        assert rho.entries.tobytes() == expected.tobytes()
    assert moved == [steps[0][0], steps[3][0]]


@pytest.mark.parametrize("seed", range(3))
def test_a_complex_channel_keeps_no_diagonal_and_takes_the_full_step(seed, monkeypatch):
    dims = (2, 3)
    channel = complex_channel((3,), seed)
    assert not channel.keeps_diagonal
    entries = S.basis_density(dims, "12").entries

    def no_diagonal_route(*args):
        raise AssertionError("a channel that does not keep diagonals ran on the diagonal")

    monkeypatch.setattr(S, "_channel_diagonal", no_diagonal_route)
    out = S._density_step(entries, dims, channel, (1,))
    assert out.tobytes() == reference_density_step(entries, dims, channel, (1,)).tobytes()
    assert not S._is_diagonal(out)


@pytest.mark.parametrize("value", [np.inf, np.nan, complex(0.0, np.inf)])
def test_a_channel_on_a_non_finite_diagonal_takes_the_full_step(value):
    """0 * inf is NaN, so the contraction writes NaN off the diagonal (the
    sign of a NaN word follows the order of the symmetrisation's sum, which
    the reference does not share)."""
    dims = (2, 3)
    entries = np.diag([0.5, 0.0, 0.25, value, 0.0, 0.25]).astype(complex)
    channel = N.depolarizing_channel((3,), 0.01)
    with np.errstate(invalid="ignore"):
        expected = reference_density_step(entries, dims, channel, (1,))
        out = S._density_step(entries, dims, channel, (1,))
    assert np.array_equal(out, expected, equal_nan=True)
    assert np.isnan(out[~np.eye(len(out), dtype=bool)]).any()


NON_PERMUTING_GATES = [
    C.GateInstance(kind, controls, target)
    for kind in C.GateKind if kind not in S._BASIS_TABLES
    for target, controls in ((0, ()), (1, ()), (1, (C.ControlSpec(0, 1),)), (0, (C.ControlSpec(1, 2),)))
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex64])
@pytest.mark.parametrize("gate", NON_PERMUTING_GATES, ids=lambda g: f"{g.kind.value}{g.wires}")
def test_a_non_permuting_gate_steps_any_dtype_in_complex128(gate, dtype):
    """A real or single-precision rho keeps the imaginary parts and the
    precision of the phases: the step equals the complex128 step in value."""
    dims = (2, 3)
    rng = np.random.default_rng(11)
    factor = rng.normal(size=(6, 6))
    if dtype is np.complex64:
        factor = factor + 1j * rng.normal(size=(6, 6))
    entries = (factor @ factor.conj().T / 36).astype(dtype)
    out = S._density_step(entries, dims, gate, None)
    assert out.dtype == complex
    assert np.array_equal(out, S._density_step(entries.astype(complex), dims, gate, None))


def test_a_real_density_matrix_through_a_phase_gate_keeps_its_imaginary_parts():
    rho = S.evolve_density(S.DensityMatrix((2,), np.full((2, 2), 0.5)), C.GateInstance(C.GateKind.S, (), 0))
    assert np.array_equal(rho.entries, [[0.5, -0.5j], [0.5j, 0.5]])


def test_evolve_density_leaves_input_alone():
    dims = (2, 3, 2)
    rho = S.basis_density(dims, "010")
    for gate in (C.h(0), C.controlled(C.h(2), 1, 1)):
        rho = S.evolve_density(rho, gate)
    before = rho.entries.copy()
    for gate in (C.h(0), C.t(2), C.controlled(C.xplus1(1), 0, 1), C.cx(1, 2, value=2), C.x(1)):
        S.evolve_density(rho, gate)
        assert rho.entries.tobytes() == before.tobytes()


@pytest.mark.parametrize("wires", [(True,), (1.0,), ("1",)])
def test_evolve_density_refuses_a_non_integer_channel_wire(wires):
    rho = S.basis_density([2, 3], "01")
    with pytest.raises(ValueError, match="wire index must be an integer"):
        S.evolve_density(rho, N.amplitude_damping_qutrit(0.5, 0.5), wires=wires)


def test_evolve_density_takes_a_numpy_integer_channel_wire():
    rho = S.basis_density([2, 3], "01")
    channel = N.amplitude_damping_qutrit(0.5, 0.5)
    out = S.evolve_density(rho, channel, wires=(np.int64(1),))
    assert np.array_equal(out.entries, S.evolve_density(rho, channel, wires=(1,)).entries)


# --- simulate goldens --------------------------------------------------------

SIMULATE_SHA256 = Path(__file__).parent / "data" / "simulate_sha256.txt"


def simulate_golden_lines():
    """(sha256, bits, label, form) of each adder line of the golden file,
    in ``sha256sum`` format over names ``adder{bits}_cliffordt_{label}.{form}``;
    ``tests/test_cli.py`` reads its other lines."""
    lines = []
    for line in SIMULATE_SHA256.read_text().splitlines():
        digest, name = line.split()
        if not name.startswith("adder"):
            continue
        adder, _, rest = name.split("_")
        label, form = rest.split(".")
        lines.append((digest, int(adder.removeprefix("adder")), label, form))
    return lines


def test_simulate_goldens_of_the_clifford_t_adders():
    """The ``.json`` lines hash what ``triarc simulate`` prints, the
    ``.amplitudes`` lines the raw amplitude bytes, so every value and sign
    bit of the state is pinned."""
    circuits = {}
    for digest, bits, label, form in simulate_golden_lines():
        if bits not in circuits:
            adder, _ = arith.build_adder(bits)
            circuits[bits] = transpile.lower_toffolis(adder, transpile.LoweringStrategy.CLIFFORD_T_FUNCTIONAL)
        state = S.simulate(circuits[bits], label)
        data = (S.state_to_json(state) + "\n").encode() if form == "json" else state.amplitudes.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, (bits, label, form)
