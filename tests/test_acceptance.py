"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a PASS line on success (run with ``pytest -s`` or ``-rA``
to see them); a failing criterion prints FAIL and raises.
"""
import functools
import random
import time

import numpy as np
import pytest

from triarc import arith as A
from triarc import circuits as C
from triarc import noise as N
from triarc import pricing as P
from triarc import resources as R
from triarc import simulator as S
from triarc import transpile as T
from triarc import verify as V
from triarc.cli import main as cli_main
from triarc.transpile import LoweringStrategy

from test_resources import (
    alt_cnot_add,
    alt_cnot_arcsq,
    alt_cnot_exp,
    alt_cnot_mul,
    alt_cnot_sq,
    alt_comparator,
    alt_t_depth_add,
    alt_t_depth_arcsq,
    alt_t_depth_mul,
    alt_t_depth_pp,
    alt_t_depth_sq,
    alt_toffoli_add,
    alt_toffoli_arcsq,
    alt_toffoli_exp,
    alt_toffoli_mul,
    alt_toffoli_sq,
    assert_cnots,
    random_tuples,
    ternary_cnots,
)

REFERENCE_PARAMS = N.NoiseParams(p1=1e-4, p2=1e-2, T1_level1=100.0, T1_level2=30.0, tau_gate=0.0)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return wrapper

    return decorate


def toffoli_permutation():
    matrix = np.zeros((8, 8))
    for a in range(2):
        for b in range(2):
            for t in range(2):
                src = (a << 2) | (b << 1) | t
                matrix[(a << 2) | (b << 1) | (t ^ (a & b)), src] = 1
    return matrix


@criterion(1, "decomposition equivalence for both lowerings within 1e-10, under 1s")
def test_criterion_1_decomposition_equivalence():
    start = time.perf_counter()
    base = C.append(C.new_circuit([2, 2, 2]), C.toffoli(0, 1, 2))
    oracle = toffoli_permutation()

    # the three-gate lowering on a fully ternary register: 27x27 unitary,
    # restricted to the 8 all-binary basis states
    ternary = C.extend(C.new_circuit([3, 3, 3]), T.decompose_toffoli_qutrit(0, 1, 2))
    full = S.circuit_unitary(ternary)
    assert full.shape == (27, 27)
    sub = S.qubit_subspace_indices(ternary.dims)
    assert np.allclose(full[np.ix_(sub, sub)], oracle, atol=1e-10)

    # the production lowering promotes only the second control
    lowered = T.lower_toffolis(base, LoweringStrategy.QUTRIT)
    assert np.allclose(S.qubit_subspace_unitary(lowered), oracle, atol=1e-10)

    clifford = T.lower_toffolis(base, LoweringStrategy.CLIFFORD_T_FUNCTIONAL)
    assert np.allclose(S.circuit_unitary(clifford), oracle, atol=1e-10)
    assert time.perf_counter() - start < 1.0


@criterion(2, "per-Toffoli count/depth profiles reproduced as exact integers")
def test_criterion_2_cost_profiles():
    qutrit = T.cost_profile(LoweringStrategy.QUTRIT)
    assert (qutrit.two_qutrit_gates, qutrit.depth_per_toffoli) == (3, 3)
    assert (qutrit.t_depth_per_toffoli, qutrit.ancilla_wires) == (0, 0)
    assert qutrit.table_gate_count == 3

    baseline = T.cost_profile(LoweringStrategy.SELINGER_COST)
    assert baseline.depth_per_toffoli == 7
    assert baseline.t_depth_per_toffoli == 1
    assert baseline.ancilla_wires == 4
    assert baseline.table_gate_count == 25
    assert (baseline.one_qubit_gates, baseline.two_qubit_gates) == (7, 16)

    lowered = T.lower_toffolis(
        C.append(C.new_circuit([2, 2, 2]), C.toffoli(0, 1, 2)), LoweringStrategy.QUTRIT
    )
    assert C.gate_count(lowered) == 3
    assert C.depth(lowered) == 3


@criterion(3, "5x3 showcase multiplier yields 15 with probability 1, plain and lowered")
def test_criterion_3_multiplier_witness():
    circuit, layout = A.build_demo_multiplier()
    for variant in (circuit, T.lower_toffolis(circuit, LoweringStrategy.QUTRIT)):
        state = S.simulate(variant, "0" * 13)
        probs = np.abs(state.amplitudes) ** 2
        top = int(np.argmax(probs))
        assert abs(probs[top] - 1.0) <= 1e-12
        label = S.digit_labels(S.index_digits(variant.dims, np.array([top])))[0]
        assert A.register_value(label, layout.result_wires) == 15


@criterion(4, "adder n=4 and multiplier 3x2 exhaustively correct, ancilla restored, under 2min")
def test_criterion_4_exhaustive_arithmetic():
    start = time.perf_counter()
    adder, adder_layout = A.build_adder(4)
    for variant in (adder, T.lower_toffolis(adder, LoweringStrategy.QUTRIT)):
        assert V.adder_failure(variant, adder_layout) is None
    mult, mult_layout = A.build_multiplier(3, 2)
    for variant in (mult, T.lower_toffolis(mult, LoweringStrategy.QUTRIT)):
        assert V.multiplier_failure(variant, mult_layout) is None
    assert time.perf_counter() - start < 120.0


@criterion(5, "formulas match independent re-evaluation; 3x law exact; arcsine flagged")
def test_criterion_5_formula_cross_check():
    for n, p, k, M, d, z in random_tuples(100):
        pairs = [
            (R.toffoli_count_add(n), alt_toffoli_add(n)),
            (R.t_depth_add(n), alt_t_depth_add(n)),
            (R.toffoli_count_mul(n, p), alt_toffoli_mul(n, p)),
            (R.t_depth_mul(n, z), alt_t_depth_mul(n, z)),
            (R.toffoli_count_sq(n), alt_toffoli_sq(n)),
            (R.t_depth_sq(n), alt_t_depth_sq(n)),
            (R.toffoli_count_exp(n, p, k, M, d), alt_toffoli_exp(n, p, k, M, d)),
            (R.toffoli_count_arcsq(n, p, k, M, d), alt_toffoli_arcsq(n, p, k, M, d)),
            (R.comparator_t_depth(n), alt_comparator(n)),
            (R.t_depth_pp(n, z, k, M), alt_t_depth_pp(n, z, k, M)),
            (R.t_depth_arcsq(n, p, z, k, M), alt_t_depth_arcsq(n, p, z, k, M)),
        ]
        for got, expected in pairs:
            assert got == pytest.approx(expected, rel=1e-9)
        args = (n, p, k, M, d, z)
        assert_cnots(alt_cnot_add(n), "add", *args)
        assert_cnots(alt_cnot_mul(n, p), "mul", *args)
        assert_cnots(alt_cnot_sq(n), "sqrt", *args)
        assert_cnots(alt_cnot_exp(n, p, k, M, d), "exp", *args)
        assert_cnots(alt_cnot_arcsq(n, p, k, M, d), "arcsine", *args)
        # exact 3x law for add/mul/sq/exp
        assert_cnots(3 * R.toffoli_count_add(n), "add", *args, exact=True)
        assert_cnots(3 * R.toffoli_count_mul(n, p), "mul", *args, exact=True)
        assert_cnots(3 * R.toffoli_count_sq(n), "sqrt", *args, exact=True)
        assert_cnots(3 * R.toffoli_count_exp(n, p, k, M, d), "exp", *args, exact=True)

    # the arcsine discrepancy is reproduced and flagged
    assert R.toffoli_count_arcsq(4, 0, 1, 1, 1) == 87.0
    assert ternary_cnots("arcsine", 4, 0, 1, 1, 1) == 241.0
    assert 3 * 87.0 == 261.0 != 241.0
    report = R.estimate_operation("arcsine", 4, strategy=LoweringStrategy.QUTRIT)
    assert any("-26" in note for note in report.notes)


@criterion(6, "benchmark conversion 12e9/54e6/378e6 -> 0/0/162e6 exactly")
def test_criterion_6_benchmark_reproduction():
    baseline = R.BaselineCosts(t_cost=12e9, t_depth=54e6, overall_depth=378e6)
    report = R.benchmark_report(baseline)
    assert report.t_count == 0.0
    assert report.t_depth == 0.0
    assert report.overall_depth == 162e6
    assert report.overall_depth == 378e6 * 3 / 7


@criterion(7, "success curve endpoints 0.4047/0.00786, qutrit dominates, quoted figures footnoted")
def test_criterion_7_success_curve(tmp_path):
    qutrit = dict(N.success_curve(LoweringStrategy.QUTRIT, 50, REFERENCE_PARAMS))
    conventional = dict(N.success_curve(LoweringStrategy.SELINGER_COST, 50, REFERENCE_PARAMS))
    assert qutrit[30] == pytest.approx(0.4047, abs=0.005)
    assert conventional[30] == pytest.approx(0.00786, abs=0.001)
    for count in range(1, 51):
        assert qutrit[count] > conventional[count]

    out = tmp_path / "curve.csv"
    assert cli_main(["noise-curve", "--max-toffoli", "30", "--tau", "0",
                     "--out", str(out)]) == 0
    text = out.read_text()
    assert "60.0%" in text and "99.95%" in text
    assert "unreconciled" in text


@criterion(8, "channels trace-preserving; 100-step random evolution keeps trace/Hermiticity/PSD")
def test_criterion_8_channel_properties():
    for dims in [(2,), (3,), (2, 2), (2, 3), (3, 3)]:
        channel = N.depolarizing_channel(dims, 0.005)
        size = int(np.prod(channel.dims))
        total = sum(k.conj().T @ k for k in channel.operators)
        assert np.max(np.abs(total - np.eye(size))) < 1e-10
    assert np.max(np.abs(
        sum(k.conj().T @ k for k in N.amplitude_damping_qutrit(0.3, 0.7).operators) - np.eye(3)
    )) < 1e-10

    dims = (2, 3, 2)
    rng = random.Random(77)
    np_rng = np.random.default_rng(77)
    vec = np_rng.normal(size=12) + 1j * np_rng.normal(size=12)
    vec /= np.linalg.norm(vec)
    rho = S.DensityMatrix(dims, np.outer(vec, vec.conj()))
    single_gates = [C.h(0), C.x(2), C.xplus1(1), C.t(0), C.controlled(C.x(2), 1, 2)]
    for _ in range(100):
        kind = rng.choice(["gate", "depolarize1", "depolarize2", "damp"])
        if kind == "gate":
            rho = S.evolve_density(rho, rng.choice(single_gates))
        elif kind == "depolarize1":
            wire = rng.randrange(3)
            rho = S.evolve_density(
                rho, N.depolarizing_channel([dims[wire]], rng.uniform(0, 0.01)), wires=(wire,)
            )
        elif kind == "depolarize2":
            a, b = rng.sample(range(3), 2)
            rho = S.evolve_density(
                rho,
                N.depolarizing_channel([dims[a], dims[b]], rng.uniform(0, 0.01)),
                wires=(a, b),
            )
        else:
            wire = rng.randrange(3)
            lam = rng.uniform(0, 0.2)
            channel = (
                N.amplitude_damping_qutrit(lam, rng.uniform(0, 0.2))
                if dims[wire] == 3
                else N.amplitude_damping_qubit(lam)
            )
            rho = S.evolve_density(rho, channel, wires=(wire,))
        assert abs(np.trace(rho.entries) - 1) < 1e-10
        assert np.array_equal(rho.entries, rho.entries.conj().T)
        assert np.linalg.eigvalsh(rho.entries).min() >= -1e-8


@criterion(9, "pricing bounds: trunc value, exact 1/4 scaling, Gaussian moments within 5%")
def test_criterion_9_pricing_bounds():
    setup = P.PricingSetup(d=1, T=1, w=5.0)
    assert abs(P.trunc_error_bound(setup) - 7.4533e-6) <= 1e-9

    for n in (3, 4, 7):
        small = P.PricingSetup(d=1, T=1, n=n, beta=2.0, B_l=-1.0, B_u=2.0)
        big = P.PricingSetup(d=1, T=1, n=n + 1, beta=2.0, B_l=-1.0, B_u=2.0)
        assert P.disc_error(small) == 4.0 * P.disc_error(big)

    spec = P.GaussianSpec(n=6, x0=0.0, sigma=1.0, w=4.0)
    probs = np.abs(P.gaussian_target_state(spec).amplitudes) ** 2
    grid = spec.grid()
    variance = float(np.sum(probs * grid ** 2) - np.sum(probs * grid) ** 2)
    assert abs(variance - spec.sigma ** 2) / spec.sigma ** 2 < 0.05

    hist = {j: float(p) for j, p in enumerate(probs)}
    energy = P.energy_x2(hist, m=spec.m, dx=spec.dx, x0=spec.w * spec.sigma)
    target = spec.m * spec.sigma ** 2 / 2
    assert abs(energy - target) / target < 0.05


@criterion(10, "verify and noise-curve runs are byte-identical")
def test_criterion_10_determinism(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        assert cli_main(["verify"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert all(line.startswith("PASS") for line in outputs[0].strip().splitlines())

    curves = []
    for name in ("c1.csv", "c2.csv"):
        path = tmp_path / name
        assert cli_main(["noise-curve", "--max-toffoli", "50", "--out", str(path)]) == 0
        curves.append(path.read_bytes())
    assert curves[0] == curves[1]
