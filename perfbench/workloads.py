"""The benchmark's four workloads: input generation, one pass of jobs, and checks.

Every job calls triarc through a module attribute (``circuits.append``,
``simulator.simulate``, ...) looked up at call time, so the tracer's
wrappers see the calls. Every reference value a check compares against is
computed here with Python integers or numpy, never by triarc.

Import this module only after ``triarc`` is importable.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from triarc import arith, circuits, cli, noise, pricing, resources, simulator, transpile
from triarc.transpile import LoweringStrategy

EXPECTED_VERIFY = Path(__file__).with_name("expected_verify.txt")

QUTRIT = LoweringStrategy.QUTRIT
CLIFFORD_T = LoweringStrategy.CLIFFORD_T_FUNCTIONAL
GATES_PER_TOFFOLI = {QUTRIT: 3, CLIFFORD_T: 15}
T_PER_TOFFOLI = 7


@dataclass(frozen=True)
class Check:
    """One correctness check; a failed one is printed as a witness."""

    name: str
    ok: bool
    inputs: Any
    expected: Any
    observed: Any


# ---------------------------------------------------------------------------
# verify: `triarc verify` in-process, against hand-written expected lines
# ---------------------------------------------------------------------------

def setup_verify(seed: int) -> dict:
    return {"expected": EXPECTED_VERIFY.read_text().splitlines()}


def check_verify(stdout: str, exit_code: int, expected: list[str]) -> list[Check]:
    lines = stdout.splitlines()
    checks = [
        Check(f"verify.line{i + 1}", i < len(lines) and lines[i] == want,
              {"line": i + 1}, want, lines[i] if i < len(lines) else None)
        for i, want in enumerate(expected)
    ]
    checks.append(Check("verify.line_count", len(lines) == len(expected), {}, len(expected), len(lines)))
    checks.append(Check("verify.exit_code", exit_code == 0, {}, 0, exit_code))
    return checks


def run_verify(inputs: dict) -> list[Check]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify"])
    return check_verify(out.getvalue(), code, inputs["expected"])


# ---------------------------------------------------------------------------
# compile: build -> lower -> analyse -> serialise, no simulation
# ---------------------------------------------------------------------------

COMPILE_ADDER_BITS = (256, 1024)
APPEND_ADDER_BITS = 64


def setup_compile(seed: int) -> dict:
    return {}


def toffoli_census(circuit) -> tuple[int, int]:
    """(Toffolis, other gates), counted by the benchmark itself."""
    toffolis = sum(1 for g in circuit.gates if g.kind.name == "TOFFOLI")
    return toffolis, len(circuit.gates) - toffolis


def check_lowered_count(label: str, strategy, toffolis: int, others: int, observed: int) -> Check:
    expected = others + GATES_PER_TOFFOLI[strategy] * toffolis
    return Check(f"compile.gate_count.{label}", observed == expected,
                 {"toffolis": toffolis, "other_gates": others, "strategy": strategy.value},
                 expected, observed)


def check_t_count(label: str, toffolis: int, observed: int) -> Check:
    expected = T_PER_TOFFOLI * toffolis
    return Check(f"compile.t_count.{label}", observed == expected, {"toffolis": toffolis},
                 expected, observed)


def check_same_circuit(label: str, source, copy) -> Check:
    ok = copy.wires == source.wires and copy.gates == source.gates
    return Check(f"compile.same_circuit.{label}", ok, {"gates": len(source.gates)},
                 (len(source.wires), len(source.gates)), (len(copy.wires), len(copy.gates)))


def run_compile(inputs: dict) -> list[Check]:
    checks = []
    lowered = {}
    for n in COMPILE_ADDER_BITS:
        adder, _ = arith.build_adder(n)
        toffolis, others = toffoli_census(adder)
        for strategy in (QUTRIT, CLIFFORD_T):
            circuit = transpile.lower_toffolis(adder, strategy)
            lowered[n, strategy] = circuit
            label = f"adder{n}.{strategy.value}"
            checks.append(check_lowered_count(label, strategy, toffolis, others,
                                              circuits.gate_count(circuit)))
            circuits.depth(circuit)
            if strategy is CLIFFORD_T:
                t_count, _ = circuits.t_metrics(circuit)
                checks.append(check_t_count(label, toffolis, t_count))
    for n, strategy in ((1024, QUTRIT), (256, CLIFFORD_T)):
        source = lowered[n, strategy]
        copy = circuits.from_json(circuits.to_json(source))
        checks.append(check_same_circuit(f"json.adder{n}.{strategy.value}", source, copy))

    adder, _ = arith.build_adder(APPEND_ADDER_BITS)
    source = transpile.lower_toffolis(adder, QUTRIT)
    built = circuits.new_circuit(source.wires)
    for gate in source.gates:
        built = circuits.append(built, gate)
    checks.append(check_same_circuit(f"append.adder{APPEND_ADDER_BITS}.qutrit", source, built))
    return checks


# ---------------------------------------------------------------------------
# shared by noise and sample: ripple-carry adder labels, by the adder's
# documented layout (A on wires 0..n-1 and B on n..2n-1, least significant
# first; ancilla 2n; carry 2n+1)
# ---------------------------------------------------------------------------

def adder_input_label(n: int, a: int, b: int) -> str:
    digits = [(a >> k) & 1 for k in range(n)] + [(b >> k) & 1 for k in range(n)] + [0, 0]
    return "".join(map(str, digits))


def adder_output_label(n: int, a: int, b: int) -> str:
    total = a + b
    return adder_input_label(n, a, total % 2 ** n)[:-1] + str(total >> n)


# ---------------------------------------------------------------------------
# noise: density-matrix noise studies
# ---------------------------------------------------------------------------

NOISE_ADDER_BITS = 2
NOISE_P1, NOISE_P2, NOISE_TAU = 1e-4, 1e-4, 0.01
FIDELITY_P2_GRID = tuple(float(p) for p in np.linspace(0.0, 1e-2, 25))
CURVE_TOFFOLIS = 1000
CURVE_P1, CURVE_P2 = 1e-4, 1e-2
# per-Toffoli (one-qubit, two-wire) gate counts the analytic model scales
CURVE_PROFILES = {LoweringStrategy.QUTRIT: (0, 3), LoweringStrategy.SELINGER_COST: (7, 16)}


def setup_noise(seed: int) -> dict:
    rng = random.Random(seed)
    size = 2 ** NOISE_ADDER_BITS
    return {"a": rng.randrange(size), "b": rng.randrange(size)}


def check_density_output(label: str, dims, entries: np.ndarray, a: int, b: int) -> list[Check]:
    n = NOISE_ADDER_BITS
    want = adder_output_label(n, a, b)
    index = 0
    for digit, dim in zip(want, dims):
        index = index * dim + int(digit)
    diag = np.real(np.diag(entries))
    trace = float(diag.sum())
    top = int(np.argmax(diag))
    inputs = {"a": a, "b": b, "dims": list(dims)}
    return [
        Check(f"noise.trace.{label}", abs(trace - 1.0) <= 1e-9, inputs, 1.0, trace),
        Check(f"noise.most_likely_output.{label}", top == index and diag[index] > 0.5, inputs,
              {"index": index, "label": want, "population": "> 0.5"},
              {"index": top, "population": float(diag[index])}),
    ]


def check_zero_noise_fidelity(label: str, value: float) -> Check:
    return Check(f"noise.zero_noise_fidelity.{label}", abs(value - 1.0) <= 1e-9,
                 {"p1": 0, "p2": 0, "tau": 0}, 1.0, value)


def check_fidelity_grid(label: str, grid, values) -> list[Check]:
    checks = [
        Check(f"noise.fidelity_range.{label}", 0.0 <= f <= 1.0, {"p2": p2}, "[0, 1]", f)
        for p2, f in zip(grid, values)
    ]
    checks += [
        Check(f"noise.fidelity_non_increasing.{label}", values[i] <= values[i - 1] + 1e-12,
              {"p2": (grid[i - 1], grid[i])}, f"<= {values[i - 1]}", values[i])
        for i in range(1, len(values))
    ]
    return checks


def check_success_curve(label: str, p1: float, p2: float, per_toffoli, curve) -> Check:
    n1, n2 = per_toffoli
    worst = (0.0, None)
    for k, (count, value) in enumerate(curve, start=1):
        expected = (1 - p1) ** (n1 * k) * (1 - p2) ** (n2 * k)
        error = abs(value - expected) / expected if count == k else float("inf")
        if error > worst[0]:
            worst = (error, (k, expected, count, value))
    ok = len(curve) == CURVE_TOFFOLIS and worst[0] <= 1e-9
    k, expected, count, value = worst[1] or (None, None, None, None)
    return Check(f"noise.success_curve.{label}", ok,
                 {"p1": p1, "p2": p2, "per_toffoli": per_toffoli, "worst_k": k, "points": len(curve)},
                 expected, {"count": count, "value": value})


def _noisy_adder_density(strategy, a: int, b: int):
    adder, _ = arith.build_adder(NOISE_ADDER_BITS)
    lowered = transpile.lower_toffolis(adder, strategy)
    dims = lowered.dims
    rho = simulator.basis_density(dims, adder_input_label(NOISE_ADDER_BITS, a, b))
    l1 = noise.lambda_from_time(NOISE_TAU, 100.0)
    l2 = noise.lambda_from_time(NOISE_TAU, 30.0)
    damping = [noise.amplitude_damping_qutrit(l1, l2) if d == 3 else noise.amplitude_damping_qubit(l1)
               for d in dims]
    for layer in circuits.layers(lowered):
        for gate in layer:
            rho = simulator.evolve_density(rho, gate)
            p = NOISE_P1 if len(gate.wires) == 1 else NOISE_P2
            channel = noise.depolarizing_channel([dims[w] for w in gate.wires], p)
            rho = simulator.evolve_density(rho, channel, wires=gate.wires)
        for wire, channel in enumerate(damping):
            rho = simulator.evolve_density(rho, channel, wires=(wire,))
    return rho


def run_noise(inputs: dict) -> list[Check]:
    a, b = inputs["a"], inputs["b"]
    checks = []
    for strategy in (QUTRIT, CLIFFORD_T):
        rho = _noisy_adder_density(strategy, a, b)
        checks += check_density_output(f"adder{NOISE_ADDER_BITS}.{strategy.value}", rho.dims,
                                       rho.entries, a, b)
        zero = noise.noisy_toffoli_fidelity(strategy, noise.NoiseParams(p1=0.0, p2=0.0, tau_gate=0.0))
        checks.append(check_zero_noise_fidelity(strategy.value, zero))
        values = [noise.noisy_toffoli_fidelity(
                      strategy, noise.NoiseParams(p1=NOISE_P1, p2=p2, tau_gate=NOISE_TAU))
                  for p2 in FIDELITY_P2_GRID]
        checks += check_fidelity_grid(strategy.value, FIDELITY_P2_GRID, values)
    params = noise.NoiseParams(p1=CURVE_P1, p2=CURVE_P2, tau_gate=0.0)
    for strategy, per_toffoli in CURVE_PROFILES.items():
        curve = noise.success_curve(strategy, CURVE_TOFFOLIS, params)
        checks.append(check_success_curve(strategy.value, CURVE_P1, CURVE_P2, per_toffoli, curve))
    approx = resources.ApproxParams(k=2, M=4)
    for op in resources.OPERATIONS:
        for strategy in CURVE_PROFILES:
            resources.estimate_operation(op, 16, 4, approx, strategy)
    return checks


# ---------------------------------------------------------------------------
# sample: dense state vectors, sampling and pricing
# ---------------------------------------------------------------------------

SAMPLE_ADDERS = ((6, 16), (9, 1))  # (bits, operand pairs): 2^14 and 2^20 amplitudes
GAUSSIAN_QUBITS = 20
SHOTS = 100_000


def setup_sample(seed: int) -> dict:
    rng = random.Random(seed)
    adders = []
    for n, count in SAMPLE_ADDERS:
        adder, _ = arith.build_adder(n)
        text = circuits.to_json(transpile.lower_toffolis(adder, CLIFFORD_T))
        pairs = [(rng.randrange(2 ** n), rng.randrange(2 ** n)) for _ in range(count)]
        adders.append((n, text, pairs))
    return {"adders": adders, "shot_seed": rng.randrange(2 ** 32)}


def check_adder_output(n: int, a: int, b: int, amplitudes: np.ndarray) -> Check:
    probs = np.abs(amplitudes) ** 2
    top = int(np.argmax(probs))
    label = format(top, f"0{2 * n + 2}b")
    want = adder_output_label(n, a, b)
    ok = label == want and probs[top] >= 1 - 1e-9
    return Check(f"sample.adder{n}", ok, {"a": a, "b": b},
                 {"sum": (a + b) % 2 ** n, "carry": (a + b) >> n, "label": want},
                 {"label": label, "probability": float(probs[top])})


def exact_energy_x2(spec) -> tuple[float, float]:
    """(mean, variance) of the energy_x2 summand under the exact Gaussian
    probabilities, computed from the spec's grid formula with numpy."""
    j = np.arange(2 ** spec.n)
    dx = 2.0 * spec.w * spec.sigma / 2 ** spec.n
    grid = spec.x0 - spec.w * spec.sigma + dx * j
    weights = np.exp(-((grid - spec.x0) ** 2) / (2.0 * spec.sigma ** 2))
    probs = weights / weights.sum()
    m = 1.0 / (2.0 * spec.sigma ** 2)
    values = (m / 2.0) * (j * dx - spec.w * spec.sigma) ** 2
    mean = float(probs @ values)
    return mean, float(probs @ (values - mean) ** 2)


def check_energy(spec, shots: int, shot_seed: int, value: float) -> Check:
    mean, variance = exact_energy_x2(spec)
    stderr = (variance / shots) ** 0.5
    return Check("sample.energy_x2", abs(value - mean) <= 5 * stderr,
                 {"n": spec.n, "shots": shots, "shot_seed": shot_seed},
                 {"mean": mean, "tolerance": 5 * stderr}, value)


def run_sample(inputs: dict) -> list[Check]:
    checks = []
    for n, text, pairs in inputs["adders"]:
        circuit = circuits.from_json(text)
        for a, b in pairs:
            state = simulator.simulate(circuit, adder_input_label(n, a, b))
            checks.append(check_adder_output(n, a, b, state.amplitudes))
    spec = pricing.GaussianSpec(n=GAUSSIAN_QUBITS)
    state = pricing.gaussian_target_state(spec)
    hist = simulator.measure_all(state, SHOTS, inputs["shot_seed"])
    value = pricing.energy_x2(hist, spec.m, spec.dx, spec.w * spec.sigma)
    checks.append(check_energy(spec, SHOTS, inputs["shot_seed"], value))
    return checks


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict]
    run: Callable[[dict], list[Check]]
    seeded: bool  # False: the seed does not change the inputs


WORKLOADS = {
    "verify": Workload(setup_verify, run_verify, seeded=False),
    "compile": Workload(setup_compile, run_compile, seeded=False),
    "noise": Workload(setup_noise, run_noise, seeded=True),
    "sample": Workload(setup_sample, run_sample, seeded=True),
}
