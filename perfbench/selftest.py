"""Self-tests of the benchmark itself: checkers, span arithmetic, tracing.

    python3 perfbench/selftest.py          # from the root of the checkout

The last test class runs ``run.py`` end to end (a few minutes): every
workload twice with tracing, and once in a directory without the sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import triarc  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


def failures(checks) -> int:
    return sum(1 for c in checks if not c.ok)


class PlantedWrongAnswers(unittest.TestCase):
    """Each checker must count a planted wrong answer as failed."""

    def test_verify(self):
        expected = W.setup_verify(0)["expected"]
        good = "\n".join(expected) + "\n"
        self.assertEqual(failures(W.check_verify(good, 0, expected)), 0)
        wrong_line = good.replace("PASS adder-3bit-exhaustive", "FAIL adder-3bit-exhaustive")
        self.assertEqual(failures(W.check_verify(wrong_line, 0, expected)), 1)
        self.assertEqual(failures(W.check_verify(good, 1, expected)), 1)
        self.assertGreaterEqual(failures(W.check_verify("\n".join(expected[:-1]), 0, expected)), 1)

    def test_compile(self):
        self.assertTrue(W.check_lowered_count("x", W.QUTRIT, 4, 9, 9 + 12).ok)
        self.assertFalse(W.check_lowered_count("x", W.QUTRIT, 4, 9, 9 + 12 + 1).ok)
        self.assertTrue(W.check_lowered_count("x", W.CLIFFORD_T, 4, 9, 9 + 60).ok)
        self.assertFalse(W.check_lowered_count("x", W.CLIFFORD_T, 4, 9, 9 + 59).ok)
        self.assertTrue(W.check_t_count("x", 4, 28).ok)
        self.assertFalse(W.check_t_count("x", 4, 27).ok)
        source, _ = triarc.build_adder(2)
        self.assertTrue(W.check_same_circuit("x", source, source).ok)
        dropped = triarc.Circuit(source.wires, source.gates[:-1])
        self.assertFalse(W.check_same_circuit("x", source, dropped).ok)
        swapped = triarc.Circuit(source.wires, source.gates[1:] + source.gates[:1])
        self.assertFalse(W.check_same_circuit("x", source, swapped).ok)

    def test_noise(self):
        dims = (2, 2, 2, 2, 2, 2)
        a, b = 3, 2
        good = np.zeros((64, 64))
        index = int(W.adder_output_label(2, a, b), 2)
        good[index, index] = 1.0
        self.assertEqual(failures(W.check_density_output("x", dims, good, a, b)), 0)
        off_by_one = np.zeros((64, 64))
        index = int(W.adder_output_label(2, a, b + 1), 2)
        off_by_one[index, index] = 1.0
        self.assertEqual(failures(W.check_density_output("x", dims, off_by_one, a, b)), 1)
        self.assertTrue(W.check_zero_noise_fidelity("x", 1.0 - 1e-12).ok)
        self.assertFalse(W.check_zero_noise_fidelity("x", 1.0 - 1e-6).ok)
        grid = (0.0, 0.1, 0.2)
        self.assertEqual(failures(W.check_fidelity_grid("x", grid, [1.0, 0.9, 0.8])), 0)
        self.assertEqual(failures(W.check_fidelity_grid("x", grid, [1.0, 0.8, 0.9])), 1)
        self.assertEqual(failures(W.check_fidelity_grid("x", grid, [1.1, 0.9, 0.8])), 1)
        p1, p2, per = 1e-4, 1e-2, (7, 16)
        curve = [(k, (1 - p1) ** (7 * k) * (1 - p2) ** (16 * k)) for k in range(1, W.CURVE_TOFFOLIS + 1)]
        self.assertTrue(W.check_success_curve("x", p1, p2, per, curve).ok)
        bent = list(curve)
        bent[499] = (500, curve[499][1] * (1 + 1e-6))
        self.assertFalse(W.check_success_curve("x", p1, p2, per, bent).ok)
        self.assertFalse(W.check_success_curve("x", p1, p2, per, curve[:-1]).ok)

    def test_sample(self):
        n, a, b = 6, 45, 30
        def basis(label):
            amps = np.zeros(2 ** (2 * n + 2), dtype=complex)
            amps[int(label, 2)] = 1.0
            return amps
        self.assertTrue(W.check_adder_output(n, a, b, basis(W.adder_output_label(n, a, b))).ok)
        self.assertFalse(W.check_adder_output(n, a, b, basis(W.adder_output_label(n, a, b + 1))).ok)
        no_carry = W.adder_output_label(n, a, b)[:-1] + "0"
        self.assertFalse(W.check_adder_output(n, a, b, basis(no_carry)).ok)
        spec = triarc.GaussianSpec(n=10)
        mean, variance = W.exact_energy_x2(spec)
        stderr = (variance / W.SHOTS) ** 0.5
        self.assertTrue(W.check_energy(spec, W.SHOTS, 0, mean + stderr).ok)
        self.assertFalse(W.check_energy(spec, W.SHOTS, 0, mean + 6 * stderr).ok)


class SpanArithmetic(unittest.TestCase):
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9];
    # a second top-level span d [11, 12] ends a 13-second pass
    SPANS = [
        ("root", -1, 0.0, 10.0, False),
        ("a", 0, 1.0, 4.0, False),
        ("c", 1, 2.0, 3.0, True),
        ("b", 0, 5.0, 9.0, False),
        ("d", -1, 11.0, 12.0, False),
    ]

    def test_self_times(self):
        self.assertEqual(tracer.self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0, 1.0])

    def test_summary_accounts_for_the_pass(self):
        spans = [("circuits.append", p, s, e, err) for _, p, s, e, err in self.SPANS]
        metrics = tracer.summarize(spans, tracer.Counters(), 13.0)
        self.assertEqual(metrics["circuits.append.calls"], 5)
        self.assertEqual(metrics["circuits.append.errors"], 1)
        self.assertEqual(metrics["circuits.append.self_s"], 11.0)
        self.assertEqual(metrics["benchmark.self_s"], 2.0)
        own = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        self.assertEqual(own, 13.0)


class ReferenceArithmetic(unittest.TestCase):
    def test_run_ref_divides_each_pass_by_the_references_around_it(self):
        passes = [{"wall": 2.0, "reference": 1.0}, {"wall": 4.0, "reference": 1.0},
                  {"wall": 6.0, "reference": 3.0}]
        # ratios 2/1, 4/((1+1)/2), 6/((1+3)/2)
        self.assertEqual(worker.run_ref(passes), 3.0)


class Wrapping(unittest.TestCase):
    def test_wrappers_reach_every_binding_and_are_removed(self):
        from triarc import circuits, noise, simulator

        original = simulator.simulate
        t = tracer.Tracer()
        t.install(triarc)
        try:
            self.assertIs(triarc.simulate, simulator.simulate)
            self.assertIsNot(simulator.simulate, original)
            self.assertIs(noise.evolve_density, simulator.evolve_density)
            self.assertIs(simulator.validate_gate, circuits.validate_gate)
            circuit, _ = triarc.build_adder(2)
            calls = [s[0] for s in t.spans]
            self.assertEqual(calls.count("circuits.validate_gate"), len(circuit.gates))
            self.assertTrue(all(s[1] == 0 for s in t.spans[1:]))
        finally:
            t.uninstall()
        self.assertIs(simulator.simulate, original)
        self.assertIs(triarc.simulate, original)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


class EndToEnd(unittest.TestCase):
    def test_exact_counts_repeat_across_two_traced_runs(self):
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        declared = {m["name"]: m["unit"] for m in per_layer}
        exact = ("circuits.validate_gate.calls", "simulator.simulate.amp_gates",
                 "simulator.evolve_density.kraus_ops", "noise.depolarizing_channel.calls")
        for workload in W.WORKLOADS:
            runs = []
            for _ in range(2):
                proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertTrue(result["correct"])
                self.assertIn("counts repeat on every traced pass: True", proc.stdout)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
                runs.append({k: result["metrics"][k]["value"] for k in exact})
            self.assertEqual(runs[0], runs[1], workload)

    def test_end_to_end_metrics_match_benchmark_json(self):
        end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        proc = run_bench("--workload", "compile", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in end_to_end})
        self.assertIn("fail_ratio = 0 ratio", proc.stdout)

    def test_fails_without_the_sources(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = run_bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                             cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
