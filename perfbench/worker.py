"""Runs one workload in this process and prints one JSON line.

``run.py`` starts it with BLAS/OpenMP threads pinned. With ``--setup-only``
it stops once triarc is imported and the inputs are generated, which is the
span ``setup_s`` times. Otherwise it repeats passes over the workload's job
list for the given number of seconds: untraced, or with ``--trace 1`` first
untraced and then with every listed triarc function wrapped by the span
recorder, so the traced and untraced pass times sit side by side.

An untraced run also times a fixed reference job after each pass, and
reports times in reference seconds: wall time scaled by how fast the
reference ran, so that it reads as on a machine where the reference job
takes ``REFERENCE_NOMINAL_S``. On a shared host whose speed drifts for
longer than a run lasts, this keeps runs comparable where wall times are
not; README.md gives the measurements.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from tracer import Tracer, spans_record, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3          # untraced run: the median needs at least three passes
MIN_TRACE_PASSES = 2    # per side of a traced run
MAX_WITNESSES = 20
REFERENCE_LOOP = 150_000            # dict updates, ~30 ms of interpreter work
REFERENCE_BYTES = 32 * 2 ** 20      # per array; well past L2, as the workloads' states are
REFERENCE_SWEEPS = 3                # copy-and-scale sweeps, ~30 ms of memory traffic
REFERENCE_REPEATS = 3
REFERENCE_NOMINAL_S = 0.032         # about the reference's time on the host the bounds were set on


class Reference:
    """A fixed job that tells how fast the machine runs at the moment.

    Its time is the geometric mean of an interpreter-bound loop and a
    memory-bound numpy sweep, each the mean of a few repeats: the workloads
    mix both kinds of work, and host slowdowns hit the two unevenly.
    """

    def __init__(self) -> None:
        self.peak_rss_mb: float | None = None
        self._a = self._b = None

    def _interpreter(self) -> None:
        counts: dict[int, int] = {}
        for i in range(REFERENCE_LOOP):
            counts[i % 1000] = counts.get(i % 1000, 0) + i

    def _memory(self) -> None:
        for _ in range(REFERENCE_SWEEPS):
            np.copyto(self._b, self._a)
            np.multiply(self._b, 1.0000001, out=self._b)

    def time(self) -> float:
        if self._a is None:
            # first call, right after the first pass: the peak so far is the
            # workload's own, before the reference arrays add to it
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self._a = np.ones(REFERENCE_BYTES // 16, dtype=complex)
            self._b = np.empty_like(self._a)
        times = []
        for job in (self._interpreter, self._memory):
            t0 = time.perf_counter()
            for _ in range(REFERENCE_REPEATS):
                job()
            times.append((time.perf_counter() - t0) / REFERENCE_REPEATS)
        return math.sqrt(times[0] * times[1])


def import_triarc():
    sys.path.insert(0, str(SRC))
    import triarc

    if Path(triarc.__file__).resolve().parent != SRC / "triarc":
        raise SystemExit(f"triarc was imported from {triarc.__file__}, not from {SRC}")
    return triarc


def timed_passes(workload, inputs, budget_s: float, min_passes: int, tracer=None,
                 reference: Reference | None = None) -> list[dict]:
    """Repeat passes until ``min_passes`` are done and the next pass would end,
    at the median pace so far, more than half a pass past ``budget_s``; so a
    run overshoots its budget by half a pass at most, not by a whole one.
    With a ``reference``, it is timed after each pass."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - start + statistics.median(p["wall"] for p in passes) / 2 < budget_s
    ):
        gc.collect()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        checks = workload.run(inputs)
        wall = time.perf_counter() - t0
        record = {"wall": wall, "checks": checks}
        if tracer is not None:
            record["layers"] = summarize(tracer.spans, tracer.counters, wall)
        if reference is not None:
            record["reference"] = reference.time()
        passes.append(record)
    return passes


def run_ref(passes: list[dict]) -> float:
    """Median over passes of the pass time divided by the reference time
    around it: the mean of the references right before and right after the
    pass, or the one right after for the first pass."""
    refs = [p["reference"] for p in passes]
    return statistics.median(
        p["wall"] / ((refs[i - 1] + refs[i]) / 2 if i else refs[0]) for i, p in enumerate(passes)
    )


def per_layer(traced: list[dict], untraced_run_s: float) -> tuple[dict, dict]:
    """Per-layer metrics over the traced passes, and two consistency facts:
    whether every exact count (all but the ``_s`` timings) repeated on each
    pass, and the largest gap between a pass's wall time and the sum of its
    self times, ``benchmark.self_s`` included."""
    first = traced[0]["layers"]
    consistency = {
        "counts_repeat": all(p["layers"][k] == v for p in traced[1:]
                             for k, v in first.items() if not k.endswith("_s")),
        "unaccounted_s": max(abs(p["wall"] - sum(v for k, v in p["layers"].items()
                                                 if k.endswith(".self_s")))
                             for p in traced),
    }
    metrics = {
        k: (statistics.median(p["layers"][k] for p in traced) if k.endswith("_s") else v)
        for k, v in first.items()
    }
    traced_run_s = statistics.median(p["wall"] for p in traced)
    metrics["untraced.run_s"] = untraced_run_s
    metrics["traced.run_s"] = traced_run_s
    metrics["tracing_overhead_s"] = traced_run_s - untraced_run_s
    return metrics, consistency


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    triarc = import_triarc()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    if args.setup_only:
        return 0

    result: dict = {"seeded": workload.seeded, "numpy": np.__version__}
    if args.trace:
        untraced = timed_passes(workload, inputs, args.seconds / 2, MIN_TRACE_PASSES)
        tracer = Tracer()
        tracer.install(triarc)
        try:
            traced = timed_passes(workload, inputs, args.seconds / 2, MIN_TRACE_PASSES, tracer)
        finally:
            tracer.uninstall()
        untraced_run_s = statistics.median(p["wall"] for p in untraced)
        result["layers"], result["consistency"] = per_layer(traced, untraced_run_s)
        OUT.mkdir(exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed,
                  "pass_wall_s": traced[-1]["wall"], **spans_record(tracer.spans)}
        (OUT / f"spans-{args.workload}.json").write_text(json.dumps(record))
        passes = untraced + traced
    else:
        reference = Reference()
        passes = timed_passes(workload, inputs, args.seconds, MIN_PASSES, reference=reference)
        result["run_wall_s"] = statistics.median(p["wall"] for p in passes)
        result["reference_s"] = statistics.median(p["reference"] for p in passes)
        result["run_s"] = run_ref(passes) * REFERENCE_NOMINAL_S
        # set-up ran just before this run: scale it by the run's reference speed
        result["setup_scale"] = REFERENCE_NOMINAL_S / result["reference_s"]
        result["peak_rss_mb"] = reference.peak_rss_mb

    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c.ok]
    result.update(
        passes=len(passes),
        attempted=len(checks),
        failed=len(failed),
        witnesses=[dataclasses.asdict(c) for c in failed[:MAX_WITNESSES]],
    )
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
