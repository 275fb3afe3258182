"""triarc benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {verify,compile,noise,sample} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/triarc``. Every process
this starts gets BLAS/OpenMP threads pinned to ``BLAS_THREADS``, so timings
do not depend on how many cores the shared box happens to lend numpy.

With ``--trace 0`` the last line of stdout carries ``setup_s`` (median of
``SETUP_REPEATS`` fresh interpreters, each importing triarc and generating
the inputs), ``run_s`` (median pass time) and ``peak_rss_mb`` (peak resident
memory of the worker process, which runs this workload alone). Both times
are in reference seconds, scaled by a fixed reference job timed around the
passes (see ``worker.py``); the lines before give the wall times
``setup_wall_s`` and ``run_wall_s`` and the reference time ``reference_s``.
With ``--trace 1`` it carries the per-layer metrics of ``tracer.py`` and
``tracing_overhead_s``; the spans of the last traced pass are written to
``.perfbench_out/``. Earlier lines give every metric by name with its unit,
``fail_ratio``, the run environment and a witness for each failed check.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("verify", "compile", "noise", "sample")
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
DEADLINE_S = 170
BYTES_NOTE = (
    "bytes_computed is amp_gates x 32 B, a computed figure and not a bandwidth "
    "measurement: states of 4x the last-level cache (at least 420 MiB with a "
    "105 MiB L3) are out of reach in the time budget"
)


def cache_sizes() -> dict:
    """Cache sizes in bytes as ``getconf`` reports them, or {} without it."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10,
                             check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in out.splitlines():
        name, _, value = line.partition(" ")
        if name.endswith("CACHE_SIZE") and value.strip().isdigit() and int(value) > 0:
            sizes[name.removesuffix("_SIZE")] = int(value)
    return sizes


def environment(numpy_version: str) -> dict:
    return {
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "note": BYTES_NOTE,
    }


def run_child(argv: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; past the deadline it is killed and reaped."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(argv, 1, "", f"timed out after {timeout:.0f} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "triarc" / "__init__.py").is_file():
        print(f"error: no triarc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    worker = [sys.executable, str(BENCH_DIR / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]

    setup_times = []
    if not args.trace:
        # the first set-up is a warm-up: it fills the file cache and __pycache__
        for _ in range(SETUP_REPEATS + 1):
            t0 = time.perf_counter()
            proc = run_child(worker + ["--setup-only"], env, deadline)
            setup_times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"error: set-up failed:\n{proc.stderr}", file=sys.stderr)
                return 1
        setup_times = setup_times[1:]

    proc = run_child(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     env, deadline)
    if proc.returncode != 0:
        print(f"error: worker failed:\n{proc.stderr}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])

    seed_note = "" if result["seeded"] else " (this workload's inputs do not depend on the seed)"
    print(f"workload={args.workload} seed={args.seed}{seed_note} seconds={args.seconds} "
          f"trace={args.trace} passes={result['passes']}")
    print("env " + json.dumps(environment(result["numpy"])))
    if args.trace:
        consistency = result["consistency"]
        print(f"counts repeat on every traced pass: {consistency['counts_repeat']}")
        print(f"traced pass time not covered by self times: {consistency['unaccounted_s']:.3g} s")
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in result["layers"].items()}
    else:
        setup_wall_s = statistics.median(setup_times)
        print(f"setup_wall_s = {setup_wall_s:.6g} s (median set-up wall time)")
        print(f"run_wall_s = {result['run_wall_s']:.6g} s (median pass wall time)")
        print(f"reference_s = {result['reference_s']:.6g} s (median reference job time)")
        metrics = {
            "setup_s": {"value": setup_wall_s * result["setup_scale"], "unit": "s"},
            "run_s": {"value": result["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} checks failed)")
    for witness in result["witnesses"]:
        print("FAIL " + json.dumps(witness))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "B-computed"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("per_gate", "distinct_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
