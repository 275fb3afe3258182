"""Span recorder that wraps triarc's public functions from outside the package.

Each listed function is replaced, in every namespace that binds it (the
defining module, each ``from .x import y`` site and the ``triarc`` package
re-exports), by a wrapper that records one span per call. Calls made inside
the package go through the module globals, so they are traced as well:
``Circuit.__post_init__`` reaches ``circuits.validate_gate``, and ``cli``
reaches every layer through its module references.

Spans are kept in memory as tuples ``(name, parent, start, end, error)``,
where ``parent`` is the index of the enclosing span or -1 for a span called
directly by the benchmark itself.
"""
from __future__ import annotations

import functools
import importlib
import time
from math import prod

LAYERS = {
    "circuits": ("validate_gate", "append", "extend", "layers", "t_metrics", "to_json", "from_json"),
    "transpile": ("lower_toffolis",),
    "arith": ("build_adder", "build_multiplier", "build_demo_multiplier"),
    "simulator": ("simulate", "circuit_unitary", "qubit_subspace_unitary", "dominant_basis_label",
                  "basis_density", "evolve_density", "measure_all"),
    "noise": ("depolarizing_channel", "amplitude_damping_qubit", "amplitude_damping_qutrit",
              "noisy_toffoli_fidelity", "success_curve"),
    "resources": ("estimate_operation",),
    "pricing": ("gaussian_target_state", "energy_x2"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

# Model behind bytes_computed: each gate reads and writes every complex128
# amplitude once. It ignores cache misses and the slices a gate skips.
BYTES_PER_AMP_GATE = 32
AMPLITUDE_BYTES = 16


class Counters:
    """Work counts gathered by the wrappers' hooks during one traced pass.

    Hooks read arguments by position, as triarc's callers pass them.
    """

    def __init__(self) -> None:
        self.amp_gates = 0
        self.max_state_bytes = 0
        self.kraus_ops = 0
        self.max_dim = 0
        self.gates_produced = 0
        self.channel_keys: set = set()


def _on_simulate(counters: Counters, args, kwargs, result) -> None:
    circuit = args[0]
    size = prod(circuit.dims)
    gates = sum(1 for g in circuit.gates if g.kind.name != "MEASURE")
    counters.amp_gates += size * gates
    counters.max_state_bytes = max(counters.max_state_bytes, size * AMPLITUDE_BYTES)


def _on_evolve_density(counters: Counters, args, kwargs, result) -> None:
    rho, step = args[0], args[1]
    counters.kraus_ops += len(step.operators) if hasattr(step, "operators") else 1
    counters.max_dim = max(counters.max_dim, prod(rho.dims))


def _on_depolarizing_channel(counters: Counters, args, kwargs, result) -> None:
    counters.channel_keys.add((tuple(args[0]), float(args[1])))


def _on_producer(counters: Counters, args, kwargs, result) -> None:
    circuit = result[0] if isinstance(result, tuple) else result
    counters.gates_produced += len(circuit.gates)


def _on_append(counters: Counters, args, kwargs, result) -> None:
    counters.gates_produced += 1


def _on_extend(counters: Counters, args, kwargs, result) -> None:
    counters.gates_produced += len(result.gates) - len(args[0].gates)


HOOKS = {
    "simulator.simulate": _on_simulate,
    "simulator.evolve_density": _on_evolve_density,
    "noise.depolarizing_channel": _on_depolarizing_channel,
    "arith.build_adder": _on_producer,
    "arith.build_multiplier": _on_producer,
    "arith.build_demo_multiplier": _on_producer,
    "transpile.lower_toffolis": _on_producer,
    "circuits.from_json": _on_producer,
    "circuits.append": _on_append,
    "circuits.extend": _on_extend,
}


class Tracer:
    """Records spans and counters while installed; ``reset`` starts a new pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters = Counters()
        self._stack: list[int] = []
        self._restore: list = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counters()
        self._stack.clear()

    def wrap(self, name: str, fn, hook=None):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end, error)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every function in ``FUNCTIONS`` wherever ``package`` binds it."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        for qualname in FUNCTIONS:
            module_name, fn_name = qualname.split(".")
            original = getattr(importlib.import_module(f"{package.__name__}.{module_name}"), fn_name)
            wrapper = self.wrap(qualname, original, HOOKS.get(qualname))
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._restore.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore = []


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest strictly inside their
    parent and never overlap each other; their durations simply add up.
    """
    child_time = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [(end - start) - child_time[i] for i, (_, _, start, end, _) in enumerate(spans)]


def summarize(spans, counters: Counters, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds.

    ``benchmark.self_s`` is the pass time no top-level span covers, so the
    self times of all spans plus ``benchmark.self_s`` add up to ``wall_s``.
    """
    metrics: dict[str, float] = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
        metrics[f"{name}.errors"] = 0
    top_level = 0.0
    for (name, parent, start, end, error), own in zip(spans, self_times(spans)):
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += own
        metrics[f"{name}.errors"] += int(error)
        if parent < 0:
            top_level += end - start
    metrics["benchmark.self_s"] = wall_s - top_level
    metrics["simulator.simulate.amp_gates"] = counters.amp_gates
    metrics["simulator.simulate.bytes_computed"] = counters.amp_gates * BYTES_PER_AMP_GATE
    metrics["simulator.simulate.max_state_bytes"] = counters.max_state_bytes
    metrics["simulator.evolve_density.kraus_ops"] = counters.kraus_ops
    metrics["simulator.evolve_density.max_dim"] = counters.max_dim
    validations = metrics["circuits.validate_gate.calls"]
    metrics["circuits.validate_gate.per_gate"] = (
        validations / counters.gates_produced if counters.gates_produced else 0.0
    )
    channels = metrics["noise.depolarizing_channel.calls"]
    metrics["noise.depolarizing_channel.distinct_ratio"] = (
        len(counters.channel_keys) / channels if channels else 0.0
    )
    return metrics


def spans_record(spans) -> dict:
    """Compact JSON-ready form of a span list: names are stored once."""
    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    return {
        "fields": ["name", "parent", "start", "end", "error"],
        "names": names,
        "spans": [[index[n], p, s, e, int(err)] for n, p, s, e, err in spans],
    }
