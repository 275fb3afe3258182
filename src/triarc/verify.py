"""The checks behind ``triarc verify``, shared with the test suite.

Arithmetic circuits only permute basis states, so their checks run every
operand pair at once through ``simulator.run_basis`` and compare the whole
output label against Python integers. The Toffoli-equivalence checks stay
on dense unitaries, because they test phases as well.
"""
from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

import numpy as np

from . import arith, simulator, transpile
from .circuits import Circuit, WireSpec, toffoli
from .transpile import LoweringStrategy

# (a, b, expected value, observed output label) of the first failing pair
Failure = tuple[int, int, int, str]


def _digits(circuit: Circuit, registers: Sequence[tuple[Sequence[int], Sequence[int]]]) -> np.ndarray:
    """One basis label per row: each register's wires (least-significant
    first) hold the bits of its per-row values; every other wire is 0."""
    batch = len(registers[0][1])
    digits = np.zeros((batch, len(circuit.wires)), dtype=np.int8)
    for wires, values in registers:
        for k, w in enumerate(wires):
            digits[:, w] = [(v >> k) & 1 for v in values]
    return digits


def _label(row: np.ndarray) -> str:
    return "".join(map(str, row))


def _first_failure(circuit: Circuit, pairs: list[tuple[int, int]], values: list[int],
                   inputs: np.ndarray, expected: np.ndarray) -> Failure | None:
    observed = simulator.run_basis(circuit, inputs)
    bad = np.flatnonzero((observed != expected).any(axis=1))
    if len(bad) == 0:
        return None
    i = int(bad[0])
    return pairs[i][0], pairs[i][1], values[i], _label(observed[i])


def _pairs(na: int, nb: int, pairs: Iterable[tuple[int, int]] | None) -> list[tuple[int, int]]:
    if pairs is None:
        return list(product(range(2 ** na), range(2 ** nb)))
    return [(int(a), int(b)) for a, b in pairs]


def adder_failure(circuit: Circuit, layout: arith.RegisterLayout, n: int,
                  pairs: Iterable[tuple[int, int]] | None = None) -> Failure | None:
    """First pair whose output is not (A, A+B mod 2^n, ancilla 0, carry),
    or None. ``pairs`` defaults to all 4^n operand pairs."""
    pairs = _pairs(n, n, pairs)
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    sums = [x + y for x, y in pairs]
    inputs = _digits(circuit, [(layout.a_wires, a), (layout.b_wires, b)])
    expected = _digits(circuit, [(layout.a_wires, a),
                                 (layout.result_wires + (layout.carry_wire,), sums)])
    return _first_failure(circuit, pairs, sums, inputs, expected)


def multiplier_failure(circuit: Circuit, layout: arith.RegisterLayout, na: int, nb: int,
                       pairs: Iterable[tuple[int, int]] | None = None) -> Failure | None:
    """First pair whose output is not (A, B, ancillas 0, A*B), or None.
    ``pairs`` defaults to all 2^(na+nb) operand pairs."""
    pairs = _pairs(na, nb, pairs)
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    products = [x * y for x, y in pairs]
    inputs = _digits(circuit, [(layout.a_wires, a), (layout.b_wires, b)])
    expected = _digits(circuit, [(layout.a_wires, a), (layout.b_wires, b),
                                 (layout.result_wires, products)])
    return _first_failure(circuit, pairs, products, inputs, expected)


def checks() -> list[tuple[str, bool]]:
    """The ten (name, ok) results that ``triarc verify`` prints, in order."""
    results: list[tuple[str, bool]] = []

    base = Circuit((WireSpec(2),) * 3, (toffoli(0, 1, 2),))
    ideal = simulator.circuit_unitary(base)
    for name, strategy in (("qutrit", LoweringStrategy.QUTRIT),
                           ("cliffordt", LoweringStrategy.CLIFFORD_T_FUNCTIONAL)):
        restricted = simulator.qubit_subspace_unitary(transpile.lower_toffolis(base, strategy))
        results.append((f"toffoli-equivalence-{name}", bool(np.allclose(restricted, ideal, atol=1e-10))))

    for n in (2, 3, 4):
        circuit, layout = arith.build_adder(n)
        results.append((f"adder-{n}bit-exhaustive", adder_failure(circuit, layout, n) is None))
    circuit, layout = arith.build_adder(3)
    lowered = transpile.lower_toffolis(circuit, LoweringStrategy.QUTRIT)
    results.append(("adder-3bit-qutrit-exhaustive", adder_failure(lowered, layout, 3) is None))

    circuit, layout = arith.build_multiplier(3, 2)
    results.append(("multiplier-3x2-exhaustive", multiplier_failure(circuit, layout, 3, 2) is None))
    lowered = transpile.lower_toffolis(circuit, LoweringStrategy.QUTRIT)
    results.append(("multiplier-3x2-qutrit-exhaustive",
                    multiplier_failure(lowered, layout, 3, 2) is None))

    demo, demo_layout = arith.build_demo_multiplier()
    for name, c in (("demo-multiplier-5x3", demo),
                    ("demo-multiplier-5x3-qutrit",
                     transpile.lower_toffolis(demo, LoweringStrategy.QUTRIT))):
        out = simulator.run_basis(c, np.zeros((1, len(c.wires)), dtype=np.int8))[0]
        results.append((name, arith.register_value(_label(out), demo_layout.result_wires) == 15))
    return results
