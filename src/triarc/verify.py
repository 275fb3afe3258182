"""The checks behind ``triarc verify``, shared with the test suite.

Arithmetic circuits only permute basis states, so their checks run every
operand pair at once through ``simulator.run_basis`` and compare the whole
output label against Python integers. The Toffoli-equivalence checks stay
on dense unitaries, because they test phases as well.
"""
from __future__ import annotations

import operator
from itertools import product
from typing import Callable, Iterable

import numpy as np

from . import arith, simulator, transpile
from .circuits import Circuit
from .transpile import REFERENCE_TOFFOLI, LoweringStrategy

# (a, b, expected value, observed output label) of the first failing pair
Failure = tuple[int, int, int, str]


def _pairs(circuit: Circuit, layout: arith.RegisterLayout,
           pairs: Iterable[tuple[int, int]] | None) -> list[tuple[int, int]]:
    """The operand pairs to check, every pair of the layout's operand widths
    by default. Refuses an empty pair list, and a run_basis digit batch
    (pairs x wires) above MAX_STATE_DIM, the exhaustive one before any pair
    is built."""
    na, nb = len(layout.a_wires), len(layout.b_wires)
    if pairs is not None:
        pairs = list(pairs)
        if not pairs:
            raise ValueError("no operand pairs to check")
    count = 2 ** (na + nb) if pairs is None else len(pairs)
    wires = len(circuit.wires)
    simulator.check_state_dim(count * wires, f"operand-pair digits ({count} pairs x {wires} wires)")
    return list(product(range(2 ** na), range(2 ** nb))) if pairs is None else pairs


def _failure(circuit: Circuit, layout: arith.RegisterLayout, pairs: list[tuple[int, int]],
             value: Callable[[int, int], int], out_wires: tuple[int, ...]) -> Failure | None:
    """First pair whose output is not its input with value(A, B) on ``out_wires``,
    or None; ``arith.register_digits`` refuses an operand its register cannot hold."""
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    inputs = arith.register_digits(circuit, [(layout.a_wires, a), (layout.b_wires, b)])
    a, b = list(map(int, a)), list(map(int, b))  # exact values for numpy operands
    values = list(map(value, a, b))
    expected = inputs.copy()
    expected[:, out_wires] = arith.register_digits(circuit, [(out_wires, values)])[:, out_wires]
    observed = simulator.run_basis(circuit, inputs)
    bad = np.flatnonzero((observed != expected).any(axis=1))
    if len(bad) == 0:
        return None
    i = int(bad[0])
    return a[i], b[i], values[i], simulator.digit_labels(observed[i:i + 1])[0]


def adder_failure(circuit: Circuit, layout: arith.RegisterLayout,
                  pairs: Iterable[tuple[int, int]] | None = None) -> Failure | None:
    """First pair whose output is not (A, A+B mod 2^n, ancilla 0, carry),
    or None. ``pairs`` defaults to all 4^n operand pairs of the n-bit layout."""
    return _failure(circuit, layout, _pairs(circuit, layout, pairs), operator.add,
                    layout.result_wires + (layout.carry_wire,))


def multiplier_failure(circuit: Circuit, layout: arith.RegisterLayout,
                       pairs: Iterable[tuple[int, int]] | None = None) -> Failure | None:
    """First pair whose output is not (A, B, ancillas 0, A*B), or None.
    ``pairs`` defaults to all 2^(na+nb) operand pairs of the layout."""
    return _failure(circuit, layout, _pairs(circuit, layout, pairs), operator.mul,
                    layout.result_wires)


def checks() -> list[tuple[str, bool]]:
    """The ten (name, ok) results that ``triarc verify`` prints, in order."""
    results: list[tuple[str, bool]] = []

    ideal = simulator.circuit_unitary(REFERENCE_TOFFOLI)
    for name, strategy in (("qutrit", LoweringStrategy.QUTRIT),
                           ("cliffordt", LoweringStrategy.CLIFFORD_T_FUNCTIONAL)):
        lowered = transpile.lower_toffolis(REFERENCE_TOFFOLI, strategy)
        restricted = simulator.qubit_subspace_unitary(lowered)
        results.append((f"toffoli-equivalence-{name}", bool(np.allclose(restricted, ideal, atol=1e-10))))

    for n in (2, 3, 4):
        circuit, layout = arith.build_adder(n)
        results.append((f"adder-{n}bit-exhaustive", adder_failure(circuit, layout) is None))
    circuit, layout = arith.build_adder(3)
    lowered = transpile.lower_toffolis(circuit, LoweringStrategy.QUTRIT)
    results.append(("adder-3bit-qutrit-exhaustive", adder_failure(lowered, layout) is None))

    circuit, layout = arith.build_multiplier(3, 2)
    results.append(("multiplier-3x2-exhaustive", multiplier_failure(circuit, layout) is None))
    lowered = transpile.lower_toffolis(circuit, LoweringStrategy.QUTRIT)
    results.append(("multiplier-3x2-qutrit-exhaustive",
                    multiplier_failure(lowered, layout) is None))

    demo, demo_layout = arith.build_demo_multiplier()
    for name, c in (("demo-multiplier-5x3", demo),
                    ("demo-multiplier-5x3-qutrit",
                     transpile.lower_toffolis(demo, LoweringStrategy.QUTRIT))):
        out = simulator.run_basis(c, np.zeros((1, len(c.wires)), dtype=np.int8))[0]
        results.append((name, arith.register_value(out, demo_layout.result_wires) == 15))
    return results
