"""Reversible arithmetic circuit generators: ripple-carry adder and
shift-and-add multiplier. Both only permute basis states, so
``triarc.verify`` checks them on batches of operand pairs with the basis
engine, exhaustively or on seeded samples, at sizes dense simulation
cannot hold.

Register bits are laid out least-significant first inside each register
(``a_wires[k]`` carries bit k of A). Basis-state labels still read wire 0
as the most significant label digit; ``register_digits`` writes integers
into basis digits and ``register_value`` reads them back from a label.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import Circuit, GateInstance, _is_int, check_int, cx, toffoli, x
from .simulator import check_state_dim


@dataclass(frozen=True)
class RegisterLayout:
    """Disjoint wire-index sets covering a generated circuit's wires."""

    a_wires: tuple[int, ...]
    b_wires: tuple[int, ...]
    ancilla_wires: tuple[int, ...]
    result_wires: tuple[int, ...]
    carry_wire: int | None = None


def register_digits(circuit: Circuit,
                    registers: Sequence[tuple[Sequence[int], Sequence[int]]]) -> np.ndarray:
    """One basis label per row: each register's wires (least-significant
    first) hold the bits of its per-row values; every other wire is 0.
    Refuses an operand that is a bool, a non-integer or outside [0, 2^len(wires))."""
    batch = len(registers[0][1])
    digits = np.zeros((batch, len(circuit.wires)), dtype=np.int8)
    for wires, values in registers:
        # C-level passes; value by value only past a non-int type or to name a bad value
        top = 2 ** len(wires)
        if set(map(type, values)) - {int} or (batch and not (0 <= min(values) and max(values) < top)):
            for v in values:
                if not _is_int(v) or not 0 <= v < top:
                    raise ValueError(f"operand {v!r} is not an integer in [0, 2^{len(wires)})")
        for k, w in enumerate(wires):
            digits[:, w] = [(v >> k) & 1 for v in values]
    return digits


def register_value(label: str, wires: tuple[int, ...]) -> int:
    """Integer held by a register (wires listed least-significant first)."""
    return sum(int(label[w]) << k for k, w in enumerate(wires))


def _maj(carry: int, b: int, a: int) -> list[GateInstance]:
    # after these, wire a holds the carry out of this bit position
    return [cx(a, b), cx(a, carry), toffoli(carry, b, a)]


def _uma(carry: int, b: int, a: int) -> list[GateInstance]:
    # inverse of _maj on a and carry, leaving b = a xor b xor carry_in
    return [toffoli(carry, b, a), cx(a, carry), cx(carry, b)]


def _ripple_add(a_wires: list[int], b_wires: list[int], c0: int, carry_out: int) -> list[GateInstance]:
    """In-place A + B -> B with carry into ``carry_out``; c0 and A restored."""
    gates: list[GateInstance] = []
    carries = [c0] + a_wires[:-1]
    for c, b, a in zip(carries, b_wires, a_wires):
        gates += _maj(c, b, a)
    gates.append(cx(a_wires[-1], carry_out))
    for c, b, a in reversed(list(zip(carries, b_wires, a_wires))):
        gates += _uma(c, b, a)
    return gates


def build_adder(n: int) -> tuple[Circuit, RegisterLayout]:
    """Ripple-carry adder on two n-bit registers.

    Maps (A, B, 0, 0) to (A, A+B mod 2^n, 0, carry): the sum lands in-place
    on register B, A is untouched, and the single ancilla is restored. Its
    6n+1 gates are refused before any is built above MAX_STATE_DIM.
    """
    check_int(n=n)
    if n < 1:
        raise ValueError("adder needs n >= 1 bits")
    check_state_dim(6 * n + 1, "gates")
    a_wires = list(range(n))
    b_wires = list(range(n, 2 * n))
    c0, carry_out = 2 * n, 2 * n + 1
    gates = _ripple_add(a_wires, b_wires, c0, carry_out)
    circuit = Circuit((2,) * (2 * n + 2), tuple(gates))
    layout = RegisterLayout(
        a_wires=tuple(a_wires),
        b_wires=tuple(b_wires),
        ancilla_wires=(c0,),
        result_wires=tuple(b_wires),
        carry_wire=carry_out,
    )
    return circuit, layout


def build_multiplier(na: int, nb: int) -> tuple[Circuit, RegisterLayout]:
    """Shift-and-add multiplier: na-bit A times nb-bit B.

    One Toffoli writes each partial product a_i*b_j onto its own wire; the
    j = 0 row seeds the product register through CNOTs and every later row
    is folded in with a ripple-carry adder stage at offset j. The partial
    products are then uncomputed, so for basis inputs the result register
    reads A*B and every ancilla is back to 0. Its 2*na*nb + na +
    (nb-1)*(6*na+1) gates are refused before any is built above MAX_STATE_DIM.
    """
    check_int(na=na, nb=nb)
    if na < 1 or nb < 1:
        raise ValueError("multiplier needs na, nb >= 1")
    check_state_dim(2 * na * nb + na + (nb - 1) * (6 * na + 1), "gates")
    total = na + nb + na * nb + (na + nb) + 1
    a_wires = list(range(na))
    b_wires = list(range(na, na + nb))
    pp = [[na + nb + j * na + i for i in range(na)] for j in range(nb)]
    p_wires = list(range(na + nb + na * nb, na + nb + na * nb + na + nb))
    c0 = total - 1

    partial_products = [
        toffoli(a_wires[i], b_wires[j], pp[j][i]) for j in range(nb) for i in range(na)
    ]
    gates = list(partial_products)
    gates += [cx(pp[0][i], p_wires[i]) for i in range(na)]
    for j in range(1, nb):
        # add row j into product bits [j, j+na); its carry lands on p[j+na],
        # which is still 0 because the partial sum so far is below 2^(na+j)
        gates += _ripple_add(pp[j], p_wires[j:j + na], c0, p_wires[j + na])
    gates += reversed(partial_products)

    circuit = Circuit((2,) * total, tuple(gates))
    layout = RegisterLayout(
        a_wires=tuple(a_wires),
        b_wires=tuple(b_wires),
        ancilla_wires=tuple(w for row in pp for w in row) + (c0,),
        result_wires=tuple(p_wires),
    )
    return circuit, layout


def build_demo_multiplier() -> tuple[Circuit, RegisterLayout]:
    """13-wire showcase circuit multiplying 5 by 3, inputs prepared inline.

    Six Toffolis drop the partial products on wires 5-10 and four CNOTs
    fold the weight-2 and weight-4 columns onto wires 11 and 12. The XOR
    accumulation is exact here because no two set partial products share a
    weight for these operands; the product 15 is read from wires
    (5, 11, 12, 10), least significant first. Wires 6-9 keep their partial
    products (they are not uncomputed).
    """
    b_wires, a_wires = (0, 1), (2, 3, 4)
    gates = [
        x(0), x(1),          # B = 3
        x(2), x(4),          # A = 5
        toffoli(2, 0, 5),    # a0*b0, weight 1
        toffoli(2, 1, 6),    # a0*b1, weight 2
        toffoli(3, 0, 7),    # a1*b0, weight 2
        toffoli(3, 1, 8),    # a1*b1, weight 4
        toffoli(4, 0, 9),    # a2*b0, weight 4
        toffoli(4, 1, 10),   # a2*b1, weight 8
        cx(6, 11), cx(7, 11),
        cx(8, 12), cx(9, 12),
    ]
    circuit = Circuit((2,) * 13, tuple(gates))
    layout = RegisterLayout(
        a_wires=a_wires,
        b_wires=b_wires,
        ancilla_wires=(6, 7, 8, 9),
        result_wires=(5, 11, 12, 10),
    )
    return circuit, layout
