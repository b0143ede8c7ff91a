"""Recursive encoding circuits P_n and their error-conjugation identities.

P_2 = C01 (I ox H) C01 and P_3 = C10 C02 C21 are the bases.  Odd n = 2k+1
extends by P_n = (I_4 ox P_{n-2})(P_3 ox I), even n = 2k+2 by
P_n = (I_2 ox P_{n-1})(P_2 ox I).  Conjugating the correlated errors
X_n, Y_n, Z_n by P_n collapses them onto the ancilla qubits:

  odd:   (X ox I,  (-1)**k Y ox I,  Z ox I)
  even:  (D_X ox I,  (-1)**k D_Y ox I,  D_Z ox I)

with D_X = diag(1,-1,1,-1), D_Y = diag(-1,-1,1,1), D_Z = diag(1,-1,-1,1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadQubitCount
from .gates import (
    Circuit,
    circuit_conjugate,
    circuit_factors,
    cnot_op,
    correlated_error,
    h_op,
    pauli,
)
from .tensor import kron, kron_distance

_D_DIAG = {
    "X": np.array([1, -1, 1, -1], dtype=np.complex128),
    "Y": np.array([-1, -1, 1, 1], dtype=np.complex128),
    "Z": np.array([1, -1, -1, 1], dtype=np.complex128),
}


def d_matrix(axis: str) -> np.ndarray:
    """The diagonal 4x4 image of a correlated error under even-n conjugation."""
    return np.diag(_D_DIAG[axis])


@dataclass(frozen=True)
class EncoderSpec:
    n: int
    parity: str  # "odd" for n = 2k+1, "even" for n = 2k+2
    k: int
    sign: int  # (-1)**k, the factor on the conjugated Y term
    circuit: Circuit

    @property
    def cnot_count(self) -> int:
        return self.circuit.count("cnot")

    @property
    def h_count(self) -> int:
        return self.circuit.count("h")

    @property
    def ancilla_dim(self) -> int:
        return 2 if self.parity == "odd" else 4


def build_p2() -> EncoderSpec:
    circuit = Circuit(2, (cnot_op(0, 1), h_op(0), cnot_op(0, 1)))
    return EncoderSpec(2, "even", 0, 1, circuit)


def build_p3() -> EncoderSpec:
    circuit = Circuit(3, (cnot_op(2, 1), cnot_op(0, 2), cnot_op(1, 0)))
    return EncoderSpec(3, "odd", 1, -1, circuit)


@lru_cache(maxsize=None)
def build_pn(n: int) -> EncoderSpec:
    """Encoder for any n >= 2; odd n has 3k CNOTs, even n has 3k+2 CNOTs + 1 H.

    The recursion P_m = (I ox P_inner)(head ox I) is unrolled into a loop:
    each step emits the head (P_3 on the top three qubits of an odd m, P_2
    on the top two of an even m) and descends to the inner register, until
    the P_2 or P_3 base is reached.
    """
    if n < 2:
        raise BadQubitCount(f"n must be >= 2, got {n}")
    p2, p3 = build_p2().circuit, build_p3().circuit
    ops = []
    m = n
    while m > 3:
        head = p3 if m % 2 == 1 else p2
        offset = m - head.n_qubits
        ops.extend(head.embed(n, offset).ops)
        m = offset + 1  # the inner encoder shares the head's lowest qubit
    ops.extend((p3 if m == 3 else p2).ops)
    k = (n - 1) // 2  # n = 2k+1 (odd) or n = 2k+2 (even)
    parity = "odd" if n % 2 == 1 else "even"
    return EncoderSpec(n, parity, k, (-1) ** k, Circuit(n, tuple(ops)))


@lru_cache(maxsize=None)
def encoder_factors(n: int) -> tuple:
    """Cached gather/butterfly factorization of build_pn(n).circuit."""
    return circuit_factors(build_pn(n).circuit)


def ancilla_images(parity: str, sign: int) -> tuple[np.ndarray, ...]:
    """Images of I, X_n, Y_n, Z_n on the ancilla after conjugation by P_n.

    Odd parity: I, X, sign Y, Z on one qubit; even parity: I, D_X, sign D_Y,
    D_Z on two.  sign is (-1)**k.
    """
    if parity == "odd":
        return (np.eye(2, dtype=np.complex128), pauli("X"), sign * pauli("Y"), pauli("Z"))
    return (np.eye(4, dtype=np.complex128), d_matrix("X"), sign * d_matrix("Y"), d_matrix("Z"))


def expected_conjugation(spec: EncoderSpec, axis: str) -> np.ndarray:
    """The predicted value of P_dag W P for W the correlated error on `axis`."""
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be X, Y, or Z, got {axis!r}")
    head = ancilla_images(spec.parity, spec.sign)["IXYZ".index(axis)]
    rest = (1 << spec.n) // spec.ancilla_dim
    return kron(head, np.eye(rest, dtype=np.complex128))


def conjugation_report(spec: EncoderSpec) -> tuple[float, float, float]:
    """Frobenius residuals of the three conjugation identities for spec.

    Every step is exact on the errors' entries (0, +-1, +-i): odd-n circuits
    are pure permutations, and the one Hadamard of an even-n circuit defers
    its scale to a single exact 0.5, so all three residuals are 0.0.  Each
    is measured against (ancilla image) ox I blockwise, without forming it,
    and each conjugate is dropped before the next error is built, so a call
    holds at most two states.
    """
    factors = encoder_factors(spec.n)
    images = ancilla_images(spec.parity, spec.sign)
    residuals = []
    for axis in "XYZ":
        conj = circuit_conjugate(factors, correlated_error(axis, spec.n), adjoint=True)
        residuals.append(kron_distance(conj, images["IXYZ".index(axis)]))
        del conj
    return tuple(residuals)
