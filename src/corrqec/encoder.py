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

from .errors import BadQubitCount, CorrQecError
from .gates import (
    Circuit,
    circuit_conjugate,
    circuit_factors,
    cnot_op,
    h_op,
    pauli,
    real_correlated_error,
)
from .tensor import check_memory, kron_distance

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


# Bound on the live bytes inside conjugation_report, in 2**n x 2**n
# complex128 matrices.  tracemalloc measures 0.78 of one at n = 8, 0.42 at
# n = 9, 0.32 at n = 10 and 0.26 at n = 11 (two int16 matrices, plus the
# kernels' half tile of step scratch that outweighs them up to n = 9); the
# bound stays at the 3 states a trial of cmd_verify needs.
CONJUGATION_PEAK_STATES = 3
# The conjugation checks run in int16, whose entries reach 2**h for h
# Hadamards; 2**15 does not fit.
MAX_CHECKED_HADAMARDS = 14


def conjugation_report(spec: EncoderSpec) -> tuple[float, float, float]:
    """Frobenius residuals of the three conjugation identities for spec.

    Each error is u R with R a 0/+-1 int16 matrix and u = 1 or (-i)**n
    (gates.real_correlated_error), and the encoder's gates are real, so
    P_dag (u R) P = u P_dag R P.  R is conjugated in exact int16 arithmetic,
    whose Hadamards are unscaled: for h Hadamards the result is 2**h P_dag R P,
    with every intermediate entry at most 2**h in size.  It is measured
    against 2**h (ancilla image / u) ox I, and the distance is divided by
    2**h, which is the same residual as |u| = 1.  Every step is exact:
    dividing an image by u in {+-1, +-i} only moves and negates its parts,
    and scaling by 2**h is exact, so all three residuals are 0.0.  An image
    with an imaginary part is measured in full, in complex128.  Each
    residual is measured blockwise, without forming the kron product, and
    each conjugate is dropped before the next error is built, so a call
    holds two int16 matrices, a quarter of one complex state.
    CorrQecError if the circuit has more than MAX_CHECKED_HADAMARDS
    Hadamards; BadQubitCount if CONJUGATION_PEAK_STATES states do not fit
    in physical memory.
    """
    h = spec.h_count
    if h > MAX_CHECKED_HADAMARDS:
        raise CorrQecError(
            f"the int16 conjugation checks hold at most {MAX_CHECKED_HADAMARDS} "
            f"Hadamards, the circuit has {h}"
        )
    check_memory(spec.n, CONJUGATION_PEAK_STATES)
    factors = circuit_factors(spec.circuit)
    images = ancilla_images(spec.parity, spec.sign)
    scale = 1 << h
    residuals = []
    for axis in "XYZ":
        u, r = real_correlated_error(axis, spec.n)
        conj = circuit_conjugate(factors, r, adjoint=True)
        image = scale * images["IXYZ".index(axis)] / u
        # real for the true images; one with an imaginary part stays complex
        dist = kron_distance(conj, image if image.imag.any() else image.real)
        residuals.append(dist / scale)
        del conj
    return tuple(residuals)
