"""Recursive encoding circuits P_n and their error-conjugation identities.

P_2 = C01 (I ox H) C01 and P_3 = C10 C02 C21 are the bases.  Odd n = 2k+1
extends by P_n = (I_4 ox P_{n-2})(P_3 ox I), even n = 2k+2 by
P_n = (I_2 ox P_{n-1})(P_2 ox I).  Conjugating the correlated errors
X_n, Y_n, Z_n by P_n collapses them onto the ancilla qubits:

  odd:   (X ox I,  (-1)**k Y ox I,  Z ox I)
  even:  (D_X ox I,  (-1)**k D_Y ox I,  D_Z ox I)

with D_X = diag(1,-1,1,-1), D_Y = diag(-1,-1,1,1), D_Z = diag(1,-1,-1,1).
Each error is a Pauli string, and CNOT and H map Pauli strings to Pauli
strings, so conjugation_report checks these identities on bit masks
(gates.conjugate_pauli) in O(n) per gate, at any n.  The trial splits P_n
at its ancilla-only head (ancilla_head) and gathers by one table, the
rest's GF(2) matrix composed with gates.channel_basis (encode_table).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadQubitCount, DimensionMismatch
from .gates import Circuit, channel_basis, circuit_table, cnot_op, cnot_table, compose
from .gates import conjugate_pauli, h_op, pauli, qubit_count
from .kernels import scaled_root

_D_DIAG = {
    "X": np.array([1, -1, 1, -1], dtype=np.complex128),
    "Y": np.array([-1, -1, 1, 1], dtype=np.complex128),
    "Z": np.array([1, -1, -1, 1], dtype=np.complex128),
}


def d_matrix(axis: str) -> np.ndarray:
    """The diagonal 4x4 image of a correlated error under even-n conjugation."""
    if axis not in ("X", "Y", "Z"):  # a tuple: an unhashable axis is no KeyError
        raise ValueError(f"axis must be X, Y, or Z, got {axis!r}")
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


@lru_cache(maxsize=None, typed=True)
def build_pn(n: int) -> EncoderSpec:
    """Encoder for any n >= 2; odd n has 3k CNOTs, even n has 3k+2 CNOTs + 1 H.
    n must be an integer (BadQubitCount, gates.qubit_count); the cache is
    typed, so that 3.0 is never served the spec cached for an equal
    integer such as np.int64(3).

    The recursion P_m = (I ox P_inner)(head ox I) is unrolled into a loop:
    each step emits the head (P_3 on the top three qubits of an odd m, P_2
    on the top two of an even m) and descends to the inner register, until
    the P_2 or P_3 base is reached.
    """
    n = qubit_count(n)
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


_H_UNSCALED = np.array([[1.0, 1.0], [1.0, -1.0]])


@lru_cache(maxsize=None)
def ancilla_head(spec: EncoderSpec) -> tuple[np.ndarray | None, int, Circuit]:
    """(U', h, rest): spec's circuit split at the longest prefix of gates
    that act on the ancilla qubits alone, the top log2(ancilla_dim).

    The prefix is U = 2**(-h/2) U' on the ancilla, U' its real matrix with
    each of its h Hadamards unscaled, so U' has integer entries and
    U sigma U^T = 2**-h U' sigma U'^T exactly where the products are; U' is
    None for an empty prefix.  rest is the Circuit of the gates after it,
    so P = R (U ox I), R the rest.  For build_pn the prefix is the P_2 head
    CNOT(n-2, n-1) H(n-2) CNOT(n-2, n-1) at even n, the encoder's one
    Hadamard, and empty at odd n, whose first gate reaches qubit n-2.
    Cached by the spec itself, so a substituted spec gets its own split.
    """
    a = spec.ancilla_dim.bit_length() - 1
    low = spec.n - a
    u, h, peeled = np.eye(1 << a), 0, 0
    for op in spec.circuit.ops:
        qubits = [q - low for q in op.qubits]
        if min(qubits) < 0:
            break
        if op.kind == "cnot":
            u = u[cnot_table(a, *qubits).table()]  # a CNOT is its own inverse
        else:
            (q,) = qubits
            u = np.kron(np.kron(np.eye(1 << (a - 1 - q)), _H_UNSCALED), np.eye(1 << q)) @ u
            h += 1
        peeled += 1
    if peeled:
        u.setflags(write=False)
    return (u if peeled else None), h, Circuit(spec.n, spec.circuit.ops[peeled:])


@lru_cache(maxsize=None)
def encode_table(rest: Circuit) -> np.ndarray:
    """The read-only gather table t of the CNOT-only circuit rest R and then
    gates.channel_basis B, composed as GF(2) matrices: G_t(x) = x[t][:, t]
    is B R x R_dag B_dag.  Cached, so a trial does no table work; the empty
    circuit gives B's own table.  BadQubitIndex for a rest with a Hadamard.
    """
    table = compose(circuit_table(rest), channel_basis(rest.n_qubits)).inverse().table()
    table.setflags(write=False)
    return table


def check_frame(parity: str, sign: int) -> None:
    """ValueError unless parity is "odd" or "even" and sign is 1 or -1, the
    values an EncoderSpec's parity and (-1)**k take."""
    if parity not in ("odd", "even"):
        raise ValueError(f'parity must be "odd" or "even", got {parity!r}')
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")


def ancilla_images(parity: str, sign: int) -> tuple[np.ndarray, ...]:
    """Images of I, X_n, Y_n, Z_n on the ancilla after conjugation by P_n.

    Odd parity: I, X, sign Y, Z on one qubit; even parity: I, D_X, sign D_Y,
    D_Z on two.  sign is (-1)**k.
    """
    if parity == "odd":
        return (np.eye(2, dtype=np.complex128), pauli("X"), sign * pauli("Y"), pauli("Z"))
    return (np.eye(4, dtype=np.complex128), d_matrix("X"), sign * d_matrix("Y"), d_matrix("Z"))


def _ancilla_string(x: int, z: int, a: int) -> np.ndarray:
    """X**x Z**z on a qubits as a 2**a x 2**a matrix, qubit a-1 the leading
    factor of np.kron."""
    out = np.ones((1, 1), dtype=np.complex128)
    for q in reversed(range(a)):
        xq, zq = (x >> q) & 1, (z >> q) & 1
        factor = np.linalg.matrix_power(pauli("X"), xq) @ np.linalg.matrix_power(pauli("Z"), zq)
        out = np.kron(out, factor)
    return out


def conjugation_report(spec: EncoderSpec) -> tuple[float, float, float]:
    """Frobenius residuals of the three conjugation identities for spec.

    Each correlated error is the Pauli string i**e X**x Z**z with
    X_n = (1...1, 0, 0), Y_n = (1...1, 1...1, n mod 4) and
    Z_n = (0, 1...1, 0), since Y = i X Z; so is its conjugate i**e S =
    P_dag W P (gates.conjugate_pauli).  The residual against A ox I, A the
    ancilla image on the top a qubits, is exact without forming either:
    an S that acts on a data qubit is orthogonal to every A ox I, so its
    squared residual is |S|**2 + |A ox I|**2 = 2**n + 2**(n-a) |A|**2;
    any other S is S_a ox I with S_a on the ancilla, and its squared
    residual is 2**(n-a) |i**e S_a - A|**2.  Both are q 2**(n-a) with q an
    integer summed exactly from at most 16 entries, and the residual is
    its square root rounded once: the float that a dense check summing the
    same squares exactly gives, and all three are 0.0 for build_pn.  The
    cost is O(n) per gate and no 2**n-sized array is built.

    The spec's circuit must act on spec.n qubits (DimensionMismatch), and
    its parity and sign must be values a spec takes (ValueError,
    check_frame).
    """
    n = spec.n
    if spec.circuit.n_qubits != n:
        raise DimensionMismatch(f"a {spec.circuit.n_qubits}-qubit circuit in a spec with n={n}")
    check_frame(spec.parity, spec.sign)
    a = spec.ancilla_dim.bit_length() - 1
    data = n - a
    ones = (1 << n) - 1
    images = ancilla_images(spec.parity, spec.sign)
    frames = {"X": (ones, 0, 0), "Y": (ones, ones, n % 4), "Z": (0, ones, 0)}
    residuals = []
    for axis in "XYZ":
        image = images["IXYZ".index(axis)]
        x, z, e = conjugate_pauli(spec.circuit, *frames[axis])
        if (x | z) & ((1 << data) - 1):
            squared = (1 << a) + np.vdot(image, image).real
        else:
            diff = (1, 1j, -1, -1j)[e] * _ancilla_string(x >> data, z >> data, a) - image
            squared = np.vdot(diff, diff).real
        residuals.append(scaled_root(squared, data))
    return tuple(residuals)
