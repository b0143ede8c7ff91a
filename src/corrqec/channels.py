"""Fully correlated error channels and their sequential composition.

A PauliChannel mixes conjugations by X_n, Y_n, Z_n with probabilities
(p0, p1, p2, p3).  A SpanChannel has Kraus operators in the linear span
of {I, X_n, Y_n, Z_n}; each operator F = a I + b X_n + c Y_n + d Z_n is
banded (diagonal plus anti-diagonal), which the kernels exploit.

The span E = (I, X_n, Y_n, Z_n) is closed under products, so every channel
here, and any list of them repeated any number of times, is one 4x4 PSD
process matrix chi: rho -> sum_ab chi_ab E_a rho E_b_dag.  sequence_chi
composes a channel list into one chi with 4x4 algebra and raises it to the
repeat count by squaring (O(log r) compositions); checked_sequence_chi also
checks the list against the state.  The trial (scheme.run_trial) hands that
chi to kernels.pauli_channel_basis_packed, one pass of the state whatever
the list length and repeat count, and scheme.predicted_ancilla takes the
same chi through the ancilla images to predict the decoded ancilla.
"""

from __future__ import annotations

import operator
from cmath import isfinite
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .errors import DimensionMismatch, NotTracePreserving
from .tolerances import COMPLETENESS_TOL, PROB_SUM_TOL

Coeffs = tuple[complex, complex, complex, complex]


@dataclass(frozen=True)
class PauliChannel:
    n: int
    probs: tuple[float, float, float, float]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"n must be >= 1, got {self.n}")
        try:
            probs = tuple(float(p) for p in self.probs)
        except TypeError:
            raise ValueError(
                f"probabilities must be 4 real numbers, got {self.probs!r}"
            ) from None
        if len(probs) != 4:
            raise ValueError(f"expected 4 probabilities, got {len(probs)}")
        if not all(isfinite(p) for p in probs):
            raise ValueError(f"probabilities must be finite: {probs}")
        if any(p < 0 for p in probs):
            raise ValueError(f"probabilities must be nonnegative: {probs}")
        total = sum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise NotTracePreserving(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", tuple(p / total for p in probs))


@lru_cache(maxsize=None)
def pauli_products(n: int) -> np.ndarray:
    """t with E_a E_b = sum_c t[a, c, b] E_c for E = (I, X_n, Y_n, Z_n), read-only.

    E_a E_b is a phase times E_(a xor b): X_n Y_n = i**n Z_n and cyclically,
    with the conjugate phase for the reversed order, and 1 when a factor is
    I or the two are equal.
    """
    omega = 1j ** (n % 4)
    t = np.zeros((4, 4, 4), dtype=np.complex128)
    for a in range(4):
        for b in range(4):
            phase = 1.0
            if a and b and a != b:
                phase = omega if (b - a) % 3 == 1 else np.conj(omega)
            t[a, a ^ b, b] = phase
    t.setflags(write=False)
    return t


# coefficients of I in the basis E
_I_COEFFS = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)


def _rows_chi(kraus_coeffs) -> np.ndarray:
    """chi = sum_j f_j f_j_dag over Kraus coefficient rows f_j."""
    f = np.array(kraus_coeffs, dtype=np.complex128).reshape(-1, 4)
    return f.T @ f.conj()


def _kraus_gram(chi: np.ndarray, n: int) -> np.ndarray:
    """Coefficients in E of sum_j F_j_dag F_j = sum_ab chi_ab E_b E_a, as
    every E_b is Hermitian."""
    return np.einsum("ab,bca->c", chi, pauli_products(n))


def completeness_deviation(n: int, kraus_coeffs) -> float:
    """Frobenius norm of sum_j F_j_dag F_j - I, computed from coefficients.

    Expanding the sum in the orthogonal basis {I, X_n, Y_n, Z_n} (each of
    squared Frobenius norm 2**n) with pauli_products gives the deviation
    without any dense algebra.
    """
    dev = _kraus_gram(_rows_chi(kraus_coeffs), n) - _I_COEFFS
    return sqrt((1 << n) * np.vdot(dev, dev).real)


@dataclass(frozen=True)
class SpanChannel:
    n: int
    kraus_coeffs: tuple[Coeffs, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"n must be >= 1, got {self.n}")
        try:
            coeffs = tuple(
                tuple(complex(x) for x in row) for row in self.kraus_coeffs
            )
        except TypeError:
            coeffs = ()  # not rows of numbers: rejected just below
        if any(len(row) != 4 for row in coeffs) or len(coeffs) == 0:
            raise ValueError(
                "kraus_coeffs must be a nonempty list of 4-tuples of numbers, "
                f"got {self.kraus_coeffs!r}"
            )
        if not all(isfinite(x) for row in coeffs for x in row):
            raise ValueError(f"kraus_coeffs must be finite: {coeffs}")
        object.__setattr__(self, "kraus_coeffs", coeffs)
        dev = completeness_deviation(self.n, coeffs)
        if dev > COMPLETENESS_TOL:
            raise NotTracePreserving(
                f"sum of F_dag F deviates from identity by {dev:.3e}"
            )


Channel = PauliChannel | SpanChannel


def chi_matrix(ch: Channel) -> np.ndarray:
    """chi of one channel: diag(probs), or sum_j f_j f_j_dag over Kraus rows f_j."""
    if isinstance(ch, PauliChannel):
        return np.diag(np.array(ch.probs, dtype=np.complex128))
    return _rows_chi(ch.kraus_coeffs)


def _is_diagonal(chi: np.ndarray) -> bool:
    return not np.any(chi - np.diag(np.diagonal(chi)))


def _then(first: np.ndarray, second: np.ndarray, n: int) -> np.ndarray:
    """chi of applying `first`, then `second`: E_c E_a rho (E_d E_b)_dag
    weighted by second_cd first_ab, each product expanded by pauli_products.

    The squarings in sequence_chi would compound the rounding of each
    composition in proportion to the repeat count, so the result is put
    back on the set of channels.  Negative eigenvalues of chi are clipped
    to 0 (a diagonal chi has none).  Then, with sum_j F_j_dag F_j = I + D,
    every Kraus operator F_j is multiplied on the right by I - D/2, which
    leaves a deviation of order D**2; for a diagonal chi this is a
    rescaling to unit trace.
    """
    t = pauli_products(n)
    chi = np.einsum("cd,cea,ab,dfb->ef", second, t, first, t.conj())
    if not _is_diagonal(chi):
        w, v = np.linalg.eigh(chi)
        chi = (v * np.maximum(w, 0.0)) @ v.conj().T
    d = _kraus_gram(chi, n) - _I_COEFFS
    # F -> F (I - D/2) maps the coefficient row f to right @ f
    right = np.einsum("aec,c->ea", t, _I_COEFFS - 0.5 * d)
    return right @ chi @ right.conj().T


def sequence_chi(channels, repeats: int) -> np.ndarray:
    """chi of the channel list applied in order, the whole list `repeats`
    times; the repeats by squaring, so O(log repeats) compositions."""
    n = channels[0].n
    chi = chi_matrix(channels[0])
    for ch in channels[1:]:
        chi = _then(chi, chi_matrix(ch), n)
    out = None
    while True:
        if repeats & 1:
            out = chi if out is None else _then(out, chi, n)
        repeats >>= 1
        if not repeats:
            return out
        chi = _then(chi, chi, n)


def check_repeats(repeats) -> int:
    """repeats as an int, which must be >= 1."""
    try:
        repeats = operator.index(repeats)
    except TypeError:
        raise TypeError(f"repeats must be an integer, got {repeats!r}") from None
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    return repeats


def checked_sequence_chi(channels, shape, repeats: int) -> np.ndarray | None:
    """sequence_chi of the channel list for a state of the given shape, None
    for an empty list; DimensionMismatch unless every channel acts on the
    same n and the state is 2**n x 2**n."""
    channels = list(channels)
    repeats = check_repeats(repeats)
    ns = {ch.n for ch in channels}
    if len(ns) > 1:
        raise DimensionMismatch(f"channels act on different qubit counts: {ns}")
    if not channels:
        return None
    n = channels[0].n
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] != (1 << n):
        raise DimensionMismatch(f"state shape {shape} does not match n={n} qubits")
    return sequence_chi(channels, repeats)
