"""Fully correlated error channels and their sequential composition.

A PauliChannel mixes conjugations by X_n, Y_n, Z_n with probabilities
(p0, p1, p2, p3).  A SpanChannel has Kraus operators in the linear span
of {I, X_n, Y_n, Z_n}; each operator F = a I + b X_n + c Y_n + d Z_n is
banded (diagonal plus anti-diagonal), which the kernels exploit.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import kernels
from .errors import DimensionMismatch, NotTracePreserving
from .gates import banded_error
from .tolerances import COMPLETENESS_TOL, PROB_SUM_TOL

Coeffs = tuple[complex, complex, complex, complex]


@dataclass(frozen=True)
class PauliChannel:
    n: int
    probs: tuple[float, float, float, float]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"n must be >= 1, got {self.n}")
        probs = tuple(float(p) for p in self.probs)
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


def completeness_deviation(n: int, kraus_coeffs) -> float:
    """Frobenius norm of sum_j F_j_dag F_j - I, computed from coefficients.

    Products of correlated errors stay in the span: X_n Y_n = i**n Z_n and
    cyclically, with the conjugate phase for the reversed order.  Expanding
    each F_dag F in the orthogonal basis {I, X_n, Y_n, Z_n} (each of squared
    Frobenius norm 2**n) gives the deviation without any dense algebra.
    """
    omega = 1j ** (n % 4)
    c_i = c_x = c_y = c_z = 0.0 + 0.0j
    for a, b, c, d in kraus_coeffs:
        ac, bc, cc, dc = np.conj(a), np.conj(b), np.conj(c), np.conj(d)
        c_i += ac * a + bc * b + cc * c + dc * d
        c_x += ac * b + bc * a + omega * cc * d + np.conj(omega) * dc * c
        c_y += ac * c + cc * a + omega * dc * b + np.conj(omega) * bc * d
        c_z += ac * d + dc * a + omega * bc * c + np.conj(omega) * cc * b
    dev = abs(c_i - 1.0) ** 2 + abs(c_x) ** 2 + abs(c_y) ** 2 + abs(c_z) ** 2
    return sqrt((1 << n) * dev)


@dataclass(frozen=True)
class SpanChannel:
    n: int
    kraus_coeffs: tuple[Coeffs, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"n must be >= 1, got {self.n}")
        coeffs = tuple(
            tuple(complex(x) for x in row) for row in self.kraus_coeffs
        )
        if any(len(row) != 4 for row in coeffs) or len(coeffs) == 0:
            raise ValueError("kraus_coeffs must be a nonempty list of 4-tuples")
        if not all(isfinite(x) for row in coeffs for x in row):
            raise ValueError(f"kraus_coeffs must be finite: {coeffs}")
        object.__setattr__(self, "kraus_coeffs", coeffs)
        dev = completeness_deviation(self.n, coeffs)
        if dev > COMPLETENESS_TOL:
            raise NotTracePreserving(
                f"sum of F_dag F deviates from identity by {dev:.3e}"
            )


Channel = PauliChannel | SpanChannel


def _check_dim(ch: Channel, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] != (1 << ch.n):
        raise DimensionMismatch(
            f"state shape {rho.shape} does not match n={ch.n} qubits"
        )
    return rho


def apply_pauli_channel(ch: PauliChannel, rho: np.ndarray) -> np.ndarray:
    """p0 rho + p1 X rho X_dag + p2 Y rho Y_dag + p3 Z rho Z_dag."""
    return kernels.pauli_channel_apply(_check_dim(ch, rho), ch.probs)


def apply_span_channel(ch: SpanChannel, rho: np.ndarray) -> np.ndarray:
    """sum_j F_j rho F_j_dag over the banded Kraus operators."""
    rho = _check_dim(ch, rho)
    kraus = iter(ch.kraus_coeffs)
    out = kernels.span_conjugate(rho, *banded_error(ch.n, next(kraus)))
    for coeffs in kraus:
        out += kernels.span_conjugate(rho, *banded_error(ch.n, coeffs))
    return out


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    if isinstance(ch, PauliChannel):
        return apply_pauli_channel(ch, rho)
    return apply_span_channel(ch, rho)


def apply_sequence(channels, rho: np.ndarray, repeats: int = 1) -> np.ndarray:
    """Apply the channel list in order, the whole list `repeats` times."""
    channels = list(channels)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    ns = {ch.n for ch in channels}
    if len(ns) > 1:
        raise DimensionMismatch(f"channels act on different qubit counts: {ns}")
    out = np.asarray(rho, dtype=np.complex128)
    for _ in range(repeats):
        for ch in channels:
            out = apply_channel(ch, out)
    return out
