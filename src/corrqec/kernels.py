"""Hot numeric kernels, in numpy.

All encoders in this package are CNOT permutations plus at most one Hadamard,
and all error operators are diagonal or anti-diagonal up to signs.  Every hot
operation therefore reduces to index gathers, butterflies, and sign masks,
which cost O(dim^2) memory passes instead of O(dim^3) matrix products.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_INV_SQRT2 = float(np.sqrt(0.5))


@lru_cache(maxsize=None)
def parity_signs(n: int) -> np.ndarray:
    """Vector z with z[i] = (-1)**popcount(i) for i < 2**n, read-only."""
    idx = np.arange(1 << n, dtype=np.uint64)
    z = 1.0 - 2.0 * (np.bitwise_count(idx).astype(np.float64) % 2.0)
    z.setflags(write=False)
    return z


def _as_cmatrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if not m.flags.c_contiguous:
        m = np.ascontiguousarray(m)
    return m


def gather_conjugate(m: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """P_dag M P for the permutation matrix P whose column s is e_perm[s]."""
    m = _as_cmatrix(m)
    perm = np.ascontiguousarray(perm, dtype=np.int64)
    return m[np.ix_(perm, perm)]


def hadamard_rows(m: np.ndarray, q: int) -> np.ndarray:
    """H_q M for the Hadamard embedded on qubit q: a butterfly over rows."""
    out = m.copy()
    rows = out.reshape(-1, 2, (1 << q) * m.shape[0])
    a = rows[:, 0].copy()
    b = rows[:, 1]
    rows[:, 0] = (a + b) * _INV_SQRT2
    rows[:, 1] = (a - b) * _INV_SQRT2
    return out


def hadamard_conjugate(m: np.ndarray, q: int) -> np.ndarray:
    """H_q M H_q for the Hadamard embedded on qubit q (self-adjoint)."""
    out = hadamard_rows(_as_cmatrix(m), q)
    cols = out.reshape(out.shape[0], -1, 2, 1 << q)
    a = cols[:, :, 0].copy()
    b = cols[:, :, 1]
    cols[:, :, 0] = (a + b) * _INV_SQRT2
    cols[:, :, 1] = (a - b) * _INV_SQRT2
    return out


def pauli_channel_apply(rho: np.ndarray, probs) -> np.ndarray:
    """p0 rho + p1 X rho X + p2 Y rho Y + p3 Z rho Z, fused into two passes."""
    rho = _as_cmatrix(rho)
    z = parity_signs(rho.shape[0].bit_length() - 1)
    p0, p1, p2, p3 = (float(p) for p in probs)
    flip = rho[::-1, ::-1]
    zz = np.multiply.outer(z, z)
    return (p0 + p3 * zz) * rho + (p1 + p2 * zz) * flip


def span_conjugate(m: np.ndarray, fd: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """F M F_dag for banded F with F[i,i] = fd[i] and F[i, dim-1-i] = fa[i]."""
    m = _as_cmatrix(m)
    fd = np.ascontiguousarray(fd, dtype=np.complex128)
    fa = np.ascontiguousarray(fa, dtype=np.complex128)
    left = fd[:, None] * m + fa[:, None] * m[::-1, :]
    return left * fd.conj()[None, :] + left[:, ::-1] * fa.conj()[None, :]


def ptrace_leading(m: np.ndarray, keep: int) -> np.ndarray:
    """Trace out the leading factor, keeping the trailing keep x keep block."""
    m = _as_cmatrix(m)
    d = m.shape[0] // keep
    return np.einsum("ikil->kl", m.reshape(d, keep, d, keep))


def ptrace_trailing(m: np.ndarray, keep: int) -> np.ndarray:
    """Trace out the trailing factor, keeping the leading keep x keep block."""
    m = _as_cmatrix(m)
    d = m.shape[0] // keep
    return np.einsum("ikjk->ij", m.reshape(keep, d, keep, d))


def frob_dist(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(_as_cmatrix(a) - _as_cmatrix(b)))
