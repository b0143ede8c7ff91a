"""Hot numeric kernels, in numpy.

All encoders in this package are CNOT permutations plus at most one Hadamard,
and all error operators are diagonal or anti-diagonal up to signs.  Every hot
operation therefore reduces to index gathers, butterflies, and sign masks,
which cost O(dim^2) memory passes instead of O(dim^3) matrix products.

The dense kernels allocate one output matrix and walk their input in row
tiles of _TILE_BYTES (4 MiB), so no temporary outgrows a tile:

- A matrix that fits in one tile (dim <= 512) is evaluated whole, in one
  step.  A larger one is walked in steps of whole rows whose scratch stays
  within half a tile, so a call holds its output plus at most that much.
  Each kernel's arithmetic is one helper, called once on the whole matrix
  or once per step.
- Each output element gets the same floating-point operations, in the same
  order, as the whole-array expression, so hadamard_rows,
  hadamard_conjugate, pauli_channel_apply and span_conjugate are
  bit-identical at every tile size.  frob_dist sums per-tile squares in a
  different order (equal to within rounding) and is exactly 0.0 on equal
  inputs.
- gather_conjugate is one fancy-index gather: a tiled gather measured no
  faster on the encoders' CNOT permutations.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np

_INV_SQRT2 = float(np.sqrt(0.5))
# A matrix of at most this many bytes is evaluated whole; a larger one is
# walked in row steps whose scratch stays within half of it.
_TILE_BYTES = 1 << 22


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


def _step_rows(scratch_per_row: int) -> int:
    """Rows per step of a matrix past one tile: as many as keep the step's
    scratch, scratch_per_row bytes a row, within half a tile."""
    return max(1, _TILE_BYTES // 2 // scratch_per_row)


def _hadamard_block(a, b, block, cols) -> None:
    """Row butterfly of the row pairs (a, b) into block, the output rows of
    those pairs; then, if cols views block with each column index split as
    (high bits, bit q, low bits), the column butterfly of block in place."""
    np.add(a, b, out=block[:, 0])
    np.subtract(a, b, out=block[:, 1])
    block *= _INV_SQRT2
    if cols is not None:
        x, y = cols[..., 0, :], cols[..., 1, :]
        d = x - y
        x += y
        y[...] = d
        block *= _INV_SQRT2


def _hadamard(m: np.ndarray, q: int, conjugate: bool) -> np.ndarray:
    """H_q M, or H_q M H_q when conjugate.

    Row r (bit q clear) pairs with row r + 2**q: with src = m viewed as
    (hi, 2, lo, columns) they are src[h, 0, l] and src[h, 1, l].  A step
    takes a block of pairs, kh values of h by kl of l, and runs
    _hadamard_block on it while its output rows are in cache.  Each
    butterfly forms a + b and a - b, then scales them by 1/sqrt2: the same
    two roundings as (a + b) * (1/sqrt2).
    """
    m = _as_cmatrix(m)
    dim = m.shape[0]
    lo = 1 << q
    hi = dim >> (q + 1)
    out = np.empty_like(m)
    src = m.reshape(hi, 2, lo, -1)
    dst = out.reshape(hi, 2, lo, -1)
    cols = out.reshape(hi, 2, lo, hi, 2, lo) if conjugate else None
    if m.nbytes <= _TILE_BYTES:
        _hadamard_block(src[:, 0], src[:, 1], dst, cols)
        return out
    pairs = max(1, _step_rows(8 * m.shape[1]) // 2)
    kh, kl = (pairs // lo, lo) if pairs >= lo else (1, pairs)
    for h0 in range(0, hi, kh):
        for l0 in range(0, lo, kl):
            h, l = slice(h0, h0 + kh), slice(l0, l0 + kl)
            block_cols = cols[h, :, l] if conjugate else None
            _hadamard_block(src[h, 0, l], src[h, 1, l], dst[h, :, l], block_cols)
    return out


def hadamard_rows(m: np.ndarray, q: int) -> np.ndarray:
    """H_q M for the Hadamard embedded on qubit q: a butterfly over rows."""
    return _hadamard(m, q, conjugate=False)


def hadamard_conjugate(m: np.ndarray, q: int) -> np.ndarray:
    """H_q M H_q for the Hadamard embedded on qubit q (self-adjoint)."""
    return _hadamard(m, q, conjugate=True)


def _pauli_rows(rows, flip_rows, z_rows, z, probs, out=None) -> np.ndarray:
    """Output rows of pauli_channel_apply from the same rows of rho, of its
    flip and of z; built in out (new if None)."""
    p0, p1, p2, p3 = probs
    zz = np.multiply.outer(z_rows, z)
    rows = np.multiply(p0 + p3 * zz, rows, out=out)
    rows += (p1 + p2 * zz) * flip_rows
    return rows


def pauli_channel_apply(rho: np.ndarray, probs) -> np.ndarray:
    """p0 rho + p1 X rho X + p2 Y rho Y + p3 Z rho Z, fused.

    With zz = outer(z, z) this is (p0 + p3 zz) rho + (p1 + p2 zz) flip,
    flip = rho[::-1, ::-1], whose rows [r0, r1) are rows [dim - r1, dim - r0)
    of rho, both axes reversed.
    """
    rho = _as_cmatrix(rho)
    dim = rho.shape[0]
    z = parity_signs(dim.bit_length() - 1)
    probs = tuple(map(float, probs))
    flip = rho[::-1, ::-1]
    if rho.nbytes <= _TILE_BYTES:
        return _pauli_rows(rho, flip, z, z, probs)
    out = np.empty_like(rho)
    step = _step_rows(40 * dim)
    for r0 in range(0, dim, step):
        r = slice(r0, r0 + step)
        _pauli_rows(rho[r], flip[r], z[r], z, probs, out[r])
    return out


def _span_rows(rows, flip_rows, fd_rows, fa_rows, fdc, fac, out=None) -> np.ndarray:
    """Output rows of span_conjugate from the same rows of m, of its flip and
    of fd, fa as columns; built in out (new if None), then multiplied by
    F_dag in place, so one row block of scratch is live at a time."""
    left = np.multiply(fd_rows, rows, out=out)
    left += fa_rows * flip_rows
    right = left[:, ::-1] * fac
    left *= fdc
    left += right
    return left


def span_conjugate(m: np.ndarray, fd: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """F M F_dag for banded F with F[i,i] = fd[i] and F[i, dim-1-i] = fa[i].

    Rows [r0, r1) of left = F M need only rows [r0, r1) of m and of its
    flip m[::-1].
    """
    m = _as_cmatrix(m)
    dim = m.shape[0]
    fd = np.ascontiguousarray(fd, dtype=np.complex128)
    fa = np.ascontiguousarray(fa, dtype=np.complex128)
    fdc, fac = fd.conj(), fa.conj()
    fd, fa = fd[:, None], fa[:, None]
    flip = m[::-1]
    if m.nbytes <= _TILE_BYTES:
        return _span_rows(m, flip, fd, fa, fdc, fac)
    out = np.empty_like(m)
    step = _step_rows(32 * dim)
    for r0 in range(0, dim, step):
        r = slice(r0, r0 + step)
        _span_rows(m[r], flip[r], fd[r], fa[r], fdc, fac, out[r])
    return out


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


def _square_dist(a, b, scratch=None) -> float:
    """Sum of |a - b|**2, with a - b built in scratch (new if None)."""
    d = np.subtract(a, b, out=scratch)
    return np.vdot(d, d).real


def frob_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b, summed tile by tile; 0.0 when a == b."""
    a = _as_cmatrix(a)
    b = _as_cmatrix(b)
    if a.nbytes <= _TILE_BYTES:
        return sqrt(_square_dist(a, b))
    rows = a.shape[0]
    step = _step_rows(a.itemsize * a.shape[1])
    scratch = np.empty((step,) + a.shape[1:], dtype=np.complex128)
    total = 0.0
    for r0 in range(0, rows, step):
        r = slice(r0, r0 + step)
        total += _square_dist(a[r], b[r], scratch[: min(step, rows - r0)])
    return sqrt(total)
