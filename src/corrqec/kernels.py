"""Hot numeric kernels, in numpy.

All encoders in this package are CNOT permutations plus at most one Hadamard,
and all error operators are diagonal or anti-diagonal up to signs.  Every hot
operation therefore reduces to index gathers, butterflies, and sign masks,
which cost O(dim^2) memory passes instead of O(dim^3) matrix products.

The dense kernels allocate one output matrix and walk their input in steps
of whole rows (or row pairs) sized by one rule, _step_rows: as many rows as
keep all a step touches (inputs and views, scratch and output) within half
of _TILE_BYTES (4 MiB), and no more than the matrix has.  So a call holds
its output plus one step's scratch, and a small matrix is one step.

- Each output element gets the same floating-point operations, in the same
  order, as the whole-array expression, so gather_hadamard_conjugate and
  pauli_channel_apply are bit-identical at every tile size.  frob_dist and
  kron_dist sum per-step squares in a different order (equal to within
  rounding) and are exactly 0.0 on equal inputs.
- gather_hadamard_conjugate conjugates by a permutation, a Hadamard and a
  permutation in one pass: the permutations only change which rows of the
  input a step reads and which rows and columns of the output it writes,
  so an even-n encoder costs one read and one write of the state.  Its row
  and column butterflies are the one butterfly, _hadamard_block.  Both run
  unscaled and the column butterfly's output is scaled once by 0.5, exact
  in binary, so conjugating a matrix of Gaussian integers (as the
  correlated errors are) is exact.
- kron_dist measures d against a kron product a ox r (r = I when None)
  with no output at all: each step builds its own slice of a ox r in
  scratch, so the product checks hold one state, not two.
- gather_conjugate is one fancy-index gather, for CNOT-only (odd-n)
  circuits: a tiled gather measured no faster on the encoders' CNOT
  permutations.
- gather_conjugate, gather_hadamard_conjugate and kron_dist keep a float64
  matrix in its dtype (real_or_complex), with buffers and scratch of the
  same dtype, since the encoders' gates are real: each float64 entry gets
  the operations the real part of a complex one would.  kron_dist's
  scratch is complex128 if any input is complex.  Every other kernel
  takes its input as complex128.

pauli_channel_apply applies any channel whose Kraus operators lie in
span{I, X_n, Y_n, Z_n}, given as its 4x4 process matrix chi (a Pauli
channel by its probabilities, the diagonal of chi), in one fused pass that
reads the state once: each entry of the output is a weighted sum of the
same entry of rho and of its reversed views.  A view whose weights are all
zero is skipped, so a Pauli channel reads only rho and its flip.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np

# Every row a step of a dense kernel touches fits in half of this many bytes.
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


def real_or_complex(m: np.ndarray) -> np.ndarray:
    """m as a C-contiguous float64 matrix if it is float64, else as complex128."""
    m = np.asarray(m)
    return np.ascontiguousarray(m, dtype=np.float64 if m.dtype == np.float64 else np.complex128)


def gather_conjugate(m: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """P_dag M P for the permutation matrix P whose column s is e_perm[s]."""
    m = real_or_complex(m)
    perm = np.ascontiguousarray(perm, dtype=np.int64)
    return m[np.ix_(perm, perm)]


def _step_rows(rows: int, bytes_per_row: int) -> int:
    """Rows (or row pairs) per step: as many as keep bytes_per_row bytes each
    within half a tile, at least 1 and at most `rows`."""
    return min(rows, max(1, _TILE_BYTES // 2 // bytes_per_row))


def _hadamard_block(a, b, block, scale: float | None) -> None:
    """Butterfly of the paired slices a and b into block[:, 0] = a + b and
    block[:, 1] = a - b, then block *= scale unless scale is None: the same
    roundings as (a + b) * scale.  Rows pass block as is; columns pass a
    view with the pair axis moved to position 1."""
    np.add(a, b, out=block[:, 0])
    np.subtract(a, b, out=block[:, 1])
    if scale is not None:
        block *= scale


def _pair_blocks(hi: int, lo: int, pairs: int):
    """((kh, kl), blocks): slices (h, l) that walk the hi*lo row pairs
    (h, 0, l), (h, 1, l) of a matrix whose rows are split as (hi, 2, lo),
    about `pairs` pairs per block: at most kh values of h by kl of l, with
    the l range whole once pairs >= lo."""
    kh, kl = (pairs // lo, lo) if pairs >= lo else (1, pairs)
    blocks = [
        (slice(h0, h0 + kh), slice(l0, l0 + kl))
        for h0 in range(0, hi, kh)
        for l0 in range(0, lo, kl)
    ]
    return (kh, kl), blocks


def gather_hadamard_conjugate(
    m: np.ndarray, before: np.ndarray | None, q: int, after: np.ndarray | None
) -> np.ndarray:
    """G_after(H_q G_before(m) H_q), with G_t(x) = x[t][:, t] for a
    permutation table t and None the identity, in one pass over m.

    Split rows and columns as (hi, 2, lo), lo = 2**q.  Output row pair
    x0 = (h, 0, l), x1 = (h, 1, l) of H_q G_before(m) H_q is the row
    butterfly of rows before[x0] and before[x1] of m, gathered by before
    along columns, followed by the column butterfly over the same split;
    G_after then sends row x to row argsort(after)[x], gathered by after
    along columns.  Both butterflies are unscaled sums and differences, and
    the column butterfly's output is scaled once by 0.5 = (1/sqrt2)**2,
    which is exact: on Gaussian-integer entries (the correlated errors have
    0, +-1, +-i) every operation is exact, so an even-n conjugation is as
    exact as a gather.  The tables only move entries, so the output is
    bit-identical to gather_conjugate, the table-free call and
    gather_conjugate in turn.

    A step walks a block of row pairs through two scratch buffers; it
    touches eight rows per pair (two of m, two in each buffer, two of the
    output), so steps are sized to keep them within half a tile.  Tables
    are gathered with mode="clip", which never clips a permutation and
    lets take write into its buffer directly.
    """
    m = real_or_complex(m)
    dim = m.shape[0]
    lo = 1 << q
    hi = dim >> (q + 1)
    out = np.empty_like(m)
    src = m.reshape(hi, 2, lo, dim)
    dst = out.reshape(hi, 2, lo, dim)
    if before is not None:
        before = np.asarray(before, dtype=np.intp)
        rows = before.reshape(hi, 2, lo)
    if after is not None:
        after = np.asarray(after, dtype=np.intp)
        dest = np.argsort(after).reshape(hi, 2, lo)
    (kh, kl), blocks = _pair_blocks(hi, lo, _step_rows(hi * lo, 8 * m.itemsize * dim))
    buffers = np.empty((2, kh, 2, kl, dim), dtype=m.dtype)
    for h, l in blocks:
        part = dst[h, :, l]
        x, y = buffers[:, : part.shape[0], :, : part.shape[2]]
        if before is None:
            rows_in = src[h, :, l]
        else:
            np.take(m, rows[h, :, l], axis=0, out=x, mode="clip")
            rows_in = np.take(x, before, axis=-1, out=y, mode="clip")
        _hadamard_block(rows_in[:, 0], rows_in[:, 1], x, None)
        block = part if after is None else y
        cols_in = x.reshape(x.shape[:-1] + (hi, 2, lo))
        cols_out = block.reshape(block.shape[:-1] + (hi, 2, lo))
        # the column pair axis moved to position 1, as _hadamard_block takes it
        cols_out = cols_out.transpose(0, 4, 1, 2, 3, 5)
        _hadamard_block(cols_in[..., 0, :], cols_in[..., 1, :], cols_out, 0.5)
        if after is not None:
            out[dest[h, :, l]] = np.take(y, after, axis=-1, out=x, mode="clip")
    return out


def y_phase(n: int) -> complex:
    """omega = (-i)**n, the phase in Y_n = antidiag(omega * z); exact at every n."""
    return (-1j) ** (n % 4)


# E = (I, X_n, Y_n, Z_n) reordered as (I, Z_n, X_n, Y_n): the elements that
# keep the rows in place, then the ones that reverse them.
_BY_FLIP = (0, 3, 1, 2)
_BY_FLIP_IX = np.ix_(_BY_FLIP, _BY_FLIP)
# row s is (1, z) for the row class s (z = +1, -1), as _chi_weights sums it
_SUM_DIFF = np.array([[1.0, 1.0], [1.0, -1.0]])


@lru_cache(maxsize=None)
def _phase_outer(n4: int) -> np.ndarray:
    """outer(phase, conj(phase)) for phase = (1, 1, 1, omega) in _BY_FLIP
    order at n = n4 mod 4, read-only."""
    phase = np.array([1.0, 1.0, 1.0, y_phase(n4)])
    out = np.outer(phase, phase.conj())
    out.setflags(write=False)
    return out


def _chi_weights(chi: np.ndarray, n: int) -> np.ndarray:
    """w with w[2r + c, s] the weight row of block (r, c) for rows of parity
    class s (0: z = +1, 1: z = -1), shape (4, 2, 2**n).

    E_a = diag(u_a) P**r_a, with P the reversal, r_a = 1 for X_n and Y_n,
    u = 1 for I and X_n, z for Z_n and omega z for Y_n.  So
    E_a rho E_b_dag [i, k] = u_a[i] conj(u_b[k]) rho[P**r_a(i), P**r_b(k)],
    and block (r, c) of the sum collects the four (a, b) with r_a = r and
    r_b = c: with m = diag(1, lambda_r) chi_rc diag(1, conj(lambda_c)),
    lambda = (1, omega), its weight is
    (1, z_i) m (1, z_k)^T = alpha(z_i) + beta(z_i) z_k.
    """
    m = chi[_BY_FLIP_IX] * _phase_outer(n % 4)
    # alpha, beta of each block and row class, indexed [r, c, s, (alpha, beta)]
    ab = np.einsum("si,ricj->rcsj", _SUM_DIFF, m.reshape(2, 2, 2, 2))
    w = ab[..., :1] + ab[..., 1:] * parity_signs(n)
    return w.reshape(4, 2, -1)


def pauli_channel_apply(rho: np.ndarray, probs) -> np.ndarray:
    """sum_ab chi_ab E_a rho E_b_dag over E = (I, X_n, Y_n, Z_n), in one pass.

    probs is a 4x4 chi or the probabilities (p0, p1, p2, p3), which are the
    diagonal of chi: p0 rho + p1 X rho X + p2 Y rho Y + p3 Z rho Z.  The
    output is the sum over blocks (r, c) of W_rc * rho[P**r, P**c] (see
    _chi_weights).  Block (0, 0) is always summed, every other block only
    where its weights are not all zero, so a step reads only the views of
    rho it needs: a diagonal chi (any Pauli channel) has zero cross blocks
    and reads rho and its flip rho[::-1, ::-1], a full chi all four views.
    A step touches the output, one scratch row and each view read, per
    output row.

    The class indices are 0 or 1, so mode="clip" never clips; it lets take
    write into out directly, where the default mode buffers it.
    """
    rho = _as_cmatrix(rho)
    chi = np.asarray(probs, dtype=np.complex128)
    if chi.ndim == 1:
        chi = np.diag(chi)
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    weights = _chi_weights(chi, n)
    views = (rho, rho[:, ::-1], rho[::-1], rho[::-1, ::-1])
    blocks = [0] + [b for b in (1, 2, 3) if weights[b].any()]
    rows_class = (parity_signs(n) < 0).astype(np.intp)
    out = np.empty_like(rho)
    step = _step_rows(dim, 16 * (2 + len(blocks)) * dim)
    scratch = np.empty((step, dim), dtype=np.complex128)
    for r0 in range(0, dim, step):
        r = slice(r0, r0 + step)
        o = out[r]
        s = scratch[: len(o)]
        np.take(weights[0], rows_class[r], axis=0, out=o, mode="clip")
        o *= rho[r]
        for b in blocks[1:]:
            np.take(weights[b], rows_class[r], axis=0, out=s, mode="clip")
            s *= views[b][r]
            o += s
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


def frob_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b, summed step by step; 0.0 when a == b."""
    a = _as_cmatrix(a)
    b = _as_cmatrix(b)
    rows = a.shape[0]
    step = _step_rows(rows, 48 * a.shape[1])
    scratch = np.empty((step,) + a.shape[1:], dtype=np.complex128)
    total = 0.0
    for r0 in range(0, rows, step):
        r = slice(r0, r0 + step)
        d = np.subtract(a[r], b[r], out=scratch[: min(step, rows - r0)])
        total += np.vdot(d, d).real
    return sqrt(total)


def kron_dist(d: np.ndarray, a: np.ndarray, r: np.ndarray | None) -> float:
    """Frobenius norm of d - a ox r, r None for the identity, without forming
    a ox r; 0.0 when d equals it.

    d is walked as (A, R, A, R), d[i, j, k, l] = d[i R + j, k R + l], in
    blocks of rows (i, j) from _pair_blocks, in frob_dist's steps (a row of
    d, of scratch and at most one of r per row of d).  A step builds its
    slice of a[i, k] * r[j, l] in scratch, the one rounding np.kron makes,
    and subtracts it from d; for r None the slice is d less a[i, k] where
    l = j, the entries a[i, k] * 1 of a ox I.  The scratch is float64 when
    d, a and r are each float64, complex128 otherwise.
    """
    d = real_or_complex(d)
    a = real_or_complex(a)
    if r is not None:
        r = real_or_complex(r)
    dtype = np.result_type(d, a) if r is None else np.result_type(d, a, r)
    dim = d.shape[0]
    na = a.shape[0]
    nr = dim // na
    d4 = d.reshape(na, nr, na, nr)
    (ki, kj), blocks = _pair_blocks(na, nr, _step_rows(dim, 3 * dtype.itemsize * dim))
    scratch = np.empty((ki, kj, na, nr), dtype=dtype)
    total = 0.0
    for i, j in blocks:
        part = d4[i, j]
        s = scratch[: part.shape[0], : part.shape[1]]
        if r is None:
            np.copyto(s, part)
            t = np.arange(s.shape[1])
            s[:, t, :, j.start + t] -= a[i]
        else:
            np.multiply(a[i, None, :, None], r[None, j, None, :], out=s)
            np.subtract(part, s, out=s)
        total += np.vdot(s, s).real
    return sqrt(total)
