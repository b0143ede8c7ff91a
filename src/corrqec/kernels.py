"""Hot numeric kernels, in numpy.

All encoders in this package are CNOT permutations plus at most one Hadamard,
and all error operators are diagonal or anti-diagonal up to signs.  Every hot
operation therefore reduces to index gathers, butterflies, and blockwise
products with small weight matrices, which cost O(dim^2) memory passes
instead of O(dim^3) matrix products.

The dense kernels write one output matrix and walk their input in steps
of whole rows (or row pairs) sized by one rule, _step_rows: as many rows as
keep all a step touches (inputs and views, scratch and output) within half
of _TILE_BYTES (4 MiB), and no more than the matrix has.  So a call holds
its output plus one step's scratch, and a small matrix is one step.  The
output is allocated, except where the caller hands one in (check_out):
the trial runs its stages in two reused buffers, so that each stage
writes into pages an earlier stage has already touched.  The gathers'
into-out bodies (_gather_conjugate_into, _gather_hadamard_conjugate_into)
are their only implementations; the pinned public names allocate and call
them.

- Each output element gets the same floating-point operations, in the same
  order, as the whole-array expression, so gather_hadamard_conjugate is
  bit-identical at every tile size.  frob_dist and kron_dist sum per-step
  squares in a different order (equal to within rounding) and are exactly
  0.0 on equal inputs.  pauli_channel_basis_packed's sums are BLAS dot
  products, equal to within rounding at every tile size.
- gather_hadamard_conjugate conjugates by a permutation, a Hadamard and a
  permutation in one pass: the permutations only change which rows of the
  input a step reads and which rows and columns of the output it writes,
  so an even-n encoder costs one read and one write of the state.  Its row
  and column butterflies are the one butterfly, _hadamard_block.  Both run
  unscaled and the column butterfly's output is scaled once by 0.5, exact
  in binary, so conjugating a matrix of Gaussian integers (as the
  correlated errors are) is exact.
- kron_dist measures d against a kron product a ox r, or against the
  two-term a1 ox r + a2 ox r^T of a packed product, with no output at all:
  each step builds its own slice of the product in scratch, so the
  product checks hold one state, not two.
- gather_conjugate, for CNOT-only (odd-n) circuits, takes a step of
  rows of m into scratch and then their columns into the step's rows of
  the output, with np.take: entries only move, so it is bit-identical to
  m[np.ix_(perm, perm)] at every tile size.
- The trial carries its states packed, as one float64 matrix
  Re rho + Im rho (tensor.pack), so the float64 paths are the ones it
  runs.  The gathers, kron_dist and ptrace_* keep a float64 matrix in its
  dtype (real_or_complex), with buffers and scratch of the same dtype,
  since the encoders' gates are real: each float64 entry gets the
  operations the real part of a complex one would.  kron_dist's scratch
  is complex128 if any input is complex; frob_dist takes complex128.  The
  packed entry points (pauli_channel_basis_packed, and tensor's unpack,
  pack_kron and packed_kron_distance) reject a complex state (as_packed)
  rather than drop its imaginary part.

pauli_channel_basis_packed applies any channel whose Kraus operators lie in
span{I, X_n, Y_n, Z_n}, given as its 4x4 process matrix chi (a Pauli
channel by its probabilities, the diagonal of chi), to a packed state in
channel_basis, a CNOT permutation under which X_n and Z_n act on the
leading one (odd n) or two (even n) qubits only.  There each block of the
output is a weighted sum of the blocks of the state and of its transpose
(the transpose carries the imaginary parts of a span channel's weights):
one real matrix product per step of rows, whose weight matrix is 4 x 8
for odd n and 16 x 32 for even n, half that for a Pauli channel.
The trial composes channel_basis into its encoder's last gather, so the
basis costs no pass of its own.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np

from .errors import BadQubitIndex, DimensionMismatch

# Every row a step of a dense kernel touches fits in half of this many bytes.
_TILE_BYTES = 1 << 22
# Columns of m per transposed copy in pauli_channel_basis_packed.
_TRANSPOSE_COLS = 64


def real_or_complex(m: np.ndarray) -> np.ndarray:
    """m as a C-contiguous float64 matrix if it is float64, else as complex128."""
    m = np.asarray(m)
    return np.ascontiguousarray(m, dtype=np.float64 if m.dtype == np.float64 else np.complex128)


def as_packed(m) -> np.ndarray:
    """m as a C-contiguous float64 square matrix, a packed state (tensor.pack);
    DimensionMismatch for a complex or non-square m."""
    m = np.asarray(m)
    if np.iscomplexobj(m) or m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"a packed state is a real square matrix, got {m.dtype} {m.shape}")
    return np.ascontiguousarray(m, dtype=np.float64)


def check_out(m: np.ndarray, out: np.ndarray) -> None:
    """Reject an output buffer a kernel on m cannot write into: not a
    C-contiguous array of m's shape and dtype (DimensionMismatch), or one
    that shares memory with m (ValueError: the kernel would overwrite the
    input it still reads)."""
    if not (
        isinstance(out, np.ndarray)
        and out.shape == m.shape
        and out.dtype == m.dtype
        and out.flags.c_contiguous
    ):
        raise DimensionMismatch(
            f"out must be a C-contiguous {m.dtype} array of shape {m.shape}, got "
            f"{getattr(out, 'dtype', type(out).__name__)} {getattr(out, 'shape', '')}"
        )
    if np.shares_memory(out, m):
        raise ValueError("out shares memory with the kernel's input")


def square_dim(m: np.ndarray) -> int:
    """The dim of a square m of power-of-two dim; DimensionMismatch else."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] & (m.shape[0] - 1) or not m.size:
        raise DimensionMismatch(f"expected a square matrix of power-of-two dim, got shape {m.shape}")
    return m.shape[0]


def _step_rows(rows: int, bytes_per_row: int) -> int:
    """Rows (or row pairs) per step: as many as keep bytes_per_row bytes each
    within half a tile, at least 1 and at most `rows`."""
    return min(rows, max(1, _TILE_BYTES // 2 // bytes_per_row))


def gather_conjugate(m: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """P_dag M P for the permutation matrix P whose column s is e_perm[s]."""
    m = real_or_complex(m)
    return _gather_conjugate_into(m, perm, np.empty_like(m))


def _check_table(table, dim: int, name: str) -> np.ndarray:
    """table as an intp array of dim indices in [0, dim), which mode="clip"
    never clips; DimensionMismatch for any other, which it would."""
    table = np.ascontiguousarray(table, dtype=np.intp)
    if table.shape != (dim,) or not 0 <= table.min() <= table.max() < dim:
        raise DimensionMismatch(f"{name} must hold {dim} indices in [0, {dim}), got {table.shape}")
    return table


def _gather_conjugate_into(m: np.ndarray, perm: np.ndarray, out: np.ndarray) -> np.ndarray:
    """gather_conjugate written into out (check_out), which it returns:
    out[i, j] = m[perm[i], perm[j]].

    A step gathers its rows perm[i] of m into scratch, then their columns
    perm[j] into its rows i of out; a step touches a row of m, of scratch
    and of out per row.  Entries only move, so the output is bit-identical
    to m[np.ix_(perm, perm)] at every tile size.  mode="clip" never clips a
    permutation and lets take write into its buffer directly, so a table
    of the wrong length or with an index out of range is rejected
    (_check_table) rather than clipped.
    """
    m = real_or_complex(m)
    check_out(m, out)
    dim = m.shape[0]
    perm = _check_table(perm, dim, "perm")
    step = _step_rows(dim, 3 * m.itemsize * dim)
    scratch = np.empty((step, dim), dtype=m.dtype)
    for r0 in range(0, dim, step):
        rows = perm[r0 : r0 + step]
        s = np.take(m, rows, axis=0, out=scratch[: len(rows)], mode="clip")
        np.take(s, perm, axis=1, out=out[r0 : r0 + len(rows)], mode="clip")
    return out


def _hadamard_block(a, b, block) -> None:
    """Butterfly of the paired slices a and b into block[:, 0] = a + b and
    block[:, 1] = a - b.  Rows pass block as is; columns pass a view with
    the pair axis moved to position 1."""
    np.add(a, b, out=block[:, 0])
    np.subtract(a, b, out=block[:, 1])


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
    """G_after(H_q G_before(m) H_q); see _gather_hadamard_conjugate_into."""
    m = real_or_complex(m)
    return _gather_hadamard_conjugate_into(m, before, q, after, np.empty_like(m))


def _gather_hadamard_conjugate_into(
    m: np.ndarray,
    before: np.ndarray | None,
    q: int,
    after: np.ndarray | None,
    out: np.ndarray,
) -> np.ndarray:
    """G_after(H_q G_before(m) H_q) written into out (check_out), which it
    returns, with G_t(x) = x[t][:, t] for a
    permutation table t and None the identity, in one pass over m.

    Split rows and columns as (hi, 2, lo), lo = 2**q.  Output row pair
    x0 = (h, 0, l), x1 = (h, 1, l) of H_q G_before(m) H_q is the row
    butterfly of rows before[x0] and before[x1] of m, gathered by before
    along columns, followed by the column butterfly over the same split;
    G_after then sends row x to row after^-1[x], gathered by after
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
    are gathered with mode="clip", which lets take write into its buffer
    directly, so each is checked first (_check_table), and after must be
    a permutation too, as its inverse places the rows (DimensionMismatch);
    m must be square of power-of-two dim (square_dim) and q one of its
    qubits (BadQubitIndex).
    """
    m = real_or_complex(m)
    check_out(m, out)
    dim = square_dim(m)
    if not 0 <= q < dim.bit_length() - 1:
        raise BadQubitIndex(f"q={q} is not a qubit of a {dim}-dim matrix")
    lo = 1 << q
    hi = dim >> (q + 1)
    src = m.reshape(hi, 2, lo, dim)
    dst = out.reshape(hi, 2, lo, dim)
    if before is not None:
        before = _check_table(before, dim, "before")
        rows = before.reshape(hi, 2, lo)
    if after is not None:
        after = _check_table(after, dim, "after")
        dest = np.full(dim, -1, dtype=np.intp)
        dest[after] = np.arange(dim)
        if dest.min() < 0:
            raise DimensionMismatch("after must be a permutation, but repeats an index")
        dest = dest.reshape(hi, 2, lo)
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
        _hadamard_block(rows_in[:, 0], rows_in[:, 1], x)
        block = part if after is None else y
        cols_in = x.reshape(x.shape[:-1] + (hi, 2, lo))
        cols_out = block.reshape(block.shape[:-1] + (hi, 2, lo))
        # the column pair axis moved to position 1, as _hadamard_block takes it
        cols_out = cols_out.transpose(0, 4, 1, 2, 3, 5)
        _hadamard_block(cols_in[..., 0, :], cols_in[..., 1, :], cols_out)
        cols_out *= 0.5
        if after is not None:
            out[dest[h, :, l]] = np.take(y, after, axis=-1, out=x, mode="clip")
    return out


def y_phase(n: int) -> complex:
    """omega = (-i)**n, the phase in Y_n = antidiag(omega * z); exact at every n."""
    return (-1j) ** (n % 4)


@lru_cache(maxsize=None)
def channel_basis(n: int) -> np.ndarray:
    """The basis permutation B, |i> -> |B[i]> (a circuit_factors table), that
    carries X_n and Z_n onto the leading qubits; read-only.

    t = popcount(i) mod 2 is the parity of i, so Z_n = diag((-1)**t), and
    X_n complements every bit of i.  Odd n: B[i] = (t, l'), l' the low n - 1
    bits of i complemented where t = 1.  Complementing i flips t and keeps
    l', so X_n is X and Z_n is Z on qubit n - 1.  Even n: B[i] = (t, b, l'),
    b the top bit of i and l' its low n - 2 bits complemented where b = 1.
    Complementing i keeps t, flips b and keeps l', so X_n is X on qubit
    n - 2 and Z_n is Z on qubit n - 1.  Each bit of B[i] is a parity of bits
    of i, so B is the permutation of a CNOT circuit.
    """
    i = np.arange(1 << n, dtype=np.int64)
    t = np.bitwise_count(i).astype(np.int64) & 1
    if n % 2:
        low = (1 << (n - 1)) - 1
        out = (t << (n - 1)) | (i & low) ^ (t * low)
    else:
        low = (1 << (n - 2)) - 1
        b = i >> (n - 1)
        out = (t << (n - 1)) | (b << (n - 2)) | (i & low) ^ (b * low)
    out.setflags(write=False)
    return out


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])


def chi_transfer(chi: np.ndarray, images) -> np.ndarray:
    """T with T[(s, t), (u, v)] = sum_ab chi_ab e_a[s, u] conj(e_b[t, v]) for
    the images e of E = (I, X_n, Y_n, Z_n): x -> sum_ab chi_ab e_a x e_b_dag
    on the row-major vec(x), entry (or block) (u, v) to (s, t)."""
    e = np.asarray(images)
    return np.einsum("ab,asu,btv->stuv", chi, e, e.conj()).reshape(e.shape[-1] ** 2, -1)


def _basis_transfer(probs, n: int) -> np.ndarray:
    """chi_transfer of probs (a 4x4 chi, or its diagonal) on the images of E
    on the leading qubits of channel_basis: one qubit for odd n, two for
    even n (see channel_basis), with Y_n = omega Z_n X_n."""
    chi = np.asarray(probs, dtype=np.complex128)
    x, z = (_X, _Z) if n % 2 else (np.kron(np.eye(2), _X), np.kron(_Z, np.eye(2)))
    e = np.stack((np.eye(len(x)), x, y_phase(n) * (z @ x), z))
    return chi_transfer(np.diag(chi) if chi.ndim == 1 else chi, e)


def pauli_channel_basis_packed(m: np.ndarray, probs, out: np.ndarray | None = None) -> np.ndarray:
    """sum_ab chi_ab E_a rho E_b_dag over E = (I, X_n, Y_n, Z_n), on the
    packed Hermitian state m of rho given in channel_basis, float64 in
    (as_packed, square_dim) and out; written into out (check_out) if given,
    which it then returns.
    probs is a 4x4 chi or the probabilities (p0, p1, p2, p3), its diagonal.

    In channel_basis each E_a is e_a ox I, e_a on the leading qubits, so a
    state split into q x q blocks (q = 2 for odd n, 4 for even n) of
    h = 2**n / q rows goes to sum_uv T[(s, t), (u, v)] times block (u, v) in
    block (s, t) (_basis_transfer).  For m = Re rho + Im rho (tensor.pack)
    block (u, v) of Re rho is (m_uv + (m^T)_uv)/2 and of Im rho
    (m_uv - (m^T)_uv)/2, so the packed output block (s, t) is
    sum_uv Re T m_uv + Im T (m^T)_uv: one real matrix product of
    [Re T, Im T] with the stack of the blocks of m and of m^T.  Im T is
    zero for a Pauli channel, and m^T is then not read.

    The product runs a step of block rows at a time: the step's rows of
    every block of m are copied into a stack, and of m^T too,
    _TRANSPOSE_COLS columns at a time, so the transposed reads stay in the
    cache.  A step holds the stack, the product and its input rows within
    half a tile, in a power of two of rows, so that steps tile h.  Each
    output entry is one dot product of a row of weights with the stack, in
    BLAS, whose rounding may differ with the product's width: outputs at
    different steps agree to within rounding, not bit for bit.
    """
    m = as_packed(m)
    dim = square_dim(m)
    n = dim.bit_length() - 1
    transfer = _basis_transfer(probs, n)
    transposed = transfer.imag.any()
    weights = np.hstack((transfer.real, transfer.imag)) if transposed else transfer.real
    q = 2 if n % 2 else 4
    h = dim // q
    k = weights.shape[1]
    step = _step_rows(h, 8 * (k + 2 * q * q) * h)
    step = 1 << (step.bit_length() - 1)
    blocks = m.reshape(q, h, q, h)  # [u, i, v, j] = m_uv[i, j]
    if out is None:
        out = np.empty_like(m)
    check_out(m, out)
    stack = np.empty((1 + transposed, q, q, step, h))
    prod = np.empty((q, q, step, h))
    for i0 in range(0, h, step):
        rows = slice(i0, i0 + step)
        np.copyto(stack[0], blocks[:, rows].transpose(0, 2, 1, 3))
        if transposed:
            for j0 in range(0, h, _TRANSPOSE_COLS):
                cols = slice(j0, j0 + _TRANSPOSE_COLS)
                # (m^T)_uv[i, j] = m_vu[j, i]
                np.copyto(stack[1, ..., cols], blocks[:, cols, :, rows].transpose(2, 0, 3, 1))
        np.matmul(weights, stack.reshape(k, -1), out=prod.reshape(q * q, -1))
        out.reshape(q, h, q, h)[:, rows] = prod.transpose(0, 2, 1, 3)
    return out


def ptrace_leading(m: np.ndarray, keep: int) -> np.ndarray:
    """Trace out the leading factor, keeping the trailing keep x keep block
    as a new array, in m's dtype (real_or_complex): a float64 m is summed
    in float64, with no complex copy of it."""
    m = real_or_complex(m)
    d = m.shape[0] // keep
    return np.einsum("ikil->kl", m.reshape(d, keep, d, keep))


def ptrace_trailing(m: np.ndarray, keep: int) -> np.ndarray:
    """Trace out the trailing factor, keeping the leading keep x keep block,
    as ptrace_leading."""
    m = real_or_complex(m)
    d = m.shape[0] // keep
    return np.einsum("ikjk->ij", m.reshape(keep, d, keep, d))


def frob_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b, summed step by step, in complex128; 0.0
    when a == b."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    rows = a.shape[0]
    step = _step_rows(rows, 48 * a.shape[1])
    scratch = np.empty((step,) + a.shape[1:], dtype=np.complex128)
    total = 0.0
    for r0 in range(0, rows, step):
        r = slice(r0, r0 + step)
        d = np.subtract(a[r], b[r], out=scratch[: min(step, rows - r0)])
        total += np.vdot(d, d).real
    return sqrt(total)


def kron_dist(d: np.ndarray, a: np.ndarray, r: np.ndarray) -> float:
    """Frobenius norm of d - a ox r, without forming a ox r; 0.0 when d
    equals it.

    a may also be a stack (a1, a2) of two matrices: d is then measured
    against a1 ox r + a2 ox r^T, which for a Hermitian a1 + i a2 and
    r = Re rho + Im rho is the packed (a1 + i a2) ox rho (tensor.pack_kron).
    The a2 term is skipped where a2 is all zero.

    d is walked as (A, R, A, R), d[i, j, k, l] = d[i R + j, k R + l], in
    blocks of rows (i, j) from _pair_blocks, in frob_dist's steps (a row of
    d, of scratch and at most one of r per row of d, two more for an a2
    term).  A step builds its slice of a ox r in scratch, the one rounding
    np.kron makes, and subtracts it from d.  An a2 term is built in a
    second scratch, from a contiguous copy of r^T, and added to the first
    before the subtraction.  The scratch is float64 when d, a and r are
    each float64, complex128 otherwise.
    """
    d = real_or_complex(d)
    a = real_or_complex(a)
    r = real_or_complex(r)
    dtype = np.result_type(d, a, r)
    first, *rest = a if a.ndim == 3 else [a]
    terms = [(first, r)] + [(t, np.ascontiguousarray(r.T)) for t in rest if t.any()]
    dim = d.shape[0]
    na = a.shape[-1]
    nr = dim // na
    d4 = d.reshape(na, nr, na, nr)
    rows = 1 + 2 * len(terms)
    (ki, kj), blocks = _pair_blocks(na, nr, _step_rows(dim, rows * dtype.itemsize * dim))
    scratch = np.empty((len(terms), ki, kj, na, nr), dtype=dtype)
    (a1, r1), *more = terms
    total = 0.0
    for i, j in blocks:
        part = d4[i, j]
        s, *extra = scratch[:, : part.shape[0], : part.shape[1]]
        np.multiply(a1[i, None, :, None], r1[None, j, None, :], out=s)
        for (at, rt), e in zip(more, extra):
            s += np.multiply(at[i, None, :, None], rt[None, j, None, :], out=e)
        np.subtract(part, s, out=s)
        total += np.vdot(s, s).real
    return sqrt(total)
