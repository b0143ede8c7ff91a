"""Hot numeric kernels, in numpy.

All encoders in this package are CNOT runs plus at most one Hadamard, and
all error operators are diagonal or anti-diagonal up to signs.  Every hot
operation therefore reduces to index gathers and blockwise products with
small weight matrices, which cost O(dim^2) memory passes instead of
O(dim^3) matrix products; a Hadamard is a butterfly, which
gates.circuit_conjugate runs in place on a gather's output.

The dense kernels write at most one output matrix and walk their input
in steps of whole rows sized by one rule, _step_rows: as many rows as keep
all a step touches within half of _TILE_BYTES (4 MiB), so a call holds its
output plus one step's scratch.  gather_conjugate only moves entries, so
it is bit-identical to m[np.ix_(perm, perm)] at every tile size; the sums
of kron_dist and trial_pass agree with the whole-array expressions to
within rounding, and kron_dist is exactly 0.0 on equal inputs.
trial_pass is the trial's whole dense pipeline in one walk, so a trial
makes one state, not the four a pass per stage would write; kron_dist
builds each step's slice of its kron product in scratch, so the product
checks hold one state, not two.

The trial carries its states packed, as one float64 matrix Re rho + Im rho
(tensor.pack).  gather_conjugate and kron_dist (and tensor's partial
traces) keep a float64 matrix in its dtype (real_or_complex), since the
encoders' gates are real; the packed entry points (trial_pass, and
tensor's unpack and packed_kron_distance) reject a complex state
(as_packed) rather than drop its imaginary part.

trial_pass applies any channel whose Kraus operators lie in span{I, X_n,
Y_n, Z_n}, given as its 4x4 process matrix chi (diagonal for a Pauli
channel, diag(1, 0, 0, 0) for no channel), in gates.channel_basis, a CNOT
map under which X_n and Z_n act on the leading one (odd n) or two
(even n) qubits only.  There each block of the output is a weighted sum
of the blocks of the state and of its transpose (the transpose carries the
imaginary parts of a span channel's weights): one real matrix product per
step of rows, whose weight matrix is 4 x 8 for odd n and 16 x 32 for even
n, half that for a Pauli channel.  The basis is composed into the
encoder's one gather table (encoder.encode_table), so it costs no pass.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf, ldexp, sqrt

import numpy as np

from .errors import DimensionMismatch

# Every row a step of a dense kernel touches fits in half of this many bytes.
_TILE_BYTES = 1 << 22


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


def scaled_root(q: float, s: int) -> float:
    """sqrt(q * 2**s) rounded once, for q >= 0 and an integer s >= 0; inf
    past the float range.  Scaling by a power of two is exact, so this is
    the float a square root gives on the exact product wherever that is a
    float, and finite wherever the root is, even where the product is not."""
    try:
        return ldexp(sqrt(q * (1 + s % 2)), s // 2)
    except OverflowError:
        return inf


def square_dim(m: np.ndarray) -> int:
    """The dim of a square m of power-of-two dim; DimensionMismatch else."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] & (m.shape[0] - 1) or not m.size:
        raise DimensionMismatch(f"expected a square matrix of power-of-two dim, got shape {m.shape}")
    return m.shape[0]


def _step_rows(rows: int, bytes_per_row: int) -> int:
    """Rows per step: as many as keep bytes_per_row bytes each
    within half a tile, at least 1 and at most `rows`."""
    return min(rows, max(1, _TILE_BYTES // 2 // bytes_per_row))


def _check_table(table, dim: int, name: str) -> np.ndarray:
    """table as an intp array of dim indices in [0, dim), which mode="clip"
    never clips; DimensionMismatch else, and for a non-integer dtype, which
    the cast to intp would truncate."""
    table = np.asarray(table)
    if table.dtype.kind not in "iu":
        raise DimensionMismatch(f"{name} must hold integers, got dtype {table.dtype}")
    table = np.ascontiguousarray(table, dtype=np.intp)
    if table.shape != (dim,) or not 0 <= table.min() <= table.max() < dim:
        raise DimensionMismatch(f"{name} must hold {dim} indices in [0, {dim}), got {table.shape}")
    return table


def _inverse(table: np.ndarray, name: str) -> np.ndarray:
    """The inverse of a checked table (_check_table), which must be a
    permutation; DimensionMismatch if it repeats an index."""
    inverse = np.full(len(table), -1, dtype=np.intp)
    inverse[table] = np.arange(len(table))
    if inverse.min() < 0:
        raise DimensionMismatch(f"{name} must be a permutation, but repeats an index")
    return inverse


def gather_conjugate(m: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """P_dag M P for the permutation matrix P whose column s is e_perm[s]:
    out[i, j] = m[perm[i], perm[j]].

    A step gathers its rows perm[i] of m into scratch, then their columns
    perm[j] into its rows i of out; a step touches a row of m, of scratch
    and of out per row.  Entries only move, so the output is bit-identical
    to m[np.ix_(perm, perm)] at every tile size.  mode="clip" never clips a
    permutation and lets take write into its buffer directly, so a table
    of the wrong length or with an index out of range is rejected
    (_check_table) rather than clipped, as is an m that is not square of
    power-of-two dim (square_dim).
    """
    m = real_or_complex(m)
    dim = square_dim(m)
    perm = _check_table(perm, dim, "perm")
    out = np.empty_like(m)
    step = _step_rows(dim, 3 * m.itemsize * dim)
    scratch = np.empty((step, dim), dtype=m.dtype)
    for r0 in range(0, dim, step):
        rows = perm[r0 : r0 + step]
        s = np.take(m, rows, axis=0, out=scratch[: len(rows)], mode="clip")
        np.take(s, perm, axis=1, out=out[r0 : r0 + len(rows)], mode="clip")
    return out


def _pair_blocks(hi: int, lo: int, pairs: int):
    """((kh, kl), blocks): slices (h, l) that walk the hi*lo index pairs
    (h, l) of a matrix whose rows are split as (hi, lo), about `pairs` of
    them per block: at most kh values of h by kl of l, with the l range
    whole once pairs >= lo."""
    kh, kl = (pairs // lo, lo) if pairs >= lo else (1, pairs)
    blocks = [
        (slice(h0, h0 + kh), slice(l0, l0 + kl))
        for h0 in range(0, hi, kh)
        for l0 in range(0, lo, kl)
    ]
    return (kh, kl), blocks


def y_phase(n: int) -> complex:
    """omega = (-i)**n, the phase in Y_n = antidiag(omega * z); exact at every n."""
    return (-1j) ** (n % 4)


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])


def chi_transfer(chi: np.ndarray, images) -> np.ndarray:
    """T with T[(s, t), (u, v)] = sum_ab chi_ab e_a[s, u] conj(e_b[t, v]) for
    the images e of E = (I, X_n, Y_n, Z_n): x -> sum_ab chi_ab e_a x e_b_dag
    on the row-major vec(x), entry (or block) (u, v) to (s, t)."""
    e = np.asarray(images)
    return np.einsum("ab,asu,btv->stuv", chi, e, e.conj()).reshape(e.shape[-1] ** 2, -1)


@lru_cache(maxsize=None)
def _basis_images(n: int) -> np.ndarray:
    """The images of E on the leading qubits of gates.channel_basis, for n
    in 0..3, the residue mod 4 that fixes them: one qubit for odd n, two
    for even n (see channel_basis), with Y_n = omega Z_n X_n; read-only."""
    x, z = (_X, _Z) if n % 2 else (np.kron(np.eye(2), _X), np.kron(_Z, np.eye(2)))
    e = np.stack((np.eye(len(x)), x, y_phase(n) * (z @ x), z))
    e.setflags(write=False)
    return e


def _basis_transfer(chi, n: int) -> np.ndarray:
    """chi_transfer of a 4x4 chi on the images of E on the leading qubits
    of gates.channel_basis (_basis_images); DimensionMismatch for any other shape."""
    chi = np.asarray(chi, dtype=np.complex128)
    if chi.shape != (4, 4):
        raise DimensionMismatch(f"chi must be a 4x4 process matrix, got shape {chi.shape}")
    return chi_transfer(chi, _basis_images(n % 4))


def _kron_rows(a: np.ndarray, p: np.ndarray, pt, src, rows: np.ndarray, scratch) -> None:
    """Rows src of pack(a ox rho), for p = pack(rho), written into rows.

    Row i*nr + r (nr = p's dim) is Re a[i, k] p[r] + Im a[i, k] (p^T)[r] in
    its block k, the second term added only where Im a[i, k] is nonzero
    (elsewhere the term is set to -0.0, which adds to any float exactly),
    so each entry is the blockwise product's, the sign of a zero included.
    pt is a C-contiguous p^T, read only when a has an imaginary part.
    scratch is a (len(src), nr) buffer, for rows of p or p^T, and one of
    the size of rows, for the Im terms.  The rows of pack(a ox rho)^T are
    those of pack(a^T ox rho^T): the call with (a.T, pt, p).
    """
    nr = p.shape[0]
    i, r = np.divmod(src, nr)
    blocks = rows.reshape(len(src), -1, nr)
    from_p = np.take(p, r, axis=0, out=scratch[0], mode="clip")
    np.multiply(a.real[i][:, :, None], from_p[:, None], out=blocks)
    im = a.imag[i]
    if not im.any():
        return
    from_pt = np.take(pt, r, axis=0, out=scratch[0], mode="clip")
    terms = np.multiply(im[:, :, None], from_pt[:, None], out=scratch[1].reshape(blocks.shape))
    terms[np.nonzero(im == 0)] = -0.0
    blocks += terms


def trial_pass(a, p, chi, perm) -> np.ndarray:
    """G_perm^-1(chi(G_perm(pack(a ox rho)))) for p = pack(rho), in one walk
    over steps of output rows, with G_t(x) = x[t][:, t]; a new float64
    matrix.

    The trial's whole dense pipeline: a is the Hermitian ancilla (complex
    or real, square), p the packed data state (as_packed), perm the encode
    gather table, a permutation of a's dim times p's (DimensionMismatch
    else, and for a product dim that is not a power of two), and chi the
    channel on the encoded state, given in gates.channel_basis: the 4x4
    process matrix of sum_ab chi_ab E_a rho E_b_dag over E = (I, X_n, Y_n,
    Z_n), diag(1, 0, 0, 0) for no channel (_basis_transfer).

    In channel_basis each E_a is e_a ox I, e_a on the leading qubits, so a
    state split into q x q blocks (q = 2 for odd n, 4 for even n) of
    h = 2**n / q rows goes to sum_uv T[(s, t), (u, v)] times block (u, v) in
    block (s, t) (_basis_transfer).  For m = Re rho + Im rho (tensor.pack)
    block (u, v) of Re rho is (m_uv + (m^T)_uv)/2 and of Im rho
    (m_uv - (m^T)_uv)/2, so the packed output block (s, t) is
    sum_uv Re T m_uv + Im T (m^T)_uv: one real matrix product of
    [Re T, Im T] with the stack of the blocks of m and of m^T.  Im T is
    zero for a Pauli channel, and m^T is then not built.

    A step takes rows i0 .. i0 + step of every block: the encoded state's
    rows x = u h + i are rows perm[x] of pack(a ox rho), built from a and
    p (_kron_rows) and gathered by perm along columns; the rows of its
    transpose are those of pack(a^T ox rho^T), built from a^T and p^T.
    Their blocks go into the stack, the weights multiply it, and the
    product's rows x, gathered by perm's inverse, are the output's rows
    perm[x].  A step holds two buffers of its rows and the stack (the rows
    of p it reads go into their free space) within half a tile, in a power
    of two of rows, so that steps tile h; it writes each output row once,
    and no other matrix of the output's size is made.  Each output entry
    is one dot product of a row of weights with the stack, in BLAS, whose
    rounding may differ with the product's width: outputs at different
    steps agree to within rounding, not bit for bit.
    """
    a = np.asarray(a, dtype=np.complex128)
    p = as_packed(p)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatch(f"the ancilla must be a square matrix, got shape {a.shape}")
    nr = p.shape[0]
    dim = a.shape[0] * nr
    if dim & (dim - 1):
        raise DimensionMismatch(
            f"ancilla dim {a.shape[0]} times data dim {nr} is not a power of two"
        )
    perm = _check_table(perm, dim, "perm")
    dest = _inverse(perm, "perm")
    n = dim.bit_length() - 1
    if n < 1:
        raise DimensionMismatch("a channel acts on at least one qubit, got a 1-dim state")
    transfer = _basis_transfer(chi, n)
    transposed = transfer.imag.any()
    pt = np.ascontiguousarray(p.T) if transposed or a.imag.any() else None
    out = np.empty((dim, dim))
    weights = np.hstack((transfer.real, transfer.imag)) if transposed else transfer.real
    q = 2 if n % 2 else 4
    h = dim // q
    k = weights.shape[1]
    step = _step_rows(h, 8 * (k + 2 * q * q) * h)
    step = 1 << (step.bit_length() - 1)
    x, y = np.empty((2, q * step, dim))
    stack = np.empty((1 + transposed, q, q, step, h))
    # rows of p (or p^T) in a block of the stack, and Im terms in y, each
    # free while rows are built
    scratch = stack[-1].reshape(-1)[: q * step * nr].reshape(q * step, nr), y
    offsets = (np.arange(q)[:, None] * h + np.arange(step)).reshape(-1)
    for i0 in range(0, h, step):
        src = perm[offsets + i0]
        for b, (ab, pb, ptb) in enumerate([(a, p, pt), (a.T, pt, p)][: 1 + transposed]):
            _kron_rows(ab, pb, ptb, src, x, scratch)
            np.take(x, perm, axis=1, out=y, mode="clip")
            np.copyto(stack[b], y.reshape(q, step, q, h).transpose(0, 2, 1, 3))
        prod = x.reshape(q, q, step, h)
        np.matmul(weights, stack.reshape(k, -1), out=prod.reshape(q * q, -1))
        np.copyto(y.reshape(q, step, q, h), prod.transpose(0, 2, 1, 3))
        out[src] = np.take(y, dest, axis=1, out=x, mode="clip")
    return out


def kron_dist(d: np.ndarray, a: np.ndarray, r: np.ndarray) -> float:
    """Frobenius norm of d - a ox r, without forming a ox r; 0.0 when d
    equals it.

    a may also be a stack (a1, a2) of two matrices: d is then measured
    against a1 ox r + a2 ox r^T, which for a Hermitian a1 + i a2 and
    r = Re rho + Im rho is the packed (a1 + i a2) ox rho (as trial_pass
    builds it).
    The a2 term is skipped where a2 is all zero.

    d is walked as (A, R, A, R), d[i, j, k, l] = d[i R + j, k R + l], in
    blocks of rows (i, j) from _pair_blocks, in _step_rows steps (a row of
    d, of scratch and at most one of r per row of d, two more for an a2
    term).  A step builds its slice of a ox r in scratch, the one rounding
    np.kron makes, and subtracts it from d.  An a2 term is built in a
    second scratch, from a contiguous copy of r^T, and added to the first
    before the subtraction.  The scratch is float64 when d, a and r are
    each float64, complex128 otherwise.

    A step whose rows i of a are zero in every term (a classical
    ancilla's, in the trial) sums the squares of its slice of d straight
    from d, with no product and no scratch: for a finite r, d - 0 ox r is d
    entry for entry up to the sign of a zero, and the slice is contiguous,
    so where the scratch would have d's dtype the sum is the same squares
    in the same order, bit for bit.
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
    zero_rows = ~np.any([t != 0 for t, _ in terms], axis=(0, 2))
    total = 0.0
    for i, j in blocks:
        part = d4[i, j]
        if zero_rows[i].all():
            total += np.vdot(part, part).real
            continue
        s, *extra = scratch[:, : part.shape[0], : part.shape[1]]
        np.multiply(a1[i, None, :, None], r1[None, j, None, :], out=s)
        for (at, rt), e in zip(more, extra):
            s += np.multiply(at[i, None, :, None], rt[None, j, None, :], out=e)
        np.subtract(part, s, out=s)
        total += np.vdot(s, s).real
    return sqrt(total)
