"""Dense linear algebra substrate, and the packed form of Hermitian states.

Index convention, fixed package-wide: the basis vector |q_{n-1} ... q_1 q_0>
maps to the integer index sum_r q_r * 2**r, so qubit 0 is the least
significant bit.  In np.kron(a, b), `a` acts on the higher-significance qubits.
Matrices are dense row-major complex128 numpy arrays, except packed states.

A Hermitian rho = A + iB (A symmetric, B antisymmetric) is packed into the
one float64 matrix M = A + B = Re rho + Im rho, half the bytes of rho, and
unpacked as A = (M + M^T)/2, B = (M - M^T)/2.  Real maps keep the parts
apart: a real congruence, a partial trace or a Frobenius norm acts on M as
it does on rho.  packed_kron_distance measures a packed state against a
product, blockwise (kernels.kron_dist), without forming it, and
kernels.trial_pass builds a packed product row by row from the packed
factor, Re a ox P + Im a ox P^T.  A packed state is float64
throughout: these reject a complex one (kernels.as_packed), and its
partial traces stay float64.  The trial (scheme.run_trial) runs on packed
states; a complex128 matrix there is the ancilla or the data state, never
the joint 2**n-dimensional state.
"""

from __future__ import annotations

import os
from math import sqrt
from numbers import Integral

import numpy as np

from . import kernels
from .errors import BadQubitCount, DimensionMismatch, check_type

# Peak number of live dim x dim complex128 matrices inside random_density,
# from tracemalloc at dim = 64..1024 (2.0-2.5: the draw, or the output,
# beside X and S), rounded up.
RANDOM_DENSITY_PEAK_STATES = 3
# Rows per band of hermitian_deviation.
_HERMITIAN_BAND = 64


def as_square(m) -> np.ndarray:
    """Coerce to a square complex128 matrix or raise DimensionMismatch."""
    return _square(np.asarray(m, dtype=np.complex128))


def _square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _traced(t, d: int) -> tuple[np.ndarray, int]:
    """(t, dim / d) for a square t whose dim d divides, t as
    kernels.real_or_complex gives it; DimensionMismatch else."""
    t = _square(kernels.real_or_complex(t))
    if d < 1 or t.shape[0] % d != 0:
        raise DimensionMismatch(f"traced dim {d} does not divide dim={t.shape[0]}")
    return t, t.shape[0] // d


def partial_trace_leading(t, d_lead: int) -> np.ndarray:
    """Trace out the leading d_lead-dimensional factor of t, as a new array;
    a float64 t is summed and returned in float64, with no complex copy
    (kernels.real_or_complex), so a packed state gives its trace packed."""
    t, keep = _traced(t, d_lead)
    return np.einsum("ikil->kl", t.reshape(d_lead, keep, d_lead, keep))


def partial_trace_trailing(t, d_trail: int) -> np.ndarray:
    """Trace out the trailing d_trail-dimensional factor of t, as
    partial_trace_leading."""
    t, keep = _traced(t, d_trail)
    return np.einsum("ikjk->ij", t.reshape(keep, d_trail, keep, d_trail))


def frobenius_distance(a, b) -> float:
    """Frobenius norm of a - b for square a and b of one shape, in
    complex128, summed in steps of rows (kernels._step_rows, for a row of
    a, of b and of scratch per row), in half a tile of scratch at most;
    0.0 when a == b."""
    a = as_square(a)
    b = as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"distance on shapes {a.shape} and {b.shape}")
    rows = a.shape[0]
    step = kernels._step_rows(rows, 48 * rows)
    scratch = np.empty((step, rows), dtype=np.complex128)
    total = 0.0
    for r0 in range(0, rows, step):
        d = np.subtract(a[r0 : r0 + step], b[r0 : r0 + step], out=scratch[: min(step, rows - r0)])
        total += np.vdot(d, d).real
    return sqrt(total)


def hermitian_deviation(m) -> float:
    """Largest |m - m_dag| entry of a square m; nan if m holds one.

    Entry (j, i) of m - m_dag is the negated conjugate of entry (i, j), of
    the same abs, so the upper triangle with the diagonal holds every
    value: each band of rows m[i0:i0+t, i0:] is compared with its mirror
    m[i0:, i0:i0+t]_dag, with the whole-array form's complex subtract and
    abs, and the band maxima are reduced with np.max, which keeps a nan
    from any band."""
    m = as_square(m)
    dim = m.shape[0]
    maxima = [
        np.abs(m[i0 : i0 + _HERMITIAN_BAND, i0:] - m[i0:, i0 : i0 + _HERMITIAN_BAND].conj().T).max()
        for i0 in range(0, dim, _HERMITIAN_BAND)
    ]
    return float(np.max(maxima))


def pack(rho) -> np.ndarray:
    """Re rho + Im rho, as float64: the packed form of a Hermitian rho."""
    rho = as_square(rho)
    return rho.real + rho.imag


def unpack(m) -> np.ndarray:
    """The Hermitian matrix packed in a real m, (m + m^T)/2 + i (m - m^T)/2,
    as complex128; exactly Hermitian, whatever m is."""
    m = kernels.as_packed(m)
    mt = np.ascontiguousarray(m.T)
    out = np.empty(m.shape, dtype=np.complex128)
    np.add(m, mt, out=out.real)
    np.subtract(m, mt, out=out.imag)
    out *= 0.5
    return out


def packed_kron_distance(m, a, p) -> float:
    """Frobenius distance of the Hermitian state packed in m from a ox rho,
    for a Hermitian a and p = pack(rho), without forming the product:
    kernels.kron_dist of m against Re a ox p + Im a ox p^T.  Equal to the
    distance of the unpacked states, as the packing keeps norms."""
    m = kernels.as_packed(m)
    a = as_square(a)
    p = kernels.as_packed(p)
    if a.shape[0] * p.shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"a of dim {a.shape[0]} ox p of dim {p.shape[0]} is not dim={m.shape[0]}"
        )
    return kernels.kron_dist(m, np.stack((a.real, a.imag)), p)


def check_memory(n: int, states: int) -> None:
    """Raise BadQubitCount unless `states` 2**n x 2**n complex128 matrices,
    16*4**n bytes each, fit in physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # largest n with states * 16 * 4**n <= memory
    max_n = ((memory // (states * 16)).bit_length() - 1) // 2
    if n > max_n:
        raise BadQubitCount(
            f"n={n} needs {states} density matrices of 16*4**n bytes, more than the "
            f"{memory / 2**30:.1f} GiB of physical memory (largest n: {max_n})"
        )


def random_density(dim: int, seed: int) -> np.ndarray:
    """G G_dag / tr(G G_dag) for G = A + iB with entries uniform in the unit
    square (A drawn first), in real arithmetic.

    G G_dag = (A A^T + B B^T) + i (X - X^T) with X = B A^T, and
    A A^T + B B^T = S - (X + X^T) for S = (A + B)(A + B)^T: one GEMM and
    one symmetric product (syrk, half a GEMM), 1.5 dim**3 multiply-adds.
    A and B are one (2, dim, dim) draw, scaled by 1 / sqrt(tr(G G_dag)) =
    1 / |[A B]| before the products, so the trace is 1 with no division
    pass; the draw is freed before the output is allocated, which then
    takes its place.  S and X + X^T are exactly symmetric, so the output
    is exactly Hermitian.  Deterministic per seed (PCG64); satisfies
    trace 1, Hermitian, PSD.
    """
    check_type(dim, Integral, "random_density's dim")
    check_type(seed, Integral, "random_density's seed")
    if dim < 1:
        raise DimensionMismatch(f"dim must be >= 1, got {dim}")
    # n = ceil(log2 dim): exact for the power-of-two dims the package uses
    check_memory((int(dim) - 1).bit_length(), RANDOM_DENSITY_PEAK_STATES)
    c = np.random.default_rng(seed).random((2, dim, dim))
    c *= 1 / sqrt(np.vdot(c, c))
    a, b = c
    x = b @ a.T
    a += b
    s = a @ a.T
    del a, b, c
    out = np.empty((dim, dim), dtype=np.complex128)
    np.subtract(x, x.T, out=out.imag)
    np.add(x, x.T, out=out.real)
    np.subtract(s, out.real, out=out.real)
    return out
