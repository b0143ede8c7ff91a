"""Dense linear algebra substrate, and the packed form of Hermitian states.

Index convention, fixed package-wide: the basis vector |q_{n-1} ... q_1 q_0>
maps to the integer index sum_r q_r * 2**r, so qubit 0 is the least
significant bit.  In np.kron(a, b), `a` acts on the higher-significance qubits.
Matrices are dense row-major complex128 numpy arrays, except packed states.

A Hermitian rho = A + iB (A symmetric, B antisymmetric) is packed into the
one float64 matrix M = A + B = Re rho + Im rho, half the bytes of rho, and
unpacked as A = (M + M^T)/2, B = (M - M^T)/2.  Real maps keep the parts
apart: a real congruence, a partial trace or a Frobenius norm acts on M as
it does on rho.  pack_kron packs a product from a packed factor, and
packed_kron_distance measures a packed state against a product, blockwise
(kernels.kron_dist), without forming it.  A packed state is float64
throughout: these reject a complex one (kernels.as_packed), and its
partial traces stay float64.  The trial (scheme.run_trial) runs on packed
states; a complex128 matrix there is the ancilla or the data state, never
the joint 2**n-dimensional state.
"""

from __future__ import annotations

import os

import numpy as np

from . import kernels
from .errors import BadQubitCount, DimensionMismatch

# Peak number of live dim x dim complex128 matrices inside random_density,
# from tracemalloc at dim = 64..512 (2.0-2.5), rounded up.
RANDOM_DENSITY_PEAK_STATES = 3


def as_square(m) -> np.ndarray:
    """Coerce to a square complex128 matrix or raise DimensionMismatch."""
    return _square(np.asarray(m, dtype=np.complex128))


def _square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _traced(t, d: int) -> tuple[np.ndarray, int]:
    """(t, dim / d) for a square t whose dim d divides; DimensionMismatch else."""
    t = _square(kernels.real_or_complex(t))
    if d < 1 or t.shape[0] % d != 0:
        raise DimensionMismatch(f"traced dim {d} does not divide dim={t.shape[0]}")
    return t, t.shape[0] // d


def partial_trace_leading(t, d_lead: int) -> np.ndarray:
    """Trace out the leading d_lead-dimensional factor of t; a float64 t is
    summed and returned in float64 (kernels.ptrace_leading), so a packed
    state gives its trace packed."""
    return kernels.ptrace_leading(*_traced(t, d_lead))


def partial_trace_trailing(t, d_trail: int) -> np.ndarray:
    """Trace out the trailing d_trail-dimensional factor of t, as
    partial_trace_leading."""
    return kernels.ptrace_trailing(*_traced(t, d_trail))


def frobenius_distance(a, b) -> float:
    a = as_square(a)
    b = as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"distance on shapes {a.shape} and {b.shape}")
    return kernels.frob_dist(a, b)


def hermitian_deviation(m) -> float:
    """Largest |m - m_dag| entry of a square m; nan if m holds one."""
    m = as_square(m)
    return float(np.abs(m - m.conj().T).max())


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


def pack_kron(a, p) -> np.ndarray:
    """pack(a ox rho) for a Hermitian a and p = pack(rho): block (i, k) is
    Re a[i, k] p + Im a[i, k] p^T, the second term only where it is nonzero."""
    a = as_square(a)
    p = kernels.as_packed(p)
    na, nr = a.shape[0], p.shape[0]
    out = np.empty((na * nr, na * nr))
    blocks = out.reshape(na, nr, na, nr)
    pt = scratch = None
    for i in range(na):
        for k in range(na):
            np.multiply(p, a.real[i, k], out=blocks[i, :, k])
            if a.imag[i, k]:
                if pt is None:
                    pt, scratch = np.ascontiguousarray(p.T), np.empty_like(p)
                blocks[i, :, k] += np.multiply(pt, a.imag[i, k], out=scratch)
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

    G G_dag = S + i (X - X^T) with S = C C^T for C = [A B] and X = B A^T:
    two real GEMMs in place of one complex one.  The real part is taken as
    (S + S^T)/2, so the output is exactly Hermitian.  Deterministic per
    seed (PCG64); satisfies trace 1, Hermitian, PSD.
    """
    if dim < 1:
        raise DimensionMismatch(f"dim must be >= 1, got {dim}")
    # n = ceil(log2 dim): exact for the power-of-two dims the package uses
    check_memory((int(dim) - 1).bit_length(), RANDOM_DENSITY_PEAK_STATES)
    rng = np.random.default_rng(seed)
    c = np.empty((dim, 2 * dim))
    c[:, :dim] = rng.random((dim, dim))
    c[:, dim:] = rng.random((dim, dim))
    s = c @ c.T
    x = c[:, dim:] @ c[:, :dim].T
    del c
    out = np.empty((dim, dim), dtype=np.complex128)
    np.add(s, s.T, out=out.real)
    out.real *= 0.5
    np.subtract(x, x.T, out=out.imag)
    out /= np.trace(s)
    return out
