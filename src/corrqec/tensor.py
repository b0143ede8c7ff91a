"""Dense complex linear algebra substrate.

Index convention, fixed package-wide: the basis vector |q_{n-1} ... q_1 q_0>
maps to the integer index sum_r q_r * 2**r, so qubit 0 is the least
significant bit.  In np.kron(a, b), `a` acts on the higher-significance qubits.
Matrices are dense row-major complex128 numpy arrays; only kron_distance
also keeps a float64 matrix as it is.
"""

from __future__ import annotations

import os

import numpy as np

from . import kernels
from .errors import BadQubitCount, DimensionMismatch

# Peak number of live dim x dim complex128 matrices inside random_density,
# from tracemalloc at dim = 32..256 (3.0-3.6), rounded up.
RANDOM_DENSITY_PEAK_STATES = 4


def as_square(m) -> np.ndarray:
    """Coerce to a square complex128 matrix or raise DimensionMismatch."""
    return _square(np.asarray(m, dtype=np.complex128))


def _square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def partial_trace_leading(t, d_lead: int) -> np.ndarray:
    """Trace out the leading d_lead-dimensional factor of t."""
    t = as_square(t)
    dim = t.shape[0]
    if d_lead < 1 or dim % d_lead != 0:
        raise DimensionMismatch(f"d_lead={d_lead} does not divide dim={dim}")
    return kernels.ptrace_leading(t, dim // d_lead)


def partial_trace_trailing(t, d_trail: int) -> np.ndarray:
    """Trace out the trailing d_trail-dimensional factor of t."""
    t = as_square(t)
    dim = t.shape[0]
    if d_trail < 1 or dim % d_trail != 0:
        raise DimensionMismatch(f"d_trail={d_trail} does not divide dim={dim}")
    return kernels.ptrace_trailing(t, dim // d_trail)


def frobenius_distance(a, b) -> float:
    a = as_square(a)
    b = as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"distance on shapes {a.shape} and {b.shape}")
    return kernels.frob_dist(a, b)


def kron_distance(d, a, r=None) -> float:
    """Frobenius distance of d from a ox r (r None: the identity), without
    forming a ox r; DimensionMismatch unless the shapes factor.  float64
    inputs keep their dtype, any other is taken as complex128."""
    d = _square(kernels.real_or_complex(d))
    a = _square(kernels.real_or_complex(a))
    dim = d.shape[0]
    if dim % a.shape[0] != 0:
        raise DimensionMismatch(f"a of dim {a.shape[0]} does not divide dim={dim}")
    if r is not None:
        r = _square(kernels.real_or_complex(r))
        if a.shape[0] * r.shape[0] != dim:
            raise DimensionMismatch(
                f"a of dim {a.shape[0]} ox r of dim {r.shape[0]} is not dim={dim}"
            )
    return kernels.kron_dist(d, a, r)


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
    """G G_dag / tr(G G_dag) for G with entries uniform in the unit square.

    Deterministic per seed (PCG64); satisfies trace 1, Hermitian, PSD.
    """
    if dim < 1:
        raise DimensionMismatch(f"dim must be >= 1, got {dim}")
    # n = ceil(log2 dim): exact for the power-of-two dims the package uses
    check_memory((int(dim) - 1).bit_length(), RANDOM_DENSITY_PEAK_STATES)
    rng = np.random.default_rng(seed)
    g = rng.random((dim, dim)) + 1j * rng.random((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real
