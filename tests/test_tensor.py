from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from corrqec import (
    CorrQecError,
    DimensionMismatch,
    frobenius_distance,
    partial_trace_leading,
    partial_trace_trailing,
    random_density,
)
from corrqec.tensor import (
    RANDOM_DENSITY_PEAK_STATES,
    hermitian_deviation,
    pack,
    pack_kron,
    packed_kron_distance,
    unpack,
)

from oracles import (
    SX,
    SY,
    SZ,
    dagger,
    is_density_matrix,
    matmul,
    ptrace_leading_direct,
    ptrace_trailing_direct,
    random_complex_matrix,
    random_density_complex,
)

I2 = np.eye(2, dtype=complex)


def test_dagger():
    assert np.array_equal(dagger(I2), I2)
    assert np.array_equal(dagger(SY), SY)
    a = random_complex_matrix(5, 1)
    assert np.array_equal(dagger(dagger(a)), a)


def test_dagger_of_product():
    a = random_complex_matrix(4, 2)
    b = random_complex_matrix(4, 3)
    assert np.allclose(dagger(matmul(a, b)), matmul(dagger(b), dagger(a)), atol=1e-12)


def test_matmul():
    assert np.array_equal(matmul(SX, SX), I2)
    assert np.allclose(matmul(SX, SY), 1j * SZ)
    a = random_complex_matrix(3, 4)
    assert np.array_equal(matmul(a, np.eye(3)), a)
    with pytest.raises(DimensionMismatch):
        matmul(np.eye(2), np.eye(4))


def test_partial_trace_leading():
    sigma = random_density(2, 10)
    rho = random_density(4, 11)
    assert np.allclose(partial_trace_leading(np.kron(sigma, rho), 2), rho, atol=1e-12)
    assert np.allclose(partial_trace_leading(np.eye(4) / 4, 2), I2 / 2)
    t = random_density(8, 12)
    out = partial_trace_leading(t, 2)
    assert np.allclose(out, ptrace_leading_direct(t, 2), atol=1e-13)
    assert abs(np.trace(out) - 1) < 1e-12
    with pytest.raises(DimensionMismatch):
        partial_trace_leading(np.eye(6), 4)


def test_partial_trace_leading_exact_for_classical_sigma():
    sigma = np.zeros((2, 2), dtype=complex)
    sigma[1, 1] = 1.0
    rho = random_density(4, 13)
    assert np.array_equal(partial_trace_leading(np.kron(sigma, rho), 2), rho)


def test_partial_trace_trailing():
    sigma = random_density(2, 14)
    rho = random_density(4, 15)
    assert np.allclose(partial_trace_trailing(np.kron(sigma, rho), 4), sigma, atol=1e-12)
    assert np.allclose(partial_trace_trailing(np.eye(4) / 4, 2), I2 / 2)
    t = random_complex_matrix(8, 16)
    out = partial_trace_trailing(t, 2)
    assert np.allclose(out, ptrace_trailing_direct(t, 2), atol=1e-13)
    assert abs(np.trace(out) - np.trace(t)) < 1e-12


def test_frobenius_distance():
    a = random_complex_matrix(4, 17)
    assert frobenius_distance(a, a) == 0.0
    assert frobenius_distance(I2, SX) == pytest.approx(2.0, abs=1e-15)
    assert frobenius_distance(SZ, -SZ) == pytest.approx(2 * np.sqrt(2), abs=1e-15)
    with pytest.raises(DimensionMismatch):
        frobenius_distance(np.eye(2), np.eye(3))


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_random_density_invariants(dim):
    rho = random_density(dim, 42)
    assert is_density_matrix(rho)
    assert abs(np.trace(rho) - 1) < 1e-12


def test_random_density_deterministic():
    a = random_density(4, 7)
    b = random_density(4, 7)
    assert np.array_equal(a, b)
    c = random_density(4, 8)
    assert not np.array_equal(a, c)


def test_random_density_rejects_dim_past_physical_memory(monkeypatch):
    # report 2 MiB of physical memory; dim 256 peaks at 4 matrices of 1 MiB
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 512}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    with pytest.raises(CorrQecError, match="physical memory"):
        random_density(256, 0)
    assert is_density_matrix(random_density(16, 0))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 7, 16, 33, 100, 256, 1024])
def test_random_density_is_exactly_hermitian_and_matches_the_complex_gemm(dim):
    r = random_density(dim, dim + 50)
    assert r.dtype == np.complex128 and r.shape == (dim, dim)
    assert np.array_equal(r, r.conj().T)
    assert abs(np.trace(r) - 1) < 1e-13
    assert np.linalg.eigvalsh(r).min() >= -1e-15
    assert np.allclose(r, random_density_complex(dim, dim + 50), rtol=0.0, atol=1e-15)


def test_random_density_holds_three_states():
    for dim in (64, 256):
        random_density(dim, 0)  # first call: numpy's own lazy allocations
        tracemalloc.start()
        try:
            random_density(dim, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < RANDOM_DENSITY_PEAK_STATES * 16 * dim * dim


def test_pack_and_unpack_round_trip_hermitian_matrices():
    for dim in (1, 2, 8, 64):
        h = random_complex_matrix(dim, dim + 60)
        h = h + h.conj().T
        m = pack(h)
        assert m.dtype == np.float64
        assert np.array_equal(m, h.real + h.imag)
        back = unpack(m)
        assert np.array_equal(back, back.conj().T)
        assert np.allclose(back, h, rtol=0.0, atol=1e-15)
        # norms and partial traces act on the packed matrix as on h
        assert np.linalg.norm(m) == pytest.approx(np.linalg.norm(h), rel=1e-14)
    # any float64 matrix unpacks to a Hermitian one
    back = unpack(np.arange(16.0).reshape(4, 4))
    assert np.array_equal(back, back.conj().T)
    with pytest.raises(DimensionMismatch):
        unpack(np.ones((2, 3)))
    # a complex matrix is not a packed state: rejected, not cast to its real part
    with pytest.raises(DimensionMismatch):
        unpack(np.array([[0.5, 0.25j], [-0.25j, 0.5]]))


def test_pack_kron_is_the_packed_product():
    for na, nr in ((2, 4), (4, 8), (4, 1)):
        a = random_complex_matrix(na, na + nr)
        a = a + a.conj().T
        r = random_complex_matrix(nr, na * nr)
        r = r + r.conj().T
        got = pack_kron(a, pack(r))
        assert np.allclose(got, pack(np.kron(a, r)), rtol=0.0, atol=1e-14)
        # a real a is np.kron of it with the packed factor, bit for bit
        assert np.array_equal(pack_kron(a.real, pack(r)), np.kron(a.real, pack(r)))
        # the packed factor is real: an unpacked complex r is rejected
        with pytest.raises(DimensionMismatch):
            pack_kron(a, r)


def test_packed_kron_distance_is_the_hermitian_distance():
    a = random_complex_matrix(4, 70)
    a = a + a.conj().T
    r = random_complex_matrix(8, 71)
    r = r + r.conj().T
    d = random_complex_matrix(32, 72)
    d = d + d.conj().T
    want = frobenius_distance(d, np.kron(a, r))
    got = packed_kron_distance(pack(d), a, pack(r))
    assert got == pytest.approx(want, rel=1e-13)
    assert packed_kron_distance(pack_kron(a, pack(r)), a, pack(r)) == 0.0
    for args in (
        (pack(d), a, pack(r)[:4, :4]),  # r of the wrong size
        (pack(d), np.eye(3), pack(r)),  # a of the wrong size
        (pack(d), np.ones((4, 2)), pack(r)),  # not square
        (pack(d), a, np.ones((8, 4))),
        (pack(d)[:, :16], a, pack(r)),
        (d, a, pack(r)),  # complex states where packed ones go
        (pack(d), a, r),
    ):
        with pytest.raises(DimensionMismatch):
            packed_kron_distance(*args)


def test_hermitian_deviation():
    h = random_complex_matrix(130, 73)
    h = h + h.conj().T
    assert hermitian_deviation(h) == 0.0
    h[129, 3] += 1e-9j
    assert hermitian_deviation(h) == pytest.approx(1e-9)
    h[3, 129] = np.nan
    assert np.isnan(hermitian_deviation(h))
