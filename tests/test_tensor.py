from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec import (
    CorrQecError,
    DimensionMismatch,
    frobenius_distance,
    kron,
    kron_distance,
    partial_trace_leading,
    partial_trace_trailing,
    random_density,
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
)

I2 = np.eye(2, dtype=complex)


def test_kron_identities():
    assert np.array_equal(kron(I2, I2), np.eye(4))
    x2 = kron(SX, SX)
    assert np.array_equal(x2, np.fliplr(np.eye(4)))
    assert np.array_equal(kron(SZ, SZ), np.diag([1, -1, -1, 1]).astype(complex))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_kron_associative_on_integer_entries(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


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
    assert np.allclose(partial_trace_leading(kron(sigma, rho), 2), rho, atol=1e-12)
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
    assert np.array_equal(partial_trace_leading(kron(sigma, rho), 2), rho)


def test_partial_trace_trailing():
    sigma = random_density(2, 14)
    rho = random_density(4, 15)
    assert np.allclose(partial_trace_trailing(kron(sigma, rho), 4), sigma, atol=1e-12)
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


def test_kron_distance():
    a = random_complex_matrix(2, 18)
    r = random_complex_matrix(4, 19)
    d = random_complex_matrix(8, 20)
    assert kron_distance(kron(a, r), a, r) == 0.0
    assert kron_distance(kron(a, np.eye(4)), a) == 0.0
    assert kron_distance(d, a, r) == pytest.approx(frobenius_distance(d, kron(a, r)))
    assert kron_distance(d, a) == pytest.approx(frobenius_distance(d, kron(a, np.eye(4))))
    for args in (
        (d, np.eye(3)),  # a does not divide d
        (d, np.eye(3), np.eye(3)),
        (d, a, np.eye(2)),  # r of the wrong size
        (d, a, np.eye(8)),
        (d, np.ones((2, 3))),  # not square
        (d, a, np.ones((4, 2))),
        (d[:, :4], a),
    ):
        with pytest.raises(DimensionMismatch):
            kron_distance(*args)


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
