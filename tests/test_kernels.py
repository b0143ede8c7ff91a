from __future__ import annotations

import numpy as np
import pytest

from corrqec import kernels
from corrqec.kernels import parity_signs

from oracles import (
    HAD,
    embed_single,
    pauli_channel_dense,
    ptrace_leading_direct,
    ptrace_trailing_direct,
    random_complex_matrix,
)


def _perm_matrix(perm):
    dim = len(perm)
    m = np.zeros((dim, dim), dtype=complex)
    m[perm, np.arange(dim)] = 1.0
    return m


def test_parity_signs():
    z = parity_signs(3)
    want = [(-1.0) ** bin(i).count("1") for i in range(8)]
    assert np.array_equal(z, np.array(want))
    assert not z.flags.writeable


def test_gather_conjugate_against_gemm():
    rng = np.random.default_rng(0)
    m = random_complex_matrix(16, 1)
    perm = rng.permutation(16).astype(np.int64)
    got = kernels.gather_conjugate(m, perm)
    p = _perm_matrix(perm)
    assert np.allclose(got, p.conj().T @ m @ p, atol=1e-13)


@pytest.mark.parametrize("q", [0, 1, 3])
def test_hadamard_conjugate_against_gemm(q):
    m = random_complex_matrix(16, 2)
    h = embed_single(HAD, 4, q)
    assert np.allclose(kernels.hadamard_rows(m, q), h @ m, atol=1e-13)
    assert np.allclose(kernels.hadamard_conjugate(m, q), h @ m @ h, atol=1e-13)
    eye = np.eye(16, dtype=complex)
    assert np.allclose(kernels.hadamard_conjugate(eye, q), eye, atol=1e-15)


def test_pauli_channel_apply_against_kraus_sum():
    rng = np.random.default_rng(3)
    n = 3
    rho = random_complex_matrix(1 << n, 4)
    rho = rho + rho.conj().T
    probs = rng.dirichlet(np.ones(4))
    got = kernels.pauli_channel_apply(rho, probs)
    assert np.allclose(got, pauli_channel_dense(n, probs, rho), atol=1e-13)


def test_span_conjugate_against_gemm():
    rng = np.random.default_rng(5)
    dim = 8
    m = random_complex_matrix(dim, 6)
    fd = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    fa = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    f = np.diag(fd).astype(complex)
    f[np.arange(dim), dim - 1 - np.arange(dim)] += fa
    got = kernels.span_conjugate(m, fd, fa)
    assert np.allclose(got, f @ m @ f.conj().T, atol=1e-12)


@pytest.mark.parametrize("keep", [1, 2, 4, 8])
def test_ptrace_kernels_against_direct_sum(keep):
    m = random_complex_matrix(8, 7)
    lead = kernels.ptrace_leading(m, keep)
    trail = kernels.ptrace_trailing(m, keep)
    assert np.allclose(lead, ptrace_leading_direct(m, 8 // keep), atol=1e-13)
    assert np.allclose(trail, ptrace_trailing_direct(m, 8 // keep), atol=1e-13)


def test_frob_dist_matches_numpy_norm():
    a = random_complex_matrix(6, 8)
    b = random_complex_matrix(6, 9)
    got = kernels.frob_dist(a, b)
    assert got == pytest.approx(float(np.linalg.norm(a - b)), rel=1e-13)
    assert kernels.frob_dist(a, a.copy()) == 0.0


def test_wrappers_accept_noncontiguous_input():
    m = random_complex_matrix(8, 13)
    view = m[::2, ::2]
    direct = kernels.frob_dist(np.ascontiguousarray(view), np.zeros((4, 4)))
    assert kernels.frob_dist(view, np.zeros((4, 4))) == direct
    perm = np.array([3, 2, 1, 0], dtype=np.int64)
    assert np.allclose(
        kernels.gather_conjugate(view, perm),
        kernels.gather_conjugate(np.ascontiguousarray(view), perm),
    )
