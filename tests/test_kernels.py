from __future__ import annotations

import inspect
import tracemalloc

import numpy as np
import pytest

from corrqec import kernels
from corrqec.encoder import encoder_factors
from corrqec.kernels import parity_signs

from oracles import (
    HAD,
    embed_single,
    pauli_channel_dense,
    pauli_power,
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
    got = kernels.gather_hadamard_conjugate(m, None, q, None)
    assert np.allclose(got, h @ m @ h, atol=1e-13)
    eye = np.eye(16, dtype=complex)
    got = kernels.gather_hadamard_conjugate(eye, None, q, None)
    assert np.allclose(got, eye, atol=1e-15)


def _gather_hadamard_dense(m, before, q, after):
    """G_after(H_q G_before(m) H_q) from dense matrices, G_t(x) = P_t_dag x P_t."""
    n = m.shape[0].bit_length() - 1
    eye = np.eye(m.shape[0], dtype=complex)
    pa = eye if before is None else _perm_matrix(before)
    pb = eye if after is None else _perm_matrix(after)
    h = embed_single(HAD, n, q)
    return pb.conj().T @ h @ pa.conj().T @ m @ pa @ h @ pb


def test_gather_hadamard_conjugate_against_dense_oracle():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        dim = 1 << n
        m = random_complex_matrix(dim, n + 70)
        for q in range(n):
            perms = [rng.permutation(dim) for _ in range(2)]
            for before, after in ((None, None), (perms[0], None), (None, perms[1]), perms):
                got = _checked(kernels.gather_hadamard_conjugate, m, before, q, after)
                want = _gather_hadamard_dense(m, before, q, after)
                assert np.allclose(got, want, rtol=0.0, atol=1e-12), (n, q)


def _three_kernels(m, before, q, after):
    if before is not None:
        m = kernels.gather_conjugate(m, before)
    m = kernels.gather_hadamard_conjugate(m, None, q, None)
    return m if after is None else kernels.gather_conjugate(m, after)


def _encoder_tables(n):
    """(before, q, after) of the encoder's conjugation in each direction:
    for even n its own (perm, H_q, perm) factors, for odd n (CNOTs only) its
    one table around a Hadamard on the top qubit."""
    factors = encoder_factors(n)
    if n % 2 == 1:
        ((_, perm),) = factors
        return [(np.argsort(perm), n - 1, perm), (perm, n - 1, np.argsort(perm))]
    (_, first), (_, q), (_, last) = factors
    return [(np.argsort(first), q, np.argsort(last)), (last, q, first)]


@pytest.mark.parametrize("n", range(2, 11))
def test_gather_hadamard_conjugate_equals_three_kernels(n):
    m = random_complex_matrix(1 << n, n + 80)
    for before, q, after in _encoder_tables(n):
        got = kernels.gather_hadamard_conjugate(m, before, q, after)
        assert np.array_equal(got, _three_kernels(m, before, q, after))


def _integer_hadamard(n, q):
    """The unnormalised H_q = [[1, 1], [1, -1]] on qubit q, as integers."""
    high = np.eye(1 << (n - 1 - q), dtype=np.int64)
    low = np.eye(1 << q, dtype=np.int64)
    return np.kron(np.kron(high, np.array([[1, 1], [1, -1]])), low)


def test_gather_hadamard_conjugate_is_exact_on_gaussian_integers():
    # both butterflies unscaled, then one scale by 0.5: on Gaussian-integer
    # entries the kernel equals integer arithmetic divided by 2, bit for bit
    rng = np.random.default_rng(17)
    for n in range(1, 9):
        dim = 1 << n
        re, im = rng.integers(-100, 101, size=(2, dim, dim))
        m = re + 1j * im
        for q in range(n):
            h = _integer_hadamard(n, q)
            perms = [rng.permutation(dim) for _ in range(2)]
            for before, after in ((None, None), (perms[0], None), perms):
                b = np.arange(dim) if before is None else before
                c = np.arange(dim) if after is None else after
                want_re, want_im = ((h @ x[b][:, b] @ h)[c][:, c] for x in (re, im))
                got = _checked(kernels.gather_hadamard_conjugate, m, before, q, after)
                assert np.array_equal(got, (want_re + 1j * want_im) / 2), (n, q)


def test_pauli_channel_apply_against_kraus_sum():
    rng = np.random.default_rng(3)
    n = 3
    rho = random_complex_matrix(1 << n, 4)
    rho = rho + rho.conj().T
    probs = rng.dirichlet(np.ones(4))
    got = kernels.pauli_channel_apply(rho, probs)
    assert np.allclose(got, pauli_channel_dense(n, probs, rho), atol=1e-13)
    # a diagonal chi, real or complex, is the same pass as its diagonal
    assert np.array_equal(kernels.pauli_channel_apply(rho, np.diag(probs)), got)
    chi = np.diag(probs).astype(complex)
    assert np.array_equal(kernels.pauli_channel_apply(rho, chi), got)


def _random_chi(rng) -> np.ndarray:
    """A random Hermitian 4x4 chi with nonzero off-diagonal entries; not PSD
    in general, as the kernel is linear in chi."""
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return h + h.conj().T


def _chi_dense(chi, m) -> np.ndarray:
    """sum_ab chi_ab E_a m E_b_dag over dense Kronecker powers E."""
    n = m.shape[0].bit_length() - 1
    basis = [pauli_power(axis, n) for axis in "IXYZ"]
    left = [e @ m for e in basis]
    return sum(
        chi[a, b] * left[a] @ basis[b].conj().T for a in range(4) for b in range(4)
    )


def _span_row_chi(f) -> np.ndarray:
    """chi = f f_dag of the one Kraus row f."""
    f = np.asarray(f, dtype=complex)
    return np.outer(f, f.conj())


# chi matrices some of whose blocks (see kernels._chi_weights) are all zero:
# X-only and Y-only probabilities keep only the flip block (1, 1), an I/Z
# row only block (0, 0), an X/Y row only block (1, 1); block (0, 0) of the
# last is zero too, though the kernel always sums it.  The row with
# f_Z = -f_I has a block (0, 1) that is zero on the rows of even parity
# only, so it must still be summed.
_PARTLY_ZERO_CHI = [
    np.diag([0.0, 1.0, 0.0, 0.0]),
    np.diag([0.0, 0.0, 1.0, 0.0]),
    _span_row_chi([0.6, 0.0, 0.0, 0.8j]),
    _span_row_chi([0.0, 0.6, 0.8j, 0.0]),
    _span_row_chi([0.5, 0.5j, 0.0, -0.5]),
]


def test_pauli_channel_apply_chi_against_dense_oracle():
    # n = 1..8 covers every residue of n mod 4, so every phase of Y_n
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        m = random_complex_matrix(1 << n, n + 6)
        for chi in [_random_chi(rng)] + _PARTLY_ZERO_CHI:
            got = _checked(kernels.pauli_channel_apply, m, chi)
            assert np.allclose(got, _chi_dense(chi, m), rtol=0.0, atol=1e-11), n
        for chi in _PARTLY_ZERO_CHI[:2]:
            got = kernels.pauli_channel_apply(m, np.diagonal(chi))
            assert np.array_equal(got, kernels.pauli_channel_apply(m, chi)), n


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


def _kron_cases(n, seed):
    """(a, r) pairs for kron_dist at n: a 2x2 and (n >= 2) a 4x4 a, each with
    a random r and with r None."""
    cases = []
    for na in (2, 4)[: min(n, 2)]:
        a = random_complex_matrix(na, seed + na)
        r = random_complex_matrix((1 << n) // na, seed + na + 1)
        cases += [(a, r), (a, None)]
    return cases


def _kron(a, r, dim):
    return np.kron(a, np.eye(dim // a.shape[0]) if r is None else r)


def test_kron_dist_against_kron_oracle(monkeypatch):
    for n in range(1, 9):
        dim = 1 << n
        d = random_complex_matrix(dim, n + 90)
        for a, r in _kron_cases(n, n + 91):
            want = kernels.frob_dist(d, _kron(a, r, dim))
            got = _checked(kernels.kron_dist, d, a, r)
            assert got == pytest.approx(want, rel=1e-12), n
            assert kernels.kron_dist(_kron(a, r, dim), a, r) == 0.0, n
    # steps of several whole row blocks i, the last one shorter: 3 of the
    # four blocks of 4 rows of d at n = 4, then 1
    n, dim = 4, 16
    monkeypatch.setattr(kernels, "_TILE_BYTES", 2 * 48 * dim * 12)
    d = random_complex_matrix(dim, 99)
    for a, r in _kron_cases(n, 100)[2:]:
        got = _checked(kernels.kron_dist, d, a, r)
        assert got == pytest.approx(kernels.frob_dist(d, _kron(a, r, dim)), rel=1e-12)
        assert kernels.kron_dist(_kron(a, r, dim), a, r) == 0.0


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


def _checked(fn, *args):
    """fn(*args), asserting it leaves its array arguments unmodified."""
    before = [np.copy(a) for a in args]
    out = fn(*args)
    for a, b in zip(args, before):
        assert np.array_equal(a, b)
    return out


# _TILE_BYTES = 16*dim*k, k rows of the matrix, so a step takes k // 8 row
# pairs of hadamard_rows, k // 16 of the fused gather-Hadamard pass, and
# k // 8, k // 12 and k // 6 rows of pauli_channel_apply with a diagonal
# chi (two views read), with a full chi (four views) and of frob_dist and
# kron_dist (at least 1).  kron_dist keeps a step within one block of
# dim / A rows of d (A = 2 or 4, the size of its a) while the step is
# shorter than the block.  k = None: the default tile, one step per matrix;
# k = 1 and 6: one row (or pair of rows) per step for every kernel;
# k = 15: the same but 2 rows of frob_dist and kron_dist; k = 30: 3 pairs
# of hadamard_rows, 3 rows of the diagonal chi and 5 of frob_dist and
# kron_dist; k = 36: 3 rows of the full chi; k = 48: 3 pairs of the fused
# pass, 6 of hadamard_rows and 6 rows of the diagonal chi, and 8 of
# kron_dist.  The steps of 3, 5 and 6 leave an uneven last step at every
# dim they run at, and kron_dist's 5 rows one in each of its blocks (8 to
# 32 rows at n = 5 and 6).
@pytest.mark.parametrize(
    "n, k",
    [
        (n, k)
        for n in (3, 4, 5, 6)
        for k in (None, 1, 6, 15, 30, 36, 48)
        if k is None or k < 1 << n
    ],
)
def test_kernels_are_tile_size_independent(monkeypatch, n, k):
    dim = 1 << n
    rng = np.random.default_rng(n * 31 + (k or 0))
    m = random_complex_matrix(dim, n + 40)
    rho = m + m.conj().T
    probs = rng.dirichlet(np.ones(4))
    chi = _random_chi(rng)
    perm = rng.permutation(dim).astype(np.int64)
    perm2 = rng.permutation(dim)
    qs = sorted({0, n - 2, n - 1})
    kron_cases = _kron_cases(n, n + 50)
    whole = {
        "rows": [kernels.hadamard_rows(m, q) for q in qs],
        "had": [kernels.gather_hadamard_conjugate(m, None, q, None) for q in qs],
        "fused": [kernels.gather_hadamard_conjugate(m, perm, q, perm2) for q in qs],
        "pauli": kernels.pauli_channel_apply(rho, probs),
        "chi": kernels.pauli_channel_apply(m, chi),
        "dist": kernels.frob_dist(m, rho),
        "kron": [kernels.kron_dist(m, a, r) for a, r in kron_cases],
    }
    if k is not None:
        monkeypatch.setattr(kernels, "_TILE_BYTES", 16 * dim * k)
        assert m.nbytes > kernels._TILE_BYTES
    for q, rows, had, fused in zip(qs, whole["rows"], whole["had"], whole["fused"]):
        h = embed_single(HAD, n, q)
        got_rows = _checked(kernels.hadamard_rows, m, q)
        got = _checked(kernels.gather_hadamard_conjugate, m, None, q, None)
        assert np.array_equal(got_rows, rows)
        assert np.array_equal(got, had)
        assert np.allclose(got_rows, h @ m, atol=1e-12)
        assert np.allclose(got, h @ m @ h, atol=1e-12)
        got = _checked(kernels.gather_hadamard_conjugate, m, perm, q, perm2)
        assert np.array_equal(got, fused)
        want = _gather_hadamard_dense(m, perm, q, perm2)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    got = _checked(kernels.pauli_channel_apply, rho, probs)
    assert np.array_equal(got, whole["pauli"])
    assert np.allclose(got, pauli_channel_dense(n, probs, rho), atol=1e-12)
    got = _checked(kernels.pauli_channel_apply, m, chi)
    assert np.array_equal(got, whole["chi"])
    assert np.allclose(got, _chi_dense(chi, m), rtol=0.0, atol=1e-11)
    p = _perm_matrix(perm)
    got = _checked(kernels.gather_conjugate, m, perm)
    assert np.allclose(got, p.conj().T @ m @ p, atol=1e-13)
    assert _checked(kernels.frob_dist, m, rho) == pytest.approx(whole["dist"], rel=1e-12)
    assert _checked(kernels.frob_dist, m, m.copy()) == 0.0
    for (a, r), dist in zip(kron_cases, whole["kron"]):
        assert _checked(kernels.kron_dist, m, a, r) == pytest.approx(dist, rel=1e-12)
        assert kernels.kron_dist(_kron(a, r, dim), a, r) == 0.0


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_kernels_hold_one_output_plus_tile_scratch():
    # n = 8 and 9 are below one tile, n = 10 past it: the same steps either way
    scratch = kernels._TILE_BYTES // 2
    for n in (8, 9, 10):
        dim = 1 << n
        state = 16 * dim * dim
        m = random_complex_matrix(dim, 60 + n)
        rng = np.random.default_rng(61 + n)
        chi = _random_chi(rng)
        perm = rng.permutation(dim)
        for fn, args in (
            (kernels.hadamard_rows, (m, n - 1)),
            (kernels.hadamard_rows, (m, 0)),
            (kernels.gather_hadamard_conjugate, (m, None, n - 1, None)),
            (kernels.gather_hadamard_conjugate, (m, None, 0, None)),
            (kernels.gather_hadamard_conjugate, (m, perm, n - 1, perm[::-1])),
            (kernels.gather_hadamard_conjugate, (m, perm, 0, perm[::-1])),
            (kernels.pauli_channel_apply, (m, (0.4, 0.3, 0.2, 0.1))),
            (kernels.pauli_channel_apply, (m, chi)),
        ):
            assert _peak_bytes(fn, *args) < state + scratch, (fn.__name__, n)
        # no output matrix: scratch only
        assert _peak_bytes(kernels.frob_dist, m, 2 * m) < scratch, n
        for a, r in _kron_cases(n, 62 + n):
            assert _peak_bytes(kernels.kron_dist, m, a, r) < scratch, n


# Each kernel's positional parameters, as callers (and the benchmark's
# per-kernel byte counts, which bind these names) use them.
KERNEL_SIGNATURES = {
    "gather_conjugate": ("m", "perm"),
    "gather_hadamard_conjugate": ("m", "before", "q", "after"),
    "pauli_channel_apply": ("rho", "probs"),
    "ptrace_leading": ("m", "keep"),
    "ptrace_trailing": ("m", "keep"),
    "frob_dist": ("a", "b"),
    "kron_dist": ("d", "a", "r"),
}


@pytest.mark.parametrize("name", sorted(KERNEL_SIGNATURES))
def test_kernel_signatures_are_pinned(name):
    sig = inspect.signature(getattr(kernels, name))
    names = KERNEL_SIGNATURES[name]
    assert tuple(sig.parameters) == names
    for p in sig.parameters.values():
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert p.default is inspect.Parameter.empty
    sig.bind(*names)
    with pytest.raises(TypeError):
        sig.bind(*names, None)
