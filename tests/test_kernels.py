from __future__ import annotations

import inspect
import tracemalloc

import numpy as np
import pytest

from corrqec import kernels
from corrqec.encoder import encoder_factors
from corrqec.errors import BadQubitIndex, DimensionMismatch

from oracles import (
    HAD,
    chi_channel,
    embed_single,
    pauli_channel_dense,
    pauli_power,
    permutation_matrix,
    ptrace_leading_direct,
    ptrace_trailing_direct,
    random_complex_matrix,
)


def test_gather_conjugate_against_gemm():
    rng = np.random.default_rng(0)
    m = random_complex_matrix(16, 1)
    perm = rng.permutation(16).astype(np.int64)
    got = kernels.gather_conjugate(m, perm)
    p = permutation_matrix(perm)
    assert np.allclose(got, p.conj().T @ m @ p, atol=1e-13)


@pytest.mark.parametrize("q", [0, 1, 3])
def test_hadamard_conjugate_against_gemm(q):
    m = random_complex_matrix(16, 2)
    h = embed_single(HAD, 4, q)
    got = kernels.gather_hadamard_conjugate(m, None, q, None)
    assert np.allclose(got, h @ m @ h, atol=1e-13)
    eye = np.eye(16, dtype=complex)
    got = kernels.gather_hadamard_conjugate(eye, None, q, None)
    assert np.allclose(got, eye, atol=1e-15)


def _gather_hadamard_dense(m, before, q, after):
    """G_after(H_q G_before(m) H_q) from dense matrices, G_t(x) = P_t_dag x P_t."""
    n = m.shape[0].bit_length() - 1
    eye = np.eye(m.shape[0], dtype=complex)
    pa = eye if before is None else permutation_matrix(before)
    pb = eye if after is None else permutation_matrix(after)
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


# chi matrices most of whose entries are zero, so chi_channel skips most of
# its terms: X-only and Y-only probabilities keep one term, which reverses
# both rows and columns; an I/Z row keeps only terms that reverse neither,
# an X/Y row only terms that reverse both.  The row with f_Z = -f_I has
# terms that cancel on the rows of even parity only.
_PARTLY_ZERO_CHI = [
    np.diag([0.0, 1.0, 0.0, 0.0]),
    np.diag([0.0, 0.0, 1.0, 0.0]),
    _span_row_chi([0.6, 0.0, 0.0, 0.8j]),
    _span_row_chi([0.0, 0.6, 0.8j, 0.0]),
    _span_row_chi([0.5, 0.5j, 0.0, -0.5]),
]


def _pauli_channel_apply(rho, chi):
    """The channel as the trial applies it, pauli_channel_basis_packed on
    the packed Hermitian rho in channel_basis, with the input checked
    unmodified; returns the packed output in channel_basis."""
    n = rho.shape[0].bit_length() - 1
    m = _to_basis(_pack(rho), n)
    return _checked(kernels.pauli_channel_basis_packed, m, chi)


def test_pauli_channel_apply_against_kraus_sum():
    rng = np.random.default_rng(3)
    n = 3
    rho = random_complex_matrix(1 << n, 4)
    rho = rho + rho.conj().T
    probs = rng.dirichlet(np.ones(4))
    got = _pauli_channel_apply(rho, probs)
    want = _to_basis(_pack(pauli_channel_dense(n, probs, rho)), n)
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)
    # a diagonal chi, real or complex, is the same pass as its diagonal
    assert np.array_equal(_pauli_channel_apply(rho, np.diag(probs)), got)
    chi = np.diag(probs).astype(complex)
    assert np.array_equal(_pauli_channel_apply(rho, chi), got)


def test_pauli_channel_apply_chi_against_dense_oracle():
    # n = 1..8 covers every residue of n mod 4, so every phase of Y_n, and
    # both parities of n, so both sizes of the leading block in channel_basis
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        rho = _hermitian(n, n + 6)
        for chi in [_random_chi(rng)] + _PARTLY_ZERO_CHI:
            got = _pauli_channel_apply(rho, chi)
            want = _to_basis(_pack(_chi_dense(chi, rho)), n)
            assert np.allclose(got, want, rtol=0.0, atol=1e-11), n
        for chi in _PARTLY_ZERO_CHI[:2]:
            got = _pauli_channel_apply(rho, np.diagonal(chi))
            assert np.array_equal(got, _pauli_channel_apply(rho, chi)), n


def test_chi_channel_oracle_against_dense_kraus_sums():
    # n = 1..6 covers every residue of n mod 4, so every phase of Y_n
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        m = random_complex_matrix(1 << n, n + 6)
        for chi in [_random_chi(rng)] + _PARTLY_ZERO_CHI:
            got = _checked(chi_channel, m, chi)
            assert np.allclose(got, _chi_dense(chi, m), rtol=0.0, atol=1e-11), n
        # probabilities are the diagonal of chi: the Pauli channel's Kraus sum
        probs = rng.dirichlet(np.ones(4))
        got = chi_channel(m, probs)
        assert np.allclose(got, pauli_channel_dense(n, probs, m), rtol=0.0, atol=1e-13), n
        assert np.array_equal(got, chi_channel(m, np.diag(probs))), n


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
    a random r."""
    cases = []
    for na in (2, 4)[: min(n, 2)]:
        a = random_complex_matrix(na, seed + na)
        r = random_complex_matrix((1 << n) // na, seed + na + 1)
        cases.append((a, r))
    return cases


def test_kron_dist_against_kron_oracle(monkeypatch):
    for n in range(1, 9):
        dim = 1 << n
        d = random_complex_matrix(dim, n + 90)
        for a, r in _kron_cases(n, n + 91):
            want = kernels.frob_dist(d, np.kron(a, r))
            got = _checked(kernels.kron_dist, d, a, r)
            assert got == pytest.approx(want, rel=1e-12), n
            assert kernels.kron_dist(np.kron(a, r), a, r) == 0.0, n
    # steps of several whole row blocks i, the last one shorter: 3 of the
    # four blocks of 4 rows of d at n = 4, then 1
    n, dim = 4, 16
    monkeypatch.setattr(kernels, "_TILE_BYTES", 2 * 48 * dim * 12)
    d = random_complex_matrix(dim, 99)
    for a, r in _kron_cases(n, 100)[1:]:
        got = _checked(kernels.kron_dist, d, a, r)
        assert got == pytest.approx(kernels.frob_dist(d, np.kron(a, r)), rel=1e-12)
        assert kernels.kron_dist(np.kron(a, r), a, r) == 0.0


def test_kron_dist_on_float64_matches_the_complex_call():
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        dim = 1 << n
        d = rng.normal(size=(dim, dim))
        for na in (2, 4)[: min(n, 2)]:
            a = rng.normal(size=(na, na))
            r = rng.normal(size=(dim // na, dim // na))
            got = _checked(kernels.kron_dist, d, a, r)
            want = kernels.kron_dist(d.astype(complex), a.astype(complex), r)
            assert got == pytest.approx(want, rel=1e-12), n
            assert kernels.kron_dist(np.kron(a, r), a, r) == 0.0, n
            # a complex a against a real d: the difference is measured in full
            ia = a + 1j * rng.normal(size=(na, na))
            want = kernels.frob_dist(d, np.kron(ia, r))
            assert kernels.kron_dist(d, ia, r) == pytest.approx(want, rel=1e-12), n


def test_real_kernels_keep_float64_and_the_rest_take_complex():
    rng = np.random.default_rng(29)
    m = rng.normal(size=(16, 16))
    perm = rng.permutation(16)
    for got, want in (
        (kernels.gather_conjugate(m, perm), kernels.gather_conjugate(m.astype(complex), perm)),
        (
            kernels.gather_hadamard_conjugate(m, perm, 2, perm[::-1]),
            kernels.gather_hadamard_conjugate(m.astype(complex), perm, 2, perm[::-1]),
        ),
    ):
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
    # the partial traces of a float64 matrix are float64 too
    assert kernels.ptrace_leading(m, 4).dtype == np.float64
    assert kernels.ptrace_trailing(m, 4).dtype == np.float64
    # integer (int16 included) and float32 input still become complex128
    ints = np.arange(256).reshape(16, 16)
    for other in (m.astype(np.float32), ints, ints.astype(np.int16)):
        assert kernels.gather_conjugate(other, perm).dtype == np.complex128
        assert kernels.gather_hadamard_conjugate(other, perm, 2, None).dtype == np.complex128


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


# _TILE_BYTES = 16*dim*k, k rows of the matrix, so a step takes k // 16 row
# pairs of the fused gather-Hadamard pass and k // 6 rows of frob_dist and
# kron_dist (at least 1).  kron_dist keeps a step within one block of
# dim / A rows of d (A = 2 or 4, the size of its a) while the step is
# shorter than the block.  k = None: the default tile, one step per matrix;
# k = 1 and 6: one row (or pair of rows) per step for every kernel; k = 15:
# the same but 2 rows of frob_dist and kron_dist; k = 30: 5 rows of
# frob_dist and kron_dist; k = 36: 2 pairs of the fused pass and 6 rows of
# frob_dist and kron_dist; k = 48: 3 pairs of the fused pass and 8 rows of
# frob_dist and kron_dist.  The
# steps of 3, 5 and 6 leave an uneven last step at every dim they run at,
# and kron_dist's 5 rows one in each of its blocks (8 to 32 rows at n = 5
# and 6).  The fused pass takes twice the pairs on a float64 matrix.
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
    # the real kernels on a float64 matrix, which take twice the rows a step
    real = m.real.copy()
    real_kron = [(a.real.copy(), r.real.copy()) for a, r in _kron_cases(n, n + 55)]
    rho = m + m.conj().T
    perm = rng.permutation(dim).astype(np.int64)
    perm2 = rng.permutation(dim)
    qs = sorted({0, n - 2, n - 1})
    kron_cases = _kron_cases(n, n + 50)
    whole = {
        "had": [kernels.gather_hadamard_conjugate(m, None, q, None) for q in qs],
        "fused": [kernels.gather_hadamard_conjugate(m, perm, q, perm2) for q in qs],
        "dist": kernels.frob_dist(m, rho),
        "kron": [kernels.kron_dist(m, a, r) for a, r in kron_cases],
        "real_fused": [kernels.gather_hadamard_conjugate(real, perm, q, perm2) for q in qs],
        "real_kron": [kernels.kron_dist(real, a, r) for a, r in real_kron],
    }
    if k is not None:
        monkeypatch.setattr(kernels, "_TILE_BYTES", 16 * dim * k)
        assert m.nbytes > kernels._TILE_BYTES
    for q, had, fused in zip(qs, whole["had"], whole["fused"]):
        h = embed_single(HAD, n, q)
        got = _checked(kernels.gather_hadamard_conjugate, m, None, q, None)
        assert np.array_equal(got, had)
        assert np.allclose(got, h @ m @ h, atol=1e-12)
        got = _checked(kernels.gather_hadamard_conjugate, m, perm, q, perm2)
        assert np.array_equal(got, fused)
        want = _gather_hadamard_dense(m, perm, q, perm2)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    p = permutation_matrix(perm)
    got = _checked(kernels.gather_conjugate, m, perm)
    assert np.allclose(got, p.conj().T @ m @ p, atol=1e-13)
    assert _checked(kernels.frob_dist, m, rho) == pytest.approx(whole["dist"], rel=1e-12)
    assert _checked(kernels.frob_dist, m, m.copy()) == 0.0
    for (a, r), dist in zip(kron_cases, whole["kron"]):
        assert _checked(kernels.kron_dist, m, a, r) == pytest.approx(dist, rel=1e-12)
        assert kernels.kron_dist(np.kron(a, r), a, r) == 0.0
    for q, fused in zip(qs, whole["real_fused"]):
        got = _checked(kernels.gather_hadamard_conjugate, real, perm, q, perm2)
        assert got.dtype == np.float64
        assert np.array_equal(got, fused)
        want = _gather_hadamard_dense(real, perm, q, perm2)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    for (a, r), dist in zip(real_kron, whole["real_kron"]):
        assert _checked(kernels.kron_dist, real, a, r) == pytest.approx(dist, rel=1e-12)
        assert kernels.kron_dist(np.kron(a, r), a, r) == 0.0


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
        perm = rng.permutation(dim)
        for fn, args in (
            (kernels.gather_hadamard_conjugate, (m, None, n - 1, None)),
            (kernels.gather_hadamard_conjugate, (m, None, 0, None)),
            (kernels.gather_hadamard_conjugate, (m, perm, n - 1, perm[::-1])),
            (kernels.gather_hadamard_conjugate, (m, perm, 0, perm[::-1])),
        ):
            assert _peak_bytes(fn, *args) < state + scratch, (fn.__name__, n)
        # no output matrix: scratch only
        assert _peak_bytes(kernels.frob_dist, m, 2 * m) < scratch, n
        for a, r in _kron_cases(n, 62 + n):
            assert _peak_bytes(kernels.kron_dist, m, a, r) < scratch, n
        # a float64 matrix: a float64 output, half a state
        real = m.real.copy()
        for q in (n - 1, 0):
            peak = _peak_bytes(kernels.gather_hadamard_conjugate, real, perm, q, perm[::-1])
            assert peak < state // 2 + scratch, n
        r = real[: dim // 4, : dim // 4].copy()
        assert _peak_bytes(kernels.kron_dist, real, real[:4, :4], r) < scratch, n


# Each kernel's positional parameters, as callers (and the benchmark's
# per-kernel byte counts, which bind these names) use them.
KERNEL_SIGNATURES = {
    "gather_conjugate": ("m", "perm"),
    "gather_hadamard_conjugate": ("m", "before", "q", "after"),
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


def _pack(m):
    return m.real + m.imag


def _hermitian(n, seed):
    m = random_complex_matrix(1 << n, seed)
    return m + m.conj().T


def _to_basis(m, n):
    """m in kernels.channel_basis: entry (i, k) moves to (B[i], B[k])."""
    inv = np.argsort(kernels.channel_basis(n))
    return m[np.ix_(inv, inv)]


@pytest.mark.parametrize("n", range(1, 9))
def test_channel_basis_carries_x_n_and_z_n_to_the_leading_qubits(n):
    b = kernels.channel_basis(n)
    i = np.arange(1 << n)
    assert np.array_equal(np.sort(b), i)
    # a CNOT circuit's permutation is linear over GF(2)
    assert all(np.array_equal(b[i ^ k], b ^ b[k]) for k in range(1 << n))
    # Z_n = diag((-1)**popcount(i)) is Z on qubit n - 1 ...
    assert np.array_equal(b >> (n - 1), np.bitwise_count(i) & 1)
    # ... and X_n, which complements i, is X on qubit n - 1 (odd n) or n - 2
    x_qubit = n - 1 if n % 2 else n - 2
    assert np.array_equal(b[i ^ ((1 << n) - 1)], b ^ (1 << x_qubit))


def test_pauli_channel_basis_packed_is_the_packed_complex_pass():
    # n = 1..8 covers every phase of Y_n and both parities
    rng = np.random.default_rng(41)
    for n in range(1, 9):
        rho = _hermitian(n, n + 120)
        m = _to_basis(_pack(rho), n)
        chis = [_random_chi(rng), np.diag(rng.dirichlet(np.ones(4)))] + _PARTLY_ZERO_CHI
        for chi in chis:
            got = _checked(kernels.pauli_channel_basis_packed, m, chi)
            assert got.dtype == np.float64
            want = _to_basis(_pack(chi_channel(rho, chi)), n)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), n
        probs = rng.dirichlet(np.ones(4))
        got = kernels.pauli_channel_basis_packed(m, probs)
        assert np.array_equal(got, kernels.pauli_channel_basis_packed(m, np.diag(probs)))
        # a packed state is real: a complex one is rejected, not cast
        with pytest.raises(DimensionMismatch):
            kernels.pauli_channel_basis_packed(m + 0.25j, probs)
    # and a register of qubits: a dim that is not a power of two has no
    # leading qubits to act on
    for dim in (6, 12):
        with pytest.raises(DimensionMismatch):
            kernels.pauli_channel_basis_packed(np.eye(dim), probs)


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("k", [1, 5, 30])
def test_pauli_channel_basis_packed_is_tile_size_independent(monkeypatch, n, k):
    # k rows of a float64 matrix per half tile, at most; transposed copies of
    # 1, 3 and the default 64 columns.  The weighted sums are BLAS dot
    # products, whose rounding may follow the product's width
    rng = np.random.default_rng(n * 7 + k)
    m = _to_basis(_pack(_hermitian(n, n + 130)), n)
    chis = [_random_chi(rng), np.diag(rng.dirichlet(np.ones(4)))]
    whole = [kernels.pauli_channel_basis_packed(m, chi) for chi in chis]
    dim = 1 << n
    monkeypatch.setattr(kernels, "_TILE_BYTES", 16 * dim * k)
    for cols in (1, 3, 64):
        monkeypatch.setattr(kernels, "_TRANSPOSE_COLS", cols)
        for chi, want in zip(chis, whole):
            got = _checked(kernels.pauli_channel_basis_packed, m, chi)
            assert np.allclose(got, want, rtol=0.0, atol=1e-15 * np.abs(want).max())


def test_pauli_channel_basis_packed_holds_one_output_plus_tile_scratch():
    scratch = kernels._TILE_BYTES // 2
    for n in (8, 9, 10):
        m = _pack(_hermitian(n, n + 140))
        for chi in (_random_chi(np.random.default_rng(n)), (0.4, 0.3, 0.2, 0.1)):
            assert _peak_bytes(kernels.pauli_channel_basis_packed, m, chi) < m.nbytes + scratch


def test_kron_dist_two_terms_against_kron_oracle(monkeypatch):
    rng = np.random.default_rng(43)
    for n in range(1, 9):
        dim = 1 << n
        d = rng.normal(size=(dim, dim))
        for na in (2, 4)[: min(n, 2)]:
            a1, a2 = rng.normal(size=(2, na, na))
            r = rng.normal(size=(dim // na, dim // na))
            product = np.kron(a1, r) + np.kron(a2, r.T)
            got = _checked(kernels.kron_dist, d, np.stack((a1, a2)), r)
            assert got == pytest.approx(kernels.frob_dist(d, product), rel=1e-12), n
            # equal inputs: the step builds the oracle's own roundings
            assert kernels.kron_dist(product, np.stack((a1, a2)), r) == 0.0, n
            # an all-zero a2 term is skipped: the one-term call, bit for bit
            zero = np.stack((a1, np.zeros_like(a2)))
            assert kernels.kron_dist(d, zero, r) == kernels.kron_dist(d, a1, r), n
    # several steps per block of rows, the last one shorter
    monkeypatch.setattr(kernels, "_TILE_BYTES", 2 * 40 * 16 * 3)
    d = rng.normal(size=(16, 16))
    a = rng.normal(size=(2, 4, 4))
    r = rng.normal(size=(4, 4))
    product = np.kron(a[0], r) + np.kron(a[1], r.T)
    assert kernels.kron_dist(d, a, r) == pytest.approx(kernels.frob_dist(d, product), rel=1e-12)
    assert kernels.kron_dist(product, a, r) == 0.0


def test_ptrace_kernels_sum_float64_in_float64():
    m = np.random.default_rng(44).normal(size=(16, 16))
    for fn in (kernels.ptrace_leading, kernels.ptrace_trailing):
        got = fn(m, 4)
        assert got.dtype == np.float64
        assert np.allclose(got, fn(m.astype(complex), 4), rtol=0.0, atol=1e-15)
    # no complex copy of the input: the peak is the 4x4 output
    assert _peak_bytes(kernels.ptrace_leading, m, 4) < m.nbytes


# _TILE_BYTES = 16*dim*k as in test_kernels_are_tile_size_independent: k = 1
# and 3 leave one row (or pair) and an uneven last step in every kernel.
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [None, 1, 3])
def test_into_out_kernels_return_out_and_match_the_allocating_forms(monkeypatch, n, k):
    dim = 1 << n
    rng = np.random.default_rng(n * 11 + (k or 0))
    perm = rng.permutation(dim)
    perm2 = rng.permutation(dim)
    m = random_complex_matrix(dim, n + 150)
    basis = _to_basis(_pack(_hermitian(n, n + 151)), n)
    chis = [_random_chi(rng), np.diag(rng.dirichlet(np.ones(4)))]
    if k is not None:
        monkeypatch.setattr(kernels, "_TILE_BYTES", 16 * dim * k)
    for x in (m, m.real.copy()):
        out = np.full_like(x, np.nan)
        got = _checked(lambda *args: kernels._gather_conjugate_into(*args, out), x, perm)
        assert got is out
        assert np.array_equal(got, x[np.ix_(perm, perm)])
        assert np.array_equal(kernels.gather_conjugate(x, perm), got)
        for q in sorted({0, n - 2, n - 1}):
            for before, after in ((None, None), (perm, perm2)):
                out = np.full_like(x, np.nan)
                fn = kernels._gather_hadamard_conjugate_into
                got = _checked(lambda *args: fn(*args, out), x, before, q, after)
                assert got is out
                want = kernels.gather_hadamard_conjugate(x, before, q, after)
                assert want.dtype == x.dtype and np.array_equal(got, want)
    for chi in chis:
        out = np.full_like(basis, np.nan)
        got = _checked(lambda *args: kernels.pauli_channel_basis_packed(*args, out), basis, chi)
        assert got is out
        assert np.array_equal(got, kernels.pauli_channel_basis_packed(basis, chi))


def _into_out_calls():
    """(name, call(m, out)) for each kernel that writes into an out."""
    n = 4
    perm = np.random.default_rng(170).permutation(1 << n)
    chi = (0.4, 0.3, 0.2, 0.1)
    return [
        ("gather", lambda m, out: kernels._gather_conjugate_into(m, perm, out)),
        ("fused", lambda m, out: kernels._gather_hadamard_conjugate_into(m, perm, 1, perm, out)),
        ("channel", lambda m, out: kernels.pauli_channel_basis_packed(m, chi, out)),
    ]


@pytest.mark.parametrize("index", range(3))
def test_into_out_kernels_reject_a_bad_out(index):
    name, call = _into_out_calls()[index]
    m = _pack(_hermitian(4, 171))
    wide = np.empty((16, 32))
    for bad in (
        np.empty((16, 15)),
        np.empty((8, 8)),
        np.empty((16, 16), dtype=np.float32),
        np.empty((16, 16), dtype=np.complex128),
        np.empty((16, 32))[:, ::2],
        np.empty((16, 16), order="F"),
        m.tolist(),
    ):
        with pytest.raises(DimensionMismatch):
            call(m, bad)
    with pytest.raises(ValueError, match="shares memory"):
        call(m, m)
    # an out that overlaps the input by part of a row: rejected before
    # anything is written
    buf = np.concatenate((m.ravel(), m[0]))
    kept = buf.copy()
    with pytest.raises(ValueError, match="shares memory"):
        call(buf[:256].reshape(16, 16), buf[16:].reshape(16, 16))
    assert np.array_equal(buf, kept), name


def test_gather_conjugate_rejects_a_table_it_would_clip():
    m = np.arange(16.0).reshape(4, 4)
    for perm in ([0, 1, 2, 9], [0, 1, -1, 2], [0, 1, 2], [0, 1, 2, 3, 0]):
        with pytest.raises(DimensionMismatch):
            kernels.gather_conjugate(m, perm)
        # the fused gather checks both of its tables the same way
        for before, after in ((perm, None), (None, perm), (perm, perm)):
            with pytest.raises(DimensionMismatch):
                kernels.gather_hadamard_conjugate(m, before, 0, after)
    # after is inverted to place the rows, so it must be a permutation
    with pytest.raises(DimensionMismatch, match="permutation"):
        kernels.gather_hadamard_conjugate(m, None, 0, [0, 1, 2, 2])
    for q in (-1, 2, 5):
        with pytest.raises(BadQubitIndex):
            kernels.gather_hadamard_conjugate(m, None, q, None)
    # the butterfly splits the dim in halves: a dim that is not a power of
    # two, or a matrix that is not square, is not a register of qubits
    for bad in (np.eye(6), np.ones((16, 8)), np.arange(4.0)):
        with pytest.raises(DimensionMismatch):
            kernels.gather_hadamard_conjugate(bad, None, 0, None)
    # the into-out bodies check before they write
    out = np.full_like(m, 7.0)
    with pytest.raises(DimensionMismatch):
        kernels._gather_hadamard_conjugate_into(m, [0, 1, 2, 9], 1, None, out)
    with pytest.raises(DimensionMismatch):
        kernels._gather_conjugate_into(m, [0, 1, 2, 9], out)
    assert (out == 7.0).all()
