from __future__ import annotations

import inspect
import tracemalloc

import numpy as np
import pytest

from corrqec import kernels
from corrqec.errors import DimensionMismatch
from corrqec.gates import Circuit, channel_basis, circuit_conjugate, cnot_op, h_op
from corrqec.tensor import frobenius_distance, partial_trace_leading, partial_trace_trailing

import oracles
from oracles import (
    HAD,
    chi_channel,
    embed_single,
    pack_kron,
    pauli_channel_basis_packed,
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
    got = circuit_conjugate(Circuit(4, (h_op(q),)), m)
    assert np.allclose(got, h @ m @ h, atol=1e-13)
    eye = np.eye(16, dtype=complex)
    got = circuit_conjugate(Circuit(4, (h_op(q),)), eye)
    assert np.allclose(got, eye, atol=1e-15)


def _cnot_word(n, rng):
    """A random CNOT-only Circuit on n qubits, 1 to 3n gates (none at n = 1)."""
    if n == 1:
        return Circuit(1)
    pairs = [rng.choice(n, size=2, replace=False) for _ in range(int(rng.integers(1, 3 * n + 1)))]
    return Circuit(n, tuple(cnot_op(int(c), int(t)) for c, t in pairs))


def _gather_table(word):
    """The table t whose gather G_t(x) = x[t][:, t] is W x W_dag for the
    CNOT word W, from the oracles' per-gate permutations; None for None."""
    return None if word is None else np.argsort(oracles.circuit_perm(word))


def _hadamard_circuit(n, before, q, after):
    """The circuit of CNOT words before and after around H_q (None for no
    word): its conjugation (adjoint=False) is G_a(H_q G_b(m) H_q) for b and
    a the words' gather tables (_gather_table)."""
    def ops(word):
        return () if word is None else word.ops

    return Circuit(n, ops(before) + (h_op(q),) + ops(after))


def _gather_hadamard_dense(m, before, q, after):
    """G_after(H_q G_before(m) H_q) from dense matrices, G_t(x) = P_t_dag x P_t."""
    n = m.shape[0].bit_length() - 1
    eye = np.eye(m.shape[0], dtype=complex)
    pa = eye if before is None else permutation_matrix(before)
    pb = eye if after is None else permutation_matrix(after)
    h = embed_single(HAD, n, q)
    return pb.conj().T @ h @ pa.conj().T @ m @ pa @ h @ pb


def test_hadamard_factors_against_dense_oracle():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        dim = 1 << n
        m = random_complex_matrix(dim, n + 70)
        for q in range(n):
            words = [_cnot_word(n, rng) for _ in range(2)]
            for before, after in ((None, None), (words[0], None), (None, words[1]), words):
                circuit = _hadamard_circuit(n, before, q, after)
                got = _checked(lambda x: circuit_conjugate(circuit, x), m)
                want = _gather_hadamard_dense(m, _gather_table(before), q, _gather_table(after))
                assert np.allclose(got, want, rtol=0.0, atol=1e-12), (n, q)


def _integer_hadamard(n, q):
    """The unnormalised H_q = [[1, 1], [1, -1]] on qubit q, as integers."""
    high = np.eye(1 << (n - 1 - q), dtype=np.int64)
    low = np.eye(1 << q, dtype=np.int64)
    return np.kron(np.kron(high, np.array([[1, 1], [1, -1]])), low)


def test_hadamard_factors_are_exact_on_gaussian_integers():
    # both butterflies unscaled, then one scale by 0.5: on Gaussian-integer
    # entries the conjugation equals integer arithmetic divided by 2, bit
    # for bit
    rng = np.random.default_rng(17)
    for n in range(1, 9):
        dim = 1 << n
        re, im = rng.integers(-100, 101, size=(2, dim, dim))
        m = re + 1j * im
        for q in range(n):
            h = _integer_hadamard(n, q)
            words = [_cnot_word(n, rng) for _ in range(2)]
            for before, after in ((None, None), (words[0], None), words):
                b = np.arange(dim) if before is None else _gather_table(before)
                c = np.arange(dim) if after is None else _gather_table(after)
                want_re, want_im = ((h @ x[b][:, b] @ h)[c][:, c] for x in (re, im))
                circuit = _hadamard_circuit(n, before, q, after)
                got = _checked(lambda x: circuit_conjugate(circuit, x), m)
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


# the identity chi, sequence_chi of an empty channel list
_IDENTITY_CHI = np.diag([1.0, 0.0, 0.0, 0.0])


def _pauli_channel_apply(rho, chi):
    """The channel as the trial applies it, kernels.trial_pass with the 1x1
    ancilla and the identity table on the packed Hermitian rho in
    channel_basis, with the input checked unmodified; returns the packed
    output in channel_basis."""
    n = rho.shape[0].bit_length() - 1
    m = _to_basis(_pack(rho), n)
    return _checked(kernels.trial_pass, np.ones((1, 1)), m, chi, np.arange(1 << n))


def test_pauli_channel_apply_against_kraus_sum():
    rng = np.random.default_rng(3)
    n = 3
    rho = random_complex_matrix(1 << n, 4)
    rho = rho + rho.conj().T
    probs = rng.dirichlet(np.ones(4))
    got = _pauli_channel_apply(rho, np.diag(probs))
    want = _to_basis(_pack(pauli_channel_dense(n, probs, rho)), n)
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)
    # a diagonal chi is the same pass, real or complex
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
        # the identity chi, an empty channel list's, leaves the state as it is
        got = _pauli_channel_apply(rho, _IDENTITY_CHI)
        assert np.array_equal(got, _to_basis(_pack(rho), n)), n


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
    # the partial traces keeping a keep x keep block
    m = random_complex_matrix(8, 7)
    lead = partial_trace_leading(m, 8 // keep)
    trail = partial_trace_trailing(m, 8 // keep)
    assert np.allclose(lead, ptrace_leading_direct(m, 8 // keep), atol=1e-13)
    assert np.allclose(trail, ptrace_trailing_direct(m, 8 // keep), atol=1e-13)


def test_frob_dist_matches_numpy_norm():
    a = random_complex_matrix(6, 8)
    b = random_complex_matrix(6, 9)
    got = frobenius_distance(a, b)
    assert got == pytest.approx(float(np.linalg.norm(a - b)), rel=1e-13)
    assert frobenius_distance(a, a.copy()) == 0.0


def _kron_cases(n, seed):
    """(a, r) pairs for kron_dist at n: a 2x2 and (n >= 2) a 4x4 a, each with
    a random r, and each again with its odd rows zero, as a classical
    ancilla's are (steps whose rows of a are all zero skip the product)."""
    cases = []
    for na in (2, 4)[: min(n, 2)]:
        a = random_complex_matrix(na, seed + na)
        r = random_complex_matrix((1 << n) // na, seed + na + 1)
        cases.append((a, r))
    return cases + [(np.where(np.arange(len(a))[:, None] % 2, 0, a), r) for a, r in cases]


def test_kron_dist_against_kron_oracle(monkeypatch):
    for n in range(1, 9):
        dim = 1 << n
        d = random_complex_matrix(dim, n + 90)
        for a, r in _kron_cases(n, n + 91):
            want = frobenius_distance(d, np.kron(a, r))
            got = _checked(kernels.kron_dist, d, a, r)
            assert got == pytest.approx(want, rel=1e-12), n
            assert kernels.kron_dist(np.kron(a, r), a, r) == 0.0, n
    # steps of several whole row blocks i, the last one shorter: 3 of the
    # four blocks of 4 rows of d at n = 4, then 1
    n, dim = 4, 16
    monkeypatch.setattr(kernels, "_TILE_BYTES", 2 * 48 * dim * 12)
    d = random_complex_matrix(dim, 99)
    for a, r in _kron_cases(n, 100)[1::2]:
        got = _checked(kernels.kron_dist, d, a, r)
        assert got == pytest.approx(frobenius_distance(d, np.kron(a, r)), rel=1e-12)
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
            want = frobenius_distance(d, np.kron(ia, r))
            assert kernels.kron_dist(d, ia, r) == pytest.approx(want, rel=1e-12), n


def test_real_kernels_keep_float64_and_the_rest_take_complex():
    rng = np.random.default_rng(29)
    m = rng.normal(size=(16, 16))
    perm = rng.permutation(16)
    word = _cnot_word(4, rng)
    circuit = _hadamard_circuit(4, word, 2, Circuit(4, word.ops[::-1]))
    for got, want in (
        (kernels.gather_conjugate(m, perm), kernels.gather_conjugate(m.astype(complex), perm)),
        (circuit_conjugate(circuit, m), circuit_conjugate(circuit, m.astype(complex))),
    ):
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
    # the partial traces of a float64 matrix are float64 too
    assert partial_trace_leading(m, 4).dtype == np.float64
    assert partial_trace_trailing(m, 4).dtype == np.float64
    # integer (int16 included) and float32 input still become complex128
    ints = np.arange(256).reshape(16, 16)
    for other in (m.astype(np.float32), ints, ints.astype(np.int16)):
        assert kernels.gather_conjugate(other, perm).dtype == np.complex128
        assert circuit_conjugate(_hadamard_circuit(4, word, 2, None), other).dtype == np.complex128


def test_wrappers_accept_noncontiguous_input():
    m = random_complex_matrix(8, 13)
    view = m[::2, ::2]
    direct = frobenius_distance(np.ascontiguousarray(view), np.zeros((4, 4)))
    assert frobenius_distance(view, np.zeros((4, 4))) == direct
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


# _TILE_BYTES = 16*dim*k, k rows of the matrix, so a step takes k // 6
# rows of gather_conjugate, frobenius_distance and kron_dist (at least 1).
# kron_dist keeps a step within one block of dim / A rows of d (A = 2 or 4,
# the size of its a) while the step is shorter than the block.  k = None:
# the default tile, one step per matrix; k = 1 and 6: one row per step;
# k = 15: 2 rows; k = 30: 5 rows; k = 36: 6 rows; k = 48: 8 rows.  The
# steps of 5 and 6 leave an uneven last step at every dim they run at, and
# kron_dist's 5 rows one in each of its blocks (8 to 32 rows at n = 5 and
# 6).  The gather takes twice the rows on a float64 matrix.
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
    kron_cases = _kron_cases(n, n + 50)
    whole = {
        "dist": frobenius_distance(m, rho),
        "kron": [kernels.kron_dist(m, a, r) for a, r in kron_cases],
        "real_kron": [kernels.kron_dist(real, a, r) for a, r in real_kron],
        "trial": [kernels.trial_pass(*args) for args in _trial_pass_cases(n)],
    }
    if k is not None:
        monkeypatch.setattr(kernels, "_TILE_BYTES", 16 * dim * k)
        assert m.nbytes > kernels._TILE_BYTES
    p = permutation_matrix(perm)
    got = _checked(kernels.gather_conjugate, m, perm)
    assert np.allclose(got, p.conj().T @ m @ p, atol=1e-13)
    # entries only move: the gather is the whole-array fancy index, bit for
    # bit, in either dtype
    for x in (m, real):
        got = _checked(kernels.gather_conjugate, x, perm)
        assert got.dtype == x.dtype and np.array_equal(got, x[np.ix_(perm, perm)])
    assert _checked(frobenius_distance, m, rho) == pytest.approx(whole["dist"], rel=1e-12)
    assert _checked(frobenius_distance, m, m.copy()) == 0.0
    for (a, r), dist in zip(kron_cases, whole["kron"]):
        assert _checked(kernels.kron_dist, m, a, r) == pytest.approx(dist, rel=1e-12)
        assert kernels.kron_dist(np.kron(a, r), a, r) == 0.0
    for (a, r), dist in zip(real_kron, whole["real_kron"]):
        assert _checked(kernels.kron_dist, real, a, r) == pytest.approx(dist, rel=1e-12)
        assert kernels.kron_dist(np.kron(a, r), a, r) == 0.0
    # the trial pass's channel sums are BLAS dot products, whose rounding
    # may follow the product's width: equal to within rounding; the
    # identity chi's sums add exact zeros, so it only builds and moves
    # entries, equal at every width
    for args, want in zip(_trial_pass_cases(n), whole["trial"]):
        got = _checked(kernels.trial_pass, *args)
        if args[2] is _IDENTITY_CHI:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=0.0, atol=1e-15 * np.abs(want).max())


def _trial_pass_cases(n):
    """(a, p, chi, perm) for kernels.trial_pass at n: a complex and a real
    ancilla of the trial's size (2 for odd n, 4 for even), a random chi,
    a Pauli channel's and the identity; seeded by n, so every call gives
    the same cases."""
    draw = np.random.default_rng(n + 500)
    na = 2 if n % 2 else 4
    nr = (1 << n) // na
    a = random_complex_matrix(na, n + 501)
    a = a + a.conj().T
    p = _pack(_hermitian(n, n + 502)[:nr, :nr])
    perm = draw.permutation(1 << n)
    chis = (_random_chi(draw), np.diag(draw.dirichlet(np.ones(4))), _IDENTITY_CHI)
    return [(x, p, chi, perm) for x in (a, a.real) for chi in chis]


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
        assert _peak_bytes(kernels.gather_conjugate, m, perm) < state + scratch, n
        # no output matrix: scratch only
        assert _peak_bytes(frobenius_distance, m, 2 * m) < scratch, n
        for a, r in _kron_cases(n, 62 + n):
            assert _peak_bytes(kernels.kron_dist, m, a, r) < scratch, n
        # a float64 matrix: a float64 output, half a state
        real = m.real.copy()
        assert _peak_bytes(kernels.gather_conjugate, real, perm) < state // 2 + scratch, n
        r = real[: dim // 4, : dim // 4].copy()
        assert _peak_bytes(kernels.kron_dist, real, real[:4, :4], r) < scratch, n


# Each kernel's positional parameters, as callers (and the benchmark's
# per-kernel byte counts, which bind these names) use them.
KERNEL_SIGNATURES = {
    "gather_conjugate": ("m", "perm"),
    "trial_pass": ("a", "p", "chi", "perm"),
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
    """m in the channel basis: entry (i, k) moves to (B[i], B[k]), for B
    the oracles' bit formula (oracles.channel_basis_perm)."""
    inv = np.argsort(oracles.channel_basis_perm(n))
    return m[np.ix_(inv, inv)]


@pytest.mark.parametrize("n", range(1, 9))
def test_channel_basis_carries_x_n_and_z_n_to_the_leading_qubits(n):
    b = channel_basis(n).table()
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
            got = _checked(pauli_channel_basis_packed, m, chi)
            assert got.dtype == np.float64
            want = _to_basis(_pack(chi_channel(rho, chi)), n)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), n
        chi = np.diag(rng.dirichlet(np.ones(4)))
        # chi is a 4x4 process matrix: its diagonal alone is rejected
        with pytest.raises(DimensionMismatch):
            pauli_channel_basis_packed(m, np.diagonal(chi))
        # a packed state is real: a complex one is rejected, not cast
        with pytest.raises(DimensionMismatch):
            pauli_channel_basis_packed(m + 0.25j, chi)
    # and a register of qubits: a dim that is not a power of two has no
    # leading qubits to act on
    for dim in (6, 12):
        with pytest.raises(DimensionMismatch):
            pauli_channel_basis_packed(np.eye(dim), chi)


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("k", [1, 5, 30])
def test_pauli_channel_basis_packed_is_tile_size_independent(monkeypatch, n, k):
    # k rows of a float64 matrix per half tile, at most; transposed copies of
    # 1, 3 and the default 64 columns.  The weighted sums are BLAS dot
    # products, whose rounding may follow the product's width
    rng = np.random.default_rng(n * 7 + k)
    m = _to_basis(_pack(_hermitian(n, n + 130)), n)
    chis = [_random_chi(rng), np.diag(rng.dirichlet(np.ones(4)))]
    whole = [pauli_channel_basis_packed(m, chi) for chi in chis]
    dim = 1 << n
    monkeypatch.setattr(kernels, "_TILE_BYTES", 16 * dim * k)
    for cols in (1, 3, 64):
        monkeypatch.setattr(oracles, "_TRANSPOSE_COLS", cols)
        for chi, want in zip(chis, whole):
            got = _checked(pauli_channel_basis_packed, m, chi)
            assert np.allclose(got, want, rtol=0.0, atol=1e-15 * np.abs(want).max())


def test_pauli_channel_basis_packed_holds_one_output_plus_tile_scratch():
    scratch = kernels._TILE_BYTES // 2
    for n in (8, 9, 10):
        m = _pack(_hermitian(n, n + 140))
        for chi in (_random_chi(np.random.default_rng(n)), np.diag([0.4, 0.3, 0.2, 0.1])):
            assert _peak_bytes(pauli_channel_basis_packed, m, chi) < m.nbytes + scratch


def _four_stages(a, p, chi, perm):
    """trial_pass's stages apart, a whole array each: pack_kron, the gather
    by perm, pauli_channel_basis_packed and the gather by perm's inverse."""
    state = kernels.gather_conjugate(pack_kron(a, p), perm)
    state = pauli_channel_basis_packed(state, chi)
    return kernels.gather_conjugate(state, np.argsort(perm))


def _signed_zero_ancillas(na):
    """Hermitian ancillas with exact zeros, negative entries and zero
    imaginary parts off the diagonal, so that products of +-0.0 occur."""
    a = np.zeros((na, na), dtype=complex)
    a[0, 0] = -1.0
    if na > 1:
        a[0, 1], a[1, 0] = 0.5j, -0.5j
        a[na - 1, na - 1] = 0.25
    b = np.diag(-np.arange(na, dtype=float)).astype(complex)
    b[0, na - 1] = b[na - 1, 0] = -0.5
    return a, b


# _TILE_BYTES = 16*dim*k: k = 1 and 5 give one row per step and an uneven
# last step of the no-channel build; k = 30 a few rows per step.  n = 1..7
# covers every phase of Y_n and both parities
@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("k", [None, 1, 5, 30])
def test_trial_pass_is_the_four_stage_pipeline_bit_for_bit(monkeypatch, n, k):
    # the same step rule for the channel product, so the same BLAS shapes:
    # the output equals the four stages apart to the last bit, the signs of
    # zeros included, at every tile size, for every ancilla size that
    # divides the dim
    dim = 1 << n
    rng = np.random.default_rng(n * 13 + (k or 0))
    if k is not None:
        monkeypatch.setattr(kernels, "_TILE_BYTES", 16 * dim * k)
    chis = [_random_chi(rng), np.diag(rng.dirichlet(np.ones(4))), _IDENTITY_CHI]
    chis += _PARTLY_ZERO_CHI[2:]
    for na in (1, 2, 4)[: n + 1]:
        nr = dim // na
        h = random_complex_matrix(na, n + 510)
        rho = _hermitian(n, n + 511)[:nr, :nr]
        p = _pack(rho)
        p[0, :] = 0.0  # zeros, so that the product holds signed zeros
        ancillas = [h + h.conj().T, (h + h.conj().T).real, *_signed_zero_ancillas(na)]
        perm = rng.permutation(dim)
        for a in ancillas:
            for chi in chis:
                got = _checked(kernels.trial_pass, a, p, chi, perm)
                want = _four_stages(a, p, chi, perm)
                assert got.dtype == np.float64
                assert np.array_equal(got, want), (na, chi)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (na, chi)


def test_trial_pass_in_the_standard_basis_is_the_dense_kraus_sum():
    # with the table that enters channel_basis, the pass is the channel on
    # the state in the standard basis, and with an ancilla the channel on
    # a ox rho
    rng = np.random.default_rng(47)
    for n in range(1, 8):
        into_basis = channel_basis(n).inverse().table()
        for na in (1, 2, 4)[: n + 1]:
            a = random_complex_matrix(na, n + 520)
            a = a + a.conj().T
            rho = _hermitian(n, n + 521)[: (1 << n) // na, : (1 << n) // na]
            for chi in [_random_chi(rng)] + _PARTLY_ZERO_CHI:
                got = kernels.trial_pass(a, _pack(rho), chi, into_basis)
                want = _pack(_chi_dense(chi, np.kron(a, rho)))
                assert np.allclose(got, want, rtol=0.0, atol=1e-11), (n, na)


def test_trial_pass_rejects_what_it_cannot_pass():
    p = _pack(_hermitian(3, 530))
    a = np.eye(2)
    perm = np.arange(16)
    pauli = np.diag([0.4, 0.3, 0.2, 0.1])
    identity = _IDENTITY_CHI
    assert kernels.trial_pass(a, p, pauli, perm).shape == (16, 16)
    for bad in (
        # a table that is not a permutation: it repeats an index, is out of
        # range or of the wrong length
        (a, p, identity, np.r_[0, 0, perm[2:]]),
        (a, p, pauli, np.r_[perm[:-1], 16]),
        (a, p, identity, perm[:-1]),
        # a packed state is real: a complex one is rejected, not cast
        (a, p + 0.25j, identity, perm),
        (a, p + 0.25j, pauli, perm),
        # dims whose product is not a power of two, or not square
        (np.eye(3), p, identity, np.arange(24)),
        (np.eye(1), np.eye(6), pauli, np.arange(6)),
        (np.ones((2, 1)), p, identity, perm),
        (a, np.ones((8, 4)), identity, perm),
        # a channel needs a qubit to act on, the identity's too
        (np.ones((1, 1)), np.ones((1, 1)), pauli, [0]),
        (np.ones((1, 1)), np.ones((1, 1)), identity, [0]),
        # chi is a 4x4 process matrix, not the probabilities on its diagonal
        (a, p, (0.4, 0.3, 0.2, 0.1), perm),
        (a, p, np.eye(3), perm),
    ):
        with pytest.raises(DimensionMismatch):
            kernels.trial_pass(*bad)


def test_trial_pass_holds_one_output_plus_tile_scratch():
    # one output, its step buffers within half a tile, p^T where a term
    # reads it and numpy's iterator buffers for a broadcast product (8192
    # entries an operand; 132 KiB measured); no other array of the
    # output's size
    scratch = kernels._TILE_BYTES // 2
    for n in (8, 9, 10):
        for a, p, chi, perm in _trial_pass_cases(n):
            out = 8 * 4**n
            bound = out + scratch + p.nbytes + 256 * 1024
            assert _peak_bytes(kernels.trial_pass, a, p, chi, perm) < bound, (n, chi)


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
            assert got == pytest.approx(frobenius_distance(d, product), rel=1e-12), n
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
    assert kernels.kron_dist(d, a, r) == pytest.approx(frobenius_distance(d, product), rel=1e-12)
    assert kernels.kron_dist(product, a, r) == 0.0


def _zero_row_ancillas(rng, na):
    """(label, terms) for kron_dist, the one or two na x na terms of an
    ancilla: rows zero in every term (a classical ancilla's, and with a
    second term), a row zero in the first term only, every row zero, and
    none."""
    a1, a2 = rng.normal(size=(2, na, na))
    odd = (np.arange(na) % 2 == 1)[:, None]
    return [
        ("one term, odd rows zero", [np.where(odd, 0.0, a1)]),
        ("two terms, odd rows zero", [np.where(odd, 0.0, a1), np.where(odd, 0.0, a2)]),
        ("a row zero in one term", [np.where(odd, 0.0, a1), a2]),
        ("all zero", [np.zeros((na, na))]),
        ("no zero row", [a1, a2]),
    ]


# _TILE_BYTES for kron_dist steps of `pairs` rows (i, j) of d: a step takes
# 1 + 2 * terms rows of dim float64 entries per row of d.  With nr rows of
# d per ancilla row, 1 and nr // 2 pairs stay within one ancilla row, nr
# is one whole row, and 3 * nr cover several, the last step shorter.
@pytest.mark.parametrize("pairs", [None, "one", "half", "row", "rows"])
@pytest.mark.parametrize("n, na", [(3, 2), (4, 2), (4, 4), (6, 4)])
def test_kron_dist_sums_zero_ancilla_rows_from_d(monkeypatch, n, na, pairs):
    dim = 1 << n
    nr = dim // na
    rng = np.random.default_rng(n * 10 + na)
    d = rng.normal(size=(dim, dim))
    r = rng.normal(size=(nr, nr))
    for label, terms in _zero_row_ancillas(rng, na):
        if pairs is not None:
            steps = {"one": 1, "half": nr // 2, "row": nr, "rows": 3 * nr}[pairs]
            monkeypatch.setattr(kernels, "_TILE_BYTES", 2 * steps * (1 + 2 * len(terms)) * 8 * dim)
        a = terms[0] if len(terms) == 1 else np.stack(terms)
        product = sum(np.kron(t, m) for t, m in zip(terms, (r, r.T)))
        # a product gives exactly 0.0; any other d matches the dense oracle
        assert kernels.kron_dist(product, a, r) == 0.0, label
        got = _checked(kernels.kron_dist, d, a, r)
        if len(terms) == 1:
            want = oracles.kron_distance(d, a, r)
        else:
            want = float(np.linalg.norm(d - product))
        assert got == pytest.approx(want, rel=1e-15, abs=0.0), label


def test_ptrace_kernels_sum_float64_in_float64():
    m = np.random.default_rng(44).normal(size=(16, 16))
    for fn in (partial_trace_leading, partial_trace_trailing):
        got = fn(m, 4)
        assert got.dtype == np.float64
        assert np.allclose(got, fn(m.astype(complex), 4), rtol=0.0, atol=1e-15)
    # no complex copy of the input: the peak is the 4x4 output
    assert _peak_bytes(partial_trace_leading, m, 4) < m.nbytes


# out is the array a kernel returns: each allocates its own.  _TILE_BYTES =
# 16*dim*k as in test_kernels_are_tile_size_independent: k = 1 and 3 leave
# one row and an uneven last step.
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [None, 1, 3])
def test_into_out_kernels_return_out_and_match_the_allocating_forms(monkeypatch, n, k):
    # the gather returns a new array of its input's dtype, the whole-array
    # fancy index bit for bit
    dim = 1 << n
    rng = np.random.default_rng(n * 11 + (k or 0))
    perm = rng.permutation(dim)
    m = random_complex_matrix(dim, n + 150)
    if k is not None:
        monkeypatch.setattr(kernels, "_TILE_BYTES", 16 * dim * k)
    for x in (m, m.real.copy()):
        got = _checked(kernels.gather_conjugate, x, perm)
        assert got.dtype == x.dtype and not np.shares_memory(got, x)
        assert np.array_equal(got, x[np.ix_(perm, perm)])


def _kernel_calls():
    """(name, call(m, table)) for the gather, a circuit_conjugate of a
    Hadamard between two CNOT words, and the oracle channel pass; only the
    gather takes the table."""
    chi = np.diag([0.4, 0.3, 0.2, 0.1])
    word = _cnot_word(4, np.random.default_rng(172))
    circuit = _hadamard_circuit(4, word, 1, word)
    return [
        ("gather", kernels.gather_conjugate),
        ("circuit", lambda m, t: circuit_conjugate(circuit, m)),
        ("channel", lambda m, t: pauli_channel_basis_packed(m, chi)),
    ]


@pytest.mark.parametrize("index", range(3))
def test_into_out_kernels_reject_a_bad_out(index):
    # a bad out is one that shares the input's memory: each kernel writes a
    # new array, even for an input it reads as it is (C-contiguous
    # float64), and leaves an input it rejects as it was
    name, call = _kernel_calls()[index]
    m = _pack(_hermitian(4, 171))
    kept = m.copy()
    perm = np.random.default_rng(170).permutation(16)
    got = call(m, perm)
    assert got.shape == m.shape and not np.shares_memory(got, m), name
    clipped = np.arange(16)
    clipped[3] = 16
    rejected = [(m[:, :8], perm)]
    rejected.append({"gather": (m, clipped), "circuit": (m[:8, :8], perm)}.get(name, (m + 0j, perm)))
    for bad, table in rejected:
        with pytest.raises(DimensionMismatch):
            call(bad, table)
    assert np.array_equal(m, kept), name


def test_gather_conjugate_rejects_a_table_it_would_clip():
    m = np.arange(16.0).reshape(4, 4)
    for perm in ([0, 1, 2, 9], [0, 1, -1, 2], [0, 1, 2], [0, 1, 2, 3, 0]):
        with pytest.raises(DimensionMismatch):
            kernels.gather_conjugate(m, perm)
    # a float table, which the cast to intp would truncate ([0.5, 1, 2, 3]
    # to the identity): rejected by its dtype, even where its values are
    # whole
    for perm in ([0.5, 1, 2, 3], np.arange(4.0), np.array([0, 1, 2, 3], dtype=bool)):
        with pytest.raises(DimensionMismatch):
            kernels.gather_conjugate(m, perm)
    # a dim that is not a power of two, or a matrix that is not square, is
    # not a register of qubits
    for bad in (np.eye(6), np.ones((16, 8)), np.arange(4.0)):
        with pytest.raises(DimensionMismatch):
            kernels.gather_conjugate(bad, np.arange(len(bad)))
    # a rejected table leaves the input as it was
    kept = m.copy()
    with pytest.raises(DimensionMismatch):
        kernels.gather_conjugate(m, [0, 1, 2, 9])
    assert np.array_equal(m, kept)


def test_gather_and_ptrace_kernels_reject_wrong_shapes():
    # a non-square or 1-d m is not a state, and a traced dim that does not
    # divide the dim is not a factor of it: each is DimensionMismatch, not
    # numpy's ValueError from take's output or from a reshape
    for bad in (np.ones((16, 8)), np.arange(16.0)):
        with pytest.raises(DimensionMismatch):
            kernels.gather_conjugate(bad, np.arange(16))
    m = np.arange(64.0).reshape(8, 8)
    for d in (3, 5, 16, 0):
        for fn in (partial_trace_leading, partial_trace_trailing):
            with pytest.raises(DimensionMismatch):
                fn(m, d)
    for fn in (partial_trace_leading, partial_trace_trailing):
        with pytest.raises(DimensionMismatch):
            fn(np.ones((8, 4)), 2)
