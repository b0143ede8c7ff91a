from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec import (
    BadQubitCount,
    DimensionMismatch,
    NotTracePreserving,
    PauliChannel,
    SpanChannel,
    classical_state,
    completeness_deviation,
    kernels,
    random_density,
    run_trial,
)
from corrqec.channels import checked_sequence_chi, chi_matrix, pauli_products, sequence_chi

from oracles import (
    apply_channels,
    compose_pauli_probs,
    is_density_matrix,
    kraus_apply,
    pauli_channel_dense,
    pauli_power,
    random_span_coeffs,
    span_kraus_dense,
)


def test_prob_validation():
    with pytest.raises(NotTracePreserving):
        PauliChannel(2, (0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        PauliChannel(2, (1.2, -0.2, 0.0, 0.0))
    with pytest.raises(ValueError):
        PauliChannel(2, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="4 real numbers"):
        PauliChannel(3, 5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            PauliChannel(3, (bad, 0.0, 0.0, 1.0))
    # near-1 sums are normalized rather than rejected
    ch = PauliChannel(2, (0.25 + 2e-10, 0.25, 0.25, 0.25))
    assert abs(sum(ch.probs) - 1.0) < 1e-15


def test_identity_channel():
    rho = random_density(4, 0)
    ch = PauliChannel(2, (1.0, 0.0, 0.0, 0.0))
    assert np.array_equal(apply_channels([ch], rho), rho)


def test_phase_flip_on_plus_state():
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    ch = PauliChannel(1, (0.0, 0.0, 0.0, 1.0))
    assert np.allclose(apply_channels([ch], plus), minus, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_channel_matches_dense_kraus_oracle(n):
    rng = np.random.default_rng(n)
    probs = tuple(rng.dirichlet(np.ones(4)))
    rho = random_density(1 << n, n + 50)
    got = apply_channels([PauliChannel(n, probs)], rho)
    want = pauli_channel_dense(n, probs, rho)
    assert np.allclose(got, want, atol=1e-13)
    assert is_density_matrix(got)


def test_dimension_mismatch():
    ch = PauliChannel(3, (0.7, 0.1, 0.1, 0.1))
    with pytest.raises(DimensionMismatch):
        apply_channels([ch], random_density(4, 1))


def test_span_identity_channel():
    rho = random_density(8, 2)
    ch = SpanChannel(3, ((1.0, 0.0, 0.0, 0.0),))
    assert np.allclose(apply_channels([ch], rho), rho, atol=1e-15)


def test_span_reduces_to_pauli_for_sqrt_coeffs():
    probs = (0.4, 0.3, 0.2, 0.1)
    rows = tuple(
        tuple(np.sqrt(p) if i == k else 0.0 for i in range(4))
        for k, p in enumerate(probs)
    )
    rho = random_density(8, 3)
    a = apply_channels([SpanChannel(3, rows)], rho)
    b = apply_channels([PauliChannel(3, probs)], rho)
    assert np.allclose(a, b, atol=1e-13)


def test_span_rejects_non_trace_preserving():
    s = 1 / np.sqrt(2)
    with pytest.raises(NotTracePreserving):
        SpanChannel(2, ((s, s, 0.0, 0.0),))
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        with pytest.raises(ValueError):
            SpanChannel(3, ((bad, 0.0, 0.0, 0.0),))
    for bad in (5, (5,), (), ((1.0, 0.0, 0.0),)):
        with pytest.raises(ValueError, match="4-tuples"):
            SpanChannel(3, bad)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_completeness_deviation_matches_dense(n):
    rng = np.random.default_rng(n + 7)
    coeffs = tuple(
        tuple(complex(*rng.normal(scale=0.3, size=2)) for _ in range(4))
        for _ in range(2)
    )
    dense = span_kraus_dense(n, coeffs)
    acc = sum(f.conj().T @ f for f in dense)
    want = float(np.linalg.norm(acc - np.eye(1 << n)))
    got = completeness_deviation(n, coeffs)
    assert got == pytest.approx(want, abs=1e-10)


def test_completeness_deviation_is_finite_where_2_to_the_n_is_not():
    # 2**1100 is past the float range, but the deviation sqrt(2**n x) is
    # 2**(n/2) sqrt(x): the n = 4 value (n mod 4 fixes the products' phases)
    # scaled by 2**548, exactly
    n = 1100
    for exact in (((1, 0, 0, 0),), ((0.5, 0.5, 0, 0), (0.5, -0.5, 0, 0))):
        assert completeness_deviation(n, exact) == 0.0
        SpanChannel(n, exact)
    inexact = ((1, 1e-3, 0, 0),)
    got = completeness_deviation(n, inexact)
    assert got == math.ldexp(completeness_deviation(4, inexact), 548)
    assert math.isfinite(got) and got > 0
    with pytest.raises(NotTracePreserving):
        SpanChannel(n, inexact)


def test_span_accepts_normalised_channels_at_large_n():
    # the Frobenius norm of sum F_dag F - I is 2**(n/2) times the rounding
    # of cos t and sin t, so the check reads it relative to ||I|| (a fixed
    # bound on the norm itself refused 5 of these at n = 40, 15 at n = 100)
    rng = np.random.default_rng(1)
    for n in (10, 40, 100):
        for t in rng.uniform(0, 2 * np.pi, size=50):
            SpanChannel(n, ((np.cos(t), 0, 0, 0), (0, np.sin(t), 0, 0)))


@pytest.mark.parametrize("n", [1, 2, 10, 100, 1100])
def test_span_rejects_weights_summing_to_one_plus_1e_9_at_every_n(n):
    # sum F_dag F = (a + b) I for a I and b X_n weights: 1e-9 off is ten
    # times the tolerance at every n, the relative deviation being n-free
    a = 0.3
    with pytest.raises(NotTracePreserving):
        SpanChannel(n, ((math.sqrt(a), 0, 0, 0), (0, math.sqrt(1 - a + 1e-9), 0, 0)))
    SpanChannel(n, ((math.sqrt(a), 0, 0, 0), (0, math.sqrt(1 - a), 0, 0)))


def test_span_rejects_coefficients_whose_gram_is_not_finite():
    # 1e200 squared overflows, and inf times a zero product is NaN: a
    # deviation that is no number is refused, not read as within tolerance
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotTracePreserving):
            SpanChannel(3, ((1e200, 0.0, 0.0, 0.0),))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_span_channel_matches_dense_kraus_oracle(n):
    coeffs = random_span_coeffs(n, seed=n + 30, terms=3)
    rho = random_density(1 << n, n + 60)
    got = apply_channels([SpanChannel(n, coeffs)], rho)
    want = np.zeros_like(rho)
    for f in span_kraus_dense(n, coeffs):
        want += f @ rho @ f.conj().T
    assert np.allclose(got, want, atol=1e-12)
    assert is_density_matrix(got)


def test_sequence_of_two_pauli_channels_convolves():
    n = 3
    p = (0.5, 0.2, 0.2, 0.1)
    q = (0.6, 0.1, 0.1, 0.2)
    rho = random_density(1 << n, 4)
    seq = apply_channels([PauliChannel(n, p), PauliChannel(n, q)], rho)
    single = apply_channels([PauliChannel(n, compose_pauli_probs(p, q))], rho)
    assert np.allclose(seq, single, atol=1e-13)


def test_sequence_repeats():
    n = 2
    ch = PauliChannel(n, (0.7, 0.1, 0.1, 0.1))
    rho = random_density(4, 5)
    twice = apply_channels([ch], rho, repeats=2)
    manual = apply_channels([ch], apply_channels([ch], rho))
    assert np.allclose(twice, manual, atol=1e-14)
    assert np.array_equal(
        apply_channels([PauliChannel(n, (1, 0, 0, 0))], rho), rho
    )


def test_sequence_rejects_mixed_sizes():
    with pytest.raises(DimensionMismatch):
        apply_channels(
            [PauliChannel(2, (1, 0, 0, 0)), PauliChannel(3, (1, 0, 0, 0))],
            random_density(4, 6),
        )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_pauli_channels_commute(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    p = tuple(rng.dirichlet(np.ones(4)))
    q = tuple(rng.dirichlet(np.ones(4)))
    rho = random_density(1 << n, seed)
    a = apply_channels([PauliChannel(n, p), PauliChannel(n, q)], rho)
    b = apply_channels([PauliChannel(n, q), PauliChannel(n, p)], rho)
    assert np.allclose(a, b, atol=1e-12)


def test_pauli_channel_is_affine():
    n = 2
    ch = PauliChannel(n, (0.4, 0.3, 0.2, 0.1))
    r1 = random_density(4, 8)
    r2 = random_density(4, 9)
    lam = 0.3
    mixed = apply_channels([ch], lam * r1 + (1 - lam) * r2)
    parts = lam * apply_channels([ch], r1) + (1 - lam) * apply_channels([ch], r2)
    assert np.allclose(mixed, parts, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_products_match_dense(n):
    basis = [pauli_power(axis, n) for axis in "IXYZ"]
    t = pauli_products(n)
    for a in range(4):
        for b in range(4):
            want = basis[a] @ basis[b]
            got = sum(t[a, c, b] * basis[c] for c in range(4))
            assert np.array_equal(got, want)


def _random_channel(rng, n: int):
    if rng.random() < 0.5:
        return PauliChannel(n, tuple(rng.dirichlet(np.ones(4))))
    terms = int(rng.integers(1, 6))
    return SpanChannel(n, random_span_coeffs(n, int(rng.integers(1 << 31)), terms))


def _sequential_dense(channels, rho, repeats):
    """The channel list applied one dense Kraus pass per channel per repeat."""
    for _ in range(repeats):
        for ch in channels:
            if isinstance(ch, PauliChannel):
                rho = pauli_channel_dense(ch.n, ch.probs, rho)
            else:
                rho = kraus_apply(span_kraus_dense(ch.n, ch.kraus_coeffs), rho)
    return rho


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_composed_sequence_matches_sequential_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    channels = [_random_channel(rng, n) for _ in range(int(rng.integers(1, 5)))]
    repeats = int(rng.integers(1, 5))
    rho = random_density(1 << n, seed)
    got = apply_channels(channels, rho, repeats)
    want = _sequential_dense(channels, rho, repeats)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def _count_channel_passes(monkeypatch) -> list:
    """Record each call of the trial's one dense pass, kernels.trial_pass,
    as its (a, p, chi, perm, output)."""
    calls = []
    real = kernels.trial_pass

    def counted(a, p, chi, perm):
        calls.append((a, p.copy(), chi, perm, real(a, p, chi, perm)))
        return calls[-1][-1]

    monkeypatch.setattr(kernels, "trial_pass", counted)
    return calls


@pytest.mark.parametrize("length,repeats", [(0, 1), (1, 1), (1, 7), (3, 1), (4, 1000)])
def test_pauli_only_list_is_one_pauli_pass(monkeypatch, length, repeats):
    """A trial makes one pass of its state for a list of Pauli channels, at
    any repeat count, by the list's composed chi, the identity for an
    empty list."""
    n = 4
    rng = np.random.default_rng(length + repeats)
    channels = [PauliChannel(n, tuple(rng.dirichlet(np.ones(4)))) for _ in range(length)]
    real = kernels.trial_pass
    calls = _count_channel_passes(monkeypatch)
    out = run_trial(n, classical_state(0, 1), random_density(4, 1), channels, repeats)
    assert out.hybrid_exact is True
    assert len(calls) == 1
    for a, p, chi, perm, got in calls:
        if not channels:
            assert np.array_equal(chi, np.diag([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(chi, sequence_chi(channels, repeats))
        # the same output as the real diagonal chi of the probabilities
        want = real(a, p, np.diag(np.diagonal(chi).real), perm)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(8))
def test_list_with_a_span_channel_makes_at_most_four_conjugations(monkeypatch, seed):
    """Any list holding a span channel, at any repeat count, is one pass of
    the trial's state: exactly one kernel call, where an eigen-split of chi
    would make up to four banded conjugations."""
    n = 3
    rng = np.random.default_rng(seed)
    channels = [_random_channel(rng, n) for _ in range(int(rng.integers(0, 6)))]
    channels.insert(
        int(rng.integers(len(channels) + 1)),
        SpanChannel(n, random_span_coeffs(n, seed, terms=int(rng.integers(1, 7)))),
    )
    repeats = int(rng.choice([1, 2, 3, 10**6]))
    calls = _count_channel_passes(monkeypatch)
    run_trial(n, random_density(2, seed), random_density(4, seed + 1), channels, repeats)
    assert len(calls) == 1
    assert np.array_equal(calls[0][2], sequence_chi(channels, repeats))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_one_channel_applied_once_is_the_direct_applier(n):
    """A one-channel list, once, is the channel's own chi, and a Pauli
    channel's pass by that chi is its pass by the real diagonal matrix of
    its probabilities."""
    pauli = PauliChannel(n, (0.4, 0.3, 0.2, 0.1))
    span = SpanChannel(n, random_span_coeffs(n, n, terms=4))
    for ch in (pauli, span):
        want = chi_matrix(ch)
        assert np.array_equal(sequence_chi([ch], 1), want)
        assert np.array_equal(checked_sequence_chi([ch], (1 << n, 1 << n), 1), want)
    m = random_density(1 << n, n)
    m = m.real + m.imag
    identity = np.arange(1 << n)
    assert np.array_equal(
        kernels.trial_pass([[1.0]], m, chi_matrix(pauli), identity),
        kernels.trial_pass([[1.0]], m, np.diag(pauli.probs), identity),
    )


def test_pauli_channel_rejects_a_qubit_count_that_is_not_an_integer():
    for n in (2.5, 3.0, "3", None):
        with pytest.raises(BadQubitCount, match="not an integer"):
            PauliChannel(n, (1.0, 0.0, 0.0, 0.0))
    assert type(PauliChannel(np.int64(3), (1.0, 0.0, 0.0, 0.0)).n) is int


def test_span_channel_rejects_a_qubit_count_that_is_not_an_integer():
    for n in (2.5, 3.0, "3", None):
        with pytest.raises(BadQubitCount, match="not an integer"):
            SpanChannel(n, ((1.0, 0.0, 0.0, 0.0),))
    assert type(SpanChannel(np.int64(3), ((1.0, 0.0, 0.0, 0.0),)).n) is int


def test_completeness_deviation_rejects_what_the_channels_reject():
    # n = -3 read 0.0; a channel refuses it, and a float n, already
    for n in (2.5, 3.0, "3", None):
        with pytest.raises(BadQubitCount, match="not an integer"):
            completeness_deviation(n, ((1.0, 0.0, 0.0, 0.0),))
    for n in (0, -3):
        with pytest.raises(DimensionMismatch):
            completeness_deviation(n, ((1.0, 0.0, 0.0, 0.0),))
    assert completeness_deviation(np.int64(3), ((1.0, 0.0, 0.0, 0.0),)) == 0.0


def test_the_empty_list_is_the_identity_chi():
    # every channel list is one 4x4 chi, the empty one included, at any
    # repeat count, for a state of any n
    identity = np.diag([1.0, 0.0, 0.0, 0.0])
    for repeats in (1, 7, 10**6):
        assert np.array_equal(sequence_chi([], repeats), identity)
    for n in (1, 3, 4):
        assert np.array_equal(checked_sequence_chi([], (1 << n, 1 << n), 2), identity)
        rho = random_density(1 << n, n)
        assert np.array_equal(apply_channels([], rho), rho)
    with pytest.raises(ValueError, match="repeats"):
        checked_sequence_chi([], (8, 8), 0)
