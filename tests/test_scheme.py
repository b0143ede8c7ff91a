from __future__ import annotations

import dataclasses
import os
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from corrqec import (
    AncillaSizeError,
    BadQubitCount,
    Circuit,
    CorrQecError,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    PauliChannel,
    SpanChannel,
    build_pn,
    circuit_conjugate,
    classical_state,
    d_matrix,
    h_op,
    hybrid_sweep,
    predicted_ancilla,
    random_density,
    run_trial,
)
from corrqec import channels as channels_module
from corrqec import gates, kernels, scheme
from corrqec.kernels import _TILE_BYTES
from corrqec.scheme import TRIAL_PEAK_STATES
from corrqec.tensor import frobenius_distance, pack, packed_kron_distance, unpack
from corrqec.tensor import partial_trace_leading, partial_trace_trailing
from corrqec.tolerances import HERMITIAN_TOL, TRACE_TOL, TRIAL_TOL

from oracles import apply_channels, circuit_matrix, complex_trial, decode, encode, fresh_trial
from oracles import dyadic_density, induced_kraus, plain_ops, random_span_coeffs
from oracles import span_kraus_dense


def test_encode_decode_roundtrip():
    for n in [2, 3, 4, 5]:
        spec = build_pn(n)
        sigma = random_density(spec.ancilla_dim, n)
        rho = random_density((1 << n) // spec.ancilla_dim, n + 20)
        joint = np.kron(sigma, rho)
        encoded = encode(n, sigma, rho)
        assert abs(np.trace(encoded) - 1) < 1e-12
        assert np.allclose(decode(n, encoded), joint, atol=1e-13)


def test_encode_validation():
    # the trial checks the states it encodes against the encoder's sizes
    for sigma, rho, error in (
        (random_density(4, 0), random_density(2, 1), AncillaSizeError),
        (random_density(2, 0), random_density(8, 1), DimensionMismatch),
        (random_density(2, 0), random_density(4, 1)[:, :2], DimensionMismatch),
    ):
        with pytest.raises(error):
            run_trial(3, sigma, rho, [])


def test_predicted_ancilla_identity_channel():
    sigma = random_density(2, 3)
    ch = PauliChannel(3, (1, 0, 0, 0))
    assert np.allclose(predicted_ancilla(sigma, [ch], 1, "odd", 1), sigma, atol=1e-15)
    # an empty list leaves sigma as it is
    assert np.array_equal(predicted_ancilla(sigma, [], 3, "odd", 1), sigma)


def test_predicted_ancilla_classical_even_is_fixed():
    for i in (0, 1):
        for j in (0, 1):
            sigma = classical_state(i, j)
            ch = PauliChannel(4, (0.1, 0.2, 0.3, 0.4))
            out = predicted_ancilla(sigma, [ch], 1, "even", 1)
            assert np.allclose(out, sigma, atol=1e-15)


def test_predicted_ancilla_maximally_mixed_odd():
    sigma = np.eye(2, dtype=complex) / 2
    ch = PauliChannel(7, (0.25, 0.25, 0.25, 0.25))
    out = predicted_ancilla(sigma, [ch], 1, "odd", -1)
    assert np.allclose(out, sigma, atol=1e-15)


def test_predicted_ancilla_sign_is_irrelevant():
    sigma = random_density(2, 4)
    ch = PauliChannel(3, (0.4, 0.1, 0.3, 0.2))
    a = predicted_ancilla(sigma, [ch], 1, "odd", -1)
    b = predicted_ancilla(sigma, [ch], 1, "odd", 1)
    assert np.array_equal(a, b)


def test_predicted_ancilla_rejects_what_run_trial_rejects():
    probs = (0.4, 0.1, 0.3, 0.2)
    mixed = [PauliChannel(3, probs), PauliChannel(5, probs)]
    sigma = random_density(2, 6)
    with pytest.raises(DimensionMismatch):
        predicted_ancilla(sigma, mixed, 1, "odd", 1)
    with pytest.raises(DimensionMismatch):
        run_trial(3, sigma, random_density(4, 7), mixed)
    # run_trial takes the parity from n, so channels of the other parity
    # cannot reach it
    with pytest.raises(DimensionMismatch):
        predicted_ancilla(sigma, [PauliChannel(4, probs)], 1, "odd", 1)
    with pytest.raises(DimensionMismatch):
        predicted_ancilla(random_density(4, 9), [PauliChannel(3, probs)], 1, "even", 1)
    # a 4x4 sigma passes the shape check, so only the parity check refuses
    for parity in ("bogus", "Odd", None):
        with pytest.raises(ValueError, match="parity"):
            predicted_ancilla(random_density(4, 8), [PauliChannel(4, probs)], 1, parity, 1)
    for sign in (0, 2, -2, 0.5):
        with pytest.raises(ValueError, match="sign"):
            predicted_ancilla(sigma, [PauliChannel(3, probs)], 1, "odd", sign)


@pytest.mark.parametrize("repeats", [0, -1, 2.0])
def test_predicted_ancilla_rejects_bad_repeats_like_run_trial(repeats):
    sigma = random_density(2, 5)
    ch = PauliChannel(3, (0.4, 0.1, 0.3, 0.2))
    error = TypeError if isinstance(repeats, float) else ValueError
    with pytest.raises(error, match="repeats"):
        predicted_ancilla(sigma, [ch], repeats, "odd", 1)
    with pytest.raises(error, match="repeats"):
        run_trial(3, sigma, random_density(4, 6), [ch], repeats)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_induced_kraus_matches_dense_conjugation(n):
    # P_dag F P must equal (induced ancilla operator) ox I, per Kraus operator
    spec = build_pn(n)
    p = circuit_matrix(plain_ops(spec.circuit), n)
    coeffs = random_span_coeffs(n, seed=n + 70, terms=2)
    ch = SpanChannel(n, coeffs)
    dense_ops = span_kraus_dense(n, coeffs)
    induced = induced_kraus(ch, spec.parity, spec.sign)
    rest = (1 << n) // spec.ancilla_dim
    for f, g in zip(dense_ops, induced):
        assert np.allclose(
            p.conj().T @ f @ p, np.kron(g, np.eye(rest)), atol=1e-12
        )


def test_run_trial_odd_random():
    sigma = random_density(2, 5)
    rho = random_density(4, 6)
    out = run_trial(3, sigma, rho, [PauliChannel(3, (0.4, 0.3, 0.2, 0.1))])
    assert out.rho_residual < 1e-12
    assert out.ancilla_residual < 1e-12
    assert out.product_residual < 1e-12
    assert out.hybrid_exact is None


def test_run_trial_even_classical():
    rho = random_density(4, 7)
    out = run_trial(4, classical_state(1, 0), rho, [PauliChannel(4, (0, 0, 1, 0))])
    assert out.hybrid_exact is True
    assert out.rho_residual < 1e-12
    assert out.ancilla_residual < 1e-12
    assert np.allclose(out.ancilla_out, classical_state(1, 0), atol=1e-12)


def test_run_trial_even_random_sigma_has_no_hybrid_flag():
    out = run_trial(
        4, random_density(4, 8), random_density(4, 9),
        [PauliChannel(4, (0.7, 0.1, 0.1, 0.1))],
    )
    assert out.hybrid_exact is None
    assert out.rho_residual < 1e-12


def test_run_trial_channel_corners_give_predicted_product():
    # decoded state must equal (predicted ancilla) ox rho for each pure error
    n = 5
    spec = build_pn(n)
    sigma = random_density(2, 10)
    rho = random_density(16, 11)
    for corner in [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
        ch = PauliChannel(n, corner)
        decoded = decode(n, apply_channels([ch], encode(n, sigma, rho)))
        predicted = predicted_ancilla(sigma, [ch], 1, spec.parity, spec.sign)
        assert np.allclose(decoded, np.kron(predicted, rho), atol=1e-11)


def test_run_trial_span_sequence():
    n = 5
    sigma = random_density(2, 12)
    rho = random_density(16, 13)
    channels = [SpanChannel(n, random_span_coeffs(n, seed=s, terms=2)) for s in (1, 2, 3)]
    out = run_trial(n, sigma, rho, channels, repeats=2)
    assert out.rho_residual < 1e-10
    assert out.product_residual < 1e-10
    assert out.ancilla_residual < 1e-10


def test_run_trial_span_sequence_even_classical_preserved():
    n = 4
    rho = random_density(4, 14)
    channels = [SpanChannel(n, random_span_coeffs(n, seed=s, terms=2)) for s in (4, 5, 6)]
    out = run_trial(n, classical_state(0, 1), rho, channels, repeats=2)
    assert out.rho_residual < 1e-10
    assert np.allclose(out.ancilla_out, classical_state(0, 1), atol=1e-10)
    assert out.hybrid_exact is True


def test_run_trial_single_channel_argument():
    ch = PauliChannel(3, (0.6, 0.2, 0.1, 0.1))
    a = run_trial(3, random_density(2, 15), random_density(4, 16), ch)
    b = run_trial(3, random_density(2, 15), random_density(4, 16), [ch])
    assert a.rho_residual == b.rho_residual


def test_run_trial_rejects_n_past_physical_memory(monkeypatch):
    sigma, rho = random_density(4, 17), random_density(64, 18)
    small = (random_density(2, 19), random_density(4, 20))
    ch = PauliChannel(8, (0.7, 0.1, 0.1, 0.1))
    # report 2 MiB of physical memory; n=8 needs 3 matrices of 1 MiB
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 512}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    with pytest.raises(BadQubitCount, match="physical memory"):
        run_trial(8, sigma, rho, ch)
    out = run_trial(3, *small, PauliChannel(3, (0.7, 0.1, 0.1, 0.1)))
    assert out.rho_residual < 1e-12


@pytest.mark.parametrize("kind", ["pauli", "span"])
def test_run_trial_peak_memory_within_trial_peak_states(kind):
    n = 9
    sigma, rho = random_density(2, 21), random_density(256, 22)
    if kind == "pauli":
        channels = [PauliChannel(n, (0.4, 0.3, 0.2, 0.1))]
    else:
        c = np.sqrt(0.32)
        span = SpanChannel(n, ((0.6, 0, 0, 0), (0, c, 0, 0), (0, 0, 1j * c, 0)))
        channels = [span, span]
    tracemalloc.start()
    try:
        run_trial(n, sigma, rho, channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < TRIAL_PEAK_STATES * 16 * 4**n


@pytest.mark.parametrize("n", [7, 8])
def test_run_trial_below_one_tile_holds_three_states_plus_half_a_tile(n):
    # below one tile each kernel is one step, whose scratch is within half a
    # tile: at n = 7 that half tile is 8 states, so it, not the states, bounds
    # the peak (3.3 states measured; 3.4 at n = 8)
    spec = build_pn(n)
    sigma = classical_state(1, 0) if n % 2 == 0 else random_density(2, 24)
    rho = random_density((1 << n) // spec.ancilla_dim, 25)
    c = np.sqrt(0.32)
    span = SpanChannel(n, ((0.6, 0, 0, 0), (0, c, 0, 0), (0, 0, 1j * c, 0)))
    channels = [span, PauliChannel(n, (0.4, 0.3, 0.2, 0.1)), span]
    tracemalloc.start()
    try:
        run_trial(n, sigma, rho, channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 16 * 4**n + _TILE_BYTES // 2


@pytest.mark.parametrize("kind", ["pauli", "span"])
def test_run_trial_past_one_tile_holds_under_three_states(kind):
    # n = 10 is past one tile, so every kernel's step scratch is small beside
    # its output; a classical ancilla also certifies the hybrid flag.  Each stage's
    # input is released once consumed: at most two states live (2.11 measured)
    n = 10
    rho = random_density(256, 23)
    if kind == "pauli":
        channels = [PauliChannel(n, (0.4, 0.3, 0.2, 0.1))]
    else:
        c = np.sqrt(0.32)
        span = SpanChannel(n, ((0.6, 0, 0, 0), (0, c, 0, 0), (0, 0, 1j * c, 0)))
        channels = [span, PauliChannel(n, (0.4, 0.3, 0.2, 0.1)), span]
    tracemalloc.start()
    try:
        out = run_trial(n, classical_state(1, 0), rho, channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.hybrid_exact is True
    assert peak < 3 * 16 * 4**n


def test_degenerate_two_qubit_case():
    # n=2 carries no data qubits: rho is the trivial one-dimensional state
    rho = np.array([[1.0 + 0.0j]])
    out = run_trial(2, classical_state(1, 1), rho, [PauliChannel(2, (0.2, 0.3, 0.3, 0.2))])
    assert out.hybrid_exact is True
    assert out.ancilla_residual < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_hybrid_sweep(n):
    rho = random_density((1 << n) // 4, n + 40)
    outcomes = hybrid_sweep(n, rho, (0.3, 0.3, 0.2, 0.2))
    assert len(outcomes) == 4
    for out in outcomes:
        assert out.hybrid_exact is True
        assert out.rho_residual < 1e-12
        assert out.ancilla_residual < 1e-12


def test_hybrid_sweep_rejects_odd_n():
    with pytest.raises(BadQubitCount):
        hybrid_sweep(3, random_density(2, 1), (1, 0, 0, 0))


def test_classical_state_validation():
    with pytest.raises(ValueError):
        classical_state(2, 0)
    assert np.trace(classical_state(0, 1)) == 1.0
    assert classical_state(1, 0)[2, 2] == 1.0


@pytest.mark.parametrize("parity,n", [("odd", 5), ("even", 4)])
def test_predicted_ancilla_matches_per_repeat_loop(parity, n):
    spec = build_pn(n)
    sigma = random_density(spec.ancilla_dim, n)
    channels = [
        SpanChannel(n, random_span_coeffs(n, seed=n + 80, terms=3)),
        PauliChannel(n, (0.5, 0.2, 0.2, 0.1)),
    ]
    want = sigma
    for repeats in range(1, 6):
        for ch in channels:
            want = sum(g @ want @ g.conj().T for g in induced_kraus(ch, parity, spec.sign))
        got = predicted_ancilla(sigma, channels, repeats, parity, spec.sign)
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n", range(2, 11))
def test_dyadic_trials_are_exact(n):
    # dyadic states through dyadic channel lists: every stage of the packed
    # trial and of the chi prediction adds and scales dyadic rationals of
    # few bits, so each residual is exactly 0.0, as the conjugation
    # residuals are
    spec = build_pn(n)
    sigma = dyadic_density(spec.ancilla_dim, n + 300)
    rho = dyadic_density((1 << n) // spec.ancilla_dim, n + 310)
    pauli = PauliChannel(n, (1 / 2, 1 / 4, 1 / 8, 1 / 8))
    span_x = SpanChannel(n, ((0.5, 0.5j, 0, 0), (0.5, -0.5j, 0, 0)))
    span_z = SpanChannel(n, ((0.5, 0, 0, 0.5), (0.5, 0, 0, -0.5)))
    lists = ([pauli], [PauliChannel(n, (1 / 4,) * 4)], [span_x, pauli, span_z])
    for channels in lists:
        for repeats in (1, 2):
            out = run_trial(n, sigma, rho, channels, repeats)
            residuals = (out.rho_residual, out.ancilla_residual, out.product_residual)
            assert residuals == (0.0, 0.0, 0.0), (channels, repeats)


def test_run_trial_repeats_cost_grows_with_log_repeats():
    channels = [
        SpanChannel(3, random_span_coeffs(3, seed=s, terms=2)) for s in (1, 2)
    ] + [PauliChannel(3, (0.7, 0.1, 0.1, 0.1))]
    for chs in (channels[-1:], channels):
        start = time.perf_counter()
        out = run_trial(3, random_density(2, 23), random_density(4, 24), chs, 10**12)
        assert time.perf_counter() - start < 1.0
        assert out.rho_residual < TRIAL_TOL
        assert out.ancilla_residual < TRIAL_TOL
        assert out.product_residual < TRIAL_TOL


def test_unitary_channel_at_huge_repeats_stays_a_channel():
    # the r-th power of a unitary carries r times the rounding of its angle
    # into the ancilla; the composed channel must still be completely
    # positive and trace preserving, so the data residuals stay at rounding
    unitary = SpanChannel(3, random_span_coeffs(3, seed=5, terms=1))
    out = run_trial(3, random_density(2, 25), random_density(4, 26), unitary, 10**12)
    assert out.rho_residual < TRIAL_TOL
    assert out.product_residual < TRIAL_TOL


def _trial_cases():
    """(n, kind, ancilla, repeats) for n = 2..10: a Pauli list and a
    span-Pauli-span list, a random ancilla and (even n) a classical one."""
    return [
        (n, kind, ancilla, repeats)
        for n in range(2, 11)
        for kind in ("pauli", "span")
        for ancilla in ("random", "classical")[: 2 - n % 2]
        for repeats in (1, 2)
    ]


def _channels(n, kind):
    pauli = PauliChannel(n, (0.4, 0.3, 0.2, 0.1))
    if kind == "pauli":
        return [pauli]
    # span coefficients are trace preserving at every n of the same n mod 4,
    # so they are drawn at a small n, where the dense oracle is cheap
    small = 4 + n % 4
    first = SpanChannel(n, random_span_coeffs(small, seed=n + 90, terms=2))
    last = SpanChannel(n, random_span_coeffs(small, seed=n + 91, terms=3))
    return [first, pauli, last]


@pytest.mark.parametrize("n, kind, ancilla, repeats", _trial_cases())
def test_packed_trial_matches_the_complex_pipeline(n, kind, ancilla, repeats):
    spec = build_pn(n)
    if ancilla == "classical":
        sigma = classical_state(1, 0)
    else:
        sigma = random_density(spec.ancilla_dim, n + 100)
    rho = random_density((1 << n) // spec.ancilla_dim, n + 101)
    channels = _channels(n, kind)
    got = run_trial(n, sigma, rho, channels, repeats)
    want = complex_trial(n, sigma, rho, channels, repeats)
    for key in ("rho_residual", "ancilla_residual", "product_residual"):
        assert abs(getattr(got, key) - want[key]) <= 1e-15, key
    assert got.hybrid_exact is want["hybrid_exact"]
    # the unpacked traces are exactly Hermitian and match the complex ones
    for key in ("recovered_rho", "ancilla_out"):
        m = getattr(got, key)
        assert m.dtype == np.complex128 and m.shape == want[key].shape
        assert np.array_equal(m, m.conj().T)
        assert np.allclose(m, want[key], rtol=0.0, atol=1e-15), key


@pytest.mark.parametrize("n", [4, 6, 8])
def test_hybrid_bound_holds_the_direct_residual_within_its_band(n):
    # a packed product of the encoded classical ancilla e and rho, perturbed
    # by delta pack(E) for a Hermitian E of norm 1: the bound B that
    # certifies the hybrid flag is at least the direct residual H, and to
    # first order at most (5 + 2 sqrt(dim rho)) H (the module docstring),
    # here with one more H of slack for rounding
    head, h, _ = scheme.ancilla_head(build_pn(n))
    e = 0.5**h * (head @ classical_state(1, 0) @ head.T)
    dr = 1 << (n - 2)
    rho = random_density(dr, n + 710)
    g = np.random.default_rng(n + 711).normal(size=(2, 4 * dr, 4 * dr))
    err = (g[0] + 1j * g[1]) + (g[0] + 1j * g[1]).conj().T
    err /= np.linalg.norm(err)
    for delta in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8):
        m = pack(np.kron(e, rho)) + delta * pack(err)
        recovered = partial_trace_leading(m, 4)
        ancilla = unpack(partial_trace_trailing(m, dr))
        product = packed_kron_distance(m, ancilla, recovered)
        rho_residual = frobenius_distance(unpack(recovered), rho)
        direct = packed_kron_distance(m, e, pack(rho))
        bound = scheme._hybrid_bound(e, ancilla, recovered, product, rho_residual)
        assert direct <= bound <= (6 + 2 * np.sqrt(dr)) * direct, (delta, direct, bound)
        assert direct == pytest.approx(delta, rel=1e-3)


@pytest.mark.parametrize("which", ["sigma", "rho"])
def test_run_trial_rejects_non_hermitian_states_before_allocating(which):
    n = 10
    sigma, rho = classical_state(0, 1), random_density(256, 30)
    bad = (sigma if which == "sigma" else rho).copy()
    bad[0, 1] += 10 * HERMITIAN_TOL
    states = (bad, rho) if which == "sigma" else (sigma, bad)
    tracemalloc.start()
    try:
        with pytest.raises(NotHermitian, match="ancilla" if which == "sigma" else "data"):
            run_trial(n, *states, PauliChannel(n, (0.7, 0.1, 0.1, 0.1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the check holds temporaries of rho's size (256 x 256), well short of
    # one packed state at n = 10 (8 MiB)
    assert peak < 8 * 4**n
    assert issubclass(NotHermitian, CorrQecError)
    # within the tolerance, a state is accepted
    near = (sigma if which == "sigma" else rho).copy()
    near[0, 1] += HERMITIAN_TOL / 2
    near_states = (near, rho) if which == "sigma" else (sigma, near)
    assert run_trial(n, *near_states, []).rho_residual < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_run_trial_rejects_a_trace_other_than_one(n):
    # a correct encoder failed its trial on these: at n = 3 sigma =
    # 5 sigma_1 read rho_residual 3.44, at n = 4 rho = 3 rho_1 read
    # product_residual 5.16 and hybrid_exact False.  The product check
    # compares M with A ox R, which for a product is tr(M) M
    if n == 3:
        sigma, rho, name = 5 * random_density(2, 1), random_density(4, 2), "ancilla"
    else:
        sigma, rho, name = classical_state(1, 0), 3 * random_density(4, 2), "data state"
    with pytest.raises(NotNormalized, match=name):
        run_trial(n, sigma, rho, [])
    assert issubclass(NotNormalized, CorrQecError)


def test_the_trace_check_comes_before_any_allocation_and_asks_no_psd():
    n = 10
    sigma, rho = classical_state(0, 1), random_density(256, 30)
    for bad in (sigma * (1 + 10 * TRACE_TOL), np.zeros((4, 4))):
        tracemalloc.start()
        try:
            with pytest.raises(NotNormalized):
                run_trial(n, bad, rho, PauliChannel(n, (0.7, 0.1, 0.1, 0.1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 4**n
    # within the tolerance a state is accepted, and a Hermitian state of
    # trace 1 need not be PSD: the trial is linear in it and recovers it
    near = sigma * (1 + TRACE_TOL / 2)
    assert run_trial(n, near, rho, []).rho_residual < 1e-12
    indefinite = np.diag([1.5, -0.5]).astype(complex)
    out = run_trial(3, indefinite, random_density(4, 2), PauliChannel(3, (0.7, 0.1, 0.1, 0.1)))
    assert max(out.rho_residual, out.ancilla_residual, out.product_residual) < TRIAL_TOL


_S3, _R3 = random_density(2, 60), random_density(4, 61)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_trial(3, _S3, _R3, [1]),
        lambda: run_trial(3, _S3, _R3, None),
        lambda: predicted_ancilla(_S3, [None], 1, "odd", -1),
        lambda: classical_state(1.0, 0),
        lambda: d_matrix("Q"),
        lambda: d_matrix(["X"]),
        lambda: gates.pauli(["X"]),
        lambda: random_density(4, 1.5),
        lambda: random_density(4.0, 1),
        lambda: Circuit(3, (1,)),
        lambda: circuit_conjugate((("h", 0),), np.eye(8)),
    ],
    ids=[
        "run_trial-an-int-channel", "run_trial-no-list", "predicted_ancilla-a-None-channel",
        "classical_state-a-float-bit", "d_matrix-an-unknown-axis", "d_matrix-a-list-axis",
        "pauli-a-list-axis",
        "random_density-a-float-seed", "random_density-a-float-dim", "Circuit-an-int-gate",
        "circuit_conjugate-factors",
    ],
)
def test_a_wrong_type_is_a_value_error_or_a_corrqec_error(call):
    # the rule in errors.py: never an AttributeError, IndexError, KeyError
    # or TypeError from deeper in the code
    with pytest.raises((ValueError, CorrQecError)) as info:
        call()
    assert type(info.value) is not TypeError


def test_run_trial_rejects_nan_states():
    rho = random_density(4, 31)
    rho[1, 1] = np.nan
    with pytest.raises(NotHermitian):
        run_trial(3, random_density(2, 32), rho, PauliChannel(3, (1, 0, 0, 0)))


@pytest.mark.parametrize("kind", ["pauli", "span"])
def test_packed_trial_at_n10_holds_under_three_packed_states(kind):
    # 1.5 complex states: the encoded state, the next stage's output and
    # the step scratch (2.22 packed states measured)
    n = 10
    rho = random_density(256, 33)
    channels = _channels(n, kind)
    tracemalloc.start()
    try:
        out = run_trial(n, classical_state(1, 0), rho, channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.hybrid_exact is True
    assert peak < 3 * 8 * 4**n


def test_trial_peak_states_bounds_the_packed_trial():
    # TRIAL_PEAK_STATES counts complex128 states, 16 bytes an entry
    for n in (8, 9, 11):
        spec = build_pn(n)
        sigma = classical_state(1, 0) if n % 2 == 0 else random_density(2, 34)
        rho = random_density((1 << n) // spec.ancilla_dim, 35)
        channels = _channels(n, "span")
        tracemalloc.start()
        try:
            run_trial(n, sigma, rho, channels, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < TRIAL_PEAK_STATES * 16 * 4**n, n


@pytest.mark.parametrize(
    "n, kind, ancilla, repeats",
    [
        (n, kind, ancilla, repeats)
        for n in range(2, 11)
        for kind in ("pauli", "span", "none")
        for ancilla in ("random", "classical")[: 2 - n % 2]
        for repeats in (1, 2)
    ],
)
def test_buffered_trial_is_bit_identical_to_fresh_allocation(n, kind, ancilla, repeats):
    # "none", an empty channel list, decodes into the input buffer
    spec = build_pn(n)
    if ancilla == "classical":
        sigma = classical_state(0, 1)
    else:
        sigma = random_density(spec.ancilla_dim, n + 110)
    rho = random_density((1 << n) // spec.ancilla_dim, n + 111)
    channels = [] if kind == "none" else _channels(n, kind)
    got = run_trial(n, sigma, rho, channels, repeats)
    want = fresh_trial(n, sigma, rho, channels, repeats)
    for key in ("recovered_rho", "ancilla_out"):
        assert np.array_equal(getattr(got, key), want[key]), key
    for key in ("rho_residual", "ancilla_residual", "product_residual", "hybrid_exact"):
        assert getattr(got, key) == want[key], key


@pytest.mark.parametrize("kind", ["pauli", "span", "none"])
def test_trial_holds_one_state(monkeypatch, kind):
    # one fused pass builds, encodes, passes the channel and decodes into
    # its one packed output, and the state is dropped before the data trace
    # is unpacked: the trial peaks below one complex128 state (0.68-0.72
    # measured at n = 10; two packed stage buffers made it 1.07-1.10)
    calls = []
    real = kernels.trial_pass

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "trial_pass", counting)
    n = 10
    sigma = random_density(4, 150)
    rho = random_density(256, 151)
    channels = [] if kind == "none" else _channels(n, kind)
    tracemalloc.start()
    try:
        out = run_trial(n, sigma, rho, channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.rho_residual < TRIAL_TOL and out.product_residual < TRIAL_TOL
    assert len(calls) == 1
    assert peak < 16 * 4**n


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("kind", ["pauli", "none"])
def test_trial_stages_run_in_two_buffers(monkeypatch, n, kind):
    # the two buffers are the packed data state the stages read and the one
    # state they write: build, encode, channel and decode are one
    # trial_pass, with or without a channel, and its output is the state
    # that both traces and the product check read
    inputs, passes, reads = [], [], []
    real = kernels.trial_pass

    def passing(*args):
        inputs.append(args[1])
        passes.append(real(*args))
        return passes[-1]

    def reading(fn):
        def call(state, *args):
            reads.append(state)
            return fn(state, *args)

        return call

    monkeypatch.setattr(kernels, "trial_pass", passing)
    for name in ("partial_trace_leading", "partial_trace_trailing", "packed_kron_distance"):
        monkeypatch.setattr(scheme, name, reading(getattr(scheme, name)))
    spec = build_pn(n)
    sigma = random_density(spec.ancilla_dim, n + 120)
    rho = random_density((1 << n) // spec.ancilla_dim, n + 121)
    channels = [] if kind == "none" else _channels(n, kind)
    out = run_trial(n, sigma, rho, channels)
    assert out.rho_residual < TRIAL_TOL
    assert len(passes) == 1 and passes[0].shape == (1 << n, 1 << n)
    assert np.array_equal(inputs[0], pack(rho)) and inputs[0] is not passes[0]
    assert len(reads) == 3 and all(state is passes[0] for state in reads)


def test_trial_drops_the_state_before_unpacking_the_data():
    # at odd n the recovered rho is a quarter of a complex state, and its
    # unpacking holds another eighth: after the state (half of one) is
    # dropped the trial stays below one state (0.78 measured at n = 11),
    # while unpacking beside the state would reach 1.13
    n = 11
    rho = random_density(1024, 152)
    tracemalloc.start()
    try:
        out = run_trial(n, random_density(2, 153), rho, _channels(n, "pauli"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.rho_residual < TRIAL_TOL
    assert peak < 16 * 4**n


def _drop_cases():
    """(n, kind, ancilla, substituted) at n = 10 and 11: every list, a
    random and (even n) a classical ancilla, and a substituted spec."""
    return [
        (n, kind, ancilla, False)
        for n in (10, 11)
        for kind in ("pauli", "span", "none")
        for ancilla in ("random", "classical")[: 2 - n % 2]
    ] + [(10, "pauli", "random", True), (10, "pauli", "classical", True), (11, "span", "random", True)]


@pytest.mark.parametrize("n, kind, ancilla, substituted", _drop_cases())
def test_trial_drops_the_packed_data_before_the_traces(monkeypatch, n, kind, ancilla, substituted):
    # pack(rho) is read by the pass alone (by the first pass of a
    # substituted spec whose rest holds a Hadamard), whatever the ancilla:
    # it is dropped before the data trace allocates beside the state
    packed, alive = [], []
    real_pack, real_trace = scheme.pack, scheme.partial_trace_leading

    def packing(rho):
        p = real_pack(rho)
        packed.append(weakref.ref(p))
        return p

    def tracing(state, dim):
        alive.append([ref() is not None for ref in packed])
        return real_trace(state, dim)

    monkeypatch.setattr(scheme, "pack", packing)
    monkeypatch.setattr(scheme, "partial_trace_leading", tracing)
    spec = build_pn(n)
    if substituted:
        # two Hadamards on a data qubit after the encoder: the trial still
        # recovers, through the branch that conjugates either side of a pass
        ops = spec.circuit.ops + (h_op(0), h_op(0))
        spec = dataclasses.replace(spec, circuit=Circuit(n, ops))
        monkeypatch.setattr(scheme, "build_pn", lambda m: spec)
        assert scheme.ancilla_head(spec)[2].ops[-2:] == (h_op(0), h_op(0))
    if ancilla == "classical":
        sigma = classical_state(0, 1)
    else:
        sigma = random_density(spec.ancilla_dim, n + 160)
    rho = random_density((1 << n) // spec.ancilla_dim, n + 161)
    channels = [] if kind == "none" else _channels(n, kind)
    out = run_trial(n, sigma, rho, channels)
    assert out.rho_residual < TRIAL_TOL and out.product_residual < TRIAL_TOL
    assert out.hybrid_exact is (True if ancilla == "classical" else None)
    assert alive == [[False]]


@pytest.mark.parametrize("kind", ["pauli", "span"])
@pytest.mark.parametrize("n", [4, 10])
def test_classical_trial_makes_one_distance_pass(monkeypatch, n, kind):
    # the hybrid flag is certified from the product and data residuals, so
    # a classical trial measures its state against a product once, as a
    # random one does
    calls = []
    real = kernels.kron_dist

    def counting(*args):
        calls.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(kernels, "kron_dist", counting)
    rho = random_density(1 << (n - 2), n + 170)
    for sigma, hybrid in ((classical_state(1, 1), True), (random_density(4, n + 171), None)):
        calls.clear()
        out = run_trial(n, sigma, rho, _channels(n, kind))
        assert out.rho_residual < TRIAL_TOL and out.product_residual < TRIAL_TOL
        assert out.hybrid_exact is hybrid
        assert calls == [(1 << n, 1 << n)]


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_even_trial_makes_no_hadamard_kernel_call(monkeypatch, n):
    # the encoder's one Hadamard is in its ancilla-only P_2 head, which the
    # trial applies to the 4x4 ancilla: the state passes no butterfly
    calls = []
    real = gates._hadamard_in_place

    def counting(*args, **kwargs):
        calls.append("_hadamard_in_place")
        return real(*args, **kwargs)

    monkeypatch.setattr(gates, "_hadamard_in_place", counting)
    sigma = random_density(4, n + 130)
    rho = random_density(1 << (n - 2), n + 131)
    for channels in ([PauliChannel(n, (0.4, 0.3, 0.2, 0.1))], []):
        out = run_trial(n, sigma, rho, channels)
        assert out.product_residual < TRIAL_TOL
    assert calls == []
    # the count is live: the whole circuit still runs its Hadamard
    encode(n, sigma, rho)
    assert calls == ["_hadamard_in_place"]


@pytest.mark.parametrize("kind", ["pauli", "span", "none"])
def test_run_trial_composes_the_channel_list_once(monkeypatch, kind):
    # the state pass and the predicted ancilla share one sequence_chi
    calls = []
    real = channels_module.sequence_chi

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(channels_module, "sequence_chi", counting)
    monkeypatch.setattr(scheme, "sequence_chi", counting)
    n = 5
    channels = [] if kind == "none" else _channels(n, kind)
    out = run_trial(n, random_density(2, 140), random_density(16, 141), channels, 2)
    assert out.ancilla_residual < TRIAL_TOL
    # the empty list too, whose chi is the identity
    assert len(calls) == 1
