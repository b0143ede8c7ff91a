from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
import pytest

from corrqec import (
    AncillaSizeError,
    BadQubitCount,
    CorrQecError,
    DimensionMismatch,
    NotHermitian,
    PauliChannel,
    SpanChannel,
    build_pn,
    classical_state,
    hybrid_sweep,
    predicted_ancilla,
    random_density,
    run_trial,
)
from corrqec import kernels, scheme
from corrqec.kernels import _TILE_BYTES
from corrqec.scheme import TRIAL_PEAK_STATES
from corrqec.tolerances import HERMITIAN_TOL, TRIAL_TOL

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
    # its output; a classical ancilla also runs the hybrid check.  Each stage's
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


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("kind", ["pauli", "none"])
def test_trial_stages_run_in_two_buffers(monkeypatch, n, kind):
    # the input, encode, channel and decode outputs, in order: the channel
    # pass writes back into the input's buffer and the decode into the
    # encode's, or with no channel into the input's
    outputs = []

    def recording(fn):
        def call(*args, **kwargs):
            outputs.append(fn(*args, **kwargs))
            return outputs[-1]

        return call

    monkeypatch.setattr(scheme, "pack_kron", recording(scheme.pack_kron))
    monkeypatch.setattr(scheme, "circuit_conjugate", recording(scheme.circuit_conjugate))
    monkeypatch.setattr(
        kernels, "pauli_channel_basis_packed", recording(kernels.pauli_channel_basis_packed)
    )
    spec = build_pn(n)
    sigma = random_density(spec.ancilla_dim, n + 120)
    rho = random_density((1 << n) // spec.ancilla_dim, n + 121)
    channels = [] if kind == "none" else _channels(n, kind)
    out = run_trial(n, sigma, rho, channels)
    assert out.rho_residual < TRIAL_TOL
    first, second = outputs[:2]
    assert first is not second
    if kind == "none":
        assert len(outputs) == 3 and outputs[2] is first
    else:
        assert len(outputs) == 4 and outputs[2] is first and outputs[3] is second
