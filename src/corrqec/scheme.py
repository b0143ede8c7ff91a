"""Encode, corrupt, decode, and verify the recovered product state.

Encoding maps sigma ox rho to P_n (sigma ox rho) P_n_dag, where sigma is a
one-qubit ancilla for odd n and a two-qubit ancilla for even n.  Correlated
errors commute through P_n onto the ancilla alone, so decoding with P_n_dag
leaves an exact product: the predicted ancilla times the untouched data rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .channels import Channel, PauliChannel, SpanChannel, apply_sequence, check_repeats
from .encoder import EncoderSpec, ancilla_images, build_pn, encoder_factors
from .errors import AncillaSizeError, BadQubitCount, DimensionMismatch
from .gates import circuit_conjugate
from .tensor import check_memory, frobenius_distance, kron_distance
from .tensor import partial_trace_leading, partial_trace_trailing
from .tolerances import CLASSICAL_TOL, HYBRID_TOL

# Peak number of live 2**n x 2**n complex128 matrices during a trial, from
# tracemalloc at n = 8..11 with Pauli and span-Pauli-span lists (repeats 1
# and 2, random and classical ancillas): 3.38 at n = 8, 2.14 at n = 9, 2.09
# at n = 10 and 2.01 at n = 11, rounded up (up to n = 8 the kernels' half
# tile of step scratch, 2 MiB, outweighs the states).
TRIAL_PEAK_STATES = 3


@dataclass(eq=False)
class SchemeOutcome:
    recovered_rho: np.ndarray
    ancilla_out: np.ndarray
    predicted_ancilla: np.ndarray
    rho_residual: float
    ancilla_residual: float
    product_residual: float
    hybrid_exact: bool | None  # None when n is odd or the ancilla is not classical


def classical_state(i: int, j: int) -> np.ndarray:
    """The two-bit computational projector |ij><ij| (i is the higher bit)."""
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError(f"classical bits must be 0 or 1, got ({i}, {j})")
    out = np.zeros((4, 4), dtype=np.complex128)
    out[2 * i + j, 2 * i + j] = 1.0
    return out


def _check_states(spec: EncoderSpec, sigma: np.ndarray, rho: np.ndarray):
    sigma = np.asarray(sigma, dtype=np.complex128)
    rho = np.asarray(rho, dtype=np.complex128)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise AncillaSizeError(f"ancilla must be square, got shape {sigma.shape}")
    if sigma.shape[0] != spec.ancilla_dim:
        raise AncillaSizeError(
            f"{spec.parity} n={spec.n} needs a {spec.ancilla_dim}-dimensional "
            f"ancilla, got {sigma.shape[0]}"
        )
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"data state must be square, got shape {rho.shape}")
    if sigma.shape[0] * rho.shape[0] != (1 << spec.n):
        raise DimensionMismatch(
            f"ancilla dim {sigma.shape[0]} times data dim {rho.shape[0]} "
            f"must be 2**{spec.n}"
        )
    return sigma, rho


def encode(spec: EncoderSpec, sigma: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """P_n (sigma ox rho) P_n_dag."""
    sigma, rho = _check_states(spec, sigma, rho)
    return circuit_conjugate(encoder_factors(spec.n), np.kron(sigma, rho))


def decode(spec: EncoderSpec, tau: np.ndarray) -> np.ndarray:
    """P_n_dag tau P_n."""
    tau = np.asarray(tau, dtype=np.complex128)
    if tau.ndim != 2 or tau.shape != (1 << spec.n, 1 << spec.n):
        raise DimensionMismatch(f"expected a {1 << spec.n}-dim state, got {tau.shape}")
    return circuit_conjugate(encoder_factors(spec.n), tau, adjoint=True)


def induced_kraus(ch: Channel, parity: str, sign: int) -> list[np.ndarray]:
    """The ancilla-side Kraus operators a channel induces through the encoder.

    The sign on the Y image cancels for a PauliChannel (it conjugates each
    term separately) but matters inside a span operator's cross terms.
    """
    basis = ancilla_images(parity, sign)
    if isinstance(ch, PauliChannel):
        return [sqrt(p) * op for p, op in zip(ch.probs, basis) if p > 0.0]
    return [
        sum(coef * op for coef, op in zip(coeffs, basis))
        for coeffs in ch.kraus_coeffs
    ]


def predicted_ancilla(
    sigma: np.ndarray, channels, repeats: int, parity: str, sign: int
) -> np.ndarray:
    """Ancilla output of the channel list, applied `repeats` times through the
    Kraus operators each channel induces on the ancilla; sign is (-1)**k.

    Each channel acts on the row-major vec(sigma) as sum_g g ox conj(g); the
    list's product is raised to `repeats` by matrix_power, so the cost grows
    with log(repeats).  The power is scaled so that it maps I to a matrix of
    trace tr(I), as a trace-preserving map does: the squarings would
    otherwise compound the rounding of that unit gain, in modulus and in
    phase, by the repeat count.
    """
    out = np.asarray(sigma, dtype=np.complex128)
    expected = 2 if parity == "odd" else 4
    if out.shape != (expected, expected):
        raise DimensionMismatch(
            f"{parity} ancilla must be {expected}x{expected}, got {out.shape}"
        )
    repeats = check_repeats(repeats)
    step = np.eye(expected * expected, dtype=np.complex128)
    for ch in channels:
        g = np.array(induced_kraus(ch, parity, sign))
        # sum_g g ox conj(g), indexed [(i, j), (a, b)]
        superop = np.einsum("gia,gjb->ijab", g, g.conj())
        step = superop.reshape(step.shape) @ step
    total = np.linalg.matrix_power(step, repeats)
    vec_eye = np.eye(expected).reshape(-1)
    total /= (vec_eye @ total @ vec_eye) / expected
    return (total @ out.reshape(-1)).reshape(expected, expected)


def _is_classical(sigma: np.ndarray) -> bool:
    return sigma.shape == (4, 4) and any(
        frobenius_distance(sigma, classical_state(i, j)) <= CLASSICAL_TOL
        for i in (0, 1)
        for j in (0, 1)
    )


def run_trial(
    n: int, sigma: np.ndarray, rho: np.ndarray, channels, repeats: int = 1
) -> SchemeOutcome:
    """Full pipeline: encode, apply the channel sequence, decode, compare.

    The decoded state is predicted to be (induced channel on sigma) ox rho;
    the outcome reports the Frobenius residuals of that prediction and of
    the product factorization itself.
    """
    repeats = check_repeats(repeats)
    if isinstance(channels, (PauliChannel, SpanChannel)):
        channels = [channels]
    channels = list(channels)
    check_memory(n, TRIAL_PEAK_STATES)
    spec = build_pn(n)
    sigma, rho = _check_states(spec, sigma, rho)

    # drop each stage's input once the next stage has consumed it, so the
    # checks below hold only the decoded state: the product checks measure
    # it against a kron product blockwise, without forming the product
    encoded = encode(spec, sigma, rho)
    corrupted = apply_sequence(channels, encoded, repeats)
    del encoded
    decoded = decode(spec, corrupted)
    del corrupted

    recovered_rho = partial_trace_leading(decoded, sigma.shape[0])
    ancilla_out = partial_trace_trailing(decoded, rho.shape[0])
    predicted = predicted_ancilla(sigma, channels, repeats, spec.parity, spec.sign)

    rho_residual = frobenius_distance(recovered_rho, rho)
    ancilla_residual = frobenius_distance(ancilla_out, predicted)
    product_residual = kron_distance(decoded, ancilla_out, recovered_rho)
    hybrid_exact = None
    if spec.parity == "even" and _is_classical(sigma):
        hybrid_exact = kron_distance(decoded, sigma, rho) <= HYBRID_TOL
    return SchemeOutcome(
        recovered_rho=recovered_rho,
        ancilla_out=ancilla_out,
        predicted_ancilla=predicted,
        rho_residual=rho_residual,
        ancilla_residual=ancilla_residual,
        product_residual=product_residual,
        hybrid_exact=hybrid_exact,
    )


def hybrid_sweep(n: int, rho: np.ndarray, probs) -> list[SchemeOutcome]:
    """run_trial for all four classical ancillas |ij><ij| on even n."""
    if n < 2 or n % 2 != 0:
        raise BadQubitCount(f"hybrid sweep needs even n >= 2, got {n}")
    channel = PauliChannel(n, tuple(probs))
    return [
        run_trial(n, classical_state(i, j), rho, [channel])
        for i in (0, 1)
        for j in (0, 1)
    ]
