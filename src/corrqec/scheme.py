"""Encode, corrupt, decode, and verify the recovered product state.

Encoding maps sigma ox rho to P_n (sigma ox rho) P_n_dag, where sigma is a
one-qubit ancilla for odd n and a two-qubit ancilla for even n.  Correlated
errors commute through P_n onto the ancilla alone, so decoding with P_n_dag
leaves an exact product: the predicted ancilla times the untouched data rho.

run_trial carries every 2**n-dimensional state packed (tensor.pack): one
float64 matrix Re + Im, half the bytes of a complex one.  The encoder's
gates are real and every state is Hermitian, so encode, the channel pass,
decode, the partial traces and the product checks all act on the packed
matrix; only the ancilla and the recovered rho are unpacked.  The trial
encodes into kernels.channel_basis, where the correlated errors act on the
leading qubits alone, so the channel pass is one small real matrix
product per step of rows; the decode leaves that basis in the same gather.
The four dense stages (the input product, encode, the channel pass and
decode) write into two state buffers in turn, so a trial maps two states,
not one per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import kernels
from .channels import Channel, PauliChannel, SpanChannel, check_repeats
from .channels import checked_sequence_chi
from .encoder import EncoderSpec, ancilla_images, build_pn, encoder_factors
from .errors import AncillaSizeError, BadQubitCount, DimensionMismatch, NotHermitian
from .gates import circuit_conjugate
from .tensor import check_memory, frobenius_distance, hermitian_deviation, pack
from .tensor import pack_kron, packed_kron_distance, unpack
from .tensor import partial_trace_leading, partial_trace_trailing
from .tolerances import CLASSICAL_TOL, HERMITIAN_TOL, HYBRID_TOL

# Peak memory of a trial, in 2**n x 2**n complex128 matrices (16*4**n
# bytes; a packed state is half of one), from tracemalloc at n = 8..11 with
# Pauli, span-Pauli-span and empty lists (repeats 1 and 2, random and
# classical ancillas): at most 2.54 at n = 8, 1.50 at n = 9, 1.13 at n = 10
# and 1.15 at n = 11, all with the span list, rounded up.  The two stage
# buffers are two packed states, one complex state; up to n = 9 the
# kernels' half tile of step scratch, 2 MiB, outweighs them.
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


def _check_hermitian(sigma: np.ndarray, rho: np.ndarray) -> None:
    for name, m in (("ancilla", sigma), ("data state", rho)):
        dev = hermitian_deviation(m)
        if not dev <= HERMITIAN_TOL:
            raise NotHermitian(
                f"{name} is not Hermitian: an entry of m - m_dag reaches {dev:.3e}, "
                f"past {HERMITIAN_TOL}"
            )


def run_trial(
    n: int, sigma: np.ndarray, rho: np.ndarray, channels, repeats: int = 1
) -> SchemeOutcome:
    """Full pipeline: encode, apply the channel sequence, decode, compare.

    The decoded state is predicted to be (induced channel on sigma) ox rho;
    the outcome reports the Frobenius residuals of that prediction and of
    the product factorization itself.  sigma and rho must be Hermitian
    (NotHermitian otherwise), as the trial carries its states packed:
    M = pack(sigma ox rho) = Re sigma ox P + Im sigma ox P^T, P = pack(rho),
    is encoded (into kernels.channel_basis, as a last permutation of the
    encoder's gather), passed through the channels and decoded as one
    float64 matrix.  The partial traces of the decoded M are the packed
    ancilla and data states, which are unpacked; the product checks
    measure M against the packed products blockwise.  Every check runs before any 4**n
    allocation.
    """
    repeats = check_repeats(repeats)
    if isinstance(channels, (PauliChannel, SpanChannel)):
        channels = [channels]
    channels = list(channels)
    check_memory(n, TRIAL_PEAK_STATES)
    spec = build_pn(n)
    sigma, rho = _check_states(spec, sigma, rho)
    _check_hermitian(sigma, rho)
    chi = checked_sequence_chi(channels, (1 << n, 1 << n), repeats)

    # the stages run in two buffers: the input a, encoded into a new b, the
    # channel pass back into a and the decode into b (into a when there is
    # no channel), so a trial maps two states, not one per stage.  The
    # buffer the decode did not write is then dropped, and the checks below
    # hold only the decoded state: the product checks measure it against a
    # kron product blockwise, without forming it.  The factors are the
    # encoder's, then channel_basis: one more table in the same gather,
    # undone by the decode's
    factors = encoder_factors(n) + (("perm", kernels.channel_basis(n)),)
    p = pack(rho)
    a = pack_kron(sigma, p)
    b = circuit_conjugate(factors, a)
    if chi is not None:
        kernels.pauli_channel_basis_packed(b, chi, out=a)
        a, b = b, a
    state = circuit_conjugate(factors, b, adjoint=True, out=a)
    del a, b

    # the packed traces, as float64 (the kernels return complex128)
    recovered = partial_trace_leading(state, sigma.shape[0]).real.copy()
    ancilla = partial_trace_trailing(state, rho.shape[0]).real
    recovered_rho = unpack(recovered)
    ancilla_out = unpack(ancilla)
    predicted = predicted_ancilla(sigma, channels, repeats, spec.parity, spec.sign)

    rho_residual = frobenius_distance(recovered_rho, rho)
    ancilla_residual = frobenius_distance(ancilla_out, predicted)
    product_residual = packed_kron_distance(state, ancilla_out, recovered)
    hybrid_exact = None
    if spec.parity == "even" and _is_classical(sigma):
        hybrid_exact = packed_kron_distance(state, sigma, p) <= HYBRID_TOL
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
