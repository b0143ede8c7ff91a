"""Encode, corrupt, decode, and verify the recovered product state.

Encoding maps sigma ox rho to P_n (sigma ox rho) P_n_dag, where sigma is a
one-qubit ancilla for odd n and a two-qubit ancilla for even n.  Correlated
errors commute through P_n onto the ancilla alone, so decoding with P_n_dag
leaves an exact product: the predicted ancilla times the untouched data rho.
The prediction is the trial's own chi (channels.sequence_chi) through the
ancilla images, one channel algebra for both: run_trial composes the list
once and hands the one chi to both.  The empty list is the identity chi,
diag(1, 0, 0, 0), so every list takes the same pass.

run_trial carries every 2**n-dimensional state packed (tensor.pack): one
float64 matrix Re + Im, half the bytes of a complex one, on which the
encoder's real gates, the channel pass, the traces and the product check
all act.  At even n the encoder opens with the P_2 head, its one Hadamard
among it, on the two ancilla qubits alone (encoder.ancilla_head): the
trial applies it to the 4x4 sigma and takes it back off the decoded
ancilla, so the state passes CNOTs only, gathered by one table into
gates.channel_basis, where the correlated errors act on the leading qubits
alone (encoder.encode_table).  kernels.trial_pass builds each step's rows
of the input product from sigma and the packed rho, gathers them, passes
the channel as one small real matrix product and writes each decoded row
once: a trial holds one packed state.  pack(rho) dies with the pass, and
the state is dropped before rho is unpacked.

The hybrid check (even n, classical ancilla) asks that the decoded M be
within HYBRID_TOL of e ox rho, e the encoded ancilla.  It is certified
from what the trial measures anyway, with no pass of its own: for A and
R the ancilla and data traces of M,
M - e ox rho = (M - A ox R) + (A - e) ox R + e ox (R - rho), so the
direct residual H is at most B = product_residual + |A - e| |R| +
|e| rho_residual (_hybrid_bound), and the flag is B <= HYBRID_TOL.  It is
never True where the direct check is False.  For trace-one sigma and rho,
B <= (5 + 2 sqrt(dim rho)) H to first order in H, so the two can differ
only where H lies in about (HYBRID_TOL / (5 + 2 sqrt(dim rho)),
HYBRID_TOL]: a working encoder leaves H near 1e-16, a broken one O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import kernels
from .channels import PauliChannel, channel_list, check_repeats
from .channels import checked_sequence_chi, sequence_chi
from .encoder import EncoderSpec, ancilla_head, ancilla_images, build_pn, check_frame, encode_table
from .errors import AncillaSizeError, BadQubitCount, DimensionMismatch, NotHermitian
from .errors import NotNormalized, check_type
from .gates import Circuit, circuit_conjugate
from .tensor import check_memory, frobenius_distance, hermitian_deviation, pack
from .tensor import packed_kron_distance, unpack
from .tensor import partial_trace_leading, partial_trace_trailing
from .tolerances import CLASSICAL_TOL, HERMITIAN_TOL, HYBRID_TOL, TRACE_TOL

# Peak memory of a trial, in 2**n x 2**n complex128 matrices (16*4**n
# bytes; a packed state is half of one), from tracemalloc at n = 8..12 with
# Pauli, span-Pauli-span and empty lists (repeats 1 and 2) and random and
# classical ancillas, rounded up: at most 2.73, 1.29, 0.70, 0.78 and 0.57,
# with a random ancilla and the span list.  Up to n = 9 trial_pass's step
# scratch (half a tile) outweighs the one packed state it writes; from
# n = 10 the pass sets the peak, the state beside pack(rho), which dies
# with the pass, so the traces and the product check reuse its place.
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
    check_type(i, Integral, "a classical bit")
    check_type(j, Integral, "a classical bit")
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError(f"classical bits must be 0 or 1, got ({i}, {j})")
    out = np.zeros((4, 4), dtype=np.complex128)
    out[2 * i + j, 2 * i + j] = 1.0
    return out


def _check_states(spec: EncoderSpec, sigma: np.ndarray, rho: np.ndarray):
    """sigma and rho as complex128, of the spec's sizes, Hermitian within
    HERMITIAN_TOL (NotHermitian) and of trace 1 within TRACE_TOL
    (NotNormalized); neither need be PSD."""
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
    for name, m in (("ancilla", sigma), ("data state", rho)):
        dev = hermitian_deviation(m)
        if not dev <= HERMITIAN_TOL:
            raise NotHermitian(f"{name} is not Hermitian: an entry of m - m_dag reaches "
                               f"{dev:.3e}, past {HERMITIAN_TOL}")
        trace = complex(np.trace(m))
        if not abs(trace - 1) <= TRACE_TOL:
            raise NotNormalized(f"{name} has trace {trace:.6g}, not 1 within {TRACE_TOL}")
    return sigma, rho


def predicted_ancilla(
    sigma: np.ndarray, channels, repeats: int, parity: str, sign: int
) -> np.ndarray:
    """Ancilla output of the channel list, applied `repeats` times: the
    trial's chi (channels.sequence_chi) through the ancilla images A of
    I, X_n, Y_n, Z_n (encoder.ancilla_images; sign is (-1)**k), as
    sum_ab chi_ab A_a sigma A_b_dag.  An empty list leaves sigma.  As in
    run_trial, the channels must act on one n of the given parity
    (DimensionMismatch); parity must be "odd" or "even" and sign +-1
    (ValueError, encoder.check_frame)."""
    check_frame(parity, sign)
    out = np.asarray(sigma, dtype=np.complex128)
    expected = 2 if parity == "odd" else 4
    if out.shape != (expected, expected):
        raise DimensionMismatch(f"{parity} ancilla must be {expected}x{expected}, got {out.shape}")
    repeats = check_repeats(repeats)
    channels = channel_list(channels)
    if channels and (channels[0].n % 2 == 1) != (parity == "odd"):
        raise DimensionMismatch(f"{parity} ancilla for channels on n={channels[0].n}")
    return _predicted_from_chi(out, sequence_chi(channels, repeats), parity, sign)


def _predicted_from_chi(sigma: np.ndarray, chi, parity: str, sign: int) -> np.ndarray:
    """predicted_ancilla of a complex128 sigma of the parity's size, given
    the list's composed 4x4 chi."""
    transfer = kernels.chi_transfer(chi, ancilla_images(parity, sign))
    return (transfer @ sigma.reshape(-1)).reshape(sigma.shape)


def _is_classical(sigma: np.ndarray) -> bool:
    return sigma.shape == (4, 4) and any(
        frobenius_distance(sigma, classical_state(i, j)) <= CLASSICAL_TOL
        for i in (0, 1)
        for j in (0, 1)
    )


def _hybrid_bound(encoded, ancilla, recovered, product_residual, rho_residual) -> float:
    """B >= |M - e ox rho| for e the encoded ancilla, A (ancilla) and the
    packed R (recovered) the traces of the decoded M, from the residuals
    |M - A ox R| and |R - rho| (the module docstring): packing keeps norms,
    so |R| is that of the packed trace."""
    return (
        product_residual
        + frobenius_distance(ancilla, encoded) * float(np.linalg.norm(recovered))
        + float(np.linalg.norm(encoded)) * rho_residual
    )


def run_trial(
    n: int, sigma: np.ndarray, rho: np.ndarray, channels, repeats: int = 1
) -> SchemeOutcome:
    """Full pipeline: encode, apply the channel sequence, decode, compare.

    The decoded state is predicted to be predicted_ancilla(sigma) ox rho;
    the outcome reports the Frobenius residuals of that prediction and of
    the product factorization itself, measured blockwise on the packed
    state, and a classical ancilla's hybrid flag, certified from them
    (_hybrid_bound).  sigma and rho must be Hermitian, as the trial carries
    its states packed (NotHermitian), and of trace 1, as the product check
    compares a product M with tr(M) M (NotNormalized); neither need be PSD.
    The passes are the module docstring's: one kernels.trial_pass that
    never forms the input product.  Every check runs before any 4**n
    allocation.
    """
    repeats = check_repeats(repeats)
    channels = channel_list(channels)
    check_memory(n, TRIAL_PEAK_STATES)
    spec = build_pn(n)
    sigma, rho = _check_states(spec, sigma, rho)
    chi = checked_sequence_chi(channels, (1 << n, 1 << n), repeats)

    # the ancilla-only head of the encoder (encoder.ancilla_head: the P_2
    # head and its Hadamard at even n, nothing at odd n) acts on sigma as
    # the 4x4 U = 2**(-h/2) U', so the state passes only the rest R of the
    # circuit: the decoded M = (U ox I) D (U ox I)^T for D the full decode.
    # The checks are invariant under U: the data trace of M is that of D,
    # D's ancilla is U^T A U for A that of M, and the product and hybrid
    # residuals are those of M against A ox R and (U sigma U^T) ox rho, so
    # the hybrid bound is taken in the head frame too
    head, h, rest = ancilla_head(spec)
    scale = 0.5**h
    encoded = sigma if head is None else scale * (head @ sigma @ head.T)

    # one pass by the rest's gather table into the basis.  A rest that holds
    # a Hadamard (a substituted circuit; build_pn's rest is CNOT-only) is
    # conjugated on either side of a pass in the basis alone.  pack(rho)
    # dies as the pass returns, before the traces allocate
    if not rest.count("h"):
        state = kernels.trial_pass(encoded, pack(rho), chi, encode_table(rest))
    else:
        state = kernels.trial_pass(encoded, pack(rho), sequence_chi([], 1), np.arange(1 << n))
        basis = encode_table(Circuit(n))
        state = kernels.trial_pass([[1.0]], circuit_conjugate(rest, state), chi, basis)
        state = circuit_conjugate(rest, state, adjoint=True)

    # the traces are float64 as the state, each a new array, and the
    # ancilla's is taken back through the head while packed, a real
    # congruence, so that unpack leaves it exactly Hermitian.  The product
    # check is the state's last reader, so it is dropped before the data
    # trace is unpacked
    recovered = partial_trace_leading(state, sigma.shape[0])
    trailing = partial_trace_trailing(state, rho.shape[0])
    ancilla = unpack(trailing)
    product_residual = packed_kron_distance(state, ancilla, recovered)
    del state
    recovered_rho = unpack(recovered)
    ancilla_out = ancilla if head is None else unpack(scale * (head.T @ trailing @ head))
    predicted = _predicted_from_chi(sigma, chi, spec.parity, spec.sign)
    rho_residual = frobenius_distance(recovered_rho, rho)
    ancilla_residual = frobenius_distance(ancilla_out, predicted)
    # a classical ancilla's hybrid flag, certified by a bound on the direct
    # residual (_hybrid_bound), never True where that residual is past
    # HYBRID_TOL
    hybrid_exact = None
    if spec.parity == "even" and _is_classical(sigma):
        bound = _hybrid_bound(encoded, ancilla, recovered, product_residual, rho_residual)
        hybrid_exact = bound <= HYBRID_TOL
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
