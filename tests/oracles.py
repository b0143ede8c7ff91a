"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: dense Kronecker assembly, explicit
matrix products, and direct index summation.  Tests compare the package's
structured fast paths against these so they never certify themselves.
The package runs its trial on packed float64 states only; complex_trial
here is the same pipeline on complex128 states, built from np.kron, the
encoder's circuit_conjugate, the whole-array channel sum chi_channel and
the dense distance kron_distance.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from corrqec import kernels
from corrqec.channels import Channel, PauliChannel, checked_sequence_chi
from corrqec.encoder import ancilla_images, build_pn, encoder_factors
from corrqec.errors import DimensionMismatch
from corrqec.gates import circuit_conjugate, circuit_factors, cnot_perm
from corrqec.scheme import classical_state, predicted_ancilla
from corrqec.tensor import as_square, frobenius_distance, pack
from corrqec.tensor import pack_kron, packed_kron_distance, unpack
from corrqec.tensor import partial_trace_leading, partial_trace_trailing
from corrqec.tolerances import CLASSICAL_TOL, HYBRID_TOL

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SI = np.eye(2, dtype=complex)
INV_SQRT2 = float(np.sqrt(0.5))
HAD = INV_SQRT2 * np.array([[1, 1], [1, -1]], dtype=complex)

SINGLE = {"I": SI, "X": SX, "Y": SY, "Z": SZ}


def kron_chain(*ms) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for m in ms:
        out = np.kron(out, m)
    return out


def pauli_power(axis: str, n: int) -> np.ndarray:
    return kron_chain(*([SINGLE[axis]] * n))


def pauli_string(x: int, z: int, e: int, n: int) -> np.ndarray:
    """i**e X**x Z**z on n qubits, densely: bit q of x and z gives the
    factor X**x_q Z**z_q on qubit q, the first factor of kron_chain being
    qubit n-1."""
    factors = [
        np.linalg.matrix_power(SX, (x >> q) & 1) @ np.linalg.matrix_power(SZ, (z >> q) & 1)
        for q in reversed(range(n))
    ]
    return 1j**e * kron_chain(*factors)


def embed_single(gate: np.ndarray, n: int, q: int) -> np.ndarray:
    return kron_chain(np.eye(1 << (n - 1 - q)), gate, np.eye(1 << q))


def cnot_dense(n: int, control: int, target: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        image = s ^ (((s >> control) & 1) << target)
        m[image, s] = 1.0
    return m


def circuit_matrix(plain_ops, n: int) -> np.ndarray:
    """Dense product for ops given as ("cnot", c, t) or ("h", q), first applied first."""
    m = np.eye(1 << n, dtype=complex)
    for op in plain_ops:
        if op[0] == "cnot":
            g = cnot_dense(n, op[1], op[2])
        else:
            g = embed_single(HAD, n, op[1])
        m = g @ m
    return m


def realize(circuit) -> np.ndarray:
    """Dense unitary G_m ... G_1 of a circuit [g1, ..., gm], built from its
    factors: a merged CNOT permutation moves rows, and a Hadamard on qubit q
    is one whole-array row butterfly (a +- b) * sqrt(1/2) over rows r and
    r + 2**q."""
    dim = 1 << circuit.n_qubits
    m = np.eye(dim, dtype=complex)
    for kind, arg in circuit_factors(circuit):
        if kind == "perm":
            m = m[np.argsort(arg)]
        else:
            pairs = m.reshape(dim >> (arg + 1), 2, 1 << arg, dim)
            out = np.empty_like(pairs)
            np.add(pairs[:, 0], pairs[:, 1], out=out[:, 0])
            np.subtract(pairs[:, 0], pairs[:, 1], out=out[:, 1])
            out *= INV_SQRT2
            m = out.reshape(dim, dim)
    return m


def plain_ops(circuit) -> list[tuple]:
    """Convert a package Circuit to the plain-tuple form used above."""
    out = []
    for op in circuit.ops:
        if op.kind == "cnot":
            out.append(("cnot",) + tuple(op.qubits))
        else:
            out.append(("h", op.qubits[0]))
    return out


def expected_conjugation(spec, axis: str) -> np.ndarray:
    """The predicted value of P_dag W P for W the correlated error on `axis`:
    its ancilla image ox I, formed densely."""
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be X, Y, or Z, got {axis!r}")
    head = ancilla_images(spec.parity, spec.sign)["IXYZ".index(axis)]
    rest = (1 << spec.n) // spec.ancilla_dim
    return np.kron(head, np.eye(rest, dtype=complex))


def ptrace_leading_direct(t: np.ndarray, d_lead: int) -> np.ndarray:
    d_rest = t.shape[0] // d_lead
    out = np.zeros((d_rest, d_rest), dtype=complex)
    for i in range(d_lead):
        for k in range(d_rest):
            for l in range(d_rest):
                out[k, l] += t[i * d_rest + k, i * d_rest + l]
    return out


def ptrace_trailing_direct(t: np.ndarray, d_trail: int) -> np.ndarray:
    d_rest = t.shape[0] // d_trail
    out = np.zeros((d_rest, d_rest), dtype=complex)
    for i in range(d_rest):
        for j in range(d_rest):
            for k in range(d_trail):
                out[i, j] += t[i * d_trail + k, j * d_trail + k]
    return out


def kraus_apply(kraus_ops, rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for f in kraus_ops:
        out += f @ rho @ f.conj().T
    return out


def pauli_channel_dense(n: int, probs, rho: np.ndarray) -> np.ndarray:
    ops = [
        np.sqrt(p) * pauli_power(axis, n)
        for p, axis in zip(probs, "IXYZ")
    ]
    return kraus_apply(ops, rho)


def span_kraus_dense(n: int, kraus_coeffs) -> list[np.ndarray]:
    basis = [pauli_power(axis, n) for axis in "IXYZ"]
    return [
        sum(coef * op for coef, op in zip(coeffs, basis))
        for coeffs in kraus_coeffs
    ]


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


def chi_channel(rho, chi) -> np.ndarray:
    """sum_ab chi_ab E_a rho E_b_dag over E = (I, X_n, Y_n, Z_n), one
    whole-array term per nonzero entry of chi (a 1-d chi is its diagonal).

    E_a = diag(u_a) P**f_a, with P the row reversal (X_n complements every
    bit of an index, and the complement of i is 2**n - 1 - i), f = (0, 1,
    1, 0) and u = (1, 1, omega z, z) for z the parity signs (-1)**popcount(i)
    and omega = (-i)**n, as Y_n = omega Z_n X_n.  So E_a rho E_b_dag is
    rho with its rows reversed if f_a, its columns if f_b, times
    u_a[i] conj(u_b[k]).
    """
    rho = np.asarray(rho, dtype=complex)
    chi = np.asarray(chi, dtype=complex)
    if chi.ndim == 1:
        chi = np.diag(chi)
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    z = 1.0 - 2.0 * (np.bitwise_count(np.arange(dim)) % 2)
    ones = np.ones(dim)
    u = (ones, ones, (-1j) ** n * z, z)
    flip = (False, True, True, False)
    out = np.zeros_like(rho)
    for a in range(4):
        if not chi[a].any():
            continue
        rows = u[a][:, None] * (rho[::-1] if flip[a] else rho)
        for b in range(4):
            if chi[a, b] != 0:
                cols = chi[a, b] * u[b].conj()
                out += (rows[:, ::-1] if flip[b] else rows) * cols[None, :]
    return out


def apply_channels(channels, rho, repeats: int = 1) -> np.ndarray:
    """The channel list applied in order, the whole list `repeats` times, on
    a complex128 rho: the list's composed chi (channels.checked_sequence_chi,
    as run_trial composes it) through chi_channel; rho for an empty list."""
    rho = np.asarray(rho, dtype=complex)
    chi = checked_sequence_chi(channels, rho.shape, repeats)
    return rho if chi is None else chi_channel(rho, chi)


def encode(n: int, sigma, rho) -> np.ndarray:
    """P_n (sigma ox rho) P_n_dag on complex128 states: np.kron, then the
    encoder's conjugation."""
    return circuit_conjugate(encoder_factors(n), np.kron(sigma, rho))


def decode(n: int, tau) -> np.ndarray:
    """P_n_dag tau P_n on a complex128 state."""
    return circuit_conjugate(encoder_factors(n), np.asarray(tau, dtype=complex), adjoint=True)


def kron_distance(d, a, r) -> float:
    """Frobenius distance of d from the dense np.kron(a, r)."""
    return float(np.linalg.norm(d - np.kron(a, r)))


def compose_pauli_probs(p, q):
    """Probabilities of applying mix p then mix q: the error labels
    {I,X,Y,Z} compose like 2-bit XOR (phases cancel in conjugation)."""
    out = [0.0] * 4
    for i in range(4):
        for j in range(4):
            out[i ^ j] += p[i] * q[j]
    return tuple(out)


def random_span_coeffs(n: int, seed: int, terms: int = 2) -> tuple:
    """Coefficients of a random trace-preserving span channel.

    Each Kraus operator is sqrt(w_j) exp(i(a X_n + b Y_n + c Z_n)), a span
    unitary, so sum_j F_dag F = sum_j w_j I = I by construction.
    """
    rng = np.random.default_rng(seed)
    dim = 1 << n
    basis = [pauli_power(axis, n) for axis in "IXYZ"]
    weights = rng.dirichlet(np.ones(terms))
    coeffs = []
    for w in weights:
        a, b, c = rng.normal(size=3)
        herm = a * basis[1] + b * basis[2] + c * basis[3]
        vals, vecs = np.linalg.eigh(herm)
        unitary = (vecs * np.exp(1j * vals)) @ vecs.conj().T
        row = tuple(
            complex(np.sqrt(w) * np.trace(op.conj().T @ unitary) / dim)
            for op in basis
        )
        coeffs.append(row)
    return tuple(coeffs)


def random_complex_matrix(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


# ---------------------------------------------------------------------------
# dense helpers that the tests use but the package never needs

HERM_TOL = 1e-12  # is_density_matrix: Hermiticity, unit trace, smallest eigenvalue
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10


def dagger(a) -> np.ndarray:
    return np.ascontiguousarray(as_square(a).conj().T)


def matmul(a, b) -> np.ndarray:
    a = as_square(a)
    b = as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"matmul on shapes {a.shape} and {b.shape}")
    return a @ b


def is_density_matrix(m) -> bool:
    """Check Hermiticity, unit trace, and PSD within the pinned tolerances."""
    m = as_square(m)
    if np.linalg.norm(m - m.conj().T) > HERM_TOL:
        return False
    if abs(np.trace(m) - 1.0) > TRACE_TOL:
        return False
    return float(np.linalg.eigvalsh(m).min()) >= EIG_FLOOR


def hadamard() -> np.ndarray:
    return HAD.copy()


def permutation_matrix(perm) -> np.ndarray:
    """The matrix whose column s is e_perm[s]."""
    return np.eye(len(perm), dtype=complex)[:, perm]


def cnot_matrix(n: int, control: int, target: int) -> np.ndarray:
    """The package's CNOT permutation as a dense matrix."""
    return permutation_matrix(cnot_perm(n, control, target))


def dyadic_density(dim: int, seed: int, k: int = 6) -> np.ndarray:
    """(G G_dag + c e0 e0^T) / 2**k', a density matrix of dyadic rationals:
    G is seeded with entries in {-1, 0, 1} + i{-1, 0, 1}, k' >= k is the
    least with 2**k' >= tr(G G_dag), and c = 2**k' - tr(G G_dag) >= 0 makes
    the trace exactly 1.  Every entry is an integer over 2**k', so sums and
    products of a few of them are exact in float64."""
    rng = np.random.default_rng(seed)
    g = rng.integers(-1, 2, size=(dim, dim)) + 1j * rng.integers(-1, 2, size=(dim, dim))
    m = g @ g.conj().T
    trace = int(np.trace(m).real)
    k = max(k, (trace - 1).bit_length())
    m[0, 0] += (1 << k) - trace
    return m / (1 << k)


def random_density_complex(dim: int, seed: int) -> np.ndarray:
    """random_density's draws, G G_dag / tr(G G_dag) with G = A + iB, as one
    complex GEMM."""
    rng = np.random.default_rng(seed)
    g = rng.random((dim, dim)) + 1j * rng.random((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _is_classical(sigma) -> bool:
    return sigma.shape == (4, 4) and any(
        frobenius_distance(sigma, classical_state(i, j)) <= CLASSICAL_TOL
        for i in (0, 1)
        for j in (0, 1)
    )


def fresh_trial(n: int, sigma, rho, channels, repeats: int = 1) -> dict:
    """run_trial's packed stages with a fresh array per stage: pack_kron,
    the encode gather, pauli_channel_basis_packed and the decode gather
    each allocate their output; then run_trial's traces and checks."""
    spec = build_pn(n)
    sigma = np.asarray(sigma, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    chi = checked_sequence_chi(channels, (1 << n, 1 << n), repeats)
    factors = encoder_factors(n) + (("perm", kernels.channel_basis(n)),)
    p = pack(rho)
    state = circuit_conjugate(factors, pack_kron(sigma, p))
    if chi is not None:
        state = kernels.pauli_channel_basis_packed(state, chi)
    state = circuit_conjugate(factors, state, adjoint=True)
    recovered = partial_trace_leading(state, sigma.shape[0])
    ancilla_out = unpack(partial_trace_trailing(state, rho.shape[0]))
    recovered_rho = unpack(recovered)
    predicted = predicted_ancilla(sigma, channels, repeats, spec.parity, spec.sign)
    hybrid = None
    if spec.parity == "even" and _is_classical(sigma):
        hybrid = packed_kron_distance(state, sigma, p) <= HYBRID_TOL
    return {
        "recovered_rho": recovered_rho,
        "ancilla_out": ancilla_out,
        "rho_residual": frobenius_distance(recovered_rho, rho),
        "ancilla_residual": frobenius_distance(ancilla_out, predicted),
        "product_residual": packed_kron_distance(state, ancilla_out, recovered),
        "hybrid_exact": hybrid,
    }


def complex_trial(n: int, sigma, rho, channels, repeats: int = 1) -> dict:
    """run_trial's residuals and hybrid flag with every state complex128:
    encode, apply_channels and decode, then the partial traces and the
    distances on the complex decoded state."""
    spec = build_pn(n)
    sigma = np.asarray(sigma, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    decoded = decode(n, apply_channels(channels, encode(n, sigma, rho), repeats))
    recovered = partial_trace_leading(decoded, sigma.shape[0])
    ancilla = partial_trace_trailing(decoded, rho.shape[0])
    predicted = predicted_ancilla(sigma, channels, repeats, spec.parity, spec.sign)
    hybrid = None
    if spec.parity == "even" and _is_classical(sigma):
        hybrid = kron_distance(decoded, sigma, rho) <= HYBRID_TOL
    return {
        "recovered_rho": recovered,
        "ancilla_out": ancilla,
        "rho_residual": frobenius_distance(recovered, rho),
        "ancilla_residual": frobenius_distance(ancilla, predicted),
        "product_residual": kron_distance(decoded, ancilla, recovered),
        "hybrid_exact": hybrid,
    }
