from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec import (
    BadQubitCount,
    build_pn,
    kernels,
    BadQubitIndex,
    Circuit,
    DimensionMismatch,
    circuit_conjugate,
    cnot_op,
    cnot_perm,
    conjugate_pauli,
    h_op,
    invert,
    pauli,
)

from oracles import (
    HAD,
    SX,
    SY,
    SZ,
    circuit_matrix,
    cnot_dense,
    cnot_matrix,
    hadamard,
    pauli_power,
    pauli_string,
    plain_ops,
    realize,
)

# the correlated error X_n, Y_n or Z_n, densely
_error = pauli_power


def test_pauli_matrices():
    assert np.array_equal(pauli("X"), SX)
    assert np.array_equal(pauli("Y"), SY)
    assert np.array_equal(pauli("Z"), SZ)
    with pytest.raises(ValueError):
        pauli("Q")


def test_hadamard():
    h = hadamard()
    assert np.allclose(h @ h, np.eye(2), atol=1e-15)
    assert np.allclose(h @ SX @ h, SZ, atol=1e-15)
    assert np.allclose(np.abs(h), np.sqrt(0.5), atol=1e-15)


def _columns(m):
    return [int(np.argmax(m[:, s].real)) for s in range(m.shape[1])]


def test_cnot_column_pins():
    # these two column lists pin the global index convention
    assert _columns(cnot_matrix(3, 0, 2)) == [0, 5, 2, 7, 4, 1, 6, 3]
    assert _columns(cnot_matrix(2, 0, 1)) == [0, 3, 2, 1]


def test_cnot_matches_dense_oracle():
    for n in range(2, 5):
        for c in range(n):
            for t in range(n):
                if c != t:
                    assert np.array_equal(cnot_matrix(n, c, t), cnot_dense(n, c, t))


@given(st.integers(2, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_cnot_involution(n, data):
    c = data.draw(st.integers(0, n - 1))
    t = data.draw(st.integers(0, n - 1).filter(lambda q: q != c))
    m = cnot_matrix(n, c, t)
    assert np.array_equal(m @ m, np.eye(1 << n))


def test_cnot_bad_indices():
    with pytest.raises(BadQubitIndex):
        cnot_matrix(3, 1, 1)
    with pytest.raises(BadQubitIndex):
        cnot_matrix(3, 0, 3)
    with pytest.raises(BadQubitIndex):
        cnot_perm(2, -1, 0)


def test_cnot_differs_from_identity_in_half_the_columns():
    for n in range(2, 6):
        perm = cnot_perm(n, 1, 0)
        assert int(np.sum(perm != np.arange(1 << n))) == 1 << (n - 1)


@pytest.mark.parametrize("axis", ["X", "Y", "Z"])
@pytest.mark.parametrize("n", range(1, 7))
def test_correlated_error_equals_kron_power(axis, n):
    # as the Pauli string i**e X**x Z**z that conjugation_report starts
    # from: Y = i X Z, so Y_n = i**n X_n Z_n
    ones = (1 << n) - 1
    x, z, e = {"X": (ones, 0, 0), "Y": (ones, ones, n % 4), "Z": (0, ones, 0)}[axis]
    assert np.array_equal(pauli_string(x, z, e, n), pauli_power(axis, n))


def _random_circuit(n, rng):
    """A seeded random {CNOT, H} circuit on n qubits, 0 to 3n gates."""
    ops = []
    for _ in range(int(rng.integers(0, 3 * n + 1))):
        if n == 1 or rng.random() < 0.3:
            ops.append(h_op(int(rng.integers(n))))
        else:
            c, t = rng.choice(n, size=2, replace=False)
            ops.append(cnot_op(int(c), int(t)))
    return Circuit(n, tuple(ops))


@pytest.mark.parametrize("n", range(1, 7))
def test_conjugate_pauli_matches_dense_conjugation(n):
    # 8 random Pauli strings (x, z, e) through each of 20 random circuits:
    # the string rebuilt from conjugate_pauli's output equals
    # P_dag W P entry for entry, phase included.  The GEMM route through
    # realize rounds at each 1/sqrt2, so it is rounded back to the Gaussian
    # integers a Pauli string has, after a tight closeness check; the
    # kernel route is exact as it stands.
    rng = np.random.default_rng(700 + n)
    for _ in range(20):
        circuit = _random_circuit(n, rng)
        p = realize(circuit)
        for _ in range(8):
            x, z, e = (int(v) for v in rng.integers(0, (1 << n, 1 << n, 4)))
            w = pauli_string(x, z, e, n)
            got = pauli_string(*conjugate_pauli(circuit, x, z, e), n)
            dense = p.conj().T @ w @ p
            assert np.abs(dense - got).max() < 1e-12, (circuit, x, z, e)
            assert np.array_equal(np.round(dense), got), (circuit, x, z, e)
            assert np.array_equal(circuit_conjugate(circuit, w, adjoint=True), got)


def test_circuit_conjugate_keeps_float64_and_coerces_the_rest():
    circuit = build_pn(4).circuit
    m = np.arange(256, dtype=np.float64).reshape(16, 16)
    real = circuit_conjugate(circuit, m)
    assert real.dtype == np.float64
    for other in (m.astype(np.int16), m.astype(np.int64), m.astype(np.float32), m.astype(complex)):
        got = circuit_conjugate(circuit, other)
        assert got.dtype == np.complex128
        assert np.array_equal(got, real)
    assert circuit_conjugate(Circuit(4), m).dtype == np.float64


def test_correlated_error_structure():
    assert np.array_equal(_error("Z", 2), np.diag([1, -1, -1, 1]).astype(complex))
    for n in range(1, 7):
        x = _error("X", n)
        assert np.array_equal(x, np.fliplr(np.eye(1 << n)))
    assert np.array_equal(_error("Y", 2).imag, np.zeros((4, 4)))


def test_correlated_error_products():
    # X_n Y_n = i**n Z_n, by direct multiplication
    for n in range(1, 7):
        lhs = _error("X", n) @ _error("Y", n)
        assert np.allclose(lhs, (1j**n) * _error("Z", n), atol=1e-14)


def test_realize_empty_circuit():
    assert np.array_equal(realize(Circuit(3)), np.eye(8))


def test_realize_matches_dense_oracle():
    circuits = [
        Circuit(2, (cnot_op(0, 1), h_op(0), cnot_op(0, 1))),
        Circuit(3, (cnot_op(2, 1), cnot_op(0, 2), cnot_op(1, 0))),
        Circuit(3, (h_op(2), cnot_op(0, 1), h_op(1), cnot_op(2, 0))),
        Circuit(4, (cnot_op(3, 0), h_op(2), h_op(0), cnot_op(1, 2), cnot_op(0, 3))),
    ]
    for c in circuits:
        assert np.allclose(realize(c), circuit_matrix(plain_ops(c), c.n_qubits), atol=1e-14)


def test_realize_p2_conjugation():
    p2 = realize(Circuit(2, (cnot_op(0, 1), h_op(0), cnot_op(0, 1))))
    d_x = p2.conj().T @ pauli_power("X", 2) @ p2
    assert np.allclose(d_x, np.diag([1, -1, 1, -1]), atol=1e-14)


def test_realize_p3_columns():
    p3 = realize(Circuit(3, (cnot_op(2, 1), cnot_op(0, 2), cnot_op(1, 0))))
    assert _columns(p3) == [0, 5, 3, 6, 7, 2, 4, 1]


def test_realize_cnot_only_is_exact_permutation():
    m = realize(Circuit(3, (cnot_op(2, 1), cnot_op(0, 2), cnot_op(1, 0))))
    assert set(np.unique(m.real)) == {0.0, 1.0}
    assert np.array_equal(m.imag, np.zeros((8, 8)))
    assert np.array_equal(m.sum(axis=0), np.ones(8))


def test_realize_unitary():
    c = Circuit(3, (h_op(1), cnot_op(0, 2), h_op(0), cnot_op(2, 1)))
    m = realize(c)
    assert np.allclose(m.conj().T @ m, np.eye(8), atol=1e-13)


def test_invert():
    c = Circuit(3, (cnot_op(2, 1), cnot_op(0, 2), cnot_op(1, 0)))
    assert invert(invert(c)) == c
    single = Circuit(2, (cnot_op(0, 1),))
    assert invert(single) == single
    assert np.allclose(realize(invert(c)) @ realize(c), np.eye(8), atol=1e-13)
    # the three-CNOT encoder is real orthogonal, so inversion is transposition
    assert np.allclose(realize(invert(c)), realize(c).T, atol=1e-14)


def test_circuit_validation():
    with pytest.raises(BadQubitIndex):
        Circuit(2, (cnot_op(0, 2),))
    with pytest.raises(BadQubitIndex):
        cnot_op(1, 1)
    with pytest.raises(BadQubitCount):
        Circuit(0)


def test_circuit_conjugate_matches_dense():
    c = Circuit(3, (cnot_op(2, 1), h_op(0), cnot_op(0, 2), cnot_op(1, 0)))
    p = circuit_matrix(plain_ops(c), 3)
    rng = np.random.default_rng(5)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert np.allclose(circuit_conjugate(c, m), p @ m @ p.conj().T, atol=1e-13)
    assert np.allclose(
        circuit_conjugate(c, m, adjoint=True), p.conj().T @ m @ p, atol=1e-13
    )


# Circuits with 0 to 3 Hadamards: adjacent ones, a leading and a trailing
# one, and CNOT runs between them.
CONJUGATE_CIRCUITS = [
    Circuit(3),
    Circuit(3, (cnot_op(2, 1), cnot_op(0, 2), cnot_op(1, 0))),
    Circuit(3, (h_op(1),)),
    Circuit(3, (h_op(2), cnot_op(0, 1), cnot_op(1, 2))),
    Circuit(3, (cnot_op(0, 1), cnot_op(2, 0), h_op(0))),
    Circuit(4, (cnot_op(3, 0), h_op(2), h_op(0), cnot_op(1, 2), cnot_op(0, 3))),
    Circuit(4, (h_op(3), cnot_op(0, 1), h_op(1), cnot_op(2, 0), cnot_op(3, 1))),
    Circuit(4, (h_op(0), h_op(0), cnot_op(2, 3), h_op(3))),
    Circuit(5, (cnot_op(4, 0), h_op(1), cnot_op(0, 2), h_op(4), h_op(2), cnot_op(3, 4))),
]


@pytest.mark.parametrize("index", range(len(CONJUGATE_CIRCUITS)))
def test_circuit_conjugate_matches_realize(index):
    c = CONJUGATE_CIRCUITS[index]
    dim = 1 << c.n_qubits
    p = realize(c)
    rng = np.random.default_rng(index)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    # one factor per gate, so consecutive CNOT tables compose inside
    # circuit_conjugate rather than in circuit_factors
    per_gate = tuple(
        ("perm", cnot_perm(c.n_qubits, *op.qubits)) if op.kind == "cnot" else ("h", op.qubits[0])
        for op in c.ops
    )
    for factors in (c, per_gate):
        got = circuit_conjugate(factors, m)
        assert np.allclose(got, p @ m @ p.conj().T, atol=1e-13)
        got = circuit_conjugate(factors, m, adjoint=True)
        assert np.allclose(got, p.conj().T @ m @ p, atol=1e-13)


@pytest.mark.parametrize("n", range(2, 10))
def test_encoder_conjugation_is_one_kernel_call(monkeypatch, n):
    calls = []
    for name in ("gather_conjugate", "gather_hadamard_conjugate"):
        fn = getattr(kernels, name)
        monkeypatch.setattr(
            kernels, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args)
        )
    m = np.eye(1 << n, dtype=complex)
    for adjoint in (False, True):
        calls.clear()
        circuit_conjugate(build_pn(n).circuit, m, adjoint=adjoint)
        assert calls == (["gather_hadamard_conjugate"] if n % 2 == 0 else ["gather_conjugate"])


def test_single_qubit_embedding_convention():
    # H on qubit q acts as I ox H ox I with 2**q trailing identity dimensions
    for n, q in [(2, 0), (2, 1), (3, 1), (4, 2)]:
        got = realize(Circuit(n, (h_op(q),)))
        want = np.kron(
            np.eye(1 << (n - 1 - q)), np.kron(HAD, np.eye(1 << q))
        )
        assert np.allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("index", range(len(CONJUGATE_CIRCUITS)))
def test_circuit_conjugate_into_out_matches_the_allocating_call(index):
    # the circuits hold 0 to 3 Hadamards; only the last kernel writes into out
    c = CONJUGATE_CIRCUITS[index]
    dim = 1 << c.n_qubits
    rng = np.random.default_rng(index + 40)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for x in (m, m.real.copy()):
        kept = x.copy()
        for adjoint in (False, True):
            out = np.full_like(x, np.nan)
            got = circuit_conjugate(c, x, adjoint=adjoint, out=out)
            assert got is out
            assert np.array_equal(got, circuit_conjugate(c, x, adjoint=adjoint))
        assert np.array_equal(x, kept)


def test_circuit_conjugate_rejects_a_matrix_of_the_wrong_size():
    # a Circuit conjugates a 2**n_qubits-dim square matrix, factors a square
    # matrix of power-of-two dim; anything else is refused before any pass
    p2 = Circuit(2, (h_op(0),))
    for circuit, m in (
        (p2, np.arange(256.0).reshape(16, 16)),
        (p2, np.ones((4, 2))),
        (Circuit(4), np.eye(3)),
        (Circuit(4), np.arange(5.0)),
        (Circuit(2, (cnot_op(0, 1),)), np.eye(8)),
        ((), np.eye(6)),
        ((("h", 0),), np.eye(6)),
        ((("h", 0),), np.ones((16, 8))),
    ):
        for adjoint in (False, True):
            with pytest.raises(DimensionMismatch):
                circuit_conjugate(circuit, m, adjoint=adjoint)
    # the right sizes still pass
    assert circuit_conjugate(Circuit(4), np.eye(16)).shape == (16, 16)
    assert np.array_equal(circuit_conjugate((), np.eye(8)), np.eye(8))


def test_circuit_conjugate_rejects_a_bad_out():
    c = build_pn(4).circuit
    m = np.random.default_rng(41).normal(size=(16, 16))
    for bad in (np.empty((16, 8)), np.empty((16, 16), dtype=complex), np.empty((16, 16), order="F")):
        with pytest.raises(DimensionMismatch):
            circuit_conjugate(c, m, out=bad)
    # with no gates too, where out would only be a copy
    for circuit in (c, Circuit(4)):
        with pytest.raises(ValueError, match="shares memory"):
            circuit_conjugate(circuit, m, out=m)
