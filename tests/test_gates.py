from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec import (
    BadQubitCount,
    build_pn,
    gates,
    kernels,
    BadQubitIndex,
    BitMatrix,
    Circuit,
    DimensionMismatch,
    GateOp,
    WrongType,
    circuit_conjugate,
    circuit_table,
    cnot_op,
    conjugate_pauli,
    h_op,
    invert,
    pauli,
)
from corrqec.gates import CONJUGATE_PEAK_STATES, channel_basis, cnot_table

import oracles

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
        cnot_table(2, -1, 0)


def test_cnot_differs_from_identity_in_half_the_columns():
    for n in range(2, 6):
        perm = cnot_table(n, 1, 0).table()
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
    # a float passes n_qubits >= 1, and 3.0 made 2**n_qubits a float
    for n in (2.5, 3.0, "3", None):
        with pytest.raises(BadQubitCount, match="not an integer"):
            Circuit(n)
    assert type(Circuit(np.int64(3)).n_qubits) is int


@pytest.mark.parametrize("q", [1.5, 2.0, "1", None])
def test_a_qubit_that_is_not_an_integer_is_rejected(q):
    # a float passes 0 <= q < n; it is refused where a qubit enters, not
    # left to fail as a TypeError in a shift
    for build in (lambda: h_op(q), lambda: cnot_op(q, 0), lambda: cnot_op(0, q),
                  lambda: Circuit(3, (GateOp("h", (q,)),)),
                  lambda: Circuit(3, (GateOp("cnot", (0, q)),)),
                  lambda: cnot_table(3, q, 0)):
        with pytest.raises(BadQubitIndex):
            build()


@pytest.mark.parametrize(
    "op",
    [
        GateOp("h", (0, 1)),
        GateOp("h", ()),
        GateOp("cnot", (0, 1, 2)),
        GateOp("cnot", (1,)),
        GateOp("cnot", (1, 1)),
        GateOp("h", 0),
        GateOp("cnot", None),
        GateOp("cnot", [0, 1]),
    ],
    ids=[
        "h-on-two", "h-on-none", "cnot-on-three", "cnot-on-one", "cnot-on-one-twice",
        "h-on-a-bare-int", "cnot-on-None", "cnot-on-a-list",
    ],
)
def test_a_gate_of_the_wrong_arity_is_rejected(op):
    # an h acts on one qubit and a cnot on two distinct ones, given as a
    # tuple (a GateOp is hashed by them); anything else is refused as the
    # circuit is built, not run as a different gate (a cnot with control
    # equal to target would drop an X on that qubit) or left to fail as a
    # TypeError
    with pytest.raises(BadQubitIndex, match="distinct qubits"):
        Circuit(3, (op,))


def test_numpy_integer_qubits_are_accepted():
    one, two = np.int64(1), np.int32(2)
    c = Circuit(3, (cnot_op(two, one), h_op(one), cnot_op(0, two)))
    want = Circuit(3, (cnot_op(2, 1), h_op(1), cnot_op(0, 2)))
    assert conjugate_pauli(c, 0b101, 0b010, 0) == conjugate_pauli(want, 0b101, 0b010, 0)
    assert cnot_table(3, two, one) == cnot_table(3, 2, 1)
    m = np.random.default_rng(48).normal(size=(8, 8))
    assert np.array_equal(circuit_conjugate(c, m), circuit_conjugate(want, m))


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
    # realize builds p gate by gate, so the CNOT runs that circuit_conjugate
    # composes as GF(2) matrices are checked against the gates themselves
    got = circuit_conjugate(c, m)
    assert np.allclose(got, p @ m @ p.conj().T, atol=1e-13)
    got = circuit_conjugate(c, m, adjoint=True)
    assert np.allclose(got, p.conj().T @ m @ p, atol=1e-13)


@pytest.mark.parametrize("n", range(2, 10))
def test_encoder_conjugation_is_one_kernel_call(monkeypatch, n):
    # odd n is one CNOT permutation: one gather; even n a permutation, one
    # Hadamard and a permutation: a gather, a butterfly on it, a gather
    calls = []
    for module, name in ((kernels, "gather_conjugate"), (gates, "_hadamard_in_place")):
        fn = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args)
        )
    m = np.eye(1 << n, dtype=complex)
    want = ["gather_conjugate"]
    if n % 2 == 0:
        want = ["gather_conjugate", "_hadamard_in_place", "gather_conjugate"]
    for adjoint in (False, True):
        calls.clear()
        circuit_conjugate(build_pn(n).circuit, m, adjoint=adjoint)
        assert calls == want


def test_single_qubit_embedding_convention():
    # H on qubit q acts as I ox H ox I with 2**q trailing identity dimensions
    for n, q in [(2, 0), (2, 1), (3, 1), (4, 2)]:
        got = realize(Circuit(n, (h_op(q),)))
        want = np.kron(
            np.eye(1 << (n - 1 - q)), np.kron(HAD, np.eye(1 << q))
        )
        assert np.allclose(got, want, atol=1e-15)


def _pieces(circuit):
    """The circuit as Circuits of its CNOT runs and its Hadamards alone, in
    order: run, H, run, ..., run (a run may be empty)."""
    pieces = [()]
    for op in circuit.ops:
        if op.kind == "cnot":
            pieces[-1] += (op,)
        else:
            pieces += [(op,), ()]
    return [Circuit(circuit.n_qubits, ops) for ops in pieces]


def _run_by_run(circuit, m, adjoint):
    """circuit_conjugate with one call, and one new array, per CNOT run and
    per Hadamard of the circuit."""
    pieces = _pieces(circuit)
    for piece in reversed(pieces) if adjoint else pieces:
        m = circuit_conjugate(piece, m, adjoint=adjoint)
    return m


@pytest.mark.parametrize("index", range(len(CONJUGATE_CIRCUITS)))
def test_circuit_conjugate_into_out_matches_the_allocating_call(index):
    # circuit_conjugate composes the CNOTs on either side of each Hadamard
    # into one gather, each allocating its output; gathers only move
    # entries, so it is the run-by-run calls bit for bit, in either dtype
    # and direction, and leaves its input as it was
    c = CONJUGATE_CIRCUITS[index]
    dim = 1 << c.n_qubits
    rng = np.random.default_rng(index + 40)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for x in (m, m.real.copy()):
        kept = x.copy()
        for adjoint in (False, True):
            got = circuit_conjugate(c, x, adjoint=adjoint)
            assert got.dtype == x.dtype
            assert np.array_equal(got, _run_by_run(c, x, adjoint))
        assert np.array_equal(x, kept)


def test_circuit_conjugate_rejects_a_matrix_of_the_wrong_size():
    # a Circuit conjugates a 2**n_qubits-dim square matrix; anything else
    # is refused before any pass
    p2 = Circuit(2, (h_op(0),))
    for circuit, m in (
        (p2, np.arange(256.0).reshape(16, 16)),
        (p2, np.ones((4, 2))),
        (Circuit(4), np.eye(3)),
        (Circuit(4), np.arange(5.0)),
        (Circuit(2, (cnot_op(0, 1),)), np.eye(8)),
        (Circuit(3, (h_op(0),)), np.eye(6)),
        (Circuit(3, (h_op(0),)), np.ones((16, 8))),
    ):
        for adjoint in (False, True):
            with pytest.raises(DimensionMismatch):
                circuit_conjugate(circuit, m, adjoint=adjoint)
    # the right sizes still pass
    assert circuit_conjugate(Circuit(4), np.eye(16)).shape == (16, 16)
    assert np.array_equal(circuit_conjugate(Circuit(3), np.eye(8)), np.eye(8))


def test_circuit_conjugate_rejects_a_bad_out():
    # circuit_conjugate takes no output buffer, so any out is refused, and
    # a circuit with gates returns a new array, never its input
    c = build_pn(4).circuit
    m = np.random.default_rng(41).normal(size=(16, 16))
    with pytest.raises(TypeError):
        circuit_conjugate(c, m, out=np.empty_like(m))
    for circuit in (c, Circuit(4, (cnot_op(0, 1),)), Circuit(4, (h_op(2),))):
        for adjoint in (False, True):
            assert not np.shares_memory(circuit_conjugate(circuit, m, adjoint=adjoint), m)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_circuit_conjugate_never_returns_its_input(dtype):
    # a circuit with no gates is the identity gather: a new array, never m,
    # even for an m in the dtype and layout the gather reads as it is
    rng = np.random.default_rng(42)
    m = rng.normal(size=(16, 16)).astype(dtype)
    if dtype == np.complex128:
        m += 1j * rng.normal(size=(16, 16))
    for circuit in (Circuit(4), Circuit(4, (cnot_op(0, 1), cnot_op(0, 1)))):
        for adjoint in (False, True):
            got = circuit_conjugate(circuit, m, adjoint=adjoint)
            assert got.dtype == m.dtype and np.array_equal(got, m)
            assert not np.shares_memory(got, m)


def _rejected_before_any_pass(monkeypatch, error, factors, m):
    """Assert circuit_conjugate(factors, m) raises error in both directions
    before any gather or butterfly, allocating under a quarter of m, and
    leaves m as it was."""
    def fail(*args):
        raise AssertionError("circuit_conjugate ran a pass")

    monkeypatch.setattr(kernels, "gather_conjugate", fail)
    monkeypatch.setattr(gates, "_hadamard_in_place", fail)
    kept = m.copy()
    for adjoint in (False, True):
        tracemalloc.start()
        try:
            with pytest.raises(error):
                circuit_conjugate(factors, m, adjoint=adjoint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes // 4, (factors, adjoint)
    assert np.array_equal(m, kept)


@pytest.mark.parametrize(
    "factors",
    [(("bogus", 0),), (("perm", np.arange(64)[::-1]), ("H", 1)), (("h", 0), ("cnot", (0, 1)))],
)
def test_circuit_conjugate_rejects_an_unknown_factor_kind(monkeypatch, factors):
    # circuit_conjugate takes a Circuit alone: a list of factors, of any
    # kind, is refused as a wrong type, not run
    m = np.random.default_rng(43).normal(size=(64, 64))
    _rejected_before_any_pass(monkeypatch, WrongType, factors, m)


def test_circuit_conjugate_rejects_a_perm_factor_that_is_not_a_permutation(monkeypatch):
    # a CNOT run is a BitMatrix, which is invertible by construction, so
    # every table it writes is a permutation: a singular matrix, whose
    # table would repeat an index, is refused as it is built, and a table
    # given in its place is refused as a wrong type before any pass
    for rows in ((0b01, 0b01), (0b011, 0b110, 0b101), (0b10, 0b00)):
        with pytest.raises(DimensionMismatch, match="singular"):
            BitMatrix(len(rows), rows)
    m = np.random.default_rng(45).normal(size=(64, 64))
    repeats = np.arange(64)
    repeats[1] = 0
    for factors in ((("perm", repeats),), (("h", 2), ("perm", repeats))):
        _rejected_before_any_pass(monkeypatch, WrongType, factors, m)


@pytest.mark.parametrize("q", [-1, 6, 9])
def test_circuit_conjugate_rejects_a_hadamard_on_no_qubit(q):
    # the circuit that would carry it is refused as it is built
    with pytest.raises(BadQubitIndex):
        Circuit(6, (h_op(0), cnot_op(0, 1), h_op(q)))


def test_circuit_conjugate_checks_memory_before_any_pass(monkeypatch):
    # 2 MiB of physical memory holds CONJUGATE_PEAK_STATES states at n = 7,
    # not at n = 8
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 512}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    assert CONJUGATE_PEAK_STATES * 16 * 4**7 <= 2 << 20 < CONJUGATE_PEAK_STATES * 16 * 4**8
    small = np.eye(1 << 7)
    assert np.array_equal(circuit_conjugate(build_pn(7).circuit, small), small)
    m = np.random.default_rng(47).normal(size=(1 << 8, 1 << 8))
    for circuit in (build_pn(8).circuit, Circuit(8)):
        _rejected_before_any_pass(monkeypatch, BadQubitCount, circuit, m)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_circuit_conjugate_holds_two_states_plus_half_a_tile(dtype):
    # an even-n encoder: the gather it reads, the one it writes and their
    # tile scratch, past the input (the butterflies' scratch, half a state
    # each, comes while one gather is held); measured 2.04-2.09 states at
    # n = 10
    n = 10
    m = np.random.default_rng(48).normal(size=(1 << n, 1 << n)).astype(dtype)
    circuit = build_pn(n).circuit
    assert CONJUGATE_PEAK_STATES * 16 * 4**n >= 16 * 4**n + 2 * m.nbytes
    for adjoint in (False, True):
        tracemalloc.start()
        try:
            circuit_conjugate(circuit, m, adjoint=adjoint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * m.nbytes + kernels._TILE_BYTES // 2, (dtype, adjoint)


def test_conjugate_pauli_rejects_masks_outside_the_register():
    # a mask past bit n - 1 or a negative one names no Pauli string on the
    # circuit's qubits; the shifts would run on it all the same
    c = build_pn(3).circuit
    for x, z in ((-1, 0), (1 << 10, 0), (8, 0), (0, -1), (0, 8)):
        with pytest.raises(BadQubitIndex, match="masks"):
            conjugate_pauli(c, x, z, 0)
    assert conjugate_pauli(c, 0, 0, 0) == (0, 0, 0)
    # the widest masks are accepted, and map into the register
    x, z, _ = conjugate_pauli(c, 7, 7, 3)
    assert 0 <= x < 8 and 0 <= z < 8


@pytest.mark.parametrize("n", range(1, 15))
def test_channel_basis_rows_match_the_bit_formula(n):
    # channel_basis is written as its row masks; its table is the parent
    # bit formula the oracles keep, entry for entry
    basis = channel_basis(n)
    assert np.array_equal(basis.table(), oracles.channel_basis_perm(n))
    assert np.array_equal(basis.inverse().table(), np.argsort(oracles.channel_basis_perm(n)))


@pytest.mark.parametrize("n", range(2, 15))
def test_encoder_run_tables_are_the_per_gate_permutations(n):
    # each CNOT run of P_n, composed as a GF(2) matrix and written once,
    # is the composition of its gates' own permutations (oracles.gate_perm)
    for run in _pieces(build_pn(n).circuit)[::2]:
        assert np.array_equal(circuit_table(run).table(), oracles.circuit_perm(run))


@st.composite
def _words(draw):
    """A {CNOT, H} word on n <= 6 qubits, 0 to 12 gates."""
    n = draw(st.integers(1, 6))
    cnot = st.permutations(range(n)).map(lambda qs: cnot_op(qs[0], qs[1]))
    gate = st.integers(0, n - 1).map(h_op) if n == 1 else st.one_of(
        cnot, st.integers(0, n - 1).map(h_op)
    )
    return Circuit(n, tuple(draw(st.lists(gate, max_size=12))))


@given(_words(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gf2_runs_match_the_gates_one_by_one(circuit, seed):
    # table() against the per-gate permutations composed in order,
    # inverse().table() against argsort, and circuit_conjugate against the
    # dense product of the gates (realize) in both directions
    for run in _pieces(circuit)[::2]:
        table = circuit_table(run).table()
        assert np.array_equal(table, oracles.circuit_perm(run))
        assert np.array_equal(circuit_table(run).inverse().table(), np.argsort(table))
    dim = 1 << circuit.n_qubits
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    p = realize(circuit)
    assert np.allclose(circuit_conjugate(circuit, m), p @ m @ p.conj().T, atol=1e-12)
    assert np.allclose(circuit_conjugate(circuit, m, adjoint=True), p.conj().T @ m @ p, atol=1e-12)
