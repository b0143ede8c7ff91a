from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from corrqec import (
    BadQubitCount,
    build_p2,
    build_p3,
    build_pn,
    conjugation_report,
    correlated_error,
    d_matrix,
    expected_conjugation,
    realize,
)
from corrqec.encoder import encoder_factors
from corrqec.kernels import _TILE_BYTES

from oracles import circuit_matrix, plain_ops


def _dense_conjugation(spec, axis):
    # independent route: realize the circuit densely and conjugate with GEMMs
    p = circuit_matrix(plain_ops(spec.circuit), spec.n)
    return p.conj().T @ correlated_error(axis, spec.n) @ p


def test_base_cases():
    p2 = build_p2()
    assert (p2.n, p2.parity, p2.k, p2.sign) == (2, "even", 0, 1)
    p3 = build_p3()
    assert (p3.n, p3.parity, p3.k, p3.sign) == (3, "odd", 1, -1)
    assert build_pn(2) == p2
    assert build_pn(3) == p3


def test_bad_qubit_count():
    with pytest.raises(BadQubitCount):
        build_pn(1)
    with pytest.raises(BadQubitCount):
        build_pn(0)


@pytest.mark.parametrize("n", [*range(2, 13), 1013, 5000, 5001])
def test_gate_counts(n):
    spec = build_pn(n)
    if n % 2 == 1:
        k = (n - 1) // 2
        assert spec.cnot_count == 3 * k
        assert spec.h_count == 0
    else:
        k = (n - 2) // 2
        assert spec.cnot_count == 3 * k + 2
        assert spec.h_count == 1
    assert spec.sign == (-1) ** spec.k


def test_p2_conjugation_values():
    spec = build_p2()
    p = realize(spec.circuit)
    for axis, diag in [("X", [1, -1, 1, -1]), ("Y", [-1, -1, 1, 1]), ("Z", [1, -1, -1, 1])]:
        got = p.conj().T @ correlated_error(axis, 2) @ p
        assert np.allclose(got, np.diag(diag), atol=1e-14)
        assert np.array_equal(d_matrix(axis), np.diag(diag).astype(complex))


def test_p3_conjugation_is_minus_y():
    spec = build_p3()
    got = _dense_conjugation(spec, "Y")
    want = np.kron(-np.array([[0, -1j], [1j, 0]]), np.eye(4))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", range(2, 11))
def test_expected_conjugation_against_dense_route(n):
    spec = build_pn(n)
    for axis in "XYZ":
        dense = _dense_conjugation(spec, axis)
        assert np.allclose(dense, expected_conjugation(spec, axis), atol=1e-12)
    for axis in ("I", "XY", "W"):
        with pytest.raises(ValueError):
            expected_conjugation(spec, axis)


@pytest.mark.parametrize("n", range(2, 11))
def test_conjugation_report(n):
    # exact at both parities: gathers, and a Hadamard whose scale is one 0.5
    assert conjugation_report(build_pn(n)) == (0.0, 0.0, 0.0)


def test_conjugation_report_holds_two_states_plus_half_a_tile():
    # one error and its conjugate at a time, each checked blockwise against
    # (ancilla image) ox I without forming it (2.09 states measured)
    n = 10
    spec = build_pn(n)
    encoder_factors(n)
    tracemalloc.start()
    try:
        conjugation_report(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * 4**n + _TILE_BYTES // 2


def test_sign_alternation():
    # k = 1, 2, 3, 4 for n = 3, 5, 7, 9: the Y image flips sign each step
    assert build_pn(3).sign == -1
    assert build_pn(5).sign == 1
    assert build_pn(7).sign == -1
    assert build_pn(9).sign == 1


@pytest.mark.parametrize("n", range(4, 11))
def test_recursion_matrix_identity(n):
    spec = build_pn(n)
    full = realize(spec.circuit)
    if n % 2 == 1:
        head = realize(build_pn(3).circuit)
        inner = realize(build_pn(n - 2).circuit)
        formula = np.kron(np.eye(4), inner) @ np.kron(head, np.eye(1 << (n - 3)))
    else:
        head = realize(build_pn(2).circuit)
        inner = realize(build_pn(n - 1).circuit)
        formula = np.kron(np.eye(2), inner) @ np.kron(head, np.eye(1 << (n - 2)))
    dist = float(np.linalg.norm(full - formula))
    if n % 2 == 1:
        assert dist == 0.0
    else:
        assert dist < 1e-12


def test_recursion_gate_lists():
    # the recursion at gate level, for sizes the dense check cannot reach
    for n in range(4, 201):
        if n % 2 == 1:
            head, inner = build_p3().circuit.embed(n, n - 3), build_pn(n - 2)
        else:
            head, inner = build_p2().circuit.embed(n, n - 2), build_pn(n - 1)
        assert build_pn(n).circuit.ops == head.ops + inner.circuit.ops, n


@pytest.mark.parametrize("n", range(2, 13))
def test_realized_encoder_is_unitary(n):
    m = realize(build_pn(n).circuit)
    assert np.linalg.norm(m.conj().T @ m - np.eye(1 << n)) < 1e-13


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_odd_encoders_are_exact_permutations(n):
    m = realize(build_pn(n).circuit)
    assert np.array_equal(m.imag, np.zeros_like(m.imag))
    vals = np.unique(m.real)
    assert set(vals) == {0.0, 1.0}
    assert np.array_equal(m.sum(axis=0), np.ones(1 << n))
    assert np.array_equal(m.sum(axis=1), np.ones(1 << n))
