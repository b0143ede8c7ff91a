from __future__ import annotations

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from corrqec import (
    BadQubitCount,
    BadQubitIndex,
    Circuit,
    DimensionMismatch,
    build_p2,
    build_p3,
    build_pn,
    circuit_conjugate,
    conjugate_pauli,
    conjugation_report,
    d_matrix,
    encoder,
    gates,
    h_op,
    kernels,
)

import oracles

from oracles import (
    circuit_matrix,
    expected_conjugation,
    pauli_power,
    pauli_string,
    plain_ops,
    realize,
)


def _dense_conjugation(spec, axis):
    # independent route: realize the circuit densely and conjugate with GEMMs
    p = circuit_matrix(plain_ops(spec.circuit), spec.n)
    return p.conj().T @ pauli_power(axis, spec.n) @ p


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
    # 3.0 built a spec with a float n and k; the cache is typed, so a
    # cached build_pn(np.int64(3)), a key equal to 3.0, does not answer
    # for it
    assert build_pn(np.int64(3)) == build_pn(3)
    for n in (2.5, 3.0, "3", None):
        with pytest.raises(BadQubitCount, match="not an integer"):
            build_pn(n)


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
        got = p.conj().T @ pauli_power(axis, 2) @ p
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


@pytest.mark.parametrize("n", range(2, 10))
def test_conjugate_pauli_against_dense_conjugation(n):
    # the Pauli-frame route of conjugation_report, one axis at a time,
    # against GEMMs with the densely realized encoder: equal to within
    # rounding, and equal once rounded to the Gaussian integers that the
    # entries of a Pauli string are
    spec = build_pn(n)
    ones = (1 << n) - 1
    frames = {"X": (ones, 0, 0), "Y": (ones, ones, n % 4), "Z": (0, ones, 0)}
    for axis in "XYZ":
        x, z, e = conjugate_pauli(spec.circuit, *frames[axis])
        got = pauli_string(x, z, e, n)
        dense = _dense_conjugation(spec, axis)
        assert np.abs(dense - got).max() < 1e-12, (n, axis)
        assert np.array_equal(np.round(dense), got), (n, axis)
        assert np.array_equal(got, expected_conjugation(spec, axis)), (n, axis)


@pytest.mark.parametrize("n", range(2, 11))
def test_real_conjugation_is_the_complex_one(n):
    # each error is u R with R real and u = 1 or (-i)**n, and the gates are
    # real, so P_dag (u R) P = u (P_dag R P) entry for entry: the float64
    # kernel path, scaled by its exact 0.5, against the complex128 one
    circuit = build_pn(n).circuit
    for axis in "XYZ":
        w = pauli_power(axis, n)
        u = (-1j) ** n if axis == "Y" else 1
        r = (w / u).real
        assert np.array_equal(u * r, w)
        want = circuit_conjugate(circuit, w, adjoint=True)
        assert want.dtype == np.complex128
        real = circuit_conjugate(circuit, r, adjoint=True)
        assert real.dtype == np.float64
        assert np.array_equal(u * real, want), (n, axis)


def test_conjugation_report_calls_no_kernel_and_no_memory_bound(monkeypatch):
    # Pauli frames and at most 4x4 matrices: every dense kernel fails if
    # called, and with 2 MiB of physical memory reported a memory bound
    # would reject n = 8 already
    def fail(*args):
        raise AssertionError("conjugation_report called a dense kernel")

    # (_step_rows sizes the steps of every tiled kernel, the tensor
    # module's Frobenius distance among them)
    for name in ("gather_conjugate", "kron_dist", "_step_rows"):
        monkeypatch.setattr(kernels, name, fail)
    monkeypatch.setattr(gates, "_hadamard_in_place", fail)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 512}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    for n in (2, 3, 8, 12, 13, 40):
        assert conjugation_report(build_pn(n)) == (0.0, 0.0, 0.0), n


def _conjugation_peak(n):
    spec = build_pn(n)
    assert conjugation_report(spec) == (0.0, 0.0, 0.0)  # and warm the caches
    tracemalloc.start()
    try:
        conjugation_report(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conjugation_report_holds_two_states_plus_half_a_tile():
    # far below it: no state is built at all (see the large-n test)
    n = 10
    assert _conjugation_peak(n) < 2 * 16 * 4**n + kernels._TILE_BYTES // 2


def test_conjugation_report_holds_one_state_plus_half_a_tile():
    n = 10
    assert _conjugation_peak(n) < 16 * 4**n + kernels._TILE_BYTES // 2


@pytest.mark.parametrize("n", [10, 11, 1001, 1002])
def test_conjugation_report_at_large_n_holds_under_a_mebibyte(n):
    # two n-bit masks per error and a few 4x4 matrices: no state is built,
    # so the bound holds at an n of a 16 MiB state as at n = 1001
    assert _conjugation_peak(n) < 1 << 20


def _with_hadamards(n, count):
    """build_pn(n) followed by `count` Hadamards on qubit 0, in pairs that
    cancel, so an even count leaves the encoder's unitary as it was."""
    spec = build_pn(n)
    circuit = Circuit(n, spec.circuit.ops + (h_op(0),) * count)
    return dataclasses.replace(spec, circuit=circuit)


def test_conjugation_report_runs_forty_cancelling_hadamards():
    # no Hadamard count bounds the Pauli-frame check
    for n in (3, 4, 12, 13):
        spec = _with_hadamards(n, 40)
        assert spec.h_count == 40 + (n % 2 == 0)
        assert conjugation_report(spec) == (0.0, 0.0, 0.0), n
    # an odd count leaves one Hadamard on a data qubit: the check sees it
    assert conjugation_report(_with_hadamards(5, 41)) != (0.0, 0.0, 0.0)


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


def test_conjugation_report_rejects_an_inconsistent_spec():
    # a circuit on fewer qubits than the spec's n read (4.0, 4.0, 4.0); a
    # parity other than "odd" ran as even, and a sign of 2 read a Y residual
    # of 8.49: each is refused with predicted_ancilla's parity/sign check
    spec = build_pn(3)
    with pytest.raises(DimensionMismatch):
        conjugation_report(dataclasses.replace(spec, circuit=build_pn(2).circuit))
    spec = build_pn(4)
    for parity in ("x", "Odd", None):
        with pytest.raises(ValueError, match="parity"):
            conjugation_report(dataclasses.replace(spec, parity=parity))
    for sign in (2, 0, -2, 0.5):
        with pytest.raises(ValueError, match="sign"):
            conjugation_report(dataclasses.replace(spec, sign=sign))
    # a spec with the other parity's values, or the flipped sign, is a
    # consistent spec whose residuals are nonzero, not an error
    assert any(conjugation_report(dataclasses.replace(spec, parity="odd")))
    assert conjugation_report(dataclasses.replace(spec, sign=-spec.sign))[1] > 0.0


@pytest.mark.parametrize("n", range(2, 14))
def test_encode_table_is_the_rest_then_the_channel_basis(n):
    # the rest after the ancilla-only head and then channel_basis, composed
    # as GF(2) matrices and written once from the inverse: the gather table
    # of the oracles' per-gate permutations and bit formula, cached and
    # read-only
    rest = encoder.ancilla_head(build_pn(n))[2]
    assert isinstance(rest, Circuit) and rest.count("h") == 0
    perm = oracles.channel_basis_perm(n)[oracles.circuit_perm(rest)]
    table = encoder.encode_table(rest)
    assert np.array_equal(table, np.argsort(perm))
    assert encoder.encode_table(rest) is table and not table.flags.writeable
    # the empty circuit is the basis alone
    basis = encoder.encode_table(Circuit(n))
    assert np.array_equal(basis, np.argsort(oracles.channel_basis_perm(n)))


def test_encode_table_refuses_a_hadamard():
    with pytest.raises(BadQubitIndex, match="non-CNOT"):
        encoder.encode_table(Circuit(3, (h_op(1),)))
