"""Negative controls: the checks that certify the encoders must reject a
broken one.

Every single-gate mutant of build_pn(n) (a gate dropped, a CNOT's control
and target swapped, the Hadamard moved by one qubit) must leave a nonzero
conjugation residual, equal to the dense distance, and fail cmd_verify (at
large n the residual alone), and run_trial, which applies an ancilla-only
prefix of the circuit to the ancilla alone, must give each mutant the
residuals of the whole circuit; an ancilla image with the wrong sign on Y must leave a nonzero Y residual,
and an image with an imaginary part must be measured in full.  A check that
passes these broken inputs would pass anything.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from corrqec import Circuit, GateOp, PauliChannel, SpanChannel, build_pn, cli
from corrqec import classical_state, conjugation_report, encoder, random_density, scheme
from corrqec.cli import cmd_verify

from oracles import complex_trial, expected_conjugation, pauli_power, realize


def _mutants(circuit: Circuit):
    """(label, circuit) for every single-gate mutant of circuit."""
    ops, n = circuit.ops, circuit.n_qubits
    for i, op in enumerate(ops):
        yield f"drop {i}", ops[:i] + ops[i + 1:]
        if op.kind == "cnot":
            yield f"swap {i}", ops[:i] + (GateOp("cnot", op.qubits[::-1]),) + ops[i + 1:]
        else:
            for q in (op.qubits[0] - 1, op.qubits[0] + 1):
                if 0 <= q < n:
                    yield f"move {i} to {q}", ops[:i] + (GateOp("h", (q,)),) + ops[i + 1:]


def _mutant_specs(n):
    spec = build_pn(n)
    for label, ops in _mutants(spec.circuit):
        yield label, dataclasses.replace(spec, circuit=Circuit(n, ops))


@pytest.fixture
def use_spec(monkeypatch):
    """use_spec(spec): build_pn(spec.n) returns spec everywhere cmd_verify
    and run_trial look it up, and where oracles.encode and decode do."""
    real = build_pn

    def install(spec):
        patched = lambda n: spec if n == spec.n else real(n)  # noqa: E731
        for module in (encoder, cli, scheme):
            monkeypatch.setattr(module, "build_pn", patched)

    return install


@pytest.mark.parametrize("n", range(2, 8))
def test_every_single_gate_mutant_is_rejected(n, use_spec):
    mutants = list(_mutant_specs(n))
    assert len(mutants) >= build_pn(n).circuit.count("cnot") * 2
    for label, spec in mutants:
        residuals = conjugation_report(spec)
        assert any(r != 0.0 for r in residuals), (n, label)
        use_spec(spec)
        report = cmd_verify(n, 1, 3)
        assert not report.passed, (n, label)
        assert report.conjugation_residuals == residuals, (n, label)


def _dense_residuals(spec):
    """spec's residuals by GEMMs with the densely realized circuit, each
    conjugate rounded to the Gaussian integers of a Pauli string and the
    squares summed exactly."""
    p = realize(spec.circuit)
    out = []
    for axis in "XYZ":
        conj = p.conj().T @ pauli_power(axis, spec.n) @ p
        rounded = np.round(conj)
        assert np.abs(conj - rounded).max() < 1e-12
        d = rounded - expected_conjugation(spec, axis)
        out.append(math.sqrt(np.vdot(d, d).real))
    return tuple(out)


@pytest.mark.parametrize("n", range(2, 7))
def test_mutant_residuals_are_the_dense_distances(n):
    # the value of each residual, not only that it is nonzero; the spec with
    # the other parity's ancilla leaves an odd number of data qubits
    specs = [spec for _, spec in _mutant_specs(n)]
    other = "odd" if n % 2 == 0 else "even"
    specs.append(dataclasses.replace(build_pn(n), parity=other))
    for spec in specs:
        assert conjugation_report(spec) == _dense_residuals(spec), spec


@pytest.mark.parametrize("n", [20, 21, 64, 65])
def test_every_single_gate_mutant_is_rejected_at_large_n(n):
    # the conjugation half of the sweep above, past any dense check
    mutants = list(_mutant_specs(n))
    assert len(mutants) >= build_pn(n).circuit.count("cnot") * 2
    for label, spec in mutants:
        assert any(r != 0.0 for r in conjugation_report(spec)), (n, label)


def test_a_mutant_past_the_float_range_is_rejected_without_overflow():
    # at n = 2001 a nonzero residual is about 2**1000, and past n = 2048 it
    # is inf: either way nonzero, and no OverflowError on the way
    for n in (2001, 2002, 2049):
        spec = build_pn(n)
        ops = spec.circuit.ops
        for circuit in (Circuit(n, ops[1:]), Circuit(n, ops[:-1])):
            residuals = conjugation_report(dataclasses.replace(spec, circuit=circuit))
            assert any(r > 0.0 for r in residuals), n
    # the empty circuit leaves X_n on every data qubit: sqrt(2**2049 + ...)
    empty = dataclasses.replace(build_pn(2049), circuit=Circuit(2049))
    assert math.inf in conjugation_report(empty)


@pytest.mark.parametrize("n", range(2, 8))
def test_the_unmutated_encoder_passes_under_the_same_patch(n, use_spec):
    # the patch itself breaks nothing: the true spec still verifies
    use_spec(build_pn(n))
    assert cmd_verify(n, 1, 3).passed


@pytest.mark.parametrize("n", range(2, 8))
def test_flipped_y_sign_is_rejected(n, monkeypatch):
    real = encoder.ancilla_images
    monkeypatch.setattr(encoder, "ancilla_images", lambda parity, sign: real(parity, -sign))
    x, y, z = conjugation_report(build_pn(n))
    assert (x, z) == (0.0, 0.0)
    assert y > 0.0


@pytest.mark.parametrize("n", range(2, 8))
def test_an_imaginary_part_of_an_image_is_measured(n, monkeypatch):
    # an imaginary part of an image must be measured in full, never cut to
    # its real part: adding i I to every image leaves exactly
    # |i I_dim| = sqrt(2**n) each
    real = encoder.ancilla_images
    monkeypatch.setattr(
        encoder,
        "ancilla_images",
        lambda parity, sign: tuple(m + 1j * np.eye(len(m)) for m in real(parity, sign)),
    )
    assert conjugation_report(build_pn(n)) == (math.sqrt(2**n),) * 3


@pytest.mark.parametrize("n", [4, 6, 8])
def test_every_single_gate_mutant_trial_matches_the_full_circuit(n, use_spec):
    # run_trial peels the mutant's ancilla-only prefix (encoder.ancilla_head),
    # which a moved Hadamard may leave in the rest; complex_trial runs the
    # whole mutant circuit, Hadamard included, on complex128 states
    sigmas = (random_density(4, n + 400), classical_state(1, 0))
    rho = random_density(1 << (n - 2), n + 401)
    span = SpanChannel(n, ((0.8, 0, 0, 0), (0, 0.6j, 0, 0)))
    channels = [span, PauliChannel(n, (0.4, 0.3, 0.2, 0.1))]
    for label, spec in _mutant_specs(n):
        use_spec(spec)
        for sigma in sigmas:
            got = scheme.run_trial(n, sigma, rho, channels)
            want = complex_trial(n, sigma, rho, channels)
            for key in ("rho_residual", "ancilla_residual", "product_residual"):
                diff = abs(getattr(got, key) - want[key])
                assert diff <= 1e-15 * max(1.0, want[key]), (label, key, diff)
            assert got.hybrid_exact is want["hybrid_exact"], label


@pytest.mark.parametrize("n", [4, 6, 8])
def test_an_empty_list_through_every_hadamard_rest_mutant_matches_the_full_circuit(n, use_spec):
    # a mutant whose rest (what follows its ancilla-only prefix) holds a
    # Hadamard takes run_trial's fork that conjugates by the rest on either
    # side of a pass in the basis alone; its first pass, which builds the
    # state, runs by the identity chi, and with an empty list so does the
    # second
    sigmas = (random_density(4, n + 410), classical_state(1, 0))
    rho = random_density(1 << (n - 2), n + 411)
    forked = 0
    for label, spec in _mutant_specs(n):
        if not scheme.ancilla_head(spec)[2].count("h"):
            continue
        forked += 1
        use_spec(spec)
        for sigma in sigmas:
            got = scheme.run_trial(n, sigma, rho, [])
            want = complex_trial(n, sigma, rho, [])
            for key in ("rho_residual", "ancilla_residual", "product_residual"):
                diff = abs(getattr(got, key) - want[key])
                assert diff <= 1e-15 * max(1.0, want[key]), (label, key, diff)
            assert got.hybrid_exact is want["hybrid_exact"], label
    assert forked > 0
