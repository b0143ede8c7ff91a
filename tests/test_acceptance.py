"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints a single PASS line (visible with -rA or -s) after its
asserts hold at the stated tolerance; a failure reads as the criterion
number.  Timed criteria measure cold wall clock: the kernels are plain
numpy, so there is no JIT and no warm-up.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from corrqec import (
    PauliChannel,
    SpanChannel,
    build_p3,
    build_pn,
    circuit_table,
    classical_state,
    conjugation_report,
    counting_lower_bound,
    exhaustive_search,
    export_qasm,
    identity_table,
    mismatch_count,
    random_density,
    realize,
    run_trial,
)
from corrqec.optimality import cnot_pairs, word_circuit

from oracles import random_span_coeffs

GOLDEN = Path(__file__).parent / "golden"


def test_criterion_1_conjugation_identities():
    """Residuals exactly 0 at both parities, n = 2..12, < 10 s."""
    start = time.perf_counter()
    for n in range(2, 13):
        assert conjugation_report(build_pn(n)) == (0.0, 0.0, 0.0), f"n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 1: conjugation identities n=2..12 in {elapsed:.2f}s")


def test_criterion_2_perfect_recovery_odd():
    """20 random trials each for n in {3,5,7,9}: residuals < 1e-11, < 30 s."""
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 5, 7, 9):
        rng = np.random.default_rng(1000 + n)
        for _ in range(20):
            s = int(rng.integers(1 << 62))
            sigma = random_density(2, s)
            rho = random_density(1 << (n - 1), s + 1)
            probs = tuple(np.random.default_rng(s + 2).dirichlet(np.ones(4)))
            out = run_trial(n, sigma, rho, [PauliChannel(n, probs)])
            assert out.rho_residual < 1e-11, f"n={n}"
            assert out.ancilla_residual < 1e-11, f"n={n}"
            worst = max(worst, out.rho_residual, out.ancilla_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        f"PASS criterion 2: 80 recovery trials, worst residual {worst:.2e}, "
        f"{elapsed:.2f}s"
    )


def test_criterion_3_hybrid_exactness():
    """All classical ancillas, prob corners + 5 random vectors, n in {2,4,6,8}."""
    corners = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    rng = np.random.default_rng(33)
    vectors = corners + [tuple(rng.dirichlet(np.ones(4))) for _ in range(5)]
    checked = 0
    for n in (2, 4, 6, 8):
        rho = random_density(1 << (n - 2), 100 + n)
        for i in (0, 1):
            for j in (0, 1):
                sigma = classical_state(i, j)
                for probs in vectors:
                    out = run_trial(n, sigma, rho, [PauliChannel(n, probs)])
                    assert out.hybrid_exact is True, f"n={n} ij={i}{j} p={probs}"
                    checked += 1
    assert checked == 4 * 4 * 9
    print(f"PASS criterion 3: hybrid exact in {checked}/{checked} runs")


def test_criterion_4_gate_counts():
    """Exact CNOT/H counts: odd 3k (n<=11), even 3k+2 plus one H (n<=12)."""
    odd = {3: 3, 5: 6, 7: 9, 9: 12, 11: 15}
    even = {2: 2, 4: 5, 6: 8, 8: 11, 10: 14, 12: 17}
    for n, cx in odd.items():
        spec = build_pn(n)
        assert (spec.cnot_count, spec.h_count) == (cx, 0), f"n={n}"
    for n, cx in even.items():
        spec = build_pn(n)
        assert (spec.cnot_count, spec.h_count) == (cx, 1), f"n={n}"
    print("PASS criterion 4: gate counts exact for n=2..12")


def test_criterion_5_three_cnot_optimality():
    """12 mismatches, bound 3, no word of length <= 2, exact length-3 witness."""
    start = time.perf_counter()
    target = circuit_table(build_p3().circuit)
    assert mismatch_count(identity_table(3), target) == 12
    assert counting_lower_bound(target) == 3
    assert len(cnot_pairs(3)) == 6  # 6 + 36 = 42 words of length <= 2
    assert exhaustive_search(target, 2) is None
    witness = exhaustive_search(target, 3)
    assert witness is not None
    assert np.array_equal(
        realize(word_circuit(3, witness)), realize(build_p3().circuit)
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 5: three-CNOT optimality proof in {elapsed:.3f}s")


def test_criterion_6_multi_channel_robustness():
    """3 random span channels repeated twice, n in {4,5}: residuals < 1e-10."""
    for n in (4, 5):
        channels = [
            SpanChannel(n, random_span_coeffs(n, seed=200 + 10 * n + i, terms=2))
            for i in range(3)
        ]
        spec = build_pn(n)
        sigma = random_density(spec.ancilla_dim, 300 + n)
        rho = random_density((1 << n) // spec.ancilla_dim, 301 + n)
        out = run_trial(n, sigma, rho, channels, repeats=2)
        assert out.product_residual < 1e-10, f"n={n}"
        assert out.rho_residual < 1e-10, f"n={n}"
        if n % 2 == 0:
            classical = classical_state(1, 1)
            out = run_trial(n, classical, rho, channels, repeats=2)
            dist = float(np.linalg.norm(out.ancilla_out - classical))
            assert dist < 1e-10, f"n={n} classical ancilla moved {dist:.2e}"
    print("PASS criterion 6: span-channel sequences leave the product intact")


def test_criterion_7_recursion_equivalence():
    """Circuit realization equals the matrix recursion, n = 4..10."""
    for n in range(4, 11):
        full = realize(build_pn(n).circuit)
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
            assert dist == 0.0, f"n={n}"
        else:
            assert dist < 1e-12, f"n={n}"
    print("PASS criterion 7: recursion equivalence n=4..10")


def test_criterion_8_qasm_golden_files():
    """Hardware tables are out of desk scale; exported circuits are pinned instead."""
    for n in (2, 3):
        golden = (GOLDEN / f"encode_n{n}.qasm").read_text()
        assert export_qasm(n, "encode") == golden, f"n={n}"
    print("PASS criterion 8: QASM exports match golden programs line-for-line")
