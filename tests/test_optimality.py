from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec import (
    BadQubitIndex,
    BitMatrix,
    DimensionMismatch,
    build_p3,
    build_pn,
    circuit_table,
    cnot_pairs,
    counting_lower_bound,
    exhaustive_search,
    identity_table,
    mismatch_count,
)
from corrqec.optimality import cnot_table, compose, word_circuit

from oracles import circuit_matrix, realize


def _p3_table():
    return circuit_table(build_p3().circuit)


def _dense_perm(n: int, word) -> np.ndarray:
    """Basis permutation of a CNOT word, read off the dense oracle product."""
    m = circuit_matrix([("cnot", c, t) for c, t in word], n)
    return np.argmax(np.abs(m), axis=0)


def _image(table: BitMatrix, s: int) -> int:
    return sum(((r & s).bit_count() & 1) << t for t, r in enumerate(table.rows))


def test_mismatch_examples():
    t = _p3_table()
    assert mismatch_count(identity_table(3), t) == 12
    assert mismatch_count(t, t) == 0
    assert mismatch_count(identity_table(3), cnot_table(3, 0, 2)) == 4


def test_mismatch_rejects_size_mix():
    with pytest.raises(DimensionMismatch):
        mismatch_count(identity_table(2), identity_table(3))
    with pytest.raises(DimensionMismatch):
        compose(identity_table(2), identity_table(3))


def test_table_validation():
    with pytest.raises(DimensionMismatch):
        BitMatrix(2, (0b01, 0b01))  # singular: equal rows
    with pytest.raises(DimensionMismatch):
        BitMatrix(3, (0b011, 0b110, 0b101))  # singular: rows sum to 0
    with pytest.raises(DimensionMismatch):
        BitMatrix(2, (0b01, 0b100))  # a mask past 2**n
    with pytest.raises(DimensionMismatch):
        BitMatrix(2, (0b01,))  # too few rows
    assert BitMatrix(2, (0b11, 0b10)).rows == (3, 2)
    with pytest.raises(BadQubitIndex):
        circuit_table(word_circuit(3, [(1, 1)]))
    with pytest.raises(BadQubitIndex):
        circuit_table(word_circuit(3, [(0, 3)]))
    with pytest.raises(BadQubitIndex):
        circuit_table(build_pn(2).circuit)  # P_2 carries a Hadamard


def test_all_cnots():
    assert len(cnot_pairs(3)) == 6
    assert len(cnot_pairs(2)) == 2
    for n in (2, 3, 4):
        ident = identity_table(n)
        for c, t in cnot_pairs(n):
            g = cnot_table(n, c, t)
            assert g != ident
            assert compose(g, g) == ident  # self-inverse
            assert circuit_table(word_circuit(n, [(c, t), (c, t)])) == ident


def test_every_cnot_changes_four_bits_against_identity():
    # 2**(n-1) digits per CNOT: the paper's 4 of 24 at n=3
    for n in (2, 3, 4, 5):
        ident = identity_table(n)
        for c, t in cnot_pairs(n):
            assert mismatch_count(ident, cnot_table(n, c, t)) == 1 << (n - 1)


def test_exhaustive_search_p3():
    t = _p3_table()
    assert exhaustive_search(t, 2) is None
    witness = exhaustive_search(t, 3)
    assert witness is not None and len(witness) == 3
    assert np.array_equal(
        realize(word_circuit(3, witness)), realize(build_p3().circuit)
    )


def test_exhaustive_search_trivial_cases():
    assert exhaustive_search(identity_table(3), 2) == []
    t = cnot_table(3, 0, 2)
    assert exhaustive_search(t, 1) == [(0, 2)]
    with pytest.raises(ValueError):
        exhaustive_search(t, 5)


def test_counting_lower_bound():
    assert counting_lower_bound(_p3_table()) == 3
    assert counting_lower_bound(identity_table(3)) == 0
    assert counting_lower_bound(cnot_table(3, 0, 2)) == 1
    for n in range(2, 7):
        assert counting_lower_bound(cnot_table(n, 0, 1)) == 1
        assert exhaustive_search(cnot_table(n, 0, 1), 1) == [(0, 1)]


def test_single_cnot_changes_at_most_four_bits_against_any_short_word():
    # the GF(2) rows give the dense oracle's basis permutation, mismatch_count
    # equals its column popcount against the identity, and one more CNOT moves
    # that by at most 2**(n-1) (4 at n=3): every word of length <= 3 at n=2, 3,
    # and every 37th one at n=4
    for n, step in ((2, 1), (3, 1), (4, 37)):
        pairs = cnot_pairs(n)
        words = [w for k in range(4) for w in product(pairs, repeat=k)]
        for word in words[::step]:
            table = circuit_table(word_circuit(n, word))
            perm = _dense_perm(n, word)
            assert [_image(table, s) for s in range(1 << n)] == perm.tolist()
            dense = sum(int(x ^ s).bit_count() for s, x in enumerate(perm))
            base = mismatch_count(identity_table(n), table)
            assert base == dense, (n, word)
            assert counting_lower_bound(table) << (n - 1) == base
            for g in pairs:
                after = circuit_table(word_circuit(n, [*word, g]))
                after = mismatch_count(identity_table(n), after)
                assert abs(after - base) <= 1 << (n - 1)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_search_never_beats_counting_bound(data):
    n, max_len = data.draw(st.sampled_from([(3, 4), (4, 3)]))
    pairs = cnot_pairs(n)
    word = data.draw(st.lists(st.sampled_from(pairs), max_size=max_len))
    target = circuit_table(word_circuit(n, word))
    found = exhaustive_search(target, max_len)
    assert found is not None  # reachable by construction
    assert len(found) >= counting_lower_bound(target)
    assert circuit_table(word_circuit(n, found)) == target


def test_circuit_table_matches_realized_matrix():
    # cross-module consistency: the GF(2) rows give the dense realization's columns
    p3 = build_p3()
    table = circuit_table(p3.circuit)
    m = realize(p3.circuit)
    for s in range(8):
        assert m[_image(table, s), s] == 1.0
