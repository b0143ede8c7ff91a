"""Minimality of the three-CNOT encoder P_3, by counting and by search.

A CNOT-only circuit maps basis states by an invertible n x n matrix over
GF(2), gates.BitMatrix (re-exported here with identity_table, cnot_table,
circuit_table and compose, the module global exhaustive_search calls);
CNOT(c, t) is rows[t] ^= rows[c], so it changes one row.  A row that
differs between two circuits flips its output bit on half of the 2**n
basis states, so their basis permutations differ in 2**(n-1) binary digits
per differing row (4 of 24 at n=3).  The rows that differ from the
identity therefore bound the CNOT count below at every n: P_3's 12
mismatches are three rows.  The exhaustive search over short CNOT words,
which extends each word prefix once by `compose`, confirms it is tight.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .gates import BitMatrix, Circuit, circuit_table, cnot_op, cnot_table  # noqa: F401
from .gates import compose, identity_table

CnotPair = tuple[int, int]


def word_circuit(n: int, word) -> Circuit:
    return Circuit(n, tuple(cnot_op(c, t) for c, t in word))


def mismatch_count(a: BitMatrix, b: BitMatrix) -> int:
    """Total differing binary digits between corresponding permutation columns."""
    if a.n != b.n:
        raise DimensionMismatch(f"tables on n={a.n} and n={b.n}")
    return sum(x != y for x, y in zip(a.rows, b.rows)) << (a.n - 1)


def cnot_pairs(n: int) -> list[CnotPair]:
    """All n(n-1) ordered (control, target) pairs, in deterministic order."""
    return [(c, t) for c in range(n) for t in range(n) if t != c]


def exhaustive_search(target: BitMatrix, max_len: int) -> list[CnotPair] | None:
    """Shortest CNOT word of length <= max_len composing to target, or None.

    Enumerates words in lexicographic order over the cnot_pairs alphabet,
    shortest first, and returns the first exact match.  Words that share a
    prefix share its product.
    """
    if max_len > 4:
        raise ValueError(f"max_len must be <= 4, got {max_len}")
    pairs = cnot_pairs(target.n)
    gates = [cnot_table(target.n, c, t) for c, t in pairs]

    def first_match(table: BitMatrix, left: int) -> list[CnotPair] | None:
        if left == 0:
            return [] if table.rows == target.rows else None
        for pair, gate in zip(pairs, gates):
            rest = first_match(compose(table, gate), left - 1)
            if rest is not None:
                return [pair, *rest]
        return None

    for length in range(max_len + 1):
        word = first_match(identity_table(target.n), length)
        if word is not None:
            return word
    return None


def counting_lower_bound(target: BitMatrix) -> int:
    """The rows that differ from the identity: one CNOT changes one row."""
    return sum(r != 1 << t for t, r in enumerate(target.rows))
