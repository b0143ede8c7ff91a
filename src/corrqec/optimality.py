"""Minimality of the three-CNOT encoder P_3, by counting and by search.

A CNOT-only circuit maps basis states by an invertible n x n matrix over
GF(2), kept as n row masks; CNOT(c, t) is rows[t] ^= rows[c], so it changes
one row.  A row that differs between two circuits flips its output bit on
exactly half of the 2**n basis states, so the binary digits in which their
basis permutations differ number 2**(n-1) per differing row (4 of 24 at
n=3).  The rows that differ from the identity therefore bound the CNOT count
below at every n: P_3's 12 mismatches are three rows.  The exhaustive search
over short CNOT words, which extends each word prefix once by the GF(2)
product `compose`, confirms the bound is tight.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadQubitIndex, DimensionMismatch
from .gates import Circuit, cnot_op

CnotPair = tuple[int, int]


@dataclass(frozen=True)
class BitMatrix:
    """Invertible n x n matrix over GF(2); rows[t] masks the inputs of output bit t."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = self.n
        if n < 1 or len(rows) != n or any(not 0 <= r < 1 << n for r in rows):
            raise DimensionMismatch(f"need n={n} >= 1 row masks below 2**n, got {rows}")
        rest = list(rows)
        while rest:  # Gaussian elimination on each row's lowest set bit
            r = rest.pop()
            if r == 0:
                raise DimensionMismatch(f"rows {rows} are singular over GF(2)")
            rest = [x ^ r if x & r & -r else x for x in rest]


def identity_table(n: int) -> BitMatrix:
    return BitMatrix(n, tuple(1 << t for t in range(n)))


def cnot_table(n: int, control: int, target: int) -> BitMatrix:
    """One CNOT: output bit target also reads input bit control."""
    word_circuit(n, [(control, target)])  # raises BadQubitIndex on bad indices
    rows = list(identity_table(n).rows)
    rows[target] |= 1 << control
    return BitMatrix(n, rows)


def compose(first: BitMatrix, second: BitMatrix) -> BitMatrix:
    """Apply first, then second: the GF(2) product second * first.

    Output bit t of second reads the bits in second.rows[t] of first's
    output, so its row is the XOR of those rows of first.
    """
    if first.n != second.n:
        raise DimensionMismatch(f"tables on n={first.n} and n={second.n}")
    rows = []
    for mask in second.rows:
        row = 0
        for s, r in enumerate(first.rows):
            if mask >> s & 1:
                row ^= r
        rows.append(row)
    return BitMatrix(first.n, rows)


def circuit_table(circuit: Circuit) -> BitMatrix:
    """Matrix of a CNOT-only circuit (raises on other gates)."""
    table = identity_table(circuit.n_qubits)
    for op in circuit.ops:
        if op.kind != "cnot":
            raise BadQubitIndex("circuit contains non-CNOT gates")
        table = compose(table, cnot_table(circuit.n_qubits, *op.qubits))
    return table


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
