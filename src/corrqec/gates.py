"""Gate matrices, symbolic circuits, and their action on Pauli strings.

A Circuit lists gates in application order (first element acts first on the
state), so its unitary is G_m ... G_1 for gates [g1, ..., gm].  CNOT and H
map Pauli strings to Pauli strings, so conjugate_pauli conjugates one as a
pair of bit masks and a phase, in O(n) per gate.  A run of CNOTs is an
invertible n x n matrix over GF(2), a BitMatrix of row masks (Patel, Markov
and Hayes, QIC 8, 282), and so is channel_basis; CNOT(c, t) XORs row c into
row t.  A 2**n-entry table exists only at a gather (BitMatrix.table), so
circuit_conjugate is one gather per CNOT run and a butterfly per Hadamard,
and the trial one gather by encoder.encode_table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import BadQubitCount, BadQubitIndex, DimensionMismatch, check_type
from .tensor import check_memory

# Complex128 states circuit_conjugate holds at its peak: its input, the
# gather it reads and the one it writes (tracemalloc: 2.04-2.09 states of
# the input's dtype past the input, at n = 10).
CONJUGATE_PEAK_STATES = 3

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


# Distinct qubits each gate kind acts on.
_ARITY = {"cnot": 2, "h": 1}


@dataclass(frozen=True)
class GateOp:
    kind: str  # "cnot" or "h"
    qubits: tuple[int, ...]  # (control, target) for cnot, (qubit,) for h


def _qubit(q) -> int:
    """q as an int (a numpy integer too); BadQubitIndex for a float or any
    other non-integer, which a range check alone would let through."""
    try:
        return operator.index(q)
    except TypeError:
        raise BadQubitIndex(f"qubit {q!r} is not an integer") from None


def qubit_count(n) -> int:
    """n as an int (a numpy integer too); BadQubitCount for a float or any
    other non-integer, which a range check alone would let through.  The
    range is the caller's to check."""
    try:
        return operator.index(n)
    except TypeError:
        raise BadQubitCount(f"qubit count {n!r} is not an integer") from None


def cnot_op(control: int, target: int) -> GateOp:
    if _qubit(control) == _qubit(target):
        raise BadQubitIndex(f"control and target coincide: {control}")
    return GateOp("cnot", (control, target))


def h_op(qubit: int) -> GateOp:
    _qubit(qubit)
    return GateOp("h", (qubit,))


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[GateOp, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", qubit_count(self.n_qubits))
        if self.n_qubits < 1:
            raise BadQubitCount(f"n_qubits must be >= 1, got {self.n_qubits}")
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            check_type(op, GateOp, "a gate")
            if not isinstance(op.kind, str) or op.kind not in _ARITY:
                raise BadQubitIndex(f"unknown gate kind {op.kind!r}")
            qubits = op.qubits if isinstance(op.qubits, tuple) else ()
            for q in qubits:
                if not 0 <= _qubit(q) < self.n_qubits:
                    raise BadQubitIndex(f"qubit {q} out of range for {self.n_qubits} qubits")
            # the qubits are integers here, so they compare as such
            if len(qubits) != _ARITY[op.kind] or (len(qubits) == 2 and qubits[0] == qubits[1]):
                raise BadQubitIndex(
                    f"{op.kind} needs {_ARITY[op.kind]} distinct qubits as a tuple, "
                    f"got {op.qubits!r}"
                )

    def embed(self, n_qubits: int, offset: int) -> "Circuit":
        """The same gates re-homed on a larger register, indices shifted."""
        ops = tuple(
            GateOp(op.kind, tuple(q + offset for q in op.qubits)) for op in self.ops
        )
        return Circuit(n_qubits, ops)

    def count(self, kind: str) -> int:
        return sum(1 for op in self.ops if op.kind == kind)


def pauli(axis: str) -> np.ndarray:
    if axis not in ("X", "Y", "Z"):  # a tuple: an unhashable axis is no TypeError
        raise ValueError(f"axis must be X, Y, or Z, got {axis!r}")
    return _PAULI[axis].copy()


def conjugate_pauli(circuit: Circuit, x: int, z: int, e: int) -> tuple[int, int, int]:
    """P_dag (i**e X**x Z**z) P as (x, z, e mod 4), for P the circuit's unitary.

    x and z are bit masks in [0, 2**n) (BadQubitIndex else), bit q for
    qubit q, and X**x Z**z is the product of X_q over the bits of x times
    Z_q over the bits of z.  The gates run last first, each conjugating
    the string in place (Aaronson and Gottesman, PRA 70, 052328):
    CNOT(c, t) sends X_c to X_c X_t and Z_t to Z_c Z_t, so x_t ^= x_c and
    z_c ^= z_t; H(q) swaps X_q and Z_q, and X_q Z_q to Z_q X_q = -X_q Z_q,
    so it swaps bits q of x and z and adds 2 x_q z_q to e.
    """
    limit = 1 << circuit.n_qubits
    if not (0 <= x < limit and 0 <= z < limit):
        raise BadQubitIndex(f"masks x={x}, z={z} out of range for {circuit.n_qubits} qubits")
    for op in reversed(circuit.ops):
        if op.kind == "cnot":
            c, t = op.qubits
            x ^= ((x >> c) & 1) << t
            z ^= ((z >> t) & 1) << c
        else:
            (q,) = op.qubits
            xq, zq = (x >> q) & 1, (z >> q) & 1
            e += 2 * xq * zq
            x ^= (xq ^ zq) << q
            z ^= (xq ^ zq) << q
    return x, z, e % 4


# ---------------------------------------------------------------------------
# CNOT runs as GF(2) matrices, and conjugation by them


def _gauss_jordan(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The rows of A's inverse, by one Gauss-Jordan pass on [A | I] (A's
    part in the high n bits of each row); DimensionMismatch for a singular
    A.  Row i's pivot, the lowest bit left in its A part, is cleared from
    every other row, so each row ends as a unit vector beside A^-1's row."""
    n = len(rows)
    aug = [r << n | 1 << t for t, r in enumerate(rows)]
    for i in range(n):
        x = aug[i]
        if not x >> n:
            raise DimensionMismatch(f"rows {rows} are singular over GF(2)")
        pivot = x & -(x >> n << n)
        aug = [y ^ x if y & pivot and j != i else y for j, y in enumerate(aug)]
    inverse = [0] * n
    for x in aug:
        inverse[(x >> n).bit_length() - 1] = x & ((1 << n) - 1)
    return tuple(inverse)


@dataclass(frozen=True)
class BitMatrix:
    """Invertible n x n matrix over GF(2); rows[t] masks the inputs of output
    bit t, so basis state s goes to the state whose bit t is the parity of
    s & rows[t]."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if self.n < 1 or len(rows) != self.n or any(not 0 <= r < 1 << self.n for r in rows):
            raise DimensionMismatch(f"need n={self.n} >= 1 row masks below 2**n, got {rows}")
        _gauss_jordan(rows)

    def inverse(self) -> "BitMatrix":
        return BitMatrix(self.n, _gauss_jordan(self.rows))

    def table(self) -> np.ndarray:
        """The basis permutation, table[s] the image of s, written once: the
        image is the XOR of the columns at the set bits of s, so entries
        2**j .. 2**(j+1) are the first 2**j XOR column j."""
        table = np.zeros(1 << self.n, dtype=np.int64)
        for j in range(self.n):
            column = sum((r >> j & 1) << t for t, r in enumerate(self.rows))
            np.bitwise_xor(table[: 1 << j], column, out=table[1 << j : 2 << j])
        return table


def identity_table(n: int) -> BitMatrix:
    return BitMatrix(n, tuple(1 << t for t in range(n)))


def cnot_table(n: int, control: int, target: int) -> BitMatrix:
    """One CNOT: output bit target also reads input bit control."""
    return circuit_table(Circuit(n, (cnot_op(control, target),)))


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


def _runs(circuit: Circuit):
    """(run, q) per CNOT run, in order: the BitMatrix of the CNOTs up to the
    next Hadamard, each rows[t] ^= rows[c], and its qubit (None at the end)."""
    n = circuit.n_qubits
    rows = [1 << t for t in range(n)]
    for op in circuit.ops:
        if op.kind == "cnot":
            c, t = op.qubits
            rows[t] ^= rows[c]
        else:
            yield BitMatrix(n, rows), op.qubits[0]
            rows = [1 << t for t in range(n)]
    yield BitMatrix(n, rows), None


def circuit_table(circuit: Circuit) -> BitMatrix:
    """Matrix of a CNOT-only circuit (BadQubitIndex on a Hadamard)."""
    if circuit.count("h"):
        raise BadQubitIndex("circuit contains non-CNOT gates")
    return next(_runs(circuit))[0]


@lru_cache(maxsize=None)
def channel_basis(n: int) -> BitMatrix:
    """The CNOT map B that carries X_n and Z_n onto the leading qubits.

    X_n complements a basis state s and Z_n = (-1)**t, t the parity of s.
    Bit n - 1 of B(s) is t.  Odd n: bit j < n - 1 is s_j ^ t, which X_n
    keeps, so X_n is X and Z_n is Z on qubit n - 1.  Even n: bit n - 2 is
    s_(n-1) and bit j < n - 2 is s_j ^ s_(n-1), which X_n keeps, so X_n
    is X on qubit n - 2 and Z_n is Z on qubit n - 1.
    """
    ones, top = (1 << n) - 1, 1 << (n - 1)
    if n % 2:
        rows = [ones & ~(1 << j) for j in range(n - 1)] + [ones]
    else:
        rows = [(1 << j) | top for j in range(n - 2)] + [top, ones]
    return BitMatrix(n, rows)


def invert(circuit: Circuit) -> Circuit:
    """Reverse the gate list; CNOT and H are self-inverse."""
    return Circuit(circuit.n_qubits, tuple(reversed(circuit.ops)))


def _hadamard_in_place(x: np.ndarray, q: int) -> None:
    """x <- H_q x H_q for a C-contiguous square x: a row and then a column
    butterfly, unscaled (a, b -> a + b, a - b), each with half of x as
    scratch, then one exact scale by 0.5, so on Gaussian-integer entries
    it is exact."""
    lo = 1 << q
    for pairs in (x.reshape(-1, 2, lo * x.shape[0]), x.reshape(-1, 2, lo)):
        a, b = pairs[:, 0], pairs[:, 1]
        diff = a - b
        a += b
        b[...] = diff
    x *= 0.5


def circuit_conjugate(circuit: Circuit, m: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Conjugate m by the circuit's unitary P without forming P.

    adjoint=False returns P m P_dag (encode direction); adjoint=True returns
    P_dag m P (decode direction), by the reversed circuit (invert).  Each
    CNOT run R is one gather by the table of R's inverse, R m R_dag, and
    each Hadamard a butterfly in place on it: an even-n encoder is two
    gathers and a butterfly.  A float64 m keeps its dtype (the gates are
    real); any other m is conjugated as complex128.  The result is never m.

    Checked before the first pass: circuit is a Circuit (WrongType), m is
    square of dim 2**n_qubits (DimensionMismatch), and
    CONJUGATE_PEAK_STATES states fit in memory (check_memory).
    """
    check_type(circuit, Circuit, "circuit_conjugate's circuit")
    m = np.asarray(m)
    dim = kernels.square_dim(m)
    if dim != 1 << circuit.n_qubits:
        raise DimensionMismatch(f"{circuit.n_qubits}-qubit circuit on dim {dim}")
    check_memory(circuit.n_qubits, CONJUGATE_PEAK_STATES)
    for run, q in _runs(invert(circuit) if adjoint else circuit):
        m = kernels.gather_conjugate(m, run.inverse().table())
        if q is not None:
            _hadamard_in_place(m, q)
    return m
