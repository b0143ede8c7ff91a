"""Gate matrices, symbolic circuits, and their action on Pauli strings.

A Circuit lists gates in application order (first element acts first on the
state), so its unitary is G_m ... G_1 for gates [g1, ..., gm].  CNOT and H
map Pauli strings to Pauli strings, so conjugate_pauli conjugates one as a
pair of bit masks and a phase, in O(n) per gate.  On a dense matrix, CNOT
runs compose into exact basis permutations and a Hadamard becomes a
butterfly.  circuit_conjugate exploits this factored form so conjugating a
matrix by a circuit never needs its dense matrix: each composed table is
one gather (kernels.gather_conjugate), which allocates its output, and
each Hadamard a butterfly in place on the gather before it, so an H-free
circuit is one gather.  The trial (scheme.run_trial) takes the one gather
table (gather_tables) of the CNOTs after the encoder's ancilla-only head
(encoder.ancilla_head) into kernels.trial_pass, which gathers by it as it
builds the state, at every n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BadQubitCount, BadQubitIndex, DimensionMismatch
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
            if not isinstance(op.kind, str) or op.kind not in _ARITY:
                raise BadQubitIndex(f"unknown gate kind {op.kind!r}")
            qubits = op.qubits if isinstance(op.qubits, tuple) else ()
            for q in qubits:
                if not 0 <= _qubit(q) < self.n_qubits:
                    raise BadQubitIndex(
                        f"qubit {q} out of range for {self.n_qubits} qubits"
                    )
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
    if axis not in _PAULI:
        raise ValueError(f"axis must be X, Y, or Z, got {axis!r}")
    return _PAULI[axis].copy()


def cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    """Basis permutation of C_{control,target}: flip target bit when control is 1."""
    if not (0 <= _qubit(control) < n and 0 <= _qubit(target) < n):
        raise BadQubitIndex(f"control={control}, target={target} out of range for n={n}")
    if control == target:
        raise BadQubitIndex(f"control and target coincide: {control}")
    s = np.arange(1 << n, dtype=np.int64)
    return s ^ (((s >> control) & 1) << target)


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
# factored realization


def circuit_factors(circuit: Circuit) -> tuple:
    """Collapse a circuit to alternating permutation and Hadamard factors.

    Returns a tuple of ("perm", table) and ("h", qubit) entries in
    application order; consecutive CNOTs merge into one permutation table.
    """
    comp = None
    factors = []
    for op in circuit.ops:
        if op.kind == "cnot":
            p = cnot_perm(circuit.n_qubits, *op.qubits)
            comp = p if comp is None else p[comp]
        else:
            if comp is not None:
                factors.append(("perm", comp))
                comp = None
            factors.append(("h", op.qubits[0]))
    if comp is not None:
        factors.append(("perm", comp))
    return tuple(factors)


def invert(circuit: Circuit) -> Circuit:
    """Reverse the gate list; CNOT and H are self-inverse."""
    return Circuit(circuit.n_qubits, tuple(reversed(circuit.ops)))


def gather_tables(factors, adjoint: bool = False) -> tuple[list, list]:
    """(tables, qubits): circuit factors as the gathers and Hadamards that
    conjugate by them, in the order they run.  qubits are the Hadamards'
    qubits; tables[i] is the composed gather table before Hadamard i
    (None for none) and tables[-1] the one after the last, so an H-free
    circuit is the one table tables[0]: G_t(x) = x[t][:, t] is P x P_dag
    (adjoint=False) or P_dag x P (adjoint=True).  Each permutation factor
    conjugates as the gather by its table's inverse (by the table itself
    for the adjoint), and consecutive gathers compose exactly into one
    table (G_u after G_t is G_t[u])."""
    tables, qubits = [None], []
    for kind, arg in reversed(factors) if adjoint else factors:
        if kind == "perm":
            table = arg if adjoint else np.argsort(arg)
            tables[-1] = table if tables[-1] is None else tables[-1][table]
        else:
            qubits.append(arg)
            tables.append(None)
    return tables, qubits


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


def circuit_conjugate(factors_or_circuit, m: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Conjugate m by the realized circuit P without forming P.

    adjoint=False returns P m P_dag (encode direction); adjoint=True returns
    P_dag m P (decode direction).  Each table of gather_tables is one
    kernels.gather_conjugate (by the identity for None), which writes a new
    array, and each Hadamard a butterfly in place on the gather before it:
    an even-n encoder is two gathers and a butterfly, an H-free circuit one
    exact gather.  A float64 m keeps its dtype (the gates are real); any
    other m is conjugated as complex128.  The result is never m.

    Checked before the first pass: m is square, of dim 2**n_qubits for a
    Circuit and of power-of-two dim for factors, and each ("perm", table)
    a permutation of range(dim) (DimensionMismatch); every other factor is
    ("h", qubit) on a qubit of m (BadQubitIndex); and
    CONJUGATE_PEAK_STATES states fit in memory (check_memory).
    """
    m = np.asarray(m)
    dim = kernels.square_dim(m)
    if isinstance(factors_or_circuit, Circuit):
        if dim != 1 << factors_or_circuit.n_qubits:
            raise DimensionMismatch(f"{factors_or_circuit.n_qubits}-qubit circuit on dim {dim}")
        factors_or_circuit = circuit_factors(factors_or_circuit)
    factors = []
    for kind, arg in factors_or_circuit:
        if kind == "perm":
            arg = kernels._check_table(arg, dim, "perm")
            kernels._inverse(arg, "perm")
        elif kind != "h" or not 0 <= _qubit(arg) < dim.bit_length() - 1:
            raise BadQubitIndex(f"factor ({kind!r}, {arg!r}) on a {dim}-dim matrix")
        factors.append((kind, arg))
    check_memory(dim.bit_length() - 1, CONJUGATE_PEAK_STATES)
    tables, qubits = gather_tables(factors, adjoint)
    for table, q in zip(tables, qubits + [None]):
        m = kernels.gather_conjugate(m, np.arange(dim) if table is None else table)
        if q is not None:
            _hadamard_in_place(m, q)
    return m
