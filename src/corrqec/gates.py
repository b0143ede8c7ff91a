"""Gate matrices, symbolic circuits, and their action on Pauli strings.

A Circuit lists gates in application order (first element acts first on the
state), so its unitary is G_m ... G_1 for gates [g1, ..., gm].  CNOT and H
map Pauli strings to Pauli strings, so conjugate_pauli conjugates one as a
pair of bit masks and a phase, in O(n) per gate.  On a dense matrix, CNOT
runs compose into exact basis permutations and a Hadamard becomes a
butterfly.  circuit_conjugate exploits this factored form so conjugating a
matrix by a circuit never needs its dense matrix: each Hadamard is one
kernel pass that also applies the permutations on either side of it, and
an H-free circuit is one gather.  Given an out buffer, the last kernel
writes into it, so a caller can run successive conjugations in buffers it
reuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BadQubitCount, BadQubitIndex, DimensionMismatch

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True)
class GateOp:
    kind: str  # "cnot" or "h"
    qubits: tuple[int, ...]  # (control, target) for cnot, (qubit,) for h


def cnot_op(control: int, target: int) -> GateOp:
    if control == target:
        raise BadQubitIndex(f"control and target coincide: {control}")
    return GateOp("cnot", (control, target))


def h_op(qubit: int) -> GateOp:
    return GateOp("h", (qubit,))


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[GateOp, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise BadQubitCount(f"n_qubits must be >= 1, got {self.n_qubits}")
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if op.kind not in ("cnot", "h"):
                raise BadQubitIndex(f"unknown gate kind {op.kind!r}")
            for q in op.qubits:
                if not 0 <= q < self.n_qubits:
                    raise BadQubitIndex(
                        f"qubit {q} out of range for {self.n_qubits} qubits"
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
    if not (0 <= control < n and 0 <= target < n):
        raise BadQubitIndex(f"control={control}, target={target} out of range for n={n}")
    if control == target:
        raise BadQubitIndex(f"control and target coincide: {control}")
    s = np.arange(1 << n, dtype=np.int64)
    return s ^ (((s >> control) & 1) << target)


def conjugate_pauli(circuit: Circuit, x: int, z: int, e: int) -> tuple[int, int, int]:
    """P_dag (i**e X**x Z**z) P as (x, z, e mod 4), for P the circuit's unitary.

    x and z are bit masks, bit q for qubit q, and X**x Z**z is the product of
    X_q over the bits of x times Z_q over the bits of z.  The gates run last
    first, each conjugating the string in place (Aaronson and Gottesman,
    PRA 70, 052328): CNOT(c, t) sends X_c to X_c X_t and Z_t to Z_c Z_t, so
    x_t ^= x_c and z_c ^= z_t; H(q) swaps X_q and Z_q, and X_q Z_q to
    Z_q X_q = -X_q Z_q, so it swaps bits q of x and z and adds 2 x_q z_q to e.
    """
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


def circuit_conjugate(
    factors_or_circuit, m: np.ndarray, adjoint: bool = False, out: np.ndarray | None = None
) -> np.ndarray:
    """Conjugate m by the realized circuit P without forming P.

    adjoint=False returns P m P_dag (encode direction); adjoint=True returns
    P_dag m P (decode direction).  Each permutation factor conjugates as an
    index gather G_t(x) = x[t][:, t], and consecutive gathers compose
    exactly into one table (G_u after G_t is G_t[u]).  Each Hadamard is one
    kernels.gather_hadamard_conjugate call that takes the table before it,
    and the last one also the table after it, so an even-n encoder (a
    permutation, one Hadamard, a permutation) is one pass over m.  An
    H-free circuit is one gather_conjugate, so CNOT-only circuits stay
    exact.  A float64 m keeps its dtype (the gates are real); any other m
    is conjugated as complex128.  m must be square, of dim 2**n_qubits for
    a Circuit and of a power-of-two dim for factors (DimensionMismatch).

    With out (kernels.check_out), the last kernel writes into out, which is
    returned, and earlier Hadamards still allocate their outputs; a circuit
    with no gates copies m into it.
    """
    state = kernels.real_or_complex(m)
    dim = kernels.square_dim(state)
    if isinstance(factors_or_circuit, Circuit):
        if dim != 1 << factors_or_circuit.n_qubits:
            raise DimensionMismatch(f"{factors_or_circuit.n_qubits}-qubit circuit on dim {dim}")
        factors = circuit_factors(factors_or_circuit)
    else:
        factors = factors_or_circuit
    # tables[i] is the composed gather before Hadamard i; tables[-1] follows
    # the last one
    tables, qubits = [None], []
    for kind, arg in reversed(factors) if adjoint else factors:
        if kind == "perm":
            table = arg if adjoint else np.argsort(arg)
            tables[-1] = table if tables[-1] is None else tables[-1][table]
        else:
            qubits.append(arg)
            tables.append(None)
    if out is not None:
        kernels.check_out(state, out)
    for i, q in enumerate(qubits[:-1]):
        state = kernels.gather_hadamard_conjugate(state, tables[i], q, None)
    if qubits:
        last = (tables[-2], qubits[-1], tables[-1])
        if out is None:
            return kernels.gather_hadamard_conjugate(state, *last)
        return kernels._gather_hadamard_conjugate_into(state, *last, out)
    if tables[0] is not None:
        if out is None:
            return kernels.gather_conjugate(state, tables[0])
        return kernels._gather_conjugate_into(state, tables[0], out)
    if out is None:
        return state
    np.copyto(out, state)
    return out
