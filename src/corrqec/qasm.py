"""OpenQASM 2.0 export of the encoder circuits.

Emits encode, decode (the reversed gate list, all gates self-inverse), or a
roundtrip program: encode, an optional uniform error layer (the same Pauli
on every qubit), decode, and measurement of every qubit.
"""

from __future__ import annotations

from .encoder import build_pn
from .errors import BadQubitCount
from .gates import Circuit, invert, qubit_count

WHICH_CHOICES = ("encode", "decode", "roundtrip")
ERROR_CHOICES = ("X", "Y", "Z", "I")


def _gate_lines(circuit: Circuit) -> list[str]:
    lines = []
    for op in circuit.ops:
        if op.kind == "cnot":
            c, t = op.qubits
            lines.append(f"cx q[{c}],q[{t}];")
        else:
            lines.append(f"h q[{op.qubits[0]}];")
    return lines


def export_qasm(n: int, which: str, error_insert: str | None = None) -> str:
    """OpenQASM 2.0 program text for the n-qubit encoder."""
    n = qubit_count(n)
    if not 2 <= n <= 12:
        raise BadQubitCount(f"n must be in 2..12, got {n}")
    if which not in WHICH_CHOICES:
        raise ValueError(f"which must be one of {WHICH_CHOICES}, got {which!r}")
    if error_insert is not None:
        if which != "roundtrip":
            raise ValueError("--error only applies to the roundtrip program")
        if error_insert not in ERROR_CHOICES:
            raise ValueError(
                f"error must be one of {ERROR_CHOICES}, got {error_insert!r}"
            )
    circuit = build_pn(n).circuit
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{n}];",
        f"creg c[{n}];",
    ]
    if which == "encode":
        lines += _gate_lines(circuit)
    elif which == "decode":
        lines += _gate_lines(invert(circuit))
    else:
        lines += _gate_lines(circuit)
        if error_insert is not None and error_insert != "I":
            gate = error_insert.lower()
            lines += [f"{gate} q[{q}];" for q in range(n)]
        lines += _gate_lines(invert(circuit))
        lines += [f"measure q[{q}] -> c[{q}];" for q in range(n)]
    return "\n".join(lines) + "\n"
