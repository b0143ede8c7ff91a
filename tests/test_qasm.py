from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from corrqec import BadQubitCount, export_qasm

GOLDEN = Path(__file__).parent / "golden"


def _gate_lines(text):
    skip = ("OPENQASM", "include", "qreg", "creg")
    return [ln for ln in text.splitlines() if ln and not ln.startswith(skip)]


@pytest.mark.parametrize("n", [2, 3])
def test_encode_matches_golden_file(n):
    golden = (GOLDEN / f"encode_n{n}.qasm").read_text()
    assert export_qasm(n, "encode") == golden


def test_decode_is_reversed_encode():
    enc = _gate_lines(export_qasm(4, "encode"))
    dec = _gate_lines(export_qasm(4, "decode"))
    assert dec == list(reversed(enc))


@pytest.mark.parametrize(
    "n,cx,h", [(2, 2, 1), (3, 3, 0), (5, 6, 0), (6, 8, 1), (11, 15, 0), (12, 17, 1)]
)
def test_encode_gate_counts(n, cx, h):
    lines = _gate_lines(export_qasm(n, "encode"))
    assert sum(1 for ln in lines if ln.startswith("cx ")) == cx
    assert sum(1 for ln in lines if ln.startswith("h ")) == h


def test_roundtrip_with_error_layer():
    lines = _gate_lines(export_qasm(5, "roundtrip", "Z"))
    gate_lines = [ln for ln in lines if not ln.startswith("measure")]
    # 6 encode + 5 error + 6 decode for n=5 (k=2)
    assert len(gate_lines) == 17
    assert gate_lines[6:11] == [f"z q[{q}];" for q in range(5)]
    measures = [ln for ln in lines if ln.startswith("measure")]
    assert measures == [f"measure q[{q}] -> c[{q}];" for q in range(5)]


def test_roundtrip_identity_error_inserts_nothing():
    with_i = _gate_lines(export_qasm(3, "roundtrip", "I"))
    without = _gate_lines(export_qasm(3, "roundtrip"))
    assert with_i == without
    assert len([ln for ln in with_i if ln.startswith("cx ")]) == 6


def test_header_lines():
    text = export_qasm(4, "encode")
    head = text.splitlines()[:4]
    assert head == ['OPENQASM 2.0;', 'include "qelib1.inc";', 'qreg q[4];', 'creg c[4];']


def test_validation():
    with pytest.raises(BadQubitCount):
        export_qasm(1, "encode")
    with pytest.raises(BadQubitCount):
        export_qasm(13, "encode")
    # 3.0 passed 2 <= n <= 12 and wrote "qreg q[3.0];", which is not QASM
    for n in (3.0, 2.5, "3", None):
        with pytest.raises(BadQubitCount, match="not an integer"):
            export_qasm(n, "encode")
    assert "qreg q[3];" in export_qasm(np.int64(3), "encode").splitlines()
    with pytest.raises(ValueError):
        export_qasm(3, "nonsense")
    with pytest.raises(ValueError):
        export_qasm(3, "encode", "X")
    with pytest.raises(ValueError):
        export_qasm(3, "roundtrip", "W")
