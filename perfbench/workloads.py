"""Seeded inputs, operations and output checks for the three workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  An operation calls corrqec through
module attributes (``cli.cmd_trial``, ``encoder.build_pn``, ...) so that the
tracer in ``tracer.py`` sees every call, and it raises ``CheckFailed`` when
any output disagrees with what the paper's claims predict.

Workloads:

- ``dense-n12``: ``conjugation_report(build_pn(12))`` plus one classical-ancilla
  trial at n = 12.  n is even and a 4096 x 4096 complex state (256 MiB) does
  not fit in cache, so the dense gather/Hadamard/distance kernels run
  bandwidth-bound.
- ``span-n11``: one trial at n = 11 through two span channels and one Pauli
  channel, repeated twice.  n is odd, so there is no Hadamard, and most time
  goes to ``apply_span_channel`` / ``span_conjugate``.
- ``small``: ``cmd_verify`` for n = 2..9, one cold ``build_pn(m)`` with m
  log-uniform in [2, 2048], ``cmd_optimality`` and one QASM export.  The
  kernels move few bytes, so per-call Python overhead, the O(m^2) encoder
  builder, the optimality search and QASM emission dominate.  A run holds
  whole cycles of build sizes, so its failure count is fixed.

No workload runs trials at n >= 13: allocation there is unbounded and would
exhaust memory instead of raising an error.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from corrqec import cli, encoder, qasm

WORKLOADS = ("dense-n12", "span-n11", "small")

# Distinct streams per workload, so one seed gives unrelated inputs to each.
_STREAM = {name: i for i, name in enumerate(WORKLOADS)}

# log-uniform range of the cold encoder build in `small`, cut into equal-width
# strata in log m.  One cycle of `small` builds each stratum's midpoint once,
# in a seeded order, so every cycle sees the same sizes.  Builds above
# m ~ 950 hit the known build_pn RecursionError; with whole cycles per run,
# the count of those failures is the same on every run and every seed.
BUILD_M_RANGE = (2, 2048)
BUILD_STRATA = 64
# nominal wall time of one cycle of `small` (64 passes) on a 2-vCPU x86
# host; a run holds round(seconds / SMALL_CYCLE_S) cycles, at least one
SMALL_CYCLE_S = 6.0

SPAN_N = 11
SPAN_REPEATS = 2
DENSE_N = 12
VERIFY_NS = range(2, 10)


class CheckFailed(Exception):
    """An operation returned, but its output contradicts the expected value."""


@dataclass
class Workload:
    op: Callable[[object], None]
    warmup_input: object
    inputs: Iterator[object]
    files: list[Path] = field(default_factory=list)
    # Set where operations can fail: a run then holds whole cycles of
    # `cycle_ops` inputs, so its attempted and failed counts do not depend on
    # how fast the host is.  None: a run is timed by --seconds alone.
    cycle_ops: int | None = None
    cycle_s: float = 0.0

    def run_ops(self, seconds: float) -> int | None:
        """Operations one run of `seconds` holds, or None for a timed run."""
        if self.cycle_ops is None:
            return None
        return self.cycle_ops * max(1, round(seconds / self.cycle_s))

    def close(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# checks


def expected_counts(n: int) -> tuple[int, int]:
    """(CNOTs, Hadamards) of P_n: 3k for n = 2k+1, 3k+2 and one H for n = 2k+2."""
    if n % 2:
        return 3 * ((n - 1) // 2), 0
    return 3 * ((n - 2) // 2) + 2, 1


def check_counts(spec, n: int) -> None:
    got = (spec.cnot_count, spec.h_count)
    if spec.n != n or got != expected_counts(n):
        raise CheckFailed(f"P_{n} has (cnot, h) = {got}, expected {expected_counts(n)}")


def check_conjugation(n: int, residuals) -> None:
    """Odd n: exactly 0.0 (pure permutations).  Even n: below CONJ_TOL_EVEN."""
    residuals = [float(r) for r in residuals]
    if len(residuals) != 3:
        raise CheckFailed(f"expected 3 conjugation residuals, got {residuals}")
    if n % 2:
        ok = all(r == 0.0 for r in residuals)
    else:
        ok = all(0.0 <= r < cli.CONJ_TOL_EVEN for r in residuals)
    if not ok:
        raise CheckFailed(f"n={n} conjugation residuals {residuals}")


def check_trial_entry(entry: dict, classical: bool) -> None:
    """Residuals below TRIAL_TOL; hybrid_exact True exactly for classical ancillas."""
    for key in ("rho_residual", "ancilla_residual", "product_residual"):
        r = float(entry[key])
        if not 0.0 <= r < cli.TRIAL_TOL:
            raise CheckFailed(f"{key} = {r!r} is not below {cli.TRIAL_TOL}")
    want = True if classical else None
    if entry["hybrid_exact"] is not want:
        raise CheckFailed(f"hybrid_exact = {entry['hybrid_exact']!r}, expected {want!r}")


def check_verify(report, n: int, trials: int) -> None:
    if report.n != n or report.passed is not True:
        raise CheckFailed(f"cmd_verify(n={n}) did not pass")
    if (report.cnot_count, report.h_count) != expected_counts(n):
        raise CheckFailed(f"cmd_verify(n={n}) reports wrong gate counts")
    check_conjugation(n, report.conjugation_residuals)
    # odd n: `trials` random ancillas; even n: then the four classical ones
    n_classical = 0 if n % 2 else 4
    if len(report.trials) != trials + n_classical:
        raise CheckFailed(f"cmd_verify(n={n}) ran {len(report.trials)} trials")
    for i, entry in enumerate(report.trials):
        check_trial_entry(entry, classical=i >= trials)


def _parse_gate(line: str):
    if line.startswith("cx "):
        c, t = line[3:].rstrip(";").split(",")
        return ("cnot", (int(c[2:-1]), int(t[2:-1])))
    if line.startswith("h "):
        return ("h", (int(line[4:].rstrip("];")),))
    return None


def check_qasm(text: str, spec, which: str, error: str | None) -> None:
    """Gate lines match the encoder in order (encode), reversed (decode), or
    encode, error layer, reversed encode and measurements (roundtrip)."""
    n = spec.n
    lines = text.splitlines()
    header = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{n}];",
        f"creg c[{n}];",
    ]
    if lines[:4] != header:
        raise CheckFailed(f"QASM header {lines[:4]}")
    body = lines[4:]
    fwd = [(op.kind, tuple(op.qubits)) for op in spec.circuit.ops]
    gates = [g for g in map(_parse_gate, body) if g is not None]
    others = [line for line in body if _parse_gate(line) is None]
    if which == "encode":
        want, want_others = fwd, []
    elif which == "decode":
        want, want_others = fwd[::-1], []
    else:
        want = fwd + fwd[::-1]
        layer = [] if error in (None, "I") else [f"{error.lower()} q[{q}];" for q in range(n)]
        want_others = layer + [f"measure q[{q}] -> c[{q}];" for q in range(n)]
    n_cx = sum(1 for kind, _ in gates if kind == "cnot")
    n_h = len(gates) - n_cx
    reps = 2 if which == "roundtrip" else 1
    cx, h = expected_counts(n)
    if gates != want or others != want_others or (n_cx, n_h) != (reps * cx, reps * h):
        raise CheckFailed(f"QASM {which} for n={n} does not match P_{n}")


# ---------------------------------------------------------------------------
# seeded inputs


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[name]])


def _trial_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 62))


def pauli_probs(rng: np.random.Generator) -> tuple[float, float, float, float]:
    return tuple(float(p) for p in rng.dirichlet(np.ones(4)))


def span_kraus_rows(rng: np.random.Generator) -> list[list[float]]:
    """Two Kraus operators sqrt(w)(cos t I + i sin t P), P one of X_n, Y_n, Z_n.

    P is Hermitian and squares to I, so F_dag F = w I and the pair with
    weights w and 1 - w is trace preserving by construction.  Each row holds
    re/im pairs of the (I, X_n, Y_n, Z_n) coefficients, as load_channels reads.
    """
    w = float(rng.uniform(0.2, 0.8))
    rows = []
    for weight in (w, 1.0 - w):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        axis = int(rng.integers(3))
        scale = math.sqrt(weight)
        coeffs = [complex(scale * math.cos(theta)), 0j, 0j, 0j]
        coeffs[1 + axis] = 1j * scale * math.sin(theta)
        rows.append([x for c in coeffs for x in (c.real, c.imag)])
    return rows


def span_channels_json(rng: np.random.Generator) -> str:
    """Two span channels and one Pauli channel, as a channels-file text."""
    entries = [{"span": span_kraus_rows(rng)}, {"span": span_kraus_rows(rng)}]
    entries.append({"pauli": list(pauli_probs(rng))})
    return json.dumps(entries)


@dataclass(frozen=True)
class DenseInput:
    probs: tuple[float, float, float, float]
    classical: str
    seed: int


@dataclass(frozen=True)
class SmallInput:
    verify_seed: int
    m: int
    qasm_n: int
    which: str
    error: str | None


def _dense_inputs(rng: np.random.Generator) -> Iterator[DenseInput]:
    while True:
        bits = "".join(str(int(b)) for b in rng.integers(2, size=2))
        yield DenseInput(pauli_probs(rng), bits, _trial_seed(rng))


def _seeds(rng: np.random.Generator) -> Iterator[int]:
    while True:
        yield _trial_seed(rng)


def build_grid() -> tuple[int, ...]:
    """The midpoint of each of BUILD_STRATA equal strata of log m."""
    lo, hi = (math.log(x) for x in BUILD_M_RANGE)
    return tuple(
        round(math.exp(lo + (hi - lo) * (k + 0.5) / BUILD_STRATA))
        for k in range(BUILD_STRATA)
    )


def build_sizes(rng: np.random.Generator) -> Iterator[int]:
    """Log-uniform m in BUILD_M_RANGE: the grid once per cycle, in seeded order."""
    grid = build_grid()
    while True:
        for k in rng.permutation(BUILD_STRATA):
            yield grid[int(k)]


def _small_inputs(rng: np.random.Generator) -> Iterator[SmallInput]:
    sizes = build_sizes(rng)
    while True:
        m = next(sizes)
        qn = int(rng.integers(2, 13))
        which = str(rng.choice(qasm.WHICH_CHOICES))
        error = None
        if which == "roundtrip":
            error = [None, *qasm.ERROR_CHOICES][int(rng.integers(len(qasm.ERROR_CHOICES) + 1))]
        yield SmallInput(_trial_seed(rng), m, qn, which, error)


# ---------------------------------------------------------------------------
# operations


def dense_op(x: DenseInput) -> None:
    spec = encoder.build_pn(DENSE_N)
    check_counts(spec, DENSE_N)
    check_conjugation(DENSE_N, encoder.conjugation_report(spec))
    payload = cli.cmd_trial(DENSE_N, x.probs, x.classical, x.seed, None, 1)
    check_trial_entry(payload, classical=True)


def make_span_op(channels_path: Path) -> Callable[[int], None]:
    def span_op(seed: int) -> None:
        payload = cli.cmd_trial(SPAN_N, None, None, seed, channels_path, SPAN_REPEATS)
        check_trial_entry(payload, classical=False)

    return span_op


def make_small_op() -> Callable[[SmallInput], None]:
    # Bound to the functions themselves, so the clears still reach the real
    # caches while the tracer has rebound the module attributes.
    clears = [
        f.cache_clear
        for f in (encoder.build_pn, getattr(encoder, "encoder_factors", None))
        if hasattr(f, "cache_clear")
    ]

    def small_op(x: SmallInput) -> None:
        for n in VERIFY_NS:
            check_verify(cli.cmd_verify(n, 1, x.verify_seed + n), n, trials=1)
        for clear in clears:
            clear()
        check_counts(encoder.build_pn(x.m), x.m)
        text = cli.cmd_optimality()
        if not text.endswith("result: PASS"):
            raise CheckFailed("cmd_optimality did not end in PASS")
        check_qasm(
            qasm.export_qasm(x.qasm_n, x.which, x.error),
            encoder.build_pn(x.qasm_n),
            x.which,
            x.error,
        )

    return small_op


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs from seed; the program sees only these."""
    rng = _rng(name, seed)
    if name == "dense-n12":
        inputs = _dense_inputs(rng)
        return Workload(dense_op, next(inputs), inputs)
    if name == "span-n11":
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"channels-{seed}-{os.getpid()}.json"
        path.write_text(span_channels_json(rng))
        seeds = _seeds(rng)
        return Workload(make_span_op(path), next(seeds), seeds, [path])
    if name == "small":
        inputs = _small_inputs(rng)
        # warm-up fills the caches the timed passes share; its m is the
        # smallest so it never meets the deep-recursion failure
        warm = SmallInput(_trial_seed(rng), BUILD_M_RANGE[0], 12, "roundtrip", "Y")
        return Workload(make_small_op(), warm, inputs,
                        cycle_ops=BUILD_STRATA, cycle_s=SMALL_CYCLE_S)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
