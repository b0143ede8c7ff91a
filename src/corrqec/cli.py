"""Command-line surface: verify, trial, export-qasm, and optimality."""

from __future__ import annotations

import argparse
import json
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import PauliChannel, SpanChannel, check_repeats
from .encoder import build_p3, build_pn, conjugation_report
from .errors import AncillaSizeError, BadQubitCount, CorrQecError
from .optimality import (
    circuit_table,
    counting_lower_bound,
    exhaustive_search,
    identity_table,
    mismatch_count,
    word_circuit,
)
from .qasm import ERROR_CHOICES, WHICH_CHOICES, export_qasm
from .scheme import TRIAL_PEAK_STATES, classical_state, hybrid_sweep, run_trial
from .tensor import check_memory, random_density
# CONJ_TOL_EVEN is no longer used here (even-n conjugation is exact), but the
# benchmark's conjugation check reads it as cli.CONJ_TOL_EVEN
from .tolerances import CONJ_TOL_EVEN, TRIAL_TOL  # noqa: F401


@dataclass
class VerificationReport:
    n: int
    parity: str
    cnot_count: int
    h_count: int
    conjugation_residuals: tuple[float, float, float]
    trials: list[dict]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "parity": self.parity,
            "cnot_count": self.cnot_count,
            "h_count": self.h_count,
            "conjugation_residuals": list(self.conjugation_residuals),
            "trials": self.trials,
            "pass": self.passed,
        }


def _expected_counts(parity: str, k: int) -> tuple[int, int]:
    return (3 * k, 0) if parity == "odd" else (3 * k + 2, 1)


def _trial_entry(seed: int, outcome) -> dict:
    return {
        "seed": seed,
        "rho_residual": outcome.rho_residual,
        "ancilla_residual": outcome.ancilla_residual,
        "product_residual": outcome.product_residual,
        "hybrid_exact": outcome.hybrid_exact,
    }


def cmd_verify(n: int, trials: int = 5, seed: int = 0) -> VerificationReport:
    """Conjugation identities, gate counts, and random recovery trials for one n."""
    if not 2 <= n <= 12:
        raise BadQubitCount(f"n must be in 2..12, got {n}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    spec = build_pn(n)
    conj = conjugation_report(spec)
    counts_ok = (spec.cnot_count, spec.h_count) == _expected_counts(
        spec.parity, spec.k
    )

    rng = np.random.default_rng(seed)
    sdim = spec.ancilla_dim
    rdim = (1 << n) // sdim
    entries = []
    for _ in range(trials):
        s = int(rng.integers(1 << 62))
        sigma = random_density(sdim, s)
        rho = random_density(rdim, s + 1)
        probs = tuple(np.random.default_rng(s + 2).dirichlet(np.ones(4)))
        outcome = run_trial(n, sigma, rho, [PauliChannel(n, probs)])
        entries.append(_trial_entry(s, outcome))
    if spec.parity == "even":
        s = int(rng.integers(1 << 62))
        rho = random_density(rdim, s)
        probs = tuple(np.random.default_rng(s + 1).dirichlet(np.ones(4)))
        for outcome in hybrid_sweep(n, rho, probs):
            entries.append(_trial_entry(s, outcome))

    # every conjugation step is exact at both parities
    conj_ok = all(r == 0.0 for r in conj)
    trials_ok = all(
        e["rho_residual"] < TRIAL_TOL
        and e["ancilla_residual"] < TRIAL_TOL
        and e["product_residual"] < TRIAL_TOL
        and e["hybrid_exact"] is not False
        for e in entries
    )
    return VerificationReport(
        n=n,
        parity=spec.parity,
        cnot_count=spec.cnot_count,
        h_count=spec.h_count,
        conjugation_residuals=tuple(float(r) for r in conj),
        trials=entries,
        passed=bool(counts_ok and conj_ok and trials_ok),
    )


def _print_report(report: VerificationReport) -> None:
    print(
        f"encoder n={report.n} ({report.parity}): "
        f"{report.cnot_count} cnot, {report.h_count} h"
    )
    rx, ry, rz = report.conjugation_residuals
    print(f"conjugation residuals: X={rx:.3e} Y={ry:.3e} Z={rz:.3e}")
    for t in report.trials:
        hy = "-" if t["hybrid_exact"] is None else str(t["hybrid_exact"]).lower()
        print(
            f"  seed={t['seed']} rho={t['rho_residual']:.3e} "
            f"ancilla={t['ancilla_residual']:.3e} "
            f"product={t['product_residual']:.3e} hybrid={hy}"
        )
    print("result: PASS" if report.passed else "result: FAIL")


def _matrix_json(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _numbers(value, count: int, what: str) -> list[float]:
    """value, which must be a list of `count` numbers (floats, as parsed)."""
    if not isinstance(value, list) or len(value) != count or any(
        type(x) is not float for x in value
    ):
        raise ValueError(f"{what} needs a list of {count} numbers, got {reprlib.repr(value)}")
    return value


def load_channels(path: Path, n: int) -> list:
    """Parse a JSON channel list: {"pauli": [p0..p3]} or {"span": [[8 reals], ...]};
    an error names the offending entry cut short by reprlib."""
    # integers parse as floats too: one past the float range becomes inf
    try:
        data = json.loads(Path(path).read_text(), parse_int=float)
    except RecursionError:
        raise ValueError("channels file nests too deeply to parse") from None
    if not isinstance(data, list) or not data:
        raise ValueError("channels file must be a nonempty JSON array")
    out = []
    for item in data:
        if not isinstance(item, dict):
            raise ValueError(f"channel entry must be an object, got {reprlib.repr(item)}")
        if "pauli" in item:
            out.append(PauliChannel(n, tuple(_numbers(item["pauli"], 4, "pauli"))))
        elif "span" in item:
            if not isinstance(item["span"], list):
                raise ValueError(f"span needs a list of rows, got {reprlib.repr(item['span'])}")
            coeffs = []
            for row in item["span"]:
                row = _numbers(row, 8, "a span row (re/im pairs of a, b, c, d)")
                coeffs.append(
                    tuple(complex(row[2 * i], row[2 * i + 1]) for i in range(4))
                )
            out.append(SpanChannel(n, tuple(coeffs)))
        else:
            raise ValueError(f"channel entry needs 'pauli' or 'span': {reprlib.repr(item)}")
    return out


def _parse_probs(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--probs needs 4 comma-separated values, got {text!r}")
    return tuple(float(p) for p in parts)


def cmd_trial(
    n: int,
    probs: tuple[float, float, float, float] | None,
    classical: str | None,
    seed: int,
    channels_path: Path | None,
    repeats: int,
) -> dict:
    """One full pipeline run, rendered as a JSON-ready dict."""
    repeats = check_repeats(repeats)
    check_memory(n, TRIAL_PEAK_STATES)
    spec = build_pn(n)
    if channels_path is not None:
        channels = load_channels(channels_path, n)
    elif probs is not None:
        channels = [PauliChannel(n, probs)]
    else:
        raise ValueError("either probs or a channels file is required")

    rng = np.random.default_rng(seed)
    if classical is not None:
        if spec.parity != "even":
            raise AncillaSizeError(
                f"--classical needs even n (two ancilla qubits), got n={n}"
            )
        if len(classical) != 2 or any(ch not in "01" for ch in classical):
            raise ValueError(f"--classical takes two bits like 10, got {classical!r}")
        sigma = classical_state(int(classical[0]), int(classical[1]))
        sigma_desc = f"classical:{classical}"
    else:
        sigma = random_density(spec.ancilla_dim, int(rng.integers(1 << 62)))
        sigma_desc = "random"
    rho = random_density((1 << n) // spec.ancilla_dim, int(rng.integers(1 << 62)))

    outcome = run_trial(n, sigma, rho, channels, repeats)
    payload = {
        "n": n,
        "repeats": repeats,
        "seed": seed,
        "sigma": sigma_desc,
        "probs": list(probs) if probs is not None else None,
        "channels_file": str(channels_path) if channels_path else None,
        "rho_residual": outcome.rho_residual,
        "ancilla_residual": outcome.ancilla_residual,
        "product_residual": outcome.product_residual,
        "hybrid_exact": outcome.hybrid_exact,
        "ancilla_out": _matrix_json(outcome.ancilla_out),
        "predicted_ancilla": _matrix_json(outcome.predicted_ancilla),
        # omitted above 64x64 to keep reports readable
        "recovered_rho": (
            _matrix_json(outcome.recovered_rho)
            if outcome.recovered_rho.shape[0] <= 64
            else None
        ),
    }
    return payload


def cmd_optimality() -> str:
    """Report the minimal CNOT count for the three-qubit encoder."""
    p3 = build_p3()
    target = circuit_table(p3.circuit)
    mismatches = mismatch_count(identity_table(3), target)
    bound = counting_lower_bound(target)
    short = exhaustive_search(target, 2)
    witness = exhaustive_search(target, 3)
    lines = [
        f"mismatched binary digits, identity vs P3 columns: {mismatches}",
        f"counting lower bound: {bound} CNOT gates",
    ]
    if short is None:
        lines.append(
            "search over all 42 CNOT words of length <= 2: "
            "no length-2 decomposition"
        )
    else:
        lines.append(f"unexpected short decomposition found: {short}")
    ok = False
    if witness is not None:
        exact = circuit_table(word_circuit(3, witness)) == target
        word = " ".join(f"cnot({c},{t})" for c, t in witness)
        lines.append(f"length-3 witness: {word}")
        lines.append(f"witness realizes P3 exactly: {exact}")
        ok = exact and short is None and mismatches == 12 and bound == 3
    else:
        lines.append("no length-3 witness found")
    lines.append("result: PASS" if ok else "result: FAIL")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrqec",
        description=(
            "Recursive CNOT encoders for fully correlated Pauli channels: "
            "verification, trials, QASM export, and the CNOT-count bound."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="identities, gate counts, random trials")
    v.add_argument("--n", type=int, required=True, help="qubit count, 2..12")
    v.add_argument("--trials", type=int, default=5, help="random trials to run")
    v.add_argument("--seed", type=int, default=0, help="master RNG seed")
    v.add_argument("--json", type=Path, default=None, help="write the report here")

    t = sub.add_parser("trial", help="one pipeline run, JSON on stdout")
    t.add_argument(
        "--n", type=int, required=True,
        help="qubit count, >= 2 and small enough that "
        f"{TRIAL_PEAK_STATES} density matrices of 16*4**n bytes fit in physical memory",
    )
    t.add_argument("--probs", type=str, default=None, help="p0,p1,p2,p3")
    t.add_argument(
        "--classical", type=str, default=None, metavar="IJ",
        help="two-bit ancilla like 10 (even n only)",
    )
    t.add_argument("--seed", type=int, default=0, help="seed for random states")
    t.add_argument("--channels", type=Path, default=None, help="JSON channel list")
    t.add_argument("--repeats", type=int, default=1, help="repeat the channel list")

    q = sub.add_parser("export-qasm", help="emit an OpenQASM 2.0 program")
    q.add_argument("--n", type=int, required=True, help="qubit count, 2..12")
    q.add_argument("--which", choices=WHICH_CHOICES, required=True)
    q.add_argument("--error", choices=ERROR_CHOICES, default=None,
                   help="uniform error layer for roundtrip")
    q.add_argument("--out", type=Path, required=True, help="output path")

    sub.add_parser(
        "optimality",
        help="GF(2) row-count bound and exhaustive search: P_3 needs 3 CNOTs",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            report = cmd_verify(args.n, args.trials, args.seed)
            _print_report(report)
            if args.json is not None:
                args.json.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
            return 0 if report.passed else 1
        if args.command == "trial":
            if args.channels is None and args.probs is None:
                raise ValueError("--probs is required unless --channels is given")
            if args.channels is not None and args.probs is not None:
                raise ValueError("--probs and --channels are mutually exclusive")
            probs = _parse_probs(args.probs) if args.probs is not None else None
            payload = cmd_trial(
                args.n, probs, args.classical, args.seed, args.channels, args.repeats
            )
            print(json.dumps(payload, indent=2))
            return 0
        if args.command == "export-qasm":
            text = export_qasm(args.n, args.which, args.error)
            args.out.write_text(text)
            return 0
        text = cmd_optimality()
        print(text)
        return 0 if text.endswith("PASS") else 1
    except (CorrQecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
