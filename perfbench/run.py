#!/usr/bin/env python3
"""corrqec benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {dense-n12,span-n11,small} \
        --seed N --seconds S --trace {0,1}

Every process this starts is a fresh interpreter running ``worker.py``:

- ``--trace 0``: two set-up-only processes, then one measuring process.
  ``setup_s`` is the median over the three of the wall time from process
  start to the end of the warm-up operation; the measuring process gives
  ``ops_per_s``, ``op_s_p50`` and ``peak_rss_mb``.
- ``--trace 1``: one process that runs half the time untraced and half
  traced, and reports per-function figures, the trace overhead and a
  memcpy roofline.

The last line of standard output is the JSON result; the lines before it
are an environment stamp and a readable table that also shows
``error_rate`` and, where a run holds at least 100 operations, ``op_s_p90``.
Exits 2 without a result when the checkout has no corrqec sources or any
process fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, monotonic_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
# every run must end within 180 s; leave room for start-up and reporting
RUN_LIMIT_S = 170.0


class RunFailed(Exception):
    pass


def _spawn(args, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line, parsed."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    spawn_ns = monotonic_ns()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} process exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{mode} process exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    # monotonic_ns reads CLOCK_MONOTONIC, which all processes share
    out["setup_s"] = (out["ready_ns"] - spawn_ns) * 1e-9
    return out


def measure(args) -> tuple[dict, dict]:
    deadline = monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        setups = [_spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = _spawn(args, "trace" if args.trace else "measure", deadline)
    setups.append(main)
    loops = [main["loop"], main.get("traced_loop", {"wrong": 0})]
    wrong = sum(s["warmup_wrong"] for s in setups) + sum(lp["wrong"] for lp in loops)
    loop = main["loop"]
    metrics = main["metrics"]
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in setups),
            "unit": "s",
        }
    result = {
        "correct": wrong == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
    }
    report = {
        "env": dict(main["env"], workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "error_rate": loop["failed"] / loop["attempted"],
        "errors": loop["errors"],
        "samples": loop["samples"],
        "op_s_p90": loop["op_s_p90"],
    }
    if args.trace:
        report["traced_errors"] = main["traced_loop"]["errors"]
    return result, report


def _table(result: dict, report: dict) -> list[str]:
    rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    rows.append(("error_rate", report["error_rate"], "ratio"))
    if report["op_s_p90"] is not None:
        rows.append(("op_s_p90", report["op_s_p90"], "s"))
    rows.append(("samples", report["samples"], "ops"))
    width = max(len(r[0]) for r in rows)
    return [f"{name:<{width}}  {value:.6g} {unit}" for name, value, unit in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="corrqec benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "corrqec" / "__init__.py").is_file():
        print(f"perfbench: no corrqec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, report = measure(args)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print("\n".join(_table(result, report)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
