"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py`` in a fresh interpreter, so imports, lazy caches and
the RSS high-water mark behave as they do for one ``corrqec`` command.
Modes:

- ``setup``: import corrqec, generate the inputs, run one untimed, checked
  warm-up operation, report when that finished, and exit.
- ``measure``: the same set-up, then timed operations until ``--seconds``
  have passed; reports the end-to-end figures.
- ``trace``: the same set-up, then half the time untraced and half with the
  tracer installed; reports per-function figures and the trace overhead.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic_ns, perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
# n = 12 is the largest register any workload holds; its state sets the
# size of the memcpy roofline array
ROOFLINE_N = 12
ROOFLINE_BYTES = 16 << (2 * ROOFLINE_N)

if not (SRC / "corrqec" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: corrqec sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import corrqec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from corrqec import kernels  # noqa: E402


@dataclass
class LoopStats:
    durations: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed because a check rejected the output
    errors: Counter = field(default_factory=Counter)
    elapsed: float = 0.0

    def record_failure(self, exc: BaseException, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        kind = type(exc).__name__
        if not self.errors[kind]:
            print(f"perfbench: operation failed with {kind}:", file=sys.stderr)
            traceback.print_exception(exc, limit=3, file=sys.stderr)
        self.errors[kind] += 1


def run_loop(op, inputs, seconds: float, count: int | None = None) -> LoopStats:
    """Closed loop, one client: start operations until `seconds` have passed,
    or, if `count` is given, exactly `count` operations.

    An operation fails if it raises or if a check rejects its output; either
    way the loop goes on.  Only passing operations contribute durations.
    """
    stats = LoopStats()
    start = perf_counter()
    stop = start + seconds

    def more() -> bool:
        if count is not None:
            return stats.attempted < count
        return stats.attempted == 0 or perf_counter() < stop

    while more():
        x = next(inputs)
        stats.attempted += 1
        t0 = perf_counter()
        try:
            op(x)
        except workloads.CheckFailed as exc:
            stats.record_failure(exc, wrong=True)
            continue
        except Exception as exc:  # counted and reported; the run goes on
            stats.record_failure(exc, wrong=False)
            continue
        stats.durations.append(perf_counter() - t0)
    stats.elapsed = perf_counter() - start
    return stats


def p50(durations: list[float]) -> float:
    return statistics.median(durations) if durations else 0.0


def p90(durations: list[float]) -> float | None:
    """90th percentile, only where at least ten samples lie beyond it."""
    if len(durations) < 100:
        return None
    return statistics.quantiles(durations, n=10)[-1]


def _blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _llc_bytes() -> tuple[int | None, str | None]:
    """Last-level cache size and description, as lscpu reports them."""
    if shutil.which("lscpu") is None:
        return None, None
    text = subprocess.run(["lscpu"], stdout=subprocess.PIPE, text=True).stdout
    for level in ("L3", "L2"):
        m = re.search(rf"^{level} cache:\s*(([\d.]+)\s*([KMG])i?B.*)$", text, re.M)
        if m:
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(3)]
            return int(float(m.group(2)) * scale), f"{level} {m.group(1).strip()}"
    return None, None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return proc.stdout.strip() or None


def environment() -> dict:
    """Versions, backend, BLAS and the roofline stamp of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    backend = getattr(kernels, "active_backend", None)
    llc, llc_text = _llc_bytes()
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "corrqec": getattr(corrqec, "__version__", None),
        "backend": backend() if callable(backend) else None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "llc": llc_text,
        "llc_bytes": llc,
        "roofline_state_bytes": ROOFLINE_BYTES,
    }
    if llc is not None and ROOFLINE_BYTES < 4 * llc:
        env["roofline_note"] = (
            f"the n={ROOFLINE_N} state is smaller than 4x the LLC, so read "
            "kernel GB/s over memcpy.gbps as cache-affected"
        )
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, WORKDIR)
    try:
        warm = LoopStats()
        try:
            wl.op(wl.warmup_input)
        except workloads.CheckFailed as exc:
            warm.record_failure(exc, wrong=True)
        ready_ns = monotonic_ns()
        out = {"ready_ns": ready_ns, "warmup_wrong": warm.wrong}
        if args.mode == "setup":
            print(json.dumps(out))
            return 0

        out["env"] = environment()
        if args.mode == "measure":
            stats = run_loop(wl.op, wl.inputs, args.seconds, wl.run_ops(args.seconds))
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out["loop"] = _loop_dict(stats)
            out["metrics"] = {
                "ops_per_s": {"value": len(stats.durations) / stats.elapsed, "unit": "1/s"},
                "op_s_p50": {"value": p50(stats.durations), "unit": "s"},
                "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
            }
        else:
            half = args.seconds / 2
            plain = run_loop(wl.op, wl.inputs, half, wl.run_ops(half))
            tr = tracer.Tracer()
            with tr:
                traced = run_loop(wl.op, wl.inputs, half, wl.run_ops(half))
            metrics = tr.metrics(traced.attempted)
            plain_p50 = p50(plain.durations)
            metrics["trace.overhead"] = {
                "value": p50(traced.durations) / plain_p50 if plain_p50 else 0.0,
                "unit": "ratio",
            }
            metrics["memcpy.gbps"] = {"value": tracer.memcpy_gbps(ROOFLINE_BYTES), "unit": "GB/s"}
            # failure counts come from the untraced half: each tracer
            # wrapper adds a frame, so deep recursion fails sooner traced
            out["loop"] = _loop_dict(plain)
            out["traced_loop"] = _loop_dict(traced)
            out["metrics"] = metrics
        print(json.dumps(out))
        return 0
    finally:
        wl.close()


def _loop_dict(stats: LoopStats) -> dict:
    return {
        "attempted": stats.attempted,
        "failed": stats.failed,
        "wrong": stats.wrong,
        "errors": dict(stats.errors),
        "samples": len(stats.durations),
        "elapsed_s": stats.elapsed,
        "op_s_p90": p90(stats.durations),
    }


if __name__ == "__main__":
    raise SystemExit(main())
