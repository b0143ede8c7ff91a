"""Per-function spans recorded from outside corrqec, by rebinding.

``Tracer.install`` replaces each traced function at every corrqec module
attribute that refers to it (its home module, the modules that imported it
by name, and the package's re-exports) with a wrapper that records a span;
``uninstall`` puts the original objects back.  Nothing under ``src/`` knows
about the tracer.

A span's self time is its duration minus the durations of the traced spans
it directly encloses.  A function that re-enters itself (``build_pn``
recurses) is folded into its outermost span.  Every wrapper adds a stack
frame, so deep recursion fails earlier while traced: failure counts come
from untraced runs only.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

import numpy as np

# Traced functions, by corrqec module.  A name a later version of corrqec no
# longer has is skipped and reads as zero calls.
LAYERS = {
    "cli": ("cmd_verify", "cmd_trial", "cmd_optimality", "load_channels"),
    "scheme": ("run_trial", "encode", "decode", "hybrid_sweep"),
    "encoder": ("build_pn", "conjugation_report", "expected_conjugation", "encoder_factors"),
    "gates": ("circuit_conjugate", "correlated_error"),
    "channels": ("apply_sequence", "apply_pauli_channel", "apply_span_channel"),
    "tensor": (
        "partial_trace_leading",
        "partial_trace_trailing",
        "frobenius_distance",
        "random_density",
    ),
    "kernels": (
        "gather_conjugate",
        "hadamard_conjugate",
        "pauli_channel_apply",
        "span_conjugate",
        "ptrace_leading",
        "ptrace_trailing",
        "frob_dist",
    ),
    "optimality": ("exhaustive_search", "compose"),
    "qasm": ("export_qasm",),
}

_C128 = 16  # bytes per complex128 entry


def _square(m) -> int:
    d = np.shape(m)[0]
    return d * d * _C128


def _ptrace(m, keep) -> int:
    # the dim * keep entries summed, plus the keep x keep result
    return (np.shape(m)[0] * keep + keep * keep) * _C128


# Bytes a kernel must move: one read of each input and one write of the
# output, computed from array sizes.  Cache misses, strided access and
# temporaries are not counted, so achieved traffic is higher.
KERNEL_BYTES = {
    "gather_conjugate": lambda m, perm: 2 * _square(m) + 8 * len(perm),
    "hadamard_conjugate": lambda m, q: 2 * _square(m),
    "pauli_channel_apply": lambda rho, probs: 2 * _square(rho),
    "span_conjugate": lambda m, fd, fa: 2 * _square(m) + 2 * len(fd) * _C128,
    "ptrace_leading": _ptrace,
    "ptrace_trailing": _ptrace,
    "frob_dist": lambda a, b: _square(a) + _square(b),
}


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "bytes")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.bytes = 0


def _corrqec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "corrqec" or name.startswith("corrqec."))]


class Tracer:
    """Rebinds the functions in LAYERS; use as a context manager."""

    def __init__(self):
        self.stats = {f"{mod}.{fn}": Stat() for mod, fns in LAYERS.items() for fn in fns}
        self._stack: list[list[int]] = []  # child time of each open span
        self._open: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, nbytes):
        stat = self.stats[name]
        stack = self._stack
        open_names = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            children = [0]
            stack.append(children)
            open_names.add(name)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                open_names.discard(name)
                stat.calls += 1
                stat.total_ns += dur
                stat.self_ns += dur - children[0]
                if stack:
                    stack[-1][0] += dur
            if nbytes is not None:
                stat.bytes += nbytes(*args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _corrqec_modules()
        home = {m.__name__.rpartition(".")[2]: m for m in modules}
        wrappers = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                original = getattr(home.get(mod), fn, None)
                if callable(original):
                    nbytes = KERNEL_BYTES.get(fn) if mod == "kernels" else None
                    wrappers[id(original)] = self._wrap(f"{mod}.{fn}", original, nbytes)
        for m in modules:
            for attr, value in list(vars(m).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((m, attr, value))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            m, attr, original = self._restore.pop()
            setattr(m, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self, ops: int) -> dict[str, dict]:
        """calls, total_s and self_s per operation; bytes and GB/s for kernels."""
        out = {}
        per_op = 1.0 / max(ops, 1)
        for name, s in self.stats.items():
            out[f"{name}.calls"] = {"value": s.calls * per_op, "unit": "calls/op"}
            out[f"{name}.total_s"] = {"value": s.total_ns * 1e-9 * per_op, "unit": "s/op"}
            out[f"{name}.self_s"] = {"value": s.self_ns * 1e-9 * per_op, "unit": "s/op"}
            if name.startswith("kernels."):
                gbps = s.bytes / s.total_ns if s.total_ns else 0.0
                out[f"{name}.bytes"] = {"value": s.bytes * per_op, "unit": "computed_B/op"}
                out[f"{name}.gbps"] = {"value": gbps, "unit": "GB/s"}
        return out


def memcpy_gbps(nbytes: int, repeats: int = 5) -> float:
    """Median copy rate (read + write) of an nbytes array, in GB/s."""
    src = np.ones(nbytes // 8, dtype=np.float64)
    dst = np.empty_like(src)
    rates = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (perf_counter_ns() - t0))
    return float(np.median(rates))
