"""Self-tests of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import worker  # puts src/ on sys.path before corrqec is imported
import tracer
import workloads
from corrqec import channels, cli, encoder, qasm

ROOT = Path(__file__).resolve().parent.parent


def _small_input(m: int = 5) -> workloads.SmallInput:
    return workloads.SmallInput(verify_seed=3, m=m, qasm_n=4, which="decode", error=None)


def test_span_channels_pass_completeness(tmp_path):
    rng = np.random.default_rng(0)
    for _ in range(50):
        for n in (workloads.SPAN_N, 2, 3):
            rows = workloads.span_kraus_rows(rng)
            coeffs = [tuple(complex(r[2 * i], r[2 * i + 1]) for i in range(4)) for r in rows]
            channels.SpanChannel(n, tuple(coeffs))  # raises if not trace preserving
            assert channels.completeness_deviation(n, coeffs) < 1e-12
    path = tmp_path / "channels.json"
    path.write_text(workloads.span_channels_json(rng))
    kinds = [type(ch).__name__ for ch in cli.load_channels(path, workloads.SPAN_N)]
    assert kinds == ["SpanChannel", "SpanChannel", "PauliChannel"]


def test_same_seed_same_inputs(tmp_path):
    a = workloads.make("span-n11", 7, tmp_path / "a")
    b = workloads.make("span-n11", 7, tmp_path / "b")
    c = workloads.make("span-n11", 8, tmp_path / "c")
    try:
        assert a.files[0].read_bytes() == b.files[0].read_bytes()
        assert a.files[0].read_bytes() != c.files[0].read_bytes()
    finally:
        for wl in (a, b, c):
            wl.close()
    for name in ("dense-n12", "small"):
        x = workloads.make(name, 7, tmp_path)
        y = workloads.make(name, 7, tmp_path)
        assert [next(x.inputs) for _ in range(70)] == [next(y.inputs) for _ in range(70)]


def test_build_sizes_cover_range_log_uniformly():
    sizes = workloads.build_sizes(np.random.default_rng(1))
    cycle = [next(sizes) for _ in range(workloads.BUILD_STRATA)]
    # every cycle and every seed builds the same sizes, in another order
    other = workloads.build_sizes(np.random.default_rng(2))
    for _ in range(3):
        again = [next(other) for _ in range(workloads.BUILD_STRATA)]
        assert again != cycle and sorted(again) == sorted(cycle)
    lo, hi = workloads.BUILD_M_RANGE
    assert all(lo <= m <= hi for m in cycle)
    # one draw per stratum: the share above t is the log-uniform share, up to
    # the one stratum that straddles t
    for t in (16, 64, 256, 950):
        share = np.log(hi / t) / np.log(hi / lo)
        assert abs(sum(m > t for m in cycle) - share * len(cycle)) <= 1


def test_tracer_restores_every_function():
    def snapshot():
        return {
            (name, attr): value
            for name, mod in sys.modules.items()
            if mod is not None and (name == "corrqec" or name.startswith("corrqec."))
            for attr, value in vars(mod).items()
        }

    before = snapshot()
    original = encoder.build_pn
    tr = tracer.Tracer()
    with tr:
        wrapper = encoder.build_pn
        assert wrapper is not original
        assert cli.build_pn is wrapper and sys.modules["corrqec"].build_pn is wrapper
        workloads.make_small_op()(_small_input())
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tr.stats["encoder.build_pn"].calls > 0


def test_self_time_never_negative_and_names_match_benchmark():
    tr = tracer.Tracer()
    op = workloads.make_small_op()
    with tr:
        for m in (2, 40, 300):
            op(_small_input(m))
    for name, s in tr.stats.items():
        assert 0 <= s.self_ns <= s.total_ns, name
    assert tr.stats["optimality.compose"].calls > 0
    # build_pn recurses; only its outermost span is recorded
    encoder.build_pn.cache_clear()
    calls = tr.stats["encoder.build_pn"].calls
    with tr:
        encoder.build_pn(60)
    assert tr.stats["encoder.build_pn"].calls == calls + 1
    names = set(tr.metrics(3)) | {"trace.overhead", "memcpy.gbps"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert names == {m["name"] for m in spec["per_layer"]}
    assert len(names) <= 128


def test_wrong_residual_is_a_failed_operation(monkeypatch):
    good = {
        "rho_residual": 1e-16,
        "ancilla_residual": 1e-16,
        "product_residual": 1e-16,
        "hybrid_exact": True,
    }
    bad = dict(good, rho_residual=cli.TRIAL_TOL * 10)
    payloads = iter([good, bad])
    monkeypatch.setattr(encoder, "conjugation_report", lambda spec: (1e-15, 1e-15, 1e-15))
    monkeypatch.setattr(cli, "cmd_trial", lambda *args: next(payloads))
    x = workloads.DenseInput((0.25, 0.25, 0.25, 0.25), "10", 1)
    stats = worker.run_loop(workloads.dense_op, iter([x, x]), seconds=1e-9)
    assert (stats.attempted, stats.failed) == (1, 0)
    stats = worker.run_loop(workloads.dense_op, iter([x]), seconds=0.0)
    assert (stats.attempted, stats.failed, stats.wrong) == (1, 1, 1)
    assert stats.durations == []


def test_small_runs_hold_whole_cycles(tmp_path):
    small = workloads.make("small", 1, tmp_path)
    assert small.run_ops(0.0) == workloads.BUILD_STRATA
    assert small.run_ops(3 * workloads.SMALL_CYCLE_S) == 3 * workloads.BUILD_STRATA
    assert workloads.make("dense-n12", 1, tmp_path).run_ops(20.0) is None
    calls = []
    stats = worker.run_loop(calls.append, iter(range(10)), seconds=1e9, count=4)
    assert calls == [0, 1, 2, 3] and stats.attempted == 4


def test_odd_conjugation_must_be_exactly_zero():
    workloads.check_conjugation(5, (0.0, 0.0, 0.0))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_conjugation(5, (0.0, 1e-300, 0.0))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_conjugation(6, (0.0, float("nan"), 0.0))


def test_recursion_error_is_counted_not_fatal(monkeypatch):
    def deep(n):
        raise RecursionError("maximum recursion depth exceeded")

    op = workloads.make_small_op()
    monkeypatch.setattr(encoder, "build_pn", deep)
    stats = worker.run_loop(op, iter([_small_input(2000)]), seconds=0.0)
    assert (stats.attempted, stats.failed, stats.wrong) == (1, 1, 0)
    assert stats.errors == {"RecursionError": 1}


@pytest.mark.parametrize("n", range(2, 13))
def test_qasm_check_accepts_exports_and_rejects_tampering(n):
    spec = encoder.build_pn(n)
    for which in qasm.WHICH_CHOICES:
        errors = (None, *qasm.ERROR_CHOICES) if which == "roundtrip" else (None,)
        for error in errors:
            text = qasm.export_qasm(n, which, error)
            workloads.check_qasm(text, spec, which, error)
    lines = qasm.export_qasm(n, "encode").splitlines()
    swapped = lines[:4] + lines[4:][::-1]
    if swapped == lines:
        return  # P_2 = C01 H C01 reads the same reversed
    with pytest.raises(workloads.CheckFailed):
        workloads.check_qasm("\n".join(swapped), spec, "encode", None)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_qasm(qasm.export_qasm(n, "encode"), spec, "decode", None)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
