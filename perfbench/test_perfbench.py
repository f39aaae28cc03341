"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- generator determinism -----------------------------------------------------


@pytest.mark.parametrize("n,k,kind", [(6, 2, "tcdm"), (10, 4, "dcum"), (15, 8, "tcdm")])
def test_ladder_instance_same_seed_same_digest(n, k, kind):
    a = workloads.ladder_instance(np.random.default_rng(5), n, k, kind)
    b = workloads.ladder_instance(np.random.default_rng(5), n, k, kind)
    c = workloads.ladder_instance(np.random.default_rng(6), n, k, kind)
    assert workloads.spec_digest(a) == workloads.spec_digest(b)
    assert workloads.spec_digest(a) != workloads.spec_digest(c)


def test_ladder_instance_shape_is_fixed_by_rung():
    for seed in range(3):
        spec = workloads.ladder_instance(np.random.default_rng(seed), 15, 2, "dcum")
        assert len(spec.network.edges) == round(workloads.EDGE_DENSITY * 15 * 14)
        assert len(spec.commodities) == 2


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_digest_follows_seed(name):
    same = workloads.workload_digest(workloads.build(name, 3, {}).ops)
    assert same == workloads.workload_digest(workloads.build(name, 3, {}).ops)
    assert same != workloads.workload_digest(workloads.build(name, 4, {}).ops)


def test_reference_covers_every_exact_call():
    ref = run.load_reference()
    for name in run.WORKLOADS:
        w = workloads.build(name, ref["dev_seed"], ref)
        keys = {op.key for op in w.ops if op.solver == "EXACT"}
        assert keys == set(ref[name])


# -- span arithmetic -------------------------------------------------------------


def _span(i, name, start, end, parent=None, **attrs):
    return tracing.Span(i, name, start, end, parent, 0, attrs)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, "solver.PASS", 0.0, 10.0),
        _span(1, "a", 1.0, 3.0, 0),
        _span(2, "b", 2.0, 4.0, 0),  # overlaps a: union [1, 4]
        _span(3, "c", 6.0, 7.0, 0),
        _span(4, "d", 6.2, 6.5, 3),  # grandchild: not subtracted from the root
        tracing.Span(5, "e", 8.0, 8.5, 0, 0, tail=0.25),  # probe time after e
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.75)
    assert own[5] == pytest.approx(0.5)
    assert own[3] == pytest.approx(1.0 - 0.3)
    assert own[1] == pytest.approx(2.0)
    assert own[4] == pytest.approx(0.3)


def test_layer_metrics_on_synthetic_tree():
    lp_attrs = dict(cells=100, dense_mb=0.5, nnz=7, status="optimal")
    spans = [
        _span(0, "solver.PASS", 0.0, 10.0),
        _span(1, "problem.build_counterpart", 0.0, 1.0, 0, rows=4, cols=6),
        _span(2, "lp", 1.0, 5.0, 0, **lp_attrs),
        _span(3, "lp.engine.simplex", 1.5, 4.5, 2),
        _span(4, "decompose.decompose", 5.0, 6.0, 0, paths=3),
        _span(5, "solver.EXACT", 20.0, 30.0),
        _span(6, "lp", 21.0, 23.0, 5, **{**lp_attrs, "status": "infeasible"}),
        _span(7, "lp.engine.highs", 21.0, 22.0, 6),
        _span(8, "lp", 24.0, 25.0, 5, **lp_attrs),
        _span(9, "lp.engine.simplex", 24.0, 25.0, 8),
    ]
    m = tracing.layer_metrics(spans)
    assert m["lp.calls"] == 3 and m["lp.busy_s"] == pytest.approx(7.0)
    assert m["lp.simplex.calls"] == 2 and m["lp.simplex.busy_s"] == pytest.approx(5.0)
    assert m["lp.highs.calls"] == 1 and m["lp.highs.busy_s"] == pytest.approx(2.0)
    assert m["lp.cells"] == 300 and m["lp.nnz_max"] == 7
    assert m["lp.status.infeasible"] == 1
    assert m["problem.counterpart.rows_max"] == 4
    assert m["decompose.paths"] == 3
    assert m["algorithms.self_s"] == pytest.approx(10.0 - 1.0 - 4.0 - 1.0)
    assert m["baselines.exact.calls"] == 1
    assert m["baselines.exact.lp_calls"] == 2
    assert m["baselines.exact.lp_s"] == pytest.approx(3.0)
    assert m["baselines.exact.self_s"] == pytest.approx(7.0)


def test_probe_work_is_kept_out_of_the_span():
    import time

    rec = tracing.Recorder()
    slow_probe = lambda *a: time.sleep(0.05)  # noqa: E731
    rec.span("outer", lambda: rec.span("inner", lambda: 1, annotate=slow_probe))
    outer, inner = rec.spans
    assert inner.duration < 0.05 <= inner.tail
    assert tracing.self_times(rec.spans)[outer.id] < 0.05


def test_install_restores_originals():
    import delayflow.algorithms as alg

    original = alg.solve_lp
    rec = tracing.Recorder()
    saved = tracing.install(rec)
    assert alg.solve_lp is not original
    tracing.uninstall(saved)
    assert alg.solve_lp is original


# -- the command ---------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    assert per_layer == [*tracing.LAYER_METRICS, "trace.overhead_ratio", "failed_ratio"]
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOADS)


def test_fastest_of_is_expected_minimum_of_k():
    # Of the 5 four-pass subsets of {1..5}, four contain 1 and one has min 2.
    assert run.fastest_of([3.0, 1.0, 2.0, 5.0, 4.0]) == pytest.approx(1.2)
    # With exactly k passes it is the minimum, column by column.
    assert run.fastest_of([[4, 1], [2, 8], [3, 5], [9, 6]]).tolist() == [2.0, 1.0]
    # Its expected value does not depend on the number of passes.
    rng = np.random.default_rng(0)
    for n in (4, 6, 9):
        est = np.mean([run.fastest_of(rng.uniform(size=n)) for _ in range(4000)])
        assert est == pytest.approx(1 / 5, abs=0.01)


def test_clock_slowdown_averages_kernel_runs_in_window():
    clock = calibrate.Clock()
    clock.at = [10.0, 10.1, 10.2, 15.0]
    clock.took = [calibrate.REF_S * f for f in (1.0, 2.0, 3.0, 10.0)]
    # Runs within WINDOW_S of 10.1: the first three; of 15.0: the last; at
    # 13.0 none is, so the next run counts.
    assert clock.slowdown([10.1, 15.0, 13.0]) == pytest.approx([2.0, 10.0, 10.0])
    assert clock.slowdown() == pytest.approx(4.0)


def test_clock_runs_kernel_once_per_interval():
    clock = calibrate.Clock()
    for _ in range(50):
        clock.tick()
    assert len(clock.took) == 1
    clock.tick(force=True)
    assert len(clock.took) == 2 and clock.spent == pytest.approx(sum(clock.took))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "gen-ladder",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    out = _last_json(proc.stdout)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert list(out["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for name in ("lp.calls", "cli.verify_report.calls", "baselines.exact.lp_calls"):
        assert out["metrics"][name]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=skip)
    proc = subprocess.run(
        [*BENCH["command"], "--workload", "ec2-sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
