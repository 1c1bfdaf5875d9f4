"""Self-tests of the benchmark: its output checks must catch wrong results,
and its tracer must count repeatably and put time in the right layer.

    python3 -m pytest perfbench/tests -q
"""

import functools
import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

co = importlib.import_module("schroedsym.coords")
gr = importlib.import_module("schroedsym.group")
res = importlib.import_module("schroedsym.residual")
so = importlib.import_module("schroedsym.solutions")
jets = importlib.import_module("schroedsym.jets")

LINEAR = co.FamilySpec.linear(wl.K, wl.ALPHA, wl.BETA)
GRID = res.GridSpec(wl.T_RANGE, wl.X_RANGE, 8, 8)


def small_round(trace_ops=1):
    return wl.ResidualRound("small", "test round", n=6, n_nls=4, trace_ops=trace_ops)


def traced(workload, seed):
    state = workload.setup(np.random.default_rng(seed))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with speed.SpeedProbe() as probe:
            run.timed_ops(workload, state, np.random.default_rng(seed), probe, None,
                          tracer=tracer, count=workload.trace_ops)
    finally:
        tracer.uninstall()
    return run.per_layer(tracer, workload.trace_ops, 1.0, 1.0, {}, wl.TRANSFORMED_CASES)


# -- output checks ---------------------------------------------------------------


def test_wrong_function_counts_as_failed():
    not_a_solution = so.FormulaFn(lambda tj, xj: jets.exp(tj + xj))
    wrong = wl.Case("wrong", lambda rng: res.verify_transformed_solution(
        not_a_solution, gr.GroupElement.identity(), LINEAR, GRID), 64)
    right = wl.Case("right", lambda rng: res.verify_transformed_solution(
        so.f_pair(LINEAR)[0], gr.GroupElement.identity(), LINEAR, GRID), 64)
    out = small_round().op([right, wrong], np.random.default_rng(0))
    assert (out.attempted, out.failed, out.points) == (2, 1, 128)


def test_dropped_points_and_exceptions_count_as_failed():
    invq = co.FamilySpec.inverse_quadratic(wl.K, 2.0)
    half_dropped = wl.Case("dropped", lambda rng: res.verify_transformed_solution(
        so.power_static(2.0, 2.0), gr.GroupElement.identity(), invq, GRID), 64)

    def boom(rng):
        raise co.DomainError("no point in the domain")

    out = small_round().op([half_dropped, wl.Case("raises", boom, 64)],
                           np.random.default_rng(0))
    assert (out.attempted, out.failed, out.points) == (2, 2, 32)


def test_verify_report_scoring():
    rows = [{"name": n, "pass": True} for n in sorted(wl.EXPECTED_CHECKS)]
    n = len(rows)
    assert wl.score_verify_report(0, json.dumps(rows)).failed == 0
    rows[3]["pass"] = False
    assert wl.score_verify_report(0, json.dumps(rows)).failed == 1
    assert wl.score_verify_report(1, json.dumps(rows)).failed == n
    assert wl.score_verify_report(0, json.dumps(rows[1:])).failed == n
    assert wl.score_verify_report(0, json.dumps(rows + rows[:1])).failed == n
    assert wl.score_verify_report(0, "not json").failed == n


# -- tracer ----------------------------------------------------------------------


def test_traced_counts_repeat_for_one_seed():
    def counts(seed):  # every *.calls, *.frame_calls* and residual.points
        return {k: v for k, (v, unit) in traced(small_round(2), seed).items()
                if unit == "count"}

    first, second = counts(11), counts(11)
    assert first == second
    assert first["residual.points"] == 12 * 36 + 64
    assert first["jets.mul.calls"] > 0
    assert first["multiplier.oracle.calls"] == 0
    for case in ("linear", "inverse_quadratic", "quadratic", "disk"):
        assert first[f"coords.frame_calls.transformed_{case}"] == 4


def test_tracer_restores_every_lookup_site():
    before = {m.__name__: dict(vars(m)) for m in tracing.package_modules()}
    mul = jets.Jet.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    assert jets.Jet.__mul__ is not mul
    tracer.uninstall()
    assert jets.Jet.__mul__ is mul
    assert before == {m.__name__: dict(vars(m)) for m in tracing.package_modules()}


def test_injected_delay_lands_in_its_layer_not_its_parent():
    delay = 0.004
    base = traced(small_round(), seed=3)
    original = co.linear_xi_f
    calls = 0

    @functools.wraps(original)
    def slow(*args, **kwargs):
        nonlocal calls
        calls += 1
        time.sleep(delay)
        return original(*args, **kwargs)

    sites = [m for m in tracing.package_modules() if vars(m).get("linear_xi_f") is original]
    for m in sites:
        m.linear_xi_f = slow
    try:
        delayed = traced(small_round(), seed=3)
    finally:
        for m in sites:
            m.linear_xi_f = original
    added = calls * delay
    assert calls >= 10

    def grew(key):
        return delayed[key][0] - base[key][0]

    assert grew("coords.self_s") >= 0.9 * added
    for parent in ("multiplier.self_s", "residual.self_s"):
        assert grew(parent) < 0.2 * added


# -- the command -----------------------------------------------------------------


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_last(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "residual_small",
         "--seed", "1", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[kind]}
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "residual_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", ["verify_all", "residual_small", "residual_large"])
def test_benchmark_file_names_each_workload(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert name in {w["name"] for w in spec["workloads"]}
    assert name in wl.workloads(Path("unused"))


# -- statistics ------------------------------------------------------------------


def test_tail_is_p90_or_below_100_samples_the_upper_quartile():
    assert run.tail(list(range(51))) == (37.5, 75.0)
    assert run.tail([2.0]) == (2.0, 75.0)
    value, pct = run.tail(list(range(201)))
    assert value == pytest.approx(180.0) and pct == 90.0


def test_speed_probe_removes_its_own_time_and_scales_by_reference():
    with speed.SpeedProbe() as probe:
        _, interval = probe.timed(time.sleep, 0.5)
        probe.sample()
    inside = [c for t, c in zip(probe.times, probe.costs) if interval.start < t < interval.end]
    assert len(inside) >= 2
    assert interval.raw == pytest.approx(0.5, abs=0.01)
    assert interval.end - interval.start == pytest.approx(interval.raw + sum(inside), abs=1e-3)
    window = [c for t, c in zip(probe.times, probe.costs)
              if interval.start - speed.WINDOW <= t <= interval.end + speed.WINDOW]
    assert probe.at_reference(interval) == pytest.approx(
        interval.raw * speed.REF_S / np.median(window))
    probe.exponent = 0.5
    assert probe.at_reference(interval) == pytest.approx(
        interval.raw * (speed.REF_S / np.median(window)) ** 0.5)
