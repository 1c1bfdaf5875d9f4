"""Benchmark of the schroedsym verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) against the package sources in
``src/`` of the checkout this file sits in, in one process and one thread.
It prints readable lines, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

- ``setup_s``: median of three fresh-interpreter imports of the package,
  plus the median of three input generations, plus one untimed warm-up
  operation;
- ``op_s_p50``: median seconds per operation over ``--seconds`` of
  back-to-back operations (at least the workload's ``min_ops``);
- ``op_s_tail``: the 90th percentile, which has at least 10 samples beyond
  it (the upper quartile when a run holds fewer than 100 operations).  A
  higher percentile is not used: a round's own cost varies 0.9-1.6x with
  the elements it draws, and the 11th-slowest of ~300 rounds lies in that
  sparse top and spread 0.3 from run to run;
- ``points_per_s``: grid points verified per timed second (in verify_all
  one point is one check, as for the failure count);
- ``pass_frac``: 1 - fail_frac, checked units passed over attempted; the
  result line also carries ``attempted`` and ``failed``;
- ``peak_rss_mb``: peak resident set of this process.

Every time is at reference speed: the measured seconds times the factor
that ``speed.SpeedProbe`` samples around them, raised to the workload's
``speed_exponent``, so that the machine's speed drift does not read as a
change of the program.  The readable lines also
give the raw wall times, in brackets.

``--trace 1`` repeats that measurement, then runs a fixed number of
operations with span tracing on (``tracing.py``) and reports the per-layer
metrics per operation; spans are written to
``.perfbench/<workload>-seed<N>.spans.tsv.gz``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_PCT = 90
TAIL_MIN_SAMPLES = 100  # so that at least 10 samples lie beyond TAIL_PCT
SUITES = ("group", "coords", "multiplier", "solutions", "residual", "liealg")
SRC_MODULES = ("__init__", "cli", "coords", "errors", "group", "jets",
               "multiplier", "opalg", "residual", "sampling", "solutions", "suites")

END_TO_END = {  # name -> unit
    "setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "points_per_s": "1/s",
    "pass_frac": "1", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def say(line):
    print(line, flush=True)


def import_package():
    sys.path.insert(0, str(SRC))
    import schroedsym

    if Path(schroedsym.__file__).resolve().parent != SRC / "schroedsym":
        raise BenchError(f"imported schroedsym from {schroedsym.__file__}, not {SRC}")


def fresh_import_seconds():
    """Import time of the package in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import schroedsym; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"importing schroedsym failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def line_counts():
    counts = {}
    for m in SRC_MODULES:
        path = SRC / "schroedsym" / f"{m}.py"
        counts[f"lines.src.{m}"] = len(path.read_text().splitlines()) if path.exists() else 0
    counts["lines.src"] = sum(len(p.read_text().splitlines())
                              for p in (SRC / "schroedsym").glob("*.py"))
    counts["lines.tests"] = sum(len(p.read_text().splitlines())
                                for p in (ROOT / "tests").glob("*.py"))
    return counts


def environment(np):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def tail(durations):
    """(value, percentile): the TAIL_PCT percentile, or below
    TAIL_MIN_SAMPLES, where the top of so few samples is erratic, the upper
    quartile."""
    s = sorted(durations)
    n = len(s)
    if n < 2:
        return s[0], 75.0
    if n < TAIL_MIN_SAMPLES:
        return statistics.quantiles(s, n=4, method="inclusive")[2], 75.0
    return statistics.quantiles(s, n=100, method="inclusive")[TAIL_PCT - 1], float(TAIL_PCT)


def timed_ops(workload, state, rng, probe, seconds, tracer=None, count=None):
    """Back-to-back operations for ``seconds`` and at least the workload's
    ``min_ops`` operations (or exactly ``count``).

    Returns the operations' intervals, attempted, failed and points.
    """
    intervals, attempted, failed, points = [], 0, 0, 0
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.op = len(intervals)
        out, interval = probe.timed(workload.op, state, rng, tracer)
        intervals.append(interval)
        attempted += out.attempted
        failed += out.failed
        points += out.points
        if count is not None:
            if len(intervals) >= count:
                break
        elif perf_counter() - start >= seconds and len(intervals) >= workload.min_ops:
            break
    return intervals, attempted, failed, points


def per_layer(tracer, ops, traced_p50, untraced_p50, lines, transformed_cases):
    m = {}
    for layer in tracer.calls:
        if layer == "suites.check":
            continue
        m[f"{layer}.calls"] = (tracer.calls[layer] / ops, "count")
        m[f"{layer}.self_s"] = (tracer.self_s[layer] / ops, "s")
    m["suites.glue_self_s"] = (tracer.self_s["suites.check"] / ops, "s")
    for suite in SUITES:
        m[f"suites.{suite}.s"] = (tracer.suite_s.get(suite, 0.0) / ops, "s")
    m["coords.frame_calls"] = (tracer.frame_calls / ops, "count")
    m["multiplier.oracle.frame_calls"] = (tracer.oracle_frame_calls / ops, "count")
    for case in transformed_cases:
        label = f"residual.transformed_{case}"
        runs = tracer.label_runs.get(label, 0)
        frames = tracer.label_frames.get(label, 0)
        m[f"coords.frame_calls.transformed_{case}"] = (frames / runs if runs else 0.0, "count")
    m["residual.points"] = (tracer.points / ops, "count")
    m["trace.overhead_frac"] = ((traced_p50 - untraced_p50) / untraced_p50, "1")
    for name, value in lines.items():
        m[name] = (value, "lines")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # one thread for numpy's BLAS, in this process and the ones it starts
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "schroedsym" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    sys.path.insert(0, str(HERE))
    import speed
    import tracing
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    catalogue = wl.workloads(OUT)
    if args.workload not in catalogue:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(catalogue)}", file=sys.stderr)
        return 2
    workload = catalogue[args.workload]
    with speed.SpeedProbe(workload.speed_exponent) as probe:
        try:
            imports = [probe.timed(fresh_import_seconds) for _ in range(SETUP_REPEATS)]
            import_package()
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        return measure(args, workload, wl, tracing, probe, imports, np)


def measure(args, workload, wl, tracing, probe, imports, np):
    env = environment(np)
    lines = line_counts()
    say(f"# env {json.dumps(dict(env, lines=lines), sort_keys=True)}")
    say(f"# workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}: {workload.why}")

    # set-up: input generation (repeated, median) and one warm-up operation
    gens = [probe.timed(workload.setup, np.random.default_rng(args.seed))
            for _ in range(SETUP_REPEATS)]
    state = gens[0][0]
    rng = np.random.default_rng(args.seed)
    warm, warm_iv = probe.timed(workload.op, state, rng)

    intervals, attempted, failed, points = timed_ops(workload, state, rng, probe, args.seconds)
    attempted += warm.attempted
    failed += warm.failed

    def ref(iv):
        return probe.at_reference(iv)

    import_s = statistics.median(secs * probe.scale(iv.start, iv.end) for secs, iv in imports)
    gen_s = statistics.median(ref(iv) for _, iv in gens)
    setup_s = import_s + gen_s + ref(warm_iv)
    durations = [ref(iv) for iv in intervals]
    raw = [iv.raw for iv in intervals]
    p50 = statistics.median(durations)
    tail_s, tail_pct = tail(durations)
    pass_frac = 1.0 - failed / attempted
    metrics = {
        "setup_s": setup_s,
        "op_s_p50": p50,
        "op_s_tail": tail_s,
        "points_per_s": points / sum(durations),
        "pass_frac": pass_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    say(f"# times are at reference speed (speed.py); raw wall times in brackets; "
        f"reference kernel median {statistics.median(probe.costs) * 1e3:.4g} ms "
        f"over {len(probe.costs)} samples, exponent {probe.exponent:g}")
    say(f"setup_s       {setup_s:.6g} s  (import {import_s:.4g} s and inputs {gen_s:.4g} s, "
        f"medians of {SETUP_REPEATS}; warm-up {ref(warm_iv):.4g} s [{warm_iv.raw:.4g} s])")
    say(f"op_s_p50      {p50:.6g} s  [{statistics.median(raw):.6g} s] over "
        f"{len(durations)} operations")
    say(f"op_s_tail     {tail_s:.6g} s  [{tail(raw)[0]:.6g} s] "
        f"(p{tail_pct:.4g} of {len(durations)} samples)")
    say(f"points_per_s  {metrics['points_per_s']:.6g} 1/s  [{points / sum(raw):.6g} 1/s] "
        f"({points} {workload.point_name})")
    say(f"fail_frac     {failed / attempted:.6g}  ({failed} of {attempted} {workload.unit}s failed)")
    say(f"pass_frac     {pass_frac:.6g}")
    say(f"peak_rss_mb   {metrics['peak_rss_mb']:.6g} MB")

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, tatt, tfail, _ = timed_ops(workload, state, rng, probe, None,
                                                tracer=tracer, count=workload.trace_ops)
        finally:
            tracer.uninstall()
        attempted += tatt
        failed += tfail
        header = json.dumps({"workload": workload.name, "seed": args.seed,
                             "ops": workload.trace_ops, "env": env, "lines": lines})
        span_path = OUT / f"{workload.name}-seed{args.seed}.spans.tsv.gz"
        tracer.write(span_path, header)
        probe.sample()  # a sample after the last traced operation
        traced_p50 = statistics.median(ref(iv) for iv in traced)
        layer = per_layer(tracer, workload.trace_ops, traced_p50, p50, lines,
                          wl.TRANSFORMED_CASES)
        say(f"# traced {workload.trace_ops} operations, {len(tracer.spans)} spans "
            f"written to {span_path.relative_to(ROOT)}; per-layer values are per "
            f"operation, in raw seconds")
        for name, (value, unit) in layer.items():
            say(f"{name:40s} {value:.6g} {unit}")
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        result_metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    say(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
