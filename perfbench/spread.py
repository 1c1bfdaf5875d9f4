"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload residual_small --seeds 1-10

Runs ``run.py`` once per seed with the ``run_seconds`` of BENCHMARK.json,
one run at a time, and prints per end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.  The
last line is the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarise(results):
    """{metric: {median, q1, q3, spread, values}} over the run results."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", flush=True)
        results.append(result)

    summary = summarise(results)
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
              f"  spread {s['spread']:.4f}", flush=True)
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                      "correct": all(r["correct"] for r in results), "metrics": summary}))


if __name__ == "__main__":
    main()
