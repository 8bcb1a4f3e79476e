"""Run the benchmark several times per workload and summarise the runs.

usage: python3 benchmarks/baseline.py [--runs 10] [--out FILE]

Run i uses seed i, and every run lasts BENCHMARK.json's run_seconds.
For each end-to-end metric this prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, the distance between
the quartiles as a share of the median. One traced run
per workload (seed 1) adds the per-layer metrics. With --out, everything
is written as JSON, tagged with the machine, the Python version and the
git sha of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def run_seconds() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}: {out.stderr.strip()}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed: {out.stderr.strip()}")
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "system": platform.platform()}


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    report = {
        "machine": machine(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seconds": run_seconds(),
        "seeds": list(range(1, args.runs + 1)),
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in report["seeds"]:
            for name, metric in run_once(workload, seed, report["seconds"], 0)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {name: summarise(v) for name, v in values.items()}
        for name, s in summary.items():
            print(f"{workload:<7} {name:<16} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}", flush=True)
        traced = run_once(workload, 1, report["seconds"], 1)["metrics"]
        report["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer_seed1": {name: m["value"] for name, m in traced.items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
