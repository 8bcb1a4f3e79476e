"""The scribal benchmark: seeded workloads measured end to end and per layer.

usage: python3 benchmarks/run.py [--workload search|cli|corpus|all]
                                 [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in one child process
(worker.py) as a closed loop with one client, in whole passes until
--seconds have gone by. The time metrics take each op at its best time
over the passes. With --trace 0 it prints the end-to-end metrics;
with --trace 1 it runs the separate traced measurement and prints the
per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"} (for --workload all, one
such object per workload).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from worker import BENCH_DIR, ROOT, SRC, WORKLOADS

# A run is one untimed pass, --seconds and the rest of its last pass: a
# pass took under 3 s at the commit that defined the benchmark.
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def _run(cmd: list[str], timeout: float) -> str:
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{cmd[1:3]} did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{cmd[1:3]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload, str(seed), str(seconds),
           "1" if trace else "0"]
    lines = _run(cmd, CHILD_TIMEOUT_S).strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker for {workload} printed no result")
    return json.loads(lines[-1])


def tail(latencies_ms: list[float], beyond: int) -> tuple[float, float]:
    """The highest percentile with at least `beyond` samples beyond it: (value, percentile)."""
    ordered = sorted(latencies_ms)
    rank = max(len(ordered) - beyond, 1)  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(raw: dict) -> tuple[dict, list[str]]:
    # each op at its least latency over the passes (worker.least)
    best_ms = [ns / 1e6 for ns in raw["best_ns"]]
    # The tail is the percentile that has 10 ops of a pass beyond it.
    tail_ms, percentile = tail(best_ms, 10)
    metrics = {
        # a pass of ops at their best times, completed back to back
        "ops_per_s": (len(best_ms) / max(sum(best_ms) / 1e3, 1e-9), "1/s"),
        "latency_p50_ms": (statistics.median(best_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kib"] / 1024, "MiB"),
    }
    notes = {
        "latency_p50_ms": f"(each of {len(best_ms)} ops at its best of {len(raw['pass_s'])} passes)",
        "latency_tail_ms": f"(p{percentile:.2f}: 10 of {len(best_ms)} ops beyond it)",
        "setup_s": f"(median of {len(raw['setup_s'])} fresh interpreters spread over the run)",
    }
    lines = [f"  {name:<16} {value:.6g} {unit} {notes.get(name, '')}".rstrip()
             for name, (value, unit) in metrics.items()]
    lines.insert(3, f"  {'error_rate':<16} {raw['failed'] / raw['attempted']:.6g} "
                    f"({raw['failed']} of {raw['attempted']} ops failed)")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, lines


def per_layer(raw: dict) -> tuple[dict, list[str]]:
    metrics = {}
    for name, value in raw["per_layer"].items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": value, "unit": unit}
    lines = [f"  {name:<52} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()
             if m["value"]]
    lines.append(f"  spans written to {raw['spans_file']}")
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    raw = run_worker(workload, seed, seconds, trace)
    if raw["attempted"] < 1:
        raise BenchmarkError(f"{workload}: no op was attempted")
    if trace:
        metrics, lines = per_layer(raw)
        print(f"{workload} (seed {seed}, {raw['passes']} passes, each op untraced and traced)")
    else:
        metrics, lines = end_to_end(raw)
        print(f"{workload} (seed {seed}, {raw['passes']} passes of "
              f"{statistics.median(raw['pass_s']):.3g} s median, untraced)")
    print("\n".join(lines))
    for failure in raw["first_failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be above 0")
    if not os.path.isfile(os.path.join(SRC, "scribal", "__init__.py")):
        print(f"run.py: no scribal package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
