"""Run one workload in this process and print its raw measurements as JSON.

usage: worker.py WORKLOAD SEED SECONDS TRACE

The workload is a closed loop with one client and no threads: the next op
starts only after the previous one returns. Ops run in whole passes over
the seeded inputs: one untimed pass that fills the package's caches, then
timed passes until SECONDS have gone by, so the timed part lasts SECONDS
plus the rest of its last pass. Every op's output is
checked; a failure is an unexpected exception or exit code, a broken
decomposition invariant, or output that differs from the golden output
recorded in golden/.

With TRACE 0, fresh interpreters time the package's import between the
passes (setup_s), spread over the run. With TRACE 1 every op runs twice
per pass, untraced and traced back to back, and per-layer totals are
reported per pass instead.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import math
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from time import perf_counter, perf_counter_ns

import inputs
from tracer import COUNTS, OVERHEAD, SPANS, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("search", "cli", "corpus")
SETUP_PROBES = 24

# A fresh interpreter that times `import scribal, scribal.cli` and says
# whether the package was already loaded before the timed import.
PROBE = """\
import os, sys, time
src = sys.argv[1]
sys.path.insert(0, src)
fresh = not any(n == "scribal" or n.startswith("scribal.") for n in sys.modules)
start = time.perf_counter()
import scribal, scribal.cli
elapsed = time.perf_counter() - start
local = os.path.abspath(scribal.__file__).startswith(os.path.join(src, ""))
print(repr(elapsed), fresh, local, os.getpid())
"""


def probe_setup() -> tuple[float, int]:
    """One fresh interpreter (-I: no environment, no user site, no cwd on the path)."""
    out = subprocess.run([sys.executable, "-I", "-c", PROBE, SRC], cwd=ROOT, capture_output=True,
                         text=True, timeout=60)
    if out.returncode != 0:
        raise SystemExit(f"setup probe exited {out.returncode}: {out.stderr.strip()[-2000:]}")
    elapsed, fresh, local, pid = out.stdout.split()
    if local != "True":
        raise SystemExit("the setup probe imported scribal from outside src/")
    if fresh != "True":
        raise SystemExit("the setup probe found scribal already imported")
    return float(elapsed), int(pid)


def import_scribal():
    """Import the package from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    import scribal
    import scribal.cli

    if not os.path.abspath(scribal.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"scribal was imported from {scribal.__file__}, not from {SRC}")
    return scribal


def load_golden(workload: str) -> dict[str, str]:
    with open(os.path.join(GOLDEN_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- executing one op -------------------------------------------------------------
# An executor takes an op and returns (latency ns, outcome, problem). The
# outcome is compared with the golden output; a problem is a failure that
# needs no golden output to see.


def decomposition_problem(value: Fraction, policy, u) -> str | None:
    """The invariants every decomposition keeps, checked from its fields."""
    dens = list(u.denominators)
    total = u.integer_part + (Fraction(2, 3) if u.two_thirds else 0) + sum(Fraction(1, d) for d in dens)
    if total != value:
        return f"{u.render()} does not recompose to {value}"
    if any(d < 2 for d in dens) or len(set(dens)) != len(dens):
        return f"{u.render()} repeats a denominator"
    if policy.strategy == "shortest_search" and dens and max(dens) > policy.max_denominator:
        return f"{u.render()} exceeds max_denominator={policy.max_denominator}"
    return None


def search_executor():
    from scribal import arith

    policies = {
        "table": arith.TABLE_POLICY,
        "default": arith.DEFAULT_POLICY,
        "greedy": replace(arith.DEFAULT_POLICY, strategy=arith.GREEDY),
        "splitting": replace(arith.DEFAULT_POLICY, strategy=arith.SPLITTING),
    }

    def execute(op):
        policy_name, value = op
        policy = policies[policy_name]
        start = perf_counter_ns()
        try:
            u = arith.decompose(value, policy)
        except arith.BoundsExceededError:
            # an outcome, not a failure; the golden output says whether it is expected
            return perf_counter_ns() - start, "BoundsExceededError", None
        latency = perf_counter_ns() - start
        return latency, u.render(), decomposition_problem(value, policy, u)

    return execute


def search_key(op) -> str:
    return f"{op[0]}:{op[1]}"


def cli_digest(code, stdout: str, stderr: str) -> str:
    blob = f"exit {code}\n{stdout}\0{stderr}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def cli_executor():
    from scribal import cli

    def execute(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter_ns()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors exit 2
                code = exc.code
            latency = perf_counter_ns() - start
        return latency, cli_digest(code, out.getvalue(), err.getvalue()), None

    return execute


# -- passes -----------------------------------------------------------------------


class Pass:
    """Latencies and failures of one pass over the ops."""

    def __init__(self) -> None:
        self.latencies: list[int] = []
        self.failures: list[str] = []

    @property
    def timed_ns(self) -> int:
        return sum(self.latencies)


def run_op(result: Pass, key: str, op, execute, expected: dict[str, str]) -> None:
    try:
        latency, outcome, problem = execute(op)
    except Exception as exc:  # an unexpected exception fails the op, not the run
        result.latencies.append(0)
        result.failures.append(f"{key}: raised {type(exc).__name__}: {exc}")
        return
    result.latencies.append(latency)
    if problem is None and outcome != expected.get(key):
        problem = f"output {outcome!r} differs from golden {expected.get(key)!r}"
    if problem is not None:
        result.failures.append(f"{key}: {problem}")


def run_pass(ops, execute, expected: dict[str, str]) -> Pass:
    result = Pass()
    for key, op in ops:
        run_op(result, key, op, execute, expected)
    return result


def least(best: list[int] | None, latencies: list[int]) -> list[int]:
    """Each op's least latency so far, with one more pass's latencies.

    Every pass runs the same ops in the same order. The host's speed
    varies up to twofold within seconds and drifts over minutes, and a
    slow moment only ever adds time, so an op's least time over the passes
    is the figure that repeats from run to run (timeit's convention). Only
    the least times are kept, so memory does not grow with the passes.
    """
    return list(latencies) if best is None else list(map(min, best, latencies))


def workload_ops(workload: str, seed: int, expected: dict[str, str], workdir: str):
    """(keyed ops, executor) for one seed; corpus files are written to workdir."""
    if workload == "search":
        return [(search_key(op), op) for op in inputs.search_pass(seed, expected)], search_executor()
    if workload == "cli":
        return [(inputs.cli_key(argv), argv) for argv in inputs.cli_pass(seed)], cli_executor()
    paths = inputs.write_corpus_files(workdir, inputs.corpus_files(seed))
    return inputs.corpus_pass(paths), cli_executor()


def measure(ops, execute, expected, seconds: float) -> dict:
    """Passes until `seconds` have gone by, with setup probes spread between them."""
    best, pass_s, attempted, failures = None, [], 0, []
    setup = [probe_setup()[0]]
    start = perf_counter()
    while not pass_s or perf_counter() - start < seconds:
        result = run_pass(ops, execute, expected)
        best = least(best, result.latencies)
        pass_s.append(result.timed_ns / 1e9)
        attempted += len(result.latencies)
        failures += result.failures
        # keep the probes level with the share of the run that has gone by
        due = math.ceil(SETUP_PROBES * min((perf_counter() - start) / seconds, 1))
        while len(setup) < due:
            setup.append(probe_setup()[0])
    return {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "best_ns": best,
        "setup_s": setup,
        "attempted": attempted,
        "failures": failures,
    }


def measure_traced(ops, execute, expected, seconds: float, spans_path: str) -> dict:
    """Passes until `seconds` have gone by; each op runs untraced and traced back to back.

    The two runs of an op take turns going first, so a change in the
    machine's speed falls on both sides alike. Per-layer totals are per
    pass, medians over the passes. trace.overhead_s is a pass of ops at
    their best traced times minus the same pass at their best untraced
    times, the estimate run.py uses for the end-to-end figures.
    """
    rounds = []
    best_plain = best_traced = None
    failures: list[str] = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        tracer = Tracer()
        plain, traced = Pass(), Pass()
        for index, (key, op) in enumerate(ops):
            tracer.op = index
            sides = [(plain, nullcontext()), (traced, tracer)]
            for result, context in sides if index % 2 == 0 else sides[::-1]:
                with context:
                    run_op(result, key, op, execute, expected)
        if not rounds:
            tracer.write(spans_path)
        rounds.append((tracer.layer_totals(), tracer.counts))
        best_plain = least(best_plain, plain.latencies)
        best_traced = least(best_traced, traced.latencies)
        failures += plain.failures + traced.failures
    metrics = {}
    for span in SPANS:
        # calls repeat exactly from pass to pass; times are medians over passes
        metrics[f"{span}.calls"] = rounds[0][0].get(span, (0, 0.0))[0]
        metrics[f"{span}.self_s"] = statistics.median(r[0].get(span, (0, 0.0))[1] for r in rounds)
    for count in COUNTS:
        metrics[count] = rounds[0][1][count]
    metrics[OVERHEAD] = (sum(best_traced) - sum(best_plain)) / 1e9
    return {
        "passes": len(rounds),
        "attempted": 2 * len(rounds) * len(ops),
        "failures": failures,
        "per_layer": metrics,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    import_scribal()
    expected = load_golden(workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        ops, execute = workload_ops(workload, seed, expected, workdir)
        # An untimed, checked pass first fills the package's caches
        # (arith._FACTOR_CACHE keeps what the first run of a value factors):
        # a cold first pass is up to 70% slower on corpus, and timing it
        # would make the figures depend on how many passes follow it.
        warm = run_pass(ops, execute, expected)
        if trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv.gz")
            result = measure_traced(ops, execute, expected, seconds, spans_path)
        else:
            result = measure(ops, execute, expected, seconds)
    failures = warm.failures + result.pop("failures")
    result["attempted"] += len(ops)
    result["failed"] = len(failures)
    result["first_failures"] = failures[:5]
    # ru_maxrss is in KiB on Linux
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
