"""Record the expected output of every pool entry into golden/.

usage: python3 benchmarks/record_golden.py

Run it only at a commit whose outputs are the reference: every later
benchmark run compares each op's output with what this writes. Search
entries keep the rendered decomposition (or "BoundsExceededError"); cli
and corpus entries keep the SHA-256 of the exit code, stdout and stderr.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import inputs
import worker


def pool_ops(workload: str, workdir: str):
    if workload == "search":
        ops = [("table", f) for f in inputs.table_rows()]
        ops += [(policy, f) for f in inputs.search_pool() for policy in inputs.DRAW_POLICIES]
        return [(worker.search_key(op), op) for op in ops], worker.search_executor()
    if workload == "cli":
        return [(inputs.cli_key(argv), argv) for argv in inputs.cli_pool()], worker.cli_executor()
    files = [(size, variant) for size in inputs.CORPUS_SIZES for variant in range(inputs.CORPUS_VARIANTS)]
    return inputs.corpus_pass(inputs.write_corpus_files(workdir, files)), worker.cli_executor()


def record(workload: str) -> dict[str, str]:
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.OUT_DIR) as workdir:
        ops, execute = pool_ops(workload, workdir)
        golden = {}
        for key, op in ops:
            _, outcome, problem = execute(op)
            if problem is not None:
                raise SystemExit(f"{key}: {problem}; not recording a broken output")
            golden[key] = outcome
    return golden


def main() -> int:
    worker.import_scribal()
    os.makedirs(worker.GOLDEN_DIR, exist_ok=True)
    for workload in worker.WORKLOADS:
        golden = record(workload)
        path = os.path.join(worker.GOLDEN_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(golden)} expected outputs -> {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
