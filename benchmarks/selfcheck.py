"""Checks of the benchmark itself.

usage: python3 benchmarks/selfcheck.py [-v]

- the input generator is deterministic, also across interpreters;
- one corrupted expected output gives an error rate above 0, and so does
  a decomposition that breaks an invariant;
- outputs are identical with tracing on and off, and spans nest;
- setup_s is measured in a fresh process, never in a warm one;
- BENCHMARK.json names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

import inputs
import run
import worker
from tracer import Tracer, metric_names

worker.import_scribal()

from scribal import arith, cli, corpus, rational  # noqa: E402
from scribal.rational import UnitFractionSum  # noqa: E402

SEARCH_GOLDEN = worker.load_golden("search")

DIGEST_INPUTS = """\
import hashlib, sys
import inputs, worker
seed = int(sys.argv[1])
h = hashlib.sha256()
h.update(repr(inputs.search_pass(seed, worker.load_golden("search"))).encode())
h.update(repr(inputs.cli_pass(seed)).encode())
for size, variant in inputs.corpus_files(seed):
    h.update(inputs.corpus_document(size, variant).encode())
print(h.hexdigest())
"""


def input_digest(seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", DIGEST_INPUTS, str(seed)], cwd=run.BENCH_DIR,
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def quick_search_ops():
    # a pass of seed 0; its slowest op takes a few hundredths of a second
    return [(worker.search_key(op), op) for op in inputs.search_pass(0, SEARCH_GOLDEN)]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (0, 7):
            self.assertEqual(inputs.search_pass(seed, SEARCH_GOLDEN),
                             inputs.search_pass(seed, SEARCH_GOLDEN))
            self.assertEqual(inputs.cli_pass(seed), inputs.cli_pass(seed))
            self.assertEqual(inputs.corpus_files(seed), inputs.corpus_files(seed))
        self.assertEqual(inputs.corpus_document(360, 3), inputs.corpus_document(360, 3))

    def test_same_seed_same_bytes_across_interpreters(self):
        self.assertEqual(input_digest(5, "1"), input_digest(5, "2"))
        self.assertNotEqual(input_digest(5, "1"), input_digest(6, "1"))

    def test_every_drawable_input_has_a_golden_output(self):
        for workload, keys in (
            ("search", [worker.search_key(op) for seed in range(20)
                        for op in inputs.search_pass(seed, SEARCH_GOLDEN)]),
            ("cli", [inputs.cli_key(argv) for seed in range(20) for argv in inputs.cli_pass(seed)]),
            ("corpus", [inputs.corpus_key(s, v, f) for s in inputs.CORPUS_SIZES
                        for v in range(inputs.CORPUS_VARIANTS) for f in inputs.FORMATS]),
        ):
            self.assertEqual(set(keys) - set(worker.load_golden(workload)), set(), workload)

    def test_every_seed_reaches_every_cli_layer(self):
        # false position and the pi comparison each have a class of their own
        for seed in range(20):
            argvs = inputs.cli_pass(seed)
            self.assertTrue(any("--guess" in argv for argv in argvs), seed)
            self.assertTrue(any("--compare" in argv for argv in argvs), seed)

    def test_a_corpus_pass_has_more_than_ten_ops(self):
        self.assertGreater(len(inputs.corpus_files(0)) * len(inputs.FORMATS), 10)

    def test_corpus_files_hold_all_four_verdicts(self):
        problems = corpus.load_corpus(inputs.corpus_document(min(inputs.CORPUS_SIZES), 0))
        statuses = {v.status for v in corpus.replay_all(problems)}
        self.assertEqual(statuses, set(corpus.STATUSES))


class ErrorRateTest(unittest.TestCase):
    def test_one_corrupted_expected_output_fails_one_op(self):
        ops = [(inputs.cli_key(argv), argv) for argv in inputs.cli_pass(0)]
        ops = [op for op in ops if "--random" not in op[1]]  # keep it quick
        expected = dict(worker.load_golden("cli"))
        self.assertEqual(worker.run_pass(ops, worker.cli_executor(), expected).failures, [])
        victim = ops[len(ops) // 2][0]
        expected[victim] = "0" * 64
        result = worker.run_pass(ops, worker.cli_executor(), expected)
        self.assertEqual(len(result.failures), 1)
        self.assertIn(victim, result.failures[0])
        self.assertGreater(len(result.failures) / len(result.latencies), 0)

    def test_broken_invariants_are_failures(self):
        policy = arith.DEFAULT_POLICY
        check = worker.decomposition_problem
        self.assertIsNone(check(Fraction(7, 10), policy, UnitFractionSum(0, True, (30,))))
        self.assertIn("recompose", check(Fraction(7, 10), policy, UnitFractionSum(0, True, (31,))))
        self.assertIn("max_denominator", check(Fraction(1, 20000), policy, UnitFractionSum(0, False, (20000,))))
        repeated = object.__new__(UnitFractionSum)  # bypass the constructor's own check
        object.__setattr__(repeated, "integer_part", 0)
        object.__setattr__(repeated, "two_thirds", False)
        object.__setattr__(repeated, "denominators", (4, 4))
        self.assertIn("repeats", check(Fraction(1, 2), policy, repeated))


class TracingTest(unittest.TestCase):
    def outcomes(self, ops, execute, tracer=None):
        results = []
        for index, (_, op) in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            results.append(execute(op)[1])
        return results

    def test_outputs_identical_with_tracing_on_and_off(self):
        os.makedirs(worker.OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=worker.OUT_DIR) as workdir:
            small = min(inputs.CORPUS_SIZES)
            corpus_ops = inputs.corpus_pass(inputs.write_corpus_files(workdir, [(small, 0)]))
            for ops, execute in (
                (quick_search_ops(), worker.search_executor()),
                ([(inputs.cli_key(a), a) for a in inputs.cli_pass(0)], worker.cli_executor()),
                (corpus_ops, worker.cli_executor()),
            ):
                plain = self.outcomes(ops, execute)
                with Tracer() as tracer:
                    traced = self.outcomes(ops, execute, tracer)
                self.assertEqual(plain, traced)
                self.assertTrue(tracer.spans)

    def test_aliases_are_patched_and_restored(self):
        import scribal

        original = rational.parse_rational
        with Tracer():
            for module in (rational, cli, corpus, scribal):
                self.assertIsNot(module.parse_rational, original)
                self.assertIs(module.parse_rational.__wrapped__, original)
        for module in (rational, cli, corpus, scribal):
            self.assertIs(module.parse_rational, original)

    def test_spans_nest_through_module_attributes(self):
        with Tracer() as tracer:
            arith.table_2_over_n(n_max=9)
            tracer.op = 1
            corpus.replay_all(corpus.load_corpus(inputs.corpus_document(24, 0)))
        names = [name for _, _, name, _, _ in tracer.spans]
        parents = {names[sid]: [] for sid in range(len(names))}
        for op, parent, name, _, _ in tracer.spans:
            if parent >= 0:
                parents[name].append(names[parent])
        self.assertIn("arith.table_2_over_n", parents["arith.decompose.shortest_search.t2"])
        self.assertIn("corpus.replay", parents["arith.decompose.shortest_search.t2"])
        self.assertIn("corpus.load_corpus", parents["rational.parse_rational"])
        self.assertEqual({op for op, *_ in tracer.spans}, {0, 1})
        totals = tracer.layer_totals()
        self.assertEqual(totals["arith.table_2_over_n"][0], 1)
        self.assertEqual(tracer.counts["corpus.load_corpus.problems"], 24)


class SetupTest(unittest.TestCase):
    def test_setup_is_measured_in_a_fresh_process(self):
        self.assertIn("scribal.cli", sys.modules)  # this process is warm
        elapsed, pid = worker.probe_setup()  # raises if scribal was already imported
        self.assertNotEqual(pid, os.getpid())
        self.assertGreater(elapsed, 0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["per_layer"]], metric_names())
        raw = {"best_ns": list(range(1, 100)), "pass_s": [4.95e-6], "setup_s": [0.05],
               "peak_rss_kib": 1024, "failed": 0, "attempted": 99}
        metrics, _ = run.end_to_end(raw)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(metrics))
        for m in spec["end_to_end"]:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])

    def test_tail_has_ten_samples_beyond_it(self):
        value, percentile = run.tail([float(i) for i in range(1, 101)], 10)
        self.assertEqual(value, 90.0)
        self.assertAlmostEqual(percentile, 90.0)

    def test_metrics_do_not_depend_on_the_number_of_passes(self):
        self.assertEqual(worker.least([5, 1], [3, 2]), [3, 1])
        one = list(range(1000, 100000, 1000))

        def raw(passes):
            best = None
            for _ in range(passes):
                best = worker.least(best, one)
            return {"best_ns": best, "pass_s": [sum(one) / 1e9] * passes, "setup_s": [0.05],
                    "peak_rss_kib": 1024, "failed": 0, "attempted": passes * len(one)}

        self.assertEqual(run.end_to_end(raw(1))[0], run.end_to_end(raw(5))[0])

if __name__ == "__main__":
    unittest.main()
