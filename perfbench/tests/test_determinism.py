#!/usr/bin/env python3
"""Determinism tests for the repository benchmark.

    python3 perfbench/tests/test_determinism.py

Builds the benchmark (perfbench/run.py's build step) and checks that the
count metrics repeat exactly:

  * across two runs with one seed;
  * across paper_matrix thread counts (1 and 4);
  * between traced and untraced runs (the observer effect);

that the paper matrix's cycles equal the table harnesses' cells
(bench/MatrixRunner's measureCell) cell by cell; that the result line
has the four keys and names exactly BENCHMARK.json's metrics and units;
and that a directory holding only the benchmark fails cleanly.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)

# The counts the benchmark promises to repeat exactly.
COUNT_PREFIXES = ("gen_cycles_geomean", "sim.instructions", "sim.cycles",
                  "coalesce.", "transform.static_insts", "fuzz.comparisons")


def build():
    binary = run.build()
    if binary is None:
        raise unittest.SkipTest("benchmark build failed")
    return binary


class Bench:
    binary = None

    @classmethod
    def counts(cls, workload, seed, trace=0, threads=None, seconds=1):
        """Runs the binary; returns (result line, counts dict)."""
        work = tempfile.mkdtemp(dir=os.path.join(run.build_dir()))
        try:
            counts_path = os.path.join(work, "counts.txt")
            cmd = [cls.binary, "--work-dir", work, "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--counts-out", counts_path]
            if threads:
                cmd += ["--threads", str(threads)]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 cwd=ROOT, timeout=600)
            assert out.returncode == 0, out.stderr[-2000:]
            result = json.loads(out.stdout.strip().splitlines()[-1])
            counts = {}
            with open(counts_path) as f:
                for line in f:
                    name, value = line.split()
                    counts[name] = float(value)
            return result, counts
        finally:
            shutil.rmtree(work, ignore_errors=True)


def promised(counts):
    return {k: v for k, v in counts.items() if k.startswith(COUNT_PREFIXES)}


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        Bench.binary = build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def assertSameCounts(self, a, b, what):
        self.assertTrue(promised(a), f"{what}: no promised counts")
        self.assertEqual(promised(a), promised(b), what)

    def test_paper_matrix_repeats_across_runs_and_threads(self):
        _, one = Bench.counts("paper_matrix", 5, threads=1)
        _, four = Bench.counts("paper_matrix", 5, threads=4)
        _, again = Bench.counts("paper_matrix", 5, threads=4)
        self.assertSameCounts(four, again, "two runs, one seed")
        self.assertSameCounts(one, four, "1 vs 4 threads")
        self.assertIn("gen_cycles_geomean", one)
        self.assertGreater(one["sim.instructions"], 0)

    def test_paper_matrix_traced_equals_untraced(self):
        _, untraced = Bench.counts("paper_matrix", 6, trace=0, seconds=2)
        _, traced = Bench.counts("paper_matrix", 6, trace=1, seconds=2)
        shared = set(promised(untraced)) & set(promised(traced))
        self.assertIn("sim.cycles", shared)
        self.assertIn("coalesce.loops_transformed", shared)
        for k in shared:
            self.assertEqual(untraced[k], traced[k], k)

    def test_fuzz_oracle_repeats_and_has_no_observer_effect(self):
        _, a = Bench.counts("fuzz_oracle", 11, trace=0)
        _, b = Bench.counts("fuzz_oracle", 11, trace=0)
        _, t1 = Bench.counts("fuzz_oracle", 11, trace=1, seconds=2)
        _, t2 = Bench.counts("fuzz_oracle", 11, trace=1, seconds=2)
        self.assertSameCounts(a, b, "two untraced runs")
        self.assertSameCounts(t1, t2, "two traced runs")
        self.assertEqual(a["fuzz.comparisons"], t1["fuzz.comparisons"])
        self.assertGreater(t1["coalesce.loops_transformed"], 0)

    def test_cycles_match_the_table_harnesses(self):
        # Seed 12345 is paperSetup()'s default: the tables' own cells.
        out = subprocess.run([Bench.binary, "--check-harness", "--seed",
                              "12345"], capture_output=True, text=True,
                             cwd=ROOT, timeout=900)
        self.assertEqual(out.returncode, 0, out.stdout[-3000:])
        self.assertEqual(out.stdout.count(" same"), 84)

    def test_result_line_names_every_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = Bench.counts("vpod_mixed", 3, trace=trace, seconds=2)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            if trace == 0:
                for name, m in result["metrics"].items():
                    self.assertNotEqual(m["value"], 0, name)

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(
                bare, ".bench_build"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper_matrix", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], capture_output=True, text=True, cwd=bare, env=env,
                timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
