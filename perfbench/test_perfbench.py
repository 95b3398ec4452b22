#!/usr/bin/env python3
"""The benchmark's own tests, on scale-10 graphs (--self-check).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout. The first test builds perfbench (about a
minute); after that every workload runs in a few seconds.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def run(workload, trace, cwd=ROOT, seconds=1):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(SEED), "--seconds",
               str(seconds), "--trace", str(trace), "--self-check"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def record(workload, trace):
    path = (ROOT / ".bench_run" / "results" /
            f"{workload}-seed{SEED}-trace{trace}.json")
    return json.loads(path.read_text())


class SelfCheck(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                proc = run(w, trace)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                cls.results[(w, trace)] = proc

    def last_line(self, workload, trace):
        proc = self.results[(workload, trace)]
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_result_line_follows_the_contract(self):
        for (w, trace) in self.results:
            with self.subTest(workload=w, trace=trace):
                res = self.last_line(w, trace)
                self.assertEqual(set(res),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertIs(res["correct"], True)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                rows = SPEC["per_layer"] if trace else SPEC["end_to_end"]
                self.assertEqual(
                    {n: m["unit"] for n, m in res["metrics"].items()},
                    {m["name"]: m["unit"] for m in rows})

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            for name, m in self.last_line(w, 0)["metrics"].items():
                with self.subTest(workload=w, metric=name):
                    self.assertGreater(m["value"], 0)

    def test_every_line_names_its_unit(self):
        out = self.results[(WORKLOADS[0], 0)].stdout
        for m in SPEC["end_to_end"]:
            self.assertRegex(out, rf"\n  {m['name']} +\S+ {m['unit']}\n")
        self.assertIn("fail_ratio", out)

    def test_sweeps_reconcile_self_time_with_wall(self):
        # Sum of phase self times plus harness overhead is the pass's wall
        # time; summing nested phases as if top-level would overshoot it.
        for w in ("sweep-traversal", "sweep-pagerank"):
            with self.subTest(workload=w):
                rec = record(w, 1)
                d = rec["result"]["details"]
                metrics = rec["result"]["metrics"]
                overhead = metrics["harness.overhead_s"]["value"]
                self.assertGreaterEqual(overhead, 0.0)
                self.assertAlmostEqual(d["self_time_sum_s"] + overhead,
                                       d["sweep_s"], places=9)
                self.assertGreater(d["phase_sum_naive_s"],
                                   d["self_time_sum_s"])

    def test_idle_layers_report_zero_and_busy_ones_do_not(self):
        traversal = self.last_line("sweep-traversal", 1)["metrics"]
        pagerank = self.last_line("sweep-pagerank", 1)["metrics"]
        serve = self.last_line("serve-mix", 1)["metrics"]
        self.assertEqual(traversal["systems.GAP.PageRank.kernel_s"]["value"], 0)
        self.assertGreater(traversal["systems.GAP.BFS.kernel_s"]["value"], 0)
        self.assertEqual(pagerank["systems.GAP.BFS.edges"]["value"], 0)
        self.assertGreater(pagerank["cost.GAP.PageRank.ratio"]["value"], 0)
        self.assertEqual(traversal["serve.batches"]["value"], 0)
        for name in ("serve.batches", "serve.cold_loads", "serve.evictions",
                     "systems.PowerGraph.SSSP.engine_init_s",
                     "systems.GraphMat.PageRank.output_s",
                     "cost.Ligra.SSSP.ratio", "proc.cpu_s"):
            with self.subTest(metric=name):
                self.assertGreater(serve[name]["value"], 0)
        self.assertEqual(serve["serve.rejected"]["value"], 0)

    def test_trace_spans_cover_the_logged_phases(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rec = record(w, 1)
                self.assertGreaterEqual(
                    rec["result"]["details"]["trace.max_span_minus_phase_s"],
                    0.0)
                trace = json.loads((ROOT / ".bench_run" / "results" /
                                    f"{w}-seed{SEED}-trace1.trace.json")
                                   .read_text())
                names = {e["name"] for e in trace["traceEvents"]}
                self.assertIn("gen.kronecker", names)
                self.assertIn("systems.GAP.build", names)

    def test_fingerprint_is_recorded(self):
        rec = record(WORKLOADS[0], 0)
        for key in ("nproc", "affinity_cpus", "cpu_model", "omp_env",
                    "git_commit"):
            self.assertIn(key, rec["host"])
        self.assertEqual(rec["build"]["refusal"], "")
        self.assertIn("NDEBUG", rec["build"]["cxx_flags"])


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = ROOT / ".bench_run" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
