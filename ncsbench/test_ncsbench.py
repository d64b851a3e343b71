#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 ncsbench/test_ncsbench.py

Builds the workload driver like run.py does (first call: about a minute),
then checks the contract of the result line, determinism, the failure
path, and the known simulator abort that keeps planes_lan_16 out of
BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    """run.py as BENCHMARK.json's command runs it; returns (exit code, stdout lines)."""
    done = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=run.ROOT, timeout=300)
    return done.returncode, done.stdout.splitlines()


class ResultLine(unittest.TestCase):
    def check(self, trace, listed):
        code, lines = bench("--workload", "mt_stream_lan_16", "--seed", "3",
                            "--seconds", "0.1", "--trace", str(trace))
        self.assertEqual(code, 0)
        res = json.loads(lines[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], lines)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 4096)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in listed})
        for m in listed:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check(0, BENCH["end_to_end"])
        for m in BENCH["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check(1, BENCH["per_layer"])

    def test_listed_workloads_are_runnable(self):
        for w in BENCH["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


class Determinism(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_other_traffic(self):
        binary = run.build()
        a = run.run_child(binary, "hosts_lan_512", 5, False)["result"]
        b = run.run_child(binary, "hosts_lan_512", 5, True)["result"]
        c = run.run_child(binary, "hosts_lan_512", 6, False)["result"]
        self.assertEqual(a["ok"], a["attempted"])
        self.assertEqual((a["digest"], a["sim"]), (b["digest"], b["sim"]))
        self.assertNotEqual(a["digest"], c["digest"])
        self.assertEqual(a["attempted"], c["attempted"])


class FailurePaths(unittest.TestCase):
    def test_planes_abort_is_reported_as_failed_operations(self):
        code, lines = bench("--workload", "planes_lan_16", "--seed", "1",
                            "--seconds", "0.1", "--trace", "0")
        self.assertEqual(code, 0)
        res = json.loads(lines[-1])
        self.assertFalse(res["correct"])
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertTrue(any("submit_tx with no free buffer" in l for l in lines), lines)

    def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(self):
        bare = run.BUILD / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "ncsbench/run.py", "--workload",
                               "hosts_lan_512", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class KnownDefects(unittest.TestCase):
    def test_rma_beside_two_sided_aborts_on_nic_tx_buffer(self):
        """Expected failure. AtmTransport::submit_bulk waits for a free NIC
        tx buffer, then blocks in the copy charge; meanwhile
        rma::Engine::tx_step takes that buffer and Nic::submit_tx asserts.
        P=2, one core, proto off, no collectives, 8 rounds.

        When this test fails because the run completed, the defect is
        fixed: turn it into a check that planes_repro_p2 passes and list
        planes_lan_16 in BENCHMARK.json."""
        child = run.run_child(run.build(), "planes_repro_p2", 1, False)
        self.assertIn("failure", child,
                      "planes_repro_p2 completed: the tx-buffer race is fixed")
        self.assertIn("SIGABRT", child["failure"])
        self.assertIn("submit_tx with no free buffer", child["failure"])


if __name__ == "__main__":
    unittest.main()
