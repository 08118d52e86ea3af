"""Tests of the benchmark's result contract.

    python3 -m unittest pipebench/test_run.py     # from the repository root

Each test runs `run.py` end to end (build included) and checks that
every metric `BENCHMARK.json` declares is emitted for every workload
(or reported as skipped), that names are well formed, that every check
passes on two seeds and that the staged trip covers its wall time.
Runs are one round long (`--seconds 0.1`), at the measured sizes.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=900)
    host_line, result_line = out.stdout.strip().splitlines()[-2:]
    return json.loads(host_line)["host"], json.loads(result_line)


class ContractTest(unittest.TestCase):
    def test_names_are_well_formed(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_every_declared_metric_is_emitted_or_skipped(self):
        s = spec()
        for w in s["workloads"]:
            for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
                with self.subTest(workload=w["name"], trace=trace):
                    host, result = run(w["name"], 1, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(host["failed_frac"], 0.0)
                    skipped = {line.split(":")[0] for line in host["skipped"]}
                    declared = {m["name"]: m["unit"] for m in s[key]}
                    emitted = result["metrics"]
                    self.assertEqual(set(declared) - skipped, set(emitted))
                    for name, m in emitted.items():
                        self.assertEqual(m["unit"], declared[name], name)
                    if trace == 1:
                        cover = emitted["bench.stage_cover"]["value"]
                        self.assertLess(abs(cover - 1.0), 0.05)

    def test_held_out_seed_emits_the_same_metrics_and_passes(self):
        for trace in (0, 1):
            _, a = run("dl_obj_dsl", 1, trace)
            _, b = run("dl_obj_dsl", 987654321, trace)
            self.assertTrue(a["correct"] and b["correct"])
            self.assertEqual(set(a["metrics"]), set(b["metrics"]))


class RecordTest(unittest.TestCase):
    def test_a_changed_fingerprint_is_a_mismatch(self):
        sys.path.insert(0, HERE)
        import run as bench
        with tempfile.TemporaryDirectory() as d:
            binary = os.path.join(d, "bin")
            with open(binary, "wb") as f:
                f.write(b"a binary")
            fp = {"pfs.mds.requests": 5}
            self.assertFalse(bench.recorded_mismatch(binary, d, "w", 1, fp))
            self.assertFalse(bench.recorded_mismatch(binary, d, "w", 1, fp))
            self.assertTrue(bench.recorded_mismatch(binary, d, "w", 1, {"pfs.mds.requests": 6}))
            self.assertFalse(bench.recorded_mismatch(binary, d, "w", 2, {"pfs.mds.requests": 6}))
            with open(binary, "wb") as f:
                f.write(b"a rebuilt binary")
            self.assertFalse(bench.recorded_mismatch(binary, d, "w", 1, {"pfs.mds.requests": 6}))


if __name__ == "__main__":
    unittest.main()
