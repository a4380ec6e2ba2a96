"""Tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

STATS_OUTPUT = """ 55129 AArch64 backend            miscompilation found as miscompilation after 335 mutants (seed test zext_bool_shift) (1.1s)

LLVM BUGS FOUND USING ALIVE-MUTATE (reproduction census, cf. paper Table I)

Issue    Component (paper)          Type           Status     Mutants  Seed test              Description
53252    InstCombine                miscompilation missed     >660                            didn't update predicate in canonicalizeClampLike

Totals: 0/1 bugs found (0 miscompilations, 0 crashes)
Paper reports: 33 bugs (19 miscompilations, 14 crashes)

Per-bug loop statistics (workers=1, wall 15.8s):
53252      units=6   mutants=660     checks=660     valid=658     invalid=0   unsupported=0     unknown=2   crashes=0   findings=0 wall=14.69s mutants/s=45
55129      units=2   mutants=335     checks=335     valid=334     invalid=1   unsupported=0     unknown=0   crashes=0   findings=1 wall=1.09s mutants/s=307
Campaign total: 995 mutants, 995 refinement checks, 0 crashes observed

Stage-time breakdown (summed across shards):
stage                 count        total         mean   share
tv                      772   15.693254s     20.328ms   99.5%
opt                     995     48.884ms         49µs    0.3%
preprocess                8        812µs        101µs    0.0%
parse                     8        254µs         32µs    0.0%
"""

FILES_OUTPUT = """a.ll: 2000 mutants in 1.313s | checks: 2000 valid, 0 invalid, 0 unsupported, 0 unknown | crashes: 0 | findings: 0
b.ll: 1000 mutants in 3.084s | checks: 990 valid, 0 invalid, 4 unsupported, 6 unknown | crashes: 0 | findings: 0
"""


def benchmark_names(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[section]}


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.refs = run.load_reference("campaign-slice")
        self.assertTrue(self.refs, "no committed reference for campaign-slice")

    def test_reference_table_is_accepted(self):
        for ref in self.refs.values():
            self.assertEqual(run.check_table(ref["table"], ref), [])

    def test_doctored_table_is_rejected(self):
        for ref in self.refs.values():
            doctored = ref["table"].replace("found ", "missed", 1)
            self.assertNotEqual(doctored, ref["table"])
            self.assertTrue(run.check_table(doctored, ref))
            self.assertTrue(run.check_table(ref["table"] + " ", ref))

    def test_missing_reference_is_rejected(self):
        self.assertTrue(run.check_table("anything", None))

    def test_doctored_census_is_rejected(self):
        ref = next(iter(self.refs.values()))
        census = dict(ref["census"])
        self.assertEqual(run.check_census(census, ref["census"], census.keys()), [])
        census["unknown"] += 1
        census["valid"] -= 1
        diff = run.check_census(census, ref["census"], census.keys())
        self.assertEqual(len(diff), 2, diff)

    def test_files_reject_invalid_and_crash(self):
        census = run.parse_files(FILES_OUTPUT)
        self.assertEqual(run.check_files(census), [])
        self.assertTrue(run.check_files(dict(census, invalid=1)))
        self.assertTrue(run.check_files(dict(census, crashes=1)))


class PercentileTest(unittest.TestCase):
    def test_never_reports_with_fewer_than_ten_beyond(self):
        for n in range(0, 300):
            samples = list(range(n))
            for p in (50, 90, 99):
                v = run.tail_percentile(samples, p)
                if v is not None:
                    self.assertGreaterEqual(sum(1 for s in samples if s > v), 10, (n, p))

    def test_reports_once_ten_lie_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(19)), 50))
        self.assertEqual(run.tail_percentile(list(range(20)), 50), 9)
        self.assertIsNone(run.tail_percentile(list(range(99)), 90))
        self.assertEqual(run.tail_percentile(list(reversed(range(100))), 90), 89)


class CensusTest(unittest.TestCase):
    def test_campaign_census_and_unknown_share(self):
        table, census, setup = run.parse_campaign(STATS_OUTPUT)
        self.assertTrue(table.startswith("LLVM BUGS FOUND"))
        self.assertTrue(table.endswith("14 crashes)\n"))
        self.assertEqual(census, {"mutants": 995, "checks": 995, "valid": 992, "invalid": 1,
                                  "unsupported": 0, "unknown": 2, "crashes": 0, "fastpath": 223})
        self.assertAlmostEqual(run.unknown_share(census), 2 / 995)
        self.assertAlmostEqual(setup, 812e-6 + 254e-6)

    def test_files_unknown_share(self):
        census = run.parse_files(FILES_OUTPUT)
        self.assertEqual(census["checks"], 3000)
        self.assertAlmostEqual(run.unknown_share(census), 6 / 3000)
        self.assertEqual(run.unknown_share(dict(census, checks=0, unknown=0)), 0.0)

    def test_go_durations(self):
        self.assertAlmostEqual(run.go_duration("1m2.5s"), 62.5)
        self.assertAlmostEqual(run.go_duration("812µs"), 812e-6)
        self.assertAlmostEqual(run.go_duration("48.884ms"), 0.048884)
        self.assertEqual(run.go_duration("0s"), 0.0)
        with self.assertRaises(ValueError):
            run.go_duration("12 parsecs")


class SmokeTest(unittest.TestCase):
    """A smoke-size run of each workload completes and prints every metric
    BENCHMARK.json names."""

    def bench(self, workload, trace):
        p = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
                           capture_output=True, text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stderr)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_each_workload(self):
        for workload in run.load_workloads():
            with self.subTest(workload=workload):
                res = self.bench(workload, 0)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(set(res["metrics"]), benchmark_names("end_to_end"))
                for m in res["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced(self):
        for workload in ("campaign-slice", "files-decided"):
            with self.subTest(workload=workload):
                res = self.bench(workload, 1)
                self.assertTrue(res["correct"])
                self.assertEqual(set(res["metrics"]), benchmark_names("per_layer"))


if __name__ == "__main__":
    unittest.main()
