"""Self-tests for the benchmark's own math: python3 -m unittest discover benchmark"""

import math
import subprocess
import unittest
from pathlib import Path

import run

SLO = 50000  # place p99 limit, us


def step(rate, p99_us, failed=0):
    return {"rate": rate, "place_p99_us": p99_us, "failed": failed, "place_samples": 1000}


class Quartiles(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        self.assertEqual(run.quartiles([5.0]), (5.0, 5.0, 5.0))
        q1, med, q3 = run.quartiles([4, 1, 3, 2])
        self.assertEqual((q1, med, q3), (1.25, 2.5, 3.75))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(run.spread([1, 2, 3, 4]), 2.5 / 2.5)
        self.assertEqual(run.spread([7, 7, 7]), 0.0)


class AtRefLatency(unittest.TestCase):
    def test_slow_host_scales_rates_up_and_costs_down(self):
        ref = run.REF_PROBE_MS
        self.assertEqual(run.at_ref_latency([100.0, 100.0], [ref, 2 * ref], +1), [100.0, 200.0])
        self.assertEqual(run.at_ref_latency([10.0, 10.0], [ref, 2 * ref], -1), [10.0, 5.0])

    def test_rate_and_cost_cancel_a_uniform_slowdown(self):
        # A host twice as slow halves the rate and doubles the cost per op:
        # both read as on the reference host.
        ref = run.REF_PROBE_MS
        self.assertEqual(run.at_ref_latency([50.0], [2 * ref], +1),
                         run.at_ref_latency([100.0], [ref], +1))
        self.assertEqual(run.at_ref_latency([20.0], [2 * ref], -1),
                         run.at_ref_latency([10.0], [ref], -1))


class SloRate(unittest.TestCase):
    def test_log_interpolation_between_last_pass_and_first_fail(self):
        steps = [step(10000, 1000), step(20000, 10000), step(30000, 250000)]
        # badness 0.2 at 20k and 5.0 at 30k: log-midway is exactly halfway.
        self.assertAlmostEqual(run.slo_rate(steps, SLO), 25000.0)

    def test_probes_narrow_the_bracket(self):
        steps = [step(10000, 1000), step(20000, 10000), step(30000, 250000),
                 step(25000, 100000), step(22500, 25000)]
        # bracket 22.5k (badness 0.5) .. 25k (badness 2): halfway in log.
        self.assertAlmostEqual(run.slo_rate(steps, SLO), 23750.0)

    def test_pass_above_the_lowest_failure_is_ignored(self):
        steps = [step(10000, 1000), step(20000, 200000), step(30000, 10000)]
        self.assertLess(run.slo_rate(steps, SLO), 20000.0)

    def test_no_failure_reports_the_top_rate(self):
        self.assertEqual(run.slo_rate([step(10000, 1000), step(20000, 2000)], SLO), 20000)

    def test_failing_first_step_scales_down(self):
        self.assertAlmostEqual(run.slo_rate([step(10000, 100000)], SLO), 5000.0)

    def test_failed_requests_miss_the_slo(self):
        steps = [step(10000, 1000), step(20000, 1000, failed=3)]
        self.assertEqual(run.slo_rate(steps, SLO), 10000)
        self.assertTrue(math.isinf(run.step_badness(steps[1], SLO)))


class Compare(unittest.TestCase):
    A = [100.0, 101.0, 99.0, 100.5, 99.5]

    def test_regression_beyond_bound(self):
        b = [x * 1.2 for x in self.A]
        self.assertEqual(run.compare_metric(self.A, b, 0.1, "lower")["verdict"], "regression")
        self.assertEqual(run.compare_metric(self.A, b, 0.1, "higher")["verdict"], "better")

    def test_within_bound_is_same(self):
        b = [x * 1.03 for x in self.A]
        self.assertEqual(run.compare_metric(self.A, b, 0.1, "lower")["verdict"], "same")

    def test_wide_spread_is_unresolved(self):
        wide = [50.0, 150.0, 100.0, 60.0, 140.0]
        self.assertEqual(run.compare_metric(self.A, wide, 0.1, "lower")["verdict"],
                         "unresolved")

    def test_wide_spread_but_every_run_better(self):
        a = [100.0, 200.0, 150.0, 120.0, 180.0]
        b = [10.0, 20.0, 15.0, 12.0, 18.0]
        self.assertEqual(run.compare_metric(a, b, 0.1, "lower")["verdict"], "better")


class CheckVerify(unittest.TestCase):
    GOOD = ("L 10 4 -1 1 4 -1 - g0.1\n"
            "L 11 5 -1 1 5 -1 - g0.1\n"
            "L 12 4 -1 1 4 -1 - -\n"
            "R 13 0 -1 0 0 -1 unknown_vm -\n")

    def test_consistent_rows_pass(self):
        self.assertEqual(run.check_verify(run.parse_verify(self.GOOD)), [])

    def test_wrong_pm_fails(self):
        rows = run.parse_verify(self.GOOD.replace("L 12 4 -1 1 4", "L 12 4 -1 1 9"))
        problems = run.check_verify(rows)
        self.assertEqual(len(problems), 1)
        self.assertIn("vm 12", problems[0])

    def test_wrong_cell_fails(self):
        rows = run.parse_verify("L 12 4 0 1 4 1 - -\n")
        self.assertEqual(len(run.check_verify(rows)), 1)

    def test_released_vm_still_placed_fails(self):
        rows = run.parse_verify("R 13 0 -1 1 7 -1 - -\n")
        self.assertEqual(len(run.check_verify(rows)), 1)

    def test_group_members_on_one_pm_fail(self):
        rows = run.parse_verify(self.GOOD.replace("L 11 5 -1 1 5", "L 11 4 -1 1 4"))
        problems = run.check_verify(rows)
        self.assertTrue(any("group g0.1" in p for p in problems))


class ClientSelfTest(unittest.TestCase):
    def test_prvm_bench_self_test(self):
        binary = Path(run.BUILD) / "prvm_bench"
        if not binary.exists():
            self.skipTest("prvm_bench not built; python3 benchmark/run.py builds it")
        out = subprocess.run([str(binary), "--self-test"], capture_output=True, text=True,
                             timeout=60)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)


if __name__ == "__main__":
    unittest.main()
