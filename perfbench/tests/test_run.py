#!/usr/bin/env python3
"""Self-test of how run.py turns the operations of a --trace 0 run's
processes into the end-to-end metrics: the tail rule, the choice of
undisturbed operations, and the pooling over processes.

    python3 perfbench/run.py --self-test     (runs this after the C++ test)
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


def process(lat, steal=None, rss=100.0, cpu_per_op_ms=3.0):
    """One timed process's details; steal None is the service's shape."""
    return {"latency_ms": list(lat),
            "steal_ticks": list(steal) if steal is not None else [],
            "busy_s": 1e-3 * sum(lat),
            "cpu_s": 1e-3 * cpu_per_op_ms * len(lat),
            "peak_rss_mb": rss}


class TailTest(unittest.TestCase):
    def test_ten_samples_stay_beyond(self):
        v, pct, beyond = run.tail(range(1, 1001))
        self.assertEqual((v, pct, beyond), (990, 99.0, 10))
        v, pct, beyond = run.tail(range(100, 0, -1))
        self.assertEqual((v, pct, beyond), (90, 90.0, 10))

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(run.tail([3, 1, 2]), (3, 100.0, 0))

    def test_the_percentile_follows_the_given_count(self):
        # 1000 operations set p99; it is read off the 100 samples given.
        v, pct, beyond = run.tail(range(1, 101), count=1000)
        self.assertEqual((v, pct, beyond), (99, 99.0, 1))


class UndisturbedTest(unittest.TestCase):
    def test_operations_without_steal_are_kept(self):
        self.assertEqual(run.undisturbed([0, 2, 0, 0, 1, 0]), [0, 2, 3, 5])

    def test_too_few_clean_ones_keep_the_least_stolen_share(self):
        # 10 operations, one clean: the 2 least stolen, ties in run order.
        steal = [3, 1, 2, 0, 1, 5, 4, 1, 2, 3]
        self.assertEqual(run.undisturbed(steal), [1, 3])


class EndToEndTest(unittest.TestCase):
    def test_pooled_over_processes(self):
        procs = [process([10.0] * 30, [0] * 30, rss=91),
                 process([20.0] * 10, [0] * 10, rss=95),
                 process([30.0] * 10, [0] * 10, rss=93)]
        m, d = run.end_to_end(procs, [0.5, 0.1, 0.3])
        self.assertEqual(set(m), set(run.UNITS))
        self.assertEqual(m["latency_p50_ms"], {"value": 10.0, "unit": "ms"})
        self.assertEqual(m["latency_tail_ms"]["value"], 20.0)
        self.assertAlmostEqual(m["throughput_ops_s"]["value"], 50 / 0.8)
        self.assertAlmostEqual(m["cpu_ms_per_op"]["value"], 3.0)
        self.assertEqual(m["peak_rss_mb"], {"value": 93, "unit": "MB"})
        self.assertEqual(m["setup_s"], {"value": 0.3, "unit": "s"})
        self.assertEqual((d["ops"], d["ops_kept"], d["latency_tail_beyond"]),
                         (50, 50, 10))
        self.assertEqual(d["latency_tail_percentile"], 80.0)

    def test_stolen_operations_are_left_out_of_the_latencies(self):
        lat = [10.0] * 40 + [50.0] * 10
        steal = [0] * 40 + [3] * 10
        m, d = run.end_to_end([process(lat, steal)], [0.1])
        self.assertEqual(m["latency_p50_ms"]["value"], 10.0)
        # The tail percentile is set by all 50 operations (p80), and read
        # off the 40 kept ones.
        self.assertEqual(m["latency_tail_ms"]["value"], 10.0)
        self.assertEqual(d["latency_tail_percentile"], 80.0)
        self.assertAlmostEqual(m["throughput_ops_s"]["value"], 100.0)
        # CPU time is not stretched by steal: every operation counts.
        self.assertEqual(d["ops_with_steal"], 10)
        self.assertAlmostEqual(m["cpu_ms_per_op"]["value"], 3.0)

    def test_a_stall_of_the_program_shows_wherever_it_falls(self):
        # Without steal, a stall on 15 of 100 operations moves the tail.
        base, _ = run.end_to_end([process([10.0] * 100, [0] * 100)], [0.1])
        lat = [10.0] * 100
        for i in range(0, 100, 7):
            lat[i] = 40.0
        m, _ = run.end_to_end([process(lat, [0] * 100)], [0.1])
        self.assertEqual(m["latency_tail_ms"]["value"], 40.0)
        self.assertLess(m["throughput_ops_s"]["value"],
                        base["throughput_ops_s"]["value"])

    def test_a_slower_program_moves_every_latency_figure(self):
        base, _ = run.end_to_end([process([10.0] * 50, [0] * 50)], [0.1])
        m, _ = run.end_to_end([process([12.0] * 50, [0] * 50)], [0.1])
        for key in ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms"):
            self.assertNotEqual(m[key]["value"], base[key]["value"], key)

    def test_service_jobs_use_measured_time(self):
        # Overlapping jobs: throughput is jobs over the measured time.
        p = process([5.0] * 40)
        p["busy_s"] = 0.05
        m, d = run.end_to_end([p], [0.1])
        self.assertAlmostEqual(m["throughput_ops_s"]["value"], 800.0)
        self.assertEqual(d["ops_kept"], 40)

    def test_an_unreadable_steal_counter_keeps_every_operation(self):
        m, d = run.end_to_end([process([1.0, 3.0, 2.0], [-1] * 3)], [0.1])
        self.assertEqual((d["ops_kept"], d["steal_read"]), (3, False))
        self.assertEqual(m["latency_p50_ms"]["value"], 2.0)
        self.assertAlmostEqual(m["throughput_ops_s"]["value"], 500.0)

    def test_steal_readings_must_match_the_operations(self):
        with self.assertRaises(ValueError):
            run.end_to_end([process([1.0, 2.0], [0])], [0.1])


if __name__ == "__main__":
    unittest.main()
