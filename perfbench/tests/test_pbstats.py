"""Unit tests for perfbench/pbstats.py: percentile support and the
open-loop step analysis. Run from the repository root with

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import pbstats  # noqa: E402

MS = 1_000_000  # ns


def frame(due_ms, ack_ms, records=256, late_ms=0.0, blocked_ms=0.0):
    """[records, due, send_start, send_end, ack] in ns; ack_ms None = unacked."""
    due = int(due_ms * MS)
    start = due + int(late_ms * MS)
    end = start + int(blocked_ms * MS)
    ack = -1 if ack_ms is None else int(ack_ms * MS)
    return [records, due, start, end, ack]


def steady_step(rate, n, latency_ms, gap_ms=1.0):
    return pbstats.Step(rate, [frame(i * gap_ms, i * gap_ms + latency_ms) for i in range(n)])


class PercentileSupport(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertTrue(pbstats.supported(1000, 0.99))
        self.assertFalse(pbstats.supported(999, 0.99))
        self.assertTrue(pbstats.supported(20, 0.5))
        self.assertFalse(pbstats.supported(19, 0.5))
        self.assertFalse(pbstats.supported(0, 0.5))

    def test_unsupported_percentile_is_none(self):
        self.assertIsNone(pbstats.percentile(list(range(999)), 0.99))
        self.assertIsNone(pbstats.percentile([], 0.5))

    def test_nearest_rank_value(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(pbstats.percentile(values, 0.99), 990)
        self.assertEqual(pbstats.percentile(values, 0.5), 500)
        self.assertEqual(pbstats.percentile(list(reversed(values)), 0.9), 900)

    def test_failures_sort_beyond_every_value(self):
        values = [1.0] * 989 + [pbstats.INF] * 11
        self.assertEqual(pbstats.percentile(values, 0.99), pbstats.INF)


class OpenLoopStep(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        # Sent 5 ms late and acked 1 ms after the send: 6 ms, not 1 ms.
        step = pbstats.Step(1000, [frame(0, 6, late_ms=5)])
        self.assertEqual(step.latencies_ms(), [6.0])
        self.assertEqual(step.lateness_ms(), [5.0])

    def test_unacked_frame_fails_and_misses_every_limit(self):
        frames = [frame(i, i + 1) for i in range(1000)]
        frames[500] = frame(500, None)
        step = pbstats.Step(1000, frames)
        self.assertEqual(step.failed_frames(), 1)
        self.assertTrue(math.isinf(step.latencies_ms()[500]))
        bad = pbstats.Step(1000, [frame(i, i + 1) for i in range(989)]
                           + [frame(989 + i, None) for i in range(11)])
        self.assertFalse(bad.meets(limit_ms=1e9))

    def test_refused_poll_fails(self):
        step = pbstats.Step(1000, [], polls=[[0, 5 * MS, 100], [10 * MS, 12 * MS, -1]])
        self.assertEqual(step.failed_polls(), 1)
        self.assertEqual(step.poll_latencies_ms()[0], 5.0)
        self.assertTrue(math.isinf(step.poll_latencies_ms()[1]))

    def test_send_blocked_time(self):
        step = pbstats.Step(1000, [frame(0, 3, blocked_ms=2), frame(1, 4, blocked_ms=0.5)])
        self.assertAlmostEqual(step.send_blocked_s(), 0.0025)

    def test_throughput(self):
        # 4 x 256 records, first due at 0, last acked at 10 ms.
        step = pbstats.Step(1000, [frame(0, 2), frame(1, 3), frame(2, 9), frame(3, 10)])
        self.assertAlmostEqual(step.throughput_per_s(), 1024 / 0.010)
        self.assertIsNone(pbstats.Step(1000, [frame(0, 2), frame(1, None)]).throughput_per_s())

    def test_backlog_peak(self):
        # Two frames sent before either ack: 512 records outstanding.
        step = pbstats.Step(1000, [frame(0, 5), frame(1, 6)])
        self.assertEqual(step.backlog_peak_records(), 512)

    def test_growing_backlog(self):
        steady = steady_step(1000, 1200, latency_ms=3)
        self.assertFalse(steady.backlog_growing(limit_ms=50))
        self.assertTrue(steady.meets(limit_ms=50))
        # Each frame waits 0.1 ms longer than the last: the queue grows.
        growing = pbstats.Step(1000, [frame(i, i + 1 + 0.1 * i) for i in range(1200)])
        self.assertTrue(growing.backlog_growing(limit_ms=150))
        # p99 (~120 ms) is under a 150 ms limit; the growth alone fails it.
        self.assertFalse(growing.meets(limit_ms=150))

    def test_meets_needs_a_supported_p99(self):
        self.assertFalse(steady_step(1000, 500, latency_ms=1).meets(limit_ms=50))

    def test_ladder_sustained(self):
        steps = [steady_step(100, 1200, 5), steady_step(200, 1200, 20),
                 steady_step(300, 1200, 80), steady_step(400, 1200, 10)]
        # 400 meets the limit again, but 300 below it did not.
        self.assertEqual(pbstats.ladder_sustained(steps, limit_ms=50), 200)
        self.assertIsNone(pbstats.ladder_sustained([steady_step(100, 1200, 80)], 50))


if __name__ == "__main__":
    unittest.main()
