"""Tests for the benchmark's own arithmetic, on synthetic inputs.

    python3 perfbench/test_benchstats.py
"""

import os
import sys
import unittest
from types import SimpleNamespace

sys.dont_write_bytecode = True  # keep the benchmark directory free of build output
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats as bs  # noqa: E402


class Tail(unittest.TestCase):
    def test_exactly_ten_beyond(self):
        xs = list(range(100, 0, -1))  # 1..100, unsorted
        value, pct, n = bs.tail(xs)
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_percentile_follows_sample_count(self):
        value, pct, n = bs.tail([float(i) for i in range(1, 401)])
        self.assertEqual((value, pct, n), (390.0, 97.5, 400))
        value, pct, n = bs.tail(list(range(1, 33)))
        self.assertEqual((value, pct, n), (22, 68.75, 32))

    def test_ties_still_leave_ten_beyond(self):
        xs = [5] * 20 + [9] * 10
        value, pct, _ = bs.tail(xs)
        self.assertEqual(value, 5)
        self.assertAlmostEqual(pct, 100.0 * 20 / 30)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(bs.tail([3, 1, 2]), (3, 100.0, 3))
        self.assertEqual(bs.tail(list(range(10))), (9, 100.0, 10))
        self.assertEqual(bs.tail([]), (0.0, 0.0, 0))


class Geomean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(bs.geomean([1, 100]), 10.0)
        self.assertAlmostEqual(bs.geomean([2, 8]), 4.0)
        self.assertAlmostEqual(bs.geomean([7]), 7.0)

    def test_order_does_not_change_a_single_bit(self):
        xs = [20214, 26763, 33728, 45368, 52875, 11017, 99991]
        self.assertEqual(bs.geomean(xs), bs.geomean(list(reversed(xs))))
        self.assertEqual(bs.geomean(xs), bs.geomean(sorted(xs)))


class Cpu(unittest.TestCase):
    def test_user_plus_system_per_result(self):
        rus = [SimpleNamespace(ru_utime=1.5, ru_stime=0.5), SimpleNamespace(ru_utime=0.75, ru_stime=0.25)]
        self.assertAlmostEqual(bs.cpu_ms_per_result(rus, 30), 100.0)
        self.assertEqual(bs.cpu_ms_per_result(rus, 0), 0.0)

    def test_peak_rss_is_kib(self):
        self.assertAlmostEqual(bs.peak_rss_mb(SimpleNamespace(ru_maxrss=51200)), 50.0)


class Lateness(unittest.TestCase):
    def test_against_scheduled_send_times(self):
        late = bs.lateness([10.0, 10.5, 11.0], [10.001, 10.5, 11.25])
        self.assertEqual(len(late), 3)
        self.assertAlmostEqual(late[0], 0.001)
        self.assertEqual(late[1], 0.0)
        self.assertAlmostEqual(late[2], 0.25)

    def test_early_send_is_not_negative(self):
        self.assertEqual(bs.lateness([5.0], [4.9]), [0.0])

    def test_percentile_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(bs.percentile(xs, 99), 99)
        self.assertEqual(bs.percentile(xs, 100), 100)
        self.assertEqual(bs.percentile([4.0], 99), 4.0)


def span(t0, t1, parent=-1, tid=0):
    return {"t0": t0, "t1": t1, "parent": parent, "tid": tid}


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(bs.self_times({0: span(0, 10)}), {0: 10})

    def test_overlapping_children_count_once(self):
        spans = {0: span(0, 10), 1: span(1, 4, parent=0), 2: span(3, 6, parent=0), 3: span(8, 9, parent=0)}
        selfs = bs.self_times(spans)
        self.assertEqual(selfs[0], 10 - 6)  # children cover [1,6) and [8,9)
        self.assertEqual(selfs[1], 3)

    def test_only_direct_children_and_clipped(self):
        spans = {
            0: span(0, 10),
            1: span(2, 8, parent=0),
            2: span(3, 5, parent=1),  # grandchild: covered by 1 already
            3: span(9, 12, parent=0),  # runs past its parent: clipped to [9,10)
        }
        selfs = bs.self_times(spans)
        self.assertEqual(selfs[0], 10 - 6 - 1)
        self.assertEqual(selfs[1], 6 - 2)

    def test_children_on_other_tracks_do_not_cover(self):
        spans = {0: span(0, 10, tid=0), 1: span(0, 10, parent=0, tid=1)}
        self.assertEqual(bs.self_times(spans), {0: 10, 1: 10})

    def test_union_length(self):
        self.assertEqual(bs.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]), 4)
        self.assertEqual(bs.union_length([(0, 10)], lo=2, hi=4), 2)
        self.assertEqual(bs.union_length([]), 0)


class Spread(unittest.TestCase):
    def test_iqr_share(self):
        self.assertAlmostEqual(bs.iqr_share([10.0] * 10), 0.0)
        xs = [float(x) for x in range(1, 11)]
        self.assertAlmostEqual(bs.iqr_share(xs), (8.25 - 2.75) / 5.5)


if __name__ == "__main__":
    unittest.main()
