"""Unit tests for the benchmark's pure helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import helpers  # noqa: E402


class TailRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(helpers.tail_percentile(19))
        self.assertEqual(helpers.tail_percentile(20), 50.0)
        self.assertEqual(helpers.tail_percentile(40), 75.0)
        self.assertAlmostEqual(helpers.tail_percentile(45), 77.777777, places=5)
        self.assertEqual(helpers.tail_percentile(100), 90.0)
        self.assertEqual(helpers.tail_percentile(1000), 99.0)

    def test_chosen_percentile_leaves_ten_beyond(self):
        for n in range(20, 2000, 7):
            p = helpers.tail_percentile(n)
            self.assertAlmostEqual(n * (100 - p) / 100, 10.0, places=9)
            # Interpolated value: at most 10 samples lie strictly above it,
            # and the 10 largest are at or above it.
            values = list(range(n))
            v = helpers.percentile(values, p)
            self.assertLessEqual(sum(1 for x in values if x > v), 10)
            self.assertLessEqual(v, values[-10])

    def test_tail_moves_smoothly_with_sample_count(self):
        values = list(range(1, 1001))
        tails = [helpers.tail(values[:n])[0] for n in range(20, 200)]
        steps = [b - a for a, b in zip(tails, tails[1:])]
        # One more sample nudges the percentile up; it never jumps a rung.
        self.assertTrue(all(0 < s < 2.5 for s in steps), max(steps))

    def test_tail_value(self):
        values = list(range(1, 101))  # 1..100
        p, v = helpers.tail(values)
        self.assertEqual(p, 90.0)
        self.assertAlmostEqual(v, 90.1)  # ten samples (91..100) beyond it
        # Too few samples: the median stands in, and says so.
        self.assertEqual(helpers.tail([3, 1, 2]), (50.0, 2.0))

    def test_percentile_interpolates(self):
        self.assertEqual(helpers.percentile([10, 20], 50), 15.0)
        self.assertEqual(helpers.percentile([5], 99), 5.0)
        self.assertEqual(helpers.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(helpers.percentile([4, 1, 3, 2], 100), 4)
        with self.assertRaises(ValueError):
            helpers.percentile([], 50)


class SelfTimes(unittest.TestCase):
    def test_nested_children(self):
        # root [0,100) has children a [10,40) and b [50,90); a has child
        # c [20,30). Self: root 30, a 20, b 40, c 10.
        spans = {
            0: ("root", 0, 100, None),
            1: ("a", 10, 40, 0),
            2: ("c", 20, 30, 1),
            3: ("b", 50, 90, 0),
        }
        self.assertEqual(helpers.self_times(spans), {0: 30, 1: 20, 2: 10, 3: 40})

    def test_self_times_sum_to_root(self):
        spans = {
            0: ("root", 0, 100, None),
            1: ("a", 10, 40, 0),
            2: ("c", 20, 30, 1),
            3: ("b", 50, 90, 0),
        }
        self.assertEqual(sum(helpers.self_times(spans).values()), 100)

    def test_overlapping_and_overhanging_children(self):
        # Children that overlap each other are covered once; a child that
        # runs past its parent's end only covers up to that end.
        spans = {
            0: ("p", 0, 100, None),
            1: ("x", 10, 50, 0),
            2: ("y", 30, 60, 0),
            3: ("z", 90, 130, 0),
        }
        self.assertEqual(helpers.self_times(spans)[0], 100 - 50 - 10)

    def test_span_line(self):
        sid, span, req = helpers.parse_span_line("span 7 graph.cut 100 250 3 2")
        self.assertEqual((sid, span, req), (7, ("graph.cut", 100, 250, 3), 2))
        _, span, _ = helpers.parse_span_line("span 0 core.prepare 5 9 -1 1")
        self.assertIsNone(span[3])


class FailedFrac(unittest.TestCase):
    def test_counts_every_kind(self):
        self.assertEqual(helpers.failed_frac(10), 0.0)
        self.assertEqual(helpers.failed_frac(10, errors=1, busy=1, dropped=1, missing=1), 0.4)
        self.assertEqual(helpers.failed_frac(4, busy=4), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            helpers.failed_frac(0)
        with self.assertRaises(ValueError):
            helpers.failed_frac(2, errors=3)


class Rounds(unittest.TestCase):
    def test_first_round_always_runs(self):
        self.assertTrue(helpers.another_round(now=100.0, start=0.0, rounds=0, deadline=25.0))

    def test_next_round_runs_only_if_a_mean_round_fits(self):
        # Two rounds took 10 s: a third ends at 30 s.
        self.assertTrue(helpers.another_round(now=20.0, start=0.0, rounds=2, deadline=30.0))
        self.assertFalse(helpers.another_round(now=20.0, start=0.0, rounds=2, deadline=29.9))


class WireFormats(unittest.TestCase):
    def test_log_line(self):
        line = ("[graphsig] op=mine id=c0-3 status=ok dataset=d version=2 degraded=- "
                "completion=complete role=rider queue_wait_us=0 exec_us=0\n")
        entry = helpers.parse_log_line(line)
        self.assertEqual(entry["op"], "mine")
        self.assertEqual(entry["id"], "c0-3")
        self.assertEqual(entry["role"], "rider")
        self.assertEqual(entry["version"], "2")
        self.assertEqual((entry["queue_wait_us"], entry["exec_us"]), (0, 0))
        lead = helpers.parse_log_line(
            "[graphsig] op=freq id=a%20b status=ok dataset=d version=1 degraded=- "
            "completion=complete role=solo queue_wait_us=88 exec_us=793435")
        self.assertEqual(lead["id"], "a b")
        self.assertEqual(lead["exec_us"], 793435)

    def test_log_parser_ignores_other_lines(self):
        self.assertIsNone(helpers.parse_log_line("graphsig serve: listening on 127.0.0.1:4\n"))
        self.assertIsNone(helpers.parse_log_line("[graphsig] op=mine id=x status=ok\n"))

    def test_header(self):
        h = helpers.parse_header("resp id=m1 op=mine status=ok dataset=d version=1 "
                                 "completion=complete cached=hit subgraphs=3 bytes=120")
        self.assertEqual((h["id"], h["status"], h["cached"], h["bytes"]), ("m1", "ok", "hit", 120))
        with self.assertRaises(ValueError):
            helpers.parse_header("oops")

    def test_split_sweep(self):
        payload = ("# sweep support 100: 2 patterns (complete)\nA\nB\n"
                   "# sweep support 200: 0 patterns (complete)\n"
                   "# sweep support 300: 1 patterns (complete)\nC\n")
        self.assertEqual(helpers.split_sweep(payload), {100: "A\nB\n", 200: "", 300: "C\n"})
        with self.assertRaises(ValueError):
            helpers.split_sweep("stray\n")


if __name__ == "__main__":
    unittest.main()
