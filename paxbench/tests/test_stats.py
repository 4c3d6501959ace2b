"""Unit tests for paxbench/stats.py: percentile and rate maths, /proc and
STATS parsing, and span self time.

    python3 -m unittest discover -s paxbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile(values, 0.5), 1)

    def test_unsorted_input_and_small_samples(self):
        self.assertEqual(stats.percentile([30, 10, 20], 50), 20)
        self.assertEqual(stats.percentile([30, 10, 20], 99), 30)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_rank_rounds_up(self):
        # 10 samples: p99 needs 9.9 samples at or below -> the 10th.
        self.assertEqual(stats.percentile(list(range(10)), 99), 9)
        self.assertEqual(stats.percentile(list(range(10)), 90), 8)

    def test_rejects_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)


class RateTest(unittest.TestCase):
    def test_rate_per_second(self):
        self.assertAlmostEqual(stats.rate(500, 250_000_000), 2000.0)
        self.assertAlmostEqual(stats.rate(0, 1), 0.0)

    def test_rate_rejects_empty_window(self):
        with self.assertRaises(ValueError):
            stats.rate(1, 0)

    def test_ratio_guards_zero_denominator(self):
        self.assertEqual(stats.ratio(3, 4), 0.75)
        self.assertEqual(stats.ratio(3, 0), 0.0)

    def test_spread_is_iqr_over_median(self):
        # statistics.quantiles (exclusive) on 1..9: q1=2.5, q2=5, q3=7.5.
        self.assertAlmostEqual(stats.spread(list(range(1, 10))), 1.0)
        self.assertEqual(stats.spread([4.0] * 10), 0.0)


class ParseTest(unittest.TestCase):
    def test_proc_stat_with_spaces_and_parens_in_comm(self):
        fields = ["S"] + [str(i) for i in range(4, 53)]  # fields 3..52
        fields[14 - 3] = "1234"  # utime
        fields[15 - 3] = "567"   # stime
        text = "4242 (pax kv) (x)) " + " ".join(fields) + "\n"
        self.assertEqual(stats.parse_proc_stat(text),
                         {"utime": 1234, "stime": 567})

    def test_proc_stat_of_this_process(self):
        with open("/proc/self/stat") as f:
            parsed = stats.parse_proc_stat(f.read())
        self.assertGreaterEqual(parsed["utime"], 0)
        self.assertGreaterEqual(parsed["stime"], 0)

    def test_host_steal(self):
        line = "cpu  852797 0 706741 2516261 662 0 22766 286218 0 0"
        self.assertEqual(stats.parse_host_steal(line), 286218)
        with self.assertRaises(ValueError):
            stats.parse_host_steal("cpu0 1 2 3 4 5 6 7 8 0 0")
        with open("/proc/stat") as f:
            self.assertGreaterEqual(stats.parse_host_steal(f.readline()), 0)

    def test_window_steal_is_per_window_delta(self):
        lines = [f"cpu 1 0 1 1 0 0 0 {t} 0 0" for t in (100, 100, 130, 131)]
        self.assertEqual(stats.window_steal(lines), [0, 30, 1])

    def test_calm_keeps_least_stolen_windows(self):
        rates = [10, 4, 9, 11, 5]
        steal = [0, 40, 1, 0, 25]
        self.assertEqual(stats.calm(rates, steal, 50), [10, 9, 11])
        # A host that was calm throughout keeps every window.
        self.assertEqual(stats.calm(rates, [0] * 5, 50), rates)
        with self.assertRaises(ValueError):
            stats.calm(rates, steal[:4], 50)

    def test_catches_signal(self):
        text = "Name:\tpaxkv\nSigIgn:\t0000000000001000\n" \
               "SigCgt:\t0000000000004002\n"
        self.assertTrue(stats.catches_signal(text, 15))  # SIGTERM
        self.assertTrue(stats.catches_signal(text, 2))   # SIGINT
        self.assertFalse(stats.catches_signal(text, 13))  # SIGPIPE: ignored
        with self.assertRaises(ValueError):
            stats.catches_signal("Name:\tx\n", 15)

    def test_vm_hwm(self):
        text = "Name:\tpaxkv\nVmPeak:\t  900 kB\nVmHWM:\t  51200 kB\n"
        self.assertEqual(stats.parse_vm_hwm_kib(text), 51200)
        with self.assertRaises(ValueError):
            stats.parse_vm_hwm_kib("Name:\tx\n")

    def test_stats_doc_sums_shards(self):
        shard = {"shard": 0, "persists": 5,
                 "log": {"flushes": 3, "records": 40, "ring_appends": 40,
                         "ring_full_stalls": 1}}
        doc = {
            "commit_mode": "group", "log_flushes_total": 6,
            "acked_write_ops": 30,
            "server": {"requests": 100, "protocol_errors": 0},
            "group_commit": {"waves": 4, "wave_ops": 30},
            "shard_stats": [shard, dict(shard, shard=1)],
        }
        parsed = stats.parse_stats_doc(json.dumps(doc))
        self.assertEqual(parsed["requests"], 100)
        self.assertEqual(parsed["waves"], 4)
        self.assertEqual(parsed["log_records"], 80)
        self.assertEqual(parsed["log_flushes"], 6)
        self.assertEqual(parsed["ring_full_stalls"], 2)
        self.assertEqual(parsed["persists"], 10)
        after = dict(parsed, requests=160, waves=7)
        d = stats.delta(parsed, after)
        self.assertEqual(d["requests"], 60)
        self.assertEqual(d["waves"], 3)
        self.assertEqual(d["log_records"], 0)


class SelfTimeTest(unittest.TestCase):
    def span(self, id_, name, start, end, parent=0):
        return {"id": id_, "name": name, "start": start, "end": end,
                "parent": parent, "op": 1}

    def test_children_subtract_from_parent(self):
        spans = [
            self.span(1, "bench.epoch", 0, 100),
            self.span(2, "libpax.mutate", 0, 30, parent=1),
            self.span(3, "libpax.persist", 40, 90, parent=1),
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs["bench"], 20)
        self.assertEqual(selfs["libpax"], 80)
        self.assertEqual(selfs["device"], 0)

    def test_overlapping_children_count_once(self):
        spans = [
            self.span(1, "bench.cycle", 0, 100),
            self.span(2, "kv.put", 10, 50, parent=1),
            self.span(3, "kv.get", 30, 60, parent=1),
            self.span(4, "group.commit_wave", 90, 120, parent=1),
        ]
        self.assertEqual(stats.self_times(spans)["bench"], 100 - 50 - 10)

    def test_unknown_layers_are_ignored(self):
        spans = [self.span(1, "client.request", 0, 10)]
        self.assertTrue(all(v == 0 for v in stats.self_times(spans).values()))

    def test_chrome_trace_round_trip(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "_trace_test.json")
        doc = {"traceEvents": [
            {"name": "bench.epoch", "ph": "X", "pid": 1, "tid": 0,
             "ts": 1.5, "dur": 2.25, "args": {"id": 1, "parent": 0, "op": 7}},
        ]}
        with open(path, "w") as f:
            json.dump(doc, f)
        try:
            spans = stats.load_chrome_trace(path)
        finally:
            os.remove(path)
        self.assertEqual(spans, [{"name": "bench.epoch", "id": 1, "parent": 0,
                                  "op": 7, "start": 1500, "end": 3750}])


if __name__ == "__main__":
    unittest.main()
