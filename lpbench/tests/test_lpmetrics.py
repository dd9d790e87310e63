"""Unit tests of the benchmark's own Python code.

    python3 -m unittest discover -s lpbench/tests

The generator's timing anchors have a C++ test beside this file
(test_openloop.cc, run with ctest from the benchmark's build).
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import lpmetrics as lm  # noqa: E402
import run  # noqa: E402

BEFORE = """# TYPE lp_gets counter
lp_gets{shard="0"} 10
lp_gets{shard="1"} 5
# TYPE lp_txn_commits counter
lp_txn_commits{shard="0"} 1
lp_txn_commits 3
# TYPE lp_req_queue_seconds histogram
lp_req_queue_seconds_bucket{shard="0",le="2e-06"} 4 # {trace_id="00000000000000a1"} 1e-06
lp_req_queue_seconds_bucket{shard="0",le="4e-06"} 10
lp_req_queue_seconds_bucket{shard="0",le="+Inf"} 10
lp_req_queue_seconds_sum{shard="0"} 2.5e-05
lp_req_queue_seconds_count{shard="0"} 10
"""

# Ten more samples, two of them in a bucket the first snapshot did not
# export (the exposition stops at the first bucket holding every sample).
AFTER = """lp_gets{shard="0"} 25
lp_gets{shard="1"} 9
lp_txn_commits{shard="0"} 2
lp_txn_commits 7
lp_req_queue_seconds_bucket{shard="0",le="2e-06"} 8
lp_req_queue_seconds_bucket{shard="0",le="4e-06"} 18
lp_req_queue_seconds_bucket{shard="0",le="8e-06"} 20
lp_req_queue_seconds_bucket{shard="0",le="+Inf"} 20
lp_req_queue_seconds_sum{shard="0"} 6.5e-05
lp_req_queue_seconds_count{shard="0"} 20
"""


class ExpositionTest(unittest.TestCase):
    def test_parses_labels_and_drops_exemplars(self):
        snap = lm.parse_exposition(BEFORE)
        self.assertEqual(snap[('lp_gets', (('shard', '0'),))], 10)
        self.assertEqual(snap[('lp_txn_commits', ())], 3)
        key = ('lp_req_queue_seconds_bucket',
               (('le', '2e-06'), ('shard', '0')))
        self.assertEqual(snap[key], 4)

    def test_rejects_a_line_that_is_not_a_sample(self):
        with self.assertRaises(ValueError):
            lm.parse_exposition('lp_gets{shard="0"}\n')

    def test_delta_of_counters(self):
        d = lm.delta(lm.parse_exposition(BEFORE), lm.parse_exposition(AFTER))
        self.assertEqual(lm.total(d, 'lp_gets'), 19)
        self.assertEqual(lm.total(d, 'lp_gets', shard='1'), 4)
        self.assertEqual(lm.unlabelled(d, 'lp_txn_commits'), 4)

    def test_delta_fills_a_bucket_missing_from_one_snapshot(self):
        d = lm.delta(lm.parse_exposition(BEFORE), lm.parse_exposition(AFTER))
        cum = lm.buckets(d, 'lp_req_queue_seconds')
        self.assertEqual(cum, {2e-06: 4, 4e-06: 8, 8e-06: 10,
                               math.inf: 10})
        self.assertAlmostEqual(lm.hist_mean(d, 'lp_req_queue_seconds'),
                               4e-06)


class QuantileTest(unittest.TestCase):
    def test_interpolates_inside_the_bucket(self):
        cum = {1.0: 0, 2.0: 10, 4.0: 20, math.inf: 20}
        self.assertAlmostEqual(lm.bucket_quantile(cum, 0.5), 2.0)
        self.assertAlmostEqual(lm.bucket_quantile(cum, 0.25), 1.5)
        self.assertAlmostEqual(lm.bucket_quantile(cum, 0.75), 3.0)
        self.assertAlmostEqual(lm.bucket_quantile(cum, 0.99), 3.96)

    def test_first_bucket_starts_at_zero(self):
        self.assertAlmostEqual(lm.bucket_quantile({8.0: 4, math.inf: 4},
                                                  0.5), 4.0)

    def test_overflow_saturates_at_the_largest_bound(self):
        cum = {1.0: 1, 2.0: 2, math.inf: 10}
        self.assertEqual(lm.bucket_quantile(cum, 0.99), 2.0)

    def test_no_samples(self):
        self.assertEqual(lm.bucket_quantile({}, 0.5), 0.0)
        self.assertEqual(lm.bucket_quantile({1.0: 0, math.inf: 0}, 0.5), 0.0)


def window(**kw):
    w = {'gets': 0, 'puts': 0, 'inserts': 0, 'scans': 0, 'txn_commits': 0,
         'completed': 0, 'rtt_mean_ns': 0.0}
    w.update(kw)
    return w


def counters(**per_shard):
    """A METRICS delta with the given per-shard counter totals."""
    d = {}
    for name, v in per_shard.items():
        d[('lp_' + name, (('shard', '0'),))] = v
    return d


class JoinTest(unittest.TestCase):
    def test_matching_window_joins(self):
        w = window(gets=10, puts=4, inserts=1, scans=3, txn_commits=2)
        d = counters(gets=10, mutations=4 + 1 + 2 * 2, scans=2 * 3)
        d[('lp_txn_commits', ())] = 2
        self.assertEqual(lm.join_check(w, d, 2), [])

    def test_each_counter_mismatch_is_reported(self):
        w = window(gets=10, puts=4, scans=3, txn_commits=2)
        d = counters(gets=9, mutations=7, scans=3)
        d[('lp_txn_commits', ())] = 1
        bad = lm.join_check(w, d, 2)
        self.assertEqual(len(bad), 4)
        for name in ('lp_gets', 'lp_mutations', 'lp_scans', 'lp_txn_commits'):
            self.assertTrue(any(b.startswith(name + ':') for b in bad), name)

    def test_labelled_txn_commits_are_not_counted_twice(self):
        w = window(txn_commits=2, puts=0)
        d = counters(mutations=4, txn_commits=2)
        d[('lp_txn_commits', ())] = 2
        self.assertEqual(lm.join_check(w, d, 2), [])

    def test_unattributed_time(self):
        w = window(completed=100, rtt_mean_ns=50000.0)
        d = {('lp_req_queue_seconds_sum', (('shard', '0'),)): 100 * 20e-6,
             ('lp_req_ack_seconds_sum', ()): 100 * 10e-6}
        self.assertAlmostEqual(lm.unattributed_mean_us(w, d), 20.0)
        d[('lp_req_commit_wait_seconds_sum', ())] = 100 * 40e-6
        self.assertLess(lm.unattributed_mean_us(w, d), 0)


class TraceTest(unittest.TestCase):
    def test_union_of_overlapping_spans(self):
        spans = [(0, 10), (5, 10), (30, 5)]
        self.assertEqual(lm.union_us(spans, 0, 100), 20)
        self.assertEqual(lm.union_us(spans, 8, 32), 9)

    def test_trace_id_is_never_zero(self):
        ids = {lm.trace_id_of(c, r) for c in range(16, 20)
               for r in range(1, 100)}
        self.assertEqual(len(ids), 4 * 99)
        self.assertTrue(all(i & 1 for i in ids))


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics run.py prints."""

    def test_metric_lists_match(self):
        with open(os.path.join(run.ROOT, 'BENCHMARK.json')) as f:
            bench = json.load(f)
        self.assertEqual([(m['name'], m['unit']) for m in bench['end_to_end']],
                         run.E2E)
        self.assertEqual([(m['name'], m['unit']) for m in bench['per_layer']],
                         run.PER_LAYER)
        self.assertEqual(sorted(w['name'] for w in bench['workloads']),
                         sorted(run.WORKLOADS))
        bounds = {m['name']: m['bound'] for m in bench['end_to_end']}
        self.assertEqual(bounds['setup_s'], max(bounds.values()))


if __name__ == '__main__':
    unittest.main()
