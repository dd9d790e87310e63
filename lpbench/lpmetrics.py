"""Pure helpers of the benchmark: METRICS parsing, deltas, percentiles
from histogram buckets, the join check and trace merging.

Nothing here starts processes or touches the file system, so
lpbench/tests/test_lpmetrics.py can test every function directly.
"""

import math
import re

_SAMPLE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text):
    """Prometheus text exposition -> {(name, ((label, value), ...)): float}.

    Comment lines are skipped and an OpenMetrics exemplar suffix
    (" # {trace_id=...} value") is dropped. Raises ValueError on a
    line that is not a sample, so a format change fails loudly.
    """
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith('#'):
            continue
        ex = line.find(' # ')
        if ex >= 0:
            line = line[:ex]
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError('not a metrics sample: %r' % line)
        labels = tuple(sorted(_LABEL.findall(m.group(2) or '')))
        out[(m.group(1), labels)] = float(m.group(3))
    return out


def delta(before, after):
    """Per-series difference after - before of two parsed snapshots.

    Histogram bucket series are exported only up to the first bucket
    that holds every sample, so a bucket present in one snapshot may
    be missing from the other. A missing bucket's cumulative count is
    the count of the nearest lower bucket of the same histogram.
    """
    out = {}
    hist = {}
    for snap_i, snap in enumerate((before, after)):
        for (name, labels), v in snap.items():
            if name.endswith('_bucket'):
                rest = tuple(kv for kv in labels if kv[0] != 'le')
                le = dict(labels)['le']
                hist.setdefault((name, rest), ({}, {}))[snap_i][le] = v
    for key in set(before) | set(after):
        if key[0].endswith('_bucket'):
            continue
        out[key] = after.get(key, 0.0) - before.get(key, 0.0)
    for (name, rest), (b, a) in hist.items():
        les = sorted(set(b) | set(a), key=float)
        for le in les:
            out[(name, tuple(sorted(rest + (('le', le),))))] = (
                _cum_at(a, le) - _cum_at(b, le))
    return out


def _cum_at(series, le):
    """Cumulative count at bucket @le, filled from the nearest lower."""
    if le in series:
        return series[le]
    best, val = None, 0.0
    for k, v in series.items():
        if float(k) <= float(le) and (best is None or float(k) > best):
            best, val = float(k), v
    if float(le) == math.inf and best is not None:
        return max(series.values())
    return val


def total(snap, name, **match):
    """Sum of every series of @name whose labels include @match."""
    want = set(match.items())
    return sum(v for (n, labels), v in snap.items()
               if n == name and want <= set(labels))


def unlabelled(snap, name):
    """The series of @name without labels (0 when absent)."""
    return snap.get((name, ()), 0.0)


def buckets(snap, name, **match):
    """Cumulative {le: count} of histogram @name, summed over every
    series matching @match (e.g. all shards)."""
    want = set(match.items())
    out = {}
    for (n, labels), v in snap.items():
        if n != name + '_bucket':
            continue
        d = dict(labels)
        if not want <= set(labels):
            continue
        le = float(d['le'])
        out[le] = out.get(le, 0.0) + v
    return out


def bucket_quantile(cum, q):
    """Quantile @q in [0, 1] of cumulative buckets {le: count}.

    Linear interpolation inside the bucket that holds the target rank,
    from the previous bucket's bound (0 for the first). A target in the
    +Inf bucket returns the largest finite bound. 0 for no samples.
    """
    if not cum:
        return 0.0
    les = sorted(cum)
    count = cum[les[-1]]
    if count <= 0:
        return 0.0
    target = q * count
    lo_le, lo_cum = 0.0, 0.0
    for le in les:
        c = cum[le]
        if c >= target and c > lo_cum:
            if math.isinf(le):
                return lo_le
            return lo_le + (le - lo_le) * (target - lo_cum) / (c - lo_cum)
        if not math.isinf(le):
            lo_le = le
        lo_cum = c
    return lo_le


def hist_mean(snap, name, **match):
    """_sum / _count of histogram @name over the matching series."""
    s = total(snap, name + '_sum', **match)
    c = total(snap, name + '_count', **match)
    return s / c if c else 0.0


def join_check(window, d, shards):
    """Counter deltas of one drained window must equal what the
    generator completed in it. Returns a list of mismatch strings
    (empty = the join holds).

    @window is the generator's JSON for the window, @d the METRICS
    delta over it. lp_scans counts one sub-scan per shard per SCAN;
    a committed transfer applies two Adds, so two mutations.
    """
    expect = {
        'lp_gets': window['gets'],
        'lp_mutations': (window['puts'] + window['inserts']
                         + 2 * window['txn_commits']),
        'lp_scans': shards * window['scans'],
    }
    bad = []
    for name, want in expect.items():
        got = total(d, name) - unlabelled(d, name)
        if got != want:
            bad.append('%s: METRICS delta %d, generator %d'
                       % (name, got, want))
    got = unlabelled(d, 'lp_txn_commits')
    if got != window['txn_commits']:
        bad.append('lp_txn_commits: METRICS delta %d, generator %d'
                   % (got, window['txn_commits']))
    return bad


STAGES = ('lp_req_parse_seconds', 'lp_req_queue_seconds',
          'lp_stage_lat_seconds', 'lp_req_commit_wait_seconds',
          'lp_req_ack_seconds')


def unattributed_mean_us(window, d):
    """Client mean round trip minus the mean time the server's stage
    histograms account for per request, in us: wire, kernel and the
    generator's own time. Negative means the layers over-count."""
    n = window['completed']
    if not n:
        return 0.0
    client_s = window['rtt_mean_ns'] * n / 1e9
    server_s = sum(total(d, name + '_sum') for name in STAGES)
    return (client_s - server_s) / n * 1e6


def trace_id_of(conn_id, req_id):
    """obs::traceIdOf: the flow id the server derives per request."""
    m = (1 << 64) - 1
    z = ((conn_id << 32) ^ req_id) & m
    z = (z + 0x9e3779b97f4a7c15) & m
    z = ((z ^ (z >> 30)) * 0xbf58476d1ce4e5b9) & m
    z = ((z ^ (z >> 27)) * 0x94d049bb133111eb) & m
    z = z ^ (z >> 31)
    return z | 1


def union_us(spans, lo, hi):
    """Length of the union of [ts, ts+dur) spans clipped to [lo, hi)."""
    iv = sorted((max(lo, s), min(hi, s + d)) for s, d in spans)
    covered, end = 0.0, lo
    for a, b in iv:
        if b <= end:
            continue
        a = max(a, end)
        covered += b - a
        end = b
    return covered
