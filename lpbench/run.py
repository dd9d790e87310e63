#!/usr/bin/env python3
"""lpbench -- the repository's benchmark: the served LP store end to end
and per layer, and LP's simulated write cost.

    python3 lpbench/run.py --workload zipf --seed 1 --seconds 30 --trace 0
    python3 lpbench/run.py --workload all             # every workload

Run it from the repository root. It builds lpbench/ (the repository's
libraries, `lazyper_cli` and the C++ generator `lpbench_gen`) into
.bench_build/lpbench, then for one workload runs, in order:

  setup         the simulated store's build and load, then
                `lazyper_cli serve --backend lp --shards 2` on a fresh
                data directory, BATCH load, SHUTDOWN (checkpoint),
                restart (recovery); SETUP_REPS times, half of them
                before the served phases (the last server stays for
                them) and half after
  ycsb-a        closed loop (capacity), then open-loop Poisson (latency)
  ycsb-e        closed loop, 95% SCAN of 1-100 records, 5% insert
  txn-transfer  closed loop, one 2-key Add transfer per connection
  sim-ycsb-a    YCSB-A on lp::sim, LP backend, bench::paperMachine(1)

The two workloads differ only in key popularity (zipfian or uniform).
Every reply is checked; METRICS counter deltas must join with what the
generator completed. Human-readable tables go to stdout; the last
stdout line is one JSON object: correct, attempted, failed, metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
lpbench/README.md documents every workload and metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import lpmetrics as lm  # noqa: E402

BUILD = os.path.join(ROOT, '.bench_build', 'lpbench')
TRACES = os.path.join(ROOT, '.bench_build', 'lpbench-traces')

WORKLOADS = {
    'zipf': {'theta': 0.99, 'txn_theta': 0.9},
    'uniform': {'theta': 0.0, 'txn_theta': 0.0},
}

SHARDS = 2
RECORDS = 32768
ACCOUNTS = 256
CAPACITY = 65536        # per shard: max live keys (--capacity)
LOAD_LIMIT = 0.875      # of the 2 x capacity table slots (fatal above)
SETUP_REPS = 15         # set-ups per run; setup_s is their median
ROUNDS = 8              # each phase's window is split over this many rounds
WINDOW = 8              # closed loop: requests in flight per connection
WARM_S = 0.25
SIM_RECORDS = 16384
SIM_OPS = 1000000
SIM_CAPACITY = 65536
REPLAY_OPS = 200000

# Shares of --seconds for each phase's measured windows (summed over
# rounds); the simulator phase is fixed work and takes the rest.
SHARE = {'closed': 0.2, 'open': 0.3, 'scan': 0.2, 'txn': 0.2}

E2E = [
    ('setup_s', 's'), ('ops_s', '1/s'),
    ('read_p50_us', 'us'), ('write_p50_us', 'us'),
    ('scan_ops_s', '1/s'), ('scan_p50_us', 'us'),
    ('txn_s', '1/s'), ('txn_mean_us', 'us'),
    ('sim_ns_per_op', 'ns'), ('nvmm_writes_per_mut', 'count'),
]

# End-to-end metrics too unsteady to gate; they are reported, from the
# untraced pass, with the per-layer metrics, where no bound applies. On
# a shared 4-vCPU machine a noisy stretch of a few seconds moves the
# p99s by 2-10x. Transfer latency is bimodal (cross-shard commits ack at
# the decision, single-shard ones at the epoch commit), so its p50 jumps
# between the modes; txn_mean_us is gated instead. Host speed drifts by
# 10-15% from minute to minute.
UNGATED = [('read_p99_us', 'us'), ('write_p99_us', 'us'),
           ('scan_p99_us', 'us'), ('txn_p50_us', 'us'), ('txn_p99_us', 'us'),
           ('sim_host_kops_s', 'k/s')]

PER_LAYER = UNGATED + [
    ('setup.start_s', 's'), ('setup.load_s', 's'),
    ('loadgen.late_p99_us', 'us'), ('loadgen.rtt_p50_us', 'us'),
    ('net.writev_frames_mean', 'count'), ('net.eagain_per_kop', 'count'),
    ('server.parse_p50_us', 'us'), ('server.ack_p50_us', 'us'),
    ('server.queue_p50_us', 'us'), ('server.queue_p99_us', 'us'),
    ('server.commit_wait_p50_us', 'us'), ('server.commit_wait_p99_us', 'us'),
    ('server.unattributed_mean_us', 'us'), ('server.retry_ratio', 'ratio'),
    ('engine.muts_per_epoch', 'count'), ('engine.deadline_commit_ratio', 'ratio'),
    ('store.stage_p50_us', 'us'), ('store.stage_p99_us', 'us'),
    ('store.commit_p99_us', 'us'), ('store.fold_p99_us', 'us'),
    ('store.folds_per_kmut', 'count'), ('store.busy_frac', 'ratio'),
    ('store.put_ns', 'ns'), ('store.get_ns', 'ns'), ('store.scan_ns_per_rec', 'ns'),
    ('index.scan_p50_us', 'us'), ('index.scan_p99_us', 'us'),
    ('index.recs_per_scan', 'count'),
    ('txn.abort_ratio', 'ratio'), ('txn.backoff_us_per_commit', 'us'),
    ('txn.cross_shard_frac', 'ratio'),
    ('txn.server_commit_p50_us', 'us'), ('txn.server_commit_p99_us', 'us'),
    ('repair.scrub_regions_per_s', '1/s'), ('repair.scrub_p99_us', 'us'),
    ('sim.l2_miss_ratio', 'ratio'), ('sim.fence_stall_cycles_per_op', 'count'),
    ('sim.flushes_per_mut', 'count'), ('sim.fences_per_mut', 'count'),
    ('sim.eviction_writes_per_mut', 'count'), ('sim.flush_writes_per_mut', 'count'),
    ('sim.host_ns_per_access', 'ns'),
    ('trace.overhead_frac', 'ratio'),
]


class BenchError(Exception):
    """The benchmark could not run (not a failed check)."""


def log(msg):
    print('lpbench: ' + msg, file=sys.stderr, flush=True)


def mono_us():
    return time.monotonic_ns() / 1e3


# ---------------------------------------------------------------- build

def build():
    if not os.path.exists(os.path.join(BUILD, 'CMakeCache.txt')):
        r = subprocess.run(['cmake', '-S', HERE, '-B', BUILD,
                            '-DCMAKE_BUILD_TYPE=Release'],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError('cmake configure failed')
    r = subprocess.run(['cmake', '--build', BUILD, '-j', '4', '--target',
                        'lazyper_cli', 'lpbench_gen'],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError('build failed')


def fingerprint():
    cache = {}
    with open(os.path.join(BUILD, 'CMakeCache.txt')) as f:
        for line in f:
            if '=' in line and ':' in line.split('=', 1)[0]:
                k, v = line.rstrip('\n').split('=', 1)
                cache[k.split(':', 1)[0]] = v
    cxx = cache.get('CMAKE_CXX_COMPILER', 'c++')
    try:
        compiler = subprocess.run([cxx, '--version'], capture_output=True,
                                  text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        compiler = cxx
    cpu = 'unknown'
    try:
        with open('/proc/cpuinfo') as f:
            for line in f:
                if line.startswith('model name'):
                    cpu = line.split(':', 1)[1].strip()
                    break
    except OSError:
        pass
    # The checkout is not a git repository: name the code by a digest
    # of every source file the benchmark builds from.
    h = hashlib.sha1()
    for top in ('src', 'tools', 'bench', 'lpbench'):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(('.cc', '.hh', '.py', '.txt')):
                    p = os.path.join(d, name)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, 'rb') as f:
                        h.update(f.read())
    return {'nproc': os.cpu_count(), 'cpu': cpu, 'compiler': compiler,
            'build_type': cache.get('CMAKE_BUILD_TYPE', ''),
            'commit': 'src-sha1:' + h.hexdigest()[:16]}


# ------------------------------------------------------------ processes

class Server:
    """One `lazyper_cli serve` process over @data_dir."""

    started = []  # every server of this run, stopped by stop_all()

    def __init__(self, data_dir, trace_out=None):
        self.data_dir = data_dir
        self.trace_out = trace_out
        self.proc = None
        self.port = 0

    def start(self):
        """Start and wait for the PORT file; returns seconds taken."""
        port_file = os.path.join(self.data_dir, 'PORT')
        if os.path.exists(port_file):
            os.unlink(port_file)
        cmd = [os.path.join(BUILD, 'lazyper_cli'), 'serve',
               '--data-dir', self.data_dir, '--shards', str(SHARDS),
               '--backend', 'lp', '--capacity', str(CAPACITY), '--quiet']
        if self.trace_out:
            cmd += ['--trace-out', self.trace_out]
        t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=sys.stderr)
        Server.started.append(self)
        while not os.path.exists(port_file):
            if self.proc.poll() is not None:
                raise BenchError('server exited during start (%d)'
                                 % self.proc.returncode)
            if time.monotonic() - t0 > 60:
                raise BenchError('server did not publish its port')
            time.sleep(0.0005)
        took = time.monotonic() - t0
        with open(port_file) as f:
            self.port = int(f.read().strip())
        return took

    def wait(self, timeout=60):
        """Exit code once the process ends (after a SHUTDOWN op)."""
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError('server did not exit after SHUTDOWN')

    def shutdown(self):
        """SHUTDOWN op over a raw socket; returns the exit code."""
        # u32 payload length 9, u8 op 6 (SHUTDOWN), u64 request id.
        frame = bytes([9, 0, 0, 0, 6]) + (1).to_bytes(8, 'little')
        with socket.create_connection(('127.0.0.1', self.port), 10) as s:
            s.sendall(frame)
            s.recv(64)
        return self.wait()

    def kill(self):
        if self.proc and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    @staticmethod
    def stop_all():
        for srv in Server.started:
            srv.kill()
        Server.started = []


def gen(args, timeout=120):
    """Run lpbench_gen; returns (exit code, parsed JSON or None)."""
    r = subprocess.run([os.path.join(BUILD, 'lpbench_gen')] + args,
                       capture_output=True, text=True, timeout=timeout)
    if r.stderr:
        sys.stderr.write(r.stderr)
    try:
        return r.returncode, json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return r.returncode, None


# ---------------------------------------------------------------- phases

def sim_args(wl, seed):
    return ['--seed', str(seed), '--records', str(SIM_RECORDS),
            '--ops', str(SIM_OPS), '--capacity', str(SIM_CAPACITY),
            '--theta', str(WORKLOADS[wl]['theta'])]


def setup(tmp, wl, seed, spans, count, keep, trace_out=None):
    """@count set-ups, each a simulator set-up and then a served one on
    a fresh data directory (no server runs during the simulator's).
    Returns (server, per-rep timings); the server of the last rep stays
    up if @keep, every other one is shut down again."""
    reps = []
    srv = None
    for rep in range(count):
        t = mono_us()
        code, out = gen(['simsetup'] + sim_args(wl, seed))
        if code != 0 or out is None:
            raise BenchError('simulator set-up failed')
        spans.append(('simulator set-up', t, mono_us() - t))
        sim_s = out['setup_s']
        d = tempfile.mkdtemp(prefix='data-', dir=tmp)
        last = rep == count - 1
        first = Server(d)
        t = mono_us()
        fmt_s = first.start()
        spans.append(('serve start (format)', t, mono_us() - t))
        try:
            t = mono_us()
            t0 = time.monotonic()
            code, out = gen(['load', '--port', str(first.port), '--seed',
                             str(seed), '--records', str(RECORDS),
                             '--accounts', str(ACCOUNTS)])
            if code != 0 or out is None:
                raise BenchError('load failed')
            if first.wait() != 0:
                raise BenchError('server exited non-zero after load')
            load_s = time.monotonic() - t0
            spans.append(('load + checkpoint', t, mono_us() - t))
        finally:
            first.kill()
        srv = Server(d, trace_out if last else None)
        t = mono_us()
        rec_s = srv.start()
        spans.append(('serve start (recovery)', t, mono_us() - t))
        reps.append({'start_s': fmt_s + rec_s, 'load_s': load_s,
                     'total_s': fmt_s + load_s + rec_s + sim_s})
        if not (last and keep):
            if srv.shutdown() != 0:
                raise BenchError('server exited non-zero on SHUTDOWN')
            shutil.rmtree(d, ignore_errors=True)
    return srv, reps


def served(tmp, wl, seed, seconds, rate, trace):
    """Set-ups plus the four served windows; returns the raw results.
    Half the set-ups run before the windows and half after, so that a
    slow stretch of the machine does not take them all. The traced pass
    sets up once: only its spans are used."""
    spans = []
    trace_dir = tempfile.mkdtemp(prefix='trace-', dir=tmp) if trace else None
    srv_trace = os.path.join(trace_dir, 'server.json') if trace else None
    after = 0 if trace else SETUP_REPS // 2
    srv, reps = setup(tmp, wl, seed, spans, 1 if trace else SETUP_REPS - after,
                      True, srv_trace)
    out_dir = tempfile.mkdtemp(prefix='metrics-', dir=tmp)
    budget = int(SHARDS * CAPACITY * 0.9) - RECORDS - ACCOUNTS
    args = ['phases', '--port', str(srv.port), '--seed', str(seed),
            '--records', str(RECORDS), '--accounts', str(ACCOUNTS),
            '--shards', str(SHARDS), '--window', str(WINDOW),
            '--theta', str(WORKLOADS[wl]['theta']),
            '--txn-theta', str(WORKLOADS[wl]['txn_theta']),
            '--rate', str(rate), '--warm-s', str(WARM_S),
            '--closed-s', str(seconds * SHARE['closed'] / ROUNDS),
            '--open-s', str(seconds * SHARE['open'] / ROUNDS),
            '--scan-s', str(seconds * SHARE['scan'] / ROUNDS),
            '--txn-s', str(seconds * SHARE['txn'] / ROUNDS),
            '--rounds', str(ROUNDS),
            '--insert-budget', str(budget), '--out', out_dir]
    if trace:
        args += ['--trace-out', os.path.join(trace_dir, 'generator.json')]
    try:
        # The windows take about 1.3 x seconds; warm-ups, scrapes and
        # the audit add a few more.
        code, res = gen(args, timeout=2 * seconds + 60)
        exit_code = srv.wait()
    finally:
        srv.kill()
    if res is None:
        raise BenchError('generator produced no result (exit %d)' % code)
    reps += setup(tmp, wl, seed, spans, after, False)[1]
    phases, pooled = {}, {}
    for w in res['windows']:
        with open(w['metrics'] + '.before.prom') as f:
            before = lm.parse_exposition(f.read())
        with open(w['metrics'] + '.after.prom') as f:
            after = lm.parse_exposition(f.read())
        w['delta'] = lm.delta(before, after)
        phases.setdefault(w['name'], []).append(w)
        acc = pooled.setdefault(w['name'], {})
        for k, v in w['delta'].items():
            acc[k] = acc.get(k, 0.0) + v
    with open(os.path.join(out_dir, 'final.prom')) as f:
        final = lm.parse_exposition(f.read())
    headroom = {
        'capacity_per_shard': CAPACITY,
        'load_limit_keys_per_shard': int(2 * CAPACITY * LOAD_LIMIT),
        'loaded_keys': RECORDS + ACCOUNTS,
        'insert_budget': budget,
        'inserts': res['inserts'],
    }
    return {'gen': res, 'gen_exit': code, 'server_exit': exit_code,
            'phases': phases, 'pooled': pooled, 'final': final, 'setup': reps,
            'headroom': headroom, 'spans': spans, 'trace_dir': trace_dir}


def simulate(wl, seed):
    code, res = gen(['sim'] + sim_args(wl, seed))
    if res is None:
        raise BenchError('simulator produced no result (exit %d)' % code)
    return res


def replay(wl, seed, trace_out):
    code, res = gen(['replay', '--seed', str(seed), '--records', str(RECORDS),
                     '--accounts', str(ACCOUNTS),
                     '--ops', str(REPLAY_OPS), '--capacity', str(CAPACITY),
                     '--theta', str(WORKLOADS[wl]['theta']),
                     '--trace-out', trace_out])
    if res is None:
        raise BenchError('replay produced no result (exit %d)' % code)
    return res


# --------------------------------------------------------------- metrics

def _median(windows, f):
    return statistics.median(f(w) for w in windows)


def _lat_us(kind, q):
    return lambda w: w['latency'][kind][q + '_ns'] / 1e3


def end_to_end(s, sim):
    """The end-to-end metrics: medians over rounds of each window's
    throughput and latency percentiles, plus the simulator's."""
    ph = s['phases']
    a, o, e, t = (ph['ycsb-a-closed'], ph['ycsb-a-open'], ph['ycsb-e'],
                  ph['txn-transfer'])
    return {
        'setup_s': statistics.median(r['total_s'] for r in s['setup']),
        'ops_s': _median(a, lambda w: w['completed'] / w['seconds']),
        'read_p50_us': _median(o, _lat_us('get', 'p50')),
        'read_p99_us': _median(o, _lat_us('get', 'p99')),
        'write_p50_us': _median(o, _lat_us('put', 'p50')),
        'write_p99_us': _median(o, _lat_us('put', 'p99')),
        'scan_ops_s': _median(e, lambda w: w['completed'] / w['seconds']),
        'scan_p50_us': _median(e, _lat_us('scan', 'p50')),
        'scan_p99_us': _median(e, _lat_us('scan', 'p99')),
        'txn_s': _median(t, lambda w: w['txn_commits'] / w['seconds']),
        'txn_mean_us': _median(t, _lat_us('txn', 'mean')),
        'txn_p50_us': _median(t, _lat_us('txn', 'p50')),
        'txn_p99_us': _median(t, _lat_us('txn', 'p99')),
        'sim_ns_per_op': sim['exec_cycles'] / sim['clock_ghz'] / sim['ops'],
        'nvmm_writes_per_mut': sim['writes_per_mutation'],
        'sim_host_kops_s': sim['ops'] / statistics.median(sim['run_s']) / 1e3,
    }


def per_layer(s, sim, rep):
    """The per-layer metrics. Server-side ones come from METRICS deltas
    pooled over a phase's rounds; client-side ones are sums over rounds
    or medians of per-round values."""
    ph = s['phases']
    d = s['pooled']
    o = ph['ycsb-a-open']
    a, e, t = ({k: sum(w[k] for w in ph[name]) for k in
                ('completed', 'seconds', 'scans', 'scan_records',
                 'txn_commits', 'txn_aborts', 'backoff_us', 'cross_shard')}
               for name in ('ycsb-a-closed', 'ycsb-e', 'txn-transfer'))
    da, do, de, dt = (d['ycsb-a-closed'], d['ycsb-a-open'], d['ycsb-e'],
                      d['txn-transfer'])

    def q_us(delta, name, q, **match):
        return lm.bucket_quantile(lm.buckets(delta, name, **match), q) * 1e6

    def ratio(x, y):
        return x / y if y else 0.0

    muts_o = lm.total(do, 'lp_mutations')
    epochs_o = lm.total(do, 'lp_epochs_committed')
    store_busy = sum(lm.total(de, n + '_sum') for n in
                     ('lp_stage_lat_seconds', 'lp_scan_lat_seconds',
                      'lp_scrub_lat_seconds'))
    completed = sum(w['completed'] for ws in ph.values() for w in ws)
    st = sim['stats']
    sim_muts = sim['mutations']
    return {
        'setup.start_s': statistics.median(r['start_s'] for r in s['setup']),
        'setup.load_s': statistics.median(r['load_s'] for r in s['setup']),
        'loadgen.late_p99_us': _median(o, lambda w: w['late_p99_ns'] / 1e3),
        'loadgen.rtt_p50_us': _median(o, lambda w: w['rtt_p50_ns'] / 1e3),
        'net.writev_frames_mean': lm.hist_mean(da, 'lp_writev_batch'),
        'net.eagain_per_kop': ratio(lm.total(da, 'lp_eagain_total'),
                                    a['completed']) * 1e3,
        'server.parse_p50_us': q_us(do, 'lp_req_parse_seconds', 0.5),
        'server.ack_p50_us': q_us(do, 'lp_req_ack_seconds', 0.5),
        'server.queue_p50_us': q_us(do, 'lp_req_queue_seconds', 0.5),
        'server.queue_p99_us': q_us(do, 'lp_req_queue_seconds', 0.99),
        'server.commit_wait_p50_us': q_us(do, 'lp_req_commit_wait_seconds', 0.5),
        'server.commit_wait_p99_us': q_us(do, 'lp_req_commit_wait_seconds', 0.99),
        'server.unattributed_mean_us': _median(
            o, lambda w: lm.unattributed_mean_us(w, w['delta'])),
        'server.retry_ratio': ratio(sum(lm.total(x, 'lp_retries')
                                        for x in d.values()), completed),
        'engine.muts_per_epoch': ratio(muts_o, epochs_o),
        'engine.deadline_commit_ratio': ratio(
            lm.total(do, 'lp_deadline_commits'), epochs_o),
        'store.stage_p50_us': q_us(do, 'lp_stage_lat_seconds', 0.5),
        'store.stage_p99_us': q_us(do, 'lp_stage_lat_seconds', 0.99),
        'store.commit_p99_us': q_us(do, 'lp_commit_lat_seconds', 0.99),
        'store.fold_p99_us': q_us(do, 'lp_fold_lat_seconds', 0.99),
        'store.folds_per_kmut': ratio(lm.total(do, 'lp_folds'), muts_o) * 1e3,
        'store.busy_frac': ratio(store_busy, e['seconds'] * SHARDS),
        'store.put_ns': rep['put_p50_ns'],
        'store.get_ns': rep['get_p50_ns'],
        'store.scan_ns_per_rec': rep['scan_ns_per_rec'],
        'index.scan_p50_us': q_us(de, 'lp_scan_lat_seconds', 0.5),
        'index.scan_p99_us': q_us(de, 'lp_scan_lat_seconds', 0.99),
        'index.recs_per_scan': ratio(e['scan_records'], e['scans']),
        'txn.abort_ratio': ratio(t['txn_aborts'],
                                 t['txn_aborts'] + t['txn_commits']),
        'txn.backoff_us_per_commit': ratio(t['backoff_us'], t['txn_commits']),
        'txn.cross_shard_frac': ratio(t['cross_shard'], t['txn_commits']),
        'txn.server_commit_p50_us': lm.bucket_quantile(
            _unlabelled_buckets(dt, 'lp_txn_commit_lat_seconds'), 0.5) * 1e6,
        'txn.server_commit_p99_us': lm.bucket_quantile(
            _unlabelled_buckets(dt, 'lp_txn_commit_lat_seconds'), 0.99) * 1e6,
        'repair.scrub_regions_per_s': ratio(
            lm.total(do, 'lp_scrub_regions'), sum(w['seconds'] for w in o)),
        'repair.scrub_p99_us': q_us(do, 'lp_scrub_lat_seconds', 0.99),
        'sim.l2_miss_ratio': ratio(st['l2_misses'], st['l2_accesses']),
        'sim.fence_stall_cycles_per_op': ratio(st['fence_stall_cycles'],
                                               sim['ops']),
        'sim.flushes_per_mut': ratio(st['flush_instrs'], sim_muts),
        'sim.fences_per_mut': ratio(st['fences'], sim_muts),
        'sim.eviction_writes_per_mut': ratio(st['eviction_writes'], sim_muts),
        'sim.flush_writes_per_mut': ratio(st['flush_writes'], sim_muts),
        'sim.host_ns_per_access': (statistics.median(sim['run_s']) * 1e9
                                   / (st['loads'] + st['stores'])),
    }


def _unlabelled_buckets(delta, name):
    """Buckets of the label-free series of @name (only the le label)."""
    return {float(dict(labels)['le']): v for (n, labels), v in delta.items()
            if n == name + '_bucket' and len(labels) == 1}


def checks(s, sim):
    """Every correctness and join check; returns a list of failures."""
    bad = ['generator: ' + f for f in s['gen']['failures']]
    if s['gen_exit'] != 0 and not bad:
        bad.append('generator exited %d' % s['gen_exit'])
    if s['server_exit'] != 0:
        bad.append('server exited %d on SHUTDOWN' % s['server_exit'])
    if lm.unlabelled(s['final'], 'lp_conn_active') != 1:
        bad.append('connections still open after the drain: lp_conn_active '
                   '%d with only the audit connection left'
                   % lm.unlabelled(s['final'], 'lp_conn_active'))
    for i, w in enumerate(s['gen']['windows']):
        where = 'join %s round %d' % (w['name'], i // len(s['phases']) + 1)
        bad += ['%s: %s' % (where, m)
                for m in lm.join_check(w, w['delta'], SHARDS)]
        if w['name'] == 'ycsb-a-open':
            unattr = lm.unattributed_mean_us(w, w['delta'])
            if unattr < 0:
                bad.append('%s: server stages exceed the client round trip '
                           '(unattributed %.3f us)' % (where, unattr))
    if not sim['verified']:
        bad.append('sim: final persistent map differs from the golden replay')
    if not sim['repeats']:
        bad.append('sim: repeated runs of one seed disagree')
    return bad


# ----------------------------------------------------------------- trace

def merge_trace(s, rep_trace, rep, out_path):
    """One Chrome trace with the server (pid 1), generator (pid 2),
    replay (pid 3) and set-up (pid 4) spans on run.py's clock. The
    server's clock is aligned by matching request flows; returns the
    per-layer self times of the matched requests."""
    td = s['trace_dir']
    with open(os.path.join(td, 'server.json')) as f:
        srv = json.load(f)['traceEvents']
    with open(os.path.join(td, 'generator.json')) as f:
        gtr = json.load(f)['traceEvents']
    with open(rep_trace) as f:
        rtr = json.load(f)['traceEvents']
    g_off = s['gen']['clock_epoch_us']
    # Server spans bound to a flow: flow points sit at span midpoints.
    by_mid = {(e['tid'], round(e['ts'] + e['dur'] / 2, 1)): e
              for e in srv if e.get('ph') == 'X'}
    flows = {}
    for e in srv:
        if e.get('ph') in ('s', 't', 'f'):
            x = by_mid.get((e['tid'], round(e['ts'], 1)))
            if x is not None:
                flows.setdefault(int(e['id'], 16), []).append(x)
    reqs = [e for e in gtr if e.get('ph') == 'X']
    matched = []
    for e in reqs:
        rid = e['args']['v']
        # Server connection ids start at 16; the generator's four
        # connections are among the first accepted.
        for conn in range(16, 48):
            spans = flows.get(lm.trace_id_of(conn, rid))
            if spans:
                matched.append((e, spans))
                break
    self_us = {}
    if matched:
        # Server clock offset: the tightest bound that puts no server
        # span before its request left the generator.
        off = max(e['ts'] + g_off - min(x['ts'] for x in sp)
                  for e, sp in matched)
        for e, sp in matched:
            lo = e['ts'] + g_off
            hi = lo + e['dur']
            iv = [(x['ts'] + off, x['dur']) for x in sp]
            self_us.setdefault('client (wire, kernel, generator)', []).append(
                e['dur'] - lm.union_us(iv, lo, hi))
            for x in sp:
                self_us.setdefault('server ' + x['name'], []).append(x['dur'])
    else:
        off = 0.0
    merged = []
    for pid, events, shift in ((1, srv, off), (2, gtr, g_off),
                               (3, rtr, rep['clock_epoch_us'])):
        for e in events:
            e = dict(e)
            e['pid'] = pid
            if 'ts' in e:
                e['ts'] = e['ts'] + shift
            merged.append(e)
    for name, t, dur in s['spans']:
        merged.append({'ph': 'X', 'pid': 4, 'tid': 0, 'ts': t, 'dur': dur,
                       'name': name})
    for pid, name in ((1, 'lazyper_cli serve'), (2, 'lpbench_gen phases'),
                      (3, 'lpbench_gen replay'), (4, 'run.py set-up')):
        merged.append({'ph': 'M', 'pid': pid, 'name': 'process_name',
                       'args': {'name': name}})
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, 'w') as f:
        json.dump({'traceEvents': merged, 'displayTimeUnit': 'ms'}, f)
    return {k: (statistics.median(v), len(v)) for k, v in self_us.items()}


# ------------------------------------------------------------------ main

def run_workload(wl, seed, seconds, rate, trace):
    os.makedirs(os.path.join(ROOT, '.bench_build'), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix='lpbench-run-',
                           dir=os.path.join(ROOT, '.bench_build'))
    try:
        log('%s seed %d: served phases' % (wl, seed))
        s = served(tmp, wl, seed, seconds, rate, False)
        log('%s seed %d: simulator' % (wl, seed))
        sim = simulate(wl, seed)
        e2e = end_to_end(s, sim)
        bad = checks(s, sim)
        attempted = s['gen']['attempted'] + 2 * SIM_OPS
        failed = s['gen']['failed'] + (0 if sim['verified'] else SIM_OPS)
        result = {'workload': wl, 'seed': seed, 'e2e': e2e, 'served': s,
                  'sim': sim, 'bad': bad}
        if trace:
            log('%s seed %d: traced pass' % (wl, seed))
            ts = served(tmp, wl, seed, seconds, rate, True)
            rep_trace = os.path.join(ts['trace_dir'], 'replay.json')
            rep = replay(wl, seed, rep_trace)
            bad += ['traced pass: ' + b for b in checks(ts, sim)]
            if rep['failed']:
                bad.append('replay: %d store results differ from the model'
                           % rep['failed'])
            attempted += ts['gen']['attempted'] + rep['ops']
            failed += ts['gen']['failed'] + rep['failed']
            # Per-layer numbers explain the untraced pass; the traced
            # one only gives spans, self times and the overhead.
            layers = per_layer(s, sim, rep)
            traced = end_to_end(ts, sim)
            layers.update((name, e2e[name]) for name, _ in UNGATED)
            layers['trace.overhead_frac'] = statistics.mean(
                1.0 - traced[m] / e2e[m] for m in ('ops_s', 'scan_ops_s', 'txn_s'))
            out = os.path.join(TRACES, '%s-seed%d.json' % (wl, seed))
            result['self_us'] = merge_trace(ts, rep_trace, rep, out)
            result['trace_file'] = os.path.relpath(out, ROOT)
            result['layers'] = layers
        result['attempted'] = attempted
        result['failed'] = failed
        return result
    finally:
        Server.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)


def report(r, rate, fp):
    """Human-readable tables on stdout."""
    s = r['served']
    print('== lpbench workload %s, seed %d ==' % (r['workload'], r['seed']))
    print('machine: %s' % json.dumps(fp, sort_keys=True))
    print('run: %s' % json.dumps({
        'seed': r['seed'], 'ycsb_a_offered_rate_s': rate,
        'ycsb_e_headroom': s['headroom'],
        'rounds': ROUNDS,
        'windows_s': {k: round(sum(w['seconds'] for w in v), 3)
                      for k, v in s['phases'].items()}},
        sort_keys=True))
    print('end-to-end:')
    for name, unit in E2E + UNGATED:
        print('  %-28s %14.4f %s' % (name, r['e2e'][name], unit))
    if 'layers' in r:
        print('per-layer:')
        for name, unit in PER_LAYER:
            print('  %-28s %14.4f %s' % (name, r['layers'][name], unit))
        print('self time per layer, matched request spans (%s):'
              % r['trace_file'])
        for name, (med, n) in sorted(r['self_us'].items()):
            print('  %-36s p50 %10.2f us  (%d spans)' % (name, med, n))
    print('checks: %s' % ('all passed' if not r['bad'] else
                          '; '.join(r['bad'])))


def main():
    # A SIGTERM unwinds like an error, so every server and generator
    # this run started is stopped and its scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', default='all',
                    choices=sorted(WORKLOADS) + ['all'])
    ap.add_argument('--seed', type=int, default=1)
    ap.add_argument('--seconds', type=float, default=30)
    ap.add_argument('--trace', type=int, default=0, choices=(0, 1))
    ap.add_argument('--ycsb-a-rate', type=float, default=14000,
                    help='open-loop offered rate of ycsb-a, requests/s')
    args = ap.parse_args()
    try:
        build()
        fp = fingerprint()
        names = sorted(WORKLOADS) if args.workload == 'all' else [args.workload]
        results = [run_workload(wl, args.seed, args.seconds, args.ycsb_a_rate,
                                args.trace == 1) for wl in names]
    except (BenchError, OSError, subprocess.SubprocessError) as ex:
        log('cannot run: %s' % ex)
        return 1
    for r in results:
        report(r, args.ycsb_a_rate, fp)
    ok = all(not r['bad'] and r['failed'] == 0 for r in results)
    attempted = sum(r['attempted'] for r in results)
    failed = sum(r['failed'] for r in results)
    table = PER_LAYER if args.trace else E2E
    metrics = {}
    for r in results:
        vals = r['layers'] if args.trace else r['e2e']
        prefix = '' if len(results) == 1 else r['workload'] + '/'
        for name, unit in table:
            metrics[prefix + name] = {'value': vals[name], 'unit': unit}
    print(json.dumps({'correct': ok, 'attempted': attempted, 'failed': failed,
                      'metrics': metrics}))
    return 0 if ok else 1


if __name__ == '__main__':
    sys.exit(main())
