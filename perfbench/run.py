#!/usr/bin/env python3
"""Benchmark of the CDSSpec checker under its shipped defaults.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `perfbench/bench.exe` and
`bin/cdsspec_run.exe` with dune into .bench_build/, runs workload W for
about S seconds and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Workloads, metrics and
the layer map are described in perfbench/NOTES.md.

Every pass of an in-process workload runs in a fresh worker process.
serve-warm drives a `cdsspec_run serve` daemon on a private socket and
store under .bench_out/. Every child process is stopped before exit.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BUILD_DIR = '.bench_build'
OUT_DIR = '.bench_out'
WORKER = os.path.join(BUILD_DIR, 'default', 'perfbench', 'bench.exe')
CLI = os.path.join(BUILD_DIR, 'default', 'bin', 'cdsspec_run.exe')
KNOWN = os.path.join(os.path.dirname(os.path.abspath(__file__)), 'known')
SPEC_FILE = 'BENCHMARK.json'
WORKLOADS = ('registry', 'inject', 'fuzz-oversized', 'registry-fuzz', 'serve-warm')
MIN_PASSES = 2  # per run, so every job's work counts are compared
SETUP_SPAWNS = 15  # set-up-only worker starts per in-process run
SERVE_SEGMENTS = 2  # daemon set-ups per untraced serve-warm run
RUN_LIMIT_S = 170   # a run ends within 180 s after the build

CHILDREN = []


class BenchError(Exception):
    pass


def spawn(argv, **kw):
    p = subprocess.Popen(argv, **kw)
    CHILDREN.append(p)
    return p


def stop_children():
    for p in CHILDREN:
        if p.poll() is None:
            p.terminate()
    for p in CHILDREN:
        try:
            p.wait(timeout=5)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


# ---------------------------------------------------------------------------
# Build


def build():
    if not (os.path.isfile('dune-project') and os.path.isdir('lib') and os.path.isdir('bin')):
        raise BenchError('not the root of a checkout: dune-project, lib/ or bin/ is missing')
    env = dict(os.environ, DUNE_CACHE='disabled')
    r = subprocess.run(['dune', 'build', '--root', '.', '--build-dir', BUILD_DIR,
                        '--display', 'quiet', './perfbench/bench.exe', './bin/cdsspec_run.exe'],
                       env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850, check=False)
    if r.returncode != 0:
        raise BenchError(f'dune build failed with exit {r.returncode}')


# ---------------------------------------------------------------------------
# Running workers


def read_result(p, deadline, what):
    """Wait for [p] and return its last stdout line as JSON."""
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        rc = p.wait()
    finally:
        timer.cancel()
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f'{what}: worker exited {rc}')
    return json.loads(lines[-1])


def worker_pass(workload, seed, traced, spans, deadline):
    argv = [WORKER, 'pass', workload, '--seed', str(seed), '--trace', '1' if traced else '0']
    if spans:
        argv += ['--spans', spans]
    t0 = time.monotonic()
    p = spawn(argv, stdout=subprocess.PIPE, text=True)
    if p.stdout.readline().strip() != 'ready':
        p.kill()
        raise BenchError(f'{workload}: worker did not start')
    setup = time.monotonic() - t0
    return setup, read_result(p, deadline, workload)


def worker_setup(workload):
    """Time from spawn to "ready" of a worker that exits right after it."""
    t0 = time.monotonic()
    p = spawn([WORKER, 'pass', workload, '--setup-only'], stdout=subprocess.PIPE, text=True)
    ready = p.stdout.readline().strip() == 'ready'
    setup = time.monotonic() - t0
    p.stdout.read()
    if not ready or p.wait(timeout=60) != 0:
        raise BenchError(f'{workload}: set-up-only worker failed')
    return setup


def vm_hwm_mb(pid):
    with open(f'/proc/{pid}/status') as f:
        for line in f:
            if line.startswith('VmHWM:'):
                return int(line.split()[1]) / 1024.0
    raise BenchError('VmHWM missing')


def serve_segment(seed, seconds, traced, spans, deadline):
    """One daemon lifetime: spawn, cold fill, warm-up, timed closed loop."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix='serve-', dir=OUT_DIR)
    daemon = None
    try:
        t0 = time.monotonic()
        log_path = os.path.join(tmp, 'daemon.log')
        with open(log_path, 'w') as log:
            # The socket path is relative to the temp dir, which keeps it
            # under the Unix socket path limit wherever the checkout is.
            daemon = spawn([os.path.abspath(CLI), 'serve', '--socket', 's.sock', '--jobs', '2',
                            '--store', 'store'], cwd=tmp, stdout=log, stderr=log)
        # The daemon prints "serving" once it listens and its store is open.
        while True:
            with open(log_path) as log:
                if 'serving' in log.read():
                    break
            if daemon.poll() is not None or time.monotonic() > deadline:
                raise BenchError('serve: daemon did not start')
            time.sleep(0.005)
        argv = [os.path.abspath(WORKER), 'serve', '--socket', 's.sock', '--store', 'store',
                '--seed', str(seed), '--seconds', str(seconds), '--trace', '1' if traced else '0']
        if spans:
            argv += ['--spans', os.path.abspath(spans)]
        client = spawn(argv, cwd=tmp, stdout=subprocess.PIPE, text=True)
        filled = json.loads(client.stdout.readline())['filled']
        setup = time.monotonic() - t0
        result = read_result(client, deadline, 'serve-warm')
        rss = vm_hwm_mb(daemon.pid)
        return setup, rss, filled, result
    finally:
        if daemon is not None and daemon.poll() is None:
            daemon.terminate()
            daemon.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def calibrate():
    p = spawn([WORKER, 'calib'], stdout=subprocess.PIPE, text=True)
    return read_result(p, time.monotonic() + 60, 'calib')


# ---------------------------------------------------------------------------
# Known answers and correctness


def load_tsv(name):
    rows = []
    with open(os.path.join(KNOWN, name)) as f:
        for line in f:
            if line.strip() and not line.startswith('#'):
                rows.append(line.rstrip('\n').split('\t'))
    return rows


def known_answers(workload):
    """Expected verdict per job name."""
    if workload == 'inject':
        return {f'{b}/{site}': det for b, site, _to, det in load_tsv('inject.tsv')}
    # A fuzz job is one campaign seed over the whole oversized suite.
    bug = any(r[2] == 'bug' for r in load_tsv('fuzz.tsv'))
    fuzz = {'oversized': 'bug' if bug else 'ok'}
    if workload == 'fuzz-oversized':
        return fuzz
    registry = {f'{r[0]}/{r[1]}': r[2] for r in load_tsv('registry.tsv')}
    return {**registry, **fuzz} if workload == 'registry-fuzz' else registry


def job_fails(workload, job, expected):
    """True if one job's outcome disagrees with the known answers."""
    name = job['job'].split('#')[0]
    if name not in expected:
        return True
    if workload == 'inject':
        # Every injection the seed detects must still be detected; a
        # different detection class is reported, not failed.
        return expected[name] != 'missed' and job['detection'] == 'missed'
    if job.get('ok') is False:
        return True
    if (expected[name] == 'bug') != bool(job['bugs']):
        return True
    if workload == 'serve-warm':
        return job['store'] != ('miss' if job['phase'] == 'cold' else 'hit')
    return False


def flipped(workload, expected):
    """The known answers with one entry flipped on purpose."""
    bad = dict(expected)
    if workload == 'inject':
        name = next(n for n, d in bad.items() if d == 'missed')
        bad[name] = 'builtin'
    else:
        name = next(iter(bad))
        bad[name] = 'ok' if bad[name] == 'bug' else 'bug'
    return bad


# Work counts that serial exploration repeats exactly.
REPEAT_KEYS = ('explored', 'commits', 'restores', 'graphs', 'coverage')


def repeat_drift(jobs):
    """Jobs whose work counts differ between passes."""
    seen, drift = {}, set()
    for j in jobs:
        counts = tuple(j.get(k) for k in REPEAT_KEYS)
        if seen.setdefault(j['job'], counts) != counts:
            drift.add(j['job'])
    return sorted(drift)


def known_drift(workload, jobs):
    """Changes against the seed's answers that are reported, not failed."""
    notes = set()
    if workload == 'inject':
        expected = {f'{b}/{s}': d for b, s, _t, d in load_tsv('inject.tsv')}
        for j in jobs:
            if expected.get(j['job']) not in (None, j['detection']):
                notes.add(f"{j['job']}: {expected[j['job']]} -> {j['detection']}")
    elif workload in ('registry', 'registry-fuzz'):
        expected = {f'{r[0]}/{r[1]}': r[5] for r in load_tsv('registry.tsv')}
        for j in jobs:
            if j['job'] in expected and j['decided'] and str(j['graphs']) != expected[j['job']]:
                notes.add(f"{j['job']}: {expected.get(j['job'])} -> {j['graphs']} graphs")
    return sorted(notes)


# ---------------------------------------------------------------------------
# Statistics


def pct(values, p):
    """Percentile by linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def ratio(a, b):
    return a / b if b else 0.0


def tail_ok(n, p):
    return n * (100 - p) / 100.0 >= 10


def latency(ms):
    """Job latency percentiles, each only with ten samples beyond it."""
    out = {'jobs': len(ms)}
    for p in (50, 90, 99):
        out[f'job_p{p}_ms'] = pct(ms, p) if tail_ok(len(ms), p) else None
    return out


# ---------------------------------------------------------------------------
# Workloads


def run_in_process(workload, seed, seconds, trace, deadline):
    """Passes in fresh worker processes until [seconds] would be exceeded,
    after SETUP_SPAWNS set-up-only starts. With --trace 1, passes alternate
    untraced and traced. Returns the passes and every set-up time."""
    setups = [worker_setup(workload) for _ in range(SETUP_SPAWNS)]
    passes = []
    t0 = time.monotonic()
    while True:
        n = len(passes)
        traced = trace and n % 2 == 1
        if n >= MIN_PASSES:
            walls = [p[1]['wall_s'] for p in passes]
            if time.monotonic() - t0 + statistics.median(walls) > seconds:
                break
        if time.monotonic() > deadline - 30:
            raise BenchError(f'{workload}: out of time after {n} passes')
        spans = os.path.join(OUT_DIR, f'spans-{workload}-{n}.jsonl') if traced else None
        setup, result = worker_pass(workload, seed, traced, spans, deadline)
        passes.append((setup, result))
    return passes, setups + [s for s, _ in passes]


def in_process_e2e(passes, setups):
    jobs = [j for _, r in passes for j in r['jobs']]
    walls = [r['wall_s'] for _, r in passes]
    metrics = {
        # The mean, not the median: the host slows identical work by up to
        # half for seconds to minutes at a time, and the mean over the
        # whole run averages more of those phases than a median does.
        'verdict_wall_s': statistics.mean(walls),
        'setup_s': statistics.median(setups),
        'peak_rss_mb': statistics.median(r['peak_rss_mb'] for _, r in passes),
        'decided_share': ratio(sum(j['decided'] for j in jobs),
                               sum(j['explorations'] for j in jobs)),
        'jobs_per_s': len(jobs) / sum(walls),
    }
    report = dict(latency([j['ms'] for j in jobs]), passes=len(passes), setups=len(setups),
                  pass_wall_median_s=statistics.median(walls), pass_wall_min_s=min(walls),
                  pass_wall_max_s=max(walls))
    return metrics, report


def in_process_layers(passes):
    """Per-layer metrics of the traced passes, and the absolute times behind
    them for the report."""
    traced = [r for _, r in passes if r['traced']]
    untraced = [r for _, r in passes if not r['traced']]
    r = traced[0]
    jobs = r['jobs']
    # Exhaustive jobs report `explored`, fuzz jobs `executions`; a
    # registry-fuzz pass has both kinds.
    mc_jobs = [j for j in jobs if 'explored' in j]
    fuzz_jobs = [j for j in jobs if 'executions' in j]

    def tot(k, of=jobs):
        return sum(j.get(k, 0) for j in of)

    def med(f):
        return statistics.median(f(x) for x in traced)

    wall = med(lambda x: x['wall_s'])
    explore_s = med(lambda x: x['mc_explore_s'])
    fuzz_s = med(lambda x: x['fuzz_run_s'])
    checker_s = med(lambda x: x['checker_s'])
    mc_self = explore_s - med(lambda x: x['mc_checker_s'])
    fuzz_self = fuzz_s - med(lambda x: x['fuzz_checker_s'])
    execs = tot('explored') + tot('executions')
    commits = tot('commits')
    m = {
        'c11.commits': commits,
        'c11.commits_per_exec': ratio(commits, tot('explored')),
        'c11.rf_queries': tot('rf_queries'),
        'c11.rf_fast_ratio': ratio(tot('rf_fast'), tot('rf_queries')),
        'c11.rf_rejected': tot('rf_rejected'),
        'mc.explore_share': ratio(explore_s, wall),
        'mc.engine_self_share': ratio(mc_self, wall),
        'mc.commits_per_s': ratio(commits, mc_self),
        'mc.explored': tot('explored'),
        'mc.feasible': tot('feasible', mc_jobs),
        'mc.distinct_graphs': tot('graphs'),
        'mc.useful_ratio': ratio(tot('graphs'), tot('explored')),
        'mc.pruned_equiv': tot('pruned_equiv'),
        'mc.pruned_sleep_set': tot('pruned_sleep_set'),
        'mc.pruned_loop_bound': tot('pruned_loop_bound', mc_jobs),
        'mc.snapshots': tot('snapshots'),
        'mc.restores': tot('restores'),
        'mc.fiber_switches': tot('fiber_switches'),
        'mc.inline_ops': tot('inline_ops'),
        'core.checker_share': ratio(checker_s, wall),
        'core.checks_per_s': ratio(r['checker_calls'], checker_s),
        'core.checker_calls': r['checker_calls'],
        'core.cache_hit_ratio': ratio(tot('cache_hits'),
                                       tot('cache_hits') + tot('cache_misses')),
        'core.violations': tot('violations'),
        'core.histories_truncated': tot('histories_truncated'),
        'fuzz.run_share': ratio(fuzz_s, wall),
        'fuzz.engine_self_share': ratio(fuzz_self, wall),
        'fuzz.executions': tot('executions'),
        'fuzz.coverage': tot('coverage'),
        'fuzz.coverage_ratio': ratio(tot('coverage'), tot('executions')),
        'fuzz.pruned_loop_bound': tot('pruned_loop_bound', fuzz_jobs),
        'gc.minor_words_per_exec': ratio(r['minor_words'], execs),
        'gc.major_words': r['major_words'],
        'gc.major_collections': r['major_collections'],
        'trace.overhead_share': wall / statistics.median(x['wall_s'] for x in untraced) - 1.0,
    }
    report = {
        'mc.explore_s': explore_s,
        'mc.engine_self_s': mc_self,
        'mc.engine_ns_per_commit': ratio(mc_self, commits) * 1e9,
        'core.checker_s': checker_s,
        'core.checker_us_per_call': ratio(checker_s, r['checker_calls']) * 1e6,
        'fuzz.run_s': fuzz_s,
        'fuzz.engine_self_s': fuzz_self,
        'traced_wall_s': wall,
        'traced_passes': len(traced),
        'untraced_passes': len(untraced),
    }
    return m, report


def run_serve(seed, seconds, trace, deadline):
    segments = 1 if trace else SERVE_SEGMENTS
    spans = os.path.join(OUT_DIR, 'spans-serve-warm.jsonl') if trace else None
    return [serve_segment(seed, seconds / segments, trace, spans, deadline)
            for _ in range(segments)]


def serve_jobs(segments):
    fill = [j for _, _, filled, _ in segments for j in filled]
    timed = [j for _, _, _, r in segments for p in r['passes'] for j in p['jobs']]
    return fill, timed


def serve_e2e(segments):
    _, timed = serve_jobs(segments)
    passes = [p for _, _, _, r in segments for p in r['passes']]
    window = sum(r['window_s'] for _, _, _, r in segments)
    ms = [j['ms'] for j in timed]
    metrics = {
        'verdict_wall_s': statistics.median(p['wall_s'] for p in passes),
        'setup_s': statistics.median(s for s, _, _, _ in segments),
        'peak_rss_mb': statistics.median(rss for _, rss, _, _ in segments),
        'decided_share': ratio(sum(j['decided'] for j in timed), len(timed)),
        'jobs_per_s': len(timed) / window,
    }
    return metrics, dict(latency(ms), segments=len(segments), passes=len(passes))


def serve_layers(segments):
    """Per-layer metrics seen from outside the daemon: result events,
    round-trip spans and Store.load timings."""
    _, _, _, r = segments[0]
    passes = r['passes']
    traced = [p for p in passes if p['traced']]
    untraced = [p for p in passes if not p['traced']]
    jobs = [j for p in passes for j in p['jobs']]
    one = traced[0]['jobs']
    total_ms = sum(j['ms'] for j in jobs)
    server_ms = sum(j['server_ms'] for j in jobs)
    explored = sum(j['explored'] for j in one)
    graphs = sum(j['graphs'] for j in one)
    loads = r['store_load_ms']
    kb = r['store_entry_kb']
    m = {
        'mc.explored': explored,
        'mc.feasible': sum(j['feasible'] for j in one),
        'mc.distinct_graphs': graphs,
        'mc.useful_ratio': ratio(graphs, explored),
        'store.hits': sum(j['store'] == 'hit' for j in one),
        'store.misses': sum(j['store'] == 'miss' for j in one),
        'store.entry_kb': statistics.mean(kb),
        'store.load_mb_per_s': ratio(sum(kb) * len(loads) / len(kb) / 1024.0, sum(loads) / 1000.0),
        'serve.accept_share': ratio(sum(j['accept_ms'] for j in jobs), total_ms),
        'serve.explore_share': ratio(server_ms, total_ms),
        'serve.overhead_share': ratio(total_ms - server_ms, total_ms),
        'serve.bytes_per_job': statistics.mean(j['bytes'] for j in jobs),
        'trace.overhead_share': (statistics.median(p['wall_s'] for p in traced)
                                 / statistics.median(p['wall_s'] for p in untraced) - 1.0),
    }
    report = {'jobs': len(jobs), 'store_loads': len(loads),
              'store_load_misses': r['store_load_misses']}
    for name, vals in (('store.load_ms', loads),
                       ('serve.accept_ms', [j['accept_ms'] for j in jobs]),
                       ('serve.server_explore_ms', [j['server_ms'] for j in jobs]),
                       ('serve.overhead_ms', [j['ms'] - j['server_ms'] for j in jobs])):
        report[name + ' p50'] = pct(vals, 50)
        report[name + ' p99'] = pct(vals, 99) if tail_ok(len(vals), 99) else None
    return m, report


def with_units(spec, kind, values):
    """The result line's metrics of [kind] ('end_to_end' or 'per_layer'),
    in BENCHMARK.json's order and units. A per-layer metric of a layer the
    workload does not reach reads 0."""
    out = {}
    for metric in spec[kind]:
        name = metric['name']
        if name not in values and kind == 'end_to_end':
            raise BenchError(f'metric {name} was not measured')
        out[name] = {'value': values.get(name, 0), 'unit': metric['unit']}
    unknown = set(values) - set(out)
    if unknown:
        raise BenchError(f'metrics missing from BENCHMARK.json: {sorted(unknown)}')
    return out


# ---------------------------------------------------------------------------
# Host facts


def host_facts(calib):
    # Only a git checkout has a revision; git is not asked to search the
    # directories above this one.
    rev = 'none (not a git checkout)'
    if os.path.isdir('.git'):
        r = subprocess.run(['git', 'rev-parse', 'HEAD'], capture_output=True, text=True,
                           timeout=10, check=False)
        rev = r.stdout.strip() or rev
    lines = 0
    for top in ('lib', 'bin'):
        for dirpath, _dirs, files in os.walk(top):
            for f in files:
                with open(os.path.join(dirpath, f), 'rb') as fh:
                    lines += fh.read().count(b'\n')
    return {
        'nproc': len(os.sched_getaffinity(0)),
        'ocaml': calib['ocaml'],
        'git_rev': rev,
        'engine_rev': calib['engine_rev'],
        'loc_lib_bin': lines,
        'host.calib_s': calib['calib_s'],
    }


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGHUP, on_signal)

    with open(SPEC_FILE) as f:
        spec = json.load(f)
    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    calib = calibrate()
    w, trace = args.workload, bool(args.trace)

    if w == 'serve-warm':
        segments = run_serve(args.seed, args.seconds, trace, deadline)
        fill, timed = serve_jobs(segments)
        all_jobs = fill + timed
        # Warm passes repeat exactly, and every job's graph count equals
        # the cold fill's: the store must reproduce the cold verdicts.
        cold = {j['job']: j['graphs'] for j in fill if j['phase'] == 'cold'}
        drift = repeat_drift(timed) + sorted(
            {j['job'] for j in all_jobs if j['graphs'] != cold.get(j['job'])})
        metrics, report = (serve_layers if trace else serve_e2e)(segments)
    else:
        passes, setups = run_in_process(w, args.seed, args.seconds, trace, deadline)
        all_jobs = [j for _, r in passes for j in r['jobs']]
        drift = repeat_drift(all_jobs)
        metrics, report = in_process_layers(passes) if trace else in_process_e2e(passes, setups)

    expected = known_answers(w)
    failed = sum(job_fails(w, j, expected) for j in all_jobs)
    bad = flipped(w, expected)
    flip_caught = sum(job_fails(w, j, bad) for j in all_jobs) > failed
    correct = failed == 0 and not drift and flip_caught
    result = with_units(spec, 'per_layer' if trace else 'end_to_end', metrics)

    print('host: ' + json.dumps(host_facts(calib), sort_keys=True))
    print('samples: ' + json.dumps(report, sort_keys=True))
    for note in known_drift(w, all_jobs):
        print(f'changed (not a failure): {note}')
    for job in drift:
        print(f'FAIL repeat drift: {job} work counts differ between passes or from the cold fill')
    if not flip_caught:
        print('FAIL self-check: a flipped known answer was not counted as a failure')
    for name, m in result.items():
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}")
    print(f'{w} failed_share = {failed}/{len(all_jobs)}')
    print(json.dumps({'correct': correct, 'attempted': len(all_jobs), 'failed': failed,
                      'metrics': result}))


if __name__ == '__main__':
    status = 0
    try:
        main()
    except BenchError as e:
        print(f'perfbench: {e}', file=sys.stderr)
        status = 1
    finally:
        stop_children()
    sys.exit(status)
