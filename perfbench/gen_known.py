#!/usr/bin/env python3
"""Regenerate the benchmark's known answers from the shipped CLI.

    python3 perfbench/gen_known.py [path/to/cdsspec_run.exe]

Writes perfbench/known/{registry,inject,fuzz}.tsv. The answers come from
`cdsspec_run check`, `cdsspec_run inject` and `cdsspec_run check --fuzz`,
never from the benchmark's own worker, so the worker is checked against
the program's user-facing commands. Rerun it only when a change is meant
to alter verdicts, and say so in the change's notes.
"""
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
KNOWN = os.path.join(HERE, 'known')
# The Fig. 8 campaign's rows, as `bench/main.exe fig8` prints them.
NOT_IN_FIG8 = {'Bounded Queue'}


def cli(exe, *args):
    r = subprocess.run([exe, *args], capture_output=True, text=True, check=False)
    if r.returncode not in (0, 1):
        sys.exit(f'{" ".join(args)}: exit {r.returncode}\n{r.stderr}')
    return r.stdout


def benches(exe):
    out = []
    for line in cli(exe, 'list').splitlines():
        m = re.match(r'^(\S.*?)\s+tests: (.*)$', line)
        if m:
            out.append((m.group(1), [t.strip() for t in m.group(2).split(',')]))
    return out


def registry_rows(exe, names):
    rows = []
    test_re = re.compile(r'^(.+)/(\S+): explored (\d+), feasible \d+, (\d+) distinct graphs?, '
                         r'[0-9.]+s( \(truncated\))?$')
    for name in names:
        current = None
        for line in cli(exe, 'check', name).splitlines():
            m = test_re.match(line)
            if m:
                current = [m.group(1), m.group(2), 'ok', 'no' if m.group(5) else 'yes',
                           m.group(3), m.group(4)]
                rows.append(current)
            elif line.startswith('  BUG:') and current:
                current[2] = 'bug'
    return rows


def inject_rows(exe, names):
    rows = []
    line_re = re.compile(r'^(\S+)\s+-> (\S+)\s+(.*)$')
    classes = {'detected (built-in)': 'builtin', 'detected (admissibility)': 'admissibility',
               'detected (assertion)': 'assertion', 'NOT DETECTED': 'missed'}
    for name in names:
        for line in cli(exe, 'inject', name).splitlines():
            m = line_re.match(line)
            if m:
                rows.append([name, m.group(1), m.group(2), classes[m.group(3).strip()]])
    return rows


def fuzz_rows(exe, oversized):
    rows = []
    for name, tests in oversized:
        for t in tests:
            out = cli(exe, 'check', name, '-t', t, '--fuzz', '--seed', '1',
                      '--max-executions', '50')
            rows.append([name, t, 'bug' if '  BUG:' in out else 'ok'])
    return rows


def write(path, header, rows):
    with open(path, 'w') as f:
        f.write('# ' + '\t'.join(header) + '\n')
        for r in rows:
            f.write('\t'.join(r) + '\n')


def main():
    exe = sys.argv[1] if len(sys.argv) > 1 else '_build/default/bin/cdsspec_run.exe'
    all_benches = benches(exe)
    exhaustive = [n for n, _ in all_benches if not n.endswith('(oversized)')]
    oversized = [(n, ts) for n, ts in all_benches if n.endswith('(oversized)')]
    os.makedirs(KNOWN, exist_ok=True)
    write(os.path.join(KNOWN, 'registry.tsv'),
          ['bench', 'test', 'verdict', 'decided', 'explored', 'graphs'],
          registry_rows(exe, exhaustive))
    write(os.path.join(KNOWN, 'inject.tsv'), ['bench', 'site', 'weakened_to', 'detection'],
          inject_rows(exe, [n for n in exhaustive if n not in NOT_IN_FIG8]))
    write(os.path.join(KNOWN, 'fuzz.tsv'), ['bench', 'test', 'verdict'], fuzz_rows(exe, oversized))


if __name__ == '__main__':
    main()
