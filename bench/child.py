"""One invocation of the gnsenum CLI in a fresh interpreter.

Usage: python3 bench/child.py SPEC

SPEC is a JSON object with the keys src (the directory holding the
gnsenum package), argv (the CLI arguments), t_spawn (the parent's
time.monotonic() just before it started this process), steal_spawn (the
parent's steal_s at that moment), trace, spans_path and cpu (the CPU to
pin this process to, or null).  The last line of standard output is a
JSON object with the CLI exit code and the timings; a traced invocation
adds its span summary and counters.

Set-up time runs from t_spawn to the call of counting.count, which is the
start of the walk; CLOCK_MONOTONIC is shared by every process on Linux.
Wall and CPU time run from that call until cli.main returns, by which time
the output file is written and closed.  CPU time and peak memory include
the worker processes, which the pool has reaped by then.

Set-up and wall time leave out the time the hypervisor ran other guests
on this process's CPUs (steal, averaged over those CPUs), which CPU time
never counts.

probe_s is the host's speed while this process ran: every PROBE_PERIOD_S
of wall time, from the start of main until cli.main returns, a timer
signal runs _reference_loop and times it, and probe_s is the mean of the
fastest nine tenths of those times (the rest were preempted).  The loop
does the walk's kind of work, so it slows with the walk when the host
does; it costs under 0.5% of the wall time.
"""

import json
import os
import resource
import signal
import sys
import time
from operator import add, sub

PROBE_PERIOD_S = 0.05

# fixed inputs of the reference loop: generators and gaps of a made-up
# two-dimensional semigroup, only there to give the loop work
_GENS = [(i % 5, i // 5) for i in range(3, 23)]
_GAPS = frozenset((i % 7, i // 7) for i in range(0, 40, 3))


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def steal_s(cpus):
    """Steal time of the given CPUs so far, per CPU, as /proc/stat counts
    it; 0 where the kernel does not report it."""
    wanted = {f"cpu{c}" for c in cpus}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(f[8]) for f in map(str.split, fh) if f and f[0] in wanted]
    except (OSError, IndexError, ValueError):
        return 0.0
    if len(ticks) != len(wanted):
        return 0.0
    return sum(ticks) / os.sysconf("SC_CLK_TCK") / len(ticks)


def _reference_loop():
    """About 0.2 ms of what the walk does most: tuple arithmetic, sets of
    tuples, sorting by a key and frozenset lookups."""
    cands = {tuple(map(add, (1, 2), a)) for a in _GENS}
    cands.update(tuple(map(add, (2, 4), a)) for a in _GENS)
    probes = sorted(_GENS, key=sum)[:6]
    hits = 0
    for x in sorted(cands, key=sum):
        for a in probes:
            q = tuple(map(sub, x, a))
            if min(q) >= 0 and q not in _GAPS:
                hits += 1
    return hits


class Probe:
    """Times of the reference loop, one per call of sample."""

    def __init__(self):
        self.times = []

    def sample(self, *_):
        t0 = time.perf_counter()
        _reference_loop()
        self.times.append(time.perf_counter() - t0)

    def probe_s(self):
        # a process too short for the timer still gets a few samples
        for _ in range(3):
            self.sample()
        fastest = sorted(self.times)[:max(1, len(self.times) * 9 // 10)]
        return sum(fastest) / len(fastest)


def main():
    spec = json.loads(sys.argv[1])
    if spec["cpu"] is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    cpus = sorted(os.sched_getaffinity(0))
    probe = Probe()
    signal.signal(signal.SIGALRM, probe.sample)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    sys.path.insert(0, spec["src"])
    import gnsenum
    from gnsenum import cli, counting

    package_dir = os.path.join(spec["src"], "gnsenum")
    if os.path.dirname(os.path.abspath(gnsenum.__file__)) != package_dir:
        print(f"imported gnsenum from {gnsenum.__file__}, not {package_dir}",
              file=sys.stderr)
        return 2

    marks = {}
    walk = counting.count

    def timed_count(*args, **kwargs):
        marks["start"] = time.monotonic()
        marks["steal"] = steal_s(cpus)
        marks["cpu"] = _cpu_s()
        return walk(*args, **kwargs)

    counting.count = timed_count
    entry = cli.main
    rec = None
    if spec["trace"]:
        from spans import Recorder, install

        rec = Recorder()
        install(rec)
        entry = rec.wrap("cli.main", cli.main)

    try:
        code = entry(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    end = time.monotonic()
    steal_end = steal_s(cpus)
    signal.setitimer(signal.ITIMER_REAL, 0)
    cpu = _cpu_s()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {"code": code, "probe_s": probe.probe_s()}
    if "start" in marks:
        setup_steal = marks["steal"] - spec["steal_spawn"]
        out.update(setup_s=marks["start"] - spec["t_spawn"] - setup_steal,
                   wall_s=end - marks["start"] - (steal_end - marks["steal"]),
                   cpu_s=cpu - marks["cpu"],
                   peak_rss_mb=max(own, kids) / 1024)
    if rec is not None:
        out.update(spans=rec.summary(), counters=dict(rec.counters))
        if spec["spans_path"]:
            rec.dump(spec["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
