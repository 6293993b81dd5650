"""Benchmark of the gnsenum tree walk, run through the user's entry point.

Usage, from the repository root:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Each repetition calls gnsenum.cli.main(["count", ..., "--format", "json",
"--output", FILE]) in a fresh interpreter, because every CLI user pays for
cold caches, and checks every output row against the recorded tables in
gnsenum.counting.  BENCHMARK.json at the repository root names the
workloads, the reason for each and the metrics with their units;
interactions.json next to this file says what each per-layer metric is
and which end-to-end metric on which workload it should move.

End-to-end metrics, each the median over the good repetitions of one
workload: wall_s runs from the count call until the JSON output is
written (plus the resume on engine-d3); nodes_per_s is the workload's
node count over wall_s; cpu_s is user plus system CPU of the command
and its workers over the same interval; peak_rss_mb is the highest peak
resident memory among them; setup_s runs from starting the interpreter
through import and CLI parsing to the start of the walk, one sample per
invocation.  These times are scaled to the reference speed (REF_PROBE_S
below); the unscaled wall time and the probe are printed beside them.
The per-layer span times of --trace 1 are not scaled.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced repetitions; the traced ones wrap each
layer's functions from outside (see spans.py) and report the per-layer
metrics and the tracing overhead, and check the zero predictions of
interactions.json on every traced repetition.  --seconds bounds the time
spent on repetitions of each workload; at least one always runs.  The
inputs are fixed enumeration cells with no random part, so --seed only
shuffles the order of repetitions and of traced/untraced pairs.

Standard output ends with one JSON line: correct, attempted and failed
(checked and failed table cells) and the metrics; correct is false when a
cell failed or a zero prediction was violated.  A run writes its full
record, with the machine and load, to .bench_out/results/.  The exit code
is 1 when correct is false and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from child import steal_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
INTERACTIONS = json.loads((HERE / "interactions.json").read_text())["per_layer"]
TRACE_OVERHEAD = "bench.trace_overhead_s"

# the whole command must end within 180 s; no invocation may run past this
DEADLINE_S = 170.0

# Times are reported at the reference speed: each invocation's times are
# multiplied by REF_PROBE_S over its probe_s, the time of a reference loop
# sampled all through the invocation (child.py).  On a shared 2-vCPU Xeon
# VM the speed changed by up to 2x within seconds and stayed off for
# minutes, so the median wall time of a 30 s run spread by 6-18% over ten
# runs (interquartile range over median), and no longer run steadied it;
# the walk and the loop slow alike, and the scaled times spread by 1-4%.
# REF_PROBE_S is about the loop's time on that VM when it is quiet, so
# there the scaled times read as seconds.
REF_PROBE_S = 200e-6


@dataclass(frozen=True)
class Workload:
    """One count command.  With genus set it runs the fixed-genus tree;
    with resume set it checkpoints every level and then runs again,
    resuming from the final checkpoint."""

    name: str
    dim: int
    mode: str
    gmax: Optional[int] = None
    genus: Optional[int] = None
    threads: int = 1
    resume: bool = False

    def argv(self, output, checkpoint):
        args = ["count", "--dim", str(self.dim), "--order", "lex"]
        if self.genus is not None:
            args += ["--tree", "fixed-genus", "--genus", str(self.genus)]
        else:
            args += ["--mode", self.mode, "--gmax", str(self.gmax)]
        if self.threads > 1:
            args += ["--threads", str(self.threads)]
        if self.resume:
            args += ["--checkpoint", str(checkpoint)]
        return args + ["--format", "json", "--output", str(output)]

    def expected(self):
        """The recorded row for every genus the command prints.  Genus 0
        is N^d alone, which the recorded tables leave out."""
        from gnsenum import counting

        mode = "full" if self.mode == "all" else "representative"
        genera = [self.genus] if self.genus is not None else range(self.gmax + 1)
        rows = {}
        for g in genera:
            rows[g] = 1 if g == 0 else counting.reference_value(mode, self.dim, g)
            if rows[g] is None:
                raise ValueError(f"{self.name}: no recorded count at genus {g}")
        return rows


WORKLOADS = {w.name: w for w in [
    Workload("full-d2", 2, "all", gmax=10),
    Workload("rep-d6", 6, "representatives", gmax=5),
    Workload("fixed-d2", 2, "representatives", genus=9),
    Workload("engine-d3", 3, "all", gmax=8, threads=2, resume=True),
]}

# run once, untimed, before the workloads: it writes the bytecode caches
# of a fresh checkout, so no timed start pays for compiling them
WARM_UP = Workload("warm-up", 2, "all", gmax=2)


def _invoke(argv, *, trace=False, spans_path=None, cpu=None, started):
    """Run child.py once, pinned to cpu unless it is None; its JSON
    result, or None when it failed."""
    spec = {"src": str(SRC), "argv": argv, "trace": trace,
            "spans_path": spans_path, "cpu": cpu}
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    spec["steal_spawn"] = steal_s([cpu] if cpu is not None
                                  else os.sched_getaffinity(0))
    spec["t_spawn"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the session holds the pool workers too
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        print(f"invocation timed out: {argv}", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    if result is None or result["code"] != 0:
        print(f"invocation failed: {argv}\n{err[-2000:]}", file=sys.stderr)
        return None
    return result


def _read_rows(path):
    try:
        doc = json.loads(Path(path).read_text())
        return {row["g"]: row["count"] for row in doc["rows"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _failed_cells(got, want):
    """Cells of want that got misses or gets wrong, plus rows want lacks."""
    if got is None:
        return len(want)
    return (sum(got.get(g) != c for g, c in want.items())
            + len(set(got) - set(want)))


def _run_rep(wl, tmp, *, trace, started, spans_path=None, cpu=None):
    """One repetition: the walk, and on a resume workload the rerun.

    Returns the checked and failed cell counts, the timings summed (peak
    memory maxed) over the invocations, and, when traced, the span
    summaries and counters of every invocation.
    """
    expected = wl.expected()
    out, ckpt = tmp / "out.json", tmp / "ckpt.txt"
    for stale in (out, ckpt):
        stale.unlink(missing_ok=True)
    argv = wl.argv(out, ckpt)
    runs = [_invoke(argv, trace=trace, spans_path=spans_path, cpu=cpu,
                    started=started)]
    walked = _read_rows(out) if runs[0] else None
    checked, failed = len(expected), _failed_cells(walked, expected)
    if wl.resume:
        out.unlink(missing_ok=True)
        resume_spans = spans_path and spans_path.replace(".tsv", "-resume.tsv")
        runs.append(_invoke(argv, trace=trace, spans_path=resume_spans,
                            cpu=cpu, started=started))
        resumed = _read_rows(out) if runs[1] else None
        checked += len(expected)
        failed += _failed_cells(resumed, walked) if walked else len(expected)
    rep = {"checked": checked, "failed": failed}
    if failed == 0 and all(runs):
        # each invocation's times at the reference speed
        scale = [REF_PROBE_S / r["probe_s"] for r in runs]
        rep.update(wall_s=sum(r["wall_s"] * k for r, k in zip(runs, scale)),
                   cpu_s=sum(r["cpu_s"] * k for r, k in zip(runs, scale)),
                   peak_rss_mb=max(r["peak_rss_mb"] for r in runs),
                   setup=[r["setup_s"] * k for r, k in zip(runs, scale)],
                   raw_wall_s=sum(r["wall_s"] for r in runs),
                   probe_s=statistics.mean(r["probe_s"] for r in runs))
        if trace:
            rep["layers"] = layer_metrics([r["spans"] for r in runs],
                                          [r["counters"] for r in runs])
    return rep


def layer_metrics(summaries, counters):
    """Per-layer metrics from the span summaries and counters of the
    invocations that make up one repetition."""
    spans, counts = {}, {}
    for summary in summaries:
        for name, row in summary.items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
    for c in counters:
        for name, v in c.items():
            counts[name] = counts.get(name, 0) + v

    walk = spans.get("counting.count", {}).get("total_s", 0.0)
    m = dict(counts)
    for name, row in spans.items():
        m[name + ".calls"] = row["calls"]
        m[name + ".self_s"] = row["self_s"]
        m[name + ".self_share"] = 100 * row["self_s"] / walk if walk else 0.0
    m["cli.self_s"] = m.get("cli.main.self_s", 0.0)
    m["counting.count.wall_s"] = walk
    m["trees.expand_level.wait_share"] = m.get("trees.pool_wait.self_share", 0.0)
    proposed = m.get("trees.children.proposed", 0)
    m["trees.children.accept_ratio"] = (
        m.get("trees.children.accepted", 0) / proposed if proposed else 0.0)
    calls = m.get("semigroup.removal_generators.calls", 0)
    m["semigroup.removal_generators.us_per_call"] = (
        m["semigroup.removal_generators.self_s"] / calls * 1e6 if calls else 0.0)
    # a layer that never ran has no spans and reads 0
    return {k: m.get(k, 0) for k in INTERACTIONS if k != TRACE_OVERHEAD}


def check_predictions(workload, reps):
    """Per-layer metrics that the interaction table says must read 0 on
    this workload but do not, on any of the given traced repetitions."""
    return sorted(name for name, row in INTERACTIONS.items()
                  if workload in row["zero_on"]
                  and any(r["layers"].get(name, 0) != 0 for r in reps))


def summarize(values):
    """Median and quartiles, as statistics.quantiles(n=4) gives them."""
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "min": values[0], "max": values[-1]}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": _cpu_model(), "git_commit": _git_commit()}


class _State:
    """Repetitions of one workload so far, and the time they took."""

    def __init__(self, wl):
        self.wl = wl
        self.reps = []
        self.untraced = []
        self.spent = 0.0
        self.longest = 0.0

    def fits(self, seconds, started):
        if not self.reps:
            return True
        if time.monotonic() - started + self.longest > DEADLINE_S:
            return False
        return self.spent + self.longest <= seconds


def measure(workloads, *, seconds, trace, seed):
    """Run repetitions until each workload's time is used; returns the
    per-workload state objects."""
    rng = random.Random(seed)
    started = time.monotonic()
    tmp = OUT / "tmp" / str(os.getpid())
    spans_dir = OUT / "spans"
    tmp.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(parents=True, exist_ok=True)
    states = [_State(wl) for wl in workloads]
    # a sequential workload pins its repetitions to each CPU in turn: on a
    # shared host the CPUs slow down independently of each other, and fresh
    # processes tend to land on the same one, so an unpinned run's median
    # would follow whichever CPU it happened to get
    cpus = (sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else [None])
    try:
        _invoke(WARM_UP.argv(tmp / "out.json", tmp / "ckpt.txt"), started=started)
        while True:
            live = [st for st in states if st.fits(seconds, started)]
            if not live:
                break
            rng.shuffle(live)
            for st in live:
                t0 = time.monotonic()
                cpu = cpus[len(st.reps) % len(cpus)] if st.wl.threads == 1 else None
                if trace:
                    # the pair order is shuffled so drift hits both sides
                    order = [False, True]
                    rng.shuffle(order)
                    for traced in order:
                        spans_path = str(spans_dir / f"{st.wl.name}-seed{seed}.tsv")
                        rep = _run_rep(st.wl, tmp, trace=traced, started=started,
                                       spans_path=spans_path if traced else None,
                                       cpu=cpu)
                        (st.reps if traced else st.untraced).append(rep)
                else:
                    st.reps.append(_run_rep(st.wl, tmp, trace=False,
                                            started=started, cpu=cpu))
                took = time.monotonic() - t0
                st.spent += took
                st.longest = max(st.longest, took)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return states


def report(st, trace):
    """Checked and failed cells, and the metrics with their spread, of one
    workload.  Timings come only from repetitions whose cells all passed."""
    reps = st.reps + st.untraced
    checked = sum(r["checked"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    good = [r for r in st.reps if "wall_s" in r]
    stats = {}
    if trace:
        for name in INTERACTIONS:
            if name != TRACE_OVERHEAD and good:
                stats[name] = summarize([r["layers"][name] for r in good])
        plain = [r["wall_s"] for r in st.untraced if "wall_s" in r]
        if good and plain:
            stats[TRACE_OVERHEAD] = summarize(
                [statistics.median(r["wall_s"] for r in good)
                 - statistics.median(plain)])
    else:
        if good:
            nodes = sum(st.wl.expected().values())
            for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                stats[name] = summarize([r[name] for r in good])
            stats["nodes_per_s"] = summarize([nodes / r["wall_s"] for r in good])
            stats["setup_s"] = summarize([s for r in good for s in r["setup"]])
            for name in ("raw_wall_s", "probe_s"):
                stats[name] = summarize([r[name] for r in good])
    return checked, failed, stats


def _loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (SRC / "gnsenum" / "__init__.py").is_file():
        print(f"no gnsenum package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    # printed and recorded beside the metrics, but not reported as ones
    shown = {**units, "raw_wall_s": "s", "probe_s": "s"}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    record = {"seed": args.seed, "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "environment": _environment(),
              "loadavg_before": _loadavg()}
    states = measure([WORKLOADS[n] for n in names], seconds=args.seconds,
                     trace=bool(args.trace), seed=args.seed)
    record["loadavg_after"] = _loadavg()

    print("environment: " + json.dumps({**record["environment"],
                                        "seed": args.seed,
                                        "loadavg_before": record["loadavg_before"],
                                        "loadavg_after": record["loadavg_after"]}))
    attempted = failed = violated = 0
    metrics = {}
    record["workloads"] = {}
    for st in states:
        checked, bad, stats = report(st, bool(args.trace))
        attempted += checked
        failed += bad
        name = st.wl.name
        print(f"[{name}] {why[name]}")
        error_rate = bad / checked if checked else 1.0
        print(f"[{name}] error_rate {error_rate:.6g} ({bad} of {checked} cells "
              f"failed, {len(st.reps) + len(st.untraced)} repetitions)")
        for metric, s in stats.items():
            print(f"[{name}] {metric} median {s['median']:.6g} {shown[metric]} "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
        entry = {"error_rate": error_rate, "cells": checked, "failed": bad,
                 "stats": stats}
        if args.trace:
            missed = check_predictions(name, [r for r in st.reps if "layers" in r])
            violated += len(missed)
            entry["zero_predictions_violated"] = missed
            print(f"[{name}] zero predictions: "
                  + ("hold" if not missed else "VIOLATED by " + ", ".join(missed)))
            if st.wl.threads > 1:
                print(f"[{name}] note: workers are forked, so only "
                      "parent-side spans are reported on this workload")
        record["workloads"][name] = entry
        prefix = "" if len(states) == 1 else name + "."
        for metric, s in stats.items():
            if metric in units:
                metrics[prefix + metric] = {"value": s["median"],
                                            "unit": units[metric]}

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    correct = failed == 0 and violated == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
