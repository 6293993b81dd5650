"""Span recording for the traced benchmark run.

The wrappers sit at each layer boundary, patched in where the caller looks
the name up, so the program itself carries no tracing code.  Spans stay in
memory as (name, start, end, parent) tuples and are written out once the
run ends.  A span's self time is its duration minus the time covered by
its direct child spans; calls into one thread nest, so direct children
never overlap.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor


class Recorder:
    """Spans and counters of one traced invocation."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = [-1]

    def wrap(self, name, fn, tally=None):
        """fn inside a span called name; tally(result, args) runs after it."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if tally is not None:
                tally(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name, fn):
        """fn with the lengths of its results added to counter name."""
        counters = self.counters

        def tallied(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[name] += len(result)
            return result

        tallied.__wrapped__ = fn
        return tallied

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def install(rec):
    """Patch every traced name of the gnsenum package with a span wrapper."""
    from gnsenum import canonical, counting, semigroup, trees

    counters = rec.counters

    def proposed(result, args):
        counters["trees.children.proposed"] += len(result)

    def ckpt_written(result, args):
        counters["trees.write_checkpoint.bytes"] += os.path.getsize(args[0])

    def ckpt_read(result, args):
        counters["trees.read_checkpoint.nodes"] += len(result[2])

    def orbit_true(result, args):
        counters["canonical.orbit_minimal.true"] += bool(result)

    def rep_accepted(result, args):
        counters["canonical.gapset_is_representative.accepted"] += bool(result)

    for name, span, tally in [
        ("_removal_generators", "semigroup.removal_generators", None),
        ("_extension_generators", "semigroup.extension_generators", None),
        ("special_gaps", "semigroup.special_gaps", None),
        ("_orbit_minimal", "canonical.orbit_minimal", orbit_true),
        ("_gapset_is_representative", "canonical.gapset_is_representative",
         rep_accepted),
        ("_sorted_u", "trees.sorted_u", proposed),
        ("_expand_level", "trees.expand_level", None),
        ("_write_checkpoint", "trees.write_checkpoint", ckpt_written),
        ("_read_checkpoint", "trees.read_checkpoint", ckpt_read),
    ]:
        setattr(trees, name, rec.wrap(span, getattr(trees, name), tally))
    for name in ("_full_children", "_representative_children",
                 "_equivariant_children", "_fixed_genus_children"):
        setattr(trees, name,
                rec.counted("trees.children.accepted", getattr(trees, name)))
    canonical._rep_scan = rec.wrap("canonical.rep_scan", canonical._rep_scan)
    semigroup._generators_from_scratch = rec.wrap(
        "semigroup.generators_from_scratch", semigroup._generators_from_scratch)
    counting.count = rec.wrap("counting.count", counting.count)
    trees.ProcessPoolExecutor = _traced_pool(rec)


def _traced_pool(rec):
    """A pool whose map measures payload bytes and the parent's wait.

    The bytes come from pickling each payload once more in the parent, so
    they are computed, not observed on the pipe; that pickling sits in its
    own span so it stays out of the engine's self time.
    """

    def payload_bytes(items):
        n = sum(len(pickle.dumps(x)) for x in items)
        rec.counters["trees.pickle_bytes"] += n

    measure = rec.wrap("bench.pickle_measure", payload_bytes)

    class TracedPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            items = list(iterables[0])
            measure(items)
            run = rec.wrap("trees.pool_wait",
                           lambda: list(super(TracedPool, self).map(fn, items, **kwargs)))
            return iter(run())

    return TracedPool
