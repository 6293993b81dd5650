"""The checkpoint file of a tree walk: its text, written and read back.

One header line, then one seed per line as the gap list sorted under the
walk's order, e.g. [(0,1),(1,0)]:

    gns-tree-checkpoint 3 kind=full d=2 order=lex gmax=7 seeds=71 done=0-15 counts=0:1,1:2,...

gmax is the largest genus walked (the target genus of the fixed-genus
tree), at most core.MAX_GENUS; seeds is the number of seed lines, done
the finished prefix of the seed lines (0-15 for the first 16, empty for
none), and counts the nodes per genus (zeros left out) of the levels
above the seeds and of the finished seeds' subtrees.  This module turns
fields into text and the header back into checked fields; the seed lines
come back as text, which trees.traverse accepts only when they are the
lines of a fresh seed expansion of the file's walk.
"""

from __future__ import annotations

import os
import tempfile
from functools import lru_cache

from .core import MAX_GENUS
from .semigroup import _bits

_MAGIC = "gns-tree-checkpoint"
_VERSION = 3


class CheckpointCorrupt(RuntimeError):
    pass


def _format_gapset(gaps, key):
    return str(sorted(gaps, key=key)).replace(" ", "").replace(",)", ")")


@lru_cache(maxsize=None)
def _point_text(U):
    """Each point of U as a checkpoint line spells it between its
    parentheses, by rank: '0,1' for (0, 1), '3' for (3,)."""
    return [",".join(map(str, p)) for p in U.points]


def _seed_lines(U, seeds):
    """The line of each seed over the universe U, from its gap mask, the
    node's first entry; ranks ascend as the order does, so a line lists the
    gaps in order."""
    spell = _point_text(U).__getitem__
    return ["[(" + "),(".join(map(spell, _bits(s[0]))) + ")]" if s[0] else "[]"
            for s in seeds]


def _header(kind, d, gmax, counts, n_seeds, done):
    """The header line; done counts the finished seeds, the first lines."""
    pairs = ",".join(f"{g}:{c}" for g, c in enumerate(counts) if c)
    return (f"{_MAGIC} {_VERSION} kind={kind.variant} d={d} "
            f"order={kind.order.name} gmax={gmax} seeds={n_seeds} "
            f"done={f'0-{done - 1}' if done else ''} counts={pairs}")


def _write(path, lines):
    """Replace the file at path by the lines, atomically."""
    text = "\n".join(lines) + "\n"
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".ckpt-")
    except OSError as exc:
        # name the checkpoint, not the temporary file beside it
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path, kind, d):
    """(gmax, counts, done, seed lines) of a checkpoint written for this
    tree, order and dimension, or CheckpointCorrupt.  counts is a list
    indexed by genus 0..gmax and done the number of finished seeds; the
    header must be exactly the one the writer makes for the file, and gmax
    at most MAX_GENUS, checked before anything is sized by it."""
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint: {exc}") from None
    head = lines[0].split() if lines else []
    if len(head) < 2 or head[0] != _MAGIC:
        raise CheckpointCorrupt("missing checkpoint header")
    if head[1] != str(_VERSION):
        raise CheckpointCorrupt(f"unsupported checkpoint version {head[1]!r}")
    fields = dict(tok.partition("=")[::2] for tok in head[2:])
    if fields.get("kind") != kind.variant:
        raise CheckpointCorrupt(
            f"checkpoint is for a {fields.get('kind')} tree, not {kind.variant}")
    if fields.get("order") != kind.order.name:
        raise CheckpointCorrupt(
            f"checkpoint order {fields.get('order')} does not match {kind.order.name}")
    if fields.get("d") != str(d):
        raise CheckpointCorrupt(
            f"checkpoint dimension {fields.get('d')} does not match {d}")
    bad_head = CheckpointCorrupt(f"bad checkpoint header {lines[0]!r}")
    seed_lines = lines[1:]
    try:
        gmax = int(fields["gmax"])
        if gmax > MAX_GENUS:
            raise CheckpointCorrupt(f"checkpoint gmax {gmax} is past {MAX_GENUS}, "
                                    "the largest genus a walk may have")
        done = int(fields["done"].removeprefix("0-")) + 1 if fields["done"] else 0
        counts = [0] * (gmax + 1)
        for pair in fields["counts"].split(","):
            if pair:
                g, c = map(int, pair.split(":"))
                counts[g] = c
    except (KeyError, ValueError, IndexError):
        raise bad_head from None
    # the header must be the one the writer makes for this file, so its
    # seed count holds and every field is spelled canonically
    if gmax < 0 or not 0 <= done <= len(seed_lines) or lines[0] != \
            _header(kind, d, gmax, counts, len(seed_lines), done):
        raise bad_head
    return gmax, counts, done, seed_lines
