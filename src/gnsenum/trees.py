"""Rooted-tree constructions that enumerate gap semigroups without repeats.

Four variants share one breadth-first engine: the full tree (every
semigroup once), the representative tree (one semigroup per permutation
orbit), the equivariant tree (semigroups fixed by the whole group), and
the fixed-genus tree (all representatives of a single genus, grown from
the ordinary semigroup).  What differs between them sits in one table,
_VARIANTS.  The engine can fan levels out over processes and can
checkpoint each level boundary to a resumable text file.  Inside it a node
is a pair of ints over one point universe per walk, ranked by the walk's
order, and the orbit test reads the same gap masks on the same universe;
GapSemigroup values are built only for the visitor and the public
children functions.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from . import semigroup
from .core import OrderSpec, check_dim, get_order, orbit_point
from .canonical import _gapset_is_representative, _orbit_minimal, is_equivariant, is_representative
# special_gaps here is the mask kernel, under the name of its public form
from .semigroup import (GapSemigroup, NotMinimalGenerator, _bits, _encode,
                        _extension_generators, _removal_generators, _sorted_u,
                        _unclosed, _universe, u_set)
from .semigroup import _special_gaps as special_gaps


class NotRepresentative(ValueError):
    pass


class NotEquivariant(ValueError):
    pass


class NotOGoodOrder(ValueError):
    pass


class CheckpointCorrupt(RuntimeError):
    pass


@dataclass(frozen=True)
class TreeKind:
    """Tree variant plus its driving order; fixed-genus also carries the
    target genus."""

    variant: str
    order: OrderSpec
    genus_target: Optional[int] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown tree variant {self.variant!r}")
        if self.variant == "fixed-genus":
            if not self.order.o_good:
                raise NotOGoodOrder(
                    f"{self.order.name} cannot drive the fixed-genus tree: "
                    "its expansion step can shoot past representatives")
            if self.genus_target is None or self.genus_target < 0:
                raise ValueError("fixed-genus tree needs genus_target >= 0")
        elif self.genus_target is not None:
            raise ValueError(
                f"genus_target only applies to the fixed-genus tree, "
                f"not {self.variant!r}")


# The child functions take a node as a (gap mask, generator mask) pair over
# a universe U ranked by the walk's order (see semigroup._Universe) and
# return their children as pairs too; limit is the largest genus walked.
# A child's generator mask is None when it lands on that genus as a
# frontier node, which is never expanded.

def _full_children(node, U, limit=None):
    gaps, gens = node
    # children on the last level walked are never expanded, so they skip
    # the generator update
    leaf = gaps.bit_count() + 1 == limit
    out = []
    for n in _sorted_u(gaps, gens):
        cg = gaps | 1 << n
        out.append((cg, None if leaf else _removal_generators(U, gens, n, cg)))
    return out


def _representative_children(node, U, limit=None):
    gaps, gens = node
    order = U.order
    points = U.points
    leaf = gaps.bit_count() + 1 == limit
    out = []
    for n in _sorted_u(gaps, gens):
        cg = gaps | 1 << n
        # orbit-least generators are safe without scanning the child
        if _orbit_minimal(points[n], order) or _gapset_is_representative(U, cg):
            out.append((cg, None if leaf else _removal_generators(U, gens, n, cg)))
    return out


def _equivariant_children(node, U, limit=None):
    gaps, gens = node
    points = U.points
    index = U.index
    genus = gaps.bit_count()
    # one move per orbit class inside the admissible generators, acted on
    # through the class minimum, the first met; the whole orbit gets
    # removed at once
    classes = {}
    for n in _sorted_u(gaps, gens):
        classes.setdefault(tuple(sorted(points[n])), n)
    out = []
    for n in classes.values():
        orb = sorted(orbit_point(points[n]))
        if limit is not None and genus + len(orb) > limit:
            continue
        cg, cur = gaps, gens
        for y in orb:
            i = index[y]
            if not cur >> i & 1:
                raise NotMinimalGenerator(
                    f"orbit point {y} is not a minimal generator of "
                    f"{_node(U, gaps)!r}")
            cg |= 1 << i
            cur = _removal_generators(U, cur, i, cg)
        out.append((cg, cur))
    return out


def _fixed_genus_children(node, U, limit=None):
    # The construction is a tree: no child has two parents.  A child's gap
    # set is gaps(S) - {h} + {x}.  x lies beyond every gap of the middle
    # node T, whose gaps are gaps(S) - {h}, so x is the child's Frobenius
    # gap.  And h is the multiplicity of T: h precedes the multiplicity of
    # S, and every other nonzero element of T lies in S.  So adding back
    # the child's Frobenius gap and then removing the multiplicity gives S.
    # limit is unused: every node has the root's genus.
    gaps, gens = node
    order = U.order
    points = U.points
    m = (gens & -gens).bit_length() - 1  # the multiplicity
    out = []
    for h in special_gaps(U, gaps, gens):
        if h > m:  # they come ascending, so the rest lie past it too
            break
        tg = gaps ^ 1 << h
        t_gens = _extension_generators(U, gens, h, tg)
        # the safe fast path needs the intermediate node to be minimal
        t_rep = _gapset_is_representative(U, tg)
        for x in _sorted_u(tg, t_gens):
            if x == h:
                continue
            cg = tg | 1 << x
            if (t_rep and _orbit_minimal(points[x], order)) \
                    or _gapset_is_representative(U, cg):
                out.append((cg, _removal_generators(U, t_gens, x, cg)))
    return out


def _node(U, gaps, gens=None):
    """The GapSemigroup a mask node stands for."""
    return GapSemigroup(U.dim, U.decode(gaps), _trusted=True,
                        generators=None if gens is None else U.decode(gens))


def _children_of(children, S, order, above=2):
    # the universe of genus + above holds the generators of every child:
    # genus + 2 when a child has at most one gap more than S
    U, gaps, gens = _encode(S, above, order)
    return [_node(U, *c) for c in children((gaps, gens), U)]


def children_full(S: GapSemigroup, order: OrderSpec) -> list:
    """Children in the everything-tree: drop one admissible generator."""
    return _children_of(_full_children, S, order)


def children_representative(S: GapSemigroup, order: OrderSpec) -> list:
    """Children in the one-per-orbit tree; S itself must be a representative."""
    if not is_representative(S, order).is_representative:
        raise NotRepresentative(f"{S!r} is not its orbit's representative")
    return _children_of(_representative_children, S, order)


def children_equivariant(S: GapSemigroup, order: OrderSpec) -> list:
    """Children in the symmetric tree: drop a whole generator orbit."""
    if not is_equivariant(S):
        raise NotEquivariant(f"{S!r} is not permutation invariant")
    # a child has a whole orbit of admissible generators more gaps than S
    grow = max(map(len, map(orbit_point, u_set(S, order))), default=1)
    return _children_of(_equivariant_children, S, order, grow + 1)


def ordinary_gns(g: int, d: int, order: OrderSpec) -> GapSemigroup:
    """The semigroup whose gaps are the g least nonzero points.

    They are the first g points of the genus-g universe ranked by the
    order: under every order here a point comes after the
    prod(x_i + 1) - 2 nonzero points strictly below it, coordinatewise, so
    the k-th least point has prod(x_i + 1) <= k + 1 <= 2g.
    """
    check_dim(d)
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return GapSemigroup(d, frozenset(_universe(d, g, order).points[:g]))


def children_fixed_genus(S: GapSemigroup, order: OrderSpec) -> list:
    """Genus-preserving children: trade a special gap below the multiplicity
    for an admissible generator, keeping only representatives."""
    if not order.o_good:
        raise NotOGoodOrder(f"{order.name} cannot drive the fixed-genus tree")
    if not is_representative(S, order).is_representative:
        raise NotRepresentative(f"{S!r} is not its orbit's representative")
    return _children_of(_fixed_genus_children, S, order)


# ---------------------------------------------------------------------------
# breadth-first engine

@dataclass(frozen=True)
class _Variant:
    """What one tree variant does differently from the others.

    children names the child function in this module; it is looked up when
    a level is expanded, so a wrapper set on the module attribute takes
    effect.  level_genus(kind, depth) is the genus every node on a level has,
    checked on a resumed checkpoint (None when a level mixes genera); mode
    tags the resulting CountTable.
    """

    children: str
    level_genus: Optional[Callable]
    mode: str


_VARIANTS = {
    "full": _Variant("_full_children", lambda kind, depth: depth, "full"),
    "representative": _Variant("_representative_children",
                               lambda kind, depth: depth, "representative"),
    "equivariant": _Variant("_equivariant_children", None, "equivariant"),
    "fixed-genus": _Variant("_fixed_genus_children",
                            lambda kind, depth: kind.genus_target,
                            "representative"),
}


def _walk_universe(order, d, gmax):
    """The universe a walk to genus gmax runs over, ranked by its order:
    it holds every gap of genus gmax + 1 and every generator of a node the
    walk expands or carries generators for."""
    return _universe(d, gmax + 1, order)


def _expand_chunk(payload):
    variant, order_name, d, gmax, nodes, limit = payload
    children = globals()[_VARIANTS[variant].children]
    U = _walk_universe(get_order(order_name), d, gmax)
    out = []
    for node in nodes:
        if node[1] is None:
            # the root and resumed nodes arrive without generators; the
            # fill is looked up on its module, so a wrapper set there applies
            node = (node[0], semigroup._generators_from_scratch(U, node[0]))
        out.extend(children(node, U, limit))
    return out


def _expand_level(head, nodes, limit, pool, workers):
    if pool is not None and len(nodes) > 1:
        w = min(workers, len(nodes))
        size = -(-len(nodes) // w)
        chunks = [nodes[i:i + size] for i in range(0, len(nodes), size)]
        parts = pool.map(_expand_chunk, [head + (c, limit) for c in chunks])
        out = []
        for p in parts:
            out.extend(p)
        return out
    return _expand_chunk(head + (nodes, limit))


# checkpoint file: one header line, then one node per line as the gap list
# sorted under the active order, e.g. [(0,1),(1,0)]; gmax in the header is
# the largest genus walked (the target genus of the fixed-genus tree)
_CKPT_MAGIC = "gns-tree-checkpoint"
_CKPT_VERSION = 2


def _format_gapset(gaps, key):
    return str(sorted(gaps, key=key)).replace(" ", "").replace(",)", ")")


@lru_cache(maxsize=None)
def _point_text(U):
    """Each point of U as a checkpoint line spells it between its
    parentheses, by rank: '0,1' for (0, 1), '3' for (3,)."""
    return [",".join(map(str, p)) for p in U.points]


def _checkpoint_head(kind, d, gmax, depth, counts, n_nodes):
    pairs = ",".join(f"{g}:{c}" for g, c in sorted(counts.items()))
    return (f"{_CKPT_MAGIC} {_CKPT_VERSION} kind={kind.variant} d={d} "
            f"order={kind.order.name} gmax={gmax} level={depth} "
            f"nodes={n_nodes} counts={pairs}")


def _write_checkpoint(path, kind, d, gmax, depth, counts, nodes):
    # ranks ascend as the order does, so a line lists the gaps in order
    spell = _point_text(_walk_universe(kind.order, d, gmax)).__getitem__
    lines = [_checkpoint_head(kind, d, gmax, depth, counts, len(nodes))]
    for gaps, _ in nodes:
        lines.append("[(" + "),(".join(map(spell, _bits(gaps))) + ")]"
                     if gaps else "[]")
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


def _read_checkpoint(path, kind, d, gmax):
    """(level, counts, nodes) from a checkpoint written for this tree,
    order and dimension, and for a gmax it can be resumed to, or
    CheckpointCorrupt.  The nodes are gap masks over the universe of the
    walk to gmax, each checked like any gap set from outside the program,
    with no generators yet; each line must be the one the writer makes."""
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint: {exc}") from None
    head = lines[0].split() if lines else []
    if len(head) < 2 or head[0] != _CKPT_MAGIC:
        raise CheckpointCorrupt("missing checkpoint header")
    if head[1] != str(_CKPT_VERSION):
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
    try:
        ck_gmax = int(fields["gmax"])
        depth = int(fields["level"])
        counts = {int(g): int(c) for g, c in
                  (pair.split(":") for pair in fields["counts"].split(",") if pair)}
    except (KeyError, ValueError):
        raise bad_head from None
    # the header must be the one the writer makes for this file, so its
    # node count holds and every field is spelled canonically
    if depth < 0 or lines[0] != _checkpoint_head(kind, d, ck_gmax, depth,
                                                 counts, len(lines) - 1):
        raise bad_head
    level_genus = _VARIANTS[kind.variant].level_genus
    genus = None if level_genus is None else level_genus(kind, depth)
    if genus is None and gmax > ck_gmax:
        raise CheckpointCorrupt(
            f"checkpoint walked to genus {ck_gmax} and cannot be resumed to "
            f"{gmax}: the {kind.variant} tree drops children past its gmax")
    # read the frontier over the universe of the walk that wrote it, which
    # may have gone past gmax
    U = _walk_universe(kind.order, d, max(gmax, ck_gmax))
    rank = {t: i for i, t in enumerate(_point_text(U))}
    nodes = []
    seen = set()
    for line in lines[1:]:
        if line == "[]":
            ranks = []
        elif line[:2] == "[(" and line[-2:] == ")]":
            try:
                ranks = [rank[t] for t in line[2:-2].split("),(")]
            except KeyError as exc:
                raise CheckpointCorrupt(
                    f"bad node line {line!r}: no point ({exc.args[0]}) of the "
                    f"walk to genus {max(gmax, ck_gmax)}") from None
        else:
            raise CheckpointCorrupt(f"bad node line {line!r}")
        if sorted(set(ranks)) != ranks:
            raise CheckpointCorrupt(f"node line not canonical: {line!r}")
        gaps = sum(1 << r for r in ranks)
        bad = _unclosed(U, gaps, ranks)
        if bad is not None:
            raise CheckpointCorrupt(f"bad node line {line!r}: {bad}")
        if gaps in seen:
            raise CheckpointCorrupt(f"duplicate node {line!r}")
        seen.add(gaps)
        if genus is not None and len(ranks) != genus:
            raise CheckpointCorrupt(
                f"node of genus {len(ranks)} on level {depth}, "
                f"which holds genus {genus}")
        nodes.append((gaps, None))
    W = _walk_universe(kind.order, d, gmax)
    if W is not U:
        # a node past gmax has no descendant the resumed walk counts; the
        # rest move to the universe of the resumed walk, which holds them
        nodes = [(W.mask(U.at(gaps)), None) for gaps, _ in nodes
                 if gaps.bit_count() <= gmax]
    return depth, counts, nodes


def traverse(kind: TreeKind, d: int, limit: Optional[int] = None,
             visitor: Optional[Callable] = None, workers: int = 1,
             checkpoint: Optional[str] = None):
    """Walk the tree breadth first and tabulate counts per genus.

    limit is the largest genus walked, and the table has a row for each
    genus 0..limit.  The fixed-genus tree takes no limit: it runs until its
    frontier empties and reports its single target genus.  The visitor,
    when given, receives (node, depth) for every node exactly once, as a
    GapSemigroup; a level holding the same gap set twice raises
    RuntimeError.  workers > 1 fans each level out over that many
    processes; counts and node order match the sequential walk (workers=1)
    exactly, and a level whose worker dies is expanded again in this
    process, which then walks on alone (meta["parallel_fallback"]).  A
    checkpoint path is rewritten at every level boundary and picked up
    again on the next call; the frontier found there is not re-visited.

    Inside, a node is a pair of ints over one universe per walk, ranked by
    the order (see _walk_universe): its gap mask and its generator mask,
    None on nodes that are never expanded.

    Returns a CountTable; never prints.
    """
    check_dim(d)
    if kind.genus_target is not None:
        if limit is not None:
            raise ValueError("the fixed-genus tree takes no limit: its "
                             "genus is genus_target")
        genera = (kind.genus_target,)
    elif limit is None:
        raise ValueError("limit is required for this tree variant")
    elif limit < 0:
        raise ValueError("limit must be nonnegative")
    else:
        genera = range(limit + 1)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    gmax = genera[-1]

    from .counting import CountTable  # deferred, counting imports this module

    t0 = time.monotonic()
    meta = {"tree": kind.variant,
            "mode": "parallel" if workers > 1 else "sequential"}
    U = _walk_universe(kind.order, d, gmax)
    head = (kind.variant, kind.order.name, d, gmax)
    resumed = False
    if checkpoint is not None and os.path.exists(checkpoint) \
            and os.path.getsize(checkpoint) > 0:
        depth, counts, nodes = _read_checkpoint(checkpoint, kind, d, gmax)
        resumed = True
        levels = []
    else:
        # the ordinary semigroup: its gaps are the least ranks
        g0 = kind.genus_target or 0
        depth = 0
        nodes = [((1 << g0) - 1, None)]
        counts = {g0: 1}
        levels = [1]
        if visitor is not None:
            visitor(_node(U, *nodes[0]), 0)
        if checkpoint is not None:
            _write_checkpoint(checkpoint, kind, d, gmax, depth, counts, nodes)

    pool = None
    if workers > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, NotImplementedError):
            meta["parallel_fallback"] = True
            pool = None

    try:
        while nodes:
            if limit is not None and depth >= limit:
                break
            try:
                nodes = _expand_level(head, nodes, limit, pool, workers)
            except BrokenProcessPool:
                # a worker died mid-level, killed for its memory say:
                # expand the level here and walk on without the pool
                pool.shutdown()
                pool = None
                meta["parallel_fallback"] = True
                nodes = _expand_level(head, nodes, limit, None, workers)
            depth += 1
            if not nodes:
                break
            if len({gaps for gaps, _ in nodes}) != len(nodes):
                raise RuntimeError(
                    f"level {depth} of the {kind.variant} tree holds a node "
                    "twice: the construction is not a tree")
            levels.append(len(nodes))
            for gaps, _ in nodes:
                g = gaps.bit_count()
                counts[g] = counts.get(g, 0) + 1
            if visitor is not None:
                for c in nodes:
                    visitor(_node(U, *c), depth)
            if checkpoint is not None:
                _write_checkpoint(checkpoint, kind, d, gmax, depth, counts, nodes)
    finally:
        if pool is not None:
            pool.shutdown()

    meta["levels"] = levels
    meta["wall_time"] = time.monotonic() - t0
    meta["resumed"] = resumed
    return CountTable(d=d, order=kind.order.name, mode=_VARIANTS[kind.variant].mode,
                      rows={g: counts.get(g, 0) for g in genera}, meta=meta)
