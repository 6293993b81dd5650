"""Rooted-tree constructions that enumerate gap semigroups without repeats.

Four variants share one seed engine: the full tree (every semigroup
once), the representative tree (one semigroup per permutation orbit), the
equivariant tree (semigroups fixed by the whole group), and the
fixed-genus tree (all representatives of a single genus, grown from the
ordinary semigroup).  What differs between them sits in one table,
_VARIANTS.  The engine expands the first levels breadth first, down to a
fixed seed depth, then walks each seed's subtree depth first on a stack,
in this process or in worker processes that take seed batches and return
counts.  A checkpoint holds the seeds and the finished ones, and resumes
the walk at the pending seeds.  Inside the engine a node is a pair of ints
over one point universe per walk, ranked by the walk's order, and the
orbit test reads the same gap masks on the same universe; GapSemigroup
values are built only for the visitor and the public children functions.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional

from . import checkpoint, semigroup
from .core import OrderSpec, check_dim, get_order, orbit_point
from .canonical import _gapset_is_representative, _orbit_minimal, is_equivariant, is_representative
# traverse's checkpoint argument hides the module there
from .checkpoint import CheckpointCorrupt, _seed_lines
# special_gaps here is the mask kernel, under the name of its public form
from .semigroup import (GapSemigroup, NotMinimalGenerator, _encode,
                        _extension_generators, _removal_generators, _sorted_u,
                        _universe, u_set)
from .semigroup import _special_gaps as special_gaps


class NotRepresentative(ValueError):
    pass


class NotEquivariant(ValueError):
    pass


class NotOGoodOrder(ValueError):
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
# A child's generator mask is None when it lands on that genus, where
# nodes are never expanded.

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
    for h in special_gaps(U, gaps, gens, m):
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
# seed engine

# Levels 0 .. _SEED_DEPTH - 1 are expanded breadth first in the calling
# process; each node on the next level is a seed, whose subtree is walked
# depth first.  Seeds go out in up to _BATCHES contiguous batches, the unit
# of work a worker takes and of checkpointing.  The first seed can hold a
# third of a d=2 tree, so the batches are small enough that two workers
# share the rest evenly: split ideally over two workers, the 71 seeds of
# n(2,13) give a speedup of 1.85 in 16 batches and 1.98 in 32.
_SEED_DEPTH = 4
_BATCHES = 32


@dataclass(frozen=True)
class _Variant:
    """What one tree variant does differently from the others.

    children names the child function in this module; it is looked up when
    a walk starts, so a wrapper set on the module attribute takes effect.
    mode tags the resulting CountTable.
    """

    children: str
    mode: str


_VARIANTS = {
    "full": _Variant("_full_children", "full"),
    "representative": _Variant("_representative_children", "representative"),
    "equivariant": _Variant("_equivariant_children", "equivariant"),
    "fixed-genus": _Variant("_fixed_genus_children", "representative"),
}


def _walk_universe(order, d, gmax):
    """The universe a walk to genus gmax runs over, ranked by its order:
    it holds every gap of genus gmax + 1 and every generator of a node the
    walk expands or carries generators for."""
    return _universe(d, gmax + 1, order)


def _expand(children, U, node, limit):
    """The children of a node, which gets its generators first when it
    arrives without them (the root, a resumed seed); the fill is looked up
    on its module, so a wrapper set there applies.  A child list holding a
    gap set twice raises RuntimeError."""
    gaps, gens = node
    if gens is None:
        node = (gaps, semigroup._generators_from_scratch(U, gaps))
    kids = children(node, U, limit)
    if len(kids) > 1 and len({c[0] for c in kids}) != len(kids):
        raise RuntimeError(
            f"{_node(U, gaps)!r} has the same child twice: the construction "
            "is not a tree")
    return kids


def _expand_level(children, U, nodes, limit):
    """The next level below nodes, in order."""
    out = []
    for node in nodes:
        out.extend(_expand(children, U, node, limit))
    return out


def _walk_seeds(payload):
    """Walk each seed's subtree depth first, from the seed depth down to
    limit (to the leaves when limit is None).  Returns the node count per
    genus and, when keep is set, every node walked with its depth, seed by
    seed in preorder, so that on every depth the nodes come in the order
    of the breadth-first levels."""
    variant, order_name, d, gmax, limit, depth, seeds, keep = payload
    children = globals()[_VARIANTS[variant].children]
    U = _walk_universe(get_order(order_name), d, gmax)
    counts = [0] * (gmax + 1)
    walked = [] if keep else None
    # one iterator per level of the current path, over a child list
    stack = [iter(seeds)]
    while stack:
        k = depth + len(stack) - 1
        for node in stack[-1]:
            counts[node[0].bit_count()] += 1
            if keep:
                walked.append((node, k))
            if k == limit:
                continue
            kids = _expand(children, U, node, limit)
            if k + 1 == limit:
                # the children are leaves: count them here
                for c in kids:
                    counts[c[0].bit_count()] += 1
                if keep:
                    walked.extend([(c, limit) for c in kids])
            elif kids:
                stack.append(iter(kids))
                break
        else:
            stack.pop()
    return counts, walked


def _plant(kind, d, gmax, visit=None):
    """The seeds of a walk to gmax, the level min(_SEED_DEPTH, gmax) below
    the root as (gap mask, generator mask) pairs in breadth-first order, and
    the counts per genus of the levels above them; visit(node, depth), when
    given, sees every node of those levels."""
    children = globals()[_VARIANTS[kind.variant].children]
    U = _walk_universe(kind.order, d, gmax)
    limit = None if kind.genus_target is not None else gmax
    # the ordinary semigroup: its gaps are the least ranks
    nodes = [((1 << (kind.genus_target or 0)) - 1, None)]
    counts = [0] * (gmax + 1)
    for depth in range(min(_SEED_DEPTH, gmax)):
        for node in nodes:
            counts[node[0].bit_count()] += 1
            if visit is not None:
                visit(node, depth)
        nodes = _expand_level(children, U, nodes, limit)
    return nodes, counts


def _write_checkpoint(path, kind, d, gmax, counts, lines, done):
    """Write the checkpoint file: the header, then the seed lines, which a
    walk spells once and passes to every rewrite."""
    checkpoint._write(path, [checkpoint._header(kind, d, gmax, counts, len(lines), done)]
                      + lines)


def _read_checkpoint(path, kind, d, gmax):
    """(gmax, counts, seeds, done) from a checkpoint written for this tree,
    order and dimension (for the fixed-genus tree, for this gmax), or
    CheckpointCorrupt.  gmax is the file's; counts is a list indexed by
    genus; done is the number of finished seeds.  Each seed line is
    checked like any gap set from outside the program, and the list must
    be the one a fresh seed expansion of the file's walk gives.  The seeds
    returned are that expansion's (gap mask, generator mask) pairs, over
    the universe of the file's walk."""
    ck_gmax, counts, done, lines = checkpoint._read(path, kind, d)
    if kind.genus_target is not None and ck_gmax != gmax:
        raise CheckpointCorrupt(
            f"checkpoint is for the genus {ck_gmax} fixed-genus tree, not "
            f"genus {gmax}")
    # check the lines over the larger universe of the two walks, so that a
    # point of neither is named
    top = max(gmax, ck_gmax)
    checkpoint._check_seed_lines(_walk_universe(kind.order, d, top), lines, top)
    seeds, _ = _plant(kind, d, ck_gmax)
    if lines != _seed_lines(_walk_universe(kind.order, d, ck_gmax), seeds):
        raise CheckpointCorrupt(
            f"the seeds of {path!r} are not those of a walk to genus {ck_gmax}")
    return ck_gmax, counts, seeds, done


def traverse(kind: TreeKind, d: int, limit: Optional[int] = None,
             visitor: Optional[Callable] = None, workers: int = 1,
             checkpoint: Optional[str] = None):
    """Walk the tree and tabulate counts per genus.

    limit is the largest genus walked, and the table has a row for each
    genus 0..limit.  The fixed-genus tree takes no limit: it runs until it
    has no node left to expand and reports its single target genus.

    The levels above depth min(4, gmax), gmax being limit or the target
    genus, are expanded breadth first here; the nodes on that level are the
    seeds, and each seed's subtree is walked depth first.  The seeds go out
    in up to 32 contiguous batches: workers > 1 sends the batches to that
    many processes, which return counts per genus (and, for a visitor, the
    nodes walked).  A batch whose worker dies is walked again in this
    process, which then walks on alone (meta["parallel_fallback"]).
    Counts, and the order the visitor sees, do not depend on workers.

    The visitor, when given, receives (node, depth) for every node exactly
    once, as a GapSemigroup: the levels above the seeds breadth first, then
    each seed's subtree in preorder, seed by seed; on every depth the nodes
    come in breadth-first order.  A node whose child list holds the same
    gap set twice raises RuntimeError.

    A checkpoint path holds the seeds, the number of finished seeds (always
    the first ones: batches finish in seed order) and the counts so far.
    It is written after the seed expansion and after each finished batch,
    and picked up again on the next call, which walks only the seeds after
    the finished ones (visiting only their subtrees).  A checkpoint resumes
    to a smaller gmax by dropping the counts past it, walking the pending
    seeds to gmax and leaving the file as it is; to a larger gmax every
    tree walks every seed again and rewrites the file, but the fixed-genus
    tree refuses a file of another target genus.

    Inside, a node is a pair of ints over one universe per walk, ranked by
    the order (see _walk_universe): its gap mask and its generator mask,
    None on nodes that are never expanded.  meta["seeds"] gives the seed
    depth, the number of seeds and how many this call walked.

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
    visit = None if visitor is None else (
        lambda node, depth: visitor(_node(U, *node), depth))
    resumed = False
    seeds = None
    write = checkpoint is not None
    if checkpoint is not None and os.path.exists(checkpoint) \
            and os.path.getsize(checkpoint) > 0:
        ck_gmax, counts, seeds, done = _read_checkpoint(checkpoint, kind, d, gmax)
        resumed = True
        depth = min(_SEED_DEPTH, ck_gmax)
        if ck_gmax > gmax:
            # a seed past gmax has no node this walk counts; the rest move
            # to the universe of this walk, and the file keeps the longer walk
            V = _walk_universe(kind.order, d, ck_gmax)
            counts = counts[:gmax + 1]
            seeds = [(U.mask(V.at(gaps)), None) if gaps.bit_count() <= gmax
                     else None for gaps, _ in seeds]
            write = False
        elif ck_gmax < gmax:
            # the finished seeds were walked short of gmax: start over
            seeds = None
    fresh = seeds is None
    if fresh:
        seeds, counts = _plant(kind, d, gmax, visit)
        depth = min(_SEED_DEPTH, gmax)
        done = 0
    pending = [i for i in range(done, len(seeds)) if seeds[i] is not None]
    # the seeds are spelled once; each rewrite changes only the header
    lines = _seed_lines(U, seeds) if write else None
    if fresh and write:
        _write_checkpoint(checkpoint, kind, d, gmax, counts, lines, done)

    size = -(-len(pending) // _BATCHES) or 1
    batches = [pending[i:i + size] for i in range(0, len(pending), size)]
    head = (kind.variant, kind.order.name, d, gmax, limit, depth)
    payloads = [head + ([seeds[i] for i in b], visitor is not None)
                for b in batches]
    pool = None
    if workers > 1 and len(payloads) > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, NotImplementedError):
            meta["parallel_fallback"] = True

    finished = 0
    try:
        while finished < len(payloads):
            try:
                results = (map if pool is None else pool.map)(
                    _walk_seeds, payloads[finished:])
                for part, walked in results:
                    for g, c in enumerate(part):
                        counts[g] += c
                    if visit is not None:
                        for node, k in walked:
                            visit(node, k)
                    done = batches[finished][-1] + 1
                    finished += 1
                    if write:
                        _write_checkpoint(checkpoint, kind, d, gmax, counts,
                                          lines, done)
            except BrokenProcessPool:
                # a worker died, killed for its memory say: walk the
                # batches not yet finished here, without the pool
                pool.shutdown()
                pool = None
                meta["parallel_fallback"] = True
    finally:
        if pool is not None:
            pool.shutdown()

    meta["seeds"] = {"depth": depth, "count": len(seeds), "walked": len(pending)}
    meta["wall_time"] = time.monotonic() - t0
    meta["resumed"] = resumed
    return CountTable(d=d, order=kind.order.name, mode=_VARIANTS[kind.variant].mode,
                      rows={g: counts[g] for g in genera}, meta=meta)
