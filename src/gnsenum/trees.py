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
the walk at the pending seeds.  Inside the engine a node is a tuple of
masks over one point universe per walk, ranked by the walk's order: its
gaps, its generators, the split counts of its points as bit planes, and
what its variant carries besides (the layout is stated once, above
_toggled).  Every tree reads a child's generators and planes off its
parent's, by one update after a gap is added and one after a gap is
removed, and the orbit test reads the gap masks on the same universe.  Up
to d = 4 a child is tested off its parent's image masks, toggled at the
point it adds, and gets its own only when it is expanded; a child that
adds a point first in its own orbit is kept untested, read off a mask of
those points built once per universe.  The fixed-genus middle node, a
node with one special gap made a member, decides all of its children in
one pass: one special-gap test of its own, on the parent's special gaps
below the gap traded and that gap's half (read off a per-universe
table), off which each child's special gaps are read by the sums that
its new gap kills; up to d = 4 one orbit test of all its moves; and its
split planes only when a child is expanded.  A child with no special gap
gets no generators and is never expanded.
GapSemigroup values are built only for the visitor and the public
children functions.  A full node carries the member sums of its moves,
the points n + s past each move n with s a nonzero member, which its
children read their generators off and hand on to theirs, less one point
each.  A full walk without a visitor never builds its last three levels:
a node's children are its generators past the Frobenius gap, and the
children of the child that drops n are its generators past n, so the
first level is counted off the node's generator mask, the second off its
moves, planes and sums, and the third off each child's planes and sums,
read off the node's without building the child.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from . import checkpoint, semigroup
from .core import MAX_GENUS, OrderSpec, check_dim, get_order, orbit_point
from .canonical import (_gapset_is_representative, _minimal_toggles,
                        _orbit_minimal, is_equivariant, is_representative)
# traverse's checkpoint argument hides the module there
from .checkpoint import CheckpointCorrupt, _seed_lines
# special_gaps here is the mask kernel, under the name of its public form
from .semigroup import (GapSemigroup, NotMinimalGenerator, _bits, _encode,
                        _extension_generators, _member_sums,
                        _removal_generators, _single_splits, _sorted_u,
                        _touched_slots, _universe, u_set)
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


# The child functions take a node over a universe U ranked by the walk's
# order (see semigroup._Universe) and return their children in the same
# shape; limit is the largest genus walked.  The node layout, stated here
# once:
#   full:               (gaps, gens, splits, sums)
#   equivariant:        (gaps, gens, splits)
#   representative:     (gaps, gens, splits, images)
#   fixed-genus:        (gaps, gens, splits, images, specials)
# gaps and gens are the gap and generator masks.  splits holds the split
# counts of the points as bit planes (see semigroup._splits_from_scratch);
# a child's generators and planes are read off them by
# semigroup._removal_generators after a gap is added and by
# semigroup._extension_generators after one is removed.  sums maps each
# move n, ascending, to the mask of the points n + s of U with s a nonzero
# member (semigroup._member_sums), which the removal update reads; a full
# node carries it when its children get generator updates, or when the
# walk counts its grandchildren off it (see _full_children), and None
# otherwise.  images, which the
# children's orbit tests read (see canonical._gapset_is_representative),
# holds the image masks of the gap mask under U.image_maps() up to
# semigroup._IMAGE_DIM, which a child's test toggles at the point it adds,
# and past it the mask of the tuple slots its gaps touch (bit t for slot
# t).  specials is the mask of the special gaps below the node's
# multiplicity, which are the gaps its children trade.  A child that is
# never expanded has None in every entry after gaps, except 0 for
# specials: a full or representative child on the largest genus walked,
# and a fixed-genus child with no special gap below its multiplicity, and
# so no child.  The equivariant tree fills every entry.


def _toggled(images, maps, n):
    """The image masks of a gap mask with the point of index n added or
    removed, from those of the mask."""
    return [im ^ 1 << m[n] for im, m in zip(images, maps)]


@lru_cache(maxsize=None)
def _orbit_least(U):
    """The mask of the points of U that come first in their own orbit,
    built on first use by one _orbit_minimal call per point and kept, as
    the universe is, for the life of the process."""
    order = U.order
    return sum(1 << i for i, x in enumerate(U.points) if _orbit_minimal(x, order))


def _full_children(node, U, limit=None):
    """The children of a full-tree node S, one per move n (a generator
    past the Frobenius gap): C = S + {n}, whose generators and planes are
    read off S's planes and the member sums X_n that S carries (see
    semigroup._removal_generators).  A child the walk will expand carries
    the member sums of its own moves: every child when limit is None, and
    otherwise one at genus limit - 2 or less, as the children of one at
    limit - 1 are leaves.

    The moves of C all lie past n, its Frobenius gap: the moves k of S past
    n, and the new generators of C, the bits of X_n & one.  For an old move
    k, X_k(C) is X_k(S) less n + k, when that sum lies in U (bit k of
    U.doms[n]): n was a nonzero member of S and is a gap of C, and every
    other nonzero member of S is one of C, and no other.  Only the new
    generators get their sums from C's gaps (semigroup._member_sums)."""
    gaps, gens, splits, sums = node
    moves = _sorted_u(gaps, gens)
    genus = gaps.bit_count()
    # children on the last level walked are never expanded, so they skip
    # the generator update
    if genus + 1 == limit:
        return [(gaps | 1 << n, None, None, None) for n in moves]
    one = _single_splits(splits)
    carry = limit is None or genus + 3 <= limit
    out = []
    for n in moves:
        x = sums[n]
        cg = gaps | 1 << n
        c_sums = None
        if carry:
            row = U.row(n)
            dom = U.doms[n]
            c_sums = {}
            # ascending, as the moves: those of S past n, and the new
            # generators
            for k in _bits(gens >> n + 1 << n + 1 | x & one):
                y = sums.get(k)
                if y is None:
                    y = _member_sums(U, k, cg)
                elif dom >> k & 1:
                    y ^= 1 << row[k]
                c_sums[k] = y
        out.append((cg, *_removal_generators(gens, splits, one, n, x), c_sums))
    return out


def _full_leaves(U, node, levels):
    """The node counts of the next one, two or three levels below a
    full-tree node S, read off its generator mask, split planes and member
    sums instead of built.

    Level 1: S's children are its moves, the bits of its generator mask
    above the top bit of its gap mask (those _sorted_u lists).  Level 2:
    the child that drops n has n as its Frobenius gap, so its own children
    are its moves, those of S past n and its new generators, the bits of
    X_n & one (see _full_children); over m moves, the moves past each one
    sum to m(m - 1)/2.  Level 3: for each move n, the child C = S + {n}
    gets its planes by the borrow chain of semigroup._removal_generators,
    its mask of points with one split, and the member sums of its moves as
    in _full_children, and adds its own level 2, with no node built.  No
    level needs the repeat check of _expand: each level drops a point past
    the one dropped above it, so a node there is S less an ascending
    sequence of points, which its gap set determines."""
    gaps, gens, splits, sums = node
    top = gaps.bit_length()
    moves = gens >> top << top
    m = moves.bit_count()
    if levels == 1:
        return [m]
    one = _single_splits(splits)
    grand = m * (m - 1) // 2
    for x in sums.values():
        grand += (x & one).bit_count()
    if levels == 2:
        return [m, grand]
    great = 0
    low_plane = splits[0]
    items = list(sums.items())
    for i, (n, x) in enumerate(items):
        # C's planes are S's less [X_n], by the borrow chain; its mask of
        # points with one split is its plane 0 less its higher planes
        borrow = x & ~low_plane
        more = 0
        for p in splits[1:]:
            more |= p ^ borrow
            borrow &= ~p
        c_one = (low_plane ^ x) & ~more
        new = x & one
        mc = m - 1 - i + new.bit_count()
        great += mc * (mc - 1) // 2
        row = U.row(n)
        dom = U.doms[n]
        for j in range(i + 1, m):
            k, y = items[j]
            if dom >> k & 1:
                y ^= 1 << row[k]
            great += (y & c_one).bit_count()
        cg = gaps | 1 << n
        while new:
            bit = new & -new
            great += (_member_sums(U, bit.bit_length() - 1, cg) & c_one).bit_count()
            new ^= bit
    return [m, grand, great]


def _representative_children(node, U, limit=None):
    gaps, gens, splits, carried = node
    maps = U.image_maps()
    leaf = gaps.bit_count() + 1 == limit
    one = None if leaf else _single_splits(splits)
    if maps is None:
        order = U.order
        points = U.points
        support = U.supports()
    else:
        least = _orbit_least(U)
    out = []
    for n in _sorted_u(gaps, gens):
        cg = gaps | 1 << n
        # orbit-least generators are safe without scanning the child, and
        # a safe leaf needs nothing carried; up to d = 4 the child is
        # tested off the node's own image masks, and gets its own only
        # when it is expanded
        if maps is None:
            safe = _orbit_minimal(points[n], order)
            ci = None if leaf and safe else carried | support[n]
            if not (safe or _gapset_is_representative(U, cg, ci)):
                continue
        elif not (least >> n & 1 or _gapset_is_representative(U, cg, carried, n)):
            continue
        elif not leaf:
            ci = _toggled(carried, maps, n)
        out.append((cg, None, None, None) if leaf else
                   (cg, *_removal_generators(gens, splits, one, n,
                                             _member_sums(U, n, gaps)), ci))
    return out


def _equivariant_children(node, U, limit=None):
    gaps, gens, splits = node
    points = U.points
    index = U.index
    genus = gaps.bit_count()
    # one move per orbit class inside the admissible generators, acted on
    # through the class minimum, the first met; the whole orbit gets
    # removed, one point at a time
    classes = {}
    for n in _sorted_u(gaps, gens):
        classes.setdefault(tuple(sorted(points[n])), n)
    one = _single_splits(splits)
    out = []
    for n in classes.values():
        orb = sorted(orbit_point(points[n]))
        if limit is not None and genus + len(orb) > limit:
            continue
        cg, cur, planes = gaps, gens, splits
        for k, y in enumerate(orb):
            i = index[y]
            if not cur >> i & 1:
                raise NotMinimalGenerator(
                    f"orbit point {y} is not a minimal generator of "
                    f"{_node(U, gaps)!r}")
            cur, planes = _removal_generators(
                cur, planes, _single_splits(planes) if k else one, i,
                _member_sums(U, i, cg))
            cg |= 1 << i
        out.append((cg, cur, planes))
    return out


def _fixed_genus_children(node, U, limit=None):
    """The children of a fixed-genus node S: for each special gap h below
    the multiplicity, the middle node T = S + {h}, and for each admissible
    generator x of T other than h, the child C = T - {x} when it is its
    orbit's representative.  Each child carries the mask of its special
    gaps below its multiplicity; a child with none has no child, gets None
    in its other entries (see above _toggled), and is never expanded.

    T decides all of its children in one pass, off what it builds once:
    the member sums X_h, off which its generators and so its moves are
    read (see semigroup._extension_generators), one special-gap test, by
    (c) below, and one orbit test of its moves.  Up to
    semigroup._IMAGE_DIM that test is one canonical._minimal_toggles call
    off the node's image masks, toggled at h once and at each x on the
    fly.  A child whose x comes first in its own orbit is kept untested
    when T is a representative, read off the universe's mask of such
    points; T's own test, a second call toggled at h alone, gates nothing
    else, so it runs only when one of T's moves is such a point.  Past
    semigroup._IMAGE_DIM T's touched-slot mask is built from its gaps, as
    dropping h can untouch a slot, and each child is tested off that mask
    with the slots of x set.  T's split planes (the carry chain of
    semigroup._extension_generators) and its image masks are built only
    when one of its children is expanded; such a child gets its generators
    and planes by semigroup._removal_generators and its image masks by
    toggling T's at x.

    The construction is a tree: no child has two parents.  The gaps of C
    are gaps(S) - {h} + {x}.  x lies beyond every gap of T, whose gaps are
    gaps(S) - {h}, so x is the Frobenius gap F(C).  And h is the
    multiplicity of T: h precedes the multiplicity of S, and every other
    nonzero element of T lies in S.  So adding back the child's Frobenius
    gap and then removing the multiplicity gives S.  h is also the
    multiplicity of C, which holds h and lies inside T.

    Below, every proper part y of a point p precedes p in the order (see
    semigroup._Universe): a member of S, which is at least the multiplicity
    of S, is never a proper part of h, and no point past x is a gap of C.

    (a) Every special gap h' < h of C is a special gap of S below h, or
    2h' = h.  The gaps of C below h are those of S, as x > h.  Let s be a
    nonzero member of S.  If s = x, then h' + s lies past x = F(C), so in
    C.  Otherwise s lies in C, and h' + s lies in C, as h' is a
    pseudo-Frobenius gap of C.  Either way h' + s lies in C, inside T =
    S + {h}, and is not h, since s would then be a proper part of h: so
    h' + s lies in S, and h' is a pseudo-Frobenius gap of S.  Likewise 2h'
    lies in C, so in S unless 2h' = h.  When 2h' is not h, then, h' is a
    special gap of S, and it is below h.  So the candidates for C are the
    special gaps of S below h and the point h/2 when it exists and is a
    gap (U.halves() gives its bit); only the latter can be a special gap of
    C and not of S, because 2(h/2) = h is a gap of S.  Every candidate is
    a gap of S other than h, so a gap of T and of C.

    (b) The test needs no generator update.  The generators of C are those
    of T other than x, plus new ones of the form x + z, z a nonzero member
    of T (see semigroup._removal_generators), which all lie past x.  For a
    gap h' of C and such a new generator a, h' + a lies past x, so it is
    no gap of C.  So h' is a pseudo-Frobenius gap of C exactly when h' + a
    lies outside gaps(T) + {x} for every generator a of T other than x.

    (c) One test serves all the children of T.  h' + x follows x, which
    lies past every gap of T, so h' + x is no gap of T, and the half of
    (b) that reads gaps(T) is T's own test against all its generators,
    whatever x is; what is left is that x is not h' + a for a generator a
    of T (h' + x is not x).  Likewise 2h' is no gap of C exactly when it
    is no gap of T and is not x.  So let Q_T be the candidates of (a) that
    are special gaps of T, one special-gap test per T; the special gaps of
    C below its multiplicity h are Q_T less each h' whose kill mask holds
    x, the sums of h' with itself and with each generator of T.  Only a
    child with such a special gap is expanded, so only its middle node
    needs its split planes.

    limit is unused: every node has the root's genus."""
    gaps, gens, splits, carried, specials = node
    maps = U.image_maps()
    half = U.halves()
    if maps is None:
        order = U.order
        points = U.points
        support = U.supports()
    else:
        least = _orbit_least(U)
    out = []
    # the bit loops are _bits inlined, as this is the walk's kernel
    rest = specials
    while rest:
        low = rest & -rest
        rest ^= low
        h = low.bit_length() - 1
        tg = gaps ^ low
        x_h = _member_sums(U, h, tg)
        # T's moves but h: its old generators past its Frobenius gap
        top = tg.bit_length()
        moves = (gens & ~x_h) >> top << top
        if not moves:
            continue
        # the moves kept untested, when T is a representative, then the rest
        if maps is None:
            t_touched = _touched_slots(U, tg)
            safe = 0
            for x in _bits(moves):
                if _orbit_minimal(points[x], order):
                    safe |= 1 << x
            if safe and not _gapset_is_representative(U, tg, t_touched):
                safe = 0
            keep = safe
            for x in _bits(moves ^ safe):
                if _gapset_is_representative(U, tg | 1 << x,
                                             t_touched | support[x]):
                    keep |= 1 << x
        else:
            safe = moves & least
            if safe and not _minimal_toggles(maps, gaps, carried, 1 << h):
                safe = 0
            keep = safe
            if moves != safe:
                keep |= _minimal_toggles(maps, tg, carried, moves ^ safe, h)
        if not keep:
            continue
        t_gens = gens & ~x_h | 1 << h
        cands = specials & (1 << h) - 1 | gaps & half[h]
        q = special_gaps(U, tg, t_gens, cands) if cands else 0
        # per special gap h' of T, its bit and its kill mask, by (c)
        kills = []
        m = q
        while m:
            bit = m & -m
            m ^= bit
            hp = bit.bit_length() - 1
            row = U.row(hp)
            kill = 0
            js = (t_gens | bit) & U.doms[hp]
            while js:
                j = js & -js
                kill |= 1 << row[j.bit_length() - 1]
                js ^= j
            kills.append((bit, kill))
        t_splits = None
        m = keep
        while m:
            bit = m & -m
            m ^= bit
            x = bit.bit_length() - 1
            cg = tg | bit
            cs = q
            for q_bit, kill in kills:
                if kill >> x & 1:
                    cs ^= q_bit
            if not cs:
                out.append((cg, None, None, None, 0))
                continue
            if t_splits is None:
                t_splits = _extension_generators(gens, splits, h, x_h)[1]
                t_one = _single_splits(t_splits)
                if maps is not None:
                    t_images = _toggled(carried, maps, h)
            ci = (t_touched | support[x] if maps is None
                  else _toggled(t_images, maps, x))
            out.append((cg, *_removal_generators(t_gens, t_splits, t_one, x,
                                                 _member_sums(U, x, tg)),
                        ci, cs))
    return out


def _node(U, gaps, gens=None):
    """The GapSemigroup a mask node stands for."""
    return GapSemigroup(U.dim, U.decode(gaps), _trusted=True,
                        generators=None if gens is None else U.decode(gens))


def _from_scratch(spec, U, gaps, gens):
    """The node of a gap mask and its generator mask, with the entries its
    variant carries built from scratch, as only a walk's root and the
    public children functions build them; every other node gets them from
    its parent.  The kernels are looked up as module attributes, so that
    a wrapper set on one applies."""
    node = (gaps, gens, semigroup._splits_from_scratch(U, gaps))
    if spec.sums:
        top = gaps.bit_length()
        node += ({n: semigroup._member_sums(U, n, gaps)
                  for n in _bits(gens >> top << top)},)
    if spec.images:
        node += (semigroup._images_from_scratch(U, gaps),)
    if spec.specials:
        # the bits below the multiplicity, the lowest generator bit
        node += (special_gaps(U, gaps, gens, (gens & -gens) - 1),)
    return node


def _children_of(variant, S, order, above=2):
    # the universe of genus + above holds the generators of every child:
    # genus + 2 when a child has at most one gap more than S
    spec = _VARIANTS[variant]
    U, gaps, gens = _encode(S, above, order)
    node = _from_scratch(spec, U, gaps, gens)
    return [_node(U, c[0], c[1]) for c in globals()[spec.children](node, U)]


def children_full(S: GapSemigroup, order: OrderSpec) -> list:
    """Children in the everything-tree: drop one admissible generator."""
    return _children_of("full", S, order)


def children_representative(S: GapSemigroup, order: OrderSpec) -> list:
    """Children in the one-per-orbit tree; S itself must be a representative."""
    if not is_representative(S, order).is_representative:
        raise NotRepresentative(f"{S!r} is not its orbit's representative")
    return _children_of("representative", S, order)


def children_equivariant(S: GapSemigroup, order: OrderSpec) -> list:
    """Children in the symmetric tree: drop a whole generator orbit."""
    if not is_equivariant(S):
        raise NotEquivariant(f"{S!r} is not permutation invariant")
    # a child has a whole orbit of admissible generators more gaps than S
    grow = max(map(len, map(orbit_point, u_set(S, order))), default=1)
    return _children_of("equivariant", S, order, grow + 1)


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
    return _children_of("fixed-genus", S, order)


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
    mode tags the resulting CountTable.  leaves, when set, is called as
    leaves(U, node, levels) on a node and gives the node counts of the next
    levels (1, 2 or 3) below it without building them, for a tree whose
    children have one gap more than their parent; the other trees need the
    orbit test or the orbit sizes of their leaves.  sums, images and
    specials say whether a node carries the entries of those names in the
    node layout stated above _toggled.
    """

    children: str
    mode: str
    leaves: Optional[Callable] = None
    sums: bool = False
    images: bool = False
    specials: bool = False


_VARIANTS = {
    "full": _Variant("_full_children", "full", _full_leaves, sums=True),
    "representative": _Variant("_representative_children", "representative",
                               images=True),
    "equivariant": _Variant("_equivariant_children", "equivariant"),
    "fixed-genus": _Variant("_fixed_genus_children", "representative",
                            images=True, specials=True),
}


def _walk_universe(order, d, gmax):
    """The universe a walk to genus gmax runs over, ranked by its order:
    it holds every gap of genus gmax + 1 and every generator of a node the
    walk expands or carries generators for."""
    return _universe(d, gmax + 1, order)


def _expand(children, U, node, limit):
    """The children of a node, which carries its generator mask: every
    node that gets expanded does, the root and the seeds included, and a
    node without one is never expanded.  A child list holding a gap set
    twice raises RuntimeError."""
    kids = children(node, U, limit)
    if len(kids) > 1 and len({c[0] for c in kids}) != len(kids):
        raise RuntimeError(
            f"{_node(U, node[0])!r} has the same child twice: the "
            "construction is not a tree")
    return kids


def _expand_level(children, U, nodes, limit):
    """The next level below nodes, in order; a node whose generator mask
    is None has no child."""
    out = []
    for node in nodes:
        if node[1] is not None:
            out.extend(_expand(children, U, node, limit))
    return out


def _walk_seeds(payload):
    """Walk each seed's subtree depth first, from the seed depth down to
    limit (to the leaves when limit is None), over the universe of the walk
    to genus top that planted the seeds.  Returns the node count per genus
    0..top and, when keep is set, every node walked with its depth, seed by
    seed in preorder, so that on every depth the nodes come in the order
    of the breadth-first levels.

    A tree whose variant counts its leaves (the full tree) never builds
    its last three levels when nothing is kept: a node at depth limit - 3
    adds the counts of the three levels below it, which it reads off its
    generator mask, split planes and member sums, without building a node
    or calling its child function, and a seed at limit - 2 or limit - 1
    adds those of the two or one levels below it (a seed at limit - 1
    carries no sums).  These levels need no repeat check: each drops a
    point past the one dropped above it (see _full_leaves).  A node whose
    generator mask is None is never expanded."""
    variant, order_name, d, top, limit, depth, seeds, keep = payload
    spec = _VARIANTS[variant]
    children = globals()[spec.children]
    leaves = None if keep or limit is None else spec.leaves
    U = _walk_universe(get_order(order_name), d, top)
    counts = [0] * (top + 1)
    walked = [] if keep else None
    # one iterator per level of the current path, over a child list
    stack = [iter(seeds)]
    while stack:
        k = depth + len(stack) - 1
        for node in stack[-1]:
            counts[node[0].bit_count()] += 1
            if keep:
                walked.append((node, k))
            if k == limit or node[1] is None:
                continue
            if leaves is not None and k + 3 >= limit:
                # a node's genus is its depth in a tree that counts leaves
                for g, c in enumerate(leaves(U, node, limit - k), k + 1):
                    counts[g] += c
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
    the root as nodes in breadth-first order, and the counts per genus of
    the levels above them; visit(node, depth), when given, sees every node
    of those levels.  The root gets its generators, and the other entries
    its variant carries, from scratch, looked up on their module so that a
    wrapper set there applies; every other node from its parent's."""
    spec = _VARIANTS[kind.variant]
    children = globals()[spec.children]
    U = _walk_universe(kind.order, d, gmax)
    limit = None if kind.genus_target is not None else gmax
    # the ordinary semigroup: its gaps are the least ranks
    root = (1 << (kind.genus_target or 0)) - 1
    nodes = [_from_scratch(spec, U, root,
                           semigroup._generators_from_scratch(U, root))]
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
    genus 0..gmax; done is the number of finished seeds.  The seed lines
    must be those of a fresh seed expansion of the file's walk, which are
    canonical, closed, inside its universe and distinct, so no line is
    checked on its own.  The counts are those of the levels above the seeds
    plus the finished seeds' subtrees, so they are those levels' counts
    when no seed is finished and never fall below them.  The seeds returned
    are that expansion's nodes, generator masks, image masks and split
    planes included, over the universe of the file's walk, the one
    universe built here.  Before that expansion, which can be large, every
    seed line must hold a number of gaps that a seed of the file's walk can
    have, and a file with no seed line must be of a walk that can have
    none."""
    ck_gmax, counts, done, lines = checkpoint._read(path, kind, d)
    if kind.genus_target is not None and ck_gmax != gmax:
        raise CheckpointCorrupt(
            f"checkpoint is for the genus {ck_gmax} fixed-genus tree, not "
            f"genus {gmax}")
    # a seed's genus: the target genus in the fixed-genus tree, its depth
    # where a child has one gap more than its parent, and between the two
    # in the equivariant tree, whose child drops a whole generator orbit
    lo = hi = min(_SEED_DEPTH, ck_gmax)
    if kind.genus_target is not None:
        lo = hi = ck_gmax
    elif kind.variant == "equivariant":
        hi = ck_gmax
    for i, line in enumerate(lines, 2):
        if not lo <= line.count("(") <= hi:
            raise CheckpointCorrupt(
                f"line {i} of {path!r} holds {line.count('(')} gaps, which no "
                f"seed of a walk to genus {ck_gmax} has")
    # a walk that must have a seed has one: the full and representative
    # trees have a node of every genus, so of genus lo on the seed level.
    # The equivariant tree has the chain that drops the orbits of e_i, 2e_i,
    # ..., lo e_i, d points each, when lo * d <= gmax: k e_i + e_i follows
    # k e_i under every order here, as x precedes x + y, so the orbit of
    # (k + 1)e_i has a member past the Frobenius gap max_i k e_i, and each
    # of its points is a generator, its proper parts all being gaps.  The
    # fixed-genus tree can have no seed.
    if not lines and kind.genus_target is None and (
            kind.variant != "equivariant" or lo * d <= ck_gmax):
        raise CheckpointCorrupt(
            f"{path!r} holds no seed, but a walk to genus {ck_gmax} has some")
    seeds, planted = _plant(kind, d, ck_gmax)
    if lines != _seed_lines(_walk_universe(kind.order, d, ck_gmax), seeds):
        raise CheckpointCorrupt(
            f"the seeds of {path!r} are not those of a walk to genus {ck_gmax}")
    if any(c < p for c, p in zip(counts, planted)):
        raise CheckpointCorrupt(
            f"the counts of {path!r} fall below those of the levels above "
            "its seeds")
    if not done and counts != planted:
        raise CheckpointCorrupt(
            f"the counts of {path!r} are not those of the levels above its "
            "seeds, and no seed is finished")
    return ck_gmax, counts, seeds, done


def traverse(kind: TreeKind, d: int, limit: Optional[int] = None,
             visitor: Optional[Callable] = None, workers: int = 1,
             checkpoint: Optional[str] = None):
    """Walk the tree and tabulate counts per genus.

    limit is the largest genus walked, and the table has a row for each
    genus 0..limit.  The fixed-genus tree takes no limit: it runs until it
    has no node left to expand and reports its single target genus.  A
    limit or target genus past core.MAX_GENUS raises counting.ResourceLimit.

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
    come in breadth-first order.  Every child list that is built is
    checked: one that holds the same gap set twice raises RuntimeError.
    A full walk without a visitor builds none of its last three levels:
    a node three levels above the leaves counts its children off its
    generator mask, its grandchildren off its moves, split planes and
    member sums, and its great-grandchildren off each child's planes and
    sums, read off its own; each level drops a point past the one dropped
    above it, so no node there is counted twice.

    A checkpoint path holds the seeds, the number of finished seeds (always
    the first ones: batches finish in seed order) and the counts so far.
    It is written after the seed expansion and after each finished batch,
    and picked up again on the next call, which walks only the seeds after
    the finished ones (visiting only their subtrees).  A resumed walk runs
    from the seeds that a fresh seed expansion of the file's walk gives,
    generator masks included, which the file's seed lines must spell.  To a
    smaller gmax it walks the pending seeds of genus at most gmax on the
    universe of the file's walk and leaves the file as it is; to a larger
    gmax every tree walks every seed again and rewrites the file, but the
    fixed-genus tree refuses a file of another target genus.

    Inside, a node is a tuple of ints over one universe per walk, ranked by
    the order (see _walk_universe), that of the file's walk on a resume to
    a smaller gmax; the layout is stated above _toggled.  Every node
    carries its gap mask, its generator mask and the split counts of its
    points as bit planes, off which each child's generators and planes are
    read; a full node also carries the member sums of its moves, when its
    children are expanded too; up to d = 4 a representative or fixed-genus
    node also carries
    the image masks of its gap mask under the non-identity permutations,
    which its children's orbit tests toggle at the point each adds and
    compare (see canonical._rep_scan), and past d = 4 the mask of the tuple
    slots its gaps touch (see canonical._minimality).  The root builds its
    entries from scratch, the seeds of a resumed walk being expanded
    again, and the checkpoint keeps only the gaps.
    meta["seeds"] gives the seed depth, the number of seeds and how many
    this call walked.

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

    # deferred, counting imports this module
    from .counting import CountTable, ResourceLimit

    if gmax > MAX_GENUS:
        raise ResourceLimit(f"tree walks are capped at genus {MAX_GENUS}")
    t0 = time.monotonic()
    meta = {"tree": kind.variant,
            "mode": "parallel" if workers > 1 else "sequential"}
    resumed = False
    seeds = None
    # the genus of the walk whose universe and seeds this one runs on
    top = gmax
    write = checkpoint is not None
    if checkpoint is not None and os.path.exists(checkpoint) \
            and os.path.getsize(checkpoint) > 0:
        top, counts, seeds, done = _read_checkpoint(checkpoint, kind, d, gmax)
        resumed = True
        if top > gmax:
            # walk the file's seeds on its universe; a seed past gmax has
            # no node this walk counts, and the file keeps the longer walk
            seeds = [s if s[0].bit_count() <= gmax else None for s in seeds]
            write = False
        elif top < gmax:
            # the finished seeds were walked short of gmax: start over
            top, seeds = gmax, None
    depth = min(_SEED_DEPTH, top)
    U = _walk_universe(kind.order, d, top)
    visit = None if visitor is None else (
        lambda node, depth: visitor(_node(U, node[0], node[1]), depth))
    fresh = seeds is None
    if fresh:
        seeds, counts = _plant(kind, d, gmax, visit)
        done = 0
    pending = [i for i in range(done, len(seeds)) if seeds[i] is not None]
    # the seeds are spelled once; each rewrite changes only the header
    lines = _seed_lines(U, seeds) if write else None
    if fresh and write:
        _write_checkpoint(checkpoint, kind, d, gmax, counts, lines, done)

    size = -(-len(pending) // _BATCHES) or 1
    batches = [pending[i:i + size] for i in range(0, len(pending), size)]
    head = (kind.variant, kind.order.name, d, top, limit, depth)
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
