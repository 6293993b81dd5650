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
point it adds, and gets its own only when it is expanded; a
representative-tree child that adds a point first in its own orbit is
kept untested, read off a mask of those points built once per universe.
The fixed-genus middle node T, a node with one special gap made a
member, is tested first and dropped when it is not orbit-minimal: with
G its gap mask, σ(G) its image, D = G ^ σ(G) and b the lowest bit of D,
T loses to σ when b lies in σ(G), and then so does every child G + {x},
x past every gap: x > b, and the lowest bit of D ^ x ^ σ(x) is σ(x) or
b, both in σ(G + {x}) alone.  Otherwise T decides all of its children
in one pass: one special-gap test of its own, on the parent's special
gaps below the gap traded and that gap's half (read off a per-universe
table), off which each child's special gaps are read by the sums that
its new gap kills; up to d = 4 one mask AND per permutation for the
orbit tests of all its moves, x passing σ when σ(x) > b, or σ(x) >= x
when D = 0, or by one exact test when σ(x) = b; and its split planes
only when a child is expanded.  A child with no special gap gets no
generators and is never expanded.
GapSemigroup values are built only for the visitor and the public
children functions.  A full node carries the member sums of its moves,
the points n + s past each move n with s a nonzero member, which its
children read their generators off and hand on to theirs, less one point
each.  A full walk without a visitor builds no node below its seeds: a
node's children are its generators past the Frobenius gap, and the
children of the child that drops n are its generators past n, so each
seed counts every level below it by one recursion over light nodes, each
its gap mask, its moves with their member sums, and the masks e_c of its
points with exactly c splits.  The child that drops n has c less one on
X_n, the sums of n, all of whose points have a split, so its e_c is
e_c & ~X_n | e_{c+1} & X_n; and the last two levels are counted off the
moves, their sums and e_1 alone, without a node.
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
from .canonical import (_gapset_is_representative, _minimal_images,
                        _minimal_moves, _orbit_minimal, is_equivariant,
                        is_representative)
# traverse's checkpoint argument hides the module there
from .checkpoint import CheckpointCorrupt, _seed_lines
# special_gaps here is the mask kernel, under the name of its public form
from .semigroup import (GapSemigroup, NotMinimalGenerator, _bits, _encode,
                        _extension_generators, _member_sums,
                        _removal_generators, _single_splits, _sorted_u,
                        _split_masks, _touched_slots, _universe, u_set)
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
    """The node counts of the levels 1..levels below a full-tree node S,
    read off its generator mask, split planes and member sums instead of
    built.  Level 1: S's children are its m moves, the bits of its
    generator mask above the top bit of its gap mask (those _sorted_u
    lists).  Level 2: the child that drops n has n as its Frobenius gap,
    so its own children are its moves, those of S past n and its new
    generators, the bits of X_n & e_1, e_1 the mask of the points with one
    split (see _full_children); over all n, m(m - 1)/2 plus the popcounts
    of X_n & e_1.  Three levels or more: one _full_light call on S as a
    light node, with the masks e_1 .. e_{levels - 1} of its points with
    exactly 1 .. levels - 1 splits, read off its planes once."""
    gaps, gens, splits, sums = node
    top = gaps.bit_length()
    m = (gens >> top << top).bit_count()
    if levels == 1:
        return [m]
    if levels == 2:
        one = _single_splits(splits)
        grand = m * (m - 1) // 2
        for x in sums.values():
            grand += (x & one).bit_count()
        return [m, grand]
    out = [0] * levels
    _full_light(U, gaps, list(sums.items()), _split_masks(splits, levels - 1), out)
    return out


def _full_light(U, gaps, moves, masks, out):
    """Add to out[-L:] the node counts of the L = len(masks) + 1 >= 3
    levels below a light full-tree node S.  A light node is what the
    counting below a seed reads of a node, and all that is built of it:
    its gap mask; its moves n ascending, each with its member sums X_n, as
    (n, X_n) pairs; and masks = [e_1, ..., e_{L-1}], e_c the mask of the
    points with exactly c splits.

    The child C = S + {n} is read off S as in _full_children.  Its moves
    all lie past n, its Frobenius gap: S's moves k past n, with X_k less
    the point n + k when it lies in U (bit k of U.doms[n]), and its new
    generators, the bits of X_n & e_1, whose sums alone are built from
    C's gaps (_member_sums); the two lists are merged ascending.  Its split
    counts are c_C = c_S - [X_n] (see semigroup._removal_generators), and
    every point of X_n has a split in S, so
    e_c(C) = e_c(S) & ~X_n | e_{c+1}(S) & X_n: two ANDs and an OR per
    mask.  The level-2 count of a node reads its e_1 alone (see
    _full_leaves), and e_c of a node one level down reads e_c and e_{c+1}
    here, so S needs e_1 .. e_{L-1} and its child one mask less.

    S counts its m moves as level 1.  At L = 3 it counts level 2 by the
    closed form of _full_leaves, and level 3 by the same form for each
    child, off the child's e_1 and the sums of its moves, read off S's
    without building it.  From L = 4 up, S recurses into each child, by
    the name of this function, so that a wrapper set on the module
    attribute sees every light node; the recursion runs at most limit - 4
    calls deep below a seed.  No level needs the repeat check of _expand:
    each level drops a point past the one dropped above it, so a node
    there is the seed less an ascending sequence of points, which its gap
    set determines."""
    levels = len(masks) + 1
    at = len(out) - levels
    m = len(moves)
    out[at] += m
    one = masks[0]
    if levels == 3:
        two = masks[1]
        grand = m * (m - 1) // 2
        great = 0
        for i, (n, x) in enumerate(moves):
            new = x & one
            c_one = one & ~x | two & x
            fresh = new.bit_count()
            grand += fresh
            mc = m - 1 - i + fresh
            great += mc * (mc - 1) // 2
            row = U.row(n)
            dom = U.doms[n]
            for k, y in moves[i + 1:]:
                if dom >> k & 1:
                    y ^= 1 << row[k]
                great += (y & c_one).bit_count()
            cg = gaps | 1 << n
            while new:
                bit = new & -new
                great += (_member_sums(U, bit.bit_length() - 1, cg) & c_one).bit_count()
                new ^= bit
        out[at + 1] += grand
        out[at + 2] += great
        return
    for i, (n, x) in enumerate(moves):
        row = U.row(n)
        dom = U.doms[n]
        kids = [(k, y ^ 1 << row[k] if dom >> k & 1 else y)
                for k, y in moves[i + 1:]]
        new = x & one
        cg = gaps | 1 << n
        if new:
            kids += [(k, _member_sums(U, k, cg)) for k in _bits(new)]
            kids.sort()
        rest = ~x
        _full_light(U, cg, kids,
                    [e & rest | f & x for e, f in zip(masks, masks[1:])], out)


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

    T is tested first, by (d) below, and dropped when it is not its
    orbit's representative, before its member sums X_h are built.  Up to
    semigroup._IMAGE_DIM that test is one canonical._minimal_images call,
    which builds T's image masks off the node's, toggled at h, and past
    it one _gapset_is_representative call off T's touched-slot mask,
    built from its gaps, as dropping h can untouch a slot.  T then decides
    all of its children in one pass, off what it builds once: X_h, off
    which its generators and so its moves are read (see
    semigroup._extension_generators), one special-gap test, by (c) below,
    and the orbit tests of its moves.  Up to semigroup._IMAGE_DIM those
    are one canonical._minimal_moves call off T's image masks, by (d);
    past it a move first in its own orbit is kept untested, and each
    other move is tested off T's touched-slot mask with the slots of x
    set.  T's split planes (the carry chain of
    semigroup._extension_generators) are built only when one of its
    children is expanded; such a child gets its generators and planes by
    semigroup._removal_generators and its image masks by toggling T's at
    x.

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

    (d) Orbit tests.  Let G be the gap mask of T, I = σ(G) its image
    mask under a non-identity permutation σ, D = G ^ I and b the lowest
    bit of D.  Of two masks of one size, the lesser profile holds the
    lowest bit of their XOR, so T is orbit-minimal iff, for every σ,
    D = 0 or b lies in G.  Each move x lies past every gap of G, so x is
    not in G, σ(x) is not in I, and C ^ σ(C) = D ^ x ^ σ(x) for
    C = G + {x}.  If b lies in I, D holds a bit of G too, as G and I
    have one size, so x > b; and σ(x) is not b.  The lowest bit of
    C ^ σ(C) is then σ(x) when σ(x) < b and b otherwise, both in σ(C)
    and not in C: a T that is not orbit-minimal has no orbit-minimal
    child.  For an orbit-minimal T, x passes σ when D = 0 and
    σ(x) >= x, else σ(x) would be the lowest bit, in σ(C) alone; and
    when D is not 0, x passes σ when σ(x) > b, as b in G is then the
    lowest bit, and fails when σ(x) < b, which is then the lowest bit,
    in σ(C) alone.  The one x with σ(x) = b passes when D ^ x ^ b is 0
    or its lowest bit lies in C.  The same lemma covers a move x first
    in its own orbit, σ(x) >= x > b for every σ, which past
    semigroup._IMAGE_DIM is kept untested.

    limit is unused: every node has the root's genus."""
    gaps, gens, splits, carried, specials = node
    maps = U.image_maps()
    half = U.halves()
    if maps is None:
        order = U.order
        points = U.points
        support = U.supports()
    out = []
    # the bit loops are _bits inlined, as this is the walk's kernel
    rest = specials
    while rest:
        low = rest & -rest
        rest ^= low
        h = low.bit_length() - 1
        tg = gaps ^ low
        # S's generators past T's Frobenius gap: T's moves, and the sums
        # h + s that X_h clears
        top = tg.bit_length()
        moves = gens >> top << top
        if not moves:
            continue
        # T first: a T that is not orbit-minimal has no orbit-minimal child
        if maps is None:
            t_touched = _touched_slots(U, tg)
            if not _gapset_is_representative(U, tg, t_touched):
                continue
        else:
            t_images = _minimal_images(maps, tg, carried, h)
            if t_images is None:
                continue
        x_h = _member_sums(U, h, tg)
        moves &= ~x_h
        if not moves:
            continue
        if maps is None:
            # a move first in its own orbit is kept untested
            keep = 0
            for x in _bits(moves):
                if _orbit_minimal(points[x], order) or _gapset_is_representative(
                        U, tg | 1 << x, t_touched | support[x]):
                    keep |= 1 << x
        else:
            keep = _minimal_moves(U, tg, t_images, moves)
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
    leaves(U, node, levels) on a seed and gives the node counts of every
    level below it, levels >= 1 of them, without building a node, for a
    tree whose children have one gap more than their parent; the other
    trees need the orbit test or the orbit sizes of their leaves.  sums,
    images and specials say whether a node carries the entries of those
    names in the node layout stated above _toggled.
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

    A tree whose variant counts its leaves (the full tree) builds no node
    below its seeds when nothing is kept: each seed above limit adds the
    counts of the limit - depth levels below it, which it reads off its
    generator mask, split planes and member sums by one recursion over
    light nodes (see _full_leaves and _full_light), without building a
    node or calling its child function; a seed at limit - 1 carries no
    sums and counts its moves alone.  These levels need no repeat check:
    each drops a point past the one dropped above it.  A node whose
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
            if leaves is not None:
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
    A full walk without a visitor builds no node below its seeds: each
    seed counts every level below it by one recursion over light nodes,
    each its gap mask, its moves with their member sums and the masks e_c
    of its points with exactly c splits, which a child reads off its
    parent's as e_c & ~X_n | e_{c+1} & X_n, X_n the sums of the move n it
    drops; the last two levels are counted off the moves, sums and e_1
    alone.  Each level drops a point past the one dropped above it, so no
    node there is counted twice.

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
