"""Canonical forms of gap semigroups under coordinate permutations.

Orbits are compared through profiles: the gap set sorted ascending under
the active order, compared position by position.  The internal tests take
a walk's own node, a gap mask over a universe ranked by the order (a
point's index is its rank, see semigroup._universe); the public ones
encode S.gaps once.

A walk of dimension at most 4 tests a gap set off the image masks of the
node it was made from, one per non-identity permutation (see
semigroup._Universe.image_maps), toggling in each the image of the one
point where the two differ, and builds a child's own masks only when it
expands the child.  Of two masks of one size, the lesser profile holds
the lowest bit of their XOR, so each permutation costs one toggle, one
XOR and one lowest-bit test, and the masks decide without the filters of
_minimality.  A fixed-genus middle node builds its own masks as it tests
itself (_minimal_images), then decides all of its moves, the points past
its top gap, with one mask AND per permutation off per-universe rank
tables (_minimal_moves).  Otherwise the test reads the mask of the tuple slots the
gaps touch, which a walk past d = 4 carries down from the parent and the
public tests build from the gaps.  Moving a gap's coordinate into a higher
slot that no gap touches lowers the profile (see _scan_table), so a gap
set whose touched slots are not the last ones is refused off that mask
alone.  The orbit scan then only ever tries permutations that move some
unit gap onto the least basis vector, because once a profile starts with
the least basis vector, no profile starting elsewhere can undercut it.  Of
those it tries one per placement of the k touched slots onto the last k
tuple slots, k! at most.  It compares profiles as sorted integer ranks
rather than as sorted keys, zipped from rows of image ranks that each
universe caches per gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from .core import (EQUAL, GREATER, LESS, OrderSpec, Permutation, Point,
                   all_permutations, arrangements, basis_index)
from .semigroup import (_IMAGE_DIM, GapSemigroup, NotMinimalGenerator, _bits,
                        _touched_slots, _universe)


class GenusMismatch(ValueError):
    pass


@dataclass(frozen=True)
class RepVerdict:
    """Outcome of a representative test.

    witness carries a permutation that strictly lowers the profile whenever
    the verdict is negative, not necessarily the first such in
    all_permutations order nor the one reaching the orbit minimum;
    filter_used names the pipeline stage that decided (see _minimality):
    "min-gap-lemma", "graded-filter", "touched-suffix" or
    "full-orbit-scan", the last also for every positive verdict.
    """

    is_representative: bool
    witness: Optional[Permutation]
    filter_used: str


def permute_gns(perm: Permutation, S: GapSemigroup) -> GapSemigroup:
    """Apply the permutation to every gap (and to cached generators)."""
    if perm.dim != S.dim:
        raise ValueError("dimension mismatch")
    gaps = frozenset(perm.apply(h) for h in S.gaps)
    gens = S._gens
    if gens is not None:
        gens = frozenset(perm.apply(a) for a in gens)
    return GapSemigroup(S.dim, gaps, generators=gens, _trusted=True)


def _profile(gaps, key):
    return sorted(map(key, gaps))


def compare_R(S: GapSemigroup, T: GapSemigroup, order: OrderSpec) -> int:
    """Compare gap sets as sorted sequences at the first differing slot."""
    if S.dim != T.dim:
        raise ValueError("dimension mismatch")
    if S.genus != T.genus:
        raise GenusMismatch(f"genus {S.genus} vs {T.genus}")
    a = _profile(S.gaps, order.key)
    b = _profile(T.gaps, order.key)
    if a < b:
        return LESS
    if a > b:
        return GREATER
    return EQUAL


@lru_cache(maxsize=None)
def _orbit_minimal(x: Point, order: OrderSpec) -> bool:
    """Does x come first in its own coordinate orbit?"""
    key = order.key
    kx = key(x)
    return all(kx <= key(p) for p in arrangements(x))


@lru_cache(maxsize=None)
def _scan_table(d, touched):
    """Per slot s read into e_1's slot (src[d - 1] == s), the permutations
    to scan and the itemgetters that apply them to a point, as a pair of
    tuples in the same order, for gap sets that are nonzero exactly on the
    slots of the mask touched (bit t for tuple slot t).

    A permutation maps a gap set with those touched slots to an image fixed
    by where it places the touched slots, so each placement is scanned once,
    through its first permutation in all_permutations order: the one the
    full scan would meet first, so the least profile's witness is the one
    the full scan finds.  Placements
    that keep every touched slot in place give the identity's image and
    are dropped.

    Only the k! placements onto the last k slots, d - k .. d - 1, are
    listed, k being the number of touched slots.  Under every order in
    core._ORDERS, moving a point's nonzero coordinate into a higher tuple
    slot where the point is zero makes the point smaller (tests/test_core
    checks it).  So if some gap touches slot t and no gap touches a slot
    r > t, the transposition of t and r lowers every gap nonzero at t and
    fixes the others, and the sorted profile drops.  Hence:
    - the orbit minimum touches exactly the last k slots, so every
      permutation reaching it places the touched slots there;
    - if σ(S) < S, such transpositions carry σ(S) to an image touching
      the last k slots, of a profile at most σ(S)'s, hence below S's.
    Each listed placement reads some touched slot into e_1's slot d - 1.
    """
    slots = tuple(t for t in range(d) if touched >> t & 1)
    groups = [[] for _ in range(d)]
    for target in itertools.permutations(range(d - len(slots), d)):
        if target == slots:
            continue
        # source slot t lands in slot r: basis index d - t goes to d - r
        images = [0] * d
        for t, r in zip(slots, target):
            images[d - 1 - t] = d - r
        # the least completion fills the free indices in ascending order
        rest = iter(sorted(set(range(1, d + 1)).difference(images)))
        groups[slots[target.index(d - 1)]].append(
            tuple(im or next(rest) for im in images))
    table = []
    for group in groups:
        perms = tuple(map(Permutation, sorted(group)))
        table.append((perms, tuple(itemgetter(*p.src) for p in perms)))
    return tuple(table)


@lru_cache(maxsize=None)
def _suffix_witness(d, touched):
    """The transposition of the highest slot outside the mask touched and
    the highest slot of the mask below it, for a mask of tuple slots that
    is not d - k .. d - 1: by _scan_table's lemma it lowers the profile of
    every gap set touching exactly those slots."""
    free = ~touched & (1 << d) - 1
    r = free.bit_length() - 1
    t = (touched & (1 << r) - 1).bit_length() - 1
    return Permutation.transposition(d, d - t, d - r)


def _rep_scan(U, gaps, first, touched, images=None, n=None):
    """The permutation with the least profile below the identity's, or None;
    with first set, the first one found below the identity's in table
    order, which places the touched slots on the last ones.  touched is
    the mask of the slots the gaps touch (semigroup._touched_slots).

    Given image masks and n (see semigroup._Universe.image_maps), the masks
    are those of the walk node that gaps was made from by adding or dropping
    the point of index n, and each is toggled at n's image on the fly, so the
    test builds none.  It then returns the first permutation, in
    all_permutations order, whose image has a lower profile, whatever first
    says: the ranks being the bits, of two masks with one size the lesser
    profile holds the lowest bit of their XOR.

    A profile starting at the least basis vector beats every other, so
    only permutations reading a unit-gap slot into e_1's slot can compete,
    one per placement of the touched slots onto the last slots (see
    _scan_table), which holds every permutation reaching the least
    profile, the first in all_permutations order among them.  The profiles
    of group s are read off cached rows: per gap, the ranks of its images
    under every permutation of the group, in table order (U.rank_rows).
    """
    if images is not None:
        # a counted loop: twice as fast here as enumerate over a zip
        maps = U.image_maps()
        k = 0
        for im in images:
            im ^= 1 << maps[k][n]
            diff = gaps ^ im
            if diff & -diff & im:
                return all_permutations(U.dim)[k + 1]
            k += 1
        return None
    unit = U.unit_bits()
    units = [s for s in range(U.dim) if gaps & unit[s]]
    if not units:
        return None
    # U holds every image (it is closed under permutation) and ranks by its
    # index, so sorted ranks compare as profiles; the bits are the identity's
    idx = best = _bits(gaps)
    table = _scan_table(U.dim, touched)
    rows = U.rank_rows
    points = U.points
    rank = U.index.__getitem__
    best_perm = None
    for s in units:
        perms, gets = table[s]
        if not perms:
            continue
        cols = []
        for i in idx:
            row = rows.get((touched, s, i))
            if row is None:
                x = points[i]
                row = rows[touched, s, i] = tuple([rank(get(x)) for get in gets])
            cols.append(row)
        for k, prof in enumerate(map(sorted, zip(*cols))):
            if prof < best:
                if first:
                    return perms[k]
                best = prof
                best_perm = perms[k]
    return best_perm


def _minimal_images(maps, gaps, images, n):
    """The image masks of the gap mask gaps under maps (U.image_maps()),
    read off images, those of gaps with the point of index n toggled, or
    None when gaps is not orbit-minimal.  As in _rep_scan, gaps is
    orbit-minimal when no image holds the lowest bit of its XOR with
    gaps.  A fixed-genus middle node tests itself so, and keeps the masks
    for _minimal_moves and for its children (see
    trees._fixed_genus_children)."""
    out = []
    k = 0
    for im in images:
        im ^= 1 << maps[k][n]
        diff = gaps ^ im
        if diff & -diff & im:
            return None
        out.append(im)
        k += 1
    return out


def _minimal_moves(U, gaps, images, moves):
    """The mask of the points x in moves for which gaps | 1 << x is
    orbit-minimal, or 0 when gaps is not, up to semigroup._IMAGE_DIM; each
    move must lie past the top bit of gaps (ValueError otherwise).  images
    are the image masks of gaps under U.image_maps().  With
    D = gaps ^ σ(gaps) and b its lowest bit, per permutation σ: gaps is
    not orbit-minimal
    when b lies in σ(gaps), and then no move passes; otherwise x passes σ
    when σ(x) >= x if D = 0 (U.rank_tables() mask ge), and when
    σ(x) > b if not (the mask above[b]), save the one x with σ(x) = b,
    which passes when D ^ x ^ b is 0 or its lowest bit lies in
    gaps | 1 << x.  So the moves are decided by one mask AND per
    permutation; trees._fixed_genus_children, (d), has the proof.  A
    fixed-genus middle node decides its children so."""
    if moves & (1 << gaps.bit_length()) - 1:
        raise ValueError("a move lies below the top bit of the gap mask")
    for im, (inverse, ge, above) in zip(images, U.rank_tables()):
        diff = gaps ^ im
        if not diff:
            moves &= ge
        else:
            low = diff & -diff
            if not low & gaps:
                return 0
            b = low.bit_length() - 1
            x = inverse[b]
            keep = above[b]
            if moves >> x & 1:
                rest = diff ^ low ^ 1 << x
                if not rest or rest & -rest & (gaps | 1 << x):
                    keep |= 1 << x
            moves &= keep
        if not moves:
            return 0
    return moves


def _minimality(U, gaps, touched=None) -> tuple:
    """(witness, stage): a permutation strictly lowering the profile of the
    gap mask, or None when it is orbit-minimal, and the stage that decided.

    Stages, cheapest first: the minimum-gap lemma (the least gap of a
    representative must be e_1, the least nonzero point, of rank 0; it is
    always a basis vector since any other point splits into smaller ones),
    then for one-graded orders the unit-gap prefix test, then the
    touched-suffix test, then the scan.  The touched-suffix test reads
    touched, the mask of the slots the gaps touch, built from the gaps when
    not given: the orbit minimum touches exactly the last k slots (see
    _scan_table), so a mask that is not d - k .. d - 1 is refused, with
    _suffix_witness as the witness.
    """
    if not gaps:
        return None, "full-orbit-scan"
    d = U.dim
    if not gaps & 1:
        # swapping the offending basis gap down strictly lowers slot one
        mg = U.points[(gaps & -gaps).bit_length() - 1]
        return Permutation.transposition(d, 1, basis_index(mg)), "min-gap-lemma"
    if U.order.one_graded:
        # under a one-graded order the unit points take the first d ranks,
        # so the unit gaps fill the first profile slots: basis indices 1..r
        idx = sorted(basis_index(U.points[k]) for k in _bits(gaps & (1 << d) - 1))
        if idx != list(range(1, len(idx) + 1)):
            # push them onto 1..r, the rest after; the first defect decides
            seq = idx + [i for i in range(1, d + 1) if i not in idx]
            return Permutation(seq).inverse(), "graded-filter"
    if touched is None:
        touched = _touched_slots(U, gaps)
    # a suffix mask plus its lowest bit is 1 << d; the mask is nonzero
    if touched + (touched & -touched) != 1 << d:
        return _suffix_witness(d, touched), "touched-suffix"
    return _rep_scan(U, gaps, True, touched), "full-orbit-scan"


def _gapset_is_representative(U, gaps, carried, n=None) -> bool:
    """Representative test on a gap mask over the ranked universe U, given
    what a walk carries for it: past semigroup._IMAGE_DIM its touched-slot
    mask, which _minimality reads; up to it the image masks of the node it
    was made from, which differs from it at the point of index n (see
    _rep_scan).  The image masks decide alone, so they go to the scan
    without _minimality's filters, which would only repeat their verdict."""
    if U.dim > _IMAGE_DIM:
        return _minimality(U, gaps, carried)[0] is None
    return _rep_scan(U, gaps, True, None, carried, n) is None


def is_representative(S: GapSemigroup, order: OrderSpec) -> RepVerdict:
    """Decide orbit minimality, cheapest filter first (see _minimality).

    A negative verdict's witness strictly lowers the profile; past the
    three filters it is the scan's first find (see _rep_scan), which need
    not reach the orbit minimum.
    """
    U = _universe(S.dim, S.genus, order)
    witness, stage = _minimality(U, U.mask(S.gaps))
    return RepVerdict(witness is None, witness, stage)


def representative(S: GapSemigroup, order: OrderSpec) -> GapSemigroup:
    """The orbit's least element under the profile order."""
    U = _universe(S.dim, S.genus, order)
    gaps = U.mask(S.gaps)
    perm = _rep_scan(U, gaps, False, _touched_slots(U, gaps))
    return S if perm is None else permute_gns(perm, S)


def safe_child_generator(S: GapSemigroup, n: Point, order: OrderSpec) -> bool:
    """True when n comes first in its own orbit, in which case removing it
    from the representative S is guaranteed to yield a representative."""
    n = tuple(n)
    if n not in S.generators:
        raise NotMinimalGenerator(f"{n} is not a minimal generator of {S!r}")
    return _orbit_minimal(n, order)


def is_equivariant(S: GapSemigroup) -> bool:
    """Invariance under every coordinate permutation, via adjacent swaps."""
    gaps = S.gaps
    for s in range(S.dim - 1):
        for h in gaps:
            if h[s] != h[s + 1]:
                w = list(h)
                w[s], w[s + 1] = w[s + 1], w[s]
                if tuple(w) not in gaps:
                    return False
    return True


def isomorphism_between(S: GapSemigroup, T: GapSemigroup) -> Optional[Permutation]:
    """A permutation carrying S onto T, or None; identity tried first."""
    if S.dim != T.dim:
        raise ValueError("dimension mismatch")
    if S.genus != T.genus:
        return None
    tg = T.gaps
    for perm in all_permutations(S.dim):
        if all(perm.apply(h) in tg for h in S.gaps):
            return perm
    return None


def orbit_size(S: GapSemigroup) -> int:
    """Distinct gap sets among all coordinate rearrangements."""
    return len({frozenset(map(perm.apply, S.gaps))
                for perm in all_permutations(S.dim)})
