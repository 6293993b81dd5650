"""Canonical forms of gap semigroups under coordinate permutations.

Orbits are compared through profiles: the gap set sorted ascending under
the active order, compared position by position.  The orbit scan only ever
tries permutations that move some unit gap onto the least basis vector,
because once a profile starts with the least basis vector, no profile
starting elsewhere can undercut it.  Of those it tries one per placement
of the slots the gaps touch, and it compares profiles as sorted integer
ranks over the point universe rather than as sorted keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from .core import (EQUAL, GREATER, LESS, OrderSpec, Permutation, Point,
                   all_permutations, basis_index, min_basis_point, orbit_point)
from .semigroup import GapSemigroup, NotMinimalGenerator, _universe


class GenusMismatch(ValueError):
    pass


@dataclass(frozen=True)
class RepVerdict:
    """Outcome of a representative test.

    witness carries a permutation that strictly lowers the profile whenever
    the verdict is negative; filter_used names the pipeline stage that
    decided.
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
    return all(kx <= key(p) for p in itertools.permutations(x))


@lru_cache(maxsize=None)
def _ranks(d, G, key):
    """Each point of the universe of (d, G) mapped to its position under key.

    The universe, prod(x_i + 1) <= 2G, holds every gap of a semigroup of
    genus at most G and is closed under coordinate permutations, since the
    product is symmetric.  Ranks compare as keys do, so sorted ranks compare
    as profiles do.
    """
    return {p: r for r, p in enumerate(sorted(_universe(d, G).points, key=key))}


@lru_cache(maxsize=None)
def _moves(d):
    """Each permutation, by image tuple, paired with the itemgetter that
    applies it to a point; every scan table shares these pairs."""
    return {perm.images: (perm, itemgetter(*perm.src))
            for perm in all_permutations(d)}


@lru_cache(maxsize=None)
def _scan_table(d, touched):
    """The (perm, getter) pairs to scan, per slot s read into e_1's slot
    (src[d - 1] == s), for gap sets that are nonzero exactly on the slots
    t with touched[t].

    A permutation maps a gap set with those touched slots to an image fixed
    by where it places the touched slots, so each placement is scanned once,
    through its first permutation in all_permutations order: the one the
    full scan would meet first, so witnesses stay the same.  Placements
    that keep every touched slot in place give the identity's image and
    are dropped, as are those reading an untouched slot into e_1's slot.
    """
    moves = _moves(d)
    slots = tuple(t for t in range(d) if touched[t])
    groups = [[] for _ in range(d)]
    for target in itertools.permutations(range(d), len(slots)):
        if target == slots or d - 1 not in target:
            continue
        # source slot t lands in slot r: basis index d - t goes to d - r
        images = [0] * d
        for t, r in zip(slots, target):
            images[d - 1 - t] = d - r
        # the least completion fills the free indices in ascending order
        rest = iter(sorted(set(range(1, d + 1)).difference(images)))
        groups[slots[target.index(d - 1)]].append(
            tuple(im or next(rest) for im in images))
    return tuple(tuple(moves[images] for images in sorted(g)) for g in groups)


def _orbit_ranks(gaps, key):
    """Ranks over every rearrangement of the gaps, for gap sets that leave
    the universe of their genus (they belong to no semigroup)."""
    pts = set(itertools.chain.from_iterable(map(orbit_point, gaps)))
    return {p: r for r, p in enumerate(sorted(pts, key=key))}


def _rep_scan(gaps, d, key, first):
    """The permutation with the least profile below the identity's, or None;
    with first set, the first one found below the identity's.

    A profile starting at the least basis vector beats every other, so
    only permutations reading a unit-gap slot into e_1's slot can compete,
    one per placement of the touched slots (see _scan_table).
    """
    units = sorted(h.index(1) for h in gaps if sum(h) == 1)
    if not units:
        return None
    rank = _ranks(d, len(gaps), key).__getitem__
    try:
        best = sorted(map(rank, gaps))
    except KeyError:
        # a gap beyond the universe of its genus: the set is no semigroup's;
        # otherwise the universe, closed under permutation, holds every image
        rank = _orbit_ranks(gaps, key).__getitem__
        best = sorted(map(rank, gaps))
    table = _scan_table(d, tuple(map(any, zip(*gaps))))
    best_perm = None
    for s in units:
        for perm, get in table[s]:
            prof = sorted(map(rank, map(get, gaps)))
            if prof < best:
                if first:
                    return perm
                best = prof
                best_perm = perm
    return best_perm


def _minimality(gaps, d, order) -> tuple:
    """(witness, stage): a permutation strictly lowering the profile, or
    None when the gap set is orbit-minimal, and the stage that decided.

    Stages, cheapest first: the minimum-gap lemma (the least gap of a
    representative must be the least basis vector, and it is always a
    basis vector since any other point splits into smaller ones), then for
    one-graded orders the unit-gap prefix test, then the pruned orbit scan.
    """
    if not gaps:
        return None, "full-orbit-scan"
    key = order.key
    e1 = min_basis_point(d, order)
    mg = min(gaps, key=key)
    if mg != e1:
        # swapping the offending basis gap down strictly lowers slot one
        return (Permutation.transposition(d, basis_index(e1), basis_index(mg)),
                "min-gap-lemma")
    if order.one_graded:
        # under a one-graded order the unit gaps fill the first profile
        # slots, so they must sit on basis indices 1..r
        idx = sorted(basis_index(h) for h in gaps if sum(h) == 1)
        if idx != list(range(1, len(idx) + 1)):
            # push them onto 1..r; the first defect decides
            images = {j: k for k, j in enumerate(idx, start=1)}
            free = [t for t in range(1, d + 1) if t not in set(images.values())]
            rest = [i for i in range(1, d + 1) if i not in images]
            images.update(zip(rest, free))
            return (Permutation(images[i] for i in range(1, d + 1)),
                    "graded-filter")
    return _rep_scan(gaps, d, key, True), "full-orbit-scan"


def _gapset_is_representative(gaps, d, order) -> bool:
    """Representative test on a bare gap set."""
    return _minimality(gaps, d, order)[0] is None


def is_representative(S: GapSemigroup, order: OrderSpec) -> RepVerdict:
    """Decide orbit minimality, cheapest filter first (see _minimality)."""
    witness, stage = _minimality(S.gaps, S.dim, order)
    return RepVerdict(witness is None, witness, stage)


def representative(S: GapSemigroup, order: OrderSpec) -> GapSemigroup:
    """The orbit's least element under the profile order."""
    perm = _rep_scan(S.gaps, S.dim, order.key, False)
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
