"""Exhaustive baseline enumeration at small genus, used as a test oracle.

Independent of the tree machinery and the canonical layer: semigroups are
found as gap subsets of a candidate box and orbit minima over the whole
orbit, so the two code paths can be checked against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import OrderSpec, all_permutations, check_dim
from .counting import ResourceLimit
from .semigroup import GapSemigroup


@dataclass(frozen=True)
class CandidateBox:
    """All points that can possibly be gaps at the given genus."""

    d: int
    g: int
    points: tuple


def candidate_box(g: int, d: int) -> CandidateBox:
    """Nonzero points x with prod(x_i + 1) <= 2g, in graded order.

    Points below a gap h pair off with their difference from h, and each
    pair contains a gap, so the box under h can hold at most 2g points.
    """
    check_dim(d)
    if g < 0:
        raise ValueError("genus must be nonnegative")
    pts = [p for p in itertools.product(range(2 * g), repeat=d)
           if any(p) and math.prod(c + 1 for c in p) <= 2 * g]
    pts.sort(key=lambda p: (sum(p), p))
    return CandidateBox(d, g, tuple(pts))


def _splits_covered(h, chosen):
    for a in itertools.product(*(range(c + 1) for c in h)):
        if not any(a) or a == h or a in chosen:
            continue
        if tuple(x - y for x, y in zip(h, a)) not in chosen:
            return False
    return True


def brute_force_all(g: int, d: int) -> set:
    """Every gap semigroup of exact genus g in dimension d.

    Gap sets grow through the candidate box in graded order.  Each added
    point must already have every split covered by the chosen set; split
    parts are strictly smaller in the graded order than the point itself,
    so a violated condition could never be repaired by later additions and
    pruning the branch is exact.  The guard (genus 6, dimension 3) keeps
    the search in the regime where this finishes quickly.
    """
    check_dim(d)
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g > 6 or d > 3:
        raise ResourceLimit("brute force capped at genus 6, dimension 3")
    if g == 0:
        return {GapSemigroup(d, frozenset())}
    pts = candidate_box(g, d).points
    npts = len(pts)
    found = []
    chosen = set()
    seq = []

    def grow(start, need):
        if need == 0:
            found.append(frozenset(seq))
            return
        for i in range(start, npts - need + 1):
            h = pts[i]
            if _splits_covered(h, chosen):
                chosen.add(h)
                seq.append(h)
                grow(i + 1, need - 1)
                chosen.discard(h)
                seq.pop()

    grow(0, g)
    return {GapSemigroup(d, gaps, _trusted=True) for gaps in found}


def orbit_minimum(S: GapSemigroup, order: OrderSpec) -> GapSemigroup:
    """The least profile over every coordinate permutation of S, with no
    pruning, as the reference for the canonical layer's orbit scan."""
    key = order.key
    images = (frozenset(map(perm.apply, S.gaps))
              for perm in all_permutations(S.dim))
    return GapSemigroup(S.dim, min(images, key=lambda gaps: sorted(map(key, gaps))),
                        _trusted=True)


def brute_force_representatives(g: int, d: int, order: OrderSpec) -> set:
    """Orbit-least elements of everything brute_force_all finds."""
    return {orbit_minimum(S, order) for S in brute_force_all(g, d)}
