"""Points of N^d, total orders on them, and coordinate permutations.

Points are plain int tuples read left to right.  The basis is numbered so
that e_1 = (0, ..., 0, 1) and e_d = (1, 0, ..., 0); basis index i sits at
tuple slot d - i.  Orders are exposed through injective sort keys, so
everything downstream compares and sorts at C speed.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

Point = tuple

# permutation groups get materialized, so the dimension is capped
MAX_DIM = 8
# the largest genus a tree walk may have, so that no walk or checkpoint
# header sizes its lists and point universe past it.  n(1, g) grows by a
# factor of about 1.7 per genus (343 -> 592 at g = 11 -> 12), so no walk
# past it can finish, and the largest universe it allows, d = 8 at genus
# 101, holds 153 824 points
MAX_GENUS = 100

LESS, EQUAL, GREATER = -1, 0, 1


def check_dim(d: int) -> int:
    if not isinstance(d, int) or not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be an int in 1..{MAX_DIM}, got {d!r}")
    return d


class OrderSpec:
    """A relaxed monomial order, as a named key function.

    key(p) returns a value comparing under Python's ordering exactly as p
    compares under the order; keys are injective.  The flags record which
    axioms the order satisfies: monomial orders are translation invariant,
    one-graded orders put all basis vectors before every other point, and
    o_good orders are the ones allowed to drive the fixed-genus tree.
    """

    __slots__ = ("name", "key", "monomial", "one_graded", "o_good")

    def __init__(self, name, key, *, monomial, one_graded, o_good):
        self.name = name
        self.key = key
        self.monomial = monomial
        self.one_graded = one_graded
        self.o_good = o_good

    def __repr__(self):
        return f"<order {self.name}>"

    def __reduce__(self):
        return (get_order, (self.name,))


def _lex_key(p):
    return p


def _glex_key(p):
    return (sum(p), p)


def _make_order1_key(base_key):
    def key(p):
        # points supported on the last slot only, i.e. multiples of e_1,
        # come first in natural order; the rest falls back to the base
        if any(p[:-1]):
            return (1, base_key(p))
        return (0, p[-1])

    return key


LEX = OrderSpec("lex", _lex_key, monomial=True, one_graded=False, o_good=True)
GLEX = OrderSpec("glex", _glex_key, monomial=True, one_graded=True, o_good=False)
ORDER1 = OrderSpec("order1", _make_order1_key(_glex_key),
                   monomial=False, one_graded=False, o_good=True)
_ORDER1_LEX = OrderSpec("order1[lex]", _make_order1_key(_lex_key),
                        monomial=False, one_graded=False, o_good=True)

_ORDERS = {o.name: o for o in (LEX, GLEX, ORDER1, _ORDER1_LEX)}


def get_order(name: str) -> OrderSpec:
    try:
        return _ORDERS[name]
    except KeyError:
        raise ValueError(f"unknown order {name!r}, choose from {sorted(_ORDERS)}") from None


def order1(base: OrderSpec = GLEX) -> OrderSpec:
    """The order that ranks every multiple of e_1 below everything else."""
    if base.name == "glex":
        return ORDER1
    if base.name == "lex":
        return _ORDER1_LEX
    raise ValueError("order1 admits only lex or glex as its base")


def compare(order: OrderSpec, a: Point, b: Point) -> int:
    """-1, 0 or 1 as a precedes, equals or follows b under the order."""
    if len(a) != len(b):
        raise ValueError("points of different dimension are incomparable")
    ka, kb = order.key(a), order.key(b)
    if ka < kb:
        return LESS
    if ka > kb:
        return GREATER
    return EQUAL


def basis_point(d: int, i: int) -> Point:
    """e_i: the unit vector at basis index i, which is tuple slot d - i."""
    if not 1 <= i <= d:
        raise ValueError(f"basis index must be in 1..{d}, got {i}")
    return tuple(1 if s == d - i else 0 for s in range(d))


def basis_index(x: Point) -> Optional[int]:
    """Basis index of a unit vector, None for any other point."""
    if sum(x) != 1 or min(x) < 0:
        return None
    return len(x) - x.index(1)


def min_basis_point(d: int, order: OrderSpec) -> Point:
    """The least basis vector, which is also the least nonzero point."""
    return min((basis_point(d, i) for i in range(1, d + 1)), key=order.key)


class Permutation:
    """A bijection of basis indices {1, ..., d} acting on points.

    images[i - 1] is the image of basis index i; acting on a point moves
    the coordinate at basis slot i to basis slot images[i - 1].  In tuple
    terms, slot s of the result reads slot src[s] of the argument.
    """

    __slots__ = ("images", "src")

    def __init__(self, images):
        images = tuple(images)
        d = len(images)
        check_dim(d)
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError(f"not a permutation of 1..{d}: {images}")
        src = [0] * d
        for i, im in enumerate(images, start=1):
            src[d - im] = d - i
        self.images = images
        self.src = tuple(src)

    @property
    def dim(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(range(1, d + 1))

    @classmethod
    def transposition(cls, d: int, i: int, j: int) -> "Permutation":
        """Swap basis indices i and j."""
        images = list(range(1, d + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(images)

    @classmethod
    def from_cycles(cls, d: int, *cycles) -> "Permutation":
        images = list(range(1, d + 1))
        for cyc in cycles:
            cyc = tuple(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return cls(images)

    def apply(self, x: Point) -> Point:
        if len(x) != len(self.src):
            raise ValueError("dimension mismatch")
        return tuple(x[s] for s in self.src)

    def inverse(self) -> "Permutation":
        inv = [0] * self.dim
        for i, im in enumerate(self.images, start=1):
            inv[im - 1] = i
        return Permutation(inv)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


def arrangements(x: Point):
    """The distinct rearrangements of the coordinates of x, each once, in
    lex order: a next-permutation walk over the sorted coordinates, so a
    point with repeated coordinates costs its orbit, not d!."""
    a = sorted(x)
    n = len(a)
    while True:
        yield tuple(a)
        # the longest non-increasing tail is last in its own order: bump
        # the entry before it to its next larger value and reset the tail
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def orbit_point(x: Point) -> frozenset:
    """All rearrangements of the coordinates of x."""
    return frozenset(arrangements(x))


@lru_cache(maxsize=None)
def all_permutations(d: int) -> tuple:
    """Every permutation of 1..d, in lex order of the image tuples, so the
    identity comes first."""
    check_dim(d)
    return tuple(map(Permutation, itertools.permutations(range(1, d + 1))))
