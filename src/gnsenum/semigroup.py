"""Finite-gap submonoids of N^d and their generator calculus."""

from __future__ import annotations

import functools
import itertools
from operator import sub
from typing import Optional

from .core import LEX, OrderSpec, Point, check_dim


class NotAMonoid(ValueError):
    """A claimed gap set whose complement is not closed under addition."""

    def __init__(self, h, a, b):
        super().__init__(
            f"complement not closed: {a} + {b} = {h} is a gap but neither part is")
        self.h = h
        self.a = a
        self.b = b


class NotAGap(ValueError):
    pass


class NotSpecialGap(ValueError):
    pass


class NotMinimalGenerator(ValueError):
    pass


class GapSemigroup:
    """A submonoid of N^d with finite complement, stored as its gap set.

    Instances are meant to be immutable.  Public construction checks the
    gap set: each gap must be a nonzero point of N^d, and every split of a
    gap into two nonzero parts must have a gap among them, or NotAMonoid
    names the gap and one such split; it reads the split pairs of the gaps
    alone.  The gaps are stored as the point universe's own int tuples (see
    _universe).  The generator and conductor caches fill on first use, the
    generators in one pass over the universe of genus + 1 (a fill is
    idempotent, so two that race store equal values);
    construction sites that already know them pass them in, and the
    program's own, whose gap sets are closed by construction, take the
    trusted path and skip the check.

    The kernels below work on masks over a universe instead (bit i stands
    for points[i]); the public functions of this module encode their
    arguments there and decode their results.
    """

    __slots__ = ("dim", "gaps", "_gens", "_conductor")

    def __init__(self, dim, gaps, generators=None, _trusted=False):
        self.dim = dim
        self.gaps = gaps if _trusted else _checked_gaps(check_dim(dim), gaps)
        self._gens = frozenset(generators) if generators is not None else None
        self._conductor = None

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def conductor(self) -> Point:
        """1 + the per-axis gap maxima; all zeros exactly when gap-free.

        Translating N^d by this vector lands inside the monoid, and every
        minimal generator fits below twice it.
        """
        c = self._conductor
        if c is None:
            if self.gaps:
                c = tuple(1 + max(h[s] for h in self.gaps) for s in range(self.dim))
            else:
                c = (0,) * self.dim
            self._conductor = c
        return c

    @property
    def generators(self) -> frozenset:
        gens = self._gens
        if gens is None:
            U = _universe(self.dim, len(self.gaps) + 1)
            gens = self._gens = U.decode(_generators_from_scratch(U, U.mask(self.gaps)))
        return gens

    def __eq__(self, other):
        return (isinstance(other, GapSemigroup)
                and self.dim == other.dim and self.gaps == other.gaps)

    def __hash__(self):
        return hash((self.dim, self.gaps))

    def __repr__(self):
        shown = ",".join(str(h) for h in sorted(self.gaps))
        return f"GapSemigroup(d={self.dim}, gaps=[{shown}])"

    def __getstate__(self):
        return (self.dim, self.gaps, self._gens)

    def __setstate__(self, state):
        self.dim, self.gaps, self._gens = state
        self._conductor = None


def _bits(m):
    """The indices of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


class _Universe:
    """The nonzero points x of N^d with prod(x_i + 1) <= 2G, indexed once.

    The box is closed downward, so every split x = y + (x - y) of a point
    stays inside it, and closed under coordinate permutations.  points[i]
    is the point with index i and bit 1 << i, index maps each point to i,
    full is the mask of all of them.  The points are ranked by the order:
    a point's index is its rank, the highest bit of a gap mask is its
    largest gap under the order, and every proper part y <= x of a point
    comes before it.

    pairs(i) holds one mask bit(y) | bit(x - y) per split of x = points[i]
    into nonzero parts with x - y <= y, so a point has a split inside a set
    with mask M exactly when some P in pairs(i) has M & P == P.  The most
    even splits come first: gaps crowd the origin, so those are the
    likeliest to lie in a semigroup.  row(i) maps j to the index of
    points[i] + points[j], for the sums that stay in the box.  The same
    pass fills doms[i], the domain mask of the row (bit j set exactly when
    that sum stays in the box), and sums[i], the mask of those sums, so a
    kernel looks up row(i)[j] directly for the set bits j of a mask &
    doms[i].  pairs and rows are built per point on first use.

    For the orbit scan (see canonical._rep_scan): supports() gives each
    point's mask of nonzero tuple slots, bit t for slot t, and unit_bits()
    the bit of the unit point at each slot, both built on first use.
    rank_rows caches, per (touched-slot mask, slot s, point index), the
    ranks of that point's images under the scan table's group s.
    """

    __slots__ = ("dim", "bound", "order", "points", "index", "full",
                 "_pairs", "_rows", "doms", "sums", "_supports", "_unit_bits",
                 "rank_rows")

    def __init__(self, d, G, order):
        self.dim = d
        self.bound = 2 * G
        self.order = order
        pts = _box_above((0,) * d, self.bound)[1:]  # drop the origin
        pts.sort(key=order.key)
        self.points = pts
        self.index = {p: i for i, p in enumerate(pts)}
        self.full = (1 << len(pts)) - 1
        self._pairs = [None] * len(pts)
        self._rows = [None] * len(pts)
        self.doms = [None] * len(pts)
        self.sums = [None] * len(pts)
        self._supports = None
        self._unit_bits = None
        self.rank_rows = {}

    def mask(self, points):
        """The mask of the given points, each of which must lie here."""
        index = self.index
        try:
            return sum(1 << index[p] for p in points)
        except KeyError as exc:
            raise RuntimeError(
                f"point {exc.args[0]} lies outside the point universe "
                f"prod(x_i + 1) <= {self.bound}") from None

    def at(self, m):
        """The points of mask m, by index."""
        return list(map(self.points.__getitem__, _bits(m)))

    def decode(self, m):
        return frozenset(self.at(m))

    def pairs(self, i):
        ps = self._pairs[i]
        if ps is None:
            x = self.points[i]
            index = self.index
            ps = []
            for y in itertools.product(*(range(c + 1) for c in x)):
                z = tuple(map(sub, x, y))
                if any(y) and any(z) and z <= y:
                    ps.append(1 << index[y] | 1 << index[z])
            ps = self._pairs[i] = tuple(ps)
        return ps

    def row(self, i):
        r = self._rows[i]
        if r is None:
            x = self.points[i]
            index = self.index
            r = {}
            dom = hit = 0
            for q in _box_above(x, self.bound)[1:]:
                j = index[tuple(map(sub, q, x))]
                k = r[j] = index[q]
                dom |= 1 << j
                hit |= 1 << k
            self.doms[i] = dom
            self.sums[i] = hit
            self._rows[i] = r
        return r

    def supports(self):
        s = self._supports
        if s is None:
            s = self._supports = tuple(
                sum(1 << t for t, c in enumerate(x) if c) for x in self.points)
        return s

    def unit_bits(self):
        u = self._unit_bits
        if u is None:
            d = self.dim
            index = self.index
            # 0 for a slot whose unit point lies outside (only when G = 0)
            u = self._unit_bits = tuple(
                1 << index[p] if p in index else 0
                for p in ((0,) * s + (1,) + (0,) * (d - 1 - s) for s in range(d)))
        return u


def _box_above(lo, bound):
    """Points q >= lo, coordinatewise, with prod(q_i + 1) <= bound, in lex
    order (so lo itself comes first when it qualifies)."""
    d = len(lo)
    # least product the coordinates from i on can still contribute
    tail = [1] * (d + 1)
    for i in range(d - 1, -1, -1):
        tail[i] = tail[i + 1] * (lo[i] + 1)
    out = []

    def grow(i, prefix, prod):
        if i == d:
            out.append(prefix)
            return
        c = lo[i]
        while prod * (c + 1) * tail[i + 1] <= bound:
            grow(i + 1, prefix + (c,), prod * (c + 1))
            c += 1

    if tail[0] <= bound:
        grow(0, (), 1)
    return out


_universes = functools.lru_cache(maxsize=None)(_Universe)


def _universe(d, G, order=LEX):
    """The point universe of N^d that holds every gap of a semigroup of
    genus at most G and every minimal generator of one of genus below G,
    ranked by the order given; one instance per (d, G, order).

    Every gap of a genus G semigroup lies in the box prod(x_i + 1) <= 2G
    (see bruteforce.candidate_box), and removing a minimal generator a of
    a genus G - 1 semigroup gives genus G with a as a gap.  The cache is
    unbounded: a walk meets the one ranked universe of the genus past its
    last; a public GapSemigroup the one of its genus for its closure check
    and, ranked by the order, its orbit test, and the one above for its
    generators.  At d <= 8, G <= 9 none holds more than about 1 400 points.
    """
    return _universes(d, G, order)


def _unclosed(U, gaps, gap_idx):
    """NotAMonoid naming the first gap of the mask with a split into two
    members, or None when the complement of the gaps is closed; gap_idx
    lists the gaps' indices, ascending."""
    members = U.full ^ gaps
    points = U.points
    for i in gap_idx:
        for p in U.pairs(i):
            if members & p == p:
                return NotAMonoid(points[i], points[(p & -p).bit_length() - 1],
                                  points[p.bit_length() - 1])
    return None


def _gap_tuple(h):
    """The gap h as a hashable tuple, or a ValueError that names it."""
    try:
        t = tuple(h)
        hash(t)
    except TypeError:
        raise ValueError(f"gap {h!r} is not a sequence of integers") from None
    return t


def _checked_gaps(d, gaps):
    """The gap set as the universe's own tuples, once each gap is known to
    be a nonzero point of N^d whose splits all meet the gap set.

    A gap of a genus G semigroup lies in the universe of genus G.  A well
    formed point outside it has more splits than the other G - 1 gaps can
    meet (see bruteforce.candidate_box), and so has its box cut at 2G on
    each axis, which bounds the search for a split that meets none.
    """
    norm = frozenset(map(_gap_tuple, gaps))
    G = len(norm)
    U = _universe(d, G)
    index = U.index
    idx = []
    for h in norm:
        i = index.get(h)
        if i is None:
            if not all(isinstance(c, int) for c in h):
                raise ValueError(f"gap {h} is not a sequence of integers")
            if len(h) != d:
                raise ValueError(f"gap {h} does not have dimension {d}")
            if min(h, default=0) < 0 or not any(h):
                raise ValueError(f"gap {h} must be nonzero with nonnegative entries")
            for a in itertools.product(*(range(min(c, 2 * G) + 1) for c in h)):
                b = tuple(map(sub, h, a))
                if any(a) and any(b) and a not in norm and b not in norm:
                    raise NotAMonoid(h, a, b)
        idx.append(i)
    idx.sort()
    bad = _unclosed(U, sum(1 << i for i in idx), idx)
    if bad is not None:
        raise bad
    return frozenset(map(U.points.__getitem__, idx))


def _generators_from_scratch(U, gaps):
    """The mask of the minimal generators of the gap mask, filled in over
    the universe U, which must hold them (see _universe).

    Every proper part of a point comes before it in U, so the least member
    not yet marked is a generator, and a member is no generator exactly
    when it is a generator plus a member: each generator found marks its
    sums with members, which are its sums minus those with gaps.
    """
    gap_idx = _bits(gaps)
    gens = 0
    free = U.full ^ gaps
    while free:
        low = free & -free
        i = low.bit_length() - 1
        gens |= low
        row = U.row(i)
        dom = U.doms[i]
        hit = U.sums[i] | low
        # the gaps listed once, each tested against the domain: cheaper
        # than the bits of gaps & dom per generator
        for j in gap_idx:
            if dom >> j & 1:
                hit ^= 1 << row[j]
        free &= ~hit
    return gens


def _removal_generators(U, gens, n, child_gaps):
    """Generators of S minus the point of index n, from the mask gens of
    those of S.

    U must hold every generator of the child (see _universe).  A generator
    that is new in the child has every split passing through n, which
    forces it into n + A, 2n + A, or {2n, 3n}; these are read off the
    addition rows of n and 2n, for the generators in the row's domain (a
    sum outside the universe is no generator).  They are pairwise
    distinct, as no minimal generator is a sum of two members.  A candidate is a
    generator exactly when each of its split pairs meets the child's gaps.
    The old generators other than n stay generators.
    """
    out = gens ^ (1 << n)
    cands = []
    i = n
    # the row of n gives n + A and 2n, then the row of 2n gives 2n + A
    # and 3n; the bit loop is _bits inlined, as this is the walks' kernel
    for _ in range(2):
        row = U.row(i)
        dom = U.doms[i]
        m = out & dom
        while m:
            low = m & -m
            cands.append(row[low.bit_length() - 1])
            m ^= low
        if not dom >> n & 1:
            break
        i = row[n]
        cands.append(i)
    pairs = U._pairs
    for k in cands:
        for p in pairs[k] or U.pairs(k):
            if not child_gaps & p:
                break
        else:
            out |= 1 << k
    return out


def _extension_generators(U, gens, h, child_gaps):
    """Generators of S plus the point of index h, from the mask gens of
    those of S: h itself, and each old one that is not h plus a nonzero
    member of the child."""
    row = U.row(h)
    split = U.sums[h]
    for j in _bits(child_gaps & U.doms[h]):
        split ^= 1 << row[j]
    return gens & ~split | 1 << h


def _pseudo_frobenius(U, gaps, gens):
    """The mask of the gaps h with h + a outside the gaps for every
    generator a; a sum outside U is no gap when U holds the generators."""
    gap_idx = _bits(gaps)
    gap_set = set(gap_idx)
    gen_idx = _bits(gens)
    out = 0
    # one C-level scan per gap over every generator's sum: twice as fast
    # here as a Python loop over the bits of gens & doms[h]
    for h in gap_idx:
        if gap_set.isdisjoint(map(U.row(h).get, gen_idx)):
            out |= 1 << h
    return out


def _special_gaps(U, gaps, gens, below=None):
    """The pseudo-Frobenius gaps h with 2h outside the gaps, ascending;
    with below given, only those of index below it.  2h is looked up
    first, as it is one lookup against one per generator."""
    out = []
    for h in _bits(gaps if below is None else gaps & (1 << below) - 1):
        row = U.row(h)
        dom = U.doms[h]
        if dom >> h & 1 and gaps >> row[h] & 1:
            continue
        for j in _bits(gens & dom):
            if gaps >> row[j] & 1:
                break
        else:
            out.append(h)
    return out


def _encode(S, above=1, order=LEX):
    """(U, gap mask, generator mask) of S over the universe of its genus
    plus above, which holds its generators and those of its children when
    above is 2."""
    U = _universe(S.dim, S.genus + above, order)
    return U, U.mask(S.gaps), U.mask(S.generators)


def contains(S: GapSemigroup, x: Point) -> bool:
    """Membership test for a point of the ambient N^d."""
    x = tuple(x)
    if len(x) != S.dim:
        raise ValueError(f"point {x} does not have dimension {S.dim}")
    if min(x, default=0) < 0:
        return False
    return x not in S.gaps


def minimal_generators(S: GapSemigroup) -> frozenset:
    """The unique minimal generating set: nonzero elements with no split."""
    return S.generators


def pseudo_frobenius(S: GapSemigroup) -> frozenset:
    """Gaps h with h + s in S for every nonzero s of S.

    Probing the minimal generators suffices: any s splits into generators
    and h + s lands back in S one summand at a time.  The probe runs over
    the point universe of genus + 1, which holds every gap and every
    generator (see _pseudo_frobenius).
    """
    U, gaps, gens = _encode(S)
    return U.decode(_pseudo_frobenius(U, gaps, gens))


def special_gaps(S: GapSemigroup) -> frozenset:
    """Pseudo-Frobenius gaps h with 2h in S: exactly the gaps whose
    adjunction keeps the complement closed."""
    U, gaps, gens = _encode(S)
    return frozenset(map(U.points.__getitem__, _special_gaps(U, gaps, gens)))


def extend(S: GapSemigroup, h: Point) -> GapSemigroup:
    """S with the special gap h adjoined."""
    h = tuple(h)
    if h not in S.gaps:
        raise NotAGap(f"{h} is not a gap of {S!r}")
    if h not in special_gaps(S):
        raise NotSpecialGap(
            f"adjoining {h} would leave the complement of the gaps unclosed")
    U, gaps, gens = _encode(S)
    i = U.index[h]
    gens = _extension_generators(U, gens, i, gaps ^ 1 << i)
    return GapSemigroup(S.dim, S.gaps - {h}, generators=U.decode(gens),
                        _trusted=True)


def remove_generator(S: GapSemigroup, n: Point) -> GapSemigroup:
    """S without the minimal generator n."""
    n = tuple(n)
    if n not in S.generators:
        raise NotMinimalGenerator(f"{n} is not a minimal generator of {S!r}")
    U, gaps, gens = _encode(S, 2)
    i = U.index[n]
    gens = _removal_generators(U, gens, i, gaps | 1 << i)
    return GapSemigroup(S.dim, S.gaps | {n}, generators=U.decode(gens),
                        _trusted=True)


def frobenius_element(S: GapSemigroup, order: OrderSpec) -> Optional[Point]:
    """The largest gap under the order, or None when there are no gaps."""
    if not S.gaps:
        return None
    return max(S.gaps, key=order.key)


def multiplicity(S: GapSemigroup, order: OrderSpec) -> Point:
    """The least minimal generator under the order."""
    return min(S.generators, key=order.key)


def _sorted_u(gaps, gens):
    """The indices of the generators beyond the Frobenius gap, ascending,
    for masks over a universe ranked by the order.

    Removing one of these keeps every gap below the new maximum, so they
    are exactly the admissible tree moves.  The Frobenius gap is the
    highest bit of the gap mask; with no gaps at all, every generator
    qualifies.
    """
    top = gaps.bit_length()
    return _bits(gens >> top << top)


def u_set(S: GapSemigroup, order: OrderSpec) -> frozenset:
    """The admissible tree moves as a set (see _sorted_u)."""
    U, gaps, gens = _encode(S, order=order)
    return frozenset(map(U.points.__getitem__, _sorted_u(gaps, gens)))


def apery_in_box(S: GapSemigroup, n: Point, box) -> frozenset:
    """Elements x of S within the box such that x - n falls outside S.

    The box bounds each coordinate inclusively with a nonnegative integer;
    the untruncated set is infinite for d >= 2, hence the window.
    """
    n = tuple(n)
    if len(n) != S.dim or not any(n) or min(n) < 0 or n in S.gaps:
        raise ValueError(f"{n} must be a nonzero element of the monoid")
    if len(box) != S.dim:
        raise ValueError(f"box {tuple(box)} does not have dimension {S.dim}")
    if not all(isinstance(b, int) and b >= 0 for b in box):
        raise ValueError(f"box {tuple(box)} must hold nonnegative integers")
    H = S.gaps
    out = []
    for x in itertools.product(*(range(b + 1) for b in box)):
        if x in H:
            continue
        q = tuple(map(sub, x, n))
        if min(q) < 0 or q in H:
            out.append(x)
    return frozenset(out)


def gap_span_dimension(S: GapSemigroup) -> int:
    """Number of coordinate axes touched by at least one gap."""
    touched = set()
    for h in S.gaps:
        for s, c in enumerate(h):
            if c:
                touched.add(s)
    return len(touched)
