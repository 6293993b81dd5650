"""Permutation action on gap sets: representatives, verdicts, isomorphism."""

import functools
import itertools
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gnsenum.core import (
    _ORDERS, GLEX, LEX, ORDER1, LESS, Permutation, all_permutations, order1,
    orbit_point)
from gnsenum.canonical import (
    GenusMismatch,
    _minimality,
    _orbit_minimal,
    _rep_scan,
    _scan_table,
    _suffix_witness,
    compare_R,
    is_equivariant,
    is_representative,
    isomorphism_between,
    orbit_size,
    permute_gns,
    representative,
    safe_child_generator,
)
from gnsenum.bruteforce import orbit_minimum
from gnsenum.semigroup import (
    GapSemigroup, NotAMonoid, _touched_slots, _universe, minimal_generators)
from gnsenum.trees import TreeKind, traverse

# recurring cast: a genus-7 gap set in N^3 and its smallest permuted copy
S_BIG = GapSemigroup(3, frozenset(
    {(0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0),
     (3, 0, 0)}))
S2_BIG = GapSemigroup(3, frozenset(
    {(0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 0, 1), (0, 1, 1), (0, 0, 2),
     (0, 0, 3)}))

EQUI = GapSemigroup(3, frozenset(
    {(0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 2, 0), (1, 0, 0), (1, 1, 1),
     (2, 0, 0)}))
NOT_EQUI = GapSemigroup(3, frozenset(
    {(0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 0), (0, 1, 1), (0, 2, 0),
     (0, 3, 0)}))


def gns(d, *gaps):
    return GapSemigroup(d, frozenset(gaps))


def test_permute_gns_example():
    sigma = Permutation.from_cycles(3, (1, 3))
    assert permute_gns(sigma, S_BIG) == S2_BIG
    assert permute_gns(Permutation.identity(3), S_BIG) == S_BIG
    for sigma in all_permutations(3):
        assert permute_gns(sigma, EQUI) == EQUI


def test_permute_gns_is_always_valid():
    sigma = Permutation.from_cycles(3, (1, 2, 3))
    T = permute_gns(sigma, S_BIG)
    GapSemigroup(3, T.gaps)  # the constructor checks closure
    assert T.genus == S_BIG.genus
    # generators travel along
    assert minimal_generators(T) == frozenset(
        sigma.apply(a) for a in minimal_generators(S_BIG))


def test_compare_R_examples():
    assert compare_R(S2_BIG, S_BIG, LEX) == -1
    assert compare_R(S_BIG, S_BIG, LEX) == 0
    A = gns(2, (0, 1), (0, 2))
    B = gns(2, (0, 1), (1, 0))
    assert compare_R(A, B, LEX) == -1
    assert compare_R(B, A, LEX) == 1


def test_compare_R_preconditions():
    with pytest.raises(GenusMismatch):
        compare_R(gns(2, (0, 1)), gns(2, (0, 1), (0, 2)), LEX)
    with pytest.raises(ValueError):
        compare_R(gns(2, (0, 1)), gns(3, (0, 0, 1)), LEX)


def test_representative_examples():
    assert representative(S_BIG, LEX) == S2_BIG
    assert representative(gns(2, (1, 0)), LEX) == gns(2, (0, 1))
    assert representative(EQUI, LEX) == EQUI


def test_representative_idempotent_and_orbit_constant():
    R = representative(S_BIG, LEX)
    assert representative(R, LEX) == R
    for sigma in all_permutations(3):
        assert representative(permute_gns(sigma, S_BIG), LEX) == R


def test_representative_under_each_order():
    for order in (LEX, GLEX, ORDER1):
        R = representative(S_BIG, order)
        v = is_representative(R, order)
        assert v.is_representative
        assert v.witness is None


def test_is_representative_examples():
    v = is_representative(gns(2, (0, 1), (1, 0), (2, 0)), LEX)
    assert not v.is_representative
    assert v.witness == Permutation((2, 1))
    assert is_representative(gns(2, (0, 1), (1, 0), (1, 2)), LEX).is_representative


def test_verdict_witness_is_strict_improvement():
    for S in (gns(2, (1, 0)), gns(2, (0, 1), (1, 0), (2, 0)), S_BIG,
              gns(3, (0, 0, 1), (1, 0, 0))):
        for order in (LEX, GLEX, ORDER1):
            v = is_representative(S, order)
            if v.is_representative:
                assert v.witness is None
                continue
            assert compare_R(permute_gns(v.witness, S), S, order) == -1


def test_verdict_filter_tags():
    # min gap (1,0) is not the least basis vector: lemma short-circuit
    v = is_representative(gns(2, (1, 0)), LEX)
    assert (not v.is_representative) and v.filter_used == "min-gap-lemma"
    # under glex the unit gaps must form a prefix of the basis lineup
    v = is_representative(gns(3, (0, 0, 1), (1, 0, 0)), GLEX)
    assert (not v.is_representative) and v.filter_used == "graded-filter"
    # under lex the gaps touch slots 0 and 2 but not 1: swapping slots 1
    # and 0 lowers (1,0,0), so the touched slots must be the last ones
    v = is_representative(gns(3, (0, 0, 1), (1, 0, 0)), LEX)
    assert (not v.is_representative) and v.filter_used == "touched-suffix"
    assert v.witness == Permutation.transposition(3, 3, 2)
    # the gaps touch the last two slots, and swapping them lowers the
    # profile: only the scan finds that
    v = is_representative(gns(3, (0, 0, 1), (0, 1, 0), (0, 2, 0)), LEX)
    assert (not v.is_representative) and v.filter_used == "full-orbit-scan"
    assert is_representative(EQUI, LEX).filter_used == "full-orbit-scan"


@pytest.mark.parametrize("order", list(_ORDERS.values()), ids=lambda o: o.name)
def test_touched_suffix_witness(order):
    # every gap set of the full tree at d = 5 to genus 3 whose touched
    # slots are not the last ones: the stage's witness swaps the highest
    # untouched slot r with the highest touched slot t below it (basis
    # indices d - r and d - t) and strictly lowers the profile, and it is
    # the witness the public test gives whenever that stage decides
    d = 5
    nodes = []
    traverse(TreeKind("full", LEX), d, 3, visitor=lambda S, depth: nodes.append(S))
    decided = refused = 0
    for S in nodes:
        touched = _touched(S.gaps)
        k = len(touched)
        if touched == set(range(d - k, d)):
            continue
        r = max(set(range(d)) - touched)
        t = max(s for s in touched if s < r)
        perm = Permutation.transposition(d, d - t, d - r)
        assert _suffix_witness(d, sum(1 << s for s in touched)) == perm, S
        assert compare_R(permute_gns(perm, S), S, order) == LESS, S
        v = is_representative(S, order)
        assert not v.is_representative, S
        if v.filter_used == "touched-suffix":
            assert v.witness == perm, S
            decided += 1
        refused += 1
    # 280 such sets; the earlier stages decide all but 69 (24 under glex)
    assert refused > 250 and decided > 20, (refused, decided)


def test_ordinary_is_always_representative():
    from gnsenum.trees import ordinary_gns

    for order in (LEX, GLEX, ORDER1):
        for d in (1, 2, 3):
            for g in (0, 1, 3, 6):
                assert is_representative(ordinary_gns(g, d, order),
                                         order).is_representative


def test_safe_child_generator():
    S1 = gns(2, (0, 1))
    assert safe_child_generator(S1, (0, 2), LEX)
    assert not safe_child_generator(S1, (1, 0), LEX)
    # all-equal coordinates are fixed by every permutation
    assert safe_child_generator(gns(2, (0, 1), (1, 0)), (1, 1), LEX)
    # not safe, yet the child is still representative: the slow path matters
    T3 = GapSemigroup(2, frozenset({(0, 1), (1, 0)}))
    assert is_representative(T3, LEX).is_representative


def test_is_equivariant_examples():
    assert is_equivariant(EQUI)
    assert not is_equivariant(NOT_EQUI)
    assert is_equivariant(gns(2))
    assert is_equivariant(gns(2, (0, 1), (1, 0)))
    assert not is_equivariant(gns(2, (0, 1)))


def test_isomorphism_between():
    sigma = isomorphism_between(S_BIG, S2_BIG)
    assert sigma is not None
    assert permute_gns(sigma, S_BIG) == S2_BIG
    assert isomorphism_between(EQUI, EQUI) == Permutation.identity(3)
    assert isomorphism_between(gns(2, (0, 1)), gns(2, (0, 1), (0, 2))) is None
    # same genus but different orbits
    assert isomorphism_between(gns(2, (0, 1), (0, 2)),
                               gns(2, (0, 1), (1, 1))) is None
    with pytest.raises(ValueError):
        isomorphism_between(gns(2, (0, 1)), gns(3, (0, 0, 1)))


def test_orbit_size():
    assert orbit_size(S_BIG) == 3
    assert orbit_size(EQUI) == 1
    assert orbit_size(gns(2, (0, 1))) == 2
    assert orbit_size(gns(3, (0, 0, 1))) == 3
    for S in (S_BIG, EQUI, gns(2, (0, 1))):
        assert (orbit_size(S) == 1) == is_equivariant(S)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_scan_agrees_with_exhaustive_orbit_minimum(d):
    # every semigroup of genus <= 4 (<= 3 for d = 5, where most gap sets
    # touch fewer than d slots), each checked against the unpruned minimum
    # over all d! permutations
    nodes = []
    traverse(TreeKind("full", LEX), d, 4 if d < 5 else 3,
             visitor=lambda S, depth: nodes.append(S))
    for order in (LEX, GLEX, ORDER1):
        for S in nodes:
            R = representative(S, order)
            assert R == orbit_minimum(S, order)
            v = is_representative(S, order)
            assert v.is_representative == (R == S)
            if v.witness is not None:
                assert compare_R(permute_gns(v.witness, S), S, order) == -1


@functools.lru_cache(maxsize=None)
def _every_semigroup():
    # the full trees, genus 0 included: d = 1..3 to genus 5, d = 4 to 4
    nodes = []
    for d, g in ((1, 5), (2, 5), (3, 5), (4, 4)):
        traverse(TreeKind("full", LEX), d, g,
                 visitor=lambda S, depth: nodes.append(S))
    return tuple(nodes)


@pytest.mark.parametrize("order", [LEX, GLEX, ORDER1, order1(LEX)],
                         ids=lambda o: o.name)
def test_verdict_does_not_depend_on_the_universe(order):
    # a walk tests each node on its own universe, one genus or more past
    # the node's; any ranked universe that holds the gaps must give the
    # witness and stage the public test gives on the universe of the genus
    for S in _every_semigroup():
        v = is_representative(S, order)
        for k in (0, 1, 3):
            U = _universe(S.dim, S.genus + k, order)
            assert _minimality(U, U.mask(S.gaps)) == (v.witness, v.filter_used), S
        least = orbit_minimum(S, order)
        assert v.is_representative == (least == S), S
        if not v.is_representative:
            assert representative(S, order) == least, S


@pytest.mark.parametrize("order", [LEX, GLEX, ORDER1])
def test_gap_sets_outside_the_genus_box(order):
    # a gap beyond prod(x_i + 1) <= 2 * genus has a split with no gap in
    # it, so the constructor refuses such a set before it can reach the
    # scan; semigroups with a gap on the edge of the box scan as usual
    for d, gaps in ((3, [(0, 0, 1), (5, 5, 0)]), (3, [(0, 1, 0), (5, 0, 5)]),
                    (3, [(0, 0, 1), (1, 0, 0), (0, 6, 0)]),
                    (2, [(0, 1), (1, 0), (9, 3)]),
                    (4, [(0, 0, 0, 1), (0, 1, 0, 0), (100, 0, 0, 100)])):
        with pytest.raises(NotAMonoid):
            gns(d, *gaps)
    for S in (gns(2, (0, 1), (1, 1)),
              gns(3, (0, 0, 1), (0, 0, 3), (0, 0, 5), (0, 0, 7)),
              gns(3, (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)),
              gns(4, (0, 1, 0, 0), (0, 3, 0, 0), (0, 5, 0, 0),
                  (0, 7, 0, 0))):
        assert max(math.prod(x + 1 for x in h) for h in S.gaps) \
            == 2 * S.genus
        R = representative(S, order)
        assert R == orbit_minimum(S, order)
        v = is_representative(S, order)
        assert v.is_representative == (R == S)
        if v.witness is not None:
            assert compare_R(permute_gns(v.witness, S), S, order) == -1


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_scan_table_one_permutation_per_placement(d):
    point = (10, 20, 30, 40, 50, 60)[:d]
    for touched in itertools.product((False, True), repeat=d):
        slots = tuple(t for t in range(d) if touched[t])
        last = tuple(range(d - len(slots), d))

        def placement(perm):
            # the result slot each touched slot is read into
            return tuple(perm.src.index(t) for t in slots)

        table = _scan_table(d, sum(1 << t for t in slots))
        for s in range(d):
            perms, gets = table[s]
            assert len(perms) == len(gets)
            for perm, get in zip(perms, gets):
                assert get(point) == perm.apply(point)
            # one permutation per placement of the touched slots onto the
            # last ones, other than the identity's: the first the unpruned
            # scan of this group meets, in its order; every other
            # permutation of the group shares a kept placement, acts like
            # the identity or leaves a touched slot below an untouched one
            firsts = {}
            for perm in all_permutations(d):
                if perm.src[d - 1] == s and touched[s] \
                        and tuple(sorted(placement(perm))) == last:
                    firsts.setdefault(placement(perm), perm)
            firsts.pop(slots, None)
            assert list(perms) == list(firsts.values())


@functools.lru_cache(maxsize=None)
def _scanned_nodes():
    # the full trees: d = 1..4 to genus 5, d = 5 to genus 3, d = 6 to 3
    nodes = []
    for d, g in ((1, 5), (2, 5), (3, 5), (4, 5), (5, 3), (6, 3)):
        traverse(TreeKind("full", LEX), d, g,
                 visitor=lambda S, depth: nodes.append(S))
    return tuple(nodes)


def _touched(gaps):
    return {t for h in gaps for t, c in enumerate(h) if c}


def _reference_scan(S, order):
    """The witnesses of the scan with no placement table: over each
    permutation reading a unit-gap slot into e_1's slot, slot by slot
    ascending, each slot's in all_permutations order, the first below the
    identity's profile, the first of those whose image touches the last
    slots only, and the first of the least profile."""
    d = S.dim
    key = order.key
    last = set(range(d - len(_touched(S.gaps)), d))
    ident = best = sorted(map(key, S.gaps))
    found = found_last = least = None
    for s in sorted(h.index(1) for h in S.gaps if sum(h) == 1):
        for perm in all_permutations(d):
            if perm.src[d - 1] != s:
                continue
            image = [perm.apply(h) for h in S.gaps]
            prof = sorted(map(key, image))
            if prof < ident:
                if found is None:
                    found = perm
                if found_last is None and _touched(image) == last:
                    found_last = perm
            if prof < best:
                best, least = prof, perm
    return found, found_last, least


@pytest.mark.parametrize("order", [LEX, GLEX, ORDER1, order1(LEX)],
                         ids=lambda o: o.name)
def test_scan_witnesses_match_the_unpruned_scan(order):
    # the placement table and the cached rank rows change what is
    # computed, never the verdict nor the least profile's permutation;
    # the first witness found is the first that also places the touched
    # slots on the last ones
    for S in _scanned_nodes():
        found, found_last, least = _reference_scan(S, order)
        for k in (0, 1):
            U = _universe(S.dim, S.genus + k, order)
            gaps = U.mask(S.gaps)
            touched = _touched_slots(U, gaps)
            assert touched == sum(1 << t for t in _touched(S.gaps)), S
            first = _rep_scan(U, gaps, True, touched)
            assert (first is None) == (found is None), S
            assert (first, _rep_scan(U, gaps, False, touched)) \
                == (found_last, least), S


@pytest.mark.parametrize("order", [LEX, GLEX, ORDER1, order1(LEX)],
                         ids=lambda o: o.name)
def test_orbit_minimum_touches_the_last_slots(order):
    # the lemma behind _scan_table: the least element of an orbit is
    # nonzero on the last k tuple slots only, k being the number of slots
    # the gaps touch
    for S in _every_semigroup():
        k = len(_touched(S.gaps))
        assert _touched(orbit_minimum(S, order).gaps) \
            == set(range(S.dim - k, S.dim)), S


@pytest.mark.parametrize("order", [LEX, GLEX, ORDER1, order1(LEX)],
                         ids=lambda o: o.name)
def test_orbit_of_a_point_lists_each_arrangement_once(order):
    key = order.key
    for d in range(1, 7):
        for x in _universe(d, 6, order).points:
            assert orbit_point(x) == frozenset(itertools.permutations(x)), x
            assert _orbit_minimal(x, order) == all(
                key(x) <= key(p) for p in itertools.permutations(x)), x


@pytest.mark.parametrize("order", [LEX, GLEX, ORDER1])
def test_ranks_follow_the_order(order):
    for d in (1, 2, 3, 4):
        for G in (1, 2, 3, 5):
            points = _universe(d, G).points
            ranks = _universe(d, G, order).index
            # the lex universe is one instance, named or by default
            assert _universe(d, G) is _universe(d, G, LEX)
            assert set(ranks) == set(points)
            assert sorted(ranks.values()) == list(range(len(points)))
            assert sorted(points, key=ranks.__getitem__) == sorted(points, key=order.key)


small_gapsets = st.sets(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any),
    min_size=0, max_size=4)


@settings(max_examples=60, deadline=None)
@given(small_gapsets)
def test_representative_properties_random(gaps):
    # repair the random draw into a legal gap set: keep a point only when
    # every two-part split already has one part kept
    stable = set()
    for h in sorted(gaps, key=sum):
        ok = True
        for a in itertools.product(*(range(c + 1) for c in h)):
            b = tuple(x - y for x, y in zip(h, a))
            if any(a) and any(b) and a not in stable and b not in stable:
                ok = False
                break
        if ok:
            stable.add(h)
    S = GapSemigroup(2, frozenset(stable))
    R = representative(S, LEX)
    assert representative(R, LEX) == R
    assert is_representative(R, LEX).is_representative
    assert compare_R(R, representative(permute_gns(Permutation((2, 1)), S), LEX),
                     LEX) == 0
