"""Gap sets, generators and the derived invariants."""

import itertools
import math
import pickle
import random
import sys
from operator import sub

import pytest

from gnsenum import semigroup
from gnsenum.bruteforce import brute_force_all
from gnsenum.core import GLEX, LEX, ORDER1, basis_point
from gnsenum.trees import TreeKind, traverse
from gnsenum.semigroup import (
    GapSemigroup,
    NotAGap,
    NotAMonoid,
    NotMinimalGenerator,
    NotSpecialGap,
    _Universe,
    _extension_generators,
    _generators_from_scratch,
    _member_sums,
    _removal_generators,
    _single_splits,
    _sorted_u,
    _splits_from_scratch,
    _universe,
    apery_in_box,
    contains,
    extend,
    frobenius_element,
    gap_span_dimension,
    minimal_generators,
    multiplicity,
    pseudo_frobenius,
    remove_generator,
    special_gaps,
    u_set,
)


def gns(d, *gaps):
    return GapSemigroup(d, frozenset(gaps))


def _generators_reference(dim, gaps):
    # the tuple box sieve: a coordinate at or above twice the conductor
    # splits off conductor * e_i, so the box covers every minimal
    # generator; points are sieved in graded order, and only confirmed
    # generators need probing, since any split can be rewritten to pass
    # through one
    if not gaps:
        return frozenset(basis_point(dim, i) for i in range(1, dim + 1))
    cond = [1 + max(h[s] for h in gaps) for s in range(dim)]
    box = itertools.product(*(range(2 * c) for c in cond))
    pts = sorted((p for p in box if any(p) and p not in gaps),
                 key=lambda p: (sum(p), p))
    gens = []
    for p in pts:
        for a in gens:
            q = tuple(map(sub, p, a))
            if min(q) >= 0 and any(q) and q not in gaps:
                break
        else:
            gens.append(p)
    return frozenset(gens)


def test_validate_accepts_known_gap_sets():
    # the constructor validates every gap set it is given
    assert gns(2, (0, 1), (1, 0)).genus == 2
    assert gns(3).genus == 0
    assert gns(1, (1,), (2,), (4,)).genus == 3
    # stored as the universe's own int tuples, whatever was passed in
    S = GapSemigroup(2, [[0, 1], (1.0, 0)])
    assert S.gaps == frozenset({(0, 1), (1, 0)})
    assert all(type(c) is int for h in S.gaps for c in h)


def test_validate_rejects_non_complement():
    # (0,2) present but (0,1)+(0,1) would land on it
    with pytest.raises(NotAMonoid) as ei:
        gns(2, (0, 2))
    err = ei.value
    assert err.h == (0, 2)
    assert tuple(sorted((err.a, err.b))) == ((0, 1), (0, 1))
    # (1,1) = (0,1) + (1,0) with neither part a gap
    with pytest.raises(NotAMonoid) as ei:
        gns(2, (1, 1))
    assert (ei.value.h, ei.value.a, ei.value.b) == ((1, 1), (0, 1), (1, 0))
    # a witness names two points of the monoid adding up to the gap
    for gaps in ({(0, 1), (1, 1), (0, 2), (2, 2)}, {(1, 1, 1)}):
        with pytest.raises(NotAMonoid) as ei:
            GapSemigroup(len(next(iter(gaps))), gaps)
        err = ei.value
        assert err.h in gaps and err.a not in gaps and err.b not in gaps
        assert tuple(map(sum, zip(err.a, err.b))) == err.h


def test_validate_rejects_bad_points():
    with pytest.raises(ValueError, match="dimension 2"):
        gns(2, (0, 1, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        gns(2, (0, -1))
    with pytest.raises(ValueError, match="nonzero"):
        gns(2, (0, 0))
    with pytest.raises(ValueError, match="dimension"):
        gns(9)


def test_validate_rejects_gaps_that_are_not_integer_sequences():
    # a malformed gap is a ValueError naming it, not a TypeError from deep
    # inside the check
    for gap, shown in (((0.5, 1), r"\(0\.5, 1\)"), (("1", 0), r"\('1', 0\)"),
                       (5, "5"), (([0], 1), r"\(\[0\], 1\)")):
        with pytest.raises(ValueError,
                           match=f"gap {shown} is not a sequence of integers"):
            GapSemigroup(2, [gap])
    # a float equal to an integer point is that point of the universe
    assert GapSemigroup(2, [[0, 1], (1.0, 0)]).gaps == {(0, 1), (1, 0)}


def test_constructor_rejects_gap_sets_outside_the_genus_box():
    # a gap beyond prod(x_i + 1) <= 2 * genus has a split with no gap in it
    for S, d in (({(0, 0, 1), (5, 5, 0)}, 3), ({(0, 1, 0), (5, 0, 5)}, 3),
                 ({(0, 0, 1), (1, 0, 0), (0, 6, 0)}, 3),
                 ({(0, 1), (1, 0), (9, 3)}, 2),
                 ({(0, 0, 0, 1), (0, 1, 0, 0), (100, 0, 0, 100)}, 4),
                 ({(5, 5)}, 2), ({(10 ** 12, 1)}, 2)):
        with pytest.raises(NotAMonoid) as ei:
            GapSemigroup(d, S)
        err = ei.value
        assert err.h in S and err.a not in S and err.b not in S
        assert any(err.a) and any(err.b)
        assert tuple(map(sum, zip(err.a, err.b))) == err.h


def test_contains():
    S = gns(2, (0, 1), (1, 0))
    assert contains(S, (0, 0))
    assert contains(S, (1, 1))
    assert not contains(S, (0, 1))
    assert not contains(S, (0, -3))


def test_generators_worked_example():
    S = gns(2, (0, 1), (1, 0))
    assert minimal_generators(S) == frozenset(
        {(0, 2), (0, 3), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)})
    T = gns(2, (0, 1))
    assert minimal_generators(T) == frozenset(
        {(0, 2), (0, 3), (1, 0), (1, 1)})


def test_generators_trivial_cases():
    assert minimal_generators(gns(2)) == frozenset({(0, 1), (1, 0)})
    assert minimal_generators(gns(1, (1,))) == frozenset({(2,), (3,)})


def test_conductor():
    assert gns(2, (0, 1), (1, 0)).conductor == (2, 2)
    assert gns(2, (0, 1), (0, 3)).conductor == (1, 4)
    assert gns(3).conductor == (0, 0, 0)


def test_pseudo_frobenius_and_special_gaps():
    O = gns(2, (0, 1), (0, 2), (0, 3))
    assert pseudo_frobenius(O) == frozenset({(0, 1), (0, 2), (0, 3)})
    assert special_gaps(O) == frozenset({(0, 2), (0, 3)})
    S = gns(2, (0, 1), (1, 0))
    assert special_gaps(S) == frozenset({(0, 1), (1, 0)})


def test_extend_examples():
    O = gns(2, (0, 1), (0, 2), (0, 3))
    T = extend(O, (0, 2))
    assert T.gaps == frozenset({(0, 1), (0, 3)})
    with pytest.raises(NotAGap):
        extend(O, (1, 1))
    with pytest.raises(NotSpecialGap):
        extend(O, (0, 1))       # (0,1)+(0,2) is still a gap


def test_remove_generator_examples():
    S = gns(2)
    T = remove_generator(S, (0, 1))
    assert T.gaps == frozenset({(0, 1)})
    T4 = remove_generator(T, (1, 1))
    assert T4.gaps == frozenset({(0, 1), (1, 1)})
    with pytest.raises(NotMinimalGenerator):
        remove_generator(S, (1, 1))
    with pytest.raises(NotMinimalGenerator):
        remove_generator(T, (0, 1))


def test_extend_then_remove_round_trip():
    S = gns(2, (0, 1), (0, 2), (1, 0))
    for h in special_gaps(S):
        T = extend(S, h)
        assert h in minimal_generators(T)
        assert remove_generator(T, h) == S


def test_frobenius_element():
    S = gns(2, (0, 1), (1, 0))
    assert frobenius_element(S, LEX) == (1, 0)
    assert frobenius_element(S, ORDER1) == (1, 0)
    assert frobenius_element(gns(2), LEX) is None
    assert frobenius_element(gns(2, (0, 1), (0, 3), (1, 1)), GLEX) == (0, 3)
    assert frobenius_element(gns(2, (0, 1), (0, 3), (1, 1)), LEX) == (1, 1)


def test_multiplicity():
    O = gns(2, (0, 1), (0, 2), (0, 3))
    assert multiplicity(O, LEX) == (0, 4)
    assert multiplicity(O, GLEX) == (1, 0)
    assert multiplicity(gns(2), LEX) == (0, 1)


def test_u_set_examples():
    S3 = gns(2, (0, 1), (1, 0))
    assert u_set(S3, LEX) == frozenset(
        {(1, 1), (1, 2), (2, 0), (2, 1), (3, 0)})
    S1 = gns(2, (0, 1))
    assert u_set(S1, LEX) == frozenset({(0, 2), (0, 3), (1, 0), (1, 1)})
    # no gaps: every generator qualifies
    assert u_set(gns(2), LEX) == frozenset({(0, 1), (1, 0)})


def test_apery_in_box():
    S = gns(2, (0, 1))
    assert apery_in_box(S, (1, 0), (2, 2)) == frozenset(
        {(0, 0), (0, 2), (1, 1)})
    S1 = gns(1, (1,))
    assert apery_in_box(S1, (2,), (5,)) == frozenset({(0,), (3,)})
    N = gns(2)
    got = apery_in_box(N, (0, 1), (2, 2))
    assert got == frozenset({(0, 0), (1, 0), (2, 0)})
    with pytest.raises(ValueError):
        apery_in_box(S, (0, 1), (2, 2))
    with pytest.raises(ValueError):
        apery_in_box(S, (0, 0), (2, 2))
    # the box must have the semigroup's dimension, shorter or longer
    T = gns(2, (0, 1), (1, 0))
    assert apery_in_box(T, (1, 1), (2, 2)) == frozenset(
        {(0, 0), (0, 2), (1, 2), (2, 0), (2, 1)})
    for box in ((3,), (2, 2, 2)):
        with pytest.raises(ValueError, match="dimension"):
            apery_in_box(T, (1, 1), box)


def test_contains_refuses_non_integer_points():
    # (0.5, 0) is no gap, so it used to read as a member
    S = gns(2, (0, 1), (1, 0))
    for x, shown in (((0.5, 0), r"\(0\.5, 0\)"), ((1.0, 1), r"\(1\.0, 1\)"),
                     (("1", 1), r"\('1', 1\)"), ((-1, 0.5), r"\(-1, 0\.5\)")):
        with pytest.raises(ValueError,
                           match=f"point {shown} is not a sequence of integers"):
            contains(S, x)
    # a point of Z^d outside N^d is still no member
    assert not contains(S, (-1, 2))


def test_apery_in_box_refuses_non_integer_points():
    # n = (0.5, 0) used to be accepted, and its window computed in floats
    S = gns(2, (0, 1))
    for n, shown in (((0.5, 0), r"\(0\.5, 0\)"), ((2.0, 0), r"\(2\.0, 0\)")):
        with pytest.raises(ValueError,
                           match=f"point {shown} is not a sequence of integers"):
            apery_in_box(S, n, (2, 2))


def test_apery_in_box_refuses_bad_bounds():
    # a negative bound used to give an empty window, and a float one a bare
    # TypeError from range
    S = gns(2, (0, 1))
    for box in ((-1, 2), (2, -1), (2.5, 2), (2, "2")):
        with pytest.raises(ValueError, match="nonnegative integers"):
            apery_in_box(S, (1, 0), box)
    assert apery_in_box(S, (1, 0), (0, 0)) == frozenset({(0, 0)})


def test_pf_from_apery_maximals():
    # a gap h is pseudo-Frobenius iff h+n sits maximal in Ap(S,n) under
    # the "difference stays in S" partial order; the box edge can fake
    # maxima elsewhere, so only shifts of gaps are examined
    for S in (gns(2, (0, 1), (0, 2), (1, 1)),
              gns(2, (0, 1), (1, 0), (1, 1)),
              gns(3, (0, 0, 1), (0, 1, 0))):
        for n in sorted(minimal_generators(S))[:3]:
            box = tuple(c + m for c, m in zip(S.conductor, n))
            ap = apery_in_box(S, n, box)

            def below(x, y):
                q = tuple(b - a for a, b in zip(x, y))
                return min(q) >= 0 and q not in S.gaps

            pf = set()
            for h in S.gaps:
                w = tuple(a + b for a, b in zip(h, n))
                assert w in ap
                if not any(v != w and below(w, v) for v in ap):
                    pf.add(h)
            assert pf == set(pseudo_frobenius(S))


def test_gap_span_dimension():
    assert gap_span_dimension(gns(2, (0, 1), (0, 3))) == 1
    assert gap_span_dimension(gns(2, (0, 1), (1, 0))) == 2
    assert gap_span_dimension(gns(3, (0, 0, 1), (0, 1, 0), (0, 2, 0))) == 2
    assert gap_span_dimension(gns(3)) == 0


def test_incremental_updates_agree_with_scratch_scan():
    # random removal walks: the cheap child-generator update must match a
    # from-scratch search at every step
    rng = random.Random(11)
    for d in (1, 2, 3):
        for _ in range(8):
            S = GapSemigroup(d, frozenset())
            for _step in range(5):
                gens = sorted(minimal_generators(S))
                n = rng.choice(gens)
                S = remove_generator(S, n)
                assert S.generators == _generators_reference(d, S.gaps)


def test_generator_box_bound():
    # minimal generators never reach twice the conductor on any axis
    rng = random.Random(7)
    for _ in range(10):
        S = GapSemigroup(2, frozenset())
        for _step in range(6):
            n = rng.choice(sorted(minimal_generators(S)))
            S = remove_generator(S, n)
        c = S.conductor
        for a in minimal_generators(S):
            assert all(ai < 2 * ci for ai, ci in zip(a, c) if ci)


def test_generators_inside_product_box():
    # every minimal generator a of a genus-g semigroup has
    # prod(a_i + 1) <= 2(g + 1): removing it gives genus g + 1 with a as a
    # gap, inside the candidate box; the generators come from the reference
    # sieve, so the bound is checked independently of the kernel that
    # relies on it
    rng = random.Random(5)
    for d in (1, 2, 3, 4):
        for _ in range(6):
            S = GapSemigroup(d, frozenset())
            for _step in range(8):
                gens = _generators_reference(d, S.gaps)
                for a in gens:
                    assert math.prod(c + 1 for c in a) <= 2 * (S.genus + 1)
                S = remove_generator(S, rng.choice(sorted(gens)))


def _special_gaps_reference(S):
    # the tuple formula: h + a stays out of the gaps for every generator a,
    # and so does 2h
    H = S.gaps
    return frozenset(
        h for h in H
        if all(tuple(x + y for x, y in zip(h, a)) not in H
               for a in S.generators)
        and tuple(2 * x for x in h) not in H)


def test_tree_nodes_agree_with_scratch_sieve():
    # every node of the four trees over d <= 3, g <= 6 carries the
    # generators the sieve finds, and its special gaps match the tuple
    # formula; the full, representative and equivariant trees walk to
    # genus 7 so that every node up to genus 6 gets its generators from the
    # incremental update.  A fixed-genus node goes without its generators
    # exactly when the tuple formula gives it no special gap below its
    # multiplicity, so that it has no child.  The full tree also under
    # glex, and at d = 4 to genus 5, walked to genus 6
    checked = 0
    bare = 0  # fixed-genus nodes below the root without generators
    oracle = {}  # (d, gap set) -> (generators, special gaps), for all walks
    top = 6  # the largest genus checked
    fixed = None  # the order of the fixed-genus walk under way

    def see(S, depth):
        nonlocal checked, bare
        if S.genus > top:
            return
        want = oracle.get((S.dim, S.gaps))
        if want is None:
            gens = _generators_reference(S.dim, S.gaps)
            want = oracle[S.dim, S.gaps] = (gens, _special_gaps_reference(
                GapSemigroup(S.dim, S.gaps, generators=gens, _trusted=True)))
        if depth and fixed is not None:
            key = fixed.key
            m = key(min(want[0], key=key))
            childless = not [h for h in want[1] if key(h) < m]
            assert (S._gens is None) == childless, S
            bare += childless
        elif depth:
            assert S._gens is not None, S
        assert (S.generators, special_gaps(S)) == want, S
        checked += 1

    for d in (1, 2, 3):
        for order in (LEX, ORDER1):
            fixed = None
            for variant in ("full", "representative", "equivariant"):
                traverse(TreeKind(variant, order), d, 7, visitor=see)
            fixed = order
            for g in range(7):
                traverse(TreeKind("fixed-genus", order, genus_target=g), d,
                         visitor=see)
        fixed = None
        traverse(TreeKind("full", GLEX), d, 7, visitor=see)
    top = 5
    traverse(TreeKind("full", LEX), 4, 6, visitor=see)
    assert checked > 35000, checked
    assert bare > 2000, bare


def _fill(d, gaps, order=LEX):
    # the generator fill over the universe of genus + 1, ranked by the
    # order, decoded
    U = _universe(d, len(gaps) + 1, order)
    return U.decode(_generators_from_scratch(U, U.mask(gaps)))


def _trimmed(planes):
    # split planes without their trailing zero planes, keeping one
    planes = list(planes)
    while len(planes) > 1 and not planes[-1]:
        planes.pop()
    return planes


def test_generator_updates_agree_with_fill_on_every_move():
    # every admissible move of every full-tree node with d <= 4 and
    # genus <= 5, over the universe of genus 7, which is the least that
    # holds the generators of a genus-6 child: the removal update equals
    # the fill of the child, adding the point back to the child's planes
    # without their trailing zero planes gives the parent's generators and
    # split planes (but for trailing zero planes), so that the carry must
    # at times add a plane, and each row read has the domain of the sums
    # that stay in the universe; moves with n + a or 2n outside it must
    # occur
    moves = n_out = twice_out = 0
    for order in (LEX, GLEX, ORDER1):
        for d in (1, 2, 3, 4):
            U = _universe(d, 7, order)
            index, points = U.index, U.points
            checked = set()

            def check_domain(i):
                if i in checked:
                    return
                row = U.row(i)
                want = sum(1 << j for j, y in enumerate(points)
                           if tuple(a + b for a, b in zip(points[i], y)) in index)
                assert U.doms[i] == sum(1 << j for j in row) == want, (order, i)
                checked.add(i)

            level = [(0, _generators_from_scratch(U, 0), _splits_from_scratch(U, 0))]
            for _genus in range(6):
                below = []
                for gaps, gens, planes in level:
                    one = _single_splits(planes)
                    for n in _sorted_u(gaps, gens):
                        cg = gaps | 1 << n
                        c_gens, c_planes = _removal_generators(
                            gens, planes, one, n, _member_sums(U, n, gaps))
                        assert c_gens == _generators_from_scratch(U, cg), \
                            (order, U.at(cg), points[n])
                        back_gens, back_planes = _extension_generators(
                            c_gens, _trimmed(c_planes), n,
                            _member_sums(U, n, gaps))
                        assert back_gens == gens
                        assert _trimmed(back_planes) == _trimmed(planes)
                        check_domain(n)
                        dom = U.doms[n]
                        if dom >> n & 1:
                            check_domain(U.row(n)[n])
                        else:
                            twice_out += 1
                        n_out += gens & ~dom & ~(1 << n) != 0
                        moves += 1
                        below.append((cg, c_gens, c_planes))
                level = below
    assert moves > 50000 and n_out > 1000 and twice_out > 1000, \
        (moves, n_out, twice_out)


def test_root_planes_agree_with_a_tuple_split_count():
    # the closed form of _splits_from_scratch, less each gap's sums, against
    # the unordered splits {y, z} of every point into two nonzero members,
    # counted over tuples, for every semigroup the brute-force oracle
    # finds within its caps, on universes ranked by lex, glex and order1
    checked = found_all = 0
    for d in (1, 2, 3):
        for g in range(7):
            found = brute_force_all(g, d)
            found_all += len(found)
            for order in (LEX, GLEX, ORDER1):
                U = _universe(d, g + 1, order)
                table = []
                for k in U.points:
                    ps = []
                    for y in itertools.product(*(range(x + 1) for x in k)):
                        z = tuple(map(sub, k, y))
                        if any(y) and any(z) and y <= z:
                            ps.append((y, z))
                    table.append(ps)
                for S in found:
                    G = S.gaps
                    planes = _splits_from_scratch(U, U.mask(G))
                    got = [sum((p >> k & 1) << b for b, p in enumerate(planes))
                           for k in range(len(U.points))]
                    assert got == [sum(y not in G and z not in G for y, z in ps)
                                   for ps in table], (order.name, S)
                    checked += 1
    assert found_all > 7500 and checked == 3 * found_all, (found_all, checked)


def test_fill_agrees_with_reference_on_full_trees():
    # every node of the full trees for d <= 4 at small genus, filled from
    # its gap set alone, over the lex universe and the ranked ones a walk
    # fills resumed nodes over
    checked = 0

    def see(S, depth):
        nonlocal checked
        want = _generators_reference(S.dim, S.gaps)
        for order in (LEX, GLEX, ORDER1):
            assert _fill(S.dim, S.gaps, order) == want, (S, order)
        checked += 1

    for d, g in ((1, 10), (2, 7), (3, 5), (4, 4)):
        traverse(TreeKind("full", LEX), d, g, visitor=see)
    assert checked > 4000


def test_fill_agrees_with_reference_on_deep_removal_walks():
    # random removal walks far past the genera the trees reach; removing
    # a least generator often lands on the edge of the universe, where a
    # generator a has prod(a_i + 1) = 2(genus + 1)
    rng = random.Random(3)
    on_edge = 0
    for d, genus, walks in ((1, 60, 8), (2, 30, 8), (3, 15, 6)):
        for _ in range(walks):
            S = GapSemigroup(d, frozenset())
            while S.genus < genus:
                gens = sorted(_fill(d, S.gaps))
                assert gens == sorted(_generators_reference(d, S.gaps)), S
                assert S.generators == frozenset(gens)
                on_edge += any(math.prod(c + 1 for c in a) == 2 * (S.genus + 1)
                               for a in gens)
                pick = min(gens, key=sum) if rng.random() < 0.5 else rng.choice(gens)
                S = remove_generator(S, pick)
            # and from the gap set alone, through a checked construction
            T = GapSemigroup(d, S.gaps)
            assert T.generators == S.generators == _generators_reference(d, S.gaps)
    assert on_edge > 50


def test_construction_builds_split_pairs_of_its_gaps_only():
    # the closure check reads the split pairs of the gaps and nothing else:
    # d=2, genus 300, the points with x + y <= 23 and (0, 24)
    gaps = {(x, y) for x in range(24) for y in range(24 - x) if x or y}
    gaps.add((0, 24))
    assert len(gaps) == 300
    S = GapSemigroup(2, gaps)
    U = _universe(2, 300)
    built = sum(p is not None for p in U._pairs)
    assert 0 < built <= S.genus


def test_removal_rejects_generator_outside_universe():
    # (5, 5) can be no minimal generator of a genus-0 semigroup: encoding
    # the generators for the kernel raises instead of dropping it
    S = GapSemigroup(2, frozenset(), generators={(0, 1), (1, 0), (5, 5)},
                     _trusted=True)
    with pytest.raises(RuntimeError, match="outside the point universe"):
        remove_generator(S, (0, 1))


def test_equality_hash_pickle():
    A = gns(2, (0, 1), (1, 0))
    B = GapSemigroup(2, frozenset({(1, 0), (0, 1)}))
    assert A == B and hash(A) == hash(B)
    assert A != gns(2, (0, 1))
    C = pickle.loads(pickle.dumps(A))
    assert C == A
    assert C.generators == A.generators


def test_threaded_generator_fill():
    import concurrent.futures

    S = gns(2, (0, 1), (0, 2), (1, 0), (1, 1))
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(lambda _: S.generators, range(32)))
    assert all(r == results[0] for r in results)


def _memo_size(U):
    return sum(len(memo) for memo in U.sum_memo[0] if memo)


@pytest.mark.parametrize("budget", [None, 1, 2])
def test_member_sums_agree_with_the_plain_loop(monkeypatch, sums_oracle, budget):
    # random masks, gap sets or not (_splits_from_scratch passes partial
    # ones), over fresh universes of d = 1..4 ranked by lex, glex and
    # order1, each asked twice in a row so that the second answer can come
    # from the memo; with the budget cut to 1 or 2 the memo is emptied
    # again and again and never holds more entries than the budget
    if budget is not None:
        monkeypatch.setattr(semigroup, "_SUM_MEMO_BUDGET", budget)
    rng = random.Random(27)
    calls = flushes = 0
    for order in (LEX, GLEX, ORDER1):
        for d in (1, 2, 3, 4):
            U = _Universe(d, 6, order)
            size = len(U.points)
            masks = [rng.getrandbits(size) for _ in range(8)]
            for _ in range(200):
                n = rng.randrange(size)
                gaps = rng.choice(masks)
                want = sums_oracle(U, n, gaps)
                for _ in range(2):
                    memo = U.sum_memo
                    assert _member_sums(U, n, gaps) == want, (order.name, d, n, gaps)
                    flushes += U.sum_memo is not memo
                    assert _memo_size(U) <= semigroup._SUM_MEMO_BUDGET
                    calls += 1
    assert calls == 4800
    if budget is None:
        assert flushes == 0
    else:
        assert flushes > 500, flushes


def test_threaded_member_sums_stay_within_the_budget(monkeypatch, sums_oracle):
    # eight threads, started together, share one universe whose memo may
    # hold two entries, with the interpreter switching between them as
    # often as it can: every call gets the plain loop's value, and the
    # memo never holds more than two entries, which a lost update of a
    # shared entry counter breaks in most runs
    import concurrent.futures
    import threading

    monkeypatch.setattr(semigroup, "_SUM_MEMO_BUDGET", 2)
    U = _Universe(2, 6, LEX)
    rng = random.Random(8)
    size = len(U.points)
    masks = [rng.getrandbits(size) for _ in range(3)]
    calls = [(rng.randrange(size), rng.choice(masks)) for _ in range(4000)]
    want = [sums_oracle(U, n, gaps) for n, gaps in calls]

    start = threading.Barrier(8)

    def run(seed):
        start.wait(timeout=60)
        order = list(range(len(calls)))
        random.Random(seed).shuffle(order)
        for i in order:
            assert _member_sums(U, *calls[i]) == want[i], calls[i]
            assert _memo_size(U) <= 2
        return len(order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
            futures = [ex.submit(run, seed) for seed in range(8)]
            done = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert done == [4000] * 8
    assert _memo_size(U) <= 2
