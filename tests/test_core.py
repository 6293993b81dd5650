"""Orders, basis conventions and coordinate permutations."""

import math
import pickle

import pytest
from hypothesis import given
import hypothesis.strategies as st

from gnsenum.core import (
    GLEX,
    LEX,
    ORDER1,
    Permutation,
    _ORDERS,
    all_permutations,
    basis_index,
    basis_point,
    compare,
    get_order,
    min_basis_point,
    orbit_point,
    order1,
)
from gnsenum.semigroup import _universe

points3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


def test_lex_examples():
    assert compare(LEX, (0, 1), (1, 0)) == -1
    assert compare(LEX, (2, 0), (0, 5)) == 1
    assert compare(LEX, (1, 2, 3), (1, 2, 3)) == 0
    # leftmost coordinate decides first
    assert compare(LEX, (1, 0, 0), (0, 9, 9)) == 1


def test_glex_examples():
    assert compare(GLEX, (2, 0), (0, 1)) == 1        # degree wins
    assert compare(GLEX, (0, 2), (1, 1)) == -1       # lex breaks the tie
    assert compare(GLEX, (1, 1, 1), (0, 0, 3)) == 1


def test_order1_examples():
    # points supported on the last axis alone come first, by height
    assert compare(ORDER1, (0, 3), (1, 0)) == -1
    assert compare(ORDER1, (0, 0, 5), (0, 1, 0)) == -1
    assert compare(ORDER1, (1, 1), (0, 5)) == 1
    assert compare(ORDER1, (0, 2), (0, 3)) == -1


def test_order1_is_not_translation_invariant():
    # (0,0,3) precedes (0,1,1), but adding (1,0,0) flips them
    assert compare(ORDER1, (0, 0, 3), (0, 1, 1)) == -1
    assert compare(ORDER1, (1, 0, 3), (1, 1, 1)) == 1
    assert not ORDER1.monomial


def test_order_flags():
    assert LEX.monomial and LEX.o_good and not LEX.one_graded
    assert GLEX.monomial and GLEX.one_graded and not GLEX.o_good
    assert ORDER1.o_good
    assert order1(LEX).o_good
    with pytest.raises(ValueError):
        order1(ORDER1)


def test_order1_returns_the_two_singletons():
    assert order1() is order1(GLEX) is ORDER1
    assert order1(LEX) is order1(LEX) is get_order("order1[lex]")
    assert order1(LEX) is not ORDER1
    with pytest.raises(ValueError):
        order1(ORDER1)


def test_get_order_names():
    assert get_order("lex") is LEX
    assert get_order("glex") is GLEX
    assert get_order("order1") is ORDER1
    with pytest.raises(ValueError):
        get_order("deglex")


def test_orders_pickle_to_singletons():
    for order in (LEX, GLEX, ORDER1, order1(LEX)):
        assert pickle.loads(pickle.dumps(order)) is order


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        compare(LEX, (0, 1), (0, 1, 0))


@given(points3, points3)
def test_relaxed_order_totality(a, b):
    for order in (LEX, GLEX, ORDER1):
        c = compare(order, a, b)
        assert c == -compare(order, b, a)
        assert (c == 0) == (a == b)


@given(points3, points3, points3)
def test_relaxed_order_transitivity(a, b, c):
    for order in (LEX, GLEX, ORDER1):
        if compare(order, a, b) <= 0 and compare(order, b, c) <= 0:
            assert compare(order, a, c) <= 0


@given(points3, points3)
def test_zero_minimal_and_add_monotone(a, b):
    # the two relaxed-order axioms: 0 below everything, and a < b stays
    # true after adding b to itself... more precisely a < b => a < b + u
    z = (0, 0, 0)
    u = (1, 0, 2)
    for order in (LEX, GLEX, ORDER1):
        if a != z:
            assert compare(order, z, a) == -1
        if compare(order, a, b) == -1:
            bu = tuple(x + y for x, y in zip(b, u))
            assert compare(order, a, bu) == -1


def test_basis_points():
    # e_i carries its 1 at tuple slot d - i
    assert basis_point(3, 1) == (0, 0, 1)
    assert basis_point(3, 2) == (0, 1, 0)
    assert basis_point(3, 3) == (1, 0, 0)
    assert basis_index((0, 1, 0)) == 2
    assert basis_index((0, 0, 0)) is None
    assert basis_index((1, 1, 0)) is None
    for d in (1, 2, 4):
        for i in range(1, d + 1):
            assert basis_index(basis_point(d, i)) == i


def test_min_basis_point():
    assert min_basis_point(3, LEX) == (0, 0, 1)
    assert min_basis_point(3, GLEX) == (0, 0, 1)
    assert min_basis_point(2, ORDER1) == (0, 1)


def test_permutation_action():
    # basis transposition (1 3) in dimension 3 sends e1 to e3
    p = Permutation.from_cycles(3, (1, 3))
    assert p.apply((0, 0, 1)) == (1, 0, 0)
    assert p.apply((1, 0, 0)) == (0, 0, 1)
    assert p.apply((0, 1, 0)) == (0, 1, 0)
    q = Permutation.from_cycles(2, (1, 2))
    assert q.apply((2, 1)) == (1, 2)


def test_permutation_images_and_inverse():
    p = Permutation((2, 3, 1))          # 1->2, 2->3, 3->1
    assert p.apply(basis_point(3, 1)) == basis_point(3, 2)
    assert p.apply(basis_point(3, 2)) == basis_point(3, 3)
    pi = p.inverse()
    for x in [(1, 2, 3), (0, 4, 0), (5, 5, 1)]:
        assert pi.apply(p.apply(x)) == x
    assert Permutation.identity(4).apply((9, 8, 7, 6)) == (9, 8, 7, 6)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))


def test_orbit_point():
    assert orbit_point((1, 2)) == frozenset({(1, 2), (2, 1)})
    assert orbit_point((3, 3)) == frozenset({(3, 3)})
    assert len(orbit_point((1, 2, 3))) == 6
    assert len(orbit_point((1, 1, 2))) == 3


def test_all_permutations_count():
    for d in (1, 2, 3, 4):
        perms = all_permutations(d)
        assert len(perms) == len(set(perms)) == math.factorial(d)
        assert perms[0] == Permutation.identity(d)
        assert perms is all_permutations(d)          # built once per d


def test_slot_source_tables():
    perms = all_permutations(3)
    srcs = [p.src for p in perms]
    assert len(set(srcs)) == 6
    assert srcs[0] == (0, 1, 2)        # identity first
    grouped = {}
    for p in perms:
        grouped.setdefault(p.src[-1], []).append(p)
    assert set(grouped) == {0, 1, 2}
    assert sum(len(v) for v in grouped.values()) == 6
    # slot s of an image reads slot src[s] of the argument
    x = (7, 8, 9)
    for p in perms:
        assert p.apply(x) == tuple(x[s] for s in p.src)


@pytest.mark.parametrize("order", list(_ORDERS.values()), ids=lambda o: o.name)
def test_moving_a_coordinate_to_a_higher_zero_slot_lowers_the_point(order):
    # canonical._scan_table lists only the placements of the touched slots
    # onto the last ones; its proof needs this of every order
    key = order.key
    for d in range(1, 6):
        for x in _universe(d, 8, order).points:
            for t in range(d):
                for r in range(t + 1, d):
                    if x[t] and not x[r]:
                        y = list(x)
                        y[t], y[r] = 0, x[t]
                        assert key(tuple(y)) < key(x), (x, t, r)
