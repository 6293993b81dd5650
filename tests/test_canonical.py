"""Permutation action on gap sets: representatives, verdicts, isomorphism."""

import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gnsenum.core import GLEX, LEX, ORDER1, Permutation, all_permutations
from gnsenum.canonical import (
    GenusMismatch,
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
from gnsenum.semigroup import GapSemigroup, minimal_generators, validate
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
    validate(T.gaps, 3)
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
    v = is_representative(gns(3, (0, 0, 1), (1, 0, 0)), LEX)
    assert (not v.is_representative) and v.filter_used == "full-orbit-scan"
    assert is_representative(EQUI, LEX).filter_used == "full-orbit-scan"


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


@pytest.mark.parametrize("d", [3, 4])
def test_scan_agrees_with_exhaustive_orbit_minimum(d):
    # every semigroup of genus <= 4, each checked against the unpruned
    # minimum over all d! permutations
    nodes = []
    traverse(TreeKind("full", LEX), d, 4, visitor=lambda S, depth: nodes.append(S))
    for order in (LEX, GLEX, ORDER1):
        for S in nodes:
            R = representative(S, order)
            assert R == orbit_minimum(S, order)
            v = is_representative(S, order)
            assert v.is_representative == (R == S)
            if v.witness is not None:
                assert compare_R(permute_gns(v.witness, S), S, order) == -1


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
