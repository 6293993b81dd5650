"""The independent brute-force enumerator used to cross-check the trees."""

import pytest

from gnsenum.core import LEX, ORDER1
from gnsenum.bruteforce import (
    brute_force_all,
    brute_force_representatives,
    candidate_box,
)
from gnsenum.canonical import is_representative
from gnsenum.counting import ResourceLimit
from gnsenum.semigroup import GapSemigroup


def test_candidate_box_small():
    box = candidate_box(1, 2)
    assert set(box.points) == {(0, 1), (1, 0)}
    box = candidate_box(2, 2)
    # prod(x_i + 1) <= 4 keeps (1,1) and the height-3 axis points out... not
    # (1,1): prod = 4, allowed
    assert set(box.points) == {(0, 1), (1, 0), (0, 2), (2, 0), (0, 3),
                               (3, 0), (1, 1)}
    assert box.d == 2 and box.g == 2


def test_candidate_box_graded():
    pts = candidate_box(3, 2).points
    degs = [sum(p) for p in pts]
    assert degs == sorted(degs)


def test_brute_force_genus_zero_and_one():
    assert {S.gaps for S in brute_force_all(0, 2)} == {frozenset()}
    assert {S.gaps for S in brute_force_all(1, 2)} == {
        frozenset({(0, 1)}), frozenset({(1, 0)})}


def test_brute_force_counts():
    assert len(brute_force_all(2, 2)) == 7
    assert len(brute_force_all(3, 2)) == 23
    assert len(brute_force_all(4, 1)) == 7
    assert len(brute_force_all(3, 3)) == 67


def test_brute_force_results_are_valid():
    for S in brute_force_all(4, 2):
        assert GapSemigroup(2, S.gaps) == S  # the constructor checks closure
        assert S.genus == 4


def test_brute_force_representatives():
    reps = brute_force_representatives(3, 2, LEX)
    assert len(reps) == 12
    for S in reps:
        assert is_representative(S, LEX).is_representative
    assert len(brute_force_representatives(3, 2, ORDER1)) == 12


def test_brute_force_guard():
    with pytest.raises(ResourceLimit):
        brute_force_all(7, 2)
    with pytest.raises(ResourceLimit):
        brute_force_all(3, 4)
    with pytest.raises(ResourceLimit):
        brute_force_representatives(7, 2, LEX)
