"""Count tables, the span identity, stabilization, reference data."""

import pytest

from gnsenum.core import GLEX, LEX, ORDER1
from gnsenum.counting import (
    ResourceLimit,
    builtin_reference_table,
    count,
    count_by_span,
    reference_value,
    verify_stabilization,
    verify_sum_identity,
)
from gnsenum.trees import TreeKind


def test_count_small_tables():
    t = count(TreeKind("full", LEX), 2, g_max=6)
    assert [t.rows[g] for g in range(7)] == [1, 2, 7, 23, 71, 210, 638]
    t = count(TreeKind("representative", LEX), 2, g_max=6)
    assert [t.rows[g] for g in range(7)] == [1, 1, 4, 12, 37, 107, 323]
    assert t.d == 2 and t.order == "lex" and t.mode == "representative"


def test_count_fixed_genus_ignores_gmax():
    t = count(TreeKind("fixed-genus", LEX, genus_target=4), 2)
    assert t.rows == {4: 37}
    assert t.mode == "representative"


def test_count_requires_gmax_for_frontier():
    with pytest.raises(ValueError):
        count(TreeKind("full", LEX), 2)


def test_count_by_span():
    assert count_by_span(2, 3) == (4, 8)
    assert count_by_span(1, 4) == (7,)
    assert count_by_span(3, 2) == (2, 2)
    assert sum(count_by_span(3, 5)) == 224


def test_sum_identity_examples():
    r = verify_sum_identity(5, 3)
    assert r["ok"] and r["lhs"] == 224 and r["terms"] == [12, 95, 117]
    r = verify_sum_identity(3, 2)
    assert r["ok"] and r["lhs"] == 12 and r["terms"] == [4, 8]
    assert verify_sum_identity(6, 4)["ok"]


def test_sum_identity_caps():
    with pytest.raises(ResourceLimit):
        verify_sum_identity(9, 2)
    with pytest.raises(ResourceLimit):
        verify_sum_identity(3, 7)
    with pytest.raises(ValueError):
        verify_sum_identity(0, 2)


def test_stabilization_examples():
    r = verify_stabilization(5, 6)
    assert r["ok"]
    assert r["values"] == {5: 277, 6: 277}
    r = verify_stabilization(3, 5)
    assert r["ok"] and set(r["values"]) == {3, 4, 5}
    assert len(set(r["values"].values())) == 1


def test_stabilization_caps():
    with pytest.raises(ResourceLimit):
        verify_stabilization(7, 8)
    with pytest.raises(ResourceLimit):
        verify_stabilization(4, 9)


def test_reference_table_lookups():
    assert reference_value("full", 2, 6) == 638
    assert reference_value("full", 2, 14) == 3137592
    assert reference_value("representative", 2, 10) == 23486
    assert reference_value("representative", 3, 10) == 237956
    assert reference_value("representative", 6, 6) == 1355
    assert reference_value("full", 2, 99) is None
    assert reference_value("representative", 9, 3) is None


def test_reference_table_shape():
    table = builtin_reference_table()
    assert table[("full", 2)].rows[1] == 2
    assert table[("representative", 5)].rows[6] == 1344
    assert table[("full", 3)].d == 3
    # mutating the copy must not poison later lookups
    table[("full", 2)].rows[1] = 0
    assert reference_value("full", 2, 1) == 2


def test_counting_is_silent(capsys):
    count(TreeKind("representative", GLEX), 2, g_max=4)
    count_by_span(2, 2, ORDER1)
    verify_sum_identity(2, 2)
    out = capsys.readouterr()
    assert out.out == "" and out.err == ""


@pytest.mark.slow
@pytest.mark.parametrize("d, g, recorded", [
    (5, 8, ("representative", 5, 8)),   # N(5,8) = 36536, about 3 s
    (8, 5, ("representative", 5, 5)),   # N(8,5) = N(5,5) = 277 by stabilization
    (8, 6, ("representative", 6, 6)),   # N(8,6) = N(6,6) = 1355, about 3 s
])
def test_slow_representative_cells(d, g, recorded):
    # opt in with `pytest -m slow`; the default run deselects these
    want = reference_value(*recorded)
    assert count(TreeKind("representative", LEX), d, g_max=g).rows[g] == want


@pytest.mark.slow
@pytest.mark.parametrize("d, g", [
    (2, 13),   # n(2,13) = 1102980, about 10 s
    (3, 9),    # n(3,9) = 349731, about 2 s
    (3, 10),   # n(3,10) = 1418323, about 10 s
])
def test_slow_full_cells(d, g):
    # opt in with `pytest -m slow`; the default run deselects these
    want = reference_value("full", d, g)
    assert count(TreeKind("full", LEX), d, g_max=g).rows[g] == want


@pytest.mark.slow
@pytest.mark.parametrize("mode, d, g", [
    ("full", 2, 14),            # n(2,14) = 3137592
    ("full", 3, 11),            # n(3,11) = 5731710
    ("representative", 2, 14),  # N(2,14) = 1569107
    ("representative", 3, 10),  # N(3,10) = 237956
    ("representative", 4, 8),   # N(4,8) = 29132
])
def test_slow_cells_with_two_workers(mode, d, g):
    # opt in with `pytest -m slow`; the seed walks spread over two worker
    # processes, and n(3,12..14) stay opt-in CLI runs with --checkpoint
    want = reference_value(mode, d, g)
    table = count(TreeKind(mode, LEX), d, g_max=g, workers=2)
    assert table.rows[g] == want
    assert table.meta["mode"] == "parallel"
    assert "parallel_fallback" not in table.meta


@pytest.mark.slow
@pytest.mark.parametrize("d, g, workers", [
    (3, 9, 1),   # N(3,9) = 58954, about 1 s
    (5, 7, 1),   # N(5,7) = 6810, the orbit scan of d >= 5, under 1 s
    (2, 12, 2),  # N(2,12) = 193285, about 2 s
    (4, 8, 2),   # N(4,8) = 29132, about 1 s
])
def test_slow_fixed_genus_cells(d, g, workers):
    # opt in with `pytest -m slow`; the fixed-genus tree of genus g holds
    # the genus g representatives, as the representative tree does
    table = count(TreeKind("fixed-genus", LEX, genus_target=g), d,
                  workers=workers)
    assert table.rows == {g: reference_value("representative", d, g)}
    assert table.meta["mode"] == ("parallel" if workers > 1 else "sequential")
    assert "parallel_fallback" not in table.meta
