"""Tree constructions, the traversal engine, checkpoints."""

import dataclasses
import itertools
import operator
import os
from pathlib import Path

import pytest

import gnsenum
from gnsenum import checkpoint, semigroup, trees
from gnsenum.core import _ORDERS, GLEX, LEX, ORDER1, all_permutations, order1
from gnsenum.counting import reference_value
from gnsenum.semigroup import (
    GapSemigroup,
    NotMinimalGenerator,
    frobenius_element,
    multiplicity,
)
from gnsenum.canonical import is_representative, representative
from gnsenum.trees import (
    CheckpointCorrupt,
    NotEquivariant,
    NotOGoodOrder,
    NotRepresentative,
    TreeKind,
    children_equivariant,
    children_fixed_genus,
    children_full,
    children_representative,
    ordinary_gns,
    traverse,
)


def gns(d, *gaps):
    return GapSemigroup(d, frozenset(gaps))


def gapsets(children):
    return {S.gaps for S in children}


def test_children_full_examples():
    assert gapsets(children_full(gns(2), LEX)) == {
        frozenset({(0, 1)}), frozenset({(1, 0)})}
    assert gapsets(children_full(gns(2, (1, 0)), LEX)) == {
        frozenset({(1, 0), (1, 1)}),
        frozenset({(1, 0), (2, 0)}),
        frozenset({(1, 0), (3, 0)})}


def test_children_full_leaf():
    S = gns(1, (1,), (3,))
    kids = children_full(S, LEX)
    assert gapsets(kids) == {frozenset({(1,), (3,), (5,)})}
    # <3,4> has both generators under its Frobenius number 5: a leaf
    leaf = gns(1, (1,), (2,), (5,))
    assert children_full(leaf, LEX) == []


def test_children_representative_examples():
    S3 = gns(2, (0, 1), (1, 0))
    kids = children_representative(S3, LEX)
    assert gapsets(kids) == {
        frozenset({(0, 1), (1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 0), (1, 2)})}
    kids = children_representative(gns(2, (0, 1)), LEX)
    assert len(kids) == 4
    for k in kids:
        assert is_representative(k, LEX).is_representative


def test_children_representative_d1_matches_full():
    S = gns(1, (1,))
    assert gapsets(children_representative(S, LEX)) == gapsets(
        children_full(S, LEX))


def test_children_representative_rejects_non_representative():
    with pytest.raises(NotRepresentative):
        children_representative(gns(2, (1, 0)), LEX)


def test_children_equivariant_figure():
    R = gns(2, (0, 1), (1, 0))
    kids = children_equivariant(R, LEX)
    assert gapsets(kids) == {
        frozenset({(0, 1), (1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 0), (1, 2), (2, 1)}),
        frozenset({(0, 1), (1, 0), (0, 2), (2, 0)}),
        frozenset({(0, 1), (1, 0), (0, 3), (3, 0)})}
    R2 = gns(2, (0, 1), (1, 0), (0, 3), (3, 0))
    assert gapsets(children_equivariant(R2, LEX)) == {
        frozenset({(0, 1), (1, 0), (0, 3), (3, 0), (0, 5), (5, 0)})}
    assert gapsets(children_equivariant(gns(2), LEX)) == {
        frozenset({(0, 1), (1, 0)})}


def test_public_children_carry_the_reference_generators():
    # each public children_* result carries the generators the tuple sieve
    # finds, down three generations; an equivariant child can hold a whole
    # orbit more gaps than its parent, so its universe must hold its
    # generators too: the second generation of gns(2) under lex has four
    # children, not three
    from test_semigroup import _generators_reference

    assert len(children_equivariant(children_equivariant(gns(2), LEX)[0],
                                    LEX)) == 4
    checked = 0
    for d in (1, 2, 3):
        for order in (LEX, GLEX, ORDER1):
            steps = [children_full, children_representative,
                     children_equivariant]
            for step in steps:
                level = [gns(d)]
                for _ in range(3):
                    level = [T for S in level for T in step(S, order)]
                    for T in level:
                        assert T.generators == _generators_reference(d, T.gaps), T
                        checked += 1
            if order.o_good:
                for g in (2, 4):
                    for T in children_fixed_genus(ordinary_gns(g, d, order), order):
                        assert T.generators == _generators_reference(d, T.gaps), T
                        checked += 1
    assert checked > 200, checked


def test_children_equivariant_rejects_asymmetric():
    with pytest.raises(NotEquivariant):
        children_equivariant(gns(2, (0, 1)), LEX)


def test_children_equivariant_checks_orbit_generators():
    # trusted generators that miss (1,0): removing the orbit of (0,1) must
    # fail loudly, also under python -O
    S = GapSemigroup(2, frozenset(), generators={(0, 1)}, _trusted=True)
    with pytest.raises(NotMinimalGenerator):
        children_equivariant(S, LEX)


def test_ordinary_gns():
    assert ordinary_gns(3, 2, LEX).gaps == frozenset(
        {(0, 1), (0, 2), (0, 3)})
    assert ordinary_gns(3, 2, GLEX).gaps == frozenset(
        {(0, 1), (1, 0), (0, 2)})
    assert ordinary_gns(3, 2, ORDER1).gaps == frozenset(
        {(0, 1), (0, 2), (0, 3)})
    assert ordinary_gns(0, 3, LEX).gaps == frozenset()
    assert ordinary_gns(5, 1, LEX).gaps == frozenset(
        {(1,), (2,), (3,), (4,), (5,)})
    # the g least points of the whole box [0, g]^d, which holds them all
    for order in (LEX, GLEX, ORDER1, order1(LEX)):
        for d in range(1, 6):
            for g in range(8):
                box = sorted((p for p in itertools.product(range(g + 1), repeat=d)
                              if any(p)), key=order.key)
                assert ordinary_gns(g, d, order).gaps == frozenset(box[:g]), (
                    order.name, d, g)
    # far past the box's reach: [0, 9]^8 holds 10^8 points
    high = ordinary_gns(9, 8, LEX)
    assert high.gaps == frozenset((0,) * 7 + (i,) for i in range(1, 10))
    assert ordinary_gns(9, 8, GLEX).gaps == frozenset(
        tuple(int(j == i) for j in range(8)) for i in range(8)) | {(0,) * 7 + (2,)}


def test_children_fixed_genus_examples():
    O = ordinary_gns(3, 2, LEX)
    kids = children_fixed_genus(O, LEX)
    assert len(kids) == 8
    for k in kids:
        assert k.genus == 3
        assert is_representative(k, LEX).is_representative
    S4 = gns(2, (0, 1), (0, 2), (1, 0))
    assert gapsets(children_fixed_genus(S4, LEX)) == {
        frozenset({(0, 1), (1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 0), (1, 2)})}
    # the one child here is genuinely representative: its mirror has min
    # gap (1,0), which the minimum lemma rules out
    S5 = gns(2, (0, 1), (0, 2), (1, 1))
    assert gapsets(children_fixed_genus(S5, LEX)) == {
        frozenset({(0, 1), (1, 1), (2, 1)})}


def test_children_fixed_genus_preconditions():
    O = ordinary_gns(3, 2, LEX)
    with pytest.raises(NotOGoodOrder):
        children_fixed_genus(O, GLEX)
    with pytest.raises(NotRepresentative):
        children_fixed_genus(gns(2, (1, 0)), LEX)
    assert children_fixed_genus(O, ORDER1) != []


def test_treekind_validation():
    with pytest.raises(NotOGoodOrder):
        TreeKind("fixed-genus", GLEX, genus_target=3)
    with pytest.raises(ValueError):
        TreeKind("fixed-genus", LEX)          # needs a genus
    with pytest.raises(ValueError):
        TreeKind("sideways", LEX)
    with pytest.raises(ValueError):
        TreeKind("full", LEX, genus_target=3)
    TreeKind("fixed-genus", ORDER1, genus_target=3)


def test_traverse_level_counts():
    t = traverse(TreeKind("representative", LEX), 2, 3)
    assert [t.rows[g] for g in range(4)] == [1, 1, 4, 12]
    t = traverse(TreeKind("full", GLEX), 2, 3)
    assert [t.rows[g] for g in range(4)] == [1, 2, 7, 23]
    t = traverse(TreeKind("fixed-genus", LEX, genus_target=3), 2)
    assert t.rows == {3: 12}


def test_traverse_limit_checks():
    with pytest.raises(ValueError):
        traverse(TreeKind("fixed-genus", LEX, genus_target=3), 2, 3)
    with pytest.raises(ValueError):
        traverse(TreeKind("full", LEX), 2, -1)


def test_traverse_raises_on_repeated_node(monkeypatch):
    # the full tree walked without a visitor counts its last three levels
    # off the masks, so only its nodes above depth limit - 3 build and
    # check their children: its doubling starts at the seeds (genus 4, at
    # depth limit - 4), below the levels the planting expands
    for kind, limit, from_genus in (
            (TreeKind("fixed-genus", LEX, genus_target=3), None, 0),
            (TreeKind("full", LEX), 8, 4)):
        name = trees._VARIANTS[kind.variant].children

        def doubled(node, U, limit=None, real=getattr(trees, name),
                    from_genus=from_genus):
            kids = real(node, U, limit)
            return kids + kids[:1] if node[0].bit_count() >= from_genus else kids

        monkeypatch.setattr(trees, name, doubled)
        with pytest.raises(RuntimeError, match="twice"):
            traverse(kind, 2, limit)


def test_fixed_genus_nodes_distinct():
    for order in (LEX, ORDER1):
        for d in (1, 2, 3):
            for g in range(7):
                kind = TreeKind("fixed-genus", order, genus_target=g)
                for run in ({}, {"workers": 2}):
                    seen = []
                    t = traverse(kind, d, visitor=lambda S, depth: seen.append(S.gaps),
                                 **run)
                    assert len(seen) == len(set(seen)) == t.rows[g], (
                        order.name, d, g, run)


def test_fixed_genus_child_special_gaps_come_from_the_parent(monkeypatch):
    # a fixed-genus child C = S - {h} + {x} has multiplicity h, and each of
    # its special gaps below h is a special gap of S below h or h/2: the
    # candidates its parent tests it on.  Some child has h/2 as a special
    # gap, so that clause is needed; d <= 5, g <= 7.  The special gaps come
    # from the definition on tuples: h + s is a member for every nonzero
    # member s exactly when g - h is a gap for every other gap g >= h.
    # The step reads every child's special gaps off one test of its middle
    # node and the kill masks of that node's special gaps, so the mask a
    # child carries must also be what semigroup._special_gaps finds from
    # the child's own generators, filled from scratch, and a child must be
    # expanded (have generators) exactly when that mask is nonzero; d = 2
    # to 4 test the children off image masks, d = 5 off touched slots
    from gnsenum.semigroup import _generators_from_scratch, _special_gaps

    halves = 0
    checked = {}

    def below(gaps, m, key):
        return {h for h in gaps
                if key(h) < key(m) and tuple(2 * c for c in h) not in gaps
                and all(tuple(map(operator.sub, g, h)) in gaps for g in gaps
                        if g != h and all(map(operator.ge, g, h)))}

    real = trees._fixed_genus_children

    def children(node, U, limit=None):
        nonlocal halves, checked
        kids = real(node, U, limit)
        key = U.order.key
        gaps = U.decode(node[0])
        m = min(U.decode(node[1]), key=key)
        parent = below(gaps, m, key)
        for kid in kids:
            (h,) = gaps - U.decode(kid[0])
            half = tuple(c // 2 for c in h)
            cands = {g for g in parent if key(g) < key(h)}
            if not any(c % 2 for c in h):
                cands.add(half)
            mine = below(U.decode(kid[0]), h, key)
            assert mine <= cands, (gaps, h)
            halves += half in mine - parent
            kid_gens = _generators_from_scratch(U, kid[0])
            want = _special_gaps(U, kid[0], kid_gens,
                                 (kid_gens & -kid_gens) - 1)
            assert kid[4] == want, U.decode(kid[0])
            assert (kid[1] is None) == (want == 0), U.decode(kid[0])
            checked[U.dim, want != 0] = checked.get((U.dim, want != 0), 0) + 1
        return kids

    monkeypatch.setattr(trees, "_fixed_genus_children", children)
    for order in (LEX, ORDER1):
        for d in (1, 2, 3, 4, 5):
            for g in range(8):
                traverse(TreeKind("fixed-genus", order, genus_target=g), d)
    assert sum(checked.values()) > 20000, checked
    assert all(checked.get((d, s), 0) > 500 for d in (2, 3, 4, 5)
               for s in (False, True)), checked
    assert halves > 0


def test_minimal_toggles_agree_with_the_image_test(monkeypatch):
    # canonical._minimal_toggles decides many one-point toggles of a gap
    # mask in one call, off the image masks a walk node carries; bit x of
    # its answer must be the verdict of _gapset_is_representative on that
    # one toggle.  Points added (the node's generators) and removed (its
    # gaps), and the pre form, which tests the toggles of the mask with one
    # point pre already toggled, off the node's own masks: a gap removed
    # and then each generator added, as the fixed-genus step tests a middle
    # node's children, and a generator added and then each gap removed.  On
    # every node that a d <= 4 representative walk (lex, glex, order1) or
    # fixed-genus walk (lex, order1) expands
    from gnsenum.canonical import _gapset_is_representative, _minimal_toggles

    tally = {}

    def check(U, gaps, images, moves, pre=None):
        maps = U.image_maps()
        got = _minimal_toggles(maps, gaps, images, moves, pre)
        own = images if pre is None else trees._toggled(images, maps, pre)
        want = 0
        for x in semigroup._bits(moves):
            if _gapset_is_representative(U, gaps ^ 1 << x, own, x):
                want |= 1 << x
        assert got == want, (U.decode(gaps), pre)
        key = U.dim, pre is not None
        kept, dropped = tally.get(key, (0, 0))
        tally[key] = (kept + got.bit_count(),
                      dropped + (moves ^ got).bit_count())

    def watch(name):
        real = getattr(trees, name)

        def watched(node, U, limit=None):
            gaps, gens, images = node[0], node[1], node[3]
            check(U, gaps, images, gaps | gens)
            for pre in semigroup._bits(gaps):
                check(U, gaps ^ 1 << pre, images, gens, pre)
            for pre in semigroup._bits(gens):
                check(U, gaps ^ 1 << pre, images, gaps, pre)
            return real(node, U, limit)

        monkeypatch.setattr(trees, name, watched)

    watch("_representative_children")
    watch("_fixed_genus_children")
    for d in (1, 2, 3, 4):
        for order in (LEX, GLEX, ORDER1):
            traverse(TreeKind("representative", order), d, 6 if d < 4 else 5)
            if order.o_good:
                for g in range(1, 7):
                    traverse(TreeKind("fixed-genus", order, genus_target=g), d)
    # d = 1 has no permutation but the identity, so it keeps every toggle
    assert all(tally[d, pre][0] > 500 for d in (1, 2, 3, 4)
               for pre in (False, True)), tally
    assert all(tally[d, pre][1] > 1000 for d in (2, 3, 4)
               for pre in (False, True)), tally


def test_traverse_visitor_sees_each_node_once():
    seen = []
    traverse(TreeKind("full", LEX), 2, 3,
             visitor=lambda S, depth: seen.append((depth, S.gaps)))
    assert len(seen) == len(set(seen)) == 1 + 2 + 7 + 23
    assert (0, frozenset()) in seen
    by_depth = {}
    for depth, gaps in seen:
        by_depth.setdefault(depth, set()).add(gaps)
    assert all(len(g) == depth for depth in by_depth
               for g in by_depth[depth])


def test_traverse_parent_round_trips():
    # walking back up: full and representative glue the Frobenius gap in,
    # equivariant glues its whole orbit, fixed-genus also drops the
    # multiplicity
    from gnsenum.core import orbit_point
    from gnsenum.semigroup import extend

    for variant, order in (("full", LEX), ("representative", ORDER1)):
        nodes = []
        traverse(TreeKind(variant, order), 2, 4,
                 visitor=lambda S, depth: nodes.append((depth, S)))
        roots = {gaps for d_, gaps in ((dep, S.gaps) for dep, S in nodes)
                 if d_ == 0}
        assert roots == {frozenset()}
        frontier = {frozenset(): None}
        by_depth = {}
        for dep, S in nodes:
            by_depth.setdefault(dep, []).append(S)
        for dep in range(1, 5):
            parents = {S.gaps for S in by_depth[dep - 1]}
            for S in by_depth[dep]:
                F = frobenius_element(S, order)
                parent = extend(S, F)
                assert parent.gaps in parents

    nodes = []
    traverse(TreeKind("equivariant", LEX), 2, 8,
             visitor=lambda S, depth: nodes.append(S))
    seen = {S.gaps for S in nodes}
    for S in nodes:
        if S.genus == 0:
            continue
        F = frobenius_element(S, LEX)
        parent_gaps = S.gaps - orbit_point(F)
        assert parent_gaps in seen

    nodes = []
    traverse(TreeKind("fixed-genus", LEX, genus_target=4), 2,
             visitor=lambda S, depth: nodes.append(S))
    seen = {S.gaps for S in nodes}
    O = ordinary_gns(4, 2, LEX)
    for S in nodes:
        if S == O:
            continue
        F = frobenius_element(S, LEX)
        T = extend(S, F)
        m = multiplicity(T, LEX)
        parent_gaps = T.gaps | {m}
        assert parent_gaps in seen


def test_cross_construction_agreement():
    # same genus-4 representatives out of three different walks
    for order in (LEX, ORDER1):
        rep_nodes = set()
        traverse(TreeKind("representative", order), 2, 4,
                 visitor=lambda S, depth: rep_nodes.add(S.gaps)
                 if depth == 4 else None)
        fg_nodes = set()
        traverse(TreeKind("fixed-genus", order, genus_target=4), 2,
                 visitor=lambda S, depth: fg_nodes.add(S.gaps))
        assert rep_nodes == fg_nodes
        full_reps = set()
        traverse(TreeKind("full", order), 2, 4,
                 visitor=lambda S, depth: full_reps.add(
                     representative(S, order).gaps) if depth == 4 else None)
        assert full_reps == rep_nodes


def test_unconditional_children_below_second_axis():
    # in d=2, once (1,0) sits inside the semigroup and below the Frobenius
    # gap, every U-removal stays representative with no check needed
    from gnsenum.core import compare

    for order in (LEX, ORDER1):
        nodes = []
        traverse(TreeKind("representative", order), 2, 5,
                 visitor=lambda S, depth: nodes.append(S))
        e2 = (1, 0)
        for S in nodes:
            if S.genus == 0 or e2 in S.gaps:
                continue
            F = frobenius_element(S, order)
            if compare(order, e2, F) != -1:
                continue
            for child in children_full(S, order):
                assert is_representative(child, order).is_representative


def test_traverse_parallel_matches_sequential():
    kind = TreeKind("representative", GLEX)
    seqs = {}
    for workers in (1, 2, 8):
        acc = []
        traverse(kind, 2, 6, visitor=lambda S, depth: acc.append(S.gaps),
                 workers=workers)
        seqs[workers] = acc
    base = []
    traverse(kind, 2, 6, visitor=lambda S, depth: base.append(S.gaps))
    assert seqs[1] == seqs[2] == seqs[8] == base


def test_workers_select_the_pool(inline_pool):
    kind = TreeKind("full", LEX)
    seq = traverse(kind, 2, 5)
    assert inline_pool == []
    assert seq.meta["mode"] == "sequential"
    par = traverse(kind, 2, 5, workers=2)
    assert inline_pool == [2]
    assert par.meta["mode"] == "parallel"
    assert "parallel_fallback" not in par.meta
    assert par.rows == seq.rows
    with pytest.raises(ValueError, match="workers"):
        traverse(kind, 2, 5, workers=0)
    assert inline_pool == [2]


def _broken_pool(when, maps):
    """A stand-in for ProcessPoolExecutor whose map raises
    BrokenProcessPool at the call or, after the first result, while its
    results are read; maps records the number of items of each map."""
    from concurrent.futures.process import BrokenProcessPool

    def _raise(exc):
        raise exc

    class BrokenPool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, items):
            maps.append(len(items))
            if when == "at the call":
                raise BrokenProcessPool("a child process terminated abruptly")
            return (fn(x) if i == 0 else _raise(BrokenProcessPool())
                    for i, x in enumerate(items))

        def shutdown(self):
            pass

    return BrokenPool


@pytest.mark.parametrize("when", ["at the call", "on the results"])
def test_broken_pool_falls_back_to_this_process(monkeypatch, when):
    # a worker killed mid-walk (out of memory, say) breaks the pool, and
    # map raises BrokenProcessPool, at once or while its results are read:
    # the batches not yet finished are walked here, without the pool
    maps = []
    kind = TreeKind("full", LEX)
    seq, par = [], []
    want = traverse(kind, 2, 6, visitor=lambda S, depth: seq.append(S.gaps))
    monkeypatch.setattr(trees, "ProcessPoolExecutor", _broken_pool(when, maps))
    got = traverse(kind, 2, 6, workers=2,
                   visitor=lambda S, depth: par.append(S.gaps))
    assert got.rows == want.rows
    assert par == seq
    assert got.meta["parallel_fallback"] is True
    # the levels above the seeds never meet the pool; one map takes all 24
    # seed batches (71 seeds at depth 4, 3 to a batch) and breaks
    assert maps == [24]


def test_traverse_parallel_fixed_genus():
    kind = TreeKind("fixed-genus", LEX, genus_target=6)
    seq = traverse(kind, 2)
    par = traverse(kind, 2, workers=3)
    assert seq.rows == par.rows == {6: 323}


# a cell of each tree: kind, dimension, limit
_MEMO_CELLS = [(TreeKind("full", LEX), 3, 7),
               (TreeKind("representative", LEX), 2, 8),
               (TreeKind("fixed-genus", LEX, genus_target=7), 2, None),
               (TreeKind("equivariant", LEX), 2, 10)]


def _memo_size(U):
    return sum(len(memo) for memo in U.sum_memo[0] if memo)


@pytest.mark.parametrize("workers", [1, 2])
def test_walks_keep_the_member_sum_memo_within_its_budget(monkeypatch, sums_oracle,
                                                          workers):
    # with the memo's budget cut to 2, each tree gives, with and without a
    # visitor, the rows of a walk whose member sums come from a plain loop
    # with no memo, which are the recorded rows where there are some, and
    # its visitor sees the nodes in that walk's order; the memo is emptied
    # again and again, and no universe's memo ever holds more entries than
    # the budget, in this process or in a forked worker
    def walk(kind, d, limit):
        seen = []
        visited = traverse(kind, d, limit, workers=workers,
                           visitor=lambda S, depth: seen.append((depth, S.gaps)))
        return traverse(kind, d, limit, workers=workers).rows, visited.rows, seen

    with monkeypatch.context() as plain:
        plain.setattr(semigroup, "_member_sums", sums_oracle)
        plain.setattr(trees, "_member_sums", sums_oracle)
        want = [walk(*cell) for cell in _MEMO_CELLS]

    real = semigroup._member_sums
    flushes = 0

    def bounded(U, n, gaps):
        nonlocal flushes
        memo = U.sum_memo
        out = real(U, n, gaps)
        flushes += U.sum_memo is not memo
        assert _memo_size(U) <= 2
        return out

    monkeypatch.setattr(semigroup, "_SUM_MEMO_BUDGET", 2)
    monkeypatch.setattr(semigroup, "_member_sums", bounded)
    monkeypatch.setattr(trees, "_member_sums", bounded)
    for (kind, d, limit), (rows, visited_rows, seen) in zip(_MEMO_CELLS, want):
        top = kind.genus_target if limit is None else limit
        # a universe an earlier walk filled may hold more than the budget
        semigroup._universe(d, top + 1, LEX).clear_sum_memo()
        assert walk(kind, d, limit) == (rows, visited_rows, seen), kind
        assert visited_rows == rows
        if kind.variant != "equivariant":
            mode = "full" if kind.variant == "full" else "representative"
            genera = range(limit + 1) if limit is not None else [top]
            assert rows == {g: reference_value(mode, d, g) if g else 1
                            for g in genera}, kind
    assert flushes > 100, flushes


def test_member_sum_memo_runs_one_bit_loop_per_key(monkeypatch):
    # the full walk of n(2,10) asks for 7 066 member sums, whose keys
    # (n, gaps & U.doms[n]) take 476 values: on a fresh memo, which is
    # never emptied at that size, it ends with one entry per key, so each
    # key's bit loop ran once
    real = semigroup._member_sums
    keys = set()
    calls = 0

    def counted(U, n, gaps):
        nonlocal calls
        calls += 1
        out = real(U, n, gaps)
        keys.add((n, gaps & U.doms[n]))
        return out

    monkeypatch.setattr(semigroup, "_member_sums", counted)
    monkeypatch.setattr(trees, "_member_sums", counted)
    U = semigroup._universe(2, 11, LEX)
    U.clear_sum_memo()
    assert traverse(TreeKind("full", LEX), 2, 10).rows[10] == 46898
    assert _memo_size(U) == len(keys) <= 500 < calls // 10, (calls, len(keys))


class _Stop(Exception):
    pass


def _header(path):
    """The fields of a checkpoint's header line."""
    with open(path, encoding="ascii") as fh:
        return dict(tok.partition("=")[::2] for tok in fh.readline().split()[2:])


def test_checkpoint_round_trip(tmp_path):
    # a walk stopped after some seed batches and run again ends with the
    # bytes that a fresh walk writes
    for variant, limit in (("full", 5), ("representative", 5),
                           ("equivariant", 9)):
        kind = TreeKind(variant, LEX)
        fresh = str(tmp_path / f"{variant}.ck")
        seeds = traverse(kind, 2, limit, checkpoint=fresh).meta["seeds"]
        want = Path(fresh).read_text(encoding="ascii")
        assert want.startswith(f"gns-tree-checkpoint 3 kind={variant} d=2 "
                               f"order=lex gmax={limit} seeds={seeds['count']} "
                               f"done=0-{seeds['count'] - 1} ")

        # the visitor sees a batch before its checkpoint is written, so
        # stopping on the last seed leaves that batch pending
        met = []

        def stop(S, depth, last=seeds["count"]):
            if depth == seeds["depth"]:
                met.append(S)
                if len(met) == last:
                    raise _Stop

        ck = str(tmp_path / f"{variant}-stopped.ck")
        with pytest.raises(_Stop):
            traverse(kind, 2, limit, visitor=stop, checkpoint=ck)
        done = _header(ck)["done"]
        assert done.startswith("0-") and int(done[2:]) < seeds["count"] - 1
        rerun = traverse(kind, 2, limit, checkpoint=ck)
        assert rerun.meta["resumed"]
        assert 0 < rerun.meta["seeds"]["walked"] < seeds["count"]
        assert Path(ck).read_text(encoding="ascii") == want, variant

        # walked to genus limit - 1 and resumed to limit, which walks every
        # seed again
        ck = str(tmp_path / f"{variant}-shorter.ck")
        traverse(kind, 2, limit - 1, checkpoint=ck)
        traverse(kind, 2, limit, checkpoint=ck)
        assert Path(ck).read_text(encoding="ascii") == want, variant


def test_checkpoint_through_a_broken_pool(tmp_path, monkeypatch):
    # the pool breaks after its first batch and the rest is walked in this
    # process; batches still finish in seed order, so every write records
    # a prefix of the seeds that never shrinks, the walk ends with the
    # bytes of a sequential walk, and a stopped walk resumes to its counts
    kind, d, gmax = TreeKind("full", LEX), 2, 7
    fresh = str(tmp_path / "fresh.ck")
    want = traverse(kind, d, gmax, checkpoint=fresh)
    n_seeds = want.meta["seeds"]["count"]
    maps = []
    monkeypatch.setattr(trees, "ProcessPoolExecutor",
                        _broken_pool("on the results", maps))
    real_write = trees._write_checkpoint
    finished = []

    def write(path, *args):
        real_write(path, *args)
        done = _header(path)["done"]
        assert done == "" or done == f"0-{int(done[2:])}", done
        finished.append(int(done[2:]) + 1 if done else 0)

    monkeypatch.setattr(trees, "_write_checkpoint", write)
    ck = str(tmp_path / "pool.ck")
    got = traverse(kind, d, gmax, workers=2, checkpoint=ck)
    assert got.meta["parallel_fallback"] is True
    assert got.rows == want.rows
    # one write after the seed expansion and one after each batch, all of
    # which the one map was given
    assert finished == sorted(finished) and maps == [len(finished) - 1]
    assert finished[0] == 0 and finished[-1] == n_seeds
    assert Path(ck).read_bytes() == Path(fresh).read_bytes()

    # stopped in the walk's second batch, which the fallback walks here
    met = []

    def stop(S, depth):
        if depth == want.meta["seeds"]["depth"]:
            met.append(S)
            if len(met) == 5:
                raise _Stop

    stopped = str(tmp_path / "stopped.ck")
    finished.clear()
    with pytest.raises(_Stop):
        traverse(kind, d, gmax, workers=2, checkpoint=stopped, visitor=stop)
    k = finished[-1]
    assert 0 < k < n_seeds
    resumed = traverse(kind, d, gmax, workers=2, checkpoint=stopped)
    assert resumed.meta["resumed"]
    assert resumed.meta["seeds"]["walked"] == n_seeds - k
    assert resumed.rows == want.rows
    assert finished == sorted(finished)
    assert Path(stopped).read_bytes() == Path(fresh).read_bytes()


def test_checkpoint_resume_counts(tmp_path):
    ck = str(tmp_path / "walk.ck")
    kind = TreeKind("representative", LEX)
    traverse(kind, 2, 4, checkpoint=ck)
    resumed = traverse(kind, 2, 7, checkpoint=ck)
    clean = traverse(kind, 2, 7)
    assert resumed.rows == clean.rows
    assert resumed.meta["resumed"]


def test_checkpoint_resumes_to_a_much_smaller_gmax(tmp_path):
    # the seeds of a walk to genus 7 hold points, such as (0,7), outside the
    # universes of the walks to genus 0 and 1; it still resumes to every
    # smaller gmax, to the counts of a fresh walk there
    for variant in ("full", "representative", "equivariant"):
        kind = TreeKind(variant, LEX)
        for g in range(7):
            ck = str(tmp_path / f"{variant}-{g}.ck")
            traverse(kind, 2, 7, checkpoint=ck)
            if variant == "full":
                assert "(0,7)" in Path(ck).read_text(encoding="ascii")
            resumed = traverse(kind, 2, g, checkpoint=ck)
            assert resumed.meta["resumed"]
            assert resumed.rows == traverse(kind, 2, g).rows, (variant, g)


def test_interrupted_checkpoint_resumes_to_a_smaller_gmax(tmp_path):
    # pending seeds are walked to the smaller gmax, the finished ones keep
    # their counts up to it, and the file keeps the longer walk
    for variant in ("full", "representative", "equivariant"):
        kind = TreeKind(variant, LEX)
        met = []

        def stop(S, depth):
            if depth == 4:
                met.append(S)
                if len(met) == 20:
                    raise _Stop

        ck = str(tmp_path / f"{variant}.ck")
        with pytest.raises(_Stop):
            traverse(kind, 2, 9, visitor=stop, checkpoint=ck)
        before = Path(ck).read_text(encoding="ascii")
        assert _header(ck)["done"]
        for g in (7, 5, 3):
            resumed = traverse(kind, 2, g, checkpoint=ck)
            assert resumed.rows == traverse(kind, 2, g).rows, (variant, g)
            assert Path(ck).read_text(encoding="ascii") == before


def test_equivariant_checkpoint_restarts_on_a_larger_gmax(tmp_path):
    # the equivariant walk drops children beyond the genus it walks to, so
    # its finished seeds say nothing of a larger gmax: resuming them read
    # N=0 at genus 4 instead of 3 for d=2 3 -> 4, and 0 instead of 3 for
    # d=3 5 -> 6.  Like every tree, it walks every seed again instead, to
    # the counts and the file of a fresh walk
    kind = TreeKind("equivariant", LEX)
    for d, g, fresh_count in ((2, 3, 3), (3, 5, 3)):
        fresh = str(tmp_path / f"eq-{d}-fresh.ck")
        want = traverse(kind, d, g + 1, checkpoint=fresh)
        assert want.rows[g + 1] == fresh_count
        ck = str(tmp_path / f"eq-{d}.ck")
        walked = traverse(kind, d, g, checkpoint=ck)
        assert f" gmax={g} " in Path(ck).read_text(encoding="ascii").splitlines()[0]
        longer = traverse(kind, d, g + 1, checkpoint=ck)
        assert longer.meta["resumed"]
        assert longer.meta["seeds"]["walked"] == want.meta["seeds"]["count"]
        assert longer.rows == want.rows, (d, g)
        assert Path(ck).read_bytes() == Path(fresh).read_bytes(), (d, g)
        # the rewritten file resumes to its own gmax and to smaller ones
        assert traverse(kind, d, g + 1, checkpoint=ck).rows == want.rows
        assert traverse(kind, d, g, checkpoint=ck).rows == walked.rows
        assert traverse(kind, d, g - 1, checkpoint=ck).rows == \
            traverse(kind, d, g - 1).rows


def test_fixed_genus_checkpoint_records_its_target(tmp_path):
    ck = str(tmp_path / "fixed.ck")
    kind = TreeKind("fixed-genus", LEX, genus_target=4)
    traverse(kind, 2, checkpoint=ck)
    assert " gmax=4 " in Path(ck).read_text(encoding="ascii").splitlines()[0]
    # the tree of another genus shares no node with it
    for g in (3, 5):
        with pytest.raises(CheckpointCorrupt, match="genus 4 fixed-genus tree"):
            traverse(TreeKind("fixed-genus", LEX, genus_target=g), 2, checkpoint=ck)
    assert traverse(kind, 2, checkpoint=ck).rows == {4: 37}


def test_checkpoint_corruption(tmp_path):
    ck = str(tmp_path / "walk.ck")
    kind = TreeKind("representative", LEX)
    traverse(kind, 2, 3, checkpoint=ck)
    good = Path(ck).read_text(encoding="ascii")

    def rewrite(text):
        with open(ck, "w", encoding="ascii") as fh:
            fh.write(text)

    rewrite("not a checkpoint\n")
    with pytest.raises(CheckpointCorrupt):
        traverse(kind, 2, 5, checkpoint=ck)

    rewrite(good.replace("kind=representative", "kind=full"))
    with pytest.raises(CheckpointCorrupt):
        traverse(kind, 2, 5, checkpoint=ck)

    rewrite(good.replace("order=lex", "order=glex"))
    with pytest.raises(CheckpointCorrupt):
        traverse(kind, 2, 5, checkpoint=ck)

    # frontier files of versions 1 and 2 are no longer read
    for version in ("1", "2"):
        rewrite(good.replace("gns-tree-checkpoint 3", "gns-tree-checkpoint " + version))
        with pytest.raises(CheckpointCorrupt,
                           match=f"unsupported checkpoint version '{version}'"):
            traverse(kind, 2, 5, checkpoint=ck)

    # tamper with one node line
    lines = good.splitlines(keepends=True)
    lines[1] = lines[1].replace("(", "( ", 1)
    rewrite("".join(lines))
    with pytest.raises(CheckpointCorrupt):
        traverse(kind, 2, 5, checkpoint=ck)

    # the same gaps listed out of order
    lines = good.splitlines(keepends=True)
    gaps = lines[1].strip()[2:-2].split("),(")
    lines[1] = "[(" + "),(".join(reversed(gaps)) + ")]\n"
    rewrite("".join(lines))
    with pytest.raises(CheckpointCorrupt, match="are not those of a walk to genus 3"):
        traverse(kind, 2, 5, checkpoint=ck)

    # duplicate a node line; header count then lies as well
    lines = good.splitlines(keepends=True)
    rewrite("".join([lines[0], lines[1], lines[1]] + lines[2:]))
    with pytest.raises(CheckpointCorrupt):
        traverse(kind, 2, 5, checkpoint=ck)

    # a header that is not the one the writer makes: a seed count that
    # lies, a finished seed that is not there, a field spelled another way,
    # a field too many or too few
    assert " seeds=12 done=0-11 counts=" in good.splitlines()[0]
    for head_edit in (("seeds=12", "seeds=11"), ("done=0-11", "done=0-12"),
                      ("done=0-11", "done=0-5,6-11"), ("done=0-11", "done=11-0"),
                      ("done=0-11", "done=0-3,8-11"), ("done=0-11", "done=0--2"),
                      (" counts=", " x=1 counts="), (" gmax=3", ""),
                      (" done=0-11", ""), ("gmax=3", "gmax=x"),
                      ("counts=0:1", "counts=0:0,0:1")):
        rewrite(good.replace(*head_edit, 1))
        with pytest.raises(CheckpointCorrupt, match="header"):
            traverse(kind, 2, 5, checkpoint=ck)

    # well-formed seed lines that are not the seeds of the walk: two
    # swapped, and one replaced by a semigroup of the same genus off the
    # representative tree
    lines = good.splitlines(keepends=True)
    for edited in ([lines[0], lines[2], lines[1]] + lines[3:],
                   [lines[0], "[(0,1),(1,0),(2,0)]\n"]
                   + lines[2:]):
        rewrite("".join(edited))
        with pytest.raises(CheckpointCorrupt, match="not those of a walk to genus 3"):
            traverse(kind, 2, 5, checkpoint=ck)

    # counts that cannot be the levels above the seeds plus the finished
    # seeds' subtrees: a genus below those levels, and other counts with
    # no seed finished
    assert " counts=0:1,1:1," in good.splitlines()[0]
    for head_edit, why in ((("counts=0:1,1:1,", "counts=0:1,1:-98,"),
                            "fall below those of the levels above its seeds"),
                           (("done=0-11", "done="), "no seed is finished")):
        rewrite(good.replace(*head_edit, 1))
        with pytest.raises(CheckpointCorrupt, match=why):
            traverse(kind, 2, 5, checkpoint=ck)

    # truncation
    rewrite(good[: len(good) // 2])
    with pytest.raises(CheckpointCorrupt):
        traverse(kind, 2, 5, checkpoint=ck)

    # a zero-byte file counts as absent (the writer never leaves one
    # behind), so the walk starts over and refills it
    rewrite("")
    t = traverse(kind, 2, 3, checkpoint=ck)
    assert t.rows[3] == 12
    assert Path(ck).read_text(encoding="ascii") == good


def test_seed_genus_is_checked_before_the_planting(tmp_path, monkeypatch):
    # a header whose gmax is edited upward names a walk whose seeds have
    # more gaps than the file's lines: each tree refuses it before it
    # plants that walk's seeds
    def no_plant(*args):
        raise AssertionError("planted")

    # (at d = 2 no equivariant node of depth 3 has genus 3, and the
    # fixed-genus tree of genus 4 or less has no node of depth 4)
    for kind, d, top, edited in (
            (TreeKind("full", LEX), 2, 3, 5),
            (TreeKind("representative", ORDER1), 2, 3, 9),
            (TreeKind("equivariant", LEX), 1, 3, 8),
            (TreeKind("fixed-genus", LEX, genus_target=5), 2, 5, 6)):
        ck = tmp_path / f"{kind.variant}.ck"
        limit = None if kind.genus_target is not None else top
        traverse(kind, d, limit, checkpoint=str(ck))
        text = ck.read_text(encoding="ascii")
        ck.write_text(text.replace(f" gmax={top} ", f" gmax={edited} ", 1),
                      encoding="ascii")
        if kind.genus_target is not None:
            kind = TreeKind("fixed-genus", LEX, genus_target=edited)
        with monkeypatch.context() as m:
            m.setattr(trees, "_plant", no_plant)
            with pytest.raises(CheckpointCorrupt,
                               match=f"holds {top} gaps, which no seed of a walk "
                                     f"to genus {edited} has"):
                traverse(kind, d, limit and edited, checkpoint=str(ck))
    # an equivariant seed may have any genus from its depth to gmax: the
    # d=2 seeds of a walk to genus 8 have genus 6 to 8, and the file resumes
    kind = TreeKind("equivariant", LEX)
    ck = str(tmp_path / "equivariant-8.ck")
    want = traverse(kind, 2, 8, checkpoint=ck)
    genera = {line.count("(") for line in Path(ck).read_text().splitlines()[1:]}
    assert genera == {6, 7, 8}, genera
    assert traverse(kind, 2, 8, checkpoint=ck).rows == want.rows


@pytest.mark.parametrize("order", [LEX, GLEX, ORDER1], ids=lambda o: o.name)
def test_full_tree_leaf_count_matches_the_visitor(tmp_path, order):
    # a full walk without a visitor counts its last three levels off the
    # generator masks, split planes and member sums, and one with a visitor
    # builds every node: their rows agree, and equal the nodes the visitor
    # sees per depth.  The seeds (depth min(4, gmax)) sit at depth limit
    # for gmax up to 4, at limit - 1 for gmax 5 (where they carry no sums),
    # at limit - 2 for gmax 6, at limit - 3 for gmax 7 and above it for
    # gmax 8, and a file of a walk to genus 8 hands them over with the
    # generator masks and sums of that walk's universe, to gmax 8 itself
    # too.  d = 3 stops at gmax 7 and d = 4 at gmax 6, as their visitor
    # walks one genus further would take most of the test's time
    kind = TreeKind("full", order)
    for d in (1, 2, 3, 4):
        ck = str(tmp_path / f"full-{d}.ck")
        seeds, counts = trees._plant(kind, d, 8)
        trees._write_checkpoint(ck, kind, d, 8, counts, checkpoint._seed_lines(
            trees._walk_universe(order, d, 8), seeds), 0)
        # a resume to genus 8 finishes the file, so each starts from a copy
        planted = Path(ck).read_bytes()
        for gmax in range(1, min(9, 11 - d)):
            for workers in (1, 2):
                fresh = traverse(kind, d, gmax, workers=workers)
                seen = [0] * (gmax + 1)

                def visit(S, depth):
                    seen[depth] += 1

                assert traverse(kind, d, gmax, visitor=visit,
                                workers=workers).rows == fresh.rows
                assert dict(enumerate(seen)) == fresh.rows, (d, gmax, workers)
                Path(ck).write_bytes(planted)
                resumed = traverse(kind, d, gmax, workers=workers, checkpoint=ck)
                assert resumed.meta["resumed"]
                assert resumed.rows == fresh.rows, (d, gmax, workers)
                # a resumed walk visits the seeds' subtrees alone
                seen = [0] * (gmax + 1)
                Path(ck).write_bytes(planted)
                assert traverse(kind, d, gmax, visitor=visit, workers=workers,
                                checkpoint=ck).rows == fresh.rows
                assert seen[4:] == [fresh.rows[g] for g in range(4, gmax + 1)]


def test_resumed_seeds_keep_their_generators(tmp_path, monkeypatch):
    # a resume to a smaller gmax walks the file's re-planted seeds with
    # their generator masks, over the file's universe: the only generators
    # built from scratch are the root's, once per seed expansion.  The
    # equivariant seeds have genus 6 to 8, so gmax 6 walks one of them
    for variant in ("full", "equivariant"):
        kind = TreeKind(variant, LEX)
        ck = str(tmp_path / f"{variant}.ck")
        # the file a walk to genus 8 writes after its seed expansion
        seeds, counts = trees._plant(kind, 2, 8)
        trees._write_checkpoint(ck, kind, 2, 8, counts, checkpoint._seed_lines(
            trees._walk_universe(LEX, 2, 8), seeds), 0)
        for gmax in (5, 6):
            fresh = traverse(kind, 2, gmax)
            calls = {"plant": 0, "scratch": 0}

            def counted(name, fn):
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
                return wrapper

            with monkeypatch.context() as m:
                m.setattr(trees, "_plant", counted("plant", trees._plant))
                m.setattr(semigroup, "_generators_from_scratch", counted(
                    "scratch", semigroup._generators_from_scratch))
                resumed = traverse(kind, 2, gmax, workers=1, checkpoint=ck)
            assert resumed.meta["resumed"]
            assert resumed.rows == fresh.rows, (variant, gmax)
            assert calls == {"plant": 1, "scratch": 1}, (variant, gmax)


def test_seeds_carry_their_own_images(tmp_path, monkeypatch):
    # a representative or fixed-genus walk builds image masks from scratch
    # for its root alone, once per seed expansion: the seeds of a resume,
    # to the file's gmax or a smaller one, come out of that re-planting
    # with their images
    for kind, d, top, gmaxes in (
            (TreeKind("representative", LEX), 2, 8, (5, 6, 8)),
            (TreeKind("representative", ORDER1), 3, 7, (5, 7)),
            (TreeKind("fixed-genus", LEX, genus_target=8), 2, 8, (8,)),
            (TreeKind("fixed-genus", ORDER1, genus_target=6), 3, 6, (6,)),
            # past d = 4 the root's touched-slot mask, in place of images
            (TreeKind("representative", GLEX), 5, 5, (4, 5)),
            (TreeKind("fixed-genus", LEX, genus_target=5), 5, 5, (5,))):
        ck = str(tmp_path / f"{kind.variant}-{d}.ck")
        # the file a walk to genus top writes after its seed expansion
        seeds, counts = trees._plant(kind, d, top)
        trees._write_checkpoint(ck, kind, d, top, counts, checkpoint._seed_lines(
            trees._walk_universe(kind.order, d, top), seeds), 0)
        for gmax in gmaxes:
            limit = None if kind.genus_target is not None else gmax
            for path in (None, ck):
                calls = {"plant": 0, "images": 0}

                def counted(name, fn):
                    def wrapper(*args, **kwargs):
                        calls[name] += 1
                        return fn(*args, **kwargs)
                    return wrapper

                with monkeypatch.context() as m:
                    m.setattr(trees, "_plant", counted("plant", trees._plant))
                    m.setattr(semigroup, "_images_from_scratch", counted(
                        "images", semigroup._images_from_scratch))
                    t = traverse(kind, d, limit, workers=1, checkpoint=path)
                assert t.meta["resumed"] == (path is not None)
                assert calls == {"plant": 1, "images": 1}, (kind, gmax, path)


def test_checkpoint_node_must_be_a_semigroup(tmp_path):
    # resumed nodes must be the seeds of the file's walk:
    # {(0,2),(1,0)} is no semigroup's, since (0,2) = (0,1) + (0,1), and
    # resumed unchecked it made n(2,5) read 143 instead of 210
    ck = str(tmp_path / "walk.ck")
    kind = TreeKind("full", LEX)
    traverse(kind, 2, 2, checkpoint=ck)
    lines = Path(ck).read_text(encoding="ascii").splitlines(keepends=True)
    assert "[(0,2),(1,0)]\n" not in lines
    lines[1] = "[(0,2),(1,0)]\n"
    with open(ck, "w", encoding="ascii") as fh:
        fh.write("".join(lines))
    with pytest.raises(CheckpointCorrupt, match="are not those of a walk to genus 2"):
        traverse(kind, 2, 5, checkpoint=ck)


def test_full_tree_dim1_matches_a007323():
    # in d=1 the ordinary semigroup of genus g has the generator 2g + 1,
    # right on the edge prod(a_i + 1) = 2(g + 1) of the point universe
    for g in range(13):
        assert 2 * g + 1 in (a[0] for a in ordinary_gns(g, 1, LEX).generators)
    t = traverse(TreeKind("full", LEX), 1, 12)
    assert [t.rows[g] for g in range(13)] == [
        1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592]


def test_checkpoint_wrong_dimension(tmp_path):
    ck = str(tmp_path / "walk.ck")
    kind = TreeKind("full", LEX)
    traverse(kind, 2, 2, checkpoint=ck)
    with pytest.raises(CheckpointCorrupt):
        traverse(kind, 3, 4, checkpoint=ck)


def test_checkpoint_fresh_when_missing(tmp_path):
    ck = str(tmp_path / "nothere.ck")
    t = traverse(TreeKind("full", LEX), 2, 2, checkpoint=ck)
    assert t.rows == {0: 1, 1: 2, 2: 7}
    assert os.path.exists(ck)


def test_package_exports_resolve():
    for name in gnsenum.__all__:
        assert hasattr(gnsenum, name), name


def _tuple_splits(U):
    # per point k of U, its unordered splits {y, k - y} into nonzero
    # points, as tuples
    out = []
    for k in U.points:
        ps = []
        for y in itertools.product(*(range(x + 1) for x in k)):
            z = tuple(map(operator.sub, k, y))
            if any(y) and any(z) and y <= z:
                ps.append((y, z))
        out.append(ps)
    return out


def test_mask_nodes_agree_with_tuple_path(monkeypatch):
    # every node the engine carries, a gap mask and a generator mask over
    # the walk's ranked universe, decodes to a gap set whose generators the
    # tuple sieve finds and whose admissible moves are the generators past
    # its largest gap under the order; its split planes, when it carries
    # them, spell the split counts of its gap set, counted over tuples, in
    # every tree; a full node's member sums, when it carries them, map each
    # of its moves n to the points n + s of the universe with s a nonzero
    # member, summed over tuples; a representative or fixed-genus node's
    # image masks, when it carries them, are those of its gap set under
    # each non-identity permutation, and the walk builds no rank row for
    # the orbit scan; a fixed-genus node's special-gap mask is that of its
    # special gaps below its multiplicity under the tuple formula, and it
    # has generators when there are some; d <= 3, g <= 6, all four trees
    # (fixed-genus under the o-good orders lex and order1 only, to genus 7,
    # as its childless nodes are never expanded).  The full tree walks to
    # genus 8: its last three levels are counted off the masks, without a
    # call to its child function, so this checks its nodes up to genus 5
    from test_semigroup import _generators_reference, _special_gaps_reference

    oracle = {}
    checked = 0
    split = {}
    imaged = 0
    summed = 0
    special = 0
    universes = {}
    splits_of = {}
    sums_of = {}

    def agree(U, node, variant):
        nonlocal checked, imaged, special, summed
        key = U.order.key
        gaps, gens = node[0], node[1]
        S = GapSemigroup(U.dim, U.decode(gaps))  # the checked constructor
        want = oracle.get((U.dim, S.gaps))
        if want is None:
            want = oracle[U.dim, S.gaps] = _generators_reference(U.dim, S.gaps)
        if gens is not None:
            assert U.decode(gens) == want, S
            top = key(max(S.gaps, key=key)) if S.gaps else None
            moves = [U.points[i] for i in trees._sorted_u(gaps, gens)]
            assert moves == sorted((a for a in want if top is None or key(a) > top),
                                   key=key), S
        assert (node[2] is None) == (gens is None), S
        if node[2] is not None:
            planes = node[2]
            got = [sum((p >> k & 1) << b for b, p in enumerate(planes))
                   for k in range(len(U.points))]
            table = splits_of.get(id(U))
            if table is None:
                table = splits_of[id(U)] = _tuple_splits(U)
            G = S.gaps
            assert got == [sum(y not in G and z not in G for y, z in ps)
                           for ps in table], S
            split[variant] = split.get(variant, 0) + 1
        if variant == "full":
            if node[3] is not None:
                # per move n, the points n + s of U, s a nonzero member
                want_sums = {}
                for i in trees._sorted_u(gaps, gens):
                    n = U.points[i]
                    pairs = sums_of.get((id(U), n))
                    if pairs is None:
                        pairs = sums_of[id(U), n] = [
                            (y, z) for y in U.points
                            if (z := tuple(map(operator.add, n, y))) in U.index]
                    want_sums[n] = {z for y, z in pairs if y not in S.gaps}
                assert {U.points[i]: set(U.at(x)) for i, x in node[3].items()} \
                    == want_sums, S
                summed += 1
        elif len(node) > 3 and node[3] is not None:
            assert list(node[3]) == [U.mask(map(perm.apply, S.gaps))
                                     for perm in all_permutations(U.dim)[1:]], S
            imaged += 1
        if len(node) > 4:
            m = key(min(want, key=key))
            below = frozenset(h for h in _special_gaps_reference(
                GapSemigroup(U.dim, S.gaps, generators=want, _trusted=True))
                if key(h) < m)
            assert U.decode(node[4]) == below, S
            assert gens is not None or not below, S
            special += bool(below)
        checked += 1

    for variant, name in (("full", "_full_children"),
                          ("representative", "_representative_children"),
                          ("equivariant", "_equivariant_children"),
                          ("fixed-genus", "_fixed_genus_children")):
        def watched(node, U, limit=None, real=getattr(trees, name), variant=variant):
            universes[id(U)] = U
            kids = real(node, U, limit)
            agree(U, node, variant)
            for kid in kids:
                agree(U, kid, variant)
            return kids

        monkeypatch.setattr(trees, name, watched)
    # no universe holds rank rows from an earlier scan
    semigroup._universes.cache_clear()
    for d in (1, 2, 3):
        for order in (LEX, GLEX, ORDER1):
            for variant in ("full", "representative", "equivariant"):
                traverse(TreeKind(variant, order), d, 8 if variant == "full" else 6)
            if order.o_good:
                for g in range(8):
                    traverse(TreeKind("fixed-genus", order, genus_target=g), d)
    assert checked > 20000, checked
    assert split.get("full", 0) > 5000, split
    assert split.get("representative", 0) > 2000, split
    assert split.get("fixed-genus", 0) > 5000, split
    assert split.get("equivariant", 0) > 300, split
    assert imaged > 5000, imaged
    assert summed > 2000, summed
    assert special > 5000, special
    assert not any(U.rank_rows for U in universes.values())


@pytest.mark.parametrize("order", list(_ORDERS.values()), ids=lambda o: o.name)
def test_split_planes_give_the_generators_of_the_pair_probe(monkeypatch, sums_oracle,
                                                            order):
    # every tree reads a child's generators off its parent's split planes
    # (semigroup._removal_generators, after _extension_generators for the
    # fixed-genus middle node), and a full node carries the member sums of
    # its moves, off which its children's generators and its last three
    # levels' counts are read; the reference is the fill of each gap set
    # (the name is that of the reference it replaced, the split-pair
    # probe).  At every node a walk expands, by its child function or by
    # its leaf count, each child built has the fill's generators, every
    # full node that carries sums carries, for each of its moves n and no
    # other key, the sums a plain loop with no memo builds from its gaps
    # (the sums_oracle fixture), and the leaf count gives per level the
    # nodes that dropping the fill's moves one after another gives;
    # d = 1..4, the full tree to genus 6 with and without a visitor, which
    # has every level built, and the other trees to genus 6 (equivariant
    # to 8)
    from gnsenum.semigroup import _generators_from_scratch

    nodes = {}
    levels_seen = {}
    fills = {}

    def moves_of(U, gaps):
        gens = fills.get((id(U), gaps))
        if gens is None:
            gens = fills[id(U), gaps] = _generators_from_scratch(U, gaps)
        top = gaps.bit_length()
        return semigroup._bits(gens >> top << top)

    def check_sums(U, node):
        gaps, gens, _, sums = node
        if sums is not None:
            assert list(sums) == moves_of(U, gaps), U.decode(gaps)
            for n, x in sums.items():
                assert x == sums_oracle(U, n, gaps), (U.decode(gaps), n)
            nodes["sums"] = nodes.get("sums", 0) + 1

    def watch(variant, name):
        def watched(node, U, limit=None, real=getattr(trees, name)):
            kids = real(node, U, limit)
            if variant == "full":
                check_sums(U, node)
                assert [c[0] for c in kids] == [node[0] | 1 << n
                                                for n in moves_of(U, node[0])]
            for kid in kids:
                if kid[1] is not None:
                    assert kid[1] == _generators_from_scratch(U, kid[0]), \
                        U.decode(kid[0])
                    nodes[variant] = nodes.get(variant, 0) + 1
                if variant == "full":
                    check_sums(U, kid)
            return kids

        monkeypatch.setattr(trees, name, watched)

    def watched_leaves(U, node, levels, real=trees._full_leaves):
        counts = real(U, node, levels)
        check_sums(U, node)
        want = []
        level = [node[0]]
        for _ in range(levels):
            level = [gaps | 1 << n for gaps in level for n in moves_of(U, gaps)]
            want.append(len(level))
        assert counts == want, U.decode(node[0])
        levels_seen[levels] = levels_seen.get(levels, 0) + 1
        return counts

    for variant, name in (("full", "_full_children"),
                          ("representative", "_representative_children"),
                          ("equivariant", "_equivariant_children"),
                          ("fixed-genus", "_fixed_genus_children")):
        watch(variant, name)
    monkeypatch.setitem(trees._VARIANTS, "full", dataclasses.replace(
        trees._VARIANTS["full"], leaves=watched_leaves))
    for d in (1, 2, 3, 4):
        traverse(TreeKind("full", order), d, 6)
        traverse(TreeKind("full", order), d, 6, visitor=lambda S, k: None)
        traverse(TreeKind("representative", order), d, 6)
        traverse(TreeKind("equivariant", order), d, 8)
        if order.o_good:
            for g in range(1, 7):
                traverse(TreeKind("fixed-genus", order, genus_target=g), d)
    # the seeds (depth 4) count one level at genus 5, two at genus 6 and
    # three at genus 7; at genus 8 their children count three
    for d in (1, 2, 3):
        traverse(TreeKind("full", order), d, 7)
    for d in (1, 2):
        traverse(TreeKind("full", order), d, 5)
        traverse(TreeKind("full", order), d, 8)
    assert levels_seen.get(1, 0) > 50 and levels_seen.get(2, 0) > 1000 \
        and levels_seen.get(3, 0) > 500, levels_seen
    assert nodes["full"] > 5000 and nodes["representative"] > 500, nodes
    assert nodes["sums"] > 5000, nodes
    assert nodes["equivariant"] > 50, nodes
    assert not order.o_good or nodes["fixed-genus"] > 500, nodes


@pytest.mark.parametrize("order", [LEX, ORDER1], ids=lambda o: o.name)
def test_one_universe_per_walk(order):
    # the nodes, their generators and the orbit test of every child all
    # read the one ranked universe of the walk
    for kind, d, limit in ((TreeKind("representative", order), 3, 6),
                           (TreeKind("fixed-genus", order, genus_target=7), 2, None)):
        semigroup._universes.cache_clear()
        traverse(kind, d, limit)
        assert semigroup._universes.cache_info().misses == 1, kind


def test_checkpoint_spells_its_seeds_once(tmp_path, monkeypatch):
    # a walk spells its seed lines once; after each write the file is, byte
    # for byte, the header over the lines of a fresh seed expansion
    kind, d, gmax = TreeKind("full", LEX), 2, 7
    seeds, _ = trees._plant(kind, d, gmax)
    want = checkpoint._seed_lines(trees._walk_universe(LEX, d, gmax), seeds)
    spelled = []
    real_write = trees._write_checkpoint
    written = []

    def spell(U, seeds):
        spelled.append(len(seeds))
        return checkpoint._seed_lines(U, seeds)

    def write(path, kind, d, gmax, counts, lines, done):
        real_write(path, kind, d, gmax, counts, lines, done)
        head = checkpoint._header(kind, d, gmax, counts, len(seeds), done)
        with open(path, "rb") as fh:
            assert fh.read() == ("\n".join([head] + want) + "\n").encode("ascii")
        written.append(done)

    monkeypatch.setattr(trees, "_seed_lines", spell)
    monkeypatch.setattr(trees, "_write_checkpoint", write)
    traverse(kind, d, gmax, checkpoint=str(tmp_path / "walk.ck"))
    assert spelled == [len(seeds)]
    assert written[0] == 0 and written[-1] == len(seeds) and len(written) > 2


@pytest.mark.parametrize("order", [LEX, GLEX, ORDER1, order1(LEX)],
                         ids=lambda o: o.name)
def test_checkpoint_lines_are_the_documented_format(tmp_path, order):
    # the writer joins one cached string per rank; each seed line must be
    # the gap list sorted under the order, as _format_gapset spells it, and
    # the lines must be the seed level the visitor sees
    variants = [("full", 7, 5, 4, 4), ("representative", 8, 6, 5, 5),
                ("equivariant", 10, 7, 6, 6)]
    checked = 0
    for d in (1, 2, 3, 4):
        for variant, *limits in variants:
            kinds = [(TreeKind(variant, order), limits[d - 1])]
            if order.o_good and variant == "representative":
                kinds.append((TreeKind("fixed-genus", order,
                                       genus_target=limits[d - 1]), None))
            for kind, limit in kinds:
                levels = {}
                ck = str(tmp_path / f"{variant}-{d}.ck")
                traverse(kind, d, limit, checkpoint=ck,
                         visitor=lambda S, depth: levels.setdefault(
                             depth, []).append(S.gaps))
                lines = Path(ck).read_text(encoding="ascii").splitlines()
                seed_depth = min(trees._SEED_DEPTH, limit or kind.genus_target)
                assert lines[1:] == [checkpoint._format_gapset(gaps, order.key)
                                     for gaps in levels.get(seed_depth, [])]
                checked += len(lines) - 1
                os.unlink(ck)
    assert checked > 1000, checked


def test_image_verdicts_agree_with_the_scan(monkeypatch):
    # up to d = 4 the walk decides each orbit test off the image masks of
    # the node the tested set was made from, toggled at the point where the
    # two differ, and each expanded node carries its own.  Those masks must
    # be the images rebuilt from the gaps, the verdict must be
    # the scan's, and the representative and fixed-genus trees' children
    # must be the proposed ones the scan accepts.  Past d = 4 the walk
    # carries each node's touched-slot mask instead, which must be the one
    # rebuilt from its gaps on every node expanded and every node tested,
    # the fixed-genus middle nodes included
    from gnsenum.canonical import _minimality

    decided = {}
    carried = {}
    listed = {}
    real_test = trees._gapset_is_representative

    def touched(U, gaps):
        mask = 0
        for h in U.decode(gaps):
            for t, c in enumerate(h):
                if c:
                    mask |= 1 << t
        return mask

    def check_carried(U, gaps, entry, n=None):
        if U.dim > semigroup._IMAGE_DIM:
            assert n is None
            assert entry == touched(U, gaps), U.decode(gaps)
        else:
            if n is not None:
                entry = [im ^ 1 << m[n] for im, m in zip(entry, U.image_maps())]
            assert entry == semigroup._images_from_scratch(U, gaps), U.decode(gaps)
        carried[U.dim] = carried.get(U.dim, 0) + 1

    def test(U, gaps, entry, n=None):
        check_carried(U, gaps, entry, n)
        verdict = real_test(U, gaps, entry, n)
        assert verdict == (_minimality(U, gaps)[0] is None), U.decode(gaps)
        decided[U.dim] = decided.get(U.dim, 0) + 1
        return verdict

    def accepted(U, proposed):
        return [cg for cg in proposed if _minimality(U, cg)[0] is None]

    real_children = trees._representative_children

    def children(node, U, limit=None):
        check_carried(U, node[0], node[3])
        kids = real_children(node, U, limit)
        gaps, gens = node[0], node[1]
        proposed = [gaps | 1 << n for n in trees._sorted_u(gaps, gens)]
        assert [c[0] for c in kids] == accepted(U, proposed)
        return kids

    real_fixed = trees._fixed_genus_children

    def fixed(node, U, limit=None):
        check_carried(U, node[0], node[3])
        kids = real_fixed(node, U, limit)
        if U.dim <= semigroup._IMAGE_DIM:
            # the middle node T = S + {h} per special gap h, then T - {x}
            # per admissible generator x of T other than h
            gaps = node[0]
            proposed = []
            for h in semigroup._bits(node[4]):
                tg = gaps ^ 1 << h
                t_gens = semigroup._generators_from_scratch(U, tg)
                proposed += [tg | 1 << x for x in trees._sorted_u(tg, t_gens)
                             if x != h]
            assert [c[0] for c in kids] == accepted(U, proposed)
            listed[U.dim] = listed.get(U.dim, 0) + len(kids)
        return kids

    monkeypatch.setattr(trees, "_gapset_is_representative", test)
    monkeypatch.setattr(trees, "_representative_children", children)
    monkeypatch.setattr(trees, "_fixed_genus_children", fixed)
    for d in (2, 3, 4):
        for order in (LEX, GLEX, ORDER1):
            traverse(TreeKind("representative", order), d, 6)
            if order.o_good:
                for g in range(1, 7):
                    traverse(TreeKind("fixed-genus", order, genus_target=g), d)
    for order in (LEX, GLEX, ORDER1):
        traverse(TreeKind("representative", order), 5, 5)
        traverse(TreeKind("representative", order), 6, 4)
        if order.o_good:
            for g in range(1, 6):
                traverse(TreeKind("fixed-genus", order, genus_target=g), 5)
    assert all(decided.get(d, 0) > 50 for d in (2, 3, 4, 5, 6)), decided
    assert all(carried.get(d, 0) > 500 for d in (2, 3, 4, 5, 6)), carried
    assert all(listed.get(d, 0) > 50 for d in (2, 3, 4)), listed


@pytest.mark.parametrize("order", list(_ORDERS.values()), ids=lambda o: o.name)
def test_per_universe_tables(order):
    # the tables a d <= 4 walk reads per child: the orbit-least mask, which
    # stands in for an _orbit_minimal call per child, and the half table of
    # the fixed-genus step, the bit of h/2 when every coordinate of h is
    # even and 0 otherwise
    from gnsenum.canonical import _orbit_minimal

    for d in (1, 2, 3, 4):
        U = trees._walk_universe(order, d, 8)
        least = trees._orbit_least(U)
        half = U.halves()
        assert len(half) == len(U.points)
        for i, x in enumerate(U.points):
            assert bool(least >> i & 1) == _orbit_minimal(x, order), x
            if all(c % 2 == 0 for c in x):
                assert half[i] == 1 << U.index[tuple(c // 2 for c in x)], x
            else:
                assert half[i] == 0, x


@pytest.mark.parametrize("d, orders", [
    (5, (LEX, GLEX, ORDER1)),
    pytest.param(6, (LEX,), marks=pytest.mark.slow)], ids=["d5", "d6"])
def test_walks_past_d4_list_the_orbit_minima(d, orders):
    # the brute-force oracle stops at d = 3; past d = 4, where the walks
    # carry touched-slot masks, the oracle is the set of orbit minima of
    # the full tree's nodes to genus 4.  The representative tree must list
    # that set, each member once, and each fixed-genus tree of genus g its
    # members of genus g
    from gnsenum.bruteforce import orbit_minimum

    full = []
    traverse(TreeKind("full", LEX), d, 4, visitor=lambda S, depth: full.append(S))
    for order in orders:
        want = {orbit_minimum(S, order) for S in full}
        got = []
        traverse(TreeKind("representative", order), d, 4,
                 visitor=lambda S, depth: got.append(S))
        assert len(got) == len(want) and set(got) == want, order.name
        if order.o_good:
            for g in range(1, 5):
                got = []
                traverse(TreeKind("fixed-genus", order, genus_target=g), d,
                         visitor=lambda S, depth: got.append(S))
                assert len(got) == len(set(got)), (order.name, g)
                assert set(got) == {S for S in want if S.genus == g}, (order.name, g)


def test_orbit_sums_from_the_carried_images(monkeypatch):
    # the images a representative node carries give its stabilizer:
    # |Stab(S)| = 1 + #{sigma : sigma(G) = G}, which must be d!/orbit size,
    # and the orbits of the genus g representatives together must hold
    # the n(d, g) semigroups of the full tree.  A walk to genus 7 expands,
    # and so passes to its child function, every node of genus <= 6
    from math import factorial

    from gnsenum.canonical import orbit_size

    stabs = []
    real = trees._representative_children

    def children(node, U, limit=None):
        gaps, images = node[0], node[3]
        stabs.append((U, gaps, 1 + sum(im == gaps for im in images)))
        return real(node, U, limit)

    monkeypatch.setattr(trees, "_representative_children", children)
    for d in (2, 3, 4):
        full = traverse(TreeKind("full", LEX), d, 6).rows
        for order in (LEX, GLEX, ORDER1):
            stabs.clear()
            traverse(TreeKind("representative", order), d, 7)
            sums = [0] * 7
            for U, gaps, stab in stabs:
                if gaps.bit_count() > 6:
                    continue
                S = GapSemigroup(d, U.decode(gaps), _trusted=True)
                assert stab == factorial(d) // orbit_size(S), (order.name, S)
                sums[gaps.bit_count()] += factorial(d) // stab
            assert sums == [full[g] for g in range(7)], (d, order.name)
