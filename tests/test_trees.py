"""Tree constructions, the traversal engine, checkpoints."""

import itertools
import os
from pathlib import Path

import pytest

import gnsenum
from gnsenum import checkpoint, semigroup, trees
from gnsenum.core import GLEX, LEX, ORDER1, order1
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
    real = trees._fixed_genus_children

    def doubled(S, order, limit=None):
        kids = real(S, order, limit)
        return kids + kids[:1]

    monkeypatch.setattr(trees, "_fixed_genus_children", doubled)
    with pytest.raises(RuntimeError, match="twice"):
        traverse(TreeKind("fixed-genus", LEX, genus_target=3), 2)


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
    with pytest.raises(CheckpointCorrupt, match="not canonical"):
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


def test_checkpoint_node_must_be_a_semigroup(tmp_path):
    # resumed nodes are checked like any gap set from outside the program:
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
    with pytest.raises(CheckpointCorrupt, match=r"not closed: \(0, 1\) \+ \(0, 1\)"):
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


def test_mask_nodes_agree_with_tuple_path(monkeypatch):
    # every node the engine carries, a (gap mask, generator mask) pair over
    # the walk's ranked universe, decodes to a gap set whose generators the
    # tuple sieve finds and whose admissible moves are the generators past
    # its largest gap under the order; d <= 3, g <= 6, all four trees
    # (fixed-genus under the o-good orders lex and order1 only)
    from test_semigroup import _generators_reference

    oracle = {}
    checked = 0

    def agree(U, gaps, gens, key):
        nonlocal checked
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
        checked += 1

    for name in ("_full_children", "_representative_children",
                 "_equivariant_children", "_fixed_genus_children"):
        def watched(node, U, limit=None, real=getattr(trees, name)):
            kids = real(node, U, limit)
            agree(U, *node, U.order.key)
            for kid in kids:
                agree(U, *kid, U.order.key)
            return kids

        monkeypatch.setattr(trees, name, watched)
    for d in (1, 2, 3):
        for order in (LEX, GLEX, ORDER1):
            for variant in ("full", "representative", "equivariant"):
                traverse(TreeKind(variant, order), d, 6)
            if order.o_good:
                for g in range(7):
                    traverse(TreeKind("fixed-genus", order, genus_target=g), d)
    assert checked > 20000


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
