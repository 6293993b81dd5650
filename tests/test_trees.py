"""Tree constructions, the traversal engine, checkpoints."""

import itertools
import os

import pytest

import gnsenum
from gnsenum import trees
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


def test_traverse_parallel_fixed_genus():
    kind = TreeKind("fixed-genus", LEX, genus_target=6)
    seq = traverse(kind, 2)
    par = traverse(kind, 2, workers=3)
    assert seq.rows == par.rows == {6: 323}


def test_checkpoint_round_trip(tmp_path):
    ck = str(tmp_path / "walk.ck")
    kind = TreeKind("representative", LEX)
    traverse(kind, 2, 3, checkpoint=ck)
    first = open(ck, encoding="ascii").read()
    assert first.startswith("gns-tree-checkpoint 1 ")
    assert "kind=representative" in first.splitlines()[0]
    # resuming to the same depth rewrites the identical bytes
    traverse(kind, 2, 3, checkpoint=ck)
    assert open(ck, encoding="ascii").read() == first


def test_checkpoint_resume_counts(tmp_path):
    ck = str(tmp_path / "walk.ck")
    kind = TreeKind("representative", LEX)
    traverse(kind, 2, 4, checkpoint=ck)
    resumed = traverse(kind, 2, 7, checkpoint=ck)
    clean = traverse(kind, 2, 7)
    assert resumed.rows == clean.rows
    assert resumed.meta["resumed"]


def test_checkpoint_corruption(tmp_path):
    ck = str(tmp_path / "walk.ck")
    kind = TreeKind("representative", LEX)
    traverse(kind, 2, 3, checkpoint=ck)
    good = open(ck, encoding="ascii").read()

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

    # tamper with one node line
    lines = good.splitlines(keepends=True)
    lines[1] = lines[1].replace("(", "( ", 1)
    rewrite("".join(lines))
    with pytest.raises(CheckpointCorrupt):
        traverse(kind, 2, 5, checkpoint=ck)

    # duplicate a node line; header count then lies as well
    lines = good.splitlines(keepends=True)
    rewrite("".join([lines[0], lines[1], lines[1]] + lines[2:]))
    with pytest.raises(CheckpointCorrupt):
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
    assert open(ck, encoding="ascii").read() == good


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
