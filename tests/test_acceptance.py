"""Acceptance gate: the recorded count tables, cross-checks and properties
that the package must reproduce exactly.  Each test prints one PASS/FAIL
line (visible under pytest -s or on failure).
"""

import itertools
import time

from gnsenum.core import (
    GLEX,
    LEX,
    ORDER1,
    basis_point,
    compare,
    min_basis_point,
    orbit_point,
)
from gnsenum.semigroup import (
    GapSemigroup,
    frobenius_element,
    minimal_generators,
    multiplicity,
    remove_generator,
    u_set,
)
from gnsenum.canonical import (
    is_representative,
    orbit_size,
    permute_gns,
    representative,
    safe_child_generator,
)
from gnsenum.trees import TreeKind, children_equivariant, ordinary_gns, traverse
from gnsenum.counting import count, verify_stabilization, verify_sum_identity
from gnsenum.bruteforce import brute_force_all, brute_force_representatives

ORDERS = (LEX, GLEX, ORDER1)


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def level_sets(kind, d, g_max):
    out = {g: set() for g in range(g_max + 1)}

    def see(S, depth):
        out[S.genus].add(S.gaps)

    traverse(kind, d, g_max, visitor=see)
    return out


def test_criterion_1_dim2_tables():
    t0 = time.perf_counter()
    full = count(TreeKind("full", LEX), 2, g_max=12)
    rep = count(TreeKind("representative", LEX), 2, g_max=10)
    elapsed = time.perf_counter() - t0
    want_full = [2, 7, 23, 71, 210, 638, 1894, 5570, 16220, 46898, 134856,
                 386354]
    want_rep = [1, 4, 12, 37, 107, 323, 953, 2798, 8128, 23486]
    ok = ([full.rows[g] for g in range(1, 13)] == want_full
          and [rep.rows[g] for g in range(1, 11)] == want_rep
          and elapsed < 60.0)
    report(1, ok, f"d=2 tables to g=12/g=10 exact in {elapsed:.1f}s")


def test_criterion_2_dim3_tables():
    t0 = time.perf_counter()
    full = count(TreeKind("full", LEX), 3, g_max=7)
    rep = count(TreeKind("representative", LEX), 3, g_max=8)
    elapsed = time.perf_counter() - t0
    ok = ([full.rows[g] for g in range(1, 8)]
          == [3, 15, 67, 292, 1215, 5075, 20936]
          and [rep.rows[g] for g in range(1, 9)]
          == [1, 4, 15, 59, 224, 903, 3611, 14603]
          and elapsed < 600.0)
    report(2, ok, f"d=3 tables to g=7/g=8 exact in {elapsed:.1f}s")


def test_criterion_3_higher_dimension_cells():
    got = {}
    for d, g in ((4, 5), (4, 6), (5, 5), (5, 6), (6, 6)):
        got[(g, d)] = count(TreeKind("representative", LEX), d,
                            g_max=g).rows[g]
    want = {(5, 4): 270, (6, 4): 1254, (5, 5): 277, (6, 5): 1344,
            (6, 6): 1355}
    report(3, got == want, f"spot cells {sorted(got.items())}")


def test_criterion_4_identity_and_stabilization():
    bad = []
    for g in range(1, 7):
        for d in range(1, 5):
            r = verify_sum_identity(g, d)
            if not r["ok"]:
                bad.append(("identity", g, d))
    for g in range(1, 6):
        r = verify_stabilization(g, 6)
        if not r["ok"]:
            bad.append(("stabilization", g))
    r = verify_stabilization(5, 6)
    if not (r["values"][5] == r["values"][6] == 277):
        bad.append(("stabilization-277",))
    report(4, not bad, f"identities g<=6 d<=4 and stabilization g<=5: "
                       f"{'all hold' if not bad else bad}")


def test_criterion_5_oracle_equivalence():
    bad = []
    scales = [(g, d) for d in (1, 2) for g in range(6)] + \
             [(g, 3) for g in range(5)]
    for d in (1, 2, 3):
        gmax = 5 if d < 3 else 4
        levels = level_sets(TreeKind("full", LEX), d, gmax)
        for g in range(gmax + 1):
            oracle = {S.gaps for S in brute_force_all(g, d)}
            if oracle != levels[g]:
                bad.append(("full", d, g))
    for order, tag in ((LEX, "lex"), (ORDER1, "order1")):
        for d in (1, 2, 3):
            gmax = 5 if d < 3 else 4
            levels = level_sets(TreeKind("representative", order), d, gmax)
            for g in range(gmax + 1):
                reps = {S.gaps for S in brute_force_representatives(
                    g, d, order)}
                if reps != levels[g]:
                    bad.append(("rep", tag, d, g))
                fixed = set()
                traverse(TreeKind("fixed-genus", order, genus_target=g), d,
                         visitor=lambda S, depth: fixed.add(S.gaps))
                if reps != fixed:
                    bad.append(("fixed", tag, d, g))
    report(5, not bad,
           f"oracle vs trees over {len(scales)} cells x orders: "
           f"{'exact set equality' if not bad else bad}")


def test_criterion_6_order_independence():
    rows = {}
    for order in ORDERS:
        t = count(TreeKind("representative", order), 2, g_max=8)
        rows[order.name] = [t.rows[g] for g in range(9)]
    ok = rows["lex"] == rows["glex"] == rows["order1"]
    report(6, ok, f"N_g2 to g=8 agrees across lex/glex/order1: {rows['lex']}")


def test_criterion_7_glex_not_o_good():
    T = GapSemigroup(2, frozenset(
        {(0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (3, 0),
         (4, 0)}))
    m = multiplicity(T, GLEX)
    child = remove_generator(T, m)
    v = is_representative(child, GLEX)
    ok = (m == (2, 1) and is_representative(T, GLEX).is_representative
          and not v.is_representative)
    report(7, ok, f"glex multiplicity {m} removal leaves a non-representative")


def test_criterion_8_worked_replays():
    bad = []

    S3 = GapSemigroup(2, frozenset({(0, 1), (1, 0)}))
    from gnsenum.trees import children_representative

    got = {S.gaps for S in children_representative(S3, LEX)}
    if got != {frozenset({(0, 1), (1, 0), (1, 1)}),
               frozenset({(0, 1), (1, 0), (1, 2)})}:
        bad.append("S3 children")

    twelve = {
        frozenset({(0, 1), (0, 2), (0, 3)}),
        frozenset({(0, 1), (0, 3), (0, 5)}),
        frozenset({(0, 1), (0, 3), (1, 0)}),
        frozenset({(0, 1), (0, 3), (1, 1)}),
        frozenset({(0, 1), (0, 2), (0, 4)}),
        frozenset({(0, 1), (0, 2), (0, 5)}),
        frozenset({(0, 1), (0, 2), (1, 0)}),
        frozenset({(0, 1), (0, 2), (1, 1)}),
        frozenset({(0, 1), (0, 2), (1, 2)}),
        frozenset({(0, 1), (1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 0), (1, 2)}),
        frozenset({(0, 1), (1, 1), (2, 1)}),
    }
    fixed = set()
    traverse(TreeKind("fixed-genus", LEX, genus_target=3), 2,
             visitor=lambda S, depth: fixed.add(S.gaps))
    if fixed != twelve:
        bad.append("fixed-genus g=3 vertex set")
    if {S.gaps for S in brute_force_representatives(3, 2, LEX)} != twelve:
        bad.append("oracle disagrees with the 12 vertices")

    R = GapSemigroup(2, frozenset({(0, 1), (1, 0)}))
    chain = {S.gaps for S in children_equivariant(R, LEX)}
    if chain != {frozenset({(0, 1), (1, 0), (1, 1)}),
                 frozenset({(0, 1), (1, 0), (1, 2), (2, 1)}),
                 frozenset({(0, 1), (1, 0), (0, 2), (2, 0)}),
                 frozenset({(0, 1), (1, 0), (0, 3), (3, 0)})}:
        bad.append("equivariant children of R")
    root_kids = children_equivariant(GapSemigroup(2, frozenset()), LEX)
    if [S.gaps for S in root_kids] != [frozenset({(0, 1), (1, 0)})]:
        bad.append("equivariant root child")
    R2 = GapSemigroup(2, frozenset({(0, 1), (1, 0), (0, 3), (3, 0)}))
    r2_kids = [S.gaps for S in children_equivariant(R2, LEX)]
    if r2_kids != [frozenset({(0, 1), (1, 0), (0, 3), (3, 0), (0, 5),
                              (5, 0)})]:
        bad.append("unique child of R2")

    report(8, not bad, f"worked replays: {'all exact' if not bad else bad}")


def _box_points(d, top):
    return [p for p in itertools.product(range(top + 1), repeat=d)]


def test_criterion_9_property_suites(tmp_path):
    bad = []

    # relaxed-order axioms on a desk-size box, plus the order1 witness
    for order in ORDERS:
        pts = _box_points(2, 3)
        for a in pts:
            if any(a) and compare(order, (0, 0), a) != -1:
                bad.append(("zero-minimal", order.name, a))
        for a, b in itertools.combinations(pts, 2):
            c = compare(order, a, b)
            if c != -compare(order, b, a) or (c == 0) != (a == b):
                bad.append(("antisymmetry", order.name, a, b))
            if c == -1:
                for u in ((1, 0), (0, 2), (1, 1)):
                    bu = (b[0] + u[0], b[1] + u[1])
                    if compare(order, a, bu) != -1:
                        bad.append(("translate-up", order.name, a, b, u))
    if not (compare(ORDER1, (0, 0, 3), (0, 1, 1)) == -1
            and compare(ORDER1, (1, 0, 3), (1, 1, 1)) == 1):
        bad.append("order1 non-monomial witness")

    # every emitted node, in every tree kind, is a closed gap set
    for kind in (TreeKind("full", GLEX), TreeKind("representative", ORDER1),
                 TreeKind("equivariant", LEX),
                 TreeKind("fixed-genus", LEX, genus_target=4)):
        limit = 4 if kind.variant != "equivariant" else 6

        def check(S, depth, _kind=kind):
            try:
                GapSemigroup(2, S.gaps)  # the constructor checks closure
            except Exception as exc:
                bad.append(("closure", _kind.variant, S.gaps, exc))

        traverse(kind, 2, None if kind.variant == "fixed-genus" else limit,
                 visitor=check)

    # representative idempotence, orbit constancy, orbit-size bookkeeping
    for g, d in ((4, 2), (3, 3)):
        all_sets = brute_force_all(g, d)
        reps = {}
        for S in all_sets:
            R = representative(S, LEX)
            if representative(R, LEX) != R:
                bad.append(("idempotence", S.gaps))
            if not is_representative(R, LEX).is_representative:
                bad.append(("rep-verdict", R.gaps))
            reps[R] = reps.get(R, 0) + 1
        for R, n in reps.items():
            if orbit_size(R) != n:
                bad.append(("orbit-size", R.gaps, n))
        if sum(reps.values()) != len(all_sets):
            bad.append(("orbit-partition", g, d))

    # the pruning lemmas, exhaustively over representatives with d<=3, g<=5
    for order in ORDERS:
        for d in (1, 2, 3):
            nodes = []
            traverse(TreeKind("representative", order), d, 5,
                     visitor=lambda S, depth: nodes.append(S))
            for S in nodes:
                if S.genus:
                    if min(S.gaps, key=order.key) != min_basis_point(d, order):
                        bad.append(("minimum-lemma", order.name, S.gaps))
                units = sorted(i for i in range(1, d + 1)
                               if basis_point(d, i) in S.gaps)
                if len(units) == 2 and units != [1, 2]:
                    bad.append(("basis-2", order.name, S.gaps))
                if order is GLEX and units != list(range(1, len(units) + 1)):
                    bad.append(("graded-prefix", S.gaps))
                for n in u_set(S, order):
                    if safe_child_generator(S, n, order):
                        child = remove_generator(S, n)
                        if not is_representative(child,
                                                 order).is_representative:
                            bad.append(("remove-gen1", order.name, S.gaps, n))

    # parallel determinism at 1, 2 and 8 workers
    base = []
    traverse(TreeKind("representative", LEX), 2, 6,
             visitor=lambda S, depth: base.append(S.gaps))
    for workers in (1, 2, 8):
        got = []
        traverse(TreeKind("representative", LEX), 2, 6,
                 visitor=lambda S, depth: got.append(S.gaps),
                 workers=workers)
        if got != base:
            bad.append(("parallel", workers))

    # a checkpoint read back and walked one level on is rewritten byte for
    # byte as a fresh walk to that level writes it
    ck, fresh = str(tmp_path / "gate.ck"), str(tmp_path / "fresh.ck")
    kind = TreeKind("representative", LEX)
    traverse(kind, 2, 4, checkpoint=ck)
    traverse(kind, 2, 5, checkpoint=ck)
    traverse(kind, 2, 5, checkpoint=fresh)
    if open(ck, "rb").read() != open(fresh, "rb").read():
        bad.append("checkpoint-bytes")

    report(9, not bad, f"property suites: {'all hold' if not bad else bad[:4]}")
