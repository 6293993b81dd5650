"""Rooted-tree constructions that enumerate gap semigroups without repeats.

Four variants share one breadth-first engine: the full tree (every
semigroup once), the representative tree (one semigroup per permutation
orbit), the equivariant tree (semigroups fixed by the whole group), and
the fixed-genus tree (all representatives of a single genus, grown from
the ordinary semigroup).  What differs between them sits in one table,
_VARIANTS.  The engine can fan levels out over processes and can
checkpoint each level boundary to a resumable text file.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from .core import OrderSpec, check_dim, get_order, orbit_point
from .canonical import _gapset_is_representative, _orbit_minimal, is_equivariant, is_representative
from .semigroup import (GapSemigroup, NotMinimalGenerator, _extension_generators,
                        _removal_generators, _sorted_u, _universe, special_gaps)


class NotRepresentative(ValueError):
    pass


class NotEquivariant(ValueError):
    pass


class NotOGoodOrder(ValueError):
    pass


class CheckpointCorrupt(RuntimeError):
    pass


@dataclass(frozen=True)
class TreeKind:
    """Tree variant plus its driving order; fixed-genus also carries the
    target genus."""

    variant: str
    order: OrderSpec
    genus_target: Optional[int] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown tree variant {self.variant!r}")
        if self.variant == "fixed-genus":
            if not self.order.o_good:
                raise NotOGoodOrder(
                    f"{self.order.name} cannot drive the fixed-genus tree: "
                    "its expansion step can shoot past representatives")
            if self.genus_target is None or self.genus_target < 0:
                raise ValueError("fixed-genus tree needs genus_target >= 0")
        elif self.genus_target is not None:
            raise ValueError(
                f"genus_target only applies to the fixed-genus tree, "
                f"not {self.variant!r}")


def _full_children(S, order, limit=None):
    out = []
    gaps = S.gaps
    gens = S.generators
    dim = S.dim
    # children on the last level walked are never expanded, so they skip
    # the generator update
    leaf = S.genus + 1 == limit
    for n in _sorted_u(S, order):
        cg = gaps | {n}
        new_gens = None if leaf else _removal_generators(gens, n, cg)
        out.append(GapSemigroup(dim, cg, generators=new_gens, _trusted=True))
    return out


def _representative_children(S, order, limit=None):
    out = []
    gaps = S.gaps
    gens = S.generators
    dim = S.dim
    leaf = S.genus + 1 == limit
    for n in _sorted_u(S, order):
        cg = gaps | {n}
        # orbit-least generators are safe without scanning the child
        if _orbit_minimal(n, order) or _gapset_is_representative(cg, dim, order):
            new_gens = None if leaf else _removal_generators(gens, n, cg)
            out.append(GapSemigroup(dim, cg, generators=new_gens, _trusted=True))
    return out


def _equivariant_children(S, order, limit=None):
    out = []
    dim = S.dim
    key = order.key
    # one move per orbit class inside the admissible generators, acted on
    # through the class minimum; the whole orbit gets removed at once
    classes = {}
    for n in _sorted_u(S, order):
        sig = tuple(sorted(n))
        if sig not in classes:
            classes[sig] = n
    for n in sorted(classes.values(), key=key):
        orb = sorted(orbit_point(n))
        if limit is not None and S.genus + len(orb) > limit:
            continue
        cg = set(S.gaps)
        cur = S.generators
        for y in orb:
            if y not in cur:
                raise NotMinimalGenerator(
                    f"orbit point {y} is not a minimal generator of {S!r}")
            cg.add(y)
            cur = _removal_generators(cur, y, frozenset(cg))
        out.append(GapSemigroup(dim, frozenset(cg), generators=cur, _trusted=True))
    return out


def _fixed_genus_children(S, order, limit=None):
    # The construction is a tree: no child has two parents.  A child's gap
    # set is gaps(S) - {h} + {x}.  x lies beyond every gap of the middle
    # node T, whose gaps are gaps(S) - {h}, so x is the child's Frobenius
    # gap.  And h is the multiplicity of T: h precedes the multiplicity of
    # S, and every other nonzero element of T lies in S.  So adding back
    # the child's Frobenius gap and then removing the multiplicity gives S.
    # limit is unused: every node has the root's genus.
    out = []
    dim = S.dim
    key = order.key
    gens = S.generators
    m_key = key(min(gens, key=key))
    for h in sorted(special_gaps(S), key=key):
        if not key(h) < m_key:
            continue
        tg = S.gaps - {h}
        t_gens = _extension_generators(gens, h, tg)
        T = GapSemigroup(dim, tg, generators=t_gens, _trusted=True)
        # the safe fast path needs the intermediate node to be minimal
        t_rep = _gapset_is_representative(tg, dim, order)
        for x in _sorted_u(T, order):
            if x == h:
                continue
            cg = tg | {x}
            if (t_rep and _orbit_minimal(x, order)) \
                    or _gapset_is_representative(cg, dim, order):
                out.append(GapSemigroup(
                    dim, cg, generators=_removal_generators(t_gens, x, cg),
                    _trusted=True))
    return out


def children_full(S: GapSemigroup, order: OrderSpec) -> list:
    """Children in the everything-tree: drop one admissible generator."""
    return _full_children(S, order)


def children_representative(S: GapSemigroup, order: OrderSpec) -> list:
    """Children in the one-per-orbit tree; S itself must be a representative."""
    if not is_representative(S, order).is_representative:
        raise NotRepresentative(f"{S!r} is not its orbit's representative")
    return _representative_children(S, order)


def children_equivariant(S: GapSemigroup, order: OrderSpec) -> list:
    """Children in the symmetric tree: drop a whole generator orbit."""
    if not is_equivariant(S):
        raise NotEquivariant(f"{S!r} is not permutation invariant")
    return _equivariant_children(S, order)


def ordinary_gns(g: int, d: int, order: OrderSpec) -> GapSemigroup:
    """The semigroup whose gaps are the g least nonzero points.

    Candidates stay inside the genus-g point universe: under every order
    here a point comes after the prod(x_i + 1) - 2 nonzero points strictly
    below it, coordinatewise, so the k-th least point has
    prod(x_i + 1) <= k + 1 <= 2g.
    """
    check_dim(d)
    if g < 0:
        raise ValueError("genus must be nonnegative")
    pts = sorted(_universe(d, g).points, key=order.key)
    return GapSemigroup(d, frozenset(pts[:g]))


def children_fixed_genus(S: GapSemigroup, order: OrderSpec) -> list:
    """Genus-preserving children: trade a special gap below the multiplicity
    for an admissible generator, keeping only representatives."""
    if not order.o_good:
        raise NotOGoodOrder(f"{order.name} cannot drive the fixed-genus tree")
    if not is_representative(S, order).is_representative:
        raise NotRepresentative(f"{S!r} is not its orbit's representative")
    return _fixed_genus_children(S, order)


# ---------------------------------------------------------------------------
# breadth-first engine

@dataclass(frozen=True)
class _Variant:
    """What one tree variant does differently from the others.

    children names the child function in this module; it is looked up when
    a level is expanded, so a wrapper set on the module attribute takes
    effect.  level_genus(kind, depth) is the genus every node on a level has,
    checked on a resumed checkpoint (None when a level mixes genera); mode
    tags the resulting CountTable.
    """

    children: str
    level_genus: Optional[Callable]
    mode: str


_VARIANTS = {
    "full": _Variant("_full_children", lambda kind, depth: depth, "full"),
    "representative": _Variant("_representative_children",
                               lambda kind, depth: depth, "representative"),
    "equivariant": _Variant("_equivariant_children", None, "equivariant"),
    "fixed-genus": _Variant("_fixed_genus_children",
                            lambda kind, depth: kind.genus_target,
                            "representative"),
}


def _expand_chunk(payload):
    variant, order_name, nodes, limit = payload
    children = globals()[_VARIANTS[variant].children]
    order = get_order(order_name)
    out = []
    for S in nodes:
        out.extend(children(S, order, limit))
    return out


def _expand_level(kind, nodes, limit, pool, workers):
    payload_head = (kind.variant, kind.order.name)
    if pool is not None and len(nodes) > 1:
        w = min(workers, len(nodes))
        size = -(-len(nodes) // w)
        chunks = [nodes[i:i + size] for i in range(0, len(nodes), size)]
        parts = pool.map(_expand_chunk,
                         [payload_head + (c, limit) for c in chunks])
        out = []
        for p in parts:
            out.extend(p)
        return out
    return _expand_chunk(payload_head + (nodes, limit))


# checkpoint file: one header line, then one node per line as the gap list
# sorted under the active order, e.g. [(0,1),(1,0)]; gmax in the header is
# the largest genus walked (the target genus of the fixed-genus tree)
_CKPT_MAGIC = "gns-tree-checkpoint"
_CKPT_VERSION = 2


def _format_gapset(gaps, key):
    return str(sorted(gaps, key=key)).replace(" ", "").replace(",)", ")")


def _checkpoint_head(kind, d, gmax, depth, counts, n_nodes):
    pairs = ",".join(f"{g}:{c}" for g, c in sorted(counts.items()))
    return (f"{_CKPT_MAGIC} {_CKPT_VERSION} kind={kind.variant} d={d} "
            f"order={kind.order.name} gmax={gmax} level={depth} "
            f"nodes={n_nodes} counts={pairs}")


def _write_checkpoint(path, kind, d, gmax, depth, counts, nodes):
    key = kind.order.key
    text = "\n".join([_checkpoint_head(kind, d, gmax, depth, counts, len(nodes))]
                     + [_format_gapset(S.gaps, key) for S in nodes]) + "\n"
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".ckpt-")
    except OSError as exc:
        # name the checkpoint, not the temporary file beside it
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_node(line, d, key):
    """The node a checkpoint line names, checked like any gap set from
    outside the program; the line must be the one the writer makes."""
    body = line[2:-2]
    try:
        S = GapSemigroup(d, [tuple(map(int, t.split(",")))
                             for t in body.split("),(")] if body else ())
    except ValueError as exc:
        raise CheckpointCorrupt(f"bad node line {line!r}: {exc}") from None
    if _format_gapset(S.gaps, key) != line:
        raise CheckpointCorrupt(f"node line not canonical: {line!r}")
    return S


def _read_checkpoint(path, kind, d, gmax):
    """(level, counts, nodes) from a checkpoint written for this tree,
    order and dimension, and for a gmax it can be resumed to, or
    CheckpointCorrupt."""
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint: {exc}") from None
    head = lines[0].split() if lines else []
    if len(head) < 2 or head[0] != _CKPT_MAGIC:
        raise CheckpointCorrupt("missing checkpoint header")
    if head[1] != str(_CKPT_VERSION):
        raise CheckpointCorrupt(f"unsupported checkpoint version {head[1]!r}")
    fields = dict(tok.partition("=")[::2] for tok in head[2:])
    if fields.get("kind") != kind.variant:
        raise CheckpointCorrupt(
            f"checkpoint is for a {fields.get('kind')} tree, not {kind.variant}")
    if fields.get("order") != kind.order.name:
        raise CheckpointCorrupt(
            f"checkpoint order {fields.get('order')} does not match {kind.order.name}")
    if fields.get("d") != str(d):
        raise CheckpointCorrupt(
            f"checkpoint dimension {fields.get('d')} does not match {d}")
    bad_head = CheckpointCorrupt(f"bad checkpoint header {lines[0]!r}")
    try:
        ck_gmax = int(fields["gmax"])
        depth = int(fields["level"])
        counts = {int(g): int(c) for g, c in
                  (pair.split(":") for pair in fields["counts"].split(",") if pair)}
    except (KeyError, ValueError):
        raise bad_head from None
    # the header must be the one the writer makes for this file, so its
    # node count holds and every field is spelled canonically
    if depth < 0 or lines[0] != _checkpoint_head(kind, d, ck_gmax, depth,
                                                 counts, len(lines) - 1):
        raise bad_head
    key = kind.order.key
    level_genus = _VARIANTS[kind.variant].level_genus
    genus = None if level_genus is None else level_genus(kind, depth)
    if genus is None and gmax > ck_gmax:
        raise CheckpointCorrupt(
            f"checkpoint walked to genus {ck_gmax} and cannot be resumed to "
            f"{gmax}: the {kind.variant} tree drops children past its gmax")
    nodes = []
    seen = set()
    for line in lines[1:]:
        S = _read_node(line, d, key)
        if S.gaps in seen:
            raise CheckpointCorrupt(f"duplicate node {line!r}")
        seen.add(S.gaps)
        if genus is not None and S.genus != genus:
            raise CheckpointCorrupt(
                f"node of genus {S.genus} on level {depth}, "
                f"which holds genus {genus}")
        nodes.append(S)
    return depth, counts, nodes


def traverse(kind: TreeKind, d: int, limit: Optional[int] = None,
             visitor: Optional[Callable] = None, workers: int = 1,
             checkpoint: Optional[str] = None):
    """Walk the tree breadth first and tabulate counts per genus.

    limit is the largest genus walked, and the table has a row for each
    genus 0..limit.  The fixed-genus tree takes no limit: it runs until its
    frontier empties and reports its single target genus.  The visitor,
    when given, receives (node, depth) for every node exactly once; a level
    holding the same gap set twice raises RuntimeError.  workers > 1 fans
    each level out over that many processes; counts and node order match
    the sequential walk (workers=1) exactly.  A checkpoint path is
    rewritten at every level boundary and picked up again on the next call;
    the frontier found there is not re-visited.

    Returns a CountTable; never prints.
    """
    check_dim(d)
    if kind.genus_target is not None:
        if limit is not None:
            raise ValueError("the fixed-genus tree takes no limit: its "
                             "genus is genus_target")
        genera = (kind.genus_target,)
    elif limit is None:
        raise ValueError("limit is required for this tree variant")
    elif limit < 0:
        raise ValueError("limit must be nonnegative")
    else:
        genera = range(limit + 1)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    gmax = genera[-1]

    from .counting import CountTable  # deferred, counting imports this module

    t0 = time.monotonic()
    meta = {"tree": kind.variant,
            "mode": "parallel" if workers > 1 else "sequential"}
    resumed = False
    if checkpoint is not None and os.path.exists(checkpoint) \
            and os.path.getsize(checkpoint) > 0:
        depth, counts, nodes = _read_checkpoint(checkpoint, kind, d, gmax)
        resumed = True
        levels = []
    else:
        root = ordinary_gns(kind.genus_target or 0, d, kind.order)
        depth = 0
        nodes = [root]
        counts = {root.genus: 1}
        levels = [1]
        if visitor is not None:
            visitor(root, 0)
        if checkpoint is not None:
            _write_checkpoint(checkpoint, kind, d, gmax, depth, counts, nodes)

    pool = None
    if workers > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, NotImplementedError):
            meta["parallel_fallback"] = True
            pool = None

    try:
        while nodes:
            if limit is not None and depth >= limit:
                break
            nodes = _expand_level(kind, nodes, limit, pool, workers)
            depth += 1
            if not nodes:
                break
            if len({c.gaps for c in nodes}) != len(nodes):
                raise RuntimeError(
                    f"level {depth} of the {kind.variant} tree holds a node "
                    "twice: the construction is not a tree")
            levels.append(len(nodes))
            for c in nodes:
                counts[c.genus] = counts.get(c.genus, 0) + 1
            if visitor is not None:
                for c in nodes:
                    visitor(c, depth)
            if checkpoint is not None:
                _write_checkpoint(checkpoint, kind, d, gmax, depth, counts, nodes)
    finally:
        if pool is not None:
            pool.shutdown()

    meta["levels"] = levels
    meta["wall_time"] = time.monotonic() - t0
    meta["resumed"] = resumed
    return CountTable(d=d, order=kind.order.name, mode=_VARIANTS[kind.variant].mode,
                      rows={g: counts.get(g, 0) for g in genera}, meta=meta)
