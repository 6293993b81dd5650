"""Count tables, verification identities, and recorded reference counts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import LEX, OrderSpec
from .semigroup import gap_span_dimension
from .trees import TreeKind, traverse


class ResourceLimit(RuntimeError):
    """A request outside the configured computational budget."""


@dataclass
class CountTable:
    """Counts per genus for one dimension, order and counting mode.

    mode is one of full, representative or equivariant; meta carries run
    details such as wall time and the tree variant used.
    """

    d: int
    order: str
    mode: str
    rows: dict
    meta: dict = field(default_factory=dict)


def count(kind: TreeKind, d: int, g_max: Optional[int] = None,
          workers: int = 1, checkpoint: Optional[str] = None) -> CountTable:
    """Counts per genus 0..g_max; the fixed-genus tree takes no g_max and
    reports its single target genus.  See traverse.  Never prints."""
    return traverse(kind, d, g_max, workers=workers, checkpoint=checkpoint)


def count_by_span(d: int, g: int, order: OrderSpec = LEX,
                  workers: int = 1) -> tuple:
    """Genus-g representative counts split by number of touched axes.

    Returns a tuple of length min(g, d); entry r - 1 counts representatives
    whose gaps touch exactly r axes.
    """
    q = min(g, d)
    acc = [0] * (q + 1)

    def see(S, depth):
        if depth == g:
            acc[gap_span_dimension(S)] += 1

    traverse(TreeKind("representative", order), d, g, visitor=see,
             workers=workers)
    return tuple(acc[1:])


def verify_sum_identity(g: int, d: int, order: OrderSpec = LEX,
                        workers: int = 1) -> dict:
    """Check that the dimension-d representative count at genus g equals the
    sum over n of the span-n counts computed in dimension n.  Every walk
    runs under the given order and workers.  Capped at genus 8 and
    dimension 6 (ResourceLimit)."""
    if g < 1 or d < 1:
        raise ValueError("need g >= 1 and d >= 1")
    if g > 8 or d > 6:
        raise ResourceLimit("identity check capped at genus 8, dimension 6")
    lhs = count(TreeKind("representative", order), d, g,
                workers=workers).rows[g]
    terms = []
    for n in range(1, min(g, d) + 1):
        terms.append(count_by_span(n, g, order, workers=workers)[n - 1])
    rhs = sum(terms)
    return {"g": g, "d": d, "lhs": lhs, "terms": terms, "rhs": rhs,
            "ok": lhs == rhs}


def verify_stabilization(g: int, d_max: int, order: OrderSpec = LEX,
                         workers: int = 1) -> dict:
    """Check that representative counts stop depending on the dimension
    once it reaches the genus.  Every walk runs under the given order and
    workers.  Capped at genus 6 and dimension 8 (ResourceLimit)."""
    if g < 1 or d_max < g:
        raise ValueError("need 1 <= g <= d_max")
    if g > 6 or d_max > 8:
        raise ResourceLimit("stabilization check capped at genus 6, dimension 8")
    values = {}
    for d in range(g, d_max + 1):
        values[d] = count(TreeKind("representative", order), d, g,
                          workers=workers).rows[g]
    base = values[g]
    return {"g": g, "d_max": d_max, "values": values,
            "ok": all(v == base for v in values.values())}


# Known counts, recorded up to the largest settled genus.  Keys are
# (mode, dimension); "full" counts every semigroup, "representative" one
# per permutation orbit.
_KNOWN_COUNTS = {
    ("full", 2): {
        1: 2, 2: 7, 3: 23, 4: 71, 5: 210, 6: 638, 7: 1894, 8: 5570,
        9: 16220, 10: 46898, 11: 134856, 12: 386354, 13: 1102980,
        14: 3137592,
    },
    ("full", 3): {
        1: 3, 2: 15, 3: 67, 4: 292, 5: 1215, 6: 5075, 7: 20936, 8: 85842,
        9: 349731, 10: 1418323, 11: 5731710, 12: 23100916, 13: 92882954,
        14: 372648740,
    },
    ("representative", 2): {
        1: 1, 2: 4, 3: 12, 4: 37, 5: 107, 6: 323, 7: 953, 8: 2798,
        9: 8128, 10: 23486, 11: 67477, 12: 193285, 13: 551628, 14: 1569107,
    },
    ("representative", 3): {
        1: 1, 2: 4, 3: 15, 4: 59, 5: 224, 6: 903, 7: 3611, 8: 14603,
        9: 58954, 10: 237956,
    },
    ("representative", 4): {
        1: 1, 2: 4, 3: 15, 4: 64, 5: 270, 6: 1254, 7: 5945, 8: 29132,
    },
    ("representative", 5): {
        1: 1, 2: 4, 3: 15, 4: 64, 5: 277, 6: 1344, 7: 6810, 8: 36536,
    },
    ("representative", 6): {
        1: 1, 2: 4, 3: 15, 4: 64, 5: 277, 6: 1355,
    },
}


def builtin_reference_table() -> dict:
    """The recorded counts as CountTables keyed by (mode, dimension)."""
    return {
        key: CountTable(d=key[1], order="any", mode=key[0], rows=dict(rows),
                        meta={"source": "builtin"})
        for key, rows in _KNOWN_COUNTS.items()
    }


def reference_value(mode: str, d: int, g: int) -> Optional[int]:
    """A recorded count, or None when the cell is outside the table."""
    return _KNOWN_COUNTS.get((mode, d), {}).get(g)
