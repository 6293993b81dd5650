"""Command line front end: count, enumerate and verify subcommands.

Results go to stdout (or --output); diagnostics go to stderr.  Exit codes:
0 success, 1 verification mismatch, 2 usage error (a corrupt or foreign
checkpoint and a file that cannot be written count as one), 3 resource
limit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import bruteforce, counting
from .core import check_dim, get_order
from .checkpoint import _format_gapset
from .trees import CheckpointCorrupt, TreeKind, traverse


_MODE_TO_VARIANT = {"all": "full", "representatives": "representative",
                    "equivariant": "equivariant"}


def _add_tree_args(sp):
    sp.add_argument("--dim", type=int, required=True, metavar="D",
                    help="ambient dimension")
    sp.add_argument("--order", choices=["lex", "glex", "order1"],
                    default="lex", help="total order driving the walk")
    sp.add_argument("--mode", choices=["all", "representatives", "equivariant"],
                    default="representatives",
                    help="count everything, one per orbit, or symmetric only")
    # "frontier" names the genus-by-genus walk, a value kept so that
    # existing command lines still parse
    sp.add_argument("--tree", choices=["frontier", "fixed-genus"],
                    default="frontier",
                    help="frontier (the default): the tree named by --mode, "
                         "walked genus by genus; fixed-genus: the tree of "
                         "one genus alone")
    sp.add_argument("--threads", type=int, default=1, metavar="N",
                    help="worker processes for the seed subtree walks")
    sp.add_argument("--format", choices=["text", "json", "csv"],
                    default="text", dest="fmt")
    sp.add_argument("--output", metavar="PATH",
                    help="write results here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gnsenum",
        description="Enumerate finite-complement submonoids of N^d "
                    "up to coordinate permutation.")
    sub = p.add_subparsers(dest="command", metavar="{count,enumerate,verify}")
    sub.required = True

    pc = sub.add_parser("count", help="tabulate counts per genus")
    _add_tree_args(pc)
    # count only: a resumed walk does not revisit the finished seeds, so
    # enumerate would list nothing from them
    pc.add_argument("--checkpoint", metavar="PATH",
                    help="resume file, rewritten after each finished seed "
                         "batch with the number of finished seeds (the first "
                         "ones); a rerun walks only the seeds after them, to "
                         "a smaller --gmax too, and walks all seeds again for "
                         "a larger one (fixed-genus refuses another --genus)")
    pc.add_argument("--gmax", type=int, metavar="G",
                    help="largest genus walked (not with --tree fixed-genus)")
    pc.add_argument("--genus", type=int, metavar="G",
                    help="target genus for the fixed-genus tree")

    pe = sub.add_parser("enumerate", help="list gap sets at one genus")
    _add_tree_args(pe)
    pe.add_argument("--genus", type=int, required=True, metavar="G")

    pv = sub.add_parser("verify",
                        help="check computed counts against recorded ones")
    pv.add_argument("--cells", action="append", default=[],
                    metavar="KIND:DIM:RANGE",
                    help="table cells, e.g. N:2:1..8 (N per orbit, n all)")
    pv.add_argument("--identity", action="store_true",
                    help="check the span-sum identity at --g, --dim")
    pv.add_argument("--stabilization", action="store_true",
                    help="check dimension stabilization at --g up to --dmax")
    pv.add_argument("--g", type=int, metavar="G")
    pv.add_argument("--dim", type=int, metavar="D")
    pv.add_argument("--dmax", type=int, metavar="D")
    pv.add_argument("--order", choices=["lex", "glex", "order1"], default="lex")
    pv.add_argument("--threads", type=int, default=1, metavar="N")
    pv.add_argument("--format", choices=["text", "json"], default="text",
                    dest="fmt")
    pv.add_argument("--output", metavar="PATH")

    # debugging helper, deliberately absent from the advertised commands
    po = sub.add_parser("oracle")
    po.add_argument("--dim", type=int, required=True)
    po.add_argument("--genus", type=int, required=True)
    po.add_argument("--representatives", action="store_true")
    po.add_argument("--order", choices=["lex", "glex", "order1"], default="lex")
    po.add_argument("--format", choices=["text", "json"], default="text",
                    dest="fmt")
    po.add_argument("--output", metavar="PATH")
    # checks made after parsing report through the subcommand's own parser,
    # so the usage line shown is that subcommand's
    for sp, run in ((pc, cmd_count), (pe, cmd_enumerate), (pv, cmd_verify),
                    (po, cmd_oracle)):
        sp.set_defaults(subparser=sp, run=run)
    return p


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform has one, which taskset or a cpuset can make smaller than
    the host's CPU count, and that count otherwise."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(parser, threads) -> int:
    """--threads, checked and capped at the usable CPUs: a fork-started
    pool starts every worker at once."""
    if threads < 1:
        parser.error("--threads must be at least 1")
    return min(threads, _usable_cpus())


def _tree_config(parser, args) -> TreeKind:
    """The tree that the checked flags of count and enumerate name.

    --tree frontier walks the tree named by --mode; any other --tree value
    names a tree variant that builds --genus alone."""
    gmax = getattr(args, "gmax", None)
    order = get_order(args.order)
    try:
        check_dim(args.dim)
        if args.tree == "frontier":
            kind = TreeKind(_MODE_TO_VARIANT[args.mode], order)
        else:
            kind = TreeKind(args.tree, order, genus_target=args.genus)
    except ValueError as exc:
        parser.error(str(exc))
    if args.tree == "frontier":
        if args.command == "count":
            if gmax is None:
                parser.error("count needs --gmax (or --tree fixed-genus with --genus)")
            if gmax < 0:
                parser.error("--gmax must be nonnegative")
            if args.genus is not None:
                parser.error("count takes --genus only with --tree fixed-genus")
        if args.command == "enumerate" and args.genus < 0:
            parser.error("--genus must be nonnegative")
    else:
        if args.mode != "representatives":
            parser.error("--tree fixed-genus implies --mode representatives")
        if gmax is not None:
            parser.error("--tree fixed-genus takes --genus, not --gmax")
    return kind


def _check_output(args):
    """Open --output for appending and close it again, so that a path that
    cannot be written fails before the walk instead of after it; a file
    this makes is removed again, so a command that fails later leaves none."""
    if args.output:
        made = not os.path.exists(args.output)
        open(args.output, "a", encoding="utf-8").close()
        if made:
            # the file made, also where a dangling symlink pointed
            os.unlink(os.path.realpath(args.output))


def _emit(args, doc, rows, header=None):
    """Write one command's result in args.fmt: doc as json, header and rows
    as csv, or each row comma-joined on a line of text."""
    if args.fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif args.fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        text = buf.getvalue()
    else:
        text = "".join(",".join(map(str, row)) + "\n" for row in rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.write(text)
    else:
        sys.stdout.write(text)


def cmd_count(parser, args) -> int:
    workers = _workers(parser, args.threads)
    kind = _tree_config(parser, args)
    _check_output(args)
    table = counting.count(kind, args.dim, g_max=args.gmax, workers=workers,
                           checkpoint=args.checkpoint)
    rows = sorted(table.rows.items())
    doc = {"d": table.d, "order": table.order, "mode": args.mode,
           "rows": [{"g": g, "count": c} for g, c in rows]}
    _emit(args, doc, rows, ["g", "count"])
    return 0


def cmd_enumerate(parser, args) -> int:
    workers = _workers(parser, args.threads)
    kind = _tree_config(parser, args)
    _check_output(args)
    order = kind.order
    target = args.genus
    hits = []

    def see(S, depth):
        if S.genus == target:
            hits.append((depth, S))

    # a tree with a target genus walks to it by itself and takes no limit
    limit = None if kind.genus_target is not None else target
    traverse(kind, args.dim, limit, visitor=see, workers=workers)
    # the walk lists each depth in breadth-first order, seed by seed; a
    # stable sort by depth lists the hits level by level
    hits = [S for _, S in sorted(hits, key=lambda hit: hit[0])]
    doc = {"d": args.dim, "order": order.name, "mode": args.mode,
           "genus": target,
           "semigroups": [[list(h) for h in sorted(S.gaps, key=order.key)]
                          for S in hits]}
    _emit(args, doc, [(_format_gapset(S.gaps, order.key),) for S in hits],
          ["gaps"])
    return 0


def _parse_cells(parser, spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        parser.error(f"bad --cells value {spec!r}, expected KIND:DIM:RANGE")
    kind_letter, dim_s, rng = parts
    if kind_letter not in ("n", "N"):
        parser.error(f"bad --cells kind {kind_letter!r}, use n or N")
    try:
        dim = int(dim_s)
    except ValueError:
        parser.error(f"bad --cells dimension {dim_s!r}")
    if ".." in rng:
        lo_s, hi_s = rng.split("..", 1)
    else:
        lo_s = hi_s = rng
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        parser.error(f"bad --cells range {rng!r}")
    if lo < 1 or hi < lo:
        parser.error(f"bad --cells range {rng!r}")
    mode = "representative" if kind_letter == "N" else "full"
    return kind_letter, mode, dim, lo, hi


def cmd_verify(parser, args) -> int:
    order = get_order(args.order)
    workers = _workers(parser, args.threads)
    checks = []
    mismatch = False

    cells = [_parse_cells(parser, spec) for spec in args.cells]
    if not cells and not args.identity and not args.stabilization:
        parser.error("nothing to verify: give --cells, --identity or --stabilization")
    if args.identity:
        if args.g is None or args.dim is None:
            parser.error("--identity needs --g and --dim")
        if args.g < 1 or args.dim < 1:
            parser.error("--identity needs --g and --dim of at least 1")
    if args.stabilization:
        if args.g is None or args.dmax is None:
            parser.error("--stabilization needs --g and --dmax")
        if not 1 <= args.g <= args.dmax:
            parser.error("--stabilization needs 1 <= --g <= --dmax")
    _check_output(args)
    for letter, mode, dim, lo, hi in cells:
        for g in range(lo, hi + 1):
            if counting.reference_value(mode, dim, g) is None:
                parser.error(
                    f"no recorded count for {letter}_{{{g},{dim}}}")
        table = counting.count(TreeKind(mode, order), dim, hi,
                               workers=workers)
        for g in range(lo, hi + 1):
            got = table.rows[g]
            want = counting.reference_value(mode, dim, g)
            ok = got == want
            mismatch = mismatch or not ok
            checks.append({"check": f"{letter}_{{{g},{dim}}}", "computed": got,
                           "reference": want, "ok": ok})
    if args.identity:
        rep = counting.verify_sum_identity(args.g, args.dim, order=order,
                                           workers=workers)
        mismatch = mismatch or not rep["ok"]
        checks.append({"check": f"identity g={args.g} d={args.dim}",
                       "computed": rep["rhs"], "reference": rep["lhs"],
                       "terms": rep["terms"], "ok": rep["ok"]})
    if args.stabilization:
        rep = counting.verify_stabilization(args.g, args.dmax, order=order,
                                            workers=workers)
        mismatch = mismatch or not rep["ok"]
        checks.append({"check": f"stabilization g={args.g} dmax={args.dmax}",
                       "values": {str(k): v for k, v in rep["values"].items()},
                       "ok": rep["ok"]})
    lines = []
    for c in checks:
        if "computed" in c:
            body = f"{c['check']}={c['computed']}"
            tail = "ok" if c["ok"] else f"MISMATCH expected {c['reference']}"
        else:
            body = f"{c['check']} {c['values']}"
            tail = "ok" if c["ok"] else "MISMATCH"
        lines.append((f"{body} {tail}",))
    _emit(args, {"checks": checks, "ok": not mismatch}, lines)
    return 1 if mismatch else 0


def cmd_oracle(parser, args) -> int:
    try:
        check_dim(args.dim)
    except ValueError as exc:
        parser.error(str(exc))
    if args.genus < 0:
        parser.error("--genus must be nonnegative")
    order = get_order(args.order)
    _check_output(args)
    if args.representatives:
        sgs = bruteforce.brute_force_representatives(args.genus, args.dim, order)
    else:
        sgs = bruteforce.brute_force_all(args.genus, args.dim)
    lines = sorted(_format_gapset(S.gaps, order.key) for S in sgs)
    doc = {"d": args.dim, "genus": args.genus,
           "count": len(lines), "semigroups": lines}
    _emit(args, doc, [(line,) for line in lines])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args.subparser, args)
    except counting.ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0
    except (CheckpointCorrupt, OSError) as exc:
        args.subparser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
