"""Command-line interface.

Subcommands: ``count`` for rational and elliptic counts, ``zcount`` for
divisor-class counts, ``table`` to recompute a reference table, and
``trace`` to emit the derivation tree of a count as text, JSON or DOT.
Exit codes: 0 success, 1 table run with failing rows, 2 invalid input,
3 unsupported problem (including a degeneration deeper than the
interpreter's recursion limit), 4 internal exactness failure (InexactCount),
130 interrupted (Ctrl-C; the ``--cache`` file is saved first),
141 standard output closed before the output was written.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys

from .cache import CacheConflict, InvalidCacheFile, MemoStore
from .engine import Engine, InexactCount, check_all_orders, unmarked, trace as build_trace
from .problems import InvalidProblem, Problem, UnsupportedProblem, ZProblem, parse_divisor, parse_entries
from .tables import TABLES, table_rows
from .trace import render_dot, render_json, render_text


def _gather_tangency(specs, n: int, d: int) -> dict:
    h = parse_entries(specs or (), True, "--tangency")
    total = sum(m * c for (m, _), c in h.items())
    if total > d:
        raise InvalidProblem(
            f"tangency conditions account for {total} hyperplane intersections, more than the degree {d}"
        )
    if total < d:
        # Remaining intersections with H are free transverse contacts.
        h[(1, n - 1)] = h.get((1, n - 1), 0) + (d - total)
    return h


def _gather_incidence(args) -> dict:
    i = parse_entries(args.incidence or (), False, "--incidence")
    if args.points:
        i[0] = i.get(0, 0) + args.points
    if args.lines:
        i[1] = i.get(1, 0) + args.lines
    return i


@contextlib.contextmanager
def _cached(path):
    """The memo store of ``--cache PATH``: loaded from PATH when the file
    exists, and saved there when the run ends or is interrupted
    (KeyboardInterrupt), so an interrupted run keeps its work.  A PATH
    in a directory that does not exist raises FileNotFoundError naming
    it before anything is counted, not at the save that ends the run."""
    store = MemoStore()
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, "no directory to save the cache file in", path)
    if path and os.path.exists(path):
        store.load(path)
    try:
        yield store
    except KeyboardInterrupt:
        if path:
            store.save(path)
        raise
    if path:
        store.save(path)


def _problem(args):
    """The problem the flags describe: an elliptic divisor-class problem
    when a divisor is given, else one of genus -g, 0 when unset."""
    if args.genus not in (None, 0, 1):
        raise InvalidProblem(f"genus must be 0 or 1, got {args.genus}")
    if args.divisor is None:
        h = _gather_tangency(args.tangency, args.n, args.d)
        return Problem.make(args.genus or 0, args.n, args.d, h, _gather_incidence(args))
    if args.genus == 0:
        raise InvalidProblem("-g 0 does not apply to a divisor problem")
    if args.tangency:
        raise InvalidProblem("--tangency does not apply to a divisor problem")
    i = _gather_incidence(args)
    return ZProblem.make(args.n, args.d, i, parse_divisor(args.divisor))


def cmd_count(args) -> int:
    problem = _problem(args)
    with _cached(args.cache) as store:
        eng = Engine(store, divisor_axiom=not args.no_divisor_axiom, order=args.degeneration_order)
        value = eng.count(problem)
        if args.check_all_orders:
            check_all_orders(problem, value, not args.no_divisor_axiom)
    print(unmarked(value, problem) if args.unmarked else value)
    return 0


def cmd_table(args) -> int:
    if args.name not in TABLES:
        known = ", ".join(sorted(TABLES))
        print(f"error: unknown table {args.name!r}; known tables: {known}", file=sys.stderr)
        return 2
    with _cached(args.cache) as store:
        rows = table_rows(args.name, Engine(store))
    width = max(len(row.label) for row in rows)
    counts = {"PASS": 0, "FAIL": 0, "DISCREPANCY": 0}
    for row in rows:
        counts[row.status] += 1
        line = f"{row.label:<{width}}  printed {row.printed:>12}  computed {row.computed:>12}  {row.status}"
        if row.note:
            line += f"  ({row.note})"
        print(line)
    summary = ", ".join(f"{v} {k}" for k, v in counts.items() if v)
    print(f"{len(rows)} rows: {summary}")
    return 0 if counts["FAIL"] == 0 else 1


def cmd_trace(args) -> int:
    problem = _problem(args)
    with _cached(args.cache) as store:
        root = build_trace(
            problem,
            divisor_axiom=not args.no_divisor_axiom,
            order=args.degeneration_order,
            store=store,
        )
    if args.format == "json":
        print(render_json(root))
    elif args.format == "dot":
        print(render_dot(root))
    else:
        print(render_text(root))
    return 0


def _add_problem_flags(sub, genus=True):
    """The flags that describe a problem; genus=False leaves out -g and
    --tangency, as a divisor problem is elliptic with free contacts."""
    if genus:
        sub.add_argument("-g", "--genus", type=int, help="0 rational, 1 elliptic")
        sub.add_argument(
            "--tangency",
            action="append",
            metavar="m,e:count",
            help="contacts of order m with H at points on general e-planes of H (repeatable); "
            "unlisted hyperplane intersections become free transverse contacts",
        )
    sub.add_argument("-n", type=int, required=True, help="ambient projective space dimension")
    sub.add_argument("-d", type=int, required=True, help="curve degree")
    sub.add_argument(
        "--incidence",
        action="append",
        metavar="e:count",
        help="marked points on general e-planes (repeatable)",
    )
    sub.add_argument("--points", type=int, default=0, help="shorthand for --incidence 0:k")
    sub.add_argument("--lines", type=int, default=0, help="shorthand for --incidence 1:k")


def _add_engine_flags(sub):
    sub.add_argument("--cache", metavar="PATH", help="load and save computed counts")
    sub.add_argument("--no-divisor-axiom", action="store_true", help="degenerate free markers too")
    sub.add_argument(
        "--degeneration-order",
        choices=("max-e", "min-e"),
        default="max-e",
        help="which admissible incidence slot to specialize first",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvecount",
        description="Exact counts of rational and elliptic curves in projective space.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_count = subs.add_parser("count", help="count curves meeting tangency and incidence conditions")
    _add_problem_flags(p_count)
    p_count.add_argument("--unmarked", action="store_true", help="divide by the relabelings of identical markings")
    p_count.set_defaults(func=cmd_count, divisor=None)

    p_z = subs.add_parser("zcount", help="count elliptic curves with a fixed hyperplane divisor class")
    _add_problem_flags(p_z, genus=False)
    p_z.add_argument("--divisor", required=True, metavar="EXPR", help="e.g. p1+p2+2*l1-p3")
    p_z.set_defaults(func=cmd_count, unmarked=False, genus=1, tangency=None)

    for sub in (p_count, p_z):
        sub.add_argument("--check-all-orders", action="store_true", help="assert all degeneration orders agree")
        _add_engine_flags(sub)

    p_table = subs.add_parser("table", help="recompute a reference table")
    p_table.add_argument("name", help="ez3, ez4, eqesc-nums, eqesc-full, p3-rational or p3-elliptic-cubics")
    p_table.add_argument("--cache", metavar="PATH", help="load and save computed counts")
    p_table.set_defaults(func=cmd_table)

    p_trace = subs.add_parser("trace", help="emit the derivation tree of a count")
    _add_problem_flags(p_trace)
    p_trace.add_argument("--divisor", metavar="EXPR", help="trace a divisor-class problem instead")
    p_trace.add_argument("--format", choices=("text", "json", "dot"), default="text")
    _add_engine_flags(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone (``| head``).  End quietly, with
        # the status a shell gives a filter that SIGPIPE ends (128 + 13),
        # and point stdout at /dev/null so the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UnsupportedProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidProblem, InvalidCacheFile, CacheConflict, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InexactCount as exc:
        print(f"error: internal exactness check failed: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        # 128 + SIGINT, as a shell reports a command that Ctrl-C ends.
        print("error: interrupted; the --cache file, if given, keeps the counts made so far", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
