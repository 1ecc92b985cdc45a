"""The benchmark's workloads: their inputs, their pinned answers and
the checks run on their outputs.

Every workload is a list of operations.  An operation is one top-level
count (the frontier workloads) or one ``curvecount`` command run
in-process (``tables``: every reference table cold, then warm;
``trace``: every trace command).  The seed only permutes the order of the operations;
every operation starts from fresh engine state or from its own cache
file, so the order never changes the work done.

Each pinned value names its provenance:
  oracle      an independent computation that never calls the engine
  published   a number printed in the literature
  seed-only   the value the engine printed at the commit that defined
              this benchmark; nothing independent confirms it
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import curvecount.cli
from curvecount import Engine, Problem, ZProblem, parse_divisor, unmarked_factor

WORKLOADS = ("frontier-g0", "frontier-g1", "tables", "trace")


@dataclass(frozen=True)
class Pinned:
    """A problem with its expected unmarked count and where that number
    comes from."""

    label: str
    problem: Any
    unmarked: int
    provenance: str

    @property
    def marked(self) -> int:
        if isinstance(self.problem, ZProblem):
            return self.unmarked
        return self.unmarked * unmarked_factor(self.problem)


def _lines(genus, n, d, lines, extra=None):
    i = {1: lines}
    i.update(extra or {})
    return Problem.make(genus, n, d, {(1, n - 1): d}, i)


def _points(genus, n, d, points):
    return Problem.make(genus, n, d, {(1, n - 1): d}, {0: points})


FRONTIER_G0 = (
    Pinned(
        "rational P^3 d=5 through 20 lines",
        _lines(0, 3, 5, 20),
        6089786376960,
        "oracle: WDVV recursion in bench/oracle.py",
    ),
    Pinned(
        "rational P^2 d=7 through 20 points",
        _points(0, 2, 7, 20),
        14616808192,
        "oracle: WDVV recursion in bench/oracle.py; published as Kontsevich's N_7",
    ),
    Pinned(
        "rational P^4 d=3 through 8 lines",
        _lines(0, 4, 3, 8),
        188,
        "oracle: WDVV recursion in bench/oracle.py",
    ),
    Pinned(
        "rational P^4 d=4 through 10 lines and 1 plane",
        _lines(0, 4, 4, 10, {2: 1}),
        63740,
        "oracle: WDVV recursion in bench/oracle.py",
    ),
)

FRONTIER_G1 = (
    Pinned(
        "elliptic P^3 d=5 through 20 lines",
        _lines(1, 3, 5, 20),
        2583319387968,
        "seed-only",
    ),
    Pinned(
        "elliptic P^2 d=7 through 21 points",
        _points(1, 2, 7, 21),
        60478511040,
        "published: Getzler 1997, elliptic plane septics",
    ),
)

# Table name -> the summary line the runner prints.  The rows themselves
# carry their published values; DISCREPANCY marks the documented
# misprints (ez3 3*l1, eqesc-nums j=1, eqesc-full (8,2,2,1)).
TABLE_SUMMARIES = {
    "ez3": "20 rows: 19 PASS, 1 DISCREPANCY",
    "ez4": "5 rows: 5 PASS",
    "eqesc-nums": "9 rows: 8 PASS, 1 DISCREPANCY",
    "eqesc-full": "102 rows: 101 PASS, 1 DISCREPANCY",
    "p3-rational": "3 rows: 3 PASS",
    "p3-elliptic-cubics": "12 rows: 12 PASS",
}

TRACE_TARGETS = (
    (
        Pinned(
            "rational P^3 d=3 through 12 lines",
            _lines(0, 3, 3, 12),
            80160,
            "oracle: WDVV recursion in bench/oracle.py; published in the p3-rational table",
        ),
        ["-n", "3", "-d", "3", "--lines", "12"],
        ("text", "json", "dot"),
    ),
    (
        Pinned(
            "elliptic P^3 d=3 through 12 lines",
            _lines(1, 3, 3, 12),
            1500,
            "published: p3-elliptic-cubics table, plain series",
        ),
        ["-g", "1", "-n", "3", "-d", "3", "--lines", "12"],
        ("text", "json", "dot"),
    ),
    (
        Pinned(
            "zcount P^2 d=4 through 11 points, D=p1+p2+p3+p4",
            ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4")),
            62,
            "published: ez4 table",
        ),
        ["-n", "2", "-d", "4", "--points", "11", "--divisor", "p1+p2+p3+p4"],
        ("text", "json", "dot"),
    ),
    (
        Pinned(
            "rational P^3 d=4 through 16 lines",
            _lines(0, 3, 4, 16),
            383306880,
            "oracle: WDVV recursion in bench/oracle.py",
        ),
        ["-n", "3", "-d", "4", "--lines", "16"],
        ("dot", "text"),
    ),
)


class Sink(io.TextIOBase):
    """Text stream that keeps what is written without copying it."""

    def __init__(self):
        self.chunks: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.chunks.append(s)
        return len(s)

    def text(self) -> str:
        return "".join(self.chunks)

    def first_line(self) -> str:
        """The first line, without joining (and so copying) the rest."""
        parts = []
        for chunk in self.chunks:
            end = chunk.find("\n")
            if end >= 0:
                parts.append(chunk[:end])
                break
            parts.append(chunk)
        return "".join(parts)

    def nbytes(self) -> int:
        return sum(len(c) if c.isascii() else len(c.encode("utf-8")) for c in self.chunks)


@dataclass
class CliRun:
    code: int
    stdout: Sink
    stderr: Sink


def run_cli(argv: list[str]) -> CliRun:
    """Run one ``curvecount`` command in this process.  ``cli.main`` is
    looked up at call time so that a tracing wrapper sees the call."""
    out, err = Sink(), Sink()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = curvecount.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliRun(code, out, err)


@dataclass
class Op:
    """One timed operation.  ``call`` is timed; ``check`` runs right
    after it, outside the timed region, and returns an error text or
    None.  Outputs are dropped once checked, so a large output never
    stays alive into the next operation."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


def _check_count(pin: Pinned):
    def check(value):
        if value != pin.marked:
            return f"{pin.label}: got {value}, expected {pin.marked} ({pin.provenance})"
        return None

    return check


def _count_op(pin: Pinned) -> Op:
    return Op(pin.label, lambda: Engine().count(pin.problem), _check_count(pin))


def _cli_failure(run: CliRun, what: str) -> str | None:
    if run.code != 0:
        return f"{what}: exit {run.code}: {run.stderr.text().strip()[:200]}"
    return None


def _table_ops(names, cache_dir) -> list[Op]:
    cold_bytes: dict[str, bytes] = {}
    cold_text: dict[str, str] = {}

    def path(name):
        return os.path.join(cache_dir, f"{name}.cache")

    def cold(name):
        def check(run: CliRun):
            err = _cli_failure(run, f"table {name} cold")
            if err:
                return err
            with open(path(name), "rb") as fh:
                cold_bytes[name] = fh.read()
            cold_text[name] = run.stdout.text()
            lines = cold_text[name].splitlines()
            if not lines or lines[-1] != TABLE_SUMMARIES[name]:
                got = lines[-1] if lines else ""
                return f"table {name}: summary {got!r}, expected {TABLE_SUMMARIES[name]!r}"
            if any(line.rstrip().endswith(" FAIL") for line in lines):
                return f"table {name}: FAIL row"
            return None

        argv = ["table", name, "--cache", path(name)]
        return Op(f"table {name} cold", lambda: run_cli(argv), check)

    def warm(name):
        def check(run: CliRun):
            err = _cli_failure(run, f"table {name} warm")
            if err:
                return err
            if run.stdout.text() != cold_text.get(name):
                return f"table {name}: warm output differs from cold output"
            with open(path(name), "rb") as fh:
                if fh.read() != cold_bytes.get(name):
                    return f"table {name}: cache file changed on the warm pass"
            return None

        argv = ["table", name, "--cache", path(name)]
        return Op(f"table {name} warm", lambda: run_cli(argv), check)

    return [cold(name) for name in names] + [warm(name) for name in names]


def _root_count(fmt: str, out: Sink) -> int:
    if fmt == "text":
        return int(out.first_line().split(None, 1)[0])
    if fmt == "json":
        return json.loads(out.text())["count"]
    # dot: the root is the first node, n0.
    lines = out.text().splitlines()
    if lines[0] != "digraph trace {" or lines[-1] != "}":
        raise ValueError("not a complete digraph")
    label = next(line for line in lines if line.startswith("  n0 ["))
    return int(label.split("count=", 1)[1].split(None, 1)[0])


def _trace_op(pin: Pinned, flags: list[str], fmt: str) -> Op:
    argv = ["trace", *flags, "--format", fmt]

    def check(run: CliRun):
        err = _cli_failure(run, f"trace {fmt} {pin.label}")
        if err:
            return err
        try:
            root = _root_count(fmt, run.stdout)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            return f"trace {fmt} {pin.label}: unreadable output ({exc})"
        if root != pin.marked:
            return f"trace {fmt} {pin.label}: root count {root}, expected {pin.marked}"
        return None

    return Op(f"trace {fmt} {pin.label}", lambda: run_cli(argv), check)


def make_ops(workload: str, seed: int, scratch_dir: str) -> list[Op]:
    """The operations of one pass, in the order the seed picks.  The
    ``tables`` workload writes its cache files under ``scratch_dir``."""
    rng = random.Random(seed)
    if workload in ("frontier-g0", "frontier-g1"):
        pins = list(FRONTIER_G0 if workload == "frontier-g0" else FRONTIER_G1)
        rng.shuffle(pins)
        return [_count_op(pin) for pin in pins]
    if workload == "tables":
        names = list(TABLE_SUMMARIES)
        rng.shuffle(names)
        return _table_ops(names, scratch_dir)
    if workload == "trace":
        traces = [_trace_op(pin, flags, fmt) for pin, flags, fmts in TRACE_TARGETS for fmt in fmts]
        rng.shuffle(traces)
        return traces
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def all_pins() -> list[Pinned]:
    return [*FRONTIER_G0, *FRONTIER_G1, *(pin for pin, _, _ in TRACE_TARGETS)]


def stdout_bytes(outcome) -> int:
    return outcome.stdout.nbytes() if isinstance(outcome, CliRun) else 0

