"""The per-layer harness in bench/ patches public functions of the
package by name and reads their results by position.  This guards the
names and the result shapes it relies on: a traced run counts the same,
restores every patch, sees every type II rule contribute, and counts the
terms and shapes pinned below.  The
workloads also read the root count out of every trace format, so a
renderer change that breaks that parsing fails here too."""

import importlib
import sys
from pathlib import Path

import pytest

from curvecount import Engine, Problem

BENCH = Path(__file__).resolve().parent.parent / "bench"

PROBLEMS = [
    Problem.make(1, 2, 4, {(1, 1): 4}, {0: 12}),
    Problem.make(1, 3, 3, {(1, 2): 3}, {1: 12}),
]


def _bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture
def spans():
    yield from _bench_module("spans")


@pytest.fixture
def workloads():
    yield from _bench_module("workloads")


def test_traced_counts_match_and_every_rule_contributes(spans):
    plain = [Engine().count(p) for p in PROBLEMS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [Engine().count(p) for p in PROBLEMS]
    finally:
        tracer.restore()
    assert traced == plain == [5400, 9000]
    assert spans.patched_names() == []
    for rule in ("genus0.count_y", "genus1.count_ya", "genus1.count_yb", "genus1.count_yc"):
        assert tracer.counters.get(f"{rule}.nonzero", 0) > 0, rule
    # the elliptic P^3 problem reaches the divisor-class layer (type IIc)
    recorded = {spans.SPANS[kind] for kind in tracer.kind}
    assert {"fibration.pairings", "fibration.expand_z"} <= recorded


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_trace_workload_reads_the_root_count(workloads, fmt):
    # rational and elliptic P^3 d=3 through 12 lines
    targets = [(pin, flags) for pin, flags, _ in workloads.TRACE_TARGETS if " P^3 d=3 " in pin.label]
    assert len(targets) == 2
    for pin, flags in targets:
        op = workloads._trace_op(pin, flags, fmt)
        assert op.check(op.call()) is None


@pytest.mark.parametrize(
    "problem, terms, shapes",
    [(PROBLEMS[0], 47, 24), (PROBLEMS[1], 64, 33)],
    ids=["elliptic P^2 d=4 through 12 points", "elliptic P^3 d=3 through 12 lines"],
)
def test_what_the_hooks_count_is_pinned(spans, problem, terms, shapes):
    # the terms the benchmark counts as len(args[3]) of finish_terms and
    # the shapes it counts as yields of type2_partitions: a reshaped
    # term list or walk that moves either fails here
    tracer = spans.Tracer()
    tracer.install()
    try:
        Engine().count(problem)
    finally:
        tracer.restore()
    counted = tracer.counters
    assert (counted["engine.finish_terms.terms"], counted["partitions.type2.shapes"]) == (terms, shapes)
