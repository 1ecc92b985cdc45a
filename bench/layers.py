"""Per-layer metrics from the span tables that spans.Tracer dumps.

This module does not import curvecount, so run.py can aggregate the
tables of a traced run without loading the program.  A span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import array
import json
import statistics

# Span names, in the order their index is stored.  "op" is one
# top-level operation of the benchmark itself.
SPANS = (
    "op",
    "partitions.type2",
    "genus0.expand_x",
    "genus0.count_y",
    "genus0.tail_problem",
    "genus1.expand_w",
    "genus1.count_ya",
    "genus1.count_yb",
    "genus1.count_yc",
    "problems.make",
    "problems.format",
    "fibration.expand_z",
    "fibration.pairings",
    "engine.finish_terms",
    "engine.terms_node",
    "engine.trace",
    "cache.lookup",
    "cache.store",
    "cache.load",
    "cache.save",
    "trace.render_text",
    "trace.render_json",
    "trace.render_dot",
    "tables.table_rows",
    "cli.main",
)


def load_table(path: str):
    """Read a dumped span table: (meta, kind, parent, start, end)."""
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = [array.array(code) for code in "Bidd"]
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (meta, *arrays)


def self_times(kind, parent, start, end, nnames: int):
    """Per span name: (number of spans, total self time, total
    duration).  The total duration counts every span of the name, so it
    is inclusive only for names whose spans never nest in each other."""
    child = array.array("d", bytes(8 * len(kind)))
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = [0] * nnames
    self_s = [0.0] * nnames
    total_s = [0.0] * nnames
    for i, k in enumerate(kind):
        calls[k] += 1
        total_s[k] += end[i] - start[i]
        self_s[k] += end[i] - start[i] - child[i]
    return calls, self_s, total_s


def check_spans(parent, start, end, limit: int = 5) -> list[str]:
    """Problems with the nesting of a span table: a span that ends
    before it starts, a child that starts or ends outside its parent,
    or a span whose children cover more than its own duration.  Returns
    at most ``limit`` descriptions; an empty list means every span is
    well nested."""
    problems = []
    child = array.array("d", bytes(8 * len(parent)))
    for i, p in enumerate(parent):
        if end[i] < start[i]:
            problems.append(f"span {i} ends {start[i] - end[i]:.3g} s before it starts")
        if p >= 0:
            if start[i] < start[p] or end[i] > end[p]:
                problems.append(f"span {i} runs outside its parent span {p}")
            child[p] += end[i] - start[i]
        if len(problems) >= limit:
            return problems
    for i, covered in enumerate(child):
        if end[i] - start[i] - covered < -1e-9:
            problems.append(f"children of span {i} cover {covered - (end[i] - start[i]):.3g} s more than it lasts")
            if len(problems) >= limit:
                break
    return problems


# Per-layer metric names and units, in the order BENCHMARK.json lists them.
COUNT_Y = ("genus0.count_y", "genus1.count_ya", "genus1.count_yb", "genus1.count_yc")
PER_LAYER = (
    [("partitions.type2.calls", "count"), ("partitions.type2.shapes", "count"), ("partitions.type2.self_s", "s")]
    + [("genus0.expand_x.calls", "count"), ("genus0.expand_x.self_s", "s")]
    + [(f"{y}.{m}", u) for y in COUNT_Y for m, u in (("calls", "count"), ("nonzero", "count"), ("useful_ratio", "ratio"), ("self_s", "s"))]
    + [("genus0.tail_problem.calls", "count"), ("genus0.tail_problem.self_s", "s")]
    + [("genus1.expand_w.calls", "count"), ("genus1.expand_w.self_s", "s")]
    + [("problems.make.calls", "count"), ("problems.make.self_s", "s")]
    + [("problems.format.calls", "count"), ("problems.format.self_s", "s")]
    + [("fibration.expand_z.calls", "count"), ("fibration.expand_z.self_s", "s")]
    + [("fibration.pairings.calls", "count"), ("fibration.pairings.self_s", "s")]
    + [("engine.finish_terms.calls", "count"), ("engine.finish_terms.terms", "count"), ("engine.finish_terms.self_s", "s")]
    + [("engine.terms_node.self_s", "s")]
    + [("cache.lookup.hits", "count"), ("cache.lookup.misses", "count"), ("cache.lookup.hit_ratio", "ratio")]
    + [("cache.store.calls", "count")]
    + [("cache.load_s", "s"), ("cache.save_s", "s"), ("cache.records", "count"), ("cache.file_bytes", "bytes")]
    + [(f"trace.render_{f}.{m}", u) for f in ("text", "json", "dot") for m, u in (("self_s", "s"), ("bytes", "bytes"))]
    + [("trace.nodes", "count"), ("trace.unfold_ratio", "ratio")]
    + [("tables.table_rows.calls", "count"), ("tables.table_rows.self_s", "s")]
    + [("cli.main.calls", "count"), ("cli.main.self_s", "s")]
    + [("cli.stdout_bytes", "bytes"), ("bench.other_self_s", "s"), ("tracing.overhead_frac", "ratio")]
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_counts(meta, calls) -> dict[str, int]:
    """The exact counts of one traced pass: ``<span>.calls`` for every
    span name, then the counters.  A counter overrides the span count
    of the same name: a generator's calls are the generators created,
    not its ``next()`` spans.  The counts repeat exactly across passes
    and runs that do the same work."""
    out = {f"{name}.calls": calls[i] for i, name in enumerate(meta["names"])}
    out.update(meta["counters"])
    return out


def layer_times(meta, self_s, total_s) -> dict[str, float]:
    """Self time per span name, as ``<span>.self_s``; cache file I/O as
    the whole time inside ``load`` and ``save``, the ``store`` calls
    that ``load`` makes included."""
    names = meta["names"]
    out = {f"{name}.self_s": self_s[i] for i, name in enumerate(names)}
    out["cache.load_s"] = total_s[names.index("cache.load")]
    out["cache.save_s"] = total_s[names.index("cache.save")]
    out["bench.other_self_s"] = out["op.self_s"]
    return out


def per_layer_metrics(tables_, untraced_walls, traced_walls, stdout_bytes) -> dict:
    """Per-layer metrics from the dumped tables of the traced passes:
    counts from the first pass (the caller checks they repeat), times
    as medians over passes."""
    counts = tables_[0][0]
    times = [t for _, t in tables_]
    value = dict(counts)
    for key in times[0]:
        value[key] = statistics.median(t[key] for t in times)
    get = lambda key: counts.get(key, 0)  # noqa: E731  (counters never bumped are absent)
    for y in COUNT_Y:
        value[f"{y}.useful_ratio"] = _ratio(get(f"{y}.nonzero"), get(f"{y}.calls"))
    hits, misses = get("cache.lookup.hits"), get("cache.lookup.misses")
    value["cache.lookup.hit_ratio"] = _ratio(hits, hits + misses)
    value["trace.unfold_ratio"] = _ratio(get("trace.render_text.lines"), get("trace.render_text.nodes"))
    value["cli.stdout_bytes"] = stdout_bytes
    value["tracing.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
    return {name: {"value": value.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
