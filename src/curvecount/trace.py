"""Derivation DAGs recording how a count was assembled.

Every node satisfies the exact invariant
``count == sum(weight * child.count)`` unless it is a leaf.  Problem
nodes carry the rule that resolved them (``seed``, ``base-n1``,
``zero-dim``, ``capacity``, ``divisor-axiom``, ``z-evaluation``) or,
when the problem was expanded by degeneration, the rule of its first
term.  A ``capacity`` leaf counts 0 without expansion: no curve of its
genus and degree passes through that many general points
(engine.beyond_capacity).  Expanded
problems get one child per contributing term (rules ``type-I``,
``type-IIplain``, ``type-IIa``, ``type-IIb``, ``type-IIc``); a term node
repeats the parent problem and its children are the factor problems of
the term, weighted so the invariant holds factor by factor.  Divisor
evaluations (``z-evaluation``) are leaves: their value is intersection
arithmetic, not a weighted sum of problem counts.  Zero-count children
are pruned.  Shared subproblems share one node, so the structure is a
DAG, and every renderer emits each node once.

A node's id is its position in ``iter_nodes(root)``, so the root is
``#0``; ``#17`` in text, ``"id": 17`` in JSON and ``n17`` in DOT name
the same node.  Text is a depth-first walk: the first visit to a node
prints ``count  problem  [rule] #id`` and its children below it, every
later visit one back-reference line ``count  problem  = #id``.  JSON is
the table ``{"version": 2, "count", "root", "nodes": [...]}`` with
``nodes[k]["id"] == k`` and children given as ``{"weight", "node": id}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class TraceNode:
    problem: object
    dim: int
    count: int
    rule: str
    children: list[tuple[Fraction, "TraceNode"]] = field(default_factory=list)


class Tracer:
    """Node registry keyed by memo key (engine.memo_key): a problem's
    canonical text behind its count family.  A problem formats that text
    once and keeps it (Problem.key), so a traced pass formats each
    problem once: the engine's lookups and the renderers' lines all
    read the kept string."""

    def __init__(self):
        self.nodes: dict[str, TraceNode] = {}


def iter_nodes(root: TraceNode):
    """Yield each distinct node once."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(child for _, child in node.children)


def check_invariant(root: TraceNode) -> None:
    for node in iter_nodes(root):
        if node.children:
            total = sum((w * child.count for w, child in node.children), Fraction(0))
            if total != node.count:
                raise AssertionError(
                    f"trace node for {node.problem} has count {node.count} "
                    f"but children sum to {total}"
                )


def _numbered(root: TraceNode) -> tuple[list[TraceNode], dict[int, int]]:
    """The distinct nodes in id order, and each node's id keyed by ``id()``."""
    order = list(iter_nodes(root))
    return order, {id(node): k for k, node in enumerate(order)}


def render_json(root: TraceNode) -> str:
    order, ids = _numbered(root)
    nodes = [
        {
            "id": k,
            "problem": node.problem.key(),
            "dim": node.dim,
            "count": node.count,
            "rule": node.rule,
            "children": [{"weight": str(w), "node": ids[id(child)]} for w, child in node.children],
        }
        for k, node in enumerate(order)
    ]
    return json.dumps({"version": 2, "count": root.count, "root": 0, "nodes": nodes}, indent=2)


def render_text(root: TraceNode) -> str:
    _, ids = _numbered(root)
    printed = set()
    lines = []

    def rec(node, weight, depth):
        pad = "  " * depth
        wtxt = "" if weight is None else f"{weight} x "
        k = ids[id(node)]
        if k in printed:
            lines.append(f"{pad}{wtxt}{node.count}  {node.problem.key()}  = #{k}")
            return
        printed.add(k)
        lines.append(f"{pad}{wtxt}{node.count}  {node.problem.key()}  [{node.rule}] #{k}")
        for w, child in node.children:
            rec(child, w, depth + 1)

    rec(root, None, 0)
    return "\n".join(lines)


def render_dot(root: TraceNode) -> str:
    order, ids = _numbered(root)
    lines = ["digraph trace {", "  node [shape=box, fontname=monospace];"]
    for k, node in enumerate(order):
        label = f"{node.problem.key()}\\ncount={node.count} rule={node.rule}"
        label = label.replace('"', '\\"')
        lines.append(f'  n{k} [label="{label}"];')
    for k, node in enumerate(order):
        for w, child in node.children:
            lines.append(f'  n{k} -> n{ids[id(child)]} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines)
