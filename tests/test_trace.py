"""Derivation traces: invariant, schema, renderers.

The text and JSON renderers emit each distinct node once.  ``unfold_text``
and ``unfold_json`` expand them back into the tree renderings they
replaced, so the pinned tree digests show that nothing was lost."""

import hashlib
import json
import re
from collections import Counter
from fractions import Fraction

import pytest

import curvecount.problems as problems
from curvecount import Engine, Problem, ZProblem, parse_divisor, trace
from curvecount.engine import memo_key
from curvecount.trace import (
    TraceNode,
    Tracer,
    check_invariant,
    iter_nodes,
    render_dot,
    render_json,
    render_text,
)
from oracles import term_edge_weights

# every rule a node can carry (see curvecount.trace)
RULES = (
    "seed",
    "base-n1",
    "zero-dim",
    "capacity",
    "divisor-axiom",
    "type-I",
    "type-IIplain",
    "type-IIa",
    "type-IIb",
    "type-IIc",
    "z-evaluation",
)

WEIGHT_RE = re.compile(r"-?\d+(/\d+)?\Z")

# one line of render_text: a first visit ``[rule] #id`` or a back-reference ``= #id``
LINE_RE = re.compile(
    r"(?P<pad>(?:  )*)(?:(?P<weight>-?\d+(?:/\d+)?) x )?(?P<body>-?\d+  .+?)"
    r"  (?:\[(?P<rule>[\w-]+)\] #(?P<first>\d+)|= #(?P<ref>\d+))\Z"
)


def _tree_size(node):
    return 1 + sum(_tree_size(child) for _, child in node.children)


def _parse_text(text):
    """Each line of render_text as (depth, weight, body, rule, id, first)."""
    entries = []
    for line in text.split("\n"):
        m = LINE_RE.match(line)
        assert m, line
        depth = len(m["pad"]) // 2
        assert (m["weight"] is None) == (depth == 0), line
        first = m["first"] is not None
        entries.append((depth, m["weight"], m["body"], m["rule"], int(m["first"] or m["ref"]), first))
    return entries


def unfold_text(text):
    """The tree rendering that render_text printed before it emitted each
    node once: every back-reference expanded, ``[rule]`` without an id."""
    entries = _parse_text(text)
    defs = {}  # id -> (body, rule, [(weight, child id)])
    stack = []  # the ids of the open first visits, one per depth
    for depth, weight, body, rule, k, first in entries:
        del stack[depth:]
        if stack:
            defs[stack[-1]][2].append((weight, k))
        if first:
            assert k not in defs
            defs[k] = (body, rule, [])
            stack.append(k)
        else:
            assert defs[k][0] == body
            stack.append(None)
    lines = []

    def rec(k, weight, depth):
        body, rule, children = defs[k]
        wtxt = "" if weight is None else f"{weight} x "
        lines.append(f"{'  ' * depth}{wtxt}{body}  [{rule}]")
        for w, child in children:
            rec(child, w, depth + 1)

    rec(entries[0][4], None, 0)
    return "\n".join(lines)


def unfold_json(text):
    """The nested tree that render_json printed before its node table."""
    table = json.loads(text)
    nodes = table["nodes"]

    def obj(k):
        node = nodes[k]
        return {
            "problem": node["problem"],
            "dim": node["dim"],
            "count": node["count"],
            "rule": node["rule"],
            "children": [{"weight": e["weight"], "node": obj(e["node"])} for e in node["children"]],
        }

    return json.dumps(obj(table["root"]), indent=2)


def test_four_lines():
    root = trace(Problem.make(0, 3, 1, {(1, 2): 1}, {1: 4}))
    assert root.count == 2
    check_invariant(root)
    text = render_text(root)
    # the second way to the seed is one back-reference to a node above it
    assert text.count("[seed]") == 1
    assert text.count("  = #") == 1
    assert unfold_text(text).count("[seed]") == 2


def test_invariant_and_engine_agreement():
    problems = [
        Problem.make(0, 2, 2, {(1, 1): 2}, {0: 5}),
        Problem.make(0, 3, 3, {(1, 2): 3}, {1: 12}),
        Problem.make(1, 2, 3, {(1, 1): 3}, {0: 9}),
        Problem.make(1, 3, 3, {(1, 2): 3}, {0: 2, 1: 8}),
    ]
    for p in problems:
        root = trace(p)
        check_invariant(root)
        assert root.count == Engine().count(p)


def test_rules_are_known():
    root = trace(Problem.make(1, 2, 4, {(1, 1): 4}, {0: 12}))
    for node in iter_nodes(root):
        assert node.rule in RULES


def test_json_schema():
    root = trace(Problem.make(0, 2, 3, {(1, 1): 3}, {0: 8}))
    obj = json.loads(render_json(root))
    assert set(obj) == {"version", "count", "root", "nodes"}
    assert obj["version"] == 2
    nodes = obj["nodes"]
    assert len(nodes) == sum(1 for _ in iter_nodes(root))
    for k, item in enumerate(nodes):
        assert set(item) == {"id", "problem", "dim", "count", "rule", "children"}
        assert item["id"] == k
        assert isinstance(item["problem"], str)
        assert isinstance(item["dim"], int)
        assert isinstance(item["count"], int)
        assert item["rule"] in RULES
        for edge in item["children"]:
            assert set(edge) == {"weight", "node"}
            assert WEIGHT_RE.match(edge["weight"])
            assert 0 <= edge["node"] < len(nodes)
        if item["children"]:
            total = sum(Fraction(e["weight"]) * nodes[e["node"]]["count"] for e in item["children"])
            assert total == item["count"]
    assert obj["count"] == nodes[obj["root"]]["count"]
    # 12 cubics through the 8 points, times 3! labelings of the contacts
    assert obj["count"] == 72


def test_text_has_one_line_per_tree_node():
    root = trace(Problem.make(0, 2, 3, {(1, 1): 3}, {0: 8}))
    lines = unfold_text(render_text(root)).splitlines()
    assert len(lines) == _tree_size(root)
    assert lines[0].startswith("72  ")
    for line in lines[1:]:
        assert " x " in line


def test_dot_output():
    root = trace(Problem.make(0, 3, 1, {(1, 2): 1}, {1: 4}))
    dot = render_dot(root)
    assert dot.startswith("digraph trace {")
    assert dot.endswith("}")
    nodes = list(iter_nodes(root))
    assert dot.count("[label=") == len(nodes) + sum(len(n.children) for n in nodes)
    assert dot.count(" -> ") == sum(len(n.children) for n in nodes)


def test_divisor_axiom_node():
    # a free marker on a general hyperplane trades for a factor of d
    with_marker = Problem.make(0, 2, 2, {(1, 1): 2}, {0: 5, 1: 1})
    root = trace(with_marker)
    assert root.rule == "divisor-axiom"
    assert root.count == 4
    [(weight, child)] = root.children
    assert weight == 2
    assert child.count == 2

    plain = trace(with_marker, divisor_axiom=False)
    assert plain.count == 4
    assert all(node.rule != "divisor-axiom" for node in iter_nodes(plain))


def test_z_trace_is_a_leaf():
    z = ZProblem.make(2, 3, {0: 8, 1: 1}, parse_divisor("p1+2*l1"))
    root = trace(z)
    assert root.rule == "z-evaluation"
    assert root.children == []
    assert root.count == 5
    assert root.dim == 0


def test_positive_dim_leaf():
    root = trace(Problem.make(0, 2, 2, {(1, 1): 2}, {0: 4}))
    assert root.rule == "zero-dim"
    assert root.count == 0
    assert root.dim == 1
    assert root.children == []


@pytest.mark.parametrize(
    "problem",
    [
        Problem.make(1, 2, 2, {(1, 1): 2}, {0: 6}),
        ZProblem.make(2, 2, {0: 5}, parse_divisor("p1+p2")),
        Problem.make(1, 3, 3, {(1, 2): 3}, {0: 7, 3: 2}),
        Problem.make(0, 3, 2, {(1, 2): 2}, {0: 5, 3: 2}),
    ],
    ids=str,
)
def test_capacity_root_is_a_leaf(problem):
    # no elliptic curve of degree 2; no elliptic cubic through 7 points
    # of P^3; no conic through 5 general points of P^3.  The engine
    # neither stores nor records such a problem; trace builds its leaf.
    tracer = Tracer()
    eng = Engine(tracer=tracer)
    assert eng.count(problem) == 0
    root = trace(problem)
    assert (root.rule, root.count, root.dim, root.children) == ("capacity", 0, 0, [])
    assert str(root.problem) == str(problem)
    assert tracer.nodes == {}
    assert list(eng.store.items()) == []


def test_shared_subproblems_share_nodes():
    tracer = Tracer()
    eng = Engine(tracer=tracer)
    p = Problem.make(0, 2, 4, {(1, 1): 4}, {0: 11})
    eng.count(p)
    root = tracer.nodes["X|" + p.key()]
    distinct = {id(n) for n in iter_nodes(root)}
    # the expanded tree repeats shared subproblems; the DAG holds one node each
    assert len(distinct) < _tree_size(root)
    # every reachable node is either a registered problem node or a term
    # node repeating its parent problem
    registry = {id(n) for n in tracer.nodes.values()}
    for parent in iter_nodes(root):
        for _, child in parent.children:
            if id(child) not in registry:
                assert str(child.problem) == str(parent.problem)


def test_a_traced_count_builds_no_capacity_leaf(monkeypatch):
    # zero-count children are pruned, so a problem beyond capacity met
    # inside a count (50 of them here) gets no node; leaves are built
    # once per problem
    tracer = Tracer()
    rules, keys = Counter(), Counter()
    real = Engine.leaf

    def leaf(self, problem, dim, count, rule):
        rules[rule] += 1
        keys[memo_key(problem)] += 1
        return real(self, problem, dim, count, rule)

    monkeypatch.setattr(Engine, "leaf", leaf)
    assert Engine(tracer=tracer).count(Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16})) == 1267968960
    assert rules["capacity"] == 0 and sum(rules.values()) > 0
    assert set(keys.values()) == {1}


def test_the_tracer_is_fixed_at_construction():
    # A replaced tracer would lack the nodes of the pins counted before
    # it (a KeyError in terms_node), so the attribute is read-only.
    tracer = Tracer()
    eng = Engine(tracer=tracer)
    assert eng.count(Problem.make(0, 3, 4, {(1, 2): 4}, {1: 16})) > 0
    with pytest.raises(AttributeError):
        eng.tracer = Tracer()
    assert eng.tracer is tracer
    second = Problem.make(0, 3, 4, {(1, 2): 4}, {0: 1, 1: 14})
    assert eng.count(second) == Engine().count(second)
    check_invariant(tracer.nodes[memo_key(second)])


def test_a_traced_engine_shares_pins_between_counts():
    # The pins live with the engine and so with its tracer: a second
    # count reuses factors the first one pinned, and their nodes are
    # already recorded.  Elliptic quartics through 16 lines, then
    # through 2 points and 12 lines.
    tracer = Tracer()
    eng = Engine(tracer=tracer)
    assert eng.count(Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16})) == 52832040 * 24
    before = {memo_key(child) for table in eng.pinned.values() for child, _ in table.values()}
    second = Problem.make(1, 3, 4, {(1, 2): 4}, {0: 2, 1: 12})
    assert eng.count(second) == 385656 * 24
    root = tracer.nodes[memo_key(second)]
    check_invariant(root)
    # a node the registry does not hold is a term, whose children are
    # the factors it multiplies
    registry = {id(node) for node in tracer.nodes.values()}
    terms = [node for node in iter_nodes(root) if id(node) not in registry]
    factors = [factor for term in terms for _, factor in term.children]
    assert len(terms) > 10
    assert all(id(factor) in registry for factor in factors)
    assert before & {memo_key(factor.problem) for factor in factors}


# sha256 of render_text, render_json and render_dot, then of the text
# and json unfolded into trees.  The dot and unfolded digests were pinned
# from the engine before the degeneration step was shared between the
# genera, when text and json were printed as trees; the text and json
# digests since they emit each node once.  The capacity case was pinned
# whole when that rule was added.  The elliptic P^2 case was re-pinned
# whole when P^2 and P^3 type IIb came to share one evaluator: each IIb
# term gained the P^1 hyperplane factor (count 1) that its IIplain and
# IIa terms already had, and every count stayed the same.  The elliptic
# P^3 quartic was pinned from the engine before a term group's share of
# its term came to be worked out from the group's counts instead of
# carried as a divisor: its type IIb terms have d0 = 2 and two or three
# groups, so a wrong split between groups changes the digests.  It is
# pinned without its unfolded digests, as its tree unfolds to gigabytes.
# A change to any of these is a change to how counts are assembled or
# shown, and re-pins them on purpose.
GOLDEN = [
    (
        "elliptic P^2 d=4 through 12 points: IIa, IIb",
        Problem.make(1, 2, 4, {(1, 1): 4}, {0: 12}),
        {},
        (
            "9ca7f10540df11e37fda95488c1f387d063290ec4fb9c8f2c78b45791a2eb7bb",
            "4ef094439559d919dbc0b39baa3aa334267ddb56da350ddd82a313ff728f56f1",
            "636f16ab103c578744f15fccdcbed78e0add46237b903eac67943c3e34828284",
        ),
        (
            "2d7d245aa29a8306220fcc156374279c32dad8f61e0dbcbf315af3e26ff0536f",
            "7e3cc0c724144bd0597c492f96b486219419879280cb6b807b2eb6a90c36b19c",
        ),
    ),
    (
        "elliptic P^3 d=3 through 12 lines: IIb, IIc, z-evaluation, divisor axiom",
        Problem.make(1, 3, 3, {(1, 2): 3}, {1: 12}),
        {},
        (
            "5224dcbf39cab8a70ae6b3f5538c0b9327645859bf4fa13b358480609e940096",
            "9d1a4f5093045e2f9d107378ced701c0a1da4ea9cf64bdb62ce515b60341ffe7",
            "768f1b21e4e05391af1740529a625e73d3231626da0d097b1c90e708199240c7",
        ),
        (
            "6036d3df4cb1529f5621e8f0026dff0136ab77a197bd7a098b2b0c7ea69e8b20",
            "c5d1f693cbab068d79f19d28fae754049ece11e9ea30d6daa37dc0f5f138a130",
        ),
    ),
    (
        "elliptic P^3 d=4 through 16 lines: IIb with d0 = 2",
        Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16}),
        {},
        (
            "58e89f0528ac474d3764d410235297cf96d4ee9f48dae3f6bac43452212a484f",
            "f9602f4c8fae4297e0057b07b826e44527480dc0d579b7b852ed08f27c2fa7a6",
            "ba8c8245cdda3608d0ba14b86055c3fc677573a3fb7b0b9e11ef8e8cc9bb8e14",
        ),
        None,
    ),
    (
        "conics through 5 points and a line",
        Problem.make(0, 2, 2, {(1, 1): 2}, {0: 5, 1: 1}),
        {},
        (
            "bfbf3b6814529c1e400f233e9d3c2469539f997f5a788173e0315376f9fa0385",
            "3dd3dc7629fcc4cfc641056ae79af8abfaf270bd7ae5511f97d2769f3cf6a925",
            "76e3b0afe2e710604acd8069503f80f18f790dee9e1b41bd77c2d0e143828b00",
        ),
        (
            "4a53432a6489d27dba0349c66c4bfb49a46bba726af23c590fd534b1c0158798",
            "e8c8ce24bdfd047fb91c28b16216f225f78c1a0c8ff2708b41d60c9acd9630d6",
        ),
    ),
    (
        "conics through 5 points and a line, no divisor axiom",
        Problem.make(0, 2, 2, {(1, 1): 2}, {0: 5, 1: 1}),
        {"divisor_axiom": False},
        (
            "52ea8395a15cbeb55b6dd050f95272dc33b82e842d5c886ca45f5f0034d368a6",
            "ad82b4577d37426f007d594040b1423139aa30db8488772975d3c2e450d56038",
            "b23c7b85a3fd2c3ae1304baf6a36a77d7026ac6009c7b9c4f646728611834b92",
        ),
        (
            "f45ed813fcb33cb851674bd58377d77095bcf36dfea7f483925abf8e9d73b15d",
            "2c0e056e6590885f938ff240941d092415fba49220e57aa6205970cf6b898514",
        ),
    ),
    (
        "conics through 8 lines of P^3, min-e",
        Problem.make(0, 3, 2, {(1, 2): 2}, {1: 8}),
        {"order": "min-e"},
        (
            "80c5d080d238ffa48f23bdd5f0692395d7b2b0d007daaba010a6e97c6ed150ee",
            "bf7a92e40163137644c09d2ff493240f91b5c6b649aec566f23125c788c23fe4",
            "b964ebe998b65dc2456dd08c1ab7253b7168eb1e909be14ab33fe0ccbcd25ee9",
        ),
        (
            "30dbb8a61d6ee9ac2ba15ba42a978e47d94253251cbb52afa0d6eeb1e5ca4a10",
            "c065ad5bedd4f0a1db73b49f3503830add38de49e75064643c69a1bdd5196777",
        ),
    ),
    (
        "quartics through 11 points, D=p1+p2+p3+p4",
        ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4")),
        {},
        (
            "ef5685d68c10a3b61e764f54722824e799a674ce3aa4e004f2ea370df4b4fb9d",
            "da25823955cfeab41ef2a1230c7eb5a64288c087dba9b3bcfa74d974b87a8a4d",
            "6289f29b04bd769ae1e77492f2ff4554d7ae2d56a966e6f6a72efa84d0ecf285",
        ),
        (
            "37f9fbbc2d9fbfa203ec1bca116b3bd87022884c486688b3904aa25ce1a565ce",
            "4d68f36edabc9decb4f3fdef28a82b4a10013a8cd5722effe5a93999728d51c4",
        ),
    ),
    (
        "elliptic conics through 6 points: capacity",
        Problem.make(1, 2, 2, {(1, 1): 2}, {0: 6}),
        {},
        (
            "33db652ee85f9eea9ec1cee42632131b3eab3850327e64f67b83cedfe38d1153",
            "35479e2b2544779124f93f1628b7878809070c5b71336b0a64ce0e63a3fa8d47",
            "f3196216c2ec9e9fa348841b401e33d5923c488e25a181a72cb9af4d22d449f3",
        ),
        (
            "c39b46258b1c79da835cc6fdc8b498f47b0d0f7f3bf1844a27600d83a7a666cf",
            "6c7fd9df1a98f6cb99204c706bbed55dca3767887f1c6b1a9ad6ce7473d7009c",
        ),
    ),
    (
        "positive-dimensional leaf",
        Problem.make(0, 2, 2, {(1, 1): 2}, {0: 4}),
        {},
        (
            "8a88891a849254fd8d0beacede750ac3f2e0f140f086dc0a25bcaf55bf6fba08",
            "a7474da5e1ed54b7df69719250da753854403ab4b32bdda117694c3bad4b0a26",
            "bac9172b3159a23ad261c97896a6c583106204932b6700f4db14d16df5a7c520",
        ),
        (
            "de43da424f6718a03ec9134223181a52fd351715900ad4befa1562f361f11b31",
            "3458b42204d8d6ca4a416afeada34cd7f84d9a1ec6ad95e498e32e17f2fc1c50",
        ),
    ),
]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("label, problem, options, digests, unfolded", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_rendered_traces_are_pinned(label, problem, options, digests, unfolded):
    root = trace(problem, **options)
    text, obj, dot = render_text(root), render_json(root), render_dot(root)
    assert (_sha256(text), _sha256(obj), _sha256(dot)) == digests
    if unfolded is not None:
        assert (_sha256(unfold_text(text)), _sha256(unfold_json(obj))) == unfolded


def test_golden_traces_reach_every_rule_but_base_n1():
    reached = {node.rule for _, p, options, _, _ in GOLDEN for node in iter_nodes(trace(p, **options))}
    assert reached == set(RULES) - {"base-n1"}


DAG_CASES = [(label, problem, options) for label, problem, options, _, _ in GOLDEN] + [
    ("rational P^3 d=3 through 12 lines", Problem.make(0, 3, 3, {(1, 2): 3}, {1: 12}), {}),
]


@pytest.mark.parametrize("label, problem, options", DAG_CASES, ids=[c[0] for c in DAG_CASES])
def test_text_grows_with_the_dag(label, problem, options):
    root = trace(problem, **options)
    nodes = list(iter_nodes(root))
    entries = _parse_text(render_text(root))
    assert len(entries) == 1 + sum(len(node.children) for node in nodes)
    firsts = [k for _, _, _, _, k, first in entries if first]
    assert sorted(firsts) == list(range(len(nodes)))
    printed = set()
    for _, _, _, _, k, first in entries:
        if first:
            printed.add(k)
        else:
            assert k in printed


def test_elliptic_quartic_traces_stay_small():
    # curvecount trace -g 1 -n 3 -d 4 --lines 16: unfolded into a tree,
    # its json reached about 4.2 GB resident
    root = trace(Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16}))
    for render in (render_text, render_json):
        assert len(render(root).encode("utf-8")) < 1_000_000


ELLIPTIC_QUARTIC_LINES = Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16})


def test_a_traced_count_formats_each_problem_once(monkeypatch):
    # A problem keeps its text once formatted, so the engine's second
    # key of an expanded problem, the factor lookups of its terms and
    # every rendered line read it, and rendering formats nothing.
    formatted = []  # keeps every argument alive, so ids stay distinct
    for name in ("format_problem", "format_divisor"):
        original = getattr(problems, name)

        def spy(arg, original=original):
            formatted.append(arg)
            return original(arg)

        monkeypatch.setattr(problems, name, spy)
    root = trace(ELLIPTIC_QUARTIC_LINES)
    counted = len(formatted)
    texts = [render(root) for render in (render_text, render_json, render_dot)]
    assert len(formatted) == counted
    # a divisor is formatted only inside its ZProblem's key, and each
    # divisor-class problem here has its own divisor tuple
    assert Counter(type(arg) for arg in formatted).keys() == {Problem, tuple}
    repeats = [ident for ident, k in Counter(map(id, formatted)).items() if k > 1]
    assert repeats == []
    nodes = list(iter_nodes(root))
    assert len(formatted) >= len({memo_key(node.problem) for node in nodes}) > 100
    assert all(node.problem.key() in texts[0] for node in nodes)


EDGE_WEIGHT_CASES = [
    ("elliptic P^3 d=4 through 16 lines", ELLIPTIC_QUARTIC_LINES),
    ("elliptic P^2 d=4 through 12 points", Problem.make(1, 2, 4, {(1, 1): 4}, {0: 12})),
]


@pytest.mark.parametrize("label, problem", EDGE_WEIGHT_CASES, ids=[c[0] for c in EDGE_WEIGHT_CASES])
def test_edge_weights_match_the_per_group_formula(label, problem, monkeypatch):
    # terms_node adds each factor's weight up in integers; every edge
    # must equal the per-group Fraction sum it replaced, in value, type
    # and child order, on terms that split between several groups and
    # repeat a factor
    tracer = Tracer()
    original = Engine.terms_node
    seen = Counter()

    def spy(self, p, dim, total, terms, term_totals, default_rule):
        original(self, p, dim, total, terms, term_totals, default_rule)
        kept = [(term, t) for term, t in zip(terms, term_totals) if t]
        node = tracer.nodes[memo_key(p)]
        assert len(node.children) == len(kept)
        for (edge, term_node), ((rule, _, _, _, groups), t) in zip(node.children, kept):
            assert type(edge) is Fraction and edge == 1
            expected = term_edge_weights(t, groups)
            assert [(child.problem, w) for w, child in term_node.children] == expected
            assert all(type(w) is Fraction for w, _ in term_node.children)
            places = sum(len(factors) for _, factors in groups)
            seen[rule, "groups"] += len(groups) > 1
            seen["repeated"] += places > len(expected)
            seen["edges"] += len(expected)

    monkeypatch.setattr(Engine, "terms_node", spy)
    Engine(tracer=tracer).count(problem)
    assert seen["type-IIb", "groups"] > 0 and seen["repeated"] > 0
    assert seen["edges"] > 50


def test_edge_weights_of_groups_of_different_sizes():
    # Every term an expansion makes today has groups of one size (a IIb
    # term's groups each hold a middle problem and count_y's factors),
    # so this hand-built term checks the lcm of unequal sizes, with a
    # negative share and a factor repeated within a group.
    top, a, b, c = (Problem.make(0, 2, d, {(1, 1): d}, {0: 3 * d - 1}) for d in (4, 1, 2, 3))
    tracer = Tracer()
    for p, count in ((a, 2), (b, 3), (c, 5)):
        tracer.nodes[memo_key(p)] = TraceNode(p, 0, count, "seed")
    groups = [(1, [(a, 2)]), (-1, [(a, 2), (b, 3)]), (2, [(b, 3), (c, 5), (c, 5)])]
    terms = [("type-IIb", 1, 1, 146, groups), ("type-I", 1, 1, 2, [(1, [(a, 2)])])]
    Engine(tracer=tracer).terms_node(top, 0, 77, terms, [73, 4], "type-I")
    root = tracer.nodes[memo_key(top)]
    check_invariant(root)
    for (_, term), (t, (_, _, _, _, g)) in zip(root.children, [(73, terms[0]), (4, terms[1])]):
        assert [(child.problem, w) for w, child in term.children] == term_edge_weights(t, g)
    # a: 73/146 * (2/2 - 6/4), b: 73/146 * (-6/6 + 150/9), c: 73/146 * 2 * 150/15
    assert [w for w, _ in root.children[0][1].children] == [Fraction(-1, 4), Fraction(47, 6), Fraction(10)]
