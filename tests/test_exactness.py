"""Exactness checks are ordinary raises: they hold under ``python -O``
and end a CLI run with exit code 4, not with a truncated count.  Each
check divides ints, and each is reached here by an int fault: a divisor
patched to a large prime that divides no count.  An untraced count does
all its arithmetic in ints and builds no Fraction and no trace node."""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import curvecount
from curvecount import (
    Engine,
    InexactCount,
    Problem,
    ZProblem,
    parse_divisor,
    parse_problem,
    render_dot,
    render_json,
    render_text,
    trace,
)
from curvecount import fibration, genus0
from curvecount.cli import main
from curvecount.engine import check_all_orders, memo_key, unmarked
from curvecount.genus0 import tail_problem
from curvecount.genus1 import count_yb
from curvecount.partitions import bump
from curvecount.trace import TraceNode, Tracer
from test_trace import GOLDEN, _sha256

SRC = str(Path(curvecount.__file__).resolve().parent.parent)

# elliptic space cubics through 12 lines, a case with a pinned trace
GOLDEN_ELLIPTIC = Problem.make(1, 3, 3, {(1, 2): 3}, {1: 12})

SAMPLE = [
    "Problem.make(0, 3, 3, {(1, 2): 3}, {1: 12})",
    "Problem.make(0, 3, 2, {(2, 2): 1}, {1: 7})",
    "Problem.make(0, 2, 4, {(1, 1): 4}, {0: 11})",
    "Problem.make(1, 3, 3, {(1, 2): 3}, {1: 12})",
    "Problem.make(1, 2, 4, {(1, 1): 4}, {0: 12})",
    "Problem.make(1, 3, 4, {(1, 2): 2, (1, 1): 1, (1, 0): 1}, {1: 6, 0: 2})",
    "ZProblem.make(2, 4, {0: 11}, parse_divisor('p1+p2+p3+p4'))",
    "ZProblem.make(2, 3, {0: 8, 1: 1}, parse_divisor('3*l1'))",
    # roots that engine.beyond_capacity answers without expanding them
    "Problem.make(1, 2, 2, {(1, 1): 2}, {0: 6})",
    "Problem.make(0, 3, 2, {(1, 2): 2}, {0: 5, 3: 2})",
]


def test_package_has_no_assert_statement():
    # python -O strips assert statements, so a check written as one
    # would silently stop guarding the counts
    paths = sorted(Path(SRC, "curvecount").glob("*.py"))
    assert len(paths) >= 12
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _optimized(*args):
    """Run the interpreter with -O (assert statements stripped) on the
    package from this source tree."""
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": ""},
        timeout=300,
    )


def test_counts_under_python_O_match_plain_runs():
    code = "import sys\n"
    code += "from curvecount import Engine, Problem, ZProblem, parse_divisor\n"
    code += "print(sys.flags.optimize)\n"
    code += "eng = Engine()\n"
    code += "".join(f"print(eng.count({expr}))\n" for expr in SAMPLE)
    res = _optimized("-c", code)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.split()
    assert lines[0] == "1"
    eng = Engine()
    plain = [str(eng.count(eval(expr))) for expr in SAMPLE]
    assert lines[1:] == plain
    assert (plain[0], plain[1], plain[6]) == ("480960", "116", "62")


def test_capacity_trace_under_python_O():
    p = Problem.make(1, 2, 2, {(1, 1): 2}, {0: 6})
    res = _optimized("-m", "curvecount", "trace", "-g", "1", "-n", "2", "-d", "2", "--points", "6")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == render_text(trace(p)) + "\n"
    assert res.stdout.endswith("[capacity] #0\n")


def test_check_all_orders_zcount_under_python_O():
    res = _optimized(
        "-m", "curvecount", "zcount", "-n", "2", "-d", "3", "--points", "8", "--lines", "1",
        "--divisor", "p1+p2+l1", "--check-all-orders",
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, "1\n", "")


@pytest.mark.parametrize(
    "patch, argv",
    [
        pytest.param(
            "real = genus0.type2_partitions\n"
            "genus0.type2_partitions = lambda *args: ((parts, ways, 1000003, *kept) for parts, ways, _, *kept in real(*args))",
            ["count", "-n", "3", "-d", "2", "--lines", "8"],
            id="non-integral-term",
        ),
        pytest.param(
            "genus0.factorial = lambda k: 1000003",
            ["count", "-n", "3", "-d", "2", "--lines", "8"],
            id="hyperplane-relabelings",
        ),
        pytest.param(
            "fibration.factorial = lambda k: 1000003",
            ["zcount", "-n", "2", "-d", "4", "--points", "11", "--divisor", "p1+p2+p3+p4"],
            id="free-contact-relabelings",
        ),
        # section self-intersections that depend on the slot
        (
            "real = fibration.hyp_minus_sec\n"
            "fibration.hyp_minus_sec = lambda eng, z, e, *base: real(eng, z, e, *base) + e",
            ["zcount", "-n", "2", "-d", "3", "--points", "8", "--lines", "1",
             "--divisor", "p1+p2+l1", "--check-all-orders"],
        ),
        # the same two checks reached through a type IIc factor, which
        # count_y hands to fibration.expand_z without Engine.counted
        pytest.param(
            "real = fibration.hyp_self\n"
            "fibration.hyp_self = lambda eng, z, *base: real(eng, z, *base) + 1",
            ["count", "-g", "1", "-n", "3", "-d", "4", "--lines", "16"],
            id="odd-divisor-self-intersection-in-type-IIc",
        ),
        pytest.param(
            "real = fibration.hyp_minus_sec\n"
            "fibration.hyp_minus_sec = lambda eng, z, e, *base: real(eng, z, e, *base) + e",
            ["count", "-g", "1", "-n", "3", "-d", "4", "--lines", "16"],
            id="slot-dependent-self-intersection-in-type-IIc",
        ),
    ],
)
def test_exactness_failure_exits_4_under_python_O(patch, argv):
    code = "import sys\n"
    code += "from curvecount import fibration, genus0\n"
    code += "from curvecount.cli import main\n"
    code += patch + "\n"
    code += f"sys.exit(main({argv!r}))\n"
    res = _optimized("-c", code)
    assert res.returncode == 4, res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith("error: internal exactness check failed:")
    assert "Traceback" not in res.stderr


def _odd_automorphisms(monkeypatch):
    """Make every rational type II shape divide its weight by 1000003,
    an automorphism order no term's numerator is a multiple of."""
    real = genus0.type2_partitions

    def walk(*args):
        for parts, ways, _, *kept in real(*args):
            yield parts, ways, 1000003, *kept

    monkeypatch.setattr(genus0, "type2_partitions", walk)


def test_non_integral_term_raises(monkeypatch):
    # a term's divisor that does not divide its numerator times its value
    _odd_automorphisms(monkeypatch)
    with pytest.raises(InexactCount, match=r"non-integral type-IIplain term for .*: got \d+/1000003$"):
        Engine().count(Problem.make(0, 3, 2, {(1, 2): 2}, {1: 8}))


def test_hyperplane_relabelings_must_divide_the_count(monkeypatch):
    monkeypatch.setattr(genus0, "factorial", lambda k: 1000003)
    with pytest.raises(InexactCount, match=r"hyperplane-component relabelings must divide the count: got \d+/1000003$"):
        Engine().count(Problem.make(0, 3, 2, {(1, 2): 2}, {1: 8}))


def test_free_contact_relabelings_must_divide_a_pairing(monkeypatch):
    monkeypatch.setattr(fibration, "factorial", lambda k: 1000003)
    with pytest.raises(InexactCount, match=r"free-contact relabelings must divide the count: got -?\d+/1000003$"):
        Engine().count(ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4")))


def test_cli_maps_inexact_count_to_exit_4(monkeypatch, capsys):
    _odd_automorphisms(monkeypatch)
    assert main(["count", "-n", "3", "-d", "2", "--lines", "8"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal exactness check failed:")


def test_untraced_counts_build_no_fraction(monkeypatch):
    # rational P^3 d=4, elliptic P^3 d=4 (types IIa, IIb, IIc and the
    # fibration pairings) and d=3, elliptic P^2 d=5, and a divisor count
    problems = [
        (Problem.make(0, 3, 4, {(1, 2): 4}, {1: 16}), 9199365120),
        (Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16}), 1267968960),
        (GOLDEN_ELLIPTIC, 9000),
        (Problem.make(1, 2, 5, {(1, 1): 5}, {0: 15}), 10463040),
        (ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4")), 62),
    ]
    made, nodes = [], []
    real_new, real_init = Fraction.__new__, TraceNode.__init__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    def node_spy(self, *args, **kwargs):
        nodes.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    # the engine's node helpers record nodes only when tracing
    monkeypatch.setattr(TraceNode, "__init__", node_spy)
    assert [Engine().count(p) for p, _ in problems] == [value for _, value in problems]
    assert made == [] and nodes == []
    # a trace builds its nodes, and its edge weights as Fractions
    root = trace(GOLDEN_ELLIPTIC)
    assert made and nodes
    digests = next(digests for _, p, _, digests, _ in GOLDEN if p == GOLDEN_ELLIPTIC)
    assert (_sha256(render_text(root)), _sha256(render_json(root)), _sha256(render_dot(root))) == digests


def test_odd_divisor_self_intersection_raises(monkeypatch):
    real = fibration.hyp_self
    monkeypatch.setattr(fibration, "hyp_self", lambda eng, z, *base: real(eng, z, *base) + 1)
    with pytest.raises(InexactCount, match="must be even"):
        Engine().count(ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4")))


def test_divisor_checks_hold_in_a_type_iic_factor(monkeypatch):
    # count_y hands a IIc factor to expand_z directly, past
    # Engine.counted; the parity and slot checks still run there
    p = Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16})
    real_hh, real_hmq = fibration.hyp_self, fibration.hyp_minus_sec
    with monkeypatch.context() as patch:
        patch.setattr(fibration, "hyp_self", lambda eng, z, *base: real_hh(eng, z, *base) + 1)
        with pytest.raises(InexactCount, match="must be even"):
            Engine().count(p)
    with monkeypatch.context() as patch:
        patch.setattr(fibration, "hyp_minus_sec", lambda eng, z, e, *base: real_hmq(eng, z, e, *base) + e)
        with pytest.raises(InexactCount, match="differs by slot"):
            Engine().count(p)


def test_slot_dependent_self_intersection_raises_when_checked(monkeypatch):
    real = fibration.hyp_minus_sec
    monkeypatch.setattr(fibration, "hyp_minus_sec", lambda eng, z, e, *base: real(eng, z, e, *base) + e)
    z = ZProblem.make(2, 3, {0: 8, 1: 1}, parse_divisor("p1+p2+l1"))
    with pytest.raises(InexactCount, match="differs by slot"):
        Engine().count(z)


def test_unpinnable_component_is_an_internal_fault():
    # A line of P^3 with its attachment free on H moves in 4 dimensions:
    # 4 lines make it rigid with the attachment anywhere on H (delta 0),
    # while 5 lines or none leave no plane of H that makes it rigid.
    child = tail_problem(3, 1, (), ((1, 4),), 1, 0)
    assert child == Problem.make(0, 3, 1, {(1, 2): 1}, {1: 4})
    for lines, delta in ((((1, 5),), -1), ((), 4)):
        with pytest.raises(AssertionError, match="cannot be pinned"):
            tail_problem(3, 1, (), lines, 1, delta)
    # the doubly-attached component of a IIb term likewise: a conic with
    # both contacts free on H and no incidence keeps 8 degrees of freedom
    with pytest.raises(AssertionError, match="doubly-attached component of freedom 8"):
        count_yb(Engine(), 3, 1, {(1, 2): 1}, {1: 1}, (2, (), (), 2, 7), ())


def test_overdrawn_pool_is_an_internal_fault():
    assert bump({1: 2}, 1, -2) == {}
    assert bump({}, (1, 2), 3) == {(1, 2): 3}
    with pytest.raises(AssertionError, match="pool underflow"):
        bump({1: 1}, 1, -2)


def test_every_order_and_first_slot_agree():
    p = parse_problem("g=1 n=3 d=3 h=1,2:3 i=0:1;1:10")
    assert Engine.admissible_slots(p) == [0, 1]
    first_terms = set()
    for order in ("max-e", "min-e"):
        for slot in (0, 1):
            tracer = Tracer()
            assert Engine(order=order, tracer=tracer).count(p, slot) == 900
            root = tracer.nodes[memo_key(p)]
            first_terms.add(tuple(str(node.problem) for _, term in root.children for _, node in term.children))
    # the first slot, not the order, decides the first specialization
    assert len(first_terms) == 2
    check_all_orders(p, 900)
    with pytest.raises(InexactCount, match="gives 900, expected 901"):
        check_all_orders(p, 901)


def test_first_slot_must_be_admissible():
    p = parse_problem("g=1 n=3 d=3 h=1,2:3 i=0:1;1:10")
    # 1.0 equals slot 1 but is no integer: it is refused up front, not
    # deep in the count when a smaller problem is built from it
    for slot in (2, 3, -1, 1.0, "1"):
        with pytest.raises(ValueError, match="not admissible"):
            Engine().count(p, slot)
    assert Engine().count(p, True) == Engine().count(p, 1) == 900


def test_first_slot_is_checked_before_the_memo():
    # conics in P^3 through 8 lines have only slot 1 to specialize
    p = Problem.make(0, 3, 2, {(1, 2): 2}, {1: 8})
    eng = Engine()
    assert eng.count(p) == 184
    with pytest.raises(ValueError, match="slot 2 is not admissible"):
        eng.count(p, 2)
    assert eng.count(p, 1) == 184
    z = ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4"))
    assert eng.count(z) == 62
    with pytest.raises(ValueError, match="no first slot"):
        eng.count(z, 0)


def test_unmarked_division_must_be_exact():
    p = Problem.make(0, 3, 3, {(1, 2): 3}, {1: 12})
    assert unmarked(480960, p) == 80160
    with pytest.raises(InexactCount, match="marking factor 6 must divide 480961"):
        unmarked(480961, p)
