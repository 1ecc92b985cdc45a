"""Exhaustive sweeps over small problem spaces.

Four facts checked cell by cell: there are no elliptic curves of
degree 1 or 2, so every zero-dimensional elliptic problem (W) and
divisor problem (Z) of those degrees counts 0; a rational curve of
degree d passes through at most points_on_curve(n, d) general points,
so every problem asking for more counts 0; every incidence-only
rational count agrees with the WDVV recursion of bench/oracle.py, which
never calls the engine (up to rational P^3 d=6 through 24 lines); and
where no oracle reaches, the elliptic P^3 counts of degree 3, and of
degree 4 with four free contacts, do not depend on which incidence
plane is specialized first, nor on the degeneration order.

The engine answers the first two facts without expanding a problem
(engine.beyond_capacity), so the zero sweeps hand their cells to the
expanders, genus0.expand_x, genus1.expand_w and fibration.expand_z:
the recursion's own 0 is checked, and the rule only answers the
smaller problems a cell reduces to.  The rule flags no problem with a
nonzero count, checked against the WDVV cells, the reference tables
and every record the frontier problems of the benchmark store when the
rule is off.  The engine also cuts degeneration shapes on those facts
before counting them, and the memo store of a count holds no problem
the rule flags; test_dead_shapes_are_cut_before_counting reads that
off the store, and test_memo_store_keeps_its_records_and_their_order
pins seven stores record for record, in the order they were counted.
"""

import hashlib
import importlib
import itertools
import sys
from collections import Counter
from pathlib import Path

import pytest

from curvecount import Engine, Problem, ZProblem, engine, fibration, genus0, genus1, parse_problem, table_rows
from curvecount.engine import beyond_capacity, check_all_orders, memo_key, unmarked
from curvecount.fibration import expand_z
from curvecount.genus0 import expand_x
from curvecount.genus1 import expand_w
from curvecount.partitions import points_on_curve
from curvecount.problems import dim_w, dim_x, dim_z, parse_divisor, validate, validate_z
from curvecount.tables import TABLES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tangency_vectors(n, d):
    """Every tangency vector of P^n whose contacts add up to d."""
    keys = [(m, e) for m in range(1, d + 1) for e in range(n)]

    def rec(j, left):
        if left == 0:
            yield {}
        elif j < len(keys):
            m, e = keys[j]
            for c in range(left // m + 1):
                for rest in rec(j + 1, left - m * c):
                    yield {(m, e): c, **rest} if c else rest

    yield from rec(0, d)


def _incidence_vectors(n, weight):
    """Every incidence vector on slots 0..n-2 of total weight
    sum((n-1-e) * c) = weight."""

    def rec(e, left):
        if e == n - 1:
            if left == 0:
                yield {}
            return
        w = n - 1 - e
        for c in range(left // w + 1):
            for rest in rec(e + 1, left - w * c):
                yield {e: c, **rest} if c else rest

    if weight >= 0:
        yield from rec(0, weight)


def _w_cells():
    """Zero-dimensional elliptic problems of degree 1-2 over P^2 and
    P^3: every tangency vector, at most one hyperplane marker (e = n-1)
    and at most two free markers (e = n), the rest on slots 0..n-2."""
    for n, d in itertools.product((2, 3), (1, 2)):
        for h in _tangency_vectors(n, d):
            for hyps, free in itertools.product((0, 1), (0, 1, 2)):
                weight = (n + 1) * d - sum((n + m - e - 2) * c for (m, e), c in h.items()) + free
                for i in _incidence_vectors(n, weight):
                    p = validate(Problem.make(1, n, d, h, {**i, n - 1: hyps, n: free}))
                    assert dim_w(p) == 0
                    yield p


def _z_cells():
    """Zero-dimensional divisor problems of degree 1-2 over P^2 and P^3
    with at most one hyperplane marker, the divisor putting a
    coefficient in -1..d on each of the first four markers."""
    cells = set()
    for n, d in itertools.product((2, 3), (1, 2)):
        for hyps in (0, 1):
            for i in _incidence_vectors(n, (n + 1) * d - 1):
                i = {**i, n - 1: hyps}
                markers = [(e, k) for e in sorted(i) for k in range(1, i[e] + 1)][:4]
                for coeffs in itertools.product(range(-1, d + 1), repeat=len(markers)):
                    if sum(coeffs) == d:
                        divisor = [(c, e, k) for c, (e, k) in zip(coeffs, markers)]
                        z = validate_z(ZProblem.make(n, d, i, divisor))
                        assert dim_z(z) == 0
                        cells.add(z)
    return sorted(cells, key=str)


def test_no_elliptic_curves_of_degree_below_three():
    eng = Engine()
    cells = list(_w_cells())
    assert len(cells) == 322
    assert all(beyond_capacity(p) for p in cells)
    assert [p for p in cells if expand_w(eng, p)] == []


def test_no_divisor_class_counts_of_degree_below_three():
    eng = Engine()
    cells = _z_cells()
    assert len(cells) == 478
    assert all(beyond_capacity(z) for z in cells)
    assert [z for z in cells if expand_z(eng, z)] == []


def _over_capacity_cells():
    """Zero-dimensional rational problems of degree 1-4 over P^2, P^3
    and P^4 through one or two points more than points_on_curve allows:
    every tangency vector, 0-2 line markers (n >= 3), at most one
    hyperplane marker, and the free markers (e = n) that make the
    problem zero-dimensional."""
    for n, d in itertools.product((2, 3, 4), range(1, 5)):
        cap = points_on_curve(n, d)
        for h in _tangency_vectors(n, d):
            for extra, lines, hyps in itertools.product((1, 2), range(3 if n >= 3 else 1), (0, 1)):
                i = {0: cap + extra, n - 1: hyps}
                if n >= 3:
                    i[1] = lines
                free = -dim_x(Problem.make(0, n, d, h, i))
                if free >= 0:
                    p = validate(Problem.make(0, n, d, h, {**i, n: free}))
                    assert dim_x(p) == 0
                    yield p


def test_no_rational_curves_through_more_points_than_their_capacity():
    eng = Engine()
    cells = list(_over_capacity_cells())
    assert len(cells) == 3124
    assert all(beyond_capacity(p) for p in cells)
    assert [p for p in cells if expand_x(eng, p)] == []


def test_capacity_rule_is_the_plain_one_on_a_grid():
    # beyond_capacity on every degree and point count of a small grid,
    # against the plain rule: a curve of degree d moves in a family of
    # dimension (n+1)*d, plus n - 3 when rational, and each point costs
    # n - 1, so more than the family affords counts 0; there are no
    # elliptic curves of degree 1 or 2, and elliptic and divisor
    # problems are judged over P^3 and below only.  Over P^1 a point
    # costs nothing, so no point count is too many.
    verdicts = Counter()
    for n, d in itertools.product(range(1, 5), range(1, 9)):
        for points in range(3 * d + 4):
            i = ((0, points),) if points else ()
            for p in (Problem(0, n, d, (), i), Problem(1, n, d, (), i), ZProblem(n, d, i)):
                if isinstance(p, Problem) and p.genus == 0:
                    plain = points * (n - 1) > (n + 1) * d + n - 3
                else:
                    plain = n <= 3 and (d <= 2 or points * (n - 1) > (n + 1) * d)
                assert beyond_capacity(p) == plain, p
                verdicts[type(p).__name__, getattr(p, "genus", None), plain] += 1
    assert len(verdicts) == 6 and min(verdicts.values()) > 30, verdicts


def _record_problem(key):
    """The problem a memo record counts.  A fibration pairing (QQ, HQ,
    HH, HMQ, SS) gives its family's divisor problem without a divisor,
    which is all beyond_capacity reads of it."""
    family, _, text = key.partition("|")
    if family in ("X", "W"):
        return parse_problem(text)
    fields = dict(field.split("=", 1) for field in text.split())
    i = {} if fields["i"] == "-" else dict(map(int, e.split(":")) for e in fields["i"].split(";"))
    return ZProblem.make(int(fields["n"]), int(fields["d"]), i)


# The frontier problems of the benchmark (bench/workloads.py).
FRONTIER = [
    Problem.make(0, 3, 5, {(1, 2): 5}, {1: 20}),
    Problem.make(0, 2, 7, {(1, 1): 7}, {0: 20}),
    Problem.make(0, 4, 3, {(1, 3): 3}, {1: 8}),
    Problem.make(0, 4, 4, {(1, 3): 4}, {1: 10, 2: 1}),
    Problem.make(1, 3, 5, {(1, 2): 5}, {1: 20}),
    Problem.make(1, 2, 7, {(1, 1): 7}, {0: 21}),
]


def test_problems_built_from_canonical_vectors_equal_their_make(monkeypatch):
    # genus0.settle's child, the elliptic side of fibration._pairing and
    # the component in H genus0.count_y builds, a curve problem or for
    # genus1.count_yc a divisor-class problem, are built from vectors
    # already canonical (the parent's less slot n - 1, a sub-vector row,
    # and the markers' nonzero slots in order with a divisor built in
    # order), without make.  Each must be the problem make builds from
    # the same vectors, or the memo key and the count would be another
    # problem's.
    built = Counter()

    class Spy:
        make = staticmethod(Problem.make)

        def __new__(cls, genus, n, d, h, i):
            made = Problem(genus, n, d, h, i)
            assert made == Problem.make(genus, n, d, {(m, e): c for m, e, c in h}, i), made
            built[sys._getframe(1).f_code.co_name, "Problem"] += 1
            return made

    class ZSpy:
        def __new__(cls, n, d, i, divisor):
            made = ZProblem(n, d, i, divisor)
            assert made == ZProblem.make(n, d, i, divisor), made
            built[sys._getframe(1).f_code.co_name, "ZProblem"] += 1
            return made

    monkeypatch.setattr(genus0, "Problem", Spy)
    monkeypatch.setattr(fibration, "Problem", Spy)
    monkeypatch.setattr(genus0, "ZProblem", ZSpy)
    for p in FRONTIER:
        assert Engine().count(p)
    # compute is _pairing's
    assert set(built) == {
        ("settle", "Problem"), ("compute", "Problem"), ("count_y", "Problem"), ("count_y", "ZProblem")
    }
    # _pairing builds each elliptic side once per Engine, n and row
    # (Engine.fibers): 28 rows here, built 756 times while each pairing
    # built its own.  count_y builds a rational component in H once per
    # pin, and a divisor-class one per IIc shape.
    assert built["compute", "Problem"] == 28
    assert min(built["settle", "Problem"], built["count_y", "Problem"], built["count_y", "ZProblem"]) > 100, built


# h_points this low leaves every shape of a walk within the room of
# its component in H
_UNCAPPED = -(10**9)


def test_capacity_rule_flags_only_zero_counts(monkeypatch):
    # with the rule off, every problem is expanded and stored; the IIc
    # walk, which cuts the shapes whose divisor-class problem the rule
    # flags, is uncapped, so those problems are counted too.  count_y
    # hands them to expand_z, which stores none, so a spy keeps them.
    real_walk, real_z = genus1.type2_partitions, fibration.expand_z
    handed = []

    def walk(d, h_pool, i_pool, tails, e_lift, d0_min=1, h_points=0):
        return real_walk(d, h_pool, i_pool, tails, e_lift, d0_min, _UNCAPPED if d0_min == 3 else h_points)

    def spy_z(eng, z, *args):
        value = real_z(eng, z, *args)
        handed.append((memo_key(z), value))
        return value

    monkeypatch.setattr(engine, "beyond_capacity", lambda problem: False)
    monkeypatch.setattr(genus1, "type2_partitions", walk)
    monkeypatch.setattr(fibration, "expand_z", spy_z)
    eng = Engine()
    for p in FRONTIER:
        assert eng.count(p)
    # the problem of every table row is one of the records
    rows = [row for name in TABLES for row in table_rows(name, eng)]
    assert len(rows) == 151 and all(row.status != "FAIL" for row in rows)
    counted = set(eng.store.items()) | set(handed)
    flagged = [(key, value) for key, value in counted if beyond_capacity(_record_problem(key))]
    # 1,133, most of them from elliptic P^3 d=5: as many as while each
    # divisor-class problem was a record
    assert len(flagged) > 1000, len(flagged)
    assert [key for key, value in flagged if value] == []


def test_dead_shapes_are_cut_before_counting():
    for p, value, size in (
        # 2,327 records while the engine expanded and stored such problems,
        # 1,064 before P^2 type IIb built its P^1 hyperplane problems,
        # 1,066 while each IIc divisor-class problem left a record
        (Problem.make(1, 3, 5, {(1, 2): 5}, {1: 20}), 2583319387968 * 120, 820),
        (Problem.make(0, 3, 5, {(1, 2): 5}, {1: 20}), 6089786376960 * 120, 189),
        (Problem.make(0, 4, 4, {(1, 3): 4}, {1: 10, 2: 1}), 63740 * 24, 215),
    ):
        eng = Engine()
        assert eng.count(p) == value
        records = [key for key, _ in eng.store.items()]
        assert len(records) == size, p
        assert [key for key in records if beyond_capacity(_record_problem(key))] == [], p


def test_memo_store_keeps_its_records_and_their_order():
    # The sha256 of the store's records in insertion order: the
    # recursion counts the same problems in the same order, so a change
    # that counts a component in H before a zero tail, or reorders the
    # counts, shows here though every value stays the same.  The
    # elliptic P^3 stores held 431, 238, 1,066 and 2,507 records while
    # each IIc divisor-class problem left a Z record and read every
    # pairing its marker pairs named.
    for p, size, digest in (
        (Problem.make(0, 3, 5, {(1, 2): 5}, {1: 20}), 189,
         "c50f03bcf73057395834ac1c2e86cb9bf6c22d30b8c3f8479aa923025ce91a8d"),
        (Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16}), 381,
         "7768319236b22c397665be0b2cd1c8c6be76ded98b9bf056458aeee33acafb34"),
        # point markers, which the split-off point cut and the broken
        # fibers of the pairings (the divisor-class problem) reach
        (Problem.make(1, 2, 6, {(1, 1): 6}, {0: 18}), 145,
         "bc7b8b2718c37e8d575439e62e265783c82dcc3d158378773a23fbdd926c05c4"),
        (parse_problem("g=1 n=3 d=4 h=1,2:4 i=0:2;1:12"), 224,
         "9bab504454054d5c6d60d21b800bb244624cc70ed66cb892a1c08348b18b604a"),
        (ZProblem.make(2, 5, {0: 14, 1: 1}, parse_divisor("p1+p2+p3+p4+l1")), 104,
         "e13f57b52cd3e92a03afe5ae4b7d00234a437ae2aa1f76a864cdf2886ea3af6d"),
        # the benchmark's slowest elliptic count, types IIa, IIb and IIc
        # with the pairings of the divisor-class problems' bases
        (Problem.make(1, 3, 5, {(1, 2): 5}, {1: 20}), 820,
         "b625d27386a39d1f52e5461f4ab7e0be7dce6c23adba434fa586cfc4288de4b8"),
        # the degree after it, where the split-off tables carry caps and
        # the IIc walk cuts the most
        (Problem.make(1, 3, 6, {(1, 2): 6}, {1: 24}), 1509,
         "707563bc7f694639af01bd368dc679788e204f5b59aee7112f477fea6ca2bbb9"),
    ):
        eng = Engine()
        eng.count(p)
        records = list(eng.store.items())
        assert len(records) == size, p
        assert hashlib.sha256(repr(records).encode()).hexdigest() == digest, p


def _elliptic_order_cells():
    """Zero-dimensional elliptic P^3 problems: degree 3 with every
    tangency vector, and degree 4 with four free contacts, with points
    and lines filling the dimension."""
    for d, vectors in ((3, _tangency_vectors(3, 3)), (4, [{(1, 2): 4}])):
        for h in vectors:
            weight = 4 * d - sum((1 + m - e) * c for (m, e), c in h.items())
            for i in _incidence_vectors(3, weight):
                p = validate(Problem.make(1, 3, d, h, i))
                assert dim_w(p) == 0
                yield p


def test_elliptic_space_counts_do_not_depend_on_the_order():
    # both orders and every first slot, each with a fresh memo store
    cells = counted = 0
    for p in _elliptic_order_cells():
        reference = Engine().count(p)
        check_all_orders(p, reference)
        cells += 1
        counted += reference != 0
    assert (cells, counted) == (116 + 9, 79)


@pytest.fixture
def oracle():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("oracle")
    finally:
        sys.path.remove(str(BENCH))


def _wdvv_cells():
    """Zero-dimensional incidence-only rational problems: P^2 d <= 7,
    P^3 d <= 4, P^4 d <= 3, with and without one hyperplane marker."""
    for n, d_max in ((2, 7), (3, 4), (4, 3)):
        for d, hyps in itertools.product(range(1, d_max + 1), (0, 1)):
            for i in _incidence_vectors(n, (n + 1) * d + n - 3):
                p = Problem.make(0, n, d, {(1, n - 1): d}, {**i, n - 1: hyps})
                assert dim_x(p) == 0
                yield p


def test_incidence_only_rational_counts_match_wdvv(oracle):
    eng = Engine()
    cells = 0
    for p in _wdvv_cells():
        expected = oracle.gw_invariant(p.n, p.d, oracle.incidence_codims(p))
        assert unmarked(eng.count(p), p) == expected, p
        cells += 1
    assert cells == 168


def test_rational_space_frontier_counts_match_wdvv(oracle):
    # rational quintics through 20 lines, sextics through 24 lines,
    # septics through 28 lines and octics through 32 lines of P^3, the
    # enumeration-bound end of the rational recursion
    for d, expected in (
        (5, 6089786376960),
        (6, 244274488980962304),
        (7, 20812135703772685676544),
        (8, 3344836691230344061543710720),
    ):
        p = Problem.make(0, 3, d, {(1, 2): d}, {1: 4 * d})
        assert oracle.gw_invariant(3, d, oracle.incidence_codims(p)) == expected
        assert unmarked(Engine().count(p), p) == expected


def test_elliptic_space_sextics_through_24_lines_are_pinned():
    # The degree after the benchmark's elliptic quintics.  The value is
    # seed-only, the engine's own, as no oracle here reaches it; the
    # store size shows a change in the work before a change in the value
    # (2,507 records while each IIc divisor-class problem left one).
    p = Problem.make(1, 3, 6, {(1, 2): 6}, {1: 24})
    eng = Engine()
    assert unmarked(eng.count(p), p) == 228804132309160320
    assert len(list(eng.store.items())) == 1509


def test_elliptic_space_septics_through_28_lines_are_pinned():
    # Seed-only like the sextics, taken before the IIc walk was capped
    # and the split-off tables of degree below 3 carried a cap; about
    # 1.5 s.  6,097 records while each IIc divisor-class problem left one.
    p = Problem.make(1, 3, 7, {(1, 2): 7}, {1: 28})
    eng = Engine()
    assert unmarked(eng.count(p), p) == 35972234525219461770240
    assert len(list(eng.store.items())) == 2566


def test_elliptic_space_quintics_do_not_depend_on_the_divisor_axiom():
    # With the axiom off, a marker on a general hyperplane stays in the
    # problem and goes through the degenerations with the others instead
    # of trading for a factor of the degree, so the count passes through
    # 1,559 records instead of 820 (1,805 and 1,066 while each IIc
    # divisor-class problem left a record).  Equal counts check the axiom
    # against the degeneration rules, not the rules themselves, which
    # both runs share.
    p = Problem.make(1, 3, 5, {(1, 2): 5}, {1: 20})
    sizes = []
    for axiom in (True, False):
        eng = Engine(divisor_axiom=axiom)
        assert unmarked(eng.count(p), p) == 2583319387968
        sizes.append(len(list(eng.store.items())))
    assert sizes == [820, 1559]


def test_capacity_rule_flags_no_wdvv_cell_with_curves(oracle):
    cells = list(_wdvv_cells())
    counted = [p for p in cells if oracle.gw_invariant(p.n, p.d, oracle.incidence_codims(p))]
    assert len(cells) == 168 and counted
    assert [p for p in counted if beyond_capacity(p)] == []
