"""Elliptic curve counts: published values, the doubly-attached worked
example with its intersection-ring cross-check, and the genus
distribution rules."""

import itertools
import math
import sys
from collections import Counter, defaultdict

import pytest

from curvecount import Engine, Problem, UnsupportedProblem, ZProblem, fibration, genus0, genus1, partitions
from curvecount.engine import memo_key
from curvecount.genus0 import count_y, tail_problem
from curvecount.genus1 import count_yb
from curvecount.partitions import bump, components, points_on_curve
from curvecount.problems import parse_divisor
from curvecount.tables import table_rows
from oracles import E, H1, H2, BlowupClass, blowup_pair_product, getzler_elliptic_numbers


def _unmarked(eng, p):
    marked = eng.count(p)
    factor = 1
    for m, e, c in p.h:
        if e == p.n - 1:
            factor *= math.factorial(c)
    assert marked % factor == 0
    return marked // factor


def test_plane_cubics_through_nine_points():
    eng = Engine()
    p = Problem.make(1, 2, 3, {(1, 1): 3}, {0: 9})
    assert eng.count(p) == 6
    assert _unmarked(eng, p) == 1


def test_plane_quartics_through_twelve_points():
    eng = Engine()
    p = Problem.make(1, 2, 4, {(1, 1): 4}, {0: 12})
    assert eng.count(p) == 5400
    assert _unmarked(eng, p) == 225


def test_plane_counts_match_getzlers_recursion():
    # the IIa and IIb walks over P^2, whose pools the walk keeps free of
    # zero counts, against an oracle that runs no degeneration
    oracle = getzler_elliptic_numbers(8)
    assert [oracle[d] for d in range(1, 7)] == [0, 0, 1, 225, 87192, 57435240]
    for d in range(3, 9):
        p = Problem.make(1, 2, d, {(1, 1): d}, {0: 3 * d})
        assert _unmarked(Engine(), p) == oracle[d], d


def test_space_cubics_through_lines_and_points():
    eng = Engine()
    expected = {0: 1500, 1: 150, 2: 14, 3: 1}
    for j, value in expected.items():
        p = Problem.make(1, 3, 3, {(1, 2): 3}, {1: 12 - 2 * j, 0: j})
        assert _unmarked(eng, p) == value


def test_space_cubics_tangent_series():
    eng = Engine()
    expected = {0: 4740, 1: 498, 2: 50, 3: 4}
    for j, value in expected.items():
        p = Problem.make(1, 3, 3, {(2, 2): 1, (1, 2): 1}, {1: 11 - 2 * j, 0: j})
        assert _unmarked(eng, p) == value


def test_space_cubics_triple_contact_series():
    eng = Engine()
    expected = {0: 2790, 1: 306, 2: 33, 3: 3}
    for j, value in expected.items():
        p = Problem.make(1, 3, 3, {(3, 2): 1}, {1: 10 - 2 * j, 0: j})
        assert _unmarked(eng, p) == value


def test_quartic_space_curve_extremes():
    eng = Engine()
    assert _unmarked(eng, Problem.make(1, 3, 4, {(1, 2): 4}, {0: 8})) == 1
    assert _unmarked(eng, Problem.make(1, 3, 4, {(1, 2): 4}, {0: 7, 1: 2})) == 4


def test_ambient_beyond_three_is_unsupported():
    eng = Engine()
    with pytest.raises(UnsupportedProblem):
        eng.count(Problem.make(1, 4, 2, {(1, 3): 2}, {2: 10}))
    with pytest.raises(UnsupportedProblem):
        eng.count(Problem.make(1, 5, 1, {(1, 4): 1}, {3: 2}))


def test_positive_dimension_is_zero():
    eng = Engine()
    assert eng.count(Problem.make(1, 2, 3, {(1, 1): 3}, {0: 8})) == 0
    assert eng.count(Problem.make(1, 3, 3, {(1, 2): 3}, {1: 11})) == 0


def test_genus_one_divisor_axiom_flag_equivalence():
    on = Engine(divisor_axiom=True)
    off = Engine(divisor_axiom=False)
    for p in [
        Problem.make(1, 2, 3, {(1, 1): 3}, {0: 9, 1: 2}),
        Problem.make(1, 3, 3, {(1, 2): 3}, {1: 12, 2: 1}),
    ]:
        assert on.count(p) == off.count(p)


def test_genus_one_order_independence():
    maxe = Engine(order="max-e")
    mine = Engine(order="min-e")
    for p in [
        Problem.make(1, 3, 3, {(1, 2): 3}, {1: 10, 0: 1}),
        Problem.make(1, 3, 4, {(1, 2): 4}, {1: 4, 0: 6}),
        Problem.make(1, 2, 4, {(1, 1): 4}, {0: 12}),
    ]:
        assert maxe.count(p) == mine.count(p)


# The doubly-attached worked instance: inside the count of elliptic
# space cubics through 12 lines, a conic meets the hyperplane component
# (a line in H) at two points.  Splitting its double contact 1+1 gives
# the ordered count 68 and the symmetrized count 34: count_yb gives
# the former, weighted m11 * m12 for its one split, and the IIb term
# divides it by 2.
WORKED_H0 = {(1, 0): 1, (1, 1): 2}
WORKED_I0 = {2: 1}
WORKED_PART1 = (2, (), ((1, 7),), 2, 0)


def test_doubly_attached_worked_example():
    eng = Engine()
    value, groups = count_yb(eng, 3, 1, WORKED_H0, WORKED_I0, WORKED_PART1, ())
    assert value == 68
    # the trace bookkeeping carries the same total
    assert sum(c * math.prod(v for _, v in fac) for c, fac in groups) == 68


def test_worked_example_bracket_pieces():
    eng = Engine()
    va = eng.counted(Problem.make(0, 3, 2, {(1, 1): 1, (1, 2): 1}, {1: 7}))
    vb = eng.counted(Problem.make(0, 3, 2, {(1, 2): 1, (1, 1): 1}, {1: 7}))
    vc = eng.counted(Problem.make(0, 3, 2, {(2, 2): 1}, {1: 7}))
    assert (va, vb, vc) == (92, 92, 116)
    assert 1 * (va + vb) - vc == 68


def test_worked_example_chow_kernel():
    """The ordered pair of attachment points sweeps a curve in the
    blown-up pair space; pairing its class against the locus of pairs
    collinear with the base line reproduces the bracket."""
    eng = Engine()
    va = eng.counted(Problem.make(0, 3, 2, {(1, 1): 1, (1, 2): 1}, {1: 7}))
    vc = eng.counted(Problem.make(0, 3, 2, {(2, 2): 1}, {1: 7}))
    d0 = 1
    kernel = d0 * (H1 + H2) - E
    family = va * (H1 * H1 * H2) + va * (H1 * H2 * H2) - vc * (E * H1 * H2)
    paired = blowup_pair_product(kernel, family)
    assert paired == 68
    assert paired == count_yb(eng, 3, 1, WORKED_H0, WORKED_I0, WORKED_PART1, ())[0]


def test_rigid_case_gives_marked_conics():
    # when the conic is fully pinned the two contact points are free on
    # H and the ordered count is the plain marked conic count, which the
    # IIb term halves for the one 1+1 split
    eng = Engine()
    rigid, _ = count_yb(eng, 3, 1, {(1, 1): 3}, {2: 1}, (2, (), ((1, 8),), 2, -1), ())
    assert rigid == 184


def test_two_freedoms_case_keeps_the_base_degree_factor():
    # base degree 2: each choice of attachment point on the base curve
    # contributes a factor of its degree, which separates the engine's
    # normalization from dropping one of them
    eng = Engine()
    va = eng.counted(Problem.make(0, 3, 2, {(1, 1): 2}, {0: 3}))
    vb = eng.counted(Problem.make(0, 3, 2, {(2, 1): 1}, {0: 3}))
    yval, _ = count_y(eng, 3, 2, {(1, 0): 4}, {1: 1}, ())
    assert (va, vb, yval) == (1, 1, 1)
    ordered, _ = count_yb(eng, 3, 2, {(1, 0): 4}, {1: 1}, (2, (), ((0, 3),), 2, 1), ())
    assert ordered == 2 * (2 * va - vb) * yval == 2
    assert ordered != (2 * va - vb) * yval


def test_split_point_symmetry():
    # a cubic through 11 lines attached with contacts 1+2 and 2+1: both
    # splits weigh 1 * 2 = 2 and count the same
    eng = Engine()
    value, groups = count_yb(eng, 3, 1, {(1, 1): 3}, {2: 1}, (3, (), ((1, 11),), 3, -1), ())
    one, two = (c * math.prod(v for _, v in fac) for c, fac in groups)
    assert one == two == 268800
    assert value == 537600


def test_blowup_ring_relations():
    h1h2 = H1 * H2
    assert blowup_pair_product(h1h2, h1h2) == 1
    assert (E * E * h1h2).coeffs == {(2, 2, 0): -1}
    # e restricted to the exceptional locus: e^2 reduction
    lhs = E * E
    rhs = 3 * (H1 * E) - H1 * H1 - H1 * H2 - H2 * H2
    assert lhs == rhs
    assert H1 * H1 * H1 == BlowupClass()
    # the two hyperplane pullbacks agree on the exceptional divisor
    assert H1 * E == H2 * E


def test_blowup_product_must_be_top_dimensional():
    with pytest.raises(ValueError):
        blowup_pair_product(H1, H2)


def _line_h_closed_form(eng, d0, h0, i0, part1, tails):
    """Type IIb count over P^2 from the line H alone: the hyperplane
    component must be H itself (d0 = 1), which carries no marker free
    on it (i0 on slot 2) and no contact free on H (h0 on slot 1); then
    both contacts attach at free points of H, and each ordered split
    (m11, m12) counts m11 * m12 times the middle component's count
    times the pinned tails'."""
    if d0 != 1:
        return "d0", 0
    if i0.get(2, 0) or any(e == 1 for _, e in h0):
        return "free marker on H", 0
    db, hb, ib, m1, _ = part1
    mids = sum(
        m11 * (m1 - m11)
        * eng.counted(Problem.make(0, 2, db, bump(bump(hb, (m11, 1)), (m1 - m11, 1)), ib))
        for m11 in range(1, m1)
    )
    tails_value = math.prod(eng.counted(tail_problem(2, *tail)) for tail in tails)
    return "line H", mids * tails_value


def test_p2_type_iib_is_the_line_h_closed_form(monkeypatch):
    # Over P^2 the general IIb formula puts the hyperplane component on
    # H = P^1; every term must equal the closed form of the line H.
    reference = Engine()
    seen = {}

    def spy(eng, n, *args):
        value, groups = real(eng, n, *args)
        if n == 2:
            case, expected = _line_h_closed_form(reference, *args)
            assert value == expected, args
            seen[case] = seen.get(case, 0) + 1
        return value, groups

    real = genus1.count_yb
    monkeypatch.setattr(genus1, "count_yb", spy)
    eng = Engine()
    for p in [
        *(Problem.make(1, 2, d, {(1, 1): d}, {0: 3 * d}) for d in (3, 4, 5, 6)),
        Problem.make(1, 2, 4, {(2, 0): 1, (1, 1): 2}, {0: 11}),
        Problem.make(1, 2, 5, {(2, 1): 1, (1, 0): 1, (1, 1): 2}, {0: 13}),
        Problem.make(1, 2, 3, {(1, 1): 3}, {0: 10, 2: 1}),
        ZProblem.make(2, 3, {0: 8, 1: 2}, parse_divisor("p1+l1+l2")),
    ]:
        eng.count(p)
    assert set(seen) == {"line H"}, seen
    # The counts above send only line-H shapes to it; the other cases
    # come from a conic through 5 points attached twice.
    conic = (2, (), ((0, 5),), 2, -1)
    for d0, h0, i0 in [(2, {(1, 0): 2}, {1: 1}), (1, {(1, 0): 1}, {1: 1, 2: 1}), (1, {(1, 1): 1}, {1: 1})]:
        assert genus1.count_yb(eng, 2, d0, h0, i0, conic, ())[0] == 0
    # one conic, counted once for each order of its two contacts
    assert genus1.count_yb(eng, 2, 1, {(1, 0): 1}, {1: 1}, conic, ())[0] == 2
    assert set(seen) == {"d0", "free marker on H", "line H"}, seen


def test_iib_counts_its_hyperplane_side_once_per_shape(monkeypatch):
    # The hyperplane side of a IIb shape does not depend on how the
    # double contact splits, so count_yb asks count_y for it once.
    calls = {"count_yb": 0, "count_y": 0}
    inside = []
    real_y, real_yb = genus1.count_y, genus1.count_yb

    def spy_y(*args):
        if inside:
            calls["count_y"] += 1
        return real_y(*args)

    def spy_yb(*args):
        calls["count_yb"] += 1
        inside.append(True)
        try:
            return real_yb(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(genus1, "count_y", spy_y)
    monkeypatch.setattr(genus1, "count_yb", spy_yb)
    assert Engine().count(Problem.make(1, 2, 5, {(1, 1): 5}, {0: 15})) > 0
    assert calls == {"count_yb": 30, "count_y": 30}


def test_an_engine_counts_each_pinned_component_and_component_in_h_once_per_n(monkeypatch):
    # A pinned component's problem depends on n and its record alone,
    # and that of a component in H on n, its degree and its markers, so
    # an Engine looks each up once per n however many shapes of however
    # many expansions share it.  Two records (the attachment on
    # different markers) can pin to one problem, looked up once each.
    real_counted, real_pin = Engine.counted, genus0.tail_problem
    # count_y counts every pinned factor; IIc's divisor-class problem it
    # hands to fibration.expand_z, not to counted
    pinning = genus0.count_y.__code__
    calls, lookups, records = [0], Counter(), defaultdict(set)

    def spy_pin(n, *record):
        made = real_pin(n, *record)
        records[n, memo_key(made)].add(record)
        return made

    def spy_counted(self, problem, *args):
        calls[0] += 1
        # the caller's n keys the pin
        caller = sys._getframe(1)
        if caller.f_code is pinning:
            lookups[caller.f_locals["n"], memo_key(problem)] += 1
        return real_counted(self, problem, *args)

    monkeypatch.setattr(Engine, "counted", spy_counted)
    monkeypatch.setattr(genus0, "tail_problem", spy_pin)
    # (problem, value, counted calls, lookups of a problem pinned from
    # two records); the calls were 3,249 and 1,443 while every shape
    # built and looked up its own, 1,490 and 1,296 (with 4 and 0 such
    # lookups) while every expansion kept its own pins, and the elliptic
    # count's 996 while every IIb shape counted its own middle problems
    # and every IIc shape its own divisor-class problem, 874 while the
    # IIc walk yielded shapes whose divisor-class problem counts 0 by
    # its points alone, 842 while every IIc shape's divisor-class
    # problem went through counted, and 792 while every fibration pairing
    # counted the sides of its broken fibers itself (Engine.fibers)
    for p, value, total, shared in [
        (Problem.make(0, 3, 5, {(1, 2): 5}, {1: 20}), 6089786376960 * 120, 351, 15),
        (Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16}), 52832040 * 24, 496, 6),
    ]:
        calls[0] = 0
        lookups.clear()
        records.clear()
        assert Engine().count(p) == value
        assert calls[0] == total, p
        assert len(lookups) > 50
        # a component in H is built without tail_problem, from one key
        once = {key: len(records[key]) if key in records else 1 for key in lookups}
        assert lookups == once
        assert sum(count - 1 for count in lookups.values()) == shared


def test_a_table_run_pins_each_record_once_per_n(monkeypatch):
    # The pins outlive a count: one Engine runs every row of a table,
    # and each (n, record) is pinned once over the whole run.
    real_pin = genus0.tail_problem
    pins = Counter()

    def spy_pin(n, *record):
        pins[n, record] += 1
        return real_pin(n, *record)

    monkeypatch.setattr(genus0, "tail_problem", spy_pin)
    eng = Engine()
    assert all(row.status != "FAIL" for row in table_rows("eqesc-full", eng))
    assert len(pins) > 100
    assert set(pins.values()) == {1}
    assert all(record in eng.pinned[n] for n, record in pins)


def test_iib_builds_its_collision_problem_once_per_shape(monkeypatch):
    # The merged contact of a IIb collision does not depend on how the
    # double contact splits, so count_yb builds and counts it once;
    # each ordered split builds only its plane choices.
    real_make, real_yb = Problem.make.__func__, genus1.count_yb
    calls = []

    def spy_make(cls, *args):
        made = real_make(cls, *args)
        if sys._getframe(1).f_code is real_yb.__code__:
            calls[-1][1].append(made)
        return made

    def spy_yb(eng, n, d0, h0, i0, part1, tails):
        calls.append(((n, part1), []))
        return real_yb(eng, n, d0, h0, i0, part1, tails)

    monkeypatch.setattr(Problem, "make", classmethod(spy_make))
    monkeypatch.setattr(genus1, "count_yb", spy_yb)
    assert Engine().count(Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16})) > 0
    split = 0
    for (n, (db, hb, ib, m1, delta)), made in calls:
        if not made:
            continue  # the hyperplane side counts 0
        delta += 1
        assert len(made) == (m1 - 1) * math.comb(2, delta) + (delta > 0)
        if delta:
            merged = real_make(Problem, 0, n, db, [*hb, ((m1, n - delta), 1)], ib)
            assert made.count(merged) == 1
            split += m1 > 2
    assert split > 0


def test_an_engine_builds_each_iib_middle_problem_once(monkeypatch):
    # count_yb's middle problems depend on the doubly-attached record and
    # d0 alone, so an Engine builds them once per (n, record, d0), at the
    # first shape past a nonzero hyperplane side, and a second count on
    # the same Engine builds none that the first one built.  Elliptic
    # quartics through 16 lines, then through 2 points and 12 lines.
    real_make, real_yb = Problem.make.__func__, genus1.count_yb
    built, keys = Counter(), []

    def spy_make(cls, *args):
        made = real_make(cls, *args)
        if sys._getframe(1).f_code is real_yb.__code__:
            built[keys[-1]] += 1
        return made

    def spy_yb(eng, n, d0, h0, i0, part1, tails):
        keys.append((n, part1, d0))
        return real_yb(eng, n, d0, h0, i0, part1, tails)

    monkeypatch.setattr(Problem, "make", classmethod(spy_make))
    monkeypatch.setattr(genus1, "count_yb", spy_yb)
    eng = Engine()
    assert eng.count(Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16})) == 52832040 * 24
    first, shapes = dict(built), len(keys)
    assert shapes > len(first) > 5
    assert set(first) == {(n, *key) for n, table in eng.middles.items() for key in table}
    built.clear()
    assert eng.count(Problem.make(1, 3, 4, {(1, 2): 4}, {0: 2, 1: 12})) == 385656 * 24
    # the second count reaches some of the first count's middles and
    # builds none of them
    assert set(keys[shapes:]) & set(first)
    assert set(built) & set(first) == set()
    # each key's problems are built once: every plane choice of every
    # split, and the merged contact of a collision
    for (_, (_, _, _, m1, delta), _), made in {**first, **built}.items():
        assert made == (m1 - 1) * math.comb(2, delta + 1) + (delta >= 0)


def test_expand_w_builds_one_tail_table(monkeypatch):
    # The IIb tails are the rational tails of delta <= 2n - 4: all of
    # them over P^3, those of delta 0 over P^2.  Every expansion that
    # specializes builds the one table and filters it.
    # The table and both split-offs share one listing of the pools'
    # sub-vectors.
    real_expand, real_specialize, real_table = genus1.expand_w, genus1.specialize, genus1.tail_table
    real_rows = partitions.pool_rows
    expansions, stack = [], []

    def expand_w(eng, p, first_slot=None):
        stack.append([0, 0, 0])
        try:
            return real_expand(eng, p, first_slot)
        finally:
            expansions.append(tuple(stack.pop()))

    def specialize(*args):
        stack[-1][0] += 1
        return real_specialize(*args)

    def table(*args):
        stack[-1][1] += 1
        return real_table(*args)

    def rows(*args):
        stack[-1][2] += 1
        return real_rows(*args)

    def elsewhere(real):
        # the listings of rational and divisor-class expansions are their own
        def expand(*args):
            stack.append([0, 0, 0])
            try:
                return real(*args)
            finally:
                stack.pop()

        return expand

    p = Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16})
    plain = Engine().count(p)
    monkeypatch.setattr(genus0, "expand_x", elsewhere(genus0.expand_x))
    monkeypatch.setattr(fibration, "expand_z", elsewhere(fibration.expand_z))
    monkeypatch.setattr(genus1, "expand_w", expand_w)
    monkeypatch.setattr(genus1, "specialize", specialize)
    monkeypatch.setattr(genus1, "tail_table", table)
    monkeypatch.setattr(genus1, "pool_rows", rows)
    monkeypatch.setattr(partitions, "pool_rows", rows)
    assert Engine().count(p) == plain
    assert all(tables == listings == specialized <= 1 for specialized, tables, listings in expansions)
    assert sum(tables for _, tables, _ in expansions) > 10
    for n, d_max, h_pool, i_pool in [
        (3, 3, {(1, 2): 4, (2, 1): 1}, {0: 2, 1: 14}),
        (2, 4, {(1, 1): 3, (1, 0): 2}, {0: 12, 2: 1}),
        (2, 3, {(2, 0): 1, (1, 1): 2}, {0: 10}),
    ]:
        listed = real_rows(n, h_pool, i_pool)
        rational = real_table(n, d_max, listed)
        doubly = rational.within(2 * n - 4)
        # the filter keeps what the narrower window gives, within the point
        # cap, with each record's relief and the whole table's bounds
        narrow = components(n, d_max, listed, 0, 0, 2 * n - 4)
        assert [record for record, _ in doubly.entries] == [
            record for record, _ in narrow if dict(record[2]).get(0, 0) <= points_on_curve(n, record[0])
        ]
        assert set(doubly.entries) <= set(rational.entries)
        assert doubly[1:] == rational[1:]
        assert len(rational.entries) > len(doubly.entries) > 5 if n == 2 else rational == doubly
