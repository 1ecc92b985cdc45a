"""Divisor-class counts on one-parameter elliptic families.

The published worked chain pins every intersection-number primitive,
and the two documented misprints are re-derived here from the printed
values of their sibling rows alone."""

import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

from curvecount import Engine, Problem, ZProblem, fibration, parse_divisor, table_rows
from curvecount.engine import memo_key
from curvecount.fibration import expand_z, hyp_minus_sec, hyp_self, sec_hyp, sec_pair, sec_self
from curvecount.partitions import bump, subvectors
from curvecount.problems import base_z_text, dim_z
from curvecount.tables import EZ3_ROWS, EZ4_ROWS
from oracles import divisor_count_per_marker


def _quartic_base():
    return ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4"))


def test_worked_chain_primitives():
    eng = Engine()
    z = _quartic_base()
    base = base_z_text(z)
    assert sec_pair(eng, z, 0, 0, base) == 3
    assert sec_hyp(eng, z, 0, base) == 30
    assert hyp_self(eng, z, base) == 390
    assert hyp_minus_sec(eng, z, 0, base) == 185
    assert sec_self(eng, z, base) == -155


def test_worked_chain_final_count():
    eng = Engine()
    z = _quartic_base()
    base = base_z_text(z)
    s2 = sec_self(eng, z, base)
    d2 = hyp_self(eng, z, base) - 2 * 4 * sec_hyp(eng, z, 0, base) + 4 * s2 + 2 * 6 * sec_pair(eng, z, 0, 0, base)
    assert d2 == -434
    assert s2 - d2 // 2 == 62
    assert eng.count(z) == 62


def test_self_intersection_is_slot_independent():
    # the defining section can be anchored at any marker slot
    eng = Engine()
    z = ZProblem.make(2, 3, {0: 8, 1: 1}, parse_divisor("p1+p2+l1"))
    base = base_z_text(z)
    assert sec_hyp(eng, z, 0, base) - hyp_minus_sec(eng, z, 0, base) == sec_hyp(eng, z, 1, base) - hyp_minus_sec(eng, z, 1, base)
    assert Engine().count(z) == 1


def test_cubic_pencil_primitives():
    """Plane cubics through 8 points and 1 line: the point markers sit
    at base points of the pencil, so their sections are constant and
    meet nothing; the line marker sweeps the line once; the family
    covers the plane three times."""
    eng = Engine()
    z = ZProblem.make(2, 3, {0: 8, 1: 1}, parse_divisor("p1+p2+l1"))
    base = base_z_text(z)
    assert sec_hyp(eng, z, 0, base) == 0
    assert sec_pair(eng, z, 0, 0, base) == 0
    assert sec_pair(eng, z, 0, 1, base) == 0
    assert sec_hyp(eng, z, 1, base) == 1
    assert hyp_self(eng, z, base) == 3
    assert sec_self(eng, z, base) == -3


def test_triple_line_value_is_forced_by_sibling_rows():
    """Four printed rows of the cubic table pin the count for D=3*l1.

    With a = S.S, b = H.H, c0 = H.Q_point, c1 = H.Q_line, q00 and q01
    the section pairings, each row value V(D) satisfies 2V = 2a - D.D,
    a linear form in the six unknowns.  The target form for 3*l1 is a
    linear combination of the forms of four printed rows, so the
    printed sibling values force the answer with no geometry input."""
    # L(D) := 2 V(D) as affine forms over (a, b, c0, c1, q00, q01)
    def l_pppl(a, b, c0, c1, q00, q01):
        # p1+p2+l1
        return -a - b + 4 * c0 + 2 * c1 - 2 * q00 - 4 * q01

    def l_p2l(a, b, c0, c1, q00, q01):
        # p1+2*l1
        return -3 * a - b + 2 * c0 + 4 * c1 - 4 * q01

    def l_4pml(a, b, c0, c1, q00, q01):
        # p1+p2+p3+p4-l1
        return -3 * a - b + 8 * c0 - 2 * c1 - 12 * q00 + 8 * q01

    def l_3l(a, b, c0, c1, q00, q01):
        # 3*l1
        return -7 * a - b + 6 * c1

    # identity: L(3*l1) = -2 L(p1+p2+l1) + 8/3 L(p1+2*l1) + 1/3 L(p1+p2+p3+p4-l1)
    coeffs = (Fraction(-2), Fraction(8, 3), Fraction(1, 3))
    for sample in [
        (0, 0, 0, 0, 0, 0),
        (1, 2, 3, 4, 5, 6),
        (-3, 3, 0, 1, 0, 0),
        (7, -2, 5, -11, 13, -17),
        (2, 9, -4, 6, -8, 10),
    ]:
        combo = (
            coeffs[0] * l_pppl(*sample)
            + coeffs[1] * l_p2l(*sample)
            + coeffs[2] * l_4pml(*sample)
        )
        assert combo == l_3l(*sample)
    # printed sibling values 1, 5, 2 force the target
    forced = (coeffs[0] * (2 * 1) + coeffs[1] * (2 * 5) + coeffs[2] * (2 * 2)) / 2
    assert forced == 12
    # and the engine lands exactly there
    eng = Engine()
    z = ZProblem.make(2, 3, {0: 8, 1: 1}, parse_divisor("3*l1"))
    assert eng.count(z) == 12


def test_engine_satisfies_all_sibling_rows():
    eng = Engine()
    expected = {
        "p1+p2+l1": 1,
        "2*p1+l1": 4,
        "p1+2*l1": 5,
        "p1+p2+p3+p4-l1": 2,
    }
    for text, value in expected.items():
        z = ZProblem.make(2, 3, {0: 8, 1: 1}, parse_divisor(text))
        assert eng.count(z) == value


def test_cubic_table():
    rows = table_rows("ez3", Engine())
    by_status = {}
    for r in rows:
        by_status.setdefault(r.status, []).append(r)
    assert len(rows) == 20
    assert len(by_status.get("PASS", ())) == 19
    marked = by_status["DISCREPANCY"]
    assert len(marked) == 1
    assert marked[0].label == "i1=1 D=3*l1"
    assert marked[0].computed == 12
    assert "FAIL" not in by_status


def test_quartic_table():
    rows = table_rows("ez4", Engine())
    assert [r.status for r in rows] == ["PASS"] * 5
    assert [r.computed for r in rows] == [62, 464, 2522, 11960, 52160]


def test_divisor_class_matters():
    # same incidence data, different divisor classes, different counts
    eng = Engine()
    base = {0: 8, 1: 1}
    v1 = eng.count(ZProblem.make(2, 3, base, parse_divisor("p1+p2+l1")))
    v2 = eng.count(ZProblem.make(2, 3, base, parse_divisor("2*p1+l1")))
    assert (v1, v2) == (1, 4)


def test_zero_on_wrong_dimension():
    eng = Engine()
    z = ZProblem.make(2, 3, {0: 7}, parse_divisor("3*p1"))
    assert eng.count(z) == 0


def test_memo_keys_cover_primitives():
    eng = Engine()
    eng.count(_quartic_base())
    prefixes = {key.split("|")[0] for key, _ in eng.store.items()}
    assert {"Z", "QQ", "HQ", "HH", "HMQ", "SS", "X", "W"} <= prefixes


def _reference_splits(eng, z, pool, d0_min, rational_of):
    """Broken-fiber sum over every sub-vector of the pool, whether or
    not the elliptic side is zero-dimensional."""
    n, d = z.n, z.d
    total = Fraction(0)
    for d0 in range(d0_min, d):
        d1 = d - d0
        for i1, ways, _ in subvectors(pool):
            taken = dict(i1)
            i0 = {k: c - taken.get(k, 0) for k, c in pool.items() if c - taken.get(k, 0)}
            x, scale = rational_of(d0, i0)
            w = Problem.make(1, n, d1, {(1, n - 1): d1}, i1)
            term = scale * eng.counted(x) * Fraction(eng.counted(w), math.factorial(d1)) * ways
            total += term * (d0 * d1 if n == 2 else 1)
    return total


def _reference_pairings(eng, z):
    """The four pairing families of fibration, written out with the
    plain enumeration; returns {name: value} over every slot."""
    n, d = z.n, z.d
    slots = sorted(e for e, c in z.i if c)

    def free(keep, extra):
        def rational_of(d0, i0):
            for e in keep:
                i0 = bump(i0, e)
            x = Problem.make(0, n, d0, {(1, n - 1): d0}, i0)
            return x, Fraction(d0**extra, math.factorial(d0))

        return rational_of

    def w_term(h, i, relabel):
        return Fraction(eng.counted(Problem.make(1, n, d, h, i)), math.factorial(relabel))

    out = {}
    full = z.i_map()
    for e1 in slots:
        for e2 in slots:
            if e2 < e1 or (e1 == e2 and full[e1] < 2):
                continue
            pool = bump(bump(full, e1, -1), e2, -1)
            total = _reference_splits(eng, z, pool, 1, free((e1, e2), 0))
            if e1 + e2 >= n:
                total += w_term({(1, n - 1): d}, bump(pool, e1 + e2 - n), d)
            out[f"QQ {e1},{e2}"] = total
    for e in slots:
        pool = bump(full, e, -1)
        total = _reference_splits(eng, z, pool, 1, free((e,), 1))
        if e >= 1:
            total += w_term({(1, n - 1): d}, bump(pool, e - 1), d)
        out[f"HQ {e}"] = total

        def pinned(d0, i0, e=e):
            x = Problem.make(0, n, d0, bump({(1, n - 1): d0 - 1}, (1, e)), i0)
            return x, Fraction(d0 - 1, math.factorial(d0 - 1))

        total = _reference_splits(eng, z, pool, 2, pinned)
        if d >= 2:
            total += w_term(bump({(2, e): 1}, (1, n - 1), d - 2), pool, d - 2)
        out[f"HMQ {e}"] = total
    out["HH"] = _reference_splits(eng, z, full, 1, free((), 2)) + w_term(
        {(1, n - 1): d}, bump(full, n - 2), d
    )
    return out


def test_pairings_match_plain_enumeration():
    # the pairings enumerate only splits whose elliptic side is
    # zero-dimensional; every other split must contribute nothing
    eng = Engine()
    cases = [
        ZProblem.make(2, 3, {0: 8, 1: 1}, parse_divisor("p1+p2+l1")),
        ZProblem.make(2, 3, {0: 8, 1: 3}, parse_divisor("l1+l2+l3")),
        ZProblem.make(2, 3, {0: 8, 1: 5}, parse_divisor("l1+l2+l3+l4-l5")),
        ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4")),
        ZProblem.make(2, 4, {0: 11, 1: 2}, parse_divisor("p1+p2+l1+l2")),
    ]
    for z in cases:
        reference = _reference_pairings(eng, z)
        computed = {}
        for name in reference:
            family, _, slots = name.partition(" ")
            args = [int(e) for e in slots.split(",")] if slots else []
            fn = {"QQ": sec_pair, "HQ": sec_hyp, "HMQ": hyp_minus_sec, "HH": hyp_self}[family]
            computed[name] = fn(eng, z, *args, base_z_text(z))
        assert computed == reference, z
        assert len(reference) >= 4


def test_pairings_list_only_the_rows_an_elliptic_side_can_take(monkeypatch):
    # A broken fiber's elliptic side of degree d1 in 3..top - 1 takes an
    # incidence row of weight (n + 1) * d1, and each pairing lists just
    # the rows whose weight lies between the least and the most of
    # those, in subvectors order.
    listings = []

    def spy(pool, weight_of, window):
        rows = subvectors(pool, weight_of, window)
        caller = sys._getframe(1).f_locals
        listings.append((caller["n"], caller["top"], pool, weight_of, rows))
        return rows

    monkeypatch.setattr(fibration, "subvectors", spy)
    for z, value in [
        (_quartic_base(), 62),
        (ZProblem.make(2, 5, {0: 14, 1: 1}, parse_divisor("p1+p2+p3+p4+l1")), 259560),
    ]:
        assert Engine().count(z) == value
    listed = every = 0
    for n, top, pool, weight_of, rows in listings:
        assert [weight_of(e) for e in range(n + 1)] == [n - 1 - e for e in range(n + 1)]
        whole = subvectors(pool, weight_of)
        assert rows == [row for row in whole if 3 * (n + 1) <= row[2] <= (top - 1) * (n + 1)], (n, top, pool)
        listed, every = listed + len(rows), every + len(whole)
    assert listed and 3 * listed < every, (listed, every)  # 38 of 200


def _per_marker(eng, z):
    """oracles.divisor_count_per_marker on the engine's pairings of z."""
    base = base_z_text(z)
    return divisor_count_per_marker(
        z.divisor,
        sec_self(eng, z, base),
        hyp_self(eng, z, base),
        lambda e: sec_hyp(eng, z, e, base),
        lambda e1, e2: sec_pair(eng, z, e1, e2, base),
    )


def _elliptic_space(d):
    return Problem.make(1, 3, d, {(1, 2): d}, {1: 4 * d})


def _zero_slot_sum_cells():
    """Divisors on five markers of two bases, coefficients -2..3, with
    the markers of some slot summing to 0, as in p1-p2+3*l1."""
    for d, i, markers in (
        (3, {0: 8, 1: 2}, [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2)]),
        (4, {0: 11, 1: 1}, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 1)]),
    ):
        for coeffs in itertools.product(range(-2, 4), repeat=len(markers)):
            sums = Counter()
            for c, (e, _) in zip(coeffs, markers):
                sums[e] += c
            if sum(coeffs) == d and 0 in sums.values():
                z = ZProblem.make(2, d, i, [(c, e, k) for c, (e, k) in zip(coeffs, markers)])
                if {e for _, e, _ in z.divisor} != set(sums):
                    continue  # a slot with no marker left sums to 0 trivially
                yield z


def test_divisor_form_matches_the_per_marker_evaluation(monkeypatch):
    # expand_z reads a divisor through its slot sums and skips pairings
    # whose coefficient is 0; the per-marker sum reads every pairing
    eng = Engine()
    handed = {}
    real = fibration.expand_z

    def spy(eng, z, *args):
        handed[z] = value = real(eng, z, *args)
        return value

    # every divisor-class problem count_y hands to expand_z
    monkeypatch.setattr(fibration, "expand_z", spy)
    for d, value in ((4, 1267968960), (5, 309998326556160)):
        assert eng.count(_elliptic_space(d)) == value
    monkeypatch.undo()
    assert len(handed) > 200 and all(dim_z(z) == 0 for z in handed)
    assert {z: _per_marker(eng, z) for z in handed} == handed
    assert sum(1 for value in handed.values() if value) > 100
    # every row of the cubic and quartic tables
    rows = [
        ZProblem.make(2, d, {0: i0, 1: i1}, parse_divisor(text))
        for data, i0, d in ((EZ3_ROWS, 8, 3), (EZ4_ROWS, 11, 4))
        for i1, text, _ in data
    ]
    assert len(rows) == 25
    assert [expand_z(eng, z) for z in rows] == [_per_marker(eng, z) for z in rows]
    # divisors with a slot whose coefficients sum to 0
    cells = list(_zero_slot_sum_cells())
    assert len(cells) > 100
    values = [expand_z(eng, z) for z in cells]
    assert values == [_per_marker(eng, z) for z in cells]
    assert len(set(values)) > 10


def test_divisor_class_factors_read_each_pairing_once_per_base(monkeypatch):
    # A type IIc factor reads its base's pairings from Engine.pairings:
    # sec_pair runs once per stored QQ record, and no factor leaves a Z
    # record.  While every factor went through counted and read one
    # pairing per marker and marker pair, elliptic P^3 d=5 made 1,237
    # sec_hyp and 2,515 sec_pair calls and d=6 5,639 and 14,495.
    calls = Counter()
    for name in ("sec_hyp", "sec_pair"):

        def spy(*args, real=getattr(fibration, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(fibration, name, spy)
    for d, hyp, pair in ((5, 162, 111), (6, 270, 195)):
        calls.clear()
        eng = Engine()
        assert eng.count(_elliptic_space(d))
        families = Counter(key.partition("|")[0] for key, _ in eng.store.items())
        assert (calls["sec_hyp"], calls["sec_pair"]) == (hyp, pair), d
        assert families["QQ"] == pair and "Z" not in families, families
        assert len(eng.pairings) == families["SS"], d
    # a divisor-class problem counted for itself keeps its record
    z = _quartic_base()
    eng = Engine()
    assert eng.count(z) == 62
    assert dict(eng.store.items())[memo_key(z)] == 62


def test_pairings_are_kept_per_base_degree_included():
    # Engine.pairings keys a base by (n, d, i): the pencil of cubics
    # through 8 points and a line counts, while quartics through the same
    # markers form no one-parameter family, in either order on one Engine
    i = {0: 8, 1: 1}
    cubic = ZProblem.make(2, 3, i, parse_divisor("p1+p2+l1"))
    quartic = ZProblem.make(2, 4, i, parse_divisor("2*p1+p2+l1"))
    assert (dim_z(cubic), dim_z(quartic)) == (0, 3)
    eng = Engine()
    assert (expand_z(eng, quartic), expand_z(eng, cubic)) == (0, 1)
    eng = Engine()
    assert (expand_z(eng, cubic), expand_z(eng, quartic)) == (1, 0)
