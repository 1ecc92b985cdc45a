"""Marker-routing combinatorics against plain slow enumerations."""

import functools
import itertools
import math
import sys
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from curvecount import Engine, Problem, fibration, genus0, genus1, partitions
from curvecount.engine import beyond_capacity
from curvecount.genus1 import _split_off_part
from curvecount.partitions import (
    TailTable,
    bump,
    components,
    points_budget,
    points_on_curve,
    pool_rows,
    rest,
    subvectors,
    tail_table,
    type2_partitions,
)
from curvecount.problems import dim_w, dim_x
from oracles import automorphism_order, hyperplane_markers, ordered_type2_aggregate, per_level_type2_partitions


def _table(n, d_max, h_pool, i_pool, window=None):
    """The tail table of the pools, or for a synthetic (genus, lo, hi)
    window every component in it, without the point cap."""
    rows = pool_rows(n, h_pool, i_pool)
    if window is None:
        return tail_table(n, d_max, rows)
    return TailTable.of(n, d_max, [record for record, _ in components(n, d_max, rows, *window)])


def _records(table):
    """The tail records of a TailTable, in its order."""
    return [record for record, _ in table.entries]


# a window that admits every component the small pools below allow
_EVERY = (0, -99, 99)


def _shapes(d_avail, h_pool, i_pool, n, window=None):
    """(parts, ways, aut) of every shape whose tails take at most
    d_avail, the hyperplane component keeping the rest of a degree
    d_avail + 1 curve."""
    table = _table(n, d_avail, h_pool, i_pool, window)
    for parts, ways, aut, *_ in type2_partitions(d_avail + 1, h_pool, i_pool, table, n - 1):
        yield parts, ways, aut


def _value_of(dk, h_items, i_items):
    """Deterministic pseudo-random worth of a part, so that any
    miscounted configuration shifts the aggregate."""
    x = dk
    for (m, e), c in h_items:
        x = x * 31 + m * 7 + e * 3 + c
    for e, c in i_items:
        x = x * 37 + e * 5 + c
    return x % 101 + 1


def test_automorphism_order():
    assert automorphism_order([]) == 1
    assert automorphism_order([1, 2, 3]) == 1
    assert automorphism_order([1, 1, 2]) == 2
    assert automorphism_order(["x"] * 4) == 24


def test_subvectors_cover_the_power_set_with_binomial_weights():
    pool = {"b": 1, "a": 2}
    seen = {}
    for sub, ways, weight in subvectors(pool, {"a": 3, "b": -1}.get):
        seen[sub] = ways
        assert weight == sum({"a": 3, "b": -1}[k] * c for k, c in sub)
    assert list(seen) == [(), (("b", 1),), (("a", 1),), (("a", 1), ("b", 1)), (("a", 2),), (("a", 2), ("b", 1))]
    assert seen == {
        (): 1,
        (("a", 1),): 2,
        (("a", 2),): 1,
        (("b", 1),): 1,
        (("a", 1), ("b", 1)): 2,
        (("a", 2), ("b", 1)): 1,
    }
    assert sum(seen.values()) == 2**3


def test_subvectors_window_keeps_the_rows_of_its_weights_in_order():
    # free markers (e = n) weigh -1 as incidence markers, so a partial
    # row below the window can still come back into it, and one above
    # it can still fall back in
    weigh = lambda key: {0: 2, 1: 1, 2: 0, 3: -1, "a": 3, "b": -2}[key]
    pools = [{0: 3, 1: 2, 3: 2}, {1: 4, 2: 1, 3: 3}, {"a": 2, "b": 3}, {0: 5}, {3: 2}, {}]
    kept = 0
    for pool in pools:
        whole = subvectors(pool, weigh)
        weights = {weight for _, _, weight in whole}
        for lo in range(min(weights) - 1, max(weights) + 2):
            for hi in range(lo - 1, max(weights) + 2):
                rows = subvectors(pool, weigh, (lo, hi))
                assert rows == [row for row in whole if lo <= row[2] <= hi], (pool, lo, hi)
                kept += len(rows)
    assert kept > 1000


def _labeled_subvectors(pool):
    """Every sub-vector of ``pool`` with its ways, found by listing the
    subsets of its labeled markers, in lexicographic order of the takes
    over the sorted keys."""
    keys = sorted(pool)
    labeled = [key for key in keys for _ in range(pool[key])]
    ways = Counter()
    for mask in range(2 ** len(labeled)):
        taken = Counter(key for j, key in enumerate(labeled) if mask >> j & 1)
        ways[tuple(taken[key] for key in keys)] += 1
    return [
        (tuple((key, take) for key, take in zip(keys, takes) if take), w, dict(zip(keys, takes)))
        for takes, w in sorted(ways.items())
    ]


def _brute_components(n, d_max, h_pool, i_pool, i_bounds, m_min=1, d_min=1):
    out = []
    for dk in range(d_min, d_max + 1):
        for h_sub, h_ways, h_take in _labeled_subvectors(h_pool):
            mk = dk - sum(m * c for (m, _), c in h_sub)
            if mk < m_min:
                continue
            base, lo, hi = i_bounds(dk, h_sub, mk)
            for i_sub, i_ways, i_take in _labeled_subvectors(i_pool):
                delta = base - sum((n - 1 - e) * c for e, c in i_sub)
                if lo <= delta <= hi:
                    h_rest = {k: c - h_take[k] for k, c in h_pool.items() if c - h_take[k]}
                    i_rest = {e: c - i_take[e] for e, c in i_pool.items() if c - i_take[e]}
                    out.append((dk, h_sub, i_sub, mk, delta, h_ways * i_ways, h_rest, i_rest))
    return out


def test_components_filter_every_subvector_in_lexicographic_order():
    # free markers (e = n) weigh -1, so windows reaching below 0 matter
    # windows are (genus, lo, hi); an elliptic component (genus 1) has
    # degree at least 3, which the slow side states as its d_min
    cases = [
        (2, 3, {(1, 0): 2, (1, 1): 1}, {0: 2, 1: 1, 2: 2}, (0, 0, 1), 1),
        (3, 4, {(1, 2): 3, (2, 1): 1}, {0: 1, 1: 3, 3: 2}, (0, -1, 1), 2),
        (3, 5, {(1, 2): 2}, {1: 4, 2: 1, 3: 1}, (1, 0, 2), 1),
        (2, 2, {}, {0: 4, 2: 1}, (0, -9, -1), 1),
        (2, 2, {(1, 1): 1}, {0: 1, 1: 2, 2: 1}, (0, 0, 0), 1),
        (3, 3, {(1, 2): 1}, {1: 2, 3: 2}, (0, -99, 99), 1),
        (3, 3, {(1, 2): 1}, {1: 2, 3: 2}, (0, 1, 0), 1),
        (3, 2, {}, {}, (0, 0, 0), 1),
        (3, 2, {(1, 2): 1}, {1: 3}, (1, 0, 2), 1),
        (2, 4, {(1, 1): 2}, {0: 9, 2: 1}, (1, 0, 1), 1),
    ]
    for n, d_max, h_pool, i_pool, window, m_min in cases:
        fast = []
        for record, ways in components(n, d_max, pool_rows(n, h_pool, i_pool), *window, m_min):
            # the pools the component leaves, as its callers build them,
            # with no zero count
            h_rest, i_rest = rest(h_pool, record[1]), rest(i_pool, record[2])
            fast.append((*record, ways, h_rest, i_rest))
        d_min = 3 if window[0] else 1
        assert fast == _brute_components(n, d_max, h_pool, i_pool, _window(n, *window), m_min, d_min)
    # the window cases select what they say: everything, nothing, or a
    # freedom below 0; 5 (dk, h_sub) pairs keep mk >= 1
    rows = pool_rows(3, {(1, 2): 1}, {1: 2, 3: 2})
    wide = components(3, 3, rows, 0, -99, 99)
    assert len(list(wide)) == 5 * 3 * 3
    assert list(components(3, 3, rows, 0, 1, 0)) == []
    negative = components(2, 2, pool_rows(2, {}, {0: 4, 2: 1}), 0, -9, -1)
    assert {(record[2], record[4]) for record, _ in negative} == {(((0, 3),), -1), (((0, 4),), -2), (((0, 4), (2, 1)), -1)}
    # no elliptic component of degree 1 or 2, however wide its window
    assert {record[0] for record, _ in components(2, 4, pool_rows(2, {}, {0: 12, 2: 3}), 1, -99, 99)} == {3, 4}


def _window(n, genus=0, lo=0, hi=None):
    """The slow enumerations' window of a component of the given genus,
    its dimension with the attachment contact free on H worked out
    plainly, and its freedom within lo..hi, by default the tail window
    0..n-1."""
    hi = n - 1 if hi is None else hi

    def bounds(dk, h_sub, mk):
        base = (n + 1) * dk + (n - 3 if genus == 0 else 0)
        base -= sum((n + m - e - 2) * c for (m, e), c in h_sub)
        base -= mk - 1
        return base, lo, hi

    return bounds


_ORDERED_CASES = [
    (3, {(1, 2): 2}, {1: 5, 0: 1}, 3),
    (2, {(1, 1): 1, (2, 2): 1}, {1: 3}, 3),
    (4, {}, {1: 6, 0: 2}, 3),
    (3, {(1, 1): 2}, {0: 6}, 2),
]


def test_type2_partitions_match_ordered_enumeration():
    for d_avail, h_pool, i_pool, n in _ORDERED_CASES:
        total = Fraction(0)
        for parts, ways, aut in _shapes(d_avail, h_pool, i_pool, n):
            worth = Fraction(ways, aut)
            for part in parts:
                worth *= _value_of(*part[:3])
            total += worth
        oracle = ordered_type2_aggregate(d_avail, h_pool, i_pool, n, _window(n), _value_of)
        assert total == oracle


def test_type2_partitions_yield_canonical_multisets():
    seen = set()
    for parts, ways, aut in _shapes(4, {(1, 2): 1}, {1: 5}, 3):
        assert list(parts) == sorted(parts)
        assert parts not in seen
        seen.add(parts)
        assert sum(p[0] for p in parts) <= 4
        assert ways > 0 and aut > 0
    assert () in seen


def test_weights_scale_with_automorphisms():
    # two interchangeable parts carry a half weight
    entries = {
        tuple(part[:3] for part in parts): (ways, aut) for parts, ways, aut in _shapes(2, {}, {}, 2, _EVERY)
    }
    twin = ((1, (), ()), (1, (), ()))
    assert entries[twin] == (1, 2)


def _aggregate(d_avail, h_pool, i_pool, n):
    total = Fraction(0)
    for parts, ways, aut in _shapes(d_avail, h_pool, i_pool, n):
        worth = Fraction(ways, aut)
        for part in parts:
            worth *= _value_of(*part[:3])
        total += worth
    return total


def test_type2_partitions_take_every_point_marker():
    # a point left over would lie on the hyperplane component
    cases = [
        (3, {(1, 2): 2}, {1: 5, 0: 1}, 3),
        (4, {}, {1: 6, 0: 2}, 3),
        (3, {(1, 1): 2}, {0: 6}, 2),
        (4, {(1, 3): 1}, {0: 3, 2: 4}, 4),
    ]
    for d_avail, h_pool, i_pool, n in cases:
        shapes = list(_shapes(d_avail, h_pool, i_pool, n))
        assert shapes
        for parts, *_ in shapes:
            taken = sum(dict(i_items).get(0, 0) for _, _, i_items, *_ in parts)
            assert taken == i_pool[0]


def test_type2_partitions_yield_nothing_past_the_point_capacity():
    # tails of degree dk carry at most 2*dk points in P^n, n >= 3, and
    # 3*dk - 1 in P^2; one point more and no shape survives
    for d_avail, i_pool, n in [
        (2, {0: 5, 1: 3}, 3),
        (3, {0: 7}, 4),
        (1, {0: 3, 1: 2}, 2),
        (2, {0: 6}, 2),
    ]:
        h_pool = {(1, n - 1): 1}
        assert list(_shapes(d_avail, h_pool, i_pool, n)) == []
        assert ordered_type2_aggregate(d_avail, h_pool, i_pool, n, _window(n), _value_of) == 0
    # at the capacity itself shapes remain, and agree with the oracle
    for d_avail, i_pool, n in [(2, {0: 4, 1: 1}, 3), (1, {0: 2, 1: 2}, 2), (2, {0: 5}, 2)]:
        h_pool = {(1, n - 1): 1}
        total = _aggregate(d_avail, h_pool, i_pool, n)
        assert total != 0
        assert total == ordered_type2_aggregate(d_avail, h_pool, i_pool, n, _window(n), _value_of)


def test_free_markers_do_not_raise_the_point_capacity():
    # free markers (e = n) have negative incidence weight, so the window
    # admits a line of P^2 through 4 points and 2 free markers; no line
    # passes through 4 general points, so no such part is enumerated
    assert list(_shapes(1, {(1, 0): 2}, {0: 4, 2: 2}, 2)) == []
    for d_avail, h_pool, i_pool, n, some in [
        (1, {(1, 0): 2}, {0: 4, 2: 2}, 2, False),
        (2, {(1, 0): 2}, {0: 4, 2: 2}, 2, True),
        (2, {(1, 1): 1}, {0: 5, 2: 2}, 2, True),
        (3, {(1, 1): 2}, {0: 6, 2: 3}, 2, True),
        (2, {(1, 2): 1}, {0: 4, 1: 2, 3: 2}, 3, True),
    ]:
        total = _aggregate(d_avail, h_pool, i_pool, n)
        assert (total != 0) == some
        assert total == ordered_type2_aggregate(d_avail, h_pool, i_pool, n, _window(n), _value_of)


def _kept(d, h_pool, i_pool, e_lift, parts):
    """What the hyperplane component of a degree d curve keeps once
    ``parts`` split off, worked out plainly: the pools less the parts,
    the specialized marker on slot e_lift, and the product of the
    parts' attachment multiplicities."""
    h0, i0, ram = Counter(h_pool), Counter(i_pool), 1
    for dk, h_items, i_items, *_ in parts:
        h0.subtract(dict(h_items))
        i0.subtract(dict(i_items))
        ram *= dk - sum(m * c for (m, _), c in h_items)
        d -= dk
    i0[e_lift] += 1
    assert min([0, *h0.values(), *i0.values()]) == 0
    return d, {k: c for k, c in h0.items() if c}, {k: c for k, c in i0.items() if c}, ram


def test_type2_partitions_yield_what_the_hyperplane_component_keeps():
    cases = [
        (3, {(1, 2): 2}, {1: 5, 0: 1}, 3),
        (2, {(1, 1): 1, (2, 2): 1}, {1: 3}, 3),
        (4, {}, {1: 6, 0: 2}, 3),
        (3, {(1, 1): 2}, {0: 6}, 2),
        (4, {(1, 2): 1}, {1: 5}, 3),
        (2, {}, {}, 2, _EVERY),
        (4, {(1, 3): 1}, {0: 3, 2: 4}, 4),
        (2, {(1, 2): 1}, {0: 4, 1: 3}, 3),
        (1, {(1, 1): 1}, {0: 2, 1: 2}, 2),
        (2, {(1, 1): 1}, {0: 5}, 2),
        (2, {(1, 0): 2}, {0: 4, 2: 2}, 2),
        (2, {(1, 1): 1}, {0: 5, 2: 2}, 2),
        (3, {(1, 1): 2}, {0: 6, 2: 3}, 2),
        (2, {(1, 2): 1}, {0: 4, 1: 2, 3: 2}, 3),
    ]
    shapes = 0
    for d_avail, h_pool, i_pool, n, *window in cases:
        for e_lift in range(n):
            d = d_avail + 1
            table = _table(n, d - 1, h_pool, i_pool, *window)
            for parts, _, _, *kept in _zero_free(type2_partitions(d, h_pool, i_pool, table, e_lift)):
                assert tuple(kept) == _kept(d, h_pool, i_pool, e_lift, parts)
                shapes += 1
    assert shapes > 100


def _zero_free(shapes):
    """The shapes of a walk, checking that what each one's component in
    H keeps, h0 and i0, holds no zero count."""
    shapes = list(shapes)
    for *_, h0, i0, _ in shapes:
        assert 0 not in h0.values() and 0 not in i0.values(), (h0, i0)
    return shapes


def _listed(shapes):
    """Shapes with the kept pools as item tuples, so that the order of
    their keys is compared too."""
    return [
        (parts, ways, aut, d0, tuple(h0.items()), tuple(i0.items()), ram)
        for parts, ways, aut, d0, h0, i0, ram in shapes
    ]


def _walk_matches_per_level(d, h_pool, i_pool, n, hi, e_lift, d0_min=1):
    # the tails of freedom 0..hi, hi <= n - 1, under the bounds of the
    # whole table, for an elliptic component in H (d0_min = 3) those of
    # in_h_elliptic; the walk takes its pools with sorted keys, as
    # Problem gives them, and _listed compares key order
    h_pool, i_pool = dict(sorted(h_pool.items())), dict(sorted(i_pool.items()))
    table = tail_table(n, d - d0_min, pool_rows(n, h_pool, i_pool)).within(hi)
    if d0_min == 3 and n >= 3:
        table = table.in_h_elliptic(n)
    walked = _listed(_zero_free(type2_partitions(d, h_pool, i_pool, table, e_lift, d0_min)))
    assert walked == _listed(per_level_type2_partitions(d, h_pool, i_pool, n, (0, 0, hi), e_lift, d0_min))
    return len(walked)


def test_table_walk_repeats_the_per_level_enumeration():
    # same shapes in the same order with the same weights, for a
    # rational and an elliptic (d0 >= 3) hyperplane component
    shapes = 0
    for d_avail, h_pool, i_pool, n in _ORDERED_CASES:
        for e_lift in range(n):
            for d0_min in (1, 3):
                shapes += _walk_matches_per_level(d_avail + d0_min, h_pool, i_pool, n, n - 1, e_lift, d0_min)
    assert shapes > 200
    # pools whose elliptic component in H has shapes on both sides of
    # its room (see the IIc cut test below)
    shapes = 0
    for d, h_pool, i_pool in [(4, {(1, 2): 2, (1, 0): 2}, {0: 1, 1: 8}), (5, {(1, 0): 3, (2, 2): 1}, {1: 11})]:
        for e_lift in (1, 2):
            shapes += _walk_matches_per_level(d, h_pool, i_pool, 3, 2, e_lift, 3)
    assert shapes > 10


def test_table_walk_repeats_the_per_level_enumeration_in_the_iib_window():
    cases = [
        (5, {(1, 1): 3, (2, 0): 1}, {0: 9, 2: 1}, 2),
        (6, {(1, 1): 4, (1, 0): 2}, {0: 12}, 2),
        (5, {(1, 2): 3, (2, 1): 1}, {0: 1, 1: 9, 2: 1}, 3),
        (6, {(1, 2): 6}, {1: 14, 0: 1}, 3),
    ]
    for d, h_pool, i_pool, n in cases:
        shapes = sum(
            _walk_matches_per_level(d, h_pool, i_pool, n, 2 * n - 4, e_lift)
            for e_lift in range(n)
        )
        assert shapes > 10, (d, h_pool, i_pool, n)


def test_split_off_part_walks_its_sub_pools_like_the_per_level_enumeration(monkeypatch):
    # one table on the whole pools serves every pool the distinguished
    # component leaves; the slow side enumerates each sub-pool afresh.
    # The pools rest builds for the walks hold no zero count, so neither
    # do the ones the walks leave.
    built = Counter()

    def zero_free_rest(pool, items):
        out = partitions.rest(pool, items)
        assert 0 not in out.values(), out
        built["pools"] += 1
        built["emptied a key"] += len(out) < len(pool)
        return out

    monkeypatch.setattr(genus1, "rest", zero_free_rest)
    # the distinguished component's points on H, stated plainly: the IIa
    # attachment on a delta1-plane, and the IIb contacts count_yb puts
    # on points, two less the delta1 + 1 it puts on hyperplanes
    iia = lambda delta1: int(delta1 == 0)
    iib = lambda delta1: 2 - (delta1 + 1)
    # the tails take freedom 0..hi
    for n, d, h_pool, i_pool, e_lift, part_window, m_min, hi, plain in [
        (3, 6, {(1, 2): 4, (2, 2): 1}, {0: 2, 1: 14}, 2, (1, 0, 2), 1, 2, iia),
        (3, 6, {(1, 2): 4, (1, 0): 1}, {0: 1, 1: 15}, 1, (1, 0, 2), 1, 2, iia),
        (3, 5, {(1, 2): 5}, {1: 13}, 2, (0, -1, 1), 2, 2, iib),
        (3, 5, {(1, 2): 3, (1, 0): 2}, {1: 11}, 1, (0, -1, 1), 2, 2, iib),
        (2, 6, {(1, 0): 6}, {0: 11}, 1, (0, -1, -1), 2, 0, iib),
    ]:
        # sorted keys, as the walk takes them; the lists compare key order
        h_pool, i_pool = dict(sorted(h_pool.items())), dict(sorted(i_pool.items()))
        rows = pool_rows(n, h_pool, i_pool)
        table = tail_table(n, d - 3, rows).within(hi)
        walked = [
            (part1, tails, ways, aut, d0, tuple(h0.items()), tuple(i0.items()), ram)
            for part1, tails, ways, aut, d0, h0, i0, ram in _split_off_part(
                n, d, h_pool, i_pool, rows, e_lift, part_window, m_min, table
            )
        ]
        assert all(c for *_, h0, i0, _ in walked for _, c in h0 + i0)
        slow = []
        for part1, ways in components(n, d - 1, rows, *part_window, m_min):
            h_rest, i_rest = rest(h_pool, part1[1]), rest(i_pool, part1[2])
            for tails, tail_ways, aut, d0, h0, i0, ram in _listed(
                per_level_type2_partitions(d - part1[0], h_rest, i_rest, n, (0, 0, hi), e_lift, 1, plain(part1[4]))
            ):
                slow.append((part1, tails, ways * tail_ways, aut, d0, h0, i0, ram))
        assert len(walked) > 10
        assert walked == slow
    assert built["pools"] > built["emptied a key"] > 0, built


def test_split_off_part_builds_rests_only_for_the_parts_it_keeps(monkeypatch):
    # A distinguished component is tested on its points first, the way
    # the walk tests a tail, and then, under the table's relief cap, on
    # the points of H its walk would start with: partitions.rest builds
    # the two pools it leaves when it passes both, and nothing when it
    # does not.
    calls = []
    real_rest = partitions.rest

    def spy(pool, items):
        calls.append((pool, items))
        return real_rest(pool, items)

    monkeypatch.setattr(genus1, "rest", spy)
    for n, d, h_pool, i_pool, part_window, m_min in [
        (3, 6, {(1, 2): 4, (2, 2): 1}, {0: 2, 1: 14}, (1, 0, 2), 1),
        (3, 5, {(1, 2): 3, (1, 0): 2}, {0: 3, 1: 8}, (0, -1, 1), 2),
        (3, 6, {(1, 2): 4, (1, 0): 2}, {0: 2, 1: 13}, (0, -1, 1), 2),
        (2, 6, {(1, 1): 4, (1, 0): 2}, {0: 12}, (0, -1, -1), 2),
    ]:
        rows = pool_rows(n, h_pool, i_pool)
        table = tail_table(n, d - 3, rows)
        cap = table.cap
        e_lift = n - 1
        expected, dropped, capped = [], 0, 0
        for part, _ in components(n, d - 1, rows, *part_window, m_min):
            d1, h1, i1, _, delta1 = part
            # the lines and slot-0 tangency markers the part leaves, the
            # specialized marker on slot 1 and the part's own points of H
            on_h = (
                i_pool.get(1, 0)
                - dict(i1).get(1, 0)
                + sum(c for (_, e), c in h_pool.items() if e == 0)
                - sum(c for (_, e), c in h1 if e == 0)
                + (e_lift == 1)
                + max(0, 1 - delta1)
            )
            if i_pool[0] - dict(i1).get(0, 0) > points_budget(n, d - 1 - d1):
                dropped += 1
            elif cap is not None and on_h > cap[d - 1 - d1]:
                capped += 1
            else:
                expected += [(h_pool, h1), (i_pool, i1)]
        calls.clear()
        list(_split_off_part(n, d, h_pool, i_pool, rows, e_lift, part_window, m_min, table))
        assert calls == expected
        assert expected and dropped, (n, d, h_pool, i_pool)
        assert capped or cap is None, (n, d, h_pool, i_pool)


def test_tail_table_keeps_each_tail_once_in_ascending_degree():
    h_pool, i_pool = {(1, 2): 2, (2, 2): 1}, {0: 3, 1: 6}
    table = _records(tail_table(3, 4, pool_rows(3, h_pool, i_pool)))
    keys = [entry[:3] for entry in table]
    assert len(set(keys)) == len(keys) > 20
    assert [dk for dk, *_ in table] == sorted(dk for dk, *_ in table)
    for dk, h_items, i_items, mk, delta in table:
        assert mk == dk - sum(m * c for (m, _), c in h_items)
        assert dict(i_items).get(0, 0) <= points_on_curve(3, dk)


def _plain_tails(n, d_max, h_pool, i_pool):
    """The rational tails of the pools, enumerated plainly: every take of
    every marker in lexicographic order over the sorted keys, the
    freedom of _window, and at most as many points as a rational curve
    of degree dk passes through, (n - 1) * points <= (n + 1) * dk + n - 3."""

    def takes(pool):
        keys = sorted(pool)
        for counts in itertools.product(*(range(pool[key] + 1) for key in keys)):
            yield tuple((key, c) for key, c in zip(keys, counts) if c)

    bounds = _window(n)
    out = []
    for dk in range(1, d_max + 1):
        for h_items in takes(h_pool):
            mk = dk - sum(m * c for (m, _), c in h_items)
            if mk < 1:
                continue
            base, lo, hi = bounds(dk, h_items, mk)
            for i_items in takes(i_pool):
                delta = base - sum((n - 1 - e) * c for e, c in i_items)
                if lo <= delta <= hi and (n - 1) * dict(i_items).get(0, 0) <= (n + 1) * dk + n - 3:
                    out.append((dk, h_items, i_items, mk, delta))
    return out


@pytest.mark.parametrize(
    "p",
    [
        Problem.make(0, 3, 5, {(1, 2): 5}, {1: 20}),
        Problem.make(0, 4, 4, {(1, 3): 4}, {1: 10, 2: 1}),
        Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16}),
        Problem.make(1, 2, 6, {(1, 1): 6}, {0: 18}),
    ],
    ids=["rational P^3 d=5", "rational P^4 d=4", "elliptic P^3 d=4", "elliptic P^2 d=6"],
)
def test_tail_table_is_components_within_the_point_cap(monkeypatch, p):
    # Every table a count builds, on the pools of every specialization,
    # lists the tails a plain enumeration finds, in the same order.  The
    # last row of a listing takes every marker, so it gives the pools.
    built = []
    for module in (genus0, genus1):
        real = module.tail_table

        def spy(*args, real=real):
            table = real(*args)
            built.append((args, table))
            return table

        monkeypatch.setattr(module, "tail_table", spy)
    Engine().count(p)
    checked = 0
    for (n, d_max, (h_rows, i_rows)), table in built:
        h_pool, i_pool = dict(h_rows[-1][0]), dict(i_rows[-1][0])
        # pools with a few hundred sub-vectors at most keep this fast
        if math.prod(c + 1 for c in [*h_pool.values(), *i_pool.values()]) > 400:
            continue
        assert _records(table) == _plain_tails(n, d_max, h_pool, i_pool)
        checked += 1
    assert checked > 10


def _plain_relief(record):
    """A record's relief worked out plainly: the lines and slot-0
    tangency markers it takes, less the points of H its attachment puts
    there, one for a tail or IIa component of freedom 0 and 1 - delta
    of a IIb component's two contacts, so two at freedom -1."""
    _, h_items, i_items, _, delta = record
    on_points = {-1: 2, 0: 1}.get(delta, 0)
    return dict(i_items).get(1, 0) + sum(c for (_, e), c in h_items if e == 0) - on_points


def _plain_cap(n, d_max, records, room=None):
    """The relief cap of the tail records worked out plainly.  A tail
    lowers the points of H the walk counts by the lines and slot-0
    tangency markers it takes, less 1 when its freedom is 0; tails with
    the same degree and relief are alike, so every multiset of tails is
    a multiset of those kinds.  Over each multiset of total degree
    t <= r, the component in H passes through at most room[r - t]
    points of H, by default _plain_room's."""
    kinds = sorted(
        {
            (dk, dict(i_items).get(1, 0) + sum(c for (_, e), c in h_items if e == 0) - (delta == 0))
            for dk, h_items, i_items, _, delta in records
        }
    )
    most = [0] * (d_max + 1)
    for size in range(d_max + 1):
        for chosen in itertools.combinations_with_replacement(kinds, size):
            t = sum(dk for dk, _ in chosen)
            if t <= d_max:
                most[t] = max(most[t], sum(lowered for _, lowered in chosen))
    room = room or _plain_room(n, d_max)
    return [max(room[r - t] + most[t] for t in range(r + 1)) for r in range(d_max + 1)]


def _plain_room(n, d_max):
    """The points of H a rational component in H of degree r + 1 passes
    through, for r = 0..d_max: its curves in P^(n-1) move in a family of
    dimension n * (r + 1) + n - 4 and each point costs n - 2."""
    return [(n * (r + 1) + n - 4) // (n - 2) for r in range(d_max + 1)]


def _plain_elliptic_room(n, d_max):
    """The points of H an elliptic component in H of degree r + 3 passes
    through, for r = 0..d_max: its curves in P^(n-1) move in a family of
    dimension n * (r + 3) and each point costs n - 2."""
    return [n * (r + 3) // (n - 2) for r in range(d_max + 1)]


@pytest.mark.parametrize(
    "p",
    [
        Problem.make(0, 3, 5, {(1, 2): 5}, {1: 20}),
        Problem.make(0, 3, 5, {(1, 2): 3, (1, 0): 2}, {1: 16}),
        Problem.make(0, 4, 4, {(1, 3): 4}, {1: 10, 2: 1}),
        Problem.make(0, 4, 4, {(1, 3): 3, (1, 0): 1}, {1: 9}),
        Problem.make(1, 3, 5, {(1, 2): 3, (1, 0): 2}, {1: 16}),
        Problem.make(1, 2, 6, {(1, 1): 6}, {0: 18}),
    ],
    ids=["rational P^3 d=5", "rational P^3 d=5 slot 0", "rational P^4 d=4", "rational P^4 d=4 slot 0",
         "elliptic P^3 d=5 slot 0", "elliptic P^2 d=6"],
)
def test_relief_cap_is_the_plain_bound_of_each_table(monkeypatch, p):
    # Every table a count builds carries each record's relief and the
    # bounds of a plain enumeration: the points budget of every degree;
    # over P^2, where points of H are not counted, reliefs of 0, no room
    # and no cap; else the room and the cap, whatever the degree, and
    # for an elliptic component in H (type IIc) its own room and cap.
    built, elliptic = [], []
    for module in (genus0, genus1):
        real = module.tail_table

        def spy(*args, real=real):
            table = real(*args)
            built.append((args, table))
            return table

        monkeypatch.setattr(module, "tail_table", spy)
    real_in_h = TailTable.in_h_elliptic

    def spy_in_h(table, n):
        made = real_in_h(table, n)
        elliptic.append((n, table, made))
        return made

    monkeypatch.setattr(TailTable, "in_h_elliptic", spy_in_h)
    Engine().count(p)
    capped = 0
    for (n, d_max, _), table in built:
        assert table.entries == [(record, 0 if n < 3 else _plain_relief(record)) for record in _records(table)]
        assert table.budget == [_most_points(n, r) for r in range(d_max + 1)]
        assert table.room == (None if n < 3 else _plain_room(n, d_max))
        if n < 3:
            assert table.cap is None
        else:
            assert table.cap == _plain_cap(n, d_max, _records(table)), (n, d_max)
            capped += 1
    assert built and (capped == 0 if p.n == 2 else capped > 3)
    for n, table, made in elliptic:
        d_max = len(table.budget) - 1
        room = _plain_elliptic_room(n, d_max)
        assert made._replace(room=None, cap=None) == table._replace(room=None, cap=None)
        assert made.room == room
        assert made.cap == _plain_cap(n, d_max, _records(table), room)
    assert (len(elliptic) > 3) == (p.n == 3 and p.genus == 1)


def test_relief_cap_counts_every_term_of_a_relief():
    # On the pools of real counts a slot-0 tangency marker costs a tail
    # the freedom of a line and relieves as much, so tails of lines
    # reach every cap that one relieves; records no pool gives show
    # each term of the relief in the cap on its own.
    for n, records in [
        (3, [(1, (((1, 0), 5),), (), 1, 1)]),
        (3, [(1, (((1, 2), 1), ((2, 0), 2)), ((1, 3),), 1, 2)]),
        (3, [(1, (), ((1, 5),), 1, 0), (2, (), ((0, 1), (1, 8)), 2, 1)]),
        (4, [(1, (((1, 0), 3),), ((1, 1),), 1, 0), (3, (((1, 3), 2),), ((1, 8), (2, 1)), 1, 1)]),
    ]:
        for d_max in (3, 4, 5):
            table = TailTable.of(n, d_max, records)
            assert table.entries == [(record, _plain_relief(record)) for record in records]
            assert table.cap == _plain_cap(n, d_max, records)
            assert table.cap != _plain_room(n, d_max)
    # and the points of H a record of freedom -1..1, a distinguished IIb
    # component's, takes off the component in H
    for delta, lowered in [(-1, 2), (0, 3), (1, 4)]:
        record = (2, (((1, 0), 1),), ((1, 3),), 2, delta)
        assert TailTable.of(3, 2, [record]).entries == [(record, lowered)]
        assert _plain_relief(record) == lowered


def _walks_with_and_without_the_cap(n, d, h_pool, i_pool):
    """Every type II walk on the pools, and every split-off over P^3,
    as (uncapped, capped) pairs of calls that start it: the same table
    without and with its cap."""
    rows = pool_rows(n, h_pool, i_pool)
    table = tail_table(n, d - 1, rows)
    assert table.cap is not None
    for e_lift in range(1, n):
        for h_points in (0, 1, 2):
            yield tuple(
                functools.partial(type2_partitions, d, h_pool, i_pool, tails, e_lift, 1, h_points)
                for tails in (table._replace(cap=None), table)
            )
        if n == 3:
            rational = tail_table(n, d - 3, rows)
            for window, m_min in [((1, 0, n - 1), 1), ((0, -1, 2 * n - 5), 2)]:
                yield tuple(
                    functools.partial(_split_off_part, n, d, h_pool, i_pool, rows, e_lift, window, m_min, tails)
                    for tails in (rational._replace(cap=None), rational)
                )


def test_relief_cap_cuts_no_shape():
    # The cap cuts only branches and distinguished components that
    # would yield nothing: the same shapes in the same order, on pools
    # with slot-0 tangency markers, for every slot of the specialized
    # marker and up to two points of H from outside the walk.
    runs = [
        run
        for n, d, h_pool, i_pool in [
            (3, 5, {(1, 2): 3, (1, 0): 2}, {1: 14}),
            (3, 6, {(1, 2): 4, (1, 0): 2}, {0: 1, 1: 15}),
            (3, 6, {(1, 2): 3, (1, 0): 1, (2, 1): 1}, {1: 17}),
            (4, 4, {(1, 3): 2, (1, 0): 2}, {1: 5, 2: 2}),
            (4, 5, {(1, 3): 3, (1, 0): 2}, {0: 1, 1: 6, 2: 2}),
        ]
        for run in _walks_with_and_without_the_cap(n, d, h_pool, i_pool)
    ]
    every, walked = [], []
    started = _started_branches(lambda: every.extend(list(uncapped()) for uncapped, _ in runs))
    kept = _started_branches(lambda: walked.extend(list(capped()) for _, capped in runs))
    assert walked == every
    assert sum(map(len, walked)) > 1000
    # and it does cut
    assert len(kept) < len(started)


def _most_points(n, d_rem):
    """Most general points rational curves of total degree at most
    d_rem pass through between them, over every split of the degree."""
    best = [0] * (d_rem + 1)
    for t in range(1, d_rem + 1):
        best[t] = max(best[t - 1], *(best[t - dk] + points_on_curve(n, dk) for dk in range(1, t + 1)))
    return best[d_rem]


def test_points_budget_is_what_the_tails_can_take():
    for n in range(2, 7):
        assert [points_budget(n, t) for t in range(12)] == [_most_points(n, t) for t in range(12)]


def _started_branches(run):
    """Call ``run`` and list the branches the type II walks start, each
    as (n, d_rem, points, points of H, cap): its walk's ambient
    dimension, its degree left to the tails, the point markers and the
    points of H it carries (the walk's count), and its walk's cap.  A
    branch is one run of the walk's recursive body, seen by a profile
    hook on its frames; the expansion or split-off that runs a walk
    gives its root branch n (None for a walk run from elsewhere), and a
    branch gives it to the branches it starts."""
    body = next(c for c in type2_partitions.__code__.co_consts if getattr(c, "co_name", None) == "rec")
    started = {}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is body and frame not in started:
            caller = frame.f_back
            n = started[caller][0] if caller.f_code is body else caller.f_back.f_locals.get("n")
            seen = frame.f_locals
            started[frame] = (n, seen["d_rem"], seen["i_rem"].get(0, 0), seen["on_h"], seen["cap"])

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return list(started.values())


@pytest.mark.parametrize(
    "p, bodies",
    [
        (Problem.make(0, 2, 7, {(1, 1): 7}, {0: 20}), 1707),
        (Problem.make(1, 2, 6, {(1, 1): 6}, {0: 18}), 810),
        (Problem.make(0, 3, 5, {(1, 2): 5}, {1: 20}), 1427),
        (Problem.make(0, 3, 6, {(1, 2): 4, (2, 1): 1}, {0: 3, 1: 16}), 64332),
        (Problem.make(0, 3, 7, {(1, 2): 7}, {1: 28}), 24633),
    ],
    ids=["rational P^2 d=7", "elliptic P^2 d=6", "rational P^3 d=5", "g=0 n=3 d=6 h=1,2:4;2,1:1 i=0:3;1:16",
         "rational P^3 d=7"],
)
def test_type2_walks_start_no_branch_past_its_points(p, bodies):
    # Every branch the walk starts can still place its points, and under
    # a cap (the tail table's, over P^3 and up) its points of H: the
    # walk cuts the others before it descends.  The P^3 bodies were
    # 1,699, 65,290 and 24,905 while tables of degree below 3 had no
    # cap; the P^2 walks have none.
    started = _started_branches(lambda: Engine().count(p))
    assert len(started) == bodies
    assert all(points <= _most_points(n, d_rem) for n, d_rem, points, _, _ in started)
    assert all(cap is None or on_h <= cap[d_rem] for _, d_rem, _, on_h, cap in started)
    assert any(cap is not None for *_, cap in started) == (p.n >= 3)


def _freedom(n, genus, dk, h_items, i_items, mk):
    """A component's freedom read plainly: the dimension of its problem
    with the attachment contact free on H (slot n - 1)."""
    p = Problem.make(genus, n, dk, bump(h_items, (mk, n - 1)), i_items)
    return dim_w(p) if genus else dim_x(p)


def test_records_carry_the_multiplicity_and_freedom_of_their_component():
    # tail tables in the windows the expanders use, and the
    # distinguished IIa (genus 1) and IIb components of _split_off_part
    seen = {}
    for n, d, h_pool, i_pool in [
        (2, 6, {(1, 1): 3, (1, 0): 2, (2, 0): 1}, {0: 12, 2: 1}),
        (3, 6, {(1, 2): 4, (2, 1): 1}, {0: 2, 1: 14, 3: 1}),
        (3, 5, {(1, 2): 3, (1, 0): 1, (2, 2): 1}, {0: 1, 1: 9, 2: 2}),
    ]:
        rows = pool_rows(n, h_pool, i_pool)
        rational = tail_table(n, d - 3, rows)
        doubly = rational.within(2 * n - 4)
        split_off = lambda window, m_min, table: [
            shape[0] for shape in _split_off_part(n, d, h_pool, i_pool, rows, n - 1, window, m_min, table)
        ]
        for genus, lo, hi, records in [
            (0, 0, n - 1, _records(tail_table(n, d - 1, rows))),
            (0, 0, 2 * n - 4, [record for record, _ in components(n, d - 1, rows, 0, 0, 2 * n - 4)]),
            (1, 0, n - 1, split_off((1, 0, n - 1), 1, rational)),
            (0, -1, 2 * n - 5, split_off((0, -1, 2 * n - 5), 2, doubly)),
        ]:
            for dk, h_items, i_items, mk, delta in records:
                assert mk == dk - sum(m * c for (m, _), c in h_items)
                assert delta == _freedom(n, genus, dk, h_items, i_items, mk)
                assert lo <= delta <= hi
            seen.setdefault((n, genus, lo, hi), set()).update(record[4] for record in records)
    # every freedom each window admits shows up
    assert all(deltas == set(range(lo, hi + 1)) for (_, _, lo, hi), deltas in seen.items()), seen


def test_type2_walks_never_enumerate_components(monkeypatch):
    # rational P^3 d=4 through 16 lines: every expansion that specializes
    # builds one tail table, with the one listing of its pools'
    # sub-vectors, and no type2_partitions generator lists any while it
    # runs
    real_expand, real_specialize, real_table = genus0.expand_x, genus0.specialize, genus0.tail_table
    real_partitions, real_rows = genus0.type2_partitions, partitions.pool_rows
    expansions, stack, running, stray, enumerations = [], [], [0], [], [0]

    def expand_x(eng, p, first_slot=None):
        stack.append([0, 0])
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

    def counted_rows(*args):
        enumerations[0] += 1
        if running[0]:
            stray.append(args)
        return real_rows(*args)

    def walk(*args):
        shapes = real_partitions(*args)
        while True:
            running[0] += 1
            try:
                shape = next(shapes, None)
            finally:
                running[0] -= 1
            if shape is None:
                return
            yield shape

    p = Problem.make(0, 3, 4, {(1, 2): 4}, {1: 16})
    plain = Engine().count(p)
    monkeypatch.setattr(genus0, "expand_x", expand_x)
    monkeypatch.setattr(genus0, "specialize", specialize)
    monkeypatch.setattr(genus0, "tail_table", table)
    monkeypatch.setattr(genus0, "type2_partitions", walk)
    monkeypatch.setattr(genus0, "pool_rows", counted_rows)
    monkeypatch.setattr(partitions, "pool_rows", counted_rows)
    assert Engine().count(p) == plain
    assert stray == []
    assert all(tables == specialized <= 1 for specialized, tables in expansions)
    assert enumerations[0] == sum(tables for _, tables in expansions) > 10


def _excess_in_h(n, d0, h0, i0, deltas):
    """How many more points of H the component in H, as count_y builds
    it, is asked through than a rational curve of degree d0 there
    passes through; over P^2 nothing is capped."""
    if n < 3:
        return -1
    return hyperplane_markers(h0, i0, deltas).get(0, 0) - points_on_curve(n - 1, d0)


def test_count_y_sees_no_shape_beyond_the_hyperplane_capacity(monkeypatch):
    # the walk drops every shape whose component in H is asked through
    # more points of H than it can pass through, and only those: no
    # count_y call gets one, and every count stays the same
    real_y = genus0.count_y
    over, calls = [], [0]

    def spy_y(eng, n, d0, h0, i0, parts, divisor=None):
        calls[0] += 1
        # an elliptic component in H (type IIc, given its divisor) has
        # its own room, checked by _iic_excess
        if divisor is None and _excess_in_h(n, d0, h0, i0, [part[4] for part in parts]) > 0:
            over.append((n, d0, h0, i0, parts))
        return real_y(eng, n, d0, h0, i0, parts, divisor)

    monkeypatch.setattr(genus0, "count_y", spy_y)
    monkeypatch.setattr(genus1, "count_y", spy_y)
    for p, value in [
        (Problem.make(0, 3, 4, {(1, 2): 4}, {1: 16}), 383306880 * 24),
        (Problem.make(0, 3, 5, {(1, 2): 5}, {1: 20}), 6089786376960 * 120),
        (Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16}), 52832040 * 24),
        (Problem.make(0, 4, 4, {(1, 3): 4}, {1: 10, 2: 1}), 63740 * 24),
    ]:
        assert Engine().count(p) == value, p
    assert calls[0] > 1000
    assert over == []


# h_points this low leaves every shape within the capacity, so the walk
# yields what it did before the cut
_UNCAPPED = -(10**9)


class _DivisorProblemOf:
    """An engine for genus1.count_yc that counts every tail 1, and an
    evaluator to patch in for fibration.expand_z, which count_y hands
    the divisor-class problem the shape builds: it keeps it, counting
    it 0."""

    def __init__(self):
        self.pinned = defaultdict(dict)
        self.z = None

    def counted(self, problem):
        return 1

    def expand_z(self, eng, z):
        self.z = z
        return 0


def _iic_excess(n, shape):
    """How many more points of H the divisor-class problem that count_yc
    builds for a IIc shape carries than an elliptic curve of its degree
    in H = P^(n-1) passes through, and whether beyond_capacity flags it."""
    parts, _, _, d0, h0, i0, _ = shape
    eng = _DivisorProblemOf()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fibration, "expand_z", eng.expand_z)
        genus1.count_yc(eng, n, d0, h0, i0, parts)
    z = eng.z
    points = z.i[0][1] if z.i and z.i[0][0] == 0 else 0
    return points - n * d0 // (n - 2), beyond_capacity(z)


def test_type2_walk_cuts_exactly_the_shapes_beyond_the_hyperplane_capacity():
    # points of H other than lines: the specialized marker on slot 1
    # (e_lift = 1), tangency markers on slot 0, rigid tails and h_points
    edges, iic_edges = Counter(), Counter()
    for d, h_pool, i_pool, n in [
        (4, {(1, 2): 2, (1, 0): 2}, {0: 1, 1: 8}, 3),
        (5, {(1, 0): 3, (2, 2): 1}, {1: 11}, 3),
        (4, {(1, 3): 2, (1, 0): 2}, {1: 5, 2: 2}, 4),
    ]:
        rows = pool_rows(n, h_pool, i_pool)
        table = tail_table(n, d - 1, rows)
        for e_lift in range(1, n):
            for h_points in (0, 1, 2):
                every = list(type2_partitions(d, h_pool, i_pool, table, e_lift, 1, _UNCAPPED))
                excess = [
                    _excess_in_h(n, d0, bump(h0, (1, 0), h_points), i0, [tail[4] for tail in parts])
                    for parts, _, _, d0, h0, i0, _ in every
                ]
                # with and without the table's relief cap
                for tails in (table._replace(cap=None), table):
                    walked = list(type2_partitions(d, h_pool, i_pool, tails, e_lift, 1, h_points))
                    assert walked == [shape for shape, over in zip(every, excess) if over <= 0]
                edges.update((n, e_lift, over) for over in excess if over in (0, 1))
            if n != 3:
                continue
            # an elliptic component in H (type IIc) keeps exactly the
            # shapes whose divisor-class problem beyond_capacity passes
            elliptic = tail_table(n, d - 3, rows).in_h_elliptic(n)
            every = list(type2_partitions(d, h_pool, i_pool, elliptic, e_lift, 3, _UNCAPPED))
            excess = [_iic_excess(n, shape) for shape in every]
            assert all((over > 0) == flagged for over, flagged in excess)
            for tails in (elliptic._replace(cap=None), elliptic):
                walked = list(type2_partitions(d, h_pool, i_pool, tails, e_lift, 3))
                assert walked == [shape for shape, (_, flagged) in zip(every, excess) if not flagged]
            iic_edges.update((e_lift, over) for over, _ in excess if over in (0, 1))
    # shapes on both sides of the capacity, for every slot of the marker
    assert set(edges) == {(n, e, over) for n in (3, 4) for e in range(1, n) for over in (0, 1)}, edges
    assert set(iic_edges) == {(e, over) for e in (1, 2) for over in (0, 1)}, iic_edges


def test_type2_walk_yields_no_shape_below_its_least_degree():
    # an elliptic component in H has degree 3 at least, so a IIc walk
    # of degree 2 yields nothing: on the empty table expand_w builds at
    # d = 2, and on a larger one whose bounds a negative degree would
    # read from the end
    h_pool, i_pool = {(1, 2): 2}, {1: 8}
    rows = pool_rows(3, h_pool, i_pool)
    for d_max in (-1, 2):
        assert list(type2_partitions(2, h_pool, i_pool, tail_table(3, d_max, rows), 1, 3)) == []


def test_split_off_part_cuts_exactly_the_shapes_count_ya_and_count_yb_zero(monkeypatch):
    # the distinguished component's own points on H: the IIa attachment
    # when delta1 is 0, and the 1 - delta1 contacts of a IIb component,
    # read off the markers count_ya and count_yb hand to count_y.  The
    # uncapped walk passes every shape's points of H as _UNCAPPED, and
    # the table has no relief cap.
    real_walk = genus1.type2_partitions

    def uncapped(*args):
        return real_walk(*args[:6], _UNCAPPED)

    n = 3
    iia = lambda shape: (shape[5], shape[6], [shape[0][4]] + [tail[4] for tail in shape[1]])
    iib = lambda shape: (bump(shape[5], (1, 0), 2 - (shape[0][4] + 1)), shape[6], [tail[4] for tail in shape[1]])
    for d, h_pool, i_pool, e_lift in [
        (5, {(1, 2): 3, (1, 0): 2}, {1: 11}, 1),
        (6, {(1, 2): 5, (1, 0): 1}, {0: 1, 1: 13}, 2),
    ]:
        rows = pool_rows(n, h_pool, i_pool)
        rational = tail_table(n, d - 3, rows)._replace(cap=None)
        for window, m_min, markers, deltas in [
            ((1, 0, n - 1), 1, iia, {0, 1, 2}),
            ((0, -1, 2 * n - 5), 2, iib, {-1, 0, 1}),
        ]:
            walk = lambda: list(_split_off_part(n, d, h_pool, i_pool, rows, e_lift, window, m_min, rational))
            with monkeypatch.context() as patch:
                patch.setattr(genus1, "type2_partitions", uncapped)
                every = walk()
            excess = [_excess_in_h(n, shape[4], *markers(shape)) for shape in every]
            assert walk() == [shape for shape, over in zip(every, excess) if over <= 0]
            # every delta1 has shapes just inside and just past the capacity
            edges = {(shape[0][4], over) for shape, over in zip(every, excess) if over in (0, 1)}
            assert edges == {(delta1, over) for delta1 in deltas for over in (0, 1)}, edges
