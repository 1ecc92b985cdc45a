"""Marker-routing combinatorics against plain slow enumerations."""

from collections import Counter
from fractions import Fraction

from curvecount.partitions import (
    automorphism_order,
    subvectors,
    subvectors_weighted,
    type2_partitions,
)
from oracles import ordered_type2_aggregate


def _shapes(d_avail, h_pool, i_pool, n, bounds):
    """(parts, comb) of every shape whose tails take at most d_avail,
    the hyperplane component keeping the rest of a degree d_avail + 1
    curve."""
    for parts, comb, *_ in type2_partitions(d_avail + 1, h_pool, i_pool, n, bounds, n - 1):
        yield parts, comb


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
    pool = (("a", 2), ("b", 1))
    seen = {}
    for sub, ways in subvectors(pool):
        seen[tuple(sorted(sub.items()))] = ways
    assert seen == {
        (): 1,
        (("a", 1),): 2,
        (("a", 2),): 1,
        (("b", 1),): 1,
        (("a", 1), ("b", 1)): 2,
        (("a", 2), ("b", 1)): 1,
    }
    assert sum(seen.values()) == 2**3


def test_subvectors_weighted_agrees_with_filtering():
    pool = ((0, 2), (1, 3), (2, 1))
    weight_of = lambda e: 2 - e
    for lo, hi in [(0, 3), (2, 2), (1, 4), (5, 9)]:
        fast = sorted(
            (tuple(sorted(s.items())), w)
            for s, w in subvectors_weighted(pool, weight_of, lo, hi)
        )
        slow = sorted(
            (tuple(sorted(s.items())), w)
            for s, w in subvectors(pool)
            if lo <= sum(weight_of(k) * c for k, c in s.items()) <= hi
        )
        assert fast == slow


def test_subvectors_weighted_handles_negative_weights():
    pool = ((-1, 2), (1, 2))
    weight_of = lambda e: e
    picked = sorted(
        (tuple(sorted(s.items())), w)
        for s, w in subvectors_weighted(pool, weight_of, 0, 0)
    )
    slow = sorted(
        (tuple(sorted(s.items())), w)
        for s, w in subvectors(pool)
        if sum(k * c for k, c in s.items()) == 0
    )
    assert picked == slow
    assert ((( -1, 1), (1, 1)), 4) in picked


def _window(n):
    def bounds(dk, h_sub, mk):
        base = (n + 1) * dk + (n - 3)
        base -= sum((n + m - e - 2) * c for (m, e), c in h_sub.items())
        base -= mk - 1
        return (base - (n - 1), base)

    return bounds


def test_type2_partitions_match_ordered_enumeration():
    cases = [
        (3, {(1, 2): 2}, {1: 5, 0: 1}, 3),
        (2, {(1, 1): 1, (2, 2): 1}, {1: 3}, 3),
        (4, {}, {1: 6, 0: 2}, 3),
        (3, {(1, 1): 2}, {0: 6}, 2),
    ]
    for d_avail, h_pool, i_pool, n in cases:
        bounds = _window(n)
        total = Fraction(0)
        for parts, comb in _shapes(d_avail, h_pool, i_pool, n, bounds):
            worth = comb
            for part in parts:
                worth *= _value_of(*part)
            total += worth
        oracle = ordered_type2_aggregate(d_avail, h_pool, i_pool, n, bounds, _value_of)
        assert total == oracle


def test_type2_partitions_yield_canonical_multisets():
    seen = set()
    for parts, comb in _shapes(4, {(1, 2): 1}, {1: 5}, 3, _window(3)):
        assert list(parts) == sorted(parts)
        assert parts not in seen
        seen.add(parts)
        assert sum(p[0] for p in parts) <= 4
        assert comb > 0
    assert () in seen


def test_weights_scale_with_automorphisms():
    # two interchangeable parts carry a half weight
    bounds = lambda dk, h_sub, mk: (0, 99)
    entries = {
        parts: comb for parts, comb in _shapes(2, {}, {}, 2, bounds)
    }
    twin = ((1, (), ()), (1, (), ()))
    assert entries[twin] == Fraction(1, 2)


def _aggregate(d_avail, h_pool, i_pool, n, bounds):
    total = Fraction(0)
    for parts, comb in _shapes(d_avail, h_pool, i_pool, n, bounds):
        worth = comb
        for part in parts:
            worth *= _value_of(*part)
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
        shapes = list(_shapes(d_avail, h_pool, i_pool, n, _window(n)))
        assert shapes
        for parts, _ in shapes:
            taken = sum(dict(i_items).get(0, 0) for _, _, i_items in parts)
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
        bounds = _window(n)
        h_pool = {(1, n - 1): 1}
        assert list(_shapes(d_avail, h_pool, i_pool, n, bounds)) == []
        assert ordered_type2_aggregate(d_avail, h_pool, i_pool, n, bounds, _value_of) == 0
    # at the capacity itself shapes remain, and agree with the oracle
    for d_avail, i_pool, n in [(2, {0: 4, 1: 3}, 3), (1, {0: 2, 1: 2}, 2), (2, {0: 5}, 2)]:
        bounds = _window(n)
        h_pool = {(1, n - 1): 1}
        total = _aggregate(d_avail, h_pool, i_pool, n, bounds)
        assert total != 0
        assert total == ordered_type2_aggregate(d_avail, h_pool, i_pool, n, bounds, _value_of)


def test_free_markers_do_not_raise_the_point_capacity():
    # free markers (e = n) have negative incidence weight, so the window
    # admits a line of P^2 through 4 points and 2 free markers; no line
    # passes through 4 general points, so no such part is enumerated
    assert list(_shapes(1, {(1, 0): 2}, {0: 4, 2: 2}, 2, _window(2))) == []
    for d_avail, h_pool, i_pool, n, some in [
        (1, {(1, 0): 2}, {0: 4, 2: 2}, 2, False),
        (2, {(1, 0): 2}, {0: 4, 2: 2}, 2, True),
        (2, {(1, 1): 1}, {0: 5, 2: 2}, 2, True),
        (3, {(1, 1): 2}, {0: 6, 2: 3}, 2, True),
        (2, {(1, 2): 1}, {0: 4, 1: 2, 3: 2}, 3, True),
    ]:
        bounds = _window(n)
        total = _aggregate(d_avail, h_pool, i_pool, n, bounds)
        assert (total != 0) == some
        assert total == ordered_type2_aggregate(d_avail, h_pool, i_pool, n, bounds, _value_of)


def _kept(d, h_pool, i_pool, e_lift, parts):
    """What the hyperplane component of a degree d curve keeps once
    ``parts`` split off, worked out plainly: the pools less the parts,
    the specialized marker on slot e_lift, and the product of the
    parts' attachment multiplicities."""
    h0, i0, ram = Counter(h_pool), Counter(i_pool), 1
    for dk, h_items, i_items in parts:
        h0.subtract(dict(h_items))
        i0.subtract(dict(i_items))
        ram *= dk - sum(m * c for (m, _), c in h_items)
        d -= dk
    i0[e_lift] += 1
    assert min([0, *h0.values(), *i0.values()]) == 0
    return d, {k: c for k, c in h0.items() if c}, {k: c for k, c in i0.items() if c}, ram


def test_type2_partitions_yield_what_the_hyperplane_component_keeps():
    cases = [
        (3, {(1, 2): 2}, {1: 5, 0: 1}, 3, _window(3)),
        (2, {(1, 1): 1, (2, 2): 1}, {1: 3}, 3, _window(3)),
        (4, {}, {1: 6, 0: 2}, 3, _window(3)),
        (3, {(1, 1): 2}, {0: 6}, 2, _window(2)),
        (4, {(1, 2): 1}, {1: 5}, 3, _window(3)),
        (2, {}, {}, 2, lambda dk, h_sub, mk: (0, 99)),
        (4, {(1, 3): 1}, {0: 3, 2: 4}, 4, _window(4)),
        (2, {(1, 2): 1}, {0: 4, 1: 3}, 3, _window(3)),
        (1, {(1, 1): 1}, {0: 2, 1: 2}, 2, _window(2)),
        (2, {(1, 1): 1}, {0: 5}, 2, _window(2)),
        (2, {(1, 0): 2}, {0: 4, 2: 2}, 2, _window(2)),
        (2, {(1, 1): 1}, {0: 5, 2: 2}, 2, _window(2)),
        (3, {(1, 1): 2}, {0: 6, 2: 3}, 2, _window(2)),
        (2, {(1, 2): 1}, {0: 4, 1: 2, 3: 2}, 3, _window(3)),
    ]
    shapes = 0
    for d_avail, h_pool, i_pool, n, bounds in cases:
        for e_lift in range(n):
            d = d_avail + 1
            for parts, _, *kept in type2_partitions(d, h_pool, i_pool, n, bounds, e_lift):
                assert tuple(kept) == _kept(d, h_pool, i_pool, e_lift, parts)
                shapes += 1
    assert shapes > 100
