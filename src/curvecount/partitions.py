"""Combinatorics for degeneration sums: distributing labeled markers
over curve components and enumerating component multisets.

A marker pool is a dict, {(m, e): count} for tangency markers and
{e: count} for incidence markers.  A component that splits off is one
record (dk, h_items, i_items, mk, delta): its degree, its marker
vectors as sorted (key, count) item tuples, its attachment multiplicity
and its freedom, all worked out once by components.  mk and delta
depend on the first three fields alone, so records order as those do.
tail_table lists the records of one degeneration, type2_partitions
walks them into type II shapes, and both leave out, before building
them, the tails and shapes that count 0 by their point markers alone.
"""

from __future__ import annotations

import math


def bump(vec: dict, key, delta=1) -> dict:
    """Copy of a marker pool with ``delta`` added to the count of
    ``key``; zero counts are dropped.  Overdrawing a pool is a fault in
    the caller and raises, also under ``python -O``."""
    out = dict(vec)
    c = out.get(key, 0) + delta
    if c < 0:
        raise AssertionError(f"pool underflow at {key}")
    if c:
        out[key] = c
    else:
        out.pop(key, None)
    return out


def attach_mult(dk: int, h_items) -> int:
    """Contact multiplicity of a component of degree dk at its
    attachment point: the intersections with H that its tangency
    markers ``h_items`` (((m, e), count) pairs) do not account for."""
    return dk - sum(m * c for (m, _), c in h_items)


def automorphism_order(items) -> int:
    """Order of the symmetry group permuting equal entries."""
    counts: dict = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return math.prod(math.factorial(c) for c in counts.values())


def subvectors(pool: dict, weight_of=lambda key: 0) -> list:
    """Every sub-vector of the marker pool ``pool`` as (items, ways,
    weight, rest): the sorted (key, take) pairs with take > 0, the
    prod C(count, take) marker choices realizing them, the weight
    sum(weight_of(key) * take), and the pool left, a dict that keeps
    zero counts.  The takes run lexicographically over the sorted keys:
    each key's takes vary fastest within those of the keys before it."""
    rows = [((), 1, 0, {})]
    for key in sorted(pool):
        c, w = pool[key], weight_of(key)
        rows = [
            (
                items + ((key, take),) if take else items,
                ways * math.comb(c, take),
                weight + w * take,
                {**rest, key: c - take},
            )
            for items, ways, weight, rest in rows
            for take in range(c + 1)
        ]
    return rows


def components(n: int, d_max: int, h_pool: dict, i_pool: dict, window, m_min=1, d_min=1):
    """Enumerate the single components that can split off a curve
    falling into H, drawing on the marker pools ``h_pool`` and
    ``i_pool``.

    A component takes a degree dk in d_min..d_max, a sub-vector h_sub
    of the tangency pool and a sub-vector i_sub of the incidence pool,
    and meets the hyperplane at its attachment point with multiplicity
    mk = dk - sum(m * h) >= m_min.  ``window(dk, h_sub, mk)`` gives
    (base, lo, hi): the component's freedom delta, base less its
    incidence weight sum((n-1-e) * c), must lie in lo..hi.  An elliptic
    component takes d_min = 3: there are no elliptic curves of degree 1
    or 2, so a smaller one counts 0.

    Yields (dk, h_sub, i_sub, mk, delta, ways, h_rest, i_rest), ordered
    by dk, then by the subvectors order of h_sub, then of i_sub: the
    component's record, the number of labeled marker choices realizing
    the sub-vectors, and the rests of subvectors, shared between yields.
    Each pool's sub-vectors are listed once and the incidence side is
    filtered by the window, without pruning: the enumeration runs once
    per specialization (see tail_table), so pruning would buy little.
    """
    if d_min > d_max:
        return  # no degree to split off: list no pools
    h_rows = subvectors(h_pool)
    i_rows = subvectors(i_pool, lambda e: n - 1 - e)
    for dk in range(d_min, d_max + 1):
        for h_sub, h_ways, _, h_rest in h_rows:
            mk = attach_mult(dk, h_sub)
            if mk < m_min:
                continue
            base, lo, hi = window(dk, h_sub, mk)
            for i_sub, i_ways, weight, i_rest in i_rows:
                delta = base - weight
                if lo <= delta <= hi:
                    yield dk, h_sub, i_sub, mk, delta, h_ways * i_ways, h_rest, i_rest


def tail_table(n: int, d_max: int, h_pool: dict, i_pool: dict, window) -> list:
    """The rational tails of one degeneration, as records (dk, h_items,
    i_items, mk, delta): the ``components`` of the marker pools up to
    degree d_max, in ``window`` and through at most points_on_curve(n,
    dk) points, in the order ``components`` yields them, so ascending
    in dk.  The window depends on the tail alone, so the entries that
    fit a sub-pool are what ``components`` yields on it, in the same
    order: one table serves every pool the tails of type2_partitions and
    the distinguished part of genus1._split_off_part leave.
    genus0.expand_x takes d_max = d - 1.  genus1.expand_w builds one
    table with d_max = d - 3 (IIa and IIc keep degree >= 3 for the
    elliptic part, IIb >= 2 for the doubly-attached part and >= 1 for
    the hyperplane component) and keeps its entries of delta <= 2n - 4
    for the IIb tails."""
    table = []
    for dk, h_sub, i_sub, mk, delta, *_ in components(n, d_max, h_pool, i_pool, window):
        # a point count is first in the sorted item tuple
        if (i_sub[0][1] if i_sub and i_sub[0][0] == 0 else 0) <= points_on_curve(n, dk):
            table.append((dk, h_sub, i_sub, mk, delta))
    return table


def type2_partitions(d, h_pool: dict, i_pool: dict, n: int, table, e_lift: int, d0_min=1, h_points=0):
    """Enumerate the ways a curve of degree d falling into H breaks into
    a hyperplane component of degree at least d0_min and an unordered
    multiset of rational tails.

    Each tail is a record of ``table`` (see tail_table, built on these
    pools or larger ones) whose marker vectors fit what the tails before
    it leave, and the tails take a total degree of at most d - d0_min.
    d0_min is 1 for a rational hyperplane component and 3 for an
    elliptic one (type IIc), since elliptic curves of degree 1 or 2 do
    not exist.  A multiset takes its tails in nondecreasing record
    order, and the walk stops at the first record of too high a degree.

    Three rules drop shapes that count nothing.  A multiset must take
    every point marker (e = 0) of ``i_pool``: the hyperplane component
    lies in H, so a general point left on it makes the term vanish.  A
    tail may not take more points than a rational curve of its degree
    passes through (tail_table leaves such tails out).  Branches whose
    remaining degree cannot take the points left are cut early.  And
    for n >= 3 a rational hyperplane component (d0_min = 1) of degree
    d0 passes through at most points_on_curve(n - 1, d0) points of H,
    the point markers (e = 0) genus0.hyperplane_markers gives it: its
    incidence markers left on slot 1 (the specialized one when e_lift
    is 1), its tangency markers left on slot 0, one per tail of freedom
    delta = 0, and ``h_points`` more that a component outside the
    multiset puts there (genus1._split_off_part).  The walk counts
    them as it takes tails and drops a shape past the capacity before
    building it.  Over P^2 a point of the line H costs nothing, and an
    elliptic component in H (d0_min = 3) is not capped here.

    Yields (parts, ways, aut, d0, h0, i0, ram).  parts is a
    nondecreasing tuple of the tails' table records (dk, h_items,
    i_items, mk, delta).  The ints ways and aut are the multinomial
    routing of labeled markers into the ordered tails and the
    automorphism order of the multiset, by which a term divides its
    weight.  d0, h0 and i0 are what the hyperplane component keeps: its
    degree and the markers left in the pools, i0 with the specialized
    marker added on slot e_lift.  ram is the product of the tails'
    attachment multiplicities.
    """

    def rec(d_rem, h_rem, i_rem, min_tail, on_h):
        points = i_rem.get(0, 0)
        if not points_fit(n, d_rem, points):
            return
        if not points and (room is None or on_h + i_rem.get(1, 0) <= room[d_rem]):
            yield (), 1, 1, d_rem, h_rem, i_rem
        for tail in table:
            dk, h_items, i_items, mk, delta = tail
            if dk > d_rem:
                break
            if tail < min_tail:
                continue
            # math.comb is 0 when a tail takes more than is left
            ways = 1
            for k, take in h_items:
                ways *= math.comb(h_rem.get(k, 0), take)
            for e, take in i_items:
                ways *= math.comb(i_rem.get(e, 0), take)
            if not ways:
                continue
            h_left, i_left = dict(h_rem), dict(i_rem)
            on_h_left = on_h if delta else on_h + 1
            for k, take in h_items:
                h_left[k] -= take
                if not k[1]:
                    on_h_left -= take
            for e, take in i_items:
                i_left[e] -= take
            for rest, rest_ways, ram, d_left, h0, i0 in rec(d_rem - dk, h_left, i_left, tail, on_h_left):
                yield (tail,) + rest, ways * rest_ways, mk * ram, d_left, h0, i0

    # room[d0 - 1]: the points of H a component of degree d0 there takes
    room = [points_on_curve(n - 1, d0) for d0 in range(1, d + 1)] if n >= 3 and d0_min == 1 else None
    h_pool = dict(sorted(h_pool.items()))
    i_pool = dict(sorted(i_pool.items()))
    on_h = h_points + (e_lift == 1) + sum(c for (_, e), c in h_pool.items() if not e)
    for parts, ways, ram, d_left, h0, i0 in rec(d - d0_min, h_pool, i_pool, (), on_h):
        h0 = {k: c for k, c in h0.items() if c}
        i0 = {e: c for e, c in i0.items() if c}
        yield parts, ways, automorphism_order(parts), d_left + d0_min, h0, bump(i0, e_lift), ram


def points_on_curve(n: int, d: int) -> int:
    """Most general points of P^n that a rational curve of degree d
    passes through: the curves move in a family of dimension
    (n+1)*d + n - 3 and each point costs n - 1.  Free markers (e = n)
    do not move the curve, so they never raise the bound.  tail_table
    caps the points a tail takes with it, type2_partitions the points of
    H a rational hyperplane component passes through (with n - 1 >= 2),
    and engine.beyond_capacity the points of a whole problem.  n must
    be at least 2: in P^1 a point is a hyperplane and costs nothing."""
    return ((n + 1) * d + n - 3) // (n - 1)


def points_fit(n: int, d_rem: int, points: int) -> bool:
    """Whether rational components of total degree at most d_rem can
    take ``points`` general points between them.  Each component of
    degree dk takes at most points_on_curve(n, dk), which is 3*dk - 1
    for n = 2 and at most 2*dk for n >= 3."""
    if not points:
        return True
    return points <= (2 * d_rem if n >= 3 else 3 * d_rem - 1)
