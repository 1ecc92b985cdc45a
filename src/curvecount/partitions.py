"""Combinatorics for degeneration sums: distributing labeled markers
over curve components and enumerating component multisets.

A marker pool is a dict, {(m, e): count} for tangency markers and
{e: count} for incidence markers.  A component that splits off is one
record (dk, h_items, i_items, mk, delta): its degree, its marker
vectors as sorted (key, count) item tuples, its attachment multiplicity
and its freedom.  mk and delta depend on the first three fields and the
component's genus alone, so records of one genus order as those fields
do.  A kind of split-off component is plain data, its genus and the
window lo..hi its freedom must lie in: its least degree and its freedom
follow from the genus (components).

pool_rows lists the sub-vectors of a degeneration's pools once
(subvectors).  components, the one enumerator of split-off components,
reads that listing and yields records without building any pool;
tail_table keeps its rational records of freedom 0..n-1 within the
point cap as the tails.  type2_partitions walks a tail table into type
II shapes.  genus1._split_off_part takes its distinguished component
from components and builds the pools it leaves with rest, for the
components it keeps.  The shapes and tails that count 0 by their point
markers alone are cut before anything about them is built, each at one
place:

- tail_table drops a tail through more points than points_on_curve;
- type2_partitions drops a branch whose remaining degree cannot take
  the points left (points_budget) when it picks the tail that leads to
  it, before it copies the pools or starts the branch, and a shape
  whose component in H passes through too many points of H before it
  builds the shape;
- genus1._split_off_part drops a distinguished component that leaves
  more points than the tails can take by the same test, before it
  builds the pools it leaves or starts their walk;
- relief_cap bounds, once per tail table, the points of H a branch of
  the walk may still carry for a rational component in H: the walk
  drops a branch past it when it picks the tail that leads to it,
  after it copies the pools and before it starts the branch, and
  genus1._split_off_part a distinguished component past it before it
  builds the pools it leaves.
"""

from __future__ import annotations

import math

from .problems import free_dim


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


def automorphism_order(items) -> int:
    """Order of the symmetry group permuting equal entries."""
    counts: dict = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return math.prod(math.factorial(c) for c in counts.values())


def subvectors(pool: dict, weight_of=lambda key: 0) -> list:
    """Every sub-vector of the marker pool ``pool`` as (items, ways,
    weight): the sorted (key, take) pairs with take > 0, the prod
    C(count, take) marker choices realizing them and the weight
    sum(weight_of(key) * take).  The takes run lexicographically over
    the sorted keys: each key's takes vary fastest within those of the
    keys before it.  No row carries the pool it leaves; rest builds
    that for the components a caller keeps."""
    rows = [((), 1, 0)]
    for key in sorted(pool):
        c, w = pool[key], weight_of(key)
        rows = [
            (items + ((key, take),) if take else items, ways * math.comb(c, take), weight + w * take)
            for items, ways, weight in rows
            for take in range(c + 1)
        ]
    return rows


def pool_rows(n: int, h_pool: dict, i_pool: dict) -> tuple:
    """The sub-vectors of a degeneration's two marker pools, (h_rows,
    i_rows), each listed once by subvectors.  An incidence row weighs
    n - 1 - e per marker on slot e, its incidence weight.  A tangency
    row weighs m per marker of contact multiplicity m, its intersections
    with H, so a component of degree dk that takes it meets H at its
    attachment point with multiplicity mk = dk less that weight.  One
    listing serves the tail table and every components call of one
    specialization (genus1.expand_w)."""
    return subvectors(h_pool, lambda key: key[0]), subvectors(i_pool, lambda e: n - 1 - e)


def rest(pool: dict, items) -> dict:
    """The marker pool ``pool`` less the sub-vector ``items``, keeping
    zero counts."""
    out = dict(pool)
    for key, take in items:
        out[key] -= take
    return out


def components(n: int, d_max: int, rows, genus: int, lo: int, hi: int, m_min=1):
    """Enumerate the single components of the given genus that can split
    off a curve falling into H, drawing on the marker pools that
    ``rows`` lists (pool_rows).

    A component takes a degree dk from the least one of its genus (3
    for genus 1, as there are no elliptic curves of degree 1 or 2, else
    1) to d_max, a sub-vector h_sub of the tangency pool and a
    sub-vector i_sub of the incidence pool, and meets the hyperplane at
    its attachment point with multiplicity mk = dk - sum(m * c) >=
    m_min, over the (m, e) markers of h_sub.  Its freedom delta is the
    dimension of its curves with the attachment contact free on H,
    problems.free_dim(n, genus, dk, h_sub, mk), less its incidence
    weight sum((n-1-e) * c); it must lie in lo..hi.

    Yields (record, ways), ordered by dk, then by the subvectors order
    of h_sub, then of i_sub: the component's record (dk, h_sub, i_sub,
    mk, delta) and the number of labeled marker choices realizing the
    sub-vectors.  The window filters the incidence side without pruning.
    """
    h_rows, i_rows = rows
    for dk in range(3 if genus else 1, d_max + 1):
        for h_sub, h_ways, h_weight in h_rows:
            mk = dk - h_weight
            if mk < m_min:
                continue
            base = free_dim(n, genus, dk, h_sub, mk)
            for i_sub, i_ways, weight in i_rows:
                delta = base - weight
                if lo <= delta <= hi:
                    yield (dk, h_sub, i_sub, mk, delta), h_ways * i_ways


def tail_table(n: int, d_max: int, rows) -> list:
    """The rational tails of one degeneration, as records (dk, h_items,
    i_items, mk, delta): the genus 0 ``components`` of the pools
    ``rows`` lists, up to degree d_max, of freedom 0..n-1 (so that
    pinning the attachment point to a plane of H makes them rigid) and
    through at most points_on_curve(n, dk) points, in the order
    ``components`` yields them, so ascending in dk.  The window depends
    on the tail alone, so the entries that fit a sub-pool are what
    ``components`` yields on it, in the same order: one table serves
    every pool the tails of type2_partitions and the distinguished part
    of genus1._split_off_part leave.  genus0.expand_x takes d_max =
    d - 1.  genus1.expand_w builds one table with d_max = d - 3 (IIa
    and IIc keep degree >= 3 for the elliptic part, IIb >= 2 for the
    doubly-attached part and >= 1 for the hyperplane component) and
    keeps its entries of delta <= 2n - 4 for the IIb tails.  Each
    caller builds the table's relief_cap with it, once, and hands both
    to every walk on the table; the IIb tails, a subset, share it.
    """
    caps = [points_on_curve(n, dk) for dk in range(d_max + 1)]
    # a point count is first in the sorted item tuple
    return [
        record
        for record, _ in components(n, d_max, rows, 0, 0, n - 1)
        if not record[2] or record[2][0][0] or record[2][0][1] <= caps[record[0]]
    ]


def relief_cap(n: int, d_max: int, table) -> list | None:
    """The most points of H a branch of type2_partitions over ``table``
    (or any subset of it) may carry and still reach a shape whose
    rational component in H passes through them, per degree left to
    its tails: cap[r] for r = 0..d_max.

    A tail's relief is how much it lowers the points of H the walk
    counts: the lines (incidence slot 1) and slot-0 tangency markers it
    takes, less 1 when its freedom delta is 0, as it then puts its
    attachment on a point of H.  relief[t], the most that tails of
    total degree at most t lower the count, is an unbounded knapsack
    over the table; it ignores what the pools hold, so it is an upper
    bound.  A branch whose tails have r degrees left ends on a component
    in H of degree r - t + 1, which passes through at most
    points_on_curve(n - 1, r - t + 1) points of H, once tails of degree
    t have lowered the count by at most relief[t]: so cap[r] is the
    largest sum of the two over t = 0..r.

    Over P^2 no point of H is capped, and a table of degree below 3
    serves walks too short to repay the build: both get None, and their
    walks skip the cut."""
    if n < 3 or d_max < 3:
        return None
    # best[dk]: the most one tail of degree dk relieves; plain loops,
    # as the build runs once per expansion
    best = [0] * (d_max + 1)
    for dk, h_items, i_items, _, delta in table:
        lowered = 0 if delta else -1
        for e, take in i_items:
            if e == 1:
                lowered += take
        for (_, e), take in h_items:
            if not e:
                lowered += take
        if lowered > best[dk]:
            best[dk] = lowered
    relief = best[:]
    for t in range(2, d_max + 1):
        for dk in range(1, t):
            if relief[t - dk] + best[dk] > relief[t]:
                relief[t] = relief[t - dk] + best[dk]
    room = [points_on_curve(n - 1, r + 1) for r in range(d_max + 1)]
    cap = room[:]
    for r in range(1, d_max + 1):
        for t in range(1, r + 1):
            if room[r - t] + relief[t] > cap[r]:
                cap[r] = room[r - t] + relief[t]
    return cap


def type2_partitions(d, h_pool: dict, i_pool: dict, n: int, table, e_lift: int, d0_min=1, h_points=0, cap=None):
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
    passes through (tail_table leaves such tails out).  So a branch
    whose remaining degree cannot take the points left
    (points_budget) yields nothing: the walk tests it on each tail it
    picks, before it copies the pools or starts the branch.  And
    for n >= 3 a rational hyperplane component (d0_min = 1) of degree
    d0 passes through at most points_on_curve(n - 1, d0) points of H,
    the point markers (e = 0) genus0.hyperplane_markers gives it: its
    incidence markers left on slot 1 (the specialized one when e_lift
    is 1), its tangency markers left on slot 0, one per tail of freedom
    delta = 0, and ``h_points`` more that a component outside the
    multiset puts there (genus1._split_off_part).  The walk counts
    them as it takes tails and drops a shape past the capacity before
    building it.  Over P^2 a point of the line H costs nothing, and an
    elliptic component in H (d0_min = 3) is not capped here.  With
    ``cap``, the table's relief_cap (None, or ignored for d0_min = 3,
    leaves the walk uncapped), the walk also drops a branch that
    carries more points of H than cap allows for the degree its tails
    have left: no tails can bring it down to a shape.  It tests the
    root once, and each tail it picks after copying the pools, before
    it starts the branch.

    The walk is lazy: it yields each shape as it reaches it and holds
    one branch of pools at a time.

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
        # the caller has checked that the points left fit d_rem, and
        # the points of H left the cap
        points = i_rem.get(0, 0)
        if not points and (room is None or on_h + i_rem.get(1, 0) <= room[d_rem]):
            yield (), 1, 1, d_rem, h_rem, i_rem
        for tail in table:
            dk, h_items, i_items, mk, delta = tail
            if dk > d_rem:
                break
            # the child's points must fit its degree; a point count is
            # first in the sorted item tuple
            if points and points - (i_items[0][1] if i_items and not i_items[0][0] else 0) > budget[d_rem - dk]:
                continue
            if tail < min_tail:
                continue
            # math.comb is 0 when a tail takes more than is left, and
            # the copies are dropped
            ways = 1
            h_left, i_left = dict(h_rem), dict(i_rem)
            on_h_left = on_h if delta else on_h + 1
            for k, take in h_items:
                c = h_left.get(k, 0)
                ways *= math.comb(c, take)
                h_left[k] = c - take
                if not k[1]:
                    on_h_left -= take
            for e, take in i_items:
                c = i_left.get(e, 0)
                ways *= math.comb(c, take)
                i_left[e] = c - take
            if not ways:
                continue
            if cap is not None and on_h_left + i_left.get(1, 0) > cap[d_rem - dk]:
                continue
            for rest, rest_ways, ram, d_left, h0, i0 in rec(d_rem - dk, h_left, i_left, tail, on_h_left):
                yield (tail,) + rest, ways * rest_ways, mk * ram, d_left, h0, i0

    d_tails = d - d0_min
    if i_pool.get(0, 0) > points_budget(n, d_tails):
        return
    # budget[t]: the points tails of total degree t take at most
    budget = [points_budget(n, t) for t in range(d_tails + 1)]
    if n >= 3 and d0_min == 1:
        # room[d0 - 1]: the points of H a component of degree d0 there takes
        room = [points_on_curve(n - 1, d0) for d0 in range(1, d + 1)]
    else:
        room = cap = None
    h_pool = dict(sorted(h_pool.items()))
    i_pool = dict(sorted(i_pool.items()))
    on_h = h_points + (e_lift == 1) + sum(c for (_, e), c in h_pool.items() if not e)
    if cap is not None and on_h + i_pool.get(1, 0) > cap[d_tails]:
        return
    for parts, ways, ram, d_left, h0, i0 in rec(d_tails, h_pool, i_pool, (), on_h):
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


def points_budget(n: int, d_rem: int) -> int:
    """Most general points that rational components of total degree at
    most d_rem take between them.  Each component of degree dk takes at
    most points_on_curve(n, dk), which is 3*dk - 1 for n = 2 and at
    most 2*dk for n >= 3, with equality for lines; none take none.
    type2_partitions cuts a branch, and genus1._split_off_part a
    distinguished component, that leaves its tails more points."""
    if n >= 3:
        return 2 * d_rem
    return 3 * d_rem - 1 if d_rem else 0
