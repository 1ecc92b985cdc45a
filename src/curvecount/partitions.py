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
point cap as the tails, with each one's relief and the bounds every
walk over them reads.  type2_partitions walks a tail table into type II
shapes, each with its automorphism order counted as it goes, so a shape
reaches genus0.count_y finished.  genus1._split_off_part takes its
distinguished component from components and builds the pools it leaves
with rest, for the components it keeps.  No pool any of them builds
holds a zero count: a key whose count reaches 0 leaves the pool.  A
record's relief, the points of H it takes off the component in H, is
defined once, in TailTable.of's build loop; the walk and the table's
cap read it from the table's entries.

The shapes and tails that count 0 by their point markers alone are cut
before anything about them is built, each at one place:

- tail_table drops a tail through more points than points_on_curve;
- type2_partitions drops a branch whose remaining degree cannot take
  the points left, or that carries more points of H than the table's
  cap allows, when it picks the tail that leads to it, before it copies
  the pools, and a shape whose component in H, rational or elliptic
  (type IIc), passes through too many points of H before it builds the
  shape;
- genus1._split_off_part drops a distinguished component by the same
  two tests before it builds the pools it leaves.

Every table over P^3 and up carries its cap, whatever its degree: a
split-off that leaves no degree to the tails is cut on the table's
room before its pools are built.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


def subvectors(pool: dict, weight_of=lambda key: 0, window=None) -> list:
    """Every sub-vector of the marker pool ``pool`` as (items, ways,
    weight): the sorted (key, take) pairs with take > 0, the prod
    C(count, take) marker choices realizing them and the weight
    sum(weight_of(key) * take).  The takes run lexicographically over
    the sorted keys: each key's takes vary fastest within those of the
    keys before it.  Given a ``window`` (lo, hi), only the rows of
    weight lo..hi, in the same order: a partial row is dropped as soon
    as the keys after it can no longer bring its weight into the window.
    No row carries the pool it leaves; rest builds that for the
    components a caller keeps."""
    rows = [((), 1, 0)]
    keys = sorted(pool)
    if window is not None:
        lo, hi = window
        # the least and the most weight the keys not taken yet can add
        least = most = 0
        for key in keys:
            add = weight_of(key) * pool[key]
            least, most = least + min(add, 0), most + max(add, 0)
        rows = rows if lo - most <= 0 <= hi - least else []
    for key in keys:
        c, w = pool[key], weight_of(key)
        rows = [
            (items + ((key, take),) if take else items, ways * math.comb(c, take), weight + w * take)
            for items, ways, weight in rows
            for take in range(c + 1)
        ]
        if window is not None:
            least, most = least - min(w * c, 0), most - max(w * c, 0)
            rows = [row for row in rows if lo - most <= row[2] <= hi - least]
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
    """The marker pool ``pool`` less the sub-vector ``items``; a count
    taken to 0 leaves the pool, so a zero-free pool stays zero-free."""
    out = dict(pool)
    for key, take in items:
        c = out[key] - take
        if c:
            out[key] = c
        else:
            del out[key]
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


def markers_on_h(h_items, i_items) -> int:
    """The points of H that markers, as (key, count) pairs, put on a
    component lying in H: lines (incidence slot 1) and tangency markers
    on slot 0.  Plain loops, as every table reads it per record."""
    count = 0
    for e, take in i_items:
        if e == 1:
            count += take
    for (_, e), take in h_items:
        if not e:
            count += take
    return count


class TailTable(NamedTuple):
    """The tails of one expansion (tail_table) and what every walk over
    them reads; the bounds are lists over r = 0..d_max degrees left to
    the tails:

    - entries: (record, relief) per tail record; over P^2, where a
      point of the line H costs nothing, every relief is 0;
    - budget[r]: the points tails of total degree r take at most;
    - room[r]: the points of H the component in H passes through, a
      rational one of degree r + 1 (tail_table) or an elliptic one of
      degree r + 3 (in_h_elliptic); None over P^2;
    - cap[r]: the most points of H a branch may carry and still reach a
      shape whose component in H passes through them, the largest
      room[r - t] + most[t] over t = 0..r; None over P^2;
    - most[t]: an unbounded knapsack of reliefs over tails of total
      degree at most t, which ignores the pools and so bounds any
      subset of the records; None over P^2.
    """

    entries: list
    budget: list
    room: list | None
    cap: list | None
    most: list | None

    @classmethod
    def of(cls, n: int, d_max: int, records: list) -> TailTable:
        """The table of ``records``, tails in P^n of degree at most d_max,
        bounded for a rational component in H."""
        budget = [points_budget(n, r) for r in range(d_max + 1)]
        if n < 3:
            return cls([(record, 0) for record in records], budget, None, None, None)
        # A record's relief: the lines and slot-0 tangency markers it
        # takes, which would put points of H on the component in H, less
        # the max(0, 1 - delta) its attachment puts there.  best[dk]: the
        # most one tail of degree dk relieves.  Plain loops: a call per
        # record cost the small tables more than their walks save.
        entries = []
        best = [0] * (d_max + 1)
        for record in records:
            dk, h_items, i_items, _, delta = record
            gain = 0 if delta > 0 else delta - 1
            for e, take in i_items:
                if e == 1:
                    gain += take
            for (_, e), take in h_items:
                if not e:
                    gain += take
            entries.append((record, gain))
            if gain > best[dk]:
                best[dk] = gain
        most = best[:]
        for t in range(2, d_max + 1):
            for dk in range(1, t):
                if most[t - dk] + best[dk] > most[t]:
                    most[t] = most[t - dk] + best[dk]
        room = [points_on_curve(n - 1, r + 1) for r in range(d_max + 1)]
        return cls(entries, budget, room, _cap(room, most), most)

    def in_h_elliptic(self, n: int) -> TailTable:
        """The same tails in P^n, n >= 3, bounded for an elliptic
        component in H (type IIc) of degree r + 3: its divisor-class
        problem over P^(n-1) counts 0 through more than
        points_on_curve(n - 1, r + 3, 1) points of H, as
        engine.beyond_capacity flags it."""
        room = [points_on_curve(n - 1, r + 3, 1) for r in range(len(self.budget))]
        return self._replace(room=room, cap=_cap(room, self.most))

    def within(self, hi: int) -> TailTable:
        """The entries of freedom at most hi; the bounds hold for any subset."""
        return self._replace(entries=[entry for entry in self.entries if entry[0][4] <= hi])


def _cap(room: list, most: list) -> list:
    """cap[r], the largest room[r - t] + most[t] over t = 0..r (TailTable)."""
    cap = room[:]
    for r in range(1, len(room)):
        for t in range(1, r + 1):
            if room[r - t] + most[t] > cap[r]:
                cap[r] = room[r - t] + most[t]
    return cap


def tail_table(n: int, d_max: int, rows) -> TailTable:
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
    d - 1, genus1.expand_w d - 3 (IIa and IIc keep degree >= 3 for the
    elliptic part, IIb >= 2 for the doubly-attached part and >= 1 for
    the hyperplane component).
    """
    most = [points_on_curve(n, dk) for dk in range(d_max + 1)]
    # a point count is first in the sorted item tuple
    records = [
        record
        for record, _ in components(n, d_max, rows, 0, 0, n - 1)
        if not record[2] or record[2][0][0] or record[2][0][1] <= most[record[0]]
    ]
    return TailTable.of(n, d_max, records)


def type2_partitions(d, h_pool: dict, i_pool: dict, tails: TailTable, e_lift: int, d0_min=1, h_points=0):
    """Enumerate the ways a curve of degree d falling into H breaks into
    a hyperplane component of degree at least d0_min and an unordered
    multiset of rational tails.

    Each tail is a record of ``tails`` (a tail_table on these pools or
    larger ones) whose marker vectors fit what the tails before it
    leave, and the tails take a total degree of at most d - d0_min.
    d0_min is 1 for a rational hyperplane component and 3 for an
    elliptic one (type IIc): elliptic curves of degree 1 or 2 do not
    exist.  A multiset takes its tails in nondecreasing record order,
    and the walk stops at the first record of too high a degree.  The
    pools list their keys in sorted order, as Problem's maps do.

    Three rules drop shapes that count nothing.  A multiset must take
    every point marker (e = 0) of ``i_pool``: the hyperplane component
    lies in H, so a general point left on it makes the term vanish.  A
    tail may not take more points than a rational curve of its degree
    passes through (tail_table leaves such tails out), so a branch whose
    remaining degree cannot take the points left (the table's budget)
    yields nothing.  And for n >= 3 a hyperplane component of degree
    d0 passes through at most the table's room[d0 - d0_min] points of
    H, the point markers (e = 0) genus0.count_y gives it: a
    rational one under tail_table's room, an elliptic one under
    TailTable.in_h_elliptic's.  The walk counts them: what the pools'
    markers and the specialized one (when e_lift is 1) put there, and
    ``h_points`` more that a component outside the multiset puts there
    (genus1._split_off_part), less each tail's relief.  It drops a
    shape past the room before building it, and a branch past the
    budget or the cap on the tail that leads to it, before it copies
    the pools.  Over P^2 a point of H costs nothing.

    The walk is lazy: it yields each shape as it reaches it and holds
    one branch of pools at a time.

    Yields (parts, ways, aut, d0, h0, i0, ram).  parts is a
    nondecreasing tuple of the tails' table records (dk, h_items,
    i_items, mk, delta).  The ints ways and aut are the multinomial
    routing of labeled markers into the ordered tails and the
    automorphism order of the multiset, by which a term divides its
    weight.  The walk counts aut as it takes the tails: equal tails are
    taken in a run, and the k-th tail of a run multiplies it by k, so a
    run of length r gives r!.  A record sits once in the table, so a
    tail equal to the one before it is that very object.  d0, h0 and i0
    are what the hyperplane component keeps: its degree and the markers
    left in the pools, i0 with the specialized marker added on slot
    e_lift.  Given pools with no zero count, the walk keeps its own so:
    a key whose count a tail takes to 0 leaves the pool, and h0 and i0
    hold no zero count.  h0 is the walk's own pool, h_pool itself when
    no tail is taken, and the walk reads it again after the yield, so a
    caller must not change it.  ram is the product of the tails'
    attachment multiplicities.
    """

    def rec(d_rem, h_rem, i_rem, min_tail, on_h, run):
        # the caller has checked that the points left fit d_rem, and
        # its points of H the cap; run is how many tails equal min_tail
        points = i_rem.get(0, 0)
        if not points and (room is None or on_h <= room[d_rem]):
            yield (), 1, 1, 1, d_rem, h_rem, i_rem
        for tail, lowered in entries:
            dk, h_items, i_items, mk, _ = tail
            if dk > d_rem:
                break
            # the child's points must fit its degree; a point count is
            # first in the sorted item tuple
            if points and points - (i_items[0][1] if i_items and not i_items[0][0] else 0) > budget[d_rem - dk]:
                continue
            if tail < min_tail:
                continue
            if cap is not None and on_h - lowered > cap[d_rem - dk]:
                continue
            # math.comb is 0 when a tail takes more than is left, and
            # the copies are dropped; a count taken to 0 leaves its pool
            ways = 1
            h_left, i_left = dict(h_rem), dict(i_rem)
            for k, take in h_items:
                c = h_left.get(k, 0)
                ways *= math.comb(c, take)
                if c > take:
                    h_left[k] = c - take
                elif c:
                    del h_left[k]
            for e, take in i_items:
                c = i_left.get(e, 0)
                ways *= math.comb(c, take)
                if c > take:
                    i_left[e] = c - take
                elif c:
                    del i_left[e]
            if not ways:
                continue
            # k is now the tail's place in its run of equal tails; the
            # records sit once in the table, so an equal tail is min_tail
            k = run + 1 if tail is min_tail else 1
            for rest, rest_ways, aut, ram, d_left, h0, i0 in rec(d_rem - dk, h_left, i_left, tail, on_h - lowered, k):
                yield (tail,) + rest, ways * rest_ways, k * aut, mk * ram, d_left, h0, i0

    d_tails = d - d0_min
    # a negative index would read another degree's bound
    if d_tails < 0:
        return
    entries, budget, room, cap, _ = tails
    if i_pool.get(0, 0) > budget[d_tails]:
        return
    on_h = h_points + (e_lift == 1) + markers_on_h(h_pool.items(), i_pool.items())
    if cap is not None and on_h > cap[d_tails]:
        return
    for parts, ways, aut, ram, d_left, h0, i0 in rec(d_tails, h_pool, i_pool, (), on_h, 0):
        yield parts, ways, aut, d_left + d0_min, h0, bump(i0, e_lift), ram


def points_on_curve(n: int, d: int, genus: int = 0) -> int:
    """Most general points of P^n that a curve of degree d and the given
    genus passes through: the curves move in a family of dimension
    (n+1)*d, plus n - 3 when rational, and each point costs n - 1.  Free
    markers (e = n) do not move the curve, so they never raise the
    bound.  tail_table caps the points a tail takes with it and, as the
    table's room, the points of H a rational hyperplane component passes
    through (with n - 1 >= 2), TailTable.in_h_elliptic those of an
    elliptic one, and engine.beyond_capacity the points of a whole
    problem.  n must be at least 2: in P^1 a point is a hyperplane and
    costs nothing."""
    return ((n + 1) * d + (0 if genus else n - 3)) // (n - 1)


def points_budget(n: int, d_rem: int) -> int:
    """Most general points that rational components of total degree at
    most d_rem take between them.  Each component of degree dk takes at
    most points_on_curve(n, dk), which is 3*dk - 1 for n = 2 and at
    most 2*dk for n >= 3, with equality for lines; none take none.
    tail_table lists it per degree as the table's budget."""
    if n >= 3:
        return 2 * d_rem
    return 3 * d_rem - 1 if d_rem else 0
