"""Counts of elliptic curves with tangency and incidence conditions.

The same specialization of an incidence plane into the hyperplane H
drives the recursion, but a broken curve now distributes the genus:
either the elliptic component stays off H attached to the hyperplane
component (type IIa), or a rational component meets the hyperplane
component at two points and the resulting cycle carries the genus
(type IIb, one formula for P^2 and P^3 in count_yb), or the elliptic
component itself falls into H, where its count becomes a
divisor-class problem on the smaller space (type IIc, meaningful only
over P^3).  genus0.count_y counts every type II factor, the
divisor-class problem included, and makes every pin.  Ambient spaces
beyond P^3 would need intersection theory on larger parameter spaces
and are reported as unsupported rather than guessed at.
"""

from __future__ import annotations

import itertools

from .engine import Engine, InexactCount, finish_terms

# tail_problem is bound here unread: bench/selftest.py checks that the
# benchmark's span patches reach it under this alias too.
from .genus0 import count_y, settle, specialize, tail_problem
from .partitions import bump, components, markers_on_h, pool_rows, rest, tail_table, type2_partitions
from .problems import Problem, UnsupportedProblem


def _split_off_part(n, d, h_pool, i_base, rows, e_lift, window, m_min, table):
    """Enumerate type II shapes with one distinguished component.

    The distinguished component is one of partitions.components on the
    pools' pool_rows ``rows``, of the genus and freedom that ``window``
    = (genus, lo, hi) gives and of attachment multiplicity at least
    m_min; the remaining pools split into rational tails, records of
    ``table`` (partitions.tail_table on the whole pools), and the
    hyperplane component, which keeps the markers they leave, and on
    which the distinguished component's attachments put max(0,
    1 - delta) points of H.
    Yields (part, tails, ways, aut, d0, h0, i0, ram): the distinguished
    component's record, then ways, the labeled marker routings, and
    tails, aut, d0, h0, i0, ram as type2_partitions yields them.  A
    component that leaves more points than the table's budget, or more
    points of H than its cap allows the walk's root, is dropped before
    the pools it leaves (partitions.rest) are built.
    """
    points = i_base.get(0, 0)
    budget, cap = table.budget, table.cap
    on_h = markers_on_h(h_pool.items(), i_base.items()) + (e_lift == 1)
    for part, ways in components(n, d - 1, rows, *window, m_min):
        d1, h1, i1, _, delta = part
        # a point count is first in the sorted item tuple
        if points - (i1[0][1] if i1 and not i1[0][0] else 0) > budget[d - 1 - d1]:
            continue
        # the points of H its attachments put on the component in H: one
        # for a tail or IIa component of freedom 0 (count_y), 1 - delta
        # of a IIb component's two contacts (count_yb)
        placed = max(0, 1 - delta)
        if cap is not None and on_h - markers_on_h(h1, i1) + placed > cap[d - 1 - d1]:
            continue
        for tails, tail_ways, aut, d0, h0, i0, ram in type2_partitions(
            d - d1, rest(h_pool, h1), rest(i_base, i1), table, e_lift, 1, placed
        ):
            yield part, tails, ways * tail_ways, aut, d0, h0, i0, ram


def count_ya(eng: Engine, n, d0, h0, i0, part1, tails):
    """Broken-curve count for a type IIa term: hyperplane component plus
    an off-H elliptic component, the record part1, and rational tails,
    attachments pinned the same way as in the rational recursion.  The
    elliptic component goes to count_y as its record with its genus
    appended, so among the pins it never shares a key with a tail."""
    return count_y(eng, n, d0, h0, i0, (part1 + (1,),) + tails)


def count_yb(eng: Engine, n, d0, h0, i0, part1, tails):
    """Broken-curve count for a type IIb term: a rational component
    attached to the hyperplane component at two points, summed over the
    ordered splits (m11, m12) of its total contact multiplicity m1, each
    weighted m11 * m12.  It is the ordered count: the swap of the two
    attachment points counts each configuration twice, and the IIb
    term's divisor carries that 2.

    part1 is the doubly-attached component's record, whose freedom takes
    its two contacts as one free on H.  With both contact points free on
    H it keeps one freedom more, a delta in 0..2n-4 (the window in
    expand_w).  Putting delta of its two contacts on a hyperplane of H,
    which meets the hyperplane component in d0 points, makes it rigid;
    the other contacts become point conditions on the hyperplane
    component, whose count (count_y) does not depend on the split.
    Every such choice counts with a factor d0 per contact on a
    hyperplane of H, and for delta >= 1 the configurations where the two
    contacts collide are subtracted once: the merged contact on a
    general (n - delta)-plane of H, weighted d0**(delta - 1).

    Over P^2 delta is 0 and H is a line: the hyperplane component's
    problem on H = P^1 is zero-dimensional, and counts 1, exactly when
    d0 = 1 and every marker it carries lies on a point of H.

    The tails and the hyperplane component are pinned by count_y.  The
    middle problems and their signed sum depend on part1 and d0 alone,
    so they are built and counted once per Engine and n, at the first
    shape that reaches them past a nonzero hyperplane side, and kept in
    eng.middles[n] (see Engine); a shape builds only its groups.

    Returns the ordered count and, per middle problem of a split that
    adds something, a group (coeff, [that problem] + count_y's factors).
    """
    db, hb, ib, m1, delta = part1
    delta += 1  # both contacts free on H
    if not 0 <= delta <= 2:
        raise AssertionError(f"doubly-attached component of freedom {delta} in P^{n}")
    # the hyperplane side is 0 far more often than the middle component
    yval, ygroups = count_y(eng, n, d0, bump(h0, (1, 0), 2 - delta), i0, tails)
    if yval == 0:
        return 0, []
    [(_, yfactors)] = ygroups
    # Looked up here, not in a helper, as count_y looks up its pins.
    middles = eng.middles[n]
    entry = middles.get((part1, d0))
    if entry is None:
        # the merged contact of a collision does not depend on the split
        merged = Problem.make(0, n, db, [*hb, ((m1, n - delta), 1)], ib) if delta else None
        vmerged = eng.counted(merged) if delta else 0
        mids_total = 0
        kept = []
        for m11 in range(1, m1):
            ordered = m11 * (m1 - m11)
            mids = []
            for on_plane in itertools.combinations((0, 1), delta):
                contacts = [((m, n - 2 if k in on_plane else n - 1), 1) for k, m in enumerate((m11, m1 - m11))]
                mid = Problem.make(0, n, db, [*hb, *contacts], ib)
                vmid = eng.counted(mid)
                if vmid:
                    mids.append((ordered * d0**delta, mid, vmid))
            if vmerged:
                mids.append((-ordered * d0 ** (delta - 1), merged, vmerged))
            # a split whose middle components cancel adds nothing to the trace
            split = sum(coeff * vmid for coeff, _, vmid in mids)
            if split:
                mids_total += split
                kept.extend(mids)
        entry = middles[part1, d0] = (mids_total, kept)
    mids_total, kept = entry
    return mids_total * yval, [(coeff, [(mid, vmid)] + yfactors) for coeff, mid, vmid in kept]


def count_yc(eng: Engine, n, d0, h0, i0, tails):
    """Broken-curve count for a type IIc term: the elliptic component
    lies in H, so its count is a divisor-class problem there, which
    count_y builds and hands to fibration.expand_z, with the tails
    pinned to it.  The old H-markers and the tail attachments become its
    incidence conditions (the markers count_y counts per slot of H), and
    the divisor built here records the hyperplane class of the original
    curve: tangency markers enter with their contact multiplicity,
    attachments with minus theirs.  Each
    tail's record gives its attachment multiplicity mk and, through its
    freedom delta, the slot of its attachment marker.  The walk
    (type2_partitions under TailTable.in_h_elliptic) yields no shape
    whose divisor-class problem engine.beyond_capacity flags."""
    # Slot e numbers its inherited markers first, then its tangency
    # markers, then its attachments, each kind by multiplicity.
    marks = sorted([(e, 0, m) for (m, e), c in h0.items() for _ in range(c)] + [(delta, 1, mk) for *_, mk, delta in tails])
    divisor = []
    slot = None
    for e, attached, m in marks:
        if e != slot:
            slot, k = e, i0.get(e + 1, 0)
        k += 1
        divisor.append((-m if attached else m, e, k))
    degree = sum(c for c, _, _ in divisor)
    if degree != d0:
        raise InexactCount(f"divisor degree {degree} must match the component degree {d0}")
    return count_y(eng, n, d0, h0, i0, tails, tuple(divisor))


def expand_w(eng: Engine, p: Problem, first_slot=None) -> int:
    n, d = p.n, p.d
    if n >= 4:
        raise UnsupportedProblem(
            f"elliptic counts are implemented over P^2 and P^3 only, not P^{n}"
        )
    done = settle(eng, p, first_slot)
    if done is not None:
        return done
    e_lift, h_pool, i_base, terms = specialize(eng, p, first_slot)
    # the tail table and both split-offs share one listing of sub-vectors
    rows = pool_rows(n, h_pool, i_base)
    rational = tail_table(n, d - 3, rows)
    for part1, tails, ways, aut, d0, h0, i0, ram in _split_off_part(
        n, d, h_pool, i_base, rows, e_lift, (1, 0, n - 1), 1, rational
    ):
        value, groups = count_ya(eng, n, d0, h0, i0, part1, tails)
        if value:
            terms.append(("type-IIa", ways * part1[3] * ram, aut, value, groups))

    # With its two contacts taken as one free on H, the doubly-attached
    # component has freedom -1..2n-5 (see count_yb).  Over P^2 the
    # hyperplane component is the line H, so a tail of delta 1 leaves a
    # marker free on it and counts 0: tails take 0..2n-4, which over
    # P^3 is the whole rational window and over P^2 its delta 0.
    doubly = rational.within(2 * n - 4)
    for part1, tails, ways, aut, d0, h0, i0, ram in _split_off_part(
        n, d, h_pool, i_base, rows, e_lift, (0, -1, 2 * n - 5), 2, doubly
    ):
        value, groups = count_yb(eng, n, d0, h0, i0, part1, tails)
        if value:
            terms.append(("type-IIb", ways * ram, 2 * aut, value, groups))

    if n == 3:
        elliptic = rational.in_h_elliptic(n)
        for parts, ways, aut, d0, h0, i0, ram in type2_partitions(d, h_pool, i_base, elliptic, e_lift, 3):
            value, groups = count_yc(eng, n, d0, h0, i0, parts)
            if value:
                terms.append(("type-IIc", ways * ram, aut, value, groups))

    return finish_terms(eng, p, 0, terms, "type-I")
