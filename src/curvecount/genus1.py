"""Counts of elliptic curves with tangency and incidence conditions.

The same specialization of an incidence plane into the hyperplane H
drives the recursion, but a broken curve now distributes the genus:
either the elliptic component stays off H attached to the hyperplane
component (type IIa), or a rational component meets the hyperplane
component at two points and the resulting cycle carries the genus
(type IIb), or the elliptic component itself falls into H, where its
count becomes a divisor-class problem on the smaller space (type IIc,
meaningful only over P^3).  Ambient spaces beyond P^3 would need
intersection theory on larger parameter spaces and are reported as
unsupported rather than guessed at.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .engine import Engine, InexactCount, exact_int, finish_terms
from .genus0 import count_y, rational_tail_window, tail_problem
from .partitions import bump, points_fit, subvectors, subvectors_weighted, type2_partitions
from .problems import Problem, UnsupportedProblem, ZProblem, dim_w


def _ram(dk: int, h_sub: dict) -> int:
    return dk - sum(m * c for (m, _), c in h_sub.items())


def _split_off_part(n, d, h_pool, i_base, e_lift, part_window, m_min, tails_window):
    """Enumerate type II shapes with one distinguished component.

    The distinguished component takes degree d1, tangency sub-vector h1
    and incidence sub-vector i1 (restricted by part_window on its
    incidence weight); the remaining pools split into rational tails and
    the hyperplane component.  Yields
    (d1, h1, i1, m1, tails, ways, d0, h0, i0, ram) where ways counts the
    labeled marker routings divided by the tail automorphisms, h0/i0 are
    the hyperplane component's markers including the specialized one,
    and ram is the product of the tail attachment multiplicities.
    As in type2_partitions, the distinguished component and the tails
    take every point marker between them.
    """
    h_items = tuple(sorted(h_pool.items()))
    i_items = tuple(sorted(i_base.items()))
    weight_of = lambda e: n - 1 - e
    for d1 in range(1, d):
        for h1, h1_ways in subvectors(h_items):
            m1 = _ram(d1, h1)
            if m1 < m_min:
                continue
            lo, hi = part_window(d1, h1, m1)
            for i1, i1_ways in subvectors_weighted(i_items, weight_of, lo, hi):
                i_rem = {k: c - i1.get(k, 0) for k, c in i_base.items() if c - i1.get(k, 0)}
                if not points_fit(n, d - 1 - d1, i_rem.get(0, 0)):
                    continue
                h_rem = {k: c - h1.get(k, 0) for k, c in h_pool.items() if c - h1.get(k, 0)}
                for tails, comb in type2_partitions(d - 1 - d1, h_rem, i_rem, n, tails_window):
                    d0 = d - d1 - sum(t[0] for t in tails)
                    h0 = dict(h_rem)
                    i0 = dict(i_rem)
                    ram = 1
                    for dk, h_items_k, i_items_k in tails:
                        for key, c in h_items_k:
                            h0 = bump(h0, key, -c)
                        for key, c in i_items_k:
                            i0 = bump(i0, key, -c)
                        ram *= _ram(dk, dict(h_items_k))
                    i0 = bump(i0, e_lift)
                    ways = Fraction(h1_ways * i1_ways) * comb
                    yield d1, h1, i1, m1, tails, ways, d0, h0, i0, ram


def count_ya(eng: Engine, n, d0, h0, i0, part1, tails):
    """Broken-curve count for a type IIa term: hyperplane component plus
    an off-H elliptic component and rational tails, attachments pinned
    the same way as in the rational recursion."""
    if i0.get(0, 0):
        return 0, []
    d1, h1, i1, m1 = part1
    base = (
        (n + 1) * d1
        - sum((n + m - e - 2) * c for (m, e), c in h1.items())
        - (m1 - 1)
    )
    delta1 = base - sum((n - 1 - e) * c for e, c in i1.items())
    if not 0 <= delta1 <= n - 1:
        return 0, []
    ell = Problem.make(1, n, d1, bump(h1, (m1, n - 1 - delta1)), i1)
    v1 = eng.count_w(ell)
    if v1 == 0:
        return 0, []
    factors = [(ell, v1)]
    deltas = [delta1]
    for dk, h_items, i_items in tails:
        pinned = tail_problem(n, dk, dict(h_items), dict(i_items))
        if pinned is None:
            return 0, []
        child, delta = pinned
        v = eng.count_x(child)
        if v == 0:
            return 0, []
        factors.append((child, v))
        deltas.append(delta)
    i0p = {}
    for e in range(n):
        c = (
            i0.get(e + 1, 0)
            + sum(1 for dlt in deltas if dlt == e)
            + sum(c0 for (_, e0), c0 in h0.items() if e0 == e)
        )
        if c:
            i0p[e] = c
    child0 = Problem.make(0, n - 1, d0, {(1, n - 2): d0}, i0p)
    v0 = eng.count_x(child0)
    if v0 == 0:
        return 0, []
    coeff = Fraction(1, math.factorial(d0))
    value = coeff * v0
    for _, v in factors:
        value *= v
    value = exact_int(value, "hyperplane-component relabelings must divide the count")
    return value, [(coeff, [(child0, v0)] + factors)]


def _yb_tilde2(eng: Engine, d0, h0, i0, db, hb, ib, m11, m12, tails):
    """Ordered doubly-attached configurations over P^2.

    The hyperplane component must be the line H itself, so each of its
    surviving conditions is met in exactly one way: tangency markers at
    general points of H and incidence markers on general lines.  The
    doubly-attached component and the tails attach at free points of H.
    """
    if d0 != 1:
        return 0, []
    if i0.get(0, 0) or i0.get(2, 0):
        return 0, []
    if any(e == 1 for (_, e) in h0):
        return 0, []
    mid = Problem.make(0, 2, db, bump(bump(hb, (m11, 1)), (m12, 1)), ib)
    vmid = eng.count_x(mid)
    if vmid == 0:
        return 0, []
    factors = [(mid, vmid)]
    value = vmid
    for dk, h_items, i_items in tails:
        mk = _ram(dk, dict(h_items))
        child = Problem.make(0, 2, dk, bump(dict(h_items), (mk, 1)), dict(i_items))
        v = eng.count_x(child)
        if v == 0:
            return 0, []
        factors.append((child, v))
        value *= v
    return value, [(Fraction(1), factors)]


def _yb_tilde3(eng: Engine, d0, h0, i0, db, hb, ib, m11, m12, tails):
    """Ordered doubly-attached configurations over P^3.

    The shape splits on the freedom delta of the doubly-attached
    component once both contact points are free on H: rigid (its two
    contact points become point conditions on the hyperplane
    component), one degree of freedom (one contact point does, with a
    colliding-contact correction), or two (neither does, with the
    correction on H).  Each choice of a contact point on the hyperplane
    component contributes a factor of its degree d0.
    """
    m1 = m11 + m12
    delta = (
        4 * db
        - sum((1 + m - e) * c for (m, e), c in hb.items())
        - (m1 - 2)
        - sum((2 - e) * c for e, c in ib.items())
    )
    if delta == 0:
        mid = Problem.make(0, 3, db, bump(bump(hb, (m11, 2)), (m12, 2)), ib)
        vmid = eng.count_x(mid)
        if vmid == 0:
            return 0, []
        h0p = bump(bump(h0, (1, 0)), (1, 0))
        yval, ygroups = count_y(eng, 3, d0, h0p, i0, tails)
        if yval == 0:
            return 0, []
        groups = [(coeff, [(mid, vmid)] + fac) for coeff, fac in ygroups]
        return vmid * yval, groups
    if delta == 1:
        xa = Problem.make(0, 3, db, bump(bump(hb, (m11, 1)), (m12, 2)), ib)
        xb = Problem.make(0, 3, db, bump(bump(hb, (m12, 1)), (m11, 2)), ib)
        xc = Problem.make(0, 3, db, bump(hb, (m1, 2)), ib)
        va = eng.count_x(xa)
        vb = eng.count_x(xb)
        vc = eng.count_x(xc)
        bracket = d0 * (va + vb) - vc
        yval, ygroups = count_y(eng, 3, d0, bump(h0, (1, 0)), i0, tails)
        if bracket == 0 or yval == 0:
            return 0, []
        groups = []
        for coeff, fac in ygroups:
            if va:
                groups.append((coeff * d0, [(xa, va)] + fac))
            if vb:
                groups.append((coeff * d0, [(xb, vb)] + fac))
            if vc:
                groups.append((coeff * -1, [(xc, vc)] + fac))
        return bracket * yval, groups
    if delta == 2:
        xa = Problem.make(0, 3, db, bump(bump(hb, (m11, 1)), (m12, 1)), ib)
        xb = Problem.make(0, 3, db, bump(hb, (m1, 1)), ib)
        va = eng.count_x(xa)
        vb = eng.count_x(xb)
        bracket = d0 * (d0 * va - vb)
        yval, ygroups = count_y(eng, 3, d0, h0, i0, tails)
        if bracket == 0 or yval == 0:
            return 0, []
        groups = []
        for coeff, fac in ygroups:
            if va:
                groups.append((coeff * d0 * d0, [(xa, va)] + fac))
            if vb:
                groups.append((coeff * -d0, [(xb, vb)] + fac))
        return bracket * yval, groups
    return 0, []


def count_yb(eng: Engine, n, d0, h0, i0, part1, tails):
    """Broken-curve count for a type IIb term: a rational component
    attached to the hyperplane component at two points, summed over the
    ordered splits of its total contact multiplicity.  The half weight
    cancels the swap of the two attachment points."""
    db, hb, ib, m1 = part1
    tilde = _yb_tilde2 if n == 2 else _yb_tilde3
    value = Fraction(0)
    groups = []
    for m11 in range(1, m1):
        m12 = m1 - m11
        coeff = Fraction(m11 * m12, 2)
        tval, tgroups = tilde(eng, d0, h0, i0, db, hb, ib, m11, m12, tails)
        if tval == 0:
            continue
        value += coeff * tval
        groups.extend((coeff * gc, fac) for gc, fac in tgroups)
    return value, groups


def count_yb_tilde(eng: Engine, n, d0, h0, i0, part1, tails, m11):
    """One ordered split of the double contact: multiplicity m11 at the
    first attachment point and the rest at the second."""
    db, hb, ib, m1 = part1
    if n not in (2, 3):
        raise ValueError(f"doubly-attached counts need n in {{2, 3}}, not {n}")
    if not 1 <= m11 <= m1 - 1:
        raise ValueError(f"split point {m11} outside 1..{m1 - 1}")
    tilde = _yb_tilde2 if n == 2 else _yb_tilde3
    value, _ = tilde(eng, d0, h0, i0, db, hb, ib, m11, m1 - m11, tails)
    return value


def count_yc(eng: Engine, n, d0, h0, i0, tails):
    """Broken-curve count for a type IIc term: the elliptic component
    lies in H, so its count is a divisor-class problem there.  The old
    H-markers and the tail attachments become its incidence conditions,
    and the divisor records the hyperplane class of the original curve:
    tangency markers enter with their contact multiplicity, attachments
    with minus theirs."""
    if i0.get(0, 0):
        return 0, []
    factors = []
    deltas = []
    rams = []
    for dk, h_items, i_items in tails:
        pinned = tail_problem(n, dk, dict(h_items), dict(i_items))
        if pinned is None:
            return 0, []
        child, delta = pinned
        v = eng.count_x(child)
        if v == 0:
            return 0, []
        factors.append((child, v))
        deltas.append(delta)
        rams.append(_ram(dk, dict(h_items)))
    i0p = {}
    divisor = []
    for e in range(n):
        h_marks = sorted(m for (m, e0), c in h0.items() if e0 == e for _ in range(c))
        att_marks = sorted(mk for mk, dlt in zip(rams, deltas) if dlt == e)
        inherited = i0.get(e + 1, 0)
        total = inherited + len(h_marks) + len(att_marks)
        if total:
            i0p[e] = total
        idx = inherited
        for m in h_marks:
            idx += 1
            divisor.append((m, e, idx))
        for mk in att_marks:
            idx += 1
            divisor.append((-mk, e, idx))
    degree = sum(c for c, _, _ in divisor)
    if degree != d0:
        raise InexactCount(f"divisor degree {degree} must match the component degree {d0}")
    z = ZProblem.make(n - 1, d0, i0p, divisor)
    vz = eng.count_z(z)
    if vz == 0:
        return 0, []
    value = vz
    for _, v in factors:
        value *= v
    return value, [(Fraction(1), [(z, vz)] + factors)]


def expand_w(eng: Engine, p: Problem):
    n, d = p.n, p.d
    if n >= 4:
        raise UnsupportedProblem(
            f"elliptic counts are implemented over P^2 and P^3 only, not P^{n}"
        )
    dim = dim_w(p)
    if dim != 0:
        return 0, eng.leaf_node(p, dim, 0, "zero-dim")

    imap = p.i_map()
    if eng.divisor_axiom and imap.get(n - 1, 0):
        free = imap.pop(n - 1)
        child = Problem.make(1, n, d, p.h_map(), imap)
        weight = d**free
        value = weight * eng.count_w(child)
        return value, eng.axiom_node(p, 0, value, weight, child)

    e_star = eng.pick_slot(p)
    e_lift = e_star + 1
    i_base = bump(imap, e_star, -1)
    h_pool = p.h_map()

    terms = []
    for m, e0, c in p.h:
        e_new = e0 + e_lift - n
        if e_new < 0:
            continue
        h2 = bump(bump(h_pool, (m, e0), -1), (m, e_new))
        child = Problem.make(1, n, d, h2, i_base)
        v = eng.count_w(child)
        terms.append(("type-I", Fraction(m * c), v, [(Fraction(1), [(child, v)])]))

    tail_window = rational_tail_window(n)

    def ell_window(d1, h1, m1):
        base = (
            (n + 1) * d1
            - sum((n + m - e - 2) * c for (m, e), c in h1.items())
            - (m1 - 1)
        )
        return base - (n - 1), base

    for d1, h1, i1, m1, tails, ways, d0, h0, i0, ram in _split_off_part(
        n, d, h_pool, i_base, e_lift, ell_window, 1, tail_window
    ):
        value, groups = count_ya(eng, n, d0, h0, i0, (d1, h1, i1, m1), tails)
        if value:
            terms.append(("type-IIa", ways * m1 * ram, value, groups))

    if n == 2:

        def yb_window(db, hb, m1):
            base = 3 * db - 1 - sum((m - e) * c for (m, e), c in hb.items()) - (m1 - 2)
            return base, base

        def yb_tail_window(dk, h_sub, mk):
            base = 3 * dk - 1 - sum((m - e) * c for (m, e), c in h_sub.items()) - (mk - 1)
            return base, base

    else:

        def yb_window(db, hb, m1):
            base = 4 * db - sum((1 + m - e) * c for (m, e), c in hb.items()) - (m1 - 2)
            return base - 2, base

        yb_tail_window = tail_window

    for db, hb, ib, m1, tails, ways, d0, h0, i0, ram in _split_off_part(
        n, d, h_pool, i_base, e_lift, yb_window, 2, yb_tail_window
    ):
        if n == 2 and d0 != 1:
            continue
        value, groups = count_yb(eng, n, d0, h0, i0, (db, hb, ib, m1), tails)
        if value:
            terms.append(("type-IIb", ways * ram, value, groups))

    if n == 3:
        for parts, comb in type2_partitions(d - 1, h_pool, i_base, n, tail_window):
            d0 = d - sum(part[0] for part in parts)
            h0 = dict(h_pool)
            i0 = dict(i_base)
            ram = 1
            for dk, h_items, i_items in parts:
                for key, c in h_items:
                    h0 = bump(h0, key, -c)
                for key, c in i_items:
                    i0 = bump(i0, key, -c)
                ram *= _ram(dk, dict(h_items))
            i0 = bump(i0, e_lift)
            value, groups = count_yc(eng, n, d0, h0, i0, parts)
            if value:
                terms.append(("type-IIc", comb * ram, value, groups))

    return finish_terms(eng, p, 0, terms, "type-I")
