"""Counts of rational curves with tangency and incidence conditions.

A zero-dimensional problem is resolved by specializing one incidence
plane into the fixed hyperplane H.  In the limit either a marked
H-contact point absorbs the incidence (type I: one tangency marker
drops to a smaller plane inside H) or the curve breaks, leaving a
component inside H with rational tails attached to it at points of H
(type II).  Both produce strictly smaller problems; the recursion
bottoms out with the identity map of a line (n = 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .engine import Engine, exact_int, finish_terms
from .partitions import bump, type2_partitions
from .problems import Problem, dim_x


def rational_tail_window(n: int):
    """Window for a tail's incidence weight: the tail, with its
    attachment contact free on H, must have dimension within 0..n-1 so
    that constraining the attachment point to a plane pins it."""

    def bounds(dk, h_sub, mk):
        base = (
            (n + 1) * dk
            + (n - 3)
            - sum((n + m - e - 2) * c for (m, e), c in h_sub.items())
            - (mk - 1)
        )
        return base - (n - 1), base

    return bounds


def tail_problem(n: int, dk: int, hk: dict, ik: dict):
    """Pin a tail's attachment point: returns (problem, delta) with the
    attachment contact on a general (n-1-delta)-plane of H, or None if
    no plane dimension makes the tail rigid."""
    mk = dk - sum(m * c for (m, _), c in hk.items())
    base = (
        (n + 1) * dk
        + (n - 3)
        - sum((n + m - e - 2) * c for (m, e), c in hk.items())
        - (mk - 1)
    )
    delta = base - sum((n - 1 - e) * c for e, c in ik.items())
    if not 0 <= delta <= n - 1:
        return None
    return Problem.make(0, n, dk, bump(hk, (mk, n - 1 - delta)), ik), delta


def count_y(eng: Engine, n: int, d0: int, h0: dict, i0: dict, parts):
    """Count the broken-curve configurations of a type II term.

    The hyperplane component has degree d0, keeps the tangency markers
    h0 and incidence markers i0 (including the specialized one), and
    carries one attachment point per tail.  Each tail is rigid once its
    attachment is pinned; the hyperplane component becomes a rational
    curve problem in H itself, with the old H-markers turned into
    incidence conditions and the d0 intersections with a hyperplane of
    H as fresh free contacts.

    Returns (value, groups) with groups as engine.terms_node expects.
    """
    if i0.get(0, 0):
        return 0, []
    factors = []
    deltas = []
    for dk, h_items, i_items in parts:
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


def expand_x(eng: Engine, p: Problem):
    n, d = p.n, p.d
    if n == 1:
        dim = dim_x(p)
        if dim == 0:
            return 1, eng.leaf_node(p, 0, 1, "seed")
        return 0, eng.leaf_node(p, dim, 0, "base-n1")
    dim = dim_x(p)
    if dim != 0:
        return 0, eng.leaf_node(p, dim, 0, "zero-dim")

    imap = p.i_map()
    if eng.divisor_axiom and imap.get(n - 1, 0):
        free = imap.pop(n - 1)
        child = Problem.make(0, n, d, p.h_map(), imap)
        weight = d**free
        value = weight * eng.count_x(child)
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
        child = Problem.make(0, n, d, h2, i_base)
        v = eng.count_x(child)
        terms.append(("type-I", Fraction(m * c), v, [(Fraction(1), [(child, v)])]))

    window = rational_tail_window(n)
    for parts, comb in type2_partitions(d - 1, h_pool, i_base, n, window):
        d0 = d - sum(part[0] for part in parts)
        h0 = dict(h_pool)
        i0 = dict(i_base)
        ram = 1
        for dk, h_items, i_items in parts:
            for key, c in h_items:
                h0 = bump(h0, key, -c)
            for key, c in i_items:
                i0 = bump(i0, key, -c)
            ram *= dk - sum(m * c for (m, _), c in h_items)
        i0 = bump(i0, e_lift)
        value, groups = count_y(eng, n, d0, h0, i0, parts)
        if value:
            terms.append(("type-IIplain", comb * ram, value, groups))

    return finish_terms(eng, p, 0, terms, "type-I")
