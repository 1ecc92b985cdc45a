"""Counts of rational curves with tangency and incidence conditions.

A zero-dimensional problem is resolved by specializing one incidence
plane into the fixed hyperplane H.  In the limit either a marked
H-contact point absorbs the incidence (type I: one tangency marker
drops to a smaller plane inside H) or the curve breaks, leaving a
component inside H with rational tails attached to it at points of H
(type II).  Both produce strictly smaller problems; the recursion
bottoms out with the identity map of a line (n = 1).

The specialization step and count_y, the one evaluator of a component
in H with the components pinned to it (every rational tail and the
type IIa elliptic component), are shared with genus1; count_y also
counts an elliptic component in H (type IIc) given its divisor.
"""

from __future__ import annotations

from math import factorial

from .engine import Engine, exact_quotient, finish_terms
from .partitions import bump, pool_rows, tail_table, type2_partitions
from .problems import Problem, ZProblem, dim_x, dimension


def tail_problem(n: int, dk: int, h_items, i_items, mk: int, delta: int, genus: int = 0):
    """Pin a component, given as its record (see partitions) and its
    genus: the problem of the component with its attachment contact, of
    multiplicity mk, on a general (n-1-delta)-plane of H.  Every
    caller's window (see partitions.components) makes some plane
    dimension rigid, so a component outside it is a fault of the caller
    and raises."""
    if not 0 <= delta <= n - 1:
        raise AssertionError(f"component of freedom {delta} cannot be pinned in P^{n}")
    return Problem.make(genus, n, dk, bump(h_items, (mk, n - 1 - delta)), i_items)


def hyperplane_markers(h0: dict, i0: dict, deltas) -> dict:
    """Incidence markers, in H, of the component lying in H: its
    incidence markers one slot down (an (e+1)-plane meets H in an
    e-plane), its tangency markers on their planes of H, and for each
    attached component of freedom delta one marker on a general
    delta-plane of H, dual to the plane tail_problem pins it to.  A
    point marker (e = 0) cannot stay on it: type2_partitions and
    genus1._split_off_part route every one into the other components,
    so one here is a fault of the caller and raises."""
    if i0.get(0):
        raise AssertionError(f"point markers left on the component in H: {i0}")
    markers = {e - 1: c for e, c in i0.items()}
    for (_, e), c in h0.items():
        markers[e] = markers.get(e, 0) + c
    for delta in deltas:
        markers[delta] = markers.get(delta, 0) + 1
    return markers


def count_y(eng: Engine, n: int, d0: int, h0: dict, i0: dict, parts, divisor=None):
    """Count the broken-curve configurations of a type II term.

    The hyperplane component has degree d0, keeps the tangency markers
    h0 and incidence markers i0 (with the specialized one), and carries
    one attachment point per component of ``parts``: a rational tail as
    the record (dk, h_items, i_items, mk, delta) that type2_partitions
    yields, or first the IIa elliptic component as its record followed
    by its genus, (dk, h_items, i_items, mk, delta, 1).  Each is rigid
    once tail_problem pins it.  The hyperplane component carries the
    markers of hyperplane_markers: a rational one becomes a curve
    problem in H with its d0 intersections with a hyperplane of H as
    free contacts; an elliptic one (type IIc, genus1.count_yc) the
    divisor-class problem in H of the ``divisor`` count_yc builds.
    It checks no capacity of its own: type2_partitions drops every shape
    whose hyperplane component would pass through more points of H than
    a curve of degree d0 can, so none reaches it.

    Each factor but the divisor-class problem is counted once per
    Engine and n, kept in eng.pinned[n] (see Engine), tails first, so
    the memo store fills as if every shape counted its own and a zero
    tail skips the hyperplane component.  Few shapes share a
    divisor-class problem, and its pins would hold more memory than
    they save time.

    Returns (value, groups): value is the product of the counts, for a
    rational component in H divided by the d0! relabelings of its free
    contacts, which must divide it, and groups the one group
    (1, factors) of engine.terms_node, the component in H first.
    """
    i0p = hyperplane_markers(h0, i0, [part[4] for part in parts])
    # Counted here, not in a helper: a frame more on every level of the
    # recursion made rational P^3 d=6 and elliptic P^3 d=5 slower.
    pinned = eng.pinned[n]
    factors = []
    prod = 1
    for part in parts:
        factor = pinned.get(part)
        if factor is None:
            child = tail_problem(n, *part)
            factor = pinned[part] = (child, eng.counted(child))
        if factor[1] == 0:
            return 0, []
        factors.append(factor)
        prod *= factor[1]
    if divisor is None:
        key = (d0, frozenset(i0p.items()))
        factor0 = pinned.get(key)
        if factor0 is None:
            child0 = Problem.make(0, n - 1, d0, {(1, n - 2): d0}, i0p)
            factor0 = pinned[key] = (child0, eng.counted(child0))
    else:
        # Built from its canonical fields: the walk leaves no zero count
        # in h0 and i0, and count_yc builds the divisor sorted, with no
        # zero coefficient.
        child0 = ZProblem(n - 1, d0, tuple(sorted(i0p.items())), divisor)
        factor0 = (child0, eng.counted(child0))
    if factor0[1] == 0:
        return 0, []
    value = prod * factor0[1]
    if divisor is None:
        value = exact_quotient(value, factorial(d0), "hyperplane-component relabelings must divide the count")
    return value, [(1, [factor0] + factors)]


def settle(eng: Engine, p: Problem, first_slot=None) -> int | None:
    """The count of a problem that needs no degeneration, or None.  A
    positive-dimensional problem counts 0; markers on general
    hyperplanes trade for a factor of d each (the divisor axiom), and
    ``first_slot`` passes to the problem without them."""
    dim = dimension(p)
    if dim != 0:
        return eng.leaf(p, dim, 0, "zero-dim")
    hyps = dict(p.i).get(p.n - 1, 0)
    if not (eng.divisor_axiom and hyps):
        return None
    weight = p.d**hyps
    # p's canonical vectors less slot n - 1 are the child's
    child = Problem(p.genus, p.n, p.d, p.h, tuple(item for item in p.i if item[0] != p.n - 1))
    return eng.axiom(p, weight * eng.counted(child, first_slot), weight, child)


def specialize(eng: Engine, p: Problem, first_slot=None):
    """Specialize one incidence plane of p into H, on ``first_slot`` or
    the slot eng.pick_slot chooses.  Returns (e_lift, h_pool, i_base,
    terms): the specialized marker's slot on the hyperplane component,
    the tangency pool, the incidence pool without the specialized
    marker, and the type-I terms, where a contact point absorbs the
    plane and its marker drops to a smaller plane of H."""
    e_star = eng.pick_slot(p, first_slot)
    e_lift = e_star + 1
    i_base = bump(p.i_map(), e_star, -1)
    h_pool = p.h_map()
    terms = []
    for m, e0, c in p.h:
        e_new = e0 + e_lift - p.n
        if e_new < 0:
            continue
        child = Problem.make(p.genus, p.n, p.d, bump(bump(h_pool, (m, e0), -1), (m, e_new)), i_base)
        v = eng.counted(child)
        terms.append(("type-I", m * c, 1, v, [(1, [(child, v)])]))
    return e_lift, h_pool, i_base, terms


def expand_x(eng: Engine, p: Problem, first_slot=None) -> int:
    n, d = p.n, p.d
    if n == 1:
        dim = dim_x(p)
        if dim == 0:
            return eng.leaf(p, 0, 1, "seed")
        return eng.leaf(p, dim, 0, "base-n1")
    done = settle(eng, p, first_slot)
    if done is not None:
        return done
    e_lift, h_pool, i_base, terms = specialize(eng, p, first_slot)
    table = tail_table(n, d - 1, pool_rows(n, h_pool, i_base))
    for parts, ways, aut, d0, h0, i0, ram in type2_partitions(d, h_pool, i_base, table, e_lift):
        value, groups = count_y(eng, n, d0, h0, i0, parts)
        if value:
            terms.append(("type-IIplain", ways * ram, aut, value, groups))
    return finish_terms(eng, p, 0, terms, "type-I")
