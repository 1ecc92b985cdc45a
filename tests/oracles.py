"""Independent reference computations used to check the engine.

Nothing in this module calls the engine.  Each oracle derives its
numbers from a different piece of mathematics, so agreement with the
engine is evidence rather than circularity.
"""

import math
from fractions import Fraction


def kontsevich_numbers(dmax):
    """Rational plane curves of degree d through 3d-1 general points.

    Computed by the associativity recursion

      N(d) = sum over d1 + d2 = d of N(d1) N(d2) *
             (d1^2 d2^2 C(3d-4, 3d1-2) - d1^3 d2 C(3d-4, 3d1-1))

    seeded by N(1) = 1.  Returns {d: N(d)} for d up to dmax.
    """
    n = {1: 1}
    for d in range(2, dmax + 1):
        total = 0
        for d1 in range(1, d):
            d2 = d - d1
            total += (
                n[d1]
                * n[d2]
                * (
                    d1 * d1 * d2 * d2 * math.comb(3 * d - 4, 3 * d1 - 2)
                    - d1**3 * d2 * math.comb(3 * d - 4, 3 * d1 - 1)
                )
            )
        n[d] = total
    return n


def lines_meeting(n, space_dims):
    """Lines in P^n meeting general linear subspaces of the given
    dimensions, by the Pieri rule on the Grassmannian of lines.

    Classes are partitions (a, b) with n-1 >= a >= b >= 0; a subspace of
    dimension f imposes the special class of codimension n-1-f, and the
    answer is the coefficient of the point class (n-1, n-1).
    """
    top = n - 1
    classes = {(0, 0): 1}
    for f in space_dims:
        c = top - f
        if c < 0:
            raise ValueError(f"subspace dimension {f} exceeds ambient {n}")
        nxt = {}
        for (a, b), coeff in classes.items():
            for bp in range(b, a + 1):
                ap = a + b + c - bp
                if a <= ap <= top:
                    nxt[ap, bp] = nxt.get((ap, bp), 0) + coeff
        classes = nxt
    return classes.get((top, top), 0)


def ordered_type2_aggregate(d_avail, h_pool, i_pool, n, i_bounds, value_of, m_min=1):
    """Worth of all tail configurations, enumerated the slow plain way.

    Parts are chosen in order (the 1/l! at the end undoes the ordering),
    each drawing a labeled sub-multiset of the remaining marker pools,
    with the same degree, attachment and incidence-window constraints as
    the engine's enumerator.  The worth of a configuration is the
    product of value_of(dk, h_items, i_items) over its parts.  Two
    configurations are worth nothing: one that leaves a point marker
    (e = 0) untaken, since that point would lie on the hyperplane
    component, and one with a part through more general points than a
    rational curve of its degree passes through, (n-1) * points >
    (n+1) * dk + n - 3.
    """

    def sub_multisets(items):
        if not items:
            yield (), 1
            return
        (key, c), rest = items[0], items[1:]
        for tail, ways in sub_multisets(rest):
            for take in range(c + 1):
                taken = ((key, take),) + tail if take else tail
                yield taken, ways * math.comb(c, take)

    def weight(i_items):
        return sum((n - 1 - e) * c for e, c in i_items)

    def rec_ordered(d_rem, h_items, i_items):
        if not dict(i_items).get(0, 0):
            yield (), 1
        for dk in range(1, d_rem + 1):
            for h_sub, h_ways in sub_multisets(h_items):
                mk = dk - sum(m * c for (m, _), c in h_sub)
                if mk < m_min:
                    continue
                bounds = i_bounds(dk, dict(h_sub), mk)
                if bounds is None:
                    continue
                lo, hi = bounds
                for i_sub, i_ways in sub_multisets(i_items):
                    if not lo <= weight(i_sub) <= hi:
                        continue
                    if (n - 1) * dict(i_sub).get(0, 0) > (n + 1) * dk + n - 3:
                        continue
                    h_next = tuple(
                        (k, c - dict(h_sub).get(k, 0))
                        for k, c in h_items
                        if c - dict(h_sub).get(k, 0)
                    )
                    i_next = tuple(
                        (k, c - dict(i_sub).get(k, 0))
                        for k, c in i_items
                        if c - dict(i_sub).get(k, 0)
                    )
                    head = value_of(dk, tuple(sorted(h_sub)), tuple(sorted(i_sub)))
                    for rest, rest_worth in rec_ordered(d_rem - dk, h_next, i_next):
                        yield (dk,) + rest, h_ways * i_ways * head * rest_worth

    total = Fraction(0)
    for parts, worth in rec_ordered(
        d_avail, tuple(sorted(h_pool.items())), tuple(sorted(i_pool.items()))
    ):
        total += Fraction(worth, math.factorial(len(parts)))
    return total
