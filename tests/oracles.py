"""Independent reference computations used to check the engine.

Nothing in this module calls the engine.  Each oracle derives its
numbers from a different piece of mathematics, so agreement with the
engine is evidence rather than circularity.  There are two
exceptions: per_level_type2_partitions, a slow reference that reuses
the program's component enumerator, and divisor_count_per_marker, the
per-marker form of a divisor-class count, which takes the engine's
pairings from its caller.
"""

import itertools
import math
from fractions import Fraction

from curvecount.partitions import bump, components, points_budget, points_on_curve, pool_rows, rest


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


def getzler_elliptic_numbers(dmax):
    """Elliptic plane curves of degree d through 3d general points.

    Computed by Getzler's recursion

      N1(d) = C(d, 3) N(d) / 12 + sum over d1 + d2 = d of
              C(3d-1, 3d1-1) d1 d2 (3d1-2) N(d1) N1(d2) / 9

    over the rational counts N of kontsevich_numbers; it gives N1(d) = 0
    for d < 3 and N1(3) = 1.  Each N1(d) must come out an integer.
    Returns {d: N1(d)} for d up to dmax.
    """
    n = kontsevich_numbers(dmax)
    n1 = {}
    for d in range(1, dmax + 1):
        total = Fraction(math.comb(d, 3) * n[d], 12)
        for d1 in range(1, d):
            d2 = d - d1
            total += Fraction(math.comb(3 * d - 1, 3 * d1 - 1) * d1 * d2 * (3 * d1 - 2) * n[d1] * n1[d2], 9)
        if total.denominator != 1:
            raise ArithmeticError(f"Getzler's recursion gives {total} at d = {d}")
        n1[d] = total.numerator
    return n1


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
    the engine's enumerator: i_bounds(dk, h_sub, mk) gives (base, lo,
    hi), and a part is kept when lo <= base - incidence weight <= hi.
    The worth of a configuration is the product of value_of(dk,
    h_items, i_items) over its parts.  Two configurations are worth
    nothing: one that leaves a point marker (e = 0) untaken, since that
    point would lie on the hyperplane component, and one with a part
    through more general points than a rational curve of its degree
    passes through, (n-1) * points > (n+1) * dk + n - 3.  For n >= 3 a
    third is worth nothing: one whose hyperplane component, a rational
    curve of degree d0 = d_avail + 1 - (the parts' degrees) in H =
    P^(n-1), meets more points of H than such a curve passes through,
    (n-2) * points > n * d0 + n - 4.  Its points of H are its markers
    left on lines (e = 1), its tangency markers left on points of H, and
    one per part of freedom 0; the specialized marker is taken to lie on
    a hyperplane (e = n - 1), which meets H in a point only for n = 2.
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

    def fits_in_h(d0, h_items, i_items, rigid):
        points = dict(i_items).get(1, 0) + sum(c for (_, e), c in h_items if e == 0) + rigid
        return n < 3 or (n - 2) * points <= n * d0 + n - 4

    def rec_ordered(d_rem, h_items, i_items, rigid):
        if not dict(i_items).get(0, 0) and fits_in_h(d_rem + 1, h_items, i_items, rigid):
            yield (), 1
        for dk in range(1, d_rem + 1):
            for h_sub, h_ways in sub_multisets(h_items):
                mk = dk - sum(m * c for (m, _), c in h_sub)
                if mk < m_min:
                    continue
                base, lo, hi = i_bounds(dk, h_sub, mk)
                for i_sub, i_ways in sub_multisets(i_items):
                    delta = base - weight(i_sub)
                    if not lo <= delta <= hi:
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
                    for rest, rest_worth in rec_ordered(d_rem - dk, h_next, i_next, rigid + (delta == 0)):
                        yield (dk,) + rest, h_ways * i_ways * head * rest_worth

    total = Fraction(0)
    for parts, worth in rec_ordered(
        d_avail, tuple(sorted(h_pool.items())), tuple(sorted(i_pool.items())), 0
    ):
        total += Fraction(worth, math.factorial(len(parts)))
    return total


def automorphism_order(items) -> int:
    """Order of the symmetry group permuting equal entries, from scratch:
    the product of the factorials of their multiplicities."""
    counts: dict = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return math.prod(math.factorial(c) for c in counts.values())


def hyperplane_markers(h0: dict, i0: dict, deltas) -> dict:
    """Incidence markers, in H, of the component lying in H, as a dict
    built plainly: its incidence markers one slot down (an (e+1)-plane
    meets H in an e-plane), its tangency markers on their planes of H,
    and for each attached component of freedom delta one marker on a
    general delta-plane of H.  A point marker (e = 0) cannot stay on
    it, so one raises, as in genus0.count_y."""
    if i0.get(0):
        raise AssertionError(f"point markers left on the component in H: {i0}")
    markers = {e - 1: c for e, c in i0.items()}
    for (_, e), c in h0.items():
        markers[e] = markers.get(e, 0) + c
    for delta in deltas:
        markers[delta] = markers.get(delta, 0) + 1
    return markers


def per_level_type2_partitions(d, h_pool, i_pool, n, window, e_lift, d0_min=1, h_points=0):
    """The type II enumerator as it was before tail tables: it calls
    ``partitions.components``, in ``window`` = (genus, lo, hi), again
    on the pool_rows of every pool the
    tails before leave (partitions.rest), and drops a tail through more
    points than points_on_curve.  For n >= 3 it drops a finished shape
    whose hyperplane component of degree d0 meets more points of H than
    it passes through: for d0_min = 1 a rational curve in H = P^(n-1),
    (n-2) * points > n * d0 + n - 4, and for d0_min = 3 an elliptic one,
    whose divisor-class problem counts 0 when (n-2) * points > n * d0
    (3 * d0 points in H = P^2).  Its points of H are its markers on
    lines (e = 1, the specialized one included), its tangency markers on
    points of H, one per tail of freedom 0, and ``h_points``.  It is the
    slow reference for ``type2_partitions`` over a ``tail_table``: same
    shapes, same order, same weights.
    Unlike the oracles above it uses the program's own component
    enumerator."""

    def rec(d_rem, h_rem, i_rem, min_tail):
        points = i_rem.get(0, 0)
        if points > points_budget(n, d_rem):
            return
        if not points:
            yield (), 1, 1, d_rem, h_rem, i_rem
        for tail, ways in components(n, d_rem, pool_rows(n, h_rem, i_rem), *window):
            dk, h_sub, i_sub, mk, _ = tail
            if dict(i_sub).get(0, 0) > points_on_curve(n, dk):
                continue
            if tail < min_tail:
                continue
            h_rest, i_rest = rest(h_rem, h_sub), rest(i_rem, i_sub)
            for tails, rest_ways, ram, d_left, h_left, i_left in rec(d_rem - dk, h_rest, i_rest, tail):
                yield (tail,) + tails, ways * rest_ways, mk * ram, d_left, h_left, i_left

    h_pool = dict(sorted(h_pool.items()))
    i_pool = dict(sorted(i_pool.items()))
    for parts, ways, ram, d_left, h0, i0 in rec(d - d0_min, h_pool, i_pool, ()):
        d0 = d_left + d0_min
        h0 = {k: c for k, c in h0.items() if c}
        i0 = bump({e: c for e, c in i0.items() if c}, e_lift)
        points = h_points + i0.get(1, 0) + sum(c for (_, e), c in h0.items() if e == 0)
        points += sum(1 for part in parts if part[4] == 0)
        if n >= 3 and (n - 2) * points > n * d0 + (n - 4 if d0_min == 1 else 0):
            continue
        yield parts, ways, automorphism_order(parts), d0, h0, i0, ram

def divisor_count_per_marker(divisor, ss, hh, hq, qq):
    """Q^2 - D'^2/2 of a divisor-class problem, summed term by term over
    its markers, the way fibration.expand_z summed it before it read the
    divisor per slot.  With D' = H - sum(c_s Q_s),

      D'^2 = HH - 2 sum c_s HQ(e_s) + sum c_s^2 SS
             + 2 sum_{s<t} c_s c_t QQ(e_s, e_t).

    ``divisor`` holds (coeff, e, k) terms; ss and hh are the base's SS
    and HH, and hq(e) and qq(e, e') give its other pairings, so the
    caller says where they come from.  An odd D'^2 gives a count with a
    remainder, which no integer count equals."""
    d2 = hh
    for coeff, e, _ in divisor:
        d2 += coeff * coeff * ss - 2 * coeff * hq(e)
    for (cs, es, _), (ct, et, _) in itertools.combinations(divisor, 2):
        d2 += 2 * cs * ct * qq(es, et)
    return ss - Fraction(d2, 2)


def term_edge_weights(term_total, groups):
    """The edge weights of one trace term, the way
    engine.Engine.terms_node built them before it added them up in
    integers: one Fraction per group and factor.  The term's count
    ``term_total`` is split between its ``groups``, (coeff, factors)
    pairs with factors a list of (problem, count), in proportion to
    coeff times the product of the counts, and a group's share evenly
    between its r factors, so a factor of count c weighs
    share / (r * c), summed over every place it holds in the term.
    Returns [(problem, weight)], each problem where it first holds a
    nonzero share."""
    shares = [(coeff * math.prod(c for _, c in factors), factors) for coeff, factors in groups]
    whole = sum(share for share, _ in shares)
    merged = {}
    for share, factors in shares:
        if share == 0:
            continue
        for problem, c in factors:
            merged[problem] = merged.get(problem, 0) + Fraction(term_total * share, whole * len(factors) * c)
    return list(merged.items())


# Exact intersection ring of the pair space obtained by blowing up
# H x H along the diagonal, H a projective plane.
#
# The doubly-attached analysis follows a curve family through the pair
# of points where a component meets H, and those two points may
# collide.  Their natural home is the blowup of H x H along the
# diagonal.  Its rational equivalence classes form a free Z-module of
# rank twelve on monomials in the two hyperplane pullbacks h1, h2 and
# the exceptional class e, and every product reduces back to that
# basis.  The tests pair classes here against the engine's type IIb
# counts.

# Basis monomials h1^a h2^b e^k encoded as (a, b, k).
BASIS = (
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (2, 0, 0),
    (1, 1, 0),
    (0, 2, 0),
    (1, 0, 1),
    (2, 1, 0),
    (1, 2, 0),
    (2, 0, 1),
    (2, 2, 0),
)

_TOP = (2, 2, 0)


def _reduce(a: int, b: int, k: int, coeff: int, out: dict) -> None:
    """Rewrite coeff * h1^a h2^b e^k into basis monomials, added into out."""
    if a >= 3 or b >= 3:
        return
    if k >= 2:
        # e^2 = 3 h1 e - h1^2 - h1 h2 - h2^2
        _reduce(a + 1, b, k - 1, 3 * coeff, out)
        _reduce(a + 2, b, k - 2, -coeff, out)
        _reduce(a + 1, b + 1, k - 2, -coeff, out)
        _reduce(a, b + 2, k - 2, -coeff, out)
        return
    if k == 1:
        # h1 e = h2 e and h1^2 e = h1 h2 e = h2^2 e; a third hyperplane
        # factor then forces h1^2 h2 e = h2^3 e = 0.
        if a + b >= 3:
            return
        a, b = a + b, 0
    out[a, b, k] = out.get((a, b, k), 0) + coeff


class BlowupClass:
    """Integer linear combination of the twelve basis monomials."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c}

    def coefficient(self, monomial: tuple) -> int:
        return self.coeffs.get(monomial, 0)

    def __add__(self, other: "BlowupClass") -> "BlowupClass":
        total = dict(self.coeffs)
        for m, c in other.coeffs.items():
            total[m] = total.get(m, 0) + c
        return BlowupClass(total)

    def __sub__(self, other: "BlowupClass") -> "BlowupClass":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return BlowupClass({m: c * other for m, c in self.coeffs.items()})
        total: dict = {}
        for (a1, b1, k1), c1 in self.coeffs.items():
            for (a2, b2, k2), c2 in other.coeffs.items():
                _reduce(a1 + a2, b1 + b2, k1 + k2, c1 * c2, total)
        return BlowupClass(total)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, BlowupClass) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "BlowupClass(0)"
        parts = []
        for (a, b, k) in BASIS:
            c = self.coeffs.get((a, b, k), 0)
            if not c:
                continue
            bits = []
            if a:
                bits.append("h1" if a == 1 else f"h1^{a}")
            if b:
                bits.append("h2" if b == 1 else f"h2^{b}")
            if k:
                bits.append("e")
            parts.append(f"{c}*{'*'.join(bits) or '1'}")
        return "BlowupClass(" + " + ".join(parts) + ")"


ONE = BlowupClass({(0, 0, 0): 1})
H1 = BlowupClass({(1, 0, 0): 1})
H2 = BlowupClass({(0, 1, 0): 1})
E = BlowupClass({(0, 0, 1): 1})


def blowup_pair_product(a: BlowupClass, b: BlowupClass) -> int:
    """Intersection number of two classes whose product is a point class.

    Raises ValueError when the product has components outside the top
    graded piece, since such a product has no well-defined degree.
    """
    product = a * b
    stray = {m: c for m, c in product.coeffs.items() if m != _TOP}
    if stray:
        raise ValueError(f"product is not top-dimensional: {stray}")
    return product.coefficient(_TOP)
