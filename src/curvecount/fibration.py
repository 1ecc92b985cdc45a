"""Divisor-class counts on a one-parameter family of elliptic curves.

With the incidence conditions leaving exactly one degree of freedom,
the curves through them sweep out an elliptic surface fibered over the
parameter curve.  Each incidence marker gives a section of that
fibration, and the hyperplane class gives a further divisor on the
total space.  Counting the members whose hyperplane class equals a
fixed combination D of the marker sections reduces to intersection
numbers on the surface: the count is Q^2 - D'^2/2 where Q is any
section, D' = H - sum(c_s Q_s), and the pairings H^2, H.Q, Q.Q of
distinct sections and Q^2 itself are evaluated by degenerating the
family.  Every degeneration term is a product of rational and elliptic
counts of lower degree, divided by the relabelings of free contacts.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .engine import Engine, InexactCount, exact_int, memo
from .partitions import bump, minus, subvectors_weighted
from .problems import Problem, ZProblem, base_z_text, dim_z


def _uniform(n: int, d: int) -> dict:
    return {(1, n - 1): d}


def _exact(frac: Fraction) -> int:
    return exact_int(frac, "free-contact relabelings must divide the count")


def _splits(eng: Engine, z: ZProblem, pool: dict, d0_min: int, rational):
    """Sum the broken-fiber contributions shared by all four pairings.

    The fiber degenerates into a rational curve of degree d0 and an
    elliptic curve of degree d1 = d - d0 taking a sub-vector i1 of the
    pool.  ``rational(d0, i0)`` returns the rational side's problem for
    the rest i0 of the pool and its scale: the inverse relabelings of
    its free contacts times the choices the divisor makes on it.  Over
    P^2 the two components meet in d0*d1 points and each meeting point
    gives a distinct fiber.

    The elliptic side has dimension (n+1)*d1 - sum((n-1-e) * c) and
    counts nothing unless that is zero, so only those sub-vectors are
    enumerated; nor unless d1 >= 3, as there are no elliptic curves of
    degree 1 or 2.
    """
    n, d = z.n, z.d
    total = Fraction(0)
    pool_items = tuple(sorted(pool.items()))
    weight_of = lambda e: n - 1 - e
    for d0 in range(d0_min, d - 2):
        d1 = d - d0
        rigid = (n + 1) * d1
        for i1, ways in subvectors_weighted(pool_items, weight_of, rigid, rigid):
            x, scale = rational(d0, dict(minus(pool_items, i1)))
            vx = eng.count_x(x)
            if vx == 0:
                continue
            w = Problem.make(1, n, d1, _uniform(n, d1), i1)
            vw = eng.count_w(w)
            if vw == 0:
                continue
            term = scale * vx * Fraction(vw, math.factorial(d1)) * ways
            if n == 2:
                term *= d0 * d1
            total += term
    return total


def _divisor_pair(eng: Engine, z: ZProblem, key: str, markers: tuple, hyps: int) -> int:
    """Intersection of the marker sections on slots ``markers`` and
    ``hyps`` copies of the hyperplane divisor, two divisors in all.

    On a whole fiber the two divisors meet where their planes do: a
    marker's section lies on its e-plane and the hyperplane divisor on
    a hyperplane, so the fiber gains a marker on a plane of dimension
    sum(markers) + hyps*(n-1) - n, when that is not negative.  On a
    broken fiber the markers stay on the rational side, and each
    hyperplane divisor chooses one of its d0 points on H.
    """

    def compute():
        n, d = z.n, z.d
        pool = z.i_map()
        for e in markers:
            pool = bump(pool, e, -1)
        total = Fraction(0)
        slot = sum(markers) + hyps * (n - 1) - n
        if slot >= 0:
            w = Problem.make(1, n, d, _uniform(n, d), bump(pool, slot))
            total += Fraction(eng.count_w(w), math.factorial(d))

        def rational(d0, i0):
            for e in markers:
                i0 = bump(i0, e)
            x = Problem.make(0, n, d0, _uniform(n, d0), i0)
            return x, Fraction(d0**hyps, math.factorial(d0))

        total += _splits(eng, z, pool, 1, rational)
        return _exact(total)

    return memo(eng.store, key, compute)


def sec_pair(eng: Engine, z: ZProblem, e1: int, e2: int) -> int:
    """Intersection of the two sections given by markers on slots e1, e2."""
    return _divisor_pair(eng, z, f"QQ|{base_z_text(z)} e={min(e1, e2)},{max(e1, e2)}", (e1, e2), 0)


def sec_hyp(eng: Engine, z: ZProblem, e: int) -> int:
    """Intersection of the hyperplane divisor with a marker section."""
    return _divisor_pair(eng, z, f"HQ|{base_z_text(z)} e={e}", (e,), 1)


def hyp_self(eng: Engine, z: ZProblem) -> int:
    """Self-intersection of the hyperplane divisor on the total space."""
    return _divisor_pair(eng, z, f"HH|{base_z_text(z)}", (), 2)


def hyp_minus_sec(eng: Engine, z: ZProblem, e: int) -> int:
    """Intersection of (hyperplane - section) with the same section.

    Moving the section into the hyperplane divisor turns the marker into
    a doubled contact; the broken fibers keep the marker as a contact
    point of the rational component instead of a free one.
    """
    key = f"HMQ|{base_z_text(z)} e={e}"

    def compute():
        n, d = z.n, z.d
        pool = bump(z.i_map(), e, -1)
        total = Fraction(0)
        if d >= 2:
            h = bump({(2, e): 1}, (1, n - 1), d - 2)
            w = Problem.make(1, n, d, h, pool)
            total += Fraction(eng.count_w(w), math.factorial(d - 2))

        def rational(d0, i0):
            # the marker stays a contact point of the rational side
            x = Problem.make(0, n, d0, bump(_uniform(n, d0 - 1), (1, e)), i0)
            return x, Fraction(d0 - 1, math.factorial(d0 - 1))

        total += _splits(eng, z, pool, 2, rational)
        return _exact(total)

    return memo(eng.store, key, compute)


def sec_self(eng: Engine, z: ZProblem) -> int:
    """Self-intersection of a section; the same for every section."""
    key = f"SS|{base_z_text(z)}"

    def compute():
        slots = [e for e, c in z.i if c > 0 and e <= z.n - 1]
        if not slots:
            raise AssertionError(f"a one-parameter family needs a marker below the top slot: {z}")
        values = [sec_hyp(eng, z, e) - hyp_minus_sec(eng, z, e) for e in slots]
        if len(set(values)) != 1:
            raise InexactCount(f"section self-intersection differs by slot: {values}")
        return values[0]

    return memo(eng.store, key, compute)


def expand_z(eng: Engine, z: ZProblem):
    dim = dim_z(z)
    if dim != 0:
        return 0, eng.leaf_node(z, dim, 0, "zero-dim")
    markers = [(coeff, e) for coeff, e, _ in z.divisor]
    s2 = sec_self(eng, z)
    d2 = hyp_self(eng, z)
    for coeff, e in markers:
        d2 -= 2 * coeff * sec_hyp(eng, z, e)
        d2 += coeff * coeff * s2
    for s in range(len(markers)):
        for t in range(s + 1, len(markers)):
            cs, es = markers[s]
            ct, et = markers[t]
            d2 += 2 * cs * ct * sec_pair(eng, z, es, et)
    if d2 % 2:
        raise InexactCount(f"divisor self-intersection {d2} must be even for {z}")
    value = s2 - d2 // 2
    return value, eng.leaf_node(z, 0, value, "z-evaluation")
