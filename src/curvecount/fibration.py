"""Divisor-class counts on a one-parameter family of elliptic curves.

With the incidence conditions leaving exactly one degree of freedom,
the curves through them sweep out an elliptic surface fibered over the
parameter curve.  Each incidence marker gives a section of that
fibration, and the hyperplane class gives a further divisor on the
total space.  Counting the members whose hyperplane class equals a
fixed combination D of the marker sections reduces to intersection
numbers on the surface: the count is Q^2 - D'^2/2 where Q is any
section, D' = H - sum(c_s Q_s).  The pairings H^2, H.Q, Q.Q of
distinct sections and (H-Q).Q, whence Q^2 = H.Q - (H-Q).Q, are each
evaluated by degenerating the family in one body, ``_pairing``: a
whole-fiber term plus a sum over fibers broken into a rational and an
elliptic curve, the elliptic side read off the sub-vectors of the
incidence pool whose weight an elliptic curve can take
(partitions.subvectors with a weight window).  Every term is a product of
rational and elliptic counts of lower degree, divided by the
relabelings of free contacts; the terms are summed as integer
numerators over one factorial and divided once.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

from .engine import Engine, InexactCount, exact_quotient, memo
from .partitions import bump, rest, subvectors
from .problems import Problem, ZProblem, base_z_text, dim_z


def _uniform(n: int, d: int) -> dict:
    return {(1, n - 1): d}


def _pairing(eng: Engine, z: ZProblem, key: str, markers: tuple, whole, d0_min: int, rational) -> int:
    """A pairing of two divisors on the family, memoized under ``key``.

    Every term is an integer numerator over one divisor, top!, where top
    is d - d0_min + 1: the free contacts of a broken fiber's rational
    side, d0 - d0_min + 1 of them, and of its elliptic side, d1, are
    relabeled by a factor (d0 - d0_min + 1)! d1! that divides top!.
    The sections of the markers on slots ``markers`` leave the fiber's
    incidence pool; ``whole(pool)`` is the numerator of the whole-fiber
    term on the rest.  A broken fiber is a rational curve of degree
    d0 >= d0_min and an elliptic curve of degree d1 = d - d0 taking a
    sub-vector i1 of the pool.  ``rational(d0, i0)`` returns the
    rational side's problem for the rest i0 and its scale, the choices
    the divisor makes on it.  Over P^2 the two components meet in d0*d1
    points, each giving a distinct fiber.  The elliptic side counts
    nothing unless its incidence weight is its whole dimension (n+1)*d1,
    so it takes just the incidence rows of that weight, in their
    subvectors order, for each d1 >= 3 (there are no elliptic curves of
    degree 1 or 2); subvectors lists only the rows whose weight lies in
    the window of those degrees, 3(n+1)..(d-d0_min)(n+1).
    """

    def compute():
        n, d = z.n, z.d
        pool = z.i_map()
        for e in markers:
            pool = bump(pool, e, -1)
        top = d - d0_min + 1
        total = whole(pool)
        # incidence weight, as partitions.pool_rows weighs it
        i_rows = subvectors(pool, lambda e: n - 1 - e, (3 * (n + 1), (d - d0_min) * (n + 1)))
        for d1 in range(3, d - d0_min + 1):
            for i1, ways, weight in i_rows:
                if weight != (n + 1) * d1:
                    continue
                d0 = d - d1
                x, scale = rational(d0, rest(pool, i1))
                vx = eng.counted(x)
                if vx == 0:
                    continue
                # i1, a sub-vector row, is sorted and positive: canonical
                vw = eng.counted(Problem(1, n, d1, ((1, n - 1, d1),), i1))
                if vw == 0:
                    continue
                term = scale * vx * vw * ways * comb(top, d1)
                if n == 2:
                    term *= d0 * d1
                total += term
        return exact_quotient(total, factorial(top), "free-contact relabelings must divide the count")

    return memo(eng.store, key, compute)


def _divisor_pair(eng: Engine, z: ZProblem, key: str, markers: tuple, hyps: int) -> int:
    """Intersection of the marker sections on slots ``markers`` and
    ``hyps`` copies of the hyperplane divisor, two divisors in all.

    On a whole fiber the two divisors meet where their planes do: a
    marker's section lies on its e-plane and the hyperplane divisor on
    a hyperplane, so the fiber gains a marker on a plane of dimension
    sum(markers) + hyps*(n-1) - n, when that is not negative.  On a
    broken fiber the markers stay on the rational side, and each
    hyperplane divisor chooses one of its d0 points on H.  The terms
    share the divisor d!.
    """
    n, d = z.n, z.d

    def whole(pool):
        slot = sum(markers) + hyps * (n - 1) - n
        if slot < 0:
            return 0
        return eng.counted(Problem.make(1, n, d, _uniform(n, d), bump(pool, slot)))

    def rational(d0, i0):
        for e in markers:
            i0 = bump(i0, e)
        return Problem.make(0, n, d0, _uniform(n, d0), i0), d0**hyps

    return _pairing(eng, z, key, markers, whole, 1, rational)


# Each pairing is memoized under its family and z's base text
# (base_z_text), which expand_z formats once and hands to each as
# ``base``; called alone, a pairing formats it itself.


def sec_pair(eng: Engine, z: ZProblem, e1: int, e2: int, base: str | None = None) -> int:
    """Intersection of the two sections given by markers on slots e1, e2."""
    key = f"QQ|{base or base_z_text(z)} e={min(e1, e2)},{max(e1, e2)}"
    return _divisor_pair(eng, z, key, (e1, e2), 0)


def sec_hyp(eng: Engine, z: ZProblem, e: int, base: str | None = None) -> int:
    """Intersection of the hyperplane divisor with a marker section."""
    return _divisor_pair(eng, z, f"HQ|{base or base_z_text(z)} e={e}", (e,), 1)


def hyp_self(eng: Engine, z: ZProblem, base: str | None = None) -> int:
    """Self-intersection of the hyperplane divisor on the total space."""
    return _divisor_pair(eng, z, f"HH|{base or base_z_text(z)}", (), 2)


def hyp_minus_sec(eng: Engine, z: ZProblem, e: int, base: str | None = None) -> int:
    """Intersection of (hyperplane - section) with the same section.

    Moving the section into the hyperplane divisor turns the marker into
    a doubled contact; the broken fibers keep the marker as a contact
    point of the rational component instead of a free one.  The terms
    share the divisor (d-1)!, of which the whole fiber's d - 2 free
    contacts take (d-2)!.
    """
    n, d = z.n, z.d

    def whole(pool):
        if d < 2:
            return 0
        w = Problem.make(1, n, d, bump({(2, e): 1}, (1, n - 1), d - 2), pool)
        return eng.counted(w) * (d - 1)

    def rational(d0, i0):
        return Problem.make(0, n, d0, bump(_uniform(n, d0 - 1), (1, e)), i0), d0 - 1

    return _pairing(eng, z, f"HMQ|{base or base_z_text(z)} e={e}", (e,), whole, 2, rational)


def sec_self(eng: Engine, z: ZProblem, base: str | None = None) -> int:
    """Self-intersection of a section; the same for every section."""
    base = base or base_z_text(z)
    key = f"SS|{base}"

    def compute():
        slots = [e for e, c in z.i if c > 0 and e <= z.n - 1]
        if not slots:
            raise AssertionError(f"a one-parameter family needs a marker below the top slot: {z}")
        values = [sec_hyp(eng, z, e, base) - hyp_minus_sec(eng, z, e, base) for e in slots]
        if len(set(values)) != 1:
            raise InexactCount(f"section self-intersection differs by slot: {values}")
        return values[0]

    return memo(eng.store, key, compute)


def expand_z(eng: Engine, z: ZProblem, first_slot=None) -> int:
    dim = dim_z(z)
    if dim != 0:
        return eng.leaf(z, dim, 0, "zero-dim")
    markers = [(coeff, e) for coeff, e, _ in z.divisor]
    base = base_z_text(z)
    s2 = sec_self(eng, z, base)
    d2 = hyp_self(eng, z, base)
    for coeff, e in markers:
        d2 -= 2 * coeff * sec_hyp(eng, z, e, base)
        d2 += coeff * coeff * s2
    for (cs, es), (ct, et) in itertools.combinations(markers, 2):
        d2 += 2 * cs * ct * sec_pair(eng, z, es, et, base)
    if d2 % 2:
        raise InexactCount(f"divisor self-intersection {d2} must be even for {z}")
    return eng.leaf(z, 0, s2 - d2 // 2, "z-evaluation")
