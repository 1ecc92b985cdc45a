"""Divisor-class counts on a one-parameter family of elliptic curves.

With the incidence conditions leaving exactly one degree of freedom,
the curves through them sweep out an elliptic surface fibered over the
parameter curve.  Each incidence marker gives a section of that
fibration, and the hyperplane class gives a further divisor on the
total space.  Counting the members whose hyperplane class equals a
fixed combination D of the marker sections reduces to intersection
numbers on the surface: the count is Q^2 - D'^2/2 where Q is any
section, D' = H - sum(c_s Q_s).  A pairing depends on the family, the
base (n d i), and on the slots of its sections alone, so expand_z
reads D only through each slot's sum of coefficients and sum of their
squares, and reads the pairings from one table entry per base
(Engine.pairings).  The pairings H^2, H.Q, Q.Q of distinct sections
and (H-Q).Q, whence Q^2 = H.Q - (H-Q).Q, are each evaluated by
degenerating the family in one body, ``_pairing``: a whole-fiber term
plus a sum over fibers broken into a rational and an elliptic curve,
the elliptic side read off the sub-vectors of the incidence pool whose
weight an elliptic curve can take (partitions.subvectors with a weight
window).  Every term is a product of rational and elliptic counts of
lower degree, divided by the relabelings of free contacts; the terms
are summed as integer numerators over one factorial and divided once.
The pairings share the counts of their broken fibers' sides
(Engine.fibers).
"""

from __future__ import annotations

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
    sub-vector i1 of the pool.  ``rational(d0, pool, i1)`` returns the
    rational side's count, on the rest of the pool, and its scale, the
    choices the divisor makes on it.  The elliptic side's problem
    depends on n and i1 alone, so its count is kept in eng.fibers[n]
    under i1 (see Engine).  Over P^2 the two components meet in d0*d1
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
        fibers = eng.fibers[n]
        # incidence weight, as partitions.pool_rows weighs it
        i_rows = subvectors(pool, lambda e: n - 1 - e, (3 * (n + 1), (d - d0_min) * (n + 1)))
        for d1 in range(3, d - d0_min + 1):
            for i1, ways, weight in i_rows:
                if weight != (n + 1) * d1:
                    continue
                d0 = d - d1
                vx, scale = rational(d0, pool, i1)
                if vx == 0:
                    continue
                vw = fibers.get(i1)
                if vw is None:
                    # i1, a sub-vector row, is sorted and positive: canonical
                    vw = fibers[i1] = eng.counted(Problem(1, n, d1, ((1, n - 1, d1),), i1))
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
    hyperplane divisor chooses one of its d0 points on H.  So the
    rational side takes the family's incidence markers less i1, and
    every pairing of this kind on the family shares its count, kept in
    eng.fibers[n] under (d0, z.i, i1).  The terms share the divisor d!.
    """
    n, d = z.n, z.d
    fibers = eng.fibers[n]

    def whole(pool):
        slot = sum(markers) + hyps * (n - 1) - n
        if slot < 0:
            return 0
        return eng.counted(Problem.make(1, n, d, _uniform(n, d), bump(pool, slot)))

    def rational(d0, pool, i1):
        side = (d0, z.i, i1)
        vx = fibers.get(side)
        if vx is None:
            i0 = rest(pool, i1)
            for e in markers:
                i0 = bump(i0, e)
            vx = fibers[side] = eng.counted(Problem.make(0, n, d0, _uniform(n, d0), i0))
        return vx, d0**hyps

    return _pairing(eng, z, key, markers, whole, 1, rational)


# Each pairing is memoized under its family and z's base text
# (base_z_text), which expand_z formats once per base and hands to each
# as ``base``.


def sec_pair(eng: Engine, z: ZProblem, e1: int, e2: int, base: str) -> int:
    """Intersection of the two sections given by markers on slots e1, e2."""
    key = f"QQ|{base} e={min(e1, e2)},{max(e1, e2)}"
    return _divisor_pair(eng, z, key, (e1, e2), 0)


def sec_hyp(eng: Engine, z: ZProblem, e: int, base: str) -> int:
    """Intersection of the hyperplane divisor with a marker section."""
    return _divisor_pair(eng, z, f"HQ|{base} e={e}", (e,), 1)


def hyp_self(eng: Engine, z: ZProblem, base: str) -> int:
    """Self-intersection of the hyperplane divisor on the total space."""
    return _divisor_pair(eng, z, f"HH|{base}", (), 2)


def hyp_minus_sec(eng: Engine, z: ZProblem, e: int, base: str) -> int:
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

    def rational(d0, pool, i1):
        x = Problem.make(0, n, d0, bump(_uniform(n, d0 - 1), (1, e)), rest(pool, i1))
        return eng.counted(x), d0 - 1

    return _pairing(eng, z, f"HMQ|{base} e={e}", (e,), whole, 2, rational)


def sec_self(eng: Engine, z: ZProblem, base: str) -> int:
    """Self-intersection of a section; the same for every section."""
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
    """The count of a divisor-class problem, Q^2 - D'^2/2.

    With S_e the sum of the divisor's coefficients on slot e and Q_e the
    sum of their squares, and SS, HH, HQ(e), QQ(e, e') the pairings of
    its base (n d i),

      D'^2 = HH + SS*sum(Q_e) - 2*sum(S_e*HQ(e))
             + 2*sum_{e<e'} S_e*S_e'*QQ(e, e') + sum(S_e^2 - Q_e)*QQ(e, e),

    which must be even.  So the count,

      SS*(1 - sum(Q_e)/2) - HH/2 + sum(S_e*HQ(e))
        - sum_{e<e'} S_e*S_e'*QQ(e, e') - sum((S_e^2 - Q_e)/2*QQ(e, e)),

    reads the divisor only through S_e and Q_e.  A pairing is read
    only under a nonzero coefficient, from eng.pairings (see Engine),
    whose entry for the base is filled once through the memoized
    pairings.  genus0.count_y calls this directly for an elliptic
    component in H, so that factor leaves no Z record; counted reaches
    it for every other divisor-class problem.
    """
    key = (z.n, z.d, z.i)
    entry = eng.pairings.get(key)
    if entry is None:
        base, dim = base_z_text(z), dim_z(z)
        s2 = h2 = None
        if dim == 0:
            s2, h2 = sec_self(eng, z, base), hyp_self(eng, z, base)
        entry = eng.pairings[key] = (base, dim, s2, h2, {}, {})
    base, dim, s2, d2, hq, qq = entry  # d2 sums D'^2 from HH
    if dim != 0:
        return eng.leaf(z, dim, 0, "zero-dim")
    sums = {}
    for coeff, e, _ in z.divisor:
        s, q = sums.get(e, (0, 0))
        sums[e] = (s + coeff, q + coeff * coeff)
    slots = list(sums.items())
    for a, (e, (s, q)) in enumerate(slots):
        d2 += q * s2
        if s:
            value = hq.get(e)
            if value is None:
                value = hq[e] = sec_hyp(eng, z, e, base)
            d2 -= 2 * s * value
        # the divisor is sorted, so e < e2 past the diagonal
        for e2, (t, _) in slots[a:]:
            coeff = s * s - q if e2 == e else 2 * s * t
            if coeff:
                value = qq.get((e, e2))
                if value is None:
                    value = qq[e, e2] = sec_pair(eng, z, e, e2, base)
                d2 += coeff * value
    if d2 % 2:
        raise InexactCount(f"divisor self-intersection {d2} must be even for {z}")
    return eng.leaf(z, 0, s2 - d2 // 2, "z-evaluation")
