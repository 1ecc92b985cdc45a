"""Refining an elliptic count by the divisor class of the hyperplane
section.

Fix plane quartics through 11 general points. That is one condition
short of a finite count, so the curves sweep out a one-parameter
family: an elliptic surface over the parameter line. Each of the 11
point conditions marks a section of that surface, and asking for the
members whose hyperplane class is a chosen sum of marker sections is a
finite count again. The count is S^2 - D'^2/2 where S is any section
and D' is the hyperplane class minus the chosen combination, so it all
comes down to five intersection numbers on the surface."""

from fractions import Fraction

from curvecount import Engine, ZProblem, parse_divisor
from curvecount.fibration import hyp_minus_sec, hyp_self, sec_hyp, sec_pair, sec_self
from curvecount.problems import base_z_text

eng = Engine()

base = ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4"))
# each intersection number is memoized under the family's text
family = base_z_text(base)
qq = sec_pair(eng, base, 0, 0, family)
hq = sec_hyp(eng, base, 0, family)
hh = hyp_self(eng, base, family)
hmq = hyp_minus_sec(eng, base, 0, family)
ss = sec_self(eng, base, family)

print("Quartics through 11 points, divisor p1+p2+p3+p4:")
print(f"  two distinct sections meet in   Q.Q'      = {qq}")
print(f"  hyperplane against a section    H.Q       = {hq}")
print(f"  hyperplane self-intersection    H.H       = {hh}")
print(f"  (H - Q) against the same Q      (H-Q).Q   = {hmq}")
print(f"  section self-intersection       S^2       = {ss}   (= H.Q - (H-Q).Q)")

d2 = hh - 2 * 4 * hq + 4 * ss + 2 * 6 * qq
print(f"  D' = H - (Q1+Q2+Q3+Q4)          D'^2      = {d2}")
print(f"  count = S^2 - D'^2/2                      = {ss - d2 // 2}")
print(f"  engine agrees: {eng.count(base)}")

print()
print("Cubics through 8 points and 1 line, all divisor classes using")
print("two point markers and the line marker:")
for text in ("p1+p2+l1", "2*p1+l1", "p1+2*l1", "3*l1", "p1+p2+p3+p4-l1"):
    z = ZProblem.make(2, 3, {0: 8, 1: 1}, parse_divisor(text))
    print(f"  {text:<16} -> {eng.count(z)}")

print()
print("The 3*l1 value is forced by the others: writing each count as")
print("(2*S^2 - D'^2)/2, the linear form for 3*l1 equals")
print("  -2*(form of p1+p2+l1) + 8/3*(form of p1+2*l1) + 1/3*(form of p1+p2+p3+p4-l1)")
forced = (Fraction(-2) * 2 + Fraction(8, 3) * 10 + Fraction(1, 3) * 4) / 2
print(f"  = (-2*2 + 8/3*10 + 1/3*4) / 2 = {forced}")

print()
print("Quartic pencils, mixing lines into the divisor:")
for i1, text in ((0, "p1+p2+p3+p4"), (1, "p1+p2+p3+l1"), (2, "p1+p2+l1+l2"),
                 (3, "p1+l1+l2+l3"), (4, "l1+l2+l3+l4")):
    i = {0: 11}
    if i1:
        i[1] = i1
    z = ZProblem.make(2, 4, i, parse_divisor(text))
    print(f"  {text:<16} -> {eng.count(z):>6}")
