"""A tour of the classical rational-curve numbers.

Everything here comes out of one seed, the line in P^1 through two
points. Run it and compare with the numbers you know."""

from curvecount import Engine, Problem, trace
from curvecount.engine import unmarked
from curvecount.trace import render_text

eng = Engine()


print("The seed: one line in P^1 through two points.")
seed = Problem.make(0, 1, 1, {(1, 0): 1}, {0: 2})
print(f"  {seed}  ->  {eng.count(seed)}")

print()
print("Lines in P^3 meeting four general lines:")
lines = Problem.make(0, 3, 1, {(1, 2): 1}, {1: 4})
print(f"  {lines}  ->  {eng.count(lines)}")

print()
print("Lines in P^4 meeting six general planes:")
lines4 = Problem.make(0, 4, 1, {(1, 3): 1}, {2: 6})
print(f"  {lines4}  ->  {eng.count(lines4)}")

print()
print("Conics in P^3 through 8 general lines:")
conics = Problem.make(0, 3, 2, {(1, 2): 2}, {1: 8})
print(f"  marked   {eng.count(conics)}   (the two contacts with H are labeled)")
print(f"  unmarked {unmarked(eng.count(conics), conics)}")

print()
print("Make one of those contacts a tangency instead, drop a line:")
tangent = Problem.make(0, 3, 2, {(2, 2): 1}, {1: 7})
print(f"  {tangent}  ->  {eng.count(tangent)}")

print()
print("Twisted cubics through 12 general lines:")
cubics = Problem.make(0, 3, 3, {(1, 2): 3}, {1: 12})
print(f"  marked   {eng.count(cubics)}")
print(f"  unmarked {unmarked(eng.count(cubics), cubics)}")

print()
print("Rational plane curves of degree d through 3d-1 general points:")
for d in range(1, 7):
    p = Problem.make(0, 2, d, {(1, 1): d}, {0: 3 * d - 1})
    print(f"  d={d}  {unmarked(eng.count(p), p):>10}")

print()
print("How the line count in P^2 reduces to the seed:")
print(render_text(trace(Problem.make(0, 2, 1, {(1, 1): 1}, {0: 2}))))
