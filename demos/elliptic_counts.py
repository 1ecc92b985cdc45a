"""Elliptic curve counts in the plane and in space.

The elliptic recursion rides on the rational one: degenerating an
incidence condition into the fixed hyperplane H breaks an elliptic
curve into pieces at most one of which stays elliptic, and the engine
assembles the weighted sum exactly as in genus 0, plus the three
broken-fiber variants specific to genus 1."""

from curvecount import Engine, Problem, UnsupportedProblem
from curvecount.engine import unmarked

eng = Engine()


print("Plane cubics through 9 general points (the pencil has one member")
print("through a ninth point):")
p = Problem.make(1, 2, 3, {(1, 1): 3}, {0: 9})
print(f"  {p}  ->  {unmarked(eng.count(p), p)}")

print()
print("Plane quartics of genus 1 through 12 general points:")
p = Problem.make(1, 2, 4, {(1, 1): 4}, {0: 12})
print(f"  {p}  ->  {unmarked(eng.count(p), p)}")

print()
print("Elliptic cubics in P^3 through j points and 12-2j lines,")
print("then the same with a tangency to H, then with a triple contact:")
series = (
    ("plain      ", {(1, 2): 3}, 12),
    ("tangent    ", {(2, 2): 1, (1, 2): 1}, 11),
    ("triple     ", {(3, 2): 1}, 10),
)
for name, h, lines0 in series:
    row = []
    for j in range(4):
        i = {1: lines0 - 2 * j}
        if j:
            i[0] = j
        p = Problem.make(1, 3, 3, h, i)
        row.append(unmarked(eng.count(p), p))
    print(f"  {name}{row}")

print()
print("Elliptic quartics in P^3 through j points and 16-2j lines:")
for j in range(9):
    p = Problem.make(1, 3, 4, {(1, 2): 4}, {0: j, 1: 16 - 2 * j})
    print(f"  j={j}  {unmarked(eng.count(p), p):>10}")

print()
print("Ambient spaces beyond P^3 are declined, not mis-counted:")
try:
    eng.count(Problem.make(1, 4, 3, {(1, 3): 3}, {2: 15}))
except UnsupportedProblem as exc:
    print(f"  UnsupportedProblem: {exc}")
