"""Reference tables and their recomputation.

Each table pairs published reference counts with the problems they
answer; the runners recompute every cell from scratch and report PASS
or FAIL per row.  Three cells are known misprints: their sources print
a value that the other cells of the same table rule out.  Each table
maps such a cell's label to the value the other cells force, and the
row reports DISCREPANCY when the recomputed value is that one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Engine, unmarked
from .problems import Problem, ZProblem, parse_divisor


@dataclass
class Row:
    label: str
    printed: int
    computed: int
    status: str
    note: str = ""


# Cubic plane elliptic curves through 8 general points and i1 general
# lines, counted by divisor class: (i1, divisor, count).
# The 3*l1 cell prints 14, but the sibling rows p1+p2+l1, 2*p1+l1,
# p1+2*l1 and p1+p2+p3+p4-l1 on the same base family force 12 through
# the section-intersection identities; 14 is unreachable by any
# assignment of the six intersection numbers involved.
EZ3_MISPRINTS = {"i1=1 D=3*l1": 12}
EZ3_ROWS = (
    (0, "p1+p2+p3", 0),
    (1, "p1+p2+l1", 1),
    (2, "p1+l1+l2", 5),
    (3, "l1+l2+l3", 18),
    (0, "p1+2*p2", 1),
    (1, "2*p1+l1", 4),
    (1, "p1+2*l1", 5),
    (2, "l1+2*l2", 16),
    (0, "3*p1", 3),
    (1, "3*l1", 14),
    (0, "p1+p2+p3+p4-p5", 1),
    (1, "p1+p2+p3+p4-l1", 2),
    (1, "p1+p2+p3+l1-p4", 4),
    (2, "p1+p2+p3+l1-l2", 10),
    (2, "p1+p2+l1+l2-p3", 14),
    (3, "p1+p2+l1+l2-l3", 39),
    (3, "p1+l1+l2+l3-p2", 45),
    (4, "p1+l1+l2+l3-l4", 135),
    (4, "l1+l2+l3+l4-p1", 135),
    (5, "l1+l2+l3+l4-l5", 432),
)

# Quartic plane elliptic curves through 11 general points and i1 general
# lines, same format.
EZ4_ROWS = (
    (0, "p1+p2+p3+p4", 62),
    (1, "p1+p2+p3+l1", 464),
    (2, "p1+p2+l1+l2", 2522),
    (3, "p1+l1+l2+l3", 11960),
    (4, "l1+l2+l3+l4", 52160),
)

# Quartic elliptic space curves through j general points and 16-2j
# general lines.  The j=1 cell prints 4,436,208; all four matching
# cells of the full grid below print 4,436,268.
ESC_NUMS = (52832040, 4436208, 385656, 34674, 3220, 310, 32, 4, 1)
ESC_NUMS_MISPRINTS = {"j=1": 4436268}

# Quartic elliptic space curves, full condition grid: the curve meets
# t1 general lines and t2 general points, and crosses a fixed plane H
# at points on t3 general lines of H and at t4 general points of H.
# Counts are unmarked (free contacts with H unlabeled).
# The (8,2,2,1) cell prints 28,340, which is the value of its own
# point-degeneration main term (the (8,1,2,2) cell) with the degenerate
# correction terms left off; both the point and the line degeneration
# routes force 31,300 through neighbouring cells that do match.
ESC_FULL_MISPRINTS = {"lines=8 points=2 H-lines=2 H-points=1": 31300}
ESC_ROWS = (
    ((16, 0, 0, 0), 52832040),
    ((14, 1, 0, 0), 4436268),
    ((12, 2, 0, 0), 385656),
    ((10, 3, 0, 0), 34674),
    ((8, 4, 0, 0), 3220),
    ((6, 5, 0, 0), 310),
    ((4, 6, 0, 0), 32),
    ((2, 7, 0, 0), 4),
    ((0, 8, 0, 0), 1),
    ((15, 0, 1, 0), 52832040),
    ((13, 1, 1, 0), 4436268),
    ((11, 2, 1, 0), 385656),
    ((9, 3, 1, 0), 34674),
    ((7, 4, 1, 0), 3220),
    ((5, 5, 1, 0), 310),
    ((3, 6, 1, 0), 32),
    ((1, 7, 1, 0), 4),
    ((14, 0, 2, 0), 48395772),
    ((12, 1, 2, 0), 4050612),
    ((10, 2, 2, 0), 350982),
    ((8, 3, 2, 0), 31454),
    ((6, 4, 2, 0), 2910),
    ((4, 5, 2, 0), 278),
    ((2, 6, 2, 0), 28),
    ((0, 7, 2, 0), 3),
    ((13, 0, 3, 0), 39347736),
    ((11, 1, 3, 0), 3266100),
    ((9, 2, 3, 0), 280752),
    ((7, 3, 3, 0), 24972),
    ((5, 4, 3, 0), 2290),
    ((3, 5, 3, 0), 214),
    ((1, 6, 3, 0), 20),
    ((12, 0, 4, 0), 23962326),
    ((10, 1, 4, 0), 1939857),
    ((8, 2, 4, 0), 161735),
    ((6, 3, 4, 0), 13908),
    ((4, 4, 4, 0), 1222),
    ((2, 5, 4, 0), 104),
    ((0, 6, 4, 0), 8),
    ((14, 0, 0, 1), 4436268),
    ((12, 1, 0, 1), 385656),
    ((10, 2, 0, 1), 34674),
    ((8, 3, 0, 1), 3220),
    ((6, 4, 0, 1), 310),
    ((4, 5, 0, 1), 32),
    ((2, 6, 0, 1), 4),
    ((0, 7, 0, 1), 1),
    ((13, 0, 1, 1), 4436268),
    ((11, 1, 1, 1), 385656),
    ((9, 2, 1, 1), 34674),
    ((7, 3, 1, 1), 3220),
    ((5, 4, 1, 1), 310),
    ((3, 5, 1, 1), 32),
    ((1, 6, 1, 1), 4),
    ((12, 0, 2, 1), 4028112),
    ((10, 1, 2, 1), 349032),
    ((8, 2, 2, 1), 28340),
    ((6, 3, 2, 1), 2901),
    ((4, 4, 2, 1), 278),
    ((2, 5, 2, 1), 28),
    ((0, 6, 2, 1), 3),
    ((11, 0, 3, 1), 2849436),
    ((9, 1, 3, 1), 243507),
    ((7, 2, 3, 1), 21310),
    ((5, 3, 3, 1), 1909),
    ((3, 4, 3, 1), 172),
    ((1, 5, 3, 1), 14),
    ((12, 0, 0, 2), 385656),
    ((10, 1, 0, 2), 34674),
    ((8, 2, 0, 2), 3220),
    ((6, 3, 0, 2), 310),
    ((4, 4, 0, 2), 32),
    ((2, 5, 0, 2), 4),
    ((0, 6, 0, 2), 1),
    ((11, 0, 1, 2), 384156),
    ((9, 1, 1, 2), 34524),
    ((7, 2, 1, 2), 3206),
    ((5, 3, 1, 2), 309),
    ((3, 4, 1, 2), 32),
    ((1, 5, 1, 2), 4),
    ((10, 0, 2, 2), 312348),
    ((8, 1, 2, 2), 28340),
    ((6, 2, 2, 2), 2612),
    ((4, 3, 2, 2), 246),
    ((2, 4, 2, 2), 24),
    ((0, 5, 2, 2), 2),
    ((10, 0, 0, 3), 34674),
    ((8, 1, 0, 3), 3220),
    ((6, 2, 0, 3), 310),
    ((4, 3, 0, 3), 32),
    ((2, 4, 0, 3), 4),
    ((0, 5, 0, 3), 1),
    ((9, 0, 1, 3), 31056),
    ((7, 1, 1, 3), 3052),
    ((5, 2, 1, 3), 304),
    ((3, 3, 1, 3), 32),
    ((1, 4, 1, 3), 4),
    ((8, 0, 0, 4), 2519),
    ((6, 1, 0, 4), 277),
    ((4, 2, 0, 4), 31),
    ((2, 3, 0, 4), 4),
    ((0, 4, 0, 4), 1),
)

# Rational curves in P^3 through 4d general lines, unmarked.
P3_RATIONAL_ROWS = ((1, 4, 2), (2, 8, 92), (3, 12, 80160))

# Elliptic cubics in P^3 through j general points and the listed number
# of general lines, unmarked: plain, tangent to a fixed plane, and with
# a triple contact point.
P3_ELLIPTIC_SERIES = (
    ("plain", {(1, 2): 3}, 12, (1500, 150, 14, 1)),
    ("tangent", {(2, 2): 1, (1, 2): 1}, 11, (4740, 498, 50, 4)),
    ("triple", {(3, 2): 1}, 10, (2790, 306, 33, 3)),
)


def esc_problem(t1: int, t2: int, t3: int, t4: int) -> Problem:
    h = {(1, 2): 4 - t3 - t4, (1, 1): t3, (1, 0): t4}
    return Problem.make(1, 3, 4, h, {1: t1, 0: t2})


def _rows(eng: Engine, cells, misprints=None, why=""):
    """The row of each (label, problem, printed) cell: PASS when the
    recomputed count is the printed one, DISCREPANCY when the label is
    a known misprint in ``misprints`` and the count is the value it
    maps to (``why`` says what forces it), FAIL otherwise."""
    rows = []
    for label, p, printed in cells:
        computed = eng.count(p) if isinstance(p, ZProblem) else unmarked(eng.count(p), p)
        status, note = "FAIL", ""
        if computed == printed:
            status = "PASS"
        elif computed == (misprints or {}).get(label):
            status, note = "DISCREPANCY", f"printed {printed}; " + why.format(computed)
        rows.append(Row(label, printed, computed, status, note))
    return rows


def _z_cells(data, i0: int, d: int):
    for i1, text, printed in data:
        yield f"i1={i1} D={text}", ZProblem.make(2, d, {0: i0, 1: i1}, parse_divisor(text)), printed


def run_ez3(eng: Engine):
    return _rows(eng, _z_cells(EZ3_ROWS, 8, 3), EZ3_MISPRINTS, "sibling rows of the table force {}")


def run_ez4(eng: Engine):
    return _rows(eng, _z_cells(EZ4_ROWS, 11, 4))


def run_esc_nums(eng: Engine):
    cells = (
        (f"j={j}", Problem.make(1, 3, 4, {(1, 2): 4}, {0: j, 1: 16 - 2 * j}), printed)
        for j, printed in enumerate(ESC_NUMS)
    )
    return _rows(eng, cells, ESC_NUMS_MISPRINTS, "the full grid prints {} in all matching rows")


def run_esc_full(eng: Engine):
    cells = (
        (f"lines={t1} points={t2} H-lines={t3} H-points={t4}", esc_problem(t1, t2, t3, t4), printed)
        for (t1, t2, t3, t4), printed in ESC_ROWS
    )
    return _rows(eng, cells, ESC_FULL_MISPRINTS, "both degeneration routes force {}")


def run_p3_rational(eng: Engine):
    cells = (
        (f"d={d} lines={lines}", Problem.make(0, 3, d, {(1, 2): d}, {1: lines}), printed)
        for d, lines, printed in P3_RATIONAL_ROWS
    )
    return _rows(eng, cells)


def run_p3_elliptic(eng: Engine):
    cells = (
        (
            f"{name} points={j} lines={lines0 - 2 * j}",
            Problem.make(1, 3, 3, h, {0: j, 1: lines0 - 2 * j}),
            printed,
        )
        for name, h, lines0, printeds in P3_ELLIPTIC_SERIES
        for j, printed in enumerate(printeds)
    )
    return _rows(eng, cells)


TABLES = {
    "ez3": run_ez3,
    "ez4": run_ez4,
    "eqesc-nums": run_esc_nums,
    "eqesc-full": run_esc_full,
    "p3-rational": run_p3_rational,
    "p3-elliptic-cubics": run_p3_elliptic,
}


def table_rows(name: str, engine: Engine | None = None):
    return TABLES[name](engine or Engine())
