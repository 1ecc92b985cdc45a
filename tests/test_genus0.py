"""Rational curve counts against classical values and two independent
oracles: the plane-curve associativity recursion and the Pieri rule for
lines.  Expected numbers are frozen here, not recomputed from the
engine."""

import math
import sys
from collections import Counter

import pytest

from curvecount import Engine, Problem, UnsupportedProblem, genus0
from curvecount.genus0 import count_y
from curvecount.genus1 import _split_off_part
from curvecount.partitions import pool_rows, tail_table, type2_partitions
from oracles import kontsevich_numbers, lines_meeting

# degree: curves through 3d-1 general plane points
PLANE_COUNTS = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}


def _plane_points(eng, d):
    p = Problem.make(0, 2, d, {(1, 1): d}, {0: 3 * d - 1})
    marked = eng.count(p)
    assert marked % math.factorial(d) == 0
    return marked // math.factorial(d)


def test_oracle_reproduces_frozen_plane_counts():
    assert kontsevich_numbers(6) == PLANE_COUNTS


def test_plane_counts_match_oracle():
    eng = Engine()
    for d in range(1, 7):
        assert _plane_points(eng, d) == PLANE_COUNTS[d]


def test_seed_line_through_two_points():
    eng = Engine()
    assert eng.count(Problem.make(0, 1, 1, {(1, 0): 1}, {0: 2})) == 1


def test_lines_against_pieri_oracle():
    eng = Engine()
    cases = [
        (3, (1, 1, 1, 1)),
        (3, (0, 1, 1)),
        (3, (0, 0)),
        (4, (2, 2, 2, 2, 2, 2)),
        (4, (1, 2, 2, 2)),
        (4, (0, 2, 2)),
        (5, (3, 3, 3, 3, 3, 3, 3, 3)),
    ]
    for n, dims in cases:
        i = {}
        for f in dims:
            i[f] = i.get(f, 0) + 1
        p = Problem.make(0, n, 1, {(1, n - 1): 1}, i)
        assert eng.count(p) == lines_meeting(n, dims)


def test_four_lines_in_space():
    assert Engine().count(Problem.make(0, 3, 1, {(1, 2): 1}, {1: 4})) == 2


def test_conics_through_eight_lines():
    eng = Engine()
    marked = eng.count(Problem.make(0, 3, 2, {(1, 2): 2}, {1: 8}))
    assert marked == 184
    assert marked // 2 == 92


def test_conics_tangent_to_the_hyperplane():
    eng = Engine()
    assert eng.count(Problem.make(0, 3, 2, {(2, 2): 1}, {1: 7})) == 116


def test_twisted_cubics_through_twelve_lines():
    eng = Engine()
    marked = eng.count(Problem.make(0, 3, 3, {(1, 2): 3}, {1: 12}))
    assert marked == 480960
    assert marked // 6 == 80160


def test_positive_dimension_counts_as_zero():
    eng = Engine()
    assert eng.count(Problem.make(0, 3, 2, {(1, 2): 2}, {1: 7})) == 0
    assert eng.count(Problem.make(0, 2, 2, {(1, 1): 2}, {0: 4})) == 0


def test_overdetermined_is_zero_too():
    eng = Engine()
    assert eng.count(Problem.make(0, 3, 2, {(1, 2): 2}, {1: 9})) == 0


def test_divisor_axiom_scaling():
    eng = Engine()
    for base, d in [
        (Problem.make(0, 2, 3, {(1, 1): 3}, {0: 8}), 3),
        (Problem.make(0, 3, 2, {(1, 2): 2}, {1: 8}), 2),
    ]:
        lifted = Problem.make(0, base.n, d, base.h_map(), _plus_free_plane(base))
        assert eng.count(lifted) == d * eng.count(base)


def _plus_free_plane(p):
    i = dict(p.i)
    i[p.n - 1] = i.get(p.n - 1, 0) + 1
    return i


def test_divisor_axiom_flag_equivalence():
    on = Engine(divisor_axiom=True)
    off = Engine(divisor_axiom=False)
    for p in [
        Problem.make(0, 2, 2, {(1, 1): 2}, {0: 5, 1: 1}),
        Problem.make(0, 3, 2, {(1, 2): 2}, {1: 8, 2: 2}),
    ]:
        assert on.count(p) == off.count(p)


def test_part_zero_rejects_ambient_points():
    # a component inside the hyperplane cannot pass through a general
    # ambient point, so the type II enumerators hand every point marker
    # to the components off H and count_y never sees one
    h, i = {(1, 2): 4}, {0: 3, 1: 4}
    rows = pool_rows(3, h, i)
    table = tail_table(3, 3, rows)
    shapes = [i0 for *_, i0 in type2_partitions(4, h, i, table, 2)]
    table = tail_table(3, 1, rows)
    shapes += [i0 for *_, i0 in _split_off_part(3, 4, h, i, rows, 2, (1, 0, 2), 1, table)]
    assert len(shapes) > 10
    assert [i0 for i0 in shapes if i0.get(0, 0)] == []
    with pytest.raises(AssertionError, match="point markers left"):
        count_y(Engine(), 3, 1, {}, {0: 1}, ())


def test_count_y_keys_a_component_in_h_by_its_degree_and_markers():
    # An expansion's shapes meet a component in H only at the one degree
    # its markers make zero-dimensional, but count_y keys it by both:
    # conics in H through 5 points count 1 after their 2! relabelings,
    # while a line or a cubic through them counts 0.
    eng = Engine()
    for d0, value in ((2, 1), (1, 0), (3, 0)):
        assert count_y(eng, 3, d0, {}, {1: 5}, ())[0] == value
    assert len(eng.pinned[3]) == 3


def test_count_y_keys_a_tail_by_its_whole_record():
    # A record's freedom delta follows from its other fields, so no
    # expansion meets two that differ in delta alone; count_y keys by
    # the whole record all the same.  A line through 3 lines pinned on
    # a line of H counts 2; pinned on H alone it still moves, and counts 0.
    eng = Engine()
    assert count_y(eng, 3, 1, {}, {1: 2}, ((1, (), ((1, 3),), 1, 1),))[0] == 2
    assert count_y(eng, 3, 1, {}, {1: 1}, ((1, (), ((1, 3),), 1, 0),))[0] == 0


def test_order_choice_does_not_change_counts():
    maxe = Engine(order="max-e")
    mine = Engine(order="min-e")
    for p in [
        Problem.make(0, 3, 2, {(1, 2): 2}, {1: 6, 0: 1}),
        Problem.make(0, 2, 3, {(1, 1): 3}, {0: 8}),
        Problem.make(0, 3, 3, {(1, 2): 3}, {1: 10, 0: 1}),
    ]:
        assert maxe.count(p) == mine.count(p)


def test_genus_two_is_rejected():
    import pytest

    from curvecount import InvalidProblem

    with pytest.raises(InvalidProblem):
        Engine().count(Problem.make(2, 3, 2, {(1, 2): 2}, {1: 8}))


def test_large_ambient_genus_zero_works():
    # rational normal quartic conditions in P^4 stay exact
    eng = Engine()
    assert eng.count(Problem.make(0, 4, 1, {(1, 3): 1}, {2: 6})) == 5


def test_unsupported_only_for_genus_one():
    import pytest

    eng = Engine()
    with pytest.raises(UnsupportedProblem):
        eng.count(Problem.make(1, 4, 2, {(1, 3): 2}, {2: 10}))


def test_a_recursion_level_is_three_frames():
    # Engine.counted calls the expander, and the expander's settle,
    # specialize or count_y calls Engine.counted: every nested expand_x
    # sits three frames below the one that needs it.  sys.setprofile
    # adds no frame of its own.
    expand, counted = genus0.expand_x.__code__, Engine.counted.__code__
    between = {f.__code__ for f in (genus0.settle, genus0.specialize, genus0.count_y)}
    chains = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is expand:
            via = frame.f_back
            caller = via.f_back
            if caller.f_code is Engine.count.__code__:
                chains["root" if via.f_code is counted else "root outside counted"] += 1
            else:
                chain = (via.f_code is counted, caller.f_code in between, caller.f_back.f_code is expand)
                chains[caller.f_code.co_name if chain == (True, True, True) else chain] += 1

    p = Problem.make(0, 3, 5, {(1, 2): 5}, {1: 20})
    sys.setprofile(profile)
    try:
        value = Engine().count(p)
    finally:
        sys.setprofile(None)
    assert value == 6089786376960 * 120
    assert chains["root"] == 1
    assert set(chains) == {"root", "settle", "specialize", "count_y"}, chains


@pytest.mark.parametrize(
    "p, walks, shapes",
    [
        (Problem.make(0, 3, 5, {(1, 2): 5}, {1: 20}), 140, 1215),
        (Problem.make(0, 2, 7, {(1, 1): 7}, {0: 20}), 118, 601),
    ],
)
def test_type2_work_counts(monkeypatch, p, walks, shapes):
    # The type II walks a count starts and the shapes they yield: a cut
    # that drops a shape, or lets a dead one through, moves the numbers.
    real = genus0.type2_partitions
    seen = [0, 0]

    def walk(*args):
        seen[0] += 1
        for shape in real(*args):
            seen[1] += 1
            yield shape

    monkeypatch.setattr(genus0, "type2_partitions", walk)
    Engine().count(p)
    assert seen == [walks, shapes]
