"""Problem grammar, validation and dimension formulas."""

import dataclasses
import pickle

import pytest

from curvecount import (
    InvalidProblem,
    Problem,
    ZProblem,
    dim_w,
    dim_x,
    dim_z,
    dimension,
    format_divisor,
    format_problem,
    parse_divisor,
    parse_problem,
    unmarked_factor,
    validate,
    validate_z,
)


def test_format_parse_round_trip():
    p = Problem.make(0, 3, 3, {(1, 2): 2, (1, 0): 1}, {1: 12})
    text = format_problem(p)
    assert text == "g=0 n=3 d=3 h=1,0:1;1,2:2 i=1:12"
    assert parse_problem(text) == p


def test_parse_canonicalizes_and_is_idempotent():
    text = "g=1 n=3 d=4 h=1,2:4 i=1:16"
    p = parse_problem(text)
    assert format_problem(p) == text
    assert parse_problem(format_problem(p)) == p


def test_empty_vectors_format_as_dash():
    p = Problem.make(0, 1, 1, {(1, 0): 1}, {0: 2})
    assert "h=1,0:1" in format_problem(p)
    q = Problem.make(0, 2, 1, {(1, 1): 1}, {})
    assert format_problem(q).endswith("i=-")
    assert parse_problem(format_problem(q)) == q
    assert parse_problem("g=0 n=2 d=1 h=1,1:1 i= -") == q


def test_totality_is_enforced():
    with pytest.raises(InvalidProblem):
        validate(Problem.make(0, 2, 2, {(1, 1): 1}, {0: 4}))
    with pytest.raises(InvalidProblem):
        validate(Problem.make(0, 2, 2, {(1, 1): 3}, {0: 4}))
    validate(Problem.make(0, 2, 2, {(1, 1): 2}, {0: 5}))


def test_validate_rejects_bad_ranges():
    with pytest.raises(InvalidProblem):
        validate(Problem.make(2, 2, 1, {(1, 1): 1}, {}))
    with pytest.raises(InvalidProblem):
        validate(Problem.make(0, 0, 1, {(1, 0): 1}, {}))
    with pytest.raises(InvalidProblem):
        validate(Problem.make(0, 2, 0, {}, {}))
    # contact plane must sit inside the hyperplane: e <= n-1
    with pytest.raises(InvalidProblem):
        validate(Problem.make(0, 2, 1, {(1, 2): 1}, {}))
    # incidence plane lives in the ambient space: e <= n
    with pytest.raises(InvalidProblem):
        validate(Problem.make(0, 2, 1, {(1, 1): 1}, {3: 1}))
    with pytest.raises(InvalidProblem):
        validate(Problem.make(0, 2, 1, {(0, 1): 1}, {}))


@pytest.mark.parametrize(
    "text, message",
    [
        ("g=0 n=2 d=1 h=1,1:1 i=- 3", "expected key=value"),
        ("g=0 g=0 n=2 d=1 h=1,1:1 i=-", "duplicate field 'g'"),
        ("g=0 n=2 d=1 h=1,1:1", "missing fields: i"),
        ("g=0 n=2 d=1 h=1,1:1 i=- x=1", "unknown fields: x"),
        ("g=0 n=two d=1 h=1,1:1 i=-", "non-integer numeric field"),
        ("g=0 n=2 d=1 h=1:1 i=-", "bad tangency entry '1:1'"),
        ("g=0 n=2 d=1 h=1,1:1 i=0-1", "bad incidence entry '0-1'"),
        ("g=0 n=2 d=2 h=1,1:2 i=0:-1", "negative incidence count"),
        ("g=0 n=2 d=1 h=1,1:2;1,0:-1 i=-", "negative tangency count"),
    ],
)
def test_parse_problem_rejects_malformed_text(text, message):
    with pytest.raises(InvalidProblem, match=message):
        parse_problem(text)



@pytest.mark.parametrize(
    "make",
    [
        lambda: Problem.make(0, 2.5, 3, {(1, 1): 3}, {0: 8}),
        lambda: Problem.make(0, 2, 3.9, {(1, 1): 3}, {0: 8.7}),
        lambda: Problem.make(1.0, 2, 3, {(1, 1): 3}, {0: 9}),
        lambda: Problem.make(0, 2, 3, {(1, 1.5): 3}, {0: 8}),
        lambda: Problem.make(0, 2, 3, [((1, 1), 3.0)], {0: 8}),
        lambda: Problem.make(0, 2, 3, {(1, 1): 3}, [(0.0, 8)]),
        lambda: ZProblem.make(2, 3, {0: 8}, [(1.5, 0, 1), (1.5, 0, 2), (1, 0, 3)]),
        lambda: ZProblem.make(2, 3, {0: 8}, [(1, 0, 1), (1, 0, 2), (1, 0, 2.5)]),
        lambda: ZProblem.make(2, 3.0, {0: 8}, [(3, 0, 1)]),
        lambda: ZProblem.make(2, 3, {0: 7.5}, [(3, 0, 1)]),
    ],
    ids=["n", "d and incidence", "genus", "tangency plane", "tangency count", "incidence slot",
         "divisor coefficient", "divisor index", "divisor degree", "divisor incidence"],
)
def test_make_rejects_numbers_that_are_not_integers(make):
    # int() would truncate each of these into some other problem
    with pytest.raises(InvalidProblem, match="must be integers"):
        make()


def test_dimension_formulas():
    # lines in P^3: dim 4, each line condition costs 1
    p = Problem.make(0, 3, 1, {(1, 2): 1}, {1: 4})
    assert dim_x(p) == 0
    # conics through 8 lines
    assert dim_x(Problem.make(0, 3, 2, {(1, 2): 2}, {1: 8})) == 0
    # plane rational cubics through 8 points
    assert dim_x(Problem.make(0, 2, 3, {(1, 1): 3}, {0: 8})) == 0
    # a tangency costs one more than a plain contact
    free = Problem.make(0, 3, 2, {(1, 2): 2}, {1: 7})
    tangent = Problem.make(0, 3, 2, {(2, 2): 1}, {1: 7})
    assert dim_x(free) == dim_x(tangent) + 1
    # elliptic curves have the genus correction removed
    w = Problem.make(1, 3, 4, {(1, 2): 4}, {1: 16})
    assert dim_w(w) == 0
    assert dimension(w) == 0
    assert dim_w(Problem.make(1, 2, 3, {(1, 1): 3}, {0: 9})) == 0


def test_dim_z_matches_one_parameter_family():
    z3 = ZProblem.make(2, 3, {0: 8}, parse_divisor("p1+p2+p3"))
    z4 = ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4"))
    assert dim_z(z3) == 0
    assert dim_z(z4) == 0
    assert dim_z(ZProblem.make(2, 3, {0: 7}, parse_divisor("3*p1"))) == 1


def test_divisor_parse_and_format():
    d = parse_divisor("p1+p2+2*l1-p3")
    assert format_divisor(d) == "p1+p2-p3+2*l1"
    assert parse_divisor(format_divisor(d)) == d
    assert parse_divisor("") == ()
    assert parse_divisor("0") == ()
    assert format_divisor(()) == "0"


def test_divisor_merges_repeated_markers():
    assert parse_divisor("l1+l1+l1") == parse_divisor("3*l1")
    assert parse_divisor("p1-p1") == ()


def test_make_and_parse_merge_a_divisor_alike():
    # one merge: coefficients summed per marker, zero sums dropped,
    # sorted by (e, k)
    assert parse_divisor("p1+p2-p1") == ((1, 0, 2),)
    for text, terms in [
        ("p1+p2-p1", [(1, 0, 1), (1, 0, 2), (-1, 0, 1)]),
        ("2*l1+q2.1-l1+p3-p3", [(2, 1, 1), (1, 2, 1), (-1, 1, 1), (1, 0, 3), (-1, 0, 3)]),
        ("l2+p4+l2", [(1, 1, 2), (1, 0, 4), (1, 1, 2)]),
    ]:
        assert ZProblem.make(2, 3, {0: 8}, terms).divisor == parse_divisor(text)
    assert parse_divisor("2*l1+q2.1-l1+p3-p3") == ((1, 1, 1), (1, 2, 1))


def test_validate_z_checks_marker_indices_and_degree():
    i = {0: 8, 1: 1}
    validate_z(ZProblem.make(2, 3, i, parse_divisor("p1+p2+l1")))
    with pytest.raises(InvalidProblem):
        validate_z(ZProblem.make(2, 3, i, parse_divisor("p1+p2+l2")))
    with pytest.raises(InvalidProblem):
        validate_z(ZProblem.make(2, 3, i, parse_divisor("p1+p2+p3+l1-p9")))
    # coefficients must sum to the degree
    with pytest.raises(InvalidProblem):
        validate_z(ZProblem.make(2, 3, i, parse_divisor("p1+p2")))


def test_bad_divisor_text_is_rejected():
    with pytest.raises(InvalidProblem):
        parse_divisor("p1+q2")
    with pytest.raises(InvalidProblem):
        parse_divisor("p1++p2")
    with pytest.raises(InvalidProblem):
        parse_divisor("2*")
    with pytest.raises(InvalidProblem):
        parse_divisor("x1")


def test_unmarked_factor_counts_free_contacts_only():
    assert unmarked_factor(Problem.make(0, 3, 3, {(1, 2): 3}, {1: 12})) == 6
    assert unmarked_factor(Problem.make(0, 3, 2, {(2, 2): 1, (1, 2): 1}, {1: 7})) == 1
    assert unmarked_factor(Problem.make(1, 2, 4, {(1, 1): 4}, {0: 12})) == 24
    # markers pinned to proper subspaces of H reference distinct spaces
    assert unmarked_factor(Problem.make(1, 3, 4, {(1, 2): 2, (1, 1): 2}, {1: 10, 0: 2})) == 2


# Each problem type with a builder, its fields, and a change of fields
# that gives another problem of that type.
KEPT_TEXT_CASES = [
    (
        lambda: Problem.make(1, 3, 4, {(1, 2): 2, (1, 1): 2}, {1: 10, 0: 2}),
        ["genus", "n", "d", "h", "i"],
        {"d": 5, "i": ((0, 2), (1, 14))},
    ),
    (
        lambda: ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4")),
        ["n", "d", "i", "divisor"],
        {"divisor": parse_divisor("2*p1+p2+p3")},
    ),
]


@pytest.mark.parametrize("keyed", [False, True], ids=["fresh", "keyed"])
@pytest.mark.parametrize("build, names, change", KEPT_TEXT_CASES, ids=["Problem", "ZProblem"])
def test_kept_text_is_invisible(build, names, change, keyed):
    # key() keeps the formatted text on the instance; nothing else may
    # see it, before or after it is kept
    p, fresh = build(), build()
    text = fresh.key()
    if keyed:
        assert p.key() is p.key() == text
    assert p == fresh and hash(p) == hash(fresh)
    assert repr(p) == repr(build()) and "_text" not in repr(p)
    assert [f.name for f in dataclasses.fields(p)] == names
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and copy.key() == str(copy) == text
    other = dataclasses.replace(p, **change)
    built = type(p)(**{name: change.get(name, getattr(p, name)) for name in names})
    assert other.key() == built.key() != text
    assert str(p) == p.key() == text
