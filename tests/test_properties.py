"""Randomized invariants of the counting engine.

Counts are theorems about a fixed problem, so nothing the engine is
configured with may change them: degeneration order, the divisor axiom,
first-slot choice.  Each configuration gets its own fresh memo store so
a disagreement cannot hide behind a shared cache.
"""

from hypothesis import given, settings, strategies as st

from curvecount import Engine, Problem, ZProblem, trace
from curvecount.fibration import hyp_minus_sec, sec_hyp, sec_self
from curvecount.problems import (
    base_z_text,
    dim_w,
    dim_x,
    dimension,
    format_divisor,
    parse_divisor,
    parse_problem,
    unmarked_factor,
)
from curvecount.trace import check_invariant

SLOW = settings(max_examples=40, deadline=None)
QUICK = settings(max_examples=100, deadline=None)


def _bump(vec, key):
    out = dict(vec)
    out[key] = out.get(key, 0) + 1
    return out


def _contact_orders(draw, d):
    orders = []
    left = d
    while left:
        m = draw(st.integers(min_value=1, max_value=left))
        orders.append(m)
        left -= m
    return orders


@st.composite
def problems(draw, genus=None):
    g = draw(st.sampled_from((0, 1))) if genus is None else genus
    if g == 1:
        n, d = draw(st.sampled_from(((2, 3), (3, 3))))
    else:
        n = draw(st.integers(min_value=2, max_value=3))
        d = draw(st.integers(min_value=1, max_value=3))
    h: dict = {}
    for m in _contact_orders(draw, d):
        e = draw(st.integers(min_value=0, max_value=n - 1))
        h[(m, e)] = h.get((m, e), 0) + 1
    p = Problem.make(g, n, d, h, {})
    dim = dimension(p)
    if dim < 0:
        # overconstrained tangencies leave nothing to count
        return p
    i: dict = {}
    if n == 3:
        i[0] = draw(st.integers(min_value=0, max_value=dim // 2))
        i[1] = dim - 2 * i[0]
    else:
        i[0] = dim
    extra = draw(st.integers(min_value=0, max_value=1))
    if extra:
        i[n - 1] = i.get(n - 1, 0) + extra
    return Problem.make(g, n, d, h, {e: c for e, c in i.items() if c})


@SLOW
@given(problems())
def test_order_independence(p):
    a = Engine(order="max-e").count(p)
    b = Engine(order="min-e").count(p)
    assert a == b


@SLOW
@given(problems())
def test_divisor_axiom_is_a_shortcut(p):
    a = Engine(divisor_axiom=True).count(p)
    b = Engine(divisor_axiom=False).count(p)
    assert a == b


@SLOW
@given(problems())
def test_unmarked_divisibility(p):
    assert Engine().count(p) % unmarked_factor(p) == 0


@SLOW
@given(problems())
def test_trace_invariant(p):
    root = trace(p)
    check_invariant(root)
    assert root.count == Engine().count(p)


@QUICK
@given(problems())
def test_problem_text_round_trip(p):
    text = str(p)
    assert str(parse_problem(text)) == text


@QUICK
@given(problems())
def test_condition_codimensions(p):
    dim_of = dim_w if p.genus == 1 else dim_x
    base = dim_of(p)
    for e in range(p.n + 1):
        grown = Problem.make(p.genus, p.n, p.d, p.h_map(), _bump(p.i_map(), e))
        assert base - dim_of(grown) == p.n - 1 - e
    for m in range(1, p.d + 1):
        for e in range(p.n):
            h2 = _bump(p.h_map(), (m, e))
            if sum(mm * c for (mm, _), c in h2.items()) > p.d:
                continue
            h2[(1, p.n - 1)] = h2.get((1, p.n - 1), 0) - m
            if h2[(1, p.n - 1)] < 0:
                continue
            traded = Problem.make(p.genus, p.n, p.d, {k: c for k, c in h2.items() if c}, p.i_map())
            # free transverse contacts cost nothing, so the trade costs
            # exactly the codimension of the new contact
            assert base - dim_of(traded) == p.n + m - e - 2


@st.composite
def divisors(draw):
    n_points = draw(st.integers(min_value=1, max_value=4))
    n_lines = draw(st.integers(min_value=0, max_value=2))
    terms = []
    for k in range(1, n_points + 1):
        terms.append((draw(st.integers(min_value=-3, max_value=3)), 0, k))
    for k in range(1, n_lines + 1):
        terms.append((draw(st.integers(min_value=-3, max_value=3)), 1, k))
    return tuple(t for t in terms if t[0])


@QUICK
@given(divisors())
def test_divisor_text_round_trip(div):
    text = format_divisor(div)
    assert format_divisor(parse_divisor(text)) == text


@st.composite
def pencils(draw):
    d = draw(st.sampled_from((3, 4)))
    lines = draw(st.integers(min_value=1, max_value=2))
    return ZProblem.make(2, d, {0: 3 * d - 1, 1: lines}, ((d, 0, 1),))


@settings(max_examples=8, deadline=None)
@given(pencils())
def test_section_self_intersection_is_slot_free(z):
    eng = Engine()
    base = base_z_text(z)
    values = {sec_hyp(eng, z, e, base) - hyp_minus_sec(eng, z, e, base) for e, _ in z.i if e <= z.n - 1}
    assert len(values) == 1
    assert sec_self(eng, z, base) in values


@SLOW
@given(problems())
def test_scaling_free_markers(p):
    """Each marker free on a general hyperplane multiplies the count by d."""
    freer = Problem.make(p.genus, p.n, p.d, p.h_map(), _bump(p.i_map(), p.n - 1))
    eng = Engine()
    assert eng.count(freer) == p.d * eng.count(p)
