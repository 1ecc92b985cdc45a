"""Count evaluation engine: memoized recursion with optional tracing.

The engine owns the memo store and the evaluation options; the
recursion rules live in genus0, genus1 and fibration.  All arithmetic
is exact and in ints: a term's weight is an integer numerator over one
integer divisor, known before anything is counted, and every division
the theory promises to be exact is checked, raising InexactCount when it
is not.  Fractions are built only for a trace, whose edge weights they
are.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cache import MemoStore
from .partitions import points_on_curve
from .problems import (
    Problem,
    UnsupportedProblem,
    ZProblem,
    dim_z,
    dimension,
    unmarked_factor,
    validate,
    validate_z,
)
from .trace import TraceNode, Tracer


class InexactCount(ArithmeticError):
    """A quantity the theory promises to be an exact integer (or an
    exact nonnegative count) came out otherwise.  This is a fault of the
    engine, never of the input, and is raised rather than truncated."""


def exact_quotient(numerator: int, divisor: int, what: str) -> int:
    """``numerator / divisor`` as an int; InexactCount with the message
    ``what`` and the reduced fraction if it is not integral."""
    quotient, rest = divmod(numerator, divisor)
    if rest:
        raise InexactCount(f"{what}: got {Fraction(numerator, divisor)}")
    return quotient


def unmarked(marked: int, p: Problem) -> int:
    """The count of unmarked curves: ``marked`` divided by the
    relabelings of p's free contacts, which must divide it."""
    factor = unmarked_factor(p)
    if marked % factor:
        raise InexactCount(f"marking factor {factor} must divide {marked} for {p}")
    return marked // factor


def memo_key(problem) -> str:
    """Memo and trace key of a problem: its canonical text behind its
    count family, X (rational), W (elliptic) or Z (divisor class)."""
    if isinstance(problem, ZProblem):
        return "Z|" + problem.key()
    return ("W|" if problem.genus == 1 else "X|") + problem.key()


def beyond_capacity(problem) -> bool:
    """Whether a problem counts 0 by its degree and point markers (e = 0)
    alone.  A rational curve of degree d passes through at most
    points_on_curve(n, d) general points of P^n.  There are no elliptic
    curves of degree 1 or 2, and an elliptic one moves in a family of
    dimension (n+1)*d, of which each point costs n - 1; a divisor
    problem counts some of those curves.  Elliptic problems beyond P^3
    are left to genus1.expand_w, which reports them unsupported.  The
    engine asks this of every problem it counts, so it reads only the
    problem's fields."""
    i = problem.i
    points = i[0][1] if i and i[0][0] == 0 else 0
    n, d = problem.n, problem.d
    if isinstance(problem, ZProblem) or problem.genus == 1:
        return n <= 3 and (d <= 2 or points * (n - 1) > (n + 1) * d)
    return n >= 2 and points > points_on_curve(n, d)


def memo(store: MemoStore, key: str, compute) -> int:
    """The value stored under ``key``, computed and stored on a miss."""
    hit = store.lookup(key)
    if hit is not None:
        return hit
    return store.store(key, compute())


class Engine:
    """Evaluator for counting problems.

    Options:
      divisor_axiom: trade markers that lie freely on the hyperplane for
        a factor of d each instead of degenerating them.
      order: which admissible incidence slot to degenerate first,
        "max-e" (largest plane dimension) or "min-e".
      tracer: a trace.Tracer recording a derivation node per problem.
    """

    def __init__(
        self,
        store: MemoStore | None = None,
        *,
        divisor_axiom: bool = True,
        order: str = "max-e",
        tracer: Tracer | None = None,
    ):
        if order not in ("max-e", "min-e"):
            raise ValueError(f"order must be 'max-e' or 'min-e', got {order!r}")
        self.store = store if store is not None else MemoStore()
        self.divisor_axiom = divisor_axiom
        self.order = order
        self.tracer = tracer

    def count(self, problem, first_slot: int | None = None) -> int:
        """Validate and count; the public entry point.  A rational or
        elliptic problem specializes its first incidence plane on
        ``first_slot`` if given; every later choice follows ``order``.
        A slot that is not admissible (any slot, for a divisor problem)
        raises ValueError, also when the count is already stored.  A
        degeneration deeper than Python's recursion limit (left as it
        is: raising it risks overflowing the C stack) is unsupported."""
        try:
            if isinstance(problem, ZProblem):
                if first_slot is not None:
                    raise ValueError("a divisor problem has no first slot to choose")
                return self.count_z(validate_z(problem))
            p = validate(problem)
            slots = self.admissible_slots(p)
            if first_slot is not None and first_slot not in slots:
                raise ValueError(f"slot {first_slot} is not admissible for {p}; admissible: {slots}")
            return self.count_w(p, first_slot) if p.genus == 1 else self.count_x(p, first_slot)
        except RecursionError:
            raise UnsupportedProblem(f"the degeneration of {problem} is deeper than Python's recursion limit") from None

    def count_x(self, p: Problem, first_slot: int | None = None) -> int:
        from . import genus0

        return self._counted(p, lambda: genus0.expand_x(self, p, first_slot))

    def count_w(self, p: Problem, first_slot: int | None = None) -> int:
        from . import genus1

        return self._counted(p, lambda: genus1.expand_w(self, p, first_slot))

    def count_z(self, z: ZProblem) -> int:
        from . import fibration

        return self._counted(z, lambda: fibration.expand_z(self, z))

    def _counted(self, problem, expander) -> int:
        """The count of ``problem``: 0 without expanding or storing it
        when beyond_capacity says so (a ``capacity`` leaf in a trace),
        else the stored value, else ``expander()`` stored."""
        if beyond_capacity(problem):
            if self.tracer is not None:
                self.capacity_leaf(problem)
            return 0
        key = memo_key(problem)
        if self.tracer is None:
            return memo(self.store, key, lambda: expander()[0])
        node = self.tracer.nodes.get(key)
        if node is not None:
            return node.count
        value, node = expander()
        self.tracer.nodes[key] = node
        return self.store.store(key, value)

    # Slot selection.

    @staticmethod
    def admissible_slots(p: Problem) -> list[int]:
        return [e for e, _ in p.i if e <= p.n - 2]

    def pick_slot(self, p: Problem, first_slot: int | None = None) -> int:
        """``first_slot`` if given (count checked it), else the slot ``order`` picks."""
        if first_slot is not None:
            return first_slot
        slots = self.admissible_slots(p)
        if not slots:
            raise AssertionError(f"no incidence slot to degenerate in {p}")
        return max(slots) if self.order == "max-e" else min(slots)

    # Trace node assembly.  Every helper returns None when not tracing.

    def leaf_node(self, problem, dim: int, count: int, rule: str):
        if self.tracer is None:
            return None
        return TraceNode(problem, dim, count, rule)

    def capacity_leaf(self, problem) -> None:
        """Record the ``capacity`` leaf of a problem beyond_capacity flags.
        This is not inlined in _counted because every level of the
        recursion has a _counted frame: on CPython 3.11, that frame
        growing from 12 to 16 slots made rational P^3 d=6 about 20%
        slower."""
        dim = dim_z(problem) if isinstance(problem, ZProblem) else dimension(problem)
        self.tracer.nodes.setdefault(memo_key(problem), TraceNode(problem, dim, 0, "capacity"))

    def axiom_node(self, problem, dim: int, count: int, weight: int, child: Problem):
        if self.tracer is None:
            return None
        child_node = self.tracer.nodes[memo_key(child)]
        return TraceNode(problem, dim, count, "divisor-axiom", [(Fraction(weight), child_node)])

    def terms_node(self, problem, dim: int, total: int, terms, term_totals, default_rule: str):
        """Build the node for an expanded problem.

        terms: list of (rule, num, div, value, groups) where groups is a
        list of (coeff, coeff_div, factors) and factors a list of
        (problem, count); the term contributes num * value / div, given
        as an int in term_totals, and value == sum(coeff *
        prod(counts) / coeff_div).  The edge weights are Fractions,
        built here from those ints.
        """
        if self.tracer is None:
            return None
        children = []
        for (rule, num, div, _, groups), term_total in zip(terms, term_totals):
            if term_total == 0:
                continue
            merged: dict[str, Fraction] = {}
            for coeff, coeff_div, factors in groups:
                r = len(factors)
                prod_all = math.prod(c for _, c in factors)
                if prod_all == 0 or coeff == 0:
                    continue
                for fproblem, c in factors:
                    fkey = memo_key(fproblem)
                    weight = Fraction(num * coeff * (prod_all // c), div * coeff_div * r)
                    merged[fkey] = merged.get(fkey, 0) + weight
            term_children = [(wsum, self.tracer.nodes[fkey]) for fkey, wsum in merged.items()]
            children.append((Fraction(1), TraceNode(problem, dim, term_total, rule, term_children)))
        rule = children[0][1].rule if children else default_rule
        return TraceNode(problem, dim, total, rule, children)


def finish_terms(eng: Engine, p, dim: int, terms, default_rule: str):
    """Sum the term contributions exactly and build the trace node: one
    division per term, of its numerator times its value by its divisor."""
    term_totals = []
    for rule, num, div, value, _ in terms:
        term, rest = divmod(num * value, div)
        if rest:
            # the message formats the whole problem, so only on failure
            raise InexactCount(f"non-integral {rule} term for {p}: got {Fraction(num * value, div)}")
        term_totals.append(term)
    total = sum(term_totals)
    if total < 0:
        raise InexactCount(f"negative count {total} for {p}")
    return total, eng.terms_node(p, dim, total, terms, term_totals, default_rule)


def check_all_orders(problem, reference: int, divisor_axiom: bool = True) -> None:
    """Recount ``problem`` under both degeneration orders and every
    admissible first slot, each with a fresh memo store; a value other
    than ``reference`` raises InexactCount."""
    slots = [None]
    if not isinstance(problem, ZProblem):
        slots = Engine.admissible_slots(validate(problem)) or slots
    for order in ("max-e", "min-e"):
        for e in slots:
            value = Engine(divisor_axiom=divisor_axiom, order=order).count(problem, e)
            if value != reference:
                raise InexactCount(
                    f"order {order} with first slot {e} gives {value}, expected {reference}"
                )


def trace(problem, *, divisor_axiom: bool = True, order: str = "max-e", store=None) -> TraceNode:
    """Count a problem and return the root of its derivation tree.  A
    problem that beyond_capacity flags is not expanded: its root
    is a ``capacity`` leaf of count 0, and zero-count children are
    pruned, so such a leaf shows only as a root."""
    tracer = Tracer()
    Engine(store, divisor_axiom=divisor_axiom, order=order, tracer=tracer).count(problem)
    # The tracer is fresh, so the root, recorded after everything it
    # depends on, is its newest node.
    return next(reversed(tracer.nodes.values()))
