"""Count evaluation engine: memoized recursion with optional tracing.

The engine owns the memo store, the evaluation options, the tracer and
the pin and pairing tables (see Engine).  Engine.counted is the one
memo boundary: genus0, genus1 and fibration count every smaller problem
through it, except the divisor-class problem of a type IIc factor,
which genus0.count_y hands straight to fibration.expand_z.  counted
calls the expander of the problem's kind, which returns a count as an
int and records its trace node through leaf, axiom or terms_node.
All arithmetic is exact and in ints: a term's weight is an integer
numerator over one integer divisor, known before anything is counted,
and every division the theory promises to be exact is checked, raising
InexactCount when it is not.  Fractions are built only for a trace,
whose edge weights they are.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
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


# The weight of every term edge of a trace (Engine.terms_node).
_ONE = Fraction(1)


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
    count family, X (rational), W (elliptic) or Z (divisor class).  The
    text is the one problem.key keeps, so a problem keyed again (by the
    trace helpers below) is not formatted again."""
    if isinstance(problem, ZProblem):
        return "Z|" + problem.key()
    return ("W|" if problem.genus == 1 else "X|") + problem.key()


def beyond_capacity(problem) -> bool:
    """Whether a problem counts 0 by its degree and point markers (e = 0)
    alone: a curve of degree d passes through at most
    points_on_curve(n, d, genus) general points of P^n, n >= 2.  There
    are no elliptic curves of degree 1 or 2; a divisor problem counts
    some elliptic curves, and the type IIc walk cuts a shape whose
    divisor problem this flags (partitions.TailTable.in_h_elliptic,
    which reads the same points_on_curve).  Elliptic problems beyond P^3
    are left to genus1.expand_w, which reports them unsupported.  The
    engine asks this of every problem that goes through counted, so it
    reads only the problem's fields."""
    i = problem.i
    points = i[0][1] if i and i[0][0] == 0 else 0
    n, d = problem.n, problem.d
    if isinstance(problem, ZProblem) or problem.genus == 1:
        return n <= 3 and (d <= 2 or n >= 2 and points > points_on_curve(n, d, 1))
    return n >= 2 and points > points_on_curve(n, d)


def memo(store: MemoStore, key: str, compute) -> int:
    """The value stored under ``key``, ``compute()`` stored on a miss;
    fibration's pairings, which are not problems, are memoized by it."""
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
      tracer: a trace.Tracer recording a derivation node per problem,
        fixed for the Engine's life (read-only), as its pins are nodes of it.

    pinned[n] maps a type II factor's key over P^n (a tail's record, or
    a rational component in H's (d0, markers)), all its problem depends
    on, to its (problem, count) for the Engine's life; genus0.count_y,
    the one pin loop, fills it, and leaves the divisor-class problem of
    an elliptic component in H (type IIc) unpinned.  Beside it,
    middles[n] maps a IIb doubly-attached record and d0 to the signed
    sum of its middle problems and the (coeff, problem, count) it keeps
    (genus1.count_yb).  pairings maps a divisor-class base (n, d, i) to
    its (base text, dim_z, SS, HH, {slot: HQ}, {(slot, slot): QQ}), SS
    and HH None when dim_z is not 0, from which fibration.expand_z
    evaluates every divisor on that base, and fibers[n] maps a side of
    a broken fiber of those pairings to its count: an elliptic side by
    its incidence row i1, and the rational side of a divisor pairing by
    (d0, i, i1) (see fibration._pairing).
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
        self._tracer = tracer
        self.pinned = defaultdict(dict)
        self.middles = defaultdict(dict)
        self.pairings = {}
        self.fibers = defaultdict(dict)

    @property
    def tracer(self) -> Tracer | None:
        return self._tracer

    def count(self, problem, first_slot: int | None = None) -> int:
        """Validate and count; the public entry point.  A rational or
        elliptic problem specializes its first incidence plane on
        ``first_slot`` if given; every later choice follows ``order``.
        A slot that is not an admissible integer (any slot, for a divisor
        problem) raises ValueError, also when the count is already
        stored; a bool counts as the integer it equals.  A
        degeneration deeper than Python's recursion limit (left as it
        is: raising it risks overflowing the C stack) is unsupported."""
        try:
            if isinstance(problem, ZProblem):
                if first_slot is not None:
                    raise ValueError("a divisor problem has no first slot to choose")
                return self.counted(validate_z(problem))
            p = validate(problem)
            slots = self.admissible_slots(p)
            if first_slot is not None:
                try:
                    first_slot = operator.index(first_slot)
                except TypeError:
                    raise ValueError(f"slot {first_slot!r} is not admissible for {p}: not an integer") from None
                if first_slot not in slots:
                    raise ValueError(f"slot {first_slot} is not admissible for {p}; admissible: {slots}")
            return self.counted(p, first_slot)
        except RecursionError:
            raise UnsupportedProblem(f"the degeneration of {problem} is deeper than Python's recursion limit") from None

    def counted(self, problem, first_slot: int | None = None) -> int:
        """The count of a valid problem: 0, not expanded, stored or traced,
        when beyond_capacity flags it, else the stored value (traced, its
        node's), else its expander's, stored; the expander is read here."""
        if beyond_capacity(problem):
            return 0
        key = memo_key(problem)
        if self._tracer is None:
            hit = self.store.lookup(key)
            if hit is not None:
                return hit
        else:
            node = self._tracer.nodes.get(key)
            if node is not None:
                return node.count
        expand = genus0.expand_x if key[0] == "X" else genus1.expand_w if key[0] == "W" else fibration.expand_z
        return self.store.store(key, expand(self, problem, first_slot))

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

    # Trace node assembly.  Each helper records a problem's node under its
    # memo key, keeping a node already there, and only when tracing.

    def leaf(self, problem, dim: int, count: int, rule: str) -> int:
        """Record a leaf node; return ``count``."""
        if self._tracer is not None:
            self._tracer.nodes.setdefault(memo_key(problem), TraceNode(problem, dim, count, rule))
        return count

    def axiom(self, problem, count: int, weight: int, child: Problem) -> int:
        """Record the ``divisor-axiom`` node of a zero-dimensional
        problem counted as ``weight`` times ``child``; return ``count``."""
        if self._tracer is not None:
            nodes = self._tracer.nodes
            edge = (Fraction(weight), nodes[memo_key(child)])
            nodes.setdefault(memo_key(problem), TraceNode(problem, 0, count, "divisor-axiom", [edge]))
        return count

    def terms_node(self, problem, dim: int, total: int, terms, term_totals, default_rule: str) -> None:
        """Record the node of an expanded problem, one child per term.

        terms: list of (rule, num, div, value, groups) where groups is a
        list of (coeff, factors) and factors a list of (problem, count).
        A term's checked int total T, in term_totals, is split between
        its groups in proportion to their shares s = coeff * prod(counts),
        whose sum is W, and a group's share evenly between its r factors:
        a factor of count c weighs T * s / (W * r * c), summed over the
        groups it is in.  With L the lcm of the group sizes, that sum is
        T * sum(s * (L / r)) / (W * L * c), added up in ints, so a term
        builds one Fraction per factor, its edge weight; every term edge
        weighs one shared Fraction(1).
        """
        if self._tracer is None:
            return
        nodes = self._tracer.nodes
        children = []
        for (rule, _, _, _, groups), term_total in zip(terms, term_totals):
            if term_total == 0:
                continue
            shares = [(coeff * math.prod(c for _, c in factors), factors) for coeff, factors in groups]
            whole = sum(share for share, _ in shares)
            lcm = math.lcm(*(len(factors) for _, factors in groups))
            merged: dict[str, tuple[int, int]] = {}  # factor key -> (sum of s * L / r, count)
            for share, factors in shares:
                if share == 0:
                    continue
                part = share * (lcm // len(factors))
                for fproblem, c in factors:
                    fkey = memo_key(fproblem)
                    merged[fkey] = (merged.get(fkey, (0, c))[0] + part, c)
            den = whole * lcm
            term_children = [(Fraction(term_total * num, den * c), nodes[fkey]) for fkey, (num, c) in merged.items()]
            children.append((_ONE, TraceNode(problem, dim, term_total, rule, term_children)))
        rule = children[0][1].rule if children else default_rule
        nodes.setdefault(memo_key(problem), TraceNode(problem, dim, total, rule, children))


def finish_terms(eng: Engine, p, dim: int, terms, default_rule: str) -> int:
    """The count of p, summed exactly with one division per term, of its
    numerator times its value by its divisor; eng.terms_node traces it."""
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
    eng.terms_node(p, dim, total, terms, term_totals, default_rule)
    return total


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
    problem that beyond_capacity flags is not expanded: its root is a
    ``capacity`` leaf of count 0, built here, as zero-count children are
    pruned and so no other node needs one."""
    tracer = Tracer()
    Engine(store, divisor_axiom=divisor_axiom, order=order, tracer=tracer).count(problem)
    if not tracer.nodes:
        p = validate_z(problem) if isinstance(problem, ZProblem) else validate(problem)
        return TraceNode(p, (dim_z if isinstance(p, ZProblem) else dimension)(p), 0, "capacity")
    # The tracer is fresh, so the root, recorded after everything it
    # depends on, is its newest node.
    return next(reversed(tracer.nodes.values()))


# The rule modules import from this one, so they are bound last, as
# modules: a patched expander is the one the engine calls.
from . import fibration, genus0, genus1
