"""Problem types, dimension formulas, and the text grammar.

A counting problem asks for the number of genus g, degree d curves in
P^n satisfying marked-point conditions relative to a fixed general
hyperplane H:

* tangency conditions ``h[m, e]``: the curve meets H with contact
  multiplicity m at a marked point lying on a general e-plane inside H
  (0 <= e <= n-1; e = n-1 means the point is only required to lie on H);
* incidence conditions ``i[e]``: a marked point lying on a general
  e-plane of P^n (0 <= e <= n; e = n is a free marked point).

Every intersection of the curve with H must carry a tangency marker, so
a valid problem has sum(m * h[m, e]) == d.

A divisor problem additionally fixes a degree-d formal sum of the
incidence markers and asks for the curves whose hyperplane class equals
that sum in the Picard group.  Markers are written ``p<k>`` (k-th marker
on a point), ``l<k>`` (k-th marker on a line) or ``q<e>.<k>`` in general.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import index


class InvalidProblem(ValueError):
    """Malformed or inconsistent problem data."""


class UnsupportedProblem(ValueError):
    """Well-formed problem outside the engine's range."""


def _norm_h(h) -> tuple[tuple[int, int, int], ...]:
    if not h:
        return ()
    items = h.items() if isinstance(h, dict) else h
    merged: dict[tuple[int, int], int] = {}
    for (m, e), c in items:
        key = (index(m), index(e))
        merged[key] = merged.get(key, 0) + index(c)
    out = []
    for (m, e), c in sorted(merged.items()):
        if c < 0:
            raise InvalidProblem(f"negative tangency count for (m={m}, e={e})")
        if c:
            out.append((m, e, c))
    return tuple(out)


def _norm_i(i, n: int) -> tuple[tuple[int, int], ...]:
    if not i:
        return ()
    items = i.items() if isinstance(i, dict) else i
    merged: dict[int, int] = {}
    for e, c in items:
        e = index(e)
        merged[e] = merged.get(e, 0) + index(c)
    out = []
    for e, c in sorted(merged.items()):
        if c < 0:
            raise InvalidProblem(f"negative incidence count for e={e}")
        if c and not 0 <= e <= n:
            raise InvalidProblem(f"incidence plane dimension e={e} out of range 0..{n}")
        if c:
            out.append((e, c))
    return tuple(out)


@dataclass(frozen=True)
class Problem:
    """Canonical counting problem.

    ``h`` is a sorted tuple of (m, e, count) triples and ``i`` a sorted
    tuple of (e, count) pairs, both with zero counts stripped, so equal
    problems compare and hash equal.
    """

    genus: int
    n: int
    d: int
    h: tuple[tuple[int, int, int], ...] = ()
    i: tuple[tuple[int, int], ...] = ()
    # The kept canonical text (see key): a class-level default, not a
    # field, so eq, hash, repr, fields and replace never see it.
    _text = None

    @classmethod
    def make(cls, genus, n, d, h=None, i=None) -> "Problem":
        if genus not in (0, 1):
            raise InvalidProblem(f"genus must be 0 or 1, got {genus!r}")
        # index, unlike int, refuses a number it would have to truncate
        try:
            genus, n, d = index(genus), index(n), index(d)
            if n < 1:
                raise InvalidProblem(f"ambient dimension must be at least 1, got {n}")
            if d < 1:
                raise InvalidProblem(f"degree must be at least 1, got {d}")
            ht = _norm_h(h)
            it = _norm_i(i, n)
        except TypeError as exc:
            raise InvalidProblem(f"problem numbers must be integers: {exc}") from None
        for m, e, _ in ht:
            if m < 1:
                raise InvalidProblem(f"contact multiplicity must be positive, got m={m}")
            if not 0 <= e <= n - 1:
                raise InvalidProblem(f"tangency plane dimension e={e} out of range 0..{n - 1}")
        return cls(genus, n, d, ht, it)

    def h_map(self) -> dict[tuple[int, int], int]:
        return {(m, e): c for m, e, c in self.h}

    def i_map(self) -> dict[int, int]:
        return dict(self.i)

    def h_total(self) -> int:
        """Total H-intersection count carried by the tangency markers."""
        return sum(m * c for m, _, c in self.h)

    def key(self) -> str:
        """The canonical text (format_problem), formatted by the first
        call and kept on the instance, so every later key, str, memo
        key, trace lookup and rendered line reads that one string."""
        text = self._text
        if text is None:
            text = format_problem(self)
            object.__setattr__(self, "_text", text)
        return text

    __str__ = key


def canonicalize(problem: Problem) -> Problem:
    """Re-normalize a problem built by hand (sort entries, strip zeros)."""
    return Problem.make(problem.genus, problem.n, problem.d, problem.h_map(), problem.i_map())


def validate(problem: Problem) -> Problem:
    """Canonicalize and check every problem invariant.

    Returns the canonical problem; raises InvalidProblem otherwise.
    """
    p = canonicalize(problem)
    total = p.h_total()
    if total != p.d:
        raise InvalidProblem(
            f"tangency markers account for {total} of {p.d} hyperplane intersections; "
            "every intersection with H must carry a marker"
        )
    return p


def incidence_weight(n: int, i_items) -> int:
    """Dimensions the incidence markers ``i_items`` ((e, count) pairs)
    cut: a marker on an e-plane of P^n costs n - 1 - e."""
    return sum((n - 1 - e) * c for e, c in i_items)


def free_dim(n: int, genus: int, dk: int, h_items, mk: int = 1) -> int:
    """Dimension of the curves of degree dk and the given genus with
    tangency markers h_items (((m, e), count) pairs) and no incidence
    markers, plus one further contact of multiplicity mk free on H."""
    return (
        (n + 1) * dk
        + (n - 3 if genus == 0 else 0)
        - sum((n + m - e - 2) * c for (m, e), c in h_items)
        - (mk - 1)
    )


def dim_x(p: Problem) -> int:
    """Expected dimension of the space of marked rational curves."""
    return free_dim(p.n, 0, p.d, p.h_map().items()) - incidence_weight(p.n, p.i)


def dim_w(p: Problem) -> int:
    """Expected dimension of the space of marked elliptic curves."""
    return free_dim(p.n, 1, p.d, p.h_map().items()) - incidence_weight(p.n, p.i)


def dimension(p: Problem) -> int:
    return dim_w(p) if p.genus == 1 else dim_x(p)


def unmarked_factor(p: Problem) -> int:
    """Relabelings of the free tangency markers (contact points on H
    itself); dividing the marked count by this gives the count of
    unmarked curves."""
    return math.prod(math.factorial(c) for m, e, c in p.h if e == p.n - 1)


def format_problem(p: Problem) -> str:
    h_txt = ";".join([f"{m},{e}:{c}" for m, e, c in p.h]) or "-"
    i_txt = ";".join([f"{e}:{c}" for e, c in p.i]) or "-"
    return f"g={p.genus} n={p.n} d={p.d} h={h_txt} i={i_txt}"


_ENTRY_RE = re.compile(r"(?:(\d+),)?(\d+):(-?\d+)")


def parse_entries(entries, tangency: bool, label: str) -> dict:
    """The ``m,e:count`` (tangency) or ``e:count`` (incidence) entries
    as one vector, {(m, e): count} or {e: count}, repeated keys summed.
    A malformed entry raises InvalidProblem "bad <label> ..."; a
    negative count is left to Problem.make."""
    vec: dict = {}
    for entry in entries:
        mt = _ENTRY_RE.fullmatch(entry)
        if not mt or (mt[1] is None) == tangency:
            raise InvalidProblem(f"bad {label} {entry!r}, expected {'m,e' if tangency else 'e'}:count")
        key = (int(mt[1]), int(mt[2])) if tangency else int(mt[2])
        vec[key] = vec.get(key, 0) + int(mt[3])
    return vec


def parse_problem(text: str) -> Problem:
    """Parse the canonical problem text, e.g.
    ``g=0 n=3 d=2 h=1,2:2 i=1:8``; empty vectors are written ``h=-``.
    Returns a validated problem.
    """
    tokens = text.split()
    fields: dict[str, str] = {}
    idx = 0
    while idx < len(tokens):
        tok = tokens[idx]
        if "=" not in tok:
            raise InvalidProblem(f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        if value == "" and key in ("h", "i") and idx + 1 < len(tokens) and tokens[idx + 1] == "-":
            value = "-"
            idx += 1
        if key in fields:
            raise InvalidProblem(f"duplicate field {key!r}")
        fields[key] = value
        idx += 1
    missing = {"g", "n", "d", "h", "i"} - fields.keys()
    if missing:
        raise InvalidProblem(f"missing fields: {', '.join(sorted(missing))}")
    extra = fields.keys() - {"g", "n", "d", "h", "i"}
    if extra:
        raise InvalidProblem(f"unknown fields: {', '.join(sorted(extra))}")
    try:
        genus = int(fields["g"])
        n = int(fields["n"])
        d = int(fields["d"])
    except ValueError as exc:
        raise InvalidProblem(f"non-integer numeric field: {exc}") from None
    h = {} if fields["h"] == "-" else parse_entries(fields["h"].split(";"), True, "tangency entry")
    i = {} if fields["i"] == "-" else parse_entries(fields["i"].split(";"), False, "incidence entry")
    return validate(Problem.make(genus, n, d, h, i))


@dataclass(frozen=True)
class ZProblem:
    """Count of elliptic curves whose hyperplane class equals a fixed
    formal sum of the incidence markers.

    ``i`` is as in Problem (all hyperplane intersections are implicitly
    free transverse contacts); ``divisor`` is a sorted tuple of
    (coeff, e, k) terms meaning coeff times the k-th marker on slot e,
    with the coefficients summing to d.
    """

    n: int
    d: int
    i: tuple[tuple[int, int], ...] = ()
    divisor: tuple[tuple[int, int, int], ...] = ()
    _text = None  # the kept canonical text, as in Problem

    @classmethod
    def make(cls, n, d, i=None, divisor=()) -> "ZProblem":
        try:
            n, d = index(n), index(d)
            if n < 2:
                raise InvalidProblem(f"divisor problems need ambient dimension at least 2, got {n}")
            if d < 1:
                raise InvalidProblem(f"degree must be at least 1, got {d}")
            it = _norm_i(i, n)
            terms = merge_divisor(divisor)
        except TypeError as exc:
            raise InvalidProblem(f"problem numbers must be integers: {exc}") from None
        return cls(n, d, it, terms)

    def i_map(self) -> dict[int, int]:
        return dict(self.i)

    def key(self) -> str:
        """The canonical text, its base (base_z_text) and divisor,
        formatted once and kept as Problem.key keeps its own."""
        text = self._text
        if text is None:
            text = f"{base_z_text(self)} D={format_divisor(self.divisor)}"
            object.__setattr__(self, "_text", text)
        return text

    __str__ = key


def merge_divisor(terms) -> tuple[tuple[int, int, int], ...]:
    """A divisor's (coeff, e, k) terms as its canonical tuple: the
    coefficients summed per marker (e, k), zero sums dropped, sorted by
    marker.  A number that is not an integer raises TypeError."""
    merged: dict[tuple[int, int], int] = {}
    for coeff, e, k in terms:
        key = (index(e), index(k))
        merged[key] = merged.get(key, 0) + index(coeff)
    return tuple((c, e, k) for (e, k), c in sorted(merged.items()) if c)


def base_z_text(z: ZProblem) -> str:
    i_txt = ";".join([f"{e}:{c}" for e, c in z.i]) or "-"
    return f"n={z.n} d={z.d} i={i_txt}"


def validate_z(z: ZProblem) -> ZProblem:
    z = ZProblem.make(z.n, z.d, z.i_map(), z.divisor)
    imap = z.i_map()
    degree = 0
    for coeff, e, k in z.divisor:
        if k < 1 or k > imap.get(e, 0):
            raise InvalidProblem(
                f"divisor references marker {k} on slot e={e}, but only "
                f"{imap.get(e, 0)} such markers exist"
            )
        degree += coeff
    if degree != z.d:
        raise InvalidProblem(f"divisor coefficients sum to {degree}, expected the degree {z.d}")
    return z


def dim_z(z: ZProblem) -> int:
    """Expected dimension of the divisor problem: the family of elliptic
    curves through the incidence conditions must be a curve."""
    return free_dim(z.n, 1, z.d, ()) - incidence_weight(z.n, z.i) - 1


def _marker_name(e: int, k: int) -> str:
    if e == 0:
        return f"p{k}"
    if e == 1:
        return f"l{k}"
    return f"q{e}.{k}"


def format_divisor(divisor) -> str:
    parts = []
    for coeff, e, k in divisor:
        mag = abs(coeff)
        name = _marker_name(e, k)
        txt = name if mag == 1 else f"{mag}*{name}"
        parts.append(("-" if coeff < 0 else "+", txt))
    if not parts:
        return "0"
    first_sign, first_txt = parts[0]
    out = (first_sign if first_sign == "-" else "") + first_txt
    for sign, txt in parts[1:]:
        out += sign + txt
    return out


_DIV_TERM_RE = re.compile(r"(?:(\d+)\*?)?(?:p(\d+)|l(\d+)|q(\d+)\.(\d+))")


def parse_divisor(text: str) -> tuple[tuple[int, int, int], ...]:
    """Parse a divisor expression such as ``p1+p2+2*l1-p3``."""
    s = "".join(text.split())
    if s in ("", "0"):
        return ()
    terms = []
    pos = 0
    first = True
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
        elif not first:
            raise InvalidProblem(f"expected + or - at offset {pos} of divisor {text!r}")
        mt = _DIV_TERM_RE.match(s, pos)
        if not mt or mt.start() != pos:
            raise InvalidProblem(f"bad divisor term at offset {pos} of {text!r}")
        coeff = sign * int(mt.group(1) or 1)
        if mt.group(2) is not None:
            e, k = 0, int(mt.group(2))
        elif mt.group(3) is not None:
            e, k = 1, int(mt.group(3))
        else:
            e, k = int(mt.group(4)), int(mt.group(5))
        terms.append((coeff, e, k))
        pos = mt.end()
        first = False
    return merge_divisor(terms)
