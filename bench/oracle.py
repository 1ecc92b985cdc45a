"""Independent check of the benchmark's pinned genus-0 counts.

Nothing here calls the engine.  ``gw_invariant(r, d, codims)`` is the
number of rational degree-d curves in P^r meeting general linear
subspaces of the given codimensions, computed by the WDVV (associativity)
recursion of Kontsevich-Manin 1994, section 5.  A curve meeting a
general e-plane of P^r is one insertion of codimension r - e.
"""

from __future__ import annotations

import math


def gw_invariant(r: int, d: int, codims) -> int:
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def inv(deg: int, cs) -> int:
        cs = tuple(sorted(cs))
        key = (deg, cs)
        if key not in memo:
            memo[key] = _inv(deg, cs)
        return memo[key]

    def _inv(deg, cs):
        if any(c > r or c < 0 for c in cs):
            return 0
        if deg == 0:
            return int(len(cs) == 3 and sum(cs) == r)
        if sum(c - 1 for c in cs) != (r + 1) * deg + r - 3:
            return 0
        if 0 in cs:
            return 0
        if cs and cs[0] == 1:
            return deg * inv(deg, cs[1:])
        if len(cs) < 3:
            # Only the line through two points survives the dimension count.
            return int(deg == 1 and cs == (r, r))
        a, b, c = cs[0], cs[1], cs[-1]
        rest = cs[2:-1]
        # WDVV for (T_{a-1}, T_1 | T_b, T_c); the degree-0 term on the
        # left is the target.
        total = 0
        if a + b - 1 <= r:
            total += deg * inv(deg, (a + b - 1, c) + rest)
        if c + 1 <= r:
            total += inv(deg, (a - 1, b, c + 1) + rest)
        if b + c <= r:
            total -= deg * inv(deg, (a - 1, b + c) + rest)
        for d1 in range(1, deg):
            d2 = deg - d1
            for take, ways in _subsets(rest):
                left = tuple(x for x, k in take for _ in range(k))
                right = _minus(rest, take)
                for e in range(r + 1):
                    f = r - e
                    # Right-hand side: T_{a-1}, T_b on the degree-d1 part.
                    total += ways * d2 * inv(d1, (a - 1, b, e) + left) * inv(d2, (f, c) + right)
                    # Left-hand side: T_{a-1}, T_1 on the degree-d1 part.
                    total -= ways * d1 * inv(d1, (a - 1, e) + left) * inv(d2, (f, b, c) + right)
        return total

    return inv(d, tuple(codims))


def _subsets(cs):
    """Yield (take, ways): a sub-multiset of cs as (codim, count) pairs
    and the number of labeled subsets realizing it."""
    counts: dict[int, int] = {}
    for c in cs:
        counts[c] = counts.get(c, 0) + 1
    items = sorted(counts.items())

    def rec(j):
        if j == len(items):
            yield (), 1
            return
        c, m = items[j]
        for k in range(m + 1):
            for take, ways in rec(j + 1):
                yield ((c, k),) + take if k else take, ways * math.comb(m, k)

    yield from rec(0)


def _minus(cs, take):
    out = list(cs)
    for c, k in take:
        for _ in range(k):
            out.remove(c)
    return tuple(out)


def incidence_codims(problem) -> list[int]:
    """Codimensions of a genus-0 problem's incidence conditions; the
    problem must have only free contacts with the hyperplane."""
    if problem.genus != 0 or any(e != problem.n - 1 or m != 1 for m, e, _ in problem.h):
        raise ValueError(f"{problem} is not an incidence-only rational problem")
    return [problem.n - e for e, count in problem.i for _ in range(count)]
