"""Every P^2 cell of genus 0 up to degree 7 and genus 1 up to degree 6
against the Caporaso-Harris recursion (tests/oracles.py), which counts
plane curves with any contacts with a line from nothing the engine
computes."""

import math

import pytest

from curvecount import Engine, Problem
from oracles import (
    contact_vectors,
    getzler_elliptic_numbers,
    irreducible_plane_count,
    kontsevich_numbers,
    severi_degree,
)


def test_severi_degrees_of_nodal_cubics_and_trinodal_quartics():
    # 12 nodal cubics through 8 points; 675 three-nodal quartics through
    # 11: 620 rational quartics and 55 pairs of a cubic and a line
    assert severi_degree(3, 1, (), (3,)) == 12
    assert severi_degree(4, 3, (), (4,)) == 675
    assert irreducible_plane_count(4, 0, (), (4,)) == 620


def test_irreducible_counts_match_kontsevich_and_getzler():
    rational = kontsevich_numbers(6)
    assert [irreducible_plane_count(d, 0, (), (d,)) for d in range(1, 7)] == [rational[d] for d in range(1, 7)]
    elliptic = getzler_elliptic_numbers(10)
    assert [irreducible_plane_count(d, 1, (), (d,)) for d in range(1, 11)] == [elliptic[d] for d in range(1, 11)]


def _cells():
    """(genus, d, alpha, beta) of every cell: every pair of contact
    vectors with I alpha + I beta = d."""
    for genus, d_max in ((0, 7), (1, 6)):
        for d in range(1, d_max + 1):
            for taken in range(d + 1):
                for alpha in contact_vectors(taken):
                    for beta in contact_vectors(d - taken):
                        yield genus, d, alpha, beta


def test_every_plane_cell_matches_caporaso_harris():
    # alpha_k contacts of order k at fixed points of the line H (slot 0)
    # and beta_k free on it (slot 1), through 2d + g - 1 + |beta| points;
    # the engine labels the free contacts, so its count divided by
    # prod beta_k! is the oracle's
    eng = Engine()
    cells = nonzero = 0
    for genus, d, alpha, beta in _cells():
        h = {(k, 0): c for k, c in enumerate(alpha, 1) if c}
        h.update({(k, 1): c for k, c in enumerate(beta, 1) if c})
        points = 2 * d + genus - 1 + sum(beta)
        marked = eng.count(Problem.make(genus, 2, d, h, {0: points}))
        count, rest = divmod(marked, math.prod(math.factorial(c) for c in beta))
        assert (count, rest) == (irreducible_plane_count(d, genus, alpha, beta), 0), (genus, d, alpha, beta)
        cells += 1
        nonzero += count != 0
    assert cells == 386
    assert nonzero > 300
