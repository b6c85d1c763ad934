"""A census: every check on every small symmetric quiver.

The census is every symmetric quiver with one or two vertices, at most 2
arrows between them and at most 3 loops at each, taken up to relabelling:
a quiver is kept in its canonical form, the least matrix among its
simultaneous row and column permutations."""

import itertools

import pytest

from quivercalc.algebra import gr_linking_check, homology_check, poincare_check
from quivercalc.dt import dt_check, dt_extract, dt_window
from quivercalc.motivic import (motivic_series, verify_diagonalization,
                                verify_link_identity, verify_unlink_identity)
from quivercalc.quiver import Quiver

MAX_VERTICES = 2
MAX_ARROWS = 2
MAX_LOOPS = 3


def canonical(matrix):
    """The least of the matrices obtained by permuting rows and columns
    together."""
    n = len(matrix)
    return min(tuple(tuple(matrix[i][j] for j in perm) for i in perm)
               for perm in itertools.permutations(range(n)))


def census():
    """The canonical matrix of every quiver in the census, sorted."""
    found = set()
    for n in range(1, MAX_VERTICES + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for loops in itertools.product(range(MAX_LOOPS + 1), repeat=n):
            for arrows in itertools.product(range(MAX_ARROWS + 1), repeat=len(pairs)):
                m = [[0] * n for _ in range(n)]
                for i, count in enumerate(loops):
                    m[i][i] = count
                for (i, j), count in zip(pairs, arrows):
                    m[i][j] = m[j][i] = count
                found.add(canonical(m))
    return sorted(found)


CENSUS = [Quiver(("a", "b")[:len(m)], m) for m in census()]


def test_census_counts_quivers_up_to_relabelling():
    assert len(CENSUS) == 34
    assert sum(len(q) == 1 for q in CENSUS) == MAX_LOOPS + 1
    # one loop count per vertex, unordered, times the arrows between them
    assert sum(len(q) == 2 for q in CENSUS) == 10 * (MAX_ARROWS + 1)
    assert all(canonical(q.matrix) == q.matrix for q in CENSUS)


@pytest.mark.parametrize("quiver", CENSUS, ids=lambda q: str(q.matrix))
def test_every_check_passes_on_the_census(quiver):
    order, bound = 5, 4
    reports = [poincare_check(quiver, order), verify_diagonalization(quiver, order),
               dt_check(dt_extract(motivic_series(quiver, order,
                                                  dt_window(quiver, order))))]
    if len(quiver) == 2:
        reports += [verify_link_identity(quiver, "a", "b", order),
                    gr_linking_check(quiver, "a", "b", bound)]
        if quiver.arrows("a", "b"):
            reports += [verify_unlink_identity(quiver, "a", "b", order),
                        homology_check(quiver, "a", "b", bound)]
    for report in reports:
        assert report.passed, (report.name, report.mismatches[:1])
