"""Fraction-free exact row reduction over the integers.

A row leads with its highest column.  A row meets a pivot with lead a
while its own lead is b; it becomes (a / g) row - (b / g) pivot,
g = gcd(a, b): the least positive multiple of the row whose lead an
integer multiple of the pivot cancels, so entries stay integral.  A row is
divided by its content only when it becomes a pivot, so every stored pivot
is primitive with a positive lead.  Every matrix is sparse: rows are fed as
{column: nonzero int} dicts and pivot rows are stored the same way, so
elimination costs the nonzeros of the two rows involved rather than the
column count.  External {column: int} vectors are reduced the same way:
integer numerators over one common denominator, visiting only the pivot
columns they reach, so rationals appear only in the result.  Only
rank_of_rows takes rational rows; it clears their denominators before
feeding them.  Callers that know the column count can stop feeding rows
once the rank reaches it: every further row reduces to zero.  Feeding the
sparsest rows first keeps fill-in low.  The pivot column set is canonical
(it depends only on the row space, not on the feed order), which makes
quotient bases deterministic.

The highest column leads because of how the algebra's relation rows are
laid out.  The terms g(i, total - b) g(j, b) of a relation coefficient
between two vertices i < j sit in increasing columns as b falls, so the
highest column holds the b = p term, of coefficient p! (times a Koszul
sign), and the lowest one perm(total, p).  For p <= 1, so on every quiver
with at most two arrows between two vertices, such rows lead with a unit
and their pivots with 1, and a pivot with lead 1 never scales the rows it
meets."""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _content_reduce(row):
    g = 0
    for x in row.values():
        g = gcd(g, x)
        if g == 1:
            return row
    return {k: x // g for k, x in row.items()}


class IntegerEchelon:
    """Incremental integer echelon form: feed rows, read off rank, pivot
    columns, and reductions of further vectors modulo the row space."""

    def __init__(self):
        self.pivots = {}  # leading column -> sparse integer row

    def add_row(self, row):
        """Insert one sparse {column: nonzero int} row, which the echelon
        takes over and may keep or modify; returns True when the rank
        grew.  The row's lead is its highest column.

        Each step against a pivot with lead a cancels the row's lead b by
        (a / g) row - (b / g) pivot, g = gcd(a, b), so the row is scaled only
        when a does not divide b, and is not divided by its content between
        steps.  A row that becomes a pivot is divided by its content and
        given a positive lead."""
        while row:
            lead = max(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                if row[lead] < 0:
                    row = {k: -x for k, x in row.items()}
                self.pivots[lead] = _content_reduce(row)
                return True
            a = pivot[lead]
            b = row[lead]
            g = gcd(a, b)
            a //= g
            b //= g
            if a != 1:
                row = {k: a * x for k, x in row.items()}
            for k, p in pivot.items():
                x = row.get(k, 0) - b * p
                if x:
                    row[k] = x
                else:
                    del row[k]
        return False

    @property
    def rank(self):
        return len(self.pivots)

    def reduce_vector(self, vec):
        """Eliminate all pivot columns from a sparse {column: int} vector;
        the result is the canonical representative supported on non-pivot
        columns, as a dict of its nonzero entries, with ints where a value
        is integral and Fractions elsewhere.

        The pivot columns the vector reaches are visited from the highest
        down, from a heap of negated columns: a pivot's other entries lie
        below its lead, so a step queues only lower columns.  Each step
        scales the integer numerators and their common denominator (1 at
        the start) by the pivot's reduced leading entry."""
        den = 1
        num = {k: x for k, x in vec.items() if x}
        pivots = self.pivots
        heap = [-k for k in num if k in pivots]
        heapify(heap)
        while heap:
            # a column queued twice or cancelled is absent by its turn
            col = -heappop(heap)
            c = num.get(col)
            if c is None:
                continue
            pivot = pivots[col]
            # num - (c / a) pivot, kept integral by scaling num by a / g
            a = pivot[col]
            g = gcd(a, c)
            a //= g
            c //= g
            if a != 1:
                den *= a
                num = {k: a * x for k, x in num.items()}
            for k, p in pivot.items():
                x = num.get(k)
                if x is None:
                    num[k] = -c * p
                    if k in pivots:
                        heappush(heap, -k)
                elif x != c * p:
                    num[k] = x - c * p
                else:
                    del num[k]
        return {k: x // den if x % den == 0 else Fraction(x, den)
                for k, x in num.items()}


def rank_of_rows(rows):
    """Exact rank of a matrix given as sparse {column: int or Fraction} rows;
    each row is cleared of denominators and fed as it is."""
    ech = IntegerEchelon()
    for row in rows:
        m = lcm(*(x.denominator for x in row.values()))
        ech.add_row({k: x.numerator * (m // x.denominator)
                     for k, x in row.items() if x})
    return ech.rank
