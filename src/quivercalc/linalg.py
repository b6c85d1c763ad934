"""Fraction-free exact row reduction over the integers.

Rows are eliminated by cross-multiplication and re-scaled by their content,
so entries stay integral.  Rows are fed as sparse {column: nonzero int}
dicts (dense sequences are accepted and converted), and pivot rows are
stored the same way, so elimination costs the nonzeros of the two rows
involved rather than the column count.  External vectors, sparse or dense,
are reduced the same way: integer numerators over one common denominator,
visiting only the pivot columns they reach, so rationals appear only in
the result.  Callers that know the column count can stop feeding rows once
the rank reaches it: every further row reduces to zero.  Feeding the
sparsest rows first keeps fill-in low.  The pivot column set is canonical
(it depends only on the row space, not on the feed order), which makes
quotient bases deterministic."""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm


def _content_reduce(row):
    g = 0
    for x in row.values():
        g = gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return {k: x // g for k, x in row.items()}
    return row


class IntegerEchelon:
    """Incremental integer echelon form: feed rows, read off rank, pivot
    columns, and reductions of further vectors modulo the row space."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}  # leading column -> sparse integer row

    def add_row(self, row):
        """Insert one integer row, either a sparse {column: nonzero int} dict,
        which the echelon takes over and may keep or modify, or a dense
        sequence of length ncols; returns True when the rank grew."""
        if not isinstance(row, dict):
            if len(row) != self.ncols:
                raise ValueError("row length mismatch")
            row = {k: row[k] for k in compress(range(self.ncols), row)}
        while row:
            lead = min(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                if row[lead] < 0:
                    row = {k: -x for k, x in row.items()}
                self.pivots[lead] = _content_reduce(row)
                return True
            a = pivot[lead]
            b = row[lead]
            if a != 1:
                row = {k: a * x for k, x in row.items()}
            for k, p in pivot.items():
                x = row.get(k, 0) - b * p
                if x:
                    row[k] = x
                else:
                    del row[k]
            row = _content_reduce(row)
        return False

    @property
    def rank(self):
        return len(self.pivots)

    def pivot_columns(self):
        return sorted(self.pivots)

    def reduce_vector(self, vec):
        """Eliminate all pivot columns from vec; the result is the canonical
        representative supported on non-pivot columns, with ints where a
        value is integral and Fractions elsewhere.

        vec is a sparse {column: int or Fraction} dict, answered by a dict of
        the nonzero results, or a dense sequence of length ncols, answered by
        a list.  Denominators are cleared once; the pivot columns the vector
        reaches are then visited in increasing order from a heap, each step
        scaling the integer numerators and their common denominator by the
        pivot's reduced leading entry."""
        dense = not isinstance(vec, dict)
        if dense:
            if len(vec) != self.ncols:
                raise ValueError("vector length mismatch")
            vec = dict(enumerate(vec))
        den = lcm(*(x.denominator for x in vec.values()))
        num = {k: x.numerator * (den // x.denominator)
               for k, x in vec.items() if x}
        pivots = self.pivots
        heap = [k for k in num if k in pivots]
        heapify(heap)
        while heap:
            # a column queued twice or cancelled is absent by its turn
            col = heappop(heap)
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
                        heappush(heap, k)
                elif x != c * p:
                    num[k] = x - c * p
                else:
                    del num[k]
        out = {k: x // den if x % den == 0 else Fraction(x, den)
               for k, x in num.items()}
        if not dense:
            return out
        vec = [0] * self.ncols
        for k, x in out.items():
            vec[k] = x
        return vec


def rank_of_rows(rows, ncols):
    """Exact rank of a matrix given as dense rows of ints or Fractions; each
    row is cleared of denominators and fed sparse."""
    ech = IntegerEchelon(ncols)
    for row in rows:
        if len(row) != ncols:
            raise ValueError("row length mismatch")
        m = lcm(*(x.denominator for x in row))
        ech.add_row({k: x.numerator * (m // x.denominator)
                     for k, x in enumerate(row) if x})
    return ech.rank
