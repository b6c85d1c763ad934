"""Fraction-free exact row reduction over the integers.

Rows are eliminated by cross-multiplication and re-scaled by their content,
so entries stay integral; rationals appear only when reducing an external
vector against the computed pivots.  Rows are fed as sparse
{column: nonzero int} dicts (dense sequences are accepted and converted),
and pivot rows are stored the same way, so elimination costs the nonzeros
of the two rows involved rather than the column count.  Callers that know
the column count can stop feeding rows once the rank reaches it: every
further row reduces to zero.  Feeding the sparsest rows first keeps
fill-in low.  The pivot column set is canonical (it depends only on the
row space, not on the feed order), which makes quotient bases
deterministic."""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd


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
        """Eliminate all pivot columns from vec (entries may become
        Fractions); the result is the canonical representative supported on
        non-pivot columns."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        vec = list(vec)
        for col in sorted(self.pivots):
            c = vec[col]
            if c:
                pivot = self.pivots[col]
                factor = Fraction(c, pivot[col])
                for k, p in pivot.items():
                    vec[k] -= factor * p
        return vec


def rank_of_rows(rows, ncols):
    """Exact rank of a matrix given as rows of ints or Fractions."""
    ech = IntegerEchelon(ncols)
    for row in rows:
        denoms = [x.denominator for x in row if isinstance(x, Fraction)]
        if denoms:
            m = 1
            for dnm in denoms:
                m = m * dnm // gcd(m, dnm)
            row = [int(x * m) for x in row]
        else:
            row = [int(x) for x in row]
        ech.add_row(row)
    return ech.rank
