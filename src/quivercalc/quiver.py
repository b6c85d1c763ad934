"""Symmetric quivers: the incidence model, the Euler form, and the linking
and unlinking moves that trade an arrow between two vertices for a fresh
vertex."""

from __future__ import annotations

import json
from dataclasses import dataclass


class QuiverFormatError(ValueError):
    """Malformed quiver data; the message names the offending entry."""


def read_json(path):
    """The JSON value in the file at `path`.  Text that is not JSON, or that
    nests too deeply for the parser, raises QuiverFormatError("invalid JSON
    (...)"); the message leaves naming the path to the caller."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise QuiverFormatError(f"invalid JSON ({exc})") from None


def _check_well_formed(vertices, matrix):
    """Raise a QuiverFormatError naming the first offending entry unless the
    labels are distinct nonempty strings and the matrix a square, symmetric
    one of nonnegative ints, in one in-order pass: labels, shape, then each
    row's entries, then symmetry.  An int subclass other than bool (say an
    IntEnum member) counts as an int."""
    n = len(vertices)
    for i, label in enumerate(vertices):
        if not isinstance(label, str) or not label:
            raise QuiverFormatError(f"vertices[{i}] must be a nonempty string")
    if len(set(vertices)) != n:
        raise QuiverFormatError("vertex labels must be distinct")
    if len(matrix) != n:
        raise QuiverFormatError(
            f"matrix has {len(matrix)} rows for {n} vertices")
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise QuiverFormatError(f"matrix[{i}] has {len(row)} entries, expected {n}")
        for j, entry in enumerate(row):
            if entry.__class__ is not int and (
                    not isinstance(entry, int) or isinstance(entry, bool)):
                raise QuiverFormatError(f"matrix[{i}][{j}] is not an integer")
            if entry < 0:
                raise QuiverFormatError(f"matrix[{i}][{j}] is negative")
    if matrix != tuple(zip(*matrix)):
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                    if matrix[i][j] != matrix[j][i])
        raise QuiverFormatError(
            f"matrix[{i}][{j}] != matrix[{j}][{i}] "
            f"({matrix[i][j]} vs {matrix[j][i]})")


@dataclass(frozen=True)
class Quiver:
    """A symmetric quiver: ordered distinct vertex labels and a symmetric
    matrix of nonnegative arrow counts (diagonal entries count loops)."""

    vertices: tuple
    matrix: tuple

    def __post_init__(self):
        vertices = tuple(self.vertices)
        matrix = tuple(tuple(row) for row in self.matrix)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "matrix", matrix)
        _check_well_formed(vertices, matrix)
        # every lru_cache keyed by a quiver hashes it; a label may be
        # unhashable, so the hash is taken only once the data is valid
        object.__setattr__(self, "_hash", hash((vertices, matrix)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so a copy rebuilds its own
        return type(self), (self.vertices, self.matrix)

    def __len__(self):
        return len(self.vertices)

    def index(self, label):
        try:
            return self.vertices.index(label)
        except ValueError:
            raise KeyError(f"unknown vertex {label!r}; have {list(self.vertices)}") from None

    def loops(self, label):
        i = self.index(label)
        return self.matrix[i][i]

    def max_loops(self):
        return max((self.matrix[i][i] for i in range(len(self))), default=0)

    def arrows(self, a, b):
        return self.matrix[self.index(a)][self.index(b)]

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {"vertices": list(self.vertices),
                "matrix": [list(row) for row in self.matrix]}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise QuiverFormatError("quiver JSON must be an object")
        for key in ("vertices", "matrix"):
            if key not in obj:
                raise QuiverFormatError(f"quiver JSON is missing {key!r}")
        vertices = obj["vertices"]
        matrix = obj["matrix"]
        if not isinstance(vertices, list):
            raise QuiverFormatError("'vertices' must be a list of labels")
        if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
            raise QuiverFormatError("'matrix' must be a list of rows")
        return cls(tuple(vertices), tuple(tuple(row) for row in matrix))

    @classmethod
    def load(cls, path):
        return cls.from_json(read_json(path))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=False)
            fh.write("\n")


def euler_form(quiver, d, e):
    """Euler form chi(d, e) = sum_i d_i e_i - sum_{i,j} m_ij d_i e_j, the
    arrow sum running over ordered vertex pairs weighted by arrow counts."""
    n = len(quiver)
    if len(d) != n or len(e) != n:
        raise ValueError("dimension vectors must match the vertex count")
    m = quiver.matrix
    total = 0
    for i in range(n):
        di = d[i]
        total += di * e[i]
        if di:
            row = m[i]
            for j in range(n):
                if row[j] and e[j]:
                    total -= row[j] * di * e[j]
    return total


def euler_quadratic_form(quiver):
    """chi(d, d) as a function of d alone, for evaluating it on many
    degrees: the sum of c d_i d_j over the nonzero (i, j, c) with i <= j,
    c = 1 - m_ii on the diagonal and -2 m_ij off it, found once and kept
    by row i, so a degree visits only the rows of its nonzero entries.
    Unlike euler_form it does not check the length of d."""
    n = len(quiver)
    m = quiver.matrix
    rows = []
    for i in range(n):
        row = tuple((j, c) for j in range(i, n)
                    for c in ((1 - m[i][i]) if i == j else -2 * m[i][j],) if c)
        if row:
            rows.append((i, row))

    def chi(d):
        total = 0
        for i, row in rows:
            di = d[i]
            if di:
                for j, c in row:
                    total += c * di * d[j]
        return total
    return chi


def fresh_label(labels, base):
    """Smallest '<base>#<n>' (n >= 1) not in `labels` (any container)."""
    n = 1
    while f"{base}#{n}" in labels:
        n += 1
    return f"{base}#{n}"


def add_fresh_vertex(m, ia, ib, unlinking):
    """The linking/unlinking update, in place on a list-of-lists matrix: add
    one arrow between a and b (remove one when unlinking) and append a fresh
    vertex wired, with m[a][b] taken before the change and e = 1 when
    unlinking (0 when linking), as

      m[i][new] = m[i][a] + m[i][b]               for i not in {a, b}
      m[a][new] = m[a][a] + m[a][b] - e,   m[b][new] = m[b][b] + m[a][b] - e
      m[new][new] = m[a][a] + m[b][b] + 2 m[a][b] - e
    """
    e = 1 if unlinking else 0
    row = [r[ia] + r[ib] for r in m]
    loop = row[ia] + row[ib] - e
    row[ia] -= e
    row[ib] -= e
    m[ia][ib] += 1 - 2 * e
    m[ib][ia] = m[ia][ib]
    for r, entry in zip(m, row):
        r.append(entry)
    m.append(row + [loop])


def _move(quiver, a, b, unlinking):
    """The body of link and unlink: a fresh vertex '<a>+<b>#<n>', or
    '<a>*<b>#<n>' when unlinking, wired by add_fresh_vertex."""
    op, sep = ("unlink", "*") if unlinking else ("link", "+")
    ia = quiver.index(a)
    ib = quiver.index(b)
    if ia == ib:
        raise ValueError(f"{op} requires two distinct vertices, got {a!r} twice")
    if unlinking and quiver.matrix[ia][ib] < 1:
        raise ValueError(f"unlink requires at least one arrow between {a!r} and {b!r}")
    m = [list(row) for row in quiver.matrix]
    add_fresh_vertex(m, ia, ib, unlinking)
    label = fresh_label(quiver.vertices, f"{a}{sep}{b}")
    return Quiver(quiver.vertices + (label,), tuple(tuple(row) for row in m))


def link(quiver, a, b):
    """Add one arrow between a and b and a fresh vertex '<a>+<b>#<n>' wired
    so the motivic series is preserved under the linking substitution (see
    add_fresh_vertex)."""
    return _move(quiver, a, b, unlinking=False)


def unlink(quiver, a, b):
    """Remove one arrow between a and b (requires at least one) and add a
    fresh vertex '<a>*<b>#<n>' absorbing it (see add_fresh_vertex)."""
    return _move(quiver, a, b, unlinking=True)


def disjoint_union(q1, q2):
    """Block-diagonal union; labels must not clash."""
    clash = set(q1.vertices) & set(q2.vertices)
    if clash:
        raise QuiverFormatError(
            f"vertex labels clash in disjoint union: {sorted(clash)}")
    n1, n2 = len(q1), len(q2)
    rows = []
    for i in range(n1):
        rows.append(tuple(q1.matrix[i]) + (0,) * n2)
    for j in range(n2):
        rows.append((0,) * n1 + tuple(q2.matrix[j]))
    return Quiver(q1.vertices + q2.vertices, tuple(rows))


def one_vertex(loops, label="v"):
    return Quiver((label,), ((loops,),))
