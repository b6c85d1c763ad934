"""The quadratic supercommutative algebra attached to a symmetric quiver.

Generators g(i, k) for each vertex i and integer k >= 0 carry bidegree
(alpha_i, -2k - m_ii) and parity m_ii mod 2 (odd generators anticommute and
square to zero).  Writing e_i(z) = sum_k g(i, k) z^k, the defining relations
are the coefficients of

    e_i(z) * (d/dz)^p e_j(z) = 0        for p < m_ij,  i <= j.

They span the same quadratic subspace as the extended system
e_i^(p) e_j^(q) = (d/dz)^p e_i * (d/dz)^q e_j, p + q < m_ij.  By the Leibniz
rule e_i^(p+1) e_j^(q) = d(e_i^(p) e_j^(q)) - e_i^(p) e_j^(q+1), and the z^n
coefficient of df is (n + 1) f_(n+1), in the same bidegree; so induction on
p puts every extended coefficient into the span of the one-sided ones
(checked in rank by the test suite).  Of the rows w f_j, w a complement
monomial, the relation matrix leaves out those whose w is divisible by the
leading monomial of a relation f_i built before f_j: the Koszul syzygies
f_i f_j = +-f_j f_i put them in the span of the others (the syzygy
criterion of F5; see relation_rows).  Components are indexed by a
dimension vector d and a homological degree h; their exact dimensions come
from fraction-free row reduction of the relation matrix, and independently
from a functional realization whose Hilbert series is a restricted
partition product.  The unlinking move induces a differential on the
algebra of the unlinked quiver, which sends each star generator to a
coefficient of the relation e_a(z) (d^(m_ab - 1) e_b)(z) that the unlinked
quiver lacks; its homology recovers the original algebra's dimensions;
both statements are implemented as exact checks."""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, perm
from operator import add

from .linalg import IntegerEchelon, rank_of_rows
from .quiver import link, unlink
from .report import (VerificationReport, degree_coverage, degree_mismatch,
                     inconclusive_mismatches, inconclusive_unless)
from .series import (MultiSeries, TruncatedLaurent, iter_multidegrees,
                     partition_product_coeffs)
from .motivic import default_window, motivic_series

# A generator is the tuple (vertex index, k), one shared tuple object per
# generator within a basis (see _generator_row); monomials are tuples of
# generators sorted by that key, which is the canonical basis order.


def generator_parity(quiver, vertex):
    return quiver.matrix[vertex][vertex] & 1


def normalize_word(word, parities):
    """Sort a generator word into canonical order, tracking the Koszul sign.

    Returns (sign, monomial) or None when the word vanishes (a repeated odd
    generator).  parities[v] is the parity of every generator at vertex v.
    Even generators commute with everything, so the sign is the parity of
    the inversions among the odd generators alone."""
    odd = [g for g in word if parities[g[0]]]
    sign = 1
    for a in range(len(odd)):
        x = odd[a]
        for y in odd[a + 1:]:
            if x > y:
                sign = -sign
            elif x == y:
                return None
    return sign, tuple(sorted(word))


def loop_weight(quiver, degree):
    """m.d = sum_i m_ii d_i: a component of degree d sits at homological
    degree -m.d - 2s, s its total k-weight."""
    return sum(quiver.matrix[i][i] * degree[i] for i in range(len(quiver)))


def _k_budget(quiver, degree, hdeg):
    """Total k-weight forced by (degree, hdeg), or None when the component
    is empty for parity/positivity reasons."""
    s2 = -hdeg - loop_weight(quiver, degree)
    if s2 < 0 or s2 % 2:
        return None
    return s2 // 2


def _level_tuples(count, total, strict):
    """Nondecreasing (strictly increasing when strict) k-tuples of the given
    length and sum, in lexicographic order."""
    # a strictly increasing tuple is a nondecreasing one plus 0, 1, ..., count - 1
    stair = tuple(range(count)) if strict else (0,) * count
    total -= sum(stair)
    if count == 0 or total < 0:
        return ((),) if total == 0 else ()
    levels = [0] * (count - 1) + [total]
    out = []
    while True:
        out.append(tuple(map(add, levels, stair)))
        # the next tuple raises the last entry that can rise by one and still
        # be followed by a nondecreasing tail: the raised value repeated, and
        # what is left of the sum at the end
        rest = levels[-1]
        for i in range(count - 2, -1, -1):
            rest += levels[i]  # the sum of levels[i:]
            k = levels[i] + 1
            if rest >= (count - i) * k:
                levels[i:] = [k] * (count - 1 - i) + [rest - (count - 1 - i) * k]
                break
        else:
            return tuple(out)


def component_basis(quiver, degree, hdeg):
    """Monomial basis of the free supercommutative layer in one bidegree:
    all canonical generator words with degree[i] generators at vertex i and
    total homological degree hdeg, as a fresh list in canonical order."""
    degree = _checked_degree(quiver, degree)
    budget = _k_budget(quiver, degree, hdeg)
    return [] if budget is None else _basis_monomials(quiver, degree, budget)


def _checked_degree(quiver, degree):
    """degree as a tuple; ValueError unless it is a dimension vector of
    quiver (one entry per vertex, none negative)."""
    degree = tuple(degree)
    if len(degree) != len(quiver.vertices) or (degree and min(degree) < 0):
        raise ValueError(f"bad dimension vector {degree}")
    return degree


@lru_cache(maxsize=256)
def _generator_row(vertex, top):
    """The generators (vertex, 0), ..., (vertex, top), indexed by level.  A
    row is a prefix of the row of the least top' = 2^n - 1 >= top, and that
    row extends the row of top' // 2, so the rows of a vertex share their
    generators: equal generators are one object in every word table and
    basis, not a tuple per monomial."""
    full = (1 << top.bit_length()) - 1
    if top < full:
        return _generator_row(vertex, full)[:top + 1]
    below = _generator_row(vertex, top >> 1) if top else ()
    return below + tuple((vertex, k) for k in range(len(below), top + 1))


@lru_cache(maxsize=4096)
def _vertex_words(vertex, count, share, parity):
    """The canonical words of `count` generators at `vertex` of total level
    `share`, of distinct generators when the vertex is odd, in
    lexicographic order, over _generator_row(vertex, share): every basis
    reads a vertex's words here rather than building them for its own
    (quiver, degree, budget)."""
    row = _generator_row(vertex, share)
    return tuple(tuple(map(row.__getitem__, levels))
                 for levels in _level_tuples(count, share, parity))


def _basis_monomials(quiver, degree, budget):
    """The enumeration behind component_basis at total k-weight `budget`, as
    a fresh sorted list."""
    used = [i for i in range(len(quiver)) if degree[i]]
    # remaining k-weight -> canonical prefixes over the vertices so far
    partial = {budget: [()]}
    for pos, i in enumerate(used):
        parity = generator_parity(quiver, i)
        last = pos == len(used) - 1
        grown = {}
        for remaining, prefixes in partial.items():
            # the last vertex takes whatever k-weight is left
            for share in (remaining,) if last else range(remaining + 1):
                tails = _vertex_words(i, degree[i], share, parity)
                if tails:
                    grown.setdefault(remaining - share, []).extend(
                        p + t for p in prefixes for t in tails)
        partial = grown
    return sorted(partial.get(0, ()))


def _fitting_pairs(quiver, degree):
    """The vertex pairs i <= j with arrows that fit the degree, in build
    order (lexicographic): d_i, d_j >= 1 for i != j, d_i >= 2 for a loop
    pair i = j."""
    m = quiver.matrix
    support = [v for v in range(len(m)) if degree[v]]
    return [(i, j) for x, i in enumerate(support) for j in support[x:]
            if m[i][j] and (i != j or degree[i] >= 2)]


def _loop_divisor(gens, loops, odd):
    """(p, total), least in that order, of the relations e_i(z) (d^p e_i)(z)
    of a vertex with `loops` loops whose leading monomial divides a monomial
    with the generators `gens` (two or more, in canonical order) at that
    vertex; None when there is none.  An odd vertex has loops >= 3 here:
    with one loop, e_i(z) e_i(z) = 0.

    The terms of the coefficient of level sum t are the pairs {t - b, b},
    b >= p, and the leading one is the most balanced pair that survives
    merging.  For an even vertex that is {a, c}, c = max(p, ceil(t / 2)):
    a pair with c - a <= 1 leads p = 0, and an unbalanced one leads only
    p = c.  Odd generators square to zero and the two orders of a pair
    cancel at p = 0, so for an odd vertex (p >= 1) it is {a, c}, a < c,
    c = max(p, floor(t / 2) + 1): a pair with c - a <= 2 leads p = 1, and
    an unbalanced one only p = c.  A close pair of least sum is two
    neighbouring generators, and every other pair has c >= gens[1]'s."""
    for (_, a), (_, c) in zip(gens, gens[1:]):
        if c - a <= 1 + odd:
            return odd, a + c
    a, c = gens[0][1], gens[1][1]
    return (c, a + c) if c < loops else None


def _code_fields(n, degree, budget, width):
    """{generator: its code} for every generator (v, k) with degree[v] > 0
    and k <= budget of an n-vertex quiver: the lowest bit of the bit field,
    `width` bits wide, that starts at bit (k * n + v) * width.  The layout
    depends on the quiver and the width alone, not on the budget, so a
    complement's code is the same for every component that uses it at that
    width (see relation_rows)."""
    return {g: 1 << ((g[1] * n + v) * width)
            for v in range(n) if degree[v] for g in _generator_row(v, budget)}


@lru_cache(maxsize=1024)
def _complement_basis(quiver, degree, budget, width):
    """(codes, odds, firsts) over _basis_monomials(quiver, degree, budget),
    as parallel tuples: each monomial w's code in fields `width` bits wide
    (_code_fields), its odd generators in canonical order, and F(w), the
    least build key (i, j, p, t) of a relation whose leading monomial
    divides w, and (n,), above every key of a quiver with n vertices, when
    there is none; firsts is empty when no w has one.  Equal keys are one
    tuple within a basis.  relation_rows reads every complement basis here,
    for every larger component it serves; the monomials themselves are not
    kept, since no row reads them.

    The leading monomial of a relation of a pair i < j is
    g(i, t - p) g(j, p), so that pair's least divisor of w is read off the
    lowest generators of i and j in w; _loop_divisor gives a loop pair's.
    w holds degree[v] generators at each vertex v, in vertex order, so
    each vertex's generators sit at fixed positions."""
    monomials = _basis_monomials(quiver, degree, budget)
    if not monomials:
        return (), (), ()
    n = len(quiver)
    field = _code_fields(n, degree, budget, width)
    codes = tuple(sum(map(field.__getitem__, w)) for w in monomials)
    parities = [generator_parity(quiver, v) for v in range(n)]
    if any(parities[v] for v in range(n) if degree[v]):
        odds = tuple(tuple(g for g in w if parities[g[0]]) for w in monomials)
    else:
        odds = ((),) * len(monomials)
    m = quiver.matrix
    start = list(accumulate(degree, initial=0))
    # (i, j, position of i's lowest generator, of j's for i < j or past
    # i's for a loop pair, arrows, None for i < j or the loop vertex's
    # parity); a vertex with one loop is odd, and e_i(z) e_i(z) = 0 there
    checks = [(i, j, start[i], start[j], m[i][j], None) if i != j
              else (i, i, start[i], start[i + 1], m[i][i], parities[i])
              for i, j in _fitting_pairs(quiver, degree) if i != j or m[i][i] > 1]
    if not checks:
        return codes, odds, ()
    keys = {}
    none = (n,)

    def first(w):
        for i, j, lo, hi, arrows, odd in checks:
            if odd is None:
                p = w[hi][1]
                lead = (p, w[lo][1] + p) if p < arrows else None
            else:
                lead = _loop_divisor(w[lo:hi], arrows, odd)
            if lead:
                key = (i, j) + lead
                return keys.setdefault(key, key)
        return none

    firsts = tuple(map(first, monomials))
    return codes, odds, firsts if min(firsts) < none else ()


def _kept_complements(complements, firsts, key):
    """The complements whose rows the relation of build key `key` builds,
    as a list: those w with F(w) >= key, F(w) given in `firsts`.  A row
    w f with F(w) < key lies in the span of the rows built (see
    relation_rows)."""
    return [c for c, first in zip(complements, firsts) if first >= key]


@lru_cache(maxsize=1024)
def _relation_terms(i, j, p, total, odd_i, odd_j):
    """The terms (c, ga, gb) of the z^total coefficient of
    e_i(z) (d^p e_j)(z), as a tuple: the sum over b >= p of
    perm(b, p) g(i, total - b) g(j, b), odd_i and odd_j the parities of i
    and j.  relation_rows builds its rows from these terms, and
    unlink_differential sends a star generator to them.

    Even generators commute with everything, so the Koszul sign counts only
    odd transpositions.  Each term's pair is put in canonical order
    (ga <= gb), with the sign of its transposition when both generators are
    odd; a repeated odd generator vanishes.  The pairs that name one
    monomial (b and total - b in a loop pair i = j) then add up, and a sum
    that cancels is dropped, so no two terms name one monomial.  Terms come
    in the order of their first b."""
    row_i, row_j = _generator_row(i, total), _generator_row(j, total)
    merged = {}
    for b in range(p, total + 1):
        ga, gb, c = row_i[total - b], row_j[b], perm(b, p)
        if gb < ga:
            ga, gb = gb, ga
            if odd_i and odd_j:
                c = -c
        elif ga == gb and odd_i:
            continue  # an odd generator squared
        merged[ga, gb] = merged.get((ga, gb), 0) + c
    return tuple((c, ga, gb) for (ga, gb), c in merged.items() if c)


def relation_rows(quiver, degree, hdeg):
    """Rows of the relation matrix in one bidegree, over component_basis.

    Every coefficient of every relation series e_i(z) (d^p e_j)(z),
    p < m_ij and i <= j, multiplied by every complementary basis monomial
    of the right bidegree, is expanded into canonical monomials: the
    coefficient of level sum `total` has the terms _relation_terms(i, j,
    p, total, ...).  The extended series (d^p e_i)(d^q e_j), p + q < m_ij,
    add no row to the span (see the module docstring), and the quotient
    basis and every reduction depend only on that span.  Each row is a
    sparse {basis position: nonzero int} dict; rows that cancel to zero are
    dropped.  Rows come in build order (vertex pair, derivative order,
    relation degree, complement), as a list.  A pair fits the degree when
    it leaves a complement: d_i, d_j >= 1 for i != j, d_i >= 2 for a loop
    pair i = j; when no pair with m_ij > 0 fits, the list is empty and
    nothing else is built.

    A term g(i, a) g(j, b) w, with w a canonical complement monomial, is
    looked up by an additive integer code.  With n the quiver's vertex
    count and width = max(degree).bit_length(), generator (v, k) owns the
    bit field that starts at bit (k * n + v) * width (_code_fields), and a
    monomial's code sums that field's lowest bit over its generators: each
    field holds that generator's multiplicity.  In a monomial with at most
    degree[v] generators at each vertex v, a multiplicity never exceeds
    degree[v] < 2 ** width, so no field carries into the next; the code
    gives back every multiplicity, hence the canonical monomial, so it is
    injective.  The layout does not depend on the component's k-weight
    budget, so a complement basis keeps its codes, with its odd generators
    and F(w), in the one basis cache (_complement_basis), keyed by the
    width of the component it serves; the component's own basis is
    enumerated here, uncached, and indexed by code in the same layout.  The
    code is additive, so the code of g(i, a) g(j, b) w is w's code plus the
    pair's code, computed once per relation term, and each term costs one
    dict lookup.  No two terms of a coefficient name one monomial, so none
    meet in a row.  For each odd generator of a term's pair, the odd
    generators of w below it add one transposition each (a bisection into
    w's odd generators), and the term vanishes when the generator occurs in
    w.

    A row that the Koszul syzygies f_i f_j = +-f_j f_i make redundant is not
    built: this is the syzygy criterion of Faugere's F5 ("A new efficient
    algorithm for computing Groebner bases without reduction to zero",
    ISSAC 2002).  Relations come in build order, their keys (i, j, p,
    total) compared lexicographically.  A relation's leading monomial is
    its highest column: g(i, total - p) g(j, p), of coefficient p!, for
    i < j, and for a loop pair the most balanced pair that survives merging
    (_loop_divisor).  F(w) is the least key of a relation whose leading
    monomial divides w, which depends only on the quiver and w
    (_complement_basis), and the row of relation r and complement w is
    built iff F(w) >= key(r) (_kept_complements).  A skipped row lies in
    the span of the built ones.  Say f_i comes before f_j, its leading
    monomial L divides w = +-L w'', its leading coefficient is c and
    T_i = f_i - c L.  Then c w f_j = +-f_i (w'' f_j) -+ T_i w'' f_j.  The
    first term is a combination of rows of f_i.  The canonical order puts
    first the monomial with more of the lowest generator where two differ,
    so it is multiplicative; every monomial t of T_i is below L, so the
    second term is a combination of rows of f_j whose complements t w''
    come before w, and a product with an odd generator twice drops out.
    Induction on the key, then on w, puts every skipped row in the span of
    the built rows, so the span, the quotient basis, every reduction and
    every dimension stay as they are with the whole system."""
    basis = component_basis(quiver, degree, hdeg)
    m = quiver.matrix
    pairs = _fitting_pairs(quiver, degree)
    if not basis or not pairs:
        return [], basis
    parities = tuple(generator_parity(quiver, v) for v in range(len(quiver)))
    budget = _k_budget(quiver, degree, hdeg)
    width = max(degree).bit_length()
    field = _code_fields(len(quiver), degree, budget, width)
    index = {sum(map(field.__getitem__, mon)): t for t, mon in enumerate(basis)}
    rows = []
    for i, j in pairs:
        comp_degree = list(degree)
        comp_degree[i] -= 1
        comp_degree[j] -= 1
        comp_degree = tuple(comp_degree)
        odd_i, odd_j = parities[i], parities[j]
        # complements of the relation coefficients of level sum `total`
        # (generator levels a + b = total), of k-weight budget - total
        bases = [_complement_basis(quiver, comp_degree, budget - total, width)
                 for total in range(budget + 1)]
        for p in range(m[i][j]):
            for total in range(p, budget + 1):
                codes, odds, firsts = bases[total]
                if not codes:
                    continue
                built = zip(codes, odds)
                if firsts:
                    built = _kept_complements(built, firsts, (i, j, p, total))
                    if not built:
                        continue
                # each term with the code of its pair
                terms = [(c, ga, gb, field[ga] + field[gb])
                         for c, ga, gb in _relation_terms(i, j, p, total, odd_i, odd_j)]
                if not terms:
                    continue
                # signs from w's odd generators, and terms that vanish in it;
                # a pair with no odd vertex skips both
                for cw, odd in built:
                    row = {}
                    for c, ga, gb, pair in terms:
                        if odd_i:
                            x = bisect_left(odd, ga)
                            if x < len(odd) and odd[x] == ga:
                                continue
                            if x & 1:
                                c = -c
                        if odd_j:
                            x = bisect_left(odd, gb)
                            if x < len(odd) and odd[x] == gb:
                                continue
                            if x & 1:
                                c = -c
                        row[index[cw + pair]] = c
                    if row:
                        rows.append(row)
    return rows, basis


class AlgebraComponent:
    """One (degree, hdeg) component: monomial basis, echelonized relations,
    quotient basis (non-pivot monomials), and exact dimension.  The
    {monomial: basis position} index and the quotient coordinates of the
    non-pivot positions are built on the first reduce, since only the
    targets of the unlinking differential are ever reduced.  A zero quotient
    (dim == 0) keeps no echelon: every combination reduces to {}, so its
    pivot rows are dropped once the dimension is known."""

    def __init__(self, quiver, degree, hdeg):
        rows, basis = relation_rows(quiver, tuple(degree), hdeg)
        self.basis = basis
        self.echelon = IntegerEchelon()
        # sparsest rows first (the pivot order of structured Gaussian
        # elimination) keeps fill-in low; the pivot columns and reductions
        # depend only on the row space, not on the feed order.  Rows are
        # popped off the reversed list as they are fed, so a row that does
        # not become a pivot is freed at once; at full rank every further
        # row reduces to zero
        rows.sort(key=len)
        rows.reverse()
        while rows and self.echelon.rank < len(basis):
            self.echelon.add_row(rows.pop())
        pivots = self.echelon.pivots
        self.quotient_basis = [mon for t, mon in enumerate(basis) if t not in pivots]
        self.dim = len(self.quotient_basis)
        if not self.dim:
            self.echelon = None

    @cached_property
    def index(self):
        return {mon: t for t, mon in enumerate(self.basis)}

    @cached_property
    def quotient_index(self):
        """Basis position of each non-pivot monomial -> its quotient
        coordinate."""
        index = self.index
        return {index[mon]: j for j, mon in enumerate(self.quotient_basis)}

    def reduce(self, combo):
        """Quotient coordinates of a linear combination of monomials, given
        as a dict monomial -> int coefficient, as a sparse {quotient
        coordinate: nonzero value} dict; empty when the combination lies in
        the span of the relations."""
        if not self.dim:
            return {}
        index = self.index
        vec = {}
        for mon, c in combo.items():
            t = index[mon]
            vec[t] = vec.get(t, 0) + c
        coordinate = self.quotient_index
        return {coordinate[t]: x
                for t, x in self.echelon.reduce_vector(vec).items()}


@lru_cache(maxsize=2048)
def _cached_component(quiver, degree, hdeg):
    return AlgebraComponent(quiver, degree, hdeg)


def algebra_component(quiver, degree, hdeg):
    """Component constructor behind a bounded cache of the most recently
    used 2048 components, with their pivot rows, for callers that reduce
    into them (unlink_differential).  Callers that only read the dimension
    use component_dimension, which keeps no component."""
    return _cached_component(quiver, tuple(degree), hdeg)


@lru_cache(maxsize=4096)
def _cached_dimension(quiver, degree, hdeg):
    return AlgebraComponent(quiver, degree, hdeg).dim


def component_dimension(quiver, degree, hdeg):
    """Exact dimension: monomial count minus relation rank.  The component
    is built, read and let go; only the int is kept, behind a bounded cache
    of the most recently used 4096 dimensions."""
    return _cached_dimension(quiver, tuple(degree), hdeg)


def functional_dimension(quiver, degree, hdeg):
    """Dimension by the functional realization: the component's dual is
    F_d * Lambda_d with F_d the product of (z_{i,r} - z_{i,r'})^{m_ii} and
    (z_{i,r} - z_{j,s})^{m_ij} factors, Lambda_d the multisymmetric
    polynomials; so the dimension is the coefficient of t^(s - deg F_d) in
    prod_i prod_{r=1..d_i} 1/(1 - t^r), with s the forced total k-weight."""
    degree = _checked_degree(quiver, degree)
    s = _k_budget(quiver, degree, hdeg)
    if s is None:
        return 0
    parts, deg_f = _functional_layout(quiver, degree)
    target = s - deg_f
    if target < 0:
        return 0
    return partition_product_coeffs(parts, target)[target]


def _functional_layout(quiver, degree):
    """(parts, deg F_d) of the functional realization of degree d: the
    dimension at k-weight s is the coefficient of t^(s - deg F_d) in the
    product of 1/(1 - t^r) over the sorted parts r = 1..d_i of every i.
    Only vertices with d_i > 0 contribute, so only their pairs are visited."""
    m = quiver.matrix
    support = [i for i in range(len(quiver)) if degree[i]]
    deg_f = 0
    for x, i in enumerate(support):
        deg_f += m[i][i] * comb(degree[i], 2)
        for j in support[x + 1:]:
            deg_f += m[i][j] * degree[i] * degree[j]
    parts = tuple(sorted(r for i in support for r in range(1, degree[i] + 1)))
    return parts, deg_f


# -- series-level check -------------------------------------------------------

def poincare_check(quiver, order, window=None):
    """Check A_Q(x, q) = P(A, q^(1/2) x, q) where P is the bigraded Poincare
    series of the algebra, i.e. per dimension vector d:

        coeff_d(A_Q) = (-1)^(m.d) sum_s dim(d, -m.d - 2s) t^(|d| + m.d + 2s)

    with dimensions from the functional realization, exactly on the window.
    The details count the degrees 0 < |d| <= order compared and those whose
    left-hand coefficient is nonzero on the window."""
    if window is None:
        window = default_window(order, quiver.max_loops())
    wlo, whi = window
    lhs = motivic_series(quiver, order, window)
    rhs = _poincare_series(quiver, order, window)
    coverage = degree_coverage(lhs)
    mismatches = ([degree_mismatch(*m) for m in lhs.first_mismatches(rhs)]
                  + inconclusive_mismatches(coverage, window))
    return VerificationReport(
        name="poincare-series-identity",
        parameters={"quiver": quiver.to_json(), "order": order,
                    "window": [wlo, whi]},
        mismatches=mismatches,
        details=coverage,
    )


def _poincare_series(quiver, order, window):
    """The right-hand side of poincare_check.  Every level s of a degree is
    read from one partition product, taken up to the highest level the
    window reaches."""
    wlo, whi = window
    terms = {}
    for d in iter_multidegrees(len(quiver), order):
        weight = loop_weight(quiver, d)
        base = sum(d) + weight
        sign = -1 if weight % 2 else 1
        parts, deg_f = _functional_layout(quiver, d)
        # level s sits at t^(base + 2s) and has dimension counts[s - deg_f]
        top = (whi - base) // 2 - deg_f
        counts = partition_product_coeffs(parts, top) if top >= 0 else ()
        coeffs = {base + 2 * (deg_f + j): sign * c for j, c in enumerate(counts) if c}
        terms[d] = TruncatedLaurent(coeffs, min(wlo, base), whi)
    return MultiSeries._trusted(quiver.vertices, order, (wlo, whi), terms)


_NOTHING_COMPARED = ("every dimension with |d| >= 1 in range is zero; only the "
                     "unit component was compared")


def gr_linking_check(quiver, a, b, bound, s_max=8):
    """Check that bigraded dimensions match across linking: for every
    dimension vector d with |d| <= bound and every feasible h,

        dim A_Q(d, h) = sum over d' of A_link(Q)(d', h)

    where d' runs over vectors of the linked quiver collapsing to d under
    alpha_new -> alpha_a + alpha_b.  Both sides use functional_dimension;
    the left side's slices with |d| <= 2, s <= 3 are re-validated against
    the relation-rank dimension.  The details count the components compared
    and those with |d| >= 1 where some side is nonzero; the check is
    inconclusive when there is none."""
    linked = link(quiver, a, b)
    ia = quiver.index(a)
    ib = quiver.index(b)
    n = len(quiver)
    mismatches = []
    checked = 0
    spot_checked = 0
    nonzero = 0
    for d in iter_multidegrees(n, bound):
        for s in range(s_max + 1):
            h = -loop_weight(quiver, d) - 2 * s
            lhs = functional_dimension(quiver, d, h)
            rhs = 0
            contributions = []
            for j in range(min(d[ia], d[ib]) + 1):
                dprime = _uncollapsed_degree(d, ia, ib, j)
                f = functional_dimension(linked, dprime, h)
                rhs += f
                if f:
                    contributions.append({"degree": list(dprime), "dim": f})
            checked += 1
            nonzero += bool(sum(d) and (lhs or rhs))
            if lhs != rhs:
                mismatches.append({"degree": list(d), "hdeg": h,
                                   "lhs": str(lhs), "rhs": str(rhs),
                                   "rhs_contributions": contributions})
            if sum(d) <= 2 and s <= 3:
                spot_checked += 1
                rank_lhs = component_dimension(quiver, d, h)
                if rank_lhs != lhs:
                    mismatches.append({
                        "degree": list(d), "hdeg": h, "kind": "oracle",
                        "lhs": f"rank dimension {rank_lhs}",
                        "rhs": f"functional dimension {lhs}"})
    mismatches += inconclusive_unless(nonzero, _NOTHING_COMPARED)
    return VerificationReport(
        name="gr-linking-identity",
        parameters={"quiver": quiver.to_json(), "pair": [a, b], "bound": bound,
                    "s_max": s_max},
        mismatches=mismatches,
        details={"components_checked": checked, "components_nonzero": nonzero,
                 "spot_checked": spot_checked, "linked_quiver": linked.to_json()},
    )


# -- the unlinking differential ------------------------------------------------

class DifferentialBlock:
    """The unlinking differential restricted to one star-count slice, as an
    exact sparse matrix from the c-slice quotient basis to the (c-1)-slice
    one: columns[j] is the image of source quotient coordinate j, as a
    {target quotient coordinate: nonzero value} dict, so source_dim is the
    column count; target_dim is the dimension of the (c-1)-slice."""

    def __init__(self, columns, target_dim):
        self.columns = columns
        self.source_dim = len(columns)
        self.target_dim = target_dim

    def rank(self):
        # column rank equals rank; a zero block skips the echelon
        return rank_of_rows(self.columns) if any(self.columns) else 0

    def compose_is_zero(self, next_block):
        """True when self . next_block = 0 (next_block feeds this block)."""
        if next_block.target_dim != self.source_dim:
            raise ValueError("blocks are not composable")
        for mid in next_block.columns:
            image = {}
            for k, x in mid.items():
                for row, y in self.columns[k].items():
                    image[row] = image.get(row, 0) + x * y
            if any(image.values()):
                return False
        return True


def _uncollapsed_degree(degree, ia, ib, c):
    """The vector with c at the fresh vertex that collapses onto `degree`
    under alpha_new -> alpha_a + alpha_b."""
    dd = list(degree)
    dd[ia] -= c
    dd[ib] -= c
    if dd[ia] < 0 or dd[ib] < 0:
        raise ValueError(
            f"star count {c} exceeds min(d_a, d_b) for degree {tuple(degree)}")
    return tuple(dd) + (c,)


@lru_cache(maxsize=64)
def _unlinked(quiver, a, b):
    """unlink(quiver, a, b) and the parity of each of its vertices, built
    once for every block of a homology check rather than once per block.
    unlink rejects a pair without an arrow before any block is built."""
    unlinked = unlink(quiver, a, b)
    return unlinked, tuple(generator_parity(unlinked, v)
                           for v in range(len(unlinked)))


def unlink_differential(quiver, a, b, degree, big_h, c):
    """Differential block on the unlinked quiver's algebra.

    degree is a dimension vector of the ORIGINAL quiver (the star direction
    is collapsed back onto a and b); big_h = h + c is the differential-
    invariant homological grading; c counts star generators.  The block maps
    the (degree, big_h, c) quotient component to the c-1 one.  It sends a
    star generator g(star, k) to the z^(k + m_ab - 1) coefficient of
    e_a(z) (d^(m_ab - 1) e_b)(z), m_ab taken in the original quiver: the
    relation that the unlinked quiver lacks, with the terms of
    _relation_terms.  It extends as an odd derivation; each term is spliced
    in place of the star generator and put in canonical order by
    normalize_word."""
    ia = quiver.index(a)
    ib = quiver.index(b)
    m_ab = quiver.matrix[ia][ib]
    unlinked, parities = _unlinked(quiver, a, b)
    if c < 0:
        raise ValueError("star count must be >= 0")
    star = len(unlinked) - 1
    src_degree = _uncollapsed_degree(degree, ia, ib, c)
    source = algebra_component(unlinked, src_degree, big_h - c)
    if c == 0:
        return DifferentialBlock([{} for _ in range(source.dim)], 0)
    tgt_degree = _uncollapsed_degree(degree, ia, ib, c - 1)
    target = algebra_component(unlinked, tgt_degree, big_h - c + 1)
    p = m_ab - 1
    odd_a, odd_b = parities[ia], parities[ib]
    columns = []
    for mon in source.quotient_basis:
        image = {}
        prefix_parity = 0
        for pos, (v, k) in enumerate(mon):
            if v == star:
                for coeff, ga, gb in _relation_terms(ia, ib, p, k + p, odd_a, odd_b):
                    nf = normalize_word(mon[:pos] + (ga, gb) + mon[pos + 1:], parities)
                    if nf is None:
                        continue
                    sign, w = nf
                    val = sign * coeff * (-1 if prefix_parity else 1)
                    image[w] = image.get(w, 0) + val
            prefix_parity ^= parities[v]
        columns.append(target.reduce(image))
    return DifferentialBlock(columns, target.dim)


def homology_check(quiver, a, b, bound, s_max=8):
    """Check that the unlinking differential's homology recovers the original
    algebra: for every collapsed dimension vector d with |d| <= bound and
    every feasible invariant grading H,

        dim H_0 = dim A_Q(d, H)   and   dim H_c = 0 for c >= 1,

    with dim H_c = dim C_c - rank(d_c) - rank(d_{c+1}); also asserts that all
    consecutive blocks compose to zero.  The details count the (d, H, c)
    components compared and those with |d| >= 1 where C_c or the expected
    dimension is nonzero; the check is inconclusive when there is none."""
    ia = quiver.index(a)
    ib = quiver.index(b)
    unlinked, _ = _unlinked(quiver, a, b)
    n = len(quiver)
    mismatches = []
    components = 0
    blocks_composed = 0
    nonzero = 0
    for d in iter_multidegrees(n, bound):
        cmax = min(d[ia], d[ib])
        weight = loop_weight(quiver, d)
        for s in range(s_max + 1):
            big_h = -weight - 2 * s
            blocks = [unlink_differential(quiver, a, b, d, big_h, c)
                      for c in range(cmax + 1)]
            dims = [b_.source_dim for b_ in blocks]
            ranks = [b_.rank() for b_ in blocks] + [0]
            for c in range(1, cmax):
                blocks_composed += 1
                if not blocks[c].compose_is_zero(blocks[c + 1]):
                    mismatches.append({"degree": list(d), "H": big_h, "c": c,
                                       "kind": "nonzero composition"})
            expected0 = component_dimension(quiver, d, big_h)
            for c in range(cmax + 1):
                components += 1
                hom = dims[c] - ranks[c] - ranks[c + 1]
                want = expected0 if c == 0 else 0
                nonzero += bool(sum(d) and (dims[c] or want))
                if hom != want:
                    mismatches.append({
                        "degree": list(d), "H": big_h, "c": c,
                        "lhs": f"homology dimension {hom}",
                        "rhs": f"expected {want}",
                        "chain_dims": dims, "ranks": ranks[:-1]})
    mismatches += inconclusive_unless(nonzero, _NOTHING_COMPARED)
    return VerificationReport(
        name="unlinking-homology",
        parameters={"quiver": quiver.to_json(), "pair": [a, b], "bound": bound,
                    "s_max": s_max},
        mismatches=mismatches,
        details={"components_checked": components,
                 "components_nonzero": nonzero,
                 "compositions_checked": blocks_composed,
                 "unlinked_quiver": unlinked.to_json()},
    )
