"""Quadratic algebra components: bases, relations, dimensions, identities."""

import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest

from quivercalc import algebra
from quivercalc.algebra import (
    AlgebraComponent,
    algebra_component,
    component_basis,
    component_dimension,
    functional_dimension,
    gr_linking_check,
    loop_weight,
    normalize_word,
    poincare_check,
    relation_rows,
)
from quivercalc.linalg import IntegerEchelon, rank_of_rows
from quivercalc.motivic import default_window, motivic_series
from quivercalc.quiver import Quiver, one_vertex
from quivercalc.series import MultiSeries, TruncatedLaurent, iter_multidegrees

A2 = Quiver(("a", "b"), ((0, 1), (1, 0)))
M2 = Quiver(("a", "b"), ((0, 2), (2, 0)))
M2L = Quiver(("a", "b"), ((1, 2), (2, 0)))
MIX3 = Quiver(("a", "b", "c"), ((1, 1, 0), (1, 0, 2), (0, 2, 1)))
FLEET = tuple(one_vertex(k) for k in range(4)) + (A2, M2, M2L, MIX3)


def hdeg_of(quiver, degree, s):
    return -loop_weight(quiver, degree) - 2 * s


def sparse(row):
    """A dense row as a fresh {column: nonzero value} dict."""
    return {k: x for k, x in enumerate(row) if x}


def densify(vec, ncols):
    """A sparse {column: value} vector as a dense list."""
    return [vec.get(k, 0) for k in range(ncols)]


# -- monomial normalization --------------------------------------------------------

def test_normalize_word_koszul_signs():
    odd = (1,)
    even = (0,)
    assert normalize_word(((0, 2), (0, 1)), odd) == (-1, ((0, 1), (0, 2)))
    assert normalize_word(((0, 2), (0, 1)), even) == (1, ((0, 1), (0, 2)))
    assert normalize_word(((0, 1), (0, 1)), odd) is None
    assert normalize_word(((0, 1), (0, 1)), even) == (1, ((0, 1), (0, 1)))
    # three odd generators, reversal is an odd permutation of 3 elements
    sign, mon = normalize_word(((0, 3), (0, 2), (0, 1)), odd)
    assert mon == ((0, 1), (0, 2), (0, 3))
    assert sign == -1


def test_normalize_word_mixed_parities():
    # vertex 0 even, vertex 1 odd: swapping even past odd costs nothing
    parities = (0, 1)
    sign, mon = normalize_word(((1, 0), (0, 0)), parities)
    assert sign == 1 and mon == ((0, 0), (1, 0))
    sign, mon = normalize_word(((1, 1), (1, 0)), parities)
    assert sign == -1 and mon == ((1, 0), (1, 1))


# -- component bases ----------------------------------------------------------------

def test_single_generator_components():
    for quiver, vertex in ((one_vertex(2), 0), (MIX3, 1)):
        m_ii = quiver.matrix[vertex][vertex]
        for k in range(4):
            d = tuple(1 if i == vertex else 0 for i in range(len(quiver)))
            basis = component_basis(quiver, d, -2 * k - m_ii)
            assert basis == [((vertex, k),)]


def test_two_loop_pair_counts():
    # even generators at one 2-loop vertex: pairs k1 <= k2 summing to K
    for total in range(7):
        basis = component_basis(one_vertex(2), (2,), -2 * total - 4)
        assert len(basis) == total // 2 + 1


def test_odd_square_exclusion():
    basis = component_basis(one_vertex(1), (2,), -2 * 2 - 2)
    assert basis == [((0, 0), (0, 2))]


def test_infeasible_components_are_empty():
    assert component_basis(one_vertex(1), (1,), 0) == []
    assert component_basis(one_vertex(0), (1,), -1) == []
    assert component_basis(A2, (1, 0), 1) == []


def test_unit_component():
    assert component_basis(A2, (0, 0), 0) == [()]
    assert component_dimension(A2, (0, 0), 0) == 1


def _brute_force_basis(quiver, degree, s):
    """Every choice of degree[i] generator levels in 0..s per vertex
    (distinct levels at odd vertices), kept when the total homological
    degree is hdeg_of(quiver, degree, s)."""
    per_vertex = []
    for i, count in enumerate(degree):
        choose = (itertools.combinations if quiver.matrix[i][i] % 2
                  else itertools.combinations_with_replacement)
        per_vertex.append([tuple((i, k) for k in levels)
                           for levels in choose(range(s + 1), count)])
    target = hdeg_of(quiver, degree, s)
    return sorted(sum(choice, ()) for choice in itertools.product(*per_vertex)
                  if sum(-2 * k - quiver.matrix[i][i] for part in choice
                         for i, k in part) == target)


def test_component_basis_matches_brute_force():
    rng = random.Random(60613)
    loops_seen = set()
    for _ in range(120):
        n = rng.randint(1, 3)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = rng.randint(0, 3)
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(0, 2)
        quiver = Quiver(tuple(f"v{k}" for k in range(n)),
                        tuple(tuple(row) for row in m))
        degree = tuple(rng.randint(0, 3 if n < 3 else 2) for _ in range(n))
        s = rng.randint(0, 6)
        loops_seen.update(m[i][i] % 2 for i in range(n) if degree[i])
        expected = _brute_force_basis(quiver, degree, s)
        assert component_basis(quiver, degree, hdeg_of(quiver, degree, s)) == \
            expected, (m, degree, s)
        # odd shifts of the homological degree are never reached
        assert component_basis(quiver, degree, hdeg_of(quiver, degree, s) + 1) == []
    assert loops_seen == {0, 1}


def recursive_level_tuples(count, total, strict):
    """The recursive enumeration _level_tuples replaced."""
    out = []

    def rec(prefix, remaining, min_k, slots):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        if slots * min_k + (slots * (slots - 1) // 2 if strict else 0) > remaining:
            return
        top = remaining - (slots - 1) * min_k
        if strict:
            top = remaining - sum(range(min_k + 1, min_k + slots))
        for k in range(min_k, top + 1):
            prefix.append(k)
            rec(prefix, remaining - k, k + 1 if strict else k, slots - 1)
            prefix.pop()

    rec([], total, 0, count)
    return tuple(out)


def test_level_tuples_match_the_recursive_enumeration():
    for count in range(7):
        for total in range(25):
            for strict in (False, True):
                assert (algebra._level_tuples(count, total, strict)
                        == recursive_level_tuples(count, total, strict)), (count, total, strict)
    # one entry per generator, without a recursion per generator
    assert algebra._level_tuples(5000, 2, False) == ((0,) * 4999 + (2,),
                                                      (0,) * 4998 + (1, 1))
    assert algebra._level_tuples(5000, 2, True) == ()


def test_component_basis_returns_fresh_list():
    degree, h = (2, 2), hdeg_of(M2, (2, 2), 4)
    first = component_basis(M2, degree, h)
    expected = list(first)
    first.append(((0, 99),))
    first.reverse()
    assert component_basis(M2, degree, h) == expected
    assert component_basis(M2, [2, 2], h) == expected
    maxsize = algebra._complement_basis.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096


def test_bases_share_one_tuple_per_generator():
    # every basis reads its words from per-vertex tables over generator rows
    # that share their generators, so equal generators are one object, in
    # the quotient basis and across bases of other budgets too
    comp = AlgebraComponent(M2, (2, 3), -30)
    checked = 0
    for monomials in (comp.basis, comp.quotient_basis,
                      component_basis(MIX3, (2, 1, 2), hdeg_of(MIX3, (2, 1, 2), 6)),
                      component_basis(M2, (2, 2), -8) + component_basis(M2, (3, 3), -44)):
        generators = [g for mon in monomials for g in mon]
        assert len({id(g) for g in generators}) == len(set(generators))
        checked += len(generators) > len(set(generators))
    assert checked == 4
    assert algebra._generator_row(1, 5) == tuple((1, k) for k in range(6))
    assert all(x is y for x, y in zip(algebra._generator_row(1, 5),
                                      algebra._generator_row(1, 40)))
    for cached in (algebra._generator_row, algebra._vertex_words):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 4096


# -- relation rows -------------------------------------------------------------------

def test_two_loop_relation_at_bottom():
    rows, basis = relation_rows(one_vertex(2), (2,), -4)
    assert basis == [((0, 0), (0, 0))]
    assert rows == [{0: 1}]
    assert component_dimension(one_vertex(2), (2,), -4) == 0


def test_two_loop_relations_coincide_at_k2():
    # e(z)^2 and e(z)e'(z) coefficients at z^2 both give 2 e_0 e_2 + e_1^2
    rows, basis = relation_rows(one_vertex(2), (2,), -8)
    assert basis == [((0, 0), (0, 2)), ((0, 1), (0, 1))]
    assert len(rows) == 2
    assert rank_of_rows(rows) == 1
    assert component_dimension(one_vertex(2), (2,), -8) == 1


def test_free_when_no_arrows():
    quiver = Quiver(("a", "b"), ((0, 0), (0, 0)))
    for s in range(5):
        h = hdeg_of(quiver, (1, 1), s)
        rows, basis = relation_rows(quiver, (1, 1), h)
        assert rows == []
        assert component_dimension(quiver, (1, 1), h) == len(basis) == s + 1


# -- dimensions ----------------------------------------------------------------------

def test_two_loop_dimension_sequence():
    dims = [component_dimension(one_vertex(2), (2,), hdeg_of(one_vertex(2), (2,), s))
            for s in range(5)]
    assert dims == [0, 0, 1, 1, 2]


def test_functional_dimension_examples():
    assert functional_dimension(one_vertex(2), (1,), -2 * 5 - 2) == 1
    two = one_vertex(2)
    dims = [functional_dimension(two, (2,), hdeg_of(two, (2,), s)) for s in range(5)]
    assert dims == [0, 0, 1, 1, 2]
    # odd homological degree makes s half-integral
    assert functional_dimension(two, (2,), -5) == 0
    assert functional_dimension(two, (2,), 2) == 0


@pytest.mark.parametrize("degree", [(1, 1, 5), (1, -1), [1, -1], ()])
def test_functional_dimension_rejects_bad_vectors(degree):
    # an extra entry was ignored and a negative one failed inside math.comb
    message = f"bad dimension vector {tuple(degree)}"
    for count in (functional_dimension, component_basis, component_dimension):
        with pytest.raises(ValueError) as err:
            count(M2, degree, -4)
        assert str(err.value) == message


def test_oracle_equivalence_fleet():
    for quiver in FLEET:
        from quivercalc.series import iter_multidegrees
        for d in iter_multidegrees(len(quiver), 3):
            for s in range(9):
                h = hdeg_of(quiver, d, s)
                assert component_dimension(quiver, d, h) == \
                    functional_dimension(quiver, d, h), (quiver.vertices, d, h)


def test_component_dimension_keeps_no_component():
    # dimension readers keep the int; only reducing callers cache components
    before = algebra._cached_component.cache_info()
    compared = 0
    # both sweeps reach a few nonzero levels past their zero ones
    for quiver, degree, top in ((M2, (3, 3), 19), (MIX3, (1, 2, 2), 13)):
        for s in range(top + 1):
            h = hdeg_of(quiver, degree, s)
            dim = component_dimension(quiver, degree, h)
            assert dim == component_dimension(quiver, list(degree), h)
            assert dim == AlgebraComponent(quiver, degree, h).dim, (degree, s)
            compared += dim > 0
    assert compared == 5
    # no lookup either: hits, misses and size are all unchanged
    assert algebra._cached_component.cache_info() == before
    maxsize = algebra._cached_dimension.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096


def test_quotient_basis_and_reduce():
    comp = algebra_component(one_vertex(2), (2,), -8)
    assert comp.dim == 1
    assert len(comp.quotient_basis) == 1
    # reducing the relation itself gives the zero vector
    reduced = comp.reduce({((0, 0), (0, 2)): 2, ((0, 1), (0, 1)): 1})
    assert reduced == {}


def test_reduce_on_a_component_never_reduced_before():
    rng = random.Random(496)
    for quiver, degree, h in ((M2, (2, 3), -30),
                              (MIX3, (2, 1, 2), hdeg_of(MIX3, (2, 1, 2), 8))):
        comp = AlgebraComponent(quiver, degree, h)
        assert 0 < comp.dim < len(comp.basis)
        # the maps reduce reads are built by its first call, not by the constructor
        assert not {"index", "quotient_index"} & vars(comp).keys()
        free = [t for t in range(len(comp.basis)) if t not in comp.echelon.pivots]
        for j, mon in enumerate(comp.quotient_basis):
            assert comp.reduce({mon: 3}) == {j: 3}
        for _ in range(20):
            combo = {mon: rng.randint(-3, 3) for mon in rng.sample(comp.basis, 4)}
            reduced = comp.echelon.reduce_vector(
                {comp.basis.index(mon): c for mon, c in combo.items()})
            assert comp.reduce(combo) == {free.index(t): x for t, x in reduced.items()}


@pytest.mark.parametrize("degree, s", [((1, 1), 0), ((2, 2), 7)])
def test_zero_quotient_keeps_no_pivot_rows(degree, s):
    rng = random.Random(2024 + s)
    h = hdeg_of(M2, degree, s)
    comp = AlgebraComponent(M2, degree, h)
    basis = component_basis(M2, degree, h)
    assert comp.dim == 0 and comp.quotient_basis == [] and basis
    assert comp.echelon is None
    for mon in basis:
        assert comp.reduce({mon: 5}) == {}
    for _ in range(20):
        combo = {mon: rng.randint(-9, 9) for mon in rng.sample(basis, min(4, len(basis)))}
        assert comp.reduce(combo) == {}
    assert not {"index", "quotient_index"} & vars(comp).keys()


# -- relation systems: one-sided (built), extended, stated ---------------------------

def test_relation_system_rank_equivalence():
    # relation_rows builds the one-sided system e_i(z) (d/dz)^q e_j(z),
    # q < m_ij; the extended system p + q < m_ij and the stated system (both
    # orientations) span the same space.  Entries up to 4 give pairs p, q >= 1
    # that neither one-sided orientation contains.
    rng = random.Random(20250601)
    compared = 0
    beyond_orientation = 0
    while compared < 120:
        n = rng.randint(1, 3)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = rng.randint(0, 4)
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(0, 4)
        quiver = Quiver(tuple(f"v{k}" for k in range(n)),
                        tuple(tuple(row) for row in m))
        d = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(d) == 0:
            continue
        h = hdeg_of(quiver, d, rng.randint(0, 5))
        built, basis = relation_rows(quiver, d, h)
        if not basis:
            continue
        extended, _ = _ref_relation_rows(quiver, d, h, "extended")
        stated, _ = _ref_relation_rows(quiver, d, h, "stated")
        compared += 1
        rank = rank_of_rows(built)
        assert rank == rank_of_rows(extended) == rank_of_rows(stated), (m, d, h)
        beyond_orientation += len(extended) > len(stated)
    assert compared >= 100
    assert beyond_orientation >= 20


def test_relation_rows_m2_33_row_count():
    # every row w f, f e_i(z) (d^p e_j)(z) one-sided, was 5,786 rows here,
    # and the extended system p + q < m_ij 8,426; the rows whose complement
    # an earlier relation's leading monomial divides are no longer built
    rows, basis = relation_rows(M2, (3, 3), -40)
    assert len(rows) == 3995
    assert len(basis) > 5


def test_m2_33_nonzero_component_oracle():
    for hdeg, dim in ((-40, 5), (-44, 18)):
        assert component_dimension(M2, (3, 3), hdeg) == \
            functional_dimension(M2, (3, 3), hdeg) == dim, hdeg


def _quadratic_pairs(system, m_ij, i, j):
    """(p, q) derivative orders of the relation series
    (d/dz)^p e_i(z) (d/dz)^q e_j(z) for one vertex pair i <= j: the
    one-sided system of relation_rows (p = 0, q < m_ij), the extended system
    p + q < m_ij (p <= q for a loop pair, whose (q, p) series is the same up
    to sign), or the stated system, the one-sided one in both orientations."""
    if system == "one-sided":
        return [(0, q) for q in range(m_ij)]
    if system == "extended":
        return [(p, q) for p in range(m_ij) for q in range(m_ij - p)
                if i != j or p <= q]
    # e_i(z) (d/dz)^p e_j(z) for ordered pairs; unordered processing keeps
    # both orientations
    pairs = [(p, 0) for p in range(m_ij)]
    if i != j:
        pairs += [(0, p) for p in range(1, m_ij)]
    return pairs


def _ref_relation_rows(quiver, degree, hdeg, system):
    """Rows of the one-sided, extended or stated relation system, built by
    normalizing every whole word g(i, a) g(j, b) w with normalize_word: the
    one-sided rows are the oracle for relation_rows' insertion sign rule,
    the other two systems must match them in rank."""
    basis = component_basis(quiver, degree, hdeg)
    if not basis:
        return [], basis
    index = {mon: t for t, mon in enumerate(basis)}
    n = len(quiver)
    parities = tuple(quiver.matrix[v][v] % 2 for v in range(n))
    budget = (-hdeg - loop_weight(quiver, degree)) // 2
    rows = []
    for i in range(n):
        for j in range(i, n):
            m_ij = quiver.matrix[i][j]
            comp_degree = list(degree)
            comp_degree[i] -= 1
            comp_degree[j] -= 1
            if m_ij == 0 or comp_degree[i] < 0 or comp_degree[j] < 0:
                continue
            for p, q in _quadratic_pairs(system, m_ij, i, j):
                for total in range(p + q, budget + 1):
                    rel_hdeg = (-2 * total - quiver.matrix[i][i]
                                - quiver.matrix[j][j])
                    for comp in component_basis(quiver, comp_degree,
                                                hdeg - rel_hdeg):
                        row = {}
                        for a in range(p, total + 1):
                            b = total - a
                            c = math.perm(a, p) * math.perm(b, q)
                            if b < q or not c:
                                continue
                            nf = normalize_word(((i, a), (j, b)) + comp, parities)
                            if nf is None:
                                continue
                            sign, mon = nf
                            t = index[mon]
                            row[t] = row.get(t, 0) + sign * c
                            if not row[t]:
                                del row[t]
                        if row:
                            rows.append(row)
    return rows, basis


def _in_order_within(rows, reference):
    """Whether every row appears among the reference rows, in their order."""
    remaining = iter(reference)
    return all(row in remaining for row in rows)


def _assert_same_span(quiver, degree, hdeg):
    """relation_rows keeps, in build order, a subset of the whole one-sided
    system of _ref_relation_rows with its rank, so with its span; returns
    (rows kept, basis, rows of the whole system)."""
    rows, basis = relation_rows(quiver, degree, hdeg)
    reference, ref_basis = _ref_relation_rows(quiver, degree, hdeg, "one-sided")
    assert basis == ref_basis
    assert _in_order_within(rows, reference), (quiver.matrix, degree, hdeg)
    assert rank_of_rows(rows) == rank_of_rows(reference), (quiver.matrix, degree, hdeg)
    return rows, basis, reference


def _relation_cases(quiver, degree, hdeg):
    """Which special cases of relation_rows one component reaches: "merged"
    when a loop pair has two terms b != total - b, both >= p, over a
    nonempty complement; "cancelled" when such a pair is odd at p = 0, where
    g(i, a) g(i, b) + g(i, b) g(i, a) = 0; "nothing fits" when the basis is
    nonempty and no pair with m_ij > 0 leaves a complement."""
    m = quiver.matrix
    n = len(quiver)
    cases = set()
    if not component_basis(quiver, degree, hdeg):
        return cases
    if not any(m[i][j] and degree[i] >= 1 + (i == j) and degree[j] >= 1
               for i in range(n) for j in range(i, n)):
        cases.add("nothing fits")
    budget = (-hdeg - loop_weight(quiver, degree)) // 2
    for i in range(n):
        if not m[i][i] or degree[i] < 2:
            continue
        comp = tuple(x - 2 * (v == i) for v, x in enumerate(degree))
        for p in range(m[i][i]):
            for total in range(2 * p + 1, budget + 1):
                if component_basis(quiver, comp, hdeg_of(quiver, comp, budget - total)):
                    cases.add("merged")
                    if m[i][i] % 2 and p == 0:
                        cases.add("cancelled")
    return cases


def test_relation_rows_match_normalize_word_reference():
    rng = random.Random(8128)
    compared = set()
    cases = set()
    top_degrees = set()
    multiplicities = set()
    for trial in range(160):
        n = rng.randint(1, 3)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            # odd and even loop counts in turn at vertex 0
            m[i][i] = rng.randint(0, 3) if i else trial % 4
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(0, 3)
        quiver = Quiver(tuple(f"v{k}" for k in range(n)),
                        tuple(tuple(row) for row in m))
        if n == 1:
            # degrees 4 and 8 let a multiplicity reach a power of two, where
            # the field width of relation_rows' monomial code steps up; an
            # odd vertex takes distinct levels, so 8 only for even loops
            degree = (rng.choice((0, 1, 2, 3, 4) if m[0][0] % 2 else (0, 2, 3, 4, 8)),)
        else:
            degree = tuple(rng.randint(0, 3 if n < 3 else 2) for _ in range(n))
        h = hdeg_of(quiver, degree, rng.randint(0, 6))
        rows, basis, _ = _assert_same_span(quiver, degree, h)
        # the benchmark's rows counter takes the length of the rows
        assert isinstance(rows, list)
        cases |= _relation_cases(quiver, degree, h)
        if rows:
            top_degrees.add(max(degree))
            multiplicities.update(max(mon.count(g) for g in mon) for mon in basis)
            odd = any(m[v][v] % 2 for v in range(n) if degree[v])
            # only odd generators give Koszul signs, i.e. negative entries
            signed = any(x < 0 for row in rows for x in row.values())
            compared.add((odd, signed))
    assert compared >= {(False, False), (True, True)}
    assert cases == {"merged", "cancelled", "nothing fits"}
    # a degree-8 component, and a generator of multiplicity 4 in a 3-bit field
    assert 8 in top_degrees and 4 in multiplicities
    # every level up to 10 of the two-loop vertex at degrees 4 and 8: a
    # field of one bit, too narrow for these degrees, first gives two
    # monomials one code at degree 5 and level 9
    two_loop = one_vertex(2)
    for degree, s in itertools.product(((4,), (8,)), range(11)):
        _assert_same_span(two_loop, degree, hdeg_of(two_loop, degree, s))


def test_skipped_relation_rows_keep_the_span():
    # the rows relation_rows skips (an earlier relation's leading monomial
    # divides the complement) lie in the span of the rows it builds, on
    # random quivers with odd and even loop counts at every vertex
    rng = random.Random(314159)
    components = kept = built = 0
    while components < 1500:
        n = rng.randint(1, 3)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = rng.randint(0, 4)
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(0, 3)
        quiver = Quiver(tuple(f"v{k}" for k in range(n)),
                        tuple(tuple(row) for row in m))
        degree = tuple(rng.randint(0, (4, 3, 2)[n - 1]) for _ in range(n))
        if not any(degree):
            continue
        rows, _, reference = _assert_same_span(
            quiver, degree, hdeg_of(quiver, degree, rng.randint(0, 8)))
        components += 1
        kept += len(rows)
        built += len(reference)
    # 24,775 of the 37,814 rows of the whole system are built
    assert built > 30000 and kept < 0.7 * built


def test_relation_terms_match_normalize_word():
    # the terms of a relation coefficient are its expansion through
    # normalize_word, summed per monomial, nonzero sums only, in the order
    # of their first b: at random (i, j, p, total) of both parities, with
    # loop pairs i = j (odd squares, and the two orders of an odd pair
    # cancelling at p = 0) and the reversed pairs i > j that the unlinking
    # differential passes
    rng = random.Random(2718)
    seen = set()
    for _ in range(600):
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        parities = tuple(rng.randint(0, 1) for _ in range(3))
        p = rng.randint(0, 3)
        total = rng.randint(p, p + 6)
        expanded = {}
        for b in range(p, total + 1):
            nf = normalize_word(((i, total - b), (j, b)), parities)
            if nf is not None:
                expanded[nf[1]] = expanded.get(nf[1], 0) + nf[0] * math.perm(b, p)
        want = [(c, *mon) for mon, c in expanded.items() if c]
        got = algebra._relation_terms(i, j, p, total, parities[i], parities[j])
        assert list(got) == want, (i, j, p, total, parities)
        if i > j:
            seen.add(("reversed", parities[i] + parities[j]))
        elif i == j:
            if 0 in expanded.values():
                seen.add(("cancelled", p))
            if parities[i] and total % 2 == 0 and total // 2 >= p:
                seen.add("squared")
            if not parities[i] and total > 2 * p:
                seen.add("merged")
    assert seen == {("reversed", 0), ("reversed", 1), ("reversed", 2),
                    ("cancelled", 0), "squared", "merged"}


def _least_divisor_key(quiver, w):
    """(i, j, p, t) of the relation e_i(z) (d^p e_j)(z) at level sum t, least
    in that order, whose leading monomial (highest canonical monomial of
    its nonzero terms, merged through normalize_word) divides w; None when
    there is none."""
    n = len(quiver)
    parities = tuple(quiver.matrix[v][v] % 2 for v in range(n))
    weight = sum(k for _, k in w)
    for i in range(n):
        for j in range(i, n):
            for p in range(quiver.matrix[i][j]):
                for t in range(p, weight + 1):
                    terms = {}
                    for b in range(p, t + 1):
                        nf = normalize_word(((i, t - b), (j, b)), parities)
                        if nf is not None:
                            terms[nf[1]] = terms.get(nf[1], 0) + nf[0] * math.perm(b, p)
                    leads = [mon for mon, c in terms.items() if c]
                    if not leads:
                        continue
                    rest = list(w)
                    for g in max(leads):
                        if g not in rest:
                            break
                        rest.remove(g)
                    else:
                        return i, j, p, t
    return None


def test_first_divisor_keys_are_the_least_divisors():
    # F(w) of every monomial w of small bases is the build key of the least
    # relation whose leading monomial, found by brute force, divides w
    # (n,), above every key of an n-vertex quiver, when no relation does
    cases = 0
    for quiver in FLEET + (Quiver(("a", "b"), ((3, 1), (1, 4))),):
        none = (len(quiver),)
        for degree in iter_multidegrees(len(quiver), 4):
            for budget in range(7):
                monomials, firsts = algebra._complement_basis(quiver, degree, budget)
                assert monomials == tuple(component_basis(
                    quiver, degree, hdeg_of(quiver, degree, budget)))
                for t, w in enumerate(monomials):
                    least = _least_divisor_key(quiver, w)
                    assert (firsts[t] if firsts else none) == (least or none), \
                        (quiver.matrix, w)
                    cases += least is not None
    assert cases > 1000


def _kept_unless_later(complements, firsts, key):
    # the wrong, non-strict comparison: F(w) > key
    return [c for c, first in zip(complements, firsts) if first > key]


def _kept_unless_divided(complements, firsts, key):
    # the wrong, order-free rule: skip a row whenever any relation's
    # leading monomial divides w, wherever that relation comes in build order;
    # F(w) is then the one-entry key (n,) above every relation's (i, j, p, t)
    return [c for c, first in zip(complements, firsts) if len(first) == 1]


@pytest.mark.parametrize("mutant", [_kept_unless_later, _kept_unless_divided])
def test_wrong_skip_rules_lose_rank(monkeypatch, mutant):
    # M2 (2, 2) at s = 0 has the one monomial g(a,0)^2 g(b,0)^2 and the one
    # row g(a,0) g(b,0) * f, f = g(a,0) g(b,0): rank 1, dimension 0.  The row's
    # own relation's leading monomial divides its complement, which a
    # non-strict comparison or an order-free rule takes for a reason to skip it
    h = hdeg_of(M2, (2, 2), 0)
    assert functional_dimension(M2, (2, 2), h) == 0
    assert AlgebraComponent(M2, (2, 2), h).dim == 0
    assert rank_of_rows(relation_rows(M2, (2, 2), h)[0]) == 1
    monkeypatch.setattr(algebra, "_kept_complements", mutant)
    assert rank_of_rows(relation_rows(M2, (2, 2), h)[0]) == 0
    assert AlgebraComponent(M2, (2, 2), h).dim == 1


# -- exact elimination ----------------------------------------------------------------

def test_integer_echelon_rank_and_pivots():
    ech = IntegerEchelon()
    assert ech.add_row({0: 2, 1: 4, 2: 6})
    assert not ech.add_row({0: 1, 1: 2, 2: 3})
    assert ech.add_row({1: 1, 2: 1})
    assert ech.rank == 2
    # each row leads with its highest column
    assert sorted(ech.pivots) == [1, 2]
    reduced = ech.reduce_vector({0: 3, 1: 7, 2: 10})
    assert 1 not in reduced and 2 not in reduced


def test_relation_rows_of_quivers_without_loops_lead_with_units():
    # the highest column of a relation row of a vertex pair holds the term
    # g(i, total - p) g(j, p), of coefficient p! up to sign: a unit for the
    # derivative orders p <= 1 of A2 and M2
    leads = 0
    for quiver, degree, s in itertools.product((A2, M2), ((2, 2), (3, 2), (3, 3)),
                                               range(9)):
        rows, _ = relation_rows(quiver, degree, hdeg_of(quiver, degree, s))
        assert all(abs(row[max(row)]) == 1 for row in rows), (quiver, degree, s)
        leads += len(rows)
    assert leads > 1000


def test_integer_echelon_pivot_canonicity():
    rng = random.Random(4242)
    for _ in range(100):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(5)]
        e1 = IntegerEchelon()
        for row in rows:
            e1.add_row(sparse(row))
        e2 = IntegerEchelon()
        for row in reversed(rows):
            e2.add_row(sparse(row))
        assert sorted(e1.pivots) == sorted(e2.pivots)
        assert e1.rank == e2.rank


def _dense_reference_echelon(rows):
    """Dense fraction-free elimination with content reduction: the oracle
    for the sparse engine.  A row leads with its last nonzero entry.
    Returns {leading column: dense pivot row}."""
    pivots = {}
    for row in rows:
        row = list(row)
        while any(row):
            lead = max(i for i, x in enumerate(row) if x)
            if lead not in pivots:
                if row[lead] < 0:
                    row = [-x for x in row]
                g = math.gcd(*row)
                pivots[lead] = [x // g for x in row]
                break
            a, b = pivots[lead][lead], row[lead]
            row = [a * r - b * p for r, p in zip(row, pivots[lead])]
    return pivots


def _dense_reference_reduce(pivots, vec):
    vec = list(vec)
    # a pivot is zero right of its lead, so the highest one goes first
    for col in sorted(pivots, reverse=True):
        if vec[col]:
            factor = Fraction(vec[col], pivots[col][col])
            vec = [v - factor * p for v, p in zip(vec, pivots[col])]
    return vec


def _seeded_dense_rows(rng, trial):
    """One matrix of the dense-reference echelon tests, as (ncols, dense
    rows), drawn from rng."""
    ncols = rng.randint(1, 8)
    nrows = rng.randint(0, 10)
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * ncols)
        elif kind < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.6:
            # leading entries sharing a factor 2 or 3, so that elimination
            # meets gcd(a, b) > 1 with a / gcd(a, b) != 1
            lead = rng.randrange(ncols)
            rows.append([0] * lead + [rng.choice((2, 4, 6, -6))]
                        + [rng.choice((0, rng.randint(-9, 9)))
                           for _ in range(ncols - lead - 1)])
        else:
            # mostly-zero rows with entries of both signs, so leading
            # entries are often negative
            rows.append([rng.choice((0, 0, 0, rng.randint(-9, 9)))
                         for _ in range(ncols)])
    if trial % 10 == 0:
        # a square full-rank block fed first, then dependent rows
        rows = [[int(i == j) * rng.choice((-3, -1, 2)) + int(j > i)
                 for j in range(ncols)] for i in range(ncols)] + rows
    return ncols, rows


def test_integer_echelon_matches_dense_reference():
    rng = random.Random(20261018)
    full_rank_cases = 0
    gcd_steps = 0
    for trial in range(300):
        ncols, rows = _seeded_dense_rows(rng, trial)
        ech = IntegerEchelon()
        grew = []
        for row in map(sparse, rows):
            lead = max(row, default=None)
            pivot = ech.pivots.get(lead)
            if pivot is not None:
                # the first elimination step scales the row by a / gcd(a, b)
                g = math.gcd(pivot[lead], row[lead])
                gcd_steps += g > 1 and pivot[lead] // g != 1
            grew.append(ech.add_row(row))
        ref = _dense_reference_echelon(rows)
        assert ech.rank == len(ref) == sum(grew)
        # scaling column k by 1/(k + 2) keeps the rank; rows get denominators
        assert rank_of_rows([{k: Fraction(x, k + 2) for k, x in sparse(row).items()}
                             for row in rows]) == len(ref)
        assert sorted(ech.pivots) == sorted(ref)
        # same content-reduced pivot rows, stored by their nonzero entries
        assert ech.pivots == {col: sparse(row) for col, row in ref.items()}
        full_rank_cases += ech.rank == ncols
        for _ in range(3):
            vec = [rng.randint(-5, 5) for _ in range(ncols)]
            assert densify(ech.reduce_vector(sparse(vec)), ncols) \
                == _dense_reference_reduce(ref, vec)
    assert full_rank_cases >= 30
    assert gcd_steps >= 30


def test_reduce_vector_dict_matches_dense():
    # the 300 seeded matrices of test_integer_echelon_matches_dense_reference:
    # the same seed and the same draws
    rng = random.Random(20261018)
    fractional = 0
    for trial in range(300):
        ncols, rows = _seeded_dense_rows(rng, trial)
        ech = IntegerEchelon()
        for row in rows:
            ech.add_row(sparse(row))
        ref = _dense_reference_echelon(rows)
        for _ in range(3):
            vec = [rng.randint(-5, 5) for _ in range(ncols)]
            from_dict = ech.reduce_vector(sparse(vec))
            assert densify(from_dict, ncols) == _dense_reference_reduce(ref, vec)
            assert all(x for x in from_dict.values())
            # ints where integral, reduced Fractions elsewhere
            assert all(type(x) is int or x.denominator > 1
                       for x in from_dict.values())
            fractional += any(type(x) is Fraction for x in from_dict.values())
    assert fractional >= 30


def test_full_rank_component_stops_feeding_rows(monkeypatch):
    degree = (3, 3)
    h = hdeg_of(M2, degree, 6)
    rows, basis = relation_rows(M2, degree, h)
    assert len(rows) > len(basis) > 0
    calls = []
    original = IntegerEchelon.add_row

    def counting_add_row(self, row):
        calls.append(1)
        return original(self, row)

    monkeypatch.setattr(IntegerEchelon, "add_row", counting_add_row)
    comp = AlgebraComponent(M2, degree, h)
    assert comp.dim == functional_dimension(M2, degree, h) == 0
    assert comp.quotient_basis == []
    assert comp.reduce({basis[0]: 1, basis[-1]: -2}) == {}
    assert len(calls) < len(rows)


def test_component_build_lets_go_of_each_fed_row(monkeypatch):
    # a row fed to the echelon is freed by the next feed unless it became a
    # pivot: the component holds no other reference to the rows it has fed
    class Row(dict):
        """A relation row that a weak reference can follow."""

    original_rows = algebra.relation_rows
    original_add = IntegerEchelon.add_row
    fed = []
    freed = 0

    def weak_rows(quiver, degree, hdeg):
        rows, basis = original_rows(quiver, degree, hdeg)
        return [Row(row) for row in rows], basis

    def tracking_add_row(self, row):
        nonlocal freed
        pivots = {id(p) for p in self.pivots.values()}
        for ref in fed:
            assert ref() is None or id(ref()) in pivots
        freed += sum(ref() is None for ref in fed)
        fed[:] = [ref for ref in fed if ref() is not None]
        fed.append(weakref.ref(row))
        return original_add(self, row)

    monkeypatch.setattr(algebra, "relation_rows", weak_rows)
    monkeypatch.setattr(IntegerEchelon, "add_row", tracking_add_row)
    for quiver, degree, s in ((M2, (3, 3), 9), (MIX3, (1, 1, 2), 9)):
        fed.clear()
        h = hdeg_of(quiver, degree, s)
        assert AlgebraComponent(quiver, degree, h).dim == functional_dimension(quiver, degree, h)
    assert freed > 100


def test_feed_order_keeps_quotient_and_reductions():
    # AlgebraComponent feeds sparsest rows first; relation_rows builds them
    # in another order, which must give the same quotient and reductions
    rng = random.Random(7201)
    cases = [(M2, (2, 2), s) for s in (8, 10, 12)] + [
        (M2, (1, 3), 8), (M2, (3, 1), 7), (MIX3, (1, 1, 2), 7),
        (MIX3, (1, 2, 1), 8), (MIX3, (2, 1, 1), 6)]
    for quiver, degree, s in cases:
        h = hdeg_of(quiver, degree, s)
        comp = AlgebraComponent(quiver, degree, h)
        assert comp.dim > 0, (degree, s)
        rows, basis = relation_rows(quiver, degree, h)
        assert [len(r) for r in rows] != sorted(len(r) for r in rows)
        built = IntegerEchelon()
        for row in rows:
            built.add_row(row)
        assert sorted(built.pivots) == sorted(comp.echelon.pivots)
        free = [t for t in range(len(basis)) if t not in built.pivots]
        assert comp.quotient_basis == [basis[t] for t in free]
        for _ in range(5):
            combo = {mon: rng.randint(-4, 4) for mon in rng.sample(basis, 3)}
            reduced = built.reduce_vector({basis.index(mon): c
                                           for mon, c in combo.items()})
            assert comp.reduce(combo) == {j: reduced[t] for j, t in enumerate(free)
                                          if t in reduced}


def _all_pairs_layout(quiver, degree):
    """_functional_layout summed over every vertex pair, d_i = 0 or not."""
    n = len(quiver)
    m = quiver.matrix
    deg_f = sum(m[i][i] * math.comb(degree[i], 2) for i in range(n))
    deg_f += sum(m[i][j] * degree[i] * degree[j]
                 for i in range(n) for j in range(i + 1, n))
    parts = tuple(sorted(r for i in range(n) for r in range(1, degree[i] + 1)))
    return parts, deg_f


def test_functional_layout_matches_the_all_pairs_sum():
    rng = random.Random(1729)
    with_zeros = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(0, 3)
        quiver = Quiver(tuple(f"v{k}" for k in range(n)), tuple(map(tuple, m)))
        degree = tuple(rng.choice((0, 0, 1, 2, 4)) for _ in range(n))
        assert algebra._functional_layout(quiver, degree) == \
            _all_pairs_layout(quiver, degree), (m, degree)
        with_zeros += 0 in degree and any(degree)
    assert with_zeros > 100


# -- series-level identities -----------------------------------------------------------

def test_poincare_one_loop_hand_values():
    report = poincare_check(one_vertex(1), 2)
    assert report.passed
    series = motivic_series(one_vertex(1), 2, default_window(2, 1))
    c = series.coeff((1,))
    assert [c.coeff(2 * k) for k in (1, 2, 3)] == [-1, -1, -1]


def test_poincare_empty_quiver():
    # the empty quiver's series is the constant 1: nothing beyond the unit
    report = poincare_check(Quiver((), ()), 2)
    assert [m["kind"] for m in report.mismatches] == ["inconclusive"]


def test_poincare_fleet_order3():
    for quiver in FLEET:
        report = poincare_check(quiver, 3)
        assert report.passed, f"{quiver.vertices}: {report.summary()}"


def ref_poincare_series(quiver, order, window):
    """The right-hand side of poincare_check, one functional_dimension per
    level."""
    wlo, whi = window
    terms = {}
    for d in iter_multidegrees(len(quiver), order):
        weight = loop_weight(quiver, d)
        base = sum(d) + weight
        coeffs = {}
        s = 0
        while base + 2 * s <= whi:
            coeffs[base + 2 * s] = ((-1) ** weight
                                    * functional_dimension(quiver, d, -weight - 2 * s))
            s += 1
        terms[d] = TruncatedLaurent(coeffs, min(wlo, base), whi)
    return MultiSeries(quiver.vertices, order, window, terms)


def test_poincare_series_matches_per_level_reference():
    # including windows below all support and windows cut inside it
    for quiver in FLEET + (Quiver((), ()),):
        for order in range(6):
            for window in (default_window(order, quiver.max_loops()), (-9, -1),
                           (-4, 0), (0, 7), (3, 20)):
                got = algebra._poincare_series(quiver, order, window)
                want = ref_poincare_series(quiver, order, window)
                assert got.terms.keys() == want.terms.keys()
                for d, coeff in want.terms.items():
                    assert got.terms[d] == coeff, (quiver.vertices, order, window, d)


def test_gr_linking_doubled_a2_and_m2():
    for quiver in (A2, M2):
        for bound in (2, 3):
            report = gr_linking_check(quiver, "a", "b", bound)
            assert report.passed, report.summary()
        assert report.details["spot_checked"] > 0


def test_gr_linking_zero_da_collapses_trivially():
    report = gr_linking_check(A2, "a", "b", 1)
    assert report.passed


def test_gr_linking_requires_distinct_pair():
    with pytest.raises(ValueError):
        gr_linking_check(one_vertex(1, "v"), "v", "v", 2)
