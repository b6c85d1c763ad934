"""The unlinking differential: blocks, d^2 = 0, homology dimensions."""

import itertools
from fractions import Fraction

import pytest

from quivercalc import algebra
from quivercalc.algebra import (
    DifferentialBlock,
    component_dimension,
    homology_check,
    loop_weight,
    unlink_differential,
)
from quivercalc.quiver import Quiver, one_vertex, unlink

A2 = Quiver(("a", "b"), ((0, 1), (1, 0)))
M2 = Quiver(("a", "b"), ((0, 2), (2, 0)))
MIX3 = Quiver(("a", "b", "c"), ((1, 1, 0), (1, 0, 2), (0, 2, 1)))


def test_doubled_a2_star_line_block():
    # m_ab = 1 so p = 0: the single star generator e_{star,k} maps to
    # sum_{a'+b'=k} e_{a,a'} e_{b,b'}; the unlinked quiver has no relations
    # at (1,1,0), so the block is a column of k+1 ones
    for k in range(4):
        big_h = -2 * k
        block = unlink_differential(A2, "a", "b", (1, 1), big_h, 1)
        assert block.source_dim == 1
        assert block.target_dim == k + 1
        assert block.columns == [{row: 1 for row in range(k + 1)}]
        assert block.rank() == (1 if k >= 0 else 0)


def test_zero_star_block_is_zero():
    block = unlink_differential(A2, "a", "b", (1, 1), -4, 0)
    assert block.target_dim == 0
    assert block.source_dim > 0
    assert block.columns == [{}] * block.source_dim
    assert block.rank() == 0


def test_differential_raises_h_by_one():
    # the c = 1 source of H sits at h = H - 1, its c = 0 target at h = H
    unlinked = unlink(M2, "a", "b")
    for big_h in (-4, -6, -8):
        block = unlink_differential(M2, "a", "b", (1, 1), big_h, 1)
        assert block.source_dim == component_dimension(unlinked, (0, 0, 1), big_h - 1) == 1
        assert block.target_dim == component_dimension(unlinked, (1, 1, 0), big_h) > 0


def test_m2_block_uses_falling_factorials():
    # p = m_ab - 1 = 1: d e_{star,1} = sum_{a'+b'=2} b' e_{a,a'} e_{b,b'}
    # = 2 e_{a,0}e_{b,2} + e_{a,1}e_{b,1}; the target has the relation
    # e_{a,0}e_{b,2} + e_{a,1}e_{b,1} + e_{a,2}e_{b,0} = 0 with pivot on the
    # last monomial, e_{a,2}e_{b,0}, so the quotient basis is the first two
    # monomials and the image has coordinates (2, 1) there
    block = unlink_differential(M2, "a", "b", (1, 1), -2 * 2, 1)
    assert block.source_dim == 1
    assert block.target_dim == 2
    assert block.columns == [{0: 2, 1: 1}]
    assert block.rank() == 1


def test_composition_is_zero_where_nontrivial():
    for quiver in (A2, M2):
        nontrivial = 0
        for s in range(9):
            big_h = -loop_weight(quiver, (2, 2)) - 2 * s
            blocks = [unlink_differential(quiver, "a", "b", (2, 2), big_h, c)
                      for c in range(3)]
            assert blocks[1].compose_is_zero(blocks[2])
            if blocks[2].source_dim and blocks[1].target_dim:
                nontrivial += 1
        assert nontrivial > 0


def test_blocks_not_composable_raise():
    b1 = unlink_differential(A2, "a", "b", (1, 1), -2, 1)
    b2 = unlink_differential(A2, "a", "b", (2, 2), -2, 2)
    with pytest.raises(ValueError):
        b1.compose_is_zero(b2)


def test_star_count_bounds():
    with pytest.raises(ValueError):
        unlink_differential(A2, "a", "b", (1, 1), -2, 2)
    with pytest.raises(ValueError):
        unlink_differential(A2, "a", "b", (1, 1), -2, -1)


def test_requires_arrow():
    # both reject the pair through unlink, with its message
    bare = Quiver(("a", "b"), ((0, 0), (0, 0)))
    message = "unlink requires at least one arrow between 'a' and 'b'"
    with pytest.raises(ValueError, match=f"^{message}$"):
        unlink_differential(bare, "a", "b", (1, 1), -2, 0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        homology_check(bare, "a", "b", 2)


def test_homology_bound0_unit():
    # bound 0 reaches only the unit component, so nothing is compared
    report = homology_check(A2, "a", "b", 0)
    assert [m["kind"] for m in report.mismatches] == ["inconclusive"]
    assert homology_check(A2, "a", "b", 1).passed


def test_homology_doubled_a2_and_m2():
    for quiver in (A2, M2):
        report = homology_check(quiver, "a", "b", 2)
        assert report.passed, report.summary()
        assert report.details["components_checked"] > 0


def test_homology_with_compositions_bound4():
    report = homology_check(A2, "a", "b", 4)
    assert report.passed
    assert report.details["compositions_checked"] > 0


def test_homology_with_zero_quotients_bound4(monkeypatch):
    # chain components with dim 0 keep no pivot rows; the checks read as they
    # did when those components kept their echelons
    components = []
    lookup = algebra.algebra_component

    def recording_lookup(*key):
        components.append(lookup(*key))
        return components[-1]

    monkeypatch.setattr(algebra, "algebra_component", recording_lookup)
    expected = {
        M2: (198, 9, [[0, 1, 1], [1, 0, 1], [1, 1, 3]]),
        MIX3: (414, 9, [[1, 0, 0, 1], [0, 0, 2, 0], [0, 2, 1, 2], [1, 0, 2, 2]])}
    for quiver, (checked, composed, matrix) in expected.items():
        report = homology_check(quiver, "a", "b", 4)
        assert report.passed, report.summary()
        details = report.details
        assert (details["components_checked"], details["compositions_checked"],
                details["unlinked_quiver"]["matrix"]) == (checked, composed, matrix)
    zero = [comp for comp in components if comp.basis and not comp.dim]
    assert zero and all(comp.echelon is None for comp in zero)
    assert any(comp.echelon is not None for comp in components)


def test_homology_in_both_orientations_on_two_vertex_quivers():
    # every two-vertex quiver with 0-3 loops at each vertex and 1-3 arrows,
    # at both orientations of the pair: m_ab = 3 sends a star generator to
    # terms of coefficient perm(b', 2), and the pair (b, a) takes its star
    # image from the reversed vertex pair; 96 checks
    for loops_a, loops_b, arrows in itertools.product(range(4), range(4), range(1, 4)):
        quiver = Quiver(("a", "b"), ((loops_a, arrows), (arrows, loops_b)))
        for a, b in (("a", "b"), ("b", "a")):
            report = homology_check(quiver, a, b, 4, s_max=6)
            assert report.passed, (quiver.matrix, a, b, report.mismatches[:1])


def test_homology_matches_component_dimension_directly():
    # H_0 at (1,1): (k+1) chain monomials minus the rank-1 star image
    for k in range(4):
        big_h = -2 * k
        b1 = unlink_differential(A2, "a", "b", (1, 1), big_h, 1)
        h0 = b1.target_dim - b1.rank()
        assert h0 == component_dimension(A2, (1, 1), big_h) == k


# -- sparse blocks against dense references -----------------------------------------

def test_identity_composed_with_identity_is_nonzero():
    identity = DifferentialBlock([{0: 1}, {1: 1}], 2)
    assert not identity.compose_is_zero(identity)
    assert identity.rank() == 2


def test_cancelling_composition_is_zero():
    # (1 1) . (1, -1)^T = 1 - 1
    row = DifferentialBlock([{0: 1}, {0: 1}], 1)
    col = DifferentialBlock([{0: 1, 1: -1}], 2)
    assert row.compose_is_zero(col)
    assert row.rank() == col.rank() == 1


def test_zero_partial_sum_is_not_a_zero_composition():
    # (1 1 1) . (1, -1, 1)^T: the partial sums run 1, 0, 1
    row = DifferentialBlock([{0: 1}, {0: 1}, {0: 1}], 1)
    assert not row.compose_is_zero(DifferentialBlock([{0: 1, 1: -1, 2: 1}], 3))
    # the first output row cancels, the second does not
    rows = DifferentialBlock([{0: 1, 1: 1}, {0: 1, 1: 2}], 2)
    assert not rows.compose_is_zero(DifferentialBlock([{0: 1, 1: -1}], 2))
    assert rows.compose_is_zero(DifferentialBlock([{}], 2))


def dense_matrix(block):
    """The block as target_dim dense rows, checking the sparse format."""
    matrix = [[0] * block.source_dim for _ in range(block.target_dim)]
    assert len(block.columns) == block.source_dim
    for col, entries in enumerate(block.columns):
        for row, x in entries.items():
            assert 0 <= row < block.target_dim and x != 0
            matrix[row][col] = x
    return matrix


def dense_rank(matrix):
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def dense_product_is_zero(left, right, inner):
    return all(sum(left[i][k] * right[k][j] for k in range(inner)) == 0
               for i in range(len(left)) for j in range(len(right[0]) if right else 0))


# MIX3 at bound 3 has at most one star generator, so no block pair composes
@pytest.mark.parametrize("quiver, a, b, bound, compositions",
                         [(M2, "a", "b", 4, True), (MIX3, "b", "c", 3, False)])
def test_blocks_match_dense_reference(monkeypatch, quiver, a, b, bound, compositions):
    blocks = {}
    original = algebra.unlink_differential

    def recording(quiver, a, b, degree, big_h, c):
        block = original(quiver, a, b, degree, big_h, c)
        blocks[tuple(degree), big_h, c] = block
        return block

    monkeypatch.setattr(algebra, "unlink_differential", recording)
    report = homology_check(quiver, a, b, bound)
    assert report.passed
    ranked = composed = nontrivial = 0
    for (degree, big_h, c), block in blocks.items():
        matrix = dense_matrix(block)
        assert block.rank() == dense_rank(matrix)
        ranked += block.rank() > 0
        feeding = blocks.get((degree, big_h, c + 1))
        if c >= 1 and feeding is not None:
            assert block.compose_is_zero(feeding) == dense_product_is_zero(
                matrix, dense_matrix(feeding), block.source_dim)
            composed += 1
            nontrivial += bool(block.target_dim and feeding.source_dim)
    assert ranked > 0
    assert composed == report.details["compositions_checked"]
    assert bool(nontrivial) == compositions


def test_homology_refuted_without_the_koszul_sign(monkeypatch):
    # a differential that forgets the Koszul sign of reordering its words
    # leaves d^2 != 0 and wrong homology, but only from bound 4 on: at bound
    # 3, the CLI default, neither quiver has a component that shows it
    q12 = Quiver(("a", "b"), ((1, 2), (2, 1)))
    signed = algebra.normalize_word

    def unsigned(word, parities):
        normal = signed(word, parities)
        return None if normal is None else (1, normal[1])

    monkeypatch.setattr(algebra, "normalize_word", unsigned)
    # the unsigned map does not descend to the quotient, so these counts
    # depend on the quotient basis, the non-pivot monomials
    kinds = [m.get("kind", "homology") for m in homology_check(MIX3, "a", "b", 4).mismatches]
    assert (kinds.count("nonzero composition"), kinds.count("homology")) == (7, 4)
    q12_report = homology_check(q12, "a", "b", 4)
    assert [m["kind"] for m in q12_report.mismatches] == ["nonzero composition"] * 2
    assert homology_check(MIX3, "a", "b", 3).passed
    assert homology_check(q12, "a", "b", 3).passed
