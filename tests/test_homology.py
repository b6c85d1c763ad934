"""The unlinking differential: blocks, d^2 = 0, homology dimensions."""

import pytest

from quivercalc.algebra import (
    component_dimension,
    homology_check,
    loop_weight,
    unlink_differential,
)
from quivercalc.quiver import Quiver, one_vertex

A2 = Quiver(("a", "b"), ((0, 1), (1, 0)))
M2 = Quiver(("a", "b"), ((0, 2), (2, 0)))


def test_doubled_a2_star_line_block():
    # m_ab = 1 so p = 0: the single star generator e_{star,k} maps to
    # sum_{a'+b'=k} e_{a,a'} e_{b,b'}; the unlinked quiver has no relations
    # at (1,1,0), so the block is a column of k+1 ones
    for k in range(4):
        big_h = -2 * k
        block = unlink_differential(A2, "a", "b", (1, 1), big_h, 1)
        assert block.source_dim == 1
        assert block.target_dim == k + 1
        assert block.matrix == [[1]] * (k + 1)
        assert block.rank() == (1 if k >= 0 else 0)


def test_zero_star_block_is_zero():
    block = unlink_differential(A2, "a", "b", (1, 1), -4, 0)
    assert block.target_dim == 0
    assert block.matrix == []
    assert block.rank() == 0


def test_differential_raises_h_by_one():
    block = unlink_differential(M2, "a", "b", (1, 1), -6, 1)
    assert block.source_key["c"] == 1
    assert block.target_key["c"] == 0
    assert block.source_key["H"] == block.target_key["H"] == -6


def test_m2_block_uses_falling_factorials():
    # p = m_ab - 1 = 1: d e_{star,1} = sum_{a'+b'=2} b' e_{a,a'} e_{b,b'}
    # = 2 e_{a,0}e_{b,2} + e_{a,1}e_{b,1}; the target has the relation
    # e_{a,0}e_{b,2} + e_{a,1}e_{b,1} + e_{a,2}e_{b,0} = 0 with pivot on the
    # first monomial, so the quotient coordinates are (1-2, 0-2) = (-1, -2)
    block = unlink_differential(M2, "a", "b", (1, 1), -2 * 2, 1)
    assert block.source_dim == 1
    assert block.target_dim == 2
    assert block.matrix == [[-1], [-2]]
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
    bare = Quiver(("a", "b"), ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        unlink_differential(bare, "a", "b", (1, 1), -2, 0)
    with pytest.raises(ValueError):
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


def test_homology_matches_component_dimension_directly():
    # H_0 at (1,1): (k+1) chain monomials minus the rank-1 star image
    for k in range(4):
        big_h = -2 * k
        b1 = unlink_differential(A2, "a", "b", (1, 1), big_h, 1)
        h0 = b1.target_dim - b1.rank()
        assert h0 == component_dimension(A2, (1, 1), big_h) == k
