"""Acceptance gate: one test per contract criterion, all comparisons exact.

Run with `pytest -v tests/test_acceptance.py` to get one visible pass/fail
line per criterion; timed criteria additionally assert their runtime budget.
Every check here is zero-tolerance: coefficients, dimensions, and ranks are
compared as exact integers or rationals, never approximately.
"""

import time

import test_algebra
import test_series

from quivercalc.algebra import (
    component_dimension,
    functional_dimension,
    gr_linking_check,
    homology_check,
    loop_weight,
    poincare_check,
    unlink_differential,
)
from quivercalc.dt import dt_check, dt_extract
from quivercalc.motivic import (
    default_window,
    diagonalize,
    motivic_series,
    verify_diagonalization,
    verify_link_identity,
    verify_unlink_identity,
)
from quivercalc.quiver import Quiver, one_vertex
from quivercalc.series import iter_multidegrees

A2 = Quiver(("a", "b"), ((0, 1), (1, 0)))
M2 = Quiver(("a", "b"), ((0, 2), (2, 0)))
M2L = Quiver(("a", "b"), ((1, 2), (2, 0)))
MIX3 = Quiver(("a", "b", "c"), ((1, 1, 0), (1, 0, 2), (0, 2, 1)))
SUBSTITUTION_FLEET = (A2, M2, MIX3)
FULL_FLEET = tuple(one_vertex(m) for m in range(4)) + (A2, M2, M2L, MIX3)


def finish(n, label, started, budget=None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {n} blew its {budget}s budget: {elapsed:.1f}s")
    print(f"PASS criterion {n:2d} [{elapsed:7.3f}s] {label}")


def dt_of(quiver, order):
    window = default_window(order, max(1, quiver.max_loops()))
    return dt_extract(motivic_series(quiver, order, window))


def test_criterion_01_motivic_series_ground_truth():
    started = time.perf_counter()
    zero = motivic_series(one_vertex(0), 1, (-20, 40)).coeff((1,))
    one = motivic_series(one_vertex(1), 1, (-20, 40)).coeff((1,))
    for c in (zero, one):  # exactness must cover the requested window
        assert c.lo <= -20 and c.hi >= 40
    for e in range(-20, 41):
        assert zero.coeff(e) == (1 if e >= 1 and e % 2 == 1 else 0)
        assert one.coeff(e) == (-1 if e >= 2 and e % 2 == 0 else 0)
    finish(1, "one-vertex x^1 coefficients on [-20, 40]", started, budget=1.0)


def test_criterion_02_linking_identity_with_calibration():
    started = time.perf_counter()
    rejected = {"-2", "-1", "0", "2"}
    for quiver in SUBSTITUTION_FLEET:
        report = verify_link_identity(quiver, "a", "b", 4, calibrate=True)
        assert report.passed, report.summary()
        scan = report.details["calibration"]
        assert scan["1"] is True
        assert all(scan[k] is False for k in rejected), scan
    finish(2, "linking identity, order 4, constant q^(1/2) singled out",
           started, budget=30.0)


def test_criterion_03_unlinking_identity_with_calibration():
    started = time.perf_counter()
    rejected = {"-2", "-1", "1", "2"}
    for quiver in SUBSTITUTION_FLEET:
        report = verify_unlink_identity(quiver, "a", "b", 4, calibrate=True)
        assert report.passed, report.summary()
        scan = report.details["calibration"]
        assert scan["0"] is True
        assert all(scan[k] is False for k in rejected), scan
    finish(3, "unlinking identity, order 4, constant q^0 singled out",
           started, budget=30.0)


def test_criterion_04_diagonalization():
    started = time.perf_counter()
    factors = diagonalize(A2, 3).factors
    assert sorted(f.loop_count for f in factors) == [0, 0, 1]
    for quiver in (A2, M2):
        report = verify_diagonalization(quiver, 3)
        assert report.passed, report.summary()
    finish(4, "diagonalization exact to x-degree 3; doubled A2 = 0+0+1 loops",
           started, budget=120.0)


def test_criterion_05_dt_invariants():
    started = time.perf_counter()
    assert dt_of(one_vertex(0), 3).entry((1,)).u_coeffs == {0: 1}
    assert dt_of(one_vertex(1), 3).entry((1,)).u_coeffs == {1: 1}
    assert dt_of(one_vertex(2), 3).entry((1,)).u_coeffs == {2: 1}
    a2 = dt_of(A2, 3)
    oracle = {(1, 0): {0: 1}, (0, 1): {0: 1}, (1, 1): {1: 1}}
    for entry in a2.entries:
        assert entry.stable, entry.degree
        assert entry.u_coeffs == oracle.get(entry.degree, {}), entry.degree
    for loops in (2, 3):
        result = dt_of(one_vertex(loops), 4)
        assert result.all_stable()
        report = dt_check(result)
        assert report.passed, report.summary()
    finish(5, "DT oracles at |d| <= 3; positivity for 2,3 loops at |d| <= 4",
           started)


def test_criterion_06_dimension_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for quiver in FULL_FLEET:
        for degree in iter_multidegrees(len(quiver), 3):
            base = loop_weight(quiver, degree)
            for s in range(9):
                h = -base - 2 * s
                assert (component_dimension(quiver, degree, h)
                        == functional_dimension(quiver, degree, h)), \
                    (quiver.vertices, degree, h)
                checked += 1
    assert checked >= 500
    two_loop = one_vertex(2)
    dims = [component_dimension(two_loop, (2,), -4 - 2 * s) for s in range(5)]
    assert dims == [0, 0, 1, 1, 2]
    # the first nonzero M2 component at d = (3, 3): 1770 monomials
    assert component_dimension(M2, (3, 3), -36) == \
        functional_dimension(M2, (3, 3), -36) == 1
    finish(6, f"rank = functional dimension on {checked + 1} components", started)


def test_criterion_07_series_equals_algebra_poincare():
    started = time.perf_counter()
    for quiver in FULL_FLEET:
        report = poincare_check(quiver, 3)
        assert report.passed, report.summary()
    finish(7, "motivic series = algebra Poincare series, order 3, full fleet",
           started)


def test_criterion_08_linked_dimension_identity():
    started = time.perf_counter()
    for quiver in (A2, M2):
        report = gr_linking_check(quiver, "a", "b", 3)
        assert report.passed, report.summary()
        assert report.details["spot_checked"] > 0
    finish(8, "component dimensions sum along the linked-algebra grading",
           started)


def test_criterion_09_differential_and_homology():
    started = time.perf_counter()
    # bound 2 alone has no composable block pairs, so probe d/d = 0 directly
    # at degree (2,2) where two-star components exist
    for quiver, want in ((A2, 8), (M2, 4)):
        nontrivial = 0
        for s in range(9):
            big_h = -loop_weight(quiver, (2, 2)) - 2 * s
            blocks = [unlink_differential(quiver, "a", "b", (2, 2), big_h, c)
                      for c in range(3)]
            assert blocks[1].compose_is_zero(blocks[2])
            if blocks[2].source_dim and blocks[1].target_dim:
                nontrivial += 1
        assert nontrivial == want, (quiver.vertices, nontrivial)
    for quiver in (A2, M2):
        report = homology_check(quiver, "a", "b", 2)
        assert report.passed, report.summary()
        assert report.details["components_checked"] > 0
    finish(9, "d-blocks compose to zero; homology = algebra at bound 2",
           started, budget=300.0)


def test_criterion_10_property_suites():
    started = time.perf_counter()
    # each suite runs >= 100 seeded random instances internally
    test_series.test_series_ring_axioms()
    test_series.test_substitute_is_ring_morphism()
    test_series.test_pleth_round_trips()
    test_algebra.test_relation_system_rank_equivalence()
    finish(10, "4 randomized property suites, >= 100 instances each", started)
