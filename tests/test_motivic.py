"""Motivic generating series, substitution identities, diagonalization."""

import hashlib
import json

import pytest

from quivercalc.motivic import (
    CALIBRATED,
    Conventions,
    DEFAULT_CONVENTIONS,
    PRINTED,
    default_window,
    diagonalize,
    link_substitution,
    motivic_series,
    unlink_substitution,
    verify_diagonalization,
    verify_link_identity,
    verify_unlink_identity,
)
from quivercalc.quiver import Quiver, one_vertex

A2 = Quiver(("a", "b"), ((0, 1), (1, 0)))
M2 = Quiver(("a", "b"), ((0, 2), (2, 0)))
M2L = Quiver(("a", "b"), ((1, 2), (2, 0)))
MIX3 = Quiver(("a", "b", "c"), ((1, 1, 0), (1, 0, 2), (0, 2, 1)))
FLEET = (A2, M2, M2L, MIX3)


# -- the series itself -----------------------------------------------------------

def test_empty_quiver_series_is_one():
    empty = Quiver((), ())
    series = motivic_series(empty, 3, (-5, 5))
    assert series.coeff(()).coeffs == {0: 1}


def test_constant_term_is_one():
    for q in FLEET:
        series = motivic_series(q, 2, default_window(2, q.max_loops()))
        zero = (0,) * len(q)
        assert series.coeff(zero).coeff(0) == 1


def test_zero_loop_x_coefficient():
    series = motivic_series(one_vertex(0), 2, (-20, 40))
    c = series.coeff((1,))
    for e in range(-20, 41):
        assert c.coeff(e) == (1 if e >= 1 and e % 2 == 1 else 0)


def test_one_loop_x_coefficient():
    series = motivic_series(one_vertex(1), 2, (-20, 40))
    c = series.coeff((1,))
    for e in range(-20, 41):
        assert c.coeff(e) == (-1 if e >= 2 and e % 2 == 0 else 0)


def test_doubled_a2_degree_11_coefficient():
    # chi((1,1),(1,1)) = 0; coefficient is (poch_inv(1))^2 = (t^2/(1-t^2))^2,
    # so t^4 + 2t^6 + 3t^8 + ...
    series = motivic_series(A2, 2, (-10, 20))
    c = series.coeff((1, 1))
    for k in range(2, 10):
        assert c.coeff(2 * k) == k - 1
    assert c.coeff(3) == 0 and c.coeff(2) == 0


def test_two_loop_x2_coefficient():
    # chi((2,2)) for m=2: 4 - 8 = -4; sign +, shift t^4, poch_inv(2) leads t^6
    series = motivic_series(one_vertex(2), 2, (-10, 30))
    c = series.coeff((2,))
    assert c.coeff(10) == 1
    assert c.coeff(8) == 0
    # independent cross-check: t^4 * poch_inv(2) on the same window
    from quivercalc.series import pochhammer_inv
    expected = pochhammer_inv(2, -14, 26).shift(4)
    assert c.agrees_with(expected)


# -- substitution monomials and conventions --------------------------------------

def test_substitution_monomials():
    m = link_substitution(A2, "a", "b")
    assert m.exponents == (1, 1) and m.qpow == CALIBRATED["link_qpow"] == 1
    m = unlink_substitution(A2, "a", "b")
    assert m.exponents == (1, 1) and m.qpow == CALIBRATED["unlink_qpow"] == 0
    printed = Conventions.from_dict({"preset": "printed"})
    assert link_substitution(A2, "a", "b", printed).qpow == 0
    assert unlink_substitution(A2, "a", "b", printed).qpow == -1
    assert PRINTED == {"link_qpow": 0, "unlink_qpow": -1}


def test_unlink_substitution_requires_edge():
    q = Quiver(("a", "b"), ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        unlink_substitution(q, "a", "b")


def test_conventions_from_dict_validation():
    c = Conventions.from_dict({"link_qpow": -2})
    assert c.link_qpow == -2 and c.unlink_qpow == 0
    with pytest.raises(ValueError):
        Conventions.from_dict({"preset": "nope"})
    with pytest.raises(ValueError):
        Conventions.from_dict({"link_qpow": True})
    with pytest.raises(ValueError):
        Conventions.from_dict({"bogus": 1})


# -- identity verification --------------------------------------------------------

def test_link_identity_fleet_order4():
    for q in FLEET:
        report = verify_link_identity(q, "a", "b", 4)
        assert report.passed, report.summary()


def test_unlink_identity_fleet_order4():
    for q in FLEET:
        report = verify_unlink_identity(q, "a", "b", 4)
        assert report.passed, report.summary()
    report = verify_unlink_identity(MIX3, "b", "c", 4)
    assert report.passed


def test_calibration_scan_isolates_constants():
    for q in (A2, M2):
        report = verify_link_identity(q, "a", "b", 3, calibrate=True)
        assert report.details["calibration"] == {
            "-2": False, "-1": False, "0": False, "1": True, "2": False}
        report = verify_unlink_identity(q, "a", "b", 3, calibrate=True)
        assert report.details["calibration"] == {
            "-2": False, "-1": False, "0": True, "1": False, "2": False}


def test_printed_constants_fail():
    printed = Conventions.from_dict({"preset": "printed"})
    report = verify_link_identity(A2, "a", "b", 3, conventions=printed)
    assert not report.passed
    assert report.mismatches[0]["degree"] == [1, 1]
    report = verify_unlink_identity(A2, "a", "b", 3, conventions=printed)
    assert not report.passed


def test_identity_at_order_zero_is_trivial():
    report = verify_link_identity(A2, "a", "b", 0)
    assert report.passed


def test_degree_11_both_sides_hand_value():
    # with the calibrated constant, both sides at degree (1,1) of doubled A2
    # equal q^2/(1-q)^2 = t^4 + 2t^6 + 3t^8 + ...
    report = verify_unlink_identity(A2, "a", "b", 2)
    assert report.passed
    series = motivic_series(A2, 2, (-10, 20))
    c = series.coeff((1, 1))
    assert [c.coeff(2 * k) for k in (2, 3, 4)] == [1, 2, 3]


# -- diagonalization --------------------------------------------------------------

def test_diagonalize_doubled_a2():
    result = diagonalize(A2, 2)
    got = [(f.loop_count, f.monomial.exponents, f.monomial.qpow)
           for f in result.factors]
    assert got == [(0, (1, 0), 0), (0, (0, 1), 0), (1, (1, 1), 0)]
    assert result.pruned_count == 0
    diag = result.diagonal_quiver()
    n = len(diag)
    assert all(diag.matrix[i][j] == 0
               for i in range(n) for j in range(n) if i != j)


def test_diagonalize_one_vertex_is_identity():
    for m in range(4):
        result = diagonalize(one_vertex(m), 3)
        assert len(result.factors) == 1
        assert result.factors[0].loop_count == m
        assert result.factors[0].monomial.exponents == (1,)


def test_diagonalize_m2_round_one():
    # two unlinks of (a,b): star_1 has 0+0+4-1 = 3 loops, star_2 from the
    # once-unlinked quiver has 0+0+2-1 = 1 loop; both carry monomial x_a x_b
    result = diagonalize(M2, 2)
    by_deg1 = [(f.loop_count, f.monomial.exponents) for f in result.factors
               if f.monomial.total_degree() <= 2][2:]
    assert ((3, (1, 1)) in by_deg1) and ((1, (1, 1)) in by_deg1)


def test_diagonalize_requires_round():
    with pytest.raises(ValueError):
        diagonalize(A2, 0)


# SHA-256 of the canonical diagonalization JSON; a change in pair order,
# pruning, labels or loop counts shows here.  (quiver, order, pruned, factors)
DIAGONALIZATION_DIGESTS = (
    (A2, 7, 0, 3, "f80d57e038be18a9f683bcb6c76a2d97781d44ea7b8d6c9279c096e91acc1d1b"),
    (M2, 7, 64923, 108, "06207a829c15c607a0b7131950b52a8c8a92d375c15806f08060f6dd0dfd3c02"),
    (M2L, 5, 13338, 54, "f2316ff12f5f96ee437ef633953ab38e342b4335054228a5bef7e072c20efd44"),
    (MIX3, 5, 50552, 112, "ad3577e2809cd79b4a386449fcc91be0ffa82eabcf92ac7dc0fac9e8df3b1f0b"),
)


def test_diagonalize_golden_digests():
    for quiver, order, pruned, factors, digest in DIAGONALIZATION_DIGESTS:
        result = diagonalize(quiver, order)
        assert (result.pruned_count, len(result.factors)) == (pruned, factors)
        text = json.dumps(result.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, quiver.vertices


def test_verify_diagonalization_fleet():
    for q in FLEET:
        for n in (1, 2, 3):
            report = verify_diagonalization(q, n)
            assert report.passed, f"{q.vertices} n={n}: {report.summary()}"


def test_verify_diagonalization_order4():
    for q in (A2, M2):
        report = verify_diagonalization(q, 4)
        assert report.passed


def test_diagonalization_monomials_multiply_out():
    # each factor monomial is the product of its parents' monomials; checked
    # via exponent sums against the recorded parents encoded in the label
    result = diagonalize(M2, 3)
    for f in result.factors:
        assert f.monomial.total_degree() >= 1
        assert f.monomial.total_degree() <= 3
