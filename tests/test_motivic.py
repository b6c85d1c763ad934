"""Motivic generating series, substitution identities, diagonalization."""

import hashlib
import itertools
import json
from dataclasses import replace

import pytest

from quivercalc import motivic
from quivercalc.algebra import poincare_check
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
    valuation_window,
    verify_diagonalization,
    verify_link_identity,
    verify_unlink_identity,
)
from quivercalc.motivic import DiagonalFactor, _factor_product
from quivercalc.quiver import Quiver, link, one_vertex, unlink
from quivercalc.quiver import euler_form
from quivercalc.series import (MultiSeries, TruncatedLaurent, VertexMonomial,
                               iter_multidegrees, pochhammer_inv)

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


@pytest.mark.parametrize("make, message", [
    (lambda: motivic_series(A2, 2, (3, 2)), "motivic_series: empty window [3, 2]"),
    (lambda: link_substitution(A2, "a", "a"), "link_substitution requires two distinct vertices"),
], ids=["empty-window", "same-vertex"])
def test_bad_arguments_raise_their_message(make, message):
    with pytest.raises(ValueError) as got:
        make()
    assert str(got.value) == message


def test_conventions_from_dict_validation():
    c = Conventions.from_dict({"link_qpow": -2})
    assert c.link_qpow == -2 and c.unlink_qpow == 0
    with pytest.raises(ValueError):
        Conventions.from_dict({"preset": "nope"})
    # a preset that is not a string is unknown too, not an unhashable key
    for preset in (["printed"], {}, 1):
        with pytest.raises(ValueError, match="unknown conventions preset"):
            Conventions.from_dict({"preset": preset})
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


def test_calibrated_check_substitutes_once_per_constant(monkeypatch):
    # the configured constant's substitution serves its calibration entry
    # too, and a wrong constant that fails through |d| = 2 is substituted
    # only that far
    calls = []
    substitute = MultiSeries.substitute

    def counting_substitute(self, vertex, monomial, out_vertices, out_cap=None):
        calls.append((monomial.qpow, out_cap))
        return substitute(self, vertex, monomial, out_vertices, out_cap)

    monkeypatch.setattr(MultiSeries, "substitute", counting_substitute)
    for verify, qpow in ((verify_link_identity, CALIBRATED["link_qpow"]),
                         (verify_unlink_identity, CALIBRATED["unlink_qpow"])):
        calls.clear()
        report = verify(MIX3, "a", "b", 4, calibrate=True)
        assert report.passed
        assert sorted(calls) == [(power, 4 if power == qpow else 2)
                                 for power in range(-2, 3)]


def test_calibration_scan_checks_past_degree_two(monkeypatch):
    # a left-hand side corrupted at |d| = 3 agrees with the calibrated
    # constant through |d| = 2 only; the scan must still refute it there
    # (both sides come from _motivic_sides, the left one first)
    sides = motivic._motivic_sides

    def corrupted(order, window, *requested):
        out = sides(order, window, *requested)
        if requested[0][0] is not A2:
            return out
        lhs = out[0]
        term = lhs.terms[(2, 1)]
        bump = TruncatedLaurent.monomial(term.valuation(), 1, term.lo, term.hi)
        return [MultiSeries(lhs.vertices, lhs.cap, lhs.window,
                            {**lhs.terms, (2, 1): term + bump}), *out[1:]]

    monkeypatch.setattr(motivic, "_motivic_sides", corrupted)
    printed = Conventions.from_dict(PRINTED)
    for verify in (verify_link_identity, verify_unlink_identity):
        report = verify(A2, "a", "b", 4, conventions=printed, calibrate=True)
        assert not any(report.details["calibration"].values())


def full_calibration_scan(kind, quiver, order, window, conventions):
    """Every constant q^(k/2), k = -2..2, checked by a full substitution
    through `order`; true only where something nonzero was compared."""
    if kind == "linking":
        transformed = link(quiver, "a", "b")
        mono = link_substitution(quiver, "a", "b", conventions)
    else:
        transformed = unlink(quiver, "a", "b")
        mono = unlink_substitution(quiver, "a", "b", conventions)
    if window is None:
        window = default_window(order, max(quiver.max_loops(), transformed.max_loops()))
    lhs = motivic_series(quiver, order, window)
    rhs = motivic_series(transformed, order, window)
    compared = any(sum(d) and not term.is_zero() for d, term in lhs.terms.items())
    return {str(power): compared and not lhs.first_mismatches(
                rhs.substitute(transformed.vertices[-1], replace(mono, qpow=power),
                               quiver.vertices, out_cap=order), limit=1)
            for power in range(-2, 3)}


@pytest.mark.parametrize("kind", ["linking", "unlinking"])
def test_calibration_matches_full_substitution_scan(kind):
    verify = verify_link_identity if kind == "linking" else verify_unlink_identity
    printed = Conventions.from_dict(PRINTED)
    below = (-200, -190)  # below all support: nothing is compared
    for quiver in FLEET:
        for order in range(9):
            for window in (None, (-4, 0), below):
                for conventions in (DEFAULT_CONVENTIONS, printed):
                    report = verify(quiver, "a", "b", order, window, conventions,
                                    calibrate=True)
                    scan = report.details["calibration"]
                    assert scan == full_calibration_scan(
                        kind, quiver, order, window, conventions), (quiver, order, window)
                    if window == below:
                        assert not any(scan.values())


LOOP_QUIVERS = tuple(one_vertex(m) for m in range(4))


def substitution_cases():
    """(transformed quiver, output vertices, exponents of x_a x_b) for
    linking and unlinking every pair of the fleet, and for the m-loop
    vertex, m = 0..3, substituted into two fresh variables: a loop vertex
    is a transformed side whose only vertex is the fresh one."""
    for quiver in FLEET:
        for a, b in itertools.combinations(quiver.vertices, 2):
            expo = link_substitution(quiver, a, b).exponents
            yield link(quiver, a, b), quiver.vertices, expo
            if quiver.arrows(a, b):
                yield unlink(quiver, a, b), quiver.vertices, expo
    for loops in LOOP_QUIVERS:
        yield loops, ("a", "b"), (1, 1)


def test_read_degrees_substitute_like_the_full_series():
    # the transformed side built on read degrees only substitutes to the
    # same coefficients and windows as the full series, at every constant
    # and every cap up to the order
    for transformed, out_vertices, expo in substitution_cases():
        fresh = transformed.vertices[-1]
        for order in range(1, 8):
            window = default_window(order, transformed.max_loops())
            full = motivic_series(transformed, order, window)
            read = motivic._motivic_sides(
                order, window,
                (transformed, motivic._read_degrees(len(transformed) - 1, order)))[0]
            assert set(read.terms) == {d for d in full.terms if sum(d) + d[-1] <= order}
            for power in range(-2, 3):
                mono = VertexMonomial(expo, power)
                for cap in range(order + 1):
                    got = read.substitute(fresh, mono, out_vertices, out_cap=cap)
                    want = full.substitute(fresh, mono, out_vertices, out_cap=cap)
                    assert got.terms.keys() == want.terms.keys()
                    for d, coeff in want.terms.items():
                        # equality compares the coefficients and the (lo, hi) window
                        assert got.terms[d] == coeff, (transformed.vertices, order, d)


def test_read_degrees_of_linked_mix3_at_order_ten():
    linked = link(MIX3, "a", "b")
    assert len(list(iter_multidegrees(len(linked), 10))) == 1001
    assert len(list(motivic._read_degrees(len(MIX3), 10))) == 581


def substitution_sides_cases():
    """(quiver, transformed) for every fleet quiver, ordered vertex pair and
    move that applies to it."""
    for quiver in FLEET:
        for a, b in itertools.permutations(quiver.vertices, 2):
            yield quiver, link(quiver, a, b)
            if quiver.arrows(a, b):
                yield quiver, unlink(quiver, a, b)


def test_shared_table_builds_each_side_as_built_alone():
    # both sides of a substitution check, from one table of Pochhammer
    # products, equal the sides built separately: the same degrees, and the
    # same coefficients and (lo, hi) in every degree.  Some left-hand
    # prefix is reached further than on the right, so the merged hi matters.
    lhs_reaches_further = False
    for quiver, transformed in substitution_sides_cases():
        for order in range(9):
            read = list(motivic._read_degrees(len(quiver), order))
            for window in (default_window(order, quiver.max_loops()), (-200, -190)):
                lhs, rhs = motivic._motivic_sides(
                    order, window, (quiver, iter_multidegrees(len(quiver), order)),
                    (transformed, read))
                for got, want in ((lhs, motivic_series(quiver, order, window)),
                                  (rhs, motivic._motivic_sides(order, window,
                                                               (transformed, read))[0])):
                    assert (got.vertices, got.cap, got.window) == (
                        want.vertices, want.cap, want.window)
                    # equality compares the coefficients and the (lo, hi) window
                    assert got.terms == want.terms, (quiver, transformed, order, window)
                # one object per (parts, chi) over both sides, each equal to
                # the coefficient built alone, one degree at a time
                shared = {}
                for q, got in ((quiver, lhs), (transformed, rhs)):
                    for d, term in got.terms.items():
                        key = (tuple(sorted(filter(None, d), reverse=True)),
                               euler_form(q, d, d))
                        if key in shared:
                            assert shared[key] is term, (q.vertices, d)
                            continue
                        shared[key] = term
                        assert term == ref_coefficient(q, d, window), (
                            q.vertices, order, window, d)
            # a degree's hi is the window's hi plus chi(d,d); a prefix is
            # reached by the largest one of a degree extending it
            reach = [{}, {}]
            for side, (q, degrees) in enumerate(
                    ((quiver, iter_multidegrees(len(quiver), order)), (transformed, read))):
                for d in degrees:
                    parts = tuple(sorted(filter(None, d), reverse=True))
                    chi = euler_form(q, d, d)
                    for prefix in (parts[:k] for k in range(1, len(parts) + 1)):
                        reach[side][prefix] = max(reach[side].get(prefix, chi), chi)
            lhs_reaches_further |= any(chi > reach[1][prefix]
                                       for prefix, chi in reach[0].items()
                                       if prefix in reach[1])
    assert lhs_reaches_further


def test_substitution_check_takes_each_pochhammer_product_once(monkeypatch):
    # one product per prefix of descending parts over both sides together
    calls = []
    poch = motivic.pochhammer_inv

    def counting(n, lo, hi):
        calls.append((n, lo, hi))
        return poch(n, lo, hi)

    monkeypatch.setattr(motivic, "pochhammer_inv", counting)
    for verify, move in ((verify_link_identity, link), (verify_unlink_identity, unlink)):
        calls.clear()
        assert verify(MIX3, "a", "b", 6, calibrate=True).passed
        prefixes = set()
        for q, degrees in ((MIX3, iter_multidegrees(3, 6)),
                           (move(MIX3, "a", "b"), motivic._read_degrees(3, 6))):
            for d in degrees:
                parts = tuple(sorted(filter(None, d), reverse=True))
                prefixes.update(parts[:k] for k in range(1, len(parts) + 1))
        assert len(calls) == len(prefixes)


def test_printed_constants_fail():
    printed = Conventions.from_dict({"preset": "printed"})
    report = verify_link_identity(A2, "a", "b", 3, conventions=printed)
    assert not report.passed
    assert report.mismatches[0]["degree"] == [1, 1]
    report = verify_unlink_identity(A2, "a", "b", 3, conventions=printed)
    assert not report.passed


def test_identity_at_order_zero_is_trivial():
    # order 0 compares only the constant term 1 = 1, which every quiver has
    for verify in (verify_link_identity, verify_unlink_identity):
        report = verify(A2, "a", "b", 0)
        assert [m["kind"] for m in report.mismatches] == ["inconclusive"]


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


def test_diagonalize_builds_only_kept_monomials(monkeypatch):
    # a pair whose fresh vertex would exceed the order is pruned on its
    # integer degrees, before any monomial is built for it
    built = []
    times = VertexMonomial.times

    def recording_times(self, other, extra_qpow=0):
        mono = times(self, other, extra_qpow)
        built.append(mono.total_degree())
        return mono

    monkeypatch.setattr(VertexMonomial, "times", recording_times)
    for quiver, order, pruned, factors, _ in DIAGONALIZATION_DIGESTS:
        built.clear()
        result = diagonalize(quiver, order)
        assert (result.pruned_count, len(result.factors)) == (pruned, factors)
        assert built and max(built) <= order


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


def test_valuation_window_values():
    empty = Quiver((), ())
    for quiver, order, window in ((M2, 7, (-22, 63)), (M2, 9, (-26, 97)),
                                  (MIX3, 5, (-18, 46)), (MIX3, 7, (-22, 80)),
                                  (empty, 1, (-10, 8))):
        assert valuation_window(quiver, order) == window, (quiver.vertices, order)


def test_valuation_window_reaches_every_degree():
    # at order 10 every degree 0 < |d| <= 10 has a nonzero coefficient on the
    # rule's window; default_window at the quiver's loop count misses many
    for quiver, degrees, on_default in ((A2, 65, 58), (M2, 65, 45), (M2L, 65, 32),
                                        (MIX3, 285, 120)):
        for window, nonzero in ((valuation_window(quiver, 10), degrees),
                                (default_window(10, quiver.max_loops()), on_default)):
            series = motivic_series(quiver, 10, window)
            compared = [term for d, term in series.terms.items() if any(d)]
            assert len(compared) == degrees
            assert sum(not term.is_zero() for term in compared) == nonzero, window


def test_verify_diagonalization_default_window_and_counts():
    report = verify_diagonalization(MIX3, 4)
    assert report.parameters["window"] == list(valuation_window(MIX3, 4))
    assert (report.details["degrees_compared"], report.details["degrees_nonzero"]) == (34, 34)
    # on a window that ends below t^1 nothing beyond the unit is nonzero
    report = verify_diagonalization(M2, 3, (-5, 0))
    assert (report.details["degrees_compared"], report.details["degrees_nonzero"]) == (9, 0)
    assert [m["kind"] for m in report.mismatches] == ["inconclusive"]


def test_series_checks_count_degrees_on_the_default_window():
    # linking, unlinking and poincare count the degrees 0 < |d| <= order of
    # the left-hand side and those nonzero on default_window: at order 10
    # MIX3 has a nonzero coefficient at 120 of its 285 degrees there
    for report in (verify_link_identity(MIX3, "a", "b", 10),
                   verify_unlink_identity(MIX3, "c", "b", 10),
                   poincare_check(MIX3, 10)):
        assert report.parameters["window"] == list(default_window(10, 1))
        assert (report.details["degrees_compared"], report.details["degrees_nonzero"]) == (
            285, 120), report.name
        assert report.summary() == (f"PASS {report.name} "
                                    "(120 of 285 degrees nonzero on the window)")
    # below t^1 nothing beyond the unit is nonzero
    for report in (verify_link_identity(M2, "a", "b", 3, (-5, 0)),
                   poincare_check(M2, 3, (-5, 0))):
        assert (report.details["degrees_compared"], report.details["degrees_nonzero"]) == (9, 0)
        assert [m["kind"] for m in report.mismatches] == ["inconclusive"]


def test_diagonalization_monomials_multiply_out():
    # each factor monomial is the product of its parents' monomials; checked
    # via exponent sums against the recorded parents encoded in the label
    result = diagonalize(M2, 3)
    for f in result.factors:
        assert f.monomial.total_degree() >= 1
        assert f.monomial.total_degree() <= 3


# -- the diagonalization product -------------------------------------------------

def ref_factor_fold(factors, vertices, rounds, window):
    """One multivariate product per factor, each one-vertex series built anew."""
    slack = max((abs(f.monomial.qpow) for f in factors), default=0) * rounds
    factor_window = (window[0] - slack, window[1] + slack)
    rhs = MultiSeries.one(vertices, rounds, window)
    for factor in factors:
        sub_order = rounds // factor.monomial.total_degree()
        single = motivic_series(one_vertex(factor.loop_count), sub_order, factor_window)
        rhs = rhs * single.substitute("v", factor.monomial, vertices, out_cap=rounds)
    return rhs


def test_factor_product_matches_per_factor_fold():
    # _factor_product multiplies the monomial groups highest degree first and
    # the reference folds the factors in order of appearance, so this also
    # checks that no window depends on the order of the products.  None
    # stands for verify_diagonalization's default, valuation_window; the last
    # case is the far wider default_window over M2's largest factor loop
    # count at order 4 (7), so the wide-window path stays tested
    cases = [(q, rounds, qpow, window) for q in FLEET for rounds in (1, 2, 3, 4)
             for window in (None, (-10, 10), (5, 30))
             for qpow in ((-1, 0, 1) if window is None else (-3, -1, 0, 1, 2))]
    cases.append((MIX3, 5, 0, (-10, 10)))
    cases.append((M2, 4, -1, default_window(4, 7)))
    for q, rounds, qpow, window in cases:
        result = diagonalize(q, rounds, Conventions(unlink_qpow=qpow))
        window = window or valuation_window(q, rounds)
        args = (result.factors, q.vertices, rounds, window)
        got = _factor_product(*args)
        want = ref_factor_fold(*args)
        assert (got.cap, got.window) == (want.cap, want.window)
        assert got.terms.keys() == want.terms.keys()
        for d, coeff in want.terms.items():
            # TruncatedLaurent equality compares the (lo, hi) window too
            assert got.terms[d] == coeff, (q.vertices, rounds, qpow, window, d)


def test_factor_product_builds_each_order_of_a_loop_count():
    # loop count 1 comes first at degree 2 (order 2), then at degree 1 (order 4)
    factors = (DiagonalFactor("ab", 1, VertexMonomial((1, 1), 0)),
               DiagonalFactor("a", 1, VertexMonomial((1, 0), 0)),
               DiagonalFactor("b", 0, VertexMonomial((0, 1), 1)))
    args = (factors, A2.vertices, 4, (-10, 10))
    assert _factor_product(*args).terms == ref_factor_fold(*args).terms


def test_factor_product_multiplies_once_per_monomial(monkeypatch):
    calls = {"mul": 0, "substitute": 0}
    mul, substitute = MultiSeries.mul, MultiSeries.substitute

    def counting_mul(self, other):
        if self.vertices == MIX3.vertices:
            calls["mul"] += 1
        return mul(self, other)

    def counting_substitute(self, *args, **kwargs):
        calls["substitute"] += 1
        return substitute(self, *args, **kwargs)

    monkeypatch.setattr(MultiSeries, "mul", counting_mul)
    monkeypatch.setattr(MultiSeries, "substitute", counting_substitute)
    result = diagonalize(MIX3, 4)
    distinct = len({f.monomial for f in result.factors})
    assert distinct < len(result.factors)
    _factor_product(result.factors, MIX3.vertices, 4, (-10, 10))
    assert calls == {"mul": distinct, "substitute": distinct}


# SHA-256 of the canonical verify_diagonalization JSON, mismatch payloads,
# their windows and the degree counts included.
# (quiver, order, conventions, window, passed)
VERIFY_DIAGONALIZATION_DIGESTS = (
    (M2, 5, PRINTED, None, False,
     "5b3403f37edeea8e7ebc83b73dafbf82cfedfe7af837b2b93002832f99b5507f"),
    (MIX3, 4, PRINTED, None, False,
     "0304540581e1d4a4bc5fdc193712f18705fa049058d3448e3c2d527af10ad698"),
    (M2L, 5, PRINTED, (-10, 10), False,
     "d35a29b21d46d4571d134fbeb5fb3f7601d4ae5b2f15229166a6b8caa9eb24ba"),
    (A2, 6, CALIBRATED, (5, 30), True,
     "3a74cf4903c9c28b661af4d4d2bad24d3a335c191688a171a613b54906a4db85"),
    (M2, 6, CALIBRATED, None, True,
     "f30a432b8d4f02689ae46c93e5638c086e1b5c8d4b8036c499ddebe1f0f23d6c"),
)


def test_verify_diagonalization_golden_digests():
    for quiver, rounds, constants, window, passed, digest in VERIFY_DIAGONALIZATION_DIGESTS:
        report = verify_diagonalization(quiver, rounds, window, Conventions(**constants))
        assert report.passed is passed
        text = json.dumps(report.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (quiver.vertices, rounds)


def test_calibration_on_zero_lhs_accepts_nothing():
    for verify in (verify_link_identity, verify_unlink_identity):
        report = verify(A2, "a", "b", 3, (-200, -190), calibrate=True)
        assert [m["kind"] for m in report.mismatches] == ["inconclusive"]
        assert set(report.details["calibration"].values()) == {False}


def ref_coefficient(quiver, d, window):
    """The coefficient of x^d as a product starting from 1, in the order of
    the parts of d."""
    chi = euler_form(quiver, d, d)
    hi = window[1] + chi
    lo = min(window[0] + chi, 0)
    if hi < 0:
        return TruncatedLaurent({}, *window)
    coeff = TruncatedLaurent.one(lo, hi)
    for di in d:
        if di:
            coeff = coeff.mul(pochhammer_inv(di, lo, hi), hi_cap=hi)
    return coeff.scale(-1 if chi % 2 else 1).shift(-chi)


def ref_motivic_series(quiver, order, window):
    """Every degree's coefficient built alone, one degree at a time."""
    return {d: ref_coefficient(quiver, d, window)
            for d in iter_multidegrees(len(quiver), order)}


# four vertices whose permuted degrees share their parts under different
# Euler forms, so one Pochhammer product serves several cuts
Q4 = Quiver(("a", "b", "c", "d"),
            ((0, 1, 0, 2), (1, 2, 1, 0), (0, 1, 1, 1), (2, 0, 1, 3)))


def test_motivic_series_first_factor_window():
    assert euler_form(Q4, (1, 2, 0, 0), (1, 2, 0, 0)) != euler_form(
        Q4, (0, 0, 2, 1), (0, 0, 2, 1))
    for q in FLEET + (one_vertex(2), Q4):
        for order in range(7):
            for window in ((-12, 20), (3, 9), (-30, 2), (0, 0), (-3, 60)):
                got = motivic_series(q, order, window).terms
                want = ref_motivic_series(q, order, window)
                assert got.keys() == want.keys()
                for d, coeff in want.items():
                    # equality compares the coefficients and the (lo, hi) window
                    assert got[d] == coeff, (q.vertices, order, window, d)
                    assert ({e: type(c) for e, c in got[d].coeffs.items()}
                            == {e: type(c) for e, c in coeff.coeffs.items()})
