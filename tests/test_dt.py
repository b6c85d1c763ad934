"""Motivic DT invariant extraction, positivity, and invariance properties."""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

from quivercalc.dt import GUARD, DTEntry, DTResult, dt_check, dt_extract, dt_window
from quivercalc.motivic import (
    default_window,
    link_substitution,
    motivic_series,
    unlink_substitution,
)
from quivercalc.quiver import (Quiver, disjoint_union, euler_form, link, one_vertex,
                              unlink)
from quivercalc.series import (
    MultiSeries,
    TruncatedLaurent,
    pleth_exp,
)

A2 = Quiver(("a", "b"), ((0, 1), (1, 0)))


def dt_of(quiver, order, loops_floor=1):
    window = default_window(order, max(loops_floor, quiver.max_loops()))
    return dt_extract(motivic_series(quiver, order, window))


# -- frozen oracles --------------------------------------------------------------

def test_zero_loop_invariants():
    result = dt_of(one_vertex(0), 5)
    assert result.entry((1,)).u_coeffs == {0: 1}
    for d in range(2, 6):
        entry = result.entry((d,))
        assert entry.u_coeffs == {} and entry.stable


def test_one_loop_invariants():
    result = dt_of(one_vertex(1), 5)
    assert result.entry((1,)).u_coeffs == {1: 1}
    for d in range(2, 6):
        assert result.entry((d,)).u_coeffs == {}


def test_two_loop_first_invariant():
    result = dt_of(one_vertex(2), 3)
    assert result.entry((1,)).u_coeffs == {2: 1}
    assert dt_check(result).passed


def test_doubled_a2_invariants():
    result = dt_of(A2, 3)
    assert result.entry((1, 0)).u_coeffs == {0: 1}
    assert result.entry((0, 1)).u_coeffs == {0: 1}
    assert result.entry((1, 1)).u_coeffs == {1: 1}
    for entry in result.entries:
        if entry.degree not in ((1, 0), (0, 1), (1, 1)):
            assert entry.u_coeffs == {}, entry.degree
    assert result.all_stable()


def test_empty_quiver_is_inconclusive():
    # no degree, so nothing was checked: not a pass
    result = dt_extract(motivic_series(Quiver((), ()), 3, (-12, 12)))
    assert result.entries == []
    report = dt_check(result)
    assert not report.passed
    assert [m["kind"] for m in report.mismatches] == ["inconclusive"]


def test_positivity_two_and_three_loops():
    for loops in (2, 3):
        result = dt_of(one_vertex(loops), 4)
        assert result.all_stable()
        report = dt_check(result)
        assert report.passed, report.summary()


def test_negated_input_fails_with_location():
    result = dt_of(one_vertex(2), 2)
    broken = DTResult(result.vertices, result.order, [
        DTEntry(e.degree, {k: -v for k, v in e.u_coeffs.items()},
                e.window, e.stable)
        for e in result.entries])
    report = dt_check(broken)
    assert not report.passed
    assert report.mismatches[0]["degree"] == [1]
    assert "2" in report.mismatches[0]["offending"]


def test_unstable_window_flags_not_errors():
    series = motivic_series(one_vertex(2), 2, (-6, 6))
    result = dt_extract(series)
    assert not result.all_stable()
    with pytest.raises(ValueError):
        dt_check(result)


def test_degrees_absent_from_log_are_stable_zeros():
    # Log(1 - t x_a) has no term in any degree with a b part: those entries
    # are exact zeros on the series' window
    series = MultiSeries(("a", "b"), 2, (-6, 6), {
        (0, 0): TruncatedLaurent.one(-6, 6),
        (1, 0): TruncatedLaurent({1: -1}, -6, 6)})
    result = dt_extract(series)
    for degree in ((0, 1), (1, 1), (0, 2)):
        entry = result.entry(degree)
        assert (entry.u_coeffs, entry.window, entry.stable) == ({}, (-6, 6), True)


def test_nonunit_constant_rejected():
    series = MultiSeries.zero(("a",), 2, (0, 4))
    with pytest.raises(ValueError):
        dt_extract(series)


def reineke_omega_at_one(m, d):
    """Omega_d(1) of the m-loop quiver in closed form (Reineke, "Cohomology of
    quiver moduli, functional equations, and integrality of Donaldson-Thomas
    type invariants", Compositio Math. 2011):
    d^-2 sum over e | d of mu(d/e) (-1)^((m-1)(d-e)) C(me-1, e-1)."""
    def mobius(n):
        primes = [p for p in range(2, n + 1) if n % p == 0
                  and all(p % q for q in range(2, p))]
        if any(n % (p * p) == 0 for p in primes):
            return 0
        return (-1) ** len(primes)

    def binom(top, k):  # C(top, k) for any integer top, as m = 0 needs C(-1, k)
        return prod(range(top, top - k, -1)) // factorial(k)

    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            sign = -1 if (m - 1) * (d - e) % 2 else 1
            total += mobius(d // e) * sign * binom(m * e - 1, e - 1)
    return Fraction(total, d * d)


@pytest.mark.parametrize("loops", range(5))
def test_loop_quiver_matches_reineke_closed_form(loops):
    order = 12
    # every degree is stable on this window: for loops >= 1 the support of
    # Omega_d ends at u^((loops - 1) d^2 + 1), and for loops = 0 only d = 1
    # is nonzero
    half = abs(loops - 1) * order ** 2 + 12
    result = dt_extract(motivic_series(one_vertex(loops), order, (-half, half)))
    for d in range(1, order + 1):
        entry = result.entry((d,))
        assert entry.stable, d
        assert sum(entry.u_coeffs.values()) == reineke_omega_at_one(loops, d), d
    if loops == 3:
        assert [sum(result.entry((d,)).u_coeffs.values()) for d in range(1, 8)] == [
            1, 1, 3, 10, 40, 171, 791]


# -- the Euler-form window ------------------------------------------------------------

def test_dt_window_values():
    # top = max over 1 <= d <= order of 1 - chi(d,d) = 1 + (m - 1) d^2
    assert GUARD == 5  # the windows below are (-(GUARD + 1), top + GUARD + 1)
    assert dt_window(one_vertex(3), 20) == (-6, 807)
    assert dt_window(one_vertex(0), 12) == (-6, 6)  # top 0, at d = 1
    assert dt_window(A2, 2) == (-6, 7)  # top 1, at (1, 1)
    assert dt_window(one_vertex(2), 0) == (-6, 6)  # no degree: top 0
    assert dt_window(Quiver((), ()), 3) == (-6, 6)


def random_symmetric_quiver(rng, n):
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            matrix[i][j] = matrix[j][i] = rng.randint(0, 3)
    return Quiver(tuple("abc"[:n]), tuple(map(tuple, matrix)))


def test_dt_window_decides_every_degree():
    # on 63 seeded symmetric quivers, every degree is stable on dt_window, the
    # invariants equal those on a window three times as wide, and every
    # u-exponent lies within the moduli dimension 1 - chi(d,d); one t-power
    # less at the top leaves some degree unstable
    rng = random.Random(20261018)
    nonzero = 0
    for case in range(63):
        n = case % 3 + 1
        quiver = random_symmetric_quiver(rng, n)
        order = {1: 7, 2: 5, 3: 4}[n]
        lo, hi = dt_window(quiver, order)
        result = dt_extract(motivic_series(quiver, order, (lo, hi)))
        wide = dt_extract(motivic_series(quiver, order, (3 * lo, 3 * hi)))
        for entry in result.entries:
            assert entry.stable, (quiver.matrix, entry.degree)
            assert entry.u_coeffs == wide.entry(entry.degree).u_coeffs
            top = 1 - euler_form(quiver, entry.degree, entry.degree)
            assert all(abs(e) <= top for e in entry.u_coeffs), (quiver.matrix, entry.degree)
            nonzero += len(entry.u_coeffs)
        short = dt_extract(motivic_series(quiver, order, (lo, hi - 1)))
        assert not short.all_stable(), quiver.matrix
    assert nonzero > 3000


# -- structural properties ---------------------------------------------------------

def test_exp_round_trip_reconstructs_series():
    # pleth_exp(Omega / -(t - t^-1)) must reproduce A degree by degree
    for quiver in (A2, one_vertex(2)):
        order = 3
        window = default_window(order, max(1, quiver.max_loops()))
        series = motivic_series(quiver, order, window)
        result = dt_extract(series)
        terms = {}
        for entry in result.entries:
            if not entry.u_coeffs:
                continue
            t_coeffs = {e: (-v if e % 2 else v)
                        for e, v in entry.u_coeffs.items()}
            omega_t = TruncatedLaurent(t_coeffs, *entry.window)
            neg_bracket = TruncatedLaurent({-1: 1, 1: -1}, -1, entry.window[1] + 2)
            terms[entry.degree] = omega_t.mul(neg_bracket.inverse())
        log_a = MultiSeries(result.vertices, order,
                            next(iter(terms.values())).window(), terms)
        assert pleth_exp(log_a).agrees_with(series)


def test_invariance_under_linking():
    for quiver in (A2, Quiver(("a", "b"), ((0, 2), (2, 0)))):
        order = 3
        window = default_window(order, max(1, quiver.max_loops()) + 2)
        base = dt_extract(motivic_series(quiver, order, window))
        transformed = link(quiver, "a", "b")
        big = motivic_series(transformed, order, window)
        substituted = big.substitute(transformed.vertices[-1],
                                     link_substitution(quiver, "a", "b"),
                                     quiver.vertices, out_cap=order)
        other = dt_extract(substituted)
        for entry in base.entries:
            twin = other.entry(entry.degree)
            assert entry.u_coeffs == twin.u_coeffs, entry.degree


def test_invariance_under_unlinking():
    order = 3
    quiver = A2
    window = default_window(order, 3)
    base = dt_extract(motivic_series(quiver, order, window))
    transformed = unlink(quiver, "a", "b")
    big = motivic_series(transformed, order, window)
    substituted = big.substitute(transformed.vertices[-1],
                                 unlink_substitution(quiver, "a", "b"),
                                 quiver.vertices, out_cap=order)
    other = dt_extract(substituted)
    for entry in base.entries:
        assert entry.u_coeffs == other.entry(entry.degree).u_coeffs


def test_disjoint_union_additivity():
    q1 = one_vertex(1, "x")
    q2 = one_vertex(2, "y")
    union = disjoint_union(q1, q2)
    got = dt_of(union, 3, loops_floor=2)
    part1 = dt_of(q1, 3, loops_floor=2)
    part2 = dt_of(q2, 3, loops_floor=2)
    for entry in got.entries:
        d1, d2 = entry.degree
        if d1 and d2:
            assert entry.u_coeffs == {}, entry.degree
        elif d1:
            assert entry.u_coeffs == part1.entry((d1,)).u_coeffs
        else:
            assert entry.u_coeffs == part2.entry((d2,)).u_coeffs


def test_result_json_shape():
    result = dt_of(one_vertex(1), 2)
    payload = result.to_json()
    assert payload["convention"]["variable"] == "u = -q^(1/2)"
    first = payload["invariants"][0]
    assert set(first) == {"degree", "omega", "window", "stable", "positive"}
    with pytest.raises(KeyError):
        result.entry((9, 9))
