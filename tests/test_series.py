"""Exact windowed Laurent / multivariate series arithmetic."""

import copy
import random
from fractions import Fraction

import pytest

import quivercalc.series as series_module
from quivercalc.series import (
    _PACK_MIN_TERMS,
    MultiSeries,
    NotInvertible,
    SeriesError,
    TruncatedLaurent,
    TruncationUnderflow,
    VertexMonomial,
    exact_str,
    iter_multidegrees,
    partition_product_coeffs,
    pleth_exp,
    pleth_log,
    pochhammer_inv,
)


def rand_laurent(rng, allow_zero=True, max_span=9):
    lo = rng.randint(-6, 3)
    hi = lo + rng.randint(0, max_span)
    coeffs = {}
    for e in range(lo, hi + 1):
        if rng.random() < 0.5:
            coeffs[e] = rng.randint(-4, 4)
    s = TruncatedLaurent(coeffs, lo, hi)
    if not allow_zero and s.is_zero():
        coeffs[lo] = 1
        s = TruncatedLaurent(coeffs, lo, hi)
    return s


def rand_multiseries(rng, vertices=("a", "b"), cap=3, window=(-4, 6),
                     zero_constant=False, unit_constant=False):
    terms = {}
    for d in iter_multidegrees(len(vertices), cap):
        if rng.random() < 0.6:
            coeffs = {e: rng.randint(-3, 3)
                      for e in range(window[0], window[1] + 1)
                      if rng.random() < 0.4}
            terms[d] = TruncatedLaurent(coeffs, *window)
    zero_deg = (0,) * len(vertices)
    if zero_constant:
        terms.pop(zero_deg, None)
    if unit_constant:
        terms[zero_deg] = TruncatedLaurent.one(*window)
    return MultiSeries(vertices, cap, window, terms)


# -- TruncatedLaurent basics ---------------------------------------------------

def test_window_validation():
    with pytest.raises(TruncationUnderflow):
        TruncatedLaurent({}, 3, 2)
    with pytest.raises(ValueError):
        TruncatedLaurent({5: 1}, 0, 4)
    s = TruncatedLaurent({1: 0, 2: 3}, 0, 4)
    assert s.coeffs == {2: 3}


def test_coeff_and_valuation():
    s = TruncatedLaurent({-1: 2, 3: -5}, -2, 6)
    assert s.coeff(-1) == 2
    assert s.coeff(0) == 0
    assert s.coeff(-2) == 0
    assert s.valuation() == -1
    with pytest.raises(TruncationUnderflow):
        s.coeff(7)


def test_monomial_product_window():
    # t * t^-1 = 1 with a guaranteed window containing [-1, 1]
    a = TruncatedLaurent.monomial(1, 1, 0, 10)
    b = TruncatedLaurent.monomial(-1, 1, -10, 0)
    p = a.mul(b)
    assert p.coeff(0) == 1
    assert p.lo <= -1 and p.hi >= 1
    assert all(c == 0 for e, c in p.coeffs.items() if e != 0)


def test_difference_of_squares():
    one_plus = TruncatedLaurent({0: 1, 1: 1}, 0, 10)
    one_minus = TruncatedLaurent({0: 1, 1: -1}, 0, 10)
    p = one_plus * one_minus
    assert p.coeffs == {0: 1, 2: -1}
    assert p.window() == (0, 10)


def test_tail_convolution():
    # (sum_{e>=2} t^e)^2 = sum_{e>=4} (e-3) t^e, provably exact through t^10
    tail = TruncatedLaurent({e: 1 for e in range(2, 9)}, 0, 8)
    p = tail * tail
    assert p.window() == (0, 10)
    for e in range(0, 4):
        assert p.coeff(e) == 0
    for e in range(4, 11):
        assert p.coeff(e) == e - 3


def test_inverse_monomial():
    s = TruncatedLaurent.monomial(2, 1, 0, 8)
    inv = s.inverse()
    assert inv.coeff(-2) == 1
    assert s.mul(inv).coeff(0) == 1


def test_inverse_geometric():
    s = TruncatedLaurent({0: 1, 2: -1}, 0, 10)
    inv = s.inverse()
    for e in range(0, 11, 2):
        assert inv.coeff(e) == 1
    for e in range(1, 10, 2):
        assert inv.coeff(e) == 0


def test_inverse_one_loop_coefficient():
    # -t^2 - t^4 - ... = -t^2/(1-t^2); inverse is -t^-2 + 1 exactly
    s = TruncatedLaurent({e: -1 for e in range(2, 13, 2)}, 0, 12)
    inv = s.inverse()
    assert inv.coeff(-2) == -1
    assert inv.coeff(0) == 1
    for e in range(1, inv.hi + 1):
        assert inv.coeff(e) == 0


def test_inverse_rejects_zero():
    with pytest.raises(NotInvertible):
        TruncatedLaurent.zero(0, 5).inverse()


def test_shift_scale_truncate():
    s = TruncatedLaurent({0: 1, 1: 2}, 0, 5)
    assert s.shift(3).coeffs == {3: 1, 4: 2}
    assert s.shift(3).window() == (3, 8)
    assert s.scale(Fraction(1, 2)).coeff(1) == 1
    assert s.truncated(1).window() == (0, 1)


def test_exact_str():
    assert exact_str(3) == "3"
    assert exact_str(Fraction(-7, 2)) == "-7/2"
    assert exact_str(Fraction(4, 2)) == "2"


# -- ring axioms on random inputs ---------------------------------------------

def test_laurent_ring_axioms():
    rng = random.Random(20240811)
    for _ in range(150):
        a = rand_laurent(rng)
        b = rand_laurent(rng)
        c = rand_laurent(rng)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c).agrees_with(a.mul(b.mul(c)))
        assert a.mul(b + c).agrees_with(a.mul(b) + a.mul(c))
        assert (a + b) - b == a or ((a + b) - b).agrees_with(a)


def test_laurent_inverse_round_trip():
    rng = random.Random(97)
    for _ in range(120):
        a = rand_laurent(rng, allow_zero=False)
        inv = a.inverse()
        prod = a.mul(inv)
        assert prod.coeff(0) == 1
        assert all(c == 0 for e, c in prod.coeffs.items() if e != 0)


def test_series_ring_axioms():
    rng = random.Random(5150)
    for _ in range(110):
        a = rand_multiseries(rng)
        b = rand_multiseries(rng)
        c = rand_multiseries(rng)
        assert a.mul(b).agrees_with(b.mul(a))
        assert a.mul(b).mul(c).agrees_with(a.mul(b.mul(c)))
        assert a.mul(b + c).agrees_with(a.mul(b) + a.mul(c))


# -- pochhammer ----------------------------------------------------------------

def test_pochhammer_small():
    assert pochhammer_inv(0, 0, 10).coeffs == {0: 1}
    p1 = pochhammer_inv(1, 0, 12)
    assert {e: p1.coeff(e) for e in range(2, 13, 2)} == {e: -1 for e in range(2, 13, 2)}
    assert all(p1.coeff(e) == 0 for e in range(0, 12, 2) if e < 2)
    # q^3/((1-q)(1-q^2)) = q^3 + q^4 + 2q^5 + 2q^6 + 3q^7 + ...
    p2 = pochhammer_inv(2, 0, 16)
    assert p2.coeff(6) == 1 and p2.coeff(8) == 1
    assert p2.coeff(10) == 2 and p2.coeff(12) == 2
    assert p2.coeff(14) == 3
    assert p2.coeff(4) == 0 and p2.coeff(5) == 0


def test_pochhammer_defining_product():
    # pochhammer_inv(n) * prod_{k=1..n} (1 - q^-k) = 1 on the common window;
    # each factor lowers the provable hi by 2k, so start wide enough
    for n in range(0, 7):
        lo = -2 * (n * (n + 1)) - 4
        hi = 2 * n * (n + 1) + 10
        p = pochhammer_inv(n, lo, hi)
        prod = p
        for k in range(1, n + 1):
            prod = prod.mul(TruncatedLaurent({0: 1, -2 * k: -1}, lo, hi))
        assert prod.coeff(0) == 1
        assert all(c == 0 for e, c in prod.coeffs.items() if e != 0)


def test_pochhammer_leading_exponent():
    for n in range(1, 6):
        p = pochhammer_inv(n, 0, 3 * n * (n + 1))
        assert p.valuation() == n * (n + 1)
        assert p.coeff(n * (n + 1)) == (-1) ** n


def test_partition_product_coeffs_brute_force():
    # ways to write j as sum m_r * parts[r], one multiplicity per entry
    def brute(parts, j):
        if not parts:
            return int(j == 0)
        return sum(brute(parts[1:], j - m * parts[0])
                   for m in range(j // parts[0] + 1))

    for parts in ((), (1,), (1, 2, 3), (1, 1, 2), (1, 1, 2, 2, 3)):
        assert partition_product_coeffs(parts, 12) == \
            tuple(brute(parts, j) for j in range(13))
    maxsize = partition_product_coeffs.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096


# -- MultiSeries ---------------------------------------------------------------

def test_series_unit_and_product():
    one = MultiSeries.one(("a", "b"), 2, (0, 5))
    s = rand_multiseries(random.Random(3), cap=2, window=(0, 5))
    assert s.mul(one).agrees_with(s)
    xa = MultiSeries(("a", "b"), 2, (0, 5),
                     {(0, 0): TruncatedLaurent.one(0, 5),
                      (1, 0): TruncatedLaurent.one(0, 5)})
    xb = MultiSeries(("a", "b"), 2, (0, 5),
                     {(0, 0): TruncatedLaurent.one(0, 5),
                      (0, 1): TruncatedLaurent.one(0, 5)})
    p = xa.mul(xb)
    for d in ((0, 0), (1, 0), (0, 1), (1, 1)):
        assert p.coeff(d).coeff(0) == 1
    assert p.coeff((2, 0)).is_zero()


def test_series_cauchy_product():
    geo = MultiSeries(("a",), 3, (0, 4),
                      {(d,): TruncatedLaurent.one(0, 4) for d in range(4)})
    p = geo.mul(geo)
    for d in range(4):
        assert p.coeff((d,)).coeff(0) == d + 1


def test_substitute_single_term():
    s = MultiSeries(("d",), 2, (0, 4), {(1,): TruncatedLaurent.one(0, 4)})
    out = s.substitute("d", VertexMonomial((1, 1), 0), ("a", "b"))
    assert out.coeff((1, 1)).coeff(0) == 1
    assert out.coeff((2, 2)).is_zero()


def test_substitute_qpow_shift():
    # t * x_star^2 with x_star -> q^(-1/2) x_a x_b gives t^-1 x_a^2 x_b^2
    s = MultiSeries(("s",), 2, (0, 4),
                    {(2,): TruncatedLaurent.monomial(1, 1, 0, 4)})
    out = s.substitute("s", VertexMonomial((1, 1), -1), ("a", "b"))
    c = out.coeff((2, 2))
    assert c.coeff(-1) == 1
    assert all(v == 0 for e, v in c.coeffs.items() if e != -1)


def test_substitute_linearity():
    window = (0, 6)
    s = MultiSeries(("a", "d"), 2, window,
                    {(1, 0): TruncatedLaurent.one(*window),
                     (0, 1): TruncatedLaurent.one(*window)})
    out = s.substitute("d", VertexMonomial((1, 1), 1), ("a", "b"))
    assert out.coeff((1, 0)).coeff(0) == 1
    assert out.coeff((1, 1)).coeff(1) == 1


def test_substitute_rejects_degree_zero():
    s = MultiSeries(("a", "d"), 2, (0, 4),
                    {(0, 1): TruncatedLaurent.one(0, 4)})
    with pytest.raises(ValueError):
        s.substitute("d", VertexMonomial((0, 0), 1), ("a", "b"))


def test_substitute_is_ring_morphism():
    rng = random.Random(424242)
    target = VertexMonomial((1, 1), 1)
    for _ in range(110):
        a = rand_multiseries(rng, vertices=("a", "d"), cap=3)
        b = rand_multiseries(rng, vertices=("a", "d"), cap=3)
        sub_ab = a.mul(b).substitute("d", target, ("a", "b"))
        ab_sub = a.substitute("d", target, ("a", "b")).mul(
            b.substitute("d", target, ("a", "b")))
        assert sub_ab.agrees_with(ab_sub)
        sum_sub = (a + b).substitute("d", target, ("a", "b"))
        sub_sum = (a.substitute("d", target, ("a", "b"))
                   + b.substitute("d", target, ("a", "b")))
        assert sum_sub.agrees_with(sub_sum)


# -- plethystic operations ------------------------------------------------------

def test_psi_identity_and_monomials():
    rng = random.Random(11)
    s = rand_multiseries(rng, zero_constant=True)
    assert s.psi(1).agrees_with(s)
    xa_t = MultiSeries(("a", "b"), 4, (-3, 3),
                       {(1, 0): TruncatedLaurent.monomial(1, 1, -3, 3)})
    doubled = xa_t.psi(2)
    assert doubled.coeff((2, 0)).coeff(2) == 1
    mixed = MultiSeries(("a", "b"), 4, (-3, 3),
                        {(1, 0): TruncatedLaurent.one(-3, 3),
                         (0, 1): TruncatedLaurent.monomial(-1, 1, -3, 3)})
    sq = mixed.psi(2)
    assert sq.coeff((2, 0)).coeff(0) == 1
    assert sq.coeff((0, 2)).coeff(-2) == 1


def test_psi_composition():
    rng = random.Random(777)
    for _ in range(110):
        s = rand_multiseries(rng, cap=4, zero_constant=True)
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        assert s.psi(n).psi(m).agrees_with(s.psi(m * n))


def test_pleth_exp_zero_and_geometric():
    window = (0, 6)
    zero = MultiSeries.zero(("a",), 3, window)
    e = pleth_exp(zero)
    assert e.coeff((0,)).coeff(0) == 1
    assert e.coeff((1,)).is_zero()
    xa = MultiSeries(("a",), 3, window, {(1,): TruncatedLaurent.one(*window)})
    g = pleth_exp(xa)
    for d in range(4):
        assert g.coeff((d,)).coeff(0) == 1
        assert all(c == 0 for e2, c in g.coeff((d,)).coeffs.items() if e2 != 0)


def test_pleth_exp_of_tx():
    # Exp(t x) = 1/(1 - t x): coefficient of x^k is t^k
    window = (0, 8)
    s = MultiSeries(("a",), 4, window,
                    {(1,): TruncatedLaurent.monomial(1, 1, *window)})
    g = pleth_exp(s)
    for k in range(5):
        assert g.coeff((k,)).coeff(k) == 1


def test_pleth_log_of_one_plus_x():
    window = (0, 6)
    s = MultiSeries(("a",), 3, window,
                    {(0,): TruncatedLaurent.one(*window),
                     (1,): TruncatedLaurent.one(*window)})
    logged = pleth_log(s)
    back = pleth_exp(logged)
    assert back.agrees_with(s)


def test_pleth_round_trips():
    rng = random.Random(314159)
    for _ in range(100):
        s = rand_multiseries(rng, cap=3, window=(-3, 5), zero_constant=True)
        assert pleth_log(pleth_exp(s)).agrees_with(s)
        u = rand_multiseries(rng, cap=3, window=(-3, 5), zero_constant=True,
                             unit_constant=True)
        assert pleth_exp(pleth_log(u)).agrees_with(u)


def test_pleth_preconditions():
    window = (0, 4)
    not_unit = MultiSeries(("a",), 2, window,
                           {(0,): TruncatedLaurent.monomial(1, 1, *window)})
    with pytest.raises(ValueError):
        pleth_log(not_unit)
    nonzero_const = MultiSeries.one(("a",), 2, window)
    with pytest.raises(ValueError):
        pleth_exp(nonzero_const)


# -- serialization --------------------------------------------------------------

def test_laurent_to_json_and_q_string():
    s = TruncatedLaurent({-1: Fraction(1, 2), 2: -3}, -2, 4)
    j = s.to_json()
    assert j["window"] == [-2, 4]
    assert j["coefficients"] == {"-1": "1/2", "2": "-3"}
    text = s.to_q_string()
    assert "q" in text


def test_iter_multidegrees_graded_lex():
    degs = list(iter_multidegrees(2, 2))
    assert degs == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert list(iter_multidegrees(0, 3)) == [()]


def recursive_multidegrees(nvars, max_total):
    """The nested-generator enumeration iter_multidegrees replaced."""
    if nvars == 0:
        yield ()
        return

    def exact(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in exact(total - first, slots - 1):
                yield (first,) + rest

    for total in range(max_total + 1):
        yield from exact(total, nvars)


def test_iter_multidegrees_matches_the_recursive_enumeration():
    for nvars in range(5):
        for max_total in range(-1, 7):
            assert (list(iter_multidegrees(nvars, max_total))
                    == list(recursive_multidegrees(nvars, max_total))), (nvars, max_total)


def test_iter_multidegrees_does_not_recurse_per_variable():
    degs = iter_multidegrees(5000, 1)
    assert next(degs) == (0,) * 5000
    assert next(degs) == (0,) * 4999 + (1,)
    count = 2
    for d in degs:
        count += 1
    assert count == 5001 and d == (1,) + (0,) * 4999


# -- the product kernel against a schoolbook reference ----------------------------

def ref_laurent_mul(a, b, hi_cap=None):
    """Schoolbook product with the window rule of TruncatedLaurent.mul."""
    va = min(a.coeffs, default=a.hi + 1)
    vb = min(b.coeffs, default=b.hi + 1)
    lo, hi = a.lo + b.lo, min(a.hi + vb, b.hi + va)
    if hi_cap is not None:
        hi = min(hi, hi_cap)
    if hi < lo:
        raise TruncationUnderflow(f"reference: empty window [{lo}, {hi}]")
    acc = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            if ea + eb <= hi:
                acc[ea + eb] = acc.get(ea + eb, 0) + ca * cb
    return TruncatedLaurent(acc, lo, hi)


def ref_add(a, b):
    """Sum of two TruncatedLaurents by hand: the least lo and the least hi of
    the two windows, every exponent above that hi dropped, zero sums dropped
    and integral Fractions turned back into ints."""
    lo, hi = min(a.lo, b.lo), min(a.hi, b.hi)
    acc = {}
    for coeffs in (a.coeffs, b.coeffs):
        for e, c in coeffs.items():
            if e <= hi:
                acc[e] = acc.get(e, 0) + c
    out = {}
    for e, c in acc.items():
        if isinstance(c, Fraction) and c.denominator == 1:
            c = c.numerator
        if c != 0:
            out[e] = c
    return TruncatedLaurent(out, lo, hi)


def ref_series_add(x, y):
    """Sum of two MultiSeries by hand: the least cap, the least window ends,
    and ref_add on every degree up to that cap that both operands hold."""
    cap = min(x.cap, y.cap)
    window = (min(x.window[0], y.window[0]), min(x.window[1], y.window[1]))
    terms = {}
    for d in set(x.terms) | set(y.terms):
        if sum(d) > cap:
            continue
        if d in x.terms and d in y.terms:
            terms[d] = ref_add(x.terms[d], y.terms[d])
        else:
            terms[d] = x.terms[d] if d in x.terms else y.terms[d]
    return MultiSeries(x.vertices, cap, window, terms)


def ref_series_mul(x, y):
    """Pairwise reference products, summed with ref_add."""
    cap = min(x.cap, y.cap)
    window = (min(x.window[0], y.window[0]), min(x.window[1], y.window[1]))
    acc = {}
    for d1, c1 in x.terms.items():
        for d2, c2 in y.terms.items():
            d = tuple(p + q for p, q in zip(d1, d2))
            if sum(d) <= cap:
                prod = ref_laurent_mul(c1, c2)
                acc[d] = ref_add(acc[d], prod) if d in acc else prod
    return MultiSeries(x.vertices, cap, window, acc)


def exact_terms(s):
    """Window plus (exponent, value, type) triples: ints must stay ints."""
    return (s.lo, s.hi, sorted((e, c, type(c).__name__) for e, c in s.coeffs.items()))


def same_series(x, y):
    return ((x.vertices, x.cap, x.window) == (y.vertices, y.cap, y.window)
            and sorted(x.terms) == sorted(y.terms)
            and all(exact_terms(x.terms[d]) == exact_terms(y.terms[d]) for d in x.terms))


def rand_coefficient(rng, kind):
    if kind == "big":
        return rng.choice((-1, 1)) * rng.randint(2 ** 64, 2 ** 70)
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-5, 5)


def rand_operand(rng, lo_range=(-30, 10), max_span=90):
    """A TruncatedLaurent with 0 to ~max_span nonzero coefficients, on every
    exponent or on one residue class (steps 2 and 3), with small, negative,
    above-2^64 or Fraction coefficients, or all zero on its window."""
    lo = rng.randint(*lo_range)
    hi = lo + rng.randint(0, max_span)
    kind = rng.choice(("small", "small", "big", "fraction"))
    step = rng.choice((1, 2, 2, 3))
    start = lo + rng.randint(0, 3)
    exps = list(range(start, hi + 1, step))
    shape = rng.random()
    if shape < 0.1:
        exps = []  # all zero, window kept
    elif shape < 0.4:
        # on both sides of the packing threshold
        near = rng.randint(_PACK_MIN_TERMS - 3, _PACK_MIN_TERMS + 3)
        exps = rng.sample(exps, min(len(exps), near))
    elif shape < 0.5:
        exps = exps[:rng.randint(1, 3)]  # monomials and binomials
    coeffs = {e: rand_coefficient(rng, kind) for e in exps}
    return TruncatedLaurent(coeffs, lo, hi)


def product_or_error(mul, *args):
    try:
        return mul(*args)
    except TruncationUnderflow:
        return "underflow"


def test_laurent_mul_matches_schoolbook_reference():
    rng = random.Random(8191)
    underflows = packed = 0
    for _ in range(400):
        a = rand_operand(rng)
        b = rand_operand(rng)
        hi_cap = rng.choice((None, None, rng.randint(-60, 120)))
        want = product_or_error(ref_laurent_mul, a, b, hi_cap)
        got = product_or_error(TruncatedLaurent.mul, a, b, hi_cap)
        if want == "underflow":
            underflows += 1
            assert got == "underflow"
        else:
            assert exact_terms(got) == exact_terms(want)
        packed += min(len(a.coeffs), len(b.coeffs)) >= _PACK_MIN_TERMS
    assert underflows > 10 and packed > 50


def test_laurent_mul_wide_valuation_spread():
    # operands far apart in valuation, one far outside the other's window
    rng = random.Random(12)
    for _ in range(40):
        a = rand_operand(rng, lo_range=(-400, -300))
        b = rand_operand(rng, lo_range=(300, 400))
        assert exact_terms(a.mul(b)) == exact_terms(ref_laurent_mul(a, b))
        cap = b.lo + a.lo + 40
        assert exact_terms(b.mul(a, cap)) == exact_terms(ref_laurent_mul(b, a, cap))


def rand_operand_series(rng, vertices=("a", "b"), cap=3):
    terms = {}
    for d in iter_multidegrees(len(vertices), cap):
        if rng.random() < 0.8:
            terms[d] = rand_operand(rng, lo_range=(-20, 0), max_span=60)
    return MultiSeries(vertices, cap, (-20, 60), terms)


def test_series_mul_matches_schoolbook_reference():
    # without a cap every pair's window is nonempty: no product underflows
    rng = random.Random(4093)
    for _ in range(80):
        x = rand_operand_series(rng)
        y = rand_operand_series(rng, cap=rng.randint(1, 3))
        assert same_series(x.mul(y), ref_series_mul(x, y))


def test_series_mul_mixed_residues_in_one_degree():
    # products landing on one degree with valuations of both parities add up
    # in separate packed sums
    even = TruncatedLaurent({e: e + 1 for e in range(0, 60, 2)}, 0, 60)
    odd = TruncatedLaurent({e: -e for e in range(1, 61, 2)}, 0, 61)
    x = MultiSeries(("a", "b"), 2, (0, 60), {(1, 0): even, (0, 1): odd})
    y = MultiSeries(("a", "b"), 2, (0, 60), {(0, 1): even, (1, 0): even})
    assert same_series(x.mul(y), ref_series_mul(x, y))


def test_series_mul_one_parity_many_valuations():
    # every exponent even, as in motivic series: packed in steps of 2, with
    # several products of one degree at different valuations
    rng = random.Random(65537)
    for _ in range(10):
        terms = {}
        for d in iter_multidegrees(2, 3):
            lo = 2 * rng.randint(-10, 5)
            exps = range(lo + 2 * rng.randint(0, 6), lo + 80, 2)
            terms[d] = TruncatedLaurent({e: rng.randint(-50, 50) for e in exps}, lo, lo + 80)
        x = MultiSeries(("a", "b"), 3, (-20, 60), terms)
        assert same_series(x.mul(x), ref_series_mul(x, x))


def pack_spy(monkeypatch):
    """Record the coefficients of every _pack call; returns the list."""
    packed = []
    real = series_module._pack

    def spy(coeffs, *args):
        packed.append(coeffs)
        return real(coeffs, *args)

    monkeypatch.setattr(series_module, "_pack", spy)
    return packed


def long_operand(rng, kind, lo_range=(-20, 0)):
    """A TruncatedLaurent with 12 to 40 nonzero coefficients of the given
    kind; a "fraction" operand holds one non-integral Fraction at least."""
    lo = rng.randint(*lo_range)
    exps = rng.sample(range(lo, lo + 60), rng.randint(_PACK_MIN_TERMS, 40))
    coeffs = {e: (rand_coefficient(rng, kind) or 1) for e in exps}
    if kind == "fraction":
        coeffs[exps[0]] = Fraction(1, 2)
    return TruncatedLaurent(coeffs, lo, lo + 60)


def test_fraction_operands_run_the_schoolbook_loop(monkeypatch):
    # only pairs of long integer operands are packed: a long operand holding
    # a Fraction takes the schoolbook loop with every partner
    packed = pack_spy(monkeypatch)
    rng = random.Random(1009)
    for _ in range(40):
        a = long_operand(rng, "fraction")
        b = long_operand(rng, rng.choice(("small", "big", "fraction")))
        for x, y in ((a, b), (b, a)):
            hi_cap = rng.choice((None, rng.randint(0, 60)))
            assert exact_terms(x.mul(y, hi_cap)) == exact_terms(ref_laurent_mul(x, y, hi_cap))
    assert packed == []
    # in one product of series, the integer pairs are still packed and the
    # pairs with a Fraction operand are not
    for _ in range(10):
        x = MultiSeries(("a", "b"), 2, (-20, 40), {
            d: long_operand(rng, rng.choice(("small", "big", "fraction")))
            for d in iter_multidegrees(2, 2)})
        assert same_series(x.mul(x), ref_series_mul(x, x))
    assert packed
    assert all(type(c) is int for coeffs in packed for c in coeffs.values())


def rand_single_term(rng):
    """A one-term TruncatedLaurent at a possibly negative exponent, with an
    int, big or Fraction coefficient, on a window around it."""
    e = rng.randint(-25, 15)
    kind = rng.choice(("small", "big", "fraction"))
    c = rand_coefficient(rng, kind) or 1
    return TruncatedLaurent({e: c}, e - rng.randint(0, 6), e + rng.randint(0, 40))


def test_single_term_operands_match_schoolbook_reference():
    # a one-term operand on either side, against every operand shape, with
    # and without a hi_cap cut
    rng = random.Random(3571)
    cut = 0
    for _ in range(300):
        one = rand_single_term(rng)
        other = rand_operand(rng, lo_range=(-30, 5), max_span=60)
        hi_cap = rng.choice((None, rng.randint(-50, 60)))
        for a, b in ((one, other), (other, one), (one, one)):
            want = product_or_error(ref_laurent_mul, a, b, hi_cap)
            got = product_or_error(TruncatedLaurent.mul, a, b, hi_cap)
            if want == "underflow":
                assert got == "underflow"
            else:
                assert exact_terms(got) == exact_terms(want)
                cut += hi_cap is not None and got.hi == hi_cap
    assert cut > 20


def test_series_single_term_degrees_match_schoolbook_reference():
    # degrees whose first contribution has a one-term operand, on either
    # side, followed by contributions of every shape
    rng = random.Random(9973)
    for _ in range(60):
        terms = {}
        for d in iter_multidegrees(2, 3):
            r = rng.random()
            if r < 0.5:
                terms[d] = rand_single_term(rng)
            elif r < 0.9:
                terms[d] = rand_operand(rng, lo_range=(-20, 0), max_span=60)
        x = MultiSeries(("a", "b"), 3, (-20, 60), terms)
        y = rand_operand_series(rng, cap=rng.randint(1, 3))
        for left, right in ((x, y), (y, x), (x, x)):
            assert same_series(left.mul(right), ref_series_mul(left, right))


def with_halves(rng, a, b):
    """a and b with odd halves on up to three exponents both windows know,
    so that the sums there are integral Fractions; None when the windows do
    not overlap."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return None
    exps = rng.sample(range(lo, hi + 1), min(3, hi - lo + 1))
    ca, cb = dict(a.coeffs), dict(b.coeffs)
    for e in exps:
        ca[e] = Fraction(2 * rng.randint(-3, 3) + 1, 2)
        cb[e] = Fraction(2 * rng.randint(-3, 3) + 1, 2)
    return TruncatedLaurent(ca, a.lo, a.hi), TruncatedLaurent(cb, b.lo, b.hi), exps


def negated(rng, a):
    """-a on a window that may reach further on either side."""
    return TruncatedLaurent({e: -c for e, c in a.coeffs.items()},
                            a.lo - rng.randint(0, 4), a.hi + rng.randint(0, 4))


def ref_first_mismatch(a, b):
    """The key-union scan: the lowest exponent up to the lesser hi at which
    the two coefficient dicts differ, or None."""
    hi = min(a.hi, b.hi)
    return min((e for e in set(a.coeffs) | set(b.coeffs)
                if e <= hi and a.coeffs.get(e, 0) != b.coeffs.get(e, 0)), default=None)


def test_add_matches_reference_sum():
    # windows and caps differ between the operands; the draws include
    # all-zero operands, degrees only one operand holds, sums forced to
    # cancel and odd halves whose sums must come back as ints.  Every
    # Laurent pair, and every sum against its reference, also checks
    # first_mismatch against the key-union scan
    rng = random.Random(1913)
    seen = dict.fromkeys(("zero", "cancelled", "halves", "one_sided", "equal",
                          "mismatch"), 0)
    for _ in range(300):
        a, b = rand_operand(rng), rand_operand(rng)
        halves = rng.random() < 0.3 and with_halves(rng, a, b)
        if halves:
            a, b, exps = halves
            ints = [c for e, c in (a + b).coeffs.items() if e in exps]
            assert all(type(c) is int for c in ints)
            seen["halves"] += bool(ints)
        elif rng.random() < 0.15:
            b = negated(rng, a)
            assert (a + b).is_zero()
            seen["cancelled"] += 1
        seen["zero"] += a.is_zero() or b.is_zero()
        for left, right in ((a, b), (b, a)):
            total, want = left + right, ref_add(left, right)
            assert exact_terms(total) == exact_terms(want)
            for u, v in ((left, right), (total, want)):
                got = u.first_mismatch(v)
                assert got == ref_first_mismatch(u, v)
                seen["equal"] += u.coeffs == v.coeffs
                seen["mismatch"] += got is not None
    for _ in range(120):
        x, y = (rand_operand_series(rng, cap=rng.randint(0, 3)) for _ in range(2))
        x = MultiSeries(x.vertices, x.cap, (rng.randint(-25, -15), rng.randint(40, 70)),
                        x.terms)
        if rng.random() < 0.1:
            y = MultiSeries(y.vertices, y.cap, y.window, {})
            seen["zero"] += 1
        shared = sorted(set(x.terms) & set(y.terms))
        if shared:
            d = rng.choice(shared)
            if rng.random() < 0.5:
                y.terms[d] = negated(rng, x.terms[d])
                seen["cancelled"] += 1
            else:
                halves = with_halves(rng, x.terms[d], y.terms[d])
                if halves:
                    x.terms[d], y.terms[d], _ = halves
                    seen["halves"] += 1
        cap = min(x.cap, y.cap)
        seen["one_sided"] += any(sum(d) <= cap for d in set(x.terms) ^ set(y.terms))
        for left, right in ((x, y), (y, x)):
            assert same_series(left + right, ref_series_add(left, right))
    assert all(seen.values()), seen


def ref_substitute(series, vertex, monomial, out_vertices, out_cap):
    """The substitution summed by repeated ref_add."""
    vi = series.vertices.index(vertex)
    pos = {label: i for i, label in enumerate(out_vertices)}
    acc = {}
    for d, c in series.terms.items():
        k = d[vi]
        nd = [k * e for e in monomial.exponents]
        for i, di in enumerate(d):
            if i != vi:
                nd[pos[series.vertices[i]]] += di
        nd = tuple(nd)
        if sum(nd) > out_cap:
            continue
        shifted = c.shift(monomial.qpow * k)
        acc[nd] = ref_add(acc[nd], shifted) if nd in acc else shifted
    return MultiSeries(out_vertices, out_cap, series.window, acc)


def test_substitute_matches_repeated_addition():
    # x_d -> q^(qpow/2) x_a x_b sends (i, j, k) to (i + k, j + k), so several
    # input degrees land on one output degree, with mixed windows, Fraction
    # coefficients and, where a term is built as its partner's negative,
    # sums that cancel to zero
    rng = random.Random(20261018)
    cancelled = fractions = 0
    for _ in range(150):
        qpow = rng.randint(-3, 3)
        target = VertexMonomial((1, 1), qpow)
        series = rand_operand_series(rng, vertices=("a", "b", "d"), cap=4)
        terms = dict(series.terms)
        partner = terms.get((1, 1, 0))
        forced = partner is not None and not partner.is_zero() and rng.random() < 0.5
        if forced:
            # (0, 0, 1) is the only other degree landing on (1, 1)
            terms[(0, 0, 1)] = (-partner).shift(-qpow)
        series = MultiSeries(series.vertices, 4, series.window, terms)
        for out_cap in (2, None):
            got = series.substitute("d", target, ("a", "b"), out_cap=out_cap)
            want = ref_substitute(series, "d", target, ("a", "b"),
                                  4 if out_cap is None else out_cap)
            assert same_series(got, want)
        if forced:
            assert got.terms[(1, 1)].is_zero()
            cancelled += 1
        fractions += any(type(v) is Fraction
                         for c in got.terms.values() for v in c.coeffs.values())
    assert cancelled and fractions


def test_substitute_single_vertex_matches_repeated_addition():
    # one input vertex: the provable cap is (cap + 1) * deg - 1
    rng = random.Random(7)
    for _ in range(60):
        series = rand_operand_series(rng, vertices=("v",), cap=rng.randint(0, 5))
        expo = rng.choice(((1, 2), (2, 1), (0, 3), (1, 1, 1)))
        target = VertexMonomial(expo, rng.randint(-2, 2))
        out = tuple("abc"[:len(expo)])
        got = series.substitute("v", target, out)
        assert got.cap == (series.cap + 1) * sum(expo) - 1
        assert same_series(got, ref_substitute(series, "v", target, out, got.cap))


def ref_pleth_log(series):
    """The power-sum Log with Fraction scalars at every step."""
    def mobius(n):
        primes = [p for p in range(2, n + 1) if n % p == 0
                  and all(p % q for q in range(2, p))]
        if any(n % (p * p) == 0 for p in primes):
            return 0
        return (-1) ** len(primes)

    cap = series.cap
    zero_deg = (0,) * len(series.vertices)
    u = MultiSeries(series.vertices, cap, series.window,
                    {d: c for d, c in series.terms.items() if d != zero_deg})
    log = MultiSeries.zero(series.vertices, cap, series.window)
    power = None
    for k in range(1, cap + 1):
        power = u if power is None else ref_series_mul(power, u)
        log = ref_series_add(log, power.scale(Fraction((-1) ** (k + 1), k)))
    out = MultiSeries.zero(series.vertices, cap, series.window)
    for n in range(1, cap + 1):
        if mobius(n):
            out = ref_series_add(out, log.psi(n).scale(Fraction(mobius(n), n)))
    return out


def test_pleth_log_matches_power_sum_reference(monkeypatch):
    packed = pack_spy(monkeypatch)
    rng = random.Random(2718)
    for _ in range(12):
        s = rand_operand_series(rng, cap=rng.randint(1, 4))
        s.terms[(0, 0)] = TruncatedLaurent.one(*s.window)
        assert same_series(pleth_log(s), ref_pleth_log(s))
    # one vertex up to cap 8 and three vertices up to cap 3, each cap once as
    # drawn and once with about half of its terms replaced by all-zero stubs
    # (a window and no coefficients)
    for vertices, top in ((("a",), 8), (("a", "b", "c"), 3)):
        for cap in range(1, top + 1):
            for stub_share in (0, 0.5):
                s = rand_operand_series(rng, vertices, cap)
                for d, c in s.terms.items():
                    if rng.random() < stub_share:
                        s.terms[d] = TruncatedLaurent.zero(c.lo, c.hi)
                s.terms[(0,) * len(vertices)] = TruncatedLaurent.one(*s.window)
                assert same_series(pleth_log(s), ref_pleth_log(s)), (vertices, cap)
    # one vertex with integer coefficients long enough to pack, up to cap 10:
    # G = |d| L stays integral, so the recurrence's products are packed
    packed.clear()
    for cap in range(1, 11):
        terms = {(k,): long_operand(rng, "small", lo_range=(0, 4)) for k in range(1, cap + 1)}
        terms[(0,)] = TruncatedLaurent.one(0, 60)
        s = MultiSeries(("a",), cap, (0, 60), terms)
        assert same_series(pleth_log(s), ref_pleth_log(s)), cap
    assert packed


# -- products with an exact 1 share the other operand's dict -------------------

def unit_operand_series(rng, vertices=("a", "b"), cap=3):
    """A series with an exact 1 at degree 0 on a random window around t^0,
    and at other degrees a 1, a long integer operand (packable against
    another), a random operand (Fraction coefficients among them) or none."""
    terms = {(0,) * len(vertices): TruncatedLaurent.one(-rng.randint(0, 20), rng.randint(0, 60))}
    for d in iter_multidegrees(len(vertices), cap):
        if not any(d):
            continue
        r = rng.random()
        if r < 0.15:
            terms[d] = TruncatedLaurent.one(-rng.randint(0, 20), rng.randint(0, 60))
        elif r < 0.5:
            terms[d] = long_operand(rng, rng.choice(("small", "big")))
        elif r < 0.9:
            terms[d] = rand_operand(rng, lo_range=(-20, 0), max_span=60)
    return MultiSeries(vertices, cap, (-20, 60), terms)


def snapshot(*series):
    """A deep copy of every coefficient dict of the given MultiSeries."""
    return [copy.deepcopy({d: c.coeffs for d, c in s.terms.items()}) for s in series]


def test_unit_products_never_write_into_an_operand(monkeypatch):
    # a product with an exact 1 hands back the other operand's own dict on
    # every degree that nothing else reaches; later schoolbook pairs, packed
    # merges, windows cut below that operand's hi and Fraction terms all land
    # on such degrees, and the results go on through sums, products and
    # pleth_log, which must copy before they write
    packed = pack_spy(monkeypatch)
    seen = dict.fromkeys(("shared", "packed", "cut", "fraction"), 0)
    rng = random.Random(60221)
    for _ in range(40):
        x, y = unit_operand_series(rng), unit_operand_series(rng)
        hi_cap = rng.choice((None, rng.randint(5, 50)))
        before = snapshot(x, y)
        packed.clear()
        got = x.mul(y)
        assert same_series(got, ref_series_mul(x, y))
        seen["shared"] += any(got.terms[d].coeffs is s.terms[d].coeffs
                              for s in (x, y) for d in got.terms if d in s.terms)
        seen["packed"] += bool(packed)
        seen["cut"] += any(got.terms[d].hi < s.terms[d].hi
                           for s in (x, y) for d in got.terms if d in s.terms)
        seen["fraction"] += any(type(v) is Fraction for c in y.terms.values()
                                for v in c.coeffs.values())
        after_mul = snapshot(got)
        assert same_series(got + y, ref_series_add(got, y))
        assert same_series(y + got, ref_series_add(y, got))
        assert same_series(got.mul(x), ref_series_mul(got, x))
        assert same_series(pleth_log(got), ref_pleth_log(got))
        assert snapshot(x, y) == before
        assert snapshot(got) == after_mul
        # one Laurent factor: 1 on either side of an operand
        a = rand_operand(rng, lo_range=(-20, 0), max_span=60)
        one = TruncatedLaurent.one(-rng.randint(0, 20), rng.randint(0, 60))
        a_before = copy.deepcopy(a.coeffs)
        for left, right in ((one, a), (a, one)):
            prod = product_or_error(TruncatedLaurent.mul, left, right, hi_cap)
            want = product_or_error(ref_laurent_mul, left, right, hi_cap)
            if want == "underflow":
                assert prod == "underflow"
                continue
            assert exact_terms(prod) == exact_terms(want)
            assert exact_terms(prod + a) == exact_terms(ref_add(prod, a))
        assert a.coeffs == a_before
    assert all(seen.values()), seen


# -- comparison and validation against entry-by-entry references -----------------

def ref_first_mismatches(x, y, limit=None):
    """Every degree of either series up to the common cap, in the order of
    (|d|, d), a missing one read as zero on the other's window; the scan
    stops after `limit` disagreements."""
    cap = min(x.cap, y.cap)
    out = []
    for d in sorted(set(x.terms) | set(y.terms), key=lambda d: (sum(d), d)):
        if sum(d) > cap:
            continue
        a, b = x.terms.get(d), y.terms.get(d)
        a = a if a is not None else TruncatedLaurent.zero(b.lo, b.hi)
        b = b if b is not None else TruncatedLaurent.zero(a.lo, a.hi)
        if a.first_mismatch(b) is not None:
            out.append((d, a, b))
            if limit is not None and len(out) >= limit:
                break
    return out


def test_first_mismatches_matches_sorted_scan_reference():
    # pairs holding the same objects on some degrees, equal copies on others,
    # differing or missing coefficients and different caps
    rng = random.Random(4817)
    seen_shared = seen_limited = 0
    for _ in range(300):
        vertices = ("a", "b", "c")[:rng.randint(1, 3)]
        x = rand_multiseries(rng, vertices, cap=rng.randint(0, 4))
        terms = {}
        for d, c in x.terms.items():
            pick = rng.random()
            if pick < 0.4:
                terms[d] = c
            elif pick < 0.6:
                terms[d] = TruncatedLaurent(dict(c.coeffs), c.lo, c.hi)
            elif pick < 0.85:
                terms[d] = rand_laurent(rng)
        cap = rng.randint(0, 4)
        y = MultiSeries(vertices, cap, x.window,
                        {d: c for d, c in terms.items() if sum(d) <= cap})
        seen_shared += any(y.terms.get(d) is c for d, c in x.terms.items())
        for limit in (None, 1, 2, 5):
            want = ref_first_mismatches(x, y, limit)
            got = x.first_mismatches(y, limit)
            assert [d for d, _, _ in got] == [d for d, _, _ in want]
            assert all(exact_terms(a) == exact_terms(a2) and exact_terms(b) == exact_terms(b2)
                       for (_, a, b), (_, a2, b2) in zip(got, want))
            seen_limited += limit is not None and len(ref_first_mismatches(x, y)) > limit
        assert x.agrees_with(y) == (not ref_first_mismatches(x, y))
    assert seen_shared and seen_limited


def ref_degree_check(terms, n, cap):
    """The entry-by-entry check of every multidegree."""
    for d in terms:
        if len(d) != n or any(x < 0 for x in d) or sum(d) > cap:
            raise ValueError(f"bad multidegree {d} for cap {cap} over {n} variables")


def raised(make):
    try:
        make()
    except Exception as exc:  # the exception itself is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n, cap, bad", [
    (2, 3, (1,)),            # wrong length
    (2, 3, (1, 0, 0)),
    (2, 3, (0, -1)),         # negative entry
    (2, 3, (3, 1)),          # |d| above the cap
    (2, 3, (1, "1")),        # a non-int entry
    (2, 3, (None, 0)),
    (0, 3, (0,)),
    (3, 20, (0, -2, 5)),
])
def test_multiseries_rejects_bad_degrees_as_the_entry_scan_does(n, cap, bad):
    vertices = ("a", "b", "c")[:n]
    one = TruncatedLaurent.one(0, 3)
    good = dict.fromkeys(iter_multidegrees(n, cap), one)
    for terms in ({bad: one}, {**good, bad: one}, {bad: one, **good}):
        want = raised(lambda: ref_degree_check(terms, n, cap))
        assert want is not None
        assert raised(lambda: MultiSeries(vertices, cap, (0, 3), terms)) == want


def test_multiseries_accepts_what_the_entry_scan_accepts():
    one = TruncatedLaurent.one(0, 3)
    for n, cap in ((0, 0), (0, 4), (1, 0), (2, 5), (4, 3)):
        vertices = ("a", "b", "c", "d")[:n]
        terms = dict.fromkeys(iter_multidegrees(n, cap), one)
        ref_degree_check(terms, n, cap)
        assert MultiSeries(vertices, cap, (0, 3), terms).terms == terms
    # entries the scan lets through: a bool and a Fraction
    terms = {(True, 0): one, (Fraction(1, 2), 1): one}
    ref_degree_check(terms, 2, 2)
    assert MultiSeries(("a", "b"), 2, (0, 3), terms).terms == terms


AB = MultiSeries.one(("a", "b"), 2, (0, 3))


@pytest.mark.parametrize("make, kind, message", [
    (lambda: MultiSeries(("a",), -1, (0, 3), {}), ValueError,
     "degree cap must be nonnegative"),
    (lambda: MultiSeries(("a",), 1, (2, 1), {}), TruncationUnderflow,
     "MultiSeries: empty default window [2, 1]"),
    (lambda: AB.mul(MultiSeries.one(("a", "c"), 2, (0, 3))), ValueError,
     "vertex sets differ: ('a', 'b') vs ('a', 'c')"),
    (lambda: AB.psi(0), ValueError, "psi index must be >= 1"),
    (lambda: AB.substitute("z", VertexMonomial((1, 0)), ("a", "b")), ValueError,
     "unknown vertex 'z' in substitution"),
    (lambda: AB.substitute("a", VertexMonomial((1,)), ("a", "b")), ValueError,
     "monomial exponent vector does not match output vertices"),
    (lambda: AB.substitute("a", VertexMonomial((2, -1)), ("a", "b")), ValueError,
     "monomial exponents must be nonnegative"),
    (lambda: AB.substitute("a", VertexMonomial((1,)), ("a",)), ValueError,
     "vertex 'b' missing from output vertex set ('a',)"),
    (lambda: AB.substitute("a", VertexMonomial((1, 1)), ("a", "b"), out_cap=3), SeriesError,
     "substitute_variable: requested cap 3 exceeds provable cap 2"),
    (lambda: VertexMonomial((1, 0)).times(VertexMonomial((1,))), ValueError,
     "monomials over different vertex sets"),
    (lambda: pochhammer_inv(-1, 0, 4), ValueError, "pochhammer_inv: n must be >= 0"),
    (lambda: pochhammer_inv(1, 5, 4), TruncationUnderflow, "pochhammer_inv: empty window [5, 4]"),
], ids=["negative-cap", "empty-window", "mul-vertex-sets", "psi-zero", "substitute-unknown",
        "substitute-length", "substitute-negative", "substitute-missing", "substitute-cap",
        "times-vertex-sets", "pochhammer-negative", "pochhammer-empty-window"])
def test_bad_arguments_raise_their_message(make, kind, message):
    assert raised(make) == (kind, message)


def test_pochhammer_inv_below_t0_is_zero():
    # n = 0 gives 1, which a window ending below t^0 cannot hold
    p0 = pochhammer_inv(0, -5, -1)
    assert p0.is_zero() and p0.window() == (-5, -1)
