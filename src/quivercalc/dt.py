"""Motivic Donaldson-Thomas invariants via the plethystic logarithm.

Convention used throughout:

    Omega(x, q) := -(q^(1/2) - q^(-1/2)) * Log(A(x, q)),

reported per dimension vector as a Laurent polynomial in u = -q^(1/2)
(so the t-exponent e carries a sign (-1)^e into the u-coefficient).
Integrality and positivity of the u-coefficients are the checked
invariance statements."""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import euler_quadratic_form
from .report import VerificationReport, inconclusive_unless
from .series import (TruncatedLaurent, exact_str, iter_multidegrees,
                     pleth_log)

DT_CONVENTION = {
    "omega": "-(q^(1/2) - q^(-1/2)) * Log(A)",
    "variable": "u = -q^(1/2)",
}

# known-zero u-coefficients that must fence an invariant's support off from
# both window edges before it is reported stable
GUARD = 5


@dataclass
class DTEntry:
    """One dimension vector's invariant: u-exponent -> coefficient, plus the
    window it was computed on and whether the polynomial support is fenced
    off from both window edges by GUARD known zeros."""

    degree: tuple
    u_coeffs: dict
    window: tuple
    stable: bool

    def is_integral(self):
        return all(isinstance(c, int) for c in self.u_coeffs.values())

    def is_positive(self):
        return self.is_integral() and all(c >= 0 for c in self.u_coeffs.values())

    def to_json(self):
        return {
            "degree": list(self.degree),
            "omega": {str(e): exact_str(c) for e, c in sorted(self.u_coeffs.items())},
            "window": [self.window[0], self.window[1]],
            "stable": self.stable,
            "positive": self.is_positive(),
        }


@dataclass
class DTResult:
    vertices: tuple
    order: int
    entries: list

    def entry(self, degree):
        degree = tuple(degree)
        for e in self.entries:
            if e.degree == degree:
                return e
        raise KeyError(f"no DT entry for degree {degree}")

    def all_stable(self):
        return all(e.stable for e in self.entries)

    def to_json(self):
        return {
            "convention": dict(DT_CONVENTION),
            "vertices": list(self.vertices),
            "order": self.order,
            "guard": GUARD,
            "invariants": [e.to_json() for e in self.entries],
        }


def dt_window(quiver, order):
    """The one t-window on which dt_extract(motivic_series(quiver, order,
    window)) is stable in every degree 1 <= |d| <= order:
    (-(GUARD + 1), top + GUARD + 1), top = max_d (1 - chi(d,d)), or 0 when
    there is no such degree.

    Omega_d is a Laurent polynomial with u-exponents |e| <= 1 - chi(d,d),
    the dimension of the moduli space of d-dimensional representations
    (Meinhardt & Reineke, J. reine angew. Math. 2019).  A degree is stable
    when its Omega window reaches GUARD past that support on both sides.

    Upper edge.  F_d, the coefficient of x^d, has valuation
    |d| + sum_ij m_ij d_i d_j >= 1 and is known up to the window's hi.  So
    every product of F's in Log is known past hi, Log_d is known exactly up
    to hi, and Omega_d = -(t - t^-1) Log_d up to hi - 1.  Stability needs
    hi - 1 - (1 - chi(d,d)) >= GUARD, and hi is the least value that meets
    it for the degree attaining top.

    Lower edge.  Only the window's hi bounds the work: every factor of F_d
    is a power series in t, and lo only records that nothing lies below it.
    With lo = -(GUARD + 1) and chi = chi(d,d), motivic_series gives F_d the
    window edge (k+1) min(lo + chi, 0) - chi for k nonzero parts of d, and
    Log_d's edge is at most that, Omega_d's one less.  Stability needs
    Log_d's edge <= chi - GUARD.  For chi <= GUARD + 1 the edge is
    k chi - (k+1)(GUARD + 1) <= chi - 2(GUARD + 1), and for chi > GUARD + 1
    it is -chi < chi - GUARD.  Both edges lie at or below -(GUARD + 1), so
    an all-zero Omega_d also gets a window at least 2 GUARD wide."""
    chi = euler_quadratic_form(quiver)
    top = max((1 - chi(d) for d in iter_multidegrees(len(quiver), order) if any(d)), default=0)
    return (-(GUARD + 1), top + GUARD + 1)


def dt_extract(series):
    """DT invariants of a motivic series with constant term 1.

    Each nonzero-degree coefficient c of Log(series) is multiplied by
    -(t - t^-1) and re-expressed in u; the entry's window is the product's
    provable window, (lo(c) - 1, hi(c) - 1) on a motivic series, where c has
    valuation >= 1.  A degree is marked stable when at least GUARD
    consecutive known-zero coefficients separate its support from both
    window edges, certifying (at this window) that the invariant is a
    genuine Laurent polynomial.  An all-zero entry has no support to fence
    off, so its known zeros are counted from the window's lo: it is stable
    once the window is 2 * GUARD wide.  That certifies a zero only when the
    window reaches past the degree's possible support |e| <= 1 - chi(d,d),
    as it does on `dt_window`; on a window ending below that support a
    nonzero invariant would read as a stable zero.  On a motivic series
    built on `dt_window(quiver, order)` every degree is stable."""
    logged = pleth_log(series)  # validates the constant term
    zero_deg = (0,) * len(series.vertices)
    entries = []
    for d in iter_multidegrees(len(series.vertices), series.cap):
        if d == zero_deg:
            continue
        c = logged.terms.get(d)
        if c is None:
            # exact zero: trivially a (zero) polynomial
            entries.append(DTEntry(d, {}, logged.window, True))
            continue
        # -(t - t^-1)
        bracket = TruncatedLaurent({-1: 1, 1: -1}, -1, c.hi + 2)
        omega_t = bracket.mul(c)
        u_coeffs = {}
        for e, v in omega_t.coeffs.items():
            u_coeffs[e] = -v if e % 2 else v
        lo, hi = omega_t.lo, omega_t.hi
        if u_coeffs:
            support_lo = min(u_coeffs)
            support_hi = max(u_coeffs)
            stable = (support_lo - lo >= GUARD) and (hi - support_hi >= GUARD)
        else:
            stable = hi - lo + 1 >= 2 * GUARD
        entries.append(DTEntry(d, u_coeffs, (lo, hi), stable))
    return DTResult(series.vertices, series.cap, entries)


def dt_check(result):
    """Assert integrality and nonnegativity of every u-coefficient of a
    stabilized DT result; mismatches carry the offending coefficients.  A
    result without a nonzero invariant (the empty quiver, or order 0) is
    inconclusive: it checked nothing."""
    unstable = [e.degree for e in result.entries if not e.stable]
    if unstable:
        raise ValueError(
            f"dt_check requires a stabilized result; unstable degrees: {unstable} "
            "(recompute on a wider window)")
    mismatches = []
    for e in result.entries:
        bad = {exp: c for exp, c in e.u_coeffs.items()
               if not isinstance(c, int) or c < 0}
        if bad:
            mismatches.append({
                "degree": list(e.degree),
                "offending": {str(exp): exact_str(c) for exp, c in sorted(bad.items())},
            })
    mismatches += inconclusive_unless(
        any(e.u_coeffs for e in result.entries),
        "no degree 1 <= |d| <= order has a nonzero invariant; nothing was checked")
    return VerificationReport(
        name="dt-positivity",
        parameters={"order": result.order, "guard": GUARD,
                    "vertices": list(result.vertices)},
        mismatches=mismatches,
        conventions=dict(DT_CONVENTION),
    )
