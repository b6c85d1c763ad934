"""Motivic generating series of symmetric quivers, the substitution
identities for linking and unlinking, and iterated-unlinking
diagonalization with monomial tracking.

The series of a quiver Q is

    A_Q(x, q) = sum_d (-q^(1/2))^(-chi(d,d)) x^d / prod_i (q^-1; q^-1)_{d_i}

with chi the Euler form and (q^-1; q^-1)_n the descending q-Pochhammer
symbol, every factor expanded exactly on a requested t-exponent window
(t = q^(1/2)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .quiver import (Quiver, add_fresh_vertex, euler_quadratic_form, fresh_label,
                     one_vertex, unlink)
from .quiver import link as link_quiver
from .report import (VerificationReport, degree_coverage, degree_mismatch,
                     inconclusive_mismatches)
from .series import (MultiSeries, TruncatedLaurent, VertexMonomial,
                     iter_multidegrees, pochhammer_inv)

# Substitution constants are t-powers carried by x_new -> q^(qpow/2) x_a x_b.
# The calibrated defaults make the series identities hold exactly for the
# normalization of A_Q used here; the constants more commonly quoted in the
# literature (qpow 0 for linking, -1 for unlinking) are exposed as the
# "printed" preset and rejected by calibration scans.
CALIBRATED = {"link_qpow": 1, "unlink_qpow": 0}
PRINTED = {"link_qpow": 0, "unlink_qpow": -1}


@dataclass(frozen=True)
class Conventions:
    """Tunable substitution constants, overridable from a JSON config."""

    link_qpow: int = CALIBRATED["link_qpow"]
    unlink_qpow: int = CALIBRATED["unlink_qpow"]

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("conventions config must be a JSON object")
        data = {}
        preset = obj.get("preset")
        if preset is not None:
            presets = {"calibrated": CALIBRATED, "printed": PRINTED}
            if not isinstance(preset, str) or preset not in presets:
                raise ValueError(f"unknown conventions preset {preset!r}")
            data.update(presets[preset])
        for key in ("link_qpow", "unlink_qpow"):
            if key in obj:
                if not isinstance(obj[key], int) or isinstance(obj[key], bool):
                    raise ValueError(f"conventions key {key!r} must be an integer")
                data[key] = obj[key]
        unknown = set(obj) - {"preset", "link_qpow", "unlink_qpow"}
        if unknown:
            raise ValueError(f"unknown conventions keys: {sorted(unknown)}")
        return cls(**data)

    def to_json(self):
        return {
            "link_substitution": f"x_new -> q^({self.link_qpow}/2) * x_a * x_b",
            "unlink_substitution": f"x_new -> q^({self.unlink_qpow}/2) * x_a * x_b",
            "link_qpow": self.link_qpow,
            "unlink_qpow": self.unlink_qpow,
        }


DEFAULT_CONVENTIONS = Conventions()


def default_window(order, max_loops):
    """Window heuristic wide enough for the identity checks at the given
    truncation order: [-2*order*L - 8, 4*order*L + 8] with L = max loop count
    (at least 1)."""
    level = max(1, max_loops)
    return (-2 * order * level - 8, 4 * order * level + 8)


def valuation_window(quiver, order):
    """Window reaching the lowest term of every coefficient of A_Q through
    total degree `order`: (-2*order - 8, top + 8), top = the largest
    valuation |d| + sum_ij m_ij d_i d_j of the coefficient of x^d over
    0 < |d| <= order, or 0 when there is no such degree.

    That coefficient is (-t)^(-chi(d,d)) times prod_i 1/(q^-1; q^-1)_{d_i},
    and 1/(q^-1; q^-1)_n starts at t^(n^2 + n), so its valuation is
    sum_i (d_i^2 + d_i) - chi(d,d).  The top grows with the quadratic form
    where default_window grows with a loop count times the order."""
    chi = euler_quadratic_form(quiver)
    top = max((sum(x * x + x for x in d) - chi(d)
               for d in iter_multidegrees(len(quiver), order) if any(d)), default=0)
    return (-2 * order - 8, top + 8)


def motivic_series(quiver, order, window):
    """A_Q truncated at total x-degree `order`, every coefficient
    materialized on the requested t-exponent window.

    The coefficient of x^d is (-t)^(-chi(d,d)) times the product P of the
    P_n = pochhammer_inv(n) over the nonzero parts n of d, needed up to
    t^hi with hi = whi + chi(d,d).  Every P_n is a power series in t with
    exact integer coefficients, so P up to t^hi is the same for any order of
    the parts and any cut at or above hi: one product per multiset of parts
    serves every degree.  The parts are sorted in descending order, and each
    prefix of them is multiplied once, up to the largest hi of the degrees
    that extend it.  A degree keeps the terms up to its own hi, on the
    window ((k+1) lo, hi) for k nonzero parts, lo = min(wlo + chi, 0): the
    window of 1 on (lo, hi) times k factors on (lo, hi) each.  Its sign and
    its shift by t^(-chi) are applied in the same pass."""
    return _motivic_sides(order, window, (quiver, iter_multidegrees(len(quiver), order)))[0]


def _motivic_sides(order, window, *sides):
    """For each side (quiver, degrees), in order, the series of
    motivic_series(quiver, order, window) on the given degrees only, each
    one as motivic_series computes it; the others are left out, where a
    MultiSeries would read them as zero, so a side may only be read at the
    degrees given.  All sides come from one table of Pochhammer products.
    Every side's degrees are laid out before any product is taken, and a
    prefix is multiplied once, up to the largest hi of a degree extending it
    on any side: a product taken further has the same terms up to a lower
    hi, so each degree keeps the terms it would get alone.

    A coefficient depends on its degree only through the key (parts, chi),
    so every degree with the same key, on either side, holds one shared
    TruncatedLaurent, whose coeffs are never written; the reach of each
    prefix is taken once per multiset of parts, from its largest chi."""
    wlo, whi = window
    if wlo > whi:
        raise ValueError(f"motivic_series: empty window [{wlo}, {whi}]")
    if order < 0:
        raise ValueError("degree cap must be nonnegative")
    layouts = []
    shared = {}  # (parts, chi) -> the coefficient of every degree with that key
    for quiver, degrees in sides:
        chi_of = euler_quadratic_form(quiver)
        layout = []
        for d in degrees:
            key = (tuple(sorted(filter(None, d), reverse=True)), chi_of(d))
            layout.append((d, key))
            shared[key] = None
        layouts.append((quiver.vertices, layout))
    top = {}  # descending parts -> largest chi of a degree with those parts
    for parts, chi in shared:
        top[parts] = max(top.get(parts, chi), chi)
    reach = {}  # prefix of descending parts -> largest hi of a degree extending it
    for parts, chi in top.items():
        for k in range(1, len(parts) + 1):
            if reach.get(parts[:k], -1) < whi + chi:
                reach[parts[:k]] = whi + chi
    products = {}
    # a prefix sorts before its extensions; only reaches of 0 and above enter
    for prefix, hi in sorted(reach.items()):
        poch = pochhammer_inv(prefix[-1], 0, hi)
        products[prefix] = (products[prefix[:-1]].mul(poch, hi_cap=hi)
                            if len(prefix) > 1 else poch)
    for parts, chi in shared:
        hi = whi + chi
        if hi < 0:
            # the Pochhammer product starts at t^0 or above, so after the
            # t^(-chi) shift this coefficient has no support inside the
            # requested window; record an all-zero stub there
            shared[parts, chi] = TruncatedLaurent._trusted({}, wlo, whi)
            continue
        lo = min(wlo + chi, 0)
        # nonzero ints at exponents 0..hi
        coeffs = products[parts].coeffs if parts else {0: 1}
        sign = -1 if chi % 2 else 1
        shared[parts, chi] = TruncatedLaurent._trusted(
            {e - chi: sign * c for e, c in coeffs.items() if e <= hi},
            (len(parts) + 1) * lo - chi, whi)
    return [MultiSeries._trusted(vertices, order, (wlo, whi),
                                 {d: shared[key] for d, key in layout})
            for vertices, layout in layouts]


def _pair_monomial(quiver, a, b, qpow, op):
    """q^(qpow/2) x_a x_b, exponents over the vertex list of `quiver`."""
    ia = quiver.index(a)
    ib = quiver.index(b)
    if ia == ib:
        raise ValueError(f"{op} requires two distinct vertices")
    expo = tuple(1 if i in (ia, ib) else 0 for i in range(len(quiver)))
    return VertexMonomial(expo, qpow)


def link_substitution(quiver, a, b, conventions=DEFAULT_CONVENTIONS):
    """Monomial replacing the fresh linking variable: q^(qpow/2) x_a x_b,
    exponents over the original vertex list."""
    return _pair_monomial(quiver, a, b, conventions.link_qpow, "link_substitution")


def unlink_substitution(quiver, a, b, conventions=DEFAULT_CONVENTIONS):
    """Monomial replacing the fresh unlinking variable."""
    mono = _pair_monomial(quiver, a, b, conventions.unlink_qpow, "unlink_substitution")
    if quiver.arrows(a, b) < 1:
        raise ValueError("unlink_substitution requires at least one arrow between the pair")
    return mono


def _read_degrees(count, order):
    """The degrees D = (d, k) over `count` vertices and a last, fresh one
    that x_new -> x_a x_b sends to total degree |D| + k = |d| + 2k <= order."""
    for k in range(order // 2 + 1):
        for rest in iter_multidegrees(count, order - 2 * k):
            yield rest + (k,)


def _verify_substitution_identity(kind, quiver, a, b, order, window,
                                  conventions, calibrate):
    """A_Q against A of the linked or unlinked quiver under
    x_new -> q^(qpow/2) x_a x_b, the right-hand side built on read degrees
    only: x_new -> x_a x_b sends a degree D of the transformed quiver with
    k at the fresh vertex to total degree |D| + k, and substitute drops
    every term above `order`.  So only the degrees with |D| + k <= order are
    built (581 of 1,001 for linked MIX3 at order 10); a MultiSeries would
    read every other degree as zero, and none of them is ever read.  Both
    sides come from one table of Pochhammer products.  The calibration scan
    substitutes the other constants through |d| = 2 first, from the slice
    of the right-hand side that lands there.  The details count the degrees
    0 < |d| <= order of the left-hand side and those nonzero on the window."""
    if kind == "linking":
        transformed = link_quiver(quiver, a, b)
        mono = link_substitution(quiver, a, b, conventions)
    else:
        transformed = unlink(quiver, a, b)
        mono = unlink_substitution(quiver, a, b, conventions)
    if window is None:
        window = default_window(order, quiver.max_loops())
    new_label = transformed.vertices[-1]
    lhs, rhs = _motivic_sides(order, window,
                              (quiver, iter_multidegrees(len(quiver), order)),
                              (transformed, _read_degrees(len(quiver), order)))

    def substituted(power, side=rhs, cap=order):
        return side.substitute(new_label, replace(mono, qpow=power),
                               quiver.vertices, out_cap=cap)

    coverage = degree_coverage(lhs)
    inconclusive = inconclusive_mismatches(coverage, window)
    mismatches = [degree_mismatch(*m) for m in lhs.first_mismatches(substituted(mono.qpow))]
    details = {"transformed_quiver": transformed.to_json(), "new_vertex": new_label,
               **coverage}
    if calibrate:
        # an output degree's coefficient does not depend on the cap, so a
        # mismatch through |d| = 2 is a mismatch of the full check; wrong
        # constants are caught there, from the degrees D with |D| + k <= 2,
        # the only ones that land there, without the full substitution
        low = min(2, order)
        low_rhs = MultiSeries._trusted(rhs.vertices, low, rhs.window, {
            d: c for d, c in rhs.terms.items() if sum(d) + d[-1] <= low})

        def scan_fails(power):
            return bool(lhs.first_mismatches(substituted(power, low_rhs, low), limit=1)
                        or low < order and lhs.first_mismatches(substituted(power), limit=1))
        # a constant holds only where something nonzero was compared; the
        # configured constant's verdict is the report's own
        details["calibration"] = {
            str(power): not inconclusive and not (
                mismatches if power == mono.qpow else scan_fails(power))
            for power in range(-2, 3)}
    return VerificationReport(
        name=f"{kind}-identity",
        parameters={"quiver": quiver.to_json(), "pair": [a, b], "order": order,
                    "window": [window[0], window[1]]},
        mismatches=mismatches + inconclusive,
        conventions=conventions.to_json(),
        details=details,
    )


def verify_link_identity(quiver, a, b, order, window=None,
                         conventions=DEFAULT_CONVENTIONS, calibrate=False):
    """Check A_Q = A_{link(Q,a,b)} under x_new -> q^(link_qpow/2) x_a x_b,
    exactly, coefficient by coefficient, through total degree `order`, on
    `window` (default: default_window(order, quiver.max_loops()))."""
    return _verify_substitution_identity("linking", quiver, a, b, order, window,
                                         conventions, calibrate)


def verify_unlink_identity(quiver, a, b, order, window=None,
                           conventions=DEFAULT_CONVENTIONS, calibrate=False):
    """Check A_Q = A_{unlink(Q,a,b)} under x_new -> q^(unlink_qpow/2) x_a x_b,
    with the window default of verify_link_identity."""
    return _verify_substitution_identity("unlinking", quiver, a, b, order, window,
                                         conventions, calibrate)


@dataclass(frozen=True)
class DiagonalFactor:
    """One loop-quiver factor of a diagonalization: its vertex label, loop
    count, and tracked monomial in the original variables."""

    label: str
    loop_count: int
    monomial: VertexMonomial

    def to_json(self, vertices=None):
        return {"label": self.label, "loops": self.loop_count,
                "monomial": self.monomial.to_json(vertices)}


@dataclass(frozen=True)
class DiagonalizationResult:
    rounds: int
    factors: tuple
    pruned_count: int
    original_vertices: tuple

    def diagonal_quiver(self):
        labels = tuple(f.label for f in self.factors)
        n = len(labels)
        matrix = tuple(tuple(self.factors[i].loop_count if i == j else 0
                             for j in range(n)) for i in range(n))
        return Quiver(labels, matrix)

    def to_json(self):
        return {
            "rounds": self.rounds,
            "pruned": self.pruned_count,
            "original_vertices": list(self.original_vertices),
            "factors": [f.to_json(self.original_vertices) for f in self.factors],
            "quiver": self.diagonal_quiver().to_json(),
        }


def diagonalize(quiver, rounds, conventions=DEFAULT_CONVENTIONS):
    """Iterated unlinking until only loops remain, up to x-degree `rounds`.

    Each round walks the unordered vertex pairs present at its start in
    lexicographic index order and unlinks every pair until its off-diagonal
    entry is zero.  A fresh vertex inherits the product of its parents'
    monomials times the unlinking constant; vertices whose monomial degree
    exceeds `rounds` are pruned, on the integer degrees of the pair before
    its monomial is built, which only discards x-degrees beyond the
    comparison order.  Different pair orders give different (equally valid)
    factorizations; this one is fixed for reproducibility."""
    if rounds < 1:
        raise ValueError("diagonalize requires rounds >= 1")
    labels = list(quiver.vertices)
    matrix = [list(row) for row in quiver.matrix]
    nvars = len(labels)
    monomials = {
        label: VertexMonomial(tuple(1 if i == k else 0 for i in range(nvars)), 0)
        for k, label in enumerate(labels)
    }
    degrees = [1] * nvars  # total degree of each vertex's monomial, by index
    pruned = 0
    for _ in range(rounds):
        count_at_start = len(labels)
        for i in range(count_at_start):
            for j in range(i + 1, count_at_start):
                if not matrix[i][j]:
                    continue
                # a fresh vertex of the pair has degree deg_i + deg_j, so the
                # pair is pruned before its monomial is built
                if degrees[i] + degrees[j] > rounds:
                    pruned += matrix[i][j]
                    matrix[i][j] = matrix[j][i] = 0
                    continue
                # unlinking i and j changes neither endpoint's monomial, so
                # every fresh vertex of the pair gets the same one
                mono = monomials[labels[i]].times(monomials[labels[j]],
                                                  extra_qpow=conventions.unlink_qpow)
                base = f"{labels[i]}*{labels[j]}"
                while matrix[i][j] > 0:
                    add_fresh_vertex(matrix, i, j, unlinking=True)
                    label = fresh_label(monomials, base)
                    labels.append(label)
                    monomials[label] = mono
                    degrees.append(degrees[i] + degrees[j])
    factors = tuple(
        DiagonalFactor(label, matrix[i][i], monomials[label])
        for i, label in enumerate(labels)
    )
    return DiagonalizationResult(rounds, factors, pruned, quiver.vertices)


def _factor_product(factors, vertices, rounds, window):
    """1 on `window` times every factor's one-vertex series at its monomial,
    through x-degree `rounds`, with one multivariate product per distinct
    monomial: factors sharing it are multiplied in v first.  Substituting
    v -> q^(qpow/2) x^m sends each v-degree to its own x-degree with a fixed
    t-shift, so every product window carries through unchanged.

    The groups are multiplied in descending total degree of their monomial,
    ties in order of first appearance (a stable sort).  A high-degree
    factor has few terms below the cap, so the accumulator stays sparse
    until the dense degree-1 factors come last."""
    slack = max((abs(f.monomial.qpow) for f in factors), default=0) * rounds
    factor_window = (window[0] - slack, window[1] + slack)
    groups = {}
    for factor in factors:
        groups.setdefault(factor.monomial, []).append(factor.loop_count)
    singles = {}
    rhs = MultiSeries.one(vertices, rounds, window)
    for mono, loop_counts in sorted(groups.items(),
                                    key=lambda group: -group[0].total_degree()):
        sub_order = rounds // mono.total_degree()
        product = None
        for loops in loop_counts:
            single = singles.get((loops, sub_order))
            if single is None:
                single = singles[loops, sub_order] = motivic_series(
                    one_vertex(loops), sub_order, factor_window)
            product = single if product is None else product * single
        rhs = rhs * product.substitute(product.vertices[0], mono, vertices,
                                       out_cap=rounds)
    return rhs


def verify_diagonalization(quiver, rounds, window=None,
                           conventions=DEFAULT_CONVENTIONS):
    """Check that A_Q agrees through x-degree `rounds` with the product of
    one-loop-vertex series evaluated at the tracked factor monomials, one
    multivariate product per distinct monomial, on `window` (default:
    valuation_window(quiver, rounds), which reaches every degree).  The
    details count the degrees 0 < |d| <= rounds compared and those whose
    left-hand coefficient is nonzero on the window.  A left-hand side with
    no nonzero coefficient at |d| >= 1 on the window makes the check
    inconclusive."""
    result = diagonalize(quiver, rounds, conventions)
    if window is None:
        window = valuation_window(quiver, rounds)
    lhs = motivic_series(quiver, rounds, window)
    coverage = degree_coverage(lhs)
    mismatches = inconclusive_mismatches(coverage, window)
    if not mismatches:
        # on windows below t^0, where 1 itself cannot be stored, the
        # left-hand side is zero, so the right-hand side waits until here
        rhs = _factor_product(result.factors, quiver.vertices, rounds, window)
        mismatches = [degree_mismatch(*m) for m in lhs.first_mismatches(rhs)]
    return VerificationReport(
        name="diagonalization-identity",
        parameters={"quiver": quiver.to_json(), "order": rounds,
                    "window": [window[0], window[1]]},
        mismatches=mismatches,
        conventions=conventions.to_json(),
        details={"diagonalization": result.to_json(), **coverage},
    )
