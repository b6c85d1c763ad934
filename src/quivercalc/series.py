"""Exact windowed arithmetic for Laurent series in t = q^(1/2) and for
degree-truncated multivariate power series over them.

Every q-power is tracked as an integer exponent of t = q^(1/2), so an
exponent e stands for q^(e/2) and half-integer powers of q never require
fractional bookkeeping.  Coefficients are Python ints or
:class:`fractions.Fraction`; nothing is floated or rounded anywhere.

A :class:`TruncatedLaurent` with window [lo, hi] represents a series in
Q((t)) that has no terms below t^lo and whose coefficients at every exponent
<= hi are exactly the stored ones (absent exponents are zero there);
coefficients above hi are unknown, never silently assumed to vanish.  Every
operation derives the widest output window it can justify from the operand
windows and their lowest nonzero exponents, so a coefficient is never
reported outside the range on which it is provably correct.

Every product, of two Laurent series or of two multivariate series, runs
through one kernel, ``_convolve``, and every sum through one, ``_sum_terms``.
Pairs of long coefficients are multiplied by Kronecker substitution (Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution", JSC
2009): each coefficient is packed once per call into one Python int of
fixed-width biased digits, each pair costs one big-int product, the products
landing on one output degree are added in packed form and unpacked once.
Long integer pairs are packed; anything else (monomials, binomials, Fraction
coefficients) runs the schoolbook loop.  A long operand keeps its packing
shape (valuation, exponent gcd, top exponent, largest |coefficient|) in a
slot, computed on its first product and read by every later one; a degree
that only one packed residue class reaches is its unpacked digits, with no
closing pass.

A TruncatedLaurent's ``coeffs`` dict is never written after it is built, so
results may share it, under one borrow rule that sums and products keep
alike.  Each output degree has one slot, and its first contribution, a
sum's first part or an operand of a product times an exact 1, is borrowed
as it is; the first later write into the degree copies it into a dict of
the slot's own, and a borrowed series is copied at the close only when the
degree's hi cuts below its own.  A kernel writes only into a dict it
created.  Nothing may depend on dict order; every rendering sorts by
exponent.

One construction rule holds for series: the public constructors check their
input, and a series the package builds (a sum, product, Adams operation,
substitution or plethystic logarithm) is wrapped by ``_trusted`` unchecked.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import add, itemgetter


class SeriesError(ValueError):
    """Base class for exact-series errors."""


class TruncationUnderflow(SeriesError):
    """An operation would need coefficients beyond the known window."""


class NotInvertible(SeriesError):
    """Inversion of a series with no visible nonzero coefficient."""


def exact_str(c):
    """Render an int or Fraction as an exact decimal string like '-3' or '5/2'."""
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def _intify(c):
    # Fractions with denominator 1 collapse back to int so hot loops stay on ints.
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _div(a, b):
    return _intify(Fraction(a, 1) / b)


class TruncatedLaurent:
    # shape: None, or the _pack_shape that the product kernel cached on a
    # long operand; it stays true because coeffs is never written after it
    # is built
    __slots__ = ("coeffs", "lo", "hi", "shape")

    def __init__(self, coeffs, lo, hi):
        if lo > hi:
            raise TruncationUnderflow(f"TruncatedLaurent: empty window [{lo}, {hi}]")
        clean = {}
        for e, c in coeffs.items():
            if c == 0:
                continue
            if not lo <= e <= hi:
                raise ValueError(
                    f"coefficient exponent {e} lies outside window [{lo}, {hi}]")
            clean[e] = c if type(c) is int else _intify(c)
        self.coeffs = clean
        self.lo = lo
        self.hi = hi
        self.shape = None

    @classmethod
    def _trusted(cls, coeffs, lo, hi):
        """Wrap coefficients already known to be nonzero, reduced (ints where
        integral) and inside [lo, hi], without the constructor's checks."""
        self = cls.__new__(cls)
        self.coeffs = coeffs
        self.lo = lo
        self.hi = hi
        self.shape = None
        return self

    @classmethod
    def zero(cls, lo, hi):
        return cls({}, lo, hi)

    @classmethod
    def one(cls, lo, hi):
        return cls.monomial(0, 1, lo, hi)

    @classmethod
    def monomial(cls, exponent, coeff, lo, hi):
        return cls({exponent: coeff}, min(lo, exponent), hi)

    def is_zero(self):
        return not self.coeffs

    def valuation(self):
        """Exponent of the lowest nonzero known coefficient, or None if all
        known coefficients vanish."""
        return min(self.coeffs) if self.coeffs else None

    def coeff(self, exponent):
        """Coefficient at t^exponent; raises TruncationUnderflow above the window."""
        if exponent > self.hi:
            raise TruncationUnderflow(
                f"coefficient at t^{exponent} is beyond window [{self.lo}, {self.hi}]")
        return self.coeffs.get(exponent, 0)

    def window(self):
        return (self.lo, self.hi)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self):
        # negated coefficients stay nonzero and reduced, on the same exponents
        return TruncatedLaurent._trusted({e: -c for e, c in self.coeffs.items()},
                                         self.lo, self.hi)

    def __add__(self, other):
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        return _sum_terms((((), self), ((), other)))[()]

    def __sub__(self, other):
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        return self + (-other)

    def mul(self, other, hi_cap=None):
        """Product with the provable window: the output is correct up to
        min(hi_a + val_b, hi_b + val_a), where an all-zero operand counts as
        having valuation just above its own window.  hi_cap trims the output
        window further (a pure optimization for deep truncations)."""
        return _convolve((((), self),), (((), other),), 0, hi_cap)[()]

    def __mul__(self, other):
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        return self.mul(other)

    def scale(self, c):
        return TruncatedLaurent({e: v * c for e, v in self.coeffs.items()}, self.lo, self.hi)

    def shift(self, j):
        """Multiply by t^j (exact; the window shifts with the exponents)."""
        if j == 0:
            return self
        return TruncatedLaurent._trusted({e + j: c for e, c in self.coeffs.items()},
                                         self.lo + j, self.hi + j)

    def truncated(self, hi):
        """Forget knowledge above t^hi."""
        if hi >= self.hi:
            return self
        return TruncatedLaurent({e: c for e, c in self.coeffs.items() if e <= hi},
                                self.lo, hi)

    def inverse(self):
        """Multiplicative inverse, valid on the window [-v, hi - 2v] where v
        is the valuation.  Requires a nonzero lowest visible coefficient."""
        v = self.valuation()
        if v is None:
            raise NotInvertible(
                "laurent_inverse: no nonzero coefficient in window "
                f"[{self.lo}, {self.hi}]")
        c0 = self.coeffs[v]
        depth = self.hi - v
        u = [0] * (depth + 1)
        for e, c in self.coeffs.items():
            if e != v:
                u[e - v] = _div(c, c0)
        w = [0] * (depth + 1)
        w[0] = 1
        for n in range(1, depth + 1):
            s = 0
            for k in range(1, n + 1):
                if u[k]:
                    s += u[k] * w[n - k]
            w[n] = -s
        coeffs = {}
        for n, wn in enumerate(w):
            if wn:
                coeffs[n - v] = _div(wn, c0)
        return TruncatedLaurent(coeffs, -v, self.hi - 2 * v)

    # -- comparison ---------------------------------------------------------

    def first_mismatch(self, other):
        """Lowest exponent (on the common known range) where the two series
        provably differ, or None.  Below a window's lo the series is zero."""
        a, b = self.coeffs, other.coeffs
        if a == b:
            return None
        hi = min(self.hi, other.hi)
        return min((e for e in a.keys() | b.keys() if e <= hi and a.get(e, 0) != b.get(e, 0)),
                   default=None)

    def agrees_with(self, other):
        return self.first_mismatch(other) is None

    def __eq__(self, other):
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        return (self.coeffs, self.lo, self.hi) == (other.coeffs, other.lo, other.hi)

    __hash__ = None

    # -- rendering ----------------------------------------------------------

    def __repr__(self):
        inner = ", ".join(f"{e}: {c}" for e, c in sorted(self.coeffs.items()))
        return f"TruncatedLaurent({{{inner}}}, window=[{self.lo}, {self.hi}])"

    def to_q_string(self):
        """Human-readable form in q (exponent e renders as q^(e/2))."""
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            if e == 0:
                mono = "1"
            elif e == 2:
                mono = "q"
            elif e % 2 == 0:
                mono = f"q^{e // 2}"
            else:
                mono = f"q^({e}/2)"
            cs = exact_str(c)
            if mono == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out

    def to_json(self):
        return {
            "window": [self.lo, self.hi],
            "coefficients": {str(e): exact_str(c) for e, c in sorted(self.coeffs.items())},
        }


# -- the sum and product kernels ------------------------------------------------

def _close(coeffs, hi):
    """Close a sum whose exponents start inside its window, in place: drop
    exponents above hi and zero sums, and turn integral Fractions back into
    ints.  Returns coeffs, which must be a dict the caller owns."""
    for e in [e for e, c in coeffs.items() if e > hi or not c or type(c) is not int]:
        c = coeffs[e]
        if e <= hi and c:
            coeffs[e] = _intify(c)
        else:
            del coeffs[e]
    return coeffs


def _add_parts(slots, parts):
    """Add the (multidegree, TruncatedLaurent) pairs of parts into slots,
    d -> [lo, hi, own dict or None, borrowed series or None]: a degree's
    first part is borrowed as it is, and its coefficients are copied into a
    dict of the slot's own when a second part arrives."""
    for d, s in parts:
        slot = slots.get(d)
        if slot is None:
            slots[d] = [s.lo, s.hi, None, s]
            continue
        if s.lo < slot[0]:
            slot[0] = s.lo
        if s.hi < slot[1]:
            slot[1] = s.hi
        coeffs = slot[2]
        if coeffs is None:
            coeffs = slot[2] = dict(slot[3].coeffs)
            slot[3] = None
        for e, c in s.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c


def _closed(lo, hi, coeffs, first):
    """The series held by a slot of _add_parts or _convolve: its own dict,
    closed, or else its borrowed series, whose dict is copied only when hi
    cuts below the series' own hi."""
    if coeffs is not None:
        return TruncatedLaurent._trusted(_close(coeffs, hi), lo, hi)
    if lo == first.lo and hi == first.hi:
        return first
    coeffs = first.coeffs
    if hi < first.hi:
        coeffs = {e: c for e, c in coeffs.items() if e <= hi}
    return TruncatedLaurent._trusted(coeffs, lo, hi)


def _sum_terms(parts):
    """The one series sum: for every multidegree d among the (multidegree,
    TruncatedLaurent) pairs of parts, the sum of its parts; returns a dict
    d -> TruncatedLaurent.  A degree with one part keeps that part's object.
    A sum takes the least lo and the least hi of its parts and is cut at hi;
    each degree's coefficients are added into one dict, closed once."""
    slots = {}
    _add_parts(slots, parts)
    return {d: _closed(*slot) for d, slot in slots.items()}


# A pair whose two operands both have at least this many nonzero coefficients
# is multiplied by Kronecker substitution.  Below it (monomials, binomials,
# the products with 1 in a diagonalization) packing and unpacking cost more
# than the schoolbook loop they replace.  Measured on dt and diagonalization
# requests: 8 and 12 tie on dt, where 16 is up to a quarter slower; 12 and 16
# tie on diagonalization, where 8 is slower on some quivers.
_PACK_MIN_TERMS = 12


def _pack_shape(coeffs):
    """(valuation, gcd of the exponent gaps from it, top exponent, largest
    |coefficient|) of nonempty coeffs, or False when one is not an int."""
    if set(map(type, coeffs.values())) != {int}:
        return False
    v = min(coeffs)
    return v, gcd(*map(v.__rsub__, coeffs)), max(coeffs), max(map(abs, coeffs.values()))


def _operands(pairs, cap):
    """(multidegree, total degree, coeffs, lo, hi, valuation, shape, series)
    of every (multidegree, TruncatedLaurent) pair with total degree <= cap.
    An all-zero series counts as having valuation just above its window.  A
    series with at least _PACK_MIN_TERMS coefficients reads its _pack_shape
    from its shape slot, computed on its first product; shape is truthy
    exactly when the series is packable (long, with int coefficients).
    Shorter series keep no shape: their valuation is one min()."""
    out = []
    for d, s in pairs:
        total = sum(d)
        if total <= cap:
            c = s.coeffs
            shape = s.shape
            if shape is None and len(c) >= _PACK_MIN_TERMS:
                shape = s.shape = _pack_shape(c)
            out.append((d, total, c, s.lo, s.hi,
                        shape[0] if shape else min(c) if c else s.hi + 1, shape, s))
    return out


def _pack(coeffs, val, top, step, wb, bias):
    """Kronecker form of integer coeffs: the sum of c * 2^(8 wb k) over the
    exponents e = val + step k up to top.  Each digit goes in biased by
    `bias`, which makes it nonnegative; the summed bias comes off at the end."""
    zero = bias.to_bytes(wb, "little")
    digits = [zero] * ((top - val) // step + 1)
    for e, c in coeffs.items():
        digits[(e - val) // step] = (c + bias).to_bytes(wb, "little")
    return (int.from_bytes(b"".join(digits), "little")
            - int.from_bytes(zero * len(digits), "little"))


def _unpack(acc, base, hi, step, wb, bias):
    """The nonzero digits of a packed sum, which sit at exponents base +
    step k, up to exponent hi: a fresh dict of nonzero ints, which a degree
    that this sum alone reaches keeps as it stands.  Digits above hi are cut
    off first: with the bias added, the digits below the cut are exact
    whatever lies above it."""
    n = (hi - base) // step + 1
    if n <= 0:
        return {}
    zero = bias.to_bytes(wb, "little")
    low = (acc + int.from_bytes(zero * n, "little")) & ((1 << (8 * wb * n)) - 1)
    # a Struct of its own: struct.unpack would keep every format in its cache
    raw = struct.Struct(f"{wb}s" * n).unpack(low.to_bytes(wb * n, "little"))
    digits = map(int.from_bytes, raw, repeat("little"))
    return {e: c - bias for e, c in zip(range(base, base + step * n, step), digits)
            if c != bias}


def _convolve(left, right, cap, hi_cap):
    """The one series product: for every multidegree d of total degree <= cap,
    the sum over d1 + d2 = d of left[d1] * right[d2], where left and right
    are (multidegree, TruncatedLaurent) pairs; returns a dict d ->
    TruncatedLaurent.

    Each pair's window is lo = lo1 + lo2, hi = min(hi1 + v2, hi2 + v1, hi_cap)
    (v the valuation), and a degree takes the lowest lo and the lowest hi of
    its pairs.  Its slot is [lo, hi, own dict or None, borrowed series or
    None, packed sums or None]; the first four fields are a slot of
    _add_parts, closed by the same _closed, under the same borrow rule: a
    first contribution that is an operand times an exact 1 borrows that
    operand as it is, and the first later write, a schoolbook pair or the
    unpacked digits, copies it into a dict of the slot's own.  A degree whose
    only contributions are the packed sum of one residue class (no schoolbook
    pair, nothing borrowed) is its unpacked digits as they stand: nonzero
    ints inside the window, with nothing for _close to do.  The columns run
    sorted by total degree, so a row stops at the first one past its budget.

    A pair of two packable operands (long, with int coefficients) is
    multiplied packed (Kronecker substitution): one big-int product, added in
    packed form to its degree's sum for its valuation modulo the step,
    shifted against the lowest valuation there, and unpacked once when the
    degree is closed.  Exponents are packed in steps of the gcd of all
    exponent gaps of the packable operands (2 when every coefficient lives on
    one parity, as in motivic series), so products whose valuations differ
    modulo that step add up separately.  A digit of a packed sum adds up at
    most min(#packable rows, #packable cols) pairs of at most min(span)
    products each, every product bounded by max|a| * max|b|; that bound plus
    a sign bit is the digit width of the whole call.  Every one of these
    numbers comes from the operands' cached shapes, so no coefficient is
    rescanned.  Other pairs run the schoolbook loop."""
    rows = _operands(left, cap)
    cols = _operands(right, cap)
    cols.sort(key=itemgetter(1))
    row_shapes = [op[6] for op in rows if op[6]]
    col_shapes = [op[6] for op in cols if op[6]]
    step = wb = bias = 1
    if row_shapes and col_shapes:
        step = gcd(*(shape[1] for shape in row_shapes + col_shapes))
        spans = [max((shape[2] - shape[0]) // step + 1 for shape in shapes)
                 for shapes in (row_shapes, col_shapes)]
        tops = [max(shape[3] for shape in shapes) for shapes in (row_shapes, col_shapes)]
        bound = min(len(row_shapes), len(col_shapes)) * min(spans) * tops[0] * tops[1]
        wb = (bound.bit_length() + 8) // 8  # one spare bit for the sign
        bias = 1 << (8 * wb - 1)
    shift = 8 * wb
    packed_cols = {}  # made on first use: id(coeffs) -> Kronecker form
    # d -> [lo, hi, own dict, borrowed series,
    #       valuation mod step -> [lowest valuation, packed sum]]
    slots = {}
    for d1, t1, ca, lo1, hi1, v1, pack_a, a in rows:
        budget = cap - t1
        packed_a = None  # a row's packed form lives for its row only
        for d2, t2, cb, lo2, hi2, v2, pack_b, b in cols:
            if t2 > budget:
                break
            d = tuple(map(add, d1, d2))
            lo = lo1 + lo2
            hi = min(hi1 + v2, hi2 + v1)
            if hi_cap is not None and hi_cap < hi:
                hi = hi_cap
            if hi < lo:
                raise TruncationUnderflow(f"laurent_mul: empty output window [{lo}, {hi}]")
            slot = slots.get(d)
            if slot is None:
                slot = slots[d] = [lo, hi, None, None, None]
            else:
                if lo < slot[0]:
                    slot[0] = lo
                if hi < slot[1]:
                    slot[1] = hi
            if pack_a and pack_b:
                if packed_a is None:
                    packed_a = _pack(ca, v1, pack_a[2], step, wb, bias)
                packed_b = packed_cols.get(id(cb))
                if packed_b is None:
                    packed_b = packed_cols[id(cb)] = _pack(cb, v2, pack_b[2], step, wb, bias)
                v = v1 + v2
                sums = slot[4]
                if sums is None:
                    sums = slot[4] = {}
                acc = sums.get(v % step)
                if acc is None:
                    sums[v % step] = [v, packed_a * packed_b]
                elif v >= acc[0]:
                    acc[1] += (packed_a * packed_b) << (shift * ((v - acc[0]) // step))
                else:
                    acc[1] = ((acc[1] << (shift * ((acc[0] - v) // step)))
                              + packed_a * packed_b)
                    acc[0] = v
            elif ca and cb:
                # the shorter operand runs the outer loop
                outer, inner = (ca, cb) if len(ca) <= len(cb) else (cb, ca)
                own = slot[2]
                if own is None:
                    if slot[3] is None and outer == {0: 1}:
                        # a first contribution times an exact 1: borrow
                        slot[3] = b if inner is cb else a
                        continue
                    own = slot[2] = {} if slot[3] is None else dict(slot[3].coeffs)
                    slot[3] = None
                for eo, co in outer.items():
                    top = hi - eo
                    for ei, ci in inner.items():
                        if ei <= top:
                            e = eo + ei
                            own[e] = own.get(e, 0) + co * ci
    out = {}
    for d in list(slots):
        lo, hi, own, first, sums = slots.pop(d)
        if sums:
            parts = [_unpack(acc, base, hi, step, wb, bias) for base, acc in sums.values()]
            if own is None and first is None and len(parts) == 1:
                out[d] = TruncatedLaurent._trusted(parts[0], lo, hi)
                continue
            # unpacked digits are a write: they go into a copy of a borrowed series
            if own is None:
                own = parts.pop() if first is None else dict(first.coeffs)
            for part in parts:
                for e, c in part.items():
                    own[e] = own.get(e, 0) + c
        elif own is None and first is None:
            own = {}
        out[d] = _closed(lo, hi, own, first)
    return out


@dataclass(frozen=True)
class VertexMonomial:
    """A monomial x^exponents * q^(qpow/2) substituted for a series variable.

    exponents is indexed by the target vertex list; qpow is the integer
    t-power the substitution carries along."""

    exponents: tuple
    qpow: int = 0

    def total_degree(self):
        return sum(self.exponents)

    def times(self, other, extra_qpow=0):
        if len(self.exponents) != len(other.exponents):
            raise ValueError("monomials over different vertex sets")
        expo = tuple(a + b for a, b in zip(self.exponents, other.exponents))
        return VertexMonomial(expo, self.qpow + other.qpow + extra_qpow)

    def to_json(self, vertices=None):
        out = {"exponents": list(self.exponents), "qpow": self.qpow}
        if vertices is not None:
            out["vertices"] = list(vertices)
        return out


def iter_multidegrees(nvars, max_total):
    """All nonnegative integer vectors of length nvars with sum <= max_total,
    in graded lexicographic order."""
    if nvars == 0:
        yield ()
        return
    for total in range(max_total + 1):
        d = [0] * (nvars - 1) + [total]
        last = nvars - 1 if total else 0  # the last nonzero entry
        while True:
            yield tuple(d)
            if last == 0:
                break
            # the next vector moves one unit from the last nonzero entry to
            # the entry before it, and the rest of that entry to the end
            v = d[last]
            d[last] = 0
            d[last - 1] += 1
            d[-1] = v - 1
            last = nvars - 1 if v > 1 else last - 1


class MultiSeries:
    """A multivariate power series truncated at a total-degree cap, with
    TruncatedLaurent coefficients.

    terms maps multidegree tuples to coefficients.  A missing multidegree is
    an exact zero: every operation here computes all multidegrees up to the
    cap or raises, so absence is proof, not ignorance.  The default window is
    the materialization target the series was built on; individual
    coefficients carry their own provable windows.

    The constructor checks the cap, the window and each multidegree, and
    copies terms; a series the package builds is wrapped by _trusted.
    """

    __slots__ = ("vertices", "cap", "window", "terms")

    def __init__(self, vertices, cap, window, terms):
        if cap < 0:
            raise ValueError("degree cap must be nonnegative")
        lo, hi = window
        if lo > hi:
            raise TruncationUnderflow(f"MultiSeries: empty default window [{lo}, {hi}]")
        vertices = tuple(vertices)
        n = len(vertices)
        for d in terms:
            if len(d) != n or any(x < 0 for x in d) or sum(d) > cap:
                raise ValueError(f"bad multidegree {d} for cap {cap} over {n} variables")
        self.vertices, self.cap, self.window, self.terms = vertices, cap, (lo, hi), dict(terms)

    @classmethod
    def _trusted(cls, vertices, cap, window, terms):
        """Take over terms known to fit (tuple vertices and window, cap >= 0,
        every degree in range), with no check and no copy."""
        self = cls.__new__(cls)
        self.vertices, self.cap, self.window, self.terms = vertices, cap, window, terms
        return self

    @classmethod
    def zero(cls, vertices, cap, window):
        return cls(vertices, cap, window, {})

    @classmethod
    def one(cls, vertices, cap, window):
        zero_deg = (0,) * len(tuple(vertices))
        lo, hi = window
        return cls(vertices, cap, window, {zero_deg: TruncatedLaurent.one(lo, hi)})

    def coeff(self, degree):
        degree = tuple(degree)
        got = self.terms.get(degree)
        if got is not None:
            return got
        return TruncatedLaurent.zero(*self.window)

    def constant_term(self):
        return self.coeff((0,) * len(self.vertices))

    def _require_same_vertices(self, other):
        if self.vertices != other.vertices:
            raise ValueError(
                f"vertex sets differ: {self.vertices} vs {other.vertices}")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._require_same_vertices(other)
        cap = min(self.cap, other.cap)
        window = tuple(map(min, self.window, other.window))
        return MultiSeries._trusted(self.vertices, cap, window, _sum_terms(
            (d, c) for terms in (self.terms, other.terms)
            for d, c in terms.items() if sum(d) <= cap))

    def mul(self, other):
        self._require_same_vertices(other)
        cap = min(self.cap, other.cap)
        window = tuple(map(min, self.window, other.window))
        return MultiSeries._trusted(self.vertices, cap, window,
                                    _convolve(self.terms.items(), other.terms.items(), cap, None))

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self.mul(other)

    def scale(self, c):
        return MultiSeries._trusted(self.vertices, self.cap, self.window,
                                    {d: v.scale(c) for d, v in self.terms.items()})

    # -- structural operations ------------------------------------------------

    def psi(self, n):
        """Adams operation: x^d t^j -> x^(n d) t^(n j).  Requires n >= 1 and a
        zero constant term.  Each coefficient keeps its values, nonzero and
        reduced, at exponents scaled into its scaled window, so it is wrapped
        without the constructor's checks, and so is the series."""
        if n < 1:
            raise ValueError("psi index must be >= 1")
        _require_zero_constant(self, "pleth_psi")
        if n == 1:
            return self
        out = {}
        for d, c in self.terms.items():
            nd = tuple(n * x for x in d)
            if sum(nd) > self.cap:
                continue
            # t^(n*hi + n - 1) is still provable: unknown source terms land on
            # multiples of n only, and the next one sits at n*(hi+1).
            out[nd] = TruncatedLaurent._trusted({n * e: v for e, v in c.coeffs.items()},
                                                n * c.lo, n * c.hi + n - 1)
        return MultiSeries._trusted(self.vertices, self.cap, self.window, out)

    def substitute(self, vertex, monomial, out_vertices, out_cap=None):
        """Substitute x_vertex -> x^monomial.exponents * q^(qpow/2), mapping
        onto the vertex list out_vertices (which must contain every remaining
        input vertex).  The monomial must have total degree >= 1; degrees
        that land above the cap are dropped, which is sound because they sit
        beyond the truncation order.  A term x^d lands on total degree
        |d| + d_vertex * (deg - 1), which is tested before its output
        multidegree is built."""
        try:
            vi = self.vertices.index(vertex)
        except ValueError:
            raise ValueError(f"unknown vertex {vertex!r} in substitution") from None
        out_vertices = tuple(out_vertices)
        expo = tuple(monomial.exponents)
        if len(expo) != len(out_vertices):
            raise ValueError("monomial exponent vector does not match output vertices")
        if any(x < 0 for x in expo):
            raise ValueError("monomial exponents must be nonnegative")
        deg = sum(expo)
        if deg < 1:
            raise SeriesError(
                "substitute_variable: degree-0 target would break truncation soundness")
        # Dropped input terms have total degree > cap.  When vertex is the
        # only variable they map to out-degree > cap*deg; otherwise a term
        # avoiding it entirely maps degree-preservingly, so only out-degrees
        # <= cap are provable.
        max_valid = (self.cap + 1) * deg - 1 if len(self.vertices) == 1 else self.cap
        cap = max_valid if out_cap is None else out_cap
        if cap > max_valid:
            raise SeriesError(
                f"substitute_variable: requested cap {cap} exceeds provable cap {max_valid}")
        pos = {label: i for i, label in enumerate(out_vertices)}
        mapping = []
        for i, label in enumerate(self.vertices):
            if i == vi:
                mapping.append(None)
            else:
                if label not in pos:
                    raise ValueError(
                        f"vertex {label!r} missing from output vertex set {out_vertices}")
                mapping.append(pos[label])
        qpow = monomial.qpow

        def landed():
            for d, c in self.terms.items():
                k = d[vi]
                if sum(d) + k * (deg - 1) > cap:
                    continue
                nd = [0] * len(out_vertices)
                for i, di in enumerate(d):
                    if i != vi and di:
                        nd[mapping[i]] += di
                if k:
                    for j, ej in enumerate(expo):
                        if ej:
                            nd[j] += k * ej
                yield tuple(nd), c.shift(qpow * k)

        if cap < 0:
            raise ValueError("degree cap must be nonnegative")
        return MultiSeries._trusted(out_vertices, cap, self.window, _sum_terms(landed()))

    # -- comparison -----------------------------------------------------------

    def first_mismatches(self, other, limit=None):
        """Per-multidegree disagreements (up to the common cap) on the common
        known coefficient ranges.  Returns a list of (degree, lhs, rhs) in
        the order of (|d|, d), the first `limit` of them (at least one) when
        a limit is given."""
        self._require_same_vertices(other)
        cap = min(self.cap, other.cap)
        mine, theirs = self.terms, other.terms
        out = []
        # one shared coefficient agrees with itself; only the disagreeing
        # degrees are sorted, into the order of (|d|, d)
        for d in mine.keys() | theirs.keys():
            a = mine.get(d)
            b = theirs.get(d)
            if a is b or sum(d) > cap:
                continue
            if a is None:
                a = TruncatedLaurent.zero(b.lo, b.hi)
            if b is None:
                b = TruncatedLaurent.zero(a.lo, a.hi)
            if a.first_mismatch(b) is not None:
                out.append((d, a, b))
        out.sort(key=lambda m: (sum(m[0]), m[0]))
        return out if limit is None else out[:max(limit, 1)]

    def agrees_with(self, other):
        return not self.first_mismatches(other, limit=1)

    def __repr__(self):
        return (f"MultiSeries(vertices={self.vertices}, cap={self.cap}, "
                f"window={self.window}, terms={len(self.terms)})")

    def to_json(self):
        rows = []
        for d in sorted(self.terms, key=lambda d: (sum(d), d)):
            rows.append({"degree": list(d), "coefficient": self.terms[d].to_json()})
        return {
            "vertices": list(self.vertices),
            "order": self.cap,
            "window": [self.window[0], self.window[1]],
            "terms": rows,
        }


# -- q-Pochhammer expansion ---------------------------------------------------

@lru_cache(maxsize=2048)
def partition_product_coeffs(parts, top):
    """Coefficients of prod over r in parts of 1/(1 - t^r) through t^top,
    a tuple: restricted partition counts, with equal parts told apart.
    pochhammer_inv asks for parts 1..n, functional_dimension for the sorted
    parts 1..d_i of every vertex i, and poincare_check once per degree up to
    its top level.  The bound is above the distinct keys of every benchmark
    workload, so none evicts: one pass leaves 297 of them on identity-verify
    at seed 121 (275 at seed 7), 185 on series-dt, 118 on algebra-rank and
    106 on algebra-homology."""
    dp = [0] * (top + 1)
    dp[0] = 1
    for r in parts:
        for j in range(r, top + 1):
            dp[j] += dp[j - r]
    return tuple(dp)


def pochhammer_inv(n, lo, hi):
    """Expansion of 1/((1 - q^-1)(1 - q^-2)...(1 - q^-n)) in nonnegative
    powers of q, on the requested window of t-exponents.

    Equals (-1)^n q^(n(n+1)/2) / ((1-q)(1-q^2)...(1-q^n)); the leading term
    sits at t^(n(n+1)) and the q-coefficients are restricted partition
    counts.  n = 0 gives 1."""
    if n < 0:
        raise ValueError("pochhammer_inv: n must be >= 0")
    if lo > hi:
        raise TruncationUnderflow(f"pochhammer_inv: empty window [{lo}, {hi}]")
    out_lo = min(lo, 0)
    if n == 0:
        if hi < 0:
            return TruncatedLaurent({}, out_lo, hi)
        return TruncatedLaurent({0: 1}, out_lo, hi)
    shift = n * (n + 1)
    jmax = (hi - shift) // 2
    if jmax < 0:
        return TruncatedLaurent({}, out_lo, hi)
    counts = partition_product_coeffs(tuple(range(1, n + 1)), jmax)
    sign = -1 if n % 2 else 1
    # every count is positive (all parts 1 is a partition), at exponents
    # shift..hi inside the window
    return TruncatedLaurent._trusted(
        {shift + 2 * j: sign * c for j, c in enumerate(counts)}, out_lo, hi)


# -- plethystic exponential and logarithm --------------------------------------

def _require_zero_constant(series, op):
    c0 = series.constant_term()
    if c0.coeffs:
        raise SeriesError(f"{op}: series must have zero constant term")


def _require_constant_one(series, op):
    c0 = series.constant_term()
    if c0.lo > 0 or c0.hi < 0 or c0.coeffs != {0: 1}:
        raise SeriesError(f"{op}: series must have constant term 1")


def pleth_exp(series):
    """Plethystic exponential Exp(f) = exp(sum_n psi_n(f)/n).  Requires a
    zero constant term; the result has constant term 1."""
    _require_zero_constant(series, "pleth_exp")
    cap = series.cap
    arg = MultiSeries.zero(series.vertices, cap, series.window)
    for n in range(1, cap + 1):
        arg = arg + series.psi(n).scale(Fraction(1, n))
    out = MultiSeries.one(series.vertices, cap, series.window)
    power = MultiSeries.one(series.vertices, cap, series.window)
    kfact = 1
    for k in range(1, cap + 1):
        power = power * arg
        kfact *= k
        out = out + power.scale(Fraction(1, kfact))
    return out


def _mobius(n):
    if n == 1:
        return 1
    m, out = n, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def pleth_log(series):
    """Plethystic logarithm, the inverse of pleth_exp up to the truncation
    order.  Requires constant term exactly 1 on the stored window.

    log F comes from one pass over the total x-degree |d| (Brent & Kung,
    "Fast algorithms for manipulating formal power series", JACM 1978).  For
    L = log F the Euler operator E = sum x_i d/dx_i gives F E(L) = E(F), that
    is G_d = |d| F_d - sum G_d1 F_d2 over d1 + d2 = d with 1 <= |d1| < |d|,
    where G_d = |d| L_d.  G is integral whenever F is.  Once the slice
    |d1| = k of G is complete, one MultiSeries.mul by -F adds its terms to
    every degree above k.  These cap - 1 products multiply the degree pairs
    of a single product of two series, where the power sum took cap - 1 full
    products; -F, their right operand in every one, computes its packing
    shape once (see _operands).

    Log = sum mu(n)/n psi_n(L), and psi_n(G)_d = (|d|/n) L_(d/n)(t^n), so
    Log_d = (1/|d|) sum_n mu(n) psi_n(G)_d: the Moebius sum runs on G, where
    mu(n) = +1 adds psi_n(G) as it is and mu(n) = -1 adds its negation, so no
    coefficient is multiplied by a scalar, and each coefficient takes one
    exact division by |d| at the end.

    The windows equal those of the power sum sum (-1)^(k+1) u^k / k with
    u = F - 1.  Both sums expand into the products F_c1 ... F_cm over the
    compositions d = c1 + ... + cm, and both give degree d the window lo =
    the least sum of lo(F_ci), hi = the least sum of val(F_ci) plus
    hi - val of one factor, because the valuation of a sum is never below
    the least valuation of its terms.  Scaling by |d| or dividing by it
    leaves a window as it is."""
    _require_constant_one(series, "pleth_log")
    cap, vertices, window = series.cap, series.vertices, series.window
    minus_f = MultiSeries._trusted(vertices, cap, window,
                                   {d: -c for d, c in series.terms.items() if any(d)})
    # G_d starts as |d| F_d; once the slice |d1| = k of G is closed, one
    # product with -F adds its terms into the open sum of every degree above
    # k, which is closed when its own slice k = |d| is reached
    open_sums = {}
    _add_parts(open_sums, ((d, c.scale(sum(d))) for d, c in series.terms.items() if any(d)))
    grad = {}
    for k in range(1, cap + 1):
        done = {d: _closed(*open_sums.pop(d)) for d in [d for d in open_sums if sum(d) == k]}
        grad.update(done)
        if k < cap:
            _add_parts(open_sums, MultiSeries._trusted(vertices, cap, window, done)
                       .mul(minus_f).terms.items())
    grad = MultiSeries._trusted(vertices, cap, window, grad)
    out = _sum_terms((d, c if mu > 0 else -c) for n in range(1, cap + 1)
                     for mu in (_mobius(n),) if mu for d, c in grad.psi(n).terms.items())
    # the division by |d|: exact // where an int divides, else _div (a
    # Fraction, or the int it reduces to)
    terms = {}
    for d, c in out.items():
        n = sum(d)
        terms[d] = TruncatedLaurent._trusted(
            {e: v // n if type(v) is int and not v % n else _div(v, n)
             for e, v in c.coeffs.items()}, c.lo, c.hi)
    return MultiSeries._trusted(vertices, cap, window, terms)
