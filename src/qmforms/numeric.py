"""High-precision evaluation of q-series on the positive imaginary axis.

Everything exact lives in the other modules; this one turns the truncated
series of a labelled form into floating values of F(it) and of
s = m·F(it) − 2πt·F'(it) at configurable binary precision, with an error
estimate on every value, and builds the three analytic tools of the
monotonicity study of t ↦ t^m F(it).  Every read names its form by a label,
never by a series passed by value, and takes ``EvalConfig.precision_bits``
as an argument; none reads or sets mpmath's global context, which is
imported on first use, only in :func:`geometric_grid` and :func:`_to_mpf`,
so exact commands never load it.  Every value is one :class:`_AxisRoute`
read, ``eval`` included:

* one inversion route: a label with x-parts (every SL(2,Z) label but E2)
  is summed at i/t below t = 1, so small t costs nothing in convergence,
  from F's x-parts Φ_p, the label's own (:mod:`qmforms.extremal`), and DF's
  Ψ_p = DΦ_p + ((w − p + 1)/12)·Φ_(p−1) by
  :func:`~qmforms.forms.derivative_x_parts`, with no E2 algebra on either.
  It is built once for height 1 and kept, per label and precision, in one
  bounded cache that ``eval``, scans, curves and limits share;
* geometric-grid scans of s(t) = m·F(it) − 2πt·F'(it), whose sign is that
  of d/dt [t^m F(it)], run as one batch: one grid, one route per label, and
  one record per height that every pair and route reads;
* the small-t limit of t^(w−1)·X_(w,1)(it) as t → 0+, measured on the
  label's route and set against the limit the inversion predicts.

Every sum goes through :class:`AxisEvaluator`, an integer Horner sum of a
series' exact numerators to a cut found in the same pass; reads combine the
sums on plain integers into one :class:`Ball`, whose radius is the value's
tolerance.  Heights are exact rationals, and a height's q = e^(−2πt/grain),
π, 1/π and u^k are integers with derived errors: one :class:`_Height` record
per height keeps q per grain, each evaluator's ball, u's powers rounded by
exponent and the factors made from them, each formed once.  The radius
bounds the dropped stored terms, every rounding and each constant's error,
and holds a geometric heuristic (not yet a proven bound) for the terms past
the stored order.  Scans are labelled "on grid": signs at grid points with
stated tolerances, never a proof in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import ceil
from typing import NamedTuple, Sequence

from .extremal import describe_label, form_by_label
from .forms import TAU_DEFAULT_CAP, OrderExceeded, derivative_x_parts
from .qseries import FourierSeries


# Requests past these caps exit 2 before any build: cold, `qmf eval X12_1 --t 0.5` takes 2.9 s at 28000 bits
# (4.8 s at 32768), and `qmf scan L10 --m 1 --points 20000`, the slowest label per point, 2.9 s (2-core x86-64, CPython 3.11).
MAX_PRECISION_BITS, MAX_POINTS = 28_000, 20_000


@dataclass(frozen=True)
class EvalConfig:
    """Working precision for axis evaluation.

    ``precision_bits``, the working binary precision, runs from 64 to MAX_PRECISION_BITS.
    ``order_for`` gives the build order, for the smallest height it serves,
    of the labels no route inverts: E2 and the Gamma0(N) labels
    (:func:`_inverting_route` sets a route's); the terms summed at each point
    are chosen by :class:`AxisEvaluator`.  A ``precision_bits`` that is not an
    ``int``, a ``bool`` included, raises ``TypeError``.
    """

    precision_bits: int = 128

    def __post_init__(self) -> None:
        if type(self.precision_bits) is not int:
            raise TypeError(f"precision_bits must be an int, got {self.precision_bits!r}")
        if not 64 <= self.precision_bits <= MAX_PRECISION_BITS:
            raise ValueError(f"precision_bits must be >= 64 and <= {MAX_PRECISION_BITS}, got {self.precision_bits}")

    def order_for(self, t) -> int:
        """Truncation order for an evaluation at z = it: q^N = e^(-80*pi),
        about 2^-362, at height t up to 256 bits, deepened in proportion above."""
        return max(200, ceil(40 * max(1, self.precision_bits / 256) / float(t)))


# Reads refuse max(t, 1/t) > HEIGHT_CAP before any build.  Delta, E4, X12_1, X48_1, X96_1, F, L,
# P1, G, X16_2, X42Delta and Y8_2 keep full precision through 10^17 (Delta matches mpmath to 30 digits
# from 10^-18 to 10^18); at 10^18 F and L read 0.0 with a tail of their own size, at 10^30 Delta runs
# out of memory in a shift, and 10^50 or 10^400 overflow conversions.
HEIGHT_CAP = 10**15


class HeightOutOfRange(ValueError):
    """Raised, before any build, for a height t <= 0 or with max(t, 1/t) > HEIGHT_CAP."""


class NonPositiveT(HeightOutOfRange):
    """Raised when an evaluation point t on the imaginary axis is <= 0."""


def _require_height(t) -> None:
    """Refuse t <= 0 (:class:`NonPositiveT`) and t past :data:`HEIGHT_CAP`; t is an int or a Fraction."""
    if not t > 0:
        raise NonPositiveT(f"evaluation point must satisfy t > 0, got {t}")
    a, c = t.as_integer_ratio()
    if a > HEIGHT_CAP * c or c > HEIGHT_CAP * a:
        raise HeightOutOfRange(f"t of about 10^{math.log10(a) - math.log10(c):.0f} is past the cap: need 10^-15 <= t <= 10^15")


# ---------------------------------------------------------------------------
# the axis evaluator
# ---------------------------------------------------------------------------

# Bits past the working precision: a point is summed at prec + GUARD_BITS and
# drops only stored terms weighing under 2^-(prec + GUARD_BITS) of its largest.
GUARD_BITS = 16

# Factor on the geometric heuristic for the terms past the stored order.
TAIL_SAFETY = 10


class Ball(NamedTuple):
    """The reals [mid − rad, mid + rad]·2^exp: ``*`` exact, ``trim`` rounding
    outward to the width it is passed, as Arb's operations take their ``prec``
    (Johansson, IEEE Trans. Comput. 66, 2017); :meth:`_Height.sum` adds them."""

    mid: int
    rad: int  # >= 0
    exp: int

    def __mul__(self, other: Ball) -> Ball:
        rad = abs(self.mid) * other.rad + abs(other.mid) * self.rad + self.rad * other.rad
        return Ball(self.mid * other.mid, rad, self.exp + other.exp)

    def trim(self, prec: int) -> Ball:
        """At most prec + 2·GUARD_BITS bits each: mid floored, rad one unit up."""
        s = max(abs(self.mid).bit_length(), self.rad.bit_length()) + 1 - prec - 2 * GUARD_BITS
        return self if s <= 0 else Ball(self.mid >> s, -(-self.rad >> s) + 1, self.exp + s)

    def as_mpf(self, prec: int) -> tuple:
        """(mid at ``prec`` bits, a bound rounded up on its distance from the ball), as mpf values."""
        units = self.rad + (abs(self.mid) >> prec)  # with mid's own rounding
        s = max(0, units.bit_length() - prec)
        return _to_mpf(self, prec), _to_mpf(Ball(-(-units >> s), 0, self.exp + s), prec)


def _to_mpf(x, prec: int):
    """A ball's midpoint or a rational, rounded to nearest at ``prec`` bits: the
    mpf that ``mpf((mid, exp))`` or an mpf quotient makes at working precision
    ``prec``, whatever mpmath's own context holds."""
    import mpmath  # once loaded, a plain import is a dict lookup; a from-import redoes importlib's fromlist work
    libmp = mpmath.libmp
    if isinstance(x, Ball):
        return mpmath.mp.make_mpf(libmp.from_man_exp(x.mid, x.exp, prec, libmp.round_nearest))
    return mpmath.mp.make_mpf(libmp.from_rational(*x.as_integer_ratio(), prec, libmp.round_nearest))


def _ball(num: int, den: int, prec: int) -> Ball:
    """num/den, den > 0, floored to prec + 2·GUARD_BITS + 1 bits at most."""
    s = prec + 2 * GUARD_BITS - 1 + den.bit_length() - abs(num).bit_length()
    mid, rest = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)
    return Ball(mid, 1 if rest else 0, -s)


def _arctan_inv(x: int, bits: int, sign: int) -> int:
    """atan(1/x) (sign −1) or atanh(1/x) (sign 1), x >= 3, in units of 2^-bits: the sum of
    sign^k·⌊⌊2^bits/x^(2k+1)⌋/(2k+1)⌋ to its first zero term, off by under 3 units a term and 2 for the rest."""
    power, total, k = (1 << bits) // x, 0, 1
    while power:
        total += sign ** (k // 2) * (power // k)
        power, k = power // (x * x), k + 2
    return total


@lru_cache(maxsize=16)
def _wide_constants(bits: int) -> tuple:
    """(π, ln 2)·2^bits within 1.02 units: π = 16·atan(1/5) − 4·atan(1/239) (Machin), ln 2 = 2·atanh(1/3),
    at g = bit_length(bits) + 10 guard bits, whose error (under 12·(bits + g) + 100 units) stays below 2^g/50,
    then floored (Brent and Zimmermann, *Modern Computer Arithmetic*, §4.4)."""
    g = bits.bit_length() + 10
    pi = 16 * _arctan_inv(5, bits + g, -1) - 4 * _arctan_inv(239, bits + g, -1)
    return pi >> g, 2 * _arctan_inv(3, bits + g, 1) >> g


def _constants(bits: int) -> tuple:
    """(P, L) within 2 units of π·2^bits and ln 2·2^bits: :func:`_wide_constants` at ``bits`` rounded up to
    a multiple of 64, so few widths are kept, floored by a shift (half of 1.02 units, plus one)."""
    s = -bits % 64
    return tuple(c >> s for c in _wide_constants(bits + s))


@lru_cache(maxsize=64)
def _x_power(p: int, prec: int) -> Ball:
    """(−6/π)^p = x^p·u^p, x = −6/(πu), at ``prec`` bits: from P = π·2^prec within 2 units
    (:func:`_constants`), or 1/π = ⌊2^(2·prec+2)/P⌋·2^-(prec+2) within 2 (P's error 0.85, the floor 1)."""
    pi = _constants(prec)[0]
    x = Ball(pi, 2, -prec) if p < 0 else Ball((1 << 2 * prec + 2) // pi, 2, -prec - 2)
    six = _ball((-6) ** p, 1, prec) if p >= 0 else _ball(-1, 6, prec)
    return math.prod([x] * abs(p), start=six).trim(prec)


def _fixed_q(t, grain: int, prec: int) -> tuple:
    """(x, Q, F): x = 2πt/grain as a float, Q = e^(−x)·2^F >= 2^(prec+4), off by 2^-(prec+2) relatively,
    in integers at W = V + 12 + bit_length(V) bits, V = prec + b, b the bits of ⌊x⌋ (Brent and Zimmermann,
    §4.3).  For t = a/c, k, R = divmod(⌊2·a·P/(c·grain)⌋, L), P and L of :func:`_constants`(W), gives
    r = R·2^-W within (3.6x + 2)·2^-W < 2^(b+3−W) of x − k·ln 2.  A Taylor sum of e^(−y), y = r/2^8 <
    0.003, in n <= W/8 + 2 floored terms is within n + 2 units; eight squarings, each floored at a value near 1/2
    or above, leave e^(−r) within 257·(n + 4)·2^-W < 2^-(prec+6).  A shift gives Q = ⌊e^(−r)·2^(prec+6)⌋,
    within 2^-(prec+4) more, and F = prec + 6 + k."""
    xf = 2 * math.pi * float(t) / grain
    a, c = t.as_integer_ratio()
    wp = (v := prec + int(xf).bit_length()) + 12 + v.bit_length()
    pi, ln2 = _constants(wp)
    k, r = divmod(2 * a * pi // (c * grain), ln2)
    term, total, n = 1 << wp, 1 << wp, 0
    while term:  # term n = ⌊−term·y/n⌋; a last −1 ends it
        n += 1
        term = (-term * r >> wp + 8) // n
        total += term
    for _ in range(8):
        total = total * total >> wp
    return xf, total >> wp - prec - 6, prec + 6 + k


class AxisEvaluator:
    """Sums of one stored series at heights z = it, each to its cut, as balls
    that :class:`_Height` keeps and route reads combine.

    At wp = prec + GUARD_BITS, ``prec`` the working precision it is built
    for, it sums the exact numerators by Horner in Python integers at a
    fixed point; where q^k0 < 2^-wp for the first nonzero c_k0, it sums from
    c_k0 and scales by q^k0 = Q^k0·2^(−k0·F) once, so its width does not grow
    with the height.  At q = e^(−2πt/grain) a point sums c_0..c_(N−1), N the
    first index where 2^h·q^N/(1−q), 2^h bounding every later |c_n| by bit
    lengths with a bit to spare, is below 2^-wp of the largest term: that is
    ``dropped``.  ``beyond``, a heuristic, is TAIL_SAFETY·|c_K|·q^K/(1 − e^(−2πt))
    for the last nonzero c_K, 0 if K = 0.  With |c_k|·q^k < 2^P, k < N, and an
    accumulator unit at most 2^(P−wp), ``rounding`` N·(N + 1)·2^(P−wp) counts N
    truncations of acc·Q and Q's error k-fold in q^k (Higham, *Accuracy and
    Stability of Numerical Algorithms*, §5.1).  A point is a :class:`Ball` of
    unit 2^(P−prec−2·GUARD_BITS): ⌊sum/den⌋, one unit, and each of the three
    log2 floats as an outward power of two.
    """

    def __init__(self, series: FourierSeries, prec: int):
        self._nums, self._den, self.grain = series.nums, series.den, series.grain
        self._prec = prec + GUARD_BITS
        # 2^(d-1) < |c_n| < 2^(d+1) for d = bits of the numerator - bits of den
        bits = [abs(c).bit_length() - self._den.bit_length() if c else None for c in self._nums]
        self._low = [-math.inf if d is None else d - 1 for d in bits]
        # _suffix[n] >= 1 + log2 max |c_k| over k >= n, -inf once all are 0
        high = [-math.inf if d is None else d + 2 for d in reversed(bits)]
        self._suffix = list(accumulate(high, max, initial=-math.inf))[::-1]
        self._first = next((n for n, d in enumerate(bits) if d is not None), 0)
        self._last = last = max((n for n, d in enumerate(bits) if d is not None), default=0)
        self._top = math.log2(TAIL_SAFETY * abs(self._nums[last])) - math.log2(self._den) if last else -math.inf

    def _sum(self, fixed_q: tuple) -> tuple:
        """(ball, log2 of (dropped, beyond, rounding), N) at a :func:`_fixed_q` height: N is the first
        index whose dropped-terms bound 2^(_suffix[N] − N·step + offset) is below the budget (0 for the
        zero series), found in the loop that keeps the peak, |c_n|·q^n < 2^(peak + 2) for n < N.  A
        :class:`_Height` keeps the ball, with q per grain, u's powers by exponent and the factors."""
        x, big_q, shift = fixed_q
        step, offset, suffix, wp = x / math.log(2), -math.log2(-math.expm1(-x)), self._suffix, self._prec
        peak = budget = -math.inf
        for n, low in enumerate(self._low):
            ns = n * step
            if (dropped := suffix[n] - ns + offset) <= budget:
                break
            if low - ns > peak:
                peak, budget = low - ns, low - ns - wp
        else:
            n, dropped = len(self._low), -math.inf  # _suffix ends in -inf
        beyond = self._top - self._last * step - math.log2(-math.expm1(-self.grain * x))
        if peak == -math.inf:
            return Ball(0, 0, 0), (dropped, beyond, -math.inf), n
        top = ceil(peak) + 3  # a bit to spare over the float peak
        k0 = self._first if self._first * step > wp else 0
        # finer, for sums that cancel; Σ c_(k0+j)·q^j peaks near peak + k0·step
        f = max(0, wp + GUARD_BITS - ceil(peak + k0 * step) - 2 - self._den.bit_length())
        nums, acc = self._nums, 0
        for k in range(n - 1, k0 - 1, -1):
            acc = (nums[k] << f) + (acc * big_q >> shift)
        scaled = acc * big_q**k0  # q^k0 = Q^k0·2^(−k0·F), exact apart from Q's own error
        e = top - wp - GUARD_BITS
        s = -f - k0 * shift - e  # ⌊scaled·2^s / den⌋ is the sum in units of 2^e
        mid = (scaled << s) // self._den if s >= 0 else (scaled >> -s) // self._den
        # 2^⌈l + 2^-20⌉ >= 2^l, 2^-20 covering l's float error, and one unit at least
        rad = 1 + (n * (n + 1) << GUARD_BITS)
        for lg in (dropped, beyond):
            if lg > -math.inf:
                rad += 1 << max(0, ceil(lg + 2**-20) - e)
        return Ball(mid, rad, e), (dropped, beyond, math.log2(n * (n + 1)) + top - wp), n


class _AxisRoute:
    """F of one label at heights z = it, and s = m·F − 2πt·DF.

    ``parts`` are F's x-parts Φ_0..Φ_d, Φ_p the coefficient of x^p when E2
    becomes E2 + x in F (a `FormDescriptor`'s ``parts``), so Φ_0 = F; a modular
    form is its own single part (d = 0).  Without a weight, F = parts[0] is
    summed directly at every height; with one, directly at t >= 1 and at
    u = 1/t below: by E2(−1/τ) = τ²·E2(τ) + 6τ/(πi) (Zagier, *The 1-2-3 of
    Modular Forms*, §5.3) at τ = iu, with x = −6/(πu) = −6t/π,

        F(it) = (−1)^(w/2)·u^w·Σ_p x^p·Φ_p(iu).

    D = q·d/dq is −(1/2π)·d/dt at τ = it, and takes u^w to u^(w+2)·w/(2πu),
    x^p to 3p·x^(p−1)/π² and Φ_p(iu) to −u²·DΦ_p(iu); by 1/(2πu) = −x/12 and
    1/π² = x²u²/36 ([∂/∂E2, D] = w/12 in x, Zagier §5.2), for p = 0..d+1,

        DF(it) = (−1)^(w/2+1)·u^(w+2)·Σ_p x^p·Ψ_p(iu),  Ψ_p = DΦ_p + ((w − p + 1)/12)·Φ_(p−1),

    with Φ_(−1) = Φ_(d+1) = 0.  Since 2πu = −12/x,

        s = (−1)^(w/2)·u^w·Σ_(p >= −1) x^p·T_p(iu),  T_p = m·Φ_p − 12·Ψ_(p+1),

    each T_p an exact series; at m = w−1 on depth 1, T_1 is the zero series,
    so nothing cancels in floating point.  A route keeps its exact series and
    evaluators at its working precision ``prec`` for any number of calls:
    F′ = DΦ_0's from the first s read at t >= 1 (for a cached route, its
    build's check at t = 1), the Ψ_p's from the first below t = 1, so reads of
    F alone build neither.  Reads return a :class:`Ball` and take the caller's
    ``table``: each exponent's T_p evaluators and a :class:`_Height` per
    height, so reads sharing a table form each once.
    """

    def __init__(self, parts: Sequence[FourierSeries], weight: int | None, prec: int):
        self.w, self.prec = weight, prec
        self._phi = list(parts)
        self.f = AxisEvaluator(self._phi[0], prec)

    @cached_property
    def _psi(self) -> list:
        """Ψ_0..Ψ_(d+1), from the Φ_p alone (a weight's route only)."""
        return derivative_x_parts(self._phi, self.w)

    @cached_property
    def fp(self) -> AxisEvaluator:
        return AxisEvaluator(self._phi[0].derivative(), self.prec)

    @cached_property
    def _phi_below(self) -> list:
        """The (p, evaluator of Φ_p) pairs summed below t = 1, Φ_0 = F reusing ``f``."""
        return [(p, AxisEvaluator(g, self.prec) if p else self.f) for p, g in enumerate(self._phi) if not g.is_zero()]

    def _below(self, m: int, table: dict | None = None) -> list:
        """The (p, evaluator of T_p) pairs for exponent m summed below t = 1,
        built on first use and kept in the caller's ``table``."""
        memo, slot = {} if table is None else table, (self, m)
        if slot not in memo:
            memo[slot] = [(p, AxisEvaluator(g, self.prec)) for p, g in enumerate(self.t_series(m)) if not g.is_zero()]
        return memo[slot]

    def t_series(self, m: int) -> list:
        """T_(−1), ..., T_d for exponent m, exact."""
        return [(m * self._phi[p - 1] if p else 0) - 12 * psi for p, psi in enumerate(self._psi)]

    def _inverted(self, weight: int, terms: Sequence, height: _Height, first: int = 0) -> Ball:
        """(−1)^(weight/2)·u^weight·Σ_p x^p·G_p(iu), ``terms`` (p − first, G_p), u = 1/t."""
        u = height.inverse
        return u.sum([(u.factor(weight, p + first), e) for p, e in terms])

    def value(self, t, table: dict | None = None) -> Ball:
        """F(it)."""
        if (height := _height(t, table, self.prec)).above or self.w is None:
            return height.sum((((1, 0, 0), self.f),))
        return self._inverted(self.w, self._phi_below, height)

    def s(self, m: int, t, table: dict | None = None) -> Ball:
        """s = m·F − 2πt·DF."""
        if (height := _height(t, table, self.prec)).above or self.w is None:
            return height.sum((((m, 0, 0), self.f), (height.minus_two_pi_t, self.fp)))
        return self._inverted(self.w, self._below(m, table), height, -1)


def _height(t, table: dict | None, prec: int) -> _Height:
    """``table``'s record of height t, formed on first use; without a table, a new one.  A record
    is formed only here, after :func:`_require_height`, and as a checked record's ``inverse``."""
    if table is not None and (height := table.get(t)) is not None:
        return height
    _require_height(t)
    return _Height(t, prec) if table is None else table.setdefault(t, _Height(t, prec))


class _Height:
    """One height t > 0, an int or a Fraction, of a ``table`` at working precision ``prec``, shared by
    every read there of any route or exponent.  It keeps whether t >= 1 and, each formed on first use:
    q = :func:`_fixed_q` per grain, each evaluator's ball (its radius holds ``beyond``, a heuristic),
    u = 1/t's record, and, for reads in which this t is u, its powers rounded once per exponent and the
    factors made from them."""

    def __init__(self, t, prec: int):
        self.t, self.prec, self.above = t, prec, t >= 1
        self._q, self._sums, self._powers, self._factors = {}, {}, {}, {}

    def sum(self, weighted: Sequence) -> Ball:
        """Σ k·G(it) over ``(k, evaluator of G)``, k a ball or its (mid, rad, exp), each G summed once
        here, combined as integers and trimmed.  Of the total and the next term, one wholly below one
        unit of the other, whose midpoint has prec + 2·GUARD_BITS bits or more, adds that unit to its
        radius instead of a wide shift; an exact 0 adds nothing."""
        mid = rad = exp = 0
        width, sums = self.prec + 2 * GUARD_BITS, self._sums
        for (km, kr, ke), e in weighted:
            if (ball := sums.get(e)) is None:
                if (key := (e.grain, e._prec)) not in self._q:
                    self._q[key] = _fixed_q(self.t, *key)
                ball = sums[e] = e._sum(self._q[key])[0]
            gm, gr, ge = ball  # the term k·G, as Ball.__mul__ forms it
            lm, lr, le = km * gm, abs(km) * gr + abs(gm) * kr + kr * gr, ke + ge
            if le > exp:  # the term is the higher
                mid, rad, exp, lm, lr, le = lm, lr, le, mid, rad, exp
            if not (lm or lr) or (abs(lm) + lr).bit_length() <= exp - le and mid.bit_length() >= width:
                rad += bool(lm or lr)
            else:
                mid, rad, exp = (mid << exp - le) + lm, (rad << exp - le) + lr, le
        return Ball(mid, rad, exp).trim(self.prec)

    @cached_property
    def inverse(self) -> _Height:
        return _Height(1 / Fraction(self.t), self.prec)  # in range as t is

    @cached_property
    def minus_two_pi_t(self) -> Ball:
        """−2πt = 12·t·(−π/6): 12 times t's factor at w = 0, p = −1."""
        return Ball(12, 0, 0) * self.factor(0, -1)

    def factor(self, w: int, p: int) -> Ball:
        """(−1)^(w/2)·u^w·x^p = (−1)^(w/2)·u^(w−p)·(−6/π)^p at u = t (w >= p:
        no E2-part has negative weight), u^(w−p) the exact rational power
        rounded once by :func:`_ball` and kept per exponent w − p."""
        if (w, p) not in self._factors:
            if (e := w - p) not in self._powers:
                a, c = self.t.as_integer_ratio()
                self._powers[e] = _ball(a**e, c**e, self.prec)
            f = (self._powers[e] * _x_power(p, self.prec)).trim(self.prec)
            self._factors[w, p] = f if w % 4 == 0 else Ball(-f.mid, f.rad, f.exp)
        return self._factors[w, p]


def _axis_route(label: str, t_min, cfg: EvalConfig) -> _AxisRoute:
    """How scans, curves and ``eval`` sum a label at heights >= t_min: with
    x-parts, the label's :func:`_inverting_route` at this precision; without,
    a direct route built at ``cfg.order_for(t_min)`` for this call only, or
    :class:`OrderExceeded` before any build past ``TAU_DEFAULT_CAP`` terms."""
    _require_height(t_min)
    if describe_label(label).parts is None:
        if (order := cfg.order_for(t_min)) > TAU_DEFAULT_CAP:
            raise OrderExceeded(f"{label} at t = {t_min} needs {order} terms, above the cap of {TAU_DEFAULT_CAP}")
        return _AxisRoute((form_by_label(label, order),), None, cfg.precision_bits)
    return _inverting_route(label, cfg.precision_bits)


@lru_cache(maxsize=64)
def _inverting_route(label: str, bits: int) -> _AxisRoute:
    """The route of a label with x-parts, kept per label and ``bits`` =
    ``precision_bits``, the working precision it is built for and read at;
    the cache holds the 64 most recently used.  It sums only at heights >= 1,
    so it is built at K = ⌈2·wp·ln 2/2π⌉ terms (q(1)^K = 2^(−2·wp), wp = bits
    + GUARD_BITS), doubled while Φ_0 = F stores no nonzero term (X_(w,1)'s
    first is at q^33 from w = 198 on), or F's or F′'s sum at t = 1 takes every
    stored term or has ``beyond`` above ``rounding``; both fall with the
    height, ``beyond`` faster."""
    desc = describe_label(label)
    order = ceil(2 * (bits + GUARD_BITS) * math.log(2) / (2 * math.pi))
    while True:
        route = _AxisRoute(desc.parts(order), desc.weight, bits)
        q = _fixed_q(1, route.f.grain, route.f._prec)  # DF has F's grain and precision
        at_one = [(e._sum(q), len(e._nums)) for e in (route.f, route.fp)]
        if all(n < size and beyond <= rounding for (_, (_, beyond, rounding), n), size in at_one) and any(route._phi[0].nums):
            return route
        order *= 2


def eval_at_it(label: str, t, cfg: EvalConfig | None = None) -> dict:
    """Value of the labelled form at z = it, t an int or a Fraction, with an error estimate.

    One read of the route scans and curves use: the label's
    :func:`_axis_route` for heights >= t (E2 and every label without
    x-parts built at ``cfg.order_for(t)``, so E2's inversion residual checks
    the law on its own).  Returns
    ``{"value", "tail_estimate"}``, the midpoint and radius of the read's
    :class:`Ball` as mpf values at ``cfg.precision_bits``: the dropped-terms
    bound, every rounding, and the geometric heuristic for the terms past the
    stored order.  Only F is summed, so no Ψ_p is built.
    """
    prec = (cfg := cfg or EvalConfig()).precision_bits
    route = _axis_route(label, t, cfg)
    if route.w is not None and t >= 1:
        # by label: test_tracer_rebinds_every_import_and_keeps_cache_info counts it (ROADMAP item 6)
        route = _AxisRoute((form_by_label(label, int(route._phi[0].order)),), None, prec)
    value, tail = route.value(t).as_mpf(prec)
    return {"value": value, "tail_estimate": tail}


def s_at_it(label: str, m: int, t, cfg: EvalConfig | None = None) -> dict:
    """s = m·F(it) − 2πt·DF(it) of a label with x-parts at one height, as
    ``{"value", "tail_estimate"}`` like :func:`eval_at_it`: the read its scans
    make there, on the same cached :func:`_inverting_route`."""
    if describe_label(label).parts is None:
        raise ValueError(f"{label} has no x-parts, so no route to read s on")
    _require_height(t)
    prec = (cfg or EvalConfig()).precision_bits
    value, tail = _inverting_route(label, prec).s(m, t).as_mpf(prec)
    return {"value": value, "tail_estimate": tail}


# ---------------------------------------------------------------------------
# monotonicity scans
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def geometric_grid(t_min, t_max, points: int, cfg: EvalConfig | None = None) -> tuple:
    """``points`` geometrically spaced heights from t_min to t_max inclusive, as
    exact rationals: the dyadic values of the mpf points mpmath makes at
    ``cfg.precision_bits``.  The 16 grids last used are kept."""
    if points < 2 or not 0 < t_min < t_max:
        raise ValueError("a grid needs at least two points and 0 < t_min < t_max")
    _require_height(t_min), _require_height(t_max)
    import mpmath  # libmp takes the precision as an argument, so no thread can change it under another
    lib, prec, rnd = mpmath.libmp, (cfg or EvalConfig()).precision_bits, mpmath.libmp.round_nearest
    lo, hi = (lib.mpf_div(lib.from_int(t.numerator, prec, rnd), lib.from_int(t.denominator), prec, rnd)
              for t in (t_min, t_max))
    ratio = lib.mpf_pow(lib.mpf_div(hi, lo, prec, rnd), lib.mpf_div(lib.fone, lib.from_int(points - 1), prec, rnd), prec, rnd)
    grid = [lib.mpf_mul(lo, lib.mpf_pow_int(ratio, k, prec, rnd), prec, rnd) for k in range(points - 1)] + [hi]
    return tuple(Fraction(man << max(exp, 0), 1 << max(-exp, 0)) for _, man, exp, _ in grid)


@dataclass(frozen=True)
class ScanReport:
    """Signs of s(t) = m·F(it) − 2πt·F'(it) on a grid.

    s(t) carries the sign of d/dt [t^m F(it)] (they differ by the positive
    factor t^(m-1)), so s <= 0 everywhere means the scanned power-weighted
    form is non-increasing across the grid.  ``sign_changes`` lists
    consecutive grid pairs whose s-values have strictly opposite signs
    beyond tolerance.  ``s_balls`` are the s-values as balls; ``s_values``,
    their midpoints as mpf values at ``prec`` bits, are converted on first read.
    """

    label: str
    m: int
    grid: tuple
    s_balls: tuple
    sign_changes: tuple
    verdict: str
    prec: int

    @cached_property
    def s_values(self) -> tuple:
        return tuple(_to_mpf(b, self.prec) for b in self.s_balls)

    def to_json_dict(self) -> dict:
        from mpmath import nstr
        return {
            "label": self.label,
            "m": self.m,
            "grid": [nstr(x, 17) for x in self.grid],
            "s_values": [nstr(x, 17) for x in self.s_values],
            "sign_changes": [[nstr(a, 17), nstr(b, 17)] for a, b in self.sign_changes],
            "verdict": self.verdict,
        }


DEFAULT_GRID_SPEC = (Fraction(1, 20), 20, 60)


def monotonicity_scans(pairs: Sequence, grid_spec: tuple = DEFAULT_GRID_SPEC,
                       cfg: EvalConfig | None = None) -> dict:
    """{(label, m): ScanReport} of the sign of d/dt [t^m F(it)] on one grid.

    ``grid_spec`` is (t_min, t_max, points).  The grid is built once, each
    label's :func:`_axis_route` once, and every route reads one table: a
    :class:`_Height` per grid point, whose q, weights and evaluator sums are
    formed once (F and DF at t >= 1 serve every m of a label), and T_p
    evaluators built once per (label, m); only the cached routes outlive the
    call.  Each s is a ball holding the dropped-terms bounds, the tail
    heuristics and every rounding, and its sign is read off its integers.
    Verdicts: ``sign_change_found`` when two consecutive grid points carry
    strictly opposite signs beyond tolerance, ``monotone_decreasing_on_grid``
    when every point is <= 0 within tolerance, ``not_decreasing_on_grid``
    otherwise.
    """
    if (m := min((m for _, m in pairs), default=1)) <= 0:
        raise ValueError(f"the exponent m must be positive, got {m}")
    prec, (t_min, t_max, points) = (cfg := cfg or EvalConfig()).precision_bits, grid_spec
    grid, table, reports = geometric_grid(t_min, t_max, points, cfg), {}, {}
    shown = tuple(_to_mpf(t, prec) for t in grid)  # exact: each point has at most prec bits
    routes = {label: _axis_route(label, t_min, cfg) for label in dict.fromkeys(label for label, _ in pairs)}
    for label, m in pairs:
        balls = [routes[label].s(m, t, table) for t in grid]
        signs = [0 if abs(b.mid) <= b.rad else (1 if b.mid > 0 else -1) for b in balls]
        signed = [(t, sig) for t, sig in zip(shown, signs) if sig]
        changes = tuple((a, b) for (a, sa), (b, sb) in zip(signed, signed[1:]) if sa != sb)
        verdict = ("sign_change_found" if changes else "monotone_decreasing_on_grid"
                   if all(sig <= 0 for sig in signs) else "not_decreasing_on_grid")
        reports[label, m] = ScanReport(label, m, shown, tuple(balls), changes, verdict, prec)
    return reports


def monotonicity_scan(form_label: str, m: int, grid_spec: tuple = DEFAULT_GRID_SPEC,
                      cfg: EvalConfig | None = None) -> ScanReport:
    """One (label, m) of :func:`monotonicity_scans`."""
    return monotonicity_scans([(form_label, m)], grid_spec, cfg)[form_label, m]


def curve_points(form_label: str, m: int, grid: Sequence, cfg: EvalConfig | None = None) -> list:
    """(t, t^m · F(it)) pairs over ``grid``, heights given as ints or
    Fractions — the data behind sign scans — as mpf values at
    ``cfg.precision_bits``, t^m·F(it) one ball product rounded once.

    Labels with x-parts use the inversion route below t = 1, like the scans.
    """
    prec = (cfg := cfg or EvalConfig()).precision_bits
    _require_height(max(grid))  # and _axis_route the least, before it builds
    route, table, points = _axis_route(form_label, min(grid), cfg), {}, []
    for t in grid:
        power = _ball(*(x**m for x in t.as_integer_ratio()), prec)
        points.append((_to_mpf(t, prec), _to_mpf(power * route.value(t, table), prec)))
    return points


# ---------------------------------------------------------------------------
# small-t limits
# ---------------------------------------------------------------------------


def limit_t0(w: int, cfg: EvalConfig | None = None) -> dict:
    """Measured vs predicted limit of t^(w-1) · X_(w,1)(it) as t → 0+.

    By :class:`_AxisRoute`'s inversion the limit is −6·sgn·β₀/π, with
    sgn = (−1)^(w/2) and β₀ the E2-companion's constant term; the measured
    value is the route's at t = 1/40.  Both are balls, rounded once to the
    working precision, and ``rel_error``, |measured − predicted|/|predicted|
    of the rounded values, is exact until rounded once, as in mpf arithmetic,
    whose difference is exact there (Sterbenz's lemma).
    """
    if w < 6 or w % 2:
        raise ValueError(f"the depth-1 family needs even weight >= 6, got {w}")
    prec = (cfg := cfg or EvalConfig()).precision_bits
    route = _axis_route(f"X{w}_1", Fraction(1, 40), cfg)
    beta0 = (-1) ** (w // 2) * Fraction(route._phi[1].coefficient(0))  # Φ_1: the E2-companion at depth 1
    predicted = _ball(beta0.numerator, beta0.denominator, prec) * _x_power(1, prec)
    measured = route.value(Fraction(1, 40)) * _ball(1, 40 ** (w - 1), prec)
    values = [_to_mpf(b, prec) for b in (measured, predicted)]
    m, p = (Fraction(x.man if x > 0 else -x.man) * Fraction(2) ** x.exp for x in values)
    return {"measured": values[0], "predicted": values[1], "rel_error": _to_mpf(abs(m - p) / abs(p), prec)}
