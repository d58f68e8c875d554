"""Reference arithmetic the axis layer no longer uses: each evaluator sum cut by
a separate scan, a height's weighted sum combined one ``Ball`` at a time, and
each factor (−1)^(w/2)·u^(w−p)·(−6/π)^p rounded from its own exact power.

:func:`value` and :func:`s` read a route of :mod:`qmforms.numeric` with this
arithmetic, from the route's own evaluators, so a test can hold the library's
balls to these, integer for integer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from math import ceil

from qmforms.numeric import GUARD_BITS, Ball, _ball, _fixed_q, _x_power


def cut(self, step: float, offset: float) -> tuple:
    """First N whose dropped-terms bound 2^(_suffix[N] − N·step + offset) is below the budget (0 for the
    zero series), and the peak: |c_n|·q^n < 2^(peak + 2), n < N; ``self`` an ``AxisEvaluator``."""
    peak, budget, suffix, prec = -math.inf, -math.inf, self._suffix, self._prec
    for n, low in enumerate(self._low):
        ns = n * step
        if suffix[n] - ns + offset <= budget:
            return n, peak
        if low - ns > peak:
            peak, budget = low - ns, low - ns - prec
    return len(self._low), peak


def evaluator_sum(self, fixed_q: tuple) -> tuple:
    """(ball, log2 of (dropped, beyond, rounding), N) at a ``_fixed_q`` height; ``self`` an ``AxisEvaluator``."""
    x, big_q, shift = fixed_q
    step, offset = x / math.log(2), -math.log2(-math.expm1(-x))
    n, peak = cut(self, step, offset)
    dropped = self._suffix[n] - n * step + offset
    beyond = self._top - self._last * step - math.log2(-math.expm1(-self.grain * x))
    if peak == -math.inf:
        return Ball(0, 0, 0), (dropped, beyond, -math.inf), n
    top = ceil(peak) + 3
    k0 = self._first if self._first * step > self._prec else 0
    f = max(0, self._prec + GUARD_BITS - ceil(peak + k0 * step) - 2 - self._den.bit_length())
    nums, acc = self._nums, 0
    for k in range(n - 1, k0 - 1, -1):
        acc = (nums[k] << f) + (acc * big_q >> shift)
    scaled = acc * big_q**k0
    e = top - self._prec - GUARD_BITS
    s = -f - k0 * shift - e
    mid = (scaled << s) // self._den if s >= 0 else (scaled >> -s) // self._den
    parts = sum(1 << max(0, ceil(lg + 2**-20) - e) for lg in (dropped, beyond) if lg > -math.inf)
    rad = 1 + (n * (n + 1) << GUARD_BITS) + parts
    return Ball(mid, rad, e), (dropped, beyond, math.log2(n * (n + 1)) + top - self._prec), n


def add(a: Ball, b: Ball) -> Ball:
    """a + b exactly, at the lower exponent."""
    hi, lo = (a, b) if a.exp >= b.exp else (b, a)
    shift = hi.exp - lo.exp
    return Ball((hi.mid << shift) + lo.mid, (hi.rad << shift) + lo.rad, lo.exp)


class Height:
    """One height t > 0 at working precision ``prec``: its evaluator sums and factors, each formed once."""

    def __init__(self, t, prec: int):
        self.t, self.prec, self.above, self._q, self._sums, self._factors = t, prec, t >= 1, {}, {}, {}

    def sum(self, weighted) -> Ball:
        """Σ k·G(it) over ``(k, evaluator of G)``, one ``Ball`` per term, trimmed."""
        total, width = Ball(0, 0, 0), self.prec + 2 * GUARD_BITS
        for k, e in weighted:
            if e not in self._sums:
                if (key := (e.grain, e._prec)) not in self._q:
                    self._q[key] = _fixed_q(self.t, *key)
                self._sums[e] = evaluator_sum(e, self._q[key])[0]
            term = Ball(*k) * self._sums[e]
            hi, lo = (total, term) if total.exp >= term.exp else (term, total)
            zero, below = not (lo.mid or lo.rad), (abs(lo.mid) + lo.rad).bit_length() <= hi.exp - lo.exp
            total = Ball(hi.mid, hi.rad + (not zero), hi.exp) if zero or (below and hi.mid.bit_length() >= width) else add(hi, lo)
        return total.trim(self.prec)

    @cached_property
    def inverse(self) -> Height:
        return Height(1 / Fraction(self.t), self.prec)

    def factor(self, w: int, p: int) -> Ball:
        """(−1)^(w/2)·u^(w−p)·(−6/π)^p at u = t, u^(w−p) rounded by ``_ball`` for each (w, p)."""
        if (w, p) not in self._factors:
            a, c = self.t.as_integer_ratio()
            f = (_ball(a ** (w - p), c ** (w - p), self.prec) * _x_power(p, self.prec)).trim(self.prec)
            self._factors[w, p] = f if w % 4 == 0 else Ball(-f.mid, f.rad, f.exp)
        return self._factors[w, p]


def height(t, table: dict, prec: int) -> Height:
    return table.get(t) or table.setdefault(t, Height(t, prec))


def inverted(weight: int, terms, h: Height, first: int = 0) -> Ball:
    """(−1)^(weight/2)·u^weight·Σ_p x^p·G_p(iu), ``terms`` (p − first, G_p), u = 1/t."""
    u = h.inverse
    return u.sum([(u.factor(weight, p + first), e) for p, e in terms])


def value(route, t, table: dict) -> Ball:
    """F(it) off a ``numeric._AxisRoute``, ``table`` this module's records by height."""
    if (h := height(t, table, route.prec)).above or route.w is None:
        return h.sum(((Ball(1, 0, 0), route.f),))
    return inverted(route.w, route._phi_below, h)


def s(route, m: int, t, table: dict) -> Ball:
    """s = m·F − 2πt·DF off a ``numeric._AxisRoute``."""
    if (h := height(t, table, route.prec)).above or route.w is None:
        minus_two_pi_t = Ball(12, 0, 0) * h.factor(0, -1)
        return h.sum(((Ball(m, 0, 0), route.f), (minus_two_pi_t, route.fp)))
    return inverted(route.w, route._below(m, table), h, -1)
