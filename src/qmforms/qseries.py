"""Exact truncated Fourier expansions with fractional exponents.

The central object is :class:`FourierSeries`: a finite expansion

    sum_{k=0}^{K} c_k * q^(k/g)

with rational coefficients ``c_k``, integer grain ``g >= 1``, and truncation
tracked by the *absolute* exponent ``K/g``.  All arithmetic is exact
(``fractions.Fraction``).  Mixed-grain operands are aligned on the lcm of the
grains, and every binary operation propagates the smaller absolute order of
its inputs, so a result never claims more terms than its inputs support.

Products run through an integer convolution on the coefficient numerators
over a common denominator; medium and large convolutions are packed into
single big integers (Kronecker substitution) so that Python's native big-int
multiplication does the work.  This keeps order-2000 expansions cheap while
staying exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping


class NonIntegerGrain(ValueError):
    """Raised when an operation needs integer exponents but the series has
    genuinely fractional ones."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# integer convolution helpers
# ---------------------------------------------------------------------------

_SCHOOLBOOK_LIMIT = 192  # output length below which the double loop wins


def _pack(values: list[int], width: int) -> int:
    """Pack nonnegative ints, each < 256**width, into one little-endian int."""
    return int.from_bytes(b"".join([x.to_bytes(width, "little") for x in values]), "little")


def _unpack(n: int, width: int, count: int) -> list[int]:
    # the packed integer may hold more slots than we read back (truncation)
    nbytes = (n.bit_length() + 7) // 8
    raw = n.to_bytes(max(nbytes, width * count), "little")
    return [
        int.from_bytes(raw[i * width : (i + 1) * width], "little")
        for i in range(count)
    ]


def _kronecker_conv(a: list[int], b: list[int], n_out: int) -> list[int]:
    # Split by sign so each packed slot stays nonnegative; the two products
    # of like signs (and the two of unlike signs) are summed while packed,
    # which costs one extra bit covered by the slack below.
    amax = max(abs(x) for x in a)
    bmax = max(abs(x) for x in b)
    bound = 2 * amax * bmax * min(len(a), len(b))
    width = bound.bit_length() // 8 + 2
    ap = [x if x > 0 else 0 for x in a]
    an = [-x if x < 0 else 0 for x in a]
    bp = [x if x > 0 else 0 for x in b]
    bn = [-x if x < 0 else 0 for x in b]
    has_an = any(an)
    has_bn = any(bn)
    pap, pbp = _pack(ap, width), _pack(bp, width)
    pos = pap * pbp
    neg = 0
    if has_an or has_bn:
        pan, pbn = _pack(an, width), _pack(bn, width)
        pos += pan * pbn
        neg = pap * pbn + pan * pbp
    out_pos = _unpack(pos, width, n_out)
    if not neg:
        return out_pos
    out_neg = _unpack(neg, width, n_out)
    return [p - q for p, q in zip(out_pos, out_neg)]


def _intconv(a: list[int], b: list[int], klimit: int) -> list[int]:
    """Truncated convolution: out[k] = sum_{i+j=k} a[i]*b[j] for k <= klimit."""
    if not a or not b:
        return [0] * (klimit + 1)
    n_out = min(len(a) + len(b) - 2, klimit) + 1
    a = a[:n_out]
    b = b[:n_out]
    nza = sum(1 for x in a if x)
    nzb = sum(1 for x in b if x)
    if nza == 0 or nzb == 0:
        return [0] * n_out
    if n_out > _SCHOOLBOOK_LIMIT and min(nza, nzb) > 24:
        return _kronecker_conv(a, b, n_out)
    if nzb < nza:
        a, b = b, a
    out = [0] * n_out
    for i, ai in enumerate(a):
        if not ai:
            continue
        jmax = n_out - i
        for j, bj in enumerate(b[:jmax]):
            if bj:
                out[i + j] += ai * bj
    return out


def _common_denominator(coeffs: Iterable[Fraction]) -> int | None:
    """lcm of denominators, or None if it exceeds the big-int comfort zone."""
    den = 1
    for d in {c.denominator for c in coeffs}:
        den = den * d // math.gcd(den, d)
        if den.bit_length() > 96:
            return None
    return den


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierSeries:
    """Immutable truncated expansion sum c_k q^(k/grain), exact coefficients.

    ``coeffs[k]`` is the coefficient of ``q^(k/grain)``.  The absolute
    truncation order is ``(len(coeffs) - 1) / grain``; coefficients of all
    exponents up to and including that bound are stored (zeros included).
    """

    grain: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.grain, int) or self.grain < 1:
            raise ValueError("grain must be a positive integer")
        if not self.coeffs:
            raise ValueError("a series must store at least the constant term")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coefficients(cls, values: Iterable, grain: int = 1) -> "FourierSeries":
        return cls(grain, tuple(_as_fraction(v) for v in values))

    @classmethod
    def zero(cls, order: int, grain: int = 1) -> "FourierSeries":
        return cls(grain, (Fraction(0),) * (order * grain + 1))

    @classmethod
    def one(cls, order: int, grain: int = 1) -> "FourierSeries":
        c = [Fraction(0)] * (order * grain + 1)
        c[0] = Fraction(1)
        return cls(grain, tuple(c))

    @classmethod
    def from_terms(
        cls, terms: Mapping, order: int, grain: int | None = None
    ) -> "FourierSeries":
        """Build from {exponent: coefficient}; exponents int or Fraction."""
        items = [(Fraction(e), _as_fraction(c)) for e, c in terms.items()]
        if grain is None:
            grain = 1
            for e, _ in items:
                grain = grain * e.denominator // math.gcd(grain, e.denominator)
        c = [Fraction(0)] * (order * grain + 1)
        for e, v in items:
            k = e * grain
            if k.denominator != 1:
                raise NonIntegerGrain(f"exponent {e} not representable at grain {grain}")
            if e < 0:
                raise ValueError("negative exponents are not supported")
            if k <= order * grain:
                c[int(k)] += v
        return cls(grain, tuple(c))

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> Fraction:
        """Absolute truncation exponent: coefficients are known through it."""
        return Fraction(len(self.coeffs) - 1, self.grain)

    def coefficient(self, exponent) -> Fraction:
        e = Fraction(exponent)
        if e < 0:
            return Fraction(0)
        if e > self.order:
            raise ValueError(f"exponent {e} beyond stored order {self.order}")
        k = e * self.grain
        if k.denominator != 1:
            return Fraction(0)
        return self.coeffs[int(k)]

    def leading(self) -> tuple[Fraction, Fraction] | None:
        """(exponent, coefficient) of the first nonzero term, or None."""
        for k, c in enumerate(self.coeffs):
            if c:
                return Fraction(k, self.grain), c
        return None

    def is_zero(self, through=None) -> bool:
        if through is None:
            return not any(self.coeffs)
        m = Fraction(through)
        if m > self.order:
            raise ValueError(f"bound {m} beyond stored order {self.order}")
        klim = int(m * self.grain)  # floor
        if Fraction(klim, self.grain) > m:
            klim -= 1
        return not any(self.coeffs[: klim + 1])

    def has_integer_exponents(self) -> bool:
        if self.grain == 1:
            return True
        return all(
            not c for k, c in enumerate(self.coeffs) if k % self.grain
        )

    # -- grain and order management ----------------------------------------

    def _coeffs_at_grain(self, g2: int) -> list[Fraction]:
        if g2 == self.grain:
            return list(self.coeffs)
        if g2 % self.grain:
            raise ValueError("target grain must be a multiple of the current one")
        step = g2 // self.grain
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                out[k * step] = c
        return out

    def with_grain(self, g2: int) -> "FourierSeries":
        return FourierSeries(g2, tuple(self._coeffs_at_grain(g2)))

    def reduced(self) -> "FourierSeries":
        """Smallest grain representing the same expansion (lossless).

        If the truncation index is not divisible by the reduction factor the
        absolute order shrinks by less than one new-grain step.
        """
        if self.grain == 1:
            return self
        d = self.grain
        for k, c in enumerate(self.coeffs):
            if c:
                d = math.gcd(d, k)
                if d == 1:
                    return self
        newk = (len(self.coeffs) - 1) // d
        return FourierSeries(
            self.grain // d, tuple(self.coeffs[k * d] for k in range(newk + 1))
        )

    def truncate(self, order) -> "FourierSeries":
        m = Fraction(order)
        if m > self.order:
            raise ValueError(f"cannot extend a series by truncation ({m} > {self.order})")
        k = int(m * self.grain)
        if Fraction(k, self.grain) > m:
            k -= 1
        return FourierSeries(self.grain, self.coeffs[: k + 1])

    # -- arithmetic ----------------------------------------------------------

    def _binary_prep(self, other: "FourierSeries"):
        g = self.grain * other.grain // math.gcd(self.grain, other.grain)
        a = self._coeffs_at_grain(g)
        b = other._coeffs_at_grain(g)
        klim = min(len(a), len(b)) - 1
        return g, a, b, klim

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            c = list(self.coeffs)
            c[0] += other
            return FourierSeries(self.grain, tuple(c))
        if not isinstance(other, FourierSeries):
            return NotImplemented
        g, a, b, klim = self._binary_prep(other)
        return FourierSeries(
            g, tuple(a[k] + b[k] for k in range(klim + 1))
        )

    __radd__ = __add__

    def __neg__(self):
        return FourierSeries(self.grain, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor) -> "FourierSeries":
        f = _as_fraction(factor)
        return FourierSeries(self.grain, tuple(c * f for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, FourierSeries):
            return NotImplemented
        g, a, b, klim = self._binary_prep(other)
        da = _common_denominator(a)
        db = _common_denominator(b)
        if da is None or db is None:
            # huge mixed denominators: fall back to the direct exact loop
            out = [Fraction(0)] * (klim + 1)
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j in range(min(len(b), klim + 1 - i)):
                    if b[j]:
                        out[i + j] += ai * b[j]
            return FourierSeries(g, tuple(out))
        # integer arithmetic only: Fraction products here cost more than the convolution
        ia = [c.numerator * (da // c.denominator) for c in a]
        ib = [c.numerator * (db // c.denominator) for c in b]
        vals = _intconv(ia, ib, klim)
        den = da * db
        if den == 1:
            return FourierSeries(g, tuple(map(Fraction, vals)))
        return FourierSeries(g, tuple(Fraction(v, den) for v in vals))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1) / _as_fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        # the running product starts as 1 at the base's own grain and order
        result = FourierSeries(
            self.grain,
            tuple(
                Fraction(1) if k == 0 else Fraction(0)
                for k in range(len(self.coeffs))
            ),
        )
        base = self
        m = n
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    def derivative(self) -> "FourierSeries":
        """The operator q d/dq: the coefficient of q^r is multiplied by r."""
        g = self.grain
        return FourierSeries(
            g, tuple(c * Fraction(k, g) for k, c in enumerate(self.coeffs))
        )

    def dilate(self, n: int) -> "FourierSeries":
        """Replace q by q^n (i.e. z by n z), keeping the same absolute order.

        Only input coefficients up to order/n are consumed, so the result is
        complete through the input's absolute order.  The grain is reduced by
        gcd(n, grain): dilating a half-integer expansion by 2 yields integer
        exponents.
        """
        if not isinstance(n, int) or n < 1:
            raise ValueError("dilation factor must be a positive integer")
        if n == 1:
            return self
        d = math.gcd(n, self.grain)
        g2 = self.grain // d
        kmax = len(self.coeffs) - 1
        out = [Fraction(0)] * (int(Fraction(kmax, self.grain) * g2) + 1)
        # exponent k/grain maps to n k / grain, which is index k*n/d at grain g2
        for k, c in enumerate(self.coeffs):
            if c:
                i = k * n // d
                if i < len(out):
                    out[i] += c
        return FourierSeries(g2, tuple(out))

    def half_shift(self) -> "FourierSeries":
        """Shift z by 1/2: the coefficient of q^n picks up a factor (-1)^n.

        Requires integer exponents; a fractional exponent would pick up a
        genuinely complex factor, which this exact rational engine excludes.
        """
        s = self.reduced()
        if s.grain != 1:
            raise NonIntegerGrain(
                "half-integer exponents present; the shifted series would "
                "have non-rational coefficients"
            )
        return FourierSeries(
            1, tuple(c if k % 2 == 0 else -c for k, c in enumerate(s.coeffs))
        )

    # -- comparison ----------------------------------------------------------

    def first_difference(self, other: "FourierSeries", through=None):
        """First exponent <= through where the two expansions differ.

        Returns (exponent, own coefficient, other coefficient) or None.
        ``through`` defaults to the smaller stored order; asking beyond either
        stored order raises ValueError rather than silently comparing less.
        """
        if not isinstance(other, FourierSeries):
            raise TypeError("can only compare against another FourierSeries")
        bound = min(self.order, other.order)
        if through is not None:
            m = Fraction(through)
            if m > bound:
                raise ValueError(
                    f"comparison through {m} exceeds a stored order ({bound})"
                )
            bound = m
        g = self.grain * other.grain // math.gcd(self.grain, other.grain)
        a = self._coeffs_at_grain(g)
        b = other._coeffs_at_grain(g)
        klim = int(bound * g)
        for k in range(klim + 1):
            ca = a[k] if k < len(a) else Fraction(0)
            cb = b[k] if k < len(b) else Fraction(0)
            if ca != cb:
                return Fraction(k, g), ca, cb
        return None

    def equality_up_to(self, other: "FourierSeries", through) -> bool:
        return self.first_difference(other, through) is None

    def __eq__(self, other):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        return self.first_difference(other) is None

    def __hash__(self):
        # equal series share their reduced form and order, whatever the grain
        r = self.reduced()
        return hash((self.order, r.grain, r.coeffs))

    # -- serialization and rendering ----------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON form; integers as decimal strings (arbitrary size).

        ``order`` is the truncation index in units of 1/grain, i.e. the
        stored absolute order times the grain.
        """
        return {
            "grain": self.grain,
            "order": len(self.coeffs) - 1,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FourierSeries":
        grain = int(data["grain"])
        order = int(data["order"])
        pairs = data["coeffs"]
        if len(pairs) != order + 1:
            raise ValueError("coefficient list length disagrees with order")
        coeffs = tuple(Fraction(int(n), int(d)) for n, d in pairs)
        return cls(grain, coeffs)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            e = Fraction(k, self.grain)
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                if e == 1:
                    q = "q"
                elif e.denominator == 1:
                    q = f"q^{e.numerator}"
                else:
                    q = "q^{%s}" % e
                if mag == 1:
                    body = q
                elif mag.denominator == 1:
                    body = f"{mag}{q}"
                else:
                    body = f"({mag}){q}"
            parts.append((c < 0, body))
        if not parts:
            return "0"
        neg0, body0 = parts[0]
        pieces = [("-" if neg0 else "") + body0]
        for neg, body in parts[1:]:
            pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        lead = self.leading()
        head = "0" if lead is None else f"{lead[1]} q^{lead[0]}"
        return (
            f"FourierSeries(grain={self.grain}, order={self.order}, "
            f"leading={head})"
        )


# ---------------------------------------------------------------------------
# Lambert-type building block
# ---------------------------------------------------------------------------


def lambert_block(
    k: int, order: int, *, dilation: int = 1, with_m_factor: bool = False
) -> FourierSeries:
    """The double sum over m, d >= 1 of d^k [· m] q^(dilation · d · m).

    Without the m factor the coefficient of q^(dilation·n) is sigma_k(n);
    with it, n·sigma_{k-1}(n).  Computed as the literal double sum, so it
    serves as an independent oracle for divisor-sum identities.
    """
    if k < 0 or dilation < 1 or order < 0:
        raise ValueError("need k >= 0, dilation >= 1, order >= 0")
    out = [0] * (order + 1)
    for d in range(1, order // dilation + 1):
        dk = d**k
        top = order // (dilation * d)
        if with_m_factor:
            for m in range(1, top + 1):
                out[dilation * d * m] += dk * m
        else:
            for m in range(1, top + 1):
                out[dilation * d * m] += dk
    return FourierSeries.from_coefficients(out, 1)
