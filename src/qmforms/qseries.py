"""Exact truncated Fourier expansions with fractional exponents.

The central object is :class:`FourierSeries`: a finite expansion

    sum_{k=0}^{K} c_k * q^(k/g)

with rational coefficients ``c_k``, integer grain ``g >= 1``, and truncation
tracked by the *absolute* exponent ``K/g``.  The coefficients are stored as
integer numerators over one positive common denominator, in lowest terms, so
all arithmetic is exact integer arithmetic; ``coeffs`` builds the
``fractions.Fraction`` view on demand.  Mixed-grain operands are aligned on
the lcm of the grains, and every binary operation propagates the smaller
absolute order of its inputs, so a result never claims more terms than its
inputs support.

A product is one integer convolution of the numerators over the product of
the denominators.  Where each operand has every nonzero term in one residue
class mod the common grain (integer exponents at grain 2, or only odd
multiples of 1/2), it convolves those classes alone and scatters the result.
Convolutions with more than a few pairs of nonzero terms per output term are
packed into single signed big integers (Kronecker substitution), so that one
native big-int product, or a square, does the work; sparser ones loop over
the pairs.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Sequence


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# integer convolution helpers
# ---------------------------------------------------------------------------

# Products with at most this many pairs of nonzero terms per output term
# (a monomial times anything, the eta cube's square) take the loop over
# those pairs; denser ones go through one packed product.
_SPARSE_TERMS = 24


def _pack(values: Sequence[int], width: int) -> int:
    """sum values[i] * 256**(width*i), for ints with |values[i]| < 256**width."""
    zero = bytes(width)
    packed = int.from_bytes(
        b"".join([x.to_bytes(width, "little") if x > 0 else zero for x in values]), "little"
    )
    if min(values) < 0:
        packed -= int.from_bytes(
            b"".join([(-x).to_bytes(width, "little") if x < 0 else zero for x in values]), "little"
        )
    return packed


def _kronecker_conv(a: Sequence[int], b: Sequence[int], n_out: int) -> list[int]:
    # Each output slot is below half a slot in magnitude, so adding half a
    # slot to every one of the first n_out slots makes them all nonnegative
    # digits; the mask drops the slots past n_out, whatever their sign.
    amax = max(map(abs, a))
    bmax = max(map(abs, b))
    width = (amax * bmax * min(len(a), len(b))).bit_length() // 8 + 1
    packed = _pack(a, width)
    product = packed * packed if a is b else packed * _pack(b, width)
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n_out, "little")
    raw = ((product + bias) & ((1 << (8 * width * n_out)) - 1)).to_bytes(width * n_out, "little")
    return [
        int.from_bytes(raw[i * width : (i + 1) * width], "little") - half
        for i in range(n_out)
    ]


def _intconv(a: Sequence[int], b: Sequence[int], klimit: int) -> list[int]:
    """Truncated convolution: out[k] = sum_{i+j=k} a[i]*b[j] for k <= klimit.

    Passing the same sequence twice squares it (with one big-int square on
    the packed route).
    """
    if not a or not b:
        return [0] * (klimit + 1)
    n_out = min(len(a) + len(b) - 2, klimit) + 1
    square = a is b
    a = a[:n_out]
    b = a if square else b[:n_out]
    nza = len(a) - a.count(0)
    nzb = nza if square else len(b) - b.count(0)
    if nza == 0 or nzb == 0:
        return [0] * n_out
    if nza * nzb > _SPARSE_TERMS * n_out:
        return _kronecker_conv(a, b, n_out)
    return _sparse_conv(a, b, n_out)


def _residue(nums: Sequence[int], g: int) -> int | None:
    """r when every nonzero term of nums sits at an index congruent to r mod g, else None (also when none is)."""
    classes = [r for r in range(g) if any(nums[r::g])]
    return classes[0] if len(classes) == 1 else None


def _sparse_conv(a: Sequence[int], b: Sequence[int], n_out: int) -> list[int]:
    """The first n_out terms of the convolution, by a loop over pairs of nonzero terms."""
    terms_a = [(i, x) for i, x in enumerate(a) if x]
    terms_b = terms_a if a is b else [(j, y) for j, y in enumerate(b) if y]
    out = [0] * n_out
    for i, x in terms_a:
        for j, y in terms_b:
            if i + j >= n_out:
                break
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------


class Record:
    """A slotted record whose fields its ``__init__`` sets once: assigning or deleting one raises
    ``AttributeError``.  Equality, hash and repr read the fields a subclass names in ``_compared``."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._compared)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a {type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class FourierSeries(Record):
    """Immutable truncated expansion sum c_k q^(k/grain), exact coefficients.

    ``c_k = nums[k] / den``: integer numerators over one positive common
    denominator, kept in lowest terms (``gcd(den, *nums) == 1``), so a series
    has one stored form at a given grain.  The absolute truncation order is
    ``(len(nums) - 1) / grain``; coefficients of all exponents up to and
    including that bound are stored (zeros included).
    """

    __slots__ = ("grain", "nums", "den")

    def __init__(self, grain: int, nums: tuple[int, ...], den: int = 1):
        if not isinstance(grain, int) or grain < 1:
            raise ValueError("grain must be a positive integer")
        if not nums:
            raise ValueError("a series must store at least the constant term")
        if not isinstance(den, int) or den < 1:
            raise ValueError("the common denominator must be a positive integer")
        if den != 1 and (g := math.gcd(den, *nums)) != 1:
            nums, den = tuple(n // g for n in nums), den // g
        object.__setattr__(self, "grain", grain)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[k]`` is the coefficient of ``q^(k/grain)``; built on each
        call, not cached."""
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(n, den) for n in self.nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coefficients(cls, values: Iterable, grain: int = 1) -> "FourierSeries":
        # ints stay ints; anything else that is not a Fraction raises TypeError
        values = [v if isinstance(v, (int, Fraction)) else _as_fraction(v) for v in values]
        den = math.lcm(*{v.denominator for v in values})
        return cls(grain, tuple(v.numerator * (den // v.denominator) for v in values), den)

    @classmethod
    def zero(cls, order: int, grain: int = 1) -> "FourierSeries":
        return cls(grain, (0,) * (order * grain + 1))

    @classmethod
    def one(cls, order: int, grain: int = 1) -> "FourierSeries":
        return cls(grain, (1,) + (0,) * (order * grain))

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> Fraction:
        """Absolute truncation exponent: coefficients are known through it."""
        return Fraction(len(self.nums) - 1, self.grain)

    def coefficient(self, exponent) -> Fraction:
        e = Fraction(exponent)
        if e < 0:
            return Fraction(0)
        if e > self.order:
            raise ValueError(f"exponent {e} beyond stored order {self.order}")
        k = e * self.grain
        if k.denominator != 1:
            return Fraction(0)
        return Fraction(self.nums[int(k)], self.den)

    def leading(self) -> tuple[Fraction, Fraction] | None:
        """(exponent, coefficient) of the first nonzero term, or None."""
        for k, c in enumerate(self.nums):
            if c:
                return Fraction(k, self.grain), Fraction(c, self.den)
        return None

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- grain and order management ----------------------------------------

    def _nums_at_grain(self, g2: int) -> Sequence[int]:
        if g2 == self.grain:
            return self.nums
        if g2 % self.grain:
            raise ValueError("target grain must be a multiple of the current one")
        step = g2 // self.grain
        out = [0] * ((len(self.nums) - 1) * step + 1)
        out[::step] = self.nums
        return out

    def reduced(self) -> "FourierSeries":
        """Smallest grain representing the same expansion (lossless).

        If the truncation index is not divisible by the reduction factor the
        absolute order shrinks by less than one new-grain step.
        """
        if self.grain == 1:
            return self
        d = self.grain
        for k, c in enumerate(self.nums):
            if c:
                d = math.gcd(d, k)
                if d == 1:
                    return self
        newk = (len(self.nums) - 1) // d
        return FourierSeries(self.grain // d, self.nums[: newk * d + 1 : d], self.den)

    def truncate(self, order) -> "FourierSeries":
        m = Fraction(order)
        if m > self.order:
            raise ValueError(f"cannot extend a series by truncation ({m} > {self.order})")
        k = int(m * self.grain)
        if Fraction(k, self.grain) > m:
            k -= 1
        return FourierSeries(self.grain, self.nums[: k + 1], self.den)

    # -- arithmetic ----------------------------------------------------------

    def _aligned(self, other: "FourierSeries"):
        """(common grain, own numerators, other's numerators) at that grain."""
        g = math.lcm(self.grain, other.grain)
        a = self._nums_at_grain(g)
        return g, a, a if other is self else other._nums_at_grain(g)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            den = math.lcm(self.den, other.denominator)
            nums = [x * (den // self.den) for x in self.nums]
            nums[0] += other.numerator * (den // other.denominator)
            return FourierSeries(self.grain, tuple(nums), den)
        if not isinstance(other, FourierSeries):
            return NotImplemented
        g, a, b = self._aligned(other)
        den = math.lcm(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        return FourierSeries(g, tuple(x * ma + y * mb for x, y in zip(a, b)), den)

    __radd__ = __add__

    def __neg__(self):
        return FourierSeries(self.grain, tuple(-x for x in self.nums), self.den)

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
        h = math.gcd(f.numerator, self.den)
        p = f.numerator // h
        return FourierSeries(
            self.grain, tuple(x * p for x in self.nums), self.den // h * f.denominator
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, FourierSeries):
            return NotImplemented
        g, a, b = self._aligned(other)
        klim = min(len(a), len(b)) - 1
        r, s = (_residue(a, g), _residue(b, g)) if g > 1 else (None, None)
        if r is None or s is None:
            return FourierSeries(g, tuple(_intconv(a, b, klim)), self.den * other.den)
        # every nonzero term of a at r mod g, of b at s: convolve a[r::g] and b[s::g], scatter from r + s.  Both
        # reach index n = (klim − r − s)//g, since r + n·g and s + n·g are at most klim, so conv fills the slice
        out = [0] * (klim + 1)
        if r + s <= klim:
            ca = a[r::g]
            out[r + s :: g] = _intconv(ca, ca if a is b else b[s::g], (klim - r - s) // g)
        return FourierSeries(g, tuple(out), self.den * other.den)

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
        if n == 0:
            # 1 at the base's own grain and order
            return FourierSeries(self.grain, (1,) + (0,) * (len(self.nums) - 1))
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def derivative(self) -> "FourierSeries":
        """The operator q d/dq: the coefficient of q^r is multiplied by r."""
        return FourierSeries(
            self.grain,
            tuple(k * c for k, c in enumerate(self.nums)),
            self.den * self.grain,
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
        size = (len(self.nums) - 1) * g2 // self.grain + 1
        # exponent k/grain maps to n k / grain, which is index k*(n/d) at grain g2
        step = n // d
        out = [0] * size
        out[::step] = self.nums[: (size - 1) // step + 1]
        return FourierSeries(g2, tuple(out), self.den)

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
        g, a, b = self._aligned(other)
        da, db = self.den, other.den
        # a[k]/da == b[k]/db  <=>  a[k]*db == b[k]*da
        for k in range(int(bound * g) + 1):
            if a[k] * db != b[k] * da:
                return Fraction(k, g), Fraction(a[k], da), Fraction(b[k], db)
        return None

    def __eq__(self, other):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        if self.grain == other.grain:
            # one stored form per grain
            return self.den == other.den and self.nums == other.nums
        if self.order != other.order:
            return False
        return self.first_difference(other) is None

    def __hash__(self):
        # equal series share their reduced form and order, whatever the grain
        r = self.reduced()
        return hash((self.order, r.grain, r.den, r.nums))

    # -- rendering ----------------------------------------------------------

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


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def grow_only(build):
    """Cache ``build(*key, order)`` with one entry per key, at the largest order
    asked so far: a smaller order is served by the entry's ``truncate(order)``
    (a series, or a value with its own ``truncate``), the same value a fresh
    build gives, and a larger one is built and replaces the entry under a
    lock, so an entry only grows.  A negative order is built and not kept.
    ``cache_info()`` and ``cache_clear()`` read as on the standard library's
    function caches, with ``maxsize`` None.  The builder's last positional
    parameter must be ``order``; its code object gives the arity."""
    arity, default = build.__code__.co_argcount, (build.__defaults__ or ())[-1:]  # order's default, if it has one
    if build.__code__.co_varnames[arity - 1 : arity] != ("order",):
        raise TypeError(f"grow_only needs a builder whose last positional parameter is order, not {build.__qualname__}")
    entries, counts, lock = {}, [0, 0], threading.Lock()

    @functools.wraps(build)
    def cached(*args):
        args += default if len(args) == arity - 1 else ()
        if len(args) != arity:
            return build(*args)  # raises the ordinary TypeError that names the builder
        key, order = args[:-1], args[-1]
        with lock:
            top, value = entries.get(key, (-1, None))
            hit = 0 <= order <= top
            counts[not hit] += 1
        if hit:
            return value if order == top else value.truncate(order)
        value = build(*key, order)
        with lock:
            if order > entries.get(key, (-1,))[0]:
                entries[key] = order, value
        return value

    def cache_clear():
        with lock:
            entries.clear()
            counts[:] = [0, 0]

    cached.cache_info = lambda: CacheInfo(*counts, None, len(entries))
    cached.cache_clear = cache_clear
    return cached


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
