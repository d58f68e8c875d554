"""Classical generators and derivations.

Everything here is an exact truncated expansion (:class:`FourierSeries`).
Weight-k Eisenstein series are normalized to constant term 1, from divisor
sums sigma_k by a linear sieve over smallest primes.  The discriminant comes
from the sparse cube of the eta-product, raised to the eighth power by three
integer squares; ``tau`` reads its coefficients from ``delta_series``.  On a
2-core Xeon that takes about 0.2 s to order 10^4 and about 9 s to order
10^5, because the packed integers are squared by Karatsuba.

Each builder that takes an ``order`` keeps one entry per family member at the
largest order asked so far (:func:`~qmforms.qseries.grow_only`).  The
composites F, G, K10/K12/K14, L, L10 and P2 have one builder each, so asking
for one builds only what it depends on.

On the theta side, A = H2² and B = H2 + 2·H4 generate the modular forms for
Γ0(2).  K10-K14 are polynomials in them, built by Horner in A over powers of
B; L = K10·E2² + K12·E2 + K14, and G = H2·A²·(A + 7B²)/4.  Every term of A, B
and E2 sits at an integer exponent, and every term of H2 at an odd multiple of
1/2, so each product convolves one residue class of each operand.

A form's x-parts Φ_p are the coefficients of x^p when E2 becomes E2 + x; the
axis routes read them.  One rule gives D's (:func:`derivative_x_parts`), and
Horner in D over Kaneko–Zagier groups (:func:`horner_x_parts`) builds F's and
the depth-2 family's with no product by E2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .qseries import FourierSeries, _intconv, grow_only

DEFAULT_ORDER = 120


class OrderExceeded(ValueError):
    """A coefficient beyond the configured table cap was requested."""


class ParameterRange(ValueError):
    """Bracket or weight parameters outside the supported range."""


# ---------------------------------------------------------------------------
# divisor sums and representation numbers
# ---------------------------------------------------------------------------


def sigma_table(limit: int, k: int) -> list[int]:
    """[0, sigma_k(1), ..., sigma_k(limit)] by a linear sieve.

    Each n > 1 is reached once, as i*p with p its smallest prime, and
    sigma_k(i*p) is (1 + p^k) sigma_k(i), less p^k sigma_k(i/p) when p | i.
    """
    out = [0] * (limit + 1)
    if limit < 1:
        return out
    out[1] = 1
    primes: list[tuple[int, int, int]] = []  # (p, p^k, 1 + p^k)
    for i in range(2, limit + 1):
        s = out[i]
        if not s:  # no smaller i*p reached it: i is prime
            pk = i**k
            primes.append((i, pk, 1 + pk))
            s = out[i] = 1 + pk
        for p, pk, factor in primes:
            n = i * p
            if n > limit:
                break
            if i % p == 0:
                out[n] = factor * s - pk * out[i // p]
                break
            out[n] = factor * s
    return out


def r4_table(limit: int) -> list[int]:
    out = [0] * (limit + 1)
    out[0] = 1
    for d in range(1, limit + 1):
        if d % 4 == 0:
            continue
        inc = 8 * d
        for m in range(d, limit + 1, d):
            out[m] += inc
    return out


# ---------------------------------------------------------------------------
# the discriminant and its coefficients
# ---------------------------------------------------------------------------

TAU_DEFAULT_CAP = 2_000_000


def _eta_cube_ints(limit: int) -> list[int]:
    """Coefficients of prod(1-q^n)^3 = sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2)."""
    out = [0] * (limit + 1)
    j = 0
    while j * (j + 1) // 2 <= limit:
        out[j * (j + 1) // 2] = (2 * j + 1) * (1 if j % 2 == 0 else -1)
        j += 1
    return out


def _tau_ints(limit: int) -> list[int]:
    """[0, tau(1), ..., tau(limit)] via the eighth power of the sparse cube."""
    if limit < 1:
        return [0] * (limit + 1)
    p = _eta_cube_ints(limit - 1)
    for _ in range(3):  # p -> p^2 -> p^4 -> p^8, truncated at limit-1
        p = _intconv(p, p, limit - 1)
    return [0] + p[:limit]


def tau(n: int, *, cap: int = TAU_DEFAULT_CAP) -> int:
    """The discriminant coefficient tau(n), read from ``delta_series`` at the
    power of two above n, so a loop over n rebuilds it O(log n) times.

    Raises OrderExceeded for n beyond ``cap`` so accidental unbounded table
    growth fails loudly instead of thrashing.
    """
    if n < 1:
        raise ValueError("tau is defined for n >= 1")
    if n > cap:
        raise OrderExceeded(f"tau({n}) requested but the cap is {cap}")
    return delta_series(min(cap, 1 << max(8, n.bit_length()))).nums[n]


@grow_only
def delta_series(order: int) -> FourierSeries:
    """q * prod(1-q^n)^24, exact to the given order."""
    return FourierSeries(1, tuple(_tau_ints(order)))


# ---------------------------------------------------------------------------
# Eisenstein series
# ---------------------------------------------------------------------------

# k -> -2k/B_k, the multiplier of sigma_(k-1)(n) in E_k
_EIS_MULT = {2: -24, 4: 240, 6: -504, 8: 480, 10: -264, 12: Fraction(65520, 691), 14: -24,
             16: Fraction(16320, 3617)}


@grow_only
def eisenstein(k: int, order: int = DEFAULT_ORDER) -> FourierSeries:
    """Weight-k Eisenstein series 1 - (2k/B_k)·Σ σ_(k−1)(n)·q^n, for even 2 <= k <= 16."""
    if k not in _EIS_MULT:
        raise ParameterRange(f"eisenstein weight must be one of {sorted(_EIS_MULT)}")
    mult = Fraction(_EIS_MULT[k])
    sig = sigma_table(order, k - 1)
    return FourierSeries(1, (mult.denominator, *(mult.numerator * s for s in sig[1:])), mult.denominator)


def serre_derivative(f: FourierSeries, weight) -> FourierSeries:
    """The weight-raising derivation: f' - (weight/12) E2 f.

    ``f'`` is q d/dq.  For a weight-w form the result has weight w+2 and is
    again a form (the E2 term cancels the quasimodular defect).
    """
    w = Fraction(weight)
    e2 = eisenstein(2, int(math.ceil(f.order)))
    return f.derivative() - (e2 * f).scale(w / 12)


def recompose_parts(parts: Sequence[FourierSeries]) -> FourierSeries:
    """Σ_j E2^j·parts[j], by Horner in E2, at the smallest order of the parts."""
    order = int(min(part.order for part in parts))
    total = parts[-1]
    for part in reversed(parts[:-1]):
        total = part + eisenstein(2, order) * total
    return total


def derivative_x_parts(parts: Sequence[FourierSeries], weight: int, keep: int | None = None) -> list:
    """x-parts Ψ_0..Ψ_(d+1) of Df (the first ``keep``) from the x-parts Φ_0..Φ_d
    of f, of weight ``weight``: Φ_p is the coefficient of x^p when E2 becomes
    E2 + x in f, and by [∂/∂E2, D] = weight/12 (Zagier, *The 1-2-3 of Modular
    Forms*, §5.2), with Φ_(−1) = Φ_(d+1) = 0,

        Ψ_p = DΦ_p + ((weight − p + 1)/12)·Φ_(p−1).
    """
    count = len(parts) + 1 if keep is None else min(keep, len(parts) + 1)
    out = [parts[0].derivative()]
    for p in range(1, count):
        term = parts[p - 1].scale(Fraction(weight - p + 1, 12))
        out.append(term + parts[p].derivative() if p < len(parts) else term)
    return out


def add_parts(a: Sequence[FourierSeries], b: Sequence[FourierSeries]) -> list:
    """The entrywise sum of two lists of parts, the shorter one padded with zeros."""
    long, short = (a, b) if len(a) >= len(b) else (b, a)
    return [x + y for x, y in zip(long, short)] + list(long[len(short):])


def horner_x_parts(groups: Sequence, weight: int, keep: int | None = None) -> list:
    """x-parts of Σ_j D^j·G_j, of weight ``weight`` (the first ``keep``), by
    Horner in D over ``groups``: G_j's x-parts, of weight − 2j, or None for G_j = 0.
    Every quasimodular form of depth below weight/2 is one such sum with each G_j
    modular, its own single x-part (Kaneko and Zagier, 1995; Zagier, §5.3)."""
    total = None
    for j in reversed(range(len(groups))):
        if total is not None:
            total = derivative_x_parts(total, weight - 2 * j - 2, keep)
        if groups[j] is not None:
            total = groups[j][:keep] if total is None else add_parts(total, groups[j][:keep])
    return total


def martin_royer_bracket(
    f: FourierSeries,
    g: FourierSeries,
    n: int,
    k: int,
    s: int,
    l: int,
    t: int,
) -> FourierSeries:
    """Bilinear bracket of order n for inputs of weights k, l and depths s, t:

        sum_{r=0}^{n} (-1)^r C(k-s+n-1, n-r) C(l-t+n-1, r) (D^r f)(D^{n-r} g)

    where D = q d/dq.  The parameter combinations must keep both binomial
    tops nonnegative.
    """
    for name, val in (("n", n), ("k", k), ("s", s), ("l", l), ("t", t)):
        if not isinstance(val, int):
            raise ParameterRange(f"bracket parameter {name} must be an integer")
    if n < 0 or k - s + n - 1 < 0 or l - t + n - 1 < 0:
        raise ParameterRange(
            f"bracket needs n >= 0 and k-s+n-1, l-t+n-1 >= 0 "
            f"(got n={n}, k-s+n-1={k - s + n - 1}, l-t+n-1={l - t + n - 1})"
        )
    df = [f]
    dg = [g]
    for _ in range(n):
        df.append(df[-1].derivative())
        dg.append(dg[-1].derivative())
    total = None
    for r in range(n + 1):
        c = math.comb(k - s + n - 1, n - r) * math.comb(l - t + n - 1, r)
        if c == 0:
            continue
        term = (df[r] * dg[n - r]).scale(Fraction(-c if r % 2 else c))
        total = term if total is None else total + term
    if total is None:
        # all binomials vanished; the bracket is identically zero
        m = min(f.order, g.order)
        return FourierSeries.zero(int(m), 1)
    return total


# ---------------------------------------------------------------------------
# theta-type level-2 forms (half-integer exponents, grain 2)
# ---------------------------------------------------------------------------


@grow_only
def _theta_block(name: str, order: int) -> FourierSeries:
    """One of the four building blocks on the theta side (``name``), of weights 2, 2, 4 and 2:

    H2 = 2 * sum over odd n of r4(n) q^(n/2)
    H4 = sum over n >= 0 of (-1)^n r4(n) q^(n/2)        (constant term 1)
    A  = H2^2
    B  = H2 + 2 H4 = 2 (1 + sum r4(2n) q^n)

    A grain-2 series truncated at absolute order ``order``; each block builds only the blocks it is made of.
    """
    if name == "A":
        h2 = _theta_block("H2", order)
        return h2 * h2
    if name == "B":
        return _theta_block("H2", order) + _theta_block("H4", order).scale(2)
    odd, even = (2, 0) if name == "H2" else (-1, 1)
    return FourierSeries(2, tuple((odd if k % 2 else even) * r for k, r in enumerate(r4_table(2 * order))))


def e2_half_arguments(order: int = DEFAULT_ORDER) -> tuple[FourierSeries, FourierSeries]:
    """E2 at z/2 and at (z+1)/2, as grain-2 expansions.

    E2(z/2) = 1 - 24 sum sigma_1(n) q^(n/2) holds E2's own numerators at
    grain 2; the shifted variant picks up (-1)^n on the q^(n/2) coefficient.
    """
    nums = eisenstein(2, 2 * order).nums
    return FourierSeries(2, nums), FourierSeries(2, tuple(-c if n % 2 else c for n, c in enumerate(nums)))


# ---------------------------------------------------------------------------
# composite forms built from E2/E4/E6 and the theta blocks, one builder each
# ---------------------------------------------------------------------------


def form_f_x_parts(order: int = DEFAULT_ORDER, keep: int | None = None) -> list:
    """F's x-parts Φ_0..Φ_2 (the first ``keep``), from its Kaneko–Zagier groups:
    F = −(725760/13)·E4·Δ + D²((288/13)·E12 + (482630400/8983)·Δ)."""
    delta = delta_series(order)
    g0 = (eisenstein(4, order) * delta).scale(Fraction(-725760, 13))
    g2 = eisenstein(12, order).scale(Fraction(288, 13)) + delta.scale(Fraction(482630400, 8983))
    return horner_x_parts(([g0], None, [g2]), 16, keep)


@grow_only
def form_f(order: int = DEFAULT_ORDER) -> FourierSeries:
    """F: the weight-16 depth-2 combination of E2, E4, E6 vanishing to order 3,
    (49 E4^3 - 25 E6^2) E2^2 - 48 E4^2 E6 E2 - 25 E4^4 + 49 E4 E6^2, built as
    Φ_0 of :func:`form_f_x_parts`.  The two agree: both lie in the weight-16
    forms of depth <= 2, Σ_j D^j·M_(16−2j), where M16, M14 and M12 have
    dimensions 2, 1 and 2, and the coefficients through q^4 are independent
    there (X16_2's solve inverts them), so agreement through q^4 is a proof;
    a test checks it to order 2000."""
    return form_f_x_parts(order, 1)[0]


@grow_only
def form_g(order: int = DEFAULT_ORDER) -> FourierSeries:
    """G = H2^5 (2 H2^2 + 7 H2 H4 + 7 H4^2) = H2·A²·(A + 7B²)/4: weight 14, vanishing to order 5/2."""
    h2, a, b = _theta_block("H2", order), _theta_block("A", order), _theta_block("B", order)
    return h2 * ((a * a) * (a + (b * b).scale(7))).scale(Fraction(1, 4))


# weight -> c_0, c_1, ...: K_w = Σ_i c_i·A^i·B^(w/2 − 2i), from the paper's H2/H4 polynomials at
# H2 = u, H4 = (B − u)/2, where every odd power of u cancels
_K_IN_AB = {
    10: (-1, -21, -24),
    12: (1, Fraction(-27, 8), Fraction(-75, 4), Fraction(9, 8)),
    14: (Fraction(-1, 4), Fraction(111, 16), Fraction(51, 8), Fraction(207, 16)),
}


@grow_only
def form_k(weight: int, order: int = DEFAULT_ORDER) -> FourierSeries:
    """The theta-side coefficient forms K10, K12, K14 of L, by Horner in A over powers of B."""
    coeffs = _K_IN_AB[weight]
    a, b = _theta_block("A", order), _theta_block("B", order)
    b2 = b * b
    powers = [b ** (weight // 2 % 2)]  # B's power at A's top power, then two more at each lower one
    while len(powers) < len(coeffs):
        powers.append(powers[-1] * b2)
    total = powers[0].scale(coeffs[-1])
    for c, power in zip(reversed(coeffs[:-1]), powers[1:]):
        total = total * a + power.scale(c)
    return total


@grow_only
def form_l(order: int = DEFAULT_ORDER) -> FourierSeries:
    """L = K10 E2^2 + K12 E2 + K14 (weight 14, constant term 0)."""
    return recompose_parts((form_k(14, order), form_k(12, order), form_k(10, order)))


@grow_only
def form_l10(order: int = DEFAULT_ORDER) -> FourierSeries:
    """L10 = F'G - FG' (weight 32; equals (serre_16 F) G - F (serre_14 G) + (1/6) E2 F G)."""
    f, g = form_f(order), form_g(order)
    return f.derivative() * g - f * g.derivative()


@grow_only
def form_p2(order: int = DEFAULT_ORDER) -> FourierSeries:
    """P2 = (-E2(z) + 5 E2(2z) - 4 E2(4z)) / 24."""
    e2 = eisenstein(2, order)
    return (-e2 + e2.dilate(2).scale(5) - e2.dilate(4).scale(4)).scale(Fraction(1, 24))
