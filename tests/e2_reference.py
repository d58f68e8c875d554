"""Reference constructions the library no longer uses: E2-parts of every
routed label, apart from the library's x-parts, and the theta-side forms as
the paper writes them, polynomials in H2 and H4.

A label's E2-parts are A_0..A_d with F = Σ_j E2^j·A_j and each A_j free of
E2.  Here they come from constructions the library no longer uses: the
depth-2 family from one exact solve over the monomials E2^j·E4^a·E6^b
(j <= 2), each monomial a product of powers of E4 and E6; F from the paper's
E2 polynomial; X42Delta from X4_2's parts times Δ; X_(w,1) from its component
pair, climbed as series (:func:`components`); a modular label from itself.
:func:`shifted` turns E2-parts into the x-parts the routes read, by the
Taylor shift E2 -> E2 + x.

The theta side (:func:`theta_power` on) builds H2 and H4 from r4 by divisor
enumeration and every form as a sum of monomials H2^i·H4^j, each a product of
powers: K10-K14, L, G, L10 = F'G - FG' and LFACT's factor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import comb

from qmforms.extremal import _solve_exact, describe_label
from qmforms.forms import delta_series, eisenstein, form_f, recompose_parts, serre_derivative
from qmforms.qseries import FourierSeries

from divisor_reference import r4


def derivative_parts(parts, w: int) -> list:
    """E2-parts B_0..B_(d+1) of DF for F = Σ_j E2^j·A_j of weight w, each A_j
    free of E2 and of weight w − 2j:

        D(E2^j·A_j) = ((w−j)/12)·E2^(j+1)·A_j + E2^j·ϑA_j − (j/12)·E2^(j−1)·E4·A_j

    by Ramanujan's DE2 = (E2² − E4)/12, with ϑ the weight-(w−2j) Serre derivative.
    """
    order = int(min(part.order for part in parts))
    out = [FourierSeries.zero(order)] * (len(parts) + 1)
    for j, part in enumerate(parts):
        if part.is_zero():
            continue
        out[j + 1] += part.scale(Fraction(w - j, 12))
        out[j] += serre_derivative(part, w - 2 * j)
        if j:
            out[j - 1] -= (eisenstein(4, order) * part).scale(Fraction(j, 12))
    return out


@cache
def components(w: int, order: int) -> tuple[FourierSeries, FourierSeries]:
    """E2-parts (A_w, B_(w−2)) of X_(w,1), climbed as series from the weight-6
    seed (−E6, E4)/720 by the recurrences ``x_w1`` climbs with: the +2 step
    through :func:`derivative_parts` (the E2² part cancels),

        A_w = (12/(w−1))·B_0,   B_(w−2) = (12/(w−1))·(B_1 − ((w−3)/12)·A_(w−2)),

    and the +4 and +6 steps term by term."""
    if w == 6:
        return eisenstein(6, order).scale(Fraction(-1, 720)), eisenstein(4, order).scale(Fraction(1, 720))
    e4, e6 = eisenstein(4, order), eisenstein(6, order)
    if w % 6 == 2:
        prev = components(w - 2, order)
        b = derivative_parts(prev, w - 2)
        s = Fraction(12, w - 1)
        return b[0].scale(s), (b[1] - prev[0].scale(Fraction(w - 3, 12))).scale(s)
    if w % 6 == 4:
        return tuple(e4 * part for part in components(w - 4, order))
    s = Fraction(w, 864 * (w - 1))
    return tuple((e4 * p4 - e6 * p6).scale(s) for p4, p6 in zip(components(w - 4, order), components(w - 6, order)))


def depth2_monomials(w: int) -> list[tuple[int, int, int]]:
    """Exponent triples (j, a, b) with E2^j·E4^a·E6^b of weight w, j <= 2."""
    out = []
    for j in range(3):
        for b in range(max(w - 2 * j, 0) // 6 + 1):
            rest = w - 2 * j - 6 * b
            if rest >= 0 and rest % 4 == 0:
                out.append((j, rest // 4, b))
    return out


def monomial(j: int, a: int, b: int, order: int) -> FourierSeries:
    """E2^j·E4^a·E6^b, from products of powers of E2, E4 and E6 only."""
    powers = [eisenstein(k, order) ** e for k, e in ((2, j), (4, a), (6, b)) if e]
    return reduce(FourierSeries.__mul__, powers) if powers else FourierSeries.one(order)


def depth2_parts(w: int, order: int) -> tuple[FourierSeries, ...]:
    """E2-parts (A_0, A_1, A_2) of the maximal-vanishing form spanned by the
    monomials of weight w: the combination vanishing through q^(n−2) with
    q^(n−1)-coefficient 1, for the n monomials."""
    monos = depth2_monomials(w)
    cols = [monomial(j, a, b, len(monos) - 1) for j, a, b in monos]
    v = len(cols) - 1
    lam = _solve_exact([[c.coefficient(n) for c in cols] for n in range(v + 1)], [Fraction(0)] * v + [Fraction(1)])
    assert lam is not None, w
    parts = [FourierSeries.zero(order)] * 3
    for coef, (j, a, b) in zip(lam, monos):
        parts[j] = parts[j] + monomial(0, a, b, order).scale(coef)
    return tuple(parts)


def f_parts(order: int) -> tuple[FourierSeries, ...]:
    """The paper's F = (49E4³ − 25E6²)E2² − 48E4²E6·E2 − 25E4⁴ + 49E4E6², by E2-part."""
    e4, e6 = eisenstein(4, order), eisenstein(6, order)
    e4sq = e4 * e4
    return ((e4 * e6 * e6).scale(49) - (e4sq * e4sq).scale(25), (e4sq * e6).scale(-48),
            (e4sq * e4).scale(49) - (e6 * e6).scale(25))


def e2_parts(label: str, order: int) -> tuple[FourierSeries, ...]:
    """The E2-parts of a routed label (one whose descriptor has parts)."""
    desc = describe_label(label)
    if label == "F":
        return f_parts(order)
    if label == "X42Delta":
        return tuple(part * delta_series(order) for part in depth2_parts(4, order))
    if label.startswith("X") and desc.depth == 1:
        return components(desc.weight, order)
    if label.startswith("X") and desc.depth == 2:
        return depth2_parts(desc.weight, order)
    assert desc.depth == 0, label
    return (desc.build(order),)


def shifted(parts) -> list:
    """Φ_p = Σ_j C(j, p)·E2^(j−p)·A_j for p = 0..d: the coefficient of x^p
    when E2 becomes E2 + x in Σ_j E2^j·A_j."""
    return [recompose_parts([part.scale(comb(j, p)) for j, part in enumerate(parts[p:], p)])
            for p in range(len(parts))]


@cache
def theta_power(block: str, n: int, order: int) -> FourierSeries:
    """H2^n or H4^n (``block`` is "H2" or "H4") at grain 2: from r4 at n = 1, else
    from the next lower power."""
    if n > 1:
        return theta_power(block, n - 1, order) * theta_power(block, 1, order)
    odd, even = (2, 0) if block == "H2" else (-1, 1)
    return FourierSeries(2, tuple((odd if k % 2 else even) * r4(k) for k in range(2 * order + 1)))


def theta_poly(coeffs: tuple[int, ...], order: int) -> FourierSeries:
    """Σ_j coeffs[j]·H2^(d−j)·H4^j, homogeneous of degree d = len(coeffs) − 1."""
    d = len(coeffs) - 1
    terms = []
    for j, c in enumerate(coeffs):
        powers = [theta_power(block, n, order) for block, n in (("H2", d - j), ("H4", j)) if n]
        terms.append(reduce(FourierSeries.__mul__, powers).scale(c))
    return reduce(FourierSeries.__add__, terms)


# weight -> (homogeneous polynomial in H2, H4; its scale; cofactor polynomial)
K_FORMS = {
    10: ((23, 46, 54, 16, 8), -2, (1, 2)),
    12: ((10, 35, 3, -64, -32), -2, (1, 1, 1)),
    14: ((26, 78, 177, 182, 51, -48, -16), 1, (1, 2)),
}


def theta_blocks(order: int) -> dict[str, FourierSeries]:
    """H2, H4, A = H2² and B = H2 + 2·H4."""
    h2, h4 = theta_power("H2", 1, order), theta_power("H4", 1, order)
    return {"H2": h2, "H4": h4, "A": theta_power("H2", 2, order), "B": h2 + h4.scale(2)}


@cache
def form_k(weight: int, order: int) -> FourierSeries:
    poly, scale, cofactor = K_FORMS[weight]
    return theta_poly(poly, order).scale(scale) * theta_poly(cofactor, order)


@cache
def form_g(order: int) -> FourierSeries:
    """G = H2^5 (2 H2^2 + 7 H2 H4 + 7 H4^2)."""
    return theta_power("H2", 5, order) * theta_poly((2, 7, 7), order)


@cache
def form_l(order: int) -> FourierSeries:
    """L = K10·E2² + K12·E2 + K14."""
    e2 = eisenstein(2, order)
    return form_k(10, order) * (e2 * e2) + form_k(12, order) * e2 + form_k(14, order)


def form_l10(order: int) -> FourierSeries:
    """L10 = F'G − FG'."""
    f, g = form_f(order), form_g(order)
    return f.derivative() * g - f * g.derivative()


def lfact_factor(order: int) -> FourierSeries:
    """H2^5·H4^2·(H2 + H4)^2, the factor LFACT multiplies L by."""
    return theta_power("H2", 5, order) * theta_power("H4", 2, order) * theta_poly((1, 2, 1), order)


def theta_side(label: str, order: int) -> FourierSeries:
    """H2, H4, A, B, G, K10, K12, K14, L or L10 from the paper's H2/H4 polynomials."""
    if label in ("H2", "H4", "A", "B"):
        return theta_blocks(order)[label]
    if label.startswith("K"):
        return form_k(int(label[1:]), order)
    return {"G": form_g, "L": form_l, "L10": form_l10}[label](order)
