"""E2-parts of every routed label, built apart from the library's x-parts.

A label's E2-parts are A_0..A_d with F = Σ_j E2^j·A_j and each A_j free of
E2.  Here they come from constructions the library no longer uses: the
depth-2 family from one exact solve over the monomials E2^j·E4^a·E6^b
(j <= 2), each monomial a product of powers of E4 and E6; F from the paper's
E2 polynomial; X42Delta from X4_2's parts times Δ; X_(w,1) from its component
pair, climbed as series (:func:`components`); a modular label from itself.
:func:`shifted` turns E2-parts into the x-parts the routes read, by the
Taylor shift E2 -> E2 + x.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import comb

from qmforms.extremal import _solve_exact, describe_label
from qmforms.forms import delta_series, eisenstein, recompose_parts, serre_derivative
from qmforms.qseries import FourierSeries


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
