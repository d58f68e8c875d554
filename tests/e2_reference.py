"""E2-parts of every routed label, built apart from the library's x-parts.

A label's E2-parts are A_0..A_d with F = Σ_j E2^j·A_j and each A_j free of
E2.  Here they come from constructions the library no longer uses: the
depth-2 family from one exact solve over the monomials E2^j·E4^a·E6^b
(j <= 2), each monomial a product of powers of E4 and E6; F from the paper's
E2 polynomial; X42Delta from X4_2's parts times Δ; X_(w,1) from its component
pair; a modular label from itself.  :func:`shifted` turns E2-parts into the
x-parts the routes read, by the Taylor shift E2 -> E2 + x.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb

from qmforms.extremal import _solve_exact, describe_label, x_w1_components
from qmforms.forms import delta_series, eisenstein, recompose_parts
from qmforms.qseries import FourierSeries


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
        return x_w1_components(desc.weight, order).parts
    if label.startswith("X") and desc.depth == 2:
        return depth2_parts(desc.weight, order)
    assert desc.depth == 0, label
    return (desc.build(order),)


def shifted(parts) -> list:
    """Φ_p = Σ_j C(j, p)·E2^(j−p)·A_j for p = 0..d: the coefficient of x^p
    when E2 becomes E2 + x in Σ_j E2^j·A_j."""
    return [recompose_parts([part.scale(comb(j, p)) for j, part in enumerate(parts[p:], p)])
            for p in range(len(parts))]
