"""Maximal-vanishing quasimodular families and level-2 difference forms.

Depth 1: for even weight w >= 6 there is a unique (normalized) quasimodular
form of weight w and depth 1 whose expansion vanishes to the largest order
possible.  Up to weight 12 it is a derivative of one Eisenstein series
(less Delta at weight 12), by Ramanujan's identities; higher weights climb
from those by three recurrences (one per residue of w mod 6).

Every depth-1 member splits as  X_w = A_w + E2 * B_{w-2}  with A and B free
of E2, so each is a polynomial in E4, E6 and Δ.  The same three recurrences,
climbing from the weight-6 seed, act on the components' exact coordinates in
the basis E6^b·E4^(a−3i)·Δ^i (Kaneko and Zagier, 1995), with ϑE4 = −E6/3,
ϑE6 = −E4²/2, ϑΔ = 0 and E6² = E4³ − 1728Δ; each component is then evaluated
once, at the order asked.  So the component tables (and their
leading-coefficient laws) come from polynomial algebra, independently of the
series products that build the full series.

Depth 2: every depth <= 2 form of weight w is uniquely Σ_j D^j g_j with g_j
in M_(w−2j), plus a multiple of D·E2 at w = 4 (Kaneko and Zagier, 1995;
Zagier, *The 1-2-3 of Modular Forms*, §5.3).  The family member at each of
the six weights is the combination of the columns D^j(E_k·Δ^i) that vanishes
to the largest order, found by one exact solve.  Its x-parts Φ_p, the
coefficients of x^p when E2 becomes E2 + x, follow from the same columns by
Horner in D and the rule for D on x-parts (:mod:`qmforms.forms`), so no E2
product is formed; ``x_w2`` builds Φ_0 alone.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, NamedTuple

from . import forms
from .forms import DEFAULT_ORDER, delta_series, eisenstein, recompose_parts, serre_derivative
from .qseries import FourierSeries, Record, _intconv, grow_only

F = Fraction


class BadWeight(ValueError):
    """Weight outside the family's supported range."""


def _require_even(w: int, minimum: int):
    if not isinstance(w, int) or w % 2 or w < minimum:
        raise BadWeight(f"weight must be an even integer >= {minimum}, got {w}")


# Heavier weights are refused up front, for time: X_(w,1)'s route stores its first nonzero term, near q^(w/6),
# and a cold `qmf eval X704_1 --t 1 --bits 256` takes 2.97–2.99 s, X706_1 3.01 s (2-core x86-64, CPython 3.11).
MAX_DEPTH1_WEIGHT = 704


def _require_depth1_weight(w: int):
    _require_even(w, 6)
    if w > MAX_DEPTH1_WEIGHT:
        raise BadWeight(f"depth-1 weights go up to {MAX_DEPTH1_WEIGHT}, got {w}")


def a_w_exponent(w: int) -> int:
    """The slowest-decay exponent for the depth-1 family: w - ceil(w/6)."""
    _require_even(w, 4)
    return w - (-(-w // 6))


def alpha_w0(w: int) -> Fraction:
    """Closed form for the constant term of the E2-free component, 6 | w."""
    if w % 6 or w < 6:
        raise BadWeight("the closed form applies to weights divisible by 6")
    k = w // 6
    sign = -1 if k % 2 else 1
    num = math.factorial(k) * math.factorial(2 * k) * math.factorial(3 * k)
    return F(sign * num, 2 * w * math.factorial(w))


# ---------------------------------------------------------------------------
# depth 1: full series
# ---------------------------------------------------------------------------


@grow_only
def x_w1(w: int, order: int = DEFAULT_ORDER) -> FourierSeries:
    """The normalized depth-1 maximal-vanishing form, even 6 <= w <= MAX_DEPTH1_WEIGHT."""
    _require_depth1_weight(w)
    if w <= 12:
        # Ramanujan: X_w = D E_(w-2) / (its q-coefficient) for w <= 10, e.g.
        # 720 X_6 = E2 E4 - E6 = 3 D E4; at w = 12, Delta cancels the q term
        d = eisenstein(w - 2, order).derivative().scale(F(1, forms._EIS_MULT[w - 2]))
        return d if w < 12 else (d - delta_series(max(order, 0))).scale(F(1, 1050))
    r = w % 6
    if r == 2:  # climb by +2 from the previous multiple of 6
        prev = x_w1(w - 2, order)
        return serre_derivative(prev, w - 3).scale(F(12, w - 1))
    if r == 4:  # climb by +4: multiply by E4
        return eisenstein(4, order) * x_w1(w - 4, order)
    # r == 0, w >= 12: climb by +6
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    combo = e4 * x_w1(w - 4, order) - e6 * x_w1(w - 6, order)
    return combo.scale(F(w, 864 * (w - 1)))


# ---------------------------------------------------------------------------
# depth 1: E2-free component pairs
# ---------------------------------------------------------------------------


class Depth1Components(NamedTuple):
    """X = pure + E2 * e2_part, both components free of E2.

    ``pure`` has the weight of X, ``e2_part`` has weight - 2.
    """

    weight: int
    pure: FourierSeries
    e2_part: FourierSeries

    @property
    def parts(self) -> tuple[FourierSeries, FourierSeries]:
        """The E2-parts (pure, e2_part), as :func:`recompose_parts` reads them."""
        return self.pure, self.e2_part

    def recompose(self) -> FourierSeries:
        return recompose_parts(self.parts)

    @property
    def x_parts(self) -> tuple[FourierSeries, FourierSeries]:
        """The x-parts (pure + E2·e2_part, e2_part): the coefficients of 1 and x when E2 becomes E2 + x."""
        return self.recompose(), self.e2_part

    def truncate(self, order) -> "Depth1Components":
        return Depth1Components(self.weight, self.pure.truncate(order), self.e2_part.truncate(order))


# Depth-1 coordinates: a modular form of weight k is E6^b·Σ_i c_i·E4^(a−3i)·Δ^i
# with b = 1 exactly when k ≡ 2 (mod 4), a = (k − 6b)/4 and 0 <= i <= a/3
# (E6² = E4³ − 1728Δ removes every higher power of E6).  Each weight w keeps
# the coordinates of (A_w, B_(w−2)) over one common denominator; threads that
# race to extend the table store equal values.
_COORDS: dict[int, tuple[list[int], list[int], int]] = {6: ([-1], [1], 720)}


def _shape(k: int) -> tuple[int, int]:
    """(b, a) of the weight-k coordinates."""
    b = k // 2 % 2
    return b, (k - 6 * b) // 4


def _sized(c: list[int], k: int) -> list[int]:
    """Coordinates c of weight k, cut or padded with zeros to their a/3 + 1 entries."""
    n = _shape(k)[1] // 3 + 1
    return c[:n] + [0] * (n - len(c))


def _comb(x: list[int], y: list[int], cx: int = 1, cy: int = 1) -> list[int]:
    """cx·x + cy·y, the shorter list padded with zeros."""
    if len(x) < len(y):
        x, y, cx, cy = y, x, cy, cx
    return [cx * u + cy * v for u, v in zip(x, y)] + [cx * u for u in x[len(y):]]


def _times_e6(c: list[int], k: int) -> list[int]:
    """E6·f for f of weight k, by E6² = E4³ − 1728Δ where f holds E6 already."""
    return _comb(c + [0], [0] + c, 1, -1728) if _shape(k)[0] else c


def _theta6(c: list[int], k: int) -> list[int]:
    """6·ϑf for f of weight k, ϑ its Serre derivative: ϑE4 = −E6/3, ϑE6 = −E4²/2, ϑΔ = 0."""
    b, a = _shape(k)
    m = [a - 3 * i for i in range(len(c))]  # the E4 exponents
    if not b:  # ϑ(E4^m·Δ^i) = −(m/3)·E6·E4^(m−1)·Δ^i
        return [-2 * e * x for e, x in zip(m, c)]
    # ϑ(E6·E4^m·Δ^i) = −(1/2 + m/3)·E4^(m+2)·Δ^i + 576·m·E4^(m−1)·Δ^(i+1)
    return _comb([-(3 + 2 * e) * x for e, x in zip(m, c)], [0] + [3456 * e * x for e, x in zip(m, c)])


def _step(w: int) -> tuple[list[int], list[int], int]:
    """(A_w, B_(w−2), den) from the lower weights, by the recurrence x_w1 climbs with."""
    r = w % 6
    if r == 4:  # X_w = E4·X_(w−4)
        return _COORDS[w - 4]
    if r == 2:  # X_w = (12/(w−1))·(D − ((w−3)/12)·E2)·X_(w−2), with DE2 = (E2² − E4)/12
        a, b, den = _COORDS[w - 2]
        return _comb(_theta6(a, w - 2), b, 2, -1), _comb(a, _theta6(b, w - 4), 1, 2), den * (w - 1)
    # X_w = w·(E4·X_(w−4) − E6·X_(w−6)) / (864(w−1))
    a4, b4, d4 = _COORDS[w - 4]
    a6, b6, d6 = _COORDS[w - 6]
    den = math.lcm(d4, d6)
    s4, s6 = w * (den // d4), -w * (den // d6)
    return _comb(a4, _times_e6(a6, w - 6), s4, s6), _comb(b4, _times_e6(b6, w - 8), s4, s6), den * 864 * (w - 1)


def _coordinates(w: int) -> tuple[list[int], list[int], int]:
    """(A_w, B_(w−2), den), with every lower weight's, kept per weight."""
    if w not in _COORDS:
        for v in range(max(_COORDS) + 2, w + 1, 2):
            a, b, den = _step(v)
            a, b = _sized(a, v), _sized(b, v - 2)
            g = math.gcd(den, *a, *b)
            _COORDS[v] = [x // g for x in a], [x // g for x in b], den // g
    return _COORDS[w]


@grow_only
def _power(base: str, e: int, order: int) -> FourierSeries:
    """E4^e or Δ^e (``base`` is "E4" or "Delta"), from the next lower power."""
    series = eisenstein(4, order) if base == "E4" else delta_series(order)
    return series if e == 1 else _power(base, e - 1, order) * series


def _evaluate(c: list[int], k: int, den: int, order: int) -> FourierSeries:
    """E6^b·Σ_i c_i·E4^(a−3i)·Δ^i / den through q^order, by Horner in U = E4³
    over the Δ^i on integer numerators; Δ^i vanishes through q^(i−1), so terms
    with i > order are skipped."""
    b, a = _shape(k)
    m = min(a // 3, order)
    total = [c[0]]
    for i in range(1, m + 1):
        u, delta = _power("E4", 3, order).nums, _power("Delta", i, order).nums
        total = _comb(_intconv(total, u, order), delta, 1, c[i])
    if a > 3 * m:
        total = _intconv(total, _power("E4", a - 3 * m, order).nums, order)
    if b:
        total = _intconv(total, eisenstein(6, order).nums, order)
    return FourierSeries(1, tuple(total), den)


@grow_only
def x_w1_components(w: int, order: int = DEFAULT_ORDER) -> Depth1Components:
    """Component pair of x_w1(w), from exact coordinates.

    The recurrences x_w1 climbs by act on X = A + E2·B componentwise.  The +4
    and +6 steps multiply by E4 and E6; the +2 step, by DE2 = (E2² − E4)/12,
    gives (A, B) -> (12ϑA − E4·B, A + 12ϑB) / (w − 1), ϑ the Serre derivative.
    Here they run on the integer coordinates of A and B in E4, E6 and Δ
    (:func:`_coordinates`), and each part is evaluated once at ``order``, so
    no lower weight's series is built.  The result equals the series climb
    (a test checks it), which makes the recomposition against ``x_w1`` a
    check of one arithmetic against another.
    """
    _require_depth1_weight(w)
    a, b, den = _coordinates(w)
    order = max(order, 0)
    return Depth1Components(w, _evaluate(a, w, den, order), _evaluate(b, w - 2, den, order))


# ---------------------------------------------------------------------------
# depth 2
# ---------------------------------------------------------------------------


_X_W2_WEIGHTS = (4, 8, 10, 12, 14, 16)


def _require_depth2_weight(w: int):
    if w not in _X_W2_WEIGHTS:
        raise BadWeight(f"depth-2 family implemented for weights {_X_W2_WEIGHTS}")


_LAMBDAS: dict[int, list[Fraction]] = {}  # w -> λ


def _maximal_vanishing(w: int, columns: Callable[[], list[FourierSeries]]) -> list[Fraction]:
    """λ with Σ λ_c·c vanishing through q^(dim−2) and q^(dim−1)-coefficient 1, for the dim ``columns()``
    stored through q^(dim−1), kept per depth-2 weight w; BadWeight if no unique λ does."""
    if w not in _LAMBDAS:
        cols = columns()
        v = len(cols) - 1
        sol = _solve_exact([[c.coefficient(n) for c in cols] for n in range(v + 1)], [F(0)] * v + [F(1)])
        if sol is None:
            raise BadWeight(f"no unique maximal-vanishing combination at weight {w}")
        _LAMBDAS[w] = sol
    return _LAMBDAS[w]


def _kz_columns(w: int) -> list[tuple[int, int, int]]:
    """(j, k, i) for the columns D^j(E_k·Δ^i) spanning the depth <= 2 forms of
    weight w (Kaneko and Zagier, 1995): the E_k·Δ^i with k = w − 2j − 12i != 2
    and E_0 = 1 span M_(w−2j) for w − 2j > 0, and where the depth bound reaches
    w/2 (at w = 4) the column D^(w/2−1)·E2 joins them."""
    cols = [(j, m - 12 * i, i) for j in range(3) for m in [w - 2 * j] if m > 0
            for i in range(m // 12 + 1) if m - 12 * i != 2]
    return cols + ([(w // 2 - 1, 2, 0)] if w // 2 <= 2 else [])


def _derivative(f: FourierSeries, j: int) -> FourierSeries:
    """D^j f."""
    for _ in range(j):
        f = f.derivative()
    return f


def _kz_product(k: int, i: int, order: int) -> FourierSeries:
    """E_k·Δ^i, with E_0 = 1."""
    if not i:
        return eisenstein(k, order)
    power = delta_series(order) ** i
    return eisenstein(k, order) * power if k else power


def x_w2_parts(w: int, order: int = DEFAULT_ORDER, keep: int | None = None) -> list:
    """x-parts Φ_0..Φ_2 (the first ``keep``) of the depth-2 maximal-vanishing form
    of weight w in {4, 8, 10, 12, 14, 16}, G_0 + D(G_1 + D·G_2) with
    G_j = Σ λ_c·E_k·Δ^i over the columns c = D^j(E_k·Δ^i) of :func:`_kz_columns`,
    λ from :func:`_maximal_vanishing`, by :func:`~qmforms.forms.horner_x_parts`.
    Each E_k·Δ^i is its own x-part; weight 4's E2 column has x-parts (E2, 1)."""
    _require_depth2_weight(w)
    cols = _kz_columns(w)
    small = len(cols) - 1
    lam = _maximal_vanishing(w, lambda: [_derivative(_kz_product(k, i, small), j) for j, k, i in cols])
    groups: list[list | None] = [None] * 3
    for coef, (j, k, i) in zip(lam, cols):
        if coef:
            term = _kz_product(k, i, order).scale(coef)
            # E2's constant x-part only where more than Φ_0 is asked
            parts = [term, FourierSeries.one(order).scale(coef)] if k == 2 and keep != 1 else [term]
            groups[j] = parts if groups[j] is None else forms.add_parts(groups[j], parts)
    return forms.horner_x_parts(groups, w, keep)


@grow_only
def x_w2(w: int, order: int = DEFAULT_ORDER) -> FourierSeries:
    """The depth-2 maximal-vanishing form of weight w in {4, 8, 10, 12, 14, 16}:
    Φ_0 of :func:`x_w2_parts`, built alone."""
    return x_w2_parts(w, order, 1)[0]


def _solve_exact(mat: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination over Fractions; None if singular."""
    n = len(mat)
    m = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# level-2 difference families
# ---------------------------------------------------------------------------


def y_form(w: int, order: int = DEFAULT_ORDER) -> FourierSeries:
    """X_{w,2}(z) - 2^(w-2) X_{w,2}(2z); completely positive for these w."""
    x = x_w2(w, order)
    return x - x.dilate(2).scale(2 ** (w - 2))


def xtilde_form(w: int, order: int = DEFAULT_ORDER) -> FourierSeries:
    """X_{w,2}(z) - 2^(w-1) X_{w,2}(2z); the alternating-sign variant."""
    x = x_w2(w, order)
    return x - x.dilate(2).scale(2 ** (w - 1))


def weak_family(w: int, n: int, order: int = DEFAULT_ORDER) -> FourierSeries:
    """X_{w,1}(z) - n^(a_w) X_{w,1}(nz) with the slow-decay exponent a_w."""
    if n < 2:
        raise ValueError("dilation must be at least 2")
    x = x_w1(w, order)
    return x - x.dilate(n).scale(n ** a_w_exponent(w))


# ---------------------------------------------------------------------------
# label registry
# ---------------------------------------------------------------------------


class FormDescriptor(Record):
    """A label's metadata, ``build(order)`` for its expansion and, for every SL(2,Z)
    label but E2, ``parts(order)``: its x-parts Φ_0..Φ_d, the coefficients of x^p
    when E2 becomes E2 + x, so Φ_0 is the form; the axis routes read them.
    Equality, hash and repr read the metadata alone."""

    _compared = ("label", "weight", "depth", "group", "summary")
    __slots__ = _compared + ("build", "parts")

    def __init__(self, label: str, weight: int, depth: int, group: str, summary: str,
                 build: Callable[[int], FourierSeries], parts: Callable[[int], tuple] | None = None):
        for name, value in zip(self.__slots__, (label, weight, depth, group, summary, build, parts)):
            object.__setattr__(self, name, value)

    def relabel(self, label: str) -> "FormDescriptor":
        """This descriptor under another label, with the same builders."""
        return FormDescriptor(label, self.weight, self.depth, self.group, self.summary, self.build, self.parts)


def _modular(label: str, weight: int, summary: str, build: Callable[[int], FourierSeries]) -> FormDescriptor:
    """An SL(2,Z) modular form: depth 0, its own single x-part."""
    return FormDescriptor(label, weight, 0, "SL(2,Z)", summary, build, lambda order: (build(order),))


def _p4(order):
    x = x_w1(12, order)
    return x - x.dilate(2).scale(2**11)


# Every builder looks its function up by name when called, so a wrapper bound
# to that module name afterwards (a tracer, a test double) sees the call.
_FIXED_BUILDERS: dict[str, FormDescriptor] = {
    d.label: d
    for d in (
        FormDescriptor("E2", 2, 1, "SL(2,Z)", "weight-2 Eisenstein series (quasimodular)",
                       lambda order: eisenstein(2, order)),
        _modular("E4", 4, "weight-4 Eisenstein series", lambda order: eisenstein(4, order)),
        _modular("E6", 6, "weight-6 Eisenstein series", lambda order: eisenstein(6, order)),
        _modular("E8", 8, "weight-8 Eisenstein series", lambda order: eisenstein(8, order)),
        _modular("E10", 10, "weight-10 Eisenstein series", lambda order: eisenstein(10, order)),
        _modular("Delta", 12, "the discriminant cusp form", lambda order: delta_series(order)),
        FormDescriptor("H2", 2, 0, "Gamma0(4)", "odd-index four-squares theta block",
                       lambda order: forms._theta_block("H2", order)),
        FormDescriptor("H4", 2, 0, "Gamma0(4)", "sign-alternating four-squares theta block",
                       lambda order: forms._theta_block("H4", order)),
        FormDescriptor("A", 4, 0, "Gamma0(4)", "square of the odd theta block",
                       lambda order: forms._theta_block("A", order)),
        FormDescriptor("B", 2, 0, "Gamma0(4)", "even-index four-squares combination",
                       lambda order: forms._theta_block("B", order)),
        FormDescriptor("F", 16, 2, "SL(2,Z)", "weight-16 depth-2 combination vanishing to order 3",
                       lambda order: forms.form_f(order), lambda order: forms.form_f_x_parts(order)),
        FormDescriptor("G", 14, 0, "Gamma0(4)", "theta-side weight-14 product",
                       lambda order: forms.form_g(order)),
        FormDescriptor("K10", 10, 0, "Gamma0(4)", "theta-side weight-10 coefficient form",
                       lambda order: forms.form_k(10, order)),
        FormDescriptor("K12", 12, 0, "Gamma0(4)", "theta-side weight-12 coefficient form",
                       lambda order: forms.form_k(12, order)),
        FormDescriptor("K14", 14, 0, "Gamma0(4)", "theta-side weight-14 coefficient form",
                       lambda order: forms.form_k(14, order)),
        FormDescriptor("L", 14, 2, "Gamma0(4)", "K10 E2^2 + K12 E2 + K14",
                       lambda order: forms.form_l(order)),
        FormDescriptor("L10", 32, 3, "Gamma0(4)", "cross combination F'G - FG'",
                       lambda order: forms.form_l10(order)),
        FormDescriptor("P1", 4, 2, "Gamma0(2)", "depth-2 weight-4 difference, alternating signs",
                       lambda order: xtilde_form(4, order)),
        FormDescriptor("P2", 2, 1, "Gamma0(4)", "three-level E2 combination",
                       lambda order: forms.form_p2(order)),
        FormDescriptor("P3", 6, 1, "Gamma0(2)", "depth-1 weight-6 difference, alternating signs",
                       lambda order: weak_family(6, 2, order)),
        FormDescriptor("P4", 12, 1, "Gamma0(2)", "depth-1 weight-12 difference",
                       lambda order: _p4(order)),
        FormDescriptor("X42Delta", 16, 2, "SL(2,Z)", "weight-4 depth-2 form times the discriminant",
                       lambda order: x_w2(4, order) * delta_series(order),
                       lambda order: [part * delta_series(order) for part in x_w2_parts(4, order)]),
    )
}
_FIXED_BUILDERS["script_L10"] = _FIXED_BUILDERS["L10"].relabel("script_L10")

# The families X{w}_1, X{w}_2, Y{w}_2 and Xtilde{w}_2, matched whole.
_FAMILY_LABEL = re.compile(r"(Xtilde|X|Y)([1-9][0-9]*)_([12])")

# (prefix, depth) -> (group, summary, builder of (weight, order), x-parts of (weight, order) or None)
_FAMILIES = {
    ("X", 1): ("SL(2,Z)", "depth-1 maximal-vanishing form", lambda w, order: x_w1(w, order),
               lambda w, order: x_w1_components(w, order).x_parts),
    ("X", 2): ("SL(2,Z)", "depth-2 maximal-vanishing form", lambda w, order: x_w2(w, order),
               lambda w, order: x_w2_parts(w, order)),
    ("Y", 2): ("Gamma0(2)", "difference with factor 2^(w-2)", lambda w, order: y_form(w, order), None),
    ("Xtilde", 2): ("Gamma0(2)", "difference with factor 2^(w-1)",
                    lambda w, order: xtilde_form(w, order), None),
}


_FAMILY_DESCRIPTORS: dict[str, FormDescriptor] = {}  # each family label's, once it validates: bounded by the label set


def describe_label(label: str) -> FormDescriptor:
    """Metadata and builder for a label, one descriptor per label.

    Named labels: E2..E10, Delta, theta blocks H2/H4/A/B, composites
    F/G/K10/K12/K14/L/L10/script_L10, P1..P4, X42Delta.  Families: X{w}_1
    (even 6 <= w <= MAX_DEPTH1_WEIGHT), and X{w}_2, Y{w}_2, Xtilde{w}_2 for
    the depth-2 weights.
    Raises KeyError for unknown labels, BadWeight for bad weights.
    """
    if (desc := _FIXED_BUILDERS.get(label) or _FAMILY_DESCRIPTORS.get(label)) is not None:
        return desc
    match = _FAMILY_LABEL.fullmatch(label)
    key = (match.group(1), int(match.group(3))) if match else None
    if key not in _FAMILIES:
        raise KeyError(f"unknown form label: {label!r}")
    w, depth = int(match.group(2)), key[1]
    if depth == 1:
        _require_depth1_weight(w)
    else:
        _require_depth2_weight(w)
    group, summary, build, parts = _FAMILIES[key]
    desc = FormDescriptor(label, w, depth, group, summary, lambda order: build(w, order),
                          None if parts is None else lambda order: parts(w, order))
    return _FAMILY_DESCRIPTORS.setdefault(label, desc)


def form_by_label(label: str, order: int = DEFAULT_ORDER) -> FourierSeries:
    """Build the form named by a label (see :func:`describe_label`)."""
    return describe_label(label).build(order)


def known_labels() -> list[str]:
    """The named labels, X6_1 to X48_1, and X, Y and Xtilde at each depth-2 weight, sorted."""
    out = list(_FIXED_BUILDERS)
    out += [f"X{w}_1" for w in range(6, 49, 2)]
    out += [f"{prefix}{w}_2" for prefix in ("X", "Y", "Xtilde") for w in _X_W2_WEIGHTS]
    return sorted(out)
