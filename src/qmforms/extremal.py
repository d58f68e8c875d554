"""Maximal-vanishing quasimodular families and level-2 difference forms.

Depth 1: for even weight w >= 6 there is a unique (normalized) quasimodular
form of weight w and depth 1 whose expansion vanishes to the largest order
possible.  Up to weight 12 it is a derivative of one Eisenstein series
(less Delta at weight 12), by Ramanujan's identities; higher weights climb
from those by three recurrences (one per residue of w mod 6).

Every depth-1 member splits as  X_w = A_w + E2 * B_{w-2}  with A and B free
of E2.  The same three recurrences, climbing from the weight-6 seed, descend
to the components, which is how the component tables (and their
leading-coefficient laws) are produced here independently of the full series.

Depth 2: explicit weights 4, 8, 10, 12, 14 plus a general exact solver that
finds the maximal-vanishing combination in the graded space spanned by
E2^j E4^a E6^b (j <= 2); weight 16 is produced by the solver.  The solver's
E2-parts, F = A_0 + E2 A_1 + E2^2 A_2, give every depth-2 weight its split.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from typing import Callable

from . import forms
from .forms import DEFAULT_ORDER, delta_series, derivative_parts, eisenstein, recompose_parts, serre_derivative
from .qseries import FourierSeries, grow_only

F = Fraction


class BadWeight(ValueError):
    """Weight outside the family's supported range."""


def _require_even(w: int, minimum: int):
    if not isinstance(w, int) or w % 2 or w < minimum:
        raise BadWeight(f"weight must be an even integer >= {minimum}, got {w}")


# x_w1 and x_w1_components recurse about w/3 calls deep, so larger weights
# are refused up front instead of overflowing the interpreter stack.
MAX_DEPTH1_WEIGHT = 1000


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
        d = eisenstein(w - 2, order).derivative().scale(F(1, forms._EIS_PARAMS[w - 2][1]))
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


@dataclass(frozen=True)
class Depth1Components:
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

    def truncate(self, order) -> "Depth1Components":
        return Depth1Components(self.weight, self.pure.truncate(order), self.e2_part.truncate(order))


@grow_only
def x_w1_components(w: int, order: int = DEFAULT_ORDER) -> Depth1Components:
    """Component pair of x_w1(w), built by the component recurrences.

    The +2 recurrence X_w = (12/(w-1)) (D X_{w-2} - ((w-3)/12) E2 X_{w-2})
    acts on components through the E2-parts B_0, B_1, B_2 of D X_{w-2}
    (:func:`derivative_parts`; the E2^2 part cancels):

        pure_{w}    = (12/(w-1)) B_0
        e2part_{w}  = (12/(w-1)) ( B_1 - ((w-3)/12) pure_{w-2} )

    and the +4 and +6 recurrences act term by term.  This never builds the
    full series, so it is an independent route to the same forms (the
    recomposition identity is checked in the registry).
    """
    _require_depth1_weight(w)
    if w == 6:
        e4 = eisenstein(4, order)
        e6 = eisenstein(6, order)
        return Depth1Components(6, e6.scale(F(-1, 720)), e4.scale(F(1, 720)))
    r = w % 6
    if r == 2:
        prev = x_w1_components(w - 2, order)
        b = derivative_parts(prev.parts, w - 2)
        s = F(12, w - 1)
        return Depth1Components(w, b[0].scale(s), (b[1] - prev.pure.scale(F(w - 3, 12))).scale(s))
    if r == 4:
        prev = x_w1_components(w - 4, order)
        e4 = eisenstein(4, order)
        return Depth1Components(w, e4 * prev.pure, e4 * prev.e2_part)
    prev4 = x_w1_components(w - 4, order)
    prev6 = x_w1_components(w - 6, order)
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    s = F(w, 864 * (w - 1))
    return Depth1Components(
        w,
        (e4 * prev4.pure - e6 * prev6.pure).scale(s),
        (e4 * prev4.e2_part - e6 * prev6.e2_part).scale(s),
    )


# ---------------------------------------------------------------------------
# depth 2
# ---------------------------------------------------------------------------


def _antiderivative(f: FourierSeries) -> FourierSeries:
    """Inverse of q d/dq with zero constant term (requires none present)."""
    if f.nums[0]:
        raise ValueError("cannot antidifferentiate a nonzero constant term")
    # c_k -> c_k * g/k: divide k into the numerator where it goes, and put
    # the lcm of the leftover divisors into the common denominator
    g = f.grain
    parts = [(0, 1)]
    for k, c in enumerate(f.nums[1:], 1):
        h = math.gcd(c * g, k)
        parts.append((c * g // h, k // h))
    extra = math.lcm(*{r for _, r in parts})
    return FourierSeries(g, tuple(p * (extra // r) for p, r in parts), f.den * extra)


_X_W2_WEIGHTS = (4, 8, 10, 12, 14, 16)


def _require_depth2_weight(w: int):
    if w not in _X_W2_WEIGHTS:
        raise BadWeight(f"depth-2 family implemented for weights {_X_W2_WEIGHTS}")


@grow_only
def x_w2(w: int, order: int = DEFAULT_ORDER) -> FourierSeries:
    """Depth-2 maximal-vanishing forms at weights 4, 8, 10, 12, 14, 16.

    Weights up to 12 come from closed derivative combinations of Eisenstein
    series, weight 14 from exact antidifferentiation of its derivative
    identity, weight 16 from the exact linear-algebra solver.
    """
    _require_depth2_weight(w)
    if w == 4:
        return eisenstein(2, order).derivative().scale(F(-1, 24))
    if w == 8:
        e4 = eisenstein(4, order)
        e6 = eisenstein(6, order)
        return (
            e6.derivative().scale(F(-1, 15120))
            - e4.derivative().derivative().scale(F(1, 7200))
        )
    if w == 10:  # D(E4²)/60480 + D²E6/63504, with E4² = E8 (M8 is one-dimensional)
        e8 = eisenstein(8, order)
        e6 = eisenstein(6, order)
        return e8.derivative().scale(F(1, 60480)) + e6.derivative().derivative().scale(F(1, 63504))
    if w == 12:
        e8 = eisenstein(8, order)
        e10 = eisenstein(10, order)
        d = delta_series(order)
        inner = (
            d.scale(F(17, 21))
            - e10.derivative().scale(F(1, 308))
            - e8.derivative().derivative().scale(F(1, 288))
        )
        return inner.scale(F(1, 18000))
    if w == 14:
        prod = x_w2(4, order) * x_w1(12, order)
        return _antiderivative(prod.scale(3))
    return extremal_depth2(16, order)


def _depth2_monomials(w: int) -> list[tuple[int, int, int]]:
    """Exponent triples (j, a, b) with E2^j E4^a E6^b of weight w, j <= 2."""
    out = []
    for j in range(3):
        rest = w - 2 * j
        if rest < 0:
            continue
        for b in range(rest // 6 + 1):
            rem = rest - 6 * b
            if rem % 4 == 0:
                out.append((j, rem // 4, b))
    return out


def _monomial_series(j: int, a: int, b: int, order: int) -> FourierSeries:
    """E2^j·E4^a·E6^b, with E4² = E8 (M8 is one-dimensional), multiplying only
    the factors with nonzero exponents."""
    powers = [eisenstein(k, order) ** e for k, e in ((2, j), (8, a // 2), (4, a % 2), (6, b)) if e]
    return reduce(FourierSeries.__mul__, powers) if powers else FourierSeries.one(order)


@grow_only
def depth2_parts(w: int, order: int = DEFAULT_ORDER) -> tuple[FourierSeries, ...]:
    """E2-parts (A_0, A_1, A_2) of :func:`extremal_depth2`, A_j free of E2 and of weight w − 2j.

    Solves the square linear system that kills the first dim-1 coefficients
    and normalizes the next one to 1.  Raises BadWeight if the space is
    empty or the system is singular (no unique extremal form).
    """
    _require_even(w, 4)
    monos = _depth2_monomials(w)
    dim = len(monos)
    if dim == 0:
        raise BadWeight(f"no depth<=2 forms of weight {w}")
    v = dim - 1
    cols = [_monomial_series(j, a, b, v) for (j, a, b) in monos]
    # rows: coefficient of q^n for n = 0..v; rhs = e_v
    mat = [[cols[i].coefficient(n) for i in range(dim)] for n in range(v + 1)]
    rhs = [F(0)] * v + [F(1)]
    sol = _solve_exact(mat, rhs)
    if sol is None:
        raise BadWeight(f"no unique maximal-vanishing combination at weight {w}")
    parts = [FourierSeries.zero(order)] * 3
    for coef, (j, a, b) in zip(sol, monos):
        if coef:
            parts[j] = parts[j] + _monomial_series(0, a, b, order).scale(coef)
    return tuple(parts)


def extremal_depth2(w: int, order: int = DEFAULT_ORDER) -> FourierSeries:
    """Exact maximal-vanishing combination in the depth<=2 space of weight w."""
    return recompose_parts(depth2_parts(w, order))


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


@dataclass(frozen=True)
class FormDescriptor:
    """A label's metadata, ``build(order)`` for its expansion and, for the SL(2,Z)
    families, ``parts(order)``: its E2-parts A_0..A_d, A_j free of E2 and of weight − 2j."""

    label: str
    weight: int
    depth: int
    group: str
    summary: str
    build: Callable[[int], FourierSeries] = field(compare=False, repr=False)
    parts: Callable[[int], tuple[FourierSeries, ...]] | None = field(default=None, compare=False, repr=False)


def _modular(label: str, weight: int, summary: str, build: Callable[[int], FourierSeries]) -> FormDescriptor:
    """An SL(2,Z) modular form: depth 0, its own single E2-part."""
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
                       lambda order: forms.theta_forms(order)["H2"]),
        FormDescriptor("H4", 2, 0, "Gamma0(4)", "sign-alternating four-squares theta block",
                       lambda order: forms.theta_forms(order)["H4"]),
        FormDescriptor("A", 4, 0, "Gamma0(4)", "square of the odd theta block",
                       lambda order: forms.theta_forms(order)["A"]),
        FormDescriptor("B", 2, 0, "Gamma0(4)", "even-index four-squares combination",
                       lambda order: forms.theta_forms(order)["B"]),
        FormDescriptor("F", 16, 2, "SL(2,Z)", "weight-16 depth-2 combination vanishing to order 3",
                       lambda order: forms.form_f(order), lambda order: forms.form_f_parts(order)),
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
                       lambda order: tuple(part * delta_series(order) for part in depth2_parts(4, order))),
    )
}
_FIXED_BUILDERS["script_L10"] = replace(_FIXED_BUILDERS["L10"], label="script_L10")

# The families X{w}_1, X{w}_2, Y{w}_2 and Xtilde{w}_2, matched whole.
_FAMILY_LABEL = re.compile(r"(Xtilde|X|Y)([1-9][0-9]*)_([12])")

# (prefix, depth) -> (group, summary, builder of (weight, order), E2-parts of (weight, order) or None)
_FAMILIES = {
    ("X", 1): ("SL(2,Z)", "depth-1 maximal-vanishing form", lambda w, order: x_w1(w, order),
               lambda w, order: x_w1_components(w, order).parts),
    ("X", 2): ("SL(2,Z)", "depth-2 maximal-vanishing form", lambda w, order: x_w2(w, order),
               lambda w, order: depth2_parts(w, order)),
    ("Y", 2): ("Gamma0(2)", "difference with factor 2^(w-2)", lambda w, order: y_form(w, order), None),
    ("Xtilde", 2): ("Gamma0(2)", "difference with factor 2^(w-1)",
                    lambda w, order: xtilde_form(w, order), None),
}


def describe_label(label: str) -> FormDescriptor:
    """Metadata and builder for a label.

    Named labels: E2..E10, Delta, theta blocks H2/H4/A/B, composites
    F/G/K10/K12/K14/L/L10/script_L10, P1..P4, X42Delta.  Families: X{w}_1
    (even 6 <= w <= MAX_DEPTH1_WEIGHT), and X{w}_2, Y{w}_2, Xtilde{w}_2 for
    the depth-2 weights.
    Raises KeyError for unknown labels, BadWeight for bad weights.
    """
    if label in _FIXED_BUILDERS:
        return _FIXED_BUILDERS[label]
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
    return FormDescriptor(label, w, depth, group, summary, lambda order: build(w, order),
                          None if parts is None else lambda order: parts(w, order))


def form_by_label(label: str, order: int = DEFAULT_ORDER) -> FourierSeries:
    """Build the form named by a label (see :func:`describe_label`)."""
    return describe_label(label).build(order)


def known_labels(max_depth1_weight: int = 48) -> list[str]:
    out = list(_FIXED_BUILDERS)
    out += [f"X{w}_1" for w in range(6, max_depth1_weight + 1, 2)]
    out += [f"{prefix}{w}_2" for prefix in ("X", "Y", "Xtilde") for w in _X_W2_WEIGHTS]
    return sorted(out)
