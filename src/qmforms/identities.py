"""Registry of exact series identities, each verified to zero residual.

Every entry pairs two independently constructed q-expansions and checks
that they agree coefficient-for-coefficient, as exact rationals, up to a
stated truncation order.  A failure reports the first offending exponent
and the residual there, which makes normalization mistakes immediately
visible.  Finite-order agreement is a verification, not a proof; the
default order (120) is far above the classical coefficient bounds for
the weights and levels that occur here.

The registry is one table, ``_ROWS``: each row gives an id, its
statement and the builder of its (lhs, rhs) pairs.  Every identity is
checked at ``DEFAULT_ORDER`` unless ``_ORDER_EXCEPTIONS`` names it (only
LFACT).  A single-pair identity states its two sides in its row;
BR-61, BR-121 and BR-141 share one Bol-bracket rule.  LAMBERT-1 … 5 read
their divisor sums, and the Eulerian k and weighting, from
:mod:`~qmforms.lambert`'s block table (``series_for`` and
``lemma_parameters``), so each checks the very series whose blocks its
certificate (X81, X101, X61, E4, D2) covers.  GRAB-w compares
``x_w1``'s series with its own restatement of the steps ``x_w1`` climbs
by, never with a call into that climb: it is the registry's independent
copy of the recurrence, so a slip in the climb shows as a failing pair
instead of agreeing with itself.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .extremal import form_by_label, x_w1, x_w1_components, x_w2, xtilde_form, y_form
from .forms import (
    DEFAULT_ORDER,
    _theta_block,
    delta_series,
    e2_half_arguments,
    eisenstein,
    martin_royer_bracket,
    serre_derivative,
    sigma_table,
)
from .lambert import eulerian_numerator, lemma_parameters, series_for
from .qseries import FourierSeries

Pair = tuple[FourierSeries, FourierSeries]


class UnknownIdentity(KeyError):
    """Raised when an identity id is not in the registry."""


class IdentityCase(NamedTuple):
    """One registry entry: an id, a human-readable statement, and a builder.

    ``build(order)`` returns one or more (lhs, rhs) series pairs; the case
    passes when every pair agrees through the stated order.
    """

    ident: str
    anchor: str
    default_order: int
    build: Callable[[int], Sequence[Pair]]


class IdentityResult(NamedTuple):
    ident: str
    status: str  # "pass" or "fail"
    order: int
    through: Fraction  # smallest bound any pair was compared through
    first_bad_exponent: Fraction | None
    residual: Fraction | None
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        bad = self.first_bad_exponent
        res = self.residual
        return {
            "ident": self.ident,
            "status": self.status,
            "order": self.order,
            "through": str(self.through),
            "first_bad_exponent": None if bad is None else str(bad),
            "residual": None if res is None else [str(res.numerator), str(res.denominator)],
            "elapsed": round(self.elapsed, 6),
        }


# ---------------------------------------------------------------------------
# building blocks shared by several entries
# ---------------------------------------------------------------------------


def eulerian_expansion(k: int, order: int, *, weighted: bool) -> FourierSeries:
    """sum over m of w(m) q^m W_k(q^m) / (1 - q^m)^(k+1), to the given order.

    W_k is the degree-(k-1) Eulerian numerator, and w(m) is m when
    ``weighted`` (giving sum n sigma_{k-1}(n) q^n) and 1 otherwise
    (giving sum sigma_k(n) q^n).
    """
    w = eulerian_numerator(k)
    out = [0] * (order + 1)
    for m in range(1, order + 1):
        factor = m if weighted else 1
        for i, wi in enumerate(w):
            base = m * (i + 1)
            if base > order:
                break
            j = 0
            while base + m * j <= order:
                out[base + m * j] += factor * wi * math.comb(j + k, k)
                j += 1
    return FourierSeries.from_coefficients(out)


_LCOMB_COEFFS = {
    "A": (78278400, 550800, 90823680, 116640, 678813696000, 331776000),
    "APRIME": (43027200, 550800, 60963840, 116640, 339075072000, 331776000),
}


def lcomb_combination(
    order: int,
    coeffs: Sequence[int] | None = None,
    variant: str = "A",
) -> FourierSeries:
    """The six-term weight-14 combination that the L entries compare against.

    Variant "A" pairs each dilated depth-2 form with its Xtilde companion;
    variant "APRIME" uses the Y companions instead (same a_2/a_4/a_6, with
    the dilated coefficients absorbing the difference).  Passing explicit
    ``coeffs`` overrides the stored ones — useful as a negative control,
    since any perturbation must show up at a small exponent.
    """
    if variant not in _LCOMB_COEFFS:
        raise ValueError(f"variant must be 'A' or 'APRIME', not {variant!r}")
    a = tuple(coeffs) if coeffs is not None else _LCOMB_COEFFS[variant]
    if len(a) != 6:
        raise ValueError("exactly six coefficients required")
    ab, bb = _theta_block("A", order), _theta_block("B", order)
    companion = xtilde_form if variant == "A" else y_form
    # each weight's pair shares its theta factor, so four products, not eight
    g8, g10, g12 = (a[k] * x_w2(w, order).dilate(2) + a[k + 1] * companion(w, order)
                    for k, w in ((0, 8), (2, 10), (4, 12)))
    return g8 * (ab * bb) + g10 * ab + g12 * bb


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def _ram_1(order: int) -> list[Pair]:
    e2, e4 = eisenstein(2, order), eisenstein(4, order)
    return [(12 * e2.derivative(), e2 * e2 - e4)]


def _ram_2(order: int) -> list[Pair]:
    e2, e4, e6 = (eisenstein(k, order) for k in (2, 4, 6))
    return [(3 * e4.derivative(), e2 * e4 - e6)]


def _ram_3(order: int) -> list[Pair]:
    e2, e4, e6 = (eisenstein(k, order) for k in (2, 4, 6))
    return [(2 * e6.derivative(), e2 * e6 - e4 * e4)]


def _delta(order: int) -> list[Pair]:
    e4, e6 = eisenstein(4, order), eisenstein(6, order)
    return [(1728 * delta_series(order), e4 * e4 * e4 - e6 * e6)]


def _e2l2(order: int) -> list[Pair]:
    half, half_shifted = e2_half_arguments(order)
    e2 = eisenstein(2, order)
    return [(half + half_shifted, 6 * e2 - 4 * e2.dilate(2))]


def _lambert(name: str, lhs: FourierSeries, order: int, scale: int = 1) -> list[Pair]:
    """``lhs`` against ``scale`` times the divisor sum whose blocks the named
    certificate covers, and, where that sum is one Lambert block, against
    its Eulerian expansion with the block table's k and weighting."""
    _, k, weighted, _ = lemma_parameters(name)["series"]
    pairs = [(lhs, scale * series_for(name, order))]
    if k is not None:
        pairs.append((lhs, scale * eulerian_expansion(k, order, weighted=weighted)))
    return pairs


def _grab(w: int, order: int) -> list[Pair]:
    # each right side restates one step of x_w1's climb rather than calling it
    xw = x_w1(w, order)
    e4, e6 = eisenstein(4, order), eisenstein(6, order)
    return [
        (x_w1(w + 2, order), Fraction(12, w + 1) * serre_derivative(xw, w - 1)),
        (x_w1(w + 4, order), e4 * xw),
        (
            x_w1(w + 6, order),
            Fraction(w + 6, 864 * (w + 5)) * (e4 * x_w1(w + 2, order) - e6 * xw),
        ),
    ]


def _lee(w: int, order: int) -> list[Pair]:
    x6, x8, x10 = x_w1(6, order), x_w1(8, order), x_w1(10, order)
    c5, c7 = Fraction(5 * w, 72), Fraction(7 * w, 72)
    return [
        (
            x_w1(w, order).derivative(),
            c5 * (x6 * x_w1(w - 4, order)) + c7 * (x8 * x_w1(w - 6, order)),
        ),
        (
            x_w1(w + 2, order).derivative(),
            c5 * (x6 * x_w1(w - 2, order)) + c7 * (x8 * x_w1(w - 4, order)),
        ),
        (
            x_w1(w + 4, order).derivative(),
            240 * (x6 * x_w1(w, order))
            + c7 * (x8 * x_w1(w - 2, order))
            + c5 * (x10 * x_w1(w - 4, order)),
        ),
    ]


def _bol(w: int, order: int) -> FourierSeries:
    """The Bol bracket w (X')^2 - (w-1) X'' X of X = X_{w,1}, the left side of BR-w1."""
    x = x_w1(w, order)
    d = x.derivative()
    return w * (d * d) - (w - 1) * (d.derivative() * x)


def _e1_a(order: int) -> list[Pair]:
    e2, e4, e6 = (eisenstein(k, order) for k in (2, 4, 6))
    lhs = -12 * (e2 * e4 * e6) + 5 * (e4 * e4 * e4) + 7 * (e6 * e6)
    return [(lhs, 3991680 * x_w1(12, order))]


def _e1_b(order: int) -> list[Pair]:
    e2, e4, e6 = (eisenstein(k, order) for k in (2, 4, 6))
    rhs = Fraction(11, 3991680) * (
        -(e2 * e2 * e4 * e6) + e2 * (e4 * e4 * e4) + e2 * (e6 * e6) - (e4 * e4) * e6
    )
    return [(x_w1(12, order).derivative(), rhs)]


def _lfact(order: int) -> list[Pair]:
    h2, a, b = _theta_block("H2", order), _theta_block("A", order), _theta_block("B", order)
    square = a - b * b  # −4·H4·(H2 + H4), so H2^5 H4^2 (H2+H4)^2 = H2·A²·(A − B²)²/16
    factor = h2 * ((a * a) * (square * square)).scale(Fraction(1, 16))
    l10, l = form_by_label("L10", order), form_by_label("L", order)
    return [(l10, Fraction(105, 8) * (factor * l))]


def _serre_cross(order: int) -> list[Pair]:
    # F has weight 16 and G weight 14, so their E2 terms leave -(1/6)·E2·F·G
    f, g = form_by_label("F", order), form_by_label("G", order)
    lhs = f.derivative() * g - f * g.derivative()
    rhs = serre_derivative(f, 16) * g - f * serre_derivative(g, 14)
    return [(lhs, rhs + (eisenstein(2, order) * (f * g)).scale(Fraction(1, 6)))]


def _mrb(order: int) -> list[Pair]:
    x61, x121 = x_w1(6, order), x_w1(12, order)
    delta = delta_series(order)
    f = form_by_label("F", order)
    return [
        (
            martin_royer_bracket(x61, x61, 2, 6, 1, 6, 1),
            -6 * (delta * x_w2(4, order)),
        ),
        (
            martin_royer_bracket(x121, x121, 2, 12, 1, 12, 1),
            Fraction(-12, 914457600) * (delta * f),
        ),
    ]


def _xw2_coeff(order: int) -> list[Pair]:
    s3 = sigma_table(order, 3)
    s5 = sigma_table(order, 5)
    s7 = sigma_table(order, 7)
    c8 = [Fraction(n * s5[n] - n * n * s3[n], 30) for n in range(order + 1)]
    c10 = [Fraction(n * s7[n] - n * n * s5[n], 126) for n in range(order + 1)]
    return [
        (x_w2(8, order), FourierSeries.from_coefficients(c8)),
        (x_w2(10, order), FourierSeries.from_coefficients(c10)),
    ]


# id, statement and the builder of its (lhs, rhs) pairs, one row per identity
_ROWS: tuple[tuple[str, str, Callable[[int], Sequence[Pair]]], ...] = (
    ("RAM-1", "12 E2' = E2^2 - E4", _ram_1),
    ("RAM-2", "3 E4' = E2 E4 - E6", _ram_2),
    ("RAM-3", "2 E6' = E2 E6 - E4^2", _ram_3),
    ("DELTA", "1728 q prod(1-q^n)^24 = E4^3 - E6^2", _delta),
    ("E2L2", "E2(z/2) + E2((z+1)/2) = 6 E2(z) - 4 E2(2z)", _e2l2),
    ("LAMBERT-1", "X_{8,1} = sum n sigma_5(n) q^n = sum_m m q^m W6(q^m)/(1-q^m)^7",
     lambda order: _lambert("X81", x_w1(8, order), order)),
    ("LAMBERT-2", "X_{10,1} = sum n sigma_7(n) q^n = sum_m m q^m W8(q^m)/(1-q^m)^9",
     lambda order: _lambert("X101", x_w1(10, order), order)),
    ("LAMBERT-3", "X_{6,1} = sum n sigma_3(n) q^n = sum_m m q^m W4(q^m)/(1-q^m)^5",
     lambda order: _lambert("X61", x_w1(6, order), order)),
    ("LAMBERT-4", "E4 - 1 = 240 sum sigma_3(n) q^n = 240 sum_m q^m W3(q^m)/(1-q^m)^4",
     lambda order: _lambert("E4", eisenstein(4, order) - 1, order, 240)),
    ("LAMBERT-5", "E2(2z) - E2(z) = 24 sum (sigma_1(n) - sigma_1(n/2)) q^n",
     lambda order: _lambert("D2", eisenstein(2, order).dilate(2) - eisenstein(2, order), order, 24)),
    *((f"GRAB-{w}",
       f"(w+1) X_{{w+2}} = 12(X_w' - ((w-1)/12) E2 X_w); "
       f"X_{{w+4}} = E4 X_w; "
       f"864(w+5) X_{{w+6}} = (w+6)(E4 X_{{w+2}} - E6 X_w)  [w = {w}; "
       + ("X8, X10 and X12 come from Eisenstein derivatives]" if w == 6 else
          "each pair compares x_w1 with the recurrence that builds it]"),
       partial(_grab, w))
      for w in range(6, 48, 6)),
    *((f"LEE-{w}",
       f"X_w' = (5w/72) X_{{6,1}} X_{{w-4}} + (7w/72) X_{{8,1}} X_{{w-6}} "
       f"and the w+2, w+4 variants  [w = {w}]",
       partial(_lee, w))
      for w in range(12, 54, 6)),
    *((f"AB-{w}",
       f"X_{{w,1}} = A_w + E2 B_{{w-2}}  [w = {w}; x_w1's series climb against "
       f"A and B built from their coordinates in E4, E6 and Delta]",
       lambda order, w=w: [(x_w1(w, order), x_w1_components(w, order).recompose())])
      for w in range(12, 54, 6)),
    ("BR-61", "6 (X_{6,1}')^2 - 5 X_{6,1}'' X_{6,1} = Delta X_{4,2}",
     lambda order: [(_bol(6, order), delta_series(order) * x_w2(4, order))]),
    ("BR-121", "12 (X_{12,1}')^2 - 11 X_{12,1}'' X_{12,1} = Delta F / 914457600",
     lambda order: [(_bol(12, order), Fraction(1, 914457600) * (delta_series(order) * form_by_label("F", order)))]),
    ("BR-141", "14 (X_{14,1}')^2 - 13 X_{14,1}'' X_{14,1} = 4 Delta^2 X_{8,2}",
     lambda order: [(_bol(14, order), 4 * ((delta_series(order) * delta_series(order)) * x_w2(8, order)))]),
    ("D2-DERIV-1", "X_{10,2}' = (8/9) X_{4,2} X_{8,1} + (10/9) X_{6,1}^2",
     lambda order: [(x_w2(10, order).derivative(), Fraction(8, 9) * (x_w2(4, order) * x_w1(8, order))
                     + Fraction(10, 9) * (x_w1(6, order) * x_w1(6, order)))]),
    ("D2-DERIV-2", "X_{12,2}' = 3 X_{6,1} X_{8,2}",
     lambda order: [(x_w2(12, order).derivative(), 3 * (x_w1(6, order) * x_w2(8, order)))]),
    ("D2-DERIV-3", "X_{8,2}' = 2 X_{4,2} X_{6,1}",
     lambda order: [(x_w2(8, order).derivative(), 2 * (x_w2(4, order) * x_w1(6, order)))]),
    ("D2-DERIV-4", "X_{14,2}' = 3 X_{4,2} X_{12,1}",
     lambda order: [(x_w2(14, order).derivative(), 3 * (x_w2(4, order) * x_w1(12, order)))]),
    ("X121-DERIV", "X_{12,1}' = 2 X_{6,1} X_{8,1}",
     lambda order: [(x_w1(12, order).derivative(), 2 * (x_w1(6, order) * x_w1(8, order)))]),
    ("E1-A", "-12 E2 E4 E6 + 5 E4^3 + 7 E6^2 = 3991680 X_{12,1}", _e1_a),
    ("E1-B", "X_{12,1}' = (11/3991680)(-E2^2 E4 E6 + E2 E4^3 + E2 E6^2 - E4^2 E6)", _e1_b),
    ("LFACT", "F'G - FG' = (105/8) H2^5 H4^2 (H2+H4)^2 L", _lfact),
    ("LCOMB-A",
     "L = a1 X_{8,2}(2z) A B + a2 Xt_{8,2} A B + a3 X_{10,2}(2z) A "
     "+ a4 Xt_{10,2} A + a5 X_{12,2}(2z) B + a6 Xt_{12,2} B",
     lambda order: [(form_by_label("L", order), lcomb_combination(order, variant="A"))]),
    ("LCOMB-APRIME",
     "L = a1' X_{8,2}(2z) A B + a2' Y_{8,2} A B + a3' X_{10,2}(2z) A "
     "+ a4' Y_{10,2} A + a5' X_{12,2}(2z) B + a6' Y_{12,2} B",
     lambda order: [(form_by_label("L", order), lcomb_combination(order, variant="APRIME"))]),
    ("SERRE-CROSS", "F'G - FG' = (serre_16 F) G - F (serre_14 G) + (1/6) E2 F G", _serre_cross),
    ("MRB",
     "bracket(X_{6,1}, X_{6,1}) = -6 Delta X_{4,2}; "
     "bracket(X_{12,1}, X_{12,1}) = -12 Delta F / 914457600",
     _mrb),
    ("X42D", "312 X_{4,2} Delta = E4 Delta - Delta''",
     lambda order: [(312 * (x_w2(4, order) * delta_series(order)),
                     eisenstein(4, order) * delta_series(order) - delta_series(order).derivative().derivative())]),
    ("XW2-COEFF",
     "X_{8,2} = sum (n sigma_5 - n^2 sigma_3)/30 q^n; "
     "X_{10,2} = sum (n sigma_7 - n^2 sigma_5)/126 q^n",
     _xw2_coeff),
)
# every identity is checked at DEFAULT_ORDER but these
_ORDER_EXCEPTIONS = {"LFACT": 60}
_REGISTRY = {
    ident: IdentityCase(ident, anchor, _ORDER_EXCEPTIONS.get(ident, DEFAULT_ORDER), build)
    for ident, anchor, build in _ROWS
}


def registry() -> dict[str, IdentityCase]:
    """A copy of the full identity registry, keyed by id."""
    return dict(_REGISTRY)


def identity_ids() -> list[str]:
    return sorted(_REGISTRY)


def _check_case(case: IdentityCase, order: int) -> IdentityResult:
    start = time.perf_counter()
    checked, diff = Fraction(order), None
    for lhs, rhs in case.build(order):
        through = min(Fraction(order), lhs.order, rhs.order)
        checked = min(checked, through)
        if (diff := lhs.first_difference(rhs, through)) is not None:
            break
    exponent, residual = (None, None) if diff is None else (diff[0], diff[1] - diff[2])
    return IdentityResult(
        ident=case.ident,
        status="pass" if diff is None else "fail",
        order=order,
        through=checked,
        first_bad_exponent=exponent,
        residual=residual,
        elapsed=time.perf_counter() - start,
    )


def verify(ident: str, order: int | None = None) -> IdentityResult:
    """Check one registry entry, at its default order unless overridden.

    An order that is not an ``int`` (a ``bool`` included) raises
    ``TypeError`` and a negative one ``ValueError``, both before any build:
    a float would be checked at a smaller order than the one asked.
    """
    if ident not in _REGISTRY:
        raise UnknownIdentity(ident)
    case = _REGISTRY[ident]
    if order is not None and type(order) is not int:
        raise TypeError(f"order must be an int, got {order!r}")
    if (order := case.default_order if order is None else order) < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return _check_case(case, order)


def verify_all(order: int | None = None) -> list[IdentityResult]:
    """Check the whole registry, sorted by id.

    ``order=None`` uses each entry's default; an explicit order applies to
    every entry, and one that is not an ``int``, or is negative, raises as
    :func:`verify` does.  Failures are reported in the results, never raised.
    """
    return [verify(ident, order) for ident in identity_ids()]
