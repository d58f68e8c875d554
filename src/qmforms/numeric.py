"""High-precision evaluation of q-series on the positive imaginary axis.

Everything exact lives in the other modules; this one turns a truncated
series with rational coefficients into floating values of F(it), F'(it)
at configurable binary precision, reports a truncation-tail estimate
alongside every value, and builds the three analytic tools used by the
monotonicity study of t ↦ t^m F(it):

* an inversion route for the depth-1 family that evaluates at i/t
  instead of it, so small t costs nothing in convergence;
* geometric-grid scans of s(t) = m·F(it) − 2πt·F'(it), whose sign is
  the sign of d/dt [t^m F(it)];
* tangent/limit checks at t → 0+ (ratio limit 2π/m, the bracket form
  (m+1)(F')² − m·F''·F, and the small-t sign criterion).

Scans are labelled "on grid": they establish signs at grid points with
stated tolerances, never a proof of monotonicity in between.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Callable, Sequence

from mpmath import mp

from .extremal import Depth1Components, form_by_label, x_w1_components
from .forms import delta_series
from .identities import verify
from .positivity import check_complete_positivity
from .qseries import FourierSeries


class NonPositiveT(ValueError):
    """Raised when an evaluation point t on the imaginary axis is <= 0."""


def _default_order_policy(t: float) -> int:
    """Truncation order giving roughly e^(-80*pi) tail mass at height t."""
    return max(200, ceil(40 / float(t)))


@dataclass(frozen=True)
class EvalConfig:
    """Precision, truncation, and tail-reporting knobs for axis evaluation.

    ``precision_bits`` sets the working binary precision (at least 64);
    ``order_policy`` maps an evaluation height t to a truncation order
    (clamped to at least 16 at use sites); ``tail_safety`` multiplies the
    reported geometric tail bound (at least 1).
    """

    precision_bits: int = 128
    order_policy: Callable[[float], int] = _default_order_policy
    tail_safety: Fraction = Fraction(10)

    def __post_init__(self) -> None:
        if int(self.precision_bits) < 64:
            raise ValueError(f"precision_bits must be >= 64, got {self.precision_bits}")
        if Fraction(self.tail_safety) < 1:
            raise ValueError(f"tail_safety must be >= 1, got {self.tail_safety}")

    def order_for(self, t) -> int:
        """Truncation order used for an evaluation at z = it (floor 16)."""
        return max(16, int(self.order_policy(float(t))))


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------


def _mpf(x) -> mp.mpf:
    """Exact-as-possible conversion to the current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _series_value(series: FourierSeries, t) -> mp.mpf:
    """Sum of the stored terms at z = it: Horner in e^(-2*pi*t/grain)."""
    u = mp.e ** (-2 * mp.pi * _mpf(t) / series.grain)
    acc = mp.mpf(0)
    for c in reversed(series.coeffs):
        acc = acc * u + _mpf(c)
    return acc


def _tail_bound(series: FourierSeries, t, safety) -> mp.mpf:
    """Geometric tail heuristic: safety*|c_N|*e^(-2*pi*N*t)/(1-e^(-2*pi*t)).

    N is the last stored exponent with a nonzero coefficient (dilated
    series store trailing structural zeros that say nothing about decay);
    an all-zero series has tail 0.
    """
    coeffs = series.coeffs
    k = len(coeffs) - 1
    while k >= 0 and coeffs[k] == 0:
        k -= 1
    if k < 0:
        return mp.mpf(0)
    n_abs = Fraction(k, series.grain)
    tm = _mpf(t)
    top = _mpf(Fraction(safety)) * _mpf(abs(coeffs[k])) * mp.e ** (-2 * mp.pi * _mpf(n_abs) * tm)
    return top / (1 - mp.e ** (-2 * mp.pi * tm))


def _resolve_series(form, t, cfg: EvalConfig) -> tuple[str, FourierSeries]:
    """Accept a label or a ready series; labels are built at order_for(t)."""
    if isinstance(form, str):
        return form, form_by_label(form, cfg.order_for(t))
    return "<series>", form


def _require_positive(t) -> None:
    if not t > 0:
        raise NonPositiveT(f"evaluation point must satisfy t > 0, got {t}")


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------


def eval_at_it(form, t, cfg: EvalConfig | None = None) -> dict:
    """Value of the series at z = it together with a tail estimate.

    ``form`` is a label (built at ``cfg.order_for(t)``) or a FourierSeries
    (evaluated as stored).  Returns ``{"value", "tail_estimate"}``; the
    tail estimate is the documented geometric heuristic, reported so the
    caller can judge how many digits of the value to trust.
    """
    _require_positive(t)
    cfg = cfg or EvalConfig()
    with mp.workprec(cfg.precision_bits):
        _, series = _resolve_series(form, t, cfg)
        value = _series_value(series, t)
        tail = _tail_bound(series, t, cfg.tail_safety)
    return {"value": value, "tail_estimate": tail}


def _sign_factor(w: int) -> int:
    return -1 if w % 4 == 2 else 1


def eval_depth1_transformed(components: Depth1Components, t, cfg: EvalConfig | None = None) -> dict:
    """F(it) and F'(it) for a depth-1 form via the weight-w inversion.

    With u = 1/t, s = (-1)^(w/2), X the recomposed form and B its
    E2-companion, the inversion law gives

        F(it)  = s*(u^w*X(iu) - (6*u^(w-1)/pi)*B(iu))
        F'(it) = -s*(u^(w+2)*X'(iu) - (u^(w+1)/(2*pi))*(w*X(iu) + 12*B'(iu))
                      + (3*(w-1)/pi^2)*u^w*B(iu))

    where ' is q·d/dq throughout.  All series are evaluated at height
    u >= 1, so convergence is fast uniformly in t ∈ (0, 1].
    """
    _require_positive(t)
    if t > 1:
        raise ValueError(f"transformed route is for t in (0, 1], got {t}")
    cfg = cfg or EvalConfig()
    with mp.workprec(cfg.precision_bits):
        w = components.weight
        sgn = _sign_factor(w)
        x_series = components.recompose()
        b_series = components.e2_part
        pi = mp.pi
        u = 1 / _mpf(t)
        xv = _series_value(x_series, u)
        bv = _series_value(b_series, u)
        xpv = _series_value(x_series.derivative(), u)
        bpv = _series_value(b_series.derivative(), u)
        f_value = sgn * (u**w * xv - 6 * u ** (w - 1) / pi * bv)
        fp_value = -sgn * (
            u ** (w + 2) * xpv
            - u ** (w + 1) / (2 * pi) * (w * xv + 12 * bpv)
            + 3 * (w - 1) / pi**2 * u**w * bv
        )
    return {"F_value": f_value, "Fprime_value": fp_value}


# ---------------------------------------------------------------------------
# monotonicity scans
# ---------------------------------------------------------------------------


def geometric_grid(t_min, t_max, points: int) -> tuple:
    """``points`` geometrically spaced heights from t_min to t_max inclusive."""
    if points < 2:
        raise ValueError("a grid needs at least two points")
    lo = _mpf(t_min)
    hi = _mpf(t_max)
    if not 0 < lo < hi:
        raise ValueError("need 0 < t_min < t_max")
    ratio = (hi / lo) ** (mp.mpf(1) / (points - 1))
    grid = [lo * ratio**k for k in range(points)]
    grid[-1] = hi
    return tuple(grid)


@dataclass(frozen=True)
class ScanReport:
    """Signs of s(t) = m·F(it) − 2πt·F'(it) on a grid.

    s(t) carries the sign of d/dt [t^m F(it)] (they differ by the positive
    factor t^(m-1)), so s <= 0 everywhere means the scanned power-weighted
    form is non-increasing across the grid.  ``sign_changes`` lists
    consecutive grid pairs whose s-values have strictly opposite signs
    beyond tolerance.
    """

    label: str
    m: int
    grid: tuple
    s_values: tuple
    sign_changes: tuple
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "m": self.m,
            "grid": [mp.nstr(x, 17) for x in self.grid],
            "s_values": [mp.nstr(x, 17) for x in self.s_values],
            "sign_changes": [[mp.nstr(a, 17), mp.nstr(b, 17)] for a, b in self.sign_changes],
            "verdict": self.verdict,
        }


_DEPTH1_LABEL = re.compile(r"^X(\d+)_1$")

DEFAULT_GRID_SPEC = (Fraction(1, 20), 20, 60)


def _direct_s(series: FourierSeries, deriv: FourierSeries, m: int, t, safety) -> tuple:
    """(s, tolerance) for s = m·F − 2πt·F' summed directly at height t."""
    tm = _mpf(t)
    term1 = m * _series_value(series, t)
    term2 = 2 * mp.pi * tm * _series_value(deriv, t)
    s = term1 - term2
    scale = abs(term1) + abs(term2)
    tails = m * _tail_bound(series, t, safety) + 2 * mp.pi * tm * _tail_bound(deriv, t, safety)
    return s, tails + mp.ldexp(1, 12 - mp.prec) * scale


def _transformed_s(bundle, m: int, t, safety) -> tuple:
    """(s, tolerance) for a depth-1 form via one cancellation-free sum.

    Substituting both inversion formulas into s = m·F − 2πt·F' and
    collecting powers of u = 1/t gives

        s = sgn*((m-w)*u^w*X(iu) + 2π*u^(w+1)*X'(iu) − 12*u^w*B'(iu)
                  + (6*(w−1−m)/π)*u^(w-1)*B(iu)).

    At m = w−1 the B-term vanishes identically; this matters because the
    separate F and 2πt·F' values then agree to their leading asymptotic
    order and subtracting them loses ~2πu/ln 2 bits as t → 0.
    """
    w, sgn, x_series, xp_series, b_series, bp_series = bundle
    pi = mp.pi
    u = 1 / _mpf(t)
    term1 = (m - w) * u**w * _series_value(x_series, u)
    term2 = 2 * pi * u ** (w + 1) * _series_value(xp_series, u)
    term3 = -12 * u**w * _series_value(bp_series, u)
    term4 = 6 * (w - 1 - m) / pi * u ** (w - 1) * _series_value(b_series, u)
    s = sgn * (term1 + term2 + term3 + term4)
    scale = abs(term1) + abs(term2) + abs(term3) + abs(term4)
    tails = (
        abs(m - w) * u**w * _tail_bound(x_series, u, safety)
        + 2 * pi * u ** (w + 1) * _tail_bound(xp_series, u, safety)
        + 12 * u**w * _tail_bound(bp_series, u, safety)
        + abs(6 * (w - 1 - m)) / pi * u ** (w - 1) * _tail_bound(b_series, u, safety)
    )
    return s, tails + mp.ldexp(1, 12 - mp.prec) * scale


def _depth1_bundle(w: int, order: int):
    comp = x_w1_components(w, order)
    x_series = comp.recompose()
    b_series = comp.e2_part
    return (w, _sign_factor(w), x_series, x_series.derivative(), b_series, b_series.derivative())


def monotonicity_scan(
    form_label: str,
    m: int,
    grid_spec: tuple = DEFAULT_GRID_SPEC,
    cfg: EvalConfig | None = None,
) -> ScanReport:
    """Scan the sign of d/dt [t^m F(it)] on a geometric grid.

    ``grid_spec`` is (t_min, t_max, points).  Depth-1 labels are summed
    through the inversion route below t = 1 and directly above; all other
    labels are summed directly with the truncation order chosen for the
    smallest grid height.  Verdicts: ``sign_change_found`` when two
    consecutive grid points carry strictly opposite signs beyond
    tolerance, ``monotone_decreasing_on_grid`` when every point is <= 0
    within tolerance, ``not_decreasing_on_grid`` otherwise.
    """
    if m <= 0:
        raise ValueError(f"the exponent m must be positive, got {m}")
    cfg = cfg or EvalConfig()
    t_min, t_max, points = grid_spec
    with mp.workprec(cfg.precision_bits):
        grid = geometric_grid(t_min, t_max, points)
        match = _DEPTH1_LABEL.match(form_label)
        pairs = []
        if match:
            bundle = _depth1_bundle(int(match.group(1)), cfg.order_for(1))
            x_series, xp_series = bundle[2], bundle[3]
            for t in grid:
                if t < 1:
                    pairs.append(_transformed_s(bundle, m, t, cfg.tail_safety))
                else:
                    pairs.append(_direct_s(x_series, xp_series, m, t, cfg.tail_safety))
        else:
            series = form_by_label(form_label, cfg.order_for(t_min))
            deriv = series.derivative()
            for t in grid:
                pairs.append(_direct_s(series, deriv, m, t, cfg.tail_safety))

        s_values = tuple(s for s, _ in pairs)
        signs = [0 if abs(s) <= tol else (1 if s > 0 else -1) for s, tol in pairs]
        changes = []
        last_sign = 0
        last_idx = -1
        for idx, sig in enumerate(signs):
            if sig == 0:
                continue
            if last_sign and sig != last_sign:
                changes.append((grid[last_idx], grid[idx]))
            last_sign, last_idx = sig, idx
        if changes:
            verdict = "sign_change_found"
        elif all(sig <= 0 for sig in signs):
            verdict = "monotone_decreasing_on_grid"
        else:
            verdict = "not_decreasing_on_grid"
    return ScanReport(
        label=form_label,
        m=m,
        grid=grid,
        s_values=s_values,
        sign_changes=tuple(changes),
        verdict=verdict,
    )


def curve_points(form_label: str, m: int, grid: Sequence, cfg: EvalConfig | None = None) -> list:
    """(t, t^m · F(it)) pairs over ``grid`` — the data behind sign scans.

    Depth-1 labels use the inversion route below t = 1, like the scans.
    """
    cfg = cfg or EvalConfig()
    out = []
    with mp.workprec(cfg.precision_bits):
        match = _DEPTH1_LABEL.match(form_label)
        series = form_by_label(form_label, cfg.order_for(min(grid)))
        components = x_w1_components(int(match.group(1)), cfg.order_for(1)) if match else None
        for t in grid:
            tm = _mpf(t)
            if components is not None and t < 1:
                value = eval_depth1_transformed(components, t, cfg)["F_value"]
            else:
                value = _series_value(series, t)
            out.append((tm, tm**m * value))
    return out


# ---------------------------------------------------------------------------
# tangent-line and small-t criteria
# ---------------------------------------------------------------------------

# For these labels the bracket form (m+1)(F')^2 - m*F''*F has a closed
# product shape in the identity registry: a positive rational multiple of
# a power of Delta times a cofactor with nonnegative coefficients, so its
# positivity on the axis follows from Delta's product expansion once the
# identity is verified exactly and the cofactor scanned.
_BRACKET_ROUTES: dict = {
    "X6_1": ("BR-61", lambda order: form_by_label("X4_2", order)),
    "X12_1": ("BR-121", lambda order: form_by_label("F", order)),
    "X14_1": ("BR-141", lambda order: form_by_label("X8_2", order)),
}

_CP_SCAN_ORDER = 500


def _delta_axis_positive(cfg: EvalConfig) -> bool:
    """Delta(it) > 0 for every t > 0.

    Structurally true: Delta = q·prod (1-q^n)^24 and 0 < q = e^(-2*pi*t) < 1
    makes every factor positive.  Spot-confirmed numerically here so the
    claim is also exercised by the floating layer.
    """
    series = delta_series(cfg.order_for(Fraction(3, 10)))
    for t in (Fraction(3, 10), 1, 10):
        report = eval_at_it(series, t, cfg)
        if not report["value"] > report["tail_estimate"]:
            return False
    return True


def _aitken_limit(values: Sequence) -> mp.mpf:
    """Accelerated limit of three successive approximations.

    Falls back to the last value when the second difference is at the
    rounding floor (i.e. the sequence has already converged).
    """
    r1, r2, r3 = values
    denom = r3 - 2 * r2 + r1
    if abs(denom) <= mp.ldexp(1, 16 - mp.prec) * max(abs(r3), mp.mpf(1)):
        return r3
    return r3 - (r3 - r2) ** 2 / denom


def tangent_conditions(form, components: Depth1Components, m: int, cfg: EvalConfig | None = None) -> dict:
    """Hypotheses making t = 0 a tangent line of t^m F(it) from below.

    Checks, in order: F and F' have nonnegative coefficients through order
    500 (a sufficient positivity condition); F/(t·F') tends to 2π/m as
    t → 0+ (inversion-route values at t = 0.2, 0.1, 0.05, accelerated);
    and the bracket form (m+1)(F')² − m·F''·F is positive on the axis —
    through the registry's closed product shape when one exists for the
    label, otherwise by scanning the bracket's own coefficients to order
    500.  Returns {"limit_ratio", "bracket_form_positive", "verdict"}.
    """
    if m <= 0:
        raise ValueError(f"the exponent m must be positive, got {m}")
    cfg = cfg or EvalConfig()
    with mp.workprec(cfg.precision_bits):
        label, series = (form, form_by_label(form, _CP_SCAN_ORDER)) if isinstance(form, str) else ("<series>", form)
        through = min(_CP_SCAN_ORDER, int(series.order))
        cp_ok = (
            check_complete_positivity(series, through).completely_positive_up_to_order
            and check_complete_positivity(series.derivative(), through).completely_positive_up_to_order
        )

        ratios = []
        for t in (Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)):
            values = eval_depth1_transformed(components, t, cfg)
            ratios.append(values["F_value"] / (_mpf(t) * values["Fprime_value"]))
        limit_ratio = _aitken_limit(ratios)
        target = 2 * mp.pi / m
        limit_ok = abs(limit_ratio - target) <= mp.mpf("1e-10") * target

        route = _BRACKET_ROUTES.get(label)
        if route is not None:
            ident, cofactor = route
            bracket_positive = (
                verify(ident).passed
                and check_complete_positivity(cofactor(_CP_SCAN_ORDER), _CP_SCAN_ORDER).completely_positive_up_to_order
                and _delta_axis_positive(cfg)
            )
        else:
            deriv = series.derivative()
            bracket = (deriv * deriv).scale(m + 1) - (deriv.derivative() * series).scale(m)
            scan_to = min(_CP_SCAN_ORDER, int(bracket.order))
            bracket_positive = check_complete_positivity(bracket, scan_to).completely_positive_up_to_order

        verdict = "pass" if (cp_ok and limit_ok and bracket_positive) else "fail"
    return {
        "limit_ratio": limit_ratio,
        "bracket_form_positive": bracket_positive,
        "verdict": verdict,
    }


def limit_t0(components: Depth1Components, w: int, cfg: EvalConfig | None = None) -> dict:
    """Measured vs predicted limit of t^(w-1) · F(it) as t → 0+.

    Through the inversion route, t^(w-1)·F(it) = sgn·(u·X(iu) − (6/π)·B(iu))
    with u = 1/t, so the limit is −6·sgn·β₀/π where β₀ is the constant
    term of the E2-companion; the measured value evaluates the same
    expression at u = 20 and u = 40 and reports the latter.
    """
    if w < 6 or w % 2:
        raise ValueError(f"the depth-1 family needs even weight >= 6, got {w}")
    if components.weight != w:
        raise ValueError(f"components have weight {components.weight}, expected {w}")
    cfg = cfg or EvalConfig()
    with mp.workprec(cfg.precision_bits):
        sgn = _sign_factor(w)
        beta0 = components.e2_part.coefficient(0)
        predicted = _mpf(Fraction(-6 * sgn) * beta0) / mp.pi
        x_series = components.recompose()
        b_series = components.e2_part
        measured = None
        for u in (20, 40):
            measured = sgn * (u * _series_value(x_series, u) - 6 / mp.pi * _series_value(b_series, u))
    return {"measured": measured, "predicted": predicted}


def small_t_positivity_check(w: int, cfg: EvalConfig | None = None) -> bool:
    """Sign criterion forcing t^(w-1)·X_(w,1)(it) to decrease near t = 0.

    Exact part: sgn·β₁ > 0, where β₁ is the first-order coefficient of the
    E2-companion and sgn = (−1)^(w/2).  Numeric part: the transformed
    derivative combination sgn·u^w·(X(iu) + 12·B'(iu) − 2π·u·X'(iu)) is
    positive at u ∈ {5, 10, 20} (these heights are the inverted images of
    t = 1/5, 1/10, 1/20).  Both must hold; requires even w >= 12.
    """
    if w < 12 or w % 2:
        raise ValueError(f"the criterion applies to even weights >= 12, got {w}")
    cfg = cfg or EvalConfig()
    with mp.workprec(cfg.precision_bits):
        sgn = _sign_factor(w)
        comp = x_w1_components(w, cfg.order_for(5))
        beta1 = comp.e2_part.coefficient(1)
        exact_ok = sgn * beta1 > 0
        x_series = comp.recompose()
        xp_series = x_series.derivative()
        bp_series = comp.e2_part.derivative()
        numeric_ok = True
        for u in (5, 10, 20):
            expr = sgn * mp.mpf(u) ** w * (
                _series_value(x_series, u)
                + 12 * _series_value(bp_series, u)
                - 2 * mp.pi * u * _series_value(xp_series, u)
            )
            numeric_ok = numeric_ok and expr > 0
    return bool(exact_ok and numeric_ok)
