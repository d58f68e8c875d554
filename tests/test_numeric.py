"""Floating-layer checks: special values, inversion routes, and scans."""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import to_rational

from qmforms import cli, extremal, forms, numeric
from qmforms.extremal import a_w_exponent, describe_label, form_by_label, x_w1, x_w1_components
from qmforms.forms import recompose_parts
from qmforms.numeric import EvalConfig, NonPositiveT, ScanReport
from qmforms.qseries import FourierSeries

sys.path.insert(0, str(Path(__file__).resolve().parent))
import e2_reference  # noqa: E402
import numeric_reference  # noqa: E402


BITS = 128
SRC = Path(__file__).resolve().parent.parent / "src"


def series_read(series, t, bits=BITS) -> dict:
    """``{"value", "tail_estimate"}`` of a series summed as stored: the one-series
    direct route that ``eval_at_it`` reads for a label without x-parts."""
    value, tail = numeric._AxisRoute((series,), None, bits).value(t).as_mpf(bits)
    return {"value": value, "tail_estimate": tail}


def value_at(form, t, cfg=None):
    """F(it) of a label, or of a series summed as stored."""
    if isinstance(form, str):
        return numeric.eval_at_it(form, t, cfg)["value"]
    return series_read(form, t, (cfg or EvalConfig()).precision_bits)["value"]


def df_ball(route, t, table=None) -> numeric.Ball:
    """DF(it) off a route, D = q·d/dq: its F′ summed directly at t >= 1 or
    without a weight, else (−1)^(w/2+1)·u^(w+2)·Σ_p x^p·Ψ_p(iu) from Ψ_p
    evaluators built here."""
    height = numeric._height(t, table, route.prec)
    if height.above or route.w is None:
        return height.sum(((numeric.Ball(1, 0, 0), route.fp),))
    psi = [(p, numeric.AxisEvaluator(g, route.prec)) for p, g in enumerate(route._psi) if not g.is_zero()]
    return route._inverted(route.w + 2, psi, height)


def mpf_of(x):
    """A rational as an mpf at mpmath's working precision."""
    return mp.mpf(x) if isinstance(x, int) else mp.mpf(x.numerator) / x.denominator


def exact(x) -> Fraction:
    """An mpf's exact value."""
    return Fraction(*to_rational(x._mpf_))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_rejects_low_precision():
    with pytest.raises(ValueError):
        EvalConfig(precision_bits=32)


@pytest.mark.parametrize("bits", (100.5, "128", True, 128.0))
def test_config_refuses_a_precision_that_is_not_an_int(bits):
    # a float or a string once passed and failed deep in the sums; a bool is not a precision
    with pytest.raises(TypeError, match="precision_bits must be an int"):
        EvalConfig(precision_bits=bits)


def test_config_defaults_and_order_floor():
    cfg = EvalConfig()
    assert cfg.precision_bits == 128
    assert cfg.order_for(1) == 200
    assert cfg.order_for(Fraction(1, 20)) == 800


@given(st.integers(64, 256), st.fractions(Fraction(1, 100), 40))
@settings(max_examples=60)
def test_order_for_is_unchanged_up_to_256_bits(bits, t):
    assert EvalConfig(bits).order_for(t) == max(200, math.ceil(40 / float(t)))


def test_order_for_deepens_above_256_bits():
    assert EvalConfig(512).order_for(Fraction(1, 20)) == 1600
    assert EvalConfig(512).order_for(1) == 200


def test_custom_order_policy_still_accurate_at_large_t():
    a = value_at(form_by_label("E4", 40), 3)
    b = value_at("E4", 3)
    assert abs(a - b) < mp.mpf("1e-30")


def test_numeric_loads_only_the_layers_it_sums_with():
    # a fresh interpreter: the axis layer needs no identities, lambert or positivity
    code = "import sys, qmforms.numeric; print(*sorted(m for m in sys.modules if m.startswith('qmforms.')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["qmforms.extremal", "qmforms.forms", "qmforms.numeric", "qmforms.qseries"]


# ---------------------------------------------------------------------------
# point evaluation and tails
# ---------------------------------------------------------------------------


def test_eval_rejects_nonpositive_t():
    with pytest.raises(NonPositiveT):
        numeric.eval_at_it("E4", 0)
    with pytest.raises(ValueError):
        numeric.eval_at_it("E4", -2)


def test_e2_at_i_is_three_over_pi():
    report = numeric.eval_at_it("E2", 1)
    with mp.workprec(BITS):
        assert abs(report["value"] - 3 / mp.pi) < mp.mpf("1e-30")


def test_e6_vanishes_at_i():
    report = numeric.eval_at_it("E6", 1)
    bound = report["tail_estimate"] + mp.mpf(10) ** (-0.3 * BITS)
    assert abs(report["value"]) < bound
    assert abs(report["value"]) < mp.mpf("1e-25")


def test_e4_at_i_closed_form():
    report = numeric.eval_at_it("E4", 1)
    with mp.workprec(BITS):
        ref = 3 * mp.gamma(Fraction(1, 4)) ** 8 / (64 * mp.pi**6)
        assert abs(report["value"] - ref) / ref < mp.mpf("1e-25")


def test_x101_at_i_closed_form_and_floor():
    report = numeric.eval_at_it("X10_1", 1)
    with mp.workprec(BITS):
        ref = 3 * mp.gamma(Fraction(1, 4)) ** 16 / (327680 * mp.pi**13)
        assert abs(report["value"] - ref) / ref < mp.mpf("1e-15")
        assert report["value"] > 1 / (120 * mp.pi)


def test_critical_point_of_weight8_power_form():
    x81 = x_w1(8, 300)
    with mp.workprec(BITS):
        f = value_at(x81, 1)
        fp = value_at(x81.derivative(), 1)
        assert abs(7 * f - 2 * mp.pi * fp) < mp.mpf("1e-15")


def test_delta_small_at_height_ten():
    report = numeric.eval_at_it("Delta", 10)
    with mp.workprec(BITS):
        assert report["value"] > 0
        assert report["value"] < 2 * mp.e ** (-20 * mp.pi)


def test_tail_estimate_is_honest_for_truncated_series():
    coarse = series_read(x_w1(6, 60), Fraction(3, 10))
    fine = value_at(x_w1(6, 600), Fraction(3, 10))
    assert abs(coarse["value"] - fine) < coarse["tail_estimate"]


def test_tail_skips_trailing_structural_zeros():
    padded = FourierSeries.from_coefficients([0, 1, 0, 0])
    bare = FourierSeries.from_coefficients([0, 1])
    t = Fraction(1, 2)
    assert series_read(padded, t)["tail_estimate"] == series_read(bare, t)["tail_estimate"]
    zero = FourierSeries.from_coefficients([0, 0])
    assert series_read(zero, t)["tail_estimate"] == 0


def test_a_constant_series_has_no_tail_heuristic():
    # with no nonconstant term stored there is no decay to extrapolate, so
    # only the rounding of the sum is left
    for t in (Fraction(1, 20), 1, 20):
        point = series_read(FourierSeries.one(10), t)
        assert point["value"] == 1 and point["tail_estimate"] < mp.ldexp(1, -100)


EVALUATOR_LABELS = (
    "E2", "E4", "Delta", "X6_1", "X8_1", "X10_1", "X12_1", "X14_1",
    "X4_2", "X8_2", "X10_2", "X12_2", "X14_2", "H2", "L10",
)


def horner(coeffs, q):
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * q + mpf_of(c)
    return acc


class Point(NamedTuple):
    value: mp.mpf
    dropped: mp.mpf
    beyond: mp.mpf
    rounding: mp.mpf
    terms: int
    ball: numeric.Ball


def point_at(series, t, prec):
    """One ``AxisEvaluator._sum`` of ``series`` at z = it, at ``prec`` bits: the
    ball's midpoint, its radius split into the dropped-terms bound, the
    heuristic past the stored order and the rest (every rounding, the
    midpoint's own at ``prec`` bits included), the terms summed, and the ball."""
    evaluator = numeric.AxisEvaluator(series, prec)
    ball, logs, terms = evaluator._sum(numeric._fixed_q(t, evaluator.grain, evaluator._prec))
    dropped, beyond = (1 << max(0, math.ceil(lg + 2**-20) - ball.exp) if lg > -math.inf else 0 for lg in logs[:2])
    rounding = ball.rad - dropped - beyond + (abs(ball.mid) >> prec)
    return Point(*(numeric._to_mpf(numeric.Ball(k, 0, ball.exp), prec) for k in (ball.mid, dropped, beyond, rounding)), terms, ball)


def assert_tail_is_the_trimmed_radius(point, tail, prec):
    """``tail``, at ``prec`` bits, is never below the sum's dropped + beyond +
    rounding, and above them by under two units of the last place a route
    read trims the ball to (the radius rounded up to it, and one unit for the
    floored midpoint) plus its own rounding up to ``prec`` bits."""
    ball, tail = point.ball, exact(tail)
    parts = Fraction(ball.rad + (abs(ball.mid) >> prec)) * Fraction(2) ** ball.exp
    unit = Fraction(2) ** ball.trim(prec).exp
    assert parts <= tail < parts + 2 * unit + tail * Fraction(2) ** (1 - prec)


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(EVALUATOR_LABELS),
    t=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(20), max_denominator=1000),
)
def test_evaluator_dropped_bound_covers_the_skipped_terms(label, t):
    series = form_by_label(label, 800)
    point = point_at(series, t, BITS)
    assert 0 < point.terms <= len(series.coeffs)
    with mp.workprec(BITS + 64):
        q = mp.exp(-2 * mp.pi * mpf_of(t) / series.grain)
        head = series.coeffs[: point.terms]
        skipped = q**point.terms * horner(series.coeffs[point.terms:], q)
        assert abs(skipped) <= point.dropped
        # the working-precision sum may also be off by its own rounding
        rounding = mp.ldexp(horner([abs(c) for c in head], q), 1 - BITS)
        assert abs(point.value - horner(series.coeffs, q)) <= point.dropped + rounding
    assert series_read(series, t)["tail_estimate"] >= point.dropped


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(EVALUATOR_LABELS),
    t=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(20), max_denominator=1000),
    bits=st.sampled_from([64, 128, 200]),
)
def test_evaluator_rounding_bound_covers_the_summed_terms(label, t, bits):
    series = form_by_label(label, 800)
    point = point_at(series, t, bits)
    coeffs = series.coeffs
    with mp.workprec(bits + 64):
        q = mp.exp(-2 * mp.pi * mpf_of(t) / series.grain)
        assert abs(point.value - horner(coeffs[: point.terms], q)) <= point.rounding
        assert abs(point.value - horner(coeffs, q)) <= point.dropped + point.rounding
    # eval's tail is the radius of a route read, which trims the ball outward
    assert_tail_is_the_trimmed_radius(point, series_read(series, t, bits)["tail_estimate"], bits)


@settings(max_examples=80, deadline=None)
@given(
    grain=st.integers(1, 3),
    runs=st.lists(st.tuples(st.integers(0, 60), st.integers(-(2**90), 2**90)), min_size=1, max_size=12),
    den=st.one_of(st.just(1), st.integers(2**69, 2**70)),
    t=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(20), max_denominator=1000),
    bits=st.sampled_from([64, 128, 200]),
)
def test_evaluator_bounds_hold_on_random_series(grain, runs, den, t, bits):
    # mixed signs, 70-bit denominators and long runs of zeros, any grain to 3:
    # the integer sum against an mpf Horner sum of the Fractions 64 bits higher
    coeffs = [c for zeros, num in runs for c in [0] * zeros + [Fraction(num, den)]]
    series = FourierSeries.from_coefficients(coeffs, grain)
    point = point_at(series, t, bits)
    with mp.workprec(bits + 64):
        q = mp.exp(-2 * mp.pi * mpf_of(t) / grain)
        assert abs(point.value - horner(series.coeffs[: point.terms], q)) <= point.rounding
        assert abs(point.value - horner(series.coeffs, q)) <= point.dropped + point.rounding


@settings(max_examples=80, deadline=None)
@given(
    t=st.one_of(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(200), max_denominator=10**6),
                st.floats(min_value=0.01, max_value=200).map(Fraction)),
    grain=st.integers(1, 3),
    prec=st.sampled_from([80, 144, 216, 528]),
)
def test_fixed_point_q_is_within_its_stated_error(t, grain, prec):
    x, big_q, shift = numeric._fixed_q(t, grain, prec)
    assert big_q >= 2 ** (prec + 4)
    with mp.workprec(prec + 64):
        exact_x = 2 * mp.pi * mpf_of(t) / grain
        assert abs(mp.ldexp(big_q, -shift) / mp.exp(-exact_x) - 1) <= mp.ldexp(1, -prec - 2)
        assert abs(x - exact_x) <= 1e-15 * exact_x


@settings(max_examples=60, deadline=None)
@given(st.integers(64, 600))
def test_integer_pi_and_ln2_are_within_two_units(bits):
    pi, ln2 = numeric._constants(bits)
    with mp.workprec(bits + 64):
        assert abs(pi - mp.ldexp(mp.pi, bits)) <= 2 and abs(ln2 - mp.ldexp(mp.ln2, bits)) <= 2


@settings(max_examples=150, deadline=None)
@given(
    t=st.one_of(st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(10**9), max_denominator=10**12),
                st.floats(min_value=1e-9, max_value=1e9).map(Fraction)),
    grain=st.integers(1, 3),
    prec=st.sampled_from([64, 80, 144, 216, 400, 528]),
)
@example(t=Fraction(1, 10**9), grain=1, prec=528)
@example(t=Fraction(10**9), grain=3, prec=528)
@example(t=Fraction(10**9 - 1, 7), grain=2, prec=80)
def test_integer_q_is_within_its_stated_error_from_1e_minus_9_to_1e9(t, grain, prec):
    # the integer e^(−x) at heights far from 1, against mpmath at +120 bits:
    # 80, and room for the up to 33 bits of x's integer part
    x, big_q, shift = numeric._fixed_q(t, grain, prec)
    assert 2 ** (prec + 4) <= big_q < 2 ** (prec + 7)
    with mp.workprec(prec + 80 + 40):
        exact_x = 2 * mp.pi * mpf_of(t) / grain
        assert abs(mp.ldexp(big_q, -shift) / mp.exp(-exact_x) - 1) <= mp.ldexp(1, -prec - 2)
        assert abs(x - exact_x) <= 1e-15 * exact_x


def test_floating_reads_call_neither_mpmath_exp_nor_pi(monkeypatch, capsys):
    # q, π, 1/π, ln 2 and the inversion factors are integers: no read on either
    # side of t = 1, no route build and no plotdata, scan, limits or s_at_it
    # value asks mpmath for them
    def forbidden(*args):
        raise AssertionError("mpmath's exp or pi was called")

    numeric._inverting_route.cache_clear(), numeric._x_power.cache_clear()
    monkeypatch.setattr(mp, "exp", forbidden)
    monkeypatch.setattr(mp.pi, "func", forbidden)
    for argv in (["eval", "X12_1", "--t", "3/10"], ["eval", "X12_1", "--t", "3"], ["eval", "E2", "--t", "1/3"],
                 ["eval", "X16_2", "--t", "0.2"], ["plotdata", "X8_2", "--m", "7", "--points", "12"],
                 ["limits", "X12_1"]):
        assert cli.run(argv) == 0, argv
    numeric.monotonicity_scans(cli.SCAN_PAIRS[:4])
    numeric.s_at_it("X8_1", 7, Fraction(1, 2)), numeric.s_at_it("X8_1", 7, 2)
    capsys.readouterr()


def test_one_exp_per_height_for_all_evaluators_of_a_route(monkeypatch):
    route = route_for("X8_2")
    calls, fixed_q = [], numeric._fixed_q
    monkeypatch.setattr(numeric, "_fixed_q", lambda *a: calls.append(a) or fixed_q(*a))
    for t in (Fraction(1, 3), Fraction(2**128 // 7, 2**128), 2):
        # below t = 1 the four T_p evaluators, above it F and DF
        route.s(7, t)
        assert len(calls) == 1, t
        calls.clear()


def test_a_scan_builds_only_the_evaluators_it_sums(monkeypatch):
    # F and DF above t = 1, the T_p below it; the Φ_p and Ψ_p that only
    # value and derivative read below t = 1 are not built
    t_series = route_for("X8_2", EvalConfig().order_for(1)).t_series(7)
    numeric._inverting_route.cache_clear()
    built, init = [], numeric.AxisEvaluator.__init__
    monkeypatch.setattr(numeric.AxisEvaluator, "__init__",
                        lambda self, series, prec: built.append(series) or init(self, series, prec))
    numeric.monotonicity_scan("X8_2", 7)
    assert len(built) == 2 + sum(not series.is_zero() for series in t_series)


def test_rounding_bound_of_a_zero_series_is_zero():
    point = point_at(FourierSeries.zero(5), Fraction(1, 3), BITS)
    assert point.value == point.rounding == 0


def test_evaluator_sums_each_point_only_as_far_as_it_needs():
    series = form_by_label("X12_2", 800)
    high, low = point_at(series, 20, BITS), point_at(series, Fraction(1, 20), BITS)
    assert high.terms < 10
    assert 100 < low.terms <= len(series.coeffs)
    assert high.dropped > 0 and high.value > 0


def test_reads_of_f_alone_never_differentiate(monkeypatch):
    # eval and plotdata read only F, so neither builds F′ nor DF's parts
    grid = (Fraction(1, 20), 1, Fraction(5, 2))
    calls, derivative = [], FourierSeries.derivative
    monkeypatch.setattr(FourierSeries, "derivative", lambda self: calls.append(self) or derivative(self))
    for t in grid:
        numeric.eval_at_it("E2", t)
        numeric.eval_at_it("Y8_2", t)
    numeric.curve_points("L", 3, grid)
    assert calls == []


ROUTED = ("E6", "X12_1", "X8_2")  # depth 0, 1 and 2


def count_psi_builds(monkeypatch) -> list:
    """The weight of each route whose Ψ_p are formed, from here on."""
    numeric._inverting_route.cache_clear()
    calls, build = [], numeric._AxisRoute._psi.func
    spy = cached_property(lambda route: calls.append(route.w) or build(route))
    spy.__set_name__(numeric._AxisRoute, "_psi")
    monkeypatch.setattr(numeric._AxisRoute, "_psi", spy)
    return calls


@pytest.mark.parametrize("bits", (128, 256))
@pytest.mark.parametrize("label", ROUTED)
def test_reads_of_f_build_none_of_dfs_parts(label, bits):
    # a route's build check sums F′ at t = 1 from Φ_0's derivative alone;
    # DF's parts Ψ_p wait for a DF or s read below t = 1
    numeric._inverting_route.cache_clear()
    cfg = EvalConfig(bits)
    for t in (Fraction(3, 10), 3):
        numeric.eval_at_it(label, t, cfg)
    numeric.curve_points(label, 5, (Fraction(1, 20), Fraction(3, 10), 2), cfg)
    numeric.limit_t0(12, cfg)
    routes = [numeric._inverting_route(name, bits) for name in (label, "X12_1")]
    assert not any("_psi" in route.__dict__ for route in routes)
    numeric.s_at_it(label, 5, 1, cfg)
    assert not any("_psi" in route.__dict__ for route in routes)


@pytest.mark.parametrize("label", ROUTED)
def test_dfs_parts_are_built_once_per_route_on_the_first_read_below_one(monkeypatch, label):
    calls, w = count_psi_builds(monkeypatch), describe_label(label).weight
    route = numeric._axis_route(label, Fraction(1, 20), EvalConfig())
    route.s(w - 1, 2)
    assert calls == []
    for t in (Fraction(3, 10), Fraction(1, 7)):
        route.s(w - 1, t)
    route.s(w + 1, Fraction(3, 10))
    assert calls == [w]
    numeric._inverting_route.cache_clear()
    numeric.monotonicity_scans([(label, w - 1), (label, w + 1)])
    assert calls == [w, w]


@pytest.mark.parametrize("label", ROUTED)
def test_a_routes_psi0_is_its_f_derivative_and_its_first_reads_reuse_f_and_fp(label):
    # F′ sums Ψ_0; s above t = 1 reads f and fp, and Φ_0 below it reuses f
    route, table = route_for(label), {}
    assert route._psi[0] == route._phi[0].derivative()
    route.s(5, 2, table)
    assert set(table[2]._sums) == {route.f, route.fp}
    assert route._phi_below[0] == (0, route.f)


@pytest.mark.parametrize("order", (40, 210))
def test_dfs_parts_are_the_collected_parts_of_its_e2_parts(order):
    # Ψ_p = DΦ_p + ((w − p + 1)/12)·Φ_(p−1) against the E2 algebra it replaces:
    # DF's E2-parts by Ramanujan's DE2 from the tests' reference E2-parts,
    # shifted E2 -> E2 + x like F's
    labels = [label for label in extremal.known_labels() if describe_label(label).parts is not None]
    for label in (*labels, "X60_1", "X96_1", "X198_1"):
        parts, w = describe_label(label).parts(order), describe_label(label).weight
        want = e2_reference.shifted(e2_reference.derivative_parts(e2_reference.e2_parts(label, order), w))
        assert numeric._AxisRoute(parts, w, BITS)._psi == want, label


def test_kaneko_zagier_routes_build_without_e2_products(monkeypatch):
    # F, X42Delta and X{4..16}_2 take their x-parts from Kaneko–Zagier groups
    # by Horner in D, so their routes form no E2 product and no Serre derivative
    def refuse(*args):
        raise AssertionError("a route formed E2 algebra")

    for module in (forms, extremal):
        monkeypatch.setattr(module, "recompose_parts", refuse)
        monkeypatch.setattr(module, "serre_derivative", refuse)
    for label in ("F", "X42Delta", *(f"X{w}_2" for w in (4, 8, 10, 12, 14, 16))):
        route = numeric._inverting_route.__wrapped__(label, BITS)
        for read in (route.value(Fraction(1, 2)), route.s(describe_label(label).weight - 1, Fraction(1, 2))):
            assert read.mid, label


def test_s_at_it_is_a_scans_read_on_the_cached_route():
    numeric._inverting_route.cache_clear()
    scan = numeric.monotonicity_scan("X8_1", 7, (Fraction(1, 2), 1, 2))
    read = numeric.s_at_it("X8_1", 7, 1)
    assert numeric._inverting_route.cache_info().misses == 1
    assert read["value"] == scan.s_values[-1] and abs(read["value"]) <= read["tail_estimate"]
    with pytest.raises(ValueError, match="no x-parts"):
        numeric.s_at_it("E2", 1, 1)


@settings(max_examples=60, deadline=None)
@given(form=st.one_of(st.sampled_from([label for label in extremal.known_labels() if describe_label(label).weight <= 24]),
                      st.builds(lambda nums, den, grain: FourierSeries.from_coefficients([Fraction(n, den) for n in nums], grain),
                                st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=40),
                                st.integers(1, 2**40), st.integers(1, 3))),
       t=st.fractions(Fraction(1, 20), 20, max_denominator=1000), bits=st.sampled_from((128, 256)))
@example(form="E2", t=Fraction(3, 40), bits=128)
@example(form="B", t=Fraction(1, 20), bits=256)
@example(form="Delta", t=Fraction(1, 20), bits=128)
def test_eval_tolerance_is_the_radius_of_its_route_read(form, t, bits):
    # a label's read is its _axis_route's, the label built at the route's
    # order at t >= 1 on a route with x-parts; a series is read as stored.
    # Where that read is one evaluator's sum, the tail is that sum's radius
    # as the read trims it
    cfg = EvalConfig(bits)
    report = numeric.eval_at_it(form, t, cfg) if isinstance(form, str) else series_read(form, t, bits)
    route = numeric._axis_route(form, t, cfg) if isinstance(form, str) else numeric._AxisRoute((form,), None, bits)
    if route.w is not None and t >= 1:
        route = numeric._AxisRoute((form_by_label(form, int(route._phi[0].order)),), None, bits)
    value, tolerance = route.value(t).as_mpf(bits)
    assert (report["value"], report["tail_estimate"]) == (value, tolerance)
    if route.w is None:
        point = point_at(route._phi[0], t, bits)
        assert report["value"] == point.value
        assert_tail_is_the_trimmed_radius(point, report["tail_estimate"], bits)


def test_series_input_matches_label_route():
    a = value_at(x_w1(6, 300), Fraction(1, 2))
    b = value_at("X6_1", Fraction(1, 2))
    assert abs(a - b) / abs(b) < mp.mpf("1e-30")


# the SL(2,Z) labels of the benchmark's axis workload but E2
AXIS_LABELS = ("E4", "E6", "Delta", *(f"X{w}_1" for w in range(6, 20, 2)), *(f"X{w}_2" for w in (4, 8, 10, 12, 14, 16)))


def test_evaluation_at_ever_new_heights_keeps_memory_bounded():
    # one cache entry per family, at the largest order seen, and one route per
    # label and precision serve every later height: nothing accumulates in a
    # long-lived process
    caches = [f for m in (forms, extremal) for f in vars(m).values() if hasattr(f, "cache_clear")]
    caches = list({id(f): f for f in caches + [numeric._inverting_route]}.values())
    for cache in caches:
        cache.cache_clear()
    configs = (EvalConfig(128), EvalConfig(256))
    heights = [Fraction(1, 20) + Fraction(3, 20) * Fraction(k, 320) for k in range(1, 321)]
    tracemalloc.start()
    try:
        for label in AXIS_LABELS:  # warm-up: every route, and the phi evaluators it reads
            for cfg in configs:
                numeric.eval_at_it(label, Fraction(1, 20), cfg)
        gc.collect()
        sizes, retained = [cache.cache_info().currsize for cache in caches], tracemalloc.get_traced_memory()[0]
        for k, t in enumerate(heights):
            numeric.eval_at_it(AXIS_LABELS[k % 16], t, configs[k // 16 % 2])
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - retained
    finally:
        tracemalloc.stop()
    assert numeric._inverting_route.cache_info().currsize == 2 * len(AXIS_LABELS) == 32
    assert [cache.cache_info().currsize for cache in caches] == sizes
    assert grown < 0.05 * retained


def test_the_route_cache_keeps_the_64_most_recent_routes():
    numeric._inverting_route.cache_clear()
    labels = [f"X{w}_1" for w in range(6, 40, 2)]
    for bits in (64, 96, 128, 160):
        for label in labels:
            numeric.eval_at_it(label, Fraction(1, 2), EvalConfig(bits))
    info = numeric._inverting_route.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (4 * len(labels), 64, 64) and len(labels) == 17


# eval, plotdata and limits ops whose labels are summed through routes
ROUTED_OPS = (
    ["eval", "Delta", "--t", "0.0626", "--format", "json"],
    ["eval", "X12_1", "--t", "0.07", "--format", "json"],
    ["eval", "F", "--t", "2.5", "--format", "json"],
    ["eval", "X42Delta", "--t", "0.3", "--format", "json"],
    ["plotdata", "X8_2", "--m", "7", "--tmin", "0.07", "--tmax", "2.5", "--points", "6"],
    ["limits", "X12_1", "--format", "json"],
)


def _routed_outputs(capsys, bits):
    out = []
    for argv in ROUTED_OPS:
        assert cli.run([*argv, "--bits", str(bits)]) == 0
        out.append(capsys.readouterr().out)
    return out


def test_outputs_do_not_depend_on_what_the_route_cache_holds(capsys):
    # routes are kept per label and precision, and a call keeps its q and
    # T_p for itself: a warm cache gives the bytes a cleared one does
    for bits, other in ((128, 256), (256, 128)):
        numeric._inverting_route.cache_clear()
        cold = _routed_outputs(capsys, bits)
        _routed_outputs(capsys, other)
        numeric.monotonicity_scans([("X12_1", 11), ("X8_2", 7), ("Delta", 11)], (Fraction(1, 20), 20, 9),
                                   EvalConfig(bits))
        assert _routed_outputs(capsys, bits) == cold, bits


# ---------------------------------------------------------------------------
# inversion route
# ---------------------------------------------------------------------------


def test_e2_inversion_residuals():
    with mp.workprec(BITS):
        for t in (Fraction(3, 10), Fraction(1), Fraction(5, 2)):
            lhs = value_at("E2", Fraction(1) / t)
            rhs = value_at("E2", t)
            tm = mp.mpf(t.numerator) / t.denominator
            residual = abs(lhs + tm**2 * rhs - 6 * tm / mp.pi)
            assert residual < mp.mpf("1e-20")


def route_for(label, order=210, bits=BITS):
    """The inverting route of a label with x-parts, built at ``order``."""
    desc = describe_label(label)
    return numeric._AxisRoute(desc.parts(order), desc.weight, bits)


# the labels with x-parts that the floating tests exercise
INVERTED_LABELS = tuple(f"X{w}_1" for w in range(6, 26, 2)) + tuple(f"X{w}_2" for w in (4, 8, 10, 12, 14, 16))


def test_transformed_route_domain():
    route = route_for("X6_1")
    for t in (0, -1):
        for read in (route.value, lambda t: route.s(5, t)):
            with pytest.raises(NonPositiveT):
                read(t)
    # above t = 1 the route sums directly
    assert route.value(Fraction(3, 2)).as_mpf(BITS)[0] == value_at(x_w1(6, 210), Fraction(3, 2))


def test_two_route_agreement_weight12_example():
    routed, tolerance = route_for("X12_1").value(Fraction(4, 5)).as_mpf(BITS)
    direct = value_at("X12_1", Fraction(4, 5))
    assert abs(routed - direct) < mp.mpf("1e-20")
    assert tolerance < mp.mpf("1e-30") * abs(direct)


def test_two_route_agreement_all_depth1_weights():
    # every depth-1 weight to 14, and every depth-2 weight
    for label in ("X6_1", "X8_1", "X10_1", "X12_1", "X14_1") + tuple(f"X{w}_2" for w in (4, 8, 10, 12, 14, 16)):
        route = route_for(label)
        direct = form_by_label(label, 700)
        deriv = direct.derivative()
        for t in (Fraction(3, 10), Fraction(11, 20), Fraction(99, 100)):
            f_value, _ = route.value(t).as_mpf(BITS)
            fp_value, _ = df_ball(route, t).as_mpf(BITS)
            dv = value_at(direct, t)
            dpv = value_at(deriv, t)
            assert abs(f_value - dv) / abs(dv) < mp.mpf("1e-30"), (label, t)
            assert abs(fp_value - dpv) / abs(dpv) < mp.mpf("1e-30"), (label, t)


def test_inversion_fixed_point_at_t_one():
    # at t = 1 the route sums directly; its inverted sums must agree there
    for label in ("X12_1", "X8_2", "X16_2"):
        route = route_for(label)
        psi = [(p, numeric.AxisEvaluator(g, BITS)) for p, g in enumerate(route._psi) if not g.is_zero()]
        with mp.workprec(BITS):
            inverted = route._inverted(route.w, route._phi_below, numeric._Height(1, BITS)).as_mpf(BITS)[0]
            inverted_d = route._inverted(route.w + 2, psi, numeric._Height(1, BITS)).as_mpf(BITS)[0]
            direct, direct_d = route.value(1).as_mpf(BITS)[0], df_ball(route, 1).as_mpf(BITS)[0]
            assert abs(inverted - direct) / abs(direct) < mp.mpf("1e-30"), label
            assert abs(inverted_d - direct_d) / abs(direct_d) < mp.mpf("1e-30"), label


@settings(max_examples=40, deadline=None)
@given(label=st.sampled_from(INVERTED_LABELS),
       t=st.fractions(Fraction(1, 20), 1).filter(lambda t: t < 1),
       bits=st.sampled_from((64, 128, 200)))
@example(label="X4_2", t=Fraction(1, 20), bits=128)
def test_inverted_sums_match_direct_sums(label, t, bits):
    # F and DF through the inversion law, against direct sums of the series
    # built to order 1000 and summed with 64 more bits; X4_2's E2^2-part is
    # a constant, which must take no tail heuristic
    route = route_for(label, EvalConfig().order_for(1), bits)
    routed = route.value(t).as_mpf(bits), df_ball(route, t).as_mpf(bits)
    series = form_by_label(label, 1000)
    with mp.workprec(bits + 64):
        for (value, tolerance), ref in zip(routed, (series, series.derivative())):
            point = point_at(ref, t, bits + 64)
            error = abs(value - point.value)
            assert error <= tolerance + point.dropped + point.beyond + point.rounding, (label, t, bits)
            assert tolerance < mp.ldexp(abs(point.value), 20 - bits)


def test_t1_vanishes_exactly_at_m_equal_w_minus_one_on_depth1():
    for w in range(6, 26, 2):
        route = route_for(f"X{w}_1", 40)
        for m in range(1, w + 2):
            # T_(-1), T_0, T_1: T_1 = (m - w + 1) * E2-part
            terms = route.t_series(m)
            assert len(terms) == 3
            assert terms[2].is_zero() == (m == w - 1), (w, m)
            assert not terms[0].is_zero() and not terms[1].is_zero()
    for w in (8, 12, 16):
        # on depth 2 the top term T_2 = (m - w + 2) * A_2 vanishes at m = w - 2
        route = route_for(f"X{w}_2", 40)
        assert route.t_series(w - 2)[3].is_zero()
        assert not route.t_series(w - 1)[3].is_zero() and not route.t_series(w - 1)[2].is_zero()


def test_derivative_parts_recompose_to_the_derivative():
    # the E2-parts rule the reference component climb takes, on the tests' reference E2-parts
    for label in INVERTED_LABELS:
        desc = describe_label(label)
        parts = e2_reference.e2_parts(label, 60)
        d_parts = e2_reference.derivative_parts(parts, desc.weight)
        assert recompose_parts(d_parts) == recompose_parts(parts).derivative(), label


# ---------------------------------------------------------------------------
# grids and scans
# ---------------------------------------------------------------------------


def mpmath_grid(lo, hi, points, bits):
    """The exact values of the geometric grid mpmath makes at ``bits``."""
    with mp.workprec(bits):
        lo, hi = mpf_of(lo), mpf_of(hi)
        ratio = (hi / lo) ** (mp.mpf(1) / (points - 1))
        return tuple(exact(x) for x in [lo * ratio**k for k in range(points - 1)] + [hi])


def test_geometric_grid_shape():
    grid = numeric.geometric_grid(Fraction(1, 20), 20, 60)
    assert grid == mpmath_grid(Fraction(1, 20), 20, 60, BITS)
    assert len(grid) == 60 and grid[-1] == 20 and abs(grid[0] - Fraction(1, 20)) < Fraction(1, 2**130)
    ratios = [grid[k + 1] / grid[k] for k in range(59)]
    assert max(ratios) - min(ratios) < Fraction(1, 10**30)
    assert numeric.geometric_grid(Fraction(1, 20), 20, 60, EvalConfig(256)) == mpmath_grid(Fraction(1, 20), 20, 60, 256)


def test_grids_built_in_two_threads_at_once_are_the_sequential_grids():
    # a grid sets no global precision that the other thread could change or restore under it
    specs = {bits: (Fraction(1, 20), 20, 60, EvalConfig(bits)) for bits in (64, 256)}
    build = numeric.geometric_grid.__wrapped__
    expected = {bits: build(*spec) for bits, spec in specs.items()}
    assert all(grid == mpmath_grid(Fraction(1, 20), 20, 60, bits) for bits, grid in expected.items())
    built = {bits: [] for bits in specs}

    def build_often(bits):
        built[bits].extend(build(*specs[bits]) for _ in range(40))

    threads = [threading.Thread(target=build_often, args=(bits,)) for bits in specs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert all(built[bits] == [expected[bits]] * 40 for bits in specs)


def test_geometric_grid_validation():
    with pytest.raises(ValueError):
        numeric.geometric_grid(1, 2, 1)
    with pytest.raises(ValueError):
        numeric.geometric_grid(2, 1, 10)


@settings(max_examples=25, deadline=None)
@given(
    lo=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 2)),
    span=st.fractions(min_value=Fraction(2), max_value=Fraction(50)),
    points=st.integers(min_value=2, max_value=40),
)
def test_geometric_grid_sorted_and_bounded(lo, span, points):
    grid = numeric.geometric_grid(lo, lo * span, points)
    assert len(grid) == points
    assert all(grid[k] < grid[k + 1] for k in range(points - 1))
    assert grid == mpmath_grid(lo, lo * span, points, BITS)


def test_scan_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        numeric.monotonicity_scan("X6_1", 0)


def test_scan_rejects_malformed_depth1_labels():
    # the depth-1 dispatch once read these as X12_1
    for label in ("X012_1", "X\u0661\u0662_1", "X12_1\n"):
        with pytest.raises(KeyError, match="unknown form label"):
            numeric.monotonicity_scan(label, 11, (Fraction(1, 2), 2, 3))


DECREASING_PAIRS = (
    ("X6_1", 5),
    ("X12_1", 11),
    ("X14_1", 13),
    ("X8_2", 7),
    ("X10_2", 9),
    ("X12_2", 11),
    ("X14_2", 13),
    ("X8_1", 6),
    ("X10_1", 8),
)


def test_scan_decreasing_pairs():
    for label, m in DECREASING_PAIRS:
        report = numeric.monotonicity_scan(label, m)
        assert report.verdict == "monotone_decreasing_on_grid", (label, m)
        assert report.sign_changes == ()
    # near t = 0, s = (w−1)·F − 2πt·DF lies strictly below minus its tolerance
    for label, m in (("X12_1", 11), ("X16_1", 15)):
        report = numeric.monotonicity_scan(label, m, (Fraction(1, 20), Fraction(1, 5), 3))
        assert report.verdict == "monotone_decreasing_on_grid", (label, m)
        route, grid = numeric._axis_route(label, Fraction(1, 20), EvalConfig()), numeric.geometric_grid(Fraction(1, 20), Fraction(1, 5), 3)
        assert all(ball.mid + ball.rad < 0 for ball in (route.s(m, t) for t in grid)), (label, m)


def test_scan_weight8_exponent_seven_brackets_one():
    report = numeric.monotonicity_scan("X8_1", 7)
    assert report.verdict == "sign_change_found"
    assert len(report.sign_changes) == 1
    lo, hi = report.sign_changes[0]
    assert lo < 1 < hi


def test_scan_weight10_exponent_nine_two_crossings():
    report = numeric.monotonicity_scan("X10_1", 9)
    assert report.verdict == "sign_change_found"
    assert len(report.sign_changes) == 2
    (a_lo, a_hi), (b_lo, b_hi) = report.sign_changes
    assert 0.6 < a_lo < a_hi < 0.8
    assert 1.2 < b_lo < b_hi < 1.5


def test_scan_slow_exponent_family_decreasing():
    for w in range(6, 26, 2):
        label = f"X{w}_1"
        report = numeric.monotonicity_scan(label, a_w_exponent(w))
        assert report.verdict == "monotone_decreasing_on_grid", w


def test_scan_large_exponent_not_decreasing():
    report = numeric.monotonicity_scan("E4", 1000, (Fraction(1, 2), 2, 5))
    assert report.verdict == "not_decreasing_on_grid"
    assert report.sign_changes == ()


def test_scan_report_serializes():
    report = numeric.monotonicity_scan("X8_1", 7, (Fraction(1, 2), 2, 9))
    data = report.to_json_dict()
    text = json.dumps(data, sort_keys=True)
    back = json.loads(text)
    assert back["label"] == "X8_1" and back["m"] == 7
    assert back["verdict"] == "sign_change_found"
    assert len(back["grid"]) == 9 and len(back["s_values"]) == 9
    assert all(isinstance(x, str) for x in back["grid"] + back["s_values"])
    assert all(len(pair) == 2 for pair in back["sign_changes"])


def test_curve_points_show_interior_peak_for_weight8():
    grid = numeric.geometric_grid(Fraction(1, 2), Fraction(8, 5), 9)
    points = numeric.curve_points("X8_1", 7, grid)
    values = [v for _, v in points]
    peak = max(range(len(values)), key=lambda k: values[k])
    assert 0 < peak < len(values) - 1
    assert values[0] < values[peak] and values[-1] < values[peak]


# ⌈2·(128 + GUARD_BITS)·ln 2/2π⌉: a route that sums only at heights >= 1 is
# built where q(1)^32 = 2^-288, twice the working bits
ROUTE_ORDER_128 = 32


def test_curve_points_build_depth1_labels_for_heights_from_one(monkeypatch):
    # the depth-1 series is summed directly only at t >= 1, so it is not
    # built at the order a small grid height would need
    numeric._inverting_route.cache_clear()
    orders, labels = [], []
    components, by_label = extremal.x_w1_components, numeric.form_by_label
    monkeypatch.setattr(extremal, "x_w1_components", lambda w, order: orders.append(order) or components(w, order))
    monkeypatch.setattr(numeric, "form_by_label", lambda label, order: labels.append(label) or by_label(label, order))
    numeric.curve_points("X6_1", 5, (Fraction(3, 50), 2))
    assert orders == [ROUTE_ORDER_128] and ROUTE_ORDER_128 < EvalConfig().order_for(Fraction(1, 20))
    assert labels == []


def test_limit_t0_builds_its_depth1_label_at_the_route_order(monkeypatch):
    # it reads the label's route, so x_w1_components is asked only for the
    # order a route summed at heights >= 1 needs, never for a fixed deeper one
    numeric._inverting_route.cache_clear()
    orders = []
    components = extremal.x_w1_components
    monkeypatch.setattr(extremal, "x_w1_components", lambda w, order: orders.append((w, order)) or components(w, order))
    numeric.limit_t0(12)
    # the components come from X12_1's coordinates alone, with no lower weight's series
    assert orders == [(12, ROUTE_ORDER_128)]


def test_depth2_scans_and_curves_build_for_heights_from_one(monkeypatch):
    # depth-2 labels invert below t = 1 too, so a grid reaching t = 1/20
    # builds their parts for height 1, not at order_for(1/20) = 800
    numeric._inverting_route.cache_clear()
    orders, labels = [], []
    parts, by_label = extremal.x_w2_parts, numeric.form_by_label
    monkeypatch.setattr(extremal, "x_w2_parts", lambda w, order, keep=None: orders.append(order) or parts(w, order, keep))
    monkeypatch.setattr(numeric, "form_by_label", lambda label, order: labels.append(label) or by_label(label, order))
    report = numeric.monotonicity_scan("X8_2", 7, (Fraction(1, 20), 2, 4))
    assert report.verdict == "monotone_decreasing_on_grid"
    numeric.curve_points("X12_2", 11, (Fraction(7, 100), 2))
    assert orders == [ROUTE_ORDER_128] * 2 and ROUTE_ORDER_128 < EvalConfig().order_for(Fraction(1, 20))
    assert labels == []


@settings(max_examples=30, deadline=None)
@given(label=st.one_of(st.integers(3, 20).map(lambda h: f"X{2 * h}_1"),
                       st.sampled_from(tuple(f"X{w}_2" for w in (4, 8, 10, 12, 14, 16)))),
       bits=st.sampled_from((64, 128, 200, 512)),
       m=st.integers(1, 41),
       heights=st.lists(st.fractions(Fraction(1, 20), 20), min_size=1, max_size=3))
@example(label="X40_1", bits=128, m=39, heights=[Fraction(1, 20)])
@example(label="X22_1", bits=64, m=21, heights=[Fraction(1, 20)])
def test_a_route_built_for_height_one_holds_there_and_matches_order_for_one(label, bits, m, heights):
    # every evaluator a scan builds (F, DF, the T_p) cuts inside its stored
    # terms at t = 1, with the tail heuristic below the counted rounding, and
    # its s-values agree with a route built at order_for(1) within both tolerances
    desc = describe_label(label)
    route = numeric._axis_route(label, Fraction(1, 20), EvalConfig(bits))
    reference = numeric._AxisRoute(desc.parts(EvalConfig(bits).order_for(1)), desc.weight, bits)
    assert len(route.f._nums) - 1 < EvalConfig(bits).order_for(1)
    for e in [route.f, route.fp] + [e for _, e in route._below(m)]:
        _, (_, beyond, rounding), n = e._sum(numeric._fixed_q(1, e.grain, e._prec))
        assert n < len(e._nums) and beyond <= rounding, (label, bits, m)
    for t in heights:
        (s, tol), (ref, ref_tol) = route.s(m, t).as_mpf(bits), reference.s(m, t).as_mpf(bits)
        with mp.workprec(bits):
            assert abs(s - ref) <= tol + ref_tol, (label, bits, m, t)


def test_a_batch_forms_each_q_once_and_builds_each_route_once(monkeypatch):
    # C9's 18 (label, m) pairs over 14 labels: one q per summed height (t at
    # t >= 1, 1/t below) and one for each route build's check at t = 1, not
    # one per point; a second batch finds every route built, and each pair's
    # report is the one its own scan gives
    pairs = list(cli.SCAN_PAIRS)
    numeric._inverting_route.cache_clear()
    exps, routes = [], []
    fixed_q, init = numeric._fixed_q, numeric._AxisRoute.__init__
    monkeypatch.setattr(numeric, "_fixed_q", lambda *a: exps.append(a) or fixed_q(*a))
    monkeypatch.setattr(numeric._AxisRoute, "__init__", lambda self, *a, **k: routes.append(a) or init(self, *a, **k))
    reports = numeric.monotonicity_scans(pairs)
    heights = {t if t >= 1 else 1 / t for t in numeric.geometric_grid(*numeric.DEFAULT_GRID_SPEC)}
    assert len(pairs) == 18 and len(routes) == 14
    assert len(heights) == 60 and len(exps) == len(heights) + len(routes)
    exps.clear(), routes.clear()
    assert numeric.monotonicity_scans(pairs) == reports
    assert len(routes) == 0 and len(exps) == len(heights)
    monkeypatch.undo()
    for pair in pairs:
        assert reports[pair] == numeric.monotonicity_scan(*pair), pair


def test_a_batch_sums_each_evaluator_once_per_height(monkeypatch):
    # F and DF at t >= 1 serve every exponent of a label, so X8_1, X10_1,
    # X12_1 and X14_1, each scanned at two exponents, sum them once per
    # height; below t = 1 each pair sums its own T_p.  A cold batch adds each
    # route build's F and DF at t = 1
    pairs = cli.SCAN_PAIRS
    numeric._inverting_route.cache_clear()
    sums, summed = [], numeric.AxisEvaluator._sum
    monkeypatch.setattr(numeric.AxisEvaluator, "_sum", lambda self, q: sums.append(self) or summed(self, q))
    reports = numeric.monotonicity_scans(pairs)
    cold = len(sums)
    sums.clear()
    assert numeric.monotonicity_scans(pairs) == reports
    grid = numeric.geometric_grid(*numeric.DEFAULT_GRID_SPEC)
    above, labels = sum(t >= 1 for t in grid), dict.fromkeys(label for label, _ in pairs)
    below = sum(len(numeric._axis_route(label, grid[0], EvalConfig())._below(m)) for label, m in pairs)
    assert len(sums) == 2 * above * len(labels) + below * (len(grid) - above) <= 2430
    assert cold == len(sums) + 2 * len(labels)


ROUTED_LABELS = [label for label in extremal.known_labels() if describe_label(label).parts is not None]


@pytest.mark.parametrize("label", ROUTED_LABELS)
@settings(max_examples=6, deadline=None)
@given(m=st.integers(1, 50), heights=st.lists(st.fractions(Fraction(1, 200), 200), min_size=1, max_size=3),
       bits=st.sampled_from((64, 128, 256, 1024)))
@example(m=1, heights=[Fraction(1, 200), Fraction(1), Fraction(200)], bits=64)
@example(m=50, heights=[Fraction(1, 200), Fraction(200)], bits=1024)
def test_reads_give_the_reference_arithmetics_integers(label, m, heights, bits):
    # factors by exponent, sums combined as ints and the cut inside each sum
    # leave every ball as the per-(w, p) factors, Ball-by-Ball sums and
    # separate cut give it, through one table and without one; s is read at
    # m and at w − 1, where at t = 200 a modular label's two terms take the
    # one-unit rule
    route, table, reference = numeric._inverting_route(label, bits), {}, {}
    for t in heights:
        reads = [(lambda tab: route.value(t, tab), numeric_reference.value(route, t, reference))]
        reads += [(lambda tab, k=k: route.s(k, t, tab), numeric_reference.s(route, k, t, reference)) for k in (m, route.w - 1)]
        for read, want in reads:
            assert tuple(read(table)) == tuple(read(None)) == tuple(want), (t, want)


def counted(monkeypatch, name: str) -> list:
    """Calls of ``numeric.<name>`` from here on, one entry each."""
    calls, real = [], getattr(numeric, name)
    monkeypatch.setattr(numeric, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_a_batch_rounds_each_height_power_once(monkeypatch):
    # one _ball per (height, w − p), not per (height, w, p): 630 in a warm
    # C9 batch where the per-(w, p) factors made 1,020
    numeric.monotonicity_scans(cli.SCAN_PAIRS)
    balls = counted(monkeypatch, "_ball")
    numeric.monotonicity_scans(cli.SCAN_PAIRS)
    assert len(balls) <= 630


def test_a_batch_read_for_its_verdicts_converts_only_its_grid(monkeypatch):
    # verdicts and sign changes read the 60 grid points; the 1,080 s-values
    # are converted to mpf only when read
    numeric.monotonicity_scans(cli.SCAN_PAIRS)
    conversions = counted(monkeypatch, "_to_mpf")
    reports = numeric.monotonicity_scans(cli.SCAN_PAIRS)
    assert [r.verdict for r in reports.values()] and [r.sign_changes for r in reports.values()]
    assert len(conversions) <= 60
    scan, before = reports["X8_1", 7], len(conversions)
    assert scan.s_values is scan.s_values and len(scan.s_values) == len(scan.s_balls) == 60
    assert len(conversions) == before + 60


@settings(max_examples=40, deadline=None)
@given(label=st.sampled_from(INVERTED_LABELS + ("Delta", "F", "E2")), m=st.integers(1, 25),
       heights=st.lists(st.fractions(Fraction(1, 20), 20), min_size=1, max_size=4),
       bits=st.sampled_from((128, 256)))
@example(label="X8_1", m=7, heights=[Fraction(1, 20), Fraction(1), Fraction(20)], bits=128)
def test_reads_through_a_shared_table_equal_reads_through_a_fresh_one(label, m, heights, bits):
    # a table that other routes, exponents and reads have already filled at
    # the same heights gives every read the same mpf as an empty table
    cfg = EvalConfig(bits)
    route = numeric._axis_route(label, Fraction(1, 20), cfg)
    other = numeric._axis_route("X8_1", Fraction(1, 20), cfg)
    table = {}
    for t in heights:
        other.s(7, t, table)
        other.value(t, table)
        route.s(m + 1, t, table)
        df_ball(route, t, table)
    for t in heights:
        for read in (lambda tab: route.s(m, t, tab), lambda tab: route.value(t, tab),
                     lambda tab: df_ball(route, t, tab)):
            assert read(table) == read({}), (label, m, t, bits)


def test_delta_at_a_large_height_matches_its_product_within_the_tail():
    report = numeric.eval_at_it("Delta", 100000)
    with mp.workprec(BITS + 64):
        q = mp.exp(-2 * mp.pi * 100000)
        assert abs(report["value"] - q * mp.qp(q) ** 24) <= report["tail_estimate"]


@pytest.mark.parametrize("t", [Fraction(626, 10000), Fraction(1, 20), Fraction(1, 200)])
def test_delta_below_one_is_right_to_the_working_bits(t):
    # a direct sum cancels about 80 bits at t = 1/16; through the route the
    # value is t^(-12)·Δ(i/t) within a tail of 2^-120 of it, and positive
    report = numeric.eval_at_it("Delta", t)
    with mp.workprec(300):
        u = 1 / mpf_of(t)
        q = mp.exp(-2 * mp.pi * u)
        want = u**12 * q * mp.qp(q) ** 24
        assert report["value"] > 0
        assert abs(report["value"] - want) <= report["tail_estimate"] <= mp.ldexp(want, -120)


# every label that eval reads from a route
ROUTED_LABELS = ("E4", "E6", "E8", "E10", "Delta", "F", "X42Delta") + INVERTED_LABELS


def test_every_routed_label_builds_at_most_128_terms_at_128_bits():
    for label in ROUTED_LABELS:
        assert describe_label(label).parts is not None, label
        assert numeric._inverting_route(label, 128)._phi[0].order <= 128, label


@pytest.mark.parametrize("label", ["X198_1", "X240_1"])
def test_labels_whose_first_terms_pass_a_routes_order_read_their_value(label):
    # X_(w,1) first has a nonzero coefficient at q^33 from w = 198 on, past the
    # 32 terms a 128-bit route starts from: a route that stored none read 0.0
    # with a tail of 0.0 at t >= 1, so it doubles until F stores one
    series = form_by_label(label, 200)
    for t in (1, 2):
        report = numeric.eval_at_it(label, t)
        with mp.workprec(BITS + 64):
            direct = horner(series.coeffs, mp.exp(-2 * mp.pi * t))
            assert report["value"] != 0 and abs(report["value"] - direct) <= report["tail_estimate"], (label, t)


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(ROUTED_LABELS), t=st.fractions(Fraction(1, 20), 20), bits=st.sampled_from((128, 256)))
@example(label="Delta", t=Fraction(1, 20), bits=128)
@example(label="X42Delta", t=Fraction(1, 3), bits=256)
@example(label="F", t=Fraction(5, 2), bits=128)
def test_routed_eval_matches_a_deep_direct_sum(label, t, bits):
    # against the label built to order 1000 and summed with 64 more bits,
    # wherever that sum cancels by at most 32 bits
    report = numeric.eval_at_it(label, t, EvalConfig(bits))
    series = form_by_label(label, 1000)
    magnitude = FourierSeries(series.grain, tuple(map(abs, series.nums)), series.den)
    with mp.workprec(bits + 64):
        point, size = point_at(series, t, bits + 64), point_at(magnitude, t, bits + 64).value
        if mp.ldexp(abs(point.value), 32) < size:
            return
        error = abs(report["value"] - point.value)
        bound = report["tail_estimate"] + mp.ldexp(abs(point.value), 8 - bits)
        assert error <= bound + point.dropped + point.beyond + point.rounding, (label, t, bits)


@settings(max_examples=200, deadline=None)
@given(mid=st.integers(-(2**400), 2**400), exp=st.integers(-600, 600), den=st.integers(1, 2**400),
       prec=st.integers(64, 300))
def test_mpf_outputs_round_to_nearest_at_the_working_precision(mid, exp, den, prec):
    # a ball's midpoint becomes the mpf that mp.mpf((mid, exp)) makes inside
    # mp.workprec(prec), and a rational num/den the mpf quotient made there
    num = mid >> max(0, abs(mid).bit_length() - prec)  # exact as an mpf
    with mp.workprec(prec):
        assert numeric._to_mpf(numeric.Ball(mid, 0, exp), prec)._mpf_ == mp.mpf((mid, exp))._mpf_
        assert numeric._to_mpf(Fraction(num, den), prec)._mpf_ == (mp.mpf(num) / den)._mpf_


def ambient_reads():
    """Every public floating read, from cold caches."""
    numeric._inverting_route.cache_clear(), numeric.geometric_grid.cache_clear()
    grid = numeric.geometric_grid(Fraction(1, 3), 3, 7)
    return [grid, numeric.eval_at_it("X12_1", Fraction(3, 10)), numeric.eval_at_it("X12_1", 3),
            numeric.eval_at_it("E2", Fraction(1, 3)), numeric.s_at_it("X8_1", 7, Fraction(1, 2)),
            numeric.monotonicity_scans([("X8_1", 7), ("Delta", 11)], (Fraction(1, 3), 3, 7)),
            numeric.curve_points("X8_2", 7, grid), numeric.limit_t0(12)]


def test_reads_do_not_depend_on_mpmaths_ambient_precision():
    reads = ambient_reads()
    for prec in (53, 700):
        with mp.workprec(prec):
            assert ambient_reads() == reads, prec


def test_reads_past_the_height_cap_refuse_before_any_build(monkeypatch):
    numeric._inverting_route.cache_clear()
    built, init = [], numeric._AxisRoute.__init__
    monkeypatch.setattr(numeric._AxisRoute, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    far, near = Fraction(10**15 + 1), Fraction(1, 10**15 + 1)
    for read in (lambda: numeric.eval_at_it("X12_1", far), lambda: numeric.eval_at_it("E2", near),
                 lambda: numeric.s_at_it("X8_1", 7, far), lambda: numeric.curve_points("X8_1", 7, (1, far)),
                 lambda: numeric.monotonicity_scan("X8_1", 7, (near, 1, 3)),
                 lambda: numeric.geometric_grid(1, far, 3)):
        with pytest.raises(numeric.HeightOutOfRange):
            read()
    assert built == []
    assert numeric.eval_at_it("X12_1", 10**15)["value"] > 0 and numeric.eval_at_it("X12_1", Fraction(1, 10**15))["value"] > 0


def holds(ball, x):
    """Whether the ball holds the rational x."""
    return abs(x - Fraction(ball.mid) * Fraction(2) ** ball.exp) <= Fraction(ball.rad) * Fraction(2) ** ball.exp


BALLS = st.builds(numeric.Ball, st.integers(-(2**400), 2**400), st.integers(0, 2**400), st.integers(-500, 500))


@settings(max_examples=200, deadline=None)
@given(a=BALLS, b=BALLS, num=st.integers(-(2**400), 2**400), den=st.integers(1, 2**400),
       bits=st.sampled_from((64, 128, 256)))
@example(a=numeric.Ball(-(2**300) + 1, 2**300 - 1, 0), b=numeric.Ball(0, 0, 0), num=1, den=3, bits=64)
def test_ball_primitives_enclose_every_combination_of_their_endpoints(a, b, num, den, bits):
    # against exact rationals: a height's sum of a and b, and a·b, hold every
    # sum and product of an endpoint of a and one of b; a trim holds both
    # endpoints and keeps bits + 2·GUARD_BITS bits; ⌊num/den⌋ holds num/den
    width, height = bits + 2 * numeric.GUARD_BITS, numeric._Height(1, bits)
    height._sums.update(a=a, b=b)  # the balls stand in for evaluators' sums
    total = height.sum([((1, 0, 0), "a"), ((1, 0, 0), "b")])
    product, trimmed, ratio = a * b, a.trim(bits), numeric._ball(num, den, bits)
    ends = [[Fraction(ball.mid + d * ball.rad) * Fraction(2) ** ball.exp for d in (-1, 1)] for ball in (a, b)]
    for x in ends[0]:
        assert holds(trimmed, x)
        for y in ends[1]:
            assert holds(total, x + y) and holds(product, x * y)
    assert abs(trimmed.mid).bit_length() <= width and trimmed.rad.bit_length() <= width
    assert holds(ratio, Fraction(num, den)) and abs(ratio.mid).bit_length() <= width + 1 and ratio.rad <= 1


@settings(max_examples=100, deadline=None)
@given(a=BALLS, b=BALLS, gap=st.integers(0, 2000), bits=st.sampled_from((64, 128, 256)))
def test_a_ball_far_below_a_wide_midpoint_adds_one_unit_to_its_radius(a, b, gap, bits):
    # a's midpoint has more than bits + 2·GUARD_BITS bits and b lies wholly
    # below one unit of a, ``gap`` bits further down: a height's sum of the
    # two, either way round, is a with one more unit of radius (none if b is
    # an exact 0), trimmed, and holds every sum of their endpoints; an exact 0
    # at any exponent adds nothing
    a = numeric.Ball((1 << 300 | abs(a.mid)) * (-1 if a.mid < 0 else 1), a.rad, a.exp)
    b = numeric.Ball(b.mid, b.rad, a.exp - (abs(b.mid) + b.rad).bit_length() - gap)
    height, one = numeric._Height(1, bits), numeric.Ball(1, 0, 0)
    # the balls stand in for evaluators' sums, under keys of their own
    height._sums.update(a=a, b=b, low_zero=numeric.Ball(0, 0, b.exp), high_zero=numeric.Ball(0, 0, a.exp + gap))
    sums = height.sum([(one, "a"), (one, "b")]), height.sum([(one, "b"), (one, "a")])
    zeros = height.sum([(one, "low_zero"), (one, "a")]), height.sum([(one, "a"), (one, "high_zero")])
    assert sums == (numeric.Ball(a.mid, a.rad + bool(b.mid or b.rad), a.exp).trim(bits),) * 2
    assert zeros == (a.trim(bits),) * 2
    for x, y in itertools.product(*([Fraction(ball.mid + d * ball.rad) * Fraction(2) ** ball.exp for d in (-1, 1)]
                                    for ball in (a, b))):
        assert holds(sums[0], x + y)


def reference_terms(route, read, m, t):
    """The terms a route read at the exact height t adds: at t >= 1, F, DF or
    m·F and −2πt·DF; below, each (−1)^(w/2)·u^w·x^p·G_p(iu).  Each is summed
    over every stored coefficient in mpf at the working precision."""
    def at(series, height):
        return horner(series.coeffs, mp.exp(-2 * mp.pi * mpf_of(height) / series.grain))

    if t >= 1:
        f, fp = route._phi[0], route._psi[0]
        return {"value": [at(f, t)], "derivative": [at(fp, t)],
                "s": [m * at(f, t), -2 * mp.pi * mpf_of(t) * at(fp, t)]}[read]
    weight, series, first = {"value": (route.w, route._phi, 0), "derivative": (route.w + 2, route._psi, 0),
                             "s": (route.w, route.t_series(m), -1)}[read]
    u = 1 / mpf_of(t)
    x = -6 / (mp.pi * u)
    return [(-1) ** (weight // 2) * u**weight * x ** (p + first) * at(g, 1 / t) for p, g in enumerate(series)]


@settings(max_examples=40, deadline=None)
@given(label=st.sampled_from(ROUTED_LABELS), m=st.integers(1, 25),
       t=st.fractions(Fraction(1, 20), 20, max_denominator=10**6), bits=st.sampled_from((128, 256)))
@example(label="X6_1", m=5, t=Fraction(1, 20), bits=128)
@example(label="X42Delta", m=25, t=Fraction(1, 20), bits=256)
@example(label="F", m=15, t=Fraction(20), bits=128)
def test_every_route_ball_holds_the_value_64_bits_higher(label, m, t, bits):
    # the balls of s, F and DF at an exact height against their terms summed
    # in mpf 64 bits higher; each radius is under 2^(20 − bits) of the largest
    route = numeric._axis_route(label, Fraction(1, 20), EvalConfig(bits))
    balls = {"s": route.s(m, t), "value": route.value(t), "derivative": df_ball(route, t)}
    with mp.workprec(bits + 64):
        for read, ball in balls.items():
            terms = reference_terms(route, read, m, t)
            assert abs(mp.fsum(terms) - mp.mpf((ball.mid, ball.exp))) <= mp.mpf((ball.rad, ball.exp)), (read, label, m, t)
            assert mp.mpf((ball.rad, ball.exp)) < mp.ldexp(max(map(abs, terms)), 20 - bits), (read, label, m, t)


def test_a_short_mantissa_factor_keeps_its_tolerance_tight():
    # u^6 at t = 1/20 is 20^6, a 14-bit mantissa; its ulps must not set the
    # tolerance of s, which is about 2e-45 there
    s, tolerance = numeric._axis_route("X6_1", Fraction(1, 20), EvalConfig()).s(5, Fraction(1, 20)).as_mpf(BITS)
    assert abs(s) > mp.mpf("1e-45") and tolerance <= mp.mpf("1e-81")


def test_a_warm_batch_makes_no_mpf_division_or_power(monkeypatch):
    # every route read combines integer balls: no mp.fdiv in a sum's last
    # step and no mpf ** for −2πt or the inversion factors
    pairs = cli.SCAN_PAIRS
    reports = numeric.monotonicity_scans(pairs)
    calls, fdiv, power = [], mp.fdiv, mp.mpf.__pow__
    monkeypatch.setattr(mp, "fdiv", lambda *a, **k: calls.append("fdiv") or fdiv(*a, **k))
    monkeypatch.setattr(mp.mpf, "__pow__", lambda x, y: calls.append("pow") or power(x, y))
    assert numeric.monotonicity_scans(pairs) == reports
    assert calls == []


def test_a_warm_batch_forms_minus_two_pi_t_once_per_height(monkeypatch):
    # every s read at t >= 1 takes −2πt from its height's record: 60 heights
    # of which 30 are >= 1, not once per (label, m) pair and height
    pairs = cli.SCAN_PAIRS
    reports = numeric.monotonicity_scans(pairs)
    calls, factor = [], numeric._Height.factor
    monkeypatch.setattr(numeric._Height, "factor", lambda self, w, p: calls.append((self.t, w, p)) or factor(self, w, p))
    assert numeric.monotonicity_scans(pairs) == reports
    above = [t for t in numeric.geometric_grid(*numeric.DEFAULT_GRID_SPEC) if t >= 1]
    assert len(above) == 30 and [t for t, w, p in calls if (w, p) == (0, -1)] == above


def test_curve_points_match_direct_evaluation_above_one():
    ((t, val),) = numeric.curve_points("X6_1", 5, (2,))
    direct = value_at("X6_1", 2)
    with mp.workprec(BITS):
        assert abs(val - mp.mpf(2) ** 5 * direct) / abs(val) < mp.mpf("1e-30")


# ---------------------------------------------------------------------------
# bracket form and small-t limits
# ---------------------------------------------------------------------------


def test_weight8_bracket_fallback_scan_sees_negative_coefficient():
    x81 = x_w1(8, 40)
    deriv = x81.derivative()
    bracket = (deriv * deriv).scale(8) - (deriv.derivative() * x81).scale(7)
    assert bracket.coefficient(3) == -198


def test_second_log_derivative_positive_for_weight6():
    x61 = x_w1(6, 300)
    d1 = x61.derivative()
    d2 = d1.derivative()
    with mp.workprec(BITS):
        for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
            combo = value_at(d2, t) * value_at(x61, t) - value_at(d1, t) ** 2
            assert combo > 0


def test_limit_t0_matches_prediction():
    for w, denominator in ((6, 120), (12, 55440), (14, 65520)):
        result = numeric.limit_t0(w)
        with mp.workprec(BITS):
            rel = abs(result["measured"] - result["predicted"]) / abs(result["predicted"])
            assert rel < mp.mpf("1e-6") and result["rel_error"] == rel
            ref = 1 / (denominator * mp.pi)
            assert abs(result["predicted"] - ref) / ref < mp.mpf("1e-30")


def test_limit_t0_weight10_value_below_point_evaluation():
    result = numeric.limit_t0(10)
    with mp.workprec(BITS):
        ref = 1 / (120 * mp.pi)
        assert abs(result["predicted"] - ref) / ref < mp.mpf("1e-30")
    assert value_at("X10_1", 1) > result["predicted"]


def test_limit_t0_validation():
    with pytest.raises(ValueError):
        numeric.limit_t0(7)


def test_companion_first_coefficient_alternation():
    for w in range(12, 38, 2):
        beta1 = x_w1_components(w, 12).e2_part.coefficient(1)
        if w == 14:
            assert beta1 == 0
        else:
            assert (-1) ** (w // 2) * beta1 > 0
