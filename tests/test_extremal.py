"""Families, component laws, and the exact max-vanishing solver."""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from qmforms import extremal
from qmforms.extremal import (
    MAX_DEPTH1_WEIGHT,
    BadWeight,
    Depth1Components,
    a_w_exponent,
    alpha_w0,
    describe_label,
    form_by_label,
    known_labels,
    weak_family,
    x_w1,
    x_w1_components,
    x_w2,
    x_w2_parts,
    xtilde_form,
    y_form,
)
from qmforms.forms import delta_series, eisenstein, recompose_parts, sigma, tau
from qmforms.qseries import FourierSeries

sys.path.insert(0, str(Path(__file__).resolve().parent))
import e2_reference  # noqa: E402

F = Fraction


# ---------------------------------------------------------------------------
# depth-1 family against divisor-sum oracles
# ---------------------------------------------------------------------------


def test_x61_x81_x101_divisor_forms():
    n = 40
    x6, x8, x10 = x_w1(6, n), x_w1(8, n), x_w1(10, n)
    for m in range(1, n + 1):
        assert x6.coefficient(m) == m * sigma(m, 3)
        assert x8.coefficient(m) == m * sigma(m, 5)
        assert x10.coefficient(m) == m * sigma(m, 7)


def test_x121_coefficient_law():
    n = 30
    x12 = x_w1(12, n)
    for m in range(1, n + 1):
        assert x12.coefficient(m) == F(m * sigma(m, 9) - tau(m), 1050)
    assert x12.coefficient(2) == 1
    assert x12.coefficient(3) == 56


def test_low_weights_build_without_series_products(monkeypatch):
    # X_6..X_12 come from one Eisenstein derivative (and Delta), so asking
    # for them at a larger order than before costs a sieve, not products
    from qmforms import qseries
    from qmforms.forms import delta_series

    eisenstein(10, 300), delta_series(300)
    x_w1(12, 200)
    products = []
    real = qseries._intconv
    monkeypatch.setattr(qseries, "_intconv", lambda *args: products.append(1) or real(*args))
    for w in (6, 8, 10, 12):
        assert x_w1(w, 201 + w).order == 201 + w
    assert products == []


def test_x141_starts_at_q2():
    x14 = x_w1(14, 6)
    assert x14.leading() == (2, 1)


def test_higher_weight_vanishing_orders():
    # the defining property: X_{w,1} vanishes to order w/6 (rounded down)
    for w in (18, 20, 22, 24):
        lead = x_w1(w, 8).leading()
        assert lead is not None
        assert lead[0] == w // 6


def test_bad_weights_rejected():
    with pytest.raises(BadWeight):
        x_w1(7, 10)
    with pytest.raises(BadWeight):
        x_w1(4, 10)
    with pytest.raises(BadWeight):
        x_w2(6, 10)


# ---------------------------------------------------------------------------
# component pairs
# ---------------------------------------------------------------------------


def test_components_recompose_to_family():
    for w in (6, 8, 10, 12, 14, 16, 18, 24):
        comp = x_w1_components(w, 25)
        assert comp.recompose() == x_w1(w, 25), w


def test_components_equal_the_series_climb():
    # the coordinate build against the reference climb by series products
    sizes = [(w, order) for order in (2, 32, 61, 300) for w in range(6, 61, 2)] + [(w, 64) for w in (120, 198, 336)]
    for w, order in sizes:
        assert x_w1_components(w, order).parts == e2_reference.components(w, order), (w, order)


def test_components_build_without_e2(monkeypatch):
    # A and B come from polynomial algebra in E4, E6 and Δ: no E2 series and
    # no Serre derivative, so AB-w checks them against x_w1's series climb
    def refuse(*args):
        raise AssertionError(f"the components read E2 algebra: {args}")

    monkeypatch.setattr(extremal, "eisenstein", lambda k, order: refuse(k, order) if k == 2 else eisenstein(k, order))
    monkeypatch.setattr(extremal, "serre_derivative", refuse)
    monkeypatch.setattr(extremal, "_COORDS", {6: extremal._COORDS[6]})
    for w in (6, 8, 10, 12, 14, 48, 120):
        for order in (0, 2, 40):
            assert x_w1_components.__wrapped__(w, order).parts == e2_reference.components(w, order), (w, order)


def test_component_seeds():
    c6 = x_w1_components(6, 4)
    assert c6.pure.coefficient(0) == F(-1, 720)
    assert c6.e2_part.coefficient(0) == F(1, 720)
    c12 = x_w1_components(12, 2)
    assert c12.pure.coefficient(0) == F(1, 332640)
    assert c12.e2_part.coefficient(0) == F(-1, 332640)
    c14 = x_w1_components(14, 2)
    assert c14.pure.coefficient(0) == F(-1, 393120)
    assert c14.e2_part.coefficient(0) == F(1, 393120)


def test_constant_term_closed_form():
    for w in range(6, 61, 6):
        assert alpha_w0(w) == x_w1_components(w, 2).pure.coefficient(0)


def test_constant_term_laws():
    # for weights divisible by 6:
    #   next-step constants scale by -(w-1)/(w+1), 1, -(w(w+6))/(432(w+1)(w+5))
    for w in range(6, 55, 6):
        a_w = x_w1_components(w, 2).pure.coefficient(0)
        a_w2 = x_w1_components(w + 2, 2).pure.coefficient(0)
        a_w4 = x_w1_components(w + 4, 2).pure.coefficient(0)
        a_w6 = x_w1_components(w + 6, 2).pure.coefficient(0)
        assert a_w2 == -F(w - 1, w + 1) * a_w
        assert a_w4 == a_w
        assert a_w6 == -F(w * (w + 6), 432 * (w + 1) * (w + 5)) * a_w


def test_e2_component_constant_is_minus_next_pure():
    for w in range(6, 41, 2):
        comp = x_w1_components(w, 2)
        assert comp.e2_part.coefficient(0) == -comp.pure.coefficient(0)


def test_second_coefficient_ratio_laws():
    # all six ratio laws at weights divisible by 6
    for w in range(12, 37, 6):
        cw = x_w1_components(w, 2)
        cw2 = x_w1_components(w + 2, 2)
        cw4 = x_w1_components(w + 4, 2)

        def ratio(series):
            return series.coefficient(1) / series.coefficient(0)

        assert ratio(cw.pure) == F(-12 * (w - 3) * (w + 4), w - 6)
        assert ratio(cw2.pure) == F(-12 * (w * w - 9 * w - 24), w - 6)
        assert ratio(cw4.pure) == F(-12 * (w * w - 19 * w + 108), w - 6)
        assert ratio(cw.e2_part) == F(-12 * (w - 1) * w, w - 6)
        assert ratio(cw2.e2_part) == F(-12 * (w - 12) * (w + 1), w - 6)
        assert ratio(cw4.e2_part) == F(-12 * (w * w - 21 * w + 120), w - 6)


# ---------------------------------------------------------------------------
# decay exponent
# ---------------------------------------------------------------------------


def test_a_w_values():
    assert [a_w_exponent(w) for w in (6, 8, 10, 12, 14, 16)] == [5, 6, 8, 10, 11, 13]
    for k in range(1, 100):
        assert a_w_exponent(6 * k) == 5 * k


def test_a_w_minimum_recurrences():
    # the three step laws jointly determine a_w as a minimum, every even
    # weight up to 600
    a = a_w_exponent
    for w in range(12, 601, 6):
        assert a(w) == min(a(w - 4) + 4, a(w - 6) + 5)
        if w + 2 <= 600:
            assert a(w + 2) == min(a(w - 2) + 4, a(w - 4) + 5)
        if w + 4 <= 600:
            assert a(w + 4) == min(a(w) + 4, a(w - 2) + 5, a(w - 4) + 7)


# ---------------------------------------------------------------------------
# depth 2: explicit forms and the solver
# ---------------------------------------------------------------------------


def test_x42_divisor_form():
    x = x_w2(4, 30)
    for n in range(1, 31):
        assert x.coefficient(n) == n * sigma(n, 1)


def test_x82_x102_divisor_forms():
    n = 30
    x8 = x_w2(8, n)
    x10 = x_w2(10, n)
    for m in range(1, n + 1):
        assert x8.coefficient(m) == F(m * sigma(m, 5) - m * m * sigma(m, 3), 30)
        assert x10.coefficient(m) == F(m * sigma(m, 7) - m * m * sigma(m, 5), 126)


def test_x122_divisor_form():
    n = 20
    x12 = x_w2(12, n)
    for m in range(1, n + 1):
        want = F(17 * tau(m), 21) + F(6 * m * sigma(m, 9), 7) - F(5 * m * m * sigma(m, 7), 3)
        assert x12.coefficient(m) == want / 18000


def test_x142_golden_prefix():
    x14 = x_w2(14, 8)
    got = [x14.coefficient(n) for n in range(9)]
    assert got == [0, 0, 0, 1, F(93, 2), 810, 8004, 54474, 283743]


def test_x162_golden_prefix():
    x16 = x_w2(16, 6)
    assert x16.leading() == (4, 1)
    assert x16.coefficient(5) == F(864, 25)
    assert x16.coefficient(6) == F(2736, 5)


def test_solver_agrees_with_explicit_forms():
    # the tests' monomial solve, over products of E2, E4 and E6, lands on x_w2
    for w in (4, 8, 10, 12, 14, 16):
        assert recompose_parts(e2_reference.depth2_parts(w, 20)) == x_w2(w, 20), w


def closed_x_w2(w: int, order: int) -> FourierSeries:
    """X_{w,2} at w = 4, 8, 10 and 12 as closed derivative combinations of
    E2, E4, E6 and Delta (Ramanujan's identities), with products for E8 and E10."""
    e2, e4, e6 = (eisenstein(k, order) for k in (2, 4, 6))
    e8, e10 = e4 * e4, e4 * e6

    def d(f, times=1):
        for _ in range(times):
            f = f.derivative()
        return f

    return {
        4: d(e2).scale(F(-1, 24)),
        8: d(e6).scale(F(-1, 15120)) - d(e4, 2).scale(F(1, 7200)),
        10: d(e8).scale(F(1, 60480)) + d(e6, 2).scale(F(1, 63504)),
        12: (delta_series(order).scale(F(17, 21)) - d(e10).scale(F(1, 308)) - d(e8, 2).scale(F(1, 288)))
        .scale(F(1, 18000)),
    }[w]


def test_x_w2_equals_the_closed_forms_through_order_2000():
    for w in (4, 8, 10, 12):
        assert x_w2(w, 2000) == closed_x_w2(w, 2000), w


def test_x_w2_builds_without_the_depth1_family_or_the_monomial_solver(monkeypatch):
    # so D2-DERIV-4 (D X14_2 = 3 X4_2 X12_1) and the tests' monomial solve
    # check x_w2 against constructions it does not read
    def refuse(*args):
        raise AssertionError(f"x_w2 read another construction: {args}")

    monkeypatch.setattr(extremal, "x_w1", refuse)
    for w in (4, 8, 10, 12, 14, 16):
        assert x_w2.__wrapped__(w, 40) == recompose_parts(e2_reference.depth2_parts(w, 40)), w


def test_depth2_x_parts_lead_with_the_family():
    for w in (4, 8, 10, 12, 14, 16):
        for order in (40, 400):
            parts = describe_label(f"X{w}_2").parts(order)
            assert len(parts) == 3 and not parts[2].is_zero()
            assert parts[0] == x_w2(w, order) == x_w2_parts(w, order, 1)[0], (w, order)
    # the top x-part is the top E2-part, modular of weight w - 4: at w = 8 a multiple of E4
    top = x_w2_parts(8, 10)[2]
    assert top == eisenstein(4, 10).scale(top.coefficient(0))


ROUTED_FAMILY = (*(f"X{w}_2" for w in (4, 8, 10, 12, 14, 16)), "F", "X42Delta",
                 *(f"X{w}_1" for w in (6, 12, 14, 60, 198)))


@pytest.mark.parametrize("label", ROUTED_FAMILY)
def test_x_parts_are_the_taylor_shift_of_the_e2_parts(label):
    # Φ_p, the coefficient of x^p when E2 becomes E2 + x, built by Horner in D
    # from the Kaneko–Zagier groups, equals the shift of E2-parts built apart
    for order in (32, 61, 300):
        want = e2_reference.shifted(e2_reference.e2_parts(label, order))
        assert list(describe_label(label).parts(order)) == want, (label, order)


@pytest.mark.parametrize("w", (4, 8, 10, 12, 14, 16))
def test_each_depth2_solver_solves_lambda_once_per_weight(monkeypatch, w):
    # a route builds its x-parts at 32 terms and again at 61, and x_w2 its
    # own: one solve serves them all, and a fresh solve gives the stored λ
    solves, solve = [], extremal._solve_exact
    monkeypatch.setattr(extremal, "_solve_exact", lambda *a: solves.append(a) or solve(*a))
    monkeypatch.setattr(extremal, "_LAMBDAS", {})
    x_w2.cache_clear()
    for order in (32, 61):
        x_w2_parts(w, order)
        x_w2(w, order)
    assert len(solves) == 1
    stored = dict(extremal._LAMBDAS)
    assert set(stored) == {w}
    extremal._LAMBDAS.clear()
    x_w2.cache_clear()
    x_w2(w, 8)
    assert len(solves) == 2 and extremal._LAMBDAS == stored


def test_builders_take_eisenstein_products_from_the_sieve():
    # M8, M10 and M14 are one-dimensional, so E4·E4 = E8, E4·E6 = E10 and
    # E4²·E6 = E14 exactly; x_w2 reads the sieved E8..E16 for its columns, and
    # equals the monomial solve over products of E4 and E6
    order = 600
    e4, e6 = eisenstein(4, order), eisenstein(6, order)
    e4sq = e4 * e4
    assert e4sq == eisenstein(8, order) and e4 * e6 == eisenstein(10, order) and e4sq * e6 == eisenstein(14, order)
    assert x_w2(10, order) == e4sq.derivative().scale(F(1, 60480)) + e6.derivative().derivative().scale(F(1, 63504))
    for w in (12, 14, 16):
        assert x_w2(w, order) == recompose_parts(e2_reference.depth2_parts(w, order)), w


def test_solver_recovers_depth1_seed():
    # at weight 6 the depth<=2 space is {E6, E2 E4}; the tests' monomial
    # solve lands on the depth-1 family seed
    assert recompose_parts(e2_reference.depth2_parts(6, 20)) == x_w1(6, 20)


def test_vanishing_orders_table():
    want = {4: 1, 8: 2, 10: 2, 12: 3, 14: 3, 16: 4}
    for w, v in want.items():
        assert x_w2(w, 6).leading()[0] == v


# ---------------------------------------------------------------------------
# level-2 difference families
# ---------------------------------------------------------------------------


Y_GOLDENS = {
    4: {1: 1, 2: 2, 3: 12, 4: 4, 5: 30},
    8: {2: 1, 3: 16, 4: 38, 5: 416, 6: 284},
    10: {2: 1, 3: F(104, 3), 4: 134, 5: 2480, 6: F(6796, 3)},
    12: {3: 1, 4: F(51, 2), 5: F(1422, 5), 6: 920, 7: 9714},
    14: {3: 1, 4: F(93, 2), 5: 810, 6: 3908, 7: 54474, 8: 93279},
    16: {4: 1, 5: F(864, 25), 6: F(2736, 5), 7: F(188288, 35), 8: F(107998, 5), 9: F(1051008, 5)},
}


def test_y_family_goldens():
    for w, table in Y_GOLDENS.items():
        y = y_form(w, max(table) + 1)
        for n, c in table.items():
            assert y.coefficient(n) == c, (w, n)


def test_xtilde_vs_y_offset():
    # Xtilde - Y = -2^(w-2) X(2z), so the difference is supported on even
    # exponents with the doubled-argument coefficients
    w, n = 8, 12
    diff = xtilde_form(w, n) - y_form(w, n)
    x = x_w2(w, n)
    for m in range(1, n // 2 + 1):
        assert diff.coefficient(2 * m) == -(2 ** (w - 2)) * x.coefficient(m)


def test_weak_family_p3():
    # weight 6, doubling: subtract 2^5 times the dilate
    wf = weak_family(6, 2, 12)
    x6 = x_w1(6, 12)
    for n in range(1, 13):
        want = x6.coefficient(n)
        if n % 2 == 0:
            want -= 32 * x6.coefficient(n // 2)
        assert wf.coefficient(n) == want


# ---------------------------------------------------------------------------
# label registry
# ---------------------------------------------------------------------------


def test_form_by_label_patterns():
    assert form_by_label("X12_1", 8) == x_w1(12, 8)
    assert form_by_label("X8_2", 8) == x_w2(8, 8)
    assert form_by_label("Y12_2", 8) == y_form(12, 8)
    assert form_by_label("Xtilde8_2", 8) == xtilde_form(8, 8)
    assert form_by_label("Delta", 8).leading() == (1, 1)
    assert form_by_label("P1", 8) == xtilde_form(4, 8)
    assert form_by_label("P3", 8) == weak_family(6, 2, 8)


def test_p4_uses_w_minus_1_exponent():
    p4 = form_by_label("P4", 8)
    x12 = x_w1(12, 8)
    assert p4.coefficient(2) == 1  # q^2 survives: 1 - 2^11 * 0
    assert p4.coefficient(4) == x12.coefficient(4) - 2**11 * x12.coefficient(2)


# labels neither lookup accepts; a looser parse (int() on the weight, or a
# pattern anchored with $) reads each label on the second line as X12_1
MALFORMED_LABELS = (
    "nope", "Z9_9", "X12", "x12_1", "X12_3", "Y12_1", "Xtilde12_1",
    "X012_1", "X1_2_1", "X+12_1", "X 12_1", "X12_1\n", "X\u0661\u0662_1",
)
BAD_WEIGHT_LABELS = ("X5_1", "X4_1", "X7_1", "X8000_1", "X18_2", "Y6_2", "Xtilde6_2")


def test_unknown_labels_raise():
    for label in MALFORMED_LABELS:
        with pytest.raises(KeyError, match="unknown form label"):
            form_by_label(label, 8)
        with pytest.raises(KeyError, match="unknown form label"):
            describe_label(label)
    for label in BAD_WEIGHT_LABELS:
        with pytest.raises(BadWeight):
            form_by_label(label, 8)
        with pytest.raises(BadWeight):
            describe_label(label)


def test_each_label_keeps_one_descriptor_and_no_refused_label_is_kept(monkeypatch):
    for label in ("X12_1", "Y8_2", "Xtilde4_2", "X4_2", "F"):
        assert describe_label(label) is describe_label(label), label
    kept = dict(extremal._FAMILY_DESCRIPTORS)
    refused = [(label, KeyError) for label in MALFORMED_LABELS] + [(label, BadWeight) for label in BAD_WEIGHT_LABELS]
    for label, error in refused * 2:
        with pytest.raises(error):
            describe_label(label)
    assert extremal._FAMILY_DESCRIPTORS == kept
    # a kept descriptor's builder looks its function up by name, so a double bound afterwards sees the call
    calls, build = [], extremal.x_w1
    monkeypatch.setattr(extremal, "x_w1", lambda *a: calls.append(a) or build(*a))
    describe_label("X12_1").build(6)
    assert calls == [(12, 6)]


def test_depth1_weight_limit():
    # the heaviest accepted weight builds; the next is refused
    assert form_by_label(f"X{MAX_DEPTH1_WEIGHT}_1", 2).order == 2
    for build in (x_w1, x_w1_components):
        with pytest.raises(BadWeight):
            build(MAX_DEPTH1_WEIGHT + 2, 2)


def test_descriptors_cover_known_labels():
    for label in known_labels():
        d = describe_label(label)
        assert d.label == label
        assert d.weight >= 2
        assert d.group
        assert d.build(4) == form_by_label(label, 4)
    # the family pattern reaches past the listed depth-1 weights
    assert describe_label("X50_1").weight == 50
    assert form_by_label("X50_1", 4) == x_w1(50, 4)


def test_script_l10_is_l10_under_a_second_label():
    l10, script = describe_label("L10"), describe_label("script_L10")
    assert (script.label, l10.label) == ("script_L10", "L10")
    assert replace(script, label="L10") == l10
    assert form_by_label("script_L10", 12) == form_by_label("L10", 12)
