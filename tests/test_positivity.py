"""Sign scans, densities, ratio infima, and the doubling check."""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmforms import positivity
from qmforms.extremal import form_by_label, known_labels, x_w2
from qmforms.forms import eisenstein, sigma_table
from qmforms.positivity import (
    PREDICTED_DENSITY,
    _SQRT2_UPPER,
    _TWO_POW_11_HALF_UPPER,
    _TWO_POW_13_HALF_UPPER,
    _dyadic_range_gap_positive,
    _odd_range_gap_positive,
    check_complete_positivity,
    ratio_infimum,
    sign_pattern,
    x122_doubling_check,
)
from qmforms.qseries import FourierSeries


@contextmanager
def labelled(series: FourierSeries, label: str = "S"):
    """``label`` names ``series`` to the reads here, built to an order as its truncation there."""
    def build(name, order):
        return series.truncate(order) if name == label else form_by_label(name, order)

    with mock.patch.object(positivity, "form_by_label", build):
        yield label


def half_shifted(series: FourierSeries) -> FourierSeries:
    """z -> z + 1/2 on integer exponents: the coefficient of q^n times (-1)^n."""
    r = series.reduced()
    assert r.grain == 1
    nums = list(r.nums)
    nums[1::2] = [-x for x in nums[1::2]]
    return FourierSeries(1, tuple(nums), r.den)


# ---------------------------------------------------------------------------
# complete positivity scans
# ---------------------------------------------------------------------------


def test_every_label_builds_to_the_order_asked():
    # the reads take every stored coefficient of a label's build, so each
    # build must store exactly through the order it was asked for
    for label in known_labels():
        for order in (0, 1, 2, 7, 40):
            series = form_by_label(label, order)
            assert series.order == order and len(series.nums) == order * series.grain + 1, (label, order)


def test_p1_first_negative():
    report = check_complete_positivity("P1", 200)
    assert not report.completely_positive_up_to_order
    assert report.first_negative == (Fraction(2), Fraction(-2))
    assert report.label == "P1"
    assert report.order == 200


def test_y_forms_completely_positive_to_2000():
    for w in (4, 8, 10, 12):
        report = check_complete_positivity(f"Y{w}_2", 2000)
        assert report.completely_positive_up_to_order, (w, report.first_negative)
        assert report.first_negative is None


def test_y14_y16_reported_only():
    # Positivity of the w = 14, 16 members is an open question; the scan
    # result is reported but nothing beyond the report invariant is asserted.
    for w in (14, 16):
        report = check_complete_positivity(f"Y{w}_2", 2000)
        assert report.completely_positive_up_to_order == (
            report.first_negative is None
        )


def test_alternating_difference_constructions_positive():
    # Negating the two level-2 differences and applying the half shift
    # flips every negative even-index coefficient, giving fully nonnegative
    # series.
    for label in ("P1", "P3"):
        with labelled(-half_shifted(form_by_label(label, 2000))) as shifted:
            report = check_complete_positivity(shifted, 2000)
        assert report.completely_positive_up_to_order, (label, report.first_negative)


def test_odd_sigma_combination_exact():
    # (-E2(z) + E2(z + 1/2)) / 48 equals the odd-index divisor-sum series.
    e2 = eisenstein(2, 2000)
    combo = (-e2 + half_shifted(e2)).scale(Fraction(1, 48))
    s1 = sigma_table(2000, 1)
    odd = [s1[n] if n % 2 else 0 for n in range(2001)]
    expected = FourierSeries.from_coefficients(odd)
    assert combo.first_difference(expected, through=2000) is None
    with labelled(combo) as name:
        assert check_complete_positivity(name, 2000).completely_positive_up_to_order


def test_three_level_e2_combination_positive():
    # (6 E2(4z) - 5 E2(2z) - E2(z)) / 24 has coefficients
    # sigma_1(n) + 5 sigma_1(n/2) - 6 sigma_1(n/4), all positive, and the
    # value at n = 2^k is exactly 2^(k+2).
    e2 = eisenstein(2, 2000)
    combo = (
        e2.dilate(4).scale(6) - e2.dilate(2).scale(5) - e2
    ).scale(Fraction(1, 24))
    s1 = sigma_table(2000, 1)
    for n in range(1, 2001):
        expected = s1[n]
        if n % 2 == 0:
            expected += 5 * s1[n // 2]
        if n % 4 == 0:
            expected -= 6 * s1[n // 4]
        assert combo.coefficient(n) == expected
    with labelled(combo) as name:
        assert check_complete_positivity(name, 2000).completely_positive_up_to_order
    for k in range(1, 11):
        assert combo.coefficient(2**k) == 2 ** (k + 2)


# ---------------------------------------------------------------------------
# exact sign patterns
# ---------------------------------------------------------------------------


def test_p1_p3_alternating_sign_pattern():
    for label in ("P1", "P3"):
        values = form_by_label(label, 2000).nums  # over a positive denominator
        for n in range(1, 2001):
            if n % 2:
                assert values[n] > 0, (label, n)
            else:
                assert values[n] < 0, (label, n)


def test_p2_sign_pattern():
    # Exact pattern: positive at odd n, negative at every even n, where the
    # coefficient at n = 2^k m (m odd) is -2^k sigma_1(m).
    p2 = form_by_label("P2", 2000)
    values = p2.nums
    s1 = sigma_table(2000, 1)
    assert p2.grain == p2.den == 1
    for n in range(1, 2001):
        if n % 2:
            assert values[n] == s1[n] > 0
        else:
            k, m = 0, n
            while m % 2 == 0:
                k, m = k + 1, m // 2
            assert values[n] == -(2**k) * s1[m] < 0


def test_p4_sign_pattern():
    values = form_by_label("P4", 2000).nums  # over a positive denominator
    assert values[1] == 0
    assert values[2] > 0
    for n in range(3, 2001):
        if n % 2:
            assert values[n] > 0, n
        elif (n // 2) % 2 and n > 2:
            assert values[n] < 0, n


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def test_density_p2():
    report = sign_pattern("P2", 100000)
    assert report.density == Fraction(1, 2)
    assert report.count_positive == 50000
    # the recorded prediction (3/4) is attached for comparison but the
    # exact pattern makes the true density 1/2
    assert report.predicted == Fraction(3, 4)


def test_density_p1_p3():
    for label in ("P1", "P3"):
        report = sign_pattern(label, 2000)
        assert report.density == Fraction(1, 2)
        assert report.predicted == Fraction(1, 2)
        assert abs(report.density - report.predicted) <= Fraction(1, 100)


def test_density_p4():
    report = sign_pattern("P4", 10000)
    assert report.predicted == Fraction(1, 2)
    assert abs(report.density - Fraction(1, 2)) <= Fraction(2, 100)
    assert report.density == Fraction(1, 2)


def test_density_x42delta():
    report = sign_pattern("X42Delta", 10000)
    assert report.predicted == Fraction(1, 2)
    assert abs(report.density - Fraction(1, 2)) <= Fraction(5, 100)
    assert report.density == Fraction(1257, 2500)


def test_density_generic_series_path():
    report = sign_pattern("E4", 50)
    assert report.count_positive == 50
    assert report.density == 1
    assert report.predicted is None


def test_density_report_json():
    d = sign_pattern("P4", 100).to_json_dict()
    assert d["label"] == "P4"
    assert d["n_limit"] == 100
    assert d["predicted"] == "1/2"
    assert Fraction(d["density"]) == Fraction(d["count_positive"], 100)


# ---------------------------------------------------------------------------
# ratio infima
# ---------------------------------------------------------------------------


def test_ratio_infimum_x42():
    report = ratio_infimum("X4_2", 2, 4096)
    assert report.violations == ()
    assert report.min_ratio == Fraction(2 * (2**14 - 1), 2**13 - 1)
    assert Fraction(4) < report.min_ratio <= Fraction(4002, 1000)
    assert report.argmin == 4096


def test_ratio_infimum_dyadic_profile():
    # For the weight-4 depth-2 form the ratio at n = 2^k is
    # 2 (2^(k+2) - 1) / (2^(k+1) - 1), strictly decreasing toward 4.
    report = ratio_infimum("X4_2", 2, 1024)
    assert report.min_ratio == Fraction(2 * (2**12 - 1), 2**11 - 1)
    assert report.argmin == 1024
    series = form_by_label("X4_2", 2048)
    for k in range(9):
        n = 2**k
        expected = Fraction(2 * (2 ** (k + 2) - 1), 2 ** (k + 1) - 1)
        assert series.coefficient(2 * n) / series.coefficient(n) == expected


def test_ratio_infimum_higher_weights():
    report = ratio_infimum("X8_2", 2, 2048)
    assert report.min_ratio > 2**6
    assert report.violations == (1,)  # vanishing leading coefficient
    report = ratio_infimum("X10_2", 2, 2048)
    assert report.min_ratio > 2**8
    assert report.violations == (1,)


def test_ratio_infimum_trivial_series():
    with labelled(FourierSeries.from_coefficients([0, 1] + [0] * 7)) as q:
        report = ratio_infimum(q, 2, 4)
    assert report.min_ratio == 0
    assert report.argmin == 1
    assert report.violations == (2, 3, 4)


def test_ratio_infimum_errors():
    with pytest.raises(ValueError):
        ratio_infimum("X4_2", 0, 10)
    with pytest.raises(ValueError):
        ratio_infimum("X4_2", 2, 0)


def refused_before_any_build(monkeypatch, read, *args, error=ValueError, match=None):
    """``read(*args)`` raises ``error`` (``ValueError`` unless given) without building a form."""
    builds = []
    monkeypatch.setattr(positivity, "form_by_label", lambda *a: builds.append(a) or form_by_label(*a))
    with pytest.raises(error, match=match):
        read(*args)
    assert builds == []


def test_a_negative_positivity_order_is_refused_before_any_build(monkeypatch):
    refused_before_any_build(monkeypatch, check_complete_positivity, "P1", -2)
    assert check_complete_positivity("P1", 0).order == 0  # order 0 reads the constant term, as identities.verify allows


@pytest.mark.parametrize("n_limit", [-3, 0])
def test_a_sign_pattern_below_one_term_is_refused_before_any_build(monkeypatch, n_limit):
    refused_before_any_build(monkeypatch, sign_pattern, "E4", n_limit)


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("name, read, args", [
    ("order", check_complete_positivity, lambda v: ("P1", v)),
    ("n_limit", sign_pattern, lambda v: ("P1", v)),
    ("n_dilate", ratio_infimum, lambda v: ("P1", v, 5)),
    ("bound", ratio_infimum, lambda v: ("P1", 2, v)),
], ids=["order", "n_limit", "n_dilate", "bound"])
def test_an_extent_that_is_not_an_int_is_refused_before_any_build(monkeypatch, name, read, args, value):
    # with P1 cached, order 2.5 was served from the cache and reported at order 5/2
    form_by_label("P1", 40)
    refused_before_any_build(monkeypatch, read, *args(value), error=TypeError, match=f"{name} must be an int")


def reference_ratio_infimum(series: FourierSeries, n_dilate: int, bound: int):
    """One exact ``Fraction`` per n, as ``ratio_infimum`` once did: its reference."""
    violations, min_ratio, argmin = [], None, None
    for n in range(1, bound + 1):
        a_n = series.coefficient(n)
        if a_n <= 0:
            violations.append(n)
            continue
        ratio = Fraction(series.coefficient(n_dilate * n)) / a_n
        if min_ratio is None or ratio < min_ratio:
            min_ratio, argmin = ratio, n
    return min_ratio, argmin, tuple(violations)


@given(
    st.one_of(
        st.sampled_from(("X4_2", "X8_2", "Y4_2", "Xtilde8_2", "P1", "P3", "E2", "E4", "Delta", "X42Delta", "L")),
        st.lists(st.integers(-3, 3), min_size=76, max_size=76).map(FourierSeries.from_coefficients),
    ),
    st.integers(2, 3),
    st.integers(1, 25),
)
@example("X4_2", 2, 4096)
@example("Y4_2", 3, 1000)
@settings(max_examples=80, deadline=None)
def test_ratio_infimum_matches_the_fraction_loop(form, n_dilate, bound):
    series = form if isinstance(form, FourierSeries) else form_by_label(form, n_dilate * bound)
    with labelled(form) if isinstance(form, FourierSeries) else nullcontext(form) as label:
        report = ratio_infimum(label, n_dilate, bound)
    assert (report.min_ratio, report.argmin, report.violations) == reference_ratio_infimum(series, n_dilate, bound)


def test_ratio_report_json():
    d = ratio_infimum("X4_2", 2, 8).to_json_dict()
    assert d["min_ratio"] == "62/15"
    assert d["argmin"] == 8
    assert d["violations"] == []


# ---------------------------------------------------------------------------
# doubling check and the two exact range facts
# ---------------------------------------------------------------------------


def test_doubling_check_passes():
    result = x122_doubling_check(500)
    assert result == {
        "ok": True,
        "witness": None,
        "doubling_ok": True,
        "odd_range_ok": True,
        "dyadic_range_ok": True,
    }


def test_doubling_n2_instance():
    series = x_w2(12, 8)
    c = series.nums
    assert c[2] == 0
    assert c[4] >= 2**10 * c[2]
    assert c[3] == series.den  # leading coefficient 1 of the q^3-normalized form


def test_doubling_negative_control():
    result = x122_doubling_check(500, factor=2**11)
    assert not result["ok"]
    assert not result["doubling_ok"]
    assert result["witness"] == 3


def test_doubling_bad_bound():
    with pytest.raises(ValueError):
        x122_doubling_check(1)


def test_square_root_bounds_are_tight_upper_bounds():
    assert _SQRT2_UPPER**2 > 2
    assert (_SQRT2_UPPER - Fraction(1, 470832)) ** 2 < 2
    assert _TWO_POW_11_HALF_UPPER**2 > 2**11
    assert (_TWO_POW_11_HALF_UPPER - Fraction(1, 256)) ** 2 < 2**11
    assert _TWO_POW_13_HALF_UPPER**2 > 2**13
    assert (_TWO_POW_13_HALF_UPPER - Fraction(1, 128)) ** 2 < 2**13


def test_range_facts_hold():
    assert _odd_range_gap_positive()
    assert _dyadic_range_gap_positive()


def test_odd_range_squaring_logic_negative_control():
    # The A^2 > C^2 m^11 comparison must be able to fail: dropping the
    # dominant m^9 term leaves only the m^10 piece, which the subtracted
    # term overwhelms at m = 3.
    s0 = sigma_table(3, 0)
    m = 3
    a_full = Fraction(2520, 3) * m**9 + Fraction(12, 7) * m**10
    a_trimmed = Fraction(12, 7) * m**10
    c = Fraction(18224, 21) * s0[m]
    assert a_full * a_full > c * c * m**11
    assert not a_trimmed * a_trimmed > c * c * m**11


# ---------------------------------------------------------------------------
# report invariants
# ---------------------------------------------------------------------------

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=24)


@given(coeff_lists)
@settings(max_examples=60)
def test_positivity_report_invariant(values):
    series = FourierSeries.from_coefficients(values)
    with labelled(series) as label:
        report = check_complete_positivity(label, len(values) - 1)
    assert report.completely_positive_up_to_order == (report.first_negative is None)
    if report.first_negative is not None:
        exponent, value = report.first_negative
        assert value < 0
        assert series.coefficient(exponent) == value
        k = int(exponent)
        assert all(series.coefficient(j) >= 0 for j in range(k))
    else:
        assert all(c >= 0 for c in values)


@given(coeff_lists)
@settings(max_examples=40)
def test_density_bounds_invariant(values):
    series = FourierSeries.from_coefficients(values)
    n = len(values) - 1
    if n < 1:
        return
    with labelled(series) as label:
        report = sign_pattern(label, n)
    assert 0 <= report.density <= 1
    assert report.count_positive == sum(1 for v in values[1 : n + 1] if v > 0)
