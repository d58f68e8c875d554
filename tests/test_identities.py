"""Registry behavior: passing entries, failure reporting, helper oracles."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmforms import identities
from qmforms.extremal import form_by_label
from qmforms.forms import _theta_block, eisenstein, serre_derivative, sigma_table
from qmforms.identities import (
    IdentityCase,
    UnknownIdentity,
    _check_case,
    eulerian_expansion,
    identity_ids,
    lcomb_combination,
    registry,
    verify,
    verify_all,
)
from qmforms.qseries import FourierSeries

sys.path.insert(0, str(Path(__file__).resolve().parent))
import e2_reference  # noqa: E402

F = Fraction


def test_registry_inventory():
    ids = identity_ids()
    assert len(ids) == 48
    for expected in (
        "RAM-1",
        "RAM-2",
        "RAM-3",
        "DELTA",
        "E2L2",
        "LAMBERT-1",
        "LAMBERT-5",
        "GRAB-6",
        "GRAB-42",
        "LEE-12",
        "LEE-48",
        "AB-12",
        "AB-48",
        "BR-61",
        "BR-121",
        "BR-141",
        "D2-DERIV-1",
        "D2-DERIV-4",
        "X121-DERIV",
        "E1-A",
        "E1-B",
        "LFACT",
        "LCOMB-A",
        "LCOMB-APRIME",
        "SERRE-CROSS",
        "MRB",
        "X42D",
        "XW2-COEFF",
    ):
        assert expected in ids, expected


def test_default_orders():
    reg = registry()
    assert reg["LFACT"].default_order == 60
    others = [c.default_order for ident, c in reg.items() if ident != "LFACT"]
    assert set(others) == {120}
    for case in reg.values():
        assert case.anchor
        assert case.anchor.isascii()


def test_full_registry_passes_at_reduced_order():
    # the acceptance suite runs the default orders; keep the unit suite quick
    results = verify_all(order=40)
    assert len(results) == len(identity_ids())
    assert all(r.passed for r in results), [r.ident for r in results if not r.passed]
    assert [r.ident for r in results] == sorted(r.ident for r in results)
    assert {r.order for r in results} == {40}  # an explicit order applies to every entry


def test_spot_checks_at_full_order():
    assert verify("BR-61", 120).passed
    assert verify("LCOMB-A", 120).passed
    r = verify("E2L2", 100)
    assert r.passed and r.order == 100


def test_serre_cross_needs_each_factor_at_its_own_weight(monkeypatch):
    # F has weight 16 and G weight 14: one weight for both cancels the E2 terms
    assert verify("SERRE-CROSS", 30).passed
    monkeypatch.setattr(identities, "serre_derivative", lambda f, weight: serre_derivative(f, 14))
    result = verify("SERRE-CROSS", 30)
    assert not result.passed and result.first_bad_exponent == F(11, 2)


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify("NOT-AN-ID")


def test_a_negative_order_is_refused_before_any_build(monkeypatch):
    # at order -3 nothing is compared, so a pass there would claim nothing
    checked = []
    monkeypatch.setattr(identities, "_check_case", lambda case, order: checked.append(order))
    for call in (lambda: verify("RAM-1", -3), lambda: verify_all(-1)):
        with pytest.raises(ValueError, match="order must be >= 0"):
            call()
    assert checked == []
    verify("RAM-1", 0)
    assert checked == [0]


@settings(max_examples=12, deadline=None)
@given(
    ident=st.sampled_from(["RAM-1", "DELTA", "E2L2", "X121-DERIV", "XW2-COEFF"]),
    order=st.integers(min_value=5, max_value=40),
)
def test_pass_is_order_monotone(ident, order):
    # everything passes at 120, so it must pass at every smaller order too
    assert verify(ident, order).passed


def test_failure_reporting():
    one = FourierSeries.one(10)
    case = IdentityCase(
        "FAKE", "1 = 1 + q^3", 10,
        lambda order: [(one, one + FourierSeries.from_coefficients([2 * (n == 3) for n in range(order + 1)]))],
    )
    result = _check_case(case, 10)
    assert result.status == "fail"
    assert result.first_bad_exponent == 3
    assert result.residual == -2
    blob = result.to_json_dict()
    assert blob["status"] == "fail"
    assert blob["first_bad_exponent"] == "3"
    assert blob["residual"] == ["-2", "1"]


def test_through_reports_the_smallest_bound_compared():
    # the second pair's right-hand side stores only through 7
    def build(order):
        e2 = eisenstein(2, order)
        return [(e2, eisenstein(2, order)), (e2, eisenstein(2, 7))]

    result = _check_case(IdentityCase("SHORT", "E2 = E2", 12, build), 12)
    assert result.passed and result.order == 12
    assert result.through == 7
    assert result.to_json_dict()["through"] == "7"
    assert verify("RAM-1", 15).through == 15


def test_pass_result_json():
    blob = verify("RAM-1", 15).to_json_dict()
    assert blob == {
        "ident": "RAM-1",
        "status": "pass",
        "order": 15,
        "through": "15",
        "first_bad_exponent": None,
        "residual": None,
        "elapsed": blob["elapsed"],
    }
    assert isinstance(blob["elapsed"], float)


def test_negative_control_perturbed_combination():
    order = 30
    L = form_by_label("L", order)
    good = lcomb_combination(order)
    assert L.first_difference(good, 28) is None

    perturbed = list((78278400 + 1, 550800, 90823680, 116640, 678813696000, 331776000))
    bad = lcomb_combination(order, coeffs=perturbed)
    diff = L.first_difference(bad, 28)
    assert diff is not None
    exponent, _, _ = diff
    assert exponent == 5  # well inside the <= 10 requirement
    with pytest.raises(ValueError):
        lcomb_combination(order, coeffs=[1, 2, 3])
    with pytest.raises(ValueError):
        lcomb_combination(order, variant="B")


@pytest.mark.parametrize("order", [2, 30, 120, 275])
def test_lcomb_and_lfact_sides_are_the_papers_h2_h4_polynomials(order):
    want = e2_reference.form_l(order)
    for variant in ("A", "APRIME"):
        assert lcomb_combination(order, variant=variant) == want
    (l10, right), = registry()["LFACT"].build(order)
    assert l10 == e2_reference.form_l10(order)
    assert right == F(105, 8) * (e2_reference.lfact_factor(order) * want)


def test_perturbed_combination_trips_at_the_same_exponent_against_the_papers_l():
    # C1's negative control, against L from the paper's H2/H4 polynomials
    perturbed = [78278401, 550800, 90823680, 116640, 678813696000, 331776000]
    diff = e2_reference.form_l(30).first_difference(lcomb_combination(30, coeffs=perturbed), 28)
    assert diff is not None and diff[0] == 5


def test_eulerian_expansion_oracle():
    order = 40
    s5 = sigma_table(order, 5)
    s3 = sigma_table(order, 3)
    weighted = eulerian_expansion(6, order, weighted=True)
    plain = eulerian_expansion(3, order, weighted=False)
    for n in range(1, order + 1):
        assert weighted.coefficient(n) == n * s5[n]
        assert plain.coefficient(n) == s3[n]
    assert weighted.coefficient(0) == 0


def series_divide(num: FourierSeries, den: FourierSeries, through) -> FourierSeries:
    """Exact series quotient num/den through the given absolute exponent.

    The divisor's leading coefficient must be nonzero; exponents of the
    quotient start at num's leading exponent minus den's.
    """
    lead = den.leading()
    if lead is None:
        raise ZeroDivisionError("division by the zero series")
    grain = math.lcm(den.grain, num.grain)
    num, den = (FourierSeries(grain, tuple(s._nums_at_grain(grain)), s.den) for s in (num, den))
    shift = int(lead[0] * grain)
    dvals = den.nums[shift:]
    nvals = num.nums
    top = int(Fraction(through) * grain)
    if top + shift >= len(nvals):
        raise ValueError(
            f"quotient through {Fraction(through)} needs numerator coefficients "
            f"beyond its stored order {num.order}"
        )
    # divide the integer numerators; the common denominators give den.den / num.den
    out = []
    for i in range(top + 1):
        acc = Fraction(nvals[i + shift])
        for j in range(1, min(i, len(dvals) - 1) + 1):
            acc -= dvals[j] * out[i - j]
        out.append(acc / dvals[0])
    return FourierSeries.from_coefficients(out, grain=grain).scale(Fraction(den.den, num.den))


def test_series_divide_basics():
    order = 24
    geom = FourierSeries.from_coefficients([1] * (order + 1))
    one_minus_q = FourierSeries.from_coefficients([1, -1] + [0] * (order - 1))
    assert series_divide(FourierSeries.one(order), one_minus_q, 20) == geom.truncate(20)

    f = FourierSeries.from_coefficients([2, 0, 3, 1] + [0] * (order - 3))
    g = FourierSeries.from_coefficients([0, 5, 1, 0, 7] + [0] * (order - 4))
    assert series_divide(f * g, g, 18) == f.truncate(18)

    with pytest.raises(ZeroDivisionError):
        series_divide(f, FourierSeries.zero(order), 5)


def test_lfact_division_assertion():
    # the theta-side product divides the cross-derivative combination exactly
    order = 60
    h2, h4 = _theta_block("H2", order), _theta_block("H4", order)
    divisor = (h2**5) * (h4 * h4) * ((h2 + h4) * (h2 + h4))
    lead_exp, _ = divisor.leading()
    assert lead_exp == F(5, 2)
    through = order - lead_exp
    quotient = series_divide(form_by_label("L10", order), divisor, through)
    target = F(105, 8) * form_by_label("L", order)
    assert quotient.first_difference(target, through) is None
