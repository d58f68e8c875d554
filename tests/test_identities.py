"""Registry behavior: passing entries, failure reporting, helper oracles."""

from __future__ import annotations

import hashlib
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmforms import identities, lambert
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


@pytest.mark.parametrize("call", [verify_all, lambda order: verify("RAM-1", order)], ids=["verify_all", "verify"])
@pytest.mark.parametrize("order", [2.9, True, F(7)], ids=["float", "bool", "Fraction"])
def test_an_order_that_is_not_an_int_is_refused_before_any_build(monkeypatch, call, order):
    # 2.9 was checked at order 2 and True at order 1, each reported as a pass
    checked = []
    monkeypatch.setattr(identities, "_check_case", lambda case, order: checked.append(order))
    with pytest.raises(TypeError, match="order must be an int"):
        call(order)
    assert checked == []


# One sha256 per id over its statement, its default order and the stored form
# (grain, numerators, denominator) of every side it builds at orders 0, 1, 7
# and 40, as the registry stood before it became one table.
_SIDE_DIGESTS = {
    "RAM-1": "e728277d41066741467f7474680719bd9dfa74c9611179b90cb5e3106369bde1",
    "RAM-2": "79f5cac670c8f4e451e17f6aca26fede92f3fbd934c1c097b3ef0c87c23671c3",
    "RAM-3": "490ba4dd5b649f243b86fe2036a3b490043b4d6788102eb6165d04564c00ae9b",
    "DELTA": "d1cceea90520e91d57a0b578c4db253dd1c987f484238ebc4dda95997136265a",
    "E2L2": "8a4274c2d3641f15b60e3c92cd394ee34d9725d621f051acba5e26418bbbd3ab",
    "LAMBERT-1": "1081cfc7d3e558087335dbb2aee2cb1484f0d7a473047c578bec6c92ed6b33e0",
    "LAMBERT-2": "27a36540abd82fe6cebb439fc8a5b527f7c65c5891747b040dee4eb72acd0346",
    "LAMBERT-3": "75ed2a15c6a513f6048bb6c64ab2ad3be1084a0ff583f46f68a47592dacf536c",
    "LAMBERT-4": "bf9f17fe6ed0e0167cb2cbe6184c1506ec1cc43954285e8070208c0e38d956a5",
    "LAMBERT-5": "adbbbbd77450238ce11f49b42404c0cdba2038933d4e4f0874114a9791abb814",
    "GRAB-6": "8476c5d6b64ccf0c5c78107c2d5f5165ecd57aea0f713d084be48d2a09fac311",
    "GRAB-12": "6181cff78a51ab24c2e0cf00be72cf51e834b521420da4dc00b45a0c737c0717",
    "GRAB-18": "3b1b7d2d76ec10acaae3b237bdd0879c820097bcefdd2abcee63308e7f1a215c",
    "GRAB-24": "72369e134b13c37d5251e69ebc58a6d5b668cd9b15e63995e5bacaf8c760c174",
    "GRAB-30": "ddfa4def4167ee862ccdc70cafd7d997e6f0192c1b4c81d0aeb987e66c1bde61",
    "GRAB-36": "161df069eb5cbe358d2904b47386117860d63ebeb0152a5ccfe10f90dd8fc0f4",
    "GRAB-42": "f094080e1c4a5ea394d799fd35ca035bb888341b57e7da472941baedc9a897d1",
    "LEE-12": "f6c652cb90d5a6aa08ea6aedcc2205b3da69f05f0233385a0a9ac8d200887793",
    "LEE-18": "b9691f8f2fffdbce8f430162739320b168c5aa5f57d66f5a49dd381aa1ac0cc0",
    "LEE-24": "eaf972d4895259301b8871690fd56b0d7f1f0a59eddb82936312c73e75e1bde5",
    "LEE-30": "27eb735fd778c5cfd9f990130dc01d269f988ed30822aa8a873f90ca8dc78680",
    "LEE-36": "efe3e4432cd65c736f16f9ecaf81a2ea741c41ece6c65dcb7eec7ce336093ba3",
    "LEE-42": "830b802a08bced0969fa54ff7d2a49323c7daef04c1f72ce46a59234ffb6a8ad",
    "LEE-48": "b52927d79bf63b44e67ee7723851b052455bc79f73fbcc8092990ff4b3f0b93e",
    "AB-12": "6aa6a0238c564bd5b38a938547d67bfe9f24d4f7c371c48537d6fd3e0fdf87f5",
    "AB-18": "460837504b67a5a35a70421202970b540fed44d2c22438515daf6825369ddf57",
    "AB-24": "bf3fae97f7b2645c6750a787abc1b9ef4b0b028fb177a8eef4a233d546b44156",
    "AB-30": "26be131d964ae0d3c1fec454cad706c88fe55e218c8788dfe425855244a7be24",
    "AB-36": "4322a7f0cae3b996f84451d7565263bed97b6caedbde582b63789901dfcefe78",
    "AB-42": "a5983b5bb24056089756c873971ea22bf0dd7dbb500f709853ee9d769b49d910",
    "AB-48": "df3e1011d2934f105f092234985dce316fd3d13c83bb7879507747f453b5ff36",
    "BR-61": "7e2cda3d37d0b061cdc35849b13a4d713866e7b841f94269b02d4db72c786f06",
    "BR-121": "01b6312ea45893365a905244b990e0f7449a5ac8681f5e98fffd38e0f77cfac0",
    "BR-141": "eaa7857433f4a6e7ec4c55595747a19f382d32ac2526ebbdb0b25df099c6bb1a",
    "D2-DERIV-1": "2f1a8c6cfeb4dfa6dee5bae1c247abeb0e8e33194ce568561ba38bd4c460b559",
    "D2-DERIV-2": "9a974300edc458b5bda9212bc30ac2f3542c1e91a10d7a75b05c983215286395",
    "D2-DERIV-3": "a97db28fb353660895dad56bc127b93b47fcdbd3ebbae313ebe7b0fca180c787",
    "D2-DERIV-4": "687488e0fe2caa434f50b636b91b9a0abb435369cce5b40848f4ae1771e80fc5",
    "X121-DERIV": "a2f205809916321cfd006dd51c636ce490d943de308b3f7ec6e014ac004e1df6",
    "E1-A": "f801742938cd8fb1635e6ee02da228f49efe62b3617eb0b164a85462806953fb",
    "E1-B": "7e17b624ff7dc2194bec6c639b8d2ec139289eb52375b3c37027eb9d2f94a5ef",
    "LFACT": "b3bdac5a138e1458499e5e212938ae293955291344d26afff1be0732b0a1c4f4",
    "LCOMB-A": "7ff00a5cd02a716dd2b3d66de5cfe20a4f7bef18468a3b1fedb06ac5faa5fa72",
    "LCOMB-APRIME": "fd441aef858a41dca3b3bf3f2c43398d2ee426e5a27a6929d95b873c92a57103",
    "SERRE-CROSS": "53a1bad1d7cfb5b8f893f4f9dacff31a9a5fceefdbae4c23da1a9e9cf8e31051",
    "MRB": "ad576fd4d356508943288df45af7b4b7a67870d875c27b71d58fc352c8890eca",
    "X42D": "71f76d27c437a5dfc206ae5e8c298252c762de298fbf9b41195ffb3fd7130024",
    "XW2-COEFF": "57210c878afb03c3b6e1db7e33786a8675fd660077981ac262fcdd532c3e4066",
}


def _digest(case: IdentityCase) -> str:
    h = hashlib.sha256(repr((case.anchor, case.default_order)).encode())
    for order in (0, 1, 7, 40):
        h.update(repr([(s.grain, s.nums, s.den) for pair in case.build(order) for s in pair]).encode())
    return h.hexdigest()


def test_every_identity_keeps_its_statement_order_and_sides():
    reg = registry()
    assert list(reg) == list(_SIDE_DIGESTS)
    moved = [ident for ident, case in reg.items() if _digest(case) != _SIDE_DIGESTS[ident]]
    assert not moved, f"statement, default order or sides moved for: {', '.join(moved)}"


def test_a_lambert_identity_checks_the_series_its_certificate_covers(monkeypatch):
    # LAMBERT-1 reads X81's divisor sum from the block table: with k = 5 the
    # table names n sigma_4(n), and X_{8,1} no longer matches it at q^2
    assert verify("LAMBERT-1", 20).passed
    m, (text, _, with_m, dilation), decreasing = lambert._LEMMA_TABLE["X81"]
    monkeypatch.setitem(lambert._LEMMA_TABLE, "X81", (m, (text, 5, with_m, dilation), decreasing))
    result = verify("LAMBERT-1", 20)
    assert not result.passed and result.first_bad_exponent == 2


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
