"""Core series arithmetic: oracles first, then algebraic laws."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmforms import extremal, identities, lambert, numeric, positivity
from qmforms.positivity import ratio_infimum, sign_pattern
from qmforms.qseries import (
    FourierSeries,
    _intconv,
    _kronecker_conv,
    _sparse_conv,
    lambert_block,
)

F = Fraction


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def conv_oracle(a, b, klim):
    out = [0] * (klim + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= klim:
                out[i + j] += x * y
    return out


def sigma_oracle(n, k):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=40),
    st.lists(st.integers(-9, 9), min_size=1, max_size=40),
)
def test_intconv_matches_oracle_small(a, b):
    klim = len(a) + len(b) - 2
    assert _intconv(a, b, klim) == conv_oracle(a, b, klim)


def test_intconv_kronecker_path():
    # big enough to take the packed route, with mixed signs
    a = [(-1) ** i * (i * i + 1) for i in range(300)]
    b = [(i % 7) - 3 for i in range(280)]
    assert _intconv(a, b, 578) == conv_oracle(a, b, 578)
    assert _intconv(a, b, 120) == conv_oracle(a, b, 120)


def _kronecker_cases():
    rng = random.Random(7)
    mixed = [rng.randint(-50, 50) for _ in range(70)]
    wide = [rng.choice((-1, 1)) * (2**200 - rng.randrange(2**64)) for _ in range(40)]
    sparse = [rng.randint(-9, 9) or 1 if i % 9 == 0 else 0 for i in range(400)]
    return {
        "all negative": ([-(i % 13) - 1 for i in range(60)], [-(3 * i % 11) - 1 for i in range(50)], 108),
        "one-sided signs": ([i % 7 + 1 for i in range(60)], [-(i % 5) - 1 for i in range(45)], 103),
        "mixed signs": (mixed, [rng.randint(-50, 50) for _ in range(65)], 133),
        "square": (mixed, mixed, 138),
        "short output": (mixed, mixed[::-1], 30),
        "long zero runs": (sparse, sparse[::-1] + [0] * 50, 600),
        "200-bit values": (wide, wide[::-1], 78),
        "200-bit square": (wide, wide, 50),
    }


@pytest.mark.parametrize("case", sorted(_kronecker_cases()))
def test_kronecker_conv_matches_oracle(case):
    a, b, klim = _kronecker_cases()[case]
    want = conv_oracle(a, b, klim)
    assert _kronecker_conv(a, b, klim + 1) == want
    # and _intconv, by whichever route it takes (long zero runs take the loop)
    assert _intconv(a, b, klim) == want


@st.composite
def signed_operands(draw):
    """Signed values up to 2^80 in magnitude, from every term nonzero to none."""
    n = draw(st.integers(1, 200))
    nonzero = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return [draw(st.integers(-(2**80), 2**80)) if i in nonzero else 0 for i in range(n)]


@given(signed_operands(), signed_operands(), st.booleans(), st.integers(0, 400))
@settings(max_examples=80, deadline=None)
def test_packed_and_sparse_routes_agree(a, b, square, klim):
    # _intconv picks a route by the operands' nonzero counts; both give the same terms
    if square:
        b = a
    n_out = min(len(a) + len(b) - 2, klim) + 1
    x = a[:n_out]
    y = x if square else b[:n_out]
    # the packed route takes operands with a nonzero term; _intconv answers the rest itself
    want = _kronecker_conv(x, y, n_out) if any(x) and any(y) else [0] * n_out
    assert _sparse_conv(x, y, n_out) == want
    assert _intconv(a, b, klim) == want


@st.composite
def graded_series(draw):
    """A signed series of grain 1-4: every nonzero term in one residue class (from an offset in it), dense,
    zero, or one term."""
    grain, size = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    value = st.one_of(st.just(0), st.integers(-(2**70), 2**70))
    kind = draw(st.sampled_from(("one class", "dense", "zero", "one term")))
    nums = [0] * size
    if kind == "one class":
        start = draw(st.integers(0, grain - 1)) + grain * draw(st.integers(0, 4))
        nums[start::grain] = [draw(value) for _ in nums[start::grain]]
    elif kind == "dense":
        nums = [draw(value) for _ in nums]
    elif kind == "one term":
        nums[draw(st.integers(0, size - 1))] = draw(st.integers(1, 2**70)) * draw(st.sampled_from((-1, 1)))
    return FourierSeries(grain, tuple(nums), draw(st.integers(1, 12)))


def _product_by_intconv(f, g):
    grain, a, b = f._aligned(g)
    return FourierSeries(grain, tuple(_intconv(a, b, min(len(a), len(b)) - 1)), f.den * g.den)


@given(graded_series(), graded_series())
@settings(max_examples=150, deadline=None)
def test_products_by_residue_class_equal_the_full_convolution(f, g):
    # __mul__ convolves compressed residue classes where it can; the stored form is _intconv's on the aligned
    # numerators, at every truncation of f, on either side, and for squares
    for k in range(len(f.nums)):
        cut = f.truncate(F(k, f.grain))
        for left, right in ((cut, g), (g, cut), (cut, cut)):
            got, want = left * right, _product_by_intconv(left, right)
            assert (got.grain, got.nums, got.den) == (want.grain, want.nums, want.den)


# ---------------------------------------------------------------------------
# construction and access
# ---------------------------------------------------------------------------


def test_orders_and_coefficient_access():
    s = FourierSeries.from_coefficients([1, 2, 3], grain=1)
    assert s.order == 2
    assert s.coefficient(1) == 2
    assert s.coefficient(F(1, 2)) == 0  # not representable => genuinely absent
    with pytest.raises(ValueError):
        s.coefficient(3)

    h = FourierSeries.from_coefficients([0, 5, 0, 7, 1], grain=2)
    assert h.order == F(2)
    assert h.coefficient(F(1, 2)) == 5
    assert h.coefficient(F(3, 2)) == 7


def test_leading_and_zero():
    z = FourierSeries.zero(5)
    assert z.leading() is None
    assert z.is_zero()
    s = FourierSeries.from_coefficients([0, 0, 4, 1])
    assert s.leading() == (2, 4)
    assert not s.is_zero()


# ---------------------------------------------------------------------------
# arithmetic laws
# ---------------------------------------------------------------------------

small_series = st.builds(
    FourierSeries.from_coefficients,
    st.lists(
        st.fractions(max_denominator=12, min_value=-8, max_value=8),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from([1, 2, 3]),
)


@given(small_series, small_series)
@settings(max_examples=60)
def test_mul_commutes(f, g):
    assert f * g == g * f


@given(small_series, small_series, small_series)
@settings(max_examples=40)
def test_mul_distributes(f, g, h):
    # align orders first: distributivity holds once all operands share a bound
    m = min(f.order, g.order, h.order)
    f, g, h = f.truncate(m), g.truncate(m), h.truncate(m)
    assert (f + g) * h == f * h + g * h


@given(small_series, small_series)
@settings(max_examples=60)
def test_leibniz_rule(f, g):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


def test_mul_truncation_tracks_absolute_order():
    f = FourierSeries.from_coefficients([1] * 11)          # order 10
    g = FourierSeries.from_coefficients([1] * 7, grain=2)  # order 3
    assert (f * g).order == F(3)
    assert (f + g).order == F(3)


def test_mul_fallback_on_huge_denominators():
    # denominators chosen so their lcm overflows the packing comfort zone
    big = [F(1, p) for p in (2**31 - 1, 2**61 - 1, 2305843009213693951, 998244353)]
    f = FourierSeries.from_coefficients(big)
    g = FourierSeries.from_coefficients([F(3), F(1, 7), F(2), F(5)])
    prod = f * g
    for k in range(4):
        acc = F(0)
        for i in range(k + 1):
            acc += big[i] * [F(3), F(1, 7), F(2), F(5)][k - i]
        assert prod.coefficient(k) == acc


def test_pow_matches_repeated_mul():
    f = FourierSeries.from_coefficients([1, -3, 2, 5, -1])
    assert f**3 == f * f * f
    assert (f**0).coefficient(0) == 1


def test_derivative_scales_by_exponent():
    h = FourierSeries.from_coefficients([2, 3, 0, 7], grain=2)
    d = h.derivative()
    assert d.coefficient(F(1, 2)) == F(3, 2)
    assert d.coefficient(F(3, 2)) == F(21, 2)
    assert d.coefficient(0) == 0


# ---------------------------------------------------------------------------
# integer storage against a Fraction-per-coefficient oracle
# ---------------------------------------------------------------------------

mixed_series = st.builds(
    FourierSeries.from_coefficients,
    st.lists(
        st.one_of(
            st.integers(-40, 40),
            st.fractions(max_denominator=60, min_value=-9, max_value=9),
            st.sampled_from([F(1, 2**70), F(-5, 3**40), F(7, 720)]),
        ),
        min_size=1,
        max_size=14,
    ),
    st.sampled_from([1, 2, 3]),
)


def _at_grain(s, g):
    step = g // s.grain
    out = [F(0)] * ((len(s.coeffs) - 1) * step + 1)
    out[::step] = s.coeffs
    return out


def at_grain(s, g):
    """The same expansion stored at grain g, a multiple of s's."""
    return FourierSeries.from_coefficients(_at_grain(s, g), g)


def _oracle_mul(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(n)]


def _same(result, grain, coeffs):
    assert result.den > 0 and math.gcd(result.den, *result.nums) == 1
    assert result.grain == grain
    assert list(result.coeffs) == list(coeffs)
    assert [F(n, result.den) for n in result.nums] == list(coeffs)


@given(mixed_series, mixed_series, st.fractions(max_denominator=50, min_value=-6, max_value=6))
@settings(max_examples=80, deadline=None)
def test_integer_storage_matches_fraction_oracle(f, g, x):
    fc = list(f.coeffs)
    _same(f, f.grain, fc)
    grain = math.lcm(f.grain, g.grain)
    a, b = _at_grain(f, grain), _at_grain(g, grain)
    n = min(len(a), len(b))
    _same(f + g, grain, [a[k] + b[k] for k in range(n)])
    _same(f - g, grain, [a[k] - b[k] for k in range(n)])
    _same(f * g, grain, _oracle_mul(a, b))
    _same(f * f, f.grain, _oracle_mul(fc, fc))
    _same(f**3, f.grain, _oracle_mul(_oracle_mul(fc, fc), fc))
    _same(-f, f.grain, [-c for c in fc])
    _same(f + x, f.grain, [fc[0] + x] + fc[1:])
    _same(f.scale(x), f.grain, [c * x for c in fc])
    _same(f.derivative(), f.grain, [c * F(k, f.grain) for k, c in enumerate(fc)])
    cut = f.order / 2
    _same(f.truncate(cut), f.grain, fc[: math.floor(cut * f.grain) + 1])
    for m in (2, 3):
        d = math.gcd(m, f.grain)
        size = (len(fc) - 1) * (f.grain // d) // f.grain + 1
        want = [F(0)] * size
        for k, c in enumerate(fc):
            if k * m // d < size:
                want[k * m // d] = c
        _same(f.dilate(m), f.grain // d, want)
    r = f.reduced()
    step = f.grain // r.grain
    assert all(not c for k, c in enumerate(fc) if k % step)
    _same(r, r.grain, fc[: (len(fc) - 1) // step * step + 1 : step])
    klim = math.floor(min(f.order, g.order) * grain)
    diff = next((k for k in range(klim + 1) if a[k] != b[k]), None)
    want_diff = None if diff is None else (F(diff, grain), a[diff], b[diff])
    assert f.first_difference(g) == want_diff
    assert (f == g) == (f.order == g.order and want_diff is None)
    back = FourierSeries.from_coefficients(fc, f.grain)
    assert (back.nums, back.den) == (f.nums, f.den)


@given(mixed_series, st.sampled_from([2, 3, 6]))
@settings(max_examples=60, deadline=None)
def test_hash_and_eq_agree_across_grains(f, k):
    h = at_grain(f, k * f.grain)
    assert h == f and hash(h) == hash(f)
    assert h.den == f.den


def test_hash_and_eq_across_grains_with_a_denominator():
    f = FourierSeries.from_coefficients([F(1, 2), F(1, 3), F(5, 6)])
    h = FourierSeries.from_coefficients([F(1, 2), 0, F(1, 3), 0, F(5, 6)], grain=2)
    assert (f.den, h.den) == (6, 6)
    assert f == h and hash(f) == hash(h)
    assert len({f, h, at_grain(f, 3)}) == 1
    other = FourierSeries.from_coefficients([F(1, 2), 0, F(1, 3), 0, F(5, 7)], grain=2)
    assert other != f and len({f, other}) == 2


# (label, dilation) -> (min ratio, argmin, violations) over n <= 150, and
# label -> positive count over 1..450, as the Fraction-per-coefficient code
# computed them
RATIO_GOLDEN = {
    ("X4_2", 2): (F(1022, 255), 128, ()),
    ("X4_2", 3): (F(1092, 121), 81, ()),
    ("Y12_2", 2): (F(21728156218655864, 2485068619732137), 149, (1, 2)),
    ("Y12_2", 3): (F(963908, 51), 4, (1, 2)),
    ("X16_2", 2): (F(89423904365132991952564341, 5404412615775807945172), 150, (1, 2, 3)),
    ("X16_2", 3): (F(6547723139175142644715954528, 1351103153943951986293), 150, (1, 2, 3)),
}
SIGN_GOLDEN = {"X4_2": 450, "Y12_2": 448, "X16_2": 447}


@pytest.mark.parametrize("label", sorted(SIGN_GOLDEN))
def test_ratio_and_sign_scans_match_fraction_coefficients(label):
    from qmforms.extremal import form_by_label

    coeffs = form_by_label(label, 450).coeffs
    for dilate in (2, 3):
        report = ratio_infimum(label, dilate, 150)
        ratios = {n: coeffs[dilate * n] / coeffs[n] for n in range(1, 151) if coeffs[n] > 0}
        best = min(ratios.values())
        assert report.min_ratio == best and report.argmin == min(n for n in ratios if ratios[n] == best)
        assert report.violations == tuple(n for n in range(1, 151) if coeffs[n] <= 0)
        assert (report.min_ratio, report.argmin, report.violations) == RATIO_GOLDEN[label, dilate]
    count = sign_pattern(label, 450).count_positive
    assert count == sum(1 for c in coeffs[1:] if c > 0) == SIGN_GOLDEN[label]


# ---------------------------------------------------------------------------
# dilate / grain handling
# ---------------------------------------------------------------------------


def test_dilate_keeps_absolute_order():
    f = FourierSeries.from_coefficients([0, 1, 2, 3, 4, 5, 6])  # order 6
    g = f.dilate(2)
    assert g.order == 6
    assert g.coefficient(2) == 1
    assert g.coefficient(6) == 3
    assert g.coefficient(5) == 0


def test_dilate_reduces_grain():
    h = FourierSeries.from_coefficients([0, 1, 0, 2, 0], grain=2)  # q^{1/2}+2q^{3/2}
    g = h.dilate(2)
    assert g.grain == 1
    assert g.coefficient(1) == 1
    assert g.coefficient(2) == 0
    assert g.order == 2


@given(small_series)
@settings(max_examples=40)
def test_dilate_composes(f):
    assert f.dilate(2).dilate(3) == f.dilate(6)


def test_reduced_is_lossless_on_even_support():
    h = FourierSeries.from_coefficients([1, 0, 2, 0, 3], grain=2)
    r = h.reduced()
    assert r.grain == 1
    assert r == h  # semantic equality across grains


# ---------------------------------------------------------------------------
# comparison discipline
# ---------------------------------------------------------------------------


def test_first_difference_refuses_beyond_order():
    f = FourierSeries.from_coefficients([1, 2, 3])
    g = FourierSeries.from_coefficients([1, 2])
    assert f.first_difference(g, 1) is None
    with pytest.raises(ValueError):
        f.first_difference(g, 2)


def test_first_difference_reports_exponent():
    f = FourierSeries.from_coefficients([1, 2, 3, 4])
    g = FourierSeries.from_coefficients([1, 2, 5, 4])
    e, a, b = f.first_difference(g)
    assert (e, a, b) == (2, 3, 5)


def test_cross_grain_equality():
    f = FourierSeries.from_coefficients([1, 0, 2])
    h = FourierSeries.from_coefficients([1, 0, 0, 0, 2], grain=2)
    assert f == h
    # equal series hash equal, so a set keeps one of them
    short = FourierSeries.from_coefficients([1, 2])
    half = FourierSeries.from_coefficients([1, 0, 2], grain=2)
    assert short == half
    assert hash(short) == hash(half) and hash(f) == hash(h)
    assert len({f, h, short, half}) == 2
    # the same reduced coefficients at a larger order are a different series
    longer = FourierSeries.from_coefficients([1, 0, 2, 0], grain=2)
    assert longer != short
    assert len({short, half, longer}) == 2


# ---------------------------------------------------------------------------
# the records of every layer: immutable, equal ones hash equal
# ---------------------------------------------------------------------------


def _pair_case(order):
    return [(FourierSeries.one(order), FourierSeries.one(order))]


_SERIES = FourierSeries(2, (2, 0, 6), 4)
RECORDS = {
    "FourierSeries": lambda: FourierSeries(2, (2, 0, 6), 4),
    "EvalConfig": lambda: numeric.EvalConfig(256),
    "ScanReport": lambda: numeric.ScanReport("X8_2", 7, (F(1, 2), F(2)), (), (), "no_sign_change", 128),
    "FormDescriptor": lambda: extremal.FormDescriptor("L", 14, 2, "Gamma0(4)", "summary", lambda order: None),
    "Depth1Components": lambda: extremal.Depth1Components(12, _SERIES, _SERIES),
    "IdentityCase": lambda: identities.IdentityCase("ONE", "1 = 1", 10, _pair_case),
    "IdentityResult": lambda: identities.IdentityResult("ONE", "pass", 10, F(10), None, None, 0.5),
    "MonotonicityCertificate": lambda: lambert.certify([1, 1], [1, -1], m=2, name="block"),
    "PositivityReport": lambda: positivity.check_complete_positivity("Y8_2", 20),
    "DensityReport": lambda: positivity.sign_pattern("P3", 20),
    "RatioReport": lambda: positivity.ratio_infimum("X4_2", 2, 16),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_and_equal_ones_hash_equal(name):
    record, again = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name and record is not again
    assert record == again and hash(record) == hash(again)
    fields = getattr(record, "_fields", None) or type(record).__slots__
    for field in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == again


def test_a_descriptor_compares_hashes_and_prints_its_metadata_alone():
    def build(order):
        return FourierSeries.one(order)

    def parts(order):
        return (build(order),)

    plain, with_parts = RECORDS["FormDescriptor"](), extremal.FormDescriptor("L", 14, 2, "Gamma0(4)", "summary", build, parts)
    assert plain == with_parts and hash(plain) == hash(with_parts) and repr(plain) == repr(with_parts)
    assert repr(plain) == "FormDescriptor(label='L', weight=14, depth=2, group='Gamma0(4)', summary='summary')"
    assert plain.parts is None and with_parts.parts is parts and with_parts.relabel("M").build is build
    assert plain.relabel("M") != plain and plain.relabel("M").relabel("L") == plain


def test_eval_config_validates_its_bits_and_keys_the_grid_cache_by_value():
    # test_numeric checks the lower bound and the type; the cap is checked here in process
    with pytest.raises(ValueError):
        numeric.EvalConfig(numeric.MAX_PRECISION_BITS + 1)
    assert repr(numeric.EvalConfig()) == "EvalConfig(precision_bits=128)"
    numeric.geometric_grid.cache_clear()
    first = numeric.geometric_grid(F(1, 20), 20, 5, numeric.EvalConfig(256))
    assert numeric.geometric_grid(F(1, 20), 20, 5, numeric.EvalConfig(256)) is first
    assert numeric.geometric_grid(F(1, 20), 20, 5, numeric.EvalConfig(257)) is not first
    assert numeric.geometric_grid.cache_info().hits == 1


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_str_golden_integer_case():
    s = FourierSeries.from_coefficients([0, 1, 2, 12, 4, 30])
    assert str(s) == "q + 2q^2 + 12q^3 + 4q^4 + 30q^5"


def test_str_signs_fractions_and_half_exponents():
    s = FourierSeries.from_coefficients([-1, 0, F(1, 2), -3, 0], grain=2)
    assert str(s) == "-1 + (1/2)q - 3q^{3/2}"
    assert str(FourierSeries.zero(4)) == "0"


# ---------------------------------------------------------------------------
# lambert blocks against divisor-sum oracles
# ---------------------------------------------------------------------------


def test_lambert_block_sigma():
    s = lambert_block(3, 40)
    for n in range(1, 41):
        assert s.coefficient(n) == sigma_oracle(n, 3)


def test_lambert_block_with_m_factor():
    s = lambert_block(6, 40, with_m_factor=True)
    for n in range(1, 41):
        assert s.coefficient(n) == n * sigma_oracle(n, 5)


def test_lambert_block_dilation():
    s = lambert_block(1, 30, dilation=2, with_m_factor=True)
    for n in range(1, 31):
        expected = (n // 2) * sigma_oracle(n // 2, 0) if n % 2 == 0 else 0
        assert s.coefficient(n) == expected
