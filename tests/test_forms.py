"""Generators against independent oracles (brute-force counts, convolution)."""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmforms import extremal, forms
from qmforms.extremal import form_by_label
from qmforms.forms import (
    OrderExceeded,
    ParameterRange,
    _tau_ints,
    _theta_block,
    delta_series,
    e2_half_arguments,
    eisenstein,
    martin_royer_bracket,
    r4_table,
    serre_derivative,
    sigma_table,
    tau,
)
from qmforms.qseries import FourierSeries, grow_only

sys.path.insert(0, str(Path(__file__).resolve().parent))
import e2_reference  # noqa: E402
from divisor_reference import r4, sigma  # noqa: E402

F = Fraction


# ---------------------------------------------------------------------------
# divisor sums
# ---------------------------------------------------------------------------


@given(st.integers(1, 400), st.integers(0, 6))
@settings(max_examples=80)
def test_sigma_matches_full_scan(n, k):
    assert sigma(n, k) == sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_sigma_table_matches_pointwise():
    t = sigma_table(120, 3)
    for n in range(1, 121):
        assert t[n] == sigma(n, 3)


def _additive_sigma_table(limit, k):
    """The sieve over multiples that the linear sieve replaced, as its oracle."""
    out = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dk = d**k
        for m in range(d, limit + 1, d):
            out[m] += dk
    return out


@pytest.mark.parametrize("k", [0, 1, 3, 5, 7, 9, 13])
def test_linear_sigma_sieve_matches_the_additive_sieve(k):
    full = _additive_sigma_table(3000, k)
    assert sigma_table(3000, k) == full
    for n in range(41):
        assert sigma_table(n, k) == full[: n + 1]


def test_sigma_table_keeps_no_shared_state():
    first = sigma_table(50, 5)
    first[12] = -1
    assert sigma_table(50, 5)[12] == sigma(12, 5)
    assert sigma_table(30, 5) == [0] + [sigma(n, 5) for n in range(1, 31)]


# ---------------------------------------------------------------------------
# four-squares counts: closed form vs. literal lattice enumeration
# ---------------------------------------------------------------------------


def test_r4_against_lattice_count():
    limit = 200
    # r1[j] = #{x in Z : x^2 = j}, then two convolution squarings
    r1 = [0] * (limit + 1)
    for x in range(-15, 16):
        if x * x <= limit:
            r1[x * x] += 1
    r2 = [0] * (limit + 1)
    for i in range(limit + 1):
        if r1[i]:
            for j in range(limit + 1 - i):
                r2[i + j] += r1[i] * r1[j]
    r4_brute = [0] * (limit + 1)
    for i in range(limit + 1):
        if r2[i]:
            for j in range(limit + 1 - i):
                r4_brute[i + j] += r2[i] * r2[j]
    assert r4_table(limit) == r4_brute
    for n in (0, 1, 2, 3, 16, 200):
        assert r4(n) == r4_brute[n]


def test_r4_small_values():
    assert [r4(n) for n in (0, 1, 2, 3)] == [1, 8, 24, 32]


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------


def test_tau_small_values():
    assert tau(1) == 1
    assert tau(2) == -24
    assert tau(4) == -1472


def test_tau_cap():
    with pytest.raises(OrderExceeded):
        tau(101, cap=100)
    delta_series(300)  # the cap holds even when the shared table is longer
    with pytest.raises(OrderExceeded):
        tau(101, cap=100)


TAU_1024 = _tau_ints(1024)


def _table_order(as_series: bool, n: int) -> int:
    """The order a request builds ``delta_series`` at: n, or tau's power of two."""
    return n if as_series else 1 << max(8, n.bit_length())


@given(st.lists(st.tuples(st.booleans(), st.integers(1, 600)), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_shared_tau_table_serves_any_request_sequence(requests):
    delta_series.cache_clear()
    top = 0
    for as_series, n in requests:
        if as_series:
            assert list(delta_series(n).nums) == _tau_ints(n)
        else:
            assert tau(n) == TAU_1024[n]
        top = max(top, _table_order(as_series, n))
        # the one entry holds the largest order asked so far, and is right there
        misses = delta_series.cache_info().misses
        assert list(delta_series(top).nums) == TAU_1024[: top + 1]
        assert delta_series.cache_info().misses == misses
        assert delta_series.cache_info().currsize == 1


def test_shared_tau_table_only_grows():
    delta_series.cache_clear()
    delta_series(600)
    delta_series(40)
    tau(300)
    assert delta_series.cache_info()[1:] == (1, None, 1)
    tau(601)  # tau asks for the next power of two, 1024
    delta_series(700)
    assert delta_series.cache_info()[1:] == (2, None, 1)
    delta_series.cache_clear()
    for n in range(1, 3000):  # so a loop over n rebuilds O(log n) times
        tau(n)
    assert delta_series.cache_info().misses == 5  # at 256, 512, ..., 4096


def test_shared_tau_table_under_threads():
    wrong = []

    def worker(requests):
        for as_series, n in requests:
            if as_series and list(delta_series(n).nums) != TAU_1024[: n + 1]:
                wrong.append(n)
            if not as_series and tau(n) != TAU_1024[n]:
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):  # each round starts from an empty table
            requests = [(k % 2 == 0, 1 + (k * 37 + round_ * 101) % 600) for k in range(24)]
            threads = [threading.Thread(target=worker, args=(requests[i::6],)) for i in range(6)]
            delta_series.cache_clear()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            # one entry, at the largest order any thread asked for
            top = max(_table_order(*request) for request in requests)
            assert delta_series.cache_info().currsize == 1
            misses = delta_series.cache_info().misses
            assert list(delta_series(top).nums) == TAU_1024[: top + 1]
            assert delta_series.cache_info().misses == misses
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_delta_series_holds_its_own_copy():
    delta_series.cache_clear()
    first = delta_series(60)
    assert isinstance(first.nums, tuple)
    tau(600)  # the entry is rebuilt longer
    assert delta_series(60) == first
    assert list(first.nums) == _tau_ints(60)


def test_delta_from_eisenstein_combination():
    n = 200
    e4 = eisenstein(4, n)
    e6 = eisenstein(6, n)
    combo = (e4**3 - e6**2).scale(F(1, 1728))
    assert delta_series(n) == combo


def test_delta_starts_at_q():
    assert delta_series(10).leading() == (1, 1)


# ---------------------------------------------------------------------------
# Eisenstein series and derivations
# ---------------------------------------------------------------------------


def test_eisenstein_first_coefficients():
    assert eisenstein(2, 3).coefficient(1) == -24
    assert eisenstein(4, 3).coefficient(1) == 240
    assert eisenstein(6, 3).coefficient(1) == -504
    assert eisenstein(8, 3).coefficient(1) == 480
    assert eisenstein(10, 3).coefficient(1) == -264


def test_higher_weights_factor():
    n = 100
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    assert eisenstein(8, n) == e4**2
    assert eisenstein(10, n) == e4 * e6
    # M12 and M16 are two-dimensional and M14 one-dimensional
    assert eisenstein(12, n).scale(691) == (e4**3).scale(441) + (e6**2).scale(250)
    assert eisenstein(14, n) == e4 * eisenstein(10, n)
    assert eisenstein(16, n).scale(3617) == (e4**4).scale(1617) + (e4 * e6**2).scale(2000)


def test_eisenstein_rejects_other_weights():
    for k in (18, 7):
        with pytest.raises(ParameterRange):
            eisenstein(k, 10)


def test_serre_derivative_kills_discriminant():
    # the weight-12 derivation applied to the discriminant vanishes exactly
    d = delta_series(80)
    assert serre_derivative(d, 12).is_zero()


def test_serre_derivative_weight4():
    # on the weight-4 series it gives -E6/3
    n = 60
    lhs = serre_derivative(eisenstein(4, n), 4)
    assert lhs == eisenstein(6, n).scale(F(-1, 3))


# ---------------------------------------------------------------------------
# bilinear bracket
# ---------------------------------------------------------------------------


def test_bracket_order2_closed_form():
    # for equal weights m and depth 0 the order-2 bracket collapses to
    # (m+1) m f'' f - (m+1)^2 (f')^2
    f = eisenstein(4, 40)
    m = 4
    br = martin_royer_bracket(f, f, 2, m, 0, m, 0)
    closed = (f.derivative().derivative() * f).scale((m + 1) * m) - (
        f.derivative() * f.derivative()
    ).scale((m + 1) ** 2)
    assert br == closed


def test_bracket_order1_is_antisymmetric_cross():
    f = eisenstein(4, 30)
    g = eisenstein(6, 30)
    br = martin_royer_bracket(f, g, 1, 4, 0, 6, 0)
    closed = (f * g.derivative()).scale(4) - (f.derivative() * g).scale(6)
    # C(4,1) f g' - C(6,1) f' g  with signs per the definition
    assert br == closed.scale(-1) or br == closed


def test_bracket_rejects_bad_parameters():
    f = eisenstein(4, 10)
    with pytest.raises(ParameterRange):
        martin_royer_bracket(f, f, 2, 0, 2, 0, 2)
    with pytest.raises(ParameterRange):
        martin_royer_bracket(f, f, -1, 4, 0, 4, 0)


# ---------------------------------------------------------------------------
# theta blocks
# ---------------------------------------------------------------------------


def test_theta_block_basics():
    th = {name: _theta_block(name, 30) for name in ("H2", "H4", "A", "B")}
    assert th["H2"].leading() == (F(1, 2), 16)
    assert th["H4"].coefficient(0) == 1
    assert th["A"].leading() == (1, 256)
    assert th["B"].coefficient(0) == 2
    # H2 + H4 collects every four-square count
    total = th["H2"] + th["H4"]
    table = r4_table(60)
    for n in range(61):
        assert total.coefficient(F(n, 2)) == table[n]
    # B = 2 (1 + sum r4(2n) q^n)
    for n in range(1, 31):
        assert th["B"].coefficient(n) == 2 * table[2 * n]
    assert th["B"].reduced().grain == 1  # grain 2 as built, every exponent an integer


@pytest.mark.parametrize("label, products", [("H2", 0), ("H4", 0), ("B", 0), ("A", 1)])
def test_each_theta_block_builds_only_the_blocks_it_is_made_of(monkeypatch, label, products):
    # expand H2, eval H4 and the B descriptor form no A = H2·H2
    made, mul = [], FourierSeries.__mul__
    monkeypatch.setattr(FourierSeries, "__mul__", lambda self, other: made.append(1) or mul(self, other))
    forms._theta_block.cache_clear()
    form_by_label(label, 200)
    assert len(made) == products


@pytest.mark.parametrize("order", [2, 30, 120, 275, 2000])
def test_theta_side_forms_are_the_papers_h2_h4_polynomials(order):
    # built in A and B, they equal the paper's H2/H4 polynomials, grain and stored form included
    for label in ("H2", "H4", "A", "B", "G", "K10", "K12", "K14", "L", "L10"):
        got, want = form_by_label(label, order), e2_reference.theta_side(label, order)
        assert (got.grain, got.nums, got.den) == (want.grain, want.nums, want.den), label


def test_e2_half_argument_trace():
    # averaging over the two half-argument translates:
    # E2(z/2) + E2((z+1)/2) = 6 E2(z) - 4 E2(2z)
    n = 40
    a, b = e2_half_arguments(n)
    e2 = eisenstein(2, n)
    assert a + b == e2.scale(6) - e2.dilate(2).scale(4)


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------


def test_composites_vanishing_orders():
    c = {label: form_by_label(label, 12) for label in ("F", "G", "L", "L10", "P2")}
    assert c["F"].coefficient(0) == 0
    assert c["F"].coefficient(1) == 0
    assert c["F"].coefficient(2) == 0
    assert c["F"].coefficient(3) != 0
    assert c["G"].leading() == (F(5, 2), 7 * 16**5)
    assert c["L"].coefficient(0) == 0
    assert c["L"].coefficient(F(1, 2)) == 0
    # F vanishes to order 3 and G to order 5/2, so the cross combination
    # F'G - FG' starts at 3 + 5/2 with coefficient (3 - 5/2) a3 g0
    lead = c["L10"].leading()
    assert lead is not None
    assert lead[0] == F(11, 2)
    assert lead[1] == F(1, 2) * c["F"].coefficient(3) * 7 * 16**5
    assert c["P2"].coefficient(0) == 0
    assert c["P2"].coefficient(1) == 1


def test_f_is_the_papers_e2_polynomial_through_order_2000():
    # F's Kaneko–Zagier build, Φ_0 of its x-parts, against
    # (49E4³ − 25E6²)E2² − 48E4²E6·E2 − 25E4⁴ + 49E4E6² from products of E2, E4 and E6
    want = forms.recompose_parts(e2_reference.f_parts(2000))
    assert forms.form_f.__wrapped__(2000) == want == forms.form_f_x_parts(2000, 1)[0]


def test_p2_coefficient_law():
    # coefficient of q^n is sigma_1(n) - 5 sigma_1(n/2) + 4 sigma_1(n/4)
    c = form_by_label("P2", 40)
    for n in range(1, 41):
        want = sigma(n, 1)
        if n % 2 == 0:
            want -= 5 * sigma(n // 2, 1)
        if n % 4 == 0:
            want += 4 * sigma(n // 4, 1)
        assert c.coefficient(n) == want


# ---------------------------------------------------------------------------
# one grow-only cache per family
# ---------------------------------------------------------------------------

CACHES = tuple({id(f): f for m in (forms, extremal) for f in vars(m).values() if hasattr(f, "cache_clear")}.values())


def _clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def _sizes():
    return [cache.cache_info().currsize for cache in CACHES]


def _misses():
    return sum(cache.cache_info().misses for cache in CACHES)


# family -> (request of (key, order), keys)
CACHED_FAMILIES = {
    "eisenstein": (lambda k, order: forms.eisenstein(k, order), st.sampled_from((2, 4, 6, 8, 10))),
    "x_w1": (lambda w, order: extremal.x_w1(w, order), st.integers(3, 9).map(lambda h: 2 * h)),
    "x_w1_components": (lambda w, order: extremal.x_w1_components(w, order), st.integers(3, 9).map(lambda h: 2 * h)),
    "x_w2": (lambda w, order: extremal.x_w2(w, order), st.sampled_from((4, 8, 10, 12, 14, 16))),
    "_power": (lambda key, order: extremal._power(*key, order),
               st.tuples(st.sampled_from(("E4", "Delta")), st.integers(1, 6))),
    "_theta_block": (lambda name, order: forms._theta_block(name, order), st.sampled_from(("H2", "H4", "A", "B"))),
    "form_f": (lambda _, order: forms.form_f(order), st.none()),
    "form_g": (lambda _, order: forms.form_g(order), st.none()),
    "form_k": (lambda weight, order: forms.form_k(weight, order), st.sampled_from((10, 12, 14))),
    "form_l": (lambda _, order: forms.form_l(order), st.none()),
    "form_l10": (lambda _, order: forms.form_l10(order), st.none()),
    "form_p2": (lambda _, order: forms.form_p2(order), st.none()),
    "delta_series": (lambda _, order: forms.delta_series(order), st.none()),
}

_FAMILY_KEY = st.sampled_from(sorted(CACHED_FAMILIES)).flatmap(
    lambda name: st.tuples(st.just(name), CACHED_FAMILIES[name][1]))
# a few family keys, each asked for at rising and falling orders
_CACHE_REQUESTS = st.lists(_FAMILY_KEY, min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: st.lists(st.tuples(st.sampled_from(keys), st.integers(1, 600)), min_size=2, max_size=6))


def _stored(value):
    """The exact stored form of a result: grain, numerators and denominator of each series."""
    if isinstance(value, FourierSeries):
        return value.grain, value.nums, value.den
    return value.weight, _stored(value.pure), _stored(value.e2_part)


_FRESH: dict = {}


def _fresh(family_key, order):
    """The family's result built after clearing every cache."""
    if (family_key, order) not in _FRESH:
        _clear_caches()
        name, key = family_key
        _FRESH[family_key, order] = _stored(CACHED_FAMILIES[name][0](key, order))
    return _FRESH[family_key, order]


def test_every_cached_builder_goes_through_one_cache():
    assert len(CACHES) == 13
    assert all(cache.cache_info().maxsize is None for cache in CACHES)


def test_a_negative_order_is_built_and_not_kept():
    _clear_caches()
    forms.eisenstein(4, 50)
    assert forms.eisenstein(4, -3) == FourierSeries.one(0)  # as a fresh build gives
    assert forms.eisenstein(4, 50).order == 50 and forms.eisenstein.cache_info()[1:] == (2, None, 1)


def test_grow_only_fills_in_a_default_order_and_refuses_a_missing_one():
    assert forms.eisenstein(4) == forms.eisenstein(4, forms.DEFAULT_ORDER)
    assert forms.form_f().order == forms.DEFAULT_ORDER
    # delta_series' order has no default: the ordinary TypeError, naming the builder
    with pytest.raises(TypeError, match=r"^delta_series\(\) missing 1 required positional argument: 'order'$"):
        forms.delta_series()
    with pytest.raises(TypeError, match=r"^eisenstein\(\) takes from 1 to 2 positional arguments but 3 were given$"):
        forms.eisenstein(4, 10, 20)


@pytest.mark.parametrize("build", [lambda order, k: order, lambda: 0, lambda *order: 0, lambda k, *, order: k])
def test_grow_only_refuses_a_builder_whose_last_positional_parameter_is_not_order(build):
    with pytest.raises(TypeError, match="last positional parameter is order"):
        grow_only(build)


@given(_CACHE_REQUESTS)
@settings(max_examples=30, deadline=None)
def test_grow_only_caches_serve_any_request_sequence(requests):
    expected = [_fresh(*request) for request in requests]
    _clear_caches()
    sizes, top = [], {}
    for ((name, key), order), want in zip(requests, expected):
        misses = _misses()
        assert _stored(CACHED_FAMILIES[name][0](key, order)) == want
        if order <= top.get((name, key), -1):  # served by truncating the entry
            assert _misses() == misses
        top[name, key] = max(order, top.get((name, key), -1))
        sizes.append(_sizes())
    # one entry per key: the sizes of asking each distinct key once
    _clear_caches()
    for ((name, key), _), size in zip(requests, sizes):
        CACHED_FAMILIES[name][0](key, 1)
        assert _sizes() == size
