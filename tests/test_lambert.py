"""Certificate machinery: exact oracles, golden data, tamper detection."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmforms.lambert import (
    MonotonicityCertificate,
    UnsupportedShape,
    _poly_eval_one,
    _poly_mul,
    _r_shift_data,
    certify,
    certify_lemma,
    derivative_numerator,
    eulerian_numerator,
    lemma_names,
    lemma_parameters,
    recheck_certificate,
    series_for,
    taylor_coefficient,
    taylor_threshold,
)

F = Fraction


# ---------------------------------------------------------------------------
# Eulerian numerators
# ---------------------------------------------------------------------------


def test_eulerian_rows():
    assert eulerian_numerator(1) == [1]
    assert eulerian_numerator(2) == [1, 1]
    assert eulerian_numerator(3) == [1, 4, 1]
    assert eulerian_numerator(4) == [1, 11, 11, 1]
    assert eulerian_numerator(6) == [1, 57, 302, 302, 57, 1]
    assert eulerian_numerator(8) == [1, 247, 4293, 15619, 15619, 4293, 247, 1]


def test_eulerian_generating_identity():
    # sum d^k x^d = x W_k(x) / (1-x)^(k+1), compared termwise to order 40
    order = 40
    for k in (1, 2, 3, 4, 6, 8):
        w = eulerian_numerator(k)
        rhs = [0] * (order + 1)
        for i, wi in enumerate(w):
            deg = i + 1  # the extra x factor
            for j in range(order + 1 - deg):
                rhs[deg + j] += wi * math.comb(j + k, k)
        assert rhs == [0] + [d**k for d in range(1, order + 1)], k


# ---------------------------------------------------------------------------
# derivative numerators (P, Q)
# ---------------------------------------------------------------------------

GOLDEN_PQ = {
    "E2": ([1, 1], [-2, 2]),
    "X42": ([1, 4, 1], [-3, 0, 3]),
    "D2": ([1, 2, 6, 2, 1], [-2, -2, 0, 2, 2]),
    "E4": ([1, 11, 11, 1], [-4, -12, 12, 4]),
    "X61": ([1, 26, 66, 26, 1], [-5, -50, 0, 50, 5]),
    "X81": (
        [1, 120, 1191, 2416, 1191, 120, 1],
        [-6, -336, -1470, 0, 1470, 336, 6],
    ),
    "X101": (
        [1, 502, 14608, 88234, 156190, 88234, 14608, 502, 1],
        [-8, -1968, -32368, -90608, 0, 90608, 32368, 1968, 8],
    ),
}


def test_derivative_numerator_goldens():
    for name, (p_want, q_want) in GOLDEN_PQ.items():
        e = lemma_parameters(name)
        p, q = derivative_numerator(e["m"], e["s"], e["b"], e["nu"])
        assert p == p_want, name
        assert q == q_want, name
        assert sum(q) == 0  # Q(1) = 0 structurally


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _raw_pq(m, s, b, nu):
    """(P, Q) straight from the quotient rule, with nothing stripped."""
    deg = b * nu
    u = [0] * (deg + 1)
    for i, si in enumerate(s):
        u[deg - i] += si
    du = [i * u[i] for i in range(1, len(u))]
    xb1 = [-1] + [0] * (b - 1) + [1]
    p0 = [nu * b * c for c in [0] * b + u]
    for i, c in enumerate(_pmul([0, 1], _pmul(xb1, du))):
        if i < len(p0):
            p0[i] -= c
        else:
            p0.append(-c)
    q0 = [m * c for c in _pmul(xb1, u)]
    return p0, q0


def test_derivative_numerator_matches_calculus():
    # numeric check that g'(t) = -t^(m-1) (t P(e^t) - Q(e^t)) / (e^(bt)-1)^(nu+1)
    # holds for the raw quotient-rule pair, and that the implementation returns
    # that pair up to a joint positive factor (x-power and integer content).
    mpmath.mp.prec = 80
    for name in lemma_names():
        e = lemma_parameters(name)
        m, s, b, nu = e["m"], e["s"], e["b"], e["nu"]
        p0, q0 = _raw_pq(m, s, b, nu)
        p, q = derivative_numerator(m, s, b, nu)

        shift = min(
            min(i for i, c in enumerate(p0) if c),
            min(i for i, c in enumerate(q0) if c),
        )
        content = math.gcd(*(abs(c) for c in p0 + q0))
        trim = lambda a: [c // content for c in a[shift:]]
        while trim(p0) and trim(p0)[-1] == 0:
            p0 = p0[:-1]
        while trim(q0) and trim(q0)[-1] == 0:
            q0 = q0[:-1]
        assert trim(p0) == p, name
        assert trim(q0) == q, name

        def g(t):
            x = mpmath.e ** (-t)
            sval = sum(c * x**i for i, c in enumerate(s))
            return t**m * sval / (1 - x**b) ** nu

        for tv in (0.4, 1.1, 2.3):
            t = mpmath.mpf(tv)
            lhs = mpmath.diff(g, t)
            x = mpmath.e**t
            pv = sum(c * x**i for i, c in enumerate(p0))
            qv = sum(c * x**i for i, c in enumerate(q0))
            rhs = -(t ** (m - 1)) * (t * pv - qv) / (x**b - 1) ** (nu + 1)
            assert abs(lhs - rhs) < 1e-12 * max(1, abs(lhs)), (name, tv)


def test_derivative_numerator_shape_guard():
    with pytest.raises(UnsupportedShape):
        derivative_numerator(2, [0, 1, 1, 1], 1, 2)  # b*nu < deg S
    with pytest.raises(UnsupportedShape):
        derivative_numerator(0, [0, 1], 1, 2)


# ---------------------------------------------------------------------------
# block sums reproduce the divisor series
# ---------------------------------------------------------------------------


def rational_block_sum(s, b, nu, order, weighted):
    """sum over m of w(m) S(x^m)/(1 - x^(bm))^nu expanded to the given order,
    where w(m) = m for the families whose blocks carry the index weight."""
    out = [0] * (order + 1)
    for m in range(1, order + 1):
        w = m if weighted else 1
        for i, si in enumerate(s):
            if si and i * m <= order:
                base = i * m
                j = 0
                while base + b * m * j <= order:
                    out[base + b * m * j] += w * si * math.comb(j + nu - 1, nu - 1)
                    j += 1
    return out


def test_blocks_sum_to_divisor_series():
    order = 100
    for name in lemma_names():
        e = lemma_parameters(name)
        weighted = e["series"][2]
        series = series_for(name, order)
        summed = rational_block_sum(e["s"], e["b"], e["nu"], order, weighted)
        for n in range(order + 1):
            assert series.coefficient(n) == summed[n], (name, n)


# ---------------------------------------------------------------------------
# taylor coefficients against an exact series oracle
# ---------------------------------------------------------------------------


def taylor_oracle(p, q, top):
    """n! times the Taylor coefficients of t P(e^t) - Q(e^t), exactly."""
    coeffs = [F(0)] * (top + 1)
    for k, a in enumerate(p):
        if a:
            for j in range(top):
                coeffs[j + 1] += F(a * k**j, math.factorial(j))
    for k, c in enumerate(q):
        if c:
            for j in range(top + 1):
                coeffs[j] -= F(c * k**j, math.factorial(j))
    return [coeffs[n] * math.factorial(n) for n in range(top + 1)]


def test_taylor_coefficients_exact():
    for name in ("X81", "X101", "E4", "X61", "E2"):
        p, q = GOLDEN_PQ[name]
        oracle = taylor_oracle(p, q, 12)
        assert oracle[0] == 0  # the genuine f(0), forced by Q(1) = 0
        for n in range(1, 13):
            assert taylor_coefficient(p, q, n) == oracle[n], (name, n)
        # stored-convention constant term
        assert taylor_coefficient(p, q, 0) == -q[0]


def test_taylor_thresholds():
    p, q = GOLDEN_PQ["X81"]
    assert taylor_threshold(p, q) == (37, None)
    p, q = GOLDEN_PQ["X101"]
    assert taylor_threshold(p, q) == (65, None)


# ---------------------------------------------------------------------------
# certificates: methods, validity, witnesses
# ---------------------------------------------------------------------------


def test_certificate_methods_table():
    want = {
        "E2": ("r-shift", "valid"),
        "D2": ("r-shift", "valid"),
        "X42": ("r-shift", "valid"),
        "X81": ("taylor", "valid"),
        "X101": ("taylor", "valid"),
        "E4": ("taylor", "invalid"),
        "X61": ("taylor", "invalid"),
    }
    for name, (method, status) in want.items():
        cert = certify_lemma(name)
        assert (cert.method, cert.status) == (method, status), name


def test_methods_agree_on_validity():
    # the Taylor route is decisive whenever its preconditions hold, so its
    # verdict must match the automatic one on every named block
    for name in lemma_names():
        auto = certify_lemma(name)
        taylor = certify_lemma(name, method="taylor")
        assert (auto.status == "valid") == (taylor.status == "valid"), name


def test_valid_numerators_positive_numerically():
    # tP(e^t) - Q(e^t) > 0 at spot points, for every valid certificate
    mpmath.mp.prec = 96
    for name in lemma_names():
        cert = certify_lemma(name)
        if cert.status != "valid":
            continue
        for tv in (0.1, 1, 5, 20):
            t = mpmath.mpf(tv)
            x = mpmath.e**t
            pv = sum(c * x**i for i, c in enumerate(cert.p_coeffs))
            qv = sum(c * x**i for i, c in enumerate(cert.q_coeffs))
            assert t * pv - qv > 0, (name, tv)


def test_r_shift_goldens():
    cert = certify_lemma("E2")
    assert list(cert.r_coeffs) == [1, -2, 1]  # (x-1)^2
    assert list(cert.r_shifted) == [0, 0, 1]
    cert = certify_lemma("X42")
    assert list(cert.r_coeffs) == [1, -4, 6, -4, 1]  # (x-1)^4


def test_r_shift_factorization_two_scale():
    # R for the two-scale block is (x-1)^4 (x+1)^2 (x^2+4x+1)
    cert = certify_lemma("D2")
    expect = _poly_mul(_poly_mul([1, -4, 6, -4, 1], [1, 2, 1]), [1, 4, 1])
    assert list(cert.r_coeffs) == expect
    assert all(c >= 0 for c in cert.r_shifted)


def test_r_shift_fails_on_big_blocks():
    cert5 = certify_lemma("X81", method="r-shift")
    assert cert5.status == "invalid"
    w = cert5.witnesses[0]
    assert (w["kind"], w["index"], w["value"]) == (
        "negative-shifted-coefficient",
        11,
        "-132",
    )
    cert7 = certify_lemma("X101", method="r-shift")
    w = cert7.witnesses[0]
    assert (w["kind"], w["index"], w["value"]) == (
        "negative-shifted-coefficient",
        15,
        "-1028",
    )


def test_taylor_golden_prefix():
    cert = certify_lemma("X101")
    assert cert.n_star == 65
    assert cert.c_prefix[0] == 8
    assert cert.c_prefix[1] == 40320
    assert len(cert.c_prefix) == 65
    assert all(c > 0 for c in cert.c_prefix[1:])
    cert = certify_lemma("X81")
    assert cert.n_star == 37
    assert cert.c_prefix[1] == 720
    assert all(c > 0 for c in cert.c_prefix[1:])


def test_non_example_witnesses():
    cert = certify_lemma("E4")
    kinds = {(w["method"], w["kind"]) for w in cert.witnesses}
    assert ("taylor", "negative-taylor-coefficient") in kinds
    tw = [w for w in cert.witnesses if w["method"] == "taylor"][0]
    assert (tw["index"], tw["value"]) == (5, "-4")
    cert = certify_lemma("X61")
    tw = [w for w in cert.witnesses if w["method"] == "taylor"][0]
    assert (tw["index"], tw["value"]) == (7, "-120")


def test_non_example_blocks_really_not_monotone():
    # the m = 1 block of the E4 family increases near 0 then decays
    mpmath.mp.prec = 60

    def g(name, t):
        e = lemma_parameters(name)
        x = mpmath.e ** (-t)
        sval = sum(c * x**i for i, c in enumerate(e["s"]))
        return t ** e["m"] * sval / (1 - x ** e["b"]) ** e["nu"]

    assert g("E4", 0.6) > g("E4", 0.2)  # increases
    assert g("E4", 6.0) < g("E4", 2.0)  # then decays
    assert g("X61", 0.8) > g("X61", 0.2)


def test_valid_blocks_numerically_decreasing():
    mpmath.mp.prec = 60
    for name in ("E2", "X42", "D2", "X81", "X101"):
        e = lemma_parameters(name)

        def g(t):
            x = mpmath.e ** (-t)
            sval = sum(c * x**i for i, c in enumerate(e["s"]))
            return t ** e["m"] * sval / (1 - x ** e["b"]) ** e["nu"]

        samples = [g(t) for t in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(samples, samples[1:])), name


def test_q_at_one_precondition():
    cert = certify([1, 1], [1, 2], m=1)
    assert cert.status == "invalid"
    assert cert.witnesses[0]["kind"] == "q-at-one-nonzero"


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        certify([1, 1], [-2, 2], method="bogus")
    with pytest.raises(KeyError):
        certify_lemma("no-such-block")


# ---------------------------------------------------------------------------
# serialization and re-verification
# ---------------------------------------------------------------------------


def test_round_trip_all_lemmas():
    for name in lemma_names():
        cert = certify_lemma(name)
        blob = json.dumps(cert.to_json_dict(), sort_keys=True)
        back = MonotonicityCertificate.from_json_dict(json.loads(blob))
        assert back == cert
        assert recheck_certificate(json.loads(blob)) == (cert.status == "valid")


def test_recheck_detects_tampering():
    cert = certify_lemma("X101")
    good = cert.to_json_dict()
    assert recheck_certificate(good)

    bad = json.loads(json.dumps(good))
    bad["c_prefix"][3] = str(int(bad["c_prefix"][3]) + 1)
    assert not recheck_certificate(bad)

    bad = json.loads(json.dumps(good))
    bad["n_star"] = 64
    assert not recheck_certificate(bad)

    bad = json.loads(json.dumps(good))
    bad["Q"][0] = "1"
    assert not recheck_certificate(bad)

    rcert = certify_lemma("E2").to_json_dict()
    bad = json.loads(json.dumps(rcert))
    bad["R_shifted"][2] = "-1"
    assert not recheck_certificate(bad)


def test_recheck_reads_n_star_written_as_a_string():
    good = certify_lemma("X101").to_json_dict()
    assert good["n_star"] == 65
    assert recheck_certificate({**good, "n_star": "65"})
    assert not recheck_certificate({**good, "n_star": "64"})
    assert not recheck_certificate({**good, "n_star": "sixty-five"})


def reference_recheck(data) -> bool:
    """Each method's checks written out on their own: the reference that
    ``recheck_certificate``, which re-runs ``certify``, must agree with."""
    if not isinstance(data, dict):
        return False
    try:
        cert = MonotonicityCertificate.from_json_dict(data)
    except (KeyError, ValueError, TypeError):
        return False
    if cert.status != "valid":
        return False
    p = list(cert.p_coeffs or ())
    q = list(cert.q_coeffs or ())
    if not p or not q or _poly_eval_one(q) != 0:
        return False
    if any(c < 0 for c in p):
        return False
    if cert.method == "r-shift":
        r, shifted = _r_shift_data(p, q)
        if cert.r_coeffs is not None and list(cert.r_coeffs) != r:
            return False
        if cert.r_shifted is not None and list(cert.r_shifted) != shifted:
            return False
        return r != [0] and all(c >= 0 for c in shifted)
    if cert.method == "taylor":
        n_star, witness = taylor_threshold(p, q)
        if n_star is None or cert.n_star != n_star:
            return False
        prefix = [taylor_coefficient(p, q, n) for n in range(n_star)]
        if cert.c_prefix is not None and list(cert.c_prefix) != prefix:
            return False
        return all(c >= 0 for c in prefix)
    return False


LIST_FIELDS = ("P", "Q", "R", "R_shifted", "c_prefix")


@st.composite
def tampered_certificates(draw):
    """A lemma's certificate JSON with at most one edit: a list entry moved
    by up to 3 or negated, a list cut, emptied or dropped, n_star, status or
    m changed, the method swapped, a key deleted, or a non-dict instead."""
    data = json.loads(json.dumps(certify_lemma(draw(st.sampled_from(lemma_names()))).to_json_dict()))
    edit = draw(st.sampled_from(("none", "entry", "negate", "cut", "empty", "drop", "n_star", "status",
                                 "m", "method", "delete", "garbage", "not-a-dict")))
    key = draw(st.sampled_from(LIST_FIELDS))
    values = data.get(key)
    if edit in ("entry", "negate", "cut") and values:
        k = draw(st.integers(0, len(values) - 1))
        if edit == "cut":
            data[key] = values[:k]
        else:
            values[k] = str(-int(values[k]) if edit == "negate" else int(values[k]) + draw(st.integers(-3, 3)))
    elif edit in ("empty", "drop"):
        data[key] = [] if edit == "empty" else None
    elif edit == "n_star":
        data["n_star"] = draw(st.one_of(st.none(), st.integers(0, 80), st.just("65")))
    elif edit == "status":
        data["status"] = draw(st.sampled_from(("valid", "invalid", "VALID")))
    elif edit == "m":
        data["m"] = draw(st.integers(-2, 12))
    elif edit == "method":
        data["method"] = draw(st.sampled_from(("r-shift", "taylor", "auto", "bogus")))
    elif edit == "delete":
        del data[draw(st.sampled_from(("m", "method", "status", "P", "Q")))]
    elif edit == "garbage":
        data[key] = draw(st.sampled_from((["x"], "12", 7, [None])))
    elif edit == "not-a-dict":
        data = draw(st.sampled_from((None, [], "{}", 3, [data])))
    return data


@settings(max_examples=300, deadline=None)
@given(data=tampered_certificates())
@example(data={"m": 2, "P": ["1", "1"], "Q": ["-2", "2"], "method": "taylor", "status": "valid", "n_star": 3})
def test_recheck_agrees_with_each_methods_checks_on_tampered_certificates(data):
    assert recheck_certificate(data) == reference_recheck(data)
