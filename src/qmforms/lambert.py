"""Exact monotonicity certificates for Lambert-type blocks.

A *block* is a function of the shape

    g(t) = t^m * S(e^-t) / (1 - e^(-b t))^nu ,   t > 0,

with S an integer polynomial without constant term.  Summing dilates of a
block over all scales produces the familiar divisor-sum q-expansions (the
``series_for`` helper states which one), so a termwise certificate that a
block decreases transfers to the whole sum.  The identity registry's
LAMBERT-1 … 5 read ``series_for`` and ``lemma_parameters`` too, so each
checks against its form the very series the X81, X101, X61, E4 or D2
certificate covers: the block table below is the one place that says
which divisor sum a named block sums to.

Differentiating and clearing denominators turns "g is decreasing on t > 0"
into the positivity of

    f(t) = t * P(e^t) - Q(e^t)

for explicit integer polynomials P, Q produced by :func:`derivative_numerator`
(Q always vanishes at 1, so f(0) = 0).  The certificate methods are the
entries of :data:`METHODS`, in the order ``auto`` tries them; each is one
function of (P, Q) that returns the certificate fields it proves, or one
witness of why it does not apply:

* **r-shift**: when P has nonnegative coefficients, f > 0 on t > 0 follows
  if R := P^2 - x (Q'P - QP') is nonnegative on x >= 1, which is certified
  by expanding R(1+u) and checking all coefficients are >= 0.  (Soundness:
  with x = e^t, f > 0 amounts to ln x > Q(x)/P(x) for x > 1; the difference
  vanishes at x = 1 and has derivative R(x)/(x P(x)^2).)

* **taylor**: f(t) = sum_{n>=1} c_n t^n / n! with the exact integers

      c_n = sum_{k>=1} (n a_k + k b_k) k^(n-1)  [+ a_0 when n = 1],

  a = coefficients of P, b = coefficients of -Q.  Once n exceeds every
  threshold -k b_k / a_k the linear forms are positive termwise, so it is
  enough to check the finite prefix: the certificate stores c_0 .. c_{n*-1}
  (c_0 is recorded as -Q(0); the true f(0) is always 0) and validity means
  the prefix is nonnegative, every a_k >= 0, and k b_k >= 0 whenever a_k = 0.

A new method joins as one more entry of the table.  Certificates serialize
to JSON-friendly dicts through one key table; :func:`recheck_certificate`
re-derives everything from the serialized P and Q, and a certificate named
after one of the blocks below must carry that block's own m, P and Q.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .qseries import FourierSeries, _intconv, lambert_block


class UnsupportedShape(ValueError):
    """The block is outside the t^m * S / (1 - x^b)^nu shape this handles."""


def _json_int(v) -> int:
    """An integer as JSON holds it: an int (not a bool) or its canonical decimal string."""
    if type(v) is int or isinstance(v, str) and str(int(v)) == v:
        return int(v)
    raise ValueError(f"not a JSON integer: {v!r}")


# ---------------------------------------------------------------------------
# dense integer polynomials as lists (index = degree)
# ---------------------------------------------------------------------------


def _trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return _trim(_intconv(a, b, len(a) + len(b) - 2))


def _poly_deriv(p: Sequence[int]) -> list[int]:
    if len(p) <= 1:
        return [0]
    return [k * p[k] for k in range(1, len(p))]


def _poly_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a − b, the shorter one padded with zeros, trimmed."""
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_shift_one(p: Sequence[int]) -> list[int]:
    """Coefficients of p(1 + u) as a polynomial in u: the u^j one is sum_k p_k C(k, j)."""
    return _trim([sum(c * math.comb(k, j) for k, c in enumerate(p)) for j in range(max(len(p), 1))])


def _strip_common(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Remove the joint power of x and the joint positive integer content."""
    val = 0
    while val < min(len(p), len(q)) and p[val] == 0 and q[val] == 0:
        val += 1
    p = _trim(p[val:] or [0])
    q = _trim(q[val:] or [0])
    content = math.gcd(*p, *q)
    if content > 1:
        p = [c // content for c in p]
        q = [c // content for c in q]
    return p, q


def eulerian_numerator(k: int) -> list[int]:
    """Coefficients of the degree-(k-1) numerator W_k with
    sum_{d>=1} d^k x^d = x W_k(x) / (1-x)^(k+1), from the classical triangle
    A(n, j) = (j+1) A(n-1, j) + (n-j) A(n-1, j-1)."""
    if k < 1:
        raise ValueError("k >= 1")
    row = [1]
    for n in range(2, k + 1):
        row = [
            (j + 1) * (row[j] if j < n - 1 else 0)
            + (n - j) * (row[j - 1] if j >= 1 else 0)
            for j in range(n)
        ]
    return row


# ---------------------------------------------------------------------------
# from a block to the derivative numerator (P, Q)
# ---------------------------------------------------------------------------


def derivative_numerator(
    m: int, s_coeffs: Sequence[int], b: int, nu: int
) -> tuple[list[int], list[int]]:
    """Integer polynomials P, Q with

        g'(t) = -t^(m-1) * (t P(e^t) - Q(e^t)) / (e^(bt) - 1)^(nu+1)

    for the block g(t) = t^m S(e^-t) / (1 - e^(-bt))^nu.  Writing
    U(x) = x^(b nu) S(1/x) (a polynomial when b nu >= deg S), the raw pair is

        P0 = nu b x^b U - x (x^b - 1) U' ,      Q0 = m (x^b - 1) U ,

    returned after stripping the common x-power and integer content.
    Q(1) = 0 always holds.
    """
    if m < 1 or b < 1 or nu < 1:
        raise UnsupportedShape("need m, b, nu >= 1")
    s = _trim(list(s_coeffs))
    deg_s = len(s) - 1
    if s == [0]:
        raise UnsupportedShape("numerator polynomial is zero")
    if b * nu < deg_s:
        raise UnsupportedShape(
            f"reversal exponent b*nu = {b * nu} below deg S = {deg_s}"
        )
    # U(x) = x^(b nu) S(1/x): coefficient of x^(b nu - i) is s[i]
    u = [0] * (b * nu + 1)
    for i, c in enumerate(s):
        u[b * nu - i] = c
    u = _trim(u)
    xb = [0] * b + [1]  # x^b
    xb_minus_1 = [-1] + [0] * (b - 1) + [1]
    p0 = [nu * b * c for c in _poly_mul(xb, u)]
    correction = _poly_mul([0, 1], _poly_mul(xb_minus_1, _poly_deriv(u)))
    q0 = [m * c for c in _poly_mul(xb_minus_1, u)]
    return _strip_common(_poly_sub(p0, correction), _trim(q0))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _ints_from_json(v):
    if v is not None and not isinstance(v, list):
        raise TypeError(f"not a JSON list: {v!r}")
    return None if v is None else tuple(map(_json_int, v))


_AS_IS = lambda v: v  # noqa: E731
_INTS = (lambda seq: None if seq is None else [str(v) for v in seq], _ints_from_json)
# each certificate field's JSON key, in the order the JSON lists them, and its
# (to JSON, from JSON) pair; from JSON sees None where an optional key is absent
_JSON_KEYS = {
    "name": ("name", _AS_IS, _AS_IS),
    "m": ("m", _AS_IS, _json_int),
    "p_coeffs": ("P", *_INTS),
    "q_coeffs": ("Q", *_INTS),
    "method": ("method", _AS_IS, _AS_IS),
    "status": ("status", _AS_IS, _AS_IS),
    "r_coeffs": ("R", *_INTS),
    "r_shifted": ("R_shifted", *_INTS),
    "c_prefix": ("c_prefix", *_INTS),
    "n_star": ("n_star", _AS_IS, lambda v: None if v is None else _json_int(v)),
    "witnesses": ("witnesses", list, lambda v: tuple(v or ())),
}
_REQUIRED_KEYS = ("m", "method", "status")


class MonotonicityCertificate(NamedTuple):
    """Outcome of a certificate attempt for one block."""

    name: str | None
    m: int
    p_coeffs: tuple[int, ...]
    q_coeffs: tuple[int, ...]
    method: str  # a key of METHODS
    status: str  # "valid" or "invalid"
    r_coeffs: tuple[int, ...] | None = None
    r_shifted: tuple[int, ...] | None = None
    c_prefix: tuple[int, ...] | None = None
    n_star: int | None = None
    witnesses: tuple[dict, ...] = ()

    def to_json_dict(self) -> dict:
        return {key: out(getattr(self, f)) for f, (key, out, _) in _JSON_KEYS.items()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonotonicityCertificate":
        return cls(**{f: back(data[key] if key in _REQUIRED_KEYS else data.get(key))
                      for f, (key, _, back) in _JSON_KEYS.items()})


def _witness(method: str, kind: str, *, index: int | None = None, value: int | None = None, **extra) -> dict:
    """Why ``method`` does not apply: its kind, the index and value (as a string) where given, then ``extra``."""
    found = {"index": index, "value": None if value is None else str(value)}
    return {"method": method, "kind": kind, **{k: v for k, v in found.items() if v is not None}, **extra}


def _first_negative(values: Sequence[int]) -> int | None:
    return next((i for i, c in enumerate(values) if c < 0), None)


def _r_shift_data(p: Sequence[int], q: Sequence[int]):
    """R = P^2 - x (Q'P - QP') and its expansion around 1."""
    cross = _poly_sub(_poly_mul(_poly_deriv(q), p), _poly_mul(list(q), _poly_deriv(p)))
    r = _poly_sub(_poly_mul(p, p), [0] + cross)
    return r, _poly_shift_one(r)


def _linear_forms(p: Sequence[int], q: Sequence[int]):
    """(k, a_k, b_k) for k >= 1 with a = P and b = -Q, the shorter padded with zeros."""
    n = max(len(p), len(q))
    a, b = list(p) + [0] * (n - len(p)), [-c for c in q] + [0] * (n - len(q))
    return zip(range(1, n), a[1:], b[1:])


def taylor_coefficient(p: Sequence[int], q: Sequence[int], n: int) -> int:
    """Exact n-th Taylor coefficient (times n!) of f(t) = t P(e^t) - Q(e^t).

    By convention the stored n = 0 value is -Q(0) (the constant of the
    non-exponential part); the genuine f(0) is always 0 because Q(1) = 0.
    """
    if n == 0:
        return -q[0]
    return (p[0] if n == 1 else 0) + sum((n * a + k * b) * k ** (n - 1) for k, a, b in _linear_forms(p, q))


def taylor_threshold(p: Sequence[int], q: Sequence[int]) -> tuple[int | None, dict | None]:
    """Smallest n from which every linear form n a_k + k b_k is positive.

    Returns (n_star, None) or (None, witness) when the method cannot apply
    (some a_k < 0, or a_k = 0 with k b_k < 0: that form stays negative for
    every n).  n_star is clamped to at least 2.
    """
    n_star = 2
    for k, a, b in _linear_forms(p, q):
        if a < 0:
            return None, _witness("taylor", "negative-p-coefficient", index=k, value=a)
        if a == 0 and k * b < 0:
            return None, _witness("taylor", "permanently-negative-form", index=k, value=k * b)
        if a and b < 0:
            # n a_k + k b_k > 0 iff n > -k b_k / a_k
            n_star = max(n_star, (-k * b) // a + 1)
    return n_star, None


def _r_shift(p: list[int], q: list[int]) -> dict:
    if (k := _first_negative(p)) is not None:
        return _witness("r-shift", "negative-p-coefficient", index=k, value=p[k])
    r, shifted = _r_shift_data(p, q)
    if r == [0]:
        return _witness("r-shift", "zero-remainder")
    if (j := _first_negative(shifted)) is not None:
        return _witness("r-shift", "negative-shifted-coefficient", index=j, value=shifted[j])
    return {"r_coeffs": tuple(r), "r_shifted": tuple(shifted)}


def _taylor(p: list[int], q: list[int]) -> dict:
    n_star, witness = taylor_threshold(p, q)
    if witness is not None:
        return witness
    prefix = [taylor_coefficient(p, q, n) for n in range(n_star)]
    if (n := _first_negative(prefix)) is not None:
        return _witness("taylor", "negative-taylor-coefficient", index=n, value=prefix[n], n_star=n_star,
                        c_prefix=[str(v) for v in prefix[: n + 1]])
    return {"c_prefix": tuple(prefix), "n_star": n_star}


# name -> the method: a function of the trimmed (P, Q), with Q(1) = 0, that
# returns the certificate fields it proves, or a witness (the only result
# with a "kind"); ``auto`` tries them in this order
METHODS = {"r-shift": _r_shift, "taylor": _taylor}


def certify(
    p: Sequence[int],
    q: Sequence[int],
    *,
    m: int = 0,
    method: str = "auto",
    name: str | None = None,
) -> MonotonicityCertificate:
    """Attempt a positivity certificate for f(t) = t P(e^t) - Q(e^t).

    ``method`` is a key of :data:`METHODS`, or "auto" (each in the table's
    order until one succeeds).  The result's ``status`` says whether a
    certificate was found; a valid one carries no witnesses, and a failure
    carries one witness per method tried and names the last (the first
    when Q(1) != 0, which no method is tried on).
    """
    if method != "auto" and method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    tried = list(METHODS) if method == "auto" else [method]
    p, q = _trim(list(p)), _trim(list(q))
    if sum(q) != 0:
        tried, witnesses = tried[:1], [_witness("precondition", "q-at-one-nonzero", value=sum(q))]
    else:
        witnesses = []
        for method in tried:
            found = METHODS[method](p, q)
            if "kind" not in found:
                return MonotonicityCertificate(name, m, tuple(p), tuple(q), method, "valid", **found)
            witnesses.append(found)
    return MonotonicityCertificate(name, m, tuple(p), tuple(q), tried[-1], "invalid", witnesses=tuple(witnesses))


def recheck_certificate(data: dict) -> bool:
    """Re-verify a serialized certificate from its P and Q.

    Re-runs :func:`certify` with the stored method and compares each field
    that method proves where it is stored (R and R_shifted, or c_prefix;
    n_star always).  Returns True only for a stored "valid" certificate of
    a method in :data:`METHODS` and nonnegative P that certifies again, and
    whose m, P and Q are its block's own when it is named after one of
    :func:`lemma_names`; False for anything that is not a certificate's JSON
    object.
    """
    if not isinstance(data, dict):
        return False
    try:
        cert = MonotonicityCertificate.from_json_dict(data)
    except (KeyError, ValueError, TypeError):
        return False
    p, q = cert.p_coeffs or (), cert.q_coeffs or ()
    if cert.status != "valid" or cert.method not in METHODS or not p or not q or min(p) < 0:
        return False
    if cert.name in lemma_names() and _lemma_block(cert.name) != (cert.m, list(p), list(q)):
        return False
    again = certify(p, q, m=cert.m, method=cert.method)
    proved = [(getattr(cert, f), getattr(again, f)) for f in ("r_coeffs", "r_shifted", "c_prefix")]
    return (again.status == "valid" and all(mine in (None, theirs) for mine, theirs in proved if theirs is not None)
            and again.n_star in (None, cert.n_star))


# ---------------------------------------------------------------------------
# the named blocks
# ---------------------------------------------------------------------------

# Each named case covers the blocks of one scaled divisor sum:
#   E2    t^2 (1 - E2(it)) / 24          sigma_1 blocks
#   X42   t^3 X_{4,2}(it)                n sigma_1 blocks
#   D2    t^2 (E2(2it) - E2(it)) / 24    two-scale sigma_1 difference, with
#                                        S = x + x^2 + x^3 over (1 - x^2)^2
#   X81   t^6 X_{8,1}(it)                n sigma_5 blocks
#   X101  t^8 X_{10,1}(it)               n sigma_7 blocks
#   E4    t^4 (E4(it) - 1) / 240         sigma_3 blocks; NOT decreasing
#   X61   t^5 X_{6,1}(it)                n sigma_3 blocks; NOT decreasing
# name -> m (the t-power), the series (description, k for lambert_block,
# with_m flag, dilation), and whether t^m times the summed series is expected
# to be monotone decreasing.  The blocks of lambert_block(k) (sigma_k, or
# n sigma_(k-1) with the m flag) are sum_d d^k x^d = x W_k(x) / (1 - x)^(k+1):
# S = [0] + W_k, b = 1 and nu = k + 1.  D2 is assembled from two blocks instead.
_LEMMA_TABLE: dict[str, tuple[int, tuple, bool]] = {
    "E2": (2, ("sum sigma_1(n) q^n", 1, False, 1), True),
    "D2": (2, ("sum (sigma_1(n) - sigma_1(n/2)) q^n", None, False, 1), True),
    "X42": (3, ("sum n sigma_1(n) q^n", 2, True, 1), True),
    "X81": (6, ("sum n sigma_5(n) q^n", 6, True, 1), True),
    "X101": (8, ("sum n sigma_7(n) q^n", 8, True, 1), True),
    "E4": (4, ("sum sigma_3(n) q^n", 3, False, 1), False),
    "X61": (5, ("sum n sigma_3(n) q^n", 4, True, 1), False),
}


def lemma_names() -> list[str]:
    return sorted(_LEMMA_TABLE)


def lemma_parameters(name: str) -> dict:
    """m, S coefficients, b, nu, series info and ``decreasing`` of a named block."""
    if name not in _LEMMA_TABLE:
        raise KeyError(f"unknown block name: {name!r}")
    m, series, decreasing = _LEMMA_TABLE[name]
    k = series[1]
    s, b, nu = ([0, 1, 1, 1], 2, 2) if k is None else ([0] + eulerian_numerator(k), 1, k + 1)
    return {"m": m, "s": s, "b": b, "nu": nu, "series": series, "decreasing": decreasing}


def _lemma_block(name: str) -> tuple[int, list[int], list[int]]:
    """(m, P, Q) of a named block."""
    entry = lemma_parameters(name)
    return entry["m"], *derivative_numerator(entry["m"], entry["s"], entry["b"], entry["nu"])


def certify_lemma(name: str, method: str = "auto") -> MonotonicityCertificate:
    """Derive (P, Q) for a named block and run the certificate machinery."""
    m, p, q = _lemma_block(name)
    return certify(p, q, m=m, method=method, name=name)


def series_for(name: str, order: int) -> FourierSeries:
    """The q-expansion whose blocks the named certificate covers."""
    entry = lemma_parameters(name)
    if name == "D2":
        return lambert_block(1, order) - lambert_block(1, order, dilation=2)
    _, k, with_m, dilation = entry["series"]
    return lambert_block(k, order, dilation=dilation, with_m_factor=with_m)
