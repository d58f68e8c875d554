"""Exact monotonicity certificates for Lambert-type blocks.

A *block* is a function of the shape

    g(t) = t^m * S(e^-t) / (1 - e^(-b t))^nu ,   t > 0,

with S an integer polynomial without constant term.  Summing dilates of a
block over all scales produces the familiar divisor-sum q-expansions (the
``series_for`` helper states which one), so a termwise certificate that a
block decreases transfers to the whole sum.

Differentiating and clearing denominators turns "g is decreasing on t > 0"
into the positivity of

    f(t) = t * P(e^t) - Q(e^t)

for explicit integer polynomials P, Q produced by :func:`derivative_numerator`
(Q always vanishes at 1, so f(0) = 0).  Two certificate methods:

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

Certificates serialize to JSON-friendly dicts; :func:`recheck_certificate`
re-derives everything from the serialized P and Q alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .qseries import FourierSeries, lambert_block


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
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _poly_deriv(p: Sequence[int]) -> list[int]:
    if len(p) <= 1:
        return [0]
    return [k * p[k] for k in range(1, len(p))]


def _poly_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a − b, the shorter one padded with zeros, trimmed."""
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_shift_one(p: Sequence[int]) -> list[int]:
    """Coefficients of p(1 + u) as a polynomial in u (Horner in 1+u)."""
    out = [0]
    for c in reversed(p):
        # out = out * (1 + u) + c
        nxt = [0] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i] += v
            nxt[i + 1] += v
        nxt[0] += c
        out = _trim(nxt)
    return out


def _strip_common(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Remove the joint power of x and the joint positive integer content."""
    val = 0
    while val < min(len(p), len(q)) - 0 and p[val] == 0 and q[val] == 0:
        val += 1
    p = _trim(p[val:] or [0])
    q = _trim(q[val:] or [0])
    content = 0
    for c in p + q:
        content = math.gcd(content, c)
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


@dataclass(frozen=True)
class MonotonicityCertificate:
    """Outcome of a certificate attempt for one block."""

    name: str | None
    m: int
    p_coeffs: tuple[int, ...]
    q_coeffs: tuple[int, ...]
    method: str  # "r-shift" or "taylor"
    status: str  # "valid" or "invalid"
    r_coeffs: tuple[int, ...] | None = None
    r_shifted: tuple[int, ...] | None = None
    c_prefix: tuple[int, ...] | None = None
    n_star: int | None = None
    witnesses: tuple[dict, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        def ints(seq):
            return None if seq is None else [str(v) for v in seq]

        return {
            "name": self.name,
            "m": self.m,
            "P": ints(self.p_coeffs),
            "Q": ints(self.q_coeffs),
            "method": self.method,
            "status": self.status,
            "R": ints(self.r_coeffs),
            "R_shifted": ints(self.r_shifted),
            "c_prefix": ints(self.c_prefix),
            "n_star": self.n_star,
            "witnesses": list(self.witnesses),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonotonicityCertificate":
        def seq(key):
            if (v := data.get(key)) is not None and not isinstance(v, list):
                raise TypeError(f"{key} must be a list, got {v!r}")
            return None if v is None else tuple(map(_json_int, v))

        return cls(
            name=data.get("name"),
            m=_json_int(data["m"]),
            p_coeffs=seq("P"),
            q_coeffs=seq("Q"),
            method=data["method"],
            status=data["status"],
            r_coeffs=seq("R"),
            r_shifted=seq("R_shifted"),
            c_prefix=seq("c_prefix"),
            n_star=None if data.get("n_star") is None else _json_int(data["n_star"]),
            witnesses=tuple(data.get("witnesses") or ()),
        )


def _r_shift_data(p: Sequence[int], q: Sequence[int]):
    """R = P^2 - x (Q'P - QP') and its expansion around 1."""
    cross = _poly_sub(_poly_mul(_poly_deriv(q), p), _poly_mul(list(q), _poly_deriv(p)))
    r = _poly_sub(_poly_mul(p, p), [0] + cross)
    return r, _poly_shift_one(r)


def taylor_coefficient(p: Sequence[int], q: Sequence[int], n: int) -> int:
    """Exact n-th Taylor coefficient (times n!) of f(t) = t P(e^t) - Q(e^t).

    By convention the stored n = 0 value is -Q(0) (the constant of the
    non-exponential part); the genuine f(0) is always 0 because Q(1) = 0.
    """
    b = [-c for c in q]
    if n == 0:
        return b[0]
    total = p[0] if n == 1 else 0
    for k in range(1, max(len(p), len(b))):
        ak = p[k] if k < len(p) else 0
        bk = b[k] if k < len(b) else 0
        if ak or bk:
            total += (n * ak + k * bk) * k ** (n - 1)
    return total


def taylor_threshold(p: Sequence[int], q: Sequence[int]) -> tuple[int | None, dict | None]:
    """Smallest n from which every linear form n a_k + k b_k is positive.

    Returns (n_star, None) or (None, witness) when the method cannot apply
    (some a_k < 0, or a_k = 0 with k b_k < 0: that form stays negative for
    every n).  n_star is clamped to at least 2.
    """
    b = [-c for c in q]
    n_star = 2
    for k in range(1, max(len(p), len(b))):
        ak = p[k] if k < len(p) else 0
        bk = b[k] if k < len(b) else 0
        if ak < 0:
            return None, {
                "method": "taylor",
                "kind": "negative-p-coefficient",
                "index": k,
                "value": str(ak),
            }
        if ak == 0:
            if k * bk < 0:
                return None, {
                    "method": "taylor",
                    "kind": "permanently-negative-form",
                    "index": k,
                    "value": str(k * bk),
                }
            continue
        if bk < 0:
            # n a_k + k b_k > 0 iff n > -k b_k / a_k
            n_star = max(n_star, (-k * bk) // ak + 1)
    return n_star, None


def _try_r_shift(p, q):
    for k, c in enumerate(p):
        if c < 0:
            return None, {
                "method": "r-shift",
                "kind": "negative-p-coefficient",
                "index": k,
                "value": str(c),
            }
    r, shifted = _r_shift_data(p, q)
    if r == [0]:
        return None, {"method": "r-shift", "kind": "zero-remainder"}
    for j, c in enumerate(shifted):
        if c < 0:
            return None, {
                "method": "r-shift",
                "kind": "negative-shifted-coefficient",
                "index": j,
                "value": str(c),
            }
    return (r, shifted), None


def _try_taylor(p, q):
    n_star, witness = taylor_threshold(p, q)
    if n_star is None:
        return None, witness
    prefix = [taylor_coefficient(p, q, n) for n in range(n_star)]
    for n, c in enumerate(prefix):
        if c < 0:
            return None, {
                "method": "taylor",
                "kind": "negative-taylor-coefficient",
                "index": n,
                "value": str(c),
                "n_star": n_star,
                "c_prefix": [str(v) for v in prefix[: n + 1]],
            }
    return (tuple(prefix), n_star), None


def certify(
    p: Sequence[int],
    q: Sequence[int],
    *,
    m: int = 0,
    method: str = "auto",
    name: str | None = None,
) -> MonotonicityCertificate:
    """Attempt a positivity certificate for f(t) = t P(e^t) - Q(e^t).

    ``method`` is "r-shift", "taylor", or "auto" (r-shift first, then
    taylor).  The result's ``status`` says whether a certificate was found;
    failures carry explicit witnesses.
    """
    if method not in ("auto", "r-shift", "taylor"):
        raise ValueError(f"unknown method {method!r}")
    p = _trim(list(p))
    q = _trim(list(q))
    witnesses: list[dict] = []
    if sum(q) != 0:
        return MonotonicityCertificate(
            name, m, tuple(p), tuple(q), method if method != "auto" else "r-shift",
            "invalid",
            witnesses=(
                {
                    "method": "precondition",
                    "kind": "q-at-one-nonzero",
                    "value": str(sum(q)),
                },
            ),
        )
    if method in ("auto", "r-shift"):
        data, witness = _try_r_shift(p, q)
        if data is not None:
            r, shifted = data
            return MonotonicityCertificate(
                name, m, tuple(p), tuple(q), "r-shift", "valid",
                r_coeffs=tuple(r), r_shifted=tuple(shifted),
            )
        witnesses.append(witness)
        if method == "r-shift":
            return MonotonicityCertificate(
                name, m, tuple(p), tuple(q), "r-shift", "invalid",
                witnesses=tuple(witnesses),
            )
    data, witness = _try_taylor(p, q)
    if data is not None:
        prefix, n_star = data
        return MonotonicityCertificate(
            name, m, tuple(p), tuple(q), "taylor", "valid",
            c_prefix=prefix, n_star=n_star,
        )
    witnesses.append(witness)
    return MonotonicityCertificate(
        name, m, tuple(p), tuple(q), "taylor", "invalid", witnesses=tuple(witnesses)
    )


def recheck_certificate(data: dict) -> bool:
    """Re-verify a serialized certificate from its P and Q alone.

    Re-runs :func:`certify` with the stored method and compares the stored
    method data where present (R and R_shifted, or c_prefix, with n_star
    always compared).  Returns True only for a stored "valid" certificate
    of a known method and nonnegative P that certifies again; False for
    anything that is not a certificate's JSON object.
    """
    if not isinstance(data, dict):
        return False
    try:
        cert = MonotonicityCertificate.from_json_dict(data)
    except (KeyError, ValueError, TypeError):
        return False
    p, q = cert.p_coeffs or (), cert.q_coeffs or ()
    if cert.status != "valid" or cert.method not in ("r-shift", "taylor") or not p or not q or min(p) < 0:
        return False
    again = certify(p, q, m=cert.m, method=cert.method)
    stored = {"r-shift": [(cert.r_coeffs, again.r_coeffs), (cert.r_shifted, again.r_shifted)],
              "taylor": [(cert.c_prefix, again.c_prefix)]}[cert.method]
    return (again.status == "valid" and all(mine is None or mine == theirs for mine, theirs in stored)
            and (cert.method == "r-shift" or cert.n_star == again.n_star))


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


def certify_lemma(name: str, method: str = "auto") -> MonotonicityCertificate:
    """Derive (P, Q) for a named block and run the certificate machinery."""
    entry = lemma_parameters(name)
    p, q = derivative_numerator(entry["m"], entry["s"], entry["b"], entry["nu"])
    return certify(p, q, m=entry["m"], method=method, name=name)


def series_for(name: str, order: int) -> FourierSeries:
    """The q-expansion whose blocks the named certificate covers."""
    entry = lemma_parameters(name)
    if name == "D2":
        return lambert_block(1, order) - lambert_block(1, order, dilation=2)
    _, k, with_m, dilation = entry["series"]
    return lambert_block(k, order, dilation=dilation, with_m_factor=with_m)
