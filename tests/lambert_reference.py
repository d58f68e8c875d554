"""Reference certificates the block layer no longer forms this way: each method
written out with its own witness dicts, the certificate built at each exit of
``certify``, and its JSON written key by key.

:func:`certify_json` returns the JSON object of the certificate
``qmforms.lambert.certify`` must form for the same arguments, so a test can
hold the library's certificates to these, byte for byte.  The polynomial
helpers are the plain loops they replace: a double-loop product and p(1 + u)
by Horner in 1 + u.
"""

from __future__ import annotations

from typing import Sequence


def trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return trim(out)


def poly_deriv(p: Sequence[int]) -> list[int]:
    if len(p) <= 1:
        return [0]
    return [k * p[k] for k in range(1, len(p))]


def poly_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def poly_shift_one(p: Sequence[int]) -> list[int]:
    """Coefficients of p(1 + u) as a polynomial in u (Horner in 1+u)."""
    out = [0]
    for c in reversed(p):
        nxt = [0] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i] += v
            nxt[i + 1] += v
        nxt[0] += c
        out = trim(nxt)
    return out


def r_shift_data(p, q):
    cross = poly_sub(poly_mul(poly_deriv(q), p), poly_mul(list(q), poly_deriv(p)))
    r = poly_sub(poly_mul(p, p), [0] + cross)
    return r, poly_shift_one(r)


def taylor_coefficient(p, q, n: int) -> int:
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


def taylor_threshold(p, q):
    b = [-c for c in q]
    n_star = 2
    for k in range(1, max(len(p), len(b))):
        ak = p[k] if k < len(p) else 0
        bk = b[k] if k < len(b) else 0
        if ak < 0:
            return None, {"method": "taylor", "kind": "negative-p-coefficient", "index": k, "value": str(ak)}
        if ak == 0:
            if k * bk < 0:
                return None, {"method": "taylor", "kind": "permanently-negative-form", "index": k,
                              "value": str(k * bk)}
            continue
        if bk < 0:
            n_star = max(n_star, (-k * bk) // ak + 1)
    return n_star, None


def try_r_shift(p, q):
    for k, c in enumerate(p):
        if c < 0:
            return None, {"method": "r-shift", "kind": "negative-p-coefficient", "index": k, "value": str(c)}
    r, shifted = r_shift_data(p, q)
    if r == [0]:
        return None, {"method": "r-shift", "kind": "zero-remainder"}
    for j, c in enumerate(shifted):
        if c < 0:
            return None, {"method": "r-shift", "kind": "negative-shifted-coefficient", "index": j, "value": str(c)}
    return (r, shifted), None


def try_taylor(p, q):
    n_star, witness = taylor_threshold(p, q)
    if n_star is None:
        return None, witness
    prefix = [taylor_coefficient(p, q, n) for n in range(n_star)]
    for n, c in enumerate(prefix):
        if c < 0:
            return None, {"method": "taylor", "kind": "negative-taylor-coefficient", "index": n, "value": str(c),
                          "n_star": n_star, "c_prefix": [str(v) for v in prefix[: n + 1]]}
    return (tuple(prefix), n_star), None


def to_json_dict(name, m, p, q, method, status, r_coeffs=None, r_shifted=None, c_prefix=None, n_star=None,
                 witnesses=()) -> dict:
    def ints(seq):
        return None if seq is None else [str(v) for v in seq]

    return {
        "name": name,
        "m": m,
        "P": ints(p),
        "Q": ints(q),
        "method": method,
        "status": status,
        "R": ints(r_coeffs),
        "R_shifted": ints(r_shifted),
        "c_prefix": ints(c_prefix),
        "n_star": n_star,
        "witnesses": list(witnesses),
    }


def certify_json(p, q, *, m: int = 0, method: str = "auto", name: str | None = None) -> dict:
    """The JSON object of the certificate for f(t) = t P(e^t) - Q(e^t); raises
    ``ValueError`` for an unknown method before anything else."""
    if method not in ("auto", "r-shift", "taylor"):
        raise ValueError(f"unknown method {method!r}")
    p = trim(list(p))
    q = trim(list(q))
    witnesses: list[dict] = []
    if sum(q) != 0:
        return to_json_dict(name, m, p, q, method if method != "auto" else "r-shift", "invalid",
                            witnesses=({"method": "precondition", "kind": "q-at-one-nonzero", "value": str(sum(q))},))
    if method in ("auto", "r-shift"):
        data, witness = try_r_shift(p, q)
        if data is not None:
            r, shifted = data
            return to_json_dict(name, m, p, q, "r-shift", "valid", r_coeffs=r, r_shifted=shifted)
        witnesses.append(witness)
        if method == "r-shift":
            return to_json_dict(name, m, p, q, "r-shift", "invalid", witnesses=witnesses)
    data, witness = try_taylor(p, q)
    if data is not None:
        prefix, n_star = data
        return to_json_dict(name, m, p, q, "taylor", "valid", c_prefix=prefix, n_star=n_star)
    witnesses.append(witness)
    return to_json_dict(name, m, p, q, "taylor", "invalid", witnesses=witnesses)
