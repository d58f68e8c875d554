"""Batch command-line interface: expansions, suites, scans, certificates.

Subcommands mirror the library: ``expand`` prints q-expansions,
``identity`` runs the exact identity registry, ``positivity`` /
``density`` / ``ratio-inf`` emit coefficient-sign reports,
``scan`` / ``limits`` / ``eval`` / ``plotdata`` drive the floating layer,
``lambert-certify`` builds and re-verifies monotonicity certificates, and
``report`` aggregates every suite into the single pass/fail entry point:
the table ``ACCEPTANCE_CRITERIA``, where a criterion's id is its place.

``eval``, ``limits``, ``plotdata`` and ``scan`` print floats with ``numeric.decimal`` from their
reads' balls, so ``eval`` and ``limits`` load no mpmath; ``plotdata`` and ``scan`` load it for
``numeric.geometric_grid``, and ``report`` for C7's and C8's oracles.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration error.  Configuration precedence: flags, then QMF_ORDER /
QMF_BITS environment variables, then defaults.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
import threading
import time
from contextvars import ContextVar
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Sequence

from . import identities, lambert, numeric, positivity
from .extremal import (
    BadWeight,
    a_w_exponent,
    alpha_w0,
    describe_label,
    form_by_label,
    known_labels,
    x_w1_components,
)
from .forms import OrderExceeded
from .qseries import FourierSeries


class UsageError(Exception):
    """A command-line or configuration mistake (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration resolution: flags > environment > defaults
# ---------------------------------------------------------------------------


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"environment variable {name} must be an integer, got {raw!r}")


def _positive(name: str, value: int | None) -> int | None:
    """Refuse a size below 1 up front; None (not given) passes."""
    if value is not None and value < 1:
        raise UsageError(f"{name} must be at least 1, got {value}")
    return value


def _resolve_order(flag_value: int | None, fallback: int | None) -> int | None:
    name, order = ("--order", flag_value) if flag_value is not None else ("QMF_ORDER", _env_int("QMF_ORDER"))
    return fallback if order is None else _positive(name, order)


def _eval_config(bits: int | None) -> numeric.EvalConfig:
    bits = bits if bits is not None else _env_int("QMF_BITS")
    try:
        return numeric.EvalConfig() if bits is None else numeric.EvalConfig(precision_bits=bits)
    except ValueError as exc:
        raise UsageError(str(exc))


def _checked_label(label: str) -> str:
    """Reject unknown form labels before any real computation starts."""
    try:
        describe_label(label)
    except (KeyError, BadWeight) as exc:
        known = ", ".join(known_labels())
        raise UsageError(f"{exc.args[0] if exc.args else exc}; known labels: {known}")
    return label


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def expansion_text(series: FourierSeries) -> str:
    """``str(series)`` with U+2212 for minus.

    ``FourierSeries.__str__`` prints coefficient magnitudes and exponents are
    never negative, so every "-" it writes is a sign.
    """
    return str(series).replace("-", "−")


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, json_payload, text_report)
# ---------------------------------------------------------------------------


def _cmd_expand(args) -> tuple[int, dict, str]:
    label = _checked_label(args.label)
    order = _resolve_order(args.order, 16)
    series = form_by_label(label, order)
    text = expansion_text(series)
    payload = {
        "label": label,
        "order": order,
        "terms": [
            [str(Fraction(k, series.grain)), str(c)]
            for k, c in enumerate(series.coeffs)
            if c != 0
        ],
        "text": text,
    }
    return 0, payload, text + "\n"


def _identity_row(ident: str, order: int | None) -> tuple[dict, str]:
    """One registry entry checked: its JSON result and its line of text."""
    r = identities.verify(ident, order)
    extra = "" if r.passed else f"  first bad exponent {r.first_bad_exponent}"
    mark = "PASS" if r.passed else "FAIL"
    return r.to_json_dict(), f"{mark} {r.ident} (order {r.order}, checked through {r.through}, {r.elapsed:.3f}s){extra}"


def _cmd_identity(args) -> tuple[int, dict, str]:
    if args.all and args.idents:
        raise UsageError(f"identity: pass ids or --all, not both (got --all and {' '.join(args.idents)})")
    if args.all:
        idents = identities.identity_ids()
    elif args.idents:
        unknown = sorted(set(args.idents) - set(identities.identity_ids()))
        if unknown:
            raise UsageError(f"unknown identity ids: {', '.join(unknown)}")
        idents = sorted(set(args.idents))
    else:
        raise UsageError("pass one or more identity ids, or --all")
    order = _resolve_order(args.order, None)
    rows = _two_lanes([lambda ident=ident: _identity_row(ident, order) for ident in idents])
    failures = [result["ident"] for result, _ in rows if result["status"] != "pass"]
    payload = {"order": order, "results": [result for result, _ in rows], "all_passed": not failures,
               "failures": failures}
    return (1 if failures else 0), payload, "".join(line + "\n" for _, line in rows)


def _cmd_positivity(args) -> tuple[int, dict, str]:
    label = _checked_label(args.label)
    order = _resolve_order(args.order, 2000)
    report = positivity.check_complete_positivity(label, order)
    payload = report.to_json_dict()
    if report.completely_positive_up_to_order:
        text = f"{label}: all coefficients nonnegative through order {order}\n"
    else:
        exponent, value = report.first_negative
        text = f"{label}: first negative coefficient {value} at exponent {exponent}\n"
    return 0, payload, text


def _cmd_density(args) -> tuple[int, dict, str]:
    label = _checked_label(args.label)
    report = positivity.sign_pattern(label, _positive("--n", args.n))
    payload = report.to_json_dict()
    text = (
        f"{label}: {report.count_positive} of {report.n_limit} coefficients positive "
        f"(density {report.density}"
        + (f", recorded prediction {report.predicted}" if report.predicted is not None else "")
        + ")\n"
    )
    return 0, payload, text


def _cmd_ratio_inf(args) -> tuple[int, dict, str]:
    label = _checked_label(args.label)
    report = positivity.ratio_infimum(label, _positive("--dilate", args.dilate), _positive("--bound", args.bound))
    payload = report.to_json_dict()
    text = (
        f"{label}: min a({args.dilate}n)/a(n) = {report.min_ratio} at n = {report.argmin} "
        f"over n <= {args.bound}"
        + (
            f"; skipped nonpositive a(n) at {list(report.violations)}"
            if report.violations
            else ""
        )
        + "\n"
    )
    return 0, payload, text


def _checked_grid_args(args) -> str:
    """The label of a ``scan`` or ``plotdata`` request, once --m and the grid are sound."""
    label = _checked_label(args.label)
    if args.m <= 0:
        raise UsageError(f"--m must be positive, got {args.m}")
    if not 2 <= args.points <= numeric.MAX_POINTS or not 0 < args.tmin < args.tmax:
        raise UsageError(f"need 2 <= --points <= {numeric.MAX_POINTS} and 0 < --tmin < --tmax")
    return label


def _cmd_scan(args) -> tuple[int, dict, str]:
    label = _checked_grid_args(args)
    report = numeric.monotonicity_scan(label, args.m, (args.tmin, args.tmax, args.points), _eval_config(args.bits))
    payload = report.to_json_dict()
    lines = [f"{label} m={args.m}: {report.verdict}"]
    lines += [f"  sign change inside ({', '.join(numeric.decimal(t, report.prec, 8) for t in pair)})"
              for pair in report.sign_changes]
    return 0, payload, "\n".join(lines) + "\n"


def _cmd_lambert(args) -> tuple[int, dict, str]:
    if args.recheck is not None:
        conflicts = [shown for shown, given in ((f"block name {args.name}", args.name is not None),
                     (f"--emit {args.emit}", args.emit is not None), (f"--method {args.method}", args.method != "auto"))
                     if given]
        if conflicts:
            raise UsageError(f"lambert-certify: --recheck conflicts with {', '.join(conflicts)}")
        try:
            with open(args.recheck, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read certificate file: {exc}")
        ok = lambert.recheck_certificate(data)
        payload = {"recheck": args.recheck, "valid": bool(ok)}
        text = f"{'PASS' if ok else 'FAIL'} stored certificate {args.recheck}\n"
        return (0 if ok else 1), payload, text
    if args.name is None:
        raise UsageError("pass a block name or --recheck FILE")
    names = lambert.lemma_names()
    if args.name not in names:
        raise UsageError(f"unknown block name {args.name!r}; known: {', '.join(names)}")
    cert = lambert.certify_lemma(args.name, method=args.method)
    payload = cert.to_json_dict()
    if args.emit is not None:
        _write_out(_canonical_json(payload), args.emit)
    ok = cert.status == "valid"
    if ok:
        detail = f"n_star={cert.n_star}" if cert.method == "taylor" else "shifted expansion nonnegative"
        text = f"VALID {args.name}: {cert.method} certificate ({detail})\n"
    else:
        text = f"INVALID {args.name}: no certificate; witnesses {list(cert.witnesses)}\n"
    return (0 if ok else 1), payload, text


def _cmd_limits(args) -> tuple[int, dict, str]:
    label = _checked_label(args.label)
    desc = describe_label(label)
    if desc.depth != 1 or desc.parts is None:
        raise UsageError(f"limits needs a depth-1 label like X12_1, got {label!r}")
    w = desc.weight
    prec = (cfg := _eval_config(args.bits)).precision_bits
    result = numeric.limit_balls(w, cfg)
    ok = result["rel_error"] < 1e-6
    payload = {
        "label": label,
        "measured": numeric.decimal(result["measured"], prec, 30),
        "predicted": numeric.decimal(result["predicted"], prec, 30),
        "rel_error": numeric.decimal(result["rel_error"], prec, 6),
        "passed": bool(ok),
    }
    text = (
        f"{label}: limit of t^{w - 1} F(it) measured {payload['measured']} vs "
        f"predicted {payload['predicted']} (rel {payload['rel_error']})\n"
    )
    return (0 if ok else 1), payload, text


def _cmd_eval(args) -> tuple[int, dict, str]:
    label = _checked_label(args.label)
    prec = (cfg := _eval_config(args.bits)).precision_bits
    ball = numeric.eval_ball(label, args.t, cfg)
    payload = {
        "label": label,
        "t": str(args.t),
        "value": numeric.decimal(ball, prec, 30),
        "tail_estimate": numeric.decimal(ball.bound(prec), prec, 10),
    }
    text = f"{label}(it) at t = {args.t}: {payload['value']} (tail {payload['tail_estimate']})\n"
    return 0, payload, text


def _cmd_plotdata(args) -> tuple[int, dict, str]:
    label = _checked_grid_args(args)
    cfg = _eval_config(args.bits)
    grid = numeric.geometric_grid(args.tmin, args.tmax, args.points, cfg)
    points = numeric.curve_balls(label, args.m, grid, cfg)
    rows = [[numeric.decimal(x, cfg.precision_bits, 17) for x in point] for point in points]
    lines = [
        f"# dataset: t^{args.m} * {label}(it) on a geometric grid of {args.points} points",
        "# columns: t\tvalue",
    ]
    lines.extend("\t".join(row) for row in rows)
    payload = {"label": label, "m": args.m, "rows": rows}
    return 0, payload, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the aggregated acceptance suite (also the `report` subcommand)
# ---------------------------------------------------------------------------

_SCAN_DECREASING_PAIRS = (
    ("X6_1", 5),
    ("X12_1", 11),
    ("X14_1", 13),
    ("X8_2", 7),
    ("X10_2", 9),
    ("X12_2", 11),
    ("X14_2", 13),
    ("X8_1", 6),
    ("X10_1", 8),
)
_SCAN_FAMILY = tuple((f"X{w}_1", a_w_exponent(w)) for w in range(6, 26, 2))
# C9's scans: three of the nine pairs are also family members, so each distinct scan runs once
SCAN_PAIRS = tuple(dict.fromkeys((*_SCAN_DECREASING_PAIRS, ("X8_1", 7), ("X10_1", 9), *_SCAN_FAMILY)))


# C9's scans for C10, inside one acceptance_checks call only (None outside one)
_RUN_SCANS: ContextVar[dict | None] = ContextVar("_RUN_SCANS", default=None)

# The orders, bounds, ranges and expected values the criteria check, each written once; details are formed from them.
# C1: LCOMB-A with its first coefficient raised by one, built to this order, must differ from L early among the
# exponents through this bound
_C1_CONTROL_ORDER, _C1_CONTROL_THROUGH = 30, 28
# C2: the weights of the constant term's closed form, of the companion's negated constant term, of the ratio laws
_C2_WEIGHTS = {"closed_form_weights": range(6, 121, 6), "negation_weights": range(6, 121, 2),
               "ratio_weights": range(12, 61, 6)}
# C3: each detail key's label, first exponent and the coefficients from there
_C3_GOLDENS = {"Y4_2": ("Y4_2", 1, [1, 2, 12, 4, 30]), "Y16_2_q5": ("Y16_2", 5, [Fraction(864, 25)]),
               "X42Delta": ("X42Delta", 2, [1, -18, 120, -220, -1620, 11676])}
# C4: the order of complete positivity and of the alternation patterns, and the doubling bound
_C4_ORDER, _C4_DOUBLING_BOUND = 2000, 500
# C5: floors on min a(2n)/a(n) over n <= the bound they are listed under; X4_2's minimum, at n = its bound with no
# a(n) <= 0, is also at most the ceiling
_C5_FLOORS, _C5_X42_CEILING = {4096: {"X4_2": 4}, 2048: {"X8_2": 2**6, "X10_2": 2**8}}, Fraction(4002, 1000)
# C6: X101's Taylor certificate stops at this n_star, and its c_prefix holds that many terms
_C6_X101_N_STAR = 65


def _result(title: str, passed, detail: dict) -> dict:
    """Every criterion's result; _timed adds its id, from its place in ACCEPTANCE_CRITERIA, and its runtime."""
    return {"title": title, "passed": bool(passed), "detail": detail}


def _criterion_identity_suite() -> dict:
    start = time.perf_counter()
    results = identities.verify_all()
    elapsed = time.perf_counter() - start
    failures = [r.ident for r in results if not r.passed]

    target = form_by_label("L", _C1_CONTROL_ORDER)
    first, *rest = identities._LCOMB_COEFFS["A"]
    bad = identities.lcomb_combination(_C1_CONTROL_ORDER, coeffs=(first + 1, *rest))
    diff = target.first_difference(bad, _C1_CONTROL_THROUGH)
    control_ok = diff is not None and diff[0] <= 10

    passed = not failures and elapsed < 120 and control_ok
    return _result("identity registry exact at stated orders; perturbation caught early", passed, {
        "identities": len(results),
        "failures": failures,
        "runtime_s": round(elapsed, 3),
        "perturbation_exponent": None if diff is None else str(diff[0]),
    })


def _criterion_coefficient_laws() -> dict:
    closed, negation, ratios = _C2_WEIGHTS.values()
    closed_ok = all(
        alpha_w0(w) == x_w1_components(w, 2).pure.coefficient(0)
        for w in closed
    )
    beta_ok = all(
        x_w1_components(w, 2).e2_part.coefficient(0)
        == -x_w1_components(w, 2).pure.coefficient(0)
        for w in negation
    )

    def ratios_hold(w: int) -> bool:
        cs = [x_w1_components(w + step, 2) for step in (0, 2, 4)]
        numerators = (  # c1/c0 of each part of weights w, w + 2 and w + 4 is −12/(w − 6) times its numerator
            (w - 3) * (w + 4), w * w - 9 * w - 24, w * w - 19 * w + 108,  # the pure parts
            (w - 1) * w, (w - 12) * (w + 1), w * w - 21 * w + 120,  # the E2 parts
        )
        parts = (*(c.pure for c in cs), *(c.e2_part for c in cs))
        return all(s.coefficient(1) / s.coefficient(0) == Fraction(-12 * n, w - 6) for s, n in zip(parts, numerators))

    passed = closed_ok and beta_ok and all(map(ratios_hold, ratios))
    return _result("constant-term closed form, companion negation, second-coefficient ratios", passed,
                   {key: f"{r[0]}..{r[-1]} step {r.step}" for key, r in _C2_WEIGHTS.items()})


def _criterion_goldens() -> dict:
    detail = {}
    for key, (label, first, want) in _C3_GOLDENS.items():
        series = form_by_label(label, first + len(want) - 1)
        detail[key] = [series.coefficient(n) for n in range(first, first + len(want))] == want
    return _result("golden expansions for the depth-2 table and the weight-16 product", all(detail.values()), detail)


def _criterion_positivity() -> dict:
    cp_ok = all(
        positivity.check_complete_positivity(label, _C4_ORDER).completely_positive_up_to_order
        for label in ("Y4_2", "Y8_2", "Y10_2", "Y12_2")
    )
    doubling_ok = bool(positivity.x122_doubling_check(_C4_DOUBLING_BOUND)["ok"])
    patterns_ok = all(
        all((values[n] > 0) == (n % 2 == 1) for n in range(1, _C4_ORDER + 1))
        for values in (form_by_label(label, _C4_ORDER).nums for label in ("P1", "P2", "P3"))
    )
    detail = {
        "complete_positivity": cp_ok,
        "doubling": doubling_ok,
        "sign_patterns": patterns_ok,
    }
    return _result("depth-2 complete positivity, doubling bound, alternation patterns", all(detail.values()), detail)


def _criterion_ratio_infima() -> dict:
    reports = {label: (bound, floor, positivity.ratio_infimum(label, 2, bound))
               for bound, floors in _C5_FLOORS.items() for label, floor in floors.items()}
    x42_bound, _, x42 = reports["X4_2"]
    x42_ok = (
        x42.min_ratio <= _C5_X42_CEILING
        and x42.argmin == x42_bound
        and x42.violations == ()
    )
    passed = x42_ok and all(r.min_ratio > floor for _, floor, r in reports.values())
    return _result("dilation-2 coefficient-ratio minima stay above the stated floors", passed,
                   {f"{label}_min": str(r.min_ratio) for label, (_, _, r) in reports.items()})


def _criterion_lambert() -> dict:
    valid_names = [n for n in lambert.lemma_names() if lambert.lemma_parameters(n)["decreasing"]]
    invalid_names = [n for n in lambert.lemma_names() if not lambert.lemma_parameters(n)["decreasing"]]
    certs = {name: lambert.certify_lemma(name) for name in lambert.lemma_names()}
    valid_ok = all(certs[n].status == "valid" for n in valid_names)
    invalid_ok = all(
        certs[n].status == "invalid" and certs[n].witnesses for n in invalid_names
    )
    x101 = certs["X101"]
    x101_ok = (
        x101.method == "taylor"
        and x101.n_star == _C6_X101_N_STAR
        and x101.c_prefix is not None
        and len(x101.c_prefix) == _C6_X101_N_STAR
        and x101.c_prefix[0] == 8
        and all(c > 0 for c in x101.c_prefix[1:])
    )
    roundtrip_ok = all(
        lambert.recheck_certificate(json.loads(json.dumps(certs[n].to_json_dict())))
        for n in valid_names
    )
    passed = valid_ok and invalid_ok and x101_ok and roundtrip_ok
    return _result("block certificates: five established, two refused with witnesses, stable reloads", passed, {
        "valid": valid_names,
        "invalid": invalid_names,
        "X101_n_star": x101.n_star,
        "roundtrip": roundtrip_ok,
    })


def _criterion_numeric_values() -> dict:
    import mpmath  # the independent oracle for π and Γ(1/4), in a context of its own that no other thread sets
    cfg, mp = numeric.EvalConfig(), mpmath.MPContext()
    mp.prec = cfg.precision_bits  # numeric's values enter it (mp.mpf) before any arithmetic
    inversion_ok = True
    for t in (Fraction(3, 10), Fraction(1), Fraction(5, 2)):
        lhs = mp.mpf(numeric.eval_at_it("E2", Fraction(1) / t, cfg)["value"])
        rhs = mp.mpf(numeric.eval_at_it("E2", t, cfg)["value"])
        tm = mp.mpf(t.numerator) / t.denominator
        inversion_ok = inversion_ok and abs(lhs + tm**2 * rhs - 6 * tm / mp.pi) < mp.mpf("1e-20")

    e6_ok = abs(mp.mpf(numeric.eval_at_it("E6", 1, cfg)["value"])) < mp.mpf("1e-25")

    critical_ok = abs(mp.mpf(numeric.s_at_it("X8_1", 7, 1, cfg)["value"])) < mp.mpf("1e-15")

    x101_value = mp.mpf(numeric.eval_at_it("X10_1", 1, cfg)["value"])
    closed = 3 * mp.gamma(Fraction(1, 4)) ** 16 / (327680 * mp.pi**13)
    x101_ok = (
        abs(x101_value - closed) / closed < mp.mpf("1e-15")
        and x101_value > 1 / (120 * mp.pi)
    )
    detail = {
        "e2_inversion": inversion_ok,
        "e6_zero": e6_ok,
        "weight8_critical_point": critical_ok,
        "weight10_closed_form": x101_ok,
    }
    return _result("128-bit special values: inversion residuals, zeros, closed forms", all(detail.values()), detail)


def _criterion_limits() -> dict:
    import mpmath  # the independent oracle for π, in a context of its own as in C7
    cfg, mp = numeric.EvalConfig(), mpmath.MPContext()
    mp.prec = cfg.precision_bits
    ok, detail = True, {}
    ref = 1 / (55440 * mp.pi)  # the predicted limit at w = 12
    for w in (6, 12, 14):
        result = {key: mp.mpf(value) for key, value in numeric.limit_t0(w, cfg).items()}
        detail[f"w{w}_rel"] = mp.nstr(result["rel_error"], 4)
        ok = ok and result["rel_error"] < 1e-6
        if w == 12:
            ok = ok and abs(result["predicted"] - ref) / ref < mp.mpf("1e-30")
    return _result("small-t limits match companion constant-term predictions", ok, detail)


def _criterion_scans() -> dict:
    start = time.perf_counter()
    scans = numeric.monotonicity_scans(SCAN_PAIRS)
    if (shared := _RUN_SCANS.get()) is not None:
        shared.update(scans)
    nine_ok, family_ok = (all(scans[pair].verdict == "monotone_decreasing_on_grid" for pair in group)
                          for group in (_SCAN_DECREASING_PAIRS, _SCAN_FAMILY))
    r81 = scans["X8_1", 7]
    r81_ok = (
        r81.verdict == "sign_change_found"
        and len(r81.sign_changes) == 1
        and r81.sign_changes[0][0] < 1 < r81.sign_changes[0][1]
    )
    r101 = scans["X10_1", 9]
    r101_ok = r101.verdict == "sign_change_found" and len(r101.sign_changes) >= 1
    elapsed = time.perf_counter() - start
    passed = nine_ok and r81_ok and r101_ok and family_ok and elapsed < 60
    return _result("grid scans: nine decreasing pairs, two crossings, slow-exponent family", passed, {
        "nine_pairs": nine_ok,
        "weight8_bracket_holds_one": r81_ok,
        "weight10_crossings": len(r101.sign_changes),
        "family": family_ok,
        "runtime_s": round(elapsed, 3),
    })


def _criterion_reduction_chain() -> dict:
    idents_ok = all(identities.verify(i).passed for i in ("E1-A", "E1-B", "X121-DERIV"))
    pair = ("X12_1", 11)
    scan = (_RUN_SCANS.get() or {}).get(pair) or numeric.monotonicity_scan(*pair)
    scan_ok = scan.verdict == "monotone_decreasing_on_grid"
    detail = {"identities": idents_ok, "scan": scan_ok}
    return _result("derivative-combination chain verified exactly and its scan decreases", all(detail.values()), detail)


ACCEPTANCE_CRITERIA: tuple[Callable[[], dict], ...] = (
    _criterion_identity_suite,
    _criterion_coefficient_laws,
    _criterion_goldens,
    _criterion_positivity,
    _criterion_ratio_infima,
    _criterion_lambert,
    _criterion_numeric_values,
    _criterion_limits,
    _criterion_scans,
    _criterion_reduction_chain,
)
# acceptance_checks' queue of criteria, by place (a tracer may rebind ACCEPTANCE_CRITERIA to wrappers): C1; C9,
# then C10, which reads its scans; C5, then C4, which reads its builds; the rest singly, heaviest first
_QUEUE = ((0,), (8, 9), (4, 3), (6,), (1,), (7,), (5,), (2,))


def _timed(k: int) -> dict:
    """The result of the criterion at place k (from 0), with its id, C<k + 1>, and its runtime."""
    start = time.perf_counter()
    check = ACCEPTANCE_CRITERIA[k]()
    check.update(id=f"C{k + 1}", runtime_s=round(time.perf_counter() - start, 3))
    return check


def _taken(queue_fd: int, first: int):
    """``first``, then each index this lane takes from the queue, two bytes at a time, until it is empty."""
    yield first
    while raw := os.read(queue_fd, 2):
        yield int.from_bytes(raw, "big")


def _two_lanes(tasks: Sequence[Callable[[], object]]) -> list:
    """The results of independent zero-argument tasks, in task order.  With ``os.fork``, one thread and 2 to 2048
    tasks (a pipe holds at least one page), a forked worker runs task 0 and this process task 1, then each lane takes
    the next untaken index from a pipe filled before the fork, so one heavy task leaves no CPU idle.  The worker
    writes its results, or its traceback, as JSON to a second pipe and leaves by ``os._exit``; it is reaped, or killed
    and reaped if this lane raises, before this returns, and its builds and memory die with it.  Otherwise (a fork
    could copy a lock another thread holds) every task runs here, in order."""
    if not 2 <= len(tasks) <= 2048 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [task() for task in tasks]
    queue_fd, fill_fd = os.pipe()
    with open(fill_fd, "wb") as fill:
        fill.write(b"".join(index.to_bytes(2, "big") for index in range(2, len(tasks))))
    read_fd, write_fd = os.pipe()
    if not (pid := os.fork()):
        try:
            with open(write_fd, "w", encoding="utf-8") as pipe:
                try:
                    pipe.write(json.dumps({"results": [(index, tasks[index]()) for index in _taken(queue_fd, 0)]}))
                except Exception:
                    import traceback  # here, not at the top: only a failing worker pays for the import
                    pipe.write(json.dumps({"error": traceback.format_exc()}))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe, open(queue_fd, "rb"):
        try:
            results = {index: tasks[index]() for index in _taken(queue_fd, 1)}
            payload = pipe.read()
        except BaseException:
            import signal  # likewise only on the failing path
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    worker = json.loads(payload or "{}")
    if "results" not in worker:
        raise RuntimeError(f"the worker failed (wait status {status}):\n{worker.get('error', 'no output')}")
    results.update(worker["results"])
    return [results[index] for index in range(len(tasks))]


def acceptance_checks() -> list[dict]:
    """Run every acceptance criterion; each entry reports its id (C<k> for place k), pass/fail and its runtime_s, in
    criterion order.  The groups of ``_QUEUE`` are the tasks of ``_two_lanes``: C1 runs in the worker where it forks,
    C9 and C10 here, and each lane then takes the next group.  A group runs in one lane, in order, so C10 reads C9's
    scans and C4 what C5 built (x_w2 and E2-E10 at orders 4096-8192) by truncation."""
    import mpmath  # noqa: F401  loaded before the fork, so neither lane imports it again
    token = _RUN_SCANS.set({})
    try:
        groups = _two_lanes([lambda group=group: [(k, _timed(k)) for k in group]
                             for group in _QUEUE])
    finally:
        _RUN_SCANS.reset(token)
    return [check for _, check in sorted((pair for group in groups for pair in group), key=lambda pair: pair[0])]


def _cmd_report(args) -> tuple[int, dict, str]:
    checks = acceptance_checks()
    all_passed = all(c["passed"] for c in checks)
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['id']}: {c['title']}" for c in checks
    ]
    lines.append("ALL CHECKS PASSED" if all_passed else "FAILURES PRESENT")
    payload = {"checks": checks, "all_passed": all_passed}
    return (0 if all_passed else 1), payload, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the command table, and one pass over argv against it
# ---------------------------------------------------------------------------


def _height(raw: str) -> Fraction:
    """A height option's value as an exact rational.  Python reads at most 4300 digits into an int, so a decimal
    exponent beyond ±10000 is past numeric.HEIGHT_CAP whatever the mantissa; Fraction would expand it in full."""
    _, e, exponent = raw.lower().partition("e")
    with contextlib.suppress(ValueError):  # no integer after the "e": Fraction refuses the string
        if e and abs(int(exponent)) > 10_000:
            raise UsageError(f"height {raw!r}: a decimal exponent beyond ±10000 is past the cap")
    return Fraction(raw)


# Each command's handler, help line, positional ("" for none; a name, followed by "?" if it is optional and by "*"
# if it takes any number of words) and options, each with a type (a tuple of choices, or bool for a flag) and a
# default (... if the option must be given).
_OUTPUT = {"--format": (("text", "json"), "text"), "--output": (str, None)}
_GRID_MIN, _GRID_MAX, _GRID_POINTS = numeric.DEFAULT_GRID_SPEC  # scan's default grid, the one C9 scans on
COMMANDS: dict[str, tuple[Callable, str, str, dict[str, tuple]]] = {
    "expand": (_cmd_expand, "print a form's q-expansion", "label", {"--order": (int, None), **_OUTPUT}),
    "identity": (_cmd_identity, "verify registry identities exactly", "idents*",
                 {"--all": (bool, False), "--order": (int, None), **_OUTPUT}),
    "positivity": (_cmd_positivity, "scan coefficients for a first negative", "label",
                   {"--order": (int, None), **_OUTPUT}),
    "density": (_cmd_density, "count positive coefficients up to a bound", "label",
                {"--n": (int, 2000), **_OUTPUT}),
    "ratio-inf": (_cmd_ratio_inf, "minimum dilation coefficient ratio", "label",
                  {"--dilate": (int, 2), "--bound": (int, 4096), **_OUTPUT}),
    "scan": (_cmd_scan, "sign scan of m*F(it) - 2*pi*t*F'(it)", "label",
             {"--m": (int, ...), "--tmin": (_height, _GRID_MIN), "--tmax": (_height, _GRID_MAX),
              "--points": (int, _GRID_POINTS), "--bits": (int, None), **_OUTPUT}),
    "lambert-certify": (_cmd_lambert, "build or re-verify a block certificate", "name?",
                        {"--method": (("auto", *lambert.METHODS), "auto"), "--emit": (str, None),
                         "--recheck": (str, None), **_OUTPUT}),
    "limits": (_cmd_limits, "small-t limit of t^(w-1) F(it) vs prediction", "label",
               {"--bits": (int, None), **_OUTPUT}),
    "eval": (_cmd_eval, "evaluate a form at z = it", "label",
             {"--t": (_height, ...), "--bits": (int, None), **_OUTPUT}),
    "plotdata": (_cmd_plotdata, "TSV table of (t, t^m F(it))", "label",
                 {"--m": (int, ...), "--tmin": (_height, Fraction(1, 2)), "--tmax": (_height, Fraction(8, 5)),
                  "--points": (int, 40), "--bits": (int, None), "--output": (str, None)}),
    "report": (_cmd_report, "run every suite; the single acceptance entry point", "", _OUTPUT),
}


def _help(name: str | None, word: str) -> SimpleNamespace:
    """What ``word`` (-h, or --help or a prefix of it) asks for: the help of command ``name``, or of qmf (None)."""
    if "=" in word or word[:2] == "-h" and word != "-h":
        raise UsageError(f"{word}: -h/--help takes no value")
    if name is None:
        head, rows = "qmf COMMAND ...   (qmf COMMAND --help lists its arguments)", [
            (command, about) for command, (_, about, _, _) in COMMANDS.items()]
    else:
        _, about, positional, options = COMMANDS[name]
        head = f"qmf {name} ...\n\n{about}"
        rows = [(positional.rstrip("?*"), {"?": "optional", "*": "any number"}.get(positional[-1:], ""))]
        rows += [(option, ("one of " + ", ".join(kind) + "; " if isinstance(kind, tuple) else "")
                  + ("required" if default is ... else "" if default in (None, False) else f"default {default}"))
                 for option, (kind, default) in options.items()]
    text = f"usage: {head}\n\n" + "".join(f"  {shown:<17}{note}".rstrip() + "\n" for shown, note in rows if shown)
    return SimpleNamespace(handler=lambda _: (0, {}, text))


_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(word: str, options: dict) -> str | None:
    """The option ``word`` names among ``options`` as argparse read it, in full or by a unique prefix ("--help" for
    -h); "" for none (so for "--"); None for a value: not starting with "-", "-", a negative number, or with a space."""
    if word[:1] != "-" or word == "-":
        return None
    if word[:2] == "-h":
        return "--help"
    name = word.partition("=")[0]
    found = [name] if name in options else [
        option for option in (*options, "--help") if option.startswith(name) and name[:2] == "--" and word != "--"]
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {name} could match {', '.join(found)}")
    return found[0] if found else None if _NEGATIVE_NUMBER.match(word) or " " in word else ""


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """``argv`` read against ``COMMANDS`` in one pass, as argparse read it: ``--opt value`` or ``--opt=value``, by
    full name or unique prefix, the last of a repeated option winning and a negative number passing as a value.
    Anything else raises UsageError; -h or --help gives a namespace whose handler prints the help."""
    name = argv[0] if argv else ""
    if _option(name, {}) == "--help":
        return _help(None, name)
    if name not in COMMANDS:
        raise UsageError(f"pass one of the commands {', '.join(COMMANDS)}" + (f", not {name!r}" if name else ""))
    handler, _, positional, options = COMMANDS[name]
    values = {option[2:]: default for option, (_, default) in options.items()}
    positionals, extras, closed = [], [], False  # argparse read one run of positionals: an option closes it
    # argparse read every word first, so an ambiguous option is refused even after -h
    pairs = zip(argv[1:], [_option(word, options) for word in argv[1:]])
    for word, kind in pairs:
        if kind is None:
            (extras if closed else positionals).append(word)
            continue
        closed = closed or bool(positionals)
        if kind == "--help":
            return _help(name, word)
        if kind == "":
            extras.append(word)
            continue
        option_type = options[kind][0]
        if option_type is bool and "=" not in word:
            values[kind[2:]] = True
            continue
        raw, raw_kind = (word.partition("=")[2], None) if "=" in word else next(pairs, (None, ""))
        if option_type is bool or raw_kind is not None:
            raise UsageError(f"{name}: {kind} takes {'no value' if option_type is bool else 'a value'}")
        if isinstance(option_type, tuple) and raw not in option_type:
            raise UsageError(f"{name}: {kind} must be one of {', '.join(option_type)}, got {raw!r}")
        try:
            values[kind[2:]] = raw if isinstance(option_type, tuple) else option_type(raw)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{name}: invalid {kind} value {raw!r}")
    dest, arity = positional.rstrip("?*"), positional[-1:]
    if arity == "*":
        values[dest], positionals = positionals, []
    elif dest:
        values[dest] = positionals.pop(0) if positionals else None if arity == "?" else ...
    missing = [key for key, value in values.items() if value is ...]
    if missing:
        raise UsageError(f"{name}: missing {', '.join(missing)}")
    if positionals or extras:
        raise UsageError(f"{name}: unrecognized arguments: {' '.join(positionals + extras)}")
    return SimpleNamespace(handler=handler, **values)


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one command; returns the process exit code."""
    as_json = output = None
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        as_json, output = getattr(args, "format", "text") == "json", getattr(args, "output", None)
        code, payload, text = args.handler(args)
        _write_out(_canonical_json(payload) if as_json else text, output)
        return code
    except (UsageError, OrderExceeded, numeric.HeightOutOfRange) as exc:
        sys.stderr.write(f"qmf: {exc}\n")
        if as_json:
            with contextlib.suppress(UsageError):  # the output path may be what failed
                _write_out(_canonical_json({"error": str(exc)}), output)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
