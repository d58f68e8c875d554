"""Top-level acceptance gate: the ten headline checks, one line each.

Each test runs one aggregated criterion from the report suite and prints
a single PASS/FAIL line; the detail payload lands in the assertion
message on failure.
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from pathlib import Path

from qmforms import cli, identities, numeric


def run_criterion(criterion) -> dict:
    result = criterion()
    status = "PASS" if result["passed"] else "FAIL"
    print(f"{status} C{cli.ACCEPTANCE_CRITERIA.index(criterion) + 1}: {result['title']}")  # the id is the place
    assert result["passed"], result
    return result


def test_criterion_01_identity_registry_exact_and_fast():
    result = run_criterion(cli._criterion_identity_suite)
    assert result["detail"]["runtime_s"] < 120
    assert result["detail"]["perturbation_exponent"] is not None


def test_criterion_01_control_raises_lcomb_as_first_coefficient_by_one(monkeypatch):
    # the control's coefficients are the registry's, so a change there reaches the control
    given, combination = [], identities.lcomb_combination

    def recorded(order, coeffs=None, variant="A"):
        if coeffs is not None:
            given.append(tuple(coeffs))
        return combination(order, coeffs, variant)

    monkeypatch.setattr(identities, "lcomb_combination", recorded)
    result = run_criterion(cli._criterion_identity_suite)
    first, *rest = identities._LCOMB_COEFFS["A"]
    assert given == [(first + 1, *rest)]
    assert result["detail"]["perturbation_exponent"] == "5"


def test_criterion_02_coefficient_laws_exact():
    run_criterion(cli._criterion_coefficient_laws)


def test_criterion_02_details_follow_its_ranges(monkeypatch):
    monkeypatch.setattr(cli, "_C2_WEIGHTS", {"closed_form_weights": range(6, 19, 6),
                                             "negation_weights": range(8, 15, 2), "ratio_weights": range(12, 13)})
    assert run_criterion(cli._criterion_coefficient_laws)["detail"] == {
        "closed_form_weights": "6..18 step 6", "negation_weights": "8..14 step 2", "ratio_weights": "12..12 step 1"}


def test_criterion_03_golden_expansions():
    run_criterion(cli._criterion_goldens)


def test_criterion_04_positivity_patterns():
    run_criterion(cli._criterion_positivity)


def test_criterion_05_ratio_infima():
    run_criterion(cli._criterion_ratio_infima)


def test_criterion_06_block_certificates():
    run_criterion(cli._criterion_lambert)


def test_criterion_07_high_precision_special_values():
    run_criterion(cli._criterion_numeric_values)


def test_no_criterion_evaluates_a_series_passed_by_value(monkeypatch, tmp_path):
    # C7's weight-8 critical point is X8_1's s at t = 1, read on the route C9 reuses.
    # The reads are logged to a file, so those of the forked worker's lane count too
    log, eval_at_it = tmp_path / "forms.log", numeric.eval_at_it

    def logged(form, *rest):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{form!r}\n")
        return eval_at_it(form, *rest)

    monkeypatch.setattr(numeric, "eval_at_it", logged)
    assert all(check["passed"] for check in cli.acceptance_checks())
    assert log.read_text().splitlines() == [repr(form) for form in ["E2"] * 6 + ["E6", "X10_1"]]


def test_mpmath_is_loaded_before_the_lanes_fork():
    # C7 and C8 read mpmath in whichever lane takes them; loaded before the fork, neither imports it again
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import qmforms.cli as cli\n"
        "assert 'mpmath' not in sys.modules\n"
        "seen = []\n"
        "cli._two_lanes = lambda tasks: seen.append('mpmath' in sys.modules) or []\n"
        "assert cli.acceptance_checks() == [] and seen == [True], seen\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_criterion_08_small_t_limits():
    run_criterion(cli._criterion_limits)


def test_criterion_08_takes_each_limit_once(monkeypatch):
    # the 1/(55440π) check reads the w = 12 prediction the loop already formed
    weights, limit_t0 = [], numeric.limit_t0
    monkeypatch.setattr(numeric, "limit_t0", lambda w, cfg=None: weights.append(w) or limit_t0(w, cfg))
    run_criterion(cli._criterion_limits)
    assert weights == [6, 12, 14]


def test_criterion_09_scan_verdicts_within_budget():
    result = run_criterion(cli._criterion_scans)
    assert result["detail"]["runtime_s"] < 60


def test_criterion_09_runs_each_distinct_scan_once(monkeypatch, tmp_path):
    # (X6_1, 5), (X8_1, 6) and (X10_1, 8) are both decreasing pairs and family
    # members, and C10 reads C9's (X12_1, 11): 18 scans over 14 labels, one
    # route each, per report; C7 reads a route per eval of a label (E2 at three
    # heights and their inverses, E6 and X10_1) and C8 one per limit.  The
    # criteria run on two lanes, so each call is one line appended to a log.
    log = tmp_path / "calls.log"

    def logged(kind, *names):
        with open(log, "a", encoding="utf-8") as out:
            out.write("".join(f"{kind} {name}\n" for name in names))

    def logged_scans(ps, *rest):
        logged("pair", *(f"{label}:{m}" for label, m in ps))
        return scans(ps, *rest)

    def logged_route(label, *rest):
        logged("route", label)
        return route(label, *rest)

    scans, route = numeric.monotonicity_scans, numeric._axis_route
    monkeypatch.setattr(numeric, "monotonicity_scans", logged_scans)
    monkeypatch.setattr(numeric, "_axis_route", logged_route)

    def calls(kind):
        return [name for k, name in (line.split() for line in log.read_text().splitlines()) if k == kind]

    assert all(check["passed"] for check in cli.acceptance_checks())
    pairs, labels = calls("pair"), calls("route")
    scanned = [pair.split(":")[0] for pair in pairs]
    assert len(pairs) == len(set(pairs)) == 18 and len(set(scanned)) == 14
    assert Counter(labels) == Counter(["E2"] * 6 + ["E6", "X10_1", "X6_1", "X12_1", "X14_1", *set(scanned)])
    # results are shared within one call only: C10 on its own scans again
    run_criterion(cli._criterion_reduction_chain)
    assert calls("pair")[18:] == ["X12_1:11"] and calls("route")[len(labels):] == ["X12_1"]


def test_criterion_10_derivative_chain():
    run_criterion(cli._criterion_reduction_chain)
