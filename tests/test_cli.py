"""CLI behaviour: goldens, exit codes, formats, configuration precedence."""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from qmforms import cli, numeric
from qmforms.cli import (
    _cmd_density,
    _cmd_eval,
    _cmd_expand,
    _cmd_identity,
    _cmd_lambert,
    _cmd_limits,
    _cmd_plotdata,
    _cmd_positivity,
    _cmd_ratio_inf,
    _cmd_report,
    _cmd_scan,
)
from qmforms.extremal import MAX_DEPTH1_WEIGHT
from qmforms.qseries import FourierSeries

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tools")]

from outputs import ops as output_ops  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


GOLDEN_Y42 = "q + 2q^2 + 12q^3 + 4q^4 + 30q^5"


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def test_expand_golden(capsys):
    code, out, _ = run_capture(capsys, ["expand", "Y4_2", "--order", "5"])
    assert code == 0
    assert out.strip() == GOLDEN_Y42


def test_expand_negative_terms_use_minus_sign(capsys):
    code, out, _ = run_capture(capsys, ["expand", "X42Delta", "--order", "7"])
    assert code == 0
    assert out.strip() == "q^2 − 18q^3 + 120q^4 − 220q^5 − 1620q^6 + 11676q^7"


def test_expand_fractional_exponents(capsys):
    code, out, _ = run_capture(capsys, ["expand", "H2", "--order", "3"])
    assert code == 0
    assert out.strip() == "16q^{1/2} + 64q^{3/2} + 96q^{5/2}"


def test_expansion_text_edge_cases():
    assert cli.expansion_text(FourierSeries.from_coefficients([0])) == "0"
    assert cli.expansion_text(FourierSeries.from_coefficients([2])) == "2"
    assert cli.expansion_text(FourierSeries.from_coefficients([0, 1, -1])) == "q − q^2"
    assert cli.expansion_text(FourierSeries.from_coefficients([-1, Fraction(1, 2)])) == "−1 + (1/2)q"


def test_expand_json_round_trips_byte_identical(capsys):
    code, out, _ = run_capture(capsys, ["expand", "Y4_2", "--order", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["text"] == GOLDEN_Y42
    assert payload["terms"][0] == ["1", "1"]
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_expand_writes_output_file(capsys, tmp_path):
    target = tmp_path / "y42.json"
    code = cli.run(["expand", "Y4_2", "--order", "5", "--format", "json", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["text"] == GOLDEN_Y42


def test_unknown_label_rejected_before_work(capsys):
    # "X1_2_1" once built X12_1, because int() reads "1_2" as 12
    for label in ("NOPE", "X1_2_1"):
        code, out, err = run_capture(capsys, ["expand", label])
        assert code == 2
        assert out == ""
        assert "unknown form label" in err


def test_huge_depth1_weight_fails_up_front(capsys):
    # never exit 1: the recursive climb to weight 8000 once overflowed the stack
    code, out, err = run_capture(capsys, ["expand", "X8000_1", "--order", "2"])
    assert code == 2 and out == ""
    assert f"up to {MAX_DEPTH1_WEIGHT}" in err


def test_json_mode_error_detail(capsys):
    code, out, err = run_capture(capsys, ["expand", "NOPE", "--format", "json"])
    assert code == 2
    assert "unknown form label" in err
    assert "unknown form label" in json.loads(out)["error"]


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------


def test_identity_single_pass(capsys):
    code, out, _ = run_capture(capsys, ["identity", "DELTA"])
    assert code == 0
    assert out.startswith("PASS DELTA")


def test_identity_unknown_id(capsys):
    code, _, err = run_capture(capsys, ["identity", "NOPE-1"])
    assert code == 2
    assert "unknown identity ids" in err


def test_identity_needs_selection(capsys):
    code, _, err = run_capture(capsys, ["identity"])
    assert code == 2
    assert "--all" in err


def test_identity_all_json(capsys):
    code, out, _ = run_capture(capsys, ["identity", "--all", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["failures"] == []
    assert len(payload["results"]) >= 35
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


# ---------------------------------------------------------------------------
# positivity family
# ---------------------------------------------------------------------------


def test_positivity_reports_first_negative(capsys):
    code, out, _ = run_capture(capsys, ["positivity", "P2", "--order", "50"])
    assert code == 0
    assert "first negative coefficient" in out


def test_density_json(capsys):
    code, out, _ = run_capture(capsys, ["density", "P1", "--n", "100", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count_positive"] == 50
    assert payload["density"] == "1/2"


def test_ratio_inf_json(capsys):
    code, out, _ = run_capture(
        capsys, ["ratio-inf", "X4_2", "--dilate", "2", "--bound", "8", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["min_ratio"] == "62/15"


# ---------------------------------------------------------------------------
# numeric family
# ---------------------------------------------------------------------------


def test_scan_text_verdict(capsys):
    code, out, _ = run_capture(
        capsys, ["scan", "X12_1", "--m", "11", "--tmin", "0.5", "--tmax", "4", "--points", "12"]
    )
    assert code == 0
    assert "monotone_decreasing_on_grid" in out


def test_scan_json_sign_change(capsys):
    code, out, _ = run_capture(
        capsys,
        ["scan", "X8_1", "--m", "7", "--tmin", "0.5", "--tmax", "2", "--points", "9", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "sign_change_found"
    assert len(payload["sign_changes"]) == 1


def test_scan_usage_errors(capsys):
    assert cli.run(["scan", "X12_1", "--m", "0"]) == 2
    assert cli.run(["scan", "X12_1", "--m", "11", "--points", "1"]) == 2
    assert cli.run(["scan", "X12_1", "--m", "11", "--tmin", "3", "--tmax", "2"]) == 2
    capsys.readouterr()


def test_eval_value(capsys):
    code, out, _ = run_capture(capsys, ["eval", "E2", "--t", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["value"].startswith("0.954929658551372")


def test_eval_at_512_bits_reports_a_512_bit_tail(capsys):
    # the build order deepens with the precision, so --bits 512 buys 512 bits
    code, out, _ = run_capture(capsys, ["eval", "E2", "--t", "1/20", "--bits", "512", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert mpmath.mpf(payload["tail_estimate"]) < mpmath.ldexp(abs(mpmath.mpf(payload["value"])), -500)


def test_eval_rejects_nonpositive_t(capsys):
    code, _, err = run_capture(capsys, ["eval", "E4", "--t", "0"])
    assert code == 2
    assert "t > 0" in err


@pytest.mark.parametrize("argv", [
    ["eval", "E4", "--t", "1/0"],
    ["scan", "X12_1", "--m", "11", "--tmin", "1/0"],
    ["plotdata", "X12_1", "--m", "11", "--tmax", "1/0"],
])
def test_a_zero_denominator_is_a_usage_error(capsys, argv):
    # argparse's type= caught only ValueError and TypeError, so Fraction's ZeroDivisionError escaped run
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "") and err.startswith("qmf: ")


@pytest.mark.parametrize("argv", [
    ["eval", "Delta", "--t", "100000"],
    ["eval", "X12_1", "--t", "100000"],
    ["plotdata", "X12_1", "--m", "11", "--tmin", "0.00001", "--points", "3"],
    ["plotdata", "X12_1", "--m", "11", "--tmin", "0.0000001", "--points", "3"],
])
def test_sums_at_large_heights_do_not_slow_with_the_height(capsys, argv):
    # these series start with zero coefficients, so a fixed point set by the
    # peak term would widen by about 9 bits per unit of height
    start = time.perf_counter()
    code, out, _ = run_capture(capsys, argv)
    assert code == 0 and out
    assert time.perf_counter() - start < 2


def test_limits_json(capsys):
    code, out, _ = run_capture(capsys, ["limits", "X6_1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_limits_requires_depth1_label(capsys):
    code, _, err = run_capture(capsys, ["limits", "Y4_2"])
    assert code == 2
    assert "depth-1" in err


def test_plotdata_tsv(capsys):
    code, out, _ = run_capture(capsys, ["plotdata", "X8_1", "--m", "7", "--points", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# dataset: t^7 * X8_1(it)")
    assert lines[1] == "# columns: t\tvalue"
    data = lines[2:]
    assert len(data) == 5
    assert all(len(row.split("\t")) == 2 for row in data)


def test_plotdata_output_file(capsys, tmp_path):
    target = tmp_path / "curve.tsv"
    code = cli.run(["plotdata", "X8_1", "--m", "7", "--points", "4", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("# dataset:")


def run_qmf(argv, timeout=60, **options):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "qmforms.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=timeout, **options)
    return done, time.perf_counter() - start


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("argv, value", [
    (["eval", "X12_1", "--t", "0.000000001"], "5.74152031356043779830028006394e+93"),
    (["eval", "Delta", "--t", "1000000000"], "2.07165439191220457972721014951e-2728752708"),
], ids=["X12_1", "Delta"])
def test_reads_at_heights_far_from_one_do_not_grow_with_the_height(argv, value):
    # at height 10^9, q is about 2^(-9·10^9): a read may neither build
    # integers that wide (Delta at t) nor shift its terms that far to add them
    # (X12_1 at u = 1/t took 7.5 s and 6.9 GB so), hence a child capped at 1 GiB
    done, elapsed = run_qmf(argv, timeout=30, preexec_fn=_cap_memory)
    assert done.returncode == 0 and f": {value} (tail " in done.stdout, done.stderr
    assert elapsed < 5


@pytest.mark.parametrize("argv", [
    ["eval", "E2", "--t", "0.000001"],
    ["plotdata", "Y8_2", "--m", "7", "--tmin", "0.000001", "--tmax", "1"],
    ["scan", "E2", "--m", "1", "--tmin", "0.000001", "--tmax", "1"],
])
def test_direct_reads_past_the_order_cap_fail_up_front(argv):
    # order_for(1e-6) is 4·10^7 terms, twenty times forms.TAU_DEFAULT_CAP
    done, elapsed = run_qmf(argv, timeout=30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("qmf: ") and "40000000 terms" in done.stderr
    assert elapsed < 5


@pytest.mark.parametrize("argv", [
    ["eval", "X12_1", "--t", "1e400"],
    ["eval", "X12_1", "--t", "1e-400"],
    ["eval", "E4", "--t", "1e400"],
    ["eval", "Delta", "--t", "1e30"],
    ["eval", "Delta", "--t", "1e50"],
    ["eval", "X12_1", "--t", "1e50"],
    ["eval", "F", "--t", "1e18"],
    ["eval", "L", "--t", "1e18"],
    ["scan", "X12_1", "--m", "11", "--tmin", "1", "--tmax", "1e18"],
    ["plotdata", "X12_1", "--m", "11", "--tmin", "1e-18", "--tmax", "1"],
])
def test_reads_past_the_height_cap_fail_up_front(argv):
    # past numeric.HEIGHT_CAP these reads overflowed, ran out of memory, or
    # (F and L at 10^18) printed 0.0 with no significant bit
    done, elapsed = run_qmf(argv, timeout=30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("qmf: ") and "past the cap" in done.stderr
    assert elapsed < 5


@pytest.mark.parametrize("argv", [
    ["eval", "E4", "--t", "1e100000000"],
    ["scan", "X12_1", "--m", "11", "--tmin", "1e-100000000"],
])
def test_heights_with_huge_exponents_fail_before_they_expand(argv):
    # Fraction("1e10000000") builds 10^(10^7), which took 5 s, and each further digit
    # of the exponent costs about 20 times more
    done, elapsed = run_qmf(argv, timeout=30)
    assert (done.returncode, done.stdout) == (2, "") and done.stderr.startswith("qmf: "), done.stderr
    assert elapsed < 1


@pytest.mark.parametrize("argv, env", [
    ([f"X{MAX_DEPTH1_WEIGHT + 2}_1", "--t", "1"], None),
    (["X12_1", "--t", "0.5", "--bits", str(numeric.MAX_PRECISION_BITS + 1)], None),
    (["X12_1", "--t", "0.5"], str(numeric.MAX_PRECISION_BITS + 1)),
], ids=["weight", "bits", "QMF_BITS"])
def test_evals_past_the_weight_and_precision_caps_fail_up_front(monkeypatch, argv, env):
    # X_(cap+2,1) and one bit past the precision cap each answer in about 3 s; refused, they exit 2 at once
    if env is not None:
        monkeypatch.setenv("QMF_BITS", env)
    done, elapsed = run_qmf(["eval", *argv], timeout=30, preexec_fn=_cap_memory)
    assert (done.returncode, done.stdout) == (2, "") and done.stderr.startswith("qmf: "), done.stderr
    assert elapsed < 1


@pytest.mark.parametrize("command", ["scan", "plotdata"])
def test_grids_past_the_points_cap_fail_up_front(command):
    done, elapsed = run_qmf([command, "L10", "--m", "1", "--points", str(numeric.MAX_POINTS + 1)],
                            timeout=30, preexec_fn=_cap_memory)
    assert (done.returncode, done.stdout) == (2, "") and f"--points <= {numeric.MAX_POINTS}" in done.stderr
    assert elapsed < 1


@pytest.mark.parametrize("argv", [
    ["eval", "F", "--t", "1e15"],
    ["eval", "F", "--t", "1e-15"],
    ["eval", "L", "--t", "1e15"],
    ["eval", "X240_1", "--t", "1e15"],
    ["eval", "X240_1", "--t", "1e-15"],
    ["eval", "E4", "--t", "1e15"],
])
def test_reads_at_the_height_cap_still_answer(argv):
    done, _ = run_qmf([*argv, "--format", "json"])
    assert done.returncode == 0, done.stderr
    value, tail = (mpmath.mpf(json.loads(done.stdout)[key]) for key in ("value", "tail_estimate"))
    assert value != 0 and tail < mpmath.ldexp(abs(value), -100)


@pytest.mark.parametrize("argv, out", [
    (["eval", "E2", "--t", "0.0001"], "E2(it) at t = 1/10000: -99980901.4068289725597077339484 (tail 4.000339082e-28)\n"),
    # a routed label sums at u = 1/t, so the cap never applies to it
    (["eval", "X12_1", "--t", "0.00001"], "X12_1(it) at t = 1/100000: 5.74152031356043779830028006394e+49 (tail 4.337917608e+11)\n"),
])
def test_reads_within_the_order_cap_still_answer(argv, out):
    done, _ = run_qmf(argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "")


# ---------------------------------------------------------------------------
# lambert-certify
# ---------------------------------------------------------------------------


def test_lambert_certify_emit_and_recheck(capsys, tmp_path):
    path = tmp_path / "x101.json"
    code, out, _ = run_capture(capsys, ["lambert-certify", "X101", "--emit", str(path)])
    assert code == 0
    assert out.startswith("VALID X101")
    stored = json.loads(path.read_text())
    assert stored["n_star"] == 65
    code, out, _ = run_capture(capsys, ["lambert-certify", "--recheck", str(path)])
    assert code == 0
    assert out.startswith("PASS")


def test_lambert_recheck_rejects_tampering(capsys, tmp_path):
    path = tmp_path / "x42.json"
    assert cli.run(["lambert-certify", "X42", "--emit", str(path)]) == 0
    data = json.loads(path.read_text())
    data["P"][0] = str(int(data["P"][0]) + 1)
    path.write_text(json.dumps(data))
    code, _, _ = run_capture(capsys, ["lambert-certify", "--recheck", str(path)])
    assert code == 1


@pytest.mark.parametrize("stored", ["[1, 2]", '"X42"', "7", "null"])
def test_lambert_recheck_fails_a_file_that_is_not_an_object(capsys, tmp_path, stored):
    path = tmp_path / "cert.json"
    path.write_text(stored)
    assert cli.lambert.recheck_certificate(json.loads(stored)) is False
    code, out, err = run_capture(capsys, ["lambert-certify", "--recheck", str(path)])
    assert code == 1
    assert out.startswith("FAIL") and err == ""


@pytest.mark.parametrize("argv, target", [
    (["expand", "Y4_2", "--order", "5", "--output"], "missing/out.txt"),
    (["expand", "Y4_2", "--order", "5", "--format", "json", "--output"], "."),
    (["plotdata", "X8_1", "--m", "7", "--points", "2", "--output"], "missing/curve.tsv"),
    (["lambert-certify", "X42", "--emit"], "missing/x42.json"),
    (["lambert-certify", "X42", "--format", "json", "--emit"], "."),
])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv, target):
    code, out, err = run_capture(capsys, argv + [str(tmp_path / target)])
    assert code == 2
    assert err.startswith("qmf: cannot write ") and "Traceback" not in err
    if "--output" in argv or "--format" not in argv:
        assert out == ""
    else:  # json mode on stdout: the error object goes there
        assert "cannot write" in json.loads(out)["error"]
    assert not (tmp_path / "missing").exists()


def test_lambert_invalid_block_exits_one(capsys):
    code, out, _ = run_capture(capsys, ["lambert-certify", "E4"])
    assert code == 1
    assert out.startswith("INVALID E4")


def test_lambert_usage_errors(capsys):
    assert cli.run(["lambert-certify"]) == 2
    assert cli.run(["lambert-certify", "NOPE"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# configuration precedence and the aggregated report
# ---------------------------------------------------------------------------


def test_env_order_applies(capsys, monkeypatch):
    monkeypatch.setenv("QMF_ORDER", "5")
    code, out, _ = run_capture(capsys, ["expand", "Y4_2"])
    assert code == 0
    assert out.strip() == GOLDEN_Y42


def test_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("QMF_ORDER", "3")
    code, out, _ = run_capture(capsys, ["expand", "Y4_2", "--order", "5"])
    assert code == 0
    assert out.strip() == GOLDEN_Y42


@pytest.mark.parametrize("argv, env_order", [
    (["density", "P1", "--n", "0"], None),
    (["density", "X8_2", "--n", "-3"], None),
    (["ratio-inf", "X4_2", "--bound", "0"], None),
    (["ratio-inf", "X4_2", "--dilate", "0"], None),
    (["positivity", "E4", "--order", "-5"], None),
    (["identity", "RAM-1", "--order", "-1"], None),
    (["expand", "Y4_2", "--order", "0"], None),
    (["positivity", "E4"], "-3"),
    (["identity", "RAM-1"], "-3"),
    (["expand", "Y4_2"], "-3"),
])
def test_nonpositive_sizes_exit_two_before_work(capsys, monkeypatch, argv, env_order):
    if env_order is not None:
        monkeypatch.setenv("QMF_ORDER", env_order)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the sizes were checked")

    for owner, name in ((cli, "form_by_label"), (cli.identities, "verify"), (cli.positivity, "sign_pattern"),
                        (cli.positivity, "ratio_infimum"), (cli.positivity, "check_complete_positivity")):
        monkeypatch.setattr(owner, name, no_work)
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("qmf: ") and "must be at least 1" in err


def test_env_bits_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("QMF_BITS", "plenty")
    code, _, err = run_capture(capsys, ["eval", "E2", "--t", "1"])
    assert code == 2
    assert "QMF_BITS" in err


def test_env_bits_below_floor_rejected(capsys, monkeypatch):
    monkeypatch.setenv("QMF_BITS", "32")
    code, _, err = run_capture(capsys, ["eval", "E2", "--t", "1"])
    assert code == 2
    assert "precision_bits" in err


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("expand", "identity", "positivity", "density", "ratio-inf", "scan", "lambert-certify",
                 "limits", "eval", "plotdata", "report"):
        assert name in out, name


@pytest.mark.parametrize("argv, shown", [
    (["eval", "--help"], ["usage: qmf eval", "evaluate a form at z = it", "  label", "--t      ", "required",
                          "--bits", "--format", "one of text, json; default text", "--output"]),
    (["scan", "-h"], ["usage: qmf scan", "  label", "--m", "required", "--tmin           default 1/20",
                      "--tmax           default 20", "--points         default 60", "one of text, json"]),
    (["lambert-certify", "--he"], ["  name             optional", "one of auto, r-shift, taylor; default auto",
                                   "--emit", "--recheck"]),
])
def test_command_help_shows_positionals_options_defaults_and_choices(capsys, argv, shown):
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    for text in shown:
        assert text in out, text


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.run([]) == 2
    capsys.readouterr()


def test_report_times_every_criterion(capsys, monkeypatch):
    def quick():
        return {"title": "stand-in", "passed": True, "detail": {"runtime_s": 0.5}}

    def slow():
        time.sleep(0.05)
        return {"title": "stand-in", "passed": True, "detail": {}}

    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", _criteria(C1=quick, C2=slow))
    code, out, _ = run_capture(capsys, ["report", "--format", "json"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["id"] for c in checks] == [f"C{k}" for k in range(1, 11)]
    assert all(isinstance(c["runtime_s"], float) for c in checks)
    assert 0 <= checks[0]["runtime_s"] < checks[1]["runtime_s"]
    assert checks[1]["runtime_s"] >= 0.05
    assert checks[0]["detail"]["runtime_s"] == 0.5


def test_report_aggregates_all_suites(capsys):
    code, out, _ = run_capture(capsys, ["report", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert [c["id"] for c in payload["checks"]] == [f"C{k}" for k in range(1, 11)]
    assert all(c["passed"] for c in payload["checks"])
    assert all(c["runtime_s"] >= 0 for c in payload["checks"])
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


# ---------------------------------------------------------------------------
# report: the criteria queued on two lanes, C1 in a forked worker
# ---------------------------------------------------------------------------


def _masked(check: dict) -> dict:
    detail = {k: v for k, v in check["detail"].items() if k != "runtime_s"}
    return {**{k: v for k, v in check.items() if k != "runtime_s"}, "detail": detail}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stand_in(passed: bool = True):
    """A criterion's stand-in; like every criterion, it carries no id, which is its place."""
    return lambda: {"title": "stand-in", "passed": passed, "detail": {"pid": os.getpid()}}


def _criteria(**replaced):
    """Ten stand-in criteria, C<k> taken from ``replaced`` where it names one."""
    return tuple(replaced.get(f"C{k}", _stand_in()) for k in range(1, 11))


def test_acceptance_checks_match_the_criteria_run_in_process():
    checks = cli.acceptance_checks()
    _no_child_left()
    assert [_masked(c) for c in checks] == [
        {**_masked(criterion()), "id": f"C{k}"} for k, criterion in enumerate(cli.ACCEPTANCE_CRITERIA, 1)]


def test_a_criterions_id_is_its_place(monkeypatch):
    # reversed, the table's first place holds C10's check and its last C1's, and each takes the id of its place
    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", tuple(reversed(cli.ACCEPTANCE_CRITERIA)))
    checks = cli.acceptance_checks()
    _no_child_left()
    assert [c["id"] for c in checks] == [f"C{k}" for k in range(1, 11)]
    assert all(c["passed"] for c in checks)
    assert set(checks[0]["detail"]) == {"identities", "scan"}
    assert set(checks[-1]["detail"]) == {"identities", "failures", "runtime_s", "perturbation_exponent"}


def test_grouped_criteria_share_a_lane_when_the_criteria_are_wrapped(monkeypatch, tmp_path):
    # a tracer rebinds ACCEPTANCE_CRITERIA to wrappers, so the groups are found by place, not by identity
    log = tmp_path / "order.log"

    def wrapped(k, criterion):
        def wrapper():
            with open(log, "a", encoding="utf-8") as out:
                out.write(f"C{k} {os.getpid()}\n")
            return criterion()
        return wrapper

    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA",
                        tuple(wrapped(k, fn) for k, fn in enumerate(cli.ACCEPTANCE_CRITERIA, 1)))
    checks = cli.acceptance_checks()
    _no_child_left()
    assert [c["id"] for c in checks] == [f"C{k}" for k in range(1, 11)]
    ran = [line.split() for line in log.read_text().splitlines()]
    assert sorted(cid for cid, _ in ran) == sorted(f"C{k}" for k in range(1, 11))
    lanes = {pid: [cid for cid, p in ran if p == pid] for _, pid in ran}
    assert len(lanes) == 2 and lanes[str(os.getpid())][:2] == ["C9", "C10"]  # C10 reads C9's scans
    worker = lanes.pop(next(pid for pid in lanes if pid != str(os.getpid())))
    assert worker[0] == "C1"
    lane = next(lane for lane in (worker, *lanes.values()) if "C5" in lane)
    assert lane[lane.index("C5") + 1] == "C4"  # C4 reads C5's builds


def test_identity_suite_runs_in_a_worker_beside_the_rest(monkeypatch):
    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", _criteria())
    checks = cli.acceptance_checks()
    pids = {c["id"]: c["detail"]["pid"] for c in checks}
    assert pids["C9"] == pids["C10"] == os.getpid() != pids["C1"]
    assert set(pids.values()) == {os.getpid(), pids["C1"]}
    _no_child_left()


def test_a_criterion_raising_in_the_worker_raises_here_with_its_message(monkeypatch):
    def broken():
        raise ValueError("broken stand-in")

    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", _criteria(C1=broken))
    with pytest.raises(RuntimeError, match="ValueError: broken stand-in"):
        cli.acceptance_checks()
    _no_child_left()


def test_a_worker_that_writes_nothing_raises_with_its_wait_status(monkeypatch):
    parent = os.getpid()

    def vanishing():
        if os.getpid() != parent:
            os._exit(3)
        return _stand_in()()

    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", _criteria(C1=vanishing))
    with pytest.raises(RuntimeError, match=f"wait status {3 << 8}"):
        cli.acceptance_checks()
    _no_child_left()


def test_a_failing_worker_check_fails_the_report(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", _criteria(C1=_stand_in(passed=False)))
    code, out, _ = run_capture(capsys, ["report"])
    assert code == 1
    assert out.splitlines() == ["FAIL C1: stand-in", *(f"PASS C{k}: stand-in" for k in range(2, 11)), "FAILURES PRESENT"]


def test_a_raising_parent_lane_kills_and_reaps_the_worker(monkeypatch):
    def stuck():
        time.sleep(60)
        return _stand_in()()

    def broken():
        raise ValueError("broken parent lane")

    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", _criteria(C1=stuck, C9=broken))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="broken parent lane"):
        cli.acceptance_checks()
    assert time.perf_counter() - start < 10
    _no_child_left()


def test_a_threaded_caller_runs_every_criterion_in_process(monkeypatch):
    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", _criteria())
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        checks = cli.acceptance_checks()
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()
    assert [c["id"] for c in checks] == [f"C{k}" for k in range(1, 11)]
    assert {c["detail"]["pid"] for c in checks} == {os.getpid()}
    _no_child_left()


# ---------------------------------------------------------------------------
# the two-lane runner behind report and identity
# ---------------------------------------------------------------------------


def _logged_tasks(log: Path, count: int, pause: float = 0.0):
    """Tasks that append their index to ``log`` (one write each, so the lanes' lines never mix) and return
    (pid, index)."""
    def task(index):
        time.sleep(pause)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{index}\n")
        return os.getpid(), index
    return [lambda index=index: task(index) for index in range(count)]


def test_two_lanes_run_every_task_once_and_return_them_in_order(tmp_path):
    log = tmp_path / "ran.txt"
    results = cli._two_lanes(_logged_tasks(log, 12, pause=0.01))
    _no_child_left()
    assert [index for _, index in results] == list(range(12))
    assert sorted(int(line) for line in log.read_text().split()) == list(range(12))
    pids = [pid for pid, _ in results]
    assert pids[1] == os.getpid() != pids[0] and set(pids) == {os.getpid(), pids[0]}


@pytest.mark.parametrize("count", [0, 1])
def test_two_lanes_fork_nothing_for_fewer_than_two_tasks(tmp_path, count):
    assert cli._two_lanes(_logged_tasks(tmp_path / "ran.txt", count)) == [(os.getpid(), 0)][:count]
    _no_child_left()


def test_two_lanes_fork_nothing_for_a_threaded_caller(tmp_path):
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        results = cli._two_lanes(_logged_tasks(tmp_path / "ran.txt", 4))
    finally:
        release.set()
        waiter.join(30)
    assert results == [(os.getpid(), index) for index in range(4)]
    _no_child_left()


def test_two_lanes_raise_a_worker_task_s_traceback_here():
    def broken():
        raise ValueError("broken worker task")

    with pytest.raises(RuntimeError, match="ValueError: broken worker task"):
        cli._two_lanes([broken, os.getpid, os.getpid])
    _no_child_left()


def test_two_lanes_raise_with_the_wait_status_of_a_vanishing_worker():
    parent = os.getpid()

    def vanishing():
        if os.getpid() != parent:
            os._exit(3)
        return parent

    with pytest.raises(RuntimeError, match=f"wait status {3 << 8}"):
        cli._two_lanes([vanishing, os.getpid, os.getpid])
    _no_child_left()


def test_two_lanes_kill_and_reap_the_worker_when_this_lane_raises():
    def broken():
        raise ValueError("broken parent lane")

    start = time.perf_counter()
    with pytest.raises(ValueError, match="broken parent lane"):
        cli._two_lanes([lambda: time.sleep(60), broken])
    assert time.perf_counter() - start < 10
    _no_child_left()


def _elapsed_masked(payload: dict) -> dict:
    return {**payload, "results": [{**result, "elapsed": None} for result in payload["results"]]}


def test_identity_all_over_two_lanes_matches_the_registry_checked_in_process(capsys):
    code, out, _ = run_capture(capsys, ["identity", "--all", "--order", "40", "--format", "json"])
    _no_child_left()
    results = cli.identities.verify_all(40)
    failures = [r.ident for r in results if not r.passed]
    expected = {"order": 40, "results": [r.to_json_dict() for r in results], "all_passed": not failures,
                "failures": failures}
    assert (code, _elapsed_masked(json.loads(out))) == (0, _elapsed_masked(expected))


@pytest.mark.parametrize("argv, named", [
    (["identity", "DELTA", "--all", "--order", "12"], ["--all", "DELTA"]),
    (["identity", "--all", "RAM-1", "RAM-2"], ["--all", "RAM-1 RAM-2"]),
])
def test_identity_ids_with_all_exit_two(argv, named):
    done, _ = run_qmf(argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("qmf: ") and done.stderr.count("\n") == 1
    assert all(word in done.stderr for word in named)


@pytest.mark.parametrize("extra, named", [
    (["X61"], ["block name X61"]),
    (["--emit", "never.json"], ["--emit never.json"]),
    (["--method", "taylor"], ["--method taylor"]),
    (["X61", "--emit", "never.json", "--method", "taylor"], ["block name X61", "--emit never.json", "--method taylor"]),
])
def test_recheck_with_a_block_name_emit_or_method_exits_two(tmp_path, extra, named):
    assert cli.run(["lambert-certify", "X42", "--emit", str(tmp_path / "c42.json"), "--output", os.devnull]) == 0
    done, _ = run_qmf(["lambert-certify", "--recheck", "c42.json", *extra], cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("qmf: ") and done.stderr.count("\n") == 1
    assert "--recheck" in done.stderr and all(word in done.stderr for word in named)
    assert not (tmp_path / "never.json").exists()


# ---------------------------------------------------------------------------
# mpmath loads on the first floating read, never for an exact command, and
# neither dataclasses nor inspect loads at all
# ---------------------------------------------------------------------------


def test_exact_commands_never_load_mpmath(tmp_path):
    cert = tmp_path / "x101.json"
    exact = [
        ["expand", "X12_1", "--order", "8"],
        ["identity", "E1-A", "--order", "20"],
        ["positivity", "Y8_2", "--order", "100"],
        ["density", "P3", "--n", "100"],
        ["ratio-inf", "X4_2", "--bound", "64"],
        ["lambert-certify", "X101", "--emit", str(cert)],
        ["lambert-certify", "--recheck", str(cert)],
    ]
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import qmforms.cli as cli\n"
        "unused = {'dataclasses', 'inspect'}\n"  # records and caches generate no code at start-up
        "assert not {'mpmath', *unused} & set(sys.modules), 'import qmforms.cli'\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    assert cli.run(argv) == 0, argv\n"
        "    assert not {'mpmath', *unused} & set(sys.modules), argv\n"
        "for argv in (['eval', 'X12_1', '--t', '1/2'], ['eval', 'E2', '--t', '3/10'], ['limits', 'X12_1']):\n"
        "    assert cli.run(argv) == 0, argv\n"  # reads print from their balls
        "    assert not {'mpmath', *unused} & set(sys.modules), argv\n"
        "assert cli.run(['plotdata', 'X12_1', '--m', '11', '--points', '5']) == 0\n"
        "assert 'mpmath' in sys.modules and not unused & set(sys.modules), 'plotdata'\n"  # for the grid
        "assert 'argparse' not in sys.modules, 'argparse'\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src, json.dumps(exact)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "VALID X101" in done.stdout and "PASS stored certificate" in done.stdout


# ---------------------------------------------------------------------------
# runs share no state
# ---------------------------------------------------------------------------


def test_bits_do_not_carry_over_between_runs(capsys, monkeypatch):
    def eval_e4(*extra):
        code, out, _ = run_capture(capsys, ["eval", "E4", "--t", "1", "--format", "json", *extra])
        assert code == 0
        return out

    monkeypatch.delenv("QMF_BITS", raising=False)
    at_128, at_200, at_256 = (eval_e4("--bits", b) for b in ("128", "200", "256"))
    assert len({at_128, at_200, at_256}) == 3
    assert eval_e4("--bits", "256") == at_256
    assert eval_e4() == at_128
    eval_e4("--bits", "256")
    monkeypatch.setenv("QMF_BITS", "200")
    assert eval_e4() == at_200


def test_usage_error_does_not_spoil_the_next_run(capsys):
    assert cli.run(["eval", "E4", "--t"]) == 2
    assert cli.run(["scan", "X12_1", "--m", "eleven"]) == 2
    capsys.readouterr()
    code, out, _ = run_capture(capsys, ["expand", "Y4_2", "--order", "5"])
    assert code == 0
    assert out.strip() == GOLDEN_Y42


def test_output_path_does_not_carry_over(capsys, tmp_path):
    target = tmp_path / "y42.txt"
    assert cli.run(["expand", "Y4_2", "--order", "5", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    code, out, _ = run_capture(capsys, ["expand", "Y4_2", "--order", "3"])
    assert code == 0
    assert out.strip() == "q + 2q^2 + 12q^3"
    assert target.read_text().strip() == GOLDEN_Y42


# ---------------------------------------------------------------------------
# the table parser against argparse
# ---------------------------------------------------------------------------

# The argparse parser that ``cli`` used before its command table, kept unchanged as the reference.

def _add_output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", default=None, metavar="PATH", help="write to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmf",
        description="Exact and high-precision toolkit for quasimodular q-series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print a form's q-expansion")
    p.add_argument("label")
    p.add_argument("--order", type=int, default=None)
    _add_output_options(p)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("identity", help="verify registry identities exactly")
    p.add_argument("idents", nargs="*", metavar="IDENT")
    p.add_argument("--all", action="store_true")
    p.add_argument("--order", type=int, default=None)
    _add_output_options(p)
    p.set_defaults(handler=_cmd_identity)

    p = sub.add_parser("positivity", help="scan coefficients for a first negative")
    p.add_argument("label")
    p.add_argument("--order", type=int, default=None)
    _add_output_options(p)
    p.set_defaults(handler=_cmd_positivity)

    p = sub.add_parser("density", help="count positive coefficients up to a bound")
    p.add_argument("label")
    p.add_argument("--n", type=int, default=2000)
    _add_output_options(p)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("ratio-inf", help="minimum dilation coefficient ratio")
    p.add_argument("label")
    p.add_argument("--dilate", type=int, default=2)
    p.add_argument("--bound", type=int, default=4096)
    _add_output_options(p)
    p.set_defaults(handler=_cmd_ratio_inf)

    p = sub.add_parser("scan", help="sign scan of m*F(it) - 2*pi*t*F'(it)")
    p.add_argument("label")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tmin", type=Fraction, default=Fraction(1, 20))
    p.add_argument("--tmax", type=Fraction, default=Fraction(20))
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--bits", type=int, default=None)
    _add_output_options(p)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("lambert-certify", help="build or re-verify a block certificate")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--method", choices=("auto", "r-shift", "taylor"), default="auto")
    p.add_argument("--emit", default=None, metavar="PATH", help="also write the certificate JSON to PATH")
    p.add_argument("--recheck", default=None, metavar="PATH", help="re-verify a stored certificate")
    _add_output_options(p)
    p.set_defaults(handler=_cmd_lambert)

    p = sub.add_parser("limits", help="small-t limit of t^(w-1) F(it) vs prediction")
    p.add_argument("label")
    p.add_argument("--bits", type=int, default=None)
    _add_output_options(p)
    p.set_defaults(handler=_cmd_limits)

    p = sub.add_parser("eval", help="evaluate a form at z = it")
    p.add_argument("label")
    p.add_argument("--t", type=Fraction, required=True)
    p.add_argument("--bits", type=int, default=None)
    _add_output_options(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("plotdata", help="TSV table of (t, t^m F(it))")
    p.add_argument("label")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tmin", type=Fraction, default=Fraction(1, 2))
    p.add_argument("--tmax", type=Fraction, default=Fraction(8, 5))
    p.add_argument("--points", type=int, default=40)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--output", default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_plotdata)

    p = sub.add_parser("report", help="run every suite; the single acceptance entry point")
    _add_output_options(p)
    p.set_defaults(handler=_cmd_report)

    return parser


PARSE_EDGE_CASES = [
    ["eval", "E4", "--t=0.5"],
    ["eval", "E4", "--tm", "0.1"],
    ["scan", "X12_1", "--m", "11", "--tm", "0.1"],
    ["eval", "E4", "--t", "1", "--bi", "256"],
    ["scan", "X12_1", "--m", "11", "--t", "1"],
    ["eval", "E4", "--t", "-1"],
    ["eval", "E4", "--t", "-.5"],
    ["eval", "E4", "--t", "-1/2"],
    ["eval", "E4", "--t", "1", "--t", "2", "--bits", "200", "--bits=256"],
    ["eval", "E4", "--t"],
    ["eval", "E4", "--t", "--bits", "128"],
    ["eval", "E4", "--t", "1", "--nope"],
    ["eval", "E4", "--t", "1", "--nope", "-h"],
    ["expand", "Y4_2", "--format", "xml"],
    ["expand", "Y4_2", "--format=json", "--o", "x"],
    ["expand", "Y4_2", "--ord=5", "--out", "x"],
    ["scan", "X12_1", "--m", "eleven"],
    ["identity", "--all"],
    ["identity", "--all=1"],
    ["identity", "AB-12", "DELTA", "--order", "5"],
    ["identity", "--order", "5", "AB-12", "DELTA"],
    ["identity", "AB-12", "--order", "5", "DELTA"],
    ["lambert-certify"],
    ["lambert-certify", "X101", "--method", "taylor"],
    ["lambert-certify", "--method", "taylor", "X101"],
    ["lambert-certify", "X101", "--method", "newton"],
    ["lambert-certify", "--recheck", "cert.json"],
    ["lambert-certify", "X42", "X61"],
    ["expand", "Y4_2", "Y8_2"],
    ["expand"],
    ["expand", "Y4_2", "--order", "5", "--"],
    ["report", "--"],
    ["report", "extra"],
    ["plotdata", "X8_1", "--m", "7", "--format", "json"],
    ["plotdata", "X8_1", "--m", "7", "-h", "--t", "1"],
    [],
    ["--nope"],
    ["--", "expand", "Y4_2"],
    ["frobnicate", "Y4_2"],
    ["exp", "Y4_2"],
    ["--help"],
    ["--he"],
    ["-h=1"],
    ["eval", "-h"],
    ["scan", "--help"],
    ["scan", "--h"],
    ["scan", "-hx"],
]

# where the table parser refuses what argparse accepted, raised or answered with help, and why
PARSE_DIVERGENCES = {
    ("eval", "E4", "--t", "1/0"): "argparse's type= caught only ValueError and TypeError: ZeroDivisionError escaped",
    ("scan", "X12_1", "--m", "11", "--tmin", "1/0"): "the same for --tmin",
    ("plotdata", "X12_1", "--m", "11", "--tmax", "1/0"): "the same for --tmax",
    ("eval", "E4", "--t", "1e10001"): "a decimal exponent beyond ±10000 is refused before Fraction expands it",
    ("scan", "X12_1", "--m", "11", "--tmin", "1e-10001"): "the same for a negative exponent",
    ("identity", "AB-12", "--", "DELTA"): "-- is an unknown option: no label, identity id or block name starts with -",
    ("expand", "--", "Y4_2"): "the same",
    ("--nope", "-h"): "the first word must be a command or ask for help; argparse put off --nope and printed help",
}


def _outcome(parse, argv):
    """"help", "refused", the name of what a parse raised, or the values it read (argparse's ``command`` aside)."""
    try:
        values = vars(parse(list(argv)))
    except SystemExit as exc:  # argparse
        return "help" if exc.code == 0 else "refused"
    except cli.UsageError:
        return "refused"
    except Exception as exc:
        return type(exc).__name__
    if set(values) == {"handler"}:  # the table parser's help
        return "help"
    values.pop("command", None)
    return values


def test_the_command_table_reads_argv_as_argparse_did(capsys):
    reference = build_parser()
    corpus = [op for seed in (1, 2, 3) for workload in WORKLOADS for op in generate(workload, seed, 1.0)]
    corpus += [op for seed in (1, 2, 3) for op in output_ops(seed, 1.0)]
    assert {op[0] for op in corpus} == set(cli.COMMANDS)
    for argv in corpus + PARSE_EDGE_CASES:
        assert _outcome(cli.parse_args, argv) == _outcome(reference.parse_args, argv), argv
    capsys.readouterr()


@pytest.mark.parametrize("argv", PARSE_DIVERGENCES)
def test_the_command_table_refuses_what_argparse_let_through(capsys, argv):
    assert _outcome(cli.parse_args, argv) == "refused" != _outcome(build_parser().parse_args, argv)
    capsys.readouterr()
