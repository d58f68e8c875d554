"""CLI behaviour: goldens, exit codes, formats, configuration precedence."""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction

import mpmath
import pytest

from qmforms import cli
from qmforms.qseries import FourierSeries


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
    assert "up to 1000" in err


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


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.run([]) == 2
    capsys.readouterr()


def test_report_times_every_criterion(capsys, monkeypatch):
    def quick():
        return {"id": "C1", "title": "stand-in", "passed": True, "detail": {"runtime_s": 0.5}}

    def slow():
        time.sleep(0.05)
        return {"id": "C2", "title": "stand-in", "passed": True, "detail": {}}

    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", (quick, slow))
    code, out, _ = run_capture(capsys, ["report", "--format", "json"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["id"] for c in checks] == ["C1", "C2"]
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
# report: C1 in a forked worker
# ---------------------------------------------------------------------------


def _masked(check: dict) -> dict:
    detail = {k: v for k, v in check["detail"].items() if k != "runtime_s"}
    return {**{k: v for k, v in check.items() if k != "runtime_s"}, "detail": detail}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stand_in(cid: str, passed: bool = True):
    return lambda: {"id": cid, "title": "stand-in", "passed": passed, "detail": {"pid": os.getpid()}}


def test_acceptance_checks_match_the_criteria_run_in_process():
    checks = cli.acceptance_checks()
    _no_child_left()
    assert [_masked(c) for c in checks] == [_masked(criterion()) for criterion in cli.ACCEPTANCE_CRITERIA]


def test_identity_suite_runs_in_a_worker_beside_the_rest(monkeypatch):
    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", (_stand_in("C1"), _stand_in("C2")))
    first, second = cli.acceptance_checks()
    assert second["detail"]["pid"] == os.getpid() != first["detail"]["pid"]
    _no_child_left()


def test_a_criterion_raising_in_the_worker_raises_here_with_its_message(monkeypatch):
    def broken():
        raise ValueError("broken stand-in")

    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", (broken, _stand_in("C2")))
    with pytest.raises(RuntimeError, match="ValueError: broken stand-in"):
        cli.acceptance_checks()
    _no_child_left()


def test_a_worker_that_writes_nothing_raises_with_its_wait_status(monkeypatch):
    parent = os.getpid()

    def vanishing():
        if os.getpid() != parent:
            os._exit(3)
        return _stand_in("C1")()

    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", (vanishing, _stand_in("C2")))
    with pytest.raises(RuntimeError, match=f"wait status {3 << 8}"):
        cli.acceptance_checks()
    _no_child_left()


def test_a_failing_worker_check_fails_the_report(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", (_stand_in("C1", passed=False), _stand_in("C2")))
    code, out, _ = run_capture(capsys, ["report"])
    assert code == 1
    assert out.splitlines() == ["FAIL C1: stand-in", "PASS C2: stand-in", "FAILURES PRESENT"]


def test_a_raising_parent_lane_kills_and_reaps_the_worker(monkeypatch):
    def stuck():
        time.sleep(60)
        return _stand_in("C1")()

    def broken():
        raise ValueError("broken parent lane")

    monkeypatch.setattr(cli, "ACCEPTANCE_CRITERIA", (stuck, broken))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="broken parent lane"):
        cli.acceptance_checks()
    assert time.perf_counter() - start < 10
    _no_child_left()


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_parser_is_built_once_across_runs(capsys, monkeypatch):
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["expand", "Y4_2", "--order", "5"], ["eval", "E4", "--t", "1"], ["expand", "NOPE"]):
        cli.run(argv)
    capsys.readouterr()
    assert len(builds) == 1
    assert cli.build_parser() is not cli.build_parser()


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
