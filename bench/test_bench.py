"""Tests of the benchmark itself: pure inputs, faithful oracles and tracer, tiny runs.

Run with ``python3 -m pytest bench``.  The tiny runs start real session
processes, so this file takes about half a minute (most of it one cold
``qmf report``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_are_a_pure_function_of_the_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7, 0.1) == workloads.generate(workload, 7, 0.1)
    if workload != "report":
        assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_identity_ids_match_the_registry():
    from qmforms import identities

    assert workloads._identity_ids() == identities.identity_ids()


def test_axis_heights_stay_in_range_and_delta_reaches_small_t():
    ops = workloads.generate("axis", 3)
    heights = [Fraction(op[3]) for op in ops if op[0] == "eval"]
    assert min(heights) >= Fraction(1, 20) and max(heights) <= 20
    delta = [Fraction(op[3]) for op in ops if op[:2] == ["eval", "Delta"]]
    assert min(delta) < Fraction(1, 10)


@pytest.mark.parametrize(
    "label", ["X4_2", "X6_1", "X8_2", "X10_2", "X12_1", "Y4_2", "Y8_2", "Y10_2",
              "P1", "P2", "P3", "P4", "X42Delta", "F"],
)
def test_closed_forms_agree_with_the_program(label):
    from qmforms.extremal import form_by_label

    assert oracles.closed_coefficients(label, 80) == list(form_by_label(label, 80).coeffs)


def test_convolution_and_tau():
    from qmforms.forms import _tau_ints

    assert list(oracles.tau(500)) == _tau_ints(500)
    a, b = [3, -1, 0, 7], [-2, 5, 1]
    naive = [sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b)) for k in range(5)]
    assert oracles.convolve(a, b, 4) == naive


@pytest.mark.parametrize("label", ["E2", "E4", "E6", "Delta", "X12_1", "X8_2"])
def test_axis_reference_agrees_with_the_program_where_no_cancellation(label):
    from mpmath import mp
    from qmforms import numeric
    from qmforms.extremal import form_by_label

    ref = oracles.AxisReference(form_by_label)
    ref.reserve(label, 0.5)
    for t in (Fraction(7, 10), Fraction(3, 2)):
        want = ref.value(label, t, 128)
        got = numeric.eval_at_it(label, t, numeric.EvalConfig(precision_bits=160))["value"]
        with mp.workprec(200):
            assert abs(got - want) <= mp.mpf(10) ** -35 * max(1, abs(want))


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(30) == 50
    assert run.tail_percentile(141) == 90
    assert run.tail_percentile(432) == 95
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.tail_mean([5, 1, 4, 2, 3, 6, 7, 8, 9, 10], 70) == pytest.approx(9)


def test_calibration_shares_nothing_with_the_program():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import session\n"
        "assert 'mpmath' not in sys.modules, 'setup_s would miss the mpmath import'\n"
        "import qmforms.cli, calibrate\n"
        "print([m for m in calibrate.IMPORT_MODULES if m in sys.modules])\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(HERE), str(HERE.parent / "src")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_sampler_times_chunks_inside_an_op_and_reports_their_time():
    import calibrate
    import session
    import time

    sampler = session.Sampler(time.perf_counter(), calibrate.sample)
    sampler.start()
    try:
        began = time.perf_counter()
        while time.perf_counter() - began < 3 * session.CHUNK_EVERY_S:
            pass
    finally:
        sampler.stop()
    assert len(sampler.chunk_s) >= 2
    assert sampler.stolen == pytest.approx(sum(sampler.chunk_s), rel=0.2)
    assert all(0 <= at <= 4 * session.CHUNK_EVERY_S for at in sampler.chunk_at)


def test_op_speeds_use_the_chunks_next_to_each_op():
    ref = run.speed([1.0])
    near = [0.0] * run.CHUNKS_NEAR
    before = [-0.5] * run.CHUNKS_NEAR
    session = {
        # a slow spell (chunks of 2 s) during the second op only; the chunks
        # timed before the first op do not count
        "chunk_at": before + near + [10.0] * run.CHUNKS_NEAR + [20.0] * run.CHUNKS_NEAR,
        "chunk_s": [9.0] * run.CHUNKS_NEAR + [1.0] * run.CHUNKS_NEAR + [2.0] * run.CHUNKS_NEAR
        + [1.0] * run.CHUNKS_NEAR,
        "records": [{"began": 0.0, "seconds": 1.0}, {"began": 9.0, "seconds": 2.0},
                    {"began": 19.5, "seconds": 1.0}],
    }
    assert run.op_speeds(session) == [ref, ref / 2, ref]


def test_tracer_rebinds_every_import_and_keeps_cache_info():
    from qmforms import extremal, numeric, positivity

    originals = (extremal.form_by_label, numeric.form_by_label, extremal._FIXED_BUILDERS["Delta"])
    tracer = Tracer()
    tracer.install()
    try:
        positivity.check_complete_positivity("Y4_2", 40)
        numeric.eval_at_it("Delta", 1)
        assert tracer.calls["extremal.form_by_label"] >= 2
        assert tracer.calls["forms.delta_series"] >= 1
        assert tracer.counts["positivity.coeffs"] == 41
        assert tracer.counts["numeric.points"] == 1
        assert extremal.x_w1.cache_info().maxsize is None
        metrics = tracer.metrics()
        assert metrics["extremal.cache.entries"] >= 0
    finally:
        tracer.uninstall()
    assert (extremal.form_by_label, numeric.form_by_label, extremal._FIXED_BUILDERS["Delta"]) == originals


@pytest.mark.parametrize("workload", ["tables", "axis", "report"])
def test_tiny_run_passes_its_oracles(workload):
    out = run.run_workload(workload, 5, 0, False, scale=0.1, min_sessions=1)
    result = out["result"]
    assert result["correct"], out["failures"]
    assert result["attempted"] >= 10
    assert all(f["known_defect"] for f in out["failures"])
    if workload != "axis":
        assert result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_self_times_account_for_the_traced_wall_time():
    out = run.run_workload("tables", 5, 0, True, scale=0.1, min_sessions=1)
    metrics = {name: m["value"] for name, m in out["result"]["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert layers + metrics["trace.outside_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["qseries.mul.calls"] > 0 and metrics["cli.calls"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
