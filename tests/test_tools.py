"""tools/outputs.py: one line per benchmark op, comparable across checkouts;
tools/traffic.py: the lines of src that those ops never run."""

from __future__ import annotations

import inspect
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORK_DIR, generate  # noqa: E402

from qmforms import cli, forms  # noqa: E402


def test_outputs_prints_one_stable_line_per_op():
    # two runs of one checkout give the same lines: the report's runtime_s
    # and the identities' elapsed are masked before hashing; the report is
    # followed by one scan op per distinct C9 pair, then each again at 256 bits
    argv = [sys.executable, str(ROOT / "tools" / "outputs.py"), "--seed", "1", "--scale", "0.1"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=300) for _ in range(2)]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [line.split(" ", 2) for line in runs[0].stdout.splitlines()]
    scans = [["scan", label, "--m", str(m), "--format", "json", *bits]
             for bits in ([], ["--bits", "256"]) for label, m in cli.SCAN_PAIRS]
    ops = generate("tables", 1, 0.1) + generate("axis", 1, 0.1) + [["report", "--format", "json"]] + scans
    assert len(scans) == 36
    assert [op for _, _, op in lines] == [" ".join(op) for op in ops]
    assert all(code in ("0", "1") and len(digest) == 64 for code, digest, _ in lines)
    assert not (ROOT / WORK_DIR).exists()


def test_outputs_leaves_the_checkouts_bench_work_alone():
    # the certificate ops write into a private directory, so a benchmark
    # writing into the checkout's .bench_work/ at the same time is not disturbed
    work = ROOT / WORK_DIR
    work.mkdir()
    try:
        sentinel = work / "sentinel.txt"
        sentinel.write_text("kept\n")
        argv = [sys.executable, str(ROOT / "tools" / "outputs.py"), "--seed", "1", "--scale", "0.1"]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert sorted(work.iterdir()) == [sentinel] and sentinel.read_text() == "kept\n"
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_traffic_lists_the_lines_no_op_runs():
    # only the tests call forms.tau (to check its cap), so no op runs its last
    # line, the return; cli.run serves every op, so its first body line is never listed
    argv = [sys.executable, str(ROOT / "tools" / "traffic.py"), "--seed", "1", "--scale", "0.1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    listed = {line.split(": ", 1)[0] for line in done.stdout.splitlines()}
    tau_lines, tau = inspect.getsourcelines(forms.tau)
    run = inspect.getsourcelines(cli.run)[1]
    assert f"src/qmforms/forms.py:{tau + len(tau_lines) - 1}" in listed
    assert f"src/qmforms/cli.py:{run + 2}" not in listed
    assert done.stdout.splitlines()[-1].startswith("total: ")
    assert not (ROOT / WORK_DIR).exists()


def test_criteria_times_each_criterion_of_cold_reports():
    argv = [sys.executable, str(ROOT / "tools" / "criteria.py"), "--runs", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [row[0] for row in rows] == [f"C{k}" for k in range(1, 11)] + ["wall"]
    assert all(row[1::2] == ["median", "q1", "q3"] and row[2] == row[4] == row[6] for row in rows)
