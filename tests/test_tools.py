"""tools/outputs.py: one line per benchmark op, comparable across checkouts."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORK_DIR, generate  # noqa: E402

from qmforms import cli  # noqa: E402


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
