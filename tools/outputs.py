"""Print one line per benchmark op: exit code, digest of its stdout, argv.

    python3 tools/outputs.py --seed N [--scale S] > lines.txt

Runs every ``tables`` and ``axis`` op that ``bench/workloads.generate`` lists
for the seed, then ``qmf report --format json``, then ``qmf scan L --m M
--format json`` for each of the report's scan pairs (``cli.SCAN_PAIRS``), then
each of those scans again with ``--bits 256``, the ``axis`` workload's other
precision, in that order and in this process, through ``qmforms.cli.run`` of
this checkout.  The report prints only verdicts; the scans add every s-value
at both precisions.  Each line
holds the exit code, the sha256 of the op's stdout with its timing fields
(``elapsed``, ``runtime_s``) masked, and the argv.  So ``diff`` of the lines
of two checkouts at one seed lists every op whose output changed.  The
certificate ops write into the ``.bench_work/`` of a private temporary
directory, so the checkout's own ``.bench_work/`` is left as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from qmforms import cli  # noqa: E402
from workloads import WORK_DIR, generate  # noqa: E402

TIMING = re.compile(r'("(?:elapsed|runtime_s)": )[-+0-9.eE]+')


def ops(seed: int, scale: float) -> list[list[str]]:
    """The ops compared: the seed's tables and axis ops, the report, then each of its scans at 128 and 256 bits."""
    scans = [["scan", label, "--m", str(m), "--format", "json", *bits]
             for bits in ([], ["--bits", "256"]) for label, m in cli.SCAN_PAIRS]
    return generate("tables", seed, scale) + generate("axis", seed, scale) + [["report", "--format", "json"]] + scans


def line(argv: list[str]) -> str:
    """``code sha256 argv`` for one op run through ``qmforms.cli.run``."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = str(cli.run(argv))
    except Exception as exc:  # an op that raises is reported, not fatal
        code = f"raised:{type(exc).__name__}"
    digest = hashlib.sha256(TIMING.sub(r'\1"*"', out.getvalue()).encode()).hexdigest()
    return f"{code} {digest} {' '.join(argv)}"


def lines(seed: int, scale: float):
    """``line(op)`` for each op of ``ops(seed, scale)``, run with the working directory set to a private
    temporary directory that holds its own ``.bench_work/``; the directory is removed after the last op."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="qmf-outputs-") as tmp:
        os.mkdir(os.path.join(tmp, WORK_DIR))
        os.chdir(tmp)  # the certificate ops name their files relative to the working directory
        try:
            yield from map(line, ops(seed, scale))
        finally:
            os.chdir(cwd)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    for text in lines(args.seed, args.scale):
        print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
