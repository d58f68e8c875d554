"""Time each acceptance criterion over cold ``qmf report`` runs.

    python3 tools/criteria.py --runs N

Runs ``qmf report --format json`` of this checkout N times, one after
another, each in a new process, and prints one line per criterion: its id,
the median of its ``runtime_s`` over the runs, and the first and third
quartiles (``statistics.quantiles``, inclusive method; a single run gives its
own value for all three).  A last line gives the same for each process's wall
time, interpreter start included.  A criterion's ``runtime_s`` is timed in
whichever lane of ``cli._two_lanes`` ran it, the forked worker included,
whose criteria ``bench/tracer.py`` cannot see.  Exits 1 if a report fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(values: list[float]) -> str:
    """``median M  q1 A  q3 B`` of the values, in seconds."""
    q1, q3 = statistics.quantiles(values, n=4, method="inclusive")[::2] if len(values) > 1 else values * 2
    return f"median {statistics.median(values):.4f}  q1 {q1:.4f}  q3 {q3:.4f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    runtimes, walls = defaultdict(list), []
    for _ in range(args.runs):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "qmforms.cli", "report", "--format", "json"],
                              capture_output=True, text=True, env=env, timeout=600)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            print(f"qmf report exited {done.returncode}:\n{done.stdout}{done.stderr}", file=sys.stderr)
            return 1
        for check in json.loads(done.stdout)["checks"]:
            runtimes[check["id"]].append(check["runtime_s"])
    for name, values in runtimes.items():
        print(f"{name:<5} {summary(values)}")
    print(f"{'wall':<5} {summary(walls)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
