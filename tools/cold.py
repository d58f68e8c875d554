"""Time cold ``qmf`` processes of the floating commands.

    python3 tools/cold.py --runs N

Runs each of ``COMMANDS`` N times through ``qmforms.cli`` of this checkout,
each run a new process under ``PYTHONDONTWRITEBYTECODE=1``, so every run
compiles the package as a fresh checkout does, the commands taking turns.
Prints one line per command: its median wall time in seconds, interpreter
start included, the first and third quartiles as ``tools/criteria.py``
prints them, and whether the process imported mpmath (``yes``, ``no``, or
``mixed``).  Exits 1 if a command fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from collections import defaultdict

from criteria import ROOT, summary

COMMANDS = (
    ("eval", "X12_1", "--t", "0.5"),
    ("limits", "X12_1"),
    ("plotdata", "X12_1", "--m", "11"),
    ("scan", "X8_2", "--m", "7"),
)

# runs the CLI as ``python -m qmforms.cli`` does, then reports on stderr whether mpmath was imported
_RUN = ("import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('qmforms.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print('mpmath' in sys.modules, file=sys.stderr)\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    walls, loaded = defaultdict(list), defaultdict(set)
    for _ in range(args.runs):
        for command in COMMANDS:
            start = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", _RUN, *command], capture_output=True, text=True,
                                  env=env, timeout=600)
            walls[command].append(time.perf_counter() - start)
            if done.returncode != 0:
                print(f"qmf {' '.join(command)} exited {done.returncode}:\n{done.stdout}{done.stderr}", file=sys.stderr)
                return 1
            loaded[command].add(done.stderr.split()[-1] == "True")
    for command in COMMANDS:
        mpmath = {frozenset({True}): "yes", frozenset({False}): "no"}.get(frozenset(loaded[command]), "mixed")
        print(f"{' '.join(command):<24} {summary(walls[command])}  mpmath {mpmath}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
