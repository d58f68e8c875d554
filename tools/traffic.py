"""List the lines of ``src/qmforms`` that no benchmark op runs.

    python3 tools/traffic.py --seed N [--scale S] > unreached.txt

Runs the ops of ``tools/outputs.py`` for the seed (its ``lines(seed, scale)``:
the ``tables`` and ``axis`` ops, ``qmf report`` and its scans, in a private
temporary directory) in this process under a line tracer limited to
``src/qmforms``.  The tracer is on
before ``qmforms`` is imported, so module-level lines count as run.  A
second thread stays alive while the ops run, so ``cli._two_lanes`` takes its
one-process path and runs every task here, the forked worker's included,
where the tracer sees it; the lines of its fork path are listed for that
reason.  Prints, file by file, each executable line that no op ran as
``path:line: source``, then one ``path: N of M executable lines never ran``
count per file and the total.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmforms"


def executable_lines(path: Path) -> set[int]:
    """Lines holding bytecode in the file's module code and every code object nested in it, less the
    line each function's entry instruction sits on (its ``def``, which the module's own code runs) and
    the module's line 0, which holds only its entry instruction."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
        entry = code.co_firstlineno if code.co_name != "<module>" else None
        lines |= {line for _, _, line in code.co_lines() if line and line != entry}
    return lines


def trace(seed: int, scale: float) -> dict[str, set[int]]:
    """{file: lines run} over the seed's ops, in this process."""
    prefix, ran = str(PACKAGE) + os.sep, defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    idle = threading.Event()
    keeper = threading.Thread(target=idle.wait, daemon=True)  # a second live thread: _two_lanes runs every task here
    keeper.start()
    sys.settrace(call)
    try:
        sys.path[:0] = [str(ROOT / "tools")]
        import outputs  # imports qmforms.cli of this checkout, traced

        for _ in outputs.lines(seed, scale):  # an op that raises has still run its lines
            pass
    finally:
        sys.settrace(None)
        idle.set()
        keeper.join()
    return ran


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    ran = trace(args.seed, args.scale)
    counts, total = [], [0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        source, name = path.read_text().splitlines(), path.relative_to(ROOT)
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        for line in missed:
            print(f"{name}:{line}: {source[line - 1].strip()}")
        counts.append(f"{name}: {len(missed)} of {len(lines)} executable lines never ran")
        total = [total[0] + len(missed), total[1] + len(lines)]
    print(*counts, f"total: {total[0]} of {total[1]} executable lines never ran", sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
