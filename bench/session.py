"""One benchmark session: a fresh process that runs a list of ``qmf`` ops.

    python3 bench/session.py --setup-only
    python3 bench/session.py OPS.json RECORDS.jsonl [--trace]

The first form measures the import of ``qmforms.cli``, then the
calibration import that follows it (``calibrate.import_sample``), and
prints ``{"setup_s": ..., "import_s": ...}``.

The second form runs every operation of OPS.json back to back through
``qmforms.cli.run`` in this process, one client, closed loop, and appends
one JSON record per operation (exit code, captured output, latency) to
RECORDS.jsonl, written between operations and outside their timing.  The
last record is the session summary.  With ``--trace`` the outside-in
tracer is installed before the first operation and its figures go into
the summary.  The session also times the calibration chunk
(``calibrate.py``) before the first and after the last operation and, when
untraced, every ``CHUNK_EVERY_S`` in between (``Sampler``).  Chunk times
go into the summary with the moments they were taken; an op's latency
excludes the chunks that interrupted it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

CHUNK_EVERY_S = 0.25
CHUNKS_AROUND = 8


class Sampler:
    """Times the calibration chunk every ``CHUNK_EVERY_S``, also in the middle of an op.

    The chunk runs in a ``SIGALRM`` handler, between two bytecodes of
    whatever the program is doing, and touches none of its state.  Each
    chunk's time is kept with the moment it started (seconds since
    ``origin``), and the time spent in the handler is added to ``stolen``
    so that the caller can take it out of the op that it interrupted.
    """

    def __init__(self, origin: float, sample):
        self.origin = origin
        self.sample = sample
        self.chunk_s: list[float] = []
        self.chunk_at: list[float] = []
        self.stolen = 0.0

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            began = time.perf_counter()
            self.chunk_s.append(self.sample())
            self.chunk_at.append(began - self.origin)
            self.stolen += time.perf_counter() - began

    def _on_alarm(self, signum, frame) -> None:
        self.take()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CHUNK_EVERY_S, CHUNK_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import qmforms.cli as cli
    setup_s = time.perf_counter() - start
    # only now: calibrate imports mpmath, which is part of what setup_s measures
    import calibrate

    if argv == ["--setup-only"]:
        print(json.dumps({"setup_s": setup_s, "import_s": calibrate.import_sample()}))
        return 0

    ops_path, records_path = argv[0], argv[1]
    trace = "--trace" in argv[2:]
    with open(ops_path, encoding="utf-8") as handle:
        ops = json.load(handle)

    origin = time.perf_counter()
    sampler = Sampler(origin, calibrate.sample)
    calibrate.sample()  # warm-up, not counted
    sampler.take(CHUNKS_AROUND)
    tracer = None
    if trace:
        # spans would count the handler's chunks as program time, so a
        # traced session samples the host only before and after its ops
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler.start()

    wall_s = 0.0
    with open(records_path, "w", encoding="utf-8") as records:
        for index, argv_op in enumerate(ops):
            out, err = io.StringIO(), io.StringIO()
            stolen = sampler.stolen
            began = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv_op)
            except Exception:  # an op that raises is a failed op, not a crashed session
                code = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - began - (sampler.stolen - stolen)
            wall_s += elapsed
            records.write(json.dumps({
                "index": index,
                "code": code,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "began": began - origin,
                "seconds": elapsed,
            }) + "\n")
        sampler.stop()
        sampler.take(CHUNKS_AROUND)

        summary = {
            "summary": True,
            "setup_s": setup_s,
            "chunk_s": sampler.chunk_s,
            "chunk_at": sampler.chunk_at,
            "wall_s": wall_s,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer is not None:
            layer = tracer.metrics()
            # every op is one top-level cli.run span; what lies outside those
            # spans is output capture and loop overhead of this session
            layer["trace.wall_s"] = wall_s
            layer["trace.outside_s"] = wall_s - tracer.total_s["cli.run"]
            summary["trace"] = layer
        records.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
