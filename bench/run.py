"""The qmforms benchmark: one command, three workloads, every op checked.

    python3 bench/run.py --workload {report,tables,axis} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from
``src/`` of the checkout, nothing is installed.  A run:

1. generates the session's op list from the workload and seed
   (``workloads.py``); the program only ever sees the argv lists;
2. measures set-up: fresh processes that only import ``qmforms.cli``,
   ``SETUP_PROCESSES`` before the first session and ``SETUP_PER_SESSION``
   after each untraced one;
3. repeats sessions until ``--seconds`` have passed and at least
   ``MIN_SESSIONS`` have run.  A session is one fresh single-threaded
   process that runs the whole op list back to back through
   ``qmforms.cli.run`` (closed loop, one client, see ``session.py``);
4. checks every op of every session against ``oracles.py``, outside the
   timed region;
5. prints an ``env`` line, a ``summary`` line and, last, the result
   object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``: ``wall_s`` sums each op's median latency over the
sessions, ``setup_s`` and ``peak_rss_mb`` are medians over processes, and
the op percentiles pool the latencies of all sessions.  With ``--trace 1``
sessions run in pairs (at least one), one untraced and one under the
outside-in tracer (``tracer.py``), and the metrics are the per-layer
metrics, as medians over the traced sessions, plus ``trace.overhead_s``,
the traced minus the untraced median wall time.

Every time is reported in reference seconds (``calibrate.py``): the host
this runs on changes speed by up to 2x within seconds, so each op latency
is scaled by the speed of the calibration chunks timed during and next to
it (``op_speeds``), each traced session by the mean of its chunks, and
each set-up sample by the calibration import of its process.  The summary
line also carries the end-to-end figures as measured (``measured``).

Op latencies are those of the ``qmf`` invocations.  ``op_tail_ms`` is the
mean of the latencies beyond the highest percentile of ``TAIL_LADDER`` that
leaves at least ten of the minimum-run samples beyond it; the summary line
names the percentile and the number of samples beyond it.  A single order
statistic up there lands between a few heavy ops that differ by a third,
and so jumps from run to run; the mean over them does not.  For
``report`` the one invocation per session is the latency sample, while
``ops_per_s``, ``attempted`` and ``failed`` count its ten acceptance
criteria, each checked on its own; the traced run times each criterion
(``cli.criterion.C<k>_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_IMPORT_S, speed  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, generate  # noqa: E402

MIN_SESSIONS = 3
SETUP_PROCESSES = 4
SESSION_TIMEOUT_S = 170
TAIL_LADDER = (50, 75, 90, 95)
TAIL_BEYOND = 10
SETUP_PER_SESSION = 1
CHUNK_WINDOW_S = 1.0
CHUNKS_NEAR = 7


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed session)."""


def _child_env() -> dict:
    env = dict(os.environ)
    # the program reads these; a run must not depend on the caller's shell
    for name in ("QMF_ORDER", "QMF_BITS", "PYTHONPATH"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _session_cmd(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "session.py"), *args]


def _setup_sample(env: dict) -> dict:
    done = subprocess.run(_session_cmd("--setup-only"), cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=SESSION_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"set-up process failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _session(env: dict, ops_path: Path, records_path: Path, trace: bool) -> dict:
    cmd = _session_cmd(str(ops_path), str(records_path), *(["--trace"] if trace else []))
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SESSION_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"session process failed: {done.stderr.strip()[-800:]}")
    with open(records_path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    summary = lines.pop()
    summary["records"] = lines
    summary["traced"] = trace
    summary["speed"] = speed(summary["chunk_s"])
    return summary


def op_speeds(session: dict) -> list[float]:
    """Per op of a session, the host-speed factor of the chunks timed during or next to it.

    Only chunks taken while the ops ran count: chunks run back to back
    before the first op or after the last one see the host differently
    from chunks that interrupt the program, and put the long ``report`` op
    off by several percent.  Of those, an op takes the chunks within
    ``CHUNK_WINDOW_S`` of it, and at least the ``CHUNKS_NEAR`` nearest to
    its middle.
    """
    records = session["records"]
    first, last = records[0]["began"], records[-1]["began"] + records[-1]["seconds"]
    chunks = list(zip(session["chunk_at"], session["chunk_s"]))
    chunks = [c for c in chunks if first <= c[0] <= last] or chunks
    factors = []
    for record in records:
        began, ended = record["began"], record["began"] + record["seconds"]
        near = sorted(chunks, key=lambda c: abs(c[0] - (began + ended) / 2))
        inside = [c for c in near if began - CHUNK_WINDOW_S <= c[0] <= ended + CHUNK_WINDOW_S]
        picked = inside if len(inside) >= CHUNKS_NEAR else near[:CHUNKS_NEAR]
        factors.append(speed([c[1] for c in picked]))
    return factors


def _end_to_end(plain: list, setup: list, tail_p: float, normalise: bool) -> dict:
    """The end-to-end metrics of the untraced sessions, in reference or measured seconds."""
    op_seconds = []
    for s, _ in plain:
        factors = op_speeds(s) if normalise else [1.0] * len(s["records"])
        op_seconds.append([r["seconds"] * f for r, f in zip(s["records"], factors)])
    latencies_ms = [1000 * x for session in op_seconds for x in session]
    # Each op's median latency over the sessions, summed: a slow spell on the
    # host that hits a stretch of one session is voted out op by op, where a
    # median of whole-session walls would still carry it.
    wall_s = sum(statistics.median(latencies) for latencies in zip(*op_seconds))
    return {
        "setup_s": statistics.median(p["setup_s"] * (REFERENCE_IMPORT_S / p["import_s"] if normalise else 1)
                                     for p in setup),
        "wall_s": wall_s,
        "ops_per_s": statistics.median(sum(flags) for _, flags in plain) / wall_s,
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_tail_ms": tail_mean(latencies_ms, tail_p),
        "peak_rss_mb": statistics.median(s["maxrss_kb"] / 1024 for s, _ in plain),
    }


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie beyond the ``p``-th percentile (at least one)."""
    return max(1, round(count * (100 - p) / 100))


def tail_mean(samples: list[float], p: float) -> float:
    """Mean of the samples beyond the ``p``-th percentile."""
    return statistics.mean(sorted(samples)[-beyond(len(samples), p):])


def tail_percentile(count: int) -> float:
    """Highest ladder percentile that leaves at least TAIL_BEYOND of ``count`` samples beyond it."""
    usable = [p for p in TAIL_LADDER if count * (100 - p) / 100 >= TAIL_BEYOND]
    return usable[-1] if usable else TAIL_LADDER[0]


def source_lines(root: Path) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((root / "src" / "qmforms").glob("*.py")))


def environment(root: Path) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "src_qmforms_lines": source_lines(root),
    }


def _check_sessions(oracle, workload: str, ops: list, sessions: list) -> tuple[list, list]:
    """Per session, the passed flag of each checked op; plus the failures seen.

    For ``report`` the checked ops are the ten criteria of the one report.
    """
    verdicts: dict[tuple, tuple] = {}
    per_session, failures = [], []
    for number, session in enumerate(sessions):
        if workload == "report":
            record = session["records"][0]
            if record["code"] != 0:
                results = [(f"C{k}", False, False, f"exit code {record['code']}") for k in range(1, 11)]
            else:
                results = [(cid, ok, False, reason) for cid, ok, reason in oracle.report_criteria(record["stdout"])]
        else:
            results = []
            for argv, record in zip(ops, session["records"]):
                key = (tuple(argv), record["code"], record["stdout"])
                if key not in verdicts:
                    verdicts[key] = oracle.check(argv, record)
                results.append((" ".join(argv), *verdicts[key]))
        for op, ok, known, reason in results:
            if not ok:
                failures.append({"session": number, "op": op, "known_defect": known, "reason": reason})
        per_session.append([ok for _, ok, _, _ in results])
    return per_session, failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                 scale: float = 1.0, min_sessions: int = MIN_SESSIONS) -> dict:
    """Run one benchmark measurement and return its result and diagnostics."""
    if not (ROOT / "src" / "qmforms" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'qmforms'} is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ops = generate(workload, seed, scale)
    env = _child_env()
    work = ROOT / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops_path = work / "ops.json"
        ops_path.write_text(json.dumps(ops), encoding="utf-8")
        records_path = work / "records.jsonl"

        _setup_sample(env)  # writes bytecode caches; not counted
        setup = [_setup_sample(env) for _ in range(SETUP_PROCESSES)]
        sessions: list[dict] = []
        started = time.monotonic()
        while True:
            sessions.append(_session(env, ops_path, records_path, False))
            setup += [_setup_sample(env) for _ in range(SETUP_PER_SESSION)]
            if trace:
                sessions.append(_session(env, ops_path, records_path, True))
            needed = 2 if trace else min_sessions  # one (untraced, traced) pair
            if len(sessions) >= needed and time.monotonic() - started >= seconds:
                break

        from oracles import Oracle

        oracle = Oracle(ROOT, ops)
        per_session, failures = _check_sessions(oracle, workload, ops, sessions)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [(s, checked) for s, checked in zip(sessions, per_session) if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    attempted = sum(len(flags) for flags in per_session)
    failed = len(failures)
    unexpected = [f for f in failures if not f["known_defect"]]

    tail_p = tail_percentile(min_sessions * len(ops))
    end_to_end = _end_to_end(plain, setup, tail_p, normalise=True)
    measured = _end_to_end(plain, setup, tail_p, normalise=False)
    if trace:
        layer_values: dict[str, list] = {}
        for s in traced:
            for name, value in s["trace"].items():
                # times (names ending in _s) in reference seconds, like the end-to-end ones
                layer_values.setdefault(name, []).append(value * s["speed"] if name.endswith("_s") else value)
        per_layer = {name: statistics.median(values) for name, values in layer_values.items()}
        per_layer["trace.overhead_s"] = (statistics.median(s["wall_s"] * s["speed"] for s in traced)
                                         - statistics.median(s["wall_s"] * s["speed"] for s, _ in plain))
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": per_layer.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    summary = {
        "workload": workload,
        "seed": seed,
        "sessions": len(plain),
        "session_wall_s": [round(s["wall_s"], 4) for s, _ in plain],
        "session_speed": [round(s["speed"], 4) for s, _ in plain],
        "traced_sessions": len(traced),
        "ops_per_session": len(per_session[0]),
        "ops_failed": f"{failed}/{attempted}",
        "known_defect_failures": failed - len(unexpected),
        "op_tail_percentile": tail_p,
        "op_tail_samples": beyond(len(plain) * len(ops), tail_p),
        "op_latency_samples": len(plain) * len(ops),
        "setup_samples": len(setup),
        **({} if trace else {k: round(v, 6) for k, v in end_to_end.items()}),
        **({} if trace else {"measured": {k: round(v, 6) for k, v in measured.items()}}),
    }
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"env": environment(ROOT), "summary": summary, "failures": failures, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    for failure in out["failures"][:20]:
        sys.stderr.write(f"bench: failed op: {json.dumps(failure)}\n")
    print(json.dumps({"env": out["env"]}))
    print(json.dumps({"summary": out["summary"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
