"""A fixed unit of work that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 2x, within seconds and over minutes, without any time being stolen
from the process: its CPU time and wall time change together.  So every
session also times ``chunk()``, a fixed piece of work of the same kind as
the program's (big-integer products, and sums of powers in pure-Python
``mpmath`` at 256 bits), interleaved with the operations it measures.  A
time ``x`` measured while the chunk took ``c`` seconds on average is
reported as ``x * REFERENCE_CHUNK_S / c``: seconds on a host where the
chunk takes ``REFERENCE_CHUNK_S``.  A change to the program moves ``x`` and
not ``c``; a change of host speed moves both.

The chunk uses nothing of ``qmforms``, so no change to the program can
change it.

Import time, which ``setup_s`` measures, tracks the chunk poorly: it is
mostly reading, unmarshalling and executing module code.  So each set-up
process also times, after its import of ``qmforms.cli``, the import of
``IMPORT_MODULES``, standard-library packages that a number-theory program
has no use for, and its import time is scaled by ``REFERENCE_IMPORT_S``
over theirs.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, mpf_mul_int, round_nearest

# The chunk's mean time on the host the bounds were set on (2-core x86-64
# guest, Python 3.11.7, mpmath 1.3.0 with its pure-Python backend).
REFERENCE_CHUNK_S = 0.013
REFERENCE_IMPORT_S = 0.09

IMPORT_MODULES = (
    "asyncio", "unittest", "email.mime.multipart", "http.client", "xml.dom.minidom",
    "sqlite3", "csv", "logging.handlers", "tarfile",
)

_BIG_A = 3 ** 20000 + 17
_BIG_B = 7 ** 14000 + 5
_ONE = from_int(1)


def chunk() -> None:
    """One unit of work, about 13 ms on the reference host.

    It may run in a signal handler in the middle of an op, so it uses no
    state the program shares: ``mpmath`` only through its low-level
    functions with an explicit precision, which read no context and fill
    no cache.
    """
    product = _BIG_A
    for _ in range(6):
        product = (product * _BIG_B) >> 20000
    q = mpf_div(_ONE, from_int(3), 256, round_nearest)
    power, total = _ONE, from_int(0)
    for k in range(1, 400):
        power = mpf_mul(power, q, 256, round_nearest)
        total = mpf_add(total, mpf_mul_int(power, k, 256, round_nearest), 256, round_nearest)


def sample() -> float:
    """Seconds one chunk takes now."""
    began = time.perf_counter()
    chunk()
    return time.perf_counter() - began


def speed(times: list[float]) -> float:
    """Factor that turns times measured alongside ``times`` into reference seconds.

    The mean, not the median: the host flips between a fast and a slow state
    within a second, and an op's time adds up both in proportion, where the
    median of the chunks would follow whichever state holds the majority.
    """
    return REFERENCE_CHUNK_S / statistics.mean(times)


def import_sample() -> float:
    """Seconds the first import of ``IMPORT_MODULES`` takes in this process."""
    loaded = [name for name in IMPORT_MODULES if name in sys.modules]
    if loaded:
        raise RuntimeError(f"calibration modules already imported: {loaded}")
    began = time.perf_counter()
    for name in IMPORT_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - began
