"""Seeded operation lists for the three benchmark workloads.

Every list is a pure function of the workload name, the seed and a scale
(1.0 for benchmark runs; the tests use a small one).  An operation is the
argv list one ``qmf`` invocation would receive; the program never sees the
seed.

Sizes are drawn inside fixed strata: each table op owns a base size that
the seed scales by up to ``JITTER``, and each axis label gets one height
from each of ``EVAL_PER_LABEL`` equal log-strata of [1/20, 20].  So two
seeds run different inputs of about the same total cost.  Without the
strata a seed that happened to put the heaviest label at the largest order
would cost several times more than one that did not, and seed-to-seed
spread would swamp any change worth measuring.  For the same reason the
ops of a session come in a fixed order (plan order, or stratum by stratum),
so that the same ops build the forms that later ops find in the caches.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("report", "tables", "axis")

# Directory (relative to the checkout root) for files that operations write,
# such as emitted certificates.  Created and removed by the runner.
WORK_DIR = ".bench_work"

# ---------------------------------------------------------------------------
# tables: exact requests at large orders
# ---------------------------------------------------------------------------

# Each size below is a base; the seed scales it by a factor drawn
# log-uniformly from [1, JITTER].  The bases themselves spread the orders
# log-uniformly from about 1200 to 8000, with the heavy constructions at the
# lower bases so that no single op dominates a session.
JITTER = 1.1

# (label, base order) for `positivity`.
POSITIVITY_PLAN = (
    ("Y4_2", 8000),
    ("Y8_2", 6000),
    ("Y12_2", 3500),
    ("Y14_2", 2500),
    ("Y16_2", 1200),
    ("X8_2", 7300),
    ("X10_2", 4000),
    ("X12_1", 2500),
    ("X18_1", 1200),
)

# (label, dilation, base bound) for `ratio-inf` at dilation 2 and 3.
RATIO_PLAN = (
    ("X4_2", 2, 4000),
    ("X4_2", 3, 2500),
    ("X8_2", 2, 2500),
    ("X10_2", 3, 1500),
    ("Y8_2", 2, 2000),
)

# (label, base n) for `density`.
DENSITY_PLAN = (
    ("P1", 6000),
    ("P2", 7000),
    ("P3", 5000),
    ("P4", 3000),
    ("X42Delta", 3000),
)

# (label, base order) for `expand` of the composites.
EXPAND_PLAN = (
    ("F", 300),
    ("L10", 200),
    ("P2", 400),
)

# `identity`: BR-121 on its own, then seeded subsets of the others, all at
# raised orders (the registry default is 120, 60 for LFACT).  Each subset
# takes one entry from each stratum below.  The strata group the entries by
# the time one takes in a fresh process at order 260 (reference host,
# slowest first): about 0.6 s, 0.3-0.46 s, 0.12-0.24 s, 0.04-0.11 s and
# under 0.03 s.  Subsets drawn from all entries at once cost from one to
# three times each other, which made seeds differ more than any change
# worth measuring.
HEAVY_IDENTITY = "BR-121"
IDENTITY_STRATA = (
    ("LCOMB-A", "LCOMB-APRIME", "LFACT", "MRB", "SERRE-CROSS"),
    ("AB-30", "AB-36", "AB-42", "AB-48"),
    ("AB-18", "AB-24", "GRAB-24", "GRAB-30", "GRAB-36", "GRAB-42", "LEE-24", "LEE-30", "LEE-36",
     "LEE-42", "LEE-48"),
    ("AB-12", "BR-141", "BR-61", "D2-DERIV-1", "D2-DERIV-4", "E1-A", "E1-B", "GRAB-12", "GRAB-18",
     "GRAB-6", "LEE-12", "LEE-18", "X121-DERIV"),
    ("D2-DERIV-2", "D2-DERIV-3", "DELTA", "E2L2", "LAMBERT-1", "LAMBERT-2", "LAMBERT-3", "LAMBERT-4",
     "LAMBERT-5", "RAM-1", "RAM-2", "RAM-3", "X42D", "XW2-COEFF"),
)
IDENTITY_SUBSETS = 2
IDENTITY_BASE_ORDER = 250

LAMBERT_LEMMAS = ("D2", "E2", "E4", "X101", "X42", "X61", "X81")

# ---------------------------------------------------------------------------
# axis: warm floating reads
# ---------------------------------------------------------------------------

EVAL_LABELS = (
    "E2", "E4", "E6", "Delta",
    "X6_1", "X8_1", "X10_1", "X12_1", "X14_1", "X16_1", "X18_1",
    "X4_2", "X8_2", "X10_2", "X12_2", "X14_2", "X16_2",
)
EVAL_PER_LABEL = 20
EVAL_T_RANGE = (0.05, 20.0)
EVAL_BITS = (128, 256)

# (label, base t_min, base t_max, points) for `plotdata` of t^(w-1) F(it).
PLOT_PLAN = (
    ("X6_1", 0.06, 3.0, 30),
    ("X12_1", 0.08, 2.0, 30),
    ("X14_1", 0.1, 2.5, 25),
    ("X8_2", 0.07, 2.5, 30),
    ("X12_2", 0.15, 2.5, 25),
)
# `limits`: one depth-1 weight drawn from each group.
LIMIT_GROUPS = ((6, 8, 10), (12, 14, 16), (18, 20, 22, 24))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _jittered(rng: random.Random, base: float) -> float:
    return _log_uniform(rng, base, base * JITTER)


def height(value: float) -> str:
    """A height as the decimal string passed to --t (three significant digits)."""
    return f"{value:.3g}"


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` log-uniform draws, one inside each of ``count`` equal strata."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (k + rng.random()) / count) for k in range(count)]


def _tables(rng: random.Random, scale: float) -> list[list[str]]:
    ops: list[list[str]] = []

    def take(plan):
        return plan[: max(1, round(len(plan) * scale))]

    for label, base in take(POSITIVITY_PLAN):
        ops.append(["positivity", label, "--order", str(round(_jittered(rng, base))), "--format", "json"])
    for label, dilate, base in take(RATIO_PLAN):
        ops.append(["ratio-inf", label, "--dilate", str(dilate), "--bound", str(round(_jittered(rng, base))),
                    "--format", "json"])
    for label, base in take(DENSITY_PLAN):
        ops.append(["density", label, "--n", str(round(_jittered(rng, base))), "--format", "json"])
    for label, base in take(EXPAND_PLAN):
        ops.append(["expand", label, "--order", str(round(_jittered(rng, base))), "--format", "json"])

    def identity_op(idents):
        order = round(_jittered(rng, IDENTITY_BASE_ORDER))
        return ["identity", *sorted(idents), "--order", str(order), "--format", "json"]

    ops.append(identity_op([HEAVY_IDENTITY]))
    subsets = max(1, round(IDENTITY_SUBSETS * scale))
    draws = [rng.sample(stratum, subsets) for stratum in IDENTITY_STRATA]
    for k in range(subsets):
        ops.append(identity_op([drawn[k] for drawn in draws]))

    lemmas = LAMBERT_LEMMAS if scale >= 1 else LAMBERT_LEMMAS[:2]
    certify, recheck = [], []
    for name in lemmas:
        path = f"{WORK_DIR}/cert-{name}.json"
        certify.append(["lambert-certify", name, "--emit", path, "--format", "json"])
        recheck.append(["lambert-certify", "--recheck", path, "--format", "json"])
    # The ops keep the plan's order: which op first builds a form at a new
    # order, and so pays for it, would otherwise change with the seed.
    # Certificates are emitted before any recheck reads them.
    return ops + certify + recheck


def _identity_ids() -> list[str]:
    # The generator needs no import of the program; a test checks these ids
    # against the registry.
    return sorted([HEAVY_IDENTITY, *(i for stratum in IDENTITY_STRATA for i in stratum)])


def _axis(rng: random.Random, scale: float) -> list[list[str]]:
    per_label = max(2, round(EVAL_PER_LABEL * scale))
    evals = []
    for label in EVAL_LABELS:
        heights = _stratified(rng, *EVAL_T_RANGE, per_label)
        # each pair of neighbouring strata gets one eval at each precision,
        # so both precisions reach the smallest heights in every seed
        bits = []
        for _ in range(0, per_label, 2):
            bits += rng.sample(EVAL_BITS, 2)
        evals.append([["eval", label, "--t", height(t), "--bits", str(b), "--format", "json"]
                      for t, b in zip(heights, bits)])
    # Stratum by stratum, smallest heights first, in a fixed label order: the
    # first eval of each label builds its series at the highest order it will
    # need.  In a seeded order, which eval pays for that build, and so the
    # slowest ops, would change with the seed.
    ops = [label_evals[k] for k in range(per_label) for label_evals in evals]

    plots = PLOT_PLAN if scale >= 1 else PLOT_PLAN[:1]
    for label, tmin, tmax, points in plots:
        weight = int(label[1:].split("_")[0])
        ops.append(["plotdata", label, "--m", str(weight - 1), "--tmin", height(_jittered(rng, tmin)),
                    "--tmax", height(_jittered(rng, tmax)), "--points", str(points)])

    for group in LIMIT_GROUPS if scale >= 1 else LIMIT_GROUPS[:1]:
        ops.append(["limits", f"X{rng.choice(group)}_1", "--bits", str(rng.choice(EVAL_BITS)),
                    "--format", "json"])
    return ops


def generate(workload: str, seed: int, scale: float = 1.0) -> list[list[str]]:
    """The operation list for one session of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if workload == "report":
        return [["report", "--format", "json"]]
    rng = random.Random(f"{workload}:{seed}")
    return _tables(rng, scale) if workload == "tables" else _axis(rng, scale)
