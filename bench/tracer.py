"""Outside-in spans around the public functions of every qmforms module.

``Tracer.install()`` replaces each public function with a wrapper that
records a span, and rebinds the wrapper wherever the program holds the
original: the defining module, every module that imported it by name, and
module-level dicts such as the label table.  Heavy ``FourierSeries``
methods are wrapped on the class, and each entry of
``cli.ACCEPTANCE_CRITERIA`` becomes a ``cli.criterion.C<k>`` span.
Wrappers of ``lru_cache`` functions keep ``cache_info`` and
``cache_clear``.

A span's self time is its duration minus the durations of the spans it
directly encloses, so the self times of all spans, plus whatever ran
outside any span, add up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("qseries", "forms", "extremal", "identities", "lambert", "positivity", "numeric", "cli")

# FourierSeries methods that do O(order) work or more.  Accessors such as
# ``coefficient`` run millions of times inside loops and are left alone:
# their time counts toward the calling layer.
SERIES_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__pow__", "scale", "derivative", "dilate", "half_shift",
    "truncate", "reduced", "with_grain", "first_difference", "equality_up_to",
    "to_json_dict",
)

CACHE_ATTRS = ("cache_info", "cache_clear", "cache_parameters")


def _points(name, args, kwargs):
    """Axis heights evaluated by one outermost call into ``numeric``."""
    if name in ("eval_at_it", "eval_depth1_transformed"):
        return 1
    if name == "curve_points":
        return len(args[2] if len(args) > 2 else kwargs["grid"])
    if name == "monotonicity_scan":
        spec = args[2] if len(args) > 2 else kwargs.get("grid_spec")
        return 60 if spec is None else int(spec[2])
    if name == "limit_t0":
        return 2
    if name in ("tangent_conditions", "small_t_positivity_check"):
        return 3
    return 0


def _coeffs(name, args, kwargs):
    """Coefficients one outermost call into ``positivity`` asks for."""
    values = list(args) + list(kwargs.values())
    if name == "check_complete_positivity":
        return int(values[1]) + 1 if len(values) > 1 else 2001
    if name in ("sign_pattern", "sign_values"):
        return int(values[1])
    if name == "ratio_infimum":
        return int(values[1]) * int(values[2])
    if name == "x122_doubling_check":
        return int(values[0]) if values else 500
    return 0


class Tracer:
    """Span recorder; one per traced session."""

    def __init__(self):
        self.stack: list[list] = []  # [start, child_time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.layer_depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []
        self._cached: dict[str, object] = {}

    # -- recording ------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        short = name.split(".", 1)[1]
        counter = {"numeric": _points, "positivity": _coeffs}.get(layer)

        def wrapper(*args, **kwargs):
            outermost = tracer.layer_depth[layer] == 0
            if counter is not None and outermost:
                tracer.counts[f"{layer}.{'points' if layer == 'numeric' else 'coeffs'}"] += counter(
                    short, args, kwargs
                )
            tracer.layer_depth[layer] += 1
            convs = tracer.calls["qseries._intconv"]
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.layer_depth[layer] -= 1
                span = end - frame[0]
                own = span - frame[1]
                tracer.self_s[name] += own
                tracer.total_s[name] += span
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += span
            tracer._observe(short, layer, args, result, convs)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in CACHE_ATTRS:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _observe(self, short, layer, args, result, convs_before):
        counts = self.counts
        if layer == "qseries" and short == "mul":
            coeffs = getattr(result, "coeffs", None)
            if coeffs is not None:
                counts["qseries.mul.terms"] += len(coeffs)
                # a series product that ran no integer convolution took the
                # exact Fraction fallback loop
                series_product = getattr(args[1], "coeffs", None) is not None
                if series_product and self.calls["qseries._intconv"] == convs_before:
                    counts["qseries.mul.fraction_calls"] += 1
        elif layer == "forms" and short == "delta_series":
            counts["forms.delta_series.terms"] += len(result.coeffs)
        elif layer == "identities" and short == "verify":
            counts["identities.verify.order_sum"] += int(result.order)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer and rebind the wrappers."""
        import qmforms.cli  # noqa: F401  (imports every layer)

        modules = {layer: sys.modules[f"qmforms.{layer}"] for layer in LAYERS}
        originals: dict[int, tuple] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") and attr != "_intconv":
                    continue
                if not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if id(value) not in originals:
                    originals[id(value)] = (value, self.wrap(value, f"{layer}.{attr}", layer))

        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = originals.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._set_item(value, key, hit[1])

        series_cls = modules["qseries"].FourierSeries
        for attr in SERIES_METHODS:
            method = series_cls.__dict__.get(attr)
            if method is not None:
                name = attr.strip("_") if attr.startswith("__") else attr
                self._set(series_cls, attr, self.wrap(method, f"qseries.{name}", "qseries"))
        components = modules["extremal"].Depth1Components
        self._set(components, "recompose", self.wrap(components.recompose, "extremal.recompose", "extremal"))

        cli = modules["cli"]
        criteria = tuple(
            self.wrap(fn, f"cli.criterion.C{k}", "cli") for k, fn in enumerate(cli.ACCEPTANCE_CRITERIA, 1)
        )
        self._set(cli, "ACCEPTANCE_CRITERIA", criteria)

        forms, extremal = modules["forms"], modules["extremal"]
        self._cached = {
            "forms.eisenstein": forms.eisenstein,
            "extremal.x_w1": extremal.x_w1,
            "extremal.x_w1_components": extremal.x_w1_components,
            "extremal.x_w2": extremal.x_w2,
        }

    def _set(self, owner, attr, value) -> None:
        self._restore.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value) -> None:
        self._restore.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._restore:
            setter, owner, key, value = self._restore.pop()
            setter(owner, key, value)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer and per-function figures, flat, named as in BENCHMARK.json."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for name, own in self.self_s.items():
            layer, short = name.split(".", 1)
            out[f"{layer}.self_s"] += own
            out[f"{layer}.calls"] += self.calls[name]
            out[f"{name}.self_s"] = own
            out[f"{name}.calls"] = self.calls[name]
            if short.startswith("criterion."):
                out[f"{name}_s"] = self.total_s[name]
        out.update(self.counts)
        info = self._cached["forms.eisenstein"].cache_info()
        out["forms.eisenstein.hits"] = info.hits
        out["forms.eisenstein.misses"] = info.misses
        hits = misses = entries = 0
        for key in ("extremal.x_w1", "extremal.x_w1_components", "extremal.x_w2"):
            info = self._cached[key].cache_info()
            hits, misses, entries = hits + info.hits, misses + info.misses, entries + info.currsize
        out["extremal.cache.hits"] = hits
        out["extremal.cache.misses"] = misses
        out["extremal.cache.entries"] = entries
        return out
