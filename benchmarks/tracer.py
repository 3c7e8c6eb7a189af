"""Span tracer that wraps qss_sim callables at their module boundaries.

``Tracer.install`` replaces each traced function in every loaded
``qss_sim`` module that binds it, so a call through an imported name
(``qss_sim.protocol.embed``, ``qss_sim.protocol._apply_channel_matrix``)
is seen as well as a call through the defining module. Methods are
patched on their class. ``uninstall`` restores every original object.

A span records its layer, the span that caused it, its start and end, and
the pass it belongs to. A pass is traced in one of two modes, because the
counters sit on hot paths and would otherwise inflate the self times:

- a *counting* pass installs the spans, every counter and a wrapper on each
  closed form; it supplies every ``calls`` and count metric;
- a *timing* pass installs the spans only, and while a closed form runs the
  ``qss_sim.analysis`` names are the unwrapped functions, so a closed form
  called from another one (``avg_f_opt0`` evaluates ``f0_ww`` and ``r_opt``
  at every quadrature node) costs nothing extra. It supplies every
  ``self_s`` metric; nested closed forms open no span of their own, so
  their time stays in the innermost open span, the quadrature for an
  integrand.

Spans are kept in memory; ``layer_metrics`` derives calls and self time (a
span's duration minus the duration of its child spans) once the run is
over. The tracer assumes one thread, which
holds for every workload (sweeps run with ``--workers 1``).

A target that a later version of the package no longer has is skipped and
listed in ``missing``; its metrics then read zero.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# Layer of each span-producing target: (module, attribute) -> layer.
SPAN_TARGETS: dict[tuple[str, str], str] = {
    ("qss_sim.linalg", "embed"): "linalg.embed",
    ("qss_sim.linalg", "_partial_trace_matrix"): "linalg.partial_trace",
    ("qss_sim.channels", "_apply_channel_matrix"): "channels.kraus_apply",
    ("qss_sim.channels", "weak_op"): "channels.weak_op",
    ("qss_sim.protocol", "_execute_iteration"): "protocol.iteration",
    ("qss_sim.protocol", "advance"): "protocol.advance",
    ("qss_sim.protocol", "run_iteration"): "protocol.run",
    ("qss_sim.protocol", "start_chain"): "protocol.run",
    ("qss_sim.protocol", "run_protocol"): "protocol.run",
    ("qss_sim.quadrature", "gauss_legendre"): "quadrature",
    ("qss_sim.quadrature", "adaptive_gauss_legendre"): "quadrature",
    ("qss_sim.optimize", "correction_objective"): "optimize.objective_build",
    ("qss_sim.optimize", "optimize_correction"): "optimize.search",
    ("qss_sim.optimize", "maximize_scalar"): "optimize.maximize_scalar",
    ("qss_sim.sweeps", "_evaluate_point"): "sweeps.point",
    ("qss_sim.sweeps", "write_csv"): "sweeps.write",
    ("qss_sim.config", "run_config_from_text"): "config.parse",
    ("qss_sim.config", "sweep_spec_from_text"): "config.parse",
    ("qss_sim.cli", "_cmd_run"): "cli.report",
    ("qss_sim.cli", "_cmd_sweep"): "cli.report",
    ("qss_sim.cli", "_cmd_validate"): "cli.report",
}

# Public closed forms, of layer analysis.formula (see the module docstring).
FORMULA_NAMES = (
    "f_pd", "avg_f_pd", "f_ad", "f_ad_outcome1", "avg_f_ad", "sp1", "sp2", "f0_ww",
    "r_opt", "avg_f_opt0", "avg_f_opt0_closed_form", "avg_success_opt0", "f1_ww",
    "avg_f1", "optimal_line",
)

# Per-layer metrics, in report order, with their units.
LAYER_METRICS: dict[str, str] = {
    "linalg.density_ctor.calls": "count",
    "linalg.density_ctor.self_s": "s",
    "linalg.embed.calls": "count",
    "linalg.embed.self_s": "s",
    "linalg.partial_trace.self_s": "s",
    "channels.kraus_apply.calls": "count",
    "channels.kraus_apply.self_s": "s",
    "channels.weak_op.calls": "count",
    "protocol.run.self_s": "s",
    "protocol.iteration.calls": "count",
    "protocol.iteration.self_s": "s",
    "protocol.branches": "count",
    "protocol.zero_branches": "count",
    "protocol.branch_yield": "ratio",
    "protocol.advance.self_s": "s",
    "protocol.reset_combos": "count",
    "protocol.recycled_states": "count",
    "protocol.recycle_yield": "ratio",
    "analysis.formula.calls": "count",
    "analysis.formula.self_s": "s",
    "analysis.r_opt.calls": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.panels": "count",
    "quadrature.self_s": "s",
    "optimize.objective_build.self_s": "s",
    "optimize.search.self_s": "s",
    "optimize.unitaries_scored": "count",
    "optimize.golden_evals": "count",
    "optimize.maximize_scalar.self_s": "s",
    "sweeps.points": "count",
    "sweeps.nan_points": "count",
    "sweeps.point.self_s": "s",
    "sweeps.write.self_s": "s",
    "validate.suites": "count",
    "validate.grid_points": "count",
    "validate.suite.self_s": "s",
    "cli.report.self_s": "s",
    "config.parse.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        # Each span: [layer, parent index or -1, start, end, pass index].
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.current_pass = 0
        self.counting = True
        self.count_passes: set[int] = set()
        self.time_passes: set[int] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._formula_depth = [0]
        self._resets: dict[int, list[int]] = defaultdict(list)
        self._undo: list[Callable[[], None]] = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, layer: str, fn: Callable, hook: Callable | None = None,
              prepare: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            index = len(spans)
            record = [layer, stack[-1] if stack else -1, clock(), 0.0, self.current_pass]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
            if hook is not None:
                hook(index, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _formula(self, fn: Callable, hook: Callable | None, namespace: dict,
                 originals: dict, wrappers: dict) -> Callable:
        """Span for a closed form called outside every other closed form.

        A nested call is only counted on a counting pass. On a timing pass
        ``namespace`` holds the ``originals`` while the span is open, so a
        nested call never reaches a wrapper, and the ``wrappers`` again
        after it.
        """
        span = self._span("analysis.formula", fn, hook)
        counts, depth, counting = self.counts, self._formula_depth, self.counting

        def wrapper(*args, **kwargs):
            if depth[0]:
                if counting:
                    counts["analysis.formula.calls"] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(-1, args, result)
                return result
            depth[0] += 1
            if not counting:
                namespace.update(originals)
            try:
                return span(*args, **kwargs)
            finally:
                if not counting:
                    namespace.update(wrappers)
                depth[0] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn: Callable, hook: Callable | None = None,
                 prepare: Callable | None = None) -> Callable:
        """Wrapper that counts at a boundary without opening a span."""

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self._stack[-1] if self._stack else -1, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_callable(self, key: str, f: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return counted

    def _wrap_first_arg(self, key: str, name: str, panels: bool = False) -> Callable:
        """``prepare`` hook replacing the callable argument by a counting one."""

        def prepare(args, kwargs):
            if panels:
                self.counts["quadrature.panels"] += 1
            if args:
                args = (self._counting_callable(key, args[0]),) + tuple(args[1:])
            elif name in kwargs:
                kwargs = dict(kwargs, **{name: self._counting_callable(key, kwargs[name])})
            return args, kwargs

        return prepare

    # -- hooks ------------------------------------------------------------

    def _on_iteration(self, index: int, args: tuple, result: Any) -> None:
        reports = result[0] if isinstance(result, tuple) else result
        if not isinstance(reports, list):
            return
        self.counts["protocol.branches"] += len(reports)
        self.counts["protocol.zero_branches"] += sum(
            1 for r in reports if getattr(r, "reconstructed_state", None) is None
        )

    def _on_reset(self, parent: int, args: tuple, result: Any) -> None:
        if isinstance(result, list):
            self._resets[parent].append(len(result))

    def _on_advance(self, index: int, args: tuple, result: Any) -> None:
        # advance(prev, secret, cfg) resets each helper qubit of each carried
        # branch in order; the product of outcome counts per branch is the
        # number of reset combinations that branch enters the merge with.
        lengths = self._resets.pop(index, [])
        cfg = args[2] if len(args) > 2 else None
        helpers = getattr(cfg, "parties", 0) - 1
        if helpers < 1:
            return
        for start in range(0, len(lengths), helpers):
            self.counts["protocol.reset_combos"] += math.prod(lengths[start:start + helpers])

    def _on_point(self, index: int, args: tuple, result: Any) -> None:
        self.counts["sweeps.points"] += 1
        values = result[0] if isinstance(result, tuple) else []
        if any(isinstance(v, float) and math.isnan(v) for v in values):
            self.counts["sweeps.nan_points"] += 1

    def _on_suite(self, index: int, args: tuple, result: Any) -> None:
        self.counts["validate.suites"] += 1
        self.counts["validate.grid_points"] += int(getattr(result, "grid_points", 0))

    def _on_r_opt(self, index: int, args: tuple, result: Any) -> None:
        self.counts["analysis.r_opt.calls"] += 1

    def _on_batch(self, parent: int, args: tuple, result: Any) -> None:
        if len(args) > 1:
            self.counts["optimize.unitaries_scored"] += len(args[1])

    # -- install / uninstall ------------------------------------------------

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "qss_sim" or name.startswith("qss_sim.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = wrapper
                    self._undo.append(lambda ns=namespace, a=attr, v=value: ns.__setitem__(a, v))

    def _lookup(self, module: str, attr: str) -> Callable | None:
        fn = getattr(sys.modules.get(module), attr, None)
        if fn is None and f"{module}.{attr}" not in self.missing:
            self.missing.append(f"{module}.{attr}")
        return fn

    def install(self, counting: bool) -> None:
        """Wrap every target for a counting or a timing pass (see the module
        docstring); the qss_sim modules must already be imported."""
        self.counting = counting
        (self.count_passes if counting else self.time_passes).add(self.current_pass)
        hooks = {
            "protocol.iteration": self._on_iteration,
            "protocol.advance": self._on_advance,
            "sweeps.point": self._on_point,
        } if counting else {}
        prepares = {
            ("qss_sim.quadrature", "gauss_legendre"):
                self._wrap_first_arg("quadrature.integrand_evals", "f", panels=True),
        } if counting else {}
        for (module, attr), layer in SPAN_TARGETS.items():
            fn = self._lookup(module, attr)
            if fn is not None:
                wrapper = self._span(layer, fn, hooks.get(layer), prepares.get((module, attr)))
                self._replace_everywhere(fn, wrapper)

        validate = sys.modules.get("qss_sim.validate")
        for attr in sorted(vars(validate)) if validate else []:
            if attr.startswith("_suite_"):
                fn = getattr(validate, attr)
                hook = self._on_suite if counting else None
                self._replace_everywhere(fn, self._span("validate.suite", fn, hook))
        self._install_formulas()
        self._patch_method("qss_sim.linalg", "DensityMatrix", "__post_init__",
                           lambda fn: self._span("linalg.density_ctor", fn))
        if counting:
            self._install_counters()

    def _install_counters(self) -> None:
        fn = self._lookup("qss_sim.protocol", "_reset_to_zero")
        if fn is not None:
            self._replace_everywhere(fn, self._counter(fn, self._on_reset))
        fn = self._lookup("qss_sim.optimize", "_golden_max")
        if fn is not None:
            self._replace_everywhere(
                fn, self._counter(fn, prepare=self._wrap_first_arg("optimize.golden_evals", "f"))
            )
        self._patch_method("qss_sim.optimize", "UnitaryObjective", "batch_values",
                           lambda fn: self._counter(fn, self._on_batch))

    def _install_formulas(self) -> None:
        analysis = sys.modules.get("qss_sim.analysis")
        namespace = vars(analysis) if analysis else {}
        originals = {name: namespace[name] for name in FORMULA_NAMES if name in namespace}
        wrappers: dict[str, Callable] = {}
        wrapped: dict[int, Callable] = {}
        for name in FORMULA_NAMES:
            fn = self._lookup("qss_sim.analysis", name)
            if fn is None:
                continue
            hook = self._on_r_opt if name == "r_opt" and self.counting else None
            wrapper = self._formula(fn, hook, namespace, originals, wrappers)
            wrappers[name] = wrapper
            wrapped[id(fn)] = wrapper
            self._replace_everywhere(fn, wrapper)
        # FORMULAS entries hold the function objects captured at import time.
        for formula in getattr(analysis, "FORMULAS", {}).values():
            fn = getattr(formula, "fn", None)
            if id(fn) in wrapped:
                object.__setattr__(formula, "fn", wrapped[id(fn)])
                self._undo.append(lambda f=formula, v=fn: object.__setattr__(f, "fn", v))

    def _patch_method(self, module: str, cls_name: str, attr: str, make: Callable) -> None:
        cls = self._lookup(module, cls_name)
        fn = cls.__dict__.get(attr) if cls is not None else None
        if fn is None:
            if cls is not None and f"{module}.{cls_name}.{attr}" not in self.missing:
                self.missing.append(f"{module}.{cls_name}.{attr}")
            return
        setattr(cls, attr, make(fn))
        self._undo.append(lambda: setattr(cls, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and counts per counting pass, and self time per timing
        pass, for every layer metric.

        ``trace.overhead_frac`` needs the untraced timings and is filled
        in by the caller.
        """
        calls: Counter[str] = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        child_s: defaultdict[int, float] = defaultdict(float)
        for layer, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (layer, parent, start, end, pass_index) in enumerate(self.spans):
            if pass_index in self.count_passes:
                calls[layer] += 1
            else:
                self_s[layer] += (end - start) - child_s[index]
        counts = Counter(self.counts)
        counts["protocol.recycled_states"] = sum(
            1 for layer, parent, _, _, pass_index in self.spans
            if layer == "protocol.iteration" and parent >= 0 and pass_index in self.count_passes
            and self.spans[parent][0] == "protocol.advance"
        )

        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                value, passes = calls[layer] + counts[name], len(self.count_passes)
            elif kind == "self_s":
                value, passes = self_s[layer], len(self.time_passes)
            else:
                value, passes = counts[name], len(self.count_passes)
            out[name] = value / passes if passes else 0.0
        out["protocol.branch_yield"] = _ratio(
            counts["protocol.branches"] - counts["protocol.zero_branches"],
            counts["protocol.branches"],
        )
        out["protocol.recycle_yield"] = _ratio(
            counts["protocol.recycled_states"], counts["protocol.reset_combos"]
        )
        return out


def _ratio(num: float, den: float) -> float:
    """Ratio with a zero base read as 0 (the layer did no work)."""
    return num / den if den else 0.0
