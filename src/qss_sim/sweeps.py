"""Parameter sweeps with deterministic CSV output.

A sweep evaluates one or more named quantities on a 1- or 2-axis grid and
writes one row per grid point, outer axis major. Floats are written with 12
significant digits; grid points where a quantity is undefined produce a
literal ``nan`` and are counted in the trailing ``# warnings: N`` comment
line. Output is bit-identical across repeated runs of the same spec:
points are evaluated one after another and written in grid order.

A spec is checked once, before its grid is built: unknown or repeated names, axis
ranges, the grid size, missing parameters, an axis or a fixed binding that
no requested quantity reads and, for ``sim_fidelity``, the channel kind,
its strength and the s/r pairing all raise ``ConfigValidationError``
before any point is computed. Evaluating a point can then fail only with a
``DomainError`` (written as ``nan``) or a fault.

Ready-made specs reproducing the bundled figure datasets live in
``sweepspecs/`` (see the README for the column schema of each).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from . import analysis
from .analysis import DomainError
from .config import SWEEP_PARAMS, ConfigValidationError, SweepSpec
from .protocol import (
    NoiseSpec, ProtocolConfig, Secret, Wmrqm, aggregate_fidelity, run_iteration, success_probability
)

__all__ = ["QUANTITIES", "run_sweep", "write_csv", "format_float"]


def _sim_fidelity(bindings: dict[str, float | str]) -> float:
    """Brute-force protocol fidelity (probability-weighted over branches).

    Undefined, as a ``DomainError``, where ``r = r_opt`` did not resolve
    (``nan``) or where no branch survives the post-selection.
    """
    if "r" in bindings and math.isnan(float(bindings["r"])):
        raise DomainError("reversal strength r = r_opt is undefined here")
    kind = bindings.get("channel", "none")
    secret = Secret.from_k(float(bindings["k"]))
    cfg = ProtocolConfig(
        parties=2,
        secrets=(secret,),
        channel=None if kind == "none" else NoiseSpec(str(kind), float(bindings["strength"])),
        wmrqm=Wmrqm(float(bindings["s"]), float(bindings["r"])) if "s" in bindings else None,
    )
    reports = run_iteration(cfg, secret)
    if success_probability(reports) <= 0.0:
        raise DomainError("no branch survives the post-selection")
    return aggregate_fidelity(reports)


def _closed_form(name: str, params: tuple[str, ...]) -> tuple[tuple[str, ...], Callable[[dict], float]]:
    """``analysis.<name>`` called on the bound ``params``, in order; the
    function is looked up at call time, so a wrapper installed on
    ``analysis`` is seen."""
    return params, lambda b: getattr(analysis, name)(*(float(b[p]) for p in params))


# Each quantity's required parameters and its evaluator, which receives the
# whole binding dict.
QUANTITIES: dict[str, tuple[tuple[str, ...], Callable[[dict], float]]] = {
    "f_pd": _closed_form("f_pd", ("k", "q")),
    "avg_f_pd": _closed_form("avg_f_pd", ("q",)),
    "f_ad": _closed_form("f_ad", ("k", "p")),
    "f_ad_outcome1": _closed_form("f_ad_outcome1", ("k", "p")),
    "avg_f_ad": _closed_form("avg_f_ad", ("p",)),
    "sp1": _closed_form("sp1", ("k", "s")),
    "sp2": _closed_form("sp2", ("k", "s", "r", "p")),
    "f0_ww": _closed_form("f0_ww", ("k", "s", "r", "p")),
    "r_opt": _closed_form("r_opt", ("k", "s", "p")),
    "avg_f_opt0": _closed_form("avg_f_opt0_closed_form", ("p", "s")),
    "avg_f1": _closed_form("avg_f1", ("p", "r")),
    "f1_ww": _closed_form("f1_ww", ("k", "r", "p")),
    "prob_succ": _closed_form("avg_success_opt0", ("p", "s")),
    "optimal_line": _closed_form("optimal_line", ("p",)),
    "sim_fidelity": (("k",), _sim_fidelity),
}


def _params_read(quantities: Sequence[str], fixed: dict[str, float | str]) -> set[str]:
    """The parameters the quantities read under the fixed bindings: a formula
    its own; ``sim_fidelity`` also the channel, s, r and, with a pdc or adc
    channel, its strength; r = r_opt also the (k, s, p) it resolves from."""
    read = {p for q in quantities for p in QUANTITIES[q][0]}
    if "sim_fidelity" in quantities:
        read |= {"channel", "s", "r"}
        if fixed.get("channel", "none") != "none":
            read.add("strength")
    if "r" in read and fixed.get("r") == "r_opt":
        read |= {"k", "s", "p"}
    return read


# Largest grid a spec may ask for; the committed figure specs use at most 714 points.
MAX_GRID_POINTS = 10**6


def _validate_spec(spec: SweepSpec) -> None:
    """Raise ``ConfigValidationError`` unless every point of the spec can be
    evaluated; the one place a spec is checked, before any grid is built."""
    for i, q in enumerate(spec.quantities):
        if q not in QUANTITIES:
            raise ConfigValidationError(
                f"unknown quantity {q!r}; known: {sorted(QUANTITIES)}"
            )
        if q in spec.quantities[:i]:
            raise ConfigValidationError(f"duplicate quantity {q!r}")
    seen = set()
    for name, lo, hi, steps in spec.axes:
        if name not in SWEEP_PARAMS:
            raise ConfigValidationError(f"unknown axis parameter {name!r}")
        if name in seen:
            raise ConfigValidationError(f"duplicate axis {name!r}")
        seen.add(name)
        if steps < 2:
            raise ConfigValidationError(f"axis {name}: steps must be >= 2, got {steps}")
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigValidationError(
                f"axis {name}: range [{lo}, {hi}] must satisfy 0 <= lo < hi <= 1"
            )
    points = math.prod(steps for *_, steps in spec.axes)
    if points > MAX_GRID_POINTS:
        raise ConfigValidationError(
            f"grid has {points} points; at most {MAX_GRID_POINTS} are allowed"
        )
    for name in spec.fixed:
        if name == "channel":
            continue
        if name not in SWEEP_PARAMS:
            raise ConfigValidationError(f"unknown fixed parameter {name!r}")
        if name in seen:
            raise ConfigValidationError(f"{name!r} is both an axis and fixed")
        value = spec.fixed[name]
        if isinstance(value, float) and not 0.0 <= value <= 1.0:
            raise ConfigValidationError(f"fixed {name} = {value} outside [0, 1]")
    available = seen | set(spec.fixed)
    if "sim_fidelity" in spec.quantities:
        kind = spec.fixed.get("channel", "none")
        if kind not in ("pdc", "adc", "none"):
            raise ConfigValidationError(f"sim_fidelity channel must be pdc, adc or none, got {kind!r}")
        if kind != "none" and "strength" not in available:
            raise ConfigValidationError("sim_fidelity with a channel needs strength")
        if ("s" in available) != ("r" in available):
            raise ConfigValidationError("sim_fidelity needs s and r together or neither")
    read = _params_read(spec.quantities, spec.fixed)
    for what, names in (("fixed parameter(s)", set(spec.fixed)), ("axis parameter(s)", seen)):
        if names - read:
            raise ConfigValidationError(
                f"{what} {sorted(names - read)} not read by {', '.join(spec.quantities)}"
            )
    floating_r = "r" in read and spec.fixed.get("r") == "r_opt"
    if floating_r and not {"k", "s", "p"} <= available:
        raise ConfigValidationError("r = r_opt needs k, s and p bound")
    for q in spec.quantities:
        missing = set(QUANTITIES[q][0]) - available
        if missing:
            raise ConfigValidationError(f"{q} needs parameter(s) {sorted(missing)}")


def _evaluate_point(spec: SweepSpec, bindings: dict[str, float | str]) -> tuple[list[float], int]:
    """One grid point's values and ``nan`` count."""
    values: list[float] = []
    warnings = 0
    resolved = dict(bindings)
    if resolved.get("r") == "r_opt":
        try:
            resolved["r"] = analysis.r_opt(
                float(resolved["k"]), float(resolved["s"]), float(resolved["p"])
            )
        except DomainError:
            resolved["r"] = math.nan
    for q in spec.quantities:
        try:
            value = QUANTITIES[q][1](resolved)
        except DomainError:
            value = math.nan
        if isinstance(value, float) and math.isnan(value):
            warnings += 1
        values.append(value)
    return values, warnings


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[list[float]], int]:
    """Evaluate a sweep; returns (header, rows, warning count)."""
    _validate_spec(spec)
    grids = [np.linspace(lo, hi, steps) for _, lo, hi, steps in spec.axes]
    names = [name for name, *_ in spec.axes]

    points = [dict(zip(names, map(float, xs)), **spec.fixed) for xs in itertools.product(*grids)]

    results = [_evaluate_point(spec, b) for b in points]

    header = names + list(spec.quantities)
    rows = [[float(p[n]) for n in names] + vals for p, (vals, _) in zip(points, results)]
    warnings = sum(w for _, w in results)
    return header, rows, warnings


def format_float(x: float) -> str:
    """12 significant digits, lowercase nan/inf."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[float]], warnings: int) -> None:
    """Write sweep output: comma separator, LF endings, trailing warning count."""
    lines = [",".join(header)]
    lines.extend(",".join(format_float(v) for v in row) for row in rows)
    lines.append(f"# warnings: {warnings}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
