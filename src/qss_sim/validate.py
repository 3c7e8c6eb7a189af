"""Cross-validation of every closed form against the brute-force simulator.

Each suite compares one analytic quantity with an independently computed
reference (simulator branch fidelities, traces of unnormalized states,
numeric quadrature or a numeric argmax) over a parameter grid and records
the worst residual. These are the checks behind ``qss-sim validate``. The
``avg_f_opt0`` row is informational: it reports how far the exact log form
lies from the direct quadrature, one scalar integral per grid point.

A suite simulates its whole grid at once: every (channel, protection)
configuration on every ``k`` (or quadrature node), a config per secret, in
``run_iterations`` calls of at most ``protocol.STACK_ENTRIES`` entries (128
3-qubit registers), about 13 calls a fine pass. Within a call each operator
pass, with its strengths stacked per register where they differ, and each
branch's trace, correction and fidelity, is one array operation over the
stack, and only the branch reports are built per point. The suite then
walks its points in grid order, so residuals, worst points and the report
bytes are those of one simulation per point.

The checks against quadrature and the numeric argmax work on arrays too.
Each average suite integrates all its strengths as panels of one
``gauss_legendre`` call, with the pointwise form called once on every node
of every panel, and the ``r_opt`` suite finds the argmax of ``f0_ww`` at
all its grid points in one batched ``maximize_scalar`` call. The array
closed forms equal their scalar calls bit for bit, so the residuals are
those of one scalar evaluation per node and one search per point.

Tolerances here are fixed per formula. The suites call each closed form
they check through this module's own name for it (``validate.f_pd`` and so
on), looked up when ``run_all`` runs, so a test overrides a closed form by
patching that name, e.g. ``monkeypatch.setattr(validate, "f_pd", ...)``;
the pointwise forms and ``r_opt`` are called on arrays, so an override
must take them. The ``avg_f_opt0`` report, the phase-damping check and the
numeric argmax behind ``r_opt`` read ``analysis`` directly, which such a
patch does not reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from . import analysis, protocol
from .analysis import avg_f1, avg_f_ad, avg_f_pd, f0_ww, f1_ww, f_ad, f_ad_outcome1, f_pd, r_opt, sp1, sp2
from .optimize import ScalarObjective, maximize_scalar
from .protocol import NoiseSpec, ProtocolConfig, Secret, Wmrqm, left_sum, run_iterations
from .quadrature import gauss_legendre

__all__ = ["CheckResult", "run_all", "render_report"]

# Branches of a 2-receiver run as (dealer outcome, helper outcome).
_BRANCHES = ((0, "+"), (0, "-"), (1, "+"), (1, "-"))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation suite."""

    name: str
    grid_points: int
    max_residual: float
    tolerance: float
    passed: bool
    worst_point: str
    note: str = ""
    informational: bool = False


@lru_cache(maxsize=None)
def _branch_fidelities(
    ks: tuple[float, ...], grid: tuple[tuple[NoiseSpec | None, Wmrqm | None], ...]
) -> tuple[tuple[dict, ...], ...]:
    """Simulator (fidelity, probability) per branch of a 2-receiver run, one
    dict per secret ``k`` in ``ks``, for each (channel, protection) pair of
    ``grid`` in order.

    This is the suites' only simulator entry point. A suite asks for its
    whole grid at once, every pair on every ``k``, and ``run_iterations``
    simulates it, a config per secret, in calls of at most
    ``protocol.STACK_ENTRIES`` entries (128 3-qubit registers), with the
    bytes each would get on its own; a suite's pairs share one register
    layout. Each call's reports are read into the dicts and dropped before
    the next call, so the reports of a whole grid are never held at once.
    It is memoized because suites share grids:
    f0_ww, f1_ww and sp2 read the same adc + protection grid, f_ad and its
    outcome-1 form the same adc grid, and the phase-damping check
    integrates two views of each run. The memo lives for one ``run_all``
    call: it is cleared when the call starts and when it returns. Within a
    run each configuration is simulated once; a memo kept across runs would
    let a repeated ``validate`` in the same process skip the simulator and
    check nothing new. Every caller shares the returned dicts and only
    reads them.
    """
    secrets = [Secret.from_k(k) for k in ks]
    cfgs = [
        ProtocolConfig(parties=2, secrets=secrets[:1], channel=channel, wmrqm=wmrqm)
        for channel, wmrqm in grid
    ]
    pairs = [(cfg, secret) for cfg in cfgs for secret in secrets]
    step = protocol.STACK_ENTRIES // 4**3  # 3-qubit registers per call
    sims = []
    for start in range(0, len(pairs), step):
        sims += [
            {
                (r.alice_outcome, r.collaborator_outcomes[0]): (
                    r.fidelity if r.fidelity is not None else float("nan"),
                    r.branch_probability,
                )
                for r in reports
            }
            for reports in run_iterations(*zip(*pairs[start : start + step]))
        ]
    return tuple(tuple(sims[i : i + len(ks)]) for i in range(0, len(sims), len(ks)))


def _survival(sim: dict) -> float:
    """Total simulated branch probability, summed in branch order."""
    return left_sum(p for _, p in sim.values())


def _grid(lo: float, hi: float, n: int) -> list[float]:
    return np.linspace(lo, hi, n).tolist()


def _largest(points: Iterable[tuple[str, float]], start: float) -> tuple[float, str, int]:
    """``(largest value, its point label, point count)`` of ``(point label,
    value)`` pairs, from ``(start, "")``.

    The first point with the largest value wins. A ``nan`` is larger than
    any number: the first one wins, and no suite passes with it.
    """
    worst, worst_at, count = start, "", 0
    for at, value in points:
        count += 1
        if not math.isnan(worst) and not value <= worst:
            worst, worst_at = value, at
    return worst, worst_at, count


def _worst(name: str, tol: float, residuals: Iterable[tuple[str, float]]) -> CheckResult:
    """Reduce ``(point label, residual)`` pairs to the suite's result; the
    worst point is the ``_largest`` residual's."""
    worst, worst_at, count = _largest(residuals, 0.0)
    return CheckResult(name, count, worst, tol, worst <= tol, worst_at)


def _suite_branch_formula(
    name: str, kind: str, formula: Callable, branches: Sequence[tuple[int, str]], n: int, tol: float
) -> CheckResult:
    def residuals():
        ks = tuple(_grid(0.0, 1.0, n))
        sims = dict(zip(ks, _branch_fidelities(ks, tuple((NoiseSpec(kind, q), None) for q in ks))))
        for (i, k), q in product(enumerate(ks), ks):
            sim = sims[q][i]
            expected = formula(k, q)
            for branch in branches:
                yield f"k={k:g}, strength={q:g}, branch={branch}", abs(sim[branch][0] - expected)

    return _worst(name, tol, residuals())


def _protected_adc_grid(n: int) -> tuple[tuple[float, ...], dict]:
    """The k-grid of the protected adc suites, and its simulation at each
    ``(s, r, p)`` on the same grid."""
    ks = tuple(_grid(0.1, 0.9, n))
    grid = tuple(product(ks, repeat=3))
    sims = _branch_fidelities(ks, tuple((NoiseSpec("adc", p), Wmrqm(s, r)) for s, r, p in grid))
    return ks, dict(zip(grid, sims))


def _suite_wmrqm_fidelity(
    name: str, formula: Callable, outcome: int, n: int, tol: float
) -> CheckResult:
    """``formula(k, s, r, p)`` against both branches of one dealer outcome."""

    def residuals():
        ks, sims = _protected_adc_grid(n)
        for (i, k), s, r, p in product(enumerate(ks), ks, ks, ks):
            sim = sims[s, r, p][i]
            expected = formula(k, s, r, p)
            for branch in ((outcome, "+"), (outcome, "-")):
                at = f"k={k:g}, s={s:g}, r={r:g}, p={p:g}, branch={branch}"
                yield at, abs(sim[branch][0] - expected)

    return _worst(name, tol, residuals())


def _suite_sp1(sp1: Callable, tol: float) -> CheckResult:
    ks = tuple(_grid(0.0, 1.0, 11))
    sims = dict(zip(ks, _branch_fidelities(ks, tuple((None, Wmrqm(s, 0.0)) for s in ks))))
    return _worst("sp1 vs simulated trace", tol, (
        (f"k={k:g}, s={s:g}", abs(_survival(sims[s][i]) - sp1(k, s)))
        for (i, k), s in product(enumerate(ks), ks)
    ))


def _suite_sp2(sp2: Callable, n: int, tol: float) -> CheckResult:
    ks, sims = _protected_adc_grid(n)
    return _worst("sp2 vs simulated trace", tol, (
        (
            f"k={k:g}, s={s:g}, r={r:g}, p={p:g}",
            abs(_survival(sims[s, r, p][i]) - sp2(k, s, r, p)),
        )
        for (i, k), s, r, p in product(enumerate(ks), ks, ks, ks)
    ))


def _columns(points: Sequence[tuple[float, ...]]) -> tuple[np.ndarray, ...]:
    """Each coordinate of ``points`` as a ``(len(points), 1)`` column, one
    row per point, to broadcast against a row of nodes or grid points."""
    return tuple(np.array(v)[:, np.newaxis] for v in zip(*points))


def _integrals(
    pointwise: Callable[..., np.ndarray], points: Sequence[tuple[float, ...]], n: int = 64
) -> list[float]:
    """``n``-node integral over ``k`` in [0, 1] of ``pointwise(k, *point)``
    at every point, each a panel of one ``gauss_legendre`` call."""
    columns = _columns(points)
    return gauss_legendre(
        lambda ks: pointwise(ks, *columns), [0.0] * len(points), [1.0] * len(points), n=n
    )


def _suite_average(
    name: str, average: Callable, pointwise: Callable, n: int, tol: float
) -> CheckResult:
    """Closed-form average over k versus 64-node quadrature of the pointwise form."""
    qs = _grid(0.0, 1.0, n)
    integrals = _integrals(pointwise, [(q,) for q in qs])
    return _worst(name, tol, (
        (f"strength={q:g}", abs(integral - average(q))) for q, integral in zip(qs, integrals)
    ))


def _suite_avg_f1(f1: Callable, avg: Callable, n: int, tol: float) -> CheckResult:
    points = list(product(_grid(0.0, 1.0, n), _grid(0.0, 0.95, n)))
    integrals = _integrals(lambda ks, p, r: f1(ks, r, p), points)
    return _worst("avg_f1 vs quadrature", tol, (
        (f"p={p:g}, r={r:g}", abs(integral - avg(p, r))) for (p, r), integral in zip(points, integrals)
    ))


def _suite_r_opt(ropt: Callable, n: int, tol: float) -> CheckResult:
    """The closed-form ``r_opt`` against the numeric argmax of ``f0_ww``
    over ``r``, every grid point in one batched ``maximize_scalar`` call."""
    points = [
        (k, s, p)
        for p, s in product(_grid(0.1, 0.9, n), _grid(0.0, 0.8, n))
        for k in _grid(analysis.region_bounds(p, s)[0] + 0.02, 0.98, n)
        if analysis.in_validity_region(k, s, p)
    ]
    ks, ss, ps = _columns(points)
    closed = ropt(ks, ss, ps)[:, 0]
    numeric, _ = maximize_scalar(
        ScalarObjective(lambda r: analysis.f0_ww(ks, ss, r, ps), 0.0, 1.0, tolerance=1e-10)
    )
    return _worst("r_opt vs numeric argmax", tol, (
        (f"k={k:g}, s={s:g}, p={p:g}", res)
        for (k, s, p), res in zip(points, np.abs(closed - numeric).tolist())
    ))


def _suite_avg_f_opt0_report(n: int) -> CheckResult:
    """Direct integral versus the exact log form, at each point of the p×s
    grid: one scalar quadrature per point."""
    result = _worst("avg_f_opt0 quadrature vs transcribed closed form", 1e-4, (
        (f"p={p:g}, s={s:g}", abs(analysis.avg_f_opt0(p, s) - analysis.avg_f_opt0_closed_form(p, s)))
        for p, s in product(_grid(0.1, 0.9, n), _grid(0.0, 0.8, n))
    ))
    note = (
        "the log form, corrected from the paper's, agrees with the direct "
        "integral to roundoff; the integral is the reference"
    )
    return replace(result, passed=True, note=note, informational=True)


def _suite_pdc_wmrqm_spot_check(n: int) -> CheckResult:
    """Protection cannot raise the k-averaged fidelity under phase damping.

    Pointwise (fixed k) gains are possible for lopsided secrets, so the
    meaningful comparison is the average over the secret family. The gain
    is signed: the note reports the largest one, negative when protection
    only ever hurts. A ``nan`` gain is the largest (``_largest``), so the
    check fails at the first one.
    """

    def aggregate(sim: dict) -> float:
        return left_sum(f * p for f, p in sim.values()) / left_sum(p for _, p in sim.values())

    nodes = 21
    views = (("branch0", lambda sim: sim[(0, "+")][0]), ("aggregate", aggregate))
    strengths = (0.25, 0.6, 1.0)
    grid = [(q, s, r) for q in strengths for s, r in product(_grid(0.0, 0.7, n), repeat=2)]
    pairs = tuple((NoiseSpec("pdc", q), Wmrqm(s, r)) for q, s, r in grid)

    def protected(view: Callable[[dict], float]) -> list[float]:
        """The average of ``view`` at every grid point, from one call of
        the integrand: a panel per point, each over [0, 1], so every row of
        nodes is the same, and the grid is simulated on the first row."""
        def integrand(ks: np.ndarray) -> list[list[float]]:
            return [[view(sim) for sim in sims] for sims in _branch_fidelities(tuple(ks[0].tolist()), pairs)]

        return gauss_legendre(integrand, [0.0] * len(grid), [1.0] * len(grid), n=nodes)

    base = dict(zip(strengths, _integrals(analysis.f_pd, [(q,) for q in strengths], n=nodes)))
    averages = [(which, protected(view)) for which, view in views]
    worst_gain, worst_at, count = _largest((
        (f"q={q:g}, s={s:g}, r={r:g}, {which}", average[i] - base[q])
        for i, (q, s, r) in enumerate(grid)
        for which, average in averages
    ), -math.inf)
    return CheckResult(
        "phase damping: protection never improves the average",
        count,
        max(worst_gain, 0.0),
        1e-12,
        worst_gain <= 1e-12,
        worst_at,
        note=f"largest observed average gain {worst_gain:.3e} (negative = strictly worse)",
    )


def run_all(grid: str = "coarse") -> list[CheckResult]:
    """Run every validation suite.

    The simulator memo lives for exactly this call. It is cleared when the
    call starts, so each call simulates every configuration once whatever
    ran before it in the same process, and again when it returns, so no
    simulator result outlives the run.
    """
    fine = grid == "fine"
    n2, n4, n_avg = (11, 5, 101) if fine else (6, 3, 21)
    _branch_fidelities.cache_clear()
    try:
        return [
            _suite_branch_formula(
                "f_pd vs simulator (all branches)", "pdc", f_pd, _BRANCHES, n2, 1e-12
            ),
            _suite_branch_formula(
                "f_ad vs simulator (outcome-0 branches)",
                "adc", f_ad, _BRANCHES[:2], n2, 1e-12,
            ),
            _suite_branch_formula(
                "f_ad_outcome1 vs simulator (outcome-1 branches)",
                "adc", f_ad_outcome1, _BRANCHES[2:], n2, 1e-12,
            ),
            _suite_wmrqm_fidelity("f0_ww vs simulator", f0_ww, 0, n4, 1e-10),
            _suite_wmrqm_fidelity("f1_ww vs simulator", lambda k, s, r, p: f1_ww(k, r, p), 1, n4, 1e-10),
            _suite_sp1(sp1, 1e-12),
            _suite_sp2(sp2, n4, 1e-12),
            _suite_average("avg_f_pd vs quadrature", avg_f_pd, f_pd, n_avg, 1e-9),
            _suite_average("avg_f_ad vs quadrature", avg_f_ad, f_ad, n_avg, 1e-9),
            _suite_avg_f1(f1_ww, avg_f1, n2, 1e-9),
            _suite_r_opt(r_opt, n4, 1e-6),
            _suite_avg_f_opt0_report(4 if fine else 3),
            _suite_pdc_wmrqm_spot_check(3),
        ]
    finally:
        _branch_fidelities.cache_clear()


def render_report(results: Iterable[CheckResult]) -> str:
    lines = [
        f"{'suite':<55} {'points':>7} {'max residual':>14} {'tolerance':>10}  status",
        "-" * 100,
    ]
    for r in results:
        status = "noted" if r.informational else ("pass" if r.passed else "FAIL")
        lines.append(
            f"{r.name:<55} {r.grid_points:>7} {r.max_residual:>14.3e} {r.tolerance:>10.0e}  {status}"
        )
        if r.note:
            lines.append(f"    note: {r.note}")
        if not r.passed and not r.informational:
            lines.append(f"    worst point: {r.worst_point}")
    return "\n".join(lines)
