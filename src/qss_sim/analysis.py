"""Closed-form fidelities, success probabilities and optimal strengths.

Every quantity here is a function of the secret parameter
``k = |alpha|^2`` and the channel/measurement strengths:

* ``f_pd`` / ``avg_f_pd``: reconstruction fidelity under phase damping and
  its average over a uniformly distributed secret;
* ``f_ad`` / ``f_ad_outcome1`` / ``avg_f_ad``: the same under amplitude
  damping (the two dealer outcomes give distinct pointwise fidelities with
  a common average);
* ``sp1`` / ``sp2``: survival probabilities of the weak-measurement
  post-selection, before and after the full protect-damage-reverse cycle;
* ``f0_ww`` / ``f1_ww``: protected fidelities conditioned on the dealer's
  outcome, ``r_opt`` the reversal strength maximizing ``f0_ww``, and
  ``avg_f_opt0`` / ``avg_f1`` the corresponding secret averages.

Each closed form is cross-validated against the brute-force density-matrix
simulator by the ``validate`` command and the test suite.

A closed form takes floats and returns a Python float. ``r_opt``,
``f0_ww``, ``sp2`` and ``in_validity_region``, the pieces of the
optimal-reversal integrand, and ``avg_f_opt0`` and ``avg_success_opt0``,
its averages, also take ``numpy`` arrays (broadcast against each other and
against floats) and return one value per element; an array gets the same
domain checks on every element and raises ``DomainError`` if any element
fails them. The array expressions keep the scalar operand order, so each
element equals the scalar call's value bit for bit. An array of averages
is one batched quadrature: each level of bisection evaluates the nodes of
every ``(p, s)`` element in one integrand call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .quadrature import adaptive_gauss_legendre
from .tolerances import POLE_ATOL

__all__ = [
    "DomainError",
    "f_pd",
    "avg_f_pd",
    "f_ad",
    "f_ad_outcome1",
    "avg_f_ad",
    "sp1",
    "sp2",
    "f0_ww",
    "region_bounds",
    "in_validity_region",
    "r_opt",
    "avg_f_opt0",
    "avg_f_opt0_closed_form",
    "avg_success_opt0",
    "f1_ww",
    "avg_f1",
    "optimal_line",
]


class DomainError(ValueError):
    """Input outside the domain where a formula is defined."""


# A float, or an array of floats evaluated element by element.
FloatOrArray = float | np.ndarray


def _unit(value: FloatOrArray, name: str) -> FloatOrArray:
    """``value`` as a float, or as a float array, once every element is
    checked to lie in ``[0, 1]`` (``nan`` fails); a complex or object value
    is refused, since a cast would drop its imaginary part."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "biuf":
            raise DomainError(f"{name} must be real, got an array of dtype {value.dtype}")
        value = value.astype(float, copy=False)
        _require((0.0 <= value) & (value <= 1.0), f"{name} must lie in [0, 1], got {{}}", value)
        return value
    if isinstance(value, np.complexfloating):
        raise DomainError(f"{name} must be real, got {value}")
    value = float(value)
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")
    return value


def _require(ok: bool | np.ndarray, message: str, *values: FloatOrArray) -> None:
    """Raise ``DomainError(message.format(*values))`` unless ``ok`` holds.

    An array ``ok`` must hold at every element; the message then names the
    ``values`` (broadcast against ``ok``) at the first element where it fails.
    """
    if isinstance(ok, np.ndarray):
        if ok.all():
            return
        bad = ~ok
        values = tuple(float(np.broadcast_to(v, bad.shape)[bad][0]) for v in values)
    elif ok:
        return
    raise DomainError(message.format(*values))


def f_pd(k: float, q: float) -> float:
    """Reconstruction fidelity under phase damping of strength ``q``.

    ``k^2 + (1-k)^2 + 2(1-q)^2 k(1-k)``; the same value holds on every
    measurement branch because the corrections map all of them onto one
    another exactly.
    """
    k = _unit(k, "k")
    q = _unit(q, "q")
    return k * k + (1 - k) ** 2 + 2 * (1 - q) ** 2 * k * (1 - k)


def avg_f_pd(q: float) -> float:
    """Phase-damping fidelity averaged uniformly over ``k``.

    Equals ``1 - 2q/3 + q^2/3``; evaluated as ``(2 + (1-q)^2)/3`` so the
    endpoints come out exact: 1 at ``q=0`` and 2/3 at ``q=1``.
    """
    q = _unit(q, "q")
    return (2.0 + (1.0 - q) ** 2) / 3.0


def f_ad(k: float, p: float) -> float:
    """Amplitude-damping fidelity on the dealer-outcome-0 branches.

    ``k + (1-p)(1-k)``: the ``|0>`` component survives untouched, the
    ``|1>`` component decays.
    """
    k = _unit(k, "k")
    p = _unit(p, "p")
    return k + (1.0 - p) * (1.0 - k)


def f_ad_outcome1(k: float, p: float) -> float:
    """Amplitude-damping fidelity on the dealer-outcome-1 branches.

    After the bit-flip correction these branches give ``1 - p k``, not the
    outcome-0 value; the two expressions share the average ``1 - p/2``.
    Frozen from the simulator (the four branch states cannot be mapped onto
    a single one by unitaries under amplitude damping).
    """
    k = _unit(k, "k")
    p = _unit(p, "p")
    return 1.0 - p * k


def avg_f_ad(p: float) -> float:
    """Amplitude-damping fidelity averaged uniformly over ``k``: ``1 - p/2``."""
    p = _unit(p, "p")
    return 1.0 - p / 2.0


def sp1(k: float, s: float) -> float:
    """Survival probability of the forward weak measurements alone.

    ``(1/2)(1 + (1-s))(1 - (1-k)s)``: the trace left after both
    transmitted qubits pass the null-outcome measurement of strength ``s``.
    """
    k = _unit(k, "k")
    s = _unit(s, "s")
    return 0.5 * (1.0 + (1.0 - s)) * (1.0 - (1.0 - k) * s)


def sp2(k: FloatOrArray, s: FloatOrArray, r: FloatOrArray, p: FloatOrArray) -> FloatOrArray:
    """Overall survival probability of the full protection cycle.

    ``(1/2)(k(1-r) - (1-k) d (1-s))(2 - (1+p)r + d s)`` with ``d = pr-1``:
    the trace after forward measurement, amplitude damping of strength
    ``p`` and reversal of strength ``r`` on both transmitted qubits.
    Takes floats or arrays.
    """
    k = _unit(k, "k")
    s = _unit(s, "s")
    r = _unit(r, "r")
    p = _unit(p, "p")
    d = p * r - 1.0
    return 0.5 * (k * (1.0 - r) - (1.0 - k) * d * (1.0 - s)) * (2.0 - (1.0 + p) * r + d * s)


def f0_ww(k: FloatOrArray, s: FloatOrArray, r: FloatOrArray, p: FloatOrArray) -> FloatOrArray:
    """Protected fidelity on the dealer-outcome-0 branches.

    Rational in all four arguments; undefined where the branch itself has
    zero probability (``k(1-r)^2 + (1-k)(1-s)^2 (pr-1)^2 = 0``). Takes
    floats or arrays; an array with any such element raises.
    """
    k = _unit(k, "k")
    s = _unit(s, "s")
    r = _unit(r, "r")
    p = _unit(p, "p")
    kb, sb, rb, pb = 1.0 - k, 1.0 - s, 1.0 - r, 1.0 - p
    d = p * r - 1.0
    den = k * rb * rb + kb * sb * sb * d * d
    _require(den > 0.0, "branch probability vanishes at k={}, s={}, r={}, p={}", k, s, r, p)
    num = (
        k * k * rb * rb
        - kb * kb * sb * sb * pb * d
        + k * kb * sb * rb * (2.0 - (1.0 + s) * p - sb * p * p * r)
    )
    return num / den


def region_bounds(p: float, s: float) -> tuple[float, float]:
    """Endpoints ``(lower, split)`` of the optimality region in ``k``.

    The reversal strength ``r_opt`` maximizes ``f0_ww`` exactly for
    ``k`` in ``(lower, split) U (split, 1)``.
    """
    lower = (-p + p * s) / (-2.0 - 2.0 * p + 2.0 * p * s)
    split = (-1.0 + s) / (-4.0 + 2.0 * s)
    return lower, split


def in_validity_region(k: FloatOrArray, s: FloatOrArray, p: FloatOrArray) -> bool | np.ndarray:
    """Whether ``(k, s, p)`` lies where ``r_opt`` is the true maximizer.

    ``s = 0`` is admitted (the zero-strength forward measurement is the
    identity and the optimum is still interior there); ``p`` must be
    strictly inside ``(0, 1)``. Given an array, answers per element as a
    boolean array.
    """
    if any(isinstance(v, np.ndarray) for v in (k, s, p)):
        with np.errstate(divide="ignore", invalid="ignore"):
            lower, split = region_bounds(p, s)
        return (
            (0.0 < p) & (p < 1.0) & (0.0 <= s) & (s < 1.0)
            & (((lower < k) & (k < split)) | ((split < k) & (k < 1.0)))
        )
    if not (0.0 < p < 1.0 and 0.0 <= s < 1.0):
        return False
    lower, split = region_bounds(p, s)
    return (lower < k < split) or (split < k < 1.0)


def r_opt(k: FloatOrArray, s: FloatOrArray, p: FloatOrArray) -> FloatOrArray:
    """Reversal strength maximizing ``f0_ww`` at fixed ``(k, s, p)``.

    Defined only inside the validity region (see ``in_validity_region``);
    outside it a ``DomainError`` is raised rather than returning a value
    that would not be the maximizer. Takes floats or arrays; an array with
    any element outside the region raises.
    """
    k = _unit(k, "k")
    s = _unit(s, "s")
    p = _unit(p, "p")
    _require(
        in_validity_region(k, s, p), "(k={}, s={}, p={}) outside the optimality region", k, s, p
    )
    sb, pb = 1.0 - s, 1.0 - p
    f = p + 2.0 * k * (1.0 - p * sb) - p * s
    arg = -k * pb * pb * sb * sb / ((k * (p * p * sb * sb - 1.0) - p * p * sb * sb) * f * f)
    root = np.sqrt(arg) if isinstance(arg, np.ndarray) else math.sqrt(arg)
    return -root + (1.0 + (2.0 * k - 1.0) * s) / f


def _region_domain(p: FloatOrArray, s: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    """``(p, s)`` checked for the averages over the optimality region."""
    p = _unit(p, "p")
    s = _unit(s, "s")
    _require((0.0 < p) & (p < 1.0) & (s < 1.0), "need 0 < p < 1 and s < 1, got p={}, s={}", p, s)
    return p, s


def _region_average(
    p: FloatOrArray, s: FloatOrArray, form: Callable[..., FloatOrArray]
) -> FloatOrArray:
    """Integral of ``form(k, s, r_opt(k, s, p), p)`` over the optimality
    region ``(lower, split) U (split, 1)`` in ``k``, plain ``dk`` measure.

    Arrays ``p`` and ``s`` (broadcast against each other) give one integral
    per element, and the whole batch is one adaptive call: one integrand
    call unless a panel refines, whatever the batch size."""
    p, s = _region_domain(p, s)
    shape = np.broadcast(p, s).shape
    if shape:
        p, s = (np.broadcast_to(x, shape).ravel() for x in (p, s))
    lower, split = region_bounds(p, s)

    def integrand(k: np.ndarray, s: np.ndarray, p: np.ndarray) -> np.ndarray:
        return form(k, s, r_opt(k, s, p), p)

    total = adaptive_gauss_legendre(integrand, lower, split, 1.0, tol=1e-11, args=(s, p))
    return total.reshape(shape) if shape else total


def avg_f_opt0(p: FloatOrArray, s: FloatOrArray) -> FloatOrArray:
    """Optimally protected dealer-outcome-0 fidelity, averaged over ``k``.

    Integrates ``f0_ww(k, s, r_opt(k, s, p), p)`` over the optimality
    region ``(lower, split) U (split, 1)`` with the plain ``dk`` measure,
    i.e. without renormalizing by the region length, matching the
    convention of the other secret averages (whose range is all of
    ``[0, 1]``). See ``avg_f_opt0_closed_form`` for the transcribed
    log-form expression and the validation report for how the two compare.
    Takes floats or arrays; an array with any element outside
    ``0 < p < 1``, ``s < 1`` raises.
    """
    return _region_average(p, s, f0_ww)


def avg_f_opt0_closed_form(p: float, s: float) -> float:
    """Transcribed log-form expression for the optimally protected average.

    Kept verbatim as a cross-check target. Its value does not reproduce
    the direct integral ``avg_f_opt0`` (the gap reaches ~0.3 over parts of
    the domain); the validation suite therefore reports the discrepancy
    instead of asserting agreement.
    """
    p, s = _region_domain(p, s)
    sb = 1.0 - s
    u = math.sqrt(1.0 - p * p * sb * sb)
    v = 1.0 + p - p * s
    w = math.sqrt(2.0 / v - 1.0)
    log_a = math.log(
        p * sb * (1.0 - u + p * sb * (1.0 + u - 2.0 * w) + 2.0 * p * p * sb * sb * w)
    )
    log_b = math.log((2.0 - p * p * sb * sb - 2.0 * u) * v)
    term1 = (8.0 - p * sb * (p * sb + 2.0) * (4.0 - 3.0 * p * sb)) * u
    term2 = 2.0 * p * p * sb * sb * v * v * (log_a - log_b)
    return (term1 + term2) / (8.0 * u * v * v)


def avg_success_opt0(p: FloatOrArray, s: FloatOrArray) -> FloatOrArray:
    """Survival probability at optimal reversal, averaged over ``k``.

    Same integration convention as ``avg_f_opt0``: ``sp2`` with
    ``r = r_opt(k, s, p)`` integrated over the optimality region. Takes
    floats or arrays, as ``avg_f_opt0`` does.
    """
    return _region_average(p, s, sp2)


def _check_off_pole(p: float, r: float) -> None:
    """Refuse ``(p, r)`` within ``POLE_ATOL`` of the pole at ``pr = 1``,
    where cancellation would cost more accuracy than the protected
    fidelities are held to (see ``tolerances.POLE_ATOL``)."""
    if abs(1.0 - p * r) < POLE_ATOL:
        raise DomainError(f"p={p}, r={r} is within {POLE_ATOL:g} of the singular point pr = 1")


def f1_ww(k: float, r: float, p: float) -> float:
    """Protected fidelity on the dealer-outcome-1 branches.

    ``(p(k + r - kr) - 1)/(pr - 1)``: the forward strength drops out
    entirely, and ``r = 1`` restores fidelity one for every ``k`` and
    ``p < 1`` (at the price of a vanishing branch probability).
    """
    k = _unit(k, "k")
    r = _unit(r, "r")
    p = _unit(p, "p")
    _check_off_pole(p, r)
    return (p * (k + r - k * r) - 1.0) / (p * r - 1.0)


def avg_f1(p: float, r: float) -> float:
    """Dealer-outcome-1 protected fidelity averaged over ``k``.

    ``(p + pr - 2)/(2pr - 2)``, again singular only at ``pr = 1``; both
    forms raise ``DomainError`` within ``POLE_ATOL`` of it.
    """
    p = _unit(p, "p")
    r = _unit(r, "r")
    _check_off_pole(p, r)
    return (p + p * r - 2.0) / (2.0 * p * r - 2.0)


def optimal_line(p: float) -> float:
    """Fidelity ceiling reached at full reversal strength (``r = 1``)."""
    return f1_ww(0.5, 1.0, p)
