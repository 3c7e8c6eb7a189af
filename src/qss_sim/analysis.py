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

A closed form takes floats and returns a Python float. The pointwise
forms ``f_pd``, ``f_ad``, ``f_ad_outcome1``, ``f0_ww``, ``f1_ww``, ``sp2``,
``r_opt`` and ``in_validity_region`` also take ``numpy`` arrays (broadcast
against each other and against floats) and return one value per element,
so a quadrature evaluates all its nodes, and ``validate`` an argmax's whole
grid, in one call; an array gets the same domain checks on every element
and raises ``DomainError`` naming the first element that fails them. The
array expressions keep the scalar operand order, and write squares as
products, so each element equals the scalar call's value bit for bit.

The averages over the optimality region depend on ``(p, s)`` only through
``P = p(1-s)``: ``avg_f_opt0_closed_form`` is a function of ``P`` alone,
and ``avg_success_opt0`` is ``((1-p)(1-s))^2`` times one. Both are exact;
``avg_f_opt0`` is the direct quadrature that defines the fidelity average
and that the exact form is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import adaptive_gauss_legendre, gauss_legendre
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


def f_pd(k: FloatOrArray, q: FloatOrArray) -> FloatOrArray:
    """Reconstruction fidelity under phase damping of strength ``q``.

    ``k^2 + (1-k)^2 + 2(1-q)^2 k(1-k)``; the same value holds on every
    measurement branch because the corrections map all of them onto one
    another exactly. Takes floats or arrays. Each square is a product: a
    float's ``** 2`` is ``pow``, which can round differently from the
    product an array's ``** 2`` is.
    """
    k = _unit(k, "k")
    q = _unit(q, "q")
    kb, qb = 1 - k, 1 - q
    return k * k + kb * kb + 2 * (qb * qb) * k * kb


def avg_f_pd(q: float) -> float:
    """Phase-damping fidelity averaged uniformly over ``k``.

    Equals ``1 - 2q/3 + q^2/3``; evaluated as ``(2 + (1-q)^2)/3`` so the
    endpoints come out exact: 1 at ``q=0`` and 2/3 at ``q=1``.
    """
    q = _unit(q, "q")
    return (2.0 + (1.0 - q) ** 2) / 3.0


def f_ad(k: FloatOrArray, p: FloatOrArray) -> FloatOrArray:
    """Amplitude-damping fidelity on the dealer-outcome-0 branches.

    ``k + (1-p)(1-k)``: the ``|0>`` component survives untouched, the
    ``|1>`` component decays. Takes floats or arrays.
    """
    k = _unit(k, "k")
    p = _unit(p, "p")
    return k + (1.0 - p) * (1.0 - k)


def f_ad_outcome1(k: FloatOrArray, p: FloatOrArray) -> FloatOrArray:
    """Amplitude-damping fidelity on the dealer-outcome-1 branches.

    After the bit-flip correction these branches give ``1 - p k``, not the
    outcome-0 value; the two expressions share the average ``1 - p/2``.
    Frozen from the simulator (the four branch states cannot be mapped onto
    a single one by unitaries under amplitude damping). Takes floats or
    arrays.
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


def _region_domain(p: float, s: float) -> tuple[float, float]:
    """``(p, s)`` checked for the averages over the optimality region."""
    p = _unit(p, "p")
    s = _unit(s, "s")
    if not (0.0 < p < 1.0 and s < 1.0):
        raise DomainError(f"need 0 < p < 1 and s < 1, got p={p}, s={s}")
    return p, s


def avg_f_opt0(p: float, s: float) -> float:
    """Optimally protected dealer-outcome-0 fidelity, averaged over ``k``.

    Integrates ``f0_ww(k, s, r_opt(k, s, p), p)`` over the optimality
    region ``(lower, split) U (split, 1)`` with the plain ``dk`` measure,
    i.e. without renormalizing by the region length, matching the
    convention of the other secret averages (whose range is all of
    ``[0, 1]``). This quadrature defines the average; the figures use its
    exact form, ``avg_f_opt0_closed_form``. Each node's ``r_opt`` is clipped
    into ``[0, 1]``: below ``P = p(1-s)`` of about 1e-17 it rounds to a few
    ulps under 0 at some nodes.
    """
    p, s = _region_domain(p, s)
    lower, split = region_bounds(p, s)

    def integrand(k: np.ndarray) -> np.ndarray:
        return f0_ww(k, s, np.clip(r_opt(k, s, p), 0.0, 1.0), p)

    return adaptive_gauss_legendre(integrand, lower, split, 1.0, tol=1e-11)


def avg_f_opt0_closed_form(p: float, s: float) -> float:
    """Exact value of ``avg_f_opt0``, a function of ``P = p(1-s)`` alone.

    ``(8 + 8P - 2P^2 - 3P^3)/(8(1+P)^2)
    + P^2/(4u) [2 ln((1+u)/(1+P+u)) + ln(2(1+P)/P)]`` with
    ``u = sqrt(1 - P^2)``. The bracket is evaluated as the one ``log1p``
    it equals, whose argument has no cancellation: the two logs cancel as
    ``P -> 1``. The paper's printed form has ``8 - P(P+2)(4-3P)`` for the
    polynomial and a different bracket, and misses the integral by up to 0.3.
    Where ``P^2`` underflows to 0 the log term, below ``P^2 ln(4/P)``, is far
    under half an ulp of the polynomial, which is returned alone: there
    ``x``, about ``2/P``, may overflow (from ``P`` below about 1e-308) or
    divide by a ``P`` that rounded to 0.
    """
    p, s = _region_domain(p, s)
    P = p * (1.0 - s)
    u = math.sqrt((1.0 - P) * (1.0 + P))
    poly = (8.0 + 8.0 * P - 2.0 * P * P - 3.0 * P**3) / (8.0 * (1.0 + P) ** 2)
    if P * P == 0.0:
        return poly
    x = 2.0 * (1.0 + P) * ((1.0 - P) * (2.0 + P) + (2.0 - P) * u) / (P * (1.0 + P + u) ** 2)
    return poly + P * P / (4.0 * u) * math.log1p(x)


def _success_integrand(v: np.ndarray, P: float) -> np.ndarray:
    """The success average's integrand in ``v = sqrt(1 - P^2 + P^2/k)``,
    which maps the optimality region onto ``[1, 1+P]``."""
    return (v + 1.0) * (1.0 + 2.0 * P + P * P + 2.0 * P * v - v * v) / (
        v * (v + 1.0 - P) ** 2 * (v * v - 1.0 + P * P) ** 2
    )


def _success_form(P: float) -> float:
    """``P G(P)``, with ``G`` the integral of ``_success_integrand`` over
    ``[1, 1+P]``.

    Exact below ``P = 1/2``, with ``e = 1-P`` and ``u = sqrt(1-P^2)``. Above
    it the form's ``e^-4`` terms cancel ever worse (2.5e-8 relative error at
    ``P = 0.9``), so four 16-node panels integrate ``G`` instead: the
    rounded Gauss-Legendre weights are biased, and the error that causes
    grows with how much the integrand varies over a panel (3.6e-15 for one
    32-node panel, 1.2e-15 for these four).
    """
    if P >= 0.5:
        edges = [1.0 + P * i / 4 for i in range(5)]
        panels = gauss_legendre(lambda v: _success_integrand(v, P), edges[:-1], edges[1:], n=16)
        return P * math.fsum(panels)
    e = 1.0 - P
    u = math.sqrt(e * (1.0 + P))
    return (
        P * (math.log1p(P) + P * math.log1p(-0.5 * P)) / e**4
        - P * P * (1.0 + P) / (4.0 * e**3 * (2.0 - P))
        - P * (math.log(2.0 * (1.0 + P)) - math.log(P)) / (2.0 * e**3)
        + 1.0 / (e * e * (1.0 + P))
        + P * (math.log1p(u) - math.log(P)) / (4.0 * e * e * u * (1.0 + P))
    )


def avg_success_opt0(p: float, s: float) -> float:
    """Survival probability at optimal reversal, averaged over ``k``.

    Same integration convention as ``avg_f_opt0``: the integral of ``sp2``
    with ``r = r_opt(k, s, p)`` over the optimality region. Exact, as
    ``((1-p)(1-s))^2`` times a function of ``P = p(1-s)`` alone (see
    ``_success_form``).
    """
    p, s = _region_domain(p, s)
    return ((1.0 - p) * (1.0 - s)) ** 2 * _success_form(p * (1.0 - s))


_POLE_MESSAGE = f"p={{}}, r={{}} is within {POLE_ATOL:g} of the singular point pr = 1"


def _check_off_pole(p: FloatOrArray, r: FloatOrArray) -> None:
    """Refuse ``(p, r)`` within ``POLE_ATOL`` of the pole at ``pr = 1``,
    where cancellation would cost more accuracy than the protected
    fidelities are held to (see ``tolerances.POLE_ATOL``); an array names
    its first such element."""
    ok = abs(1.0 - p * r) >= POLE_ATOL
    if ok is not True:  # an array, or a float on the pole; a float off it costs no call
        _require(ok, _POLE_MESSAGE, p, r)


def f1_ww(k: FloatOrArray, r: FloatOrArray, p: FloatOrArray) -> FloatOrArray:
    """Protected fidelity on the dealer-outcome-1 branches.

    ``(p(k + r - kr) - 1)/(pr - 1)``: the forward strength drops out
    entirely, and ``r = 1`` restores fidelity one for every ``k`` and
    ``p < 1`` (at the price of a vanishing branch probability). Takes
    floats or arrays.
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
