"""Gauss-Legendre quadrature over finite intervals.

64 nodes integrate the smooth rational/algebraic integrands appearing here
to well below 1e-9. Integrands that involve the optimal reversal strength
are only piecewise smooth near the region boundary, so an adaptive
bisection wrapper, which takes breakpoints, is provided for them.

Integrands take an array: ``f`` receives every node of every panel in one
call and returns their values elementwise, so a batch of panels costs one
integrand evaluation. Each panel's weighted sum is taken left to right
from ``0.0``, node by node, which is the order of a scalar loop over the
nodes; batching therefore never changes a result's bytes. Non-finite
ends raise ``ValueError``.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from itertools import islice
from typing import Callable, Sequence

import numpy as np

__all__ = ["gauss_legendre", "adaptive_gauss_legendre"]


@lru_cache(maxsize=None)
def _nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    a: float | Sequence[float],
    b: float | Sequence[float],
    n: int = 64,
) -> float | list[float]:
    """Fixed-order Gauss-Legendre integral of ``f`` over ``[a, b]``.

    ``f`` is called once, on the array of nodes, and must return its values
    elementwise in the same shape. ``a`` and ``b`` are either floats, giving
    one integral as a float, or equal-length sequences of panel ends, giving
    a list with one integral per panel ``[a[i], b[i]]`` from the same single
    call of ``f`` (nodes of shape ``(panels, n)``). An empty or reversed
    panel integrates to ``0.0`` and contributes no nodes. Each panel's
    ``w * f`` terms are summed left to right from ``0.0``.
    """
    x, w = _nodes(n)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"ends must be finite, got {a}, {b}")
        if b <= a:
            return 0.0
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return float(half * _weighted_sum(w, f(mid + half * x)))
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError(f"panel ends must be equal-length sequences, not {lo.shape}, {hi.shape}")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError(f"ends must be finite, got {a}, {b}")
    out = np.zeros(lo.shape)
    live = hi > lo
    if live.any():
        mid, half = 0.5 * (lo[live] + hi[live]), 0.5 * (hi[live] - lo[live])
        out[live] = half * _weighted_sum(w, f(mid[:, None] + half[:, None] * x))
    return out.tolist()


def _weighted_sum(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum(w * values)`` over the last axis, left to right from ``0.0``.

    ``np.cumsum`` accumulates in order; adding ``0.0`` afterwards turns a
    ``-0.0`` total into ``0.0``, as a loop starting from ``0.0`` would.
    """
    return np.cumsum(w * np.asarray(values, dtype=float), axis=-1)[..., -1] + 0.0


def adaptive_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    *points: float,
    tol: float = 1e-10,
    n: int = 64,
    max_depth: int = 12,
) -> float:
    """Bisection-refined Gauss-Legendre integral over the pieces
    ``[points[i], points[i + 1]]``, added left to right with ``+``.

    Each panel is accepted when halving it changes the estimate by less
    than its share of ``tol`` (each piece has all of it). The whole, left
    and right panels of every non-empty piece come from one call of ``f``;
    each deeper level costs one two-panel call per refined panel. An empty
    or reversed piece adds ``0.0``.
    """
    if len(points) < 2 or not all(map(math.isfinite, points)):
        raise ValueError(f"need two or more finite points, got {points}")
    if not (0.0 < tol < math.inf and n >= 1):
        raise ValueError(f"need a finite tol > 0 and n >= 1, got {tol}, {n}")

    def settle(lo: float, hi: float, whole: float, left: float, right: float,
               budget: float, depth: int) -> float:
        if depth >= max_depth or abs(left + right - whole) <= budget:
            return left + right
        mid = 0.5 * (lo + hi)
        return refine(lo, mid, left, budget / 2, depth + 1) + refine(
            mid, hi, right, budget / 2, depth + 1
        )

    def refine(lo: float, hi: float, whole: float, budget: float, depth: int) -> float:
        mid = 0.5 * (lo + hi)
        left, right = gauss_legendre(f, (lo, mid), (mid, hi), n)
        return settle(lo, hi, whole, left, right, budget, depth)

    pieces = list(zip(points, points[1:]))
    live = [(a, 0.5 * (a + b), b) for a, b in pieces if b > a]
    lo = [end for a, mid, b in live for end in (a, a, mid)]
    hi = [end for a, mid, b in live for end in (b, mid, b)]
    estimates = iter(gauss_legendre(f, lo, hi, n))
    totals = [settle(a, b, *islice(estimates, 3), tol, 0) if b > a else 0.0 for a, b in pieces]
    return reduce(operator.add, totals)
