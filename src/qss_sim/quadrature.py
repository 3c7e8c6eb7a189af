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
    than its share of ``tol`` (each piece has all of it). An empty or
    reversed piece adds ``0.0``. The levels of the bisection tree are walked
    together: the whole, left and right panels of every non-empty piece
    come from one call of ``f``, and each deeper level from one more call
    over both halves of every child of every refined panel.
    """
    if len(points) < 2 or not all(map(math.isfinite, points)):
        raise ValueError(f"need two or more finite points, got {points}")
    if not (0.0 < tol < math.inf and n >= 1):
        raise ValueError(f"need a finite tol > 0 and n >= 1, got {tol}, {n}")
    pieces = list(zip(points, points[1:]))
    lo = np.array([a for a, b in pieces if b > a])
    hi = np.array([b for a, b in pieces if b > a])
    whole = None  # the first level also integrates each piece whole
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # (value, refined) per level
    budget, depth = tol, 0
    while lo.size:
        mid = 0.5 * (lo + hi)
        if whole is None:
            starts, stops = [lo, lo, mid], [hi, mid, hi]
        else:
            starts, stops = [lo, mid], [mid, hi]
        *first, left, right = np.array(gauss_legendre(
            f, np.concatenate(starts), np.concatenate(stops), n
        )).reshape(len(starts), -1)
        whole = first[0] if first else whole
        value = left + right
        settled = np.abs(value - whole) <= budget
        refined = np.flatnonzero(~settled & (depth < max_depth))
        levels.append((value, refined))
        # The next level's nodes: the left halves of the refined panels, then
        # their right halves.
        lo = np.concatenate([lo[refined], mid[refined]])
        hi = np.concatenate([mid[refined], hi[refined]])
        whole = np.concatenate([left[refined], right[refined]])
        budget, depth = budget / 2, depth + 1
    # A refined panel's value is its halves' values added, deepest level first.
    for (value, refined), (below, _) in zip(levels[-2::-1], levels[:0:-1]):
        value[refined] = below[:refined.size] + below[refined.size:]
    values = iter(levels[0][0].tolist() if levels else [])
    return reduce(operator.add, [next(values) if b > a else 0.0 for a, b in pieces])
