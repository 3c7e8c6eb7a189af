"""Maximization used to validate the closed-form optima.

Three maximizers are provided:

* a scalar maximizer (coarse grid plus golden-section refinement) used to
  check the closed-form optimal reversal strength against a numeric argmax;
* a derivative-free search over single-qubit correction unitaries
  (three-angle grid plus coordinatewise refinement) used to check that the
  Pauli correction table is optimal among secret-independent corrections;
* ``best_correction``, the exact global optimum of that same objective,
  which certifies the table value without a search.

Both searches run one golden-section loop, ``_golden_max``, over arrays of
brackets that step together (Kiefer's search needs only elementwise
compares), so each step is one call of the objective whatever the number
of brackets; every element gets the steps and the bits of a scalar loop
on its own bracket. ``ScalarObjective.fn`` is therefore called on arrays,
not floats, and may describe a whole batch of objectives: ``validate``
maximizes ``f0_ww`` over ``r`` at every grid point in one call.

The correction search scores a candidate unitary by the average fidelity it
achieves over the family of unknown secrets: uniform in the population
``k`` and uniform in the relative phase, i.e. Haar-distributed pure qubits.
Averaging over the real-amplitude slice alone would be too weak a notion of
"unknown" -- under amplitude damping a fixed small rotation exploits the
common phase of that slice and beats the Pauli table there, while over the
full family the Pauli table is optimal. A secret-dependent unitary would
score higher still (its ceiling is the largest eigenvalue of the branch
state) but is not operationally available to a reconstructor who does not
know the secret.

The score of a unitary ``U`` is ``Re sum_n w_n <t_n| U rho_n U^dag |t_n>``
over the quadrature nodes ``n``. The branch state ``rho_n`` is the branch's
linear map (``protocol.branch_maps``, fixed by one simulator run on four
stacked inputs) evaluated at the secret ``t_n`` and normalised by its trace,
so building an objective costs that one run whatever the number of nodes. The
score is a quadratic form in ``U``:
``Re sum K[a,b,c,d] U[a,b] conj(U[d,c])`` with the 2x2x2x2 kernel
``K = sum_n w_n conj(t_n[a]) rho_n[b,c] t_n[d]``, so the node axis is
contracted once per objective and scoring a unitary costs 16 products
whatever the number of nodes. Writing ``U = q0 I - i (q1 X + q2 Y + q3 Z)``
for a unit quaternion ``q`` turns the score into ``q^T Q q`` with a real
symmetric 4x4 ``Q``; its largest eigenvalue is the maximum over all
unitaries (the quaternion form of the Kabsch / orthogonal Procrustes
problem on the Bloch vectors), and its eigenvector is the optimal unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .linalg import ID2, PAULI_X, PAULI_Y, PAULI_Z, su2
from .protocol import (
    ZERO_BRANCH_ATOL,
    NoiseSpec,
    ProtocolConfig,
    Secret,
    Wmrqm,
    branch_maps,
    correction,
)
from .quadrature import _nodes

__all__ = [
    "ScalarObjective",
    "UnitaryObjective",
    "CorrectionSearchResult",
    "maximize_scalar",
    "correction_objective",
    "optimize_correction",
    "best_correction",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Points of ``maximize_scalar``'s coarse grid; the golden-section search
# refines within one grid step of the best of them.
_SCALAR_GRID = 64


@dataclass(frozen=True)
class ScalarObjective:
    """Function to maximize on a closed interval, or a batch of them.

    ``fn`` is called on arrays and must answer elementwise: first on the
    ``(grid,)`` array of grid points, then on arrays of points of shape
    ``batch + (1,)``. A scalar objective returns ``(grid,)`` and ``batch``
    is ``()``; a batched one broadcasts its own parameters with shape
    ``batch + (1,)``, so it returns ``batch + (grid,)`` on the grid.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if not self.upper > self.lower:
            raise ValueError(f"degenerate interval [{self.lower}, {self.upper}]")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


def _golden_max(
    f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximum of ``f`` on each bracket ``[a[i], b[i]]``.

    The brackets step together, one call of ``f`` per step on an array of
    points; a bracket narrower than ``tol`` is frozen while the others go on
    (``f`` still sees a point of it, one it has already been given). Each
    element takes the steps, and gets the bits, of a scalar loop on its
    own bracket.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    live = b - a > tol
    while live.any():
        left = live & (fc > fd)  # the maximum is in [a, d]: keep c as the new d
        right = live & ~left  # it is in [c, b]: keep d as the new c
        b = np.where(left, d, b)
        a = np.where(right, c, a)
        c, d, fc, fd = (
            np.where(right, d, c), np.where(left, c, d), np.where(right, fd, fc), np.where(left, fc, fd)
        )
        x = np.where(left, b - _INVPHI * (b - a), np.where(right, a + _INVPHI * (b - a), c))
        fx = f(x)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
        live = b - a > tol
    x = 0.5 * (a + b)
    return x, f(x)


def maximize_scalar(obj: ScalarObjective) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Global maximum via a coarse grid of ``_SCALAR_GRID`` points plus
    golden-section refinement.

    Exact for unimodal objectives; for multimodal ones the grid picks the
    basin. Boundary maxima are found to the same tolerance. ``obj.fn`` is
    called once on the whole grid and once per golden step, for every
    objective of a batch together (see ``ScalarObjective``). Returns
    ``(argmax, max)`` as floats for a scalar objective and as arrays of
    shape ``batch`` for a batched one.
    """
    xs = np.linspace(obj.lower, obj.upper, _SCALAR_GRID)
    values = obj.fn(xs)
    best = np.argmax(values, axis=-1)[..., np.newaxis]
    x_best = xs[best]
    f_best = np.take_along_axis(values, best, axis=-1)
    step = (obj.upper - obj.lower) / (_SCALAR_GRID - 1)
    a = np.maximum(obj.lower, x_best - step)
    b = np.minimum(obj.upper, x_best + step)
    x, fx = _golden_max(obj.fn, a, b, obj.tolerance)
    grid_wins = f_best > fx
    x, fx = np.where(grid_wins, x_best, x)[..., 0], np.where(grid_wins, f_best, fx)[..., 0]
    if x.ndim:
        return x, fx
    return float(x), float(fx)


@dataclass(frozen=True)
class UnitaryObjective:
    """Average reconstruction fidelity of one branch over the secret family.

    ``states[i]`` is the normalized branch state before any correction for
    the secret ``targets[i]``; ``weights`` are the quadrature weights of the
    uniform average over the family (they sum to one).
    ``branch_probabilities`` records how likely each node's branch was.
    """

    weights: np.ndarray
    targets: np.ndarray
    states: np.ndarray
    branch_probabilities: np.ndarray

    def value(self, unitary: np.ndarray) -> float:
        """Average ``<psi| U rho U^dag |psi>`` over the family."""
        return float(self.batch_values(unitary[np.newaxis])[0])

    @cached_property
    def kernel(self) -> np.ndarray:
        """``K[a,b,c,d] = sum_n w_n conj(t_n[a]) rho_n[b,c] t_n[d]``.

        The objective with its node axis contracted, computed on first use.
        """
        return np.einsum(
            "n,na,nbc,nd->abcd", self.weights, self.targets.conj(), self.states, self.targets
        )

    def batch_values(self, unitaries: np.ndarray) -> np.ndarray:
        """Vectorized ``value`` over a stack of unitaries.

        Contracts each unitary against ``kernel``:
        ``Re sum K[a,b,c,d] U[a,b] conj(U[d,c])``, with no per-node work.
        """
        return np.einsum("abcd,gab,gdc->g", self.kernel, unitaries, unitaries.conj()).real


def _unit_interval_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _nodes(n)
    return 0.5 * (x + 1.0), 0.5 * w


def correction_objective(
    alice_outcome: int,
    collaborator_outcomes: Sequence[str],
    channel: NoiseSpec | tuple[NoiseSpec | None, ...] | None = None,
    wmrqm: Wmrqm | None = None,
    parties: int = 2,
    nodes: int = 33,
    phases: int = 8,
) -> UnitaryObjective:
    """Build the search objective for one measurement branch.

    Evaluates the branch's map from ``branch_maps`` (one batched run)
    at each quadrature node of the secret family (Gauss-Legendre in the
    population ``k``, uniform grid in the relative phase -- the integrand
    is a trigonometric polynomial of degree two in the phase, so five or
    more equispaced phases integrate it exactly), and records the
    normalised branch state before any correction alongside the target
    secret and the branch probability.
    """
    if phases < 5:
        raise ValueError("need at least 5 phase nodes for an exact phase average")
    if nodes < 1:
        raise ValueError(f"need at least 1 population node, got {nodes}")
    if len(collaborator_outcomes) != parties - 1:
        raise ValueError(
            f"{parties} parties need {parties - 1} helper outcome(s), "
            f"got {len(collaborator_outcomes)}"
        )
    correction(alice_outcome, collaborator_outcomes)  # rejects unknown outcome labels
    cfg = ProtocolConfig(
        parties=parties, secrets=(Secret(1.0, 0.0),), channel=channel, wmrqm=wmrqm
    )
    branch_map = branch_maps(cfg)[(alice_outcome, tuple(collaborator_outcomes))]
    ks, k_weights = _unit_interval_nodes(nodes)
    phis = 2.0 * np.pi * np.arange(phases) / phases
    targets = np.stack(
        [
            np.repeat(np.sqrt(ks), phases),
            (np.sqrt(1.0 - ks)[:, np.newaxis] * np.exp(1j * phis)).ravel(),
        ],
        axis=1,
    )
    unnormalised = np.einsum("bcij,ni,nj->nbc", branch_map, targets, targets.conj())
    probs = np.trace(unnormalised, axis1=1, axis2=2).real
    if np.any(probs <= ZERO_BRANCH_ATOL):
        raise ValueError(
            f"branch ({alice_outcome}, {collaborator_outcomes}) has zero probability"
        )
    return UnitaryObjective(
        weights=np.repeat(k_weights / phases, phases),
        targets=targets,
        states=unnormalised / probs[:, np.newaxis, np.newaxis],
        branch_probabilities=probs,
    )


@dataclass(frozen=True)
class CorrectionSearchResult:
    """Best correction found, with the per-restart maxima for diagnostics."""

    unitary: np.ndarray
    value: float
    restart_values: tuple[float, ...]


def optimize_correction(
    obj: UnitaryObjective, restarts: int = 8, grid: int = 16, sweeps: int = 4
) -> CorrectionSearchResult:
    """Best secret-independent single-qubit correction for a branch.

    Searches the three-angle unitary family on a coarse grid, then refines
    the ``restarts`` best grid points by cyclic golden-section sweeps over
    the angles. The restarts step together: each golden step scores one
    trial unitary per restart in one ``batch_values`` call. Global phase is
    not parameterized; it cannot change the objective.
    """
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    lams = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    combos = np.array(np.meshgrid(thetas, phis, lams, indexing="ij")).reshape(3, -1).T
    coarse = obj.batch_values(su2(*combos.T))
    order = np.argsort(coarse)[::-1][:restarts]

    steps = (np.pi / (grid - 1), 2.0 * np.pi / grid, 2.0 * np.pi / grid)
    angles, values = combos[order], coarse[order]
    for _ in range(sweeps):
        for coord in range(3):
            def along(x: np.ndarray, coord: int = coord, angles: np.ndarray = angles) -> np.ndarray:
                trial = angles.copy()
                trial[:, coord] = x
                return obj.batch_values(su2(*trial.T))

            x, fx = _golden_max(
                along, angles[:, coord] - steps[coord], angles[:, coord] + steps[coord], 1e-10
            )
            better = fx >= values
            angles[better, coord] = x[better]
            values = np.where(better, fx, values)

    best = int(np.argmax(values))
    return CorrectionSearchResult(
        unitary=su2(*angles[best]),
        value=float(values[best]),
        restart_values=tuple(values.tolist()),
    )


# U = sum_k q_k _QUATERNION_BASIS[k] is in SU(2) for every unit real q
_QUATERNION_BASIS = np.array([ID2, -1j * PAULI_X, -1j * PAULI_Y, -1j * PAULI_Z])


def best_correction(obj: UnitaryObjective) -> CorrectionSearchResult:
    """Exact best secret-independent single-qubit correction for a branch.

    The objective restricted to ``U = sum_k q_k B_k`` (``B = I, -iX, -iY,
    -iZ``, ``q`` a unit real 4-vector) is ``q^T Q q``; every unitary is
    such a ``U`` up to a global phase, which the objective ignores. So the
    maximum over all unitaries is the largest eigenvalue of ``Q``, returned
    as ``value``, and the unitary built from its eigenvector attains it. No
    restarts are run, so ``restart_values`` is empty.
    """
    basis = _QUATERNION_BASIS
    gram = np.einsum("abcd,kab,ldc->kl", obj.kernel, basis, basis.conj()).real
    values, vectors = np.linalg.eigh(gram)
    unitary = np.einsum("k,kab->ab", vectors[:, -1], basis)
    return CorrectionSearchResult(unitary=unitary, value=float(values[-1]), restart_values=())
