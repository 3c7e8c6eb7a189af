"""Damping channels and weak/reverse measurement operators.

Two single-qubit noise models are provided as Kraus channels:

* phase damping (strength ``q``): kills off-diagonal coherence, leaves
  populations alone;
* amplitude damping (strength ``p``): decays ``|1>`` toward ``|0>``,
  fixing ``|0>``.

On top of these sit the non-projective measurement operators used for
fidelity protection: a forward weak measurement of strength ``s`` whose
null outcome biases the state toward ``|0>`` reversibly (the click outcome
collapses onto ``|1>`` and is discarded), and a reverse measurement of
strength ``r`` that biases back toward ``|1>`` after the noise has acted.

The simulator applies ``forward_null`` and ``reverse`` as single Kraus
operators, keeping only the post-selected branch: the state stays
unnormalized and its trace is the success probability, because the success
probabilities of the protection scheme are defined as traces of
unnormalized states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .linalg import DensityMatrix, _readonly, dagger
from .tolerances import LINALG_ATOL

__all__ = [
    "KrausChannel",
    "FORWARD_NULL",
    "FORWARD_CLICK",
    "REVERSE",
    "pdc",
    "adc",
    "apply_channel",
    "weak_op",
    "validate_cptp",
]

FORWARD_NULL = "forward_null"
FORWARD_CLICK = "forward_click"
REVERSE = "reverse"


def _check_strength(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class KrausChannel:
    """Ordered Kraus operators of a completely positive trace-preserving map,
    checked for completeness at construction."""

    operators: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ops = tuple(_readonly(k) for k in self.operators)
        object.__setattr__(self, "operators", ops)
        residual = validate_cptp(ops)
        if residual > LINALG_ATOL:
            raise ValueError(f"Kraus operators are not complete: residual {residual}")


def pdc(q: float) -> KrausChannel:
    """Phase damping channel of strength ``q``.

    Kraus operators ``sqrt(1-q) I``, ``sqrt(q)|0><0|``, ``sqrt(q)|1><1|``.
    Diagonal states are fixed points for every ``q``.
    """
    q = _check_strength(q, "phase damping strength")
    k0 = np.sqrt(1.0 - q) * np.eye(2)
    k1 = np.array([[np.sqrt(q), 0.0], [0.0, 0.0]])
    k2 = np.array([[0.0, 0.0], [0.0, np.sqrt(q)]])
    return KrausChannel((k0, k1, k2))


def adc(p: float) -> KrausChannel:
    """Amplitude damping channel of strength ``p``.

    Kraus operators ``|0><0| + sqrt(1-p)|1><1|`` and ``sqrt(p)|0><1|``.
    ``|0><0|`` is a fixed point for every ``p``; this is the property the
    weak-measurement protection scheme exploits.
    """
    p = _check_strength(p, "amplitude damping strength")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]])
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]])
    return KrausChannel((k0, k1))


def apply_channel(rho: DensityMatrix, ch: KrausChannel, qubit: int) -> DensityMatrix:
    """Apply a single-qubit channel to one qubit of a register state.

    Computes ``sum_i E_i rho E_i^dag`` with each ``E_i`` the Kraus operator
    acting on the qubit's tensor axis. Trace is preserved exactly; applying the
    same channel to two qubits in sequence equals the double Kraus sum over
    both qubits. ``ValueError`` if ``qubit`` is not a register position or
    an operator is not 2x2.
    """
    if not 0 <= qubit < rho.num_qubits:
        raise ValueError(f"qubit {qubit} is outside a {rho.num_qubits}-qubit register")
    shapes = [k.shape for k in ch.operators]
    if any(shape != (2, 2) for shape in shapes):
        raise ValueError(f"a single-qubit channel needs 2x2 Kraus operators, got shapes {shapes}")
    return DensityMatrix(_apply_channel_matrix(rho.matrix, ch.operators, qubit, rho.num_qubits))


def _apply_channel_matrix(mat: np.ndarray, operators: Sequence, qubit: int, m: int) -> np.ndarray:
    """``sum_i E_i mat E_i^dag`` for 2x2 operators ``E_i`` on one qubit, as a
    new array.

    Recycling's resets and ``apply_channel`` call it, and the tests' flat
    references; a protocol round runs its passes on the register's support
    and its branch walk on kept blocks (``qss_sim.protocol``), with the same
    products. It works on the qubit's four (row bit, column bit) blocks
    ``X_kl`` at O(4^m), not O(8^m), and a product whose coefficient is zero
    is left out: block ``(i, j)`` of ``E X E^dag`` is ``_half(conj E, j,
    H_i)`` of the row half ``H_i = _half(E, i, X)``. Each block is the first
    term that reaches it plus the later ones, in operator order, and a
    block no term reaches is ``0``. Against the sum over every entry only
    an intermediate zero's sign can differ. For real ``E`` this rounds as a
    dense ``embed(E) @ mat @ embed(E)^dag`` does without fused
    multiply-add.

    ``mat`` may also be a ``(..., 2^m, 2^m)`` stack of registers: every
    register gets the same elementwise arithmetic, so each result has the
    bytes it would have on its own.
    """
    lo, hi = 2**qubit, 2 ** (m - qubit - 1)
    x = mat.reshape(-1, 2, hi, lo, 2, hi)  # axes 1 and 4: the qubit's row and column bit
    out = np.empty_like(mat)
    blocks, reached = out.reshape(x.shape), set()
    for e in operators:
        for i in (0, 1):
            h = _half(e, i, (x[:, 0], x[:, 1]))
            if h is None:
                continue
            for j in (0, 1):
                dst, cols = blocks[:, i, :, :, j], (h[..., 0, :], h[..., 1, :])
                if (i, j) not in reached:
                    if _half(e.conj(), j, cols, out=dst) is not None:
                        reached.add((i, j))
                elif (term := _half(e.conj(), j, cols)) is not None:
                    dst += term
    for i, j in {(0, 0), (0, 1), (1, 0), (1, 1)} - reached:
        blocks[:, i, :, :, j] = 0
    return out


def _half(e: np.ndarray, i: int, parts: Sequence, out: np.ndarray | None = None) -> np.ndarray | None:
    """``sum_k e[i, k] parts[k]`` over the nonzero ``e[i, k]`` of a 2x2
    ``e``, the diagonal entry first, written into ``out`` if one is given;
    ``None`` if row ``i`` is zero."""
    ks = [k for k in (i, 1 - i) if e[i, k] != 0]
    if not ks:
        return None
    acc = np.multiply(e[i, ks[0]], parts[ks[0]], out=out)
    for k in ks[1:]:
        acc += np.multiply(e[i, k], parts[k])
    return acc


def weak_op(kind: str, strength: float) -> np.ndarray:
    """Read-only complex 2x2 matrix of a weak (forward) or reverse
    measurement operator.

    ``forward_null``: diag(1, sqrt(1-s)) -- detector stayed silent.
    ``forward_click``: diag(0, sqrt(s)) -- detector fired, qubit collapsed.
    ``reverse``: diag(sqrt(1-r), 1) -- post-noise reversal.

    The forward pair is complete: ``M0^dag M0 + M1^dag M1 = I``.
    ``forward_null`` and ``reverse`` are invertible for strength < 1 and can
    therefore be undone; ``forward_click`` has no inverse (the qubit is
    gone for good once the detector fires).
    """
    strength = _check_strength(strength, "measurement strength")
    if kind == FORWARD_NULL:
        return _readonly([[1.0, 0.0], [0.0, np.sqrt(1.0 - strength)]])
    if kind == FORWARD_CLICK:
        return _readonly([[0.0, 0.0], [0.0, np.sqrt(strength)]])
    if kind == REVERSE:
        return _readonly([[np.sqrt(1.0 - strength), 0.0], [0.0, 1.0]])
    raise ValueError(f"unknown measurement kind {kind!r}")


def validate_cptp(operators: Sequence[np.ndarray]) -> float:
    """Max-norm residual of the completeness sum ``sum_i K_i^dag K_i - I``;
    ``ValueError`` for an empty list."""
    if not operators:
        raise ValueError("a channel needs at least one Kraus operator")
    dim = operators[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for k in operators:
        acc += dagger(k) @ k
    return float(np.max(np.abs(acc - np.eye(dim))))
