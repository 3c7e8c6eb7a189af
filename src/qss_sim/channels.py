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
    both qubits.
    """
    return DensityMatrix(_apply_channel_matrix(rho.matrix, ch.operators, qubit, rho.num_qubits))


def _apply_channel_matrix(mat: np.ndarray, operators: Sequence, qubit: int, m: int) -> np.ndarray:
    """``sum_i E_i mat E_i^dag`` for 2x2 operators ``E_i`` on one qubit.

    The one place a single-qubit operation meets the register, branch walk
    included. Each term acts on the qubit's tensor axis at O(4^m), not
    O(8^m): ``E X = d X + a flip(X)`` on the row slices, ``d = (E00, E11)``,
    ``a = (E01, E10)``, then the same on the columns with ``conj(E)``. A
    half with both entries zero is left out (one multiply for a diagonal
    ``E``); against the full sum only an intermediate zero's sign can
    differ. For real ``E`` this rounds as a dense ``embed(E) @ mat @
    embed(E)^dag`` does without fused multiply-add.

    ``mat`` may also be a ``(..., 2^m, 2^m)`` stack of registers: every
    register gets the same elementwise arithmetic, so each result has the
    bytes it would have on its own.
    """
    rows = mat.reshape(-1, 2, 2 ** (m - qubit - 1) * 2**m)  # axis 1: the qubit's row bit
    half, out, part = np.empty_like(rows), np.empty_like(mat), None
    cols = half.reshape(-1, 2, 2 ** (m - qubit - 1))  # axis 1: its column bit
    for n, e in enumerate(operators):
        term = np.empty_like(cols) if n else out.reshape(cols.shape)
        for src, op, dst in ((rows, e, half), (cols, e.conj(), term)):
            # (coefficients, slice step): d on X, a on flip(X); a zero half is left out unless both are
            halves = [(c, step) for c, step in ((op.diagonal(), 1), (op[:, ::-1].diagonal(), -1)) if c.any()]
            (c, step), *rest = halves or [(op.diagonal(), 1)]
            np.multiply(c[:, None], src[:, ::step], out=dst)
            for c, step in rest:
                part = np.empty_like(mat) if part is None else part
                dst += np.multiply(c[:, None], src[:, ::step], out=part.reshape(dst.shape))
        if n:
            out += term.reshape(out.shape)
    return out


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
    """Max-norm residual of the completeness sum ``sum_i K_i^dag K_i - I``."""
    dim = operators[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for k in operators:
        acc += dagger(k) @ k
    return float(np.max(np.abs(acc - np.eye(dim))))
