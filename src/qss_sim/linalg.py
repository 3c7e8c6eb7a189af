"""Dense complex linear algebra for small qubit registers.

Everything here is plain dense ``numpy`` over registers of at most 8 qubits:
the validated state types, ``embed`` (the simulator lifts only the secret's
CNOT with it; ``channels`` applies one-qubit operators on a tensor axis) and
a three-angle ``su2`` parameterization. Kronecker products are ``np.kron``
itself.

Conventions
-----------
Qubit 0 is the most significant bit of a basis-state label, so the basis
state ``|abc>`` of a 3-qubit register sits at index ``4a + 2b + c``. All
operators and states use this fixed ordering; there is no per-call
convention switch.

States are immutable after construction: the wrapped arrays are marked
read-only, so any value can be shared safely; no holder can change it
under another.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tolerances import ATOL

__all__ = [
    "ID2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "MINUS_I_PAULI_Y",
    "KET_0",
    "KET_1",
    "KET_PLUS",
    "KET_MINUS",
    "PureState",
    "DensityMatrix",
    "embed",
    "su2",
    "dagger",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


ID2 = _readonly(np.eye(2))
PAULI_X = _readonly([[0, 1], [1, 0]])
PAULI_Y = _readonly([[0, -1j], [1j, 0]])
PAULI_Z = _readonly([[1, 0], [0, -1]])
MINUS_I_PAULI_Y = _readonly([[0, -1], [1, 0]])

KET_0 = _readonly([1, 0])
KET_1 = _readonly([0, 1])
KET_PLUS = _readonly([1 / np.sqrt(2), 1 / np.sqrt(2)])
KET_MINUS = _readonly([1 / np.sqrt(2), -1 / np.sqrt(2)])


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def _qubit_fidelity(v: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``Re <v|mat|v>`` for qubit vectors ``(..., 2)`` and 2x2 matrices
    ``(..., 2, 2)``, written out elementwise: a BLAS product rounds
    differently on FMA and non-FMA kernels. The last two products keep only
    their real parts, written as ``re * re - im * im``: numpy's complex
    array multiply may fuse one product into that subtraction, its complex
    scalar multiply does not, and every entry of a stack gets the scalar
    formula's bits."""
    row = np.conj(v[..., 0, None]) * mat[..., 0, :] + np.conj(v[..., 1, None]) * mat[..., 1, :]
    r0, r1, v0, v1 = row[..., 0], row[..., 1], v[..., 0], v[..., 1]
    return (r0.real * v0.real - r0.imag * v0.imag) + (r1.real * v1.real - r1.imag * v1.imag)


def _check_norms(norm2: np.ndarray) -> None:
    """Refuse any squared norm that is not 1 within ``ATOL``; ``nan`` (a
    non-finite amplitude) is refused too."""
    norm2 = np.asarray(norm2)
    bad = ~(np.abs(norm2 - 1.0) <= ATOL)
    if bad.any():
        raise ValueError(f"state vector is not normalized: |psi|^2 = {norm2[bad][0]}")


def _qubit_min_eigenvalue(a: complex, b: complex, d: complex) -> float:
    """Smallest eigenvalue of a Hermitian 2x2 matrix, read from its lower
    triangle (diagonal ``a``, ``d`` and ``b`` below it) as ``eigvalsh``
    reads it: ``(a+d)/2 - hypot((a-d)/2, |b|)``, within a few ``eps * |M|``
    of ``eigvalsh``. A ``|b|`` beyond the largest float counts as ``inf``."""
    try:
        modulus = abs(b)
    except OverflowError:  # finite parts whose modulus is beyond the largest float
        modulus = math.inf
    return (a.real + d.real) / 2 - math.hypot((a.real - d.real) / 2, modulus)


def _checked_trace(mat: np.ndarray) -> float:
    """The trace of a square ``mat``, once it is checked to have finite
    entries, to be Hermitian to ``ATOL``, positive semidefinite to
    ``-ATOL`` and of trace in ``(0, 1 + ATOL]``, in that order; the first
    check that fails raises ``ValueError``.

    A 2x2 ``mat`` is checked on its four entries read once as Python
    scalars, which costs less than array operations on so small a matrix.
    Its Hermitian residual is ``abs`` of the same complex differences, but
    Python's ``abs`` and numpy's can differ in the last bit. Larger
    matrices are checked with array operations and ``eigvalsh``.
    """
    qubit = mat.shape == (2, 2)
    if qubit:
        (a, c), (b, d) = mat.tolist()
        finite = all(map(cmath.isfinite, (a, c, b, d)))
    else:
        finite = np.isfinite(mat).all()
    if not finite:
        raise ValueError("density matrix entries must be finite")
    if qubit:
        try:
            off = abs(c - b.conjugate())
        except OverflowError:  # finite parts whose modulus is beyond the largest float
            off = math.inf
        herm = max(abs(a - a.conjugate()), off, abs(d - d.conjugate()))
    else:
        herm = float(np.abs(mat - dagger(mat)).max())
    if herm > ATOL:
        raise ValueError(f"matrix is not Hermitian: residual {herm}")
    lo = _qubit_min_eigenvalue(a, b, d) if qubit else float(np.linalg.eigvalsh(mat)[0])
    if not lo >= -ATOL:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lo}")
    tr = a.real + d.real if qubit else float(mat.trace().real)
    if not 0.0 < tr <= 1.0 + ATOL:
        raise ValueError(f"trace must lie in (0, 1], got {tr}")
    return tr


def _num_qubits(dim: int) -> int:
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


@dataclass(frozen=True)
class PureState:
    """State vector of an m-qubit register, unit norm within tolerance."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _readonly(np.asarray(self.amplitudes, dtype=complex).ravel())
        object.__setattr__(self, "amplitudes", amps)
        _num_qubits(amps.size)
        _check_norms(np.vdot(amps, amps).real)

    @property
    def num_qubits(self) -> int:
        return _num_qubits(self.amplitudes.size)

    def density(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi|."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite state of an m-qubit register.

    The trace may be below one: a post-selected branch state is
    sub-normalized, and its trace is the branch probability. A trace of
    zero is not representable; zero-probability branches must be handled by
    the caller before constructing a state. Every entry must be finite.

    Positivity is checked on the smallest eigenvalue, to ``-ATOL``. A 2x2
    matrix (every branch state the simulator reports) is checked on its
    four entries as Python scalars, its smallest eigenvalue from the closed
    form ``(a+d)/2 - hypot((a-d)/2, |b|)``; larger matrices use array
    operations and ``eigvalsh`` (see ``_checked_trace``).
    """

    matrix: np.ndarray
    trace: float = field(init=False)

    def __post_init__(self) -> None:
        mat = _readonly(np.asarray(self.matrix, dtype=complex))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        _num_qubits(mat.shape[0])
        object.__setattr__(self, "trace", _checked_trace(mat))
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return _num_qubits(self.dim)


def embed(op: np.ndarray, targets: Sequence[int], m: int) -> np.ndarray:
    """Lift a local operator to the full register.

    Parameters
    ----------
    op : ndarray
        Operator of dimension ``2**len(targets)`` acting on the target
        qubits in the order listed.
    targets : sequence of int
        Distinct register positions, each < m.
    m : int
        Register size in qubits.

    Returns
    -------
    ndarray
        The ``2**m x 2**m`` operator acting as ``op`` on the targets and as
        the identity elsewhere.
    """
    targets = list(targets)
    op = np.asarray(op, dtype=complex)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    if any(t < 0 or t >= m for t in targets):
        raise ValueError(f"target out of range for {m}-qubit register: {targets}")
    t = len(targets)
    if op.shape != (2**t, 2**t):
        raise ValueError(f"operator shape {op.shape} does not match {t} target qubit(s)")

    rest = [q for q in range(m) if q not in targets]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # Axis i of the (2,)*2m tensor currently corresponds to register
    # position (targets + rest)[i]; permute to ascending register order.
    order = targets + rest
    perm = [order.index(q) for q in range(m)]
    full = full.reshape((2,) * (2 * m))
    full = full.transpose(perm + [m + p for p in perm])
    return np.ascontiguousarray(full.reshape(2**m, 2**m))


def su2(theta: float | np.ndarray, phi: float | np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """Single-qubit unitary from three angles.

    ``su2(0, 0, 0)`` is the identity and ``su2(pi, 0, pi)`` is the bit
    flip. Global phase is omitted; it never affects a fidelity. Array
    angles broadcast against each other and give a stack of shape
    ``angles + (2, 2)``.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    u = np.array(
        np.broadcast_arrays(
            c, -np.exp(1j * lam) * s, np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c
        ),
        dtype=complex,
    )
    return np.moveaxis(u, 0, -1).reshape(u.shape[1:] + (2, 2))
