"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own embedding/trace
machinery: embedding is done by index arithmetic over basis-state bits,
partial traces by explicit index loops, and channel application by summing
explicitly kron-built operators. They are slow and obviously correct.
"""

import math

import numpy as np
import pytest

from qss_sim.linalg import DensityMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def embed_oracle(op, targets, m):
    """Index-arithmetic embedding: op on `targets`, identity elsewhere."""
    dim = 2**m
    t = len(targets)
    out = np.zeros((dim, dim), dtype=complex)
    for row in range(dim):
        rbits = [(row >> (m - 1 - q)) & 1 for q in range(m)]
        for col in range(dim):
            cbits = [(col >> (m - 1 - q)) & 1 for q in range(m)]
            if any(rbits[q] != cbits[q] for q in range(m) if q not in targets):
                continue
            ri = sum(rbits[targets[i]] << (t - 1 - i) for i in range(t))
            ci = sum(cbits[targets[i]] << (t - 1 - i) for i in range(t))
            out[row, col] = op[ri, ci]
    return out


def partial_trace_oracle(mat, keep, m):
    """Index-loop partial trace onto `keep` (listed order)."""
    k = len(keep)
    traced = [q for q in range(m) if q not in keep]
    dim_keep = 2**k
    out = np.zeros((dim_keep, dim_keep), dtype=complex)
    for row in range(dim_keep):
        rk = [(row >> (k - 1 - i)) & 1 for i in range(k)]
        for col in range(dim_keep):
            ck = [(col >> (k - 1 - i)) & 1 for i in range(k)]
            for env in range(2 ** len(traced)):
                eb = [(env >> (len(traced) - 1 - i)) & 1 for i in range(len(traced))]
                rbits = [0] * m
                cbits = [0] * m
                for i, q in enumerate(keep):
                    rbits[q], cbits[q] = rk[i], ck[i]
                for i, q in enumerate(traced):
                    rbits[q] = cbits[q] = eb[i]
                full_row = sum(b << (m - 1 - q) for q, b in enumerate(rbits))
                full_col = sum(b << (m - 1 - q) for q, b in enumerate(cbits))
                out[row, col] += mat[full_row, full_col]
    return out


def apply_channel_oracle(mat, kraus_ops, qubit, m):
    """Channel application with operators built by explicit kron chains."""
    out = np.zeros_like(mat)
    for k in kraus_ops:
        full = np.eye(1, dtype=complex)
        for q in range(m):
            full = np.kron(full, k if q == qubit else np.eye(2))
        out += full @ mat @ full.conj().T
    return out


# Projectors of each measurement basis, by outcome label, built from their
# kets here rather than taken from the package.
_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
_MINUS = np.array([1.0, -1.0]) / np.sqrt(2)
PROJECTORS = {
    "computational": {"0": np.diag([1.0, 0.0]), "1": np.diag([0.0, 1.0])},
    "hadamard": {"+": np.outer(_PLUS, _PLUS), "-": np.outer(_MINUS, _MINUS)},
}


def withheld_oracle(mat, cfg):
    """Register state once every protocol measurement is made but no outcome
    announced: the dealer's qubit (position 1) dephased in the computational
    basis and each helper's in the Hadamard basis, summed over outcomes.
    Secrecy is the statement that each receiver's marginal of it is I/2."""
    m = cfg.num_qubits
    mat = apply_channel_oracle(mat, PROJECTORS["computational"].values(), 1, m)
    for qubit in cfg.collaborator_qubits:
        mat = apply_channel_oracle(mat, PROJECTORS["hadamard"].values(), qubit, m)
    return mat


def random_density(rng, m, rank=None):
    """Random full-rank (default) density matrix on m qubits."""
    dim = 2**m
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = a @ a.conj().T
    return DensityMatrix(mat / mat.trace().real)


def register_stack(m, rng, batch=None):
    """A stack of m-qubit matrices with negative, zero and signed-zero parts:
    ``batch`` of them, or 3 (2 at 8 qubits)."""
    shape = (batch or (2 if m == 8 else 3), 2**m, 2**m)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    pick = rng.integers(0, 8, size=shape)
    stack[pick == 0] = 0.0
    stack[pick == 1] = complex(-0.0, 0.0)
    stack[pick == 2] = complex(0.0, -0.0)
    stack[pick == 3] = stack[pick == 3].real
    return stack


def random_secret(rng):
    """Random complex-amplitude secret."""
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    from qss_sim.protocol import Secret

    return Secret(alpha=complex(v[0]), beta=complex(v[1]))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max_oracle(f, a, b, tol):
    """Scalar golden-section maximum of ``f`` on ``[a, b]``, one bracket at a
    time: the loop the batched search must reproduce element by element.
    Returns ``(x, f(x), steps)``."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    steps = 0
    while b - a > tol:
        steps += 1
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x), steps


def maximize_scalar_oracle(fn, lower, upper, tolerance=1e-10, grid=64):
    """Grid plus golden-section maximum of the scalar ``fn``, calling it on
    one float at a time. Returns ``(x, f(x), grid_won)``."""
    xs = np.linspace(lower, upper, grid)
    values = [fn(float(x)) for x in xs]
    best = int(np.argmax(values))
    step = (upper - lower) / (grid - 1)
    a = max(lower, xs[best] - step)
    b = min(upper, xs[best] + step)
    x, fx, _ = golden_max_oracle(fn, a, b, tolerance)
    if values[best] > fx:
        return float(xs[best]), values[best], True
    return float(x), fx, False


def density_trace_oracle(mat):
    """The checks of a 2x2 density matrix as array operations over all its
    entries: finite, Hermitian to ``ATOL``, positive semidefinite to
    ``-ATOL`` (the closed-form smallest eigenvalue, from the lower
    triangle), trace in ``(0, 1 + ATOL]``. Raises ``ValueError`` at the
    first that fails and returns the trace otherwise."""
    from qss_sim.tolerances import ATOL

    if not np.isfinite(mat).all():
        raise ValueError("density matrix entries must be finite")
    herm = float(np.abs(mat - mat.conj().T).max())
    if herm > ATOL:
        raise ValueError(f"matrix is not Hermitian: residual {herm}")
    (a, _), (b, d) = mat.tolist()
    lo = (a.real + d.real) / 2 - math.hypot((a.real - d.real) / 2, abs(b))
    if not lo >= -ATOL:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lo}")
    tr = float(mat.trace().real)
    if not 0.0 < tr <= 1.0 + ATOL:
        raise ValueError(f"trace must lie in (0, 1], got {tr}")
    return tr


def correction_search_oracle(obj, restarts=8, grid=16, sweeps=4):
    """The correction search one restart at a time, each golden step scoring
    one unitary with ``obj.value``. Returns the per-restart maxima."""
    from qss_sim.linalg import su2

    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    combos = np.array(np.meshgrid(thetas, phis, phis, indexing="ij")).reshape(3, -1).T
    coarse = obj.batch_values(np.array([su2(*angles) for angles in combos]))
    steps = (np.pi / (grid - 1), 2.0 * np.pi / grid, 2.0 * np.pi / grid)
    results = []
    for idx in np.argsort(coarse)[::-1][:restarts]:
        angles, value = combos[idx].copy(), coarse[idx]
        for _ in range(sweeps):
            for coord in range(3):
                def along(x, coord=coord, angles=angles):
                    trial = angles.copy()
                    trial[coord] = x
                    return obj.value(su2(*trial))

                x, fx, _ = golden_max_oracle(
                    along, angles[coord] - steps[coord], angles[coord] + steps[coord], 1e-10
                )
                if fx >= value:
                    angles[coord], value = x, fx
        results.append(float(value))
    return results


def assert_same_text(text, expected):
    """``text == expected``, failing with the first line that differs
    (pytest's own diff of two long texts takes minutes)."""
    if text != expected:
        ours, theirs = text.split("\n"), expected.split("\n")
        i = next(i for i, (a, b) in enumerate(zip(ours + [None], theirs + [None])) if a != b)
        pytest.fail(f"line {i + 1}: {ours[i:i + 1]} != {theirs[i:i + 1]}")
