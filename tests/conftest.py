"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own embedding/trace
machinery: embedding is done by index arithmetic over basis-state bits,
partial traces by explicit index loops, and channel application by summing
explicitly kron-built operators. They are slow and obviously correct.
"""

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
