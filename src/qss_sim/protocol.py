"""Sequential secret-sharing protocol over a small qubit register.

One iteration shares a single-qubit secret ``alpha|0> + beta|1>`` among
``n`` receivers:

1. the dealer builds an n-qubit GHZ resource ``(|0...0> + |1...1>)/sqrt(2)``
   by a chained XOR from ``|+>|0...0>`` (the simulator writes the state
   directly),
2. XORs the secret qubit onto it, producing an (n+1)-qubit entangled state,
3. keeps one qubit and transmits the rest (optionally through damping
   noise, optionally sandwiched between forward weak measurements and
   reversals),
4. measures her qubit in the computational basis while every receiver
   except the reconstructor measures in the Hadamard basis,
5. the reconstructor applies a Pauli correction keyed by the announced
   outcomes and ends up holding the secret.

Between iterations the helper receivers return their (collapsed) qubits;
the dealer resets each to ``|0>`` by a projective measurement plus a
conditional bit flip, adds a fresh ``|+>`` qubit, and rebuilds the resource
for the next secret. The return trip and the reset are computed once per
announced label and checked to give ``|0><0|``. So the recycled register is
``|+>|0...0>`` again, and the next iteration runs on the same fresh encoded
register as the first, scaled by the total probability carried over: round
k does not depend on the noise of round k-1.

Register layout: qubit 1 of the shared state is the first helper's, qubit 2
is the dealer's, the reconstructor holds the last qubit. All measurement
outcomes are enumerated exactly with their probabilities; nothing is
sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .channels import (
    FORWARD_NULL,
    REVERSE,
    KrausChannel,
    _apply_channel_matrix,
    adc,
    apply_channel,
    pdc,
    weak_op,
)
from .linalg import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    MINUS_I_PAULI_Y,
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    PureState,
    _check_norms,
    _qubit_fidelity,
    dagger,
    embed,
)
from .tolerances import ATOL, LINALG_ATOL

__all__ = [
    "Secret",
    "NoiseSpec",
    "Wmrqm",
    "ProtocolConfig",
    "IterationReport",
    "ProtocolState",
    "CORRECTION_TABLE",
    "make_resource",
    "encode_secret",
    "correction",
    "run_iteration",
    "run_iterations",
    "branch_maps",
    "advance",
    "start_chain",
    "run_protocol",
    "success_probability",
    "aggregate_fidelity",
    "left_sum",
]

ALICE_QUBIT = 1

# Largest receiver count: the register (receivers plus the dealer) is held
# as a dense 2^m-square matrix, and 8 qubits is the documented cap.
MAX_PARTIES = 7

# Largest iteration count. Runs use 1 to 3 rounds and the report grows with
# each (about 38 kB per round at 7 receivers), so 1,000 is far past any use,
# while a count like 10^12 is refused before a secret list of that length
# is asked for.
MAX_ITERATIONS = 1000

# Largest stack of registers ``run_iterations`` simulates in one pass, in
# matrix entries (1 MiB of complex128); each branch-walk level stacks half
# as many. At 3 qubits stacking removes most of the per-call overhead; at 7
# or 8 qubits a stack of 21 outgrew the cache and ran 20-30 % slower than
# one register at a time, and an unbounded stack would hold every secret's
# register in memory at once.
STACK_ENTRIES = 2**16

# Branches below this (per-iteration) probability are reported but carry no
# reconstructed state; they are never divided by.
ZERO_BRANCH_ATOL = 1e-14


@dataclass(frozen=True)
class Secret:
    """Single-qubit secret ``alpha|0> + beta|1>`` with unit norm."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError(f"secret amplitudes must be finite, got {self.alpha}, {self.beta}")
        norm2 = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm2 - 1.0) > ATOL:
            raise ValueError(f"secret amplitudes are not normalized: {norm2}")

    @classmethod
    def from_k(cls, k: float) -> "Secret":
        """Real non-negative secret with ``|alpha|^2 = k``."""
        if not 0.0 <= k <= 1.0:
            raise ValueError(f"k must lie in [0, 1], got {k}")
        return cls(alpha=np.sqrt(k), beta=np.sqrt(1.0 - k))

    @property
    def k(self) -> float:
        """Population of ``|0>``: ``|alpha|^2``."""
        return float(abs(self.alpha) ** 2)

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)


@dataclass(frozen=True)
class NoiseSpec:
    """Channel kind (``"pdc"`` or ``"adc"``) and strength."""

    kind: str
    strength: float

    def __post_init__(self) -> None:
        if self.kind not in ("pdc", "adc"):
            raise ValueError(f"channel kind must be 'pdc' or 'adc', got {self.kind!r}")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(f"channel strength must lie in [0, 1], got {self.strength}")

    def channel(self) -> KrausChannel:
        return (pdc if self.kind == "pdc" else adc)(self.strength)


@dataclass(frozen=True)
class Wmrqm:
    """Weak-measurement / reversal protection strengths.

    ``s`` is the forward weak-measurement strength applied before
    transmission, ``r`` the reversal strength applied after the noise.
    """

    s: float
    r: float

    def __post_init__(self) -> None:
        for name, value in (("s", self.s), ("r", self.r)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"measurement strength {name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of a protocol run.

    ``parties`` counts the receivers (the dealer is extra), from 2 to
    ``MAX_PARTIES``; ``iterations`` runs from 1 to ``MAX_ITERATIONS``, with
    one secret per iteration; ``channel`` may be a single spec applied to every
    transmitted qubit, or one entry per transmitted qubit (``None`` =
    noiseless leg). ``return_channel`` optionally adds noise to the
    helpers' qubits on their way back to the dealer between iterations; the
    reset makes it irrelevant, which is exactly what the
    sequential-independence tests demonstrate.
    """

    parties: int
    secrets: tuple[Secret, ...]
    channel: NoiseSpec | tuple[NoiseSpec | None, ...] | None = None
    wmrqm: Wmrqm | None = None
    iterations: int = 1
    return_channel: NoiseSpec | None = None

    def __post_init__(self) -> None:
        if self.parties < 2:
            raise ValueError(f"need at least 2 receivers, got {self.parties}")
        if self.parties > MAX_PARTIES:
            raise ValueError(
                f"at most {MAX_PARTIES} receivers ({MAX_PARTIES + 1} qubits), got {self.parties}"
            )
        if self.iterations < 1:
            raise ValueError(f"need at least 1 iteration, got {self.iterations}")
        if self.iterations > MAX_ITERATIONS:
            raise ValueError(f"at most {MAX_ITERATIONS} iterations, got {self.iterations}")
        secrets = tuple(self.secrets)
        object.__setattr__(self, "secrets", secrets)
        if len(secrets) != self.iterations:
            raise ValueError(
                f"got {len(secrets)} secrets for {self.iterations} iteration(s)"
            )
        if isinstance(self.channel, (list, tuple)):
            channel = tuple(self.channel)
            if len(channel) != len(self.transmitted_qubits):
                raise ValueError(
                    f"per-qubit channel list must have {len(self.transmitted_qubits)}"
                    f" entries, got {len(channel)}"
                )
            object.__setattr__(self, "channel", channel)

    @property
    def num_qubits(self) -> int:
        return self.parties + 1

    @property
    def bob_qubit(self) -> int:
        """Register position of the reconstructor's qubit."""
        return self.parties

    @property
    def collaborator_qubits(self) -> tuple[int, ...]:
        """Register positions of the helper receivers, in order."""
        return (0,) + tuple(range(2, self.parties))

    @property
    def transmitted_qubits(self) -> tuple[int, ...]:
        """Every register position that leaves the dealer's lab."""
        return (0,) + tuple(range(2, self.parties + 1))

    def channel_for(self, index: int) -> NoiseSpec | None:
        """Noise spec for the ``index``-th transmitted qubit."""
        if self.channel is None:
            return None
        if isinstance(self.channel, NoiseSpec):
            return self.channel
        return self.channel[index]


@dataclass(frozen=True)
class IterationReport:
    """Result of one measurement-outcome branch of one iteration."""

    iteration_index: int
    alice_outcome: int
    collaborator_outcomes: tuple[str, ...]
    correction_applied: str
    reconstructed_state: DensityMatrix | None
    fidelity: float | None
    branch_probability: float


@dataclass(frozen=True)
class ProtocolState:
    """Carry-over between iterations: one entry per surviving branch.

    Each branch records its joint probability and the helpers' collapsed
    qubits (as Hadamard-basis outcome labels, which determine the returned
    pure states exactly). ``advance`` sums these weights, times the reset
    outcome probabilities of the returned qubits, into the one weight that
    scales the next iteration.
    """

    parties: int
    next_iteration: int
    branches: tuple[tuple[float, tuple[str, ...]], ...]


# Correction applied by the reconstructor, keyed by the dealer's bit and the
# parity of '-' outcomes among the helpers. Phase kicks from individual '-'
# outcomes compose multiplicatively, so only the parity matters.
CORRECTION_TABLE: dict[tuple[int, int], np.ndarray] = {
    (0, 0): linalg.ID2,
    (0, 1): PAULI_Z,
    (1, 0): PAULI_X,
    (1, 1): MINUS_I_PAULI_Y,
}

_CORRECTION_LABELS: dict[tuple[int, int], str] = {
    (0, 0): "I",
    (0, 1): "Z",
    (1, 0): "X",
    (1, 1): "-iY",
}


def _correction_key(alice: int, collaborators: Sequence[str]) -> tuple[int, int]:
    """Validated ``(dealer bit, parity of '-' outcomes)`` correction key."""
    if alice not in (0, 1):
        raise ValueError(f"dealer outcome must be 0 or 1, got {alice!r}")
    for c in collaborators:
        if c not in ("+", "-"):
            raise ValueError(f"helper outcome must be '+' or '-', got {c!r}")
    return alice, collaborators.count("-") % 2


def correction(alice: int, collaborators: Sequence[str]) -> np.ndarray:
    """Table lookup of the reconstructor's Pauli correction.

    ``alice`` is the dealer's computational-basis outcome (0 or 1),
    ``collaborators`` the helpers' Hadamard-basis outcomes (``"+"``/``"-"``).
    """
    return CORRECTION_TABLE[_correction_key(alice, collaborators)]


def _cnot(control: int, target: int, m: int) -> np.ndarray:
    gate = np.zeros((4, 4), dtype=complex)
    gate[0, 0] = gate[1, 1] = gate[3, 2] = gate[2, 3] = 1.0
    return embed(gate, [control, target], m)


def _ghz(n: int) -> np.ndarray:
    """Amplitudes of ``(|0...0> + |1...1>)/sqrt(2)`` on n qubits."""
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return amps


def make_resource(n: int) -> PureState:
    """n-qubit GHZ resource ``(|0...0> + |1...1>)/sqrt(2)``.

    The dealer's XOR chain ``CNOT(0,1), CNOT(1,2), ...`` run down
    ``|+>|0...0>`` yields exactly this state; the simulator writes its two
    nonzero amplitudes directly.
    """
    if n < 2:
        raise ValueError(f"resource needs at least 2 qubits, got {n}")
    return PureState(_ghz(n))


def encode_secret(secret: Secret, resource: PureState) -> PureState:
    """XOR the secret qubit onto the resource.

    The secret qubit is prepended at register position 0 and a single XOR
    between it and the dealer's qubit (position 1) produces the shared
    (n+1)-qubit state.
    """
    return PureState(_encoded_amplitudes([secret], resource)[0])


def _encoded_amplitudes(secrets: Sequence[Secret], resource: PureState) -> np.ndarray:
    """``encode_secret`` of each secret, as a ``(batch, 2^(n+1))`` stack of
    amplitudes: the resource is checked, the Kronecker products formed by
    broadcasting, the XOR applied by one matmul and every norm checked, once
    for all of them."""
    n = resource.num_qubits
    if not np.allclose(resource.amplitudes, _ghz(n), rtol=0.0, atol=ATOL):
        raise ValueError("resource is not the GHZ state produced by make_resource")
    vecs = np.array([s.vector() for s in secrets]).reshape(-1, 2, 1)
    amps = (_cnot(0, 1, n + 1) @ (vecs * resource.amplitudes).reshape(len(secrets), -1, 1))[..., 0]
    _check_norms(np.einsum("bi,bi->b", amps.conj(), amps).real)
    return amps


_BASIS_PROJECTORS = {
    "computational": (("0", np.outer(KET_0, KET_0)), ("1", np.outer(KET_1, KET_1))),
    "hadamard": (("+", np.outer(KET_PLUS, KET_PLUS)), ("-", np.outer(KET_MINUS, KET_MINUS))),
}


def _measurements(cfg: ProtocolConfig) -> list[tuple[int, str]]:
    """``(qubit, basis)`` of every protocol measurement, in announcement
    order: the dealer's computational one, then each helper's Hadamard one."""
    return [(ALICE_QUBIT, "computational")] + [(q, "hadamard") for q in cfg.collaborator_qubits]


def _project_branches(mat: np.ndarray, measurements: Sequence, m: int) -> tuple[list, np.ndarray]:
    """Every outcome branch of the ``(qubit, basis)`` ``measurements``,
    breadth-first: the leaves' labels in ``itertools.product`` order, and
    their unmeasured blocks as a ``(batch, leaf, 2^(m-h), 2^(m-h))`` array
    for a ``(batch, 2^m, 2^m)`` stack ``mat`` and h measurements.

    Each level projects every branch of every register in one call per
    outcome and interleaves the kept slices outcome-minor. A measured qubit
    leaves the matrix right after its projection: one diagonal slice on its
    axis is kept. A computational outcome keeps its own slice (the other is
    zero); a Hadamard outcome keeps slice 0, because its two diagonal
    slices are equal bit for bit, so a leaf is ``2^-h`` times the partial
    trace over the measured qubits, for h Hadamard outcomes, exactly.
    """
    batch, labels = len(mat), [()]
    for i, (qubit, basis) in enumerate(measurements):
        qubit -= sum(q < qubit for q, _ in measurements[:i])  # its index in the rest
        lo, hi = 2**qubit, 2 ** (m - qubit - 1)
        projectors = _BASIS_PROJECTORS[basis]
        kept = np.empty((len(mat), len(projectors), lo * hi, lo * hi), dtype=mat.dtype)
        for o, (label, proj) in enumerate(projectors):
            bit = int(label == "1")
            projected = _apply_channel_matrix(mat, (proj,), qubit, m).reshape(-1, lo, 2, hi, lo, 2, hi)
            kept.reshape(-1, len(projectors), lo, hi, lo, hi)[:, o] = projected[:, :, bit, :, :, bit, :]
        mat, m = kept.reshape(-1, lo * hi, lo * hi), m - 1
        labels = [prefix + (label,) for prefix in labels for label, _ in projectors]
    return labels, mat.reshape(batch, len(labels), *mat.shape[1:])


def _encoded_density(secrets: Sequence[Secret], n: int) -> np.ndarray:
    """Stack of ``|psi><psi|``, one per secret encoded on a fresh n-qubit
    resource; each is the elementwise ``np.outer`` of its amplitudes."""
    amps = _encoded_amplitudes(secrets, make_resource(n))
    return amps[:, :, None] * amps.conj()[:, None, :]


def _execute_iteration(
    cfg: ProtocolConfig,
    secrets: Sequence[Secret],
    iteration_index: int,
    scale: float,
) -> tuple[list[IterationReport], list[tuple[float, tuple[str, ...]]]]:
    """Run one iteration on the freshly encoded register of each secret.

    ``scale`` multiplies every branch probability (joint weight of the
    history that led to this iteration). Returns the per-branch reports
    plus the surviving branches for the next iteration, both secret-major:
    all of the first secret's branches, then the second's, and so on.

    The registers of all secrets form one stack, so each operator and
    projection is one call over the stack. The tail is one call over every
    leaf of every secret: the traces, then the normalisation, correction
    and fidelity of the live branches. Every register gets the arithmetic
    it would get alone; only the reports are built one by one, and each
    live one checks its state through the ``DensityMatrix`` constructor.

    ``_project_branches`` walks the measurements breadth-first, so branches
    that agree on their first d outcomes share one projected register, and
    drops each measured qubit once it is projected: for k helpers, level
    d = 0..k is two sandwiches, each over the 2^d branches of every secret
    as (k+2-d)-qubit matrices, so the walk is 2(k+1) calls and O(4^m) in
    all, where the flat per-branch loop does 2 + k * 2^(k+1) sandwiches on
    the full m = k+2 qubits. Each kept entry is the one that loop computes,
    so the leaf times ``2^k`` is its partial trace onto the reconstructor,
    bit for bit.
    """
    m = cfg.num_qubits
    transmitted = cfg.transmitted_qubits
    rho = _encoded_density(secrets, cfg.parties)

    if cfg.wmrqm is not None:
        fwd = weak_op(FORWARD_NULL, cfg.wmrqm.s)
        for q in transmitted:
            rho = _apply_channel_matrix(rho, (fwd,), q, m)

    operators: dict[NoiseSpec, tuple] = {}
    for i, q in enumerate(transmitted):
        spec = cfg.channel_for(i)
        if spec is not None:
            if spec not in operators:
                operators[spec] = spec.channel().operators
            rho = _apply_channel_matrix(rho, operators[spec], q, m)

    if cfg.wmrqm is not None:
        rev = weak_op(REVERSE, cfg.wmrqm.r)
        for q in transmitted:
            rho = _apply_channel_matrix(rho, (rev,), q, m)

    labels, branches = _project_branches(rho, _measurements(cfg), m)
    leaves = [(int(lab[0]), lab[1:], _correction_key(int(lab[0]), lab[1:])) for lab in labels]
    # Every secret's every leaf at once, secret-major: (secret, leaf, 2, 2).
    bob = branches * 2.0 ** len(cfg.collaborator_qubits)
    probs = (bob[..., 0, 0] + bob[..., 1, 1]).real
    # A nan probability counts as live, so that its state is refused.
    secret_idx, leaf_idx = np.nonzero(~(probs <= ZERO_BRANCH_ATOL))
    u = np.array([CORRECTION_TABLE[key] for _, _, key in leaves])[leaf_idx]
    live_probs = probs[secret_idx, leaf_idx]
    fixed = u @ (bob[secret_idx, leaf_idx] / live_probs[:, None, None]) @ u.conj().transpose(0, 2, 1)
    secret_vecs = np.array([s.vector() for s in secrets])
    fids = _qubit_fidelity(secret_vecs[secret_idx], fixed).tolist()
    # (state, fidelity, weight) per secret and leaf; a zero branch carries none.
    rows = [[(None, None, 0.0)] * len(leaves) for _ in secrets]
    for i, j, mat, fid, prob in zip(secret_idx.tolist(), leaf_idx.tolist(), fixed, fids, live_probs.tolist()):
        rows[i][j] = (DensityMatrix(mat), fid, prob * scale)

    reports: list[IterationReport] = []
    chain: list[tuple[float, tuple[str, ...]]] = []
    for row in rows:
        for (a, outcomes, key), (state, fid, weight) in zip(leaves, row):
            if state is not None:
                chain.append((weight, outcomes))
            reports.append(
                IterationReport(
                    iteration_index=iteration_index,
                    alice_outcome=a,
                    collaborator_outcomes=outcomes,
                    correction_applied=_CORRECTION_LABELS[key],
                    reconstructed_state=state,
                    fidelity=fid,
                    branch_probability=weight,
                )
            )
    return reports, chain


def run_iterations(cfg: ProtocolConfig, secrets: Sequence[Secret]) -> list[list[IterationReport]]:
    """``run_iteration`` for each secret, from one pass over their stacked
    registers; the report lists match a per-secret loop bit for bit.

    Each secret runs on its own fresh resource, so the results do not
    depend on which secrets share a call. Secrets are stacked
    ``STACK_ENTRIES // 4^m`` at a time on m qubits (at least one).
    """
    secrets = list(secrets)
    step = max(1, STACK_ENTRIES // 4**cfg.num_qubits)
    reports: list[IterationReport] = []
    for start in range(0, len(secrets), step):
        batch = secrets[start : start + step]
        reports += _execute_iteration(cfg, batch, iteration_index=0, scale=1.0)[0]
    per = 2**cfg.parties  # dealer outcome times each helper's
    return [reports[i : i + per] for i in range(0, len(reports), per)]


def run_iteration(cfg: ProtocolConfig, secret: Secret) -> list[IterationReport]:
    """Single-shot run of one iteration on a fresh resource.

    One report per measurement-outcome branch, in deterministic order
    (dealer outcome 0 before 1, helper outcomes ``+`` before ``-``).
    Without protection the branch probabilities sum to one; with it they
    sum to the post-selection success probability.
    """
    return run_iterations(cfg, [secret])[0]


def branch_maps(cfg: ProtocolConfig) -> dict[tuple[int, tuple[str, ...]], np.ndarray]:
    """Every branch's linear map from the secret to the reconstructor's state.

    Encoding, channels, weak operators, projections and the partial trace
    are all linear in the secret's density matrix, so one iteration on a
    fresh resource sends it, on each branch, through a fixed map ``Phi``
    to the reconstructor's unnormalised state before any correction (whose
    trace is the branch probability). Keyed by ``(alice_outcome,
    collaborator_outcomes)``, each map is the tensor
    ``S[b, c, i, j] = Phi(|i><j|)[b, c]``, so the state for a secret
    ``psi`` is ``einsum("bcij,i,j->bc", S, psi, psi.conj())``.

    Four pure inputs fix ``Phi`` (process tomography, Chuang & Nielsen,
    J. Mod. Opt. 44, 2455 (1997)): one ``run_iterations`` call runs
    ``|0>``, ``|1>``, ``|+>`` and ``|+i>`` together, and each report gives
    ``p U^dag rho U`` (zero for a zero-probability branch), with ``U`` the
    table correction it applied. The off-diagonal images follow as
    ``Phi(|0><1|) = Phi(+) + i Phi(+i) - (1+i)/2 (Phi(0) + Phi(1))`` and
    ``Phi(|1><0|) = Phi(+) - i Phi(+i) - (1-i)/2 (Phi(0) + Phi(1))``.
    ``cfg.secrets``, ``iterations`` and ``return_channel`` are not used.
    """
    h = 1.0 / np.sqrt(2.0)
    inputs = [Secret(alpha, beta) for alpha, beta in ((1.0, 0.0), (0.0, 1.0), (h, h), (h, 1j * h))]
    images = []
    for reports in run_iterations(cfg, inputs):
        image = {}
        for r in reports:
            key = (r.alice_outcome, r.collaborator_outcomes)
            if r.reconstructed_state is None:
                image[key] = np.zeros((2, 2), dtype=complex)
            else:
                u = correction(*key)
                image[key] = r.branch_probability * (dagger(u) @ r.reconstructed_state.matrix @ u)
        images.append(image)
    zero, one, plus, plus_i = images
    maps = {}
    for key in zero:
        diagonal = zero[key] + one[key]
        s = np.empty((2, 2, 2, 2), dtype=complex)
        s[:, :, 0, 0] = zero[key]
        s[:, :, 1, 1] = one[key]
        s[:, :, 0, 1] = plus[key] + 1j * plus_i[key] - 0.5 * (1 + 1j) * diagonal
        s[:, :, 1, 0] = plus[key] - 1j * plus_i[key] - 0.5 * (1 - 1j) * diagonal
        maps[key] = s
    return maps


def start_chain(cfg: ProtocolConfig) -> tuple[ProtocolState, list[IterationReport]]:
    """Run the first iteration on ``cfg.secrets[0]`` and keep the carry-over
    state for recycling."""
    reports, chain = _execute_iteration(cfg, cfg.secrets[:1], iteration_index=0, scale=1.0)
    return ProtocolState(cfg.parties, 1, tuple(chain)), reports


def _reset_to_zero(state: DensityMatrix) -> list[tuple[float, np.ndarray]]:
    """Dealer's reset of a returned qubit: measure, flip to |0> if needed.

    One ``(probability, reset state)`` per outcome above ``ZERO_BRANCH_ATOL``.
    """
    out = []
    for outcome, proj in _BASIS_PROJECTORS["computational"]:
        projected = _apply_channel_matrix(state.matrix, (proj,), 0, 1)
        prob = float(projected.trace().real)
        if prob <= ZERO_BRANCH_ATOL:
            continue
        fixed = projected / prob
        if outcome == "1":
            fixed = PAULI_X @ fixed @ PAULI_X
        out.append((prob, fixed))
    return out


_OUTCOME_STATES = {"+": KET_PLUS, "-": KET_MINUS}
_ZERO_STATE = np.outer(KET_0, KET_0.conj())


def advance(
    prev: ProtocolState, secret: Secret, cfg: ProtocolConfig
) -> tuple[ProtocolState, list[IterationReport]]:
    """Recycle the helpers' qubits and share the next secret.

    The returned qubits (optionally noisy on the way back) are measured and
    flipped to ``|0>``, and a fresh ``|+>`` heads the XOR chain that
    rebuilds the resource. A returned qubit is determined by its announced
    label, so the return trip and the reset are computed once per label
    (``+``, ``-``), and each surviving reset state is checked to be
    ``|0><0|`` to within ``LINALG_ATOL`` per entry (the outcome-1 reset
    divides and flips, so its diagonal may read 1 - 2^-53). That check is
    what makes recycling exact: the rebuilt resource is ``make_resource``'s,
    so the next iteration runs once on the fresh encoded register, scaled by
    the total weight of every carried branch and reset outcome.
    """
    if prev.parties != cfg.parties:
        raise ValueError("carry-over state and config disagree on party count")
    n = cfg.parties
    if not prev.branches:
        return ProtocolState(n, prev.next_iteration + 1, ()), []

    resets: dict[str, list[tuple[float, np.ndarray]]] = {}
    for label, vec in _OUTCOME_STATES.items():
        returned = DensityMatrix(np.outer(vec, vec.conj()))
        if cfg.return_channel is not None:
            returned = apply_channel(returned, cfg.return_channel.channel(), 0)
        resets[label] = _reset_to_zero(returned)
        if not all(
            np.allclose(s, _ZERO_STATE, rtol=0.0, atol=LINALG_ATOL) for _, s in resets[label]
        ):
            raise RuntimeError(f"reset of a returned {label!r} qubit did not land on |0>")

    # One term per branch and reset combination, summed in that order: the
    # order fixes the float result, so it stays an explicit loop. Each
    # combination's product is built by prefix, left to right, in
    # ``itertools.product`` order.
    probs = {label: [p for p, _ in states] for label, states in resets.items()}
    weight = 0.0
    for w, outcomes in prev.branches:
        prods = [1.0]
        for o in outcomes:
            prods = [x * p for x in prods for p in probs[o]]
        for x in prods:
            weight += w * x

    reports, chain = _execute_iteration(
        cfg, [secret], iteration_index=prev.next_iteration, scale=weight
    )
    return ProtocolState(n, prev.next_iteration + 1, tuple(chain)), reports


def run_protocol(cfg: ProtocolConfig) -> list[list[IterationReport]]:
    """Run every configured iteration, recycling qubits in between."""
    state, reports = start_chain(cfg)
    out = [reports]
    for secret in cfg.secrets[1:]:
        state, reports = advance(state, secret, cfg)
        out.append(reports)
    return out


def left_sum(values: Iterable[float]) -> float:
    """Sum of ``values`` added left to right from ``0.0``.

    Builtin ``sum`` compensates float rounding from Python 3.12 on, so its
    result would depend on the interpreter; this order gives every version
    the bytes that 3.10 and 3.11 give.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def success_probability(reports: Sequence[IterationReport]) -> float:
    """Total probability mass of the reported branches, summed in order."""
    return float(left_sum(r.branch_probability for r in reports))


def aggregate_fidelity(reports: Sequence[IterationReport]) -> float:
    """Probability-weighted fidelity over surviving branches.

    With post-selection enabled this conditions on success (the weights are
    renormalized by the total surviving probability).
    """
    total = success_probability(reports)
    if total <= 0.0:
        raise ValueError("no surviving branch to aggregate over")
    return float(
        left_sum(r.branch_probability * r.fidelity for r in reports if r.fidelity is not None)
        / total
    )
