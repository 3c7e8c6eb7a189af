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
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .channels import (
    FORWARD_NULL,
    REVERSE,
    KrausChannel,
    _apply_channel_matrix,
    _half,
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
    "CORRECTION_TABLE",
    "make_resource",
    "encode_secret",
    "correction",
    "run_iteration",
    "run_iterations",
    "branch_maps",
    "advance",
    "run_protocol",
    "success_probability",
    "aggregate_fidelity",
    "left_sum",
]

ALICE_QUBIT = 1

# Largest receiver count: the passes before the branch walk hold only the
# register's support, but the walk holds the register (receivers plus the
# dealer) as a dense 2^m-square matrix, and 8 qubits is the documented cap.
MAX_PARTIES = 7

# Largest iteration count. Runs use 1 to 3 rounds and the report grows with
# each (about 38 kB per round at 7 receivers), so 1,000 is far past any use,
# while a count like 10^12 is refused before a secret list of that length
# is asked for.
MAX_ITERATIONS = 1000

# Largest stack of registers ``run_iterations`` simulates in one pass, in
# entries of the dense registers the branch walk starts from (128 KiB of
# complex128); the passes before the walk hold only the support, and each
# walk level keeps one block per outcome, half as many entries as the level
# before. That is 128 registers at 3 qubits, 4 at 5 and one from 7 qubits
# up. At 3 qubits stacking removes most of the per-call overhead; at 7 or 8
# qubits a stack of 21 outgrew the cache and ran 20-30 % slower than one
# register at a time. The cap also bounds memory: a ``validate --grid fine``
# pass run as one stack per suite (625 registers in the largest) peaked at
# 41.6 MB resident against 38.4 MB for one call per configuration; in calls
# of at most 128 registers it peaks at 38.9 MB against 38.5 MB (medians of
# 10 ``validate_fine`` benchmark runs).
STACK_ENTRIES = 2**13

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
    ``MAX_PARTIES``; ``secrets`` holds one secret per iteration, from 1 to
    ``MAX_ITERATIONS`` of them; ``channel`` may be a single spec applied to every
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
    return_channel: NoiseSpec | None = None

    def __post_init__(self) -> None:
        if self.parties < 2:
            raise ValueError(f"need at least 2 receivers, got {self.parties}")
        if self.parties > MAX_PARTIES:
            raise ValueError(
                f"at most {MAX_PARTIES} receivers ({MAX_PARTIES + 1} qubits), got {self.parties}"
            )
        secrets = tuple(self.secrets)
        object.__setattr__(self, "secrets", secrets)
        if not secrets:
            raise ValueError("need at least 1 iteration, got 0")
        if len(secrets) > MAX_ITERATIONS:
            raise ValueError(f"at most {MAX_ITERATIONS} iterations, got {len(secrets)}")
        if isinstance(self.channel, (list, tuple)):
            channel = tuple(self.channel)
            if len(channel) != len(self.transmitted_qubits):
                raise ValueError(
                    f"per-qubit channel list must have {len(self.transmitted_qubits)}"
                    f" entries, got {len(channel)}"
                )
            object.__setattr__(self, "channel", channel)

    @property
    def iterations(self) -> int:
        """Number of rounds: one per secret."""
        return len(self.secrets)

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
    n = resource.num_qubits
    if not np.allclose(resource.amplitudes, _ghz(n), rtol=0.0, atol=ATOL):
        raise ValueError("resource is not the GHZ state produced by make_resource")
    return PureState(_encoded_amplitudes([secret], n)[0])


def _encoded_amplitudes(secrets: Sequence[Secret], n: int) -> np.ndarray:
    """``encode_secret`` of each secret on the n-qubit GHZ resource, as a
    ``(batch, 2^(n+1))`` stack of amplitudes: the Kronecker products formed
    by broadcasting, the XOR applied by one matmul and every norm checked,
    once for all of them."""
    vecs = np.array([s.vector() for s in secrets]).reshape(-1, 2, 1)
    amps = (_cnot(0, 1, n + 1) @ (vecs * _ghz(n)).reshape(len(secrets), -1, 1))[..., 0]
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


def _walk(mat: np.ndarray, measurements: Sequence, m: int) -> tuple[list, np.ndarray]:
    """Every outcome branch of the ``(qubit, basis)`` ``measurements``,
    breadth-first: the leaves' labels in ``itertools.product`` order, and
    their unmeasured blocks as a ``(batch, leaf, 2^(m-h), 2^(m-h))`` array
    for a ``(batch, 2^m, 2^m)`` stack ``mat`` and h measurements.

    Branches that agree on their first d outcomes share one projected
    register: level d is one ``_kept_blocks`` call over the 2^d branches
    of every register, which drops the measured qubit, so the walk is
    O(4^m) in all, where a flat per-branch loop makes 2 + (h-1) 2^h
    sandwiches of the whole register. Each kept entry is the one that loop
    computes, so a leaf is ``2^-k`` times the partial trace over the
    measured qubits, k of them in the Hadamard basis, bit for bit.
    """
    batch, labels = len(mat), [()]
    for i, (qubit, basis) in enumerate(measurements):
        qubit -= sum(q < qubit for q, _ in measurements[:i])  # its index in the rest
        projectors = _BASIS_PROJECTORS[basis]
        mat, m = _kept_blocks(mat, qubit, m, projectors), m - 1
        labels = [prefix + (label,) for prefix in labels for label, _ in projectors]
    return labels, mat.reshape(batch, len(labels), *mat.shape[1:])


def _kept_blocks(mat: np.ndarray, qubit: int, m: int, projectors: Sequence) -> np.ndarray:
    """One level of the branch walk: for a ``(batch, 2^m, 2^m)`` stack
    ``mat``, the block of ``P mat P^dag`` on ``qubit`` that each outcome's
    projector ``P`` keeps, as a ``(batch * outcomes, 2^(m-1), 2^(m-1))``
    stack, outcome-minor.

    A computational outcome keeps its own diagonal block (the other is
    zero); a Hadamard outcome keeps block (0, 0), because its two diagonal
    blocks are equal bit for bit. Kept block (b, b) is ``_half(conj P, b,
    H_b)`` of the row half ``H_b = _half(P, b, X)``, written straight into
    the outcome's slot: the products and sums that ``_apply_channel_matrix``
    gives that block, without the three blocks it drops.
    """
    lo, hi, dim = 2**qubit, 2 ** (m - qubit - 1), 2**m
    kept = np.empty((len(mat), len(projectors), lo, hi, lo, hi), dtype=mat.dtype)
    rows = mat.reshape(-1, lo, 2, hi, dim)
    for o, (label, proj) in enumerate(projectors):
        b = int(label == "1")
        half = _half(proj, b, (rows[:, :, 0], rows[:, :, 1])).reshape(-1, lo, hi, lo, 2, hi)
        _half(proj.conj(), b, (half[..., 0, :], half[..., 1, :]), out=kept[:, o])
    return kept.reshape(-1, lo * hi, lo * hi)


@lru_cache(maxsize=64)
def _support_plan(m: int, passes: tuple) -> tuple:
    """Index arrays that run the pre-walk passes on the register's support.

    ``passes`` holds each pass's ``(qubit, pattern)``: the entries
    ``(E00, E01, E10, E11)`` of each of its operators that are nonzero for
    some register of the call. Each operator has at most one such entry per
    row (weak measurements, reversals, pdc and adc). The support starts at
    the 16 entries ``(x, y)`` of the four basis positions x the encoding
    fills, ``|0 0...0>``, ``|0 1...1>``, ``|1 1 0...0>`` and ``|1 0 1...1>``,
    and each pass moves it to every entry that its operators reach.

    Returns the starting rows and columns; per pass the new support's size
    and, per live operator ``o``, ``(o, src, c1, c2, tgt)``: entry ``tgt``
    gets ``conj(E[c2]) * (E[c1] * x[src])`` (``E`` flattened) added, and no
    ``tgt`` repeats within one operator; and the last support as flat
    positions.
    """
    dim, half, quarter = 2**m, 2 ** (m - 1), 2 ** (m - 2)
    basis = np.array([0, half - 1, half + quarter, half + quarter - 1])
    start = np.repeat(basis, 4), np.tile(basis, 4)
    support, steps = start[0] * dim + start[1], []
    for qubit, pattern in passes:
        bit = 2 ** (m - qubit - 1)
        row_bit, col_bit = support // dim // bit % 2, support // bit % 2
        moves = []  # per live operator: (o, src, c1, c2, target positions)
        for o, nz in enumerate(pattern):
            # One live entry per row keeps an operator's targets distinct, so ``+=`` drops no term.
            assert nz[:2].count(True) <= 1 and nz[2:].count(True) <= 1, nz
            source = {i: k for i in (0, 1) for k in (0, 1) if nz[2 * i + k]}  # E_ik nonzero
            pairs = [
                (np.flatnonzero((row_bit == k) & (col_bit == l)), 2 * i + k, 2 * j + l, (i - k) * dim + j - l)
                for i, k in source.items()
                for j, l in source.items()
            ]
            if pairs:
                src, c1, c2, step = zip(*pairs)
                src_all = np.concatenate(src)
                counts = [len(s) for s in src]
                moves.append(
                    (o, src_all, np.repeat(c1, counts), np.repeat(c2, counts),
                     support[src_all] + np.repeat(step, counts) * bit)
                )
        reached = np.bincount(np.concatenate([target for *_, target in moves]), minlength=dim * dim)
        new = np.flatnonzero(reached)
        steps.append((len(new), [(*move[:4], np.searchsorted(new, move[4])) for move in moves]))
        support = new
    return start, steps, support


def _layout(cfg: ProtocolConfig) -> tuple:
    """What fixes the register and its operator passes: the party count,
    the channel kind on each transmitted leg (``None`` for a noiseless
    one), and whether protection is on."""
    legs = range(len(cfg.transmitted_qubits))
    kinds = tuple(None if spec is None else spec.kind for spec in map(cfg.channel_for, legs))
    return cfg.parties, kinds, cfg.wmrqm is not None


def _operator_passes(cfg: ProtocolConfig) -> list[tuple[int, object, tuple]]:
    """``(qubit, key, operators)`` of each pass before the branch walk, in
    order: the forward weak measurement, the channel and the reversal on
    each transmitted qubit. Equal keys mean equal operators."""
    transmitted = cfg.transmitted_qubits
    passes = []
    if cfg.wmrqm is not None:
        fwd = weak_op(FORWARD_NULL, cfg.wmrqm.s)
        passes += [(q, (FORWARD_NULL, cfg.wmrqm.s), (fwd,)) for q in transmitted]
    operators: dict[NoiseSpec, tuple] = {}
    for i, q in enumerate(transmitted):
        spec = cfg.channel_for(i)
        if spec is not None:
            if spec not in operators:
                operators[spec] = spec.channel().operators
            passes.append((q, spec, operators[spec]))
    if cfg.wmrqm is not None:
        rev = weak_op(REVERSE, cfg.wmrqm.r)
        passes += [(q, (REVERSE, cfg.wmrqm.r), (rev,)) for q in transmitted]
    return passes


def _pre_walk(cfgs: Sequence[ProtocolConfig], secrets: Sequence[Secret]) -> np.ndarray:
    """The ``(batch, 2^m, 2^m)`` stack of registers that the branch walk
    starts from: each secret encoded on a fresh resource and put through
    ``cfgs[i]``'s passes before the walk (``_operator_passes``).

    The passes run on the support only, as a ``(batch, entries)`` array
    laid out by ``_support_plan``, and the result is scattered once into a
    zero stack. Each entry starts as ``|psi><psi|``'s elementwise product
    and gets the products and the operator-order sum that
    ``_apply_channel_matrix`` gives it, so it has that call's value (an
    entry the support leaves out is zero either way; only the sign of an
    exact zero may differ). Each distinct (channel, protection) pair's
    operators are built once; a pass whose operators differ between
    configs takes them per register. One plan serves every register of
    the call: an operator entry is live if it is nonzero for any register,
    and a register whose entry is zero adds exact zeros.
    """
    m = cfgs[0].num_qubits
    keys = [(c.channel, c.wmrqm) for c in cfgs]
    distinct = dict(zip(keys, cfgs))  # one config per (channel, protection) pair
    order = {key: i for i, key in enumerate(distinct)}
    which = [order[key] for key in keys]  # each register's distinct config
    passes, pass_ops = [], []
    for per_config in zip(*map(_operator_passes, distinct.values())):
        (q, key, operators), *others = per_config
        # Each operator's entries (E00, E01, E10, E11): one row for all, or one per register
        ops = [e.reshape(1, 4) for e in operators]
        if any(k != key for _, k, _ in others):
            ops = [np.stack(per).reshape(-1, 4)[which] for per in zip(*(o for _, _, o in per_config))]
        passes.append((q, tuple(tuple((e != 0).any(axis=0).tolist()) for e in ops)))
        pass_ops.append(ops)
    (rows, cols), steps, support = _support_plan(m, tuple(passes))

    amps = _encoded_amplitudes(secrets, m - 1)
    vals = amps[:, rows] * amps[:, cols].conj()
    for (size, plan), ops in zip(steps, pass_ops):
        new = np.zeros((len(vals), size), dtype=vals.dtype)
        for o, src, c1, c2, tgt in plan:
            new[:, tgt] += ops[o][:, c2].conj() * (ops[o][:, c1] * vals[:, src])
        vals = new
    dense = np.zeros((len(vals), 4**m), dtype=vals.dtype)
    dense[:, support] = vals
    return dense.reshape(len(vals), 2**m, 2**m)


def _execute_iteration(cfgs: Sequence[ProtocolConfig], secrets: Sequence[Secret]) -> list[IterationReport]:
    """Run one iteration on the freshly encoded register of each secret,
    the i-th under ``cfgs[i]``; the configs share one ``_layout``.

    Returns the per-branch reports as round 0's, with unscaled
    probabilities, secret-major: all of the first secret's branches, then
    the second's, and so on.

    The registers of all secrets form one stack. ``_pre_walk`` runs the
    passes before the walk on the registers' support, so they cost what the
    support holds (at 8 qubits 16 to 333 of 65,536 entries), and ``_walk``
    computes only the block each outcome keeps. The tail is one call over
    every leaf of every secret: the traces, then the normalisation,
    correction and fidelity of the live branches. Every register gets the
    values it would get alone: the pre-walk's one plan per call may add
    exact zeros where another register's operator entry is nonzero, which
    can move only the sign of a zero inside the register. Only the reports
    are built one by one, and each live one checks its state through the
    ``DensityMatrix`` constructor.
    """
    cfg = cfgs[0]
    labels, branches = _walk(_pre_walk(cfgs, secrets), _measurements(cfg), cfg.num_qubits)
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
    # (state, fidelity, probability) per secret and leaf; a zero branch carries none.
    rows = [[(None, None, 0.0)] * len(leaves) for _ in secrets]
    for i, j, mat, fid, prob in zip(secret_idx.tolist(), leaf_idx.tolist(), fixed, fids, live_probs.tolist()):
        rows[i][j] = (DensityMatrix(mat), fid, prob)
    return [
        IterationReport(0, a, outcomes, _CORRECTION_LABELS[key], state, fid, prob)
        for row in rows
        for (a, outcomes, key), (state, fid, prob) in zip(leaves, row)
    ]


def run_iterations(
    cfg: ProtocolConfig | Sequence[ProtocolConfig], secrets: Sequence[Secret]
) -> list[list[IterationReport]]:
    """``run_iteration`` for each secret, from one pass over their stacked
    registers; the report lists match a per-secret loop bit for bit.

    ``cfg`` is one config for every secret, or one per secret. The configs
    of one call must agree on ``_layout``: the party count, the channel
    kind (pdc, adc or none) on each transmitted leg, and whether protection
    is on; strengths may differ. Otherwise ``ValueError`` is raised before
    anything is simulated. Each secret runs on its own fresh resource, so
    the results do not depend on which secrets, or which configs, share a
    call. The ``secrets`` and ``return_channel`` of a config are not
    used. Registers are stacked ``STACK_ENTRIES // 4^m`` at a time
    on m qubits (at least one).
    """
    secrets = list(secrets)
    cfgs = [cfg] * len(secrets) if isinstance(cfg, ProtocolConfig) else list(cfg)
    if len(cfgs) != len(secrets):
        raise ValueError(f"got {len(cfgs)} configs for {len(secrets)} secrets")
    layouts = {_layout(c) for c in cfgs}
    if len(layouts) > 1:
        raise ValueError(f"configs of one call must share a register layout, got {sorted(layouts, key=repr)}")
    if not cfgs:
        return []
    step = max(1, STACK_ENTRIES // 4 ** cfgs[0].num_qubits)
    reports: list[IterationReport] = []
    for start in range(0, len(secrets), step):
        stop = start + step
        reports += _execute_iteration(cfgs[start:stop], secrets[start:stop])
    per = 2 ** cfgs[0].parties  # dealer outcome times each helper's
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
    ``cfg.secrets`` and ``cfg.return_channel`` are not used.
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


def advance(prev: Sequence[IterationReport], secret: Secret, cfg: ProtocolConfig) -> list[IterationReport]:
    """Recycle the helpers' qubits after the round ``prev`` and share the
    next secret: the next round's reports.

    Each live report of ``prev`` carries its probability and the helpers'
    announced labels, which determine their collapsed qubits exactly. The
    returned qubits (optionally noisy on the way back) are measured and
    flipped to ``|0>``, and a fresh ``|+>`` heads the XOR chain that
    rebuilds the resource. A returned qubit is determined by its label, so
    the return trip and the reset are computed once per label (``+``,
    ``-``), and each surviving reset state is checked to be ``|0><0|`` to
    within ``LINALG_ATOL`` per entry (the outcome-1 reset divides and
    flips, so its diagonal may read 1 - 2^-53). That check is what makes
    recycling exact: the rebuilt resource is ``make_resource``'s, so the
    next round is one run on the fresh encoded register, its probabilities
    scaled by the total weight of every carried branch and reset outcome.
    Without a live report in ``prev`` nothing is carried and the round is
    empty.
    """
    if prev and len(prev[0].collaborator_outcomes) != cfg.parties - 1:
        raise ValueError("previous round and config disagree on party count")
    carried = [(r.branch_probability, r.collaborator_outcomes) for r in prev if r.reconstructed_state is not None]
    if not carried:
        return []

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

    # One term w * x per carried branch and reset combination, in that
    # order: each row of ``table`` holds a branch's combination products,
    # built one helper at a time, left to right, in ``itertools.product``
    # order, and the terms are added one after another from 0.0 (a pairwise
    # sum would round differently). Both labels keep the same reset
    # outcomes: the return channels act on the diagonal, which they share.
    probs = np.array([[p for p, _ in resets[label]] for label in _OUTCOME_STATES])  # rows "+", "-"
    labels = np.array([[o == "-" for o in outcomes] for _, outcomes in carried], dtype=np.intp)
    table = np.ones((len(carried), 1))
    for helper in labels.T:
        table = (table[:, :, None] * probs[helper][:, None, :]).reshape(len(carried), -1)
    terms = np.array([w for w, _ in carried])[:, None] * table
    weight = float(np.add.accumulate(np.concatenate(([0.0], terms.ravel())))[-1])

    index = prev[0].iteration_index + 1
    return [
        IterationReport(
            index, r.alice_outcome, r.collaborator_outcomes, r.correction_applied,
            r.reconstructed_state, r.fidelity, r.branch_probability * weight,
        )
        for r in _execute_iteration([cfg], [secret])
    ]


def run_protocol(cfg: ProtocolConfig) -> list[list[IterationReport]]:
    """Run every configured iteration, recycling qubits in between."""
    out = [run_iteration(cfg, cfg.secrets[0])]
    for secret in cfg.secrets[1:]:
        out.append(advance(out[-1], secret, cfg))
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
