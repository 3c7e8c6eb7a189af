"""Bitwise agreement of the protocol simulator with its flat reference.

``reference_execute`` and ``reference_advance`` are the straightforward
forms of ``protocol._execute_iteration`` and ``protocol.advance``: every
measurement branch is projected from the dealer's root on its own, and
recycling resets each helper qubit of each carried branch separately and
merges the reset combinations whose states agree to within ``allclose``.
Every merged reset state must be ``|0><0|``, so the next round runs on the
fresh encoded register, as the first does;
``test_recycled_register_is_the_fresh_encoding`` checks that rebuilding the
register from the reset states gives it, and
``test_make_resource_is_the_xor_chain`` that the GHZ resource written from
its closed form is, byte for byte, the one the dealer's CNOT chain builds.
The package shares projected prefixes between branches, drops each
measured qubit after its projection (one exact power-of-two scaling at the
leaf stands for the reference's partial trace over equal slices) and
computes each reset once per outcome label; otherwise it does the
reference's floating-point operations, so every probability, fidelity,
reconstructed matrix and carried weight must agree with ``==``, not merely
within a tolerance. The reference applies single-qubit operators through
``_apply_channel_matrix``; the package's rounds do the same products on
the register's support before the walk, and on the kept blocks in it
with the row and column sums (``channels._half``) that
``_apply_channel_matrix`` builds every block from
(``test_support_walk.py`` checks both against the dense calls). In a run
only recycling's resets and the return channel call
``_apply_channel_matrix``, each on one qubit.

``broadcast_sandwich`` is the earlier form of that primitive, two
broadcast products and a sum per pass whatever the operator's zeros;
``_half`` leaves out every product whose coefficient is zero, and with the
reference run on ``broadcast_sandwich`` every report still agrees bit for
bit.

``dense_sandwich`` is the slow form of that primitive: each operator lifted
to the full register with ``embed`` and applied by two dense matmuls. A
BLAS kernel may fuse a row's two products into one rounding, and complex
entries may round in another order, so the two agree to 1e-12, not bitwise.
"""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import partial_trace_oracle, random_density, register_stack
from qss_sim import protocol
from qss_sim.channels import FORWARD_NULL, REVERSE, _apply_channel_matrix, adc, pdc, weak_op
from qss_sim.linalg import (
    KET_0,
    KET_PLUS,
    MINUS_I_PAULI_Y,
    PAULI_X,
    DensityMatrix,
    _qubit_fidelity,
    dagger,
    embed,
    su2,
)
from qss_sim.protocol import (
    ALICE_QUBIT,
    ZERO_BRANCH_ATOL,
    IterationReport,
    NoiseSpec,
    ProtocolConfig,
    Secret,
    Wmrqm,
    advance,
    run_iteration,
    run_iterations,
    run_protocol,
)

_PROJECTORS = protocol._BASIS_PROJECTORS


def encoded_density(secret, n):
    """``|psi><psi|`` of the secret encoded on a fresh n-qubit resource."""
    amps = protocol.encode_secret(secret, protocol.make_resource(n)).amplitudes
    return np.outer(amps, amps.conj())


def _partial_trace_matrix(mat, keep, m):
    """Partial trace onto ``keep`` (listed order) by ``np.trace`` over each
    traced qubit's axis pair, last qubit first."""
    traced = [q for q in range(m) if q not in keep]
    tens = mat.reshape((2,) * (2 * m))
    for q in sorted(traced, reverse=True):
        tens = np.trace(tens, axis1=q, axis2=q + tens.ndim // 2)
    k = len(keep)
    # np.trace leaves the kept axes in ascending register order; reorder to
    # the caller's listed order.
    ascending = sorted(keep)
    perm = [ascending.index(q) for q in keep]
    tens = tens.transpose(perm + [k + p for p in perm])
    return tens.reshape(2**k, 2**k)


class TestPartialTrace:
    def test_product_state(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)  # |00><00|
        assert_allclose(_partial_trace_matrix(rho, [0], 2), np.outer(KET_0, KET_0))

    def test_noiseless_shared_state_marginal_is_maximally_mixed(self):
        # the reconstructor's qubit of the shared three-qubit state carries
        # no information before any announcement
        shared = encoded_density(Secret.from_k(0.3), 2)
        assert_allclose(_partial_trace_matrix(shared, [2], 3), np.eye(2) / 2, atol=1e-12)

    def test_matches_index_loop_oracle(self, rng):
        rho = random_density(rng, 3).matrix
        for keep in ([0], [2], [0, 2], [1, 2], [2, 0]):
            assert_allclose(
                _partial_trace_matrix(rho, keep, 3),
                partial_trace_oracle(rho, keep, 3),
                atol=1e-12,
            )

    def test_damped_protected_state_reduction(self):
        # reduced state of the register after the full protect-damage cycle
        rho = encoded_density(Secret.from_k(0.4), 2)
        for ops in ((weak_op(FORWARD_NULL, 0.2),), adc(0.3).operators, (weak_op(REVERSE, 0.5),)):
            for q in (0, 2):
                rho = _apply_channel_matrix(rho, ops, q, 3)
        rho = rho / rho.trace().real
        assert_allclose(
            _partial_trace_matrix(rho, [2], 3), partial_trace_oracle(rho, [2], 3), atol=1e-12
        )

    def test_trace_preserved_and_keep_all_identity(self, rng):
        rho = random_density(rng, 3).matrix
        for keep in ([0], [1], [0, 1], [0, 1, 2]):
            assert abs(_partial_trace_matrix(rho, keep, 3).trace() - rho.trace()) < 1e-12
        assert_allclose(_partial_trace_matrix(rho, [0, 1, 2], 3), rho, atol=1e-15)


def _correction_label(alice, collaborators):
    return protocol._CORRECTION_LABELS[protocol._correction_key(alice, collaborators)]


def reference_execute(cfg, secret, iteration_index, scale):
    rho = encoded_density(secret, cfg.parties)
    m = cfg.num_qubits
    transmitted = cfg.transmitted_qubits
    if cfg.wmrqm is not None:
        fwd = weak_op(FORWARD_NULL, cfg.wmrqm.s)
        for q in transmitted:
            rho = _apply_channel_matrix(rho, (fwd,), q, m)
    for i, q in enumerate(transmitted):
        spec = cfg.channel_for(i)
        if spec is not None:
            rho = _apply_channel_matrix(rho, spec.channel().operators, q, m)
    if cfg.wmrqm is not None:
        rev = weak_op(REVERSE, cfg.wmrqm.r)
        for q in transmitted:
            rho = _apply_channel_matrix(rho, (rev,), q, m)

    proj_alice = dict(_PROJECTORS["computational"])
    proj_collab = dict(_PROJECTORS["hadamard"])
    helpers = cfg.collaborator_qubits
    secret_vec = secret.vector()
    reports, chain = [], []
    for a in (0, 1):
        rho_a = _apply_channel_matrix(rho, (proj_alice[str(a)],), ALICE_QUBIT, m)
        for outcomes in itertools.product("+-", repeat=len(helpers)):
            branch = rho_a
            for q, o in zip(helpers, outcomes):
                branch = _apply_channel_matrix(branch, (proj_collab[o],), q, m)
            bob = _partial_trace_matrix(branch, [cfg.bob_qubit], m)
            prob = float(bob.trace().real)
            label = _correction_label(a, outcomes)
            if prob <= ZERO_BRANCH_ATOL:
                reports.append(
                    IterationReport(iteration_index, a, outcomes, label, None, None, 0.0)
                )
                continue
            u = protocol.correction(a, outcomes)
            fixed = u @ (bob / prob) @ dagger(u)
            fid = _qubit_fidelity(secret_vec, fixed)
            reports.append(
                IterationReport(
                    iteration_index, a, outcomes, label, DensityMatrix(fixed), fid, prob * scale
                )
            )
            chain.append((prob * scale, outcomes))
    return reports, chain


def reference_reset(state):
    out = []
    for outcome, proj in _PROJECTORS["computational"]:
        projected = _apply_channel_matrix(state.matrix, (proj,), 0, 1)
        prob = float(projected.trace().real)
        if prob <= ZERO_BRANCH_ATOL:
            continue
        fixed = projected / prob
        if outcome == "1":
            fixed = PAULI_X @ fixed @ PAULI_X
        out.append((prob, fixed))
    return out


def returned_qubit(label, return_channel):
    vec = protocol._OUTCOME_STATES[label]
    returned = DensityMatrix(np.outer(vec, vec.conj()))
    if return_channel is not None:
        returned = DensityMatrix(
            _apply_channel_matrix(returned.matrix, return_channel.channel().operators, 0, 1)
        )
    return returned


def reference_merge(branches, cfg):
    """``(weight, reset states)`` of every distinct reset outcome, in order."""
    merged = []
    for weight, outcomes in branches:
        per_qubit = [reference_reset(returned_qubit(o, cfg.return_channel)) for o in outcomes]
        for combo in itertools.product(*per_qubit):
            sub_prob = weight * float(np.prod([p for p, _ in combo]))
            states = tuple(s for _, s in combo)
            for i, (w, existing) in enumerate(merged):
                if all(np.allclose(a, b, atol=1e-12) for a, b in zip(existing, states)):
                    merged[i] = (w + sub_prob, existing)
                    break
            else:
                merged.append((sub_prob, states))
    return merged


def reference_advance(branches, next_iteration, secret, cfg):
    """Returns the merged weights, the carried branches and the reports."""
    merged = reference_merge(branches, cfg)
    all_reports, next_branches = [], []
    for weight, reset_states in merged:
        for state in reset_states:
            assert np.max(np.abs(state - protocol._ZERO_STATE)) <= 1e-12
        reports, chain = reference_execute(cfg, secret, next_iteration, weight)
        all_reports.extend(reports)
        next_branches.extend(chain)
    return [w for w, _ in merged], next_branches, all_reports


def _bits(x):
    """A float's exact value as text (the sign of a zero counts); ``None``
    stays ``None``."""
    return None if x is None else float.hex(x)


def assert_reports_identical(new, ref):
    assert len(new) == len(ref)
    for r, e in zip(new, ref):
        assert r.iteration_index == e.iteration_index
        assert r.alice_outcome == e.alice_outcome
        assert r.collaborator_outcomes == e.collaborator_outcomes
        assert r.correction_applied == e.correction_applied
        assert _bits(r.branch_probability) == _bits(e.branch_probability)
        assert _bits(r.fidelity) == _bits(e.fidelity)
        if e.reconstructed_state is None:
            assert r.reconstructed_state is None
        else:
            assert r.reconstructed_state.matrix.tobytes() == e.reconstructed_state.matrix.tobytes()


def assert_matches_reference(cfg):
    """``run_protocol`` against a loop of ``reference_execute`` and
    ``reference_merge``, round by round, on the reference's own carried
    branches."""
    rounds = run_protocol(cfg)
    assert len(rounds) == len(cfg.secrets)
    ref_reports, ref_chain = reference_execute(cfg, cfg.secrets[0], 0, 1.0)
    assert_reports_identical(rounds[0], ref_reports)
    for i, (secret, reports) in enumerate(zip(cfg.secrets[1:], rounds[1:]), start=1):
        weights, ref_chain, ref_reports = reference_advance(ref_chain, i, secret, cfg)
        # The reset lands every combination on |0>, so the merge keeps one state.
        assert len(weights) <= 1
        assert_reports_identical(reports, ref_reports)


unit = st.floats(0.0, 1.0)
noise = st.builds(NoiseSpec, st.sampled_from(["pdc", "adc"]), unit)


@st.composite
def protocol_configs(draw, parties, max_rounds=3):
    rounds = draw(st.integers(1, max_rounds))
    return ProtocolConfig(
        parties=parties,
        secrets=tuple(Secret.from_k(draw(unit)) for _ in range(rounds)),
        channel=draw(noise),
        wmrqm=draw(st.none() | st.builds(Wmrqm, unit, unit)),
        return_channel=draw(st.none() | noise),
    )


@pytest.mark.parametrize("parties", [2, 3, 4, 5])
@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_matches_flat_reference(parties, data):
    assert_matches_reference(data.draw(protocol_configs(parties)))


def test_matches_flat_reference_six_parties():
    assert_matches_reference(
        ProtocolConfig(
            parties=6,
            secrets=(Secret.from_k(0.37), Secret.from_k(0.81)),
            channel=NoiseSpec("adc", 0.45),
            wmrqm=Wmrqm(0.3, 0.25),
            return_channel=NoiseSpec("adc", 0.5),
        )
    )


@pytest.mark.parametrize("parties", [2, 3])
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_long_chains_match_flat_reference(parties, data):
    """Up to 50 rounds, with and without protection and a return channel:
    every round's reports keep the reference's bits, so no carried weight
    drifts as the chain grows. Budget: about 3 s for both party counts
    (2-CPU x86-64)."""
    assert_matches_reference(data.draw(protocol_configs(parties, max_rounds=50)))


def test_subnormal_branch_matches_flat_reference():
    """The walk keeps one diagonal slice of each Hadamard-measured qubit and
    scales the reconstructor's block by 2^k once, at the leaf. Summing the
    two equal slices at every level instead would double intermediate
    values, and a later projector entry of about 1/2 rounds a doubled
    subnormal differently; this secret drives entries into that range."""
    assert_matches_reference(
        ProtocolConfig(
            parties=4,
            secrets=(Secret(6.5298541031648925e-152, 1.0),),
            channel=NoiseSpec("adc", 0.99609375),
        )
    )


def assert_bits_equal(new, ref):
    """Reports equal bit for bit: each float by ``float.hex``, so ``-0.0``
    is not ``0.0``, and each reconstructed matrix by its bytes."""
    assert len(new) == len(ref)
    for r, e in zip(new, ref):
        assert (r.iteration_index, r.alice_outcome, r.collaborator_outcomes, r.correction_applied) == (
            e.iteration_index, e.alice_outcome, e.collaborator_outcomes, e.correction_applied
        )
        assert r.branch_probability.hex() == e.branch_probability.hex()
        if e.reconstructed_state is None:
            assert r.reconstructed_state is None and r.fidelity is None
        else:
            assert r.fidelity.hex() == e.fidelity.hex()
            assert r.reconstructed_state.matrix.tobytes() == e.reconstructed_state.matrix.tobytes()


edge = st.sampled_from([0.0, 1.0, 5e-324, 0.99609375])
edge_noise = st.builds(NoiseSpec, st.sampled_from(["pdc", "adc"]), edge | unit)


@st.composite
def secrets(draw):
    """A secret with a complex phase; one amplitude may be subnormal or tiny."""
    a = draw(st.sampled_from([5e-324, 2.5e-310, 6.5298541031648925e-152]) | unit)
    t = draw(st.floats(0.0, 2 * math.pi))
    b = math.sqrt(1.0 - a * a) * complex(math.cos(t), math.sin(t))
    return Secret(b, a) if draw(st.booleans()) else Secret(a, b)


@pytest.mark.parametrize("parties", range(2, 8))
@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_run_iterations_equals_a_loop_of_run_iteration(parties, data):
    """A stack of secrets gives each secret the bytes it gets alone, whether
    the stack is split to ``STACK_ENTRIES`` or run whole."""
    channel = data.draw(st.none() | edge_noise | st.tuples(*[st.none() | edge_noise] * parties))
    wmrqm = data.draw(st.none() | st.builds(Wmrqm, edge | unit, edge | unit))
    batch = data.draw(st.lists(secrets(), min_size=1, max_size=21 if parties <= 5 else 4))
    cfg = ProtocolConfig(parties=parties, secrets=batch[:1], channel=channel, wmrqm=wmrqm)
    stack = protocol.STACK_ENTRIES * data.draw(st.sampled_from([1, 4**8]))
    with mock.patch.object(protocol, "STACK_ENTRIES", stack):
        batched = run_iterations(cfg, batch)
    assert len(batched) == len(batch)
    for reports, secret in zip(batched, batch):
        assert_bits_equal(reports, run_iteration(cfg, secret))


@st.composite
def mixed_config_stacks(draw, parties):
    """Configs of one register layout with strengths of their own, each
    paired with a secret: a kind (or none) per leg and protection on or
    off are drawn once, then every config draws its strengths, 0 and 1
    among them. A leg list of one kind may be given as one spec."""
    kinds = draw(st.tuples(*[st.sampled_from([None, "pdc", "adc"])] * parties))
    protected = draw(st.booleans())
    pairs = []
    for _ in range(draw(st.integers(1, 12 if parties < 4 else 6))):
        legs = tuple(None if kind is None else NoiseSpec(kind, draw(edge | unit)) for kind in kinds)
        channel = legs[0] if len(set(legs)) == 1 and draw(st.booleans()) else legs
        wmrqm = draw(st.builds(Wmrqm, edge | unit, edge | unit)) if protected else None
        pairs.append((ProtocolConfig(parties=parties, secrets=(Secret(1.0, 0.0),), channel=channel, wmrqm=wmrqm), draw(secrets())))
    return pairs


@pytest.mark.parametrize("parties", [2, 3, 4])
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_run_iterations_on_mixed_configs_equals_a_loop_of_run_iteration(parties, data):
    """A stack of configs that differ in strengths gives each (config,
    secret) pair the bytes it gets alone, split to ``STACK_ENTRIES`` or
    run whole."""
    pairs = data.draw(mixed_config_stacks(parties))
    cfgs, batch = zip(*pairs)
    stack = protocol.STACK_ENTRIES * data.draw(st.sampled_from([4**-4, 1]))
    with mock.patch.object(protocol, "STACK_ENTRIES", int(stack)):
        batched = run_iterations(cfgs, batch)
    assert len(batched) == len(pairs)
    for reports, (cfg, secret) in zip(batched, pairs):
        assert_bits_equal(reports, run_iteration(cfg, secret))


def test_mixed_configs_keep_their_own_zero_branches():
    """Full reversal empties the dealer-outcome-1 branches of its config
    only; amplitude damping at 0 and 1 sits next to 0.5 on the same legs."""
    h = 2**-0.5
    cfgs = [
        ProtocolConfig(parties=3, secrets=(Secret(1.0, 0.0),), channel=NoiseSpec("adc", p), wmrqm=Wmrqm(0.3, r))
        for p, r in ((0.5, 1.0), (0.0, 0.4), (1.0, 1.0), (0.5, 0.0), (1.0, 0.25))
    ]
    batch = [Secret(h, 1j * h), Secret(0.0, 1.0), Secret(0.6, 0.8), Secret(5e-324, 1.0), Secret(1.0, 0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batched = run_iterations(cfgs, batch)
    for reports, cfg, secret in zip(batched, cfgs, batch):
        zero = [r.reconstructed_state is None for r in reports[4:]]
        assert all(zero) == (cfg.wmrqm.r == 1.0)
        assert_bits_equal(reports, run_iteration(cfg, secret))


LAYOUT_MISMATCHES = {
    "parties": ProtocolConfig(parties=3, secrets=(Secret(1.0, 0.0),), channel=NoiseSpec("adc", 0.5)),
    "kind": ProtocolConfig(parties=2, secrets=(Secret(1.0, 0.0),), channel=NoiseSpec("pdc", 0.5)),
    "noiseless leg": ProtocolConfig(parties=2, secrets=(Secret(1.0, 0.0),), channel=(NoiseSpec("adc", 0.5), None)),
    "protection": ProtocolConfig(
        parties=2, secrets=(Secret(1.0, 0.0),), channel=NoiseSpec("adc", 0.5), wmrqm=Wmrqm(0.0, 0.0)
    ),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_MISMATCHES))
def test_configs_of_another_layout_are_refused_before_simulating(name):
    base = ProtocolConfig(parties=2, secrets=(Secret(1.0, 0.0),), channel=NoiseSpec("adc", 0.25))
    cfgs = [base, LAYOUT_MISMATCHES[name], base]
    with mock.patch.object(protocol, "_encoded_amplitudes", side_effect=AssertionError("simulated")):
        with pytest.raises(ValueError, match="register layout"):
            run_iterations(cfgs, [Secret.from_k(0.3)] * 3)


def test_one_config_per_secret():
    cfg = ProtocolConfig(parties=2, secrets=(Secret(1.0, 0.0),))
    with pytest.raises(ValueError, match="2 configs for 3 secrets"):
        run_iterations([cfg, cfg], [Secret.from_k(0.3)] * 3)


@pytest.mark.parametrize("parties", range(2, 8))
@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_run_iterations_matches_the_flat_reference_on_broadcast_sandwiches(parties, data):
    """The package's rounds against the flat per-branch reference on the
    earlier two-product arithmetic: no signed zero that skipping a zero
    half can leave reaches a report. ``test_support_walk.py`` checks the
    support passes and the walk against ``_apply_channel_matrix`` on their
    own."""
    channel = data.draw(st.none() | edge_noise | st.tuples(*[st.none() | edge_noise] * parties))
    wmrqm = data.draw(st.none() | st.builds(Wmrqm, edge | unit, edge | unit))
    batch = [
        Secret(s.alpha * sign, s.beta)
        for s, sign in data.draw(
            st.lists(st.tuples(secrets(), st.sampled_from([1, -1])), min_size=1, max_size=3 if parties < 7 else 2)
        )
    ]
    cfg = ProtocolConfig(parties=parties, secrets=batch[:1], channel=channel, wmrqm=wmrqm)
    with mock.patch.dict(globals(), _apply_channel_matrix=broadcast_sandwich):
        ref = [reference_execute(cfg, secret, 0, 1.0)[0] for secret in batch]
    new = run_iterations(cfg, batch)
    assert len(new) == len(ref)
    for reports, expected in zip(new, ref):
        assert_bits_equal(reports, expected)


@pytest.mark.parametrize("parties", range(2, 8))
def test_round_makes_no_dense_sandwich_and_walks_each_level_once(parties):
    """A round runs its operator passes on the support and its walk on kept
    blocks: no ``_apply_channel_matrix`` call, and one ``_kept_blocks``
    call per measurement, each on a register one qubit smaller than the
    last, over every branch at once. Recycling's resets are the only
    sandwiches the module makes in a run: two projectors per returned
    label (the return channel goes through ``apply_channel``)."""
    cfg = ProtocolConfig(
        parties=parties,
        secrets=(Secret.from_k(0.3), Secret.from_k(0.6)),
        channel=NoiseSpec("adc", 0.4),
        wmrqm=Wmrqm(0.2, 0.5),
        return_channel=NoiseSpec("pdc", 0.3),
    )
    with mock.patch.object(protocol, "_apply_channel_matrix", wraps=_apply_channel_matrix) as sandwich, \
            mock.patch.object(protocol, "_kept_blocks", wraps=protocol._kept_blocks) as level:
        run_iteration(cfg, cfg.secrets[0])
        assert sandwich.call_count == 0
        assert [(len(c.args[0]), c.args[2]) for c in level.call_args_list] == [
            (2**d, cfg.num_qubits - d) for d in range(parties)
        ]
        run_protocol(cfg)
    assert sandwich.call_count == 2 * 2
    assert level.call_count == 3 * parties


def test_run_iterations_keeps_zero_probability_branches_per_secret():
    # Full reversal empties the dealer-outcome-1 branches of every secret.
    h = 2**-0.5
    batch = [Secret(1.0, 0.0), Secret(0.0, 1.0), Secret(5e-324, 1.0), Secret(h, 1j * h)]
    cfg = ProtocolConfig(
        parties=3, secrets=batch[:1], channel=NoiseSpec("adc", 0.5), wmrqm=Wmrqm(0.3, 1.0)
    )
    with warnings.catch_warnings():
        # the stacked tail divides only live branches, so no 0/0 is hidden by the mask
        warnings.simplefilter("error", RuntimeWarning)
        batched = run_iterations(cfg, batch)
    assert all(r.reconstructed_state is None for reports in batched for r in reports[4:])
    for reports, secret in zip(batched, batch):
        assert_bits_equal(reports, run_iteration(cfg, secret))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nan_branch_is_refused_not_dropped(monkeypatch):
    """A nan branch probability is not below ``ZERO_BRANCH_ATOL``: the
    branch stays live and its state is refused, instead of being reported
    as a zero branch."""
    cfg = ProtocolConfig(parties=2, secrets=(Secret.from_k(0.5),))
    encoded = protocol._encoded_amplitudes
    monkeypatch.setattr(protocol, "_encoded_amplitudes", lambda secrets, n: encoded(secrets, n) * np.nan)
    with pytest.raises(ValueError, match="must be finite"):
        run_iteration(cfg, cfg.secrets[0])


def test_reset_that_misses_zero_is_loud(monkeypatch):
    cfg = ProtocolConfig(parties=2, secrets=(Secret.from_k(0.4),) * 2)
    first = run_iteration(cfg, cfg.secrets[0])
    monkeypatch.setattr(
        protocol, "_reset_to_zero", lambda returned: [(1.0, returned.matrix)]
    )
    with pytest.raises(RuntimeError, match="did not land on"):
        advance(first, cfg.secrets[1], cfg)


RETURN_CHANNELS = [None] + [
    NoiseSpec(kind, strength) for kind in ("pdc", "adc") for strength in (0.0, 0.3, 0.99, 1.0)
]


def chained_resource(n):
    """The GHZ resource built the long way: ``|+>|0...0>`` run through the
    XOR chain ``CNOT(0,1), CNOT(1,2), ...``, each CNOT a dense matrix."""
    amps = KET_PLUS
    for _ in range(n - 1):
        amps = np.kron(amps, KET_0)
    for q in range(n - 1):
        amps = protocol._cnot(q, q + 1, n) @ amps
    return amps


@pytest.mark.parametrize("n", range(2, 9))
def test_make_resource_is_the_xor_chain(n):
    # bytes, so that a signed zero or a last-bit difference counts
    assert protocol.make_resource(n).amplitudes.tobytes() == chained_resource(n).tobytes()


def rebuilt_register(secret, reset_states):
    """The register built the long way: ``|+><+|`` and the reset helper
    qubits, the resource's XOR chain and the secret's XOR, each CNOT applied
    as a dense sandwich."""
    n = len(reset_states) + 1
    resource = np.outer(KET_PLUS, KET_PLUS.conj())
    for state in reset_states:
        resource = np.kron(resource, state)
    for q in range(n - 1):
        gate = protocol._cnot(q, q + 1, n)
        resource = gate @ resource @ dagger(gate)
    sv = secret.vector()
    rho = np.kron(np.outer(sv, sv.conj()), resource)
    gate = protocol._cnot(0, 1, n + 1)
    return gate @ rho @ dagger(gate)


@pytest.mark.parametrize("parties", range(2, 8))
def test_recycled_register_is_the_fresh_encoding(parties):
    helpers = parties - 1
    for return_channel in RETURN_CHANNELS:
        returned = [returned_qubit(label, return_channel) for label in "+-"]
        survivors = [s for qubit in returned for _, s in protocol._reset_to_zero(qubit)]
        # Each surviving reset state on every helper, and all of them in turn.
        assignments = [(s,) * helpers for s in survivors]
        assignments.append(tuple(survivors[i % len(survivors)] for i in range(helpers)))
        for k in (0.0, 0.37, 1.0):
            secret = Secret.from_k(k)
            fresh = encoded_density(secret, parties)
            for reset_states in assignments:
                diff = np.max(np.abs(rebuilt_register(secret, reset_states) - fresh))
                assert diff <= 1e-15, (return_channel, k, diff)


@pytest.mark.parametrize("parties", range(2, 8))
@pytest.mark.parametrize("protected", [False, True], ids=["plain", "wmrqm-return"])
def test_round_k_equals_round_one_on_the_same_secret(parties, protected):
    rounds = 3 if parties <= 5 else 2
    cfg = ProtocolConfig(
        parties=parties,
        secrets=tuple(Secret.from_k(k) for k in (0.37, 0.81, 0.12)[:rounds]),
        channel=NoiseSpec("adc", 0.45),
        wmrqm=Wmrqm(0.3, 0.25) if protected else None,
        return_channel=NoiseSpec("adc", 0.5) if protected else None,
    )
    reports = run_iteration(cfg, cfg.secrets[0])
    for secret in cfg.secrets[1:]:
        carried = [
            (r.branch_probability, r.collaborator_outcomes) for r in reports if r.reconstructed_state is not None
        ]
        (w, _), = reference_merge(carried, cfg)
        reports = advance(reports, secret, cfg)
        single = run_iteration(cfg, secret)
        assert len(reports) == len(single) == 2**parties
        for r, s in zip(reports, single):
            assert r.collaborator_outcomes == s.collaborator_outcomes
            assert r.alice_outcome == s.alice_outcome
            assert r.fidelity == s.fidelity
            assert r.branch_probability == s.branch_probability * w
            if s.reconstructed_state is None:
                assert r.reconstructed_state is None
            else:
                assert np.array_equal(r.reconstructed_state.matrix, s.reconstructed_state.matrix)


def dense_sandwich(mat, operators, qubit, m):
    result = np.zeros_like(mat)
    for op in operators:
        e = embed(op, [qubit], m)
        result += e @ mat @ dagger(e)
    return result


DENSE_TOL = 1e-12

_OPERATOR_SETS = {
    "pdc": pdc(0.37).operators,
    "adc": adc(0.61).operators,
    "forward": (weak_op(FORWARD_NULL, 0.3),),
    "reverse": (weak_op(REVERSE, 0.45),),
    **{f"{basis}-{o}": (p,) for basis, projs in _PROJECTORS.items() for o, p in projs},
    "su2": (su2(0.7, -1.3, 2.1),),
}


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("name", sorted(_OPERATOR_SETS))
def test_axis_sandwich_matches_dense_embed(m, name):
    rng = np.random.default_rng(m)
    a = rng.normal(size=(2**m, 2**m)) + 1j * rng.normal(size=(2**m, 2**m))
    rho = a @ dagger(a) / np.trace(a @ dagger(a)).real
    for q in range(m):
        new = _apply_channel_matrix(rho, _OPERATOR_SETS[name], q, m)
        dense = dense_sandwich(rho, _OPERATOR_SETS[name], q, m)
        assert np.max(np.abs(new - dense)) <= DENSE_TOL


@pytest.mark.parametrize("parties", range(2, 8))
def test_run_iteration_matches_dense_embed(parties, monkeypatch):
    cfg = ProtocolConfig(
        parties=parties,
        secrets=(Secret(0.6, 0.8j),),
        channel=NoiseSpec("adc", 0.35) if parties % 2 else NoiseSpec("pdc", 0.35),
        wmrqm=Wmrqm(0.3, 0.4),
    )
    new = run_iteration(cfg, cfg.secrets[0])
    # The round itself makes no sandwich call: its dense form is the flat reference's
    monkeypatch.setitem(globals(), "_apply_channel_matrix", dense_sandwich)
    dense, _ = reference_execute(cfg, cfg.secrets[0], 0, 1.0)
    assert len(new) == len(dense) == 2**parties
    for r, d in zip(new, dense):
        assert (r.alice_outcome, r.collaborator_outcomes) == (d.alice_outcome, d.collaborator_outcomes)
        assert r.branch_probability == pytest.approx(d.branch_probability, rel=0, abs=DENSE_TOL)
        assert r.fidelity == pytest.approx(d.fidelity, rel=0, abs=DENSE_TOL)
        assert np.max(np.abs(r.reconstructed_state.matrix - d.reconstructed_state.matrix)) <= DENSE_TOL


def broadcast_sandwich(mat, operators, qubit, m):
    """``sum_i E_i mat E_i^dag`` as two broadcast products and a sum per
    pass, ``dst[:, i] = E[i, 0] src[:, 0] + E[i, 1] src[:, 1]``, zero
    entries included."""
    rows = mat.reshape(-1, 2, 2 ** (m - qubit - 1) * 2**m)
    half, part, result = np.empty_like(rows), np.empty_like(mat), np.empty_like(mat)
    cols = half.reshape(-1, 2, 2 ** (m - qubit - 1))
    for n, e in enumerate(operators):
        term = np.empty_like(cols) if n else result.reshape(cols.shape)
        for src, op, dst in ((rows, e, half), (cols, e.conj(), term)):
            np.multiply(op[:, :1], src[:, :1], out=dst)
            dst += np.multiply(op[:, 1:], src[:, 1:], out=part.reshape(dst.shape))
        if n:
            result += term.reshape(result.shape)
    return result


EDGE_STRENGTHS = (0.0, 5e-324, 0.5, 0.99609375, 1.0)

_SANDWICH_OPERATOR_SETS = {
    **_OPERATOR_SETS,
    **{f"{ch.__name__}-{x!r}": ch(x).operators for ch in (pdc, adc) for x in EDGE_STRENGTHS},
    **{f"{kind}-{x!r}": (weak_op(kind, x),) for kind in (FORWARD_NULL, REVERSE) for x in EDGE_STRENGTHS},
    "X": (PAULI_X,),
    "-iY": (MINUS_I_PAULI_Y,),
}


@pytest.mark.parametrize("m", range(1, 9))
def test_half_skipping_sandwich_equals_broadcast_sandwich(m):
    """Elementwise ``==`` at every qubit and operator; where no operator
    entry is zero nothing is skipped and only additions commute, so the
    bytes agree too, signed zeros included."""
    stack = register_stack(m, np.random.default_rng(m))
    for name, ops in _SANDWICH_OPERATOR_SETS.items():
        no_zero_entry = all(np.all(op != 0) for op in ops)
        for q in range(m):
            new = _apply_channel_matrix(stack, ops, q, m)
            old = broadcast_sandwich(stack, ops, q, m)
            assert np.array_equal(new, old), (name, q)
            if no_zero_entry:
                assert new.tobytes() == old.tobytes(), (name, q)
