"""Bitwise agreement of the protocol simulator with its flat reference.

``reference_execute`` and ``reference_advance`` are the straightforward
forms of ``protocol._execute_iteration`` and ``protocol.advance``: every
measurement branch is projected from the dealer's root on its own, and
recycling resets each helper qubit of each carried branch separately and
merges the reset combinations whose states agree to within ``allclose``.
The package shares projected prefixes between branches and computes each
reset once per outcome label; both do the same floating-point operations
as the reference, so every probability, fidelity, reconstructed matrix and
carried weight must agree with ``==``, not merely within a tolerance.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss_sim import linalg, protocol
from qss_sim.channels import FORWARD_NULL, REVERSE, _apply_channel_matrix, weak_op
from qss_sim.linalg import KET_PLUS, PAULI_X, DensityMatrix, _partial_trace_matrix, dagger, embed
from qss_sim.protocol import (
    ALICE_QUBIT,
    ZERO_BRANCH_ATOL,
    IterationReport,
    NoiseSpec,
    ProtocolConfig,
    Secret,
    Wmrqm,
    advance,
    start_chain,
)

_PROJECTORS = protocol._BASIS_PROJECTORS


def reference_execute(rho, cfg, secret, iteration_index, scale):
    m = cfg.num_qubits
    transmitted = cfg.transmitted_qubits
    if cfg.wmrqm is not None:
        fwd = weak_op(FORWARD_NULL, cfg.wmrqm.s)
        for q in transmitted:
            e = embed(fwd.matrix, [q], m)
            rho = e @ rho @ dagger(e)
    for i, q in enumerate(transmitted):
        spec = cfg.channel_for(i)
        if spec is not None:
            rho = _apply_channel_matrix(rho, spec.channel().operators, q, m)
    if cfg.wmrqm is not None:
        rev = weak_op(REVERSE, cfg.wmrqm.r)
        for q in transmitted:
            e = embed(rev.matrix, [q], m)
            rho = e @ rho @ dagger(e)

    proj_alice = {o: embed(p, [ALICE_QUBIT], m) for o, p in _PROJECTORS["computational"]}
    proj_collab = [
        {o: embed(p, [q], m) for o, p in _PROJECTORS["hadamard"]}
        for q in cfg.collaborator_qubits
    ]
    secret_vec = secret.vector()
    reports, chain = [], []
    for a in (0, 1):
        rho_a = proj_alice[str(a)] @ rho @ proj_alice[str(a)]
        for outcomes in itertools.product("+-", repeat=len(proj_collab)):
            branch = rho_a
            for projs, o in zip(proj_collab, outcomes):
                branch = projs[o] @ branch @ projs[o]
            bob = _partial_trace_matrix(branch, [cfg.bob_qubit], m)
            prob = float(bob.trace().real)
            label = protocol._correction_label(a, outcomes)
            if prob <= ZERO_BRANCH_ATOL:
                reports.append(
                    IterationReport(iteration_index, a, outcomes, label, None, None, 0.0)
                )
                continue
            u = protocol.correction(a, outcomes)
            fixed = u @ (bob / prob) @ dagger(u)
            fid = float(np.real(secret_vec.conj() @ fixed @ secret_vec))
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
        projected = proj @ state.matrix @ proj
        prob = float(projected.trace().real)
        if prob <= ZERO_BRANCH_ATOL:
            continue
        fixed = projected / prob
        if outcome == "1":
            fixed = PAULI_X @ fixed @ PAULI_X
        out.append((prob, fixed))
    return out


def reference_advance(branches, next_iteration, secret, cfg):
    """Returns the merged weights, the carried branches and the reports."""
    n = cfg.parties
    merged = []
    for weight, outcomes in branches:
        per_qubit = []
        for o in outcomes:
            vec = protocol._OUTCOME_STATES[o]
            returned = DensityMatrix(np.outer(vec, vec.conj()))
            if cfg.return_channel is not None:
                returned = DensityMatrix(
                    _apply_channel_matrix(returned.matrix, cfg.return_channel.channel().operators, 0, 1)
                )
            per_qubit.append(reference_reset(returned))
        for combo in itertools.product(*per_qubit):
            sub_prob = weight * float(np.prod([p for p, _ in combo]))
            states = tuple(s for _, s in combo)
            for i, (w, existing) in enumerate(merged):
                if all(np.allclose(a, b, atol=1e-12) for a, b in zip(existing, states)):
                    merged[i] = (w + sub_prob, existing)
                    break
            else:
                merged.append((sub_prob, states))

    all_reports, next_branches = [], []
    for weight, reset_states in merged:
        resource = linalg.tensor_all([np.outer(KET_PLUS, KET_PLUS.conj()), *reset_states])
        for q in range(n - 1):
            gate = protocol._cnot(q, q + 1, n)
            resource = gate @ resource @ dagger(gate)
        sv = secret.vector()
        rho = np.kron(np.outer(sv, sv.conj()), resource)
        gate = protocol._cnot(0, 1, n + 1)
        rho = gate @ rho @ dagger(gate)
        reports, chain = reference_execute(rho, cfg, secret, next_iteration, weight)
        all_reports.extend(reports)
        next_branches.extend(chain)
    return [w for w, _ in merged], next_branches, all_reports


def assert_reports_identical(new, ref):
    assert len(new) == len(ref)
    for r, e in zip(new, ref):
        assert r.iteration_index == e.iteration_index
        assert r.alice_outcome == e.alice_outcome
        assert r.collaborator_outcomes == e.collaborator_outcomes
        assert r.correction_applied == e.correction_applied
        assert r.branch_probability == e.branch_probability
        assert r.fidelity == e.fidelity
        if e.reconstructed_state is None:
            assert r.reconstructed_state is None
        else:
            assert np.array_equal(r.reconstructed_state.matrix, e.reconstructed_state.matrix)


def assert_matches_reference(cfg):
    secret = cfg.secrets[0]
    state, reports = start_chain(cfg, secret)
    ref_reports, ref_chain = reference_execute(
        protocol._encoded_density(secret, cfg.parties), cfg, secret, 0, 1.0
    )
    assert_reports_identical(reports, ref_reports)
    assert state.branches == tuple(ref_chain)

    for i, secret in enumerate(cfg.secrets[1:], start=1):
        weights, ref_chain, ref_reports = reference_advance(state.branches, i, secret, cfg)
        # The reset lands every combination on |0>, so the merge keeps one state.
        assert len(weights) <= 1
        state, reports = advance(state, secret, cfg)
        assert state.next_iteration == i + 1
        assert_reports_identical(reports, ref_reports)
        assert state.branches == tuple(ref_chain)


unit = st.floats(0.0, 1.0)
noise = st.builds(NoiseSpec, st.sampled_from(["pdc", "adc"]), unit)


@st.composite
def protocol_configs(draw, parties):
    rounds = draw(st.integers(1, 3))
    return ProtocolConfig(
        parties=parties,
        secrets=tuple(Secret.from_k(draw(unit)) for _ in range(rounds)),
        channel=draw(noise),
        wmrqm=draw(st.none() | st.builds(Wmrqm, unit, unit)),
        iterations=rounds,
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
            iterations=2,
            return_channel=NoiseSpec("adc", 0.5),
        )
    )


def test_reset_that_misses_zero_is_loud(monkeypatch):
    cfg = ProtocolConfig(parties=2, secrets=(Secret.from_k(0.4),) * 2, iterations=2)
    state, _ = start_chain(cfg)
    monkeypatch.setattr(
        protocol, "_reset_to_zero", lambda returned: [(1.0, returned.matrix)]
    )
    with pytest.raises(RuntimeError, match="did not land on"):
        advance(state, cfg.secrets[1], cfg)
