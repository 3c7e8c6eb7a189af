import gc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import PROJECTORS, partial_trace_oracle, random_secret, withheld_oracle
from qss_sim import protocol
from qss_sim.channels import _apply_channel_matrix, apply_channel
from qss_sim.linalg import ID2, MINUS_I_PAULI_Y, PAULI_X, PAULI_Z, DensityMatrix, embed
from qss_sim.protocol import (
    _BASIS_PROJECTORS,
    _encoded_amplitudes,
    CORRECTION_TABLE,
    NoiseSpec,
    ProtocolConfig,
    Secret,
    Wmrqm,
    advance,
    aggregate_fidelity,
    correction,
    encode_secret,
    make_resource,
    run_iteration,
    run_protocol,
    success_probability,
)


class TestSecret:
    def test_from_k(self):
        s = Secret.from_k(0.3)
        assert s.k == pytest.approx(0.3)
        assert s.alpha == pytest.approx(np.sqrt(0.3))

    def test_complex_amplitudes(self):
        s = Secret(alpha=0.6j, beta=0.8 * np.exp(1.2j))
        assert s.k == pytest.approx(0.36)

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            Secret(alpha=1.0, beta=0.2)
        with pytest.raises(ValueError):
            Secret.from_k(1.2)

    @pytest.mark.parametrize(
        "alpha, beta",
        [(np.nan, 0.0), (1.0, np.nan), (complex(np.nan, 0.0), 1.0), (np.inf, 0.0), (0.0, -np.inf)],
    )
    def test_non_finite_amplitudes_rejected(self, alpha, beta):
        # nan slipped through the norm check: abs(nan - 1) > atol is False
        with pytest.raises(ValueError, match="must be finite"):
            Secret(alpha=alpha, beta=beta)


class TestMakeResource:
    def test_bell_pair(self):
        assert_allclose(make_resource(2).amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_three_qubit_resource(self):
        amps = make_resource(3).amplitudes
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        assert_allclose(amps, expected)

    def test_five_qubit_support(self):
        amps = make_resource(5).amplitudes
        nonzero = np.flatnonzero(np.abs(amps) > 1e-15)
        assert list(nonzero) == [0, 31]
        assert_allclose(np.abs(amps[nonzero]), 1 / np.sqrt(2))

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_resource(1)


class TestEncodeSecret:
    def test_basis_secret(self):
        amps = encode_secret(Secret(alpha=1.0, beta=0.0), make_resource(2)).amplitudes
        expected = np.zeros(8)
        expected[0b000] = expected[0b011] = 1 / np.sqrt(2)
        assert_allclose(amps, expected)

    def test_balanced_secret(self):
        amps = encode_secret(Secret.from_k(0.5), make_resource(2)).amplitudes
        expected = np.zeros(8)
        for label in (0b000, 0b011, 0b110, 0b101):
            expected[label] = 0.5
        assert_allclose(amps, expected, atol=1e-15)

    def test_multi_party_support(self):
        a, b = np.sqrt(0.3), np.sqrt(0.7)
        amps = encode_secret(Secret(alpha=a, beta=b), make_resource(3)).amplitudes
        weights = {0b0000: a, 0b0111: a, 0b1100: b, 0b1011: b}
        for label in range(16):
            expected = weights.get(label, 0.0) / np.sqrt(2)
            assert amps[label] == pytest.approx(expected, abs=1e-15)

    def test_stack_matches_kron_then_xor(self, rng):
        """The stacked encoding gives each secret the bytes of ``CNOT @
        np.kron(secret, resource)``, and ``encode_secret`` is its one-secret
        case."""
        for n in (2, 3, 7):
            resource = make_resource(n)
            cnot = embed(np.eye(4)[[0, 1, 3, 2]], [0, 1], n + 1)
            batch = [random_secret(rng) for _ in range(5)] + [Secret(5e-324, 1.0)]
            amps = _encoded_amplitudes(batch, n)
            for row, secret in zip(amps, batch):
                expected = cnot @ np.kron(secret.vector(), resource.amplitudes)
                assert row.tobytes() == expected.tobytes()
                assert encode_secret(secret, resource).amplitudes.tobytes() == expected.tobytes()

    def test_malformed_resource_rejected(self):
        from qss_sim.linalg import PureState

        not_ghz = PureState(np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValueError):
            encode_secret(Secret.from_k(0.5), not_ghz)

    def test_resource_check_has_no_relative_slack(self):
        from qss_sim.linalg import PureState

        def rotated(angle):
            # normalised, and ``angle`` radians off GHZ in its 2-d span
            amps = np.zeros(8, dtype=complex)
            amps[0], amps[-1] = np.cos(np.pi / 4 + angle), np.sin(np.pi / 4 + angle)
            return PureState(amps)

        with pytest.raises(ValueError, match="not the GHZ state"):
            encode_secret(Secret.from_k(0.5), rotated(5e-6))
        encode_secret(Secret.from_k(0.5), rotated(1e-11))


def project(mat, qubit, basis, m):
    """Unnormalized state after each outcome of measuring one qubit, by label."""
    return {o: _apply_channel_matrix(mat, (p,), qubit, m) for o, p in PROJECTORS[basis].items()}


def trace(mat):
    return float(mat.trace().real)


class TestProjectiveMeasurement:
    def test_zero_one_projection(self):
        branches = project(np.diag([1.0, 0.0]).astype(complex), 0, "computational", 1)
        assert list(branches) == ["0", "1"]
        assert trace(branches["0"]) == pytest.approx(1.0)
        assert trace(branches["1"]) == 0.0
        assert not branches["1"].any()

    def test_basis_projectors_match_kets(self):
        for basis, expected in PROJECTORS.items():
            table = _BASIS_PROJECTORS[basis]
            assert [label for label, _ in table] == list(expected)
            for label, proj in table:
                assert_allclose(proj, expected[label], rtol=0, atol=1e-15)
            assert_allclose(sum(p for _, p in table), np.eye(2), rtol=0, atol=1e-15)

    def test_dealer_outcomes_balanced(self):
        rho = encode_secret(Secret.from_k(0.3), make_resource(2)).density().matrix
        probs = [trace(b) for b in project(rho, 1, "computational", 3).values()]
        assert probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_all_four_branches_quarter(self):
        rho = encode_secret(Secret.from_k(0.3), make_resource(2)).density().matrix
        probs = []
        for rho_a in project(rho, 1, "computational", 3).values():
            for rho_c in project(rho_a, 0, "hadamard", 3).values():
                probs.append(trace(rho_c))
        assert probs == pytest.approx([0.25] * 4, abs=1e-12)

    def test_probabilities_sum_to_trace(self):
        rho = encode_secret(Secret.from_k(0.7), make_resource(2)).density().matrix
        for basis in ("computational", "hadamard"):
            branches = project(rho, 2, basis, 3).values()
            assert sum(trace(b) for b in branches) == pytest.approx(1.0, abs=1e-12)


class TestCorrection:
    def test_table_entries(self):
        assert_allclose(correction(0, ["+"]), ID2)
        assert_allclose(correction(0, ["-"]), PAULI_Z)
        assert_allclose(correction(1, ["+"]), PAULI_X)
        assert_allclose(correction(1, ["-"]), MINUS_I_PAULI_Y)

    def test_parity_rule_multi_party(self):
        assert_allclose(correction(1, ["-", "-"]), PAULI_X)
        assert_allclose(correction(0, ["-", "+", "-"]), ID2)
        assert_allclose(correction(1, ["+", "-", "+"]), MINUS_I_PAULI_Y)

    def test_table_is_exactly_the_four_paulis(self):
        expected = {
            (0, 0): ID2,
            (0, 1): PAULI_Z,
            (1, 0): PAULI_X,
            (1, 1): MINUS_I_PAULI_Y,
        }
        assert set(CORRECTION_TABLE) == set(expected)
        for key, mat in expected.items():
            assert_allclose(CORRECTION_TABLE[key], mat)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            correction(2, ["+"])
        with pytest.raises(ValueError):
            correction(0, ["x"])


class TestRunIteration:
    def test_noiseless_perfect_for_random_secrets(self, rng):
        for n in (2, 3):
            for _ in range(10):
                secret = random_secret(rng)
                cfg = ProtocolConfig(parties=n, secrets=(secret,))
                for report in run_iteration(cfg, secret):
                    assert report.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_phase_damping_branch_fidelity(self):
        from qss_sim.analysis import f_pd

        for k in (0.2, 0.5, 0.9):
            for q in (0.0, 0.4, 1.0):
                secret = Secret.from_k(k)
                cfg = ProtocolConfig(parties=2, secrets=(secret,), channel=NoiseSpec("pdc", q))
                for report in run_iteration(cfg, secret):
                    assert report.fidelity == pytest.approx(f_pd(k, q), abs=1e-12)

    def test_outcome1_fidelity_ignores_forward_strength(self):
        from qss_sim.analysis import f1_ww

        k, r, p = 0.4, 0.5, 0.6
        fids = []
        for s in (0.0, 0.3, 0.8):
            secret = Secret.from_k(k)
            cfg = ProtocolConfig(
                parties=2,
                secrets=(secret,),
                channel=NoiseSpec("adc", p),
                wmrqm=Wmrqm(s, r),
            )
            reports = run_iteration(cfg, secret)
            branch = [x for x in reports if x.alice_outcome == 1][0]
            fids.append(branch.fidelity)
        assert fids == pytest.approx([f1_ww(k, r, p)] * 3, abs=1e-12)

    def test_zero_probability_branches_reported_not_divided(self):
        secret = Secret.from_k(0.4)
        cfg = ProtocolConfig(
            parties=2,
            secrets=(secret,),
            channel=NoiseSpec("adc", 0.5),
            wmrqm=Wmrqm(0.3, 1.0),  # full-strength reversal kills outcome-1 branches
        )
        reports = run_iteration(cfg, secret)
        dead = [r for r in reports if r.alice_outcome == 1]
        assert len(dead) == 2
        for r in dead:
            assert r.branch_probability == 0.0
            assert r.fidelity is None and r.reconstructed_state is None
        alive = [r for r in reports if r.alice_outcome == 0]
        assert all(r.branch_probability > 0 for r in alive)

    def test_branch_probabilities_sum_without_protection(self, rng):
        for n in (2, 3, 4):
            secret = random_secret(rng)
            cfg = ProtocolConfig(parties=n, secrets=(secret,), channel=NoiseSpec("adc", 0.6))
            assert success_probability(run_iteration(cfg, secret)) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_branch_probabilities_sum_to_sp2_with_protection(self):
        from qss_sim.analysis import sp2

        for k in (0.2, 0.8):
            for (s, r, p) in [(0.3, 0.4, 0.2), (0.7, 0.2, 0.9)]:
                secret = Secret.from_k(k)
                cfg = ProtocolConfig(
                    parties=2,
                    secrets=(secret,),
                    channel=NoiseSpec("adc", p),
                    wmrqm=Wmrqm(s, r),
                )
                assert success_probability(run_iteration(cfg, secret)) == pytest.approx(
                    sp2(k, s, r, p), abs=1e-10
                )

    def test_reconstructed_states_are_normalized(self, rng):
        secret = random_secret(rng)
        cfg = ProtocolConfig(parties=3, secrets=(secret,), channel=NoiseSpec("pdc", 0.5))
        for report in run_iteration(cfg, secret):
            assert report.reconstructed_state.trace == pytest.approx(1.0, abs=1e-10)

    def test_per_transmitted_qubit_noise(self):
        # noise only on the reconstructor's leg: helper leg stays clean
        secret = Secret.from_k(0.3)
        cfg = ProtocolConfig(
            parties=2,
            secrets=(secret,),
            channel=(None, NoiseSpec("adc", 0.7)),
        )
        reports = run_iteration(cfg, secret)
        assert success_probability(reports) == pytest.approx(1.0, abs=1e-12)
        # with only one leg damped the outcome-0 fidelity differs from the
        # both-legs closed form
        from qss_sim.analysis import f_ad

        assert reports[0].fidelity != pytest.approx(f_ad(0.3, 0.7), abs=1e-6)

    def test_measurement_order_is_irrelevant(self):
        # dealer-first and helper-first give identical joint branches
        secret = Secret.from_k(0.35)
        from qss_sim.channels import adc, apply_channel

        rho = encode_secret(secret, make_resource(2)).density()
        rho = apply_channel(apply_channel(rho, adc(0.4), 0), adc(0.4), 2).matrix
        first_alice = {}
        for a, rho_a in project(rho, 1, "computational", 3).items():
            for c, rho_c in project(rho_a, 0, "hadamard", 3).items():
                first_alice[(a, c)] = rho_c
        for c, rho_c in project(rho, 0, "hadamard", 3).items():
            for a, rho_a in project(rho_c, 1, "computational", 3).items():
                other = first_alice[(a, c)]
                assert trace(rho_a) == pytest.approx(trace(other), abs=1e-12)
                assert_allclose(rho_a, other, atol=1e-12)

    def test_support_plan_follows_the_calls_union_pattern(self):
        """One plan serves every register of a call: adc at p = 0 (K1 all
        zero), 0.5 and 1 (K0's lower entry zero) together have adc(0.5)'s
        nonzero entries, so adc(0.5) alone reuses the stack's plan."""
        secret = Secret.from_k(0.3)
        cfgs = [ProtocolConfig(parties=3, secrets=(secret,), channel=NoiseSpec("adc", p)) for p in (0.0, 0.5, 1.0)]
        protocol._support_plan.cache_clear()
        protocol.run_iterations(cfgs, [secret] * 3)
        protocol.run_iterations(cfgs[1], [secret])
        assert protocol._support_plan.cache_info().misses == 1


class TestSecrecy:
    def test_receiver_marginals_maximally_mixed(self):
        for n in (2, 3, 4, 5):
            secret = Secret.from_k(0.3)
            cfg = ProtocolConfig(parties=n, secrets=(secret,))
            shared = encode_secret(secret, make_resource(n)).density()
            ensemble = withheld_oracle(shared.matrix, cfg)
            for qubit in (0,) + tuple(range(2, n + 1)):
                reduced = partial_trace_oracle(ensemble, [qubit], cfg.num_qubits)
                assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)


class TestSequentialRuns:
    def test_two_noiseless_iterations(self):
        secrets = (Secret.from_k(0.3), Secret.from_k(0.8))
        cfg = ProtocolConfig(parties=2, secrets=secrets)
        for reports in run_protocol(cfg):
            assert success_probability(reports) == pytest.approx(1.0, abs=1e-10)
            for r in reports:
                assert r.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_second_iteration_matches_single_shot(self):
        s1, s2 = Secret.from_k(0.25), Secret.from_k(0.65)
        cfg1 = ProtocolConfig(parties=2, secrets=(s1,), channel=NoiseSpec("adc", 0.9))
        cfg2 = ProtocolConfig(parties=2, secrets=(s2,), channel=NoiseSpec("adc", 0.3))
        chained = advance(run_iteration(cfg1, s1), s2, cfg2)
        single = run_iteration(cfg2, s2)
        by_branch = {(r.alice_outcome, r.collaborator_outcomes): r for r in single}
        for r in chained:
            ref = by_branch[(r.alice_outcome, r.collaborator_outcomes)]
            assert r.fidelity == pytest.approx(ref.fidelity, abs=1e-12)
            assert r.branch_probability == pytest.approx(ref.branch_probability, abs=1e-10)
        assert {r.iteration_index for r in chained} == {1}

    def test_return_trip_noise_is_erased_by_reset(self):
        s1, s2 = Secret.from_k(0.25), Secret.from_k(0.65)
        cfg1 = ProtocolConfig(parties=2, secrets=(s1,), channel=NoiseSpec("pdc", 0.7))
        cfg2 = ProtocolConfig(
            parties=2,
            secrets=(s2,),
            channel=NoiseSpec("adc", 0.4),
            return_channel=NoiseSpec("adc", 0.8),
        )
        chained = advance(run_iteration(cfg1, s1), s2, cfg2)
        single = run_iteration(
            ProtocolConfig(parties=2, secrets=(s2,), channel=NoiseSpec("adc", 0.4)), s2
        )
        assert sorted(r.fidelity for r in chained) == pytest.approx(
            sorted(r.fidelity for r in single), abs=1e-12
        )

    def test_three_party_chain(self):
        secrets = (Secret.from_k(0.3), Secret.from_k(0.6))
        cfg = ProtocolConfig(
            parties=3, secrets=secrets, channel=NoiseSpec("adc", 0.5)
        )
        runs = run_protocol(cfg)
        assert len(runs) == 2
        single = run_iteration(
            ProtocolConfig(parties=3, secrets=(secrets[1],), channel=NoiseSpec("adc", 0.5)),
            secrets[1],
        )
        assert sorted(
            r.fidelity for r in runs[1] if r.fidelity is not None
        ) == pytest.approx(sorted(r.fidelity for r in single), abs=1e-12)

    def test_advance_updates_state(self):
        secrets = (Secret.from_k(0.3), Secret.from_k(0.6), Secret.from_k(0.9))
        cfg = ProtocolConfig(parties=2, secrets=(secrets[0],))
        reports = run_iteration(cfg, secrets[0])
        for i, secret in enumerate(secrets[1:], start=1):
            nxt = ProtocolConfig(parties=2, secrets=(secret,))
            reports = advance(reports, secret, nxt)
            assert {r.iteration_index for r in reports} == {i}
            for r in reports:
                assert r.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_advance_without_a_live_branch_is_empty(self):
        cfg = ProtocolConfig(parties=2, secrets=(Secret.from_k(0.0),), wmrqm=Wmrqm(1.0, 0.0))
        # s = 1 keeps only |0> on the helpers' legs: every branch of k = 0 is zero
        dead = run_iteration(cfg, cfg.secrets[0])
        assert dead and all(r.reconstructed_state is None for r in dead)
        assert advance(dead, Secret.from_k(0.5), cfg) == []
        assert advance([], Secret.from_k(0.5), cfg) == []

    def test_advance_refuses_a_round_of_another_party_count(self):
        two = ProtocolConfig(parties=2, secrets=(Secret.from_k(0.3),))
        three = ProtocolConfig(parties=3, secrets=(Secret.from_k(0.3),))
        with pytest.raises(ValueError, match="disagree on party count"):
            advance(run_iteration(two, two.secrets[0]), Secret.from_k(0.5), three)

    RETURN_CHANNELS = [None] + [NoiseSpec(kind, p) for kind in ("pdc", "adc") for p in (0.0, 0.5, 1.0)]

    @staticmethod
    def loop_weight(prev, cfg):
        """The recycling weight as a scalar loop: per carried branch, each
        reset combination's product by prefix in ``itertools.product``
        order, every ``w * x`` added in turn from 0.0."""
        probs = {}
        for label, vec in protocol._OUTCOME_STATES.items():
            returned = DensityMatrix(np.outer(vec, vec.conj()))
            if cfg.return_channel is not None:
                returned = apply_channel(returned, cfg.return_channel.channel(), 0)
            probs[label] = [p for p, _ in protocol._reset_to_zero(returned)]
        weight = 0.0
        for r in prev:
            if r.reconstructed_state is None:
                continue
            prods = [1.0]
            for o in r.collaborator_outcomes:
                prods = [x * p for x in prods for p in probs[o]]
            for x in prods:
                weight += r.branch_probability * x
        return weight

    @staticmethod
    def advance_weight(prev, cfg, monkeypatch):
        """``advance``'s weight: the probability it gives a branch of probability 1."""
        unit = protocol.IterationReport(0, 0, ("+",) * (cfg.parties - 1), "I", None, None, 1.0)
        monkeypatch.setattr(protocol, "_execute_iteration", lambda cfgs, secrets: [unit])
        (report,) = advance(prev, Secret.from_k(0.5), cfg)
        return report.branch_probability

    @pytest.mark.parametrize("return_channel", RETURN_CHANNELS)
    @pytest.mark.parametrize("parties", range(2, 8))
    def test_recycling_weight_is_the_scalar_loops(self, parties, return_channel, monkeypatch):
        cfg = ProtocolConfig(parties=parties, secrets=(Secret.from_k(0.3),), channel=NoiseSpec("adc", 0.4),
                             wmrqm=Wmrqm(0.2, 0.3), return_channel=return_channel)
        prev = run_iteration(cfg, cfg.secrets[0])
        # a carried round of random weights spread over many magnitudes
        rng = np.random.default_rng(parties)
        drawn = [protocol.IterationReport(0, int(a), tuple("+-"[b] for b in bits), "I", object(), None, w)
                 for a, bits, w in zip(rng.integers(0, 2, 200), rng.integers(0, 2, (200, parties - 1)),
                                       np.exp(rng.uniform(-30.0, 0.0, 200)).tolist())]
        for carried in (prev, drawn):
            expected = self.loop_weight(carried, cfg)
            assert self.advance_weight(carried, cfg, monkeypatch).hex() == expected.hex()

    def test_run_leaves_no_reference_cycles(self):
        # Registers and projectors must be freed by reference counting when
        # a round ends; a cycle would keep them alive until a GC pass.
        cfg = ProtocolConfig(
            parties=4,
            secrets=(Secret.from_k(0.3), Secret.from_k(0.7)),
            channel=NoiseSpec("adc", 0.4),
            wmrqm=Wmrqm(0.3, 0.2),
            return_channel=NoiseSpec("adc", 0.5),
        )
        gc.collect()
        gc.disable()
        try:
            run_protocol(cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestConfigValidation:
    def test_bad_party_count(self):
        with pytest.raises(ValueError):
            ProtocolConfig(parties=1, secrets=(Secret.from_k(0.5),))

    def test_iterations_is_the_secret_count(self):
        secrets = (Secret.from_k(0.5),) * 3
        assert ProtocolConfig(parties=2, secrets=secrets).iterations == 3
        with pytest.raises(TypeError):
            ProtocolConfig(parties=2, secrets=secrets, iterations=3)

    def test_needs_at_least_one_iteration(self):
        with pytest.raises(ValueError, match="need at least 1 iteration, got 0"):
            ProtocolConfig(parties=2, secrets=())

    def test_channel_list_length(self):
        with pytest.raises(ValueError):
            ProtocolConfig(
                parties=2,
                secrets=(Secret.from_k(0.5),),
                channel=(NoiseSpec("adc", 0.5),),
            )

    def test_aggregate_requires_survivors(self):
        with pytest.raises(ValueError):
            aggregate_fidelity([])
