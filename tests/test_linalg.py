import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import embed_oracle, random_density, random_secret
from qss_sim.channels import adc, pdc, weak_op
from qss_sim.linalg import (
    ID2,
    KET_PLUS,
    PAULI_X,
    DensityMatrix,
    PureState,
    _qubit_fidelity,
    dagger,
    embed,
    su2,
)
from qss_sim.protocol import NoiseSpec, ProtocolConfig, Secret, Wmrqm, run_iteration


class TestTensor:
    def test_adc_kraus_pair_matches_index_embedding(self):
        k0 = adc(0.5).operators[0]
        assert_allclose(np.kron(k0, ID2), embed_oracle(k0, [0], 2), atol=1e-15)
        assert_allclose(np.kron(ID2, k0), embed_oracle(k0, [1], 2), atol=1e-15)


class TestEmbed:
    def test_single_qubit_register(self):
        assert_allclose(embed(PAULI_X, [0], 1), PAULI_X)

    def test_ordering_convention(self):
        # qubit 0 is the most significant bit: flipping qubit 1 of |00> gives |01>
        state = np.zeros(4)
        state[0] = 1.0
        assert_allclose(embed(PAULI_X, [1], 2) @ state, [0, 1, 0, 0])

    def test_two_qubit_embedding_matches_tensor(self):
        k0 = pdc(0.35).operators[0]
        pair = np.kron(k0, k0)
        assert_allclose(embed(pair, [0, 2], 3), np.kron(np.kron(k0, ID2), k0), atol=1e-15)

    def test_arbitrary_targets_match_index_oracle(self, rng):
        for targets, m in [([2, 0], 3), ([1, 3], 4), ([3, 1], 4), ([2, 0, 3], 4)]:
            op = rng.normal(size=(2 ** len(targets),) * 2) + 1j * rng.normal(
                size=(2 ** len(targets),) * 2
            )
            assert_allclose(embed(op, targets, m), embed_oracle(op, targets, m), atol=1e-15)

    def test_unitarity_preserved_iff_unitary(self, rng):
        def unitarity_residual(u):
            return np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0])))

        assert unitarity_residual(embed(su2(0.7, 1.1, 2.3), [1], 3)) <= 1e-12
        assert unitarity_residual(embed(weak_op("forward_null", 0.5), [1], 3)) > 1e-12

    def test_kraus_completeness_preserved(self):
        ch = adc(0.6)
        acc = np.zeros((8, 8), dtype=complex)
        for k in ch.operators:
            e = embed(k, [1], 3)
            acc += dagger(e) @ e
        assert_allclose(acc, np.eye(8), atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            embed(PAULI_X, [0, 1], 2)  # dimension mismatch
        with pytest.raises(ValueError):
            embed(np.eye(4), [0, 0], 2)  # duplicate target
        with pytest.raises(ValueError):
            embed(PAULI_X, [3], 2)  # out of range


class TestLargestEigenvalue:
    def test_fully_dephased_branch_state(self):
        # at full phase damping the branch state is diag(k, 1-k), whose largest
        # eigenvalue bounds any unitary correction's fidelity
        secret = Secret.from_k(0.8)
        cfg = ProtocolConfig(parties=2, secrets=(secret,), channel=NoiseSpec("pdc", 1.0))
        report = run_iteration(cfg, secret)[0]
        assert_allclose(report.reconstructed_state.matrix, np.diag([0.8, 0.2]), atol=1e-12)
        assert np.linalg.eigvalsh(report.reconstructed_state.matrix)[-1] == pytest.approx(
            0.8, abs=1e-12
        )

    def test_noiseless_branch_states_are_pure(self):
        for parties in (2, 3):
            secret = Secret.from_k(0.35)
            cfg = ProtocolConfig(parties=parties, secrets=(secret,))
            for report in run_iteration(cfg, secret):
                eigs = np.linalg.eigvalsh(report.reconstructed_state.matrix)
                assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
                assert report.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_never_exceeds_largest_eigenvalue(self):
        secret = Secret.from_k(0.6)
        for kind in ("adc", "pdc"):
            for wmrqm in (None, Wmrqm(0.3, 0.5)):
                cfg = ProtocolConfig(
                    parties=2, secrets=(secret,), channel=NoiseSpec(kind, 0.7), wmrqm=wmrqm
                )
                for report in run_iteration(cfg, secret):
                    if report.reconstructed_state is None:
                        continue
                    largest = np.linalg.eigvalsh(report.reconstructed_state.matrix)[-1]
                    assert report.fidelity <= largest + 1e-12


class TestQubitFidelity:
    def test_own_state(self):
        v = Secret.from_k(0.7).vector()
        assert _qubit_fidelity(v, np.outer(v, v.conj())) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        v = Secret.from_k(0.2).vector()
        assert _qubit_fidelity(v, np.eye(2) / 2) == pytest.approx(0.5)

    def test_classical_overlap(self):
        v = Secret.from_k(0.8).vector()
        assert _qubit_fidelity(v, np.diag([0.8, 0.2])) == pytest.approx(0.68)

    def test_matches_matrix_product(self, rng):
        for _ in range(20):
            v = random_secret(rng).vector()
            mat = random_density(rng, 1).matrix
            expected = np.vdot(v, mat @ v).real
            assert _qubit_fidelity(v, mat) == pytest.approx(expected, abs=1e-14)


class TestSu2:
    def test_identity(self):
        assert_allclose(su2(0, 0, 0), np.eye(2))

    def test_bit_flip(self):
        u = su2(np.pi, 0, np.pi)
        phase = u[1, 0]
        assert_allclose(u / phase, PAULI_X, atol=1e-12)

    def test_unitary_for_random_angles(self, rng):
        for _ in range(20):
            u = su2(*rng.uniform(0, 2 * np.pi, size=3))
            assert_allclose(dagger(u) @ u, np.eye(2), rtol=0, atol=1e-12)

    def test_fidelity_invariant_under_global_phase(self, rng):
        rho = random_density(rng, 1)
        psi = np.array([np.sqrt(0.3), np.sqrt(0.7)])
        u = su2(0.4, 0.9, 1.7)
        for phase in (1.0, np.exp(0.37j)):
            v = phase * u
            fid = np.real(psi.conj() @ v @ rho.matrix @ dagger(v) @ psi)
            assert fid == pytest.approx(
                np.real(psi.conj() @ u @ rho.matrix @ dagger(u) @ psi), abs=1e-14
            )


class TestStateTypes:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_density_matrix_invariants(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.5, 0], [0, -0.5]]))  # not PSD
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        sub = DensityMatrix(np.diag([0.2, 0.1]))  # sub-normalized is fine
        assert sub.trace == pytest.approx(0.3)

    def test_register_dimension_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(3) / 3)  # not a power of two
        with pytest.raises(ValueError):
            DensityMatrix(np.full((2, 4), 0.125))  # not square
        with pytest.raises(ValueError):
            PureState(np.ones(3) / np.sqrt(3))

    def test_immutability(self, rng):
        rho = random_density(rng, 1)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0
        psi = PureState(KET_PLUS)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 2.0
