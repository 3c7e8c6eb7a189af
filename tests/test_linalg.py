import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import embed_oracle, random_density, random_secret
from qss_sim.channels import adc, pdc, weak_op
from qss_sim.linalg import (
    ID2,
    KET_PLUS,
    PAULI_X,
    DensityMatrix,
    PureState,
    _min_eigenvalue,
    _qubit_fidelity,
    dagger,
    embed,
    su2,
)
from qss_sim.protocol import NoiseSpec, ProtocolConfig, Secret, Wmrqm, run_iteration
from qss_sim.tolerances import ATOL

EPS = np.finfo(float).eps


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


    def test_stack_matches_each_entry_alone(self, rng):
        """A stacked call gives every entry the bits of a call on it alone,
        and of the per-secret form whose last products are numpy complex
        scalar multiplies, not a (possibly fused) array multiply."""

        def scalar_form(v, mat):
            row = np.conj(v[0]) * mat[0] + np.conj(v[1]) * mat[1]
            return float((row[0] * v[0] + row[1] * v[1]).real)

        vs = rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))
        mats = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
        stacked = _qubit_fidelity(vs, mats)
        assert stacked.shape == (500,)
        for v, mat, fid in zip(vs, mats, stacked.tolist()):
            assert fid.hex() == float(_qubit_fidelity(v, mat)).hex()
            assert fid.hex() == scalar_form(v, mat).hex()


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

    @pytest.mark.parametrize(
        "entries",
        [
            [[0.5, np.nan], [np.nan, 0.5]],
            [[np.nan, 0.0], [0.0, 0.5]],
            [[np.inf, 0.0], [0.0, 0.5]],
            [[0.5, 1j * np.inf], [-1j * np.inf, 0.5]],
        ],
    )
    def test_non_finite_density_matrix_rejected(self, entries):
        # every check used to compare with ``>``, which nan never satisfies
        with pytest.raises(ValueError, match="must be finite"):
            DensityMatrix(np.array(entries, dtype=complex))

    @pytest.mark.parametrize("amps", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]])
    def test_non_finite_pure_state_rejected(self, amps):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array(amps, dtype=complex))

    def test_empty_density_matrix_is_not_a_register(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="dimension 0 is not a power of two"):
                DensityMatrix(np.zeros((0, 0)))

    def test_empty_pure_state_is_not_a_register(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="dimension 0 is not a power of two"):
                PureState(np.array([]))

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


def _hermitian(a, d, b):
    return np.array([[a, np.conj(b)], [b, d]], dtype=complex)


unit_float = st.floats(-2.0, 2.0)
subnormal = st.sampled_from([5e-324, -5e-324, 2.5e-310, -1e-315, 0.0])


@st.composite
def two_by_two(draw):
    """A Hermitian 2x2 matrix: general, diagonal, rank one, with a subnormal
    off-diagonal, or with its smallest eigenvalue near ``-ATOL``."""
    kind = draw(st.sampled_from(["general", "diagonal", "rank_one", "subnormal", "boundary"]))
    if kind == "general":
        return _hermitian(draw(unit_float), draw(unit_float), complex(draw(unit_float), draw(unit_float)))
    if kind == "diagonal":
        return _hermitian(draw(unit_float), draw(unit_float), 0.0)
    if kind == "rank_one":
        v = np.array([complex(draw(unit_float), draw(unit_float)) for _ in range(2)])
        return np.outer(v, v.conj())
    if kind == "subnormal":
        b = complex(draw(subnormal), draw(subnormal))
        return _hermitian(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)), b)
    # ``U diag(-ATOL + delta, l) U^dagger``, its off-diagonal read from one triangle
    delta = draw(st.floats(-64.0, 64.0)) * EPS
    theta, phi = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2 * np.pi))
    u = su2(theta, phi, -phi)
    m = u @ np.diag([-ATOL + delta, draw(st.floats(1e-6, 1.0))]) @ dagger(u)
    return _hermitian(m[0, 0].real, m[1, 1].real, m[1, 0])


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(mat=two_by_two())
@example(mat=np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex))  # not Hermitian
@example(mat=np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))  # not PSD
@example(mat=np.eye(2, dtype=complex))  # trace 2
def test_closed_form_min_eigenvalue_matches_eigvalsh(mat):
    """The 2x2 closed form is within a few ``eps * |M|`` of ``eigvalsh``
    (both read the lower triangle), and outside a band of that width
    around ``-ATOL`` it accepts and refuses exactly what ``eigvalsh`` does,
    in ``DensityMatrix`` too."""
    band = 16 * EPS * np.abs(mat).max()  # 8 eps times a bound on |M|_2 that cannot underflow
    lo, ref = _min_eigenvalue(mat), float(np.linalg.eigvalsh(mat)[0])
    assert abs(lo - ref) <= band
    if abs(ref + ATOL) <= band:
        return
    assert (lo >= -ATOL) == (ref >= -ATOL)
    hermitian = np.array_equal(mat, dagger(mat))
    if hermitian and 0.0 < mat.trace().real <= 1.0 + ATOL:
        if ref >= -ATOL:
            DensityMatrix(mat)
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                DensityMatrix(mat)
