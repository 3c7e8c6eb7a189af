import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import correction_search_oracle, golden_max_oracle, maximize_scalar_oracle
from qss_sim.analysis import f0_ww, f1_ww, r_opt
from qss_sim.linalg import (
    ID2,
    MINUS_I_PAULI_Y,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    dagger,
    su2,
)
from qss_sim.optimize import (
    ScalarObjective,
    UnitaryObjective,
    _golden_max,
    _unit_interval_nodes,
    best_correction,
    correction_objective,
    maximize_scalar,
    optimize_correction,
)
from qss_sim.protocol import (
    NoiseSpec,
    ProtocolConfig,
    Secret,
    Wmrqm,
    branch_maps,
    correction,
    run_iteration,
    run_iterations,
)


def assert_unitary(u, atol):
    assert np.max(np.abs(dagger(u) @ u - np.eye(2))) <= atol


def same_up_to_phase(u, v, atol=1e-6):
    overlap = abs(np.trace(dagger(u) @ v)) / 2.0
    return overlap > 1.0 - atol


class TestMaximizeScalar:
    def test_parabola(self):
        x, fx = maximize_scalar(ScalarObjective(lambda r: -((r - 0.3) ** 2), 0.0, 1.0))
        assert x == pytest.approx(0.3, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_protected_fidelity_matches_closed_form(self):
        k = s = p = 0.5
        x, fx = maximize_scalar(
            ScalarObjective(lambda r: f0_ww(k, s, r, p), 0.0, 1.0, tolerance=1e-12)
        )
        assert x == pytest.approx(r_opt(k, s, p), abs=1e-6)
        assert fx == pytest.approx(f0_ww(k, s, r_opt(k, s, p), p), abs=1e-12)

    def test_boundary_maximum(self):
        x, fx = maximize_scalar(
            ScalarObjective(lambda r: f1_ww(0.4, r, 0.7), 0.0, 1.0, tolerance=1e-10)
        )
        assert x == pytest.approx(1.0, abs=1e-8)
        assert fx == pytest.approx(1.0, abs=1e-10)

    def test_objective_errors_propagate(self):
        def broken(_):
            raise FloatingPointError("boom")

        with pytest.raises(FloatingPointError):
            maximize_scalar(ScalarObjective(broken, 0.0, 1.0))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            ScalarObjective(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            ScalarObjective(lambda x: x, 0.0, 1.0, tolerance=0.0)


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestBatchedSearch:
    """The batched golden-section search against the scalar loop of
    ``conftest``, one bracket or objective at a time, bit for bit. The
    objectives use only arithmetic whose array and float results agree."""

    def test_golden_max_equals_the_scalar_loop_per_bracket(self):
        # widths from 0.9 down to below tol: the brackets take 0 to 47 steps
        a = np.array([0.05, 0.2, 0.49, 0.3, 0.7, 0.1])
        b = np.array([0.95, 0.25, 0.49 + 5e-11, 0.9, 0.7 + 1e-3, 0.1 + 2e-10])
        t = np.array([0.43, 0.26, 0.2, 0.9, 0.7005, 0.1])
        x, fx = _golden_max(lambda r: -(r - t) * (r - t) + 0.25 * r, a, b, 1e-10)
        expected = [
            golden_max_oracle(lambda r, t=ti: -(r - t) * (r - t) + 0.25 * r, ai, bi, 1e-10)
            for ai, bi, ti in zip(a.tolist(), b.tolist(), t.tolist())
        ]
        assert len({steps for _, _, steps in expected}) == len(expected)
        assert min(steps for _, _, steps in expected) == 0
        assert hexes(x) == hexes([xi for xi, _, _ in expected])
        assert hexes(fx) == hexes([fi for _, fi, _ in expected])

    def test_golden_max_calls_f_once_per_step_of_the_longest_bracket(self):
        calls = []

        def f(r):
            calls.append(r.shape)
            return -(r - 0.3) * (r - 0.3)

        a, b = np.array([0.0, 0.2, 0.25]), np.array([1.0, 0.4, 0.35])
        _golden_max(f, a, b, 1e-10)
        steps = max(golden_max_oracle(lambda r: -(r - 0.3) * (r - 0.3), ai, bi, 1e-10)[2]
                    for ai, bi in zip(a.tolist(), b.tolist()))
        assert calls == [(3,)] * (2 + steps + 1)

    def test_batched_f0_ww_argmax_equals_one_search_per_point(self):
        rng = np.random.default_rng(11)
        k, s, p = rng.uniform(0.0, 1.0, (3, 40))
        k[:3], s[:3], p[:3] = (0.5, 0.98, 0.02), (0.0, 0.3, 0.9), (0.5, 0.1, 0.95)
        column = [v[:, np.newaxis] for v in (k, s, p)]
        x, fx = maximize_scalar(ScalarObjective(lambda r: f0_ww(*column[:2], r, column[2]), 0.0, 1.0))
        expected = [
            maximize_scalar_oracle(lambda r, ki=ki, si=si, pi=pi: f0_ww(ki, si, r, pi), 0.0, 1.0)
            for ki, si, pi in zip(k.tolist(), s.tolist(), p.tolist())
        ]
        assert x.shape == fx.shape == (40,)
        assert hexes(x) == hexes([xi for xi, _, _ in expected])
        assert hexes(fx) == hexes([fi for _, fi, _ in expected])

    def test_boundary_maxima_equal_one_search_per_point(self):
        # f1_ww rises with r on [0, 1] for 0 < k and p < 1: -f1_ww peaks at 0
        k, p = np.array([[0.1], [0.4], [0.9], [0.5]]), np.array([[0.7], [0.2], [0.95], [0.6]])
        sign = np.array([[1.0], [1.0], [1.0], [-1.0]])
        x, fx = maximize_scalar(ScalarObjective(lambda r: sign * f1_ww(k, r, p), 0.0, 1.0))
        expected = [
            maximize_scalar_oracle(lambda r, ki=ki, pi=pi, si=si: si * f1_ww(ki, r, pi), 0.0, 1.0)
            for ki, pi, si in zip(k.ravel().tolist(), p.ravel().tolist(), sign.ravel().tolist())
        ]
        assert hexes(x) == hexes([xi for xi, _, _ in expected])
        assert hexes(fx) == hexes([fi for _, fi, _ in expected])
        assert np.abs(x - [1.0, 1.0, 1.0, 0.0]).max() <= 1e-8

    def test_a_winning_grid_point_is_kept_per_element(self):
        # a kink on a grid point: the golden result ends a little below it
        xs = np.linspace(0.0, 1.0, 64)
        t = np.array([xs[0], xs[17], 0.4321, xs[63], 0.999, xs[40]])
        x, fx = maximize_scalar(ScalarObjective(lambda r: -abs(r - t[:, np.newaxis]), 0.0, 1.0))
        expected = [maximize_scalar_oracle(lambda r, ti=ti: -abs(r - ti), 0.0, 1.0) for ti in t.tolist()]
        assert [won for _, _, won in expected] == [True, True, False, True, False, True]
        assert hexes(x) == hexes([xi for xi, _, _ in expected])
        assert hexes(fx) == hexes([fi for _, fi, _ in expected])

    def test_scalar_objective_gives_floats(self):
        x, fx = maximize_scalar(ScalarObjective(lambda r: -(r - 0.3) * (r - 0.3), 0.0, 1.0))
        assert type(x) is float and type(fx) is float
        ox, ofx, _ = maximize_scalar_oracle(lambda r: -(r - 0.3) * (r - 0.3), 0.0, 1.0)
        assert (x.hex(), fx.hex()) == (ox.hex(), ofx.hex())


class TestOptimizeCorrection:
    def test_noiseless_identity_branch(self):
        obj = correction_objective(0, ["+"], nodes=17)
        result = optimize_correction(obj, restarts=4, sweeps=3)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert same_up_to_phase(result.unitary, ID2)

    def test_noiseless_flip_phase_branch(self):
        obj = correction_objective(1, ["-"], nodes=17)
        result = optimize_correction(obj, restarts=4, sweeps=3)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert same_up_to_phase(result.unitary, MINUS_I_PAULI_Y)

    def test_returned_unitary_is_unitary(self):
        obj = correction_objective(0, ["-"], channel=NoiseSpec("adc", 0.4), nodes=17)
        result = optimize_correction(obj, restarts=4, sweeps=3)
        assert_unitary(result.unitary, atol=1e-10)

    def test_restart_values_agree(self):
        obj = correction_objective(1, ["+"], channel=NoiseSpec("pdc", 0.5), nodes=17)
        result = optimize_correction(obj, restarts=8, sweeps=4)
        assert max(result.restart_values) - min(result.restart_values) < 1e-6

    def test_table_not_beaten_under_phase_damping(self):
        obj = correction_objective(0, ["+"], channel=NoiseSpec("pdc", 0.5), nodes=33)
        table_value = obj.value(correction(0, ["+"]))
        result = optimize_correction(obj, restarts=6, sweeps=4)
        # the search must reach the table's average but cannot exceed it
        assert result.value >= table_value - 1e-9
        assert result.value <= table_value + 1e-6

    def test_restarts_stepping_together_equal_one_search_per_restart(self):
        for channel, wmrqm in ((NoiseSpec("adc", 0.4), None), (NoiseSpec("adc", 0.5), Wmrqm(0.3, 0.4))):
            obj = correction_objective(1, ["-"], channel=channel, wmrqm=wmrqm, nodes=17)
            result = optimize_correction(obj, restarts=5, sweeps=2)
            expected = correction_search_oracle(obj, restarts=5, sweeps=2)
            assert result.restart_values == pytest.approx(expected, rel=0, abs=1e-12)
            assert result.value == max(result.restart_values)
            assert obj.value(result.unitary) == pytest.approx(result.value, abs=1e-12)

    def test_objective_weights_normalized(self):
        obj = correction_objective(0, ["+"], nodes=21, phases=5)
        assert obj.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert obj.branch_probabilities == pytest.approx([0.25] * (21 * 5), abs=1e-12)

    def test_real_slice_alone_is_gameable_but_full_family_is_not(self):
        # restricted to common-phase secrets a small rotation beats the
        # table under amplitude damping; over the full family it loses
        import numpy as np

        from qss_sim.linalg import su2

        rotation = su2(2 * 0.128, 0.0, 0.0)  # the real-slice exploit
        obj = correction_objective(0, ["+"], channel=NoiseSpec("adc", 0.25), nodes=21, phases=8)
        table_value = obj.value(correction(0, ["+"]))
        assert table_value == pytest.approx(1 - 0.25 / 2, abs=1e-9)
        assert obj.value(rotation) < table_value


OBJECTIVES = {
    "pdc": dict(alice=1, collab="+", channel=NoiseSpec("pdc", 0.5)),
    "adc": dict(alice=0, collab="-", channel=NoiseSpec("adc", 0.4)),
    "protected-adc": dict(
        alice=1, collab="-", channel=NoiseSpec("adc", 0.5), wmrqm=Wmrqm(0.3, 0.4)
    ),
}


@pytest.fixture(scope="module", params=sorted(OBJECTIVES))
def branch(request):
    case = OBJECTIVES[request.param]
    obj = correction_objective(
        case["alice"], [case["collab"]], channel=case["channel"], wmrqm=case.get("wmrqm"), nodes=17
    )
    return obj, correction(case["alice"], [case["collab"]])


def random_unitaries(rng, count):
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(count, 4))
    return np.array([np.exp(1j * g) * su2(t, p, l) for t, p, l, g in angles])


def per_node_values(obj, unitaries):
    """The objective summed node by node, without the contracted kernel."""
    return np.array([
        sum(
            w * np.vdot(t, u @ rho @ dagger(u) @ t).real
            for w, t, rho in zip(obj.weights, obj.targets, obj.states)
        )
        for u in unitaries
    ])


def bloch(rho):
    return np.array([np.trace(p @ rho).real for p in (PAULI_X, PAULI_Y, PAULI_Z)])


class TestKernel:
    def test_batch_values_match_per_node_sum(self, branch, rng):
        obj, table = branch
        us = np.concatenate([table[np.newaxis], random_unitaries(rng, 50)])
        assert obj.batch_values(us) == pytest.approx(per_node_values(obj, us), abs=1e-13)


class TestBestCorrection:
    def test_beats_search_and_random_unitaries(self, branch, rng):
        obj, _ = branch
        best = best_correction(obj)
        assert best.value >= optimize_correction(obj, restarts=4, sweeps=3).value - 1e-12
        assert best.value >= obj.batch_values(random_unitaries(rng, 200)).max()

    def test_attains_its_value_and_equals_the_table(self, branch):
        obj, table = branch
        best = best_correction(obj)
        assert_unitary(best.unitary, atol=1e-12)
        assert obj.value(best.unitary) == pytest.approx(best.value, abs=1e-12)
        assert best.value == pytest.approx(obj.value(table), abs=1e-10)
        assert best.restart_values == ()

    def test_matches_the_bloch_vector_procrustes_optimum(self, branch):
        # fidelity (tr rho + t.(R b)) / 2 maximized over rotations R in SO(3)
        # by an SVD of M = sum w b t^T with the determinant-sign fix
        obj, _ = branch
        m = sum(w * np.outer(bloch(rho), bloch(np.outer(t, t.conj())))
                for w, t, rho in zip(obj.weights, obj.targets, obj.states))
        u, s, vt = np.linalg.svd(m)
        s[-1] *= np.sign(np.linalg.det(u @ vt))
        trace = sum(w * np.trace(rho).real for w, rho in zip(obj.weights, obj.states))
        assert best_correction(obj).value == pytest.approx(0.5 * (trace + s.sum()), abs=1e-12)

    def test_noiseless_branch_is_recovered_exactly(self):
        obj = correction_objective(1, ["-"], nodes=5)
        best = best_correction(obj)
        assert best.value == pytest.approx(1.0, abs=1e-12)
        assert same_up_to_phase(best.unitary, MINUS_I_PAULI_Y, atol=1e-12)


@pytest.fixture
def no_simulator(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simulator ran before the input was checked")

    monkeypatch.setattr("qss_sim.optimize.branch_maps", fail)


class TestCorrectionObjectiveInput:
    def test_helper_count_must_match_parties(self, no_simulator):
        with pytest.raises(ValueError, match="2 parties need 1 helper outcome"):
            correction_objective(0, ["+", "+"], parties=2)
        with pytest.raises(ValueError, match="3 parties need 2 helper outcome"):
            correction_objective(0, ["+"], parties=3)

    def test_population_nodes_must_be_positive(self, no_simulator):
        for nodes in (0, -3):
            with pytest.raises(ValueError, match="at least 1 population node"):
                correction_objective(0, ["+"], nodes=nodes)


def per_node_objective(
    alice_outcome, collaborator_outcomes, channel=None, wmrqm=None, parties=2, nodes=33, phases=8
):
    """The objective built node by node: ``run_iteration`` at every
    quadrature node, one branch kept and its table correction stripped."""
    ks, k_weights = _unit_interval_nodes(nodes)
    phis = 2.0 * np.pi * np.arange(phases) / phases
    table_u = correction(alice_outcome, collaborator_outcomes)
    key = (alice_outcome, tuple(collaborator_outcomes))
    weights, targets, states, probs = [], [], [], []
    for k, kw in zip(ks, k_weights):
        for phi in phis:
            secret = Secret(
                alpha=np.sqrt(float(k)), beta=np.sqrt(1.0 - float(k)) * np.exp(1j * phi)
            )
            cfg = ProtocolConfig(parties=parties, secrets=(secret,), channel=channel, wmrqm=wmrqm)
            (report,) = [
                r for r in run_iteration(cfg, secret)
                if (r.alice_outcome, r.collaborator_outcomes) == key
            ]
            if report.reconstructed_state is None:
                raise ValueError(f"branch {key} has zero probability")
            weights.append(kw / phases)
            targets.append(secret.vector())
            states.append(dagger(table_u) @ report.reconstructed_state.matrix @ table_u)
            probs.append(report.branch_probability)
    return UnitaryObjective(
        weights=np.asarray(weights),
        targets=np.asarray(targets),
        states=np.asarray(states),
        branch_probabilities=np.asarray(probs),
    )


def all_branches(parties):
    return [
        (alice, list(helpers))
        for alice in (0, 1)
        for helpers in itertools.product("+-", repeat=parties - 1)
    ]


noise_specs = st.builds(NoiseSpec, st.sampled_from(("pdc", "adc")), st.floats(0.0, 1.0))
strengths = st.floats(0.0, 0.9)


@st.composite
def channels(draw, parties):
    """No noise, one spec for every transmitted qubit, or one entry per qubit."""
    return draw(st.none() | noise_specs | st.tuples(*[st.none() | noise_specs] * parties))


def four_run_maps(cfg):
    """``branch_maps`` from four separate ``run_iteration`` calls, one per
    tomography input, combined as ``branch_maps`` combines them."""
    h = 1.0 / np.sqrt(2.0)
    images = []
    for alpha, beta in ((1.0, 0.0), (0.0, 1.0), (h, h), (h, 1j * h)):
        image = {}
        for r in run_iteration(cfg, Secret(alpha, beta)):
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


class TestBranchMaps:
    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
    @settings(max_examples=8, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_one_batched_run_gives_the_four_run_bytes(self, parties, data):
        cfg = ProtocolConfig(
            parties=parties,
            secrets=(Secret(1.0, 0.0),),
            channel=data.draw(channels(parties)),
            wmrqm=data.draw(st.none() | st.builds(Wmrqm, st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
        )
        maps, want = branch_maps(cfg), four_run_maps(cfg)
        assert list(maps) == list(want)
        for key, s in want.items():
            assert maps[key].tobytes() == s.tobytes()

    @pytest.mark.parametrize("parties", [2, 3])
    @settings(max_examples=10, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_objective_matches_the_per_node_simulation(self, parties, data):
        channel = data.draw(channels(parties))
        wmrqm = data.draw(st.none() | st.builds(Wmrqm, strengths, strengths))
        for alice, helpers in all_branches(parties):
            args = (alice, helpers, channel, wmrqm, parties, 2, 5)
            want = per_node_objective(*args)
            got = correction_objective(*args)
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.targets, want.targets)
            assert got.branch_probabilities == pytest.approx(want.branch_probabilities, abs=1e-13)
            assert got.states == pytest.approx(want.states, abs=1e-13)
            assert got.kernel == pytest.approx(want.kernel, abs=1e-13)

    @pytest.mark.parametrize("parties", [2, 3, 4])
    @settings(max_examples=10, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_unprotected_maps_sum_to_a_trace_preserving_map(self, parties, data):
        cfg = ProtocolConfig(
            parties=parties, secrets=(Secret(1.0, 0.0),), channel=data.draw(channels(parties))
        )
        maps = branch_maps(cfg)
        assert sorted(maps) == sorted((a, tuple(h)) for a, h in all_branches(parties))
        total = sum(np.einsum("bbij->ij", s) for s in maps.values())
        assert total == pytest.approx(np.eye(2), abs=1e-12)

    def test_objective_simulates_four_inputs(self, monkeypatch):
        calls = []

        def counting(cfg, secrets):
            calls.append(list(secrets))
            return run_iterations(cfg, secrets)

        monkeypatch.setattr("qss_sim.protocol.run_iterations", counting)
        correction_objective(1, ["-", "+"], channel=NoiseSpec("adc", 0.4), parties=3)
        h = 2**-0.5
        assert len(calls) == 1  # all four in one batched run
        assert np.array([s.vector() for s in calls[0]]) == pytest.approx(
            np.array([[1, 0], [0, 1], [h, h], [h, 1j * h]]), abs=1e-15
        )

    def test_zero_probability_branch_is_rejected(self):
        # full reversal: the dealer-outcome-1 branches vanish for every secret
        with pytest.raises(ValueError, match="zero probability"):
            correction_objective(
                1, ["+"], channel=NoiseSpec("adc", 0.5), wmrqm=Wmrqm(0.3, 1.0), nodes=3
            )
