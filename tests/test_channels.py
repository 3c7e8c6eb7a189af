import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import PROJECTORS, apply_channel_oracle, partial_trace_oracle, random_density, register_stack
from qss_sim.channels import (
    FORWARD_CLICK,
    FORWARD_NULL,
    REVERSE,
    KrausChannel,
    _apply_channel_matrix,
    adc,
    apply_channel,
    pdc,
    validate_cptp,
    weak_op,
)
from qss_sim.linalg import ID2, KET_PLUS, PAULI_X, DensityMatrix
from qss_sim.protocol import Secret, _reset_to_zero, encode_secret, make_resource


class TestPhaseDamping:
    def test_zero_strength_is_identity(self, rng):
        rho = random_density(rng, 1)
        assert_allclose(apply_channel(rho, pdc(0.0), 0).matrix, rho.matrix, atol=1e-15)

    def test_full_strength_kills_coherence(self):
        plus = DensityMatrix(np.outer(KET_PLUS, KET_PLUS))
        assert_allclose(apply_channel(plus, pdc(1.0), 0).matrix, np.eye(2) / 2, atol=1e-15)

    def test_completeness(self):
        assert validate_cptp(pdc(0.3).operators) < 1e-12

    def test_diagonal_states_are_fixed_points(self, rng):
        for q in (0.2, 0.7, 1.0):
            diag = DensityMatrix(np.diag(rng.dirichlet([1, 1, 1, 1])))
            out = apply_channel(apply_channel(diag, pdc(q), 0), pdc(q), 1)
            assert_allclose(out.matrix, diag.matrix, atol=1e-14)

    def test_strength_out_of_range(self):
        with pytest.raises(ValueError):
            pdc(1.5)
        with pytest.raises(ValueError):
            pdc(-0.1)


class TestAmplitudeDamping:
    def test_zero_strength_is_identity(self, rng):
        rho = random_density(rng, 1)
        assert_allclose(apply_channel(rho, adc(0.0), 0).matrix, rho.matrix, atol=1e-15)

    def test_full_decay(self):
        one = DensityMatrix(np.diag([0.0, 1.0]))
        assert_allclose(apply_channel(one, adc(1.0), 0).matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_partial_decay(self):
        # direct Kraus sum: K0 |1><1| K0+ + K1 |1><1| K1+ = (1-p)|1><1| + p|0><0|
        one = DensityMatrix(np.diag([0.0, 1.0]))
        out = apply_channel(one, adc(0.4), 0)
        assert_allclose(out.matrix, np.diag([0.4, 0.6]), atol=1e-15)

    def test_ground_state_fixed_point(self):
        ground = DensityMatrix(np.diag([1.0, 0.0]))
        for p in (0.1, 0.5, 1.0):
            assert_allclose(apply_channel(ground, adc(p), 0).matrix, ground.matrix, atol=1e-15)

    def test_strength_out_of_range(self):
        with pytest.raises(ValueError):
            adc(1.01)


class TestApplyChannel:
    def test_trace_and_positivity_preserved(self, rng):
        for make, strength in [(pdc, 0.3), (pdc, 0.9), (adc, 0.3), (adc, 0.9)]:
            ch = make(strength)
            for _ in range(100):
                rho = random_density(rng, 2)
                out = apply_channel(rho, ch, int(rng.integers(2)))
                assert abs(out.trace - rho.trace) < 1e-12
                assert np.linalg.eigvalsh(out.matrix)[0] > -1e-12

    def test_matches_explicit_operator_oracle(self, rng):
        rho = random_density(rng, 3)
        for ch in (pdc(0.45), adc(0.45)):
            for qubit in range(3):
                expected = apply_channel_oracle(rho.matrix, ch.operators, qubit, 3)
                assert_allclose(apply_channel(rho, ch, qubit).matrix, expected, atol=1e-13)

    def test_branch_state_after_transmission_noise(self):
        # damping both transmitted qubits then measuring per protocol leaves
        # the reconstructor with a state of known closed form
        p, k = 0.4, 0.3
        a, b = np.sqrt(k), np.sqrt(1 - k)
        secret = Secret(alpha=a, beta=b)
        rho = encode_secret(secret, make_resource(2)).density()
        rho = apply_channel(apply_channel(rho, adc(p), 0), adc(p), 2).matrix
        alice0 = _apply_channel_matrix(rho, (PROJECTORS["computational"]["0"],), 1, 3)
        charlie_plus = _apply_channel_matrix(alice0, (PROJECTORS["hadamard"]["+"],), 0, 3)
        bob = partial_trace_oracle(charlie_plus, [2], 3)
        prob = float(bob.trace().real)
        expected = np.array(
            [
                [a * a + p * b * b, (1 - p) * a * b],
                [(1 - p) * a * b, (1 - p) * b * b],
            ]
        ) * prob
        assert_allclose(bob, expected, atol=1e-12)
        assert prob == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("qubit", [-1, 2, 5])
    def test_qubit_outside_the_register_is_refused(self, rng, qubit):
        with pytest.raises(ValueError, match=f"qubit {qubit} is outside a 2-qubit register"):
            apply_channel(random_density(rng, 2), adc(0.3), qubit)

    def test_operators_that_are_not_2x2_are_refused(self, rng):
        two_qubit = KrausChannel((np.eye(4),))
        with pytest.raises(ValueError, match="needs 2x2 Kraus operators"):
            apply_channel(random_density(rng, 2), two_qubit, 0)


# Kraus sets of one kind whose zero entries lie in different places, or
# vanish only at an edge strength. Each set is shared by every register of
# a stack, and must leave each register the bytes of its own call.
EDGE_KRAUS_SETS = {
    # K1's anti-diagonal: zero at p = 0 only, where K1 is all zero
    "adc p=0 next to p=0.5": [adc(0.0).operators, adc(0.5).operators],
    "adc edges": [adc(x).operators for x in (0.0, 5e-324, 0.5, 1.0)],
    "pdc edges": [pdc(x).operators for x in (1.0, 0.0, 0.37)],
    "forward null": [(weak_op(FORWARD_NULL, x),) for x in (0.0, 0.3, 1.0)],
    "reverse": [(weak_op(REVERSE, x),) for x in (1.0, 0.45, 0.0)],
    # a zero diagonal, a zero anti-diagonal, or no zero at all
    "X next to I": [(PAULI_X,), (ID2,)],
    "X next to zero": [(PAULI_X,), (np.zeros((2, 2), dtype=complex),)],
    "X, I and a full operator": [(PAULI_X,), (ID2,), (np.array([[0.6, 0.8j], [-0.8j, 0.6]]),)],
    "projectors": [(PROJECTORS["computational"]["0"],), (PROJECTORS["computational"]["1"],)],
    "hadamard projectors": [(PROJECTORS["hadamard"]["+"],), (PROJECTORS["hadamard"]["-"],)],
}

# The sets the simulator applies, also checked on the largest register
SIMULATOR_SETS = ["adc edges", "adc p=0 next to p=0.5", "forward null", "hadamard projectors", "pdc edges",
                  "projectors", "reverse"]


@pytest.mark.parametrize(
    "name, m", [(name, m) for name in sorted(EDGE_KRAUS_SETS) for m in (1, 2, 3, 4)]
    + [(name, 8) for name in SIMULATOR_SETS]
)
def test_stacked_registers_equal_per_register_calls(name, m):
    """2x2 operators shared by a ``(batch, 2^m, 2^m)`` stack, or by one with
    a further leading axis, give every register the bytes of its own call,
    at every qubit."""
    stack = register_stack(m, np.random.default_rng(m))
    for ops in EDGE_KRAUS_SETS[name]:
        for q in range(m):
            stacked = _apply_channel_matrix(stack, ops, q, m)
            for mat, out in zip(stack, stacked):
                assert out.tobytes() == _apply_channel_matrix(mat, ops, q, m).tobytes(), (name, q)
            nested = _apply_channel_matrix(stack[:, None], ops, q, m)
            assert nested.shape == (len(stack), 1, 2**m, 2**m)
            assert nested.tobytes() == stacked.tobytes(), (name, q)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_every_block_is_written_and_the_input_left_alone(m, monkeypatch):
    """A call reads its input without writing it (a write would raise) and
    returns a new array in which it writes every entry: a block that no
    product reaches is ``+0`` however the new array's memory starts, so a
    result whose memory starts full of other values has the same bytes."""
    stack = register_stack(m, np.random.default_rng(m))
    stack.flags.writeable = False
    before = stack.tobytes()
    sets = [(name, ops) for name, kinds in EDGE_KRAUS_SETS.items() for ops in kinds]
    expected = {
        (name, i, q): _apply_channel_matrix(stack, ops, q, m)
        for i, (name, ops) in enumerate(sets)
        for q in range(m)
    }
    assert stack.tobytes() == before
    empty_like = np.empty_like
    monkeypatch.setattr(np, "empty_like", lambda a, *args, **kw: np.full_like(
        empty_like(a, *args, **kw), complex(np.nan, -7.0)))
    for i, (name, ops) in enumerate(sets):
        for q in range(m):
            out = _apply_channel_matrix(stack, ops, q, m)
            assert not np.shares_memory(out, stack)
            assert out.tobytes() == expected[name, i, q].tobytes(), (name, q)
    assert stack.tobytes() == before


def test_channel_and_reset_leave_their_input_alone(rng):
    """``apply_channel`` and ``_reset_to_zero`` read a state's read-only
    matrix and never write into it (a write would raise)."""
    for m in (1, 3):
        rho = random_density(rng, m)
        before = rho.matrix.tobytes()
        for ch in (adc(0.4), pdc(0.3), adc(1.0), pdc(1.0)):
            for q in range(m):
                apply_channel(rho, ch, q)
        assert not rho.matrix.flags.writeable and rho.matrix.tobytes() == before
    qubit = random_density(rng, 1)
    before = qubit.matrix.tobytes()
    _reset_to_zero(qubit)
    assert not qubit.matrix.flags.writeable and qubit.matrix.tobytes() == before


class TestWeakOps:
    def test_zero_strength_forward_null_is_identity(self):
        assert_allclose(weak_op(FORWARD_NULL, 0.0), ID2)

    def test_full_reverse_is_singular_projector(self):
        m = weak_op(REVERSE, 1.0)
        assert_allclose(m, np.diag([0.0, 1.0]))
        assert np.linalg.matrix_rank(m) == 1

    def test_forward_pair_complete(self):
        s = 0.7
        m0 = weak_op(FORWARD_NULL, s)
        m1 = weak_op(FORWARD_CLICK, s)
        assert_allclose(m0.conj().T @ m0 + m1.conj().T @ m1, ID2, atol=1e-15)

    def test_invertible_below_full_strength(self):
        for s in (0.0, 0.5, 0.99):
            assert abs(np.linalg.det(weak_op(FORWARD_NULL, s))) > 0
            assert abs(np.linalg.det(weak_op(REVERSE, s))) > 0
        assert abs(np.linalg.det(weak_op(FORWARD_CLICK, 0.5))) == 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            weak_op("sideways", 0.5)

    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
    def test_matrix_is_a_read_only_complex_array(self, s):
        expected = {
            FORWARD_NULL: [[1.0, 0.0], [0.0, np.sqrt(1.0 - s)]],
            FORWARD_CLICK: [[0.0, 0.0], [0.0, np.sqrt(s)]],
            REVERSE: [[np.sqrt(1.0 - s), 0.0], [0.0, 1.0]],
        }
        for kind, rows in expected.items():
            m = weak_op(kind, s)
            assert m.dtype == np.complex128 and m.shape == (2, 2)
            assert not m.flags.writeable
            assert m.tobytes() == np.asarray(np.array(rows), dtype=complex).tobytes()


def post_select(mat, op, qubits, m):
    """Unnormalized state after the outcome ``op`` on each of ``qubits``."""
    for q in qubits:
        mat = _apply_channel_matrix(mat, (op,), q, m)
    return mat


class TestPostSelection:
    def test_zero_strength_keeps_state(self, rng):
        rho = random_density(rng, 2).matrix
        out = post_select(rho, weak_op(FORWARD_NULL, 0.0), [0], 2)
        assert out.trace().real == pytest.approx(1.0)
        assert_allclose(out, rho, atol=1e-15)

    def test_survival_probability_closed_form(self):
        # trace after forward-null on both transmitted qubits
        for k in (0.0, 0.3, 1.0):
            for s in (0.0, 0.4, 0.9):
                rho = encode_secret(Secret.from_k(k), make_resource(2)).density().matrix
                rho = post_select(rho, weak_op(FORWARD_NULL, s), (0, 2), 3)
                expected = 0.5 * (1 + (1 - s)) * (1 - (1 - k) * s)
                assert rho.trace().real == pytest.approx(expected, abs=1e-12)

    def test_full_cycle_trace_matches_closed_form(self):
        from qss_sim.analysis import sp1, sp2

        k, s, r, p = 0.5, 0.3, 0.4, 0.2
        rho = encode_secret(Secret.from_k(k), make_resource(2)).density().matrix
        rho = post_select(rho, weak_op(FORWARD_NULL, s), (0, 2), 3)
        assert rho.trace().real == pytest.approx(sp1(k, s), abs=1e-12)
        for q in (0, 2):
            rho = _apply_channel_matrix(rho, adc(p).operators, q, 3)
        rho = post_select(rho, weak_op(REVERSE, r), (0, 2), 3)
        assert rho.trace().real == pytest.approx(sp2(k, s, r, p), abs=1e-12)

    def test_zero_probability_branch(self):
        ground = np.diag([1.0, 0.0]).astype(complex)
        out = post_select(ground, weak_op(FORWARD_CLICK, 0.8), [0], 1)
        assert out.tobytes() == np.zeros((2, 2), dtype=complex).tobytes()
        with pytest.raises(ValueError):
            DensityMatrix(out)  # a zero-trace branch is not a state

    def test_reverse_after_forward_null_rescales_when_strengths_match(self, rng):
        # both operators are diagonal; at r = s their product is sqrt(1-s) I
        rho = random_density(rng, 1).matrix
        s = 0.6
        mid = post_select(rho, weak_op(FORWARD_NULL, s), [0], 1)
        out = post_select(mid, weak_op(REVERSE, s), [0], 1)
        assert_allclose(out, (1 - s) * rho, atol=1e-14)


class TestValidateCptp:
    def test_valid_channels(self):
        assert validate_cptp(pdc(0.5).operators) < 1e-12
        assert validate_cptp(adc(0.9).operators) < 1e-12

    def test_corrupted_channel_detected(self):
        base = adc(0.3)
        residual = validate_cptp((base.operators[0] * 1.01, base.operators[1]))
        assert residual > 1e-3
        assert residual == pytest.approx(1.01**2 - 1, abs=1e-2)

    def test_empty_operator_list_is_refused(self):
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            validate_cptp(())
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            KrausChannel(())

    def test_constructor_rejects_incomplete_operators(self):
        base = adc(0.3)
        with pytest.raises(ValueError):
            KrausChannel((base.operators[0] * 1.01, base.operators[1]))
