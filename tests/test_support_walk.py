"""The support pre-walk and the kept-block walk against the dense forms they
replaced.

``dense_pre_walk`` is the pass sequence run on the whole register: the
register's ``|psi><psi|`` as the elementwise outer product of its
amplitudes, then every pass of ``_operator_passes`` through
``_apply_channel_matrix`` with the register's own operators.
``full_sandwich_walk`` is the branch walk that projects every outcome onto
the whole register with ``_apply_channel_matrix`` and copies out the block
it keeps.

``protocol._pre_walk`` gives every entry of the support the dense path's
products and sums and leaves every other entry zero, so registers are
compared by value (``np.array_equal``): an entry that is exactly zero may
carry the other sign there, as no report does. The reports must agree bit
for bit. ``protocol._kept_blocks`` does the full sandwich's operations for
the blocks it keeps, so the walk's leaves must agree byte for byte.

Budget: about 3 s for the whole file (2-CPU x86-64).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import register_stack
from qss_sim import protocol
from qss_sim.channels import _apply_channel_matrix
from qss_sim.protocol import NoiseSpec, ProtocolConfig, Secret, Wmrqm, run_iterations
from test_branch_reference import assert_bits_equal, edge, edge_noise, mixed_config_stacks, secrets, unit


def dense_pre_walk(cfg, secret):
    """One register's passes before the walk, each on the whole register."""
    amps = protocol._encoded_amplitudes([secret], cfg.parties)
    rho = amps[:, :, None] * amps.conj()[:, None, :]
    for q, _, operators in protocol._operator_passes(cfg):
        rho = _apply_channel_matrix(rho, operators, q, cfg.num_qubits)
    return rho[0]


def full_sandwich_walk(mat, measurements, m):
    """``protocol._walk`` with each outcome's whole projection ``P X P^dag``
    formed and its kept diagonal block copied out."""
    batch, labels = len(mat), [()]
    for i, (qubit, basis) in enumerate(measurements):
        qubit -= sum(q < qubit for q, _ in measurements[:i])
        lo, hi = 2**qubit, 2 ** (m - qubit - 1)
        projectors = protocol._BASIS_PROJECTORS[basis]
        kept = np.empty((len(mat), len(projectors), lo, hi, lo, hi), dtype=mat.dtype)
        for o, (label, proj) in enumerate(projectors):
            bit = int(label == "1")
            blocks = _apply_channel_matrix(mat, (proj,), qubit, m).reshape(-1, lo, 2, hi, lo, 2, hi)
            kept[:, o] = blocks[:, :, bit, :, :, bit, :]
        mat, m = kept.reshape(-1, lo * hi, lo * hi), m - 1
        labels = [prefix + (label,) for prefix in labels for label, _ in projectors]
    return labels, mat.reshape(batch, len(labels), *mat.shape[1:])


def reference_reports(cfgs, batch):
    """``run_iterations`` on the dense pre-walk and the full-sandwich walk."""
    def pre_walk(cfgs, batch):
        return np.stack([dense_pre_walk(c, s) for c, s in zip(cfgs, batch)])

    with mock.patch.object(protocol, "_pre_walk", pre_walk), mock.patch.object(protocol, "_walk", full_sandwich_walk):
        return run_iterations(cfgs, batch)


@st.composite
def config_stacks(draw, parties):
    """``(config, secret)`` pairs of one register layout: one config for
    every secret, or configs with strengths of their own."""
    if draw(st.booleans()):
        return draw(mixed_config_stacks(parties))
    channel = draw(st.none() | edge_noise | st.tuples(*[st.none() | edge_noise] * parties))
    wmrqm = draw(st.none() | st.builds(Wmrqm, edge | unit, edge | unit))
    cfg = ProtocolConfig(parties=parties, secrets=(Secret(1.0, 0.0),), channel=channel, wmrqm=wmrqm)
    return [(cfg, draw(secrets())) for _ in range(draw(st.integers(1, 4)))]


def assert_support_matches_dense(cfgs, batch):
    registers = protocol._pre_walk(cfgs, batch)
    for register, cfg, secret in zip(registers, cfgs, batch):
        assert np.array_equal(register, dense_pre_walk(cfg, secret))
    new = run_iterations(cfgs, batch)
    for reports, expected in zip(new, reference_reports(cfgs, batch)):
        assert_bits_equal(reports, expected)


@pytest.mark.parametrize("parties", range(2, 8))
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_support_pre_walk_equals_the_dense_passes(parties, data):
    """Edge strengths 0, 1, 5e-324 and 0.99609375, per-leg channels,
    protection, mixed-config stacks whose operators put their zeros in
    different places, and subnormal or complex secrets: every register
    equals its dense passes, and every report keeps its bits."""
    cfgs, batch = zip(*data.draw(config_stacks(parties)))
    assert_support_matches_dense(cfgs, batch)


@pytest.mark.parametrize("parties", [2, 5, 7])
def test_full_forward_and_reverse_measurements_empty_the_support(parties):
    """A forward weak measurement of strength 1 keeps |0> and a reversal of
    strength 1 keeps |1> on each transmitted qubit: the support ends empty,
    every register is zero and every branch is a zero branch, next to a
    config of the same layout that keeps its support."""
    cfgs = [
        ProtocolConfig(parties=parties, secrets=(Secret(1.0, 0.0),), channel=NoiseSpec("adc", 0.3), wmrqm=w)
        for w in (Wmrqm(1.0, 1.0), Wmrqm(0.2, 0.4))
    ]
    batch = [Secret(0.6, 0.8j), Secret(0.6, 0.8j)]
    assert not protocol._pre_walk(cfgs[:1], batch[:1]).any()
    (dead, live) = run_iterations(cfgs, batch)
    assert all(r.reconstructed_state is None for r in dead)
    assert any(r.reconstructed_state is not None for r in live)
    assert_support_matches_dense(cfgs, batch)


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("basis", ["computational", "hadamard"])
def test_kept_blocks_equal_the_full_sandwich_blocks(m, basis):
    """One walk level on stacks with negative, zero and signed-zero parts,
    at every qubit: the kept blocks have the bytes the full projection
    gives them."""
    stack = register_stack(m, np.random.default_rng(m))
    projectors = protocol._BASIS_PROJECTORS[basis]
    for q in range(m):
        kept = protocol._kept_blocks(stack, q, m, projectors)
        _, expected = full_sandwich_walk(stack, [(q, basis)], m)
        assert kept.tobytes() == expected.tobytes(), q


@pytest.mark.parametrize("parties", range(2, 8))
def test_walk_leaves_equal_the_full_sandwich_walk(parties):
    """The protocol's measurements on random register stacks: the same
    labels, and leaves with the same bytes."""
    cfg = ProtocolConfig(parties=parties, secrets=(Secret(1.0, 0.0),))
    stack = register_stack(cfg.num_qubits, np.random.default_rng(parties))
    measurements = protocol._measurements(cfg)
    labels, leaves = protocol._walk(stack, measurements, cfg.num_qubits)
    expected_labels, expected = full_sandwich_walk(stack, measurements, cfg.num_qubits)
    assert labels == expected_labels
    assert leaves.tobytes() == expected.tobytes()
