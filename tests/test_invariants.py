"""Run-level invariants of the simulator and the sweep command, over random
configurations.

Each property holds for every configuration, not only the fixed ones the
other suites pin: reconstructed states keep unit trace, branch
probabilities sum to one without protection and to the product of the
rounds' ``sp2`` with it, each receiver alone sees ``I/2``, and a sweep
writes the same CSV bytes on every run.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partial_trace_oracle, withheld_oracle
from qss_sim.analysis import sp2
from qss_sim.channels import apply_channel
from qss_sim.cli import main
from qss_sim.protocol import (
    NoiseSpec,
    ProtocolConfig,
    Secret,
    Wmrqm,
    encode_secret,
    make_resource,
    run_protocol,
    success_probability,
)
from qss_sim.sweeps import _params_read

unit = st.floats(0.0, 1.0)
noise = st.none() | st.builds(NoiseSpec, st.sampled_from(("pdc", "adc")), unit)
examples = settings(max_examples=10, deadline=None, database=None, derandomize=True)


@st.composite
def secrets(draw):
    """Pure secret of population ``k`` and relative phase ``phi``."""
    k, phi = draw(unit), draw(st.floats(0.0, 2.0 * math.pi))
    return Secret(alpha=math.sqrt(k), beta=math.sqrt(1.0 - k) * np.exp(1j * phi))


@st.composite
def protocol_configs(draw, parties, wmrqm=st.none() | st.builds(Wmrqm, unit, unit)):
    rounds = draw(st.integers(1, 3))
    return ProtocolConfig(
        parties=parties,
        secrets=tuple(draw(secrets()) for _ in range(rounds)),
        channel=draw(noise | st.tuples(*[noise] * parties)),
        wmrqm=draw(wmrqm),
        return_channel=draw(noise),
    )


@pytest.mark.parametrize("parties", [2, 3, 4, 5])
@examples
@given(data=st.data())
def test_reconstructed_states_keep_unit_trace(parties, data):
    cfg = data.draw(protocol_configs(parties))
    for reports in run_protocol(cfg):
        for r in reports:
            if r.reconstructed_state is None:
                assert r.branch_probability == 0.0 and r.fidelity is None
            else:
                assert abs(r.reconstructed_state.trace - 1.0) <= 1e-12
                assert -1e-12 <= r.fidelity <= 1.0 + 1e-12


@pytest.mark.parametrize("parties", [2, 3, 4, 5])
@examples
@given(data=st.data())
def test_unprotected_branch_probabilities_sum_to_one(parties, data):
    cfg = data.draw(protocol_configs(parties, wmrqm=st.none()))
    for reports in run_protocol(cfg):
        assert abs(success_probability(reports) - 1.0) <= 1e-12


@examples
@given(cfg=protocol_configs(2, wmrqm=st.builds(Wmrqm, unit, unit)), p=unit)
def test_protected_branch_probabilities_sum_to_sp2(cfg, p):
    # every round keeps the fraction sp2 of the weight carried into it
    cfg = ProtocolConfig(
        parties=2,
        secrets=cfg.secrets,
        channel=NoiseSpec("adc", p),
        wmrqm=cfg.wmrqm,
        return_channel=cfg.return_channel,
    )
    s, r = cfg.wmrqm.s, cfg.wmrqm.r
    carried = 1.0
    for secret, reports in zip(cfg.secrets, run_protocol(cfg)):
        carried *= sp2(secret.k, s, r, p)
        assert abs(success_probability(reports) - carried) <= 1e-12


@pytest.mark.parametrize("parties", [2, 3, 4, 5])
@examples
@given(data=st.data())
def test_each_receiver_alone_sees_the_maximally_mixed_state(parties, data):
    # dephasing noise on the way keeps the secret hidden from every receiver
    secret = data.draw(secrets())
    cfg = ProtocolConfig(parties=parties, secrets=(secret,))
    shared = encode_secret(secret, make_resource(parties)).density()
    for qubit in cfg.transmitted_qubits:
        shared = apply_channel(shared, NoiseSpec("pdc", data.draw(unit)).channel(), qubit)
    ensemble = withheld_oracle(shared.matrix, cfg)
    for qubit in cfg.transmitted_qubits:
        reduced = partial_trace_oracle(ensemble, [qubit], cfg.num_qubits)
        assert np.max(np.abs(reduced - np.eye(2) / 2)) <= 1e-12


CHEAP_QUANTITIES = (
    "f_pd", "avg_f_pd", "f_ad", "f_ad_outcome1", "avg_f_ad", "sp1", "sp2", "f0_ww",
    "r_opt", "f1_ww", "avg_f1", "optimal_line", "sim_fidelity",
)


@st.composite
def sweep_specs(draw):
    """Spec text over one or two axes, each over a parameter the drawn
    quantities read, binding every other parameter they read (an axis or a
    binding that none reads exits 3)."""
    quantities = draw(st.lists(
        st.sampled_from(CHEAP_QUANTITIES), min_size=1, max_size=4, unique=True
    ))
    fixed = {}
    if "sim_fidelity" in quantities:
        fixed["channel"] = draw(st.sampled_from(("pdc", "adc", "none")))
    if "r" in _params_read(quantities, fixed) and draw(st.booleans()):
        fixed["r"] = "r_opt"
    read = sorted(_params_read(quantities, fixed) - set(fixed))
    names = draw(st.permutations(read))[: draw(st.integers(1, 2))]
    lines = ["quantity = " + ", ".join(quantities)]
    for key, name in zip(("axis", "axis2"), names):
        lo, hi = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
        lines.append(f"{key} = {name}, {lo!r}, {hi!r}, {draw(st.integers(2, 4))}")
    lines.extend(f"{name} = {value}" for name, value in fixed.items())
    lines.extend(f"{name} = {draw(unit)!r}" for name in read if name not in names)
    return "\n".join(lines) + "\n"


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(spec=sweep_specs())
def test_sweep_csv_is_the_same_on_rerun(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.spec"
        path.write_text(spec)
        outputs = []
        for run in range(2):
            out = Path(tmp) / f"out{run}.csv"
            assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
