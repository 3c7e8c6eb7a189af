"""The ``run`` report writer against the report object it stands for.

``oracle_report`` builds the report as a dict and writes it with
``json.dumps(_round_floats(report), indent=2)``: the plain path the
template writer ``cli._report_text`` must match byte for byte, on every
report shape the goldens lack and on every kind of float.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_text
from qss_sim import cli
from qss_sim.channels import validate_cptp
from qss_sim.protocol import (
    NoiseSpec,
    ProtocolConfig,
    Secret,
    Wmrqm,
    aggregate_fidelity,
    run_protocol,
    success_probability,
)


def _round_floats(obj):
    """12-significant-digit floats for reproducible reports."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return obj
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _config_echo(cfg):
    def noise(spec):
        return None if spec is None else {"kind": spec.kind, "strength": spec.strength}

    channel = [noise(s) for s in cfg.channel] if isinstance(cfg.channel, tuple) else noise(cfg.channel)
    return {
        "parties": cfg.parties,
        "iterations": cfg.iterations,
        "secrets_k": [s.k for s in cfg.secrets],
        "channel": channel,
        "wmrqm": None if cfg.wmrqm is None else {"s": cfg.wmrqm.s, "r": cfg.wmrqm.r},
        "return_channel": noise(cfg.return_channel),
    }


def _branch_entry(report):
    return {
        "alice": report.alice_outcome,
        "collaborators": list(report.collaborator_outcomes),
        "correction": report.correction_applied,
        "probability": report.branch_probability,
        "fidelity": report.fidelity,
    }


def oracle_report(cfg, rounds):
    """The report text of ``rounds`` through a dict and ``json.dumps``."""
    residuals = {}
    legs = [cfg.channel_for(i) for i in range(len(cfg.transmitted_qubits))]
    specs = [s for s in legs + [cfg.return_channel] if s is not None]
    if specs:
        residuals["channel_completeness"] = max(validate_cptp(s.channel().operators) for s in specs)
    state_residual = 0.0
    for reports in rounds:
        for r in reports:
            if r.reconstructed_state is not None:
                state_residual = max(state_residual, abs(r.reconstructed_state.trace - 1.0))
    residuals["reconstructed_state_trace"] = state_residual
    if cfg.wmrqm is None:
        residuals["branch_probability_sum"] = max(
            abs(success_probability(reports) - 1.0) for reports in rounds
        )
    report = {
        "config": _config_echo(cfg),
        "iterations": [
            {
                "index": i,
                "branches": [_branch_entry(r) for r in reports],
                "success_probability": success_probability(reports),
                "aggregate_fidelity": aggregate_fidelity(reports),
            }
            for i, reports in enumerate(rounds)
        ],
        "validation_residuals": residuals,
    }
    return json.dumps(_round_floats(report), indent=2) + "\n"


def _shape(parties, rounds, shape):
    """A config of one of four report shapes, its strengths drawn from
    ``(parties, rounds, shape)``."""
    rng = np.random.default_rng([parties, rounds, shape])
    secrets = tuple(Secret.from_k(k) for k in rng.uniform(0.0, 1.0, rounds))
    strength = float(rng.uniform(0.0, 1.0))
    if shape == 0:  # no channel, no return channel, no protection
        return ProtocolConfig(parties=parties, secrets=secrets)
    if shape == 1:  # per-leg channels with a noiseless leg, pdc return trip
        kinds = ["adc", None, "pdc"] * parties
        legs = tuple(None if kind is None else NoiseSpec(kind, float(rng.uniform(0.0, 1.0)))
                     for kind in kinds[:parties])
        return ProtocolConfig(parties=parties, secrets=secrets, channel=legs,
                              return_channel=NoiseSpec("pdc", strength))
    if shape == 2:  # protection and adc both ways
        wmrqm = Wmrqm(*rng.uniform(0.0, 0.9, 2).tolist())
        return ProtocolConfig(parties=parties, secrets=secrets, channel=NoiseSpec("adc", strength),
                              wmrqm=wmrqm, return_channel=NoiseSpec("adc", 0.5))
    # a full forward measurement: half the branches have probability 0
    return ProtocolConfig(parties=parties, secrets=(Secret.from_k(0.5),) * rounds,
                          channel=NoiseSpec("pdc", strength), wmrqm=Wmrqm(1.0, 0.0))


@pytest.mark.parametrize("shape", range(4))
@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("parties", range(2, 8))
def test_report_text_matches_the_json_dumps_report(parties, rounds, shape):
    cfg = _shape(parties, rounds, shape)
    simulated = run_protocol(cfg)
    text = cli._report_text(cfg, simulated)
    assert_same_text(text, oracle_report(cfg, simulated))
    report = json.loads(text)
    assert ("branch_probability_sum" in report["validation_residuals"]) == (cfg.wmrqm is None)
    if shape == 3:
        assert [b["fidelity"] for b in report["iterations"][0]["branches"]].count(None) == 2 ** (parties - 1)


def test_report_text_writes_config_echo_values_as_given():
    # Integer strengths from the API stay integers, as json.dumps writes them.
    cfg = ProtocolConfig(parties=2, secrets=(Secret.from_k(0.3),), channel=(NoiseSpec("adc", 1), None),
                         wmrqm=Wmrqm(0, 0), return_channel=NoiseSpec("pdc", 0))
    simulated = run_protocol(cfg)
    text = cli._report_text(cfg, simulated)
    assert_same_text(text, oracle_report(cfg, simulated))
    assert '"strength": 1\n' in text


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 1e-300, 1 / 3,
               0.1 + 0.2, 123456789012.5, 1e16, 2.5e-05, 1.0, -1.5]


@pytest.mark.parametrize("x", EDGE_FLOATS + [None, np.float64(1 / 7), np.float64(np.nan)])
def test_float_text_is_json_dumps_of_the_rounded_float(x):
    assert cli._num(x) == json.dumps(_round_floats(x))


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_any_float_text_is_json_dumps_of_the_rounded_float(x):
    assert cli._num(x) == json.dumps(_round_floats(x))


def test_edge_floats_in_every_report_field():
    cfg = ProtocolConfig(parties=3, secrets=(Secret.from_k(0.4), Secret.from_k(0.6)),
                         channel=NoiseSpec("adc", 0.3))
    values = iter(EDGE_FLOATS * 3)
    rounds = [
        [dataclasses.replace(r, branch_probability=abs(next(values)), fidelity=next(values)) for r in reports]
        for reports in run_protocol(cfg)
    ]
    text = cli._report_text(cfg, rounds)
    assert_same_text(text, oracle_report(cfg, rounds))
    for word in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324", "1e+300"):
        assert f": {word}," in text or f": {word}\n" in text
