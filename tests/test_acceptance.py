"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not configured elsewhere. Grids that touch
formulas with excluded singular points (full-strength corners where a
branch has zero probability or a denominator vanishes) use interior values;
the edge behavior itself is covered by dedicated tests in the unit modules.
"""

import time
from contextlib import contextmanager

import numpy as np
from scipy.integrate import quad

from conftest import partial_trace_oracle, random_secret, withheld_oracle
from qss_sim.analysis import (
    avg_f_ad,
    avg_f_opt0,
    avg_f_opt0_closed_form,
    avg_f_pd,
    avg_success_opt0,
    f0_ww,
    f1_ww,
    f_ad,
    f_ad_outcome1,
    f_pd,
    in_validity_region,
    r_opt,
    region_bounds,
    sp1,
    sp2,
)
from qss_sim.optimize import (
    ScalarObjective,
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
    correction,
    encode_secret,
    make_resource,
    run_iteration,
    advance,
    success_probability,
)


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} [FAIL] {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:>2} [PASS] {description} ({elapsed:.2f}s)")


def branch_map(k, channel=None, wmrqm=None):
    secret = Secret.from_k(k)
    cfg = ProtocolConfig(parties=2, secrets=(secret,), channel=channel, wmrqm=wmrqm)
    return {
        (r.alice_outcome, r.collaborator_outcomes[0]): r
        for r in run_iteration(cfg, secret)
    }


def test_criterion_1_phase_damping_endpoints_and_curve():
    with criterion(1, "phase-damping average: exact endpoints, curve matches quadrature"):
        start = time.monotonic()
        assert avg_f_pd(0.0) == 1.0
        assert avg_f_pd(1.0) == 2.0 / 3.0
        for q in np.linspace(0.0, 1.0, 101):
            integral, _ = quad(lambda k: f_pd(k, float(q)), 0.0, 1.0, epsabs=1e-13)
            assert abs(avg_f_pd(float(q)) - integral) < 1e-9
        assert time.monotonic() - start < 1.0


def test_criterion_2_amplitude_damping_line():
    with criterion(2, "amplitude-damping average equals 1 - p/2, headline value 0.5"):
        start = time.monotonic()
        for p in np.linspace(0.0, 1.0, 101):
            assert abs(avg_f_ad(float(p)) - (1.0 - float(p) / 2.0)) < 1e-12
        assert avg_f_ad(1.0) == 0.5
        assert time.monotonic() - start < 1.0


def test_criterion_3_oracle_equivalence():
    with criterion(3, "closed forms equal brute-force simulator on dense grids"):
        start = time.monotonic()

        for k in np.linspace(0.0, 1.0, 11):
            for q in np.linspace(0.0, 1.0, 11):
                sim = branch_map(float(k), channel=NoiseSpec("pdc", float(q)))
                want = f_pd(float(k), float(q))
                for branch in sim.values():
                    assert abs(branch.fidelity - want) < 1e-12

        for k in np.linspace(0.0, 1.0, 11):
            for p in np.linspace(0.0, 1.0, 11):
                sim = branch_map(float(k), channel=NoiseSpec("adc", float(p)))
                for b in ("+", "-"):
                    assert abs(sim[(0, b)].fidelity - f_ad(float(k), float(p))) < 1e-12
                    assert abs(sim[(1, b)].fidelity - f_ad_outcome1(float(k), float(p))) < 1e-12

        interior = np.linspace(0.1, 0.9, 5)
        for k in interior:
            for s in interior:
                for r in interior:
                    for p in interior:
                        sim = branch_map(
                            float(k),
                            channel=NoiseSpec("adc", float(p)),
                            wmrqm=Wmrqm(float(s), float(r)),
                        )
                        want0 = f0_ww(float(k), float(s), float(r), float(p))
                        for b in ("+", "-"):
                            assert abs(sim[(0, b)].fidelity - want0) < 1e-10
                        total = sum(x.branch_probability for x in sim.values())
                        assert abs(total - sp2(float(k), float(s), float(r), float(p))) < 1e-12

        for k in interior:
            for r in interior:
                for p in interior:
                    sim = branch_map(
                        float(k), channel=NoiseSpec("adc", float(p)), wmrqm=Wmrqm(0.5, float(r))
                    )
                    want1 = f1_ww(float(k), float(r), float(p))
                    for b in ("+", "-"):
                        assert abs(sim[(1, b)].fidelity - want1) < 1e-10

        for k in np.linspace(0.0, 1.0, 11):
            for s in np.linspace(0.0, 1.0, 11):
                secret = Secret.from_k(float(k))
                cfg = ProtocolConfig(parties=2, secrets=(secret,), wmrqm=Wmrqm(float(s), 0.0))
                total = success_probability(run_iteration(cfg, secret))
                assert abs(total - sp1(float(k), float(s))) < 1e-12

        assert time.monotonic() - start < 30.0


def test_criterion_4_sequential_independence(rng):
    with criterion(4, "iteration-2 fidelity depends only on iteration-2 noise"):
        start = time.monotonic()
        secrets = [random_secret(rng) for _ in range(3)]
        strengths = np.linspace(0.1, 0.9, 5)
        for kind in ("pdc", "adc"):
            for noise1 in strengths:
                for noise2 in strengths:
                    for secret in secrets:
                        cfg1 = ProtocolConfig(
                            parties=2, secrets=(secret,), channel=NoiseSpec(kind, float(noise1))
                        )
                        cfg2 = ProtocolConfig(
                            parties=2, secrets=(secret,), channel=NoiseSpec(kind, float(noise2))
                        )
                        chained = advance(run_iteration(cfg1, secret), secret, cfg2)
                        single = {
                            (r.alice_outcome, r.collaborator_outcomes): r.fidelity
                            for r in run_iteration(cfg2, secret)
                        }
                        for r in chained:
                            ref = single[(r.alice_outcome, r.collaborator_outcomes)]
                            assert abs(r.fidelity - ref) < 1e-12
        assert time.monotonic() - start < 10.0


def test_criterion_5_optimal_reversal_strength(rng):
    with criterion(5, "closed-form reversal optimum matches golden-section argmax"):
        checked = 0
        while checked < 50:
            p = float(rng.uniform(0.05, 0.95))
            s = float(rng.uniform(0.0, 0.9))
            lower, split = region_bounds(p, s)
            k = float(rng.uniform(lower + 1e-6, 1.0 - 1e-6))
            if not in_validity_region(k, s, p) or abs(k - split) < 1e-6:
                continue
            closed = r_opt(k, s, p)
            numeric, numeric_best = maximize_scalar(
                ScalarObjective(lambda r: f0_ww(k, s, r, p), 0.0, 1.0, tolerance=1e-11)
            )
            assert abs(closed - numeric) < 1e-6
            assert f0_ww(k, s, closed, p) >= numeric_best - 1e-9
            checked += 1


def test_criterion_6_protection_floor_and_closed_form_report():
    with criterion(6, "protected average near 3/5 at strong damping; closed form agrees"):
        value = avg_f_opt0(0.99, 0.0)
        assert 0.55 <= value <= 0.65
        baseline = avg_f_ad(0.99)
        assert abs(baseline - 0.505) < 1e-12
        assert value - baseline >= 0.05

        # closed form versus quadrature: target 1e-4
        closed = avg_f_opt0_closed_form(0.99, 0.0)
        gap = abs(value - closed)
        print(
            f"    criterion 6 report: quadrature {value:.9f}, closed form "
            f"{closed:.9f}, |gap| {gap:.3e} (target 1e-4)"
        )
        assert gap < 1e-4
        from qss_sim.validate import _suite_avg_f_opt0_report

        report = _suite_avg_f_opt0_report(3)
        assert report.informational and report.note
        assert report.max_residual < 1e-4


def test_criterion_7_success_probability_trade_off():
    with criterion(7, "success probability small at strong forward measurement, monotone"):
        for p in np.linspace(0.5, 0.99, 6):
            assert avg_success_opt0(float(p), 0.99) < 0.05

        for p in (0.3, 0.6, 0.9):
            for k in (0.4, 0.7):
                values = []
                for s in np.linspace(0.0, 0.99, 34):
                    if not in_validity_region(k, float(s), p):
                        continue
                    values.append(sp2(k, float(s), r_opt(k, float(s), p), p))
                assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_criterion_8_full_reversal_boundary():
    with criterion(8, "full reversal restores fidelity one at negligible success"):
        for k in np.linspace(0.0, 1.0, 11):
            for p in np.linspace(0.0, 0.99, 12):
                assert abs(f1_ww(float(k), 1.0, float(p)) - 1.0) < 1e-12
        # representative mid-range secret and forward strength; sp2(k,s,1,p)
        # = (1-k)(1-p)^2(1-s)^2 / 2 so the bound is driven by (1-p)^2
        for p in (0.9, 0.95, 0.99):
            assert sp2(0.5, 0.5, 1.0, p) <= 1e-3
        # the outcome-1 branches themselves are extinguished exactly
        sim = branch_map(0.4, channel=NoiseSpec("adc", 0.9), wmrqm=Wmrqm(0.5, 1.0))
        assert sim[(1, "+")].branch_probability == 0.0
        assert sim[(1, "-")].branch_probability == 0.0


def test_criterion_9_secrecy_marginals():
    with criterion(9, "every single receiver's marginal is maximally mixed"):
        for n in (2, 3, 4, 5):
            secret = Secret.from_k(0.3)
            cfg = ProtocolConfig(parties=n, secrets=(secret,))
            shared = encode_secret(secret, make_resource(n)).density()
            ensemble = withheld_oracle(shared.matrix, cfg)
            for qubit in (0,) + tuple(range(2, n + 1)):
                reduced = partial_trace_oracle(ensemble, [qubit], cfg.num_qubits)
                assert np.max(np.abs(reduced - np.eye(2) / 2)) < 1e-12


def test_criterion_10_correction_table_optimality():
    with criterion(10, "unitary search never beats the Pauli correction table"):
        start = time.monotonic()
        cases = []
        for kind in ("pdc", "adc"):
            for strength in (0.25, 0.5, 0.75):
                for alice in (0, 1):
                    for collab in ("+", "-"):
                        cases.append((NoiseSpec(kind, strength), None, alice, collab))
        for alice in (0, 1):
            for collab in ("+", "-"):
                cases.append((NoiseSpec("adc", 0.5), Wmrqm(0.3, 0.4), alice, collab))

        for channel, wmrqm, alice, collab in cases:
            obj = correction_objective(alice, [collab], channel=channel, wmrqm=wmrqm, nodes=33)
            table_value = obj.value(correction(alice, [collab]))
            result = optimize_correction(obj, restarts=8, sweeps=4)
            assert result.value <= table_value + 1e-6, (
                f"search beat the table on {channel.kind}@{channel.strength} "
                f"branch ({alice},{collab}): {result.value} > {table_value}"
            )
            best = best_correction(obj)
            assert abs(table_value - best.value) <= 1e-10, (
                f"table is not the global optimum on {channel.kind}@{channel.strength} "
                f"branch ({alice},{collab}): {table_value} != {best.value}"
            )
            assert abs(obj.value(best.unitary) - best.value) <= 1e-12
        assert time.monotonic() - start < 120.0


def test_criterion_11_multi_party_correctness(rng):
    with criterion(11, "noiseless n-party runs reconstruct random secrets exactly"):
        for n in (2, 3, 4, 5):
            for _ in range(200):
                secret = random_secret(rng)
                cfg = ProtocolConfig(parties=n, secrets=(secret,))
                for report in run_iteration(cfg, secret):
                    assert abs(report.fidelity - 1.0) < 1e-12
