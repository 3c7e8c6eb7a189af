"""The benchmark's own tests: output checks, negative controls, smoke runs.

    python3 -m pytest benchmarks
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from run import END_TO_END_UNITS, GATED_METRICS
from tracer import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, env=env)


# -- negative controls: a corrupted output must count as a failed op --------


def test_corrupted_csv_row_is_one_failed_op(tmp_path):
    figures = workloads.Figures(0, False, tmp_path, ROOT / "sweepspecs")
    outputs = []
    for name in workloads.FIGURE_SPECS:
        path = tmp_path / f"{name}.csv"
        text = (workloads.REFERENCE_DIR / f"{name}.csv").read_text()
        if name == "fig3":
            lines = text.splitlines(keepends=True)
            lines[7] = lines[7].replace(",0.", ",0.1", 1)
            text = "".join(lines)
        path.write_text(text)
        outputs.append((name, 0, "", path))
    result = figures.check(outputs)
    assert (result.attempted, result.failed) == (1866, 1)
    assert "fig3: row 7" in result.problems[0]


def test_wrong_csv_header_fails_every_point_of_that_file():
    reference = (workloads.REFERENCE_DIR / "fig1.csv").read_text()
    assert workloads.compare_csv(reference.replace("avg_f_pd", "avg"), reference)[:2] == (101, 101)
    assert workloads.compare_csv(reference.replace("\n", "\r\n"), reference)[:2] == (101, 101)
    assert workloads.compare_csv(reference, reference) == (101, 0, None)


def test_run_report_differing_from_reference_fails(tmp_path):
    run = workloads.RunEightQubits(workloads.DEFAULT_SEED, False, tmp_path)
    reference = run.reference
    assert run.check((0, reference, "")).failed == 0
    corrupted = reference.replace('"probability": 0.', '"probability": 0.1', 1)
    assert run.check((0, corrupted, "")).failed == 1
    assert run.check((4, "", "error")).failed == 1


def test_run_report_invariants_catch_a_changed_probability():
    inputs = workloads.run_inputs(0, 7)
    reference = (workloads.REFERENCE_DIR / "run_8q_seed0.json").read_text()
    assert workloads.check_run_report(reference, inputs) == []
    report = json.loads(reference)
    report["iterations"][1]["branches"][3]["probability"] += 1e-6
    problems = workloads.check_run_report(json.dumps(report), inputs)
    assert any("success probability" in p for p in problems)
    other = workloads.run_inputs(1, 7)
    assert any("config echo" in p for p in workloads.check_run_report(reference, other))


def test_failing_validate_suite_fails_its_points():
    reference = json.loads((workloads.REFERENCE_DIR / "validate.json").read_text())["coarse"]
    rows = [f"{'suite':<55} {'points':>7} {'max residual':>14} {'tolerance':>10}  status", "-" * 100]
    for name, points, status in reference:
        if name.startswith("f_ad vs"):
            status = "FAIL"
        rows.append(f"{name:<55} {points:>7} {1e-16:>14.3e} {1e-12:>10.0e}  {status}")
    result = workloads.check_validate(0, "\n".join(rows), reference)
    assert (result.attempted, result.failed) == (982, 72)
    assert workloads.check_validate(1, "", reference).failed == 982


def test_search_beating_the_table_fails():
    assert workloads.check_correction(0.9, 0.9 + 5e-7) is None
    assert "beat the table" in workloads.check_correction(0.9, 0.91)
    assert workloads.check_correction(float("nan"), 0.9) is not None


def test_inputs_come_from_the_seed():
    assert workloads.run_inputs(5, 7) == workloads.run_inputs(5, 7)
    assert workloads.run_inputs(5, 7) != workloads.run_inputs(6, 7)
    assert workloads.correction_case(5, 2) == workloads.correction_case(5, 2)
    assert workloads.correction_case(5, 2) != workloads.correction_case(6, 2)


def _trace_avg_f_opt0(counting):
    sys.path.insert(0, str(ROOT / "src"))
    from qss_sim import analysis
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(counting=counting)
    try:
        analysis.avg_f_opt0(0.5, 0.3)
    finally:
        tracer.uninstall()
    assert not hasattr(analysis.avg_f_opt0, "__wrapped__")
    assert not hasattr(analysis.f0_ww, "__wrapped__")
    assert [layer for layer, *_ in tracer.spans].count("analysis.formula") == 1
    return tracer


def test_nested_closed_forms_are_counted_on_a_counting_pass():
    metrics = _trace_avg_f_opt0(counting=True).layer_metrics()
    evals = metrics["quadrature.integrand_evals"]
    assert evals > 0
    assert metrics["analysis.r_opt.calls"] == evals
    assert metrics["analysis.formula.calls"] == 1 + 2 * evals
    assert metrics["analysis.formula.self_s"] == 0.0


def test_nested_closed_forms_are_unwrapped_on_a_timing_pass():
    tracer = _trace_avg_f_opt0(counting=False)
    assert not tracer.counts
    metrics = tracer.layer_metrics()
    assert metrics["analysis.formula.calls"] == 0.0
    assert metrics["analysis.formula.self_s"] > 0.0 and metrics["quadrature.self_s"] > 0.0


# -- smoke runs ---------------------------------------------------------------

# Layers that must record work in a traced smoke run of each workload.
EXPECTED_NONZERO = {
    "run_8q": ["linalg.density_ctor.calls", "linalg.embed.calls", "channels.kraus_apply.calls",
               "channels.weak_op.calls", "protocol.iteration.calls", "protocol.branches",
               "protocol.advance.self_s", "protocol.reset_combos", "protocol.recycled_states",
               "cli.report.self_s", "config.parse.self_s"],
    "figures": ["analysis.formula.calls", "sweeps.points", "sweeps.point.self_s",
                "sweeps.write.self_s", "cli.report.self_s", "config.parse.self_s"],
    "validate_fine": ["linalg.density_ctor.calls", "protocol.iteration.calls",
                      "analysis.formula.calls", "analysis.r_opt.calls",
                      "quadrature.integrand_evals", "quadrature.panels",
                      "optimize.golden_evals", "optimize.maximize_scalar.self_s",
                      "validate.suites", "validate.grid_points", "validate.suite.self_s"],
    "correction_search": ["protocol.iteration.calls", "optimize.objective_build.self_s",
                          "optimize.search.self_s", "optimize.unitaries_scored",
                          "optimize.golden_evals"],
}


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(trace):
    proc = _bench("--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    table = "\n".join(lines[:-1])
    names = LAYER_METRICS if trace else GATED_METRICS
    units = LAYER_METRICS if trace else END_TO_END_UNITS
    for workload in workloads.WORKLOADS:
        assert f"{workload}:" in table
        for metric in names:
            entry = result["metrics"][f"{workload}.{metric}"]
            assert entry["unit"] == units[metric]
            assert isinstance(entry["value"], float | int)
    rows = [line.split() for line in table.splitlines() if line.startswith("  ")]
    for metric, unit in END_TO_END_UNITS.items():
        printed = [row for row in rows if row[0] == metric]
        assert len(printed) == len(workloads.WORKLOADS)
        assert all(len(row) == 3 and row[2] == unit for row in printed)
    if trace:
        for workload, metrics in EXPECTED_NONZERO.items():
            for metric in metrics:
                assert result["metrics"][f"{workload}.{metric}"]["value"] > 0, (workload, metric)


def test_refuses_more_blas_threads_than_cpus():
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(len(os.sched_getaffinity(0)) + 1))
    proc = _bench("--smoke", "--workload", "run_8q", env=env)
    assert proc.returncode == 3 and proc.stdout == ""


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _bench("--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, END_TO_END_UNITS[name]) for name in GATED_METRICS
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
