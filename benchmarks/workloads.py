"""The four benchmark workloads: input generation, set-up, one timed pass,
and the check of that pass's output.

Nothing here imports ``qss_sim`` at module level: importing the package is
part of each workload's measured set-up, and the checks are importable
without it. Calls into the package go through module attributes looked up
at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
DEFAULT_SEED = 0
FIGURE_SPECS = ("fig1", "fig2", "fig3", "fig4", "fig5")

# Tolerances of the run_8q invariant checks. The report rounds every float
# to 12 significant digits, so sums over up to 256 branches carry ~1e-10.
SUM_ATOL = 1e-9
CHANNEL_COMPLETENESS_ATOL = 1e-12
STATE_TRACE_ATOL = 1e-10
# Acceptance criterion 10: the search may not beat the Pauli table.
CRITERION_10_ATOL = 1e-6


@dataclass
class PassResult:
    """Ops attempted and failed in one pass, with the first problems seen."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(problem)


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``qss-sim`` in-process, returning exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- run_8q -----------------------------------------------------------------


def run_inputs(seed: int, parties: int) -> dict:
    """Protocol run config drawn from the seed; ranges avoid the
    strength-1 edges, where post-selection can extinguish every branch."""
    rng = random.Random(f"run_8q/{seed}")

    def draw(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 6)

    return {
        "parties": parties,
        "iterations": 2,
        "secrets": [draw(0.0, 1.0), draw(0.0, 1.0)],
        "channel": "adc",
        "strength": draw(0.05, 0.95),
        "wmrqm_s": draw(0.05, 0.6),
        "wmrqm_r": draw(0.05, 0.6),
        "return_channel": "adc",
        "return_strength": draw(0.05, 0.95),
    }


def config_text(inputs: dict) -> str:
    lines = []
    for key, value in inputs.items():
        if isinstance(value, list):
            value = ", ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


_CORRECTIONS = {(0, 0): "I", (0, 1): "Z", (1, 0): "X", (1, 1): "-iY"}


def check_run_report(text: str, inputs: dict) -> list[str]:
    """Invariants the ``run`` report carries; returns the problems found."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = []
    config = report.get("config", {})
    expected_config = {
        "parties": inputs["parties"],
        "iterations": inputs["iterations"],
        "secrets_k": inputs["secrets"],
        "channel": {"kind": inputs["channel"], "strength": inputs["strength"]},
        "wmrqm": {"s": inputs["wmrqm_s"], "r": inputs["wmrqm_r"]},
        "return_channel": {"kind": inputs["return_channel"], "strength": inputs["return_strength"]},
    }
    if config != expected_config:
        problems.append(f"config echo {config} != {expected_config}")
    iterations = report.get("iterations", [])
    if len(iterations) != inputs["iterations"]:
        problems.append(f"{len(iterations)} iterations reported")
    n = inputs["parties"]
    for it in iterations:
        branches = it.get("branches", [])
        where = f"iteration {it.get('index')}"
        if len(branches) != 2**n:
            problems.append(f"{where}: {len(branches)} branches, expected {2**n}")
        total = weighted = 0.0
        for b in branches:
            p, f = b["probability"], b["fidelity"]
            parity = sum(c == "-" for c in b["collaborators"]) % 2
            if len(b["collaborators"]) != n - 1 or b["alice"] not in (0, 1):
                problems.append(f"{where}: malformed outcomes {b}")
            elif b["correction"] != _CORRECTIONS[(b["alice"], parity)]:
                problems.append(f"{where}: correction {b['correction']} for {b}")
            if not p >= 0.0:
                problems.append(f"{where}: negative probability {p}")
            if f is None:
                if p != 0.0:
                    problems.append(f"{where}: no state for branch of probability {p}")
                continue
            if not -SUM_ATOL <= f <= 1.0 + SUM_ATOL:
                problems.append(f"{where}: fidelity {f} outside [0, 1]")
            total += p
            weighted += p * f
        sp, agg = it.get("success_probability"), it.get("aggregate_fidelity")
        if not (isinstance(sp, float) and 0.0 < sp <= 1.0 + SUM_ATOL and abs(total - sp) <= SUM_ATOL):
            problems.append(f"{where}: success probability {sp} vs branch sum {total}")
        elif not (isinstance(agg, float) and abs(weighted / total - agg) <= SUM_ATOL):
            problems.append(f"{where}: aggregate fidelity {agg} vs {weighted / total}")
    residuals = report.get("validation_residuals", {})
    if not residuals.get("channel_completeness", 1.0) <= CHANNEL_COMPLETENESS_ATOL:
        problems.append(f"channel completeness residual {residuals.get('channel_completeness')}")
    if not residuals.get("reconstructed_state_trace", 1.0) <= STATE_TRACE_ATOL:
        problems.append(f"state trace residual {residuals.get('reconstructed_state_trace')}")
    return problems


class RunEightQubits:
    """``qss-sim run`` at parties=7 (8 qubits), two iterations, adc noise,
    weak-measurement protection and a noisy return trip. Op = one run."""

    name = "run_8q"
    probe = "blas"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.inputs = run_inputs(seed, parties=3 if smoke else 7)
        self.config_path = workdir / "run.cfg"
        reference = REFERENCE_DIR / "run_8q_seed0.json"
        self.reference = (
            reference.read_text() if seed == DEFAULT_SEED and not smoke else None
        )
        self.first_output: str | None = None
        self.ops_per_pass = 1

    def setup(self) -> None:
        import numpy as np
        from qss_sim import cli, config

        text = config_text(self.inputs)
        self.config_path.write_text(text)
        config.run_config_from_text(text)
        # Warm-up: every code path once at 3 qubits, then BLAS and LAPACK
        # at the full register size.
        warm = self.config_path.with_name("warm.cfg")
        warm.write_text(config_text(dict(self.inputs, parties=2)))
        code, _, err = call_cli(cli, ["run", "--config", str(warm)])
        if code != 0:
            raise RuntimeError(f"warm-up run failed with exit code {code}: {err}")
        dim = 2 ** (self.inputs["parties"] + 1)
        eye = np.eye(dim, dtype=complex)
        np.linalg.eigvalsh(eye @ eye)

    def execute(self, index: int):
        from qss_sim import cli

        return call_cli(cli, ["run", "--config", str(self.config_path)])

    def check(self, output) -> PassResult:
        code, stdout, stderr = output
        result = PassResult(attempted=1)
        if code != 0:
            result.fail(1, f"exit code {code}: {stderr.strip()[:200]}")
        elif self.reference is not None:
            if stdout != self.reference:
                result.fail(1, "stdout differs from the committed seed-0 reference")
        else:
            problems = check_run_report(stdout, self.inputs)
            if self.first_output is not None and stdout != self.first_output:
                problems.append("stdout differs from the first pass of this run")
            if problems:
                result.fail(1, "; ".join(problems[:3]))
        if self.first_output is None and code == 0:
            self.first_output = stdout
        return result


# -- figures ----------------------------------------------------------------


def compare_csv(text: str, reference: str) -> tuple[int, int, str | None]:
    """Row-by-row comparison of a sweep CSV with its reference.

    Returns (grid points, mismatched grid points, first problem). A wrong
    header or warnings line fails every point of the file.
    """
    want = reference.splitlines()
    got = text.splitlines()
    points = len(want) - 2
    if "\r" in text or not text.endswith("\n") or len(got) < 2 or got[0] != want[0] or got[-1] != want[-1]:
        return points, points, "header, warnings line or line ending differs"
    bad = sum(1 for g, w in zip(got[1:-1], want[1:-1]) if g != w)
    bad += abs(len(got) - len(want))
    first = next(
        (f"row {i}: {g!r} != {w!r}" for i, (g, w) in enumerate(zip(got[1:-1], want[1:-1]), 1) if g != w),
        None if bad == 0 else "row count differs",
    )
    return points, min(bad, points), first


class Figures:
    """The five committed ``sweepspecs/fig*.spec`` through ``qss-sim sweep``
    with one worker. Fixed inputs, no seed. Op = one CSV grid point."""

    name = "figures"
    probe = "python"

    def __init__(self, seed: int, smoke: bool, workdir: Path, spec_dir: Path):
        names = FIGURE_SPECS[:1] if smoke else FIGURE_SPECS
        self.specs = [(n, spec_dir / f"{n}.spec", workdir / f"{n}.csv") for n in names]
        self.references = {n: (REFERENCE_DIR / f"{n}.csv").read_text() for n in names}
        self.ops_per_pass = sum(len(r.splitlines()) - 2 for r in self.references.values())

    def setup(self) -> None:
        from qss_sim import config, sweeps

        for _, spec_path, _ in self.specs:
            spec = config.sweep_spec_from_text(spec_path.read_text())
            # Warm-up: every quantity of the spec on a 2-point-per-axis grid.
            small = config.SweepSpec(
                quantities=spec.quantities,
                axes=tuple((n, lo, hi, 2) for n, lo, hi, _ in spec.axes),
                fixed=spec.fixed,
            )
            sweeps.run_sweep(small)

    def execute(self, index: int):
        from qss_sim import cli

        outputs = []
        for name, spec_path, out_path in self.specs:
            code, _, err = call_cli(cli, ["sweep", "--spec", str(spec_path), "--out", str(out_path)])
            outputs.append((name, code, err, out_path))
        return outputs

    def check(self, output) -> PassResult:
        result = PassResult(attempted=self.ops_per_pass)
        for name, code, err, out_path in output:
            reference = self.references[name]
            if code != 0 or not out_path.exists():
                result.fail(len(reference.splitlines()) - 2, f"{name}: exit code {code}: {err.strip()[:200]}")
                continue
            _, bad, problem = compare_csv(out_path.read_text(), reference)
            if bad:
                result.fail(bad, f"{name}: {problem}")
            out_path.unlink()
        return result


# -- validate_fine ----------------------------------------------------------


def parse_validate_table(text: str) -> list[tuple[str, int, str]]:
    """(suite, points, status) rows of the ``validate`` residual table."""
    rows = []
    lines = text.splitlines()
    for line in lines[2:]:
        if not line or line.startswith(" "):
            continue
        fields = line[55:].split()
        if len(fields) != 4:
            raise ValueError(f"unexpected validate table row {line!r}")
        rows.append((line[:55].rstrip(), int(fields[0]), fields[3]))
    return rows


def check_validate(code: int, stdout: str, reference: list) -> PassResult:
    """Exit code, then each suite's status and point count; the residual
    column is roundoff and is not compared."""
    want = [tuple(row) for row in reference]
    result = PassResult(attempted=sum(points for _, points, _ in want))
    if code != 0:
        result.fail(result.attempted, f"exit code {code}")
        return result
    try:
        got = parse_validate_table(stdout)
    except ValueError as exc:
        result.fail(result.attempted, str(exc))
        return result
    got_by_name = {name: (points, status) for name, points, status in got}
    for name, points, status in want:
        if got_by_name.get(name) != (points, status):
            result.fail(points, f"{name}: got {got_by_name.get(name)}, want {(points, status)}")
    return result


class ValidateFine:
    """``qss-sim validate --grid fine``. Fixed inputs, no seed.
    Op = one validation grid point."""

    name = "validate_fine"
    probe = "python"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.grid = "coarse" if smoke else "fine"
        self.reference = json.loads((REFERENCE_DIR / "validate.json").read_text())[self.grid]
        self.ops_per_pass = sum(points for _, points, _ in self.reference)

    def setup(self) -> None:
        from qss_sim import analysis, optimize, quadrature
        from qss_sim.protocol import NoiseSpec, ProtocolConfig, Secret, Wmrqm, run_iteration

        for n in (21, 64):
            quadrature.gauss_legendre(lambda k: k, 0.0, 1.0, n=n)
        secret = Secret.from_k(0.5)
        cfg = ProtocolConfig(parties=2, secrets=(secret,), channel=NoiseSpec("adc", 0.5),
                             wmrqm=Wmrqm(0.3, 0.4))
        run_iteration(cfg, secret)
        optimize.maximize_scalar(optimize.ScalarObjective(lambda r: -(r - 0.3) ** 2, 0.0, 1.0))
        analysis.avg_f_opt0(0.5, 0.3)

    def execute(self, index: int):
        from qss_sim import cli

        return call_cli(cli, ["validate", "--grid", self.grid])

    def check(self, output) -> PassResult:
        code, stdout, _ = output
        return check_validate(code, stdout, self.reference)


# -- correction_search ------------------------------------------------------


def correction_case(seed: int, index: int) -> dict:
    """Case ``index`` of the seed's stream from acceptance criterion 10's
    parameter space. Strengths avoid 0 and 1, where a branch can vanish."""
    rng = random.Random(f"correction_search/{seed}/{index}")
    return {
        "kind": rng.choice(("pdc", "adc")),
        "strength": round(rng.uniform(0.05, 0.95), 6),
        "protected": rng.random() < 0.5,
        "alice": rng.choice((0, 1)),
        "collaborator": rng.choice("+-"),
    }


def check_correction(table: float, search: float) -> str | None:
    if not (math.isfinite(table) and math.isfinite(search)):
        return f"non-finite value: table {table}, search {search}"
    if search > table + CRITERION_10_ATOL:
        return f"search {search} beat the table {table}"
    return None


class CorrectionSearch:
    """Criterion-10 branch cases: ``correction_objective(nodes=33)`` then
    ``optimize_correction(restarts=8, sweeps=4)``. Op = one case."""

    name = "correction_search"
    probe = "python"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.nodes = 5 if smoke else 33
        self.ops_per_pass = 1

    def setup(self) -> None:
        from qss_sim import optimize, quadrature
        from qss_sim.protocol import NoiseSpec

        quadrature.gauss_legendre(lambda k: k, 0.0, 1.0, n=self.nodes)
        obj = optimize.correction_objective(0, ["+"], channel=NoiseSpec("adc", 0.5), nodes=2, phases=5)
        optimize.optimize_correction(obj, restarts=1, grid=4, sweeps=1)

    def execute(self, index: int):
        from qss_sim import optimize, protocol

        case = correction_case(self.seed, index)
        channel = protocol.NoiseSpec(case["kind"], case["strength"])
        wmrqm = protocol.Wmrqm(0.3, 0.4) if case["protected"] else None
        outcomes = [case["collaborator"]]
        obj = optimize.correction_objective(
            case["alice"], outcomes, channel=channel, wmrqm=wmrqm, nodes=self.nodes
        )
        table = obj.value(protocol.correction(case["alice"], outcomes))
        found = optimize.optimize_correction(obj, restarts=8, sweeps=4)
        return case, table, found.value

    def check(self, output) -> PassResult:
        case, table, search = output
        result = PassResult(attempted=1)
        problem = check_correction(table, search)
        if problem:
            result.fail(1, f"{case}: {problem}")
        return result


WORKLOADS = ("run_8q", "figures", "validate_fine", "correction_search")


def make(name: str, seed: int, smoke: bool, workdir: Path, root: Path):
    if name == "run_8q":
        return RunEightQubits(seed, smoke, workdir)
    if name == "figures":
        return Figures(seed, smoke, workdir, root / "sweepspecs")
    if name == "validate_fine":
        return ValidateFine(seed, smoke, workdir)
    if name == "correction_search":
        return CorrectionSearch(seed, smoke, workdir)
    raise ValueError(f"unknown workload {name!r}")
