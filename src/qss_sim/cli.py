"""Command-line driver.

Three subcommands:

* ``run --config <path>``: execute a configured protocol (all iterations,
  recycling included) and print a JSON report to stdout;
* ``sweep --spec <path> --out <path>``: evaluate quantities on a parameter
  grid, point after point, and write deterministic CSV;
* ``validate [--grid coarse|fine]``: cross-validate every closed form
  against the brute-force simulator and print a residual table.

Exit codes: 0 success, 1 validation-suite failure, 2 unreadable
config/spec, unwritable output or parse error, 3 config/spec validation
error, 4 numeric domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Sequence

from . import validate as validate_mod
from .analysis import DomainError
from .channels import validate_cptp
from .config import (
    ConfigError,
    ConfigValidationError,
    run_config_from_text,
    sweep_spec_from_text,
)
from .protocol import (
    IterationReport,
    ProtocolConfig,
    aggregate_fidelity,
    run_protocol,
    success_probability,
)
from .sweeps import run_sweep, write_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DOMAIN = 4


def _round_floats(obj: Any) -> Any:
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


def _config_echo(cfg: ProtocolConfig) -> dict[str, Any]:
    def noise(spec) -> Any:
        if spec is None:
            return None
        return {"kind": spec.kind, "strength": spec.strength}

    channel: Any
    if isinstance(cfg.channel, tuple):
        channel = [noise(s) for s in cfg.channel]
    else:
        channel = noise(cfg.channel)
    return {
        "parties": cfg.parties,
        "iterations": cfg.iterations,
        "secrets_k": [s.k for s in cfg.secrets],
        "channel": channel,
        "wmrqm": None if cfg.wmrqm is None else {"s": cfg.wmrqm.s, "r": cfg.wmrqm.r},
        "return_channel": noise(cfg.return_channel),
    }


def _branch_entry(report: IterationReport) -> dict[str, Any]:
    return {
        "alice": report.alice_outcome,
        "collaborators": list(report.collaborator_outcomes),
        "correction": report.correction_applied,
        "probability": report.branch_probability,
        "fidelity": report.fidelity,
    }


def _run_report(cfg: ProtocolConfig) -> dict[str, Any]:
    iterations = run_protocol(cfg)

    residuals: dict[str, float] = {}
    legs = [cfg.channel_for(i) for i in range(len(cfg.transmitted_qubits))]
    specs = [s for s in legs + [cfg.return_channel] if s is not None]
    if specs:
        residuals["channel_completeness"] = max(validate_cptp(s.channel().operators) for s in specs)
    state_residual = 0.0
    for reports in iterations:
        for r in reports:
            if r.reconstructed_state is not None:
                state_residual = max(state_residual, abs(r.reconstructed_state.trace - 1.0))
    residuals["reconstructed_state_trace"] = state_residual
    if cfg.wmrqm is None:
        # Without post-selection every iteration's branches are exhaustive.
        residuals["branch_probability_sum"] = max(
            abs(success_probability(reports) - 1.0) for reports in iterations
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
            for i, reports in enumerate(iterations)
        ],
        "validation_residuals": residuals,
    }
    return _round_floats(report)


def _load(path: str, what: str, parse: Callable[[str], Any]) -> tuple[Any, int]:
    """Read and parse an input file: ``(parsed, EXIT_OK)``, or ``(None,
    exit code)`` once the reason is on stderr."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {what}: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    try:
        return parse(text), EXIT_OK
    except ConfigValidationError as exc:
        print(f"error: invalid {what}: {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION
    except ConfigError as exc:
        print(f"error: cannot parse {what}: {exc}", file=sys.stderr)
        return None, EXIT_PARSE


def _cmd_run(args: argparse.Namespace) -> int:
    cfg, code = _load(args.config, "config", run_config_from_text)
    if cfg is None:
        return code
    try:
        report = _run_report(cfg)
    except (DomainError, ValueError) as exc:
        # e.g. a configuration whose post-selection extinguishes every branch
        print(f"error: numeric domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec, code = _load(args.spec, "spec", sweep_spec_from_text)
    if spec is None:
        return code
    try:
        header, rows, warnings = run_sweep(spec)
    except ConfigValidationError as exc:
        print(f"error: invalid spec: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DomainError as exc:
        print(f"error: numeric domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        write_csv(args.out, header, rows, warnings)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if warnings:
        print(f"warning: {warnings} out-of-domain grid point(s) wrote nan", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    results = validate_mod.run_all(grid=args.grid)
    print(validate_mod.render_report(results))
    failed = [r for r in results if not r.passed and not r.informational]
    if failed:
        print(f"\n{len(failed)} suite(s) failed", file=sys.stderr)
        return EXIT_SUITE_FAILURE
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qss-sim",
        description="Sequential quantum secret sharing simulator and analytic toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured protocol, print JSON report")
    p_run.add_argument("--config", required=True, help="path to key=value config file")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="evaluate quantities on a grid, write CSV")
    p_sweep.add_argument("--spec", required=True, help="path to key=value sweep spec")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_val = sub.add_parser("validate", help="cross-validate closed forms vs simulator")
    p_val.add_argument("--grid", choices=("coarse", "fine"), default="coarse")
    p_val.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
