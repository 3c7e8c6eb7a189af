"""qss-sim benchmark entry point.

    python3 benchmarks/run.py                       # every workload, one after another
    python3 benchmarks/run.py --workload run_8q --seed 3 --seconds 25 --trace 0
    python3 benchmarks/run.py --smoke               # tiny sizes, finishes in seconds

Each workload runs in fresh child processes of this script, one at a time:
several that only set up, then one that sets up and measures; the median
of their speed-normalised set-up times is ``setup_s``. With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics. Every run
also writes a result file with the machine record to
``benchmarks/results/``. See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "norm_wall_s": "s",
    "norm_ops_per_s": "1/s",
    "setup_s": "s",
    "raw_setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
# The metrics BENCHMARK.json bounds, which make the last stdout line. Raw
# wall_s, ops_per_s and raw_setup_s follow this machine's CPU speed, which
# swings by a third over minutes; their speed-normalised forms are the gated
# ones (set-up's under the name setup_s, which BENCHMARK.json requires).
# failed_frac reads 0 on a correct build and reaches the last line as
# "failed" / "attempted".
GATED_METRICS = ("norm_wall_s", "norm_ops_per_s", "setup_s", "peak_rss_mb")
SETUP_REPEATS = 9
WORKLOAD_DEADLINE_S = 170.0


def blas_record() -> dict:
    """BLAS library and the thread count it will use in this environment."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        library = "unknown"
    requested = [int(os.environ[v]) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                 if os.environ.get(v, "").isdigit()]
    return {"library": library, "threads": _openblas_threads(),
            "requested": max(requested) if requested else None}


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS this process has loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
    }


def run_child(workload: str, args, phase: str, deadline: float, spans_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--phase", phase]
    if args.smoke:
        cmd.append("--smoke")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {phase} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest of the usual percentiles with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return {"percentile": p, "value": ordered[max(0, math.ceil(p / 100.0 * n) - 1)]}
    return None


def run_workload(workload: str, args) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = [run_child(workload, args, "setup", deadline) for _ in range(repeats - 1)]
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    spans_out = results_dir / f"{stem}.spans.csv" if args.trace else None
    child = run_child(workload, args, "measure", deadline, spans_out)
    setups.append(child)

    samples, normalised = child["samples"], child["normalised_samples"]
    end_to_end = {
        "wall_s": statistics.median(samples),
        "ops_per_s": child["ops"] / sum(samples),
        "norm_wall_s": statistics.median(normalised),
        "norm_ops_per_s": child["ops"] / sum(normalised),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "peak_rss_mb": child["peak_rss_mb"],
        "failed_frac": child["failed"] / child["attempted"],
    }
    summary = {
        "workload": workload,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "problems": child["problems"],
        "end_to_end": end_to_end,
        "wall_s_samples": samples,
        "wall_s_tail": tail_percentile(samples),
        "norm_wall_s_samples": normalised,
        "probe": child["probe"],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "raw_setup_s_samples": [s["raw_setup_s"] for s in setups],
        "setup_probe_samples": [s["setup_probe_s"] for s in setups],
    }
    if args.trace:
        summary.update(layers=child["layers"], traced_samples=child["traced_samples"],
                       counting_samples=child["counting_samples"],
                       missing_targets=child["missing_targets"])
    summary["machine"] = args.machine
    (results_dir / f"{stem}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def metric_lines(summary: dict, trace: bool) -> list[str]:
    name = summary["workload"]
    lines = [f"{name}: {summary['attempted']} ops attempted, {summary['failed']} failed"]
    for metric, value in summary["end_to_end"].items():
        lines.append(f"  {metric:<36} {value:>14.6g} {END_TO_END_UNITS[metric]}")
    tail = summary["wall_s_tail"]
    lines.append(f"  tail of {len(summary['wall_s_samples'])} passes: " + (
        f"p{tail['percentile']:g} = {tail['value']:.6g} s" if tail
        else "none below 20 passes"))
    if trace:
        for metric, value in summary["layers"].items():
            lines.append(f"  {metric:<36} {value:>14.6g} {LAYER_METRICS[metric]}")
    for problem in summary["problems"]:
        lines.append(f"  problem: {problem}")
    return lines


def last_line(summaries: list[dict], trace: bool, prefix: bool) -> dict:
    metrics = {}
    for s in summaries:
        if trace:
            values = {m: (v, LAYER_METRICS[m]) for m, v in s["layers"].items()}
        else:
            values = {m: (s["end_to_end"][m], END_TO_END_UNITS[m]) for m in GATED_METRICS}
        for metric, (value, unit) in values.items():
            key = f"{s['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit}
    failed = sum(s["failed"] for s in summaries)
    return {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qss-sim benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one pass per workload, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0

    if not (ROOT / "src" / "qss_sim" / "__init__.py").is_file():
        print(f"error: no qss_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.machine = machine_record(args.seed)
    blas, nproc = args.machine["blas"], args.machine["nproc"]
    threads = max(n for n in (blas["threads"], blas["requested"], 0) if n is not None)
    if threads > nproc:
        print(f"error: BLAS would use {threads} threads on {nproc} CPUs;"
              f" set OPENBLAS_NUM_THREADS={nproc}", file=sys.stderr)
        return 3

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args))
            print("\n".join(metric_lines(summaries[-1], bool(args.trace))), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(last_line(summaries, bool(args.trace), prefix=len(names) > 1)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
