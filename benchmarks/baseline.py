"""Record a baseline: every workload over seeds 1-10, one traced run each,
and the ``run_iteration`` cost by register size.

    python3 benchmarks/baseline.py --label <commit> [--out benchmarks/baseline.json]

Each run lasts ``run_seconds`` of ``BENCHMARK.json``. Each end-to-end
metric is summarised by its median and quartiles over the seeds (Python's
``statistics.quantiles(values, n=4)``) and by the spread, the distance
between the quartiles as a share of the median; the same rule a regression
check applies. For each workload and each speed probe the baseline also
records how well the probe tracks the raw pass times: their correlation
over every pass, and the spread ``norm_wall_s`` would have if normalised
by that probe.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import machine_record  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SCALING_PARTIES = (2, 3, 4, 5, 6, 7)
SCALING_REPEATS = 5


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; returns its result file, which holds every metric."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.DEVNULL, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with code {proc.returncode}")
    return read_result(workload, seed, trace)


def read_result(workload: str, seed: int, trace: int) -> dict:
    summary = json.loads((BENCH_DIR / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    if summary["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {summary['failed']} failed ops")
    return summary


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def probe_fit(results: list[dict]) -> dict:
    """How well each probe tracks the raw pass times of one workload's runs."""
    walls = [w for r in results for w in r["wall_s_samples"]]
    fit = {"chosen": results[0]["probe"]["kind"]}
    for kind, reference in results[0]["probe"]["reference_s"].items():
        readings = [p for r in results for p in r["probe"]["samples"][kind]]
        per_run = [
            statistics.median(w * reference / p for w, p in zip(r["wall_s_samples"],
                                                                r["probe"]["samples"][kind]))
            for r in results
        ]
        fit[kind] = {"correlation": statistics.correlation(walls, readings),
                     "norm_wall_s_spread": summarise(per_run)["spread"]}
    return fit


def scaling() -> dict:
    """Median seconds of one protected adc ``run_iteration`` per party count."""
    sys.path.insert(0, str(ROOT / "src"))
    from qss_sim.protocol import NoiseSpec, ProtocolConfig, Secret, Wmrqm, run_iteration

    out = {}
    for parties in SCALING_PARTIES:
        secret = Secret.from_k(0.3)
        cfg = ProtocolConfig(parties=parties, secrets=(secret,), channel=NoiseSpec("adc", 0.4),
                             wmrqm=Wmrqm(0.2, 0.3))
        run_iteration(cfg, secret)
        times = []
        for _ in range(SCALING_REPEATS):
            start = time.perf_counter()
            run_iteration(cfg, secret)
            times.append(time.perf_counter() - start)
        out[str(parties)] = summarise(times)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="commit the baseline was measured at")
    parser.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    args = parser.parse_args()

    baseline = {"label": args.label, "machine": machine_record(SEEDS[0]), "run_seconds": RUN_SECONDS,
                "seeds": list(SEEDS), "end_to_end": {}, "probe_fit": {}, "per_layer": {}}
    for workload in WORKLOADS:
        results = [run_once(workload, seed, 0) for seed in SEEDS]
        values: dict[str, list[float]] = {}
        for result in results:
            for metric, value in result["end_to_end"].items():
                values.setdefault(metric, []).append(value)
        baseline["end_to_end"][workload] = {m: summarise(v) for m, v in values.items()}
        baseline["probe_fit"][workload] = probe_fit(results)
        print(workload, {m: round(s["spread"], 4) for m, s in baseline["end_to_end"][workload].items()},
              baseline["probe_fit"][workload], flush=True)
        baseline["per_layer"][workload] = run_once(workload, SEEDS[0], 1)["layers"]
    baseline["run_iteration_scaling_s"] = scaling()
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
