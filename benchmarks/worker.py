"""One workload in one fresh process: set-up, then timed passes.

Started by ``run.py``; not meant to be run by hand. Prints one JSON object
as its last stdout line. ``--phase setup`` stops after set-up, so that
``run.py`` can time set-up in several fresh processes.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before qss_sim is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


# The CPU speed of a shared machine drifts by a third over minutes and
# changes within a pass; raw pass times follow it. So a pass is sampled by
# short fixed probes of two kinds, an interpreter loop and a BLAS product:
# one of each before and after the pass, and during it one every
# SAMPLE_INTERVAL_S, the kinds taking turns, run from a SIGALRM handler.
# The time the in-pass probes take is taken out of the pass time. The
# pass's speed-normalised time is that time times reference / the median
# reading of the workload's probe kind (``probe`` of its class); the
# readings of both kinds are kept, so a result can be re-normalised by the
# other. The references are typical readings on the machine of
# baseline.json.
PYTHON_TICK_REF_S = 0.0009
BLAS_TICK_REF_S = 0.0019
SAMPLE_INTERVAL_S = 0.1
# Set-up is normalised by a longer python probe run right after it.
PYTHON_PROBE_REF_S = 0.0035
# Pass index of the traced run's counting pass; later traced passes time.
COUNTING_PASS = 1


def python_probe() -> float:
    """Best of three runs of a fixed interpreter-bound loop, in seconds."""
    best = math.inf
    for _ in range(3):
        best = min(best, python_tick(40_000))
    return best


def python_tick(n: int = 10_000) -> float:
    """Seconds for a fixed interpreter-bound loop."""
    start = time.perf_counter()
    total = 0
    for i in range(n):
        total += i * i % 7
    return time.perf_counter() - start


_BLAS_OPERAND = []


def blas_tick() -> float:
    """Seconds for one 256x256 complex matrix product on the BLAS threads."""
    if not _BLAS_OPERAND:
        import numpy as np

        _BLAS_OPERAND.append(np.full((256, 256), (0.5 + 0.5j) / 256))
    a = _BLAS_OPERAND[0]
    start = time.perf_counter()
    a @ a
    return time.perf_counter() - start


TICKS = {"python": (python_tick, PYTHON_TICK_REF_S), "blas": (blas_tick, BLAS_TICK_REF_S)}


class SpeedSampler:
    """Probe readings of one pass, and the seconds the in-pass ones took."""

    def __init__(self) -> None:
        self.readings: dict[str, list[float]] = {kind: [] for kind in TICKS}
        self.in_pass_s = 0.0
        self._turn = 0

    def tick_all(self) -> None:
        for kind, (tick, _) in TICKS.items():
            self.readings[kind].append(tick())

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        kind = list(TICKS)[self._turn % len(TICKS)]
        self._turn += 1
        self.readings[kind].append(TICKS[kind][0]())
        self.in_pass_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median(self, kind: str) -> float:
        return statistics.median(self.readings[kind])


def run_pass(workload, index: int, sampler: SpeedSampler | None) -> tuple[float, workloads.PassResult]:
    """Time one pass, then check its output outside the timed region.

    With a ``sampler`` the in-pass probes run, and their time is not
    counted.
    """
    error = None
    if sampler is not None:
        sampler.start()
    start = time.perf_counter()
    try:
        output = workload.execute(index)
    except Exception:  # a crashing op is a failed op, and the run goes on
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        traceback.print_exc(file=sys.stderr)
    finally:
        if sampler is not None:
            sampler.stop()
        elapsed = time.perf_counter() - start
    if sampler is not None:
        elapsed -= sampler.in_pass_s
    if error is not None:
        result = workloads.PassResult(attempted=workload.ops_per_pass)
        result.fail(workload.ops_per_pass, error)
        return elapsed, result
    return elapsed, workload.check(output)


def measure(workload, seconds: float, trace: bool) -> dict:
    """Timed passes until ``seconds`` have gone by.

    With ``trace`` the passes alternate untraced and traced, at least two
    of each, so the tracing overhead is measured in the same process; the
    two passes of a pair get the same input. The first traced pass is a
    counting pass, the others are timing passes (see ``tracer.py``).
    Traced passes run without in-pass probes.
    """
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    SpeedSampler().tick_all()
    reference = TICKS[workload.probe][1]
    plain, normalised, traced, counted, in_pass = [], [], [], [], []
    probes: dict[str, list[float]] = {kind: [] for kind in TICKS}
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    index = 0
    while index < (4 if trace else 1) or time.perf_counter() - start < seconds:
        use_trace = trace and index % 2 == 1
        sampler = SpeedSampler()
        sampler.tick_all()
        if use_trace:
            tracer.current_pass = index
            tracer.install(counting=index == COUNTING_PASS)
        try:
            elapsed, result = run_pass(workload, index // 2 if trace else index,
                                       None if use_trace else sampler)
        finally:
            if use_trace:
                tracer.uninstall()
        sampler.tick_all()
        for kind in TICKS:
            probes[kind].append(sampler.median(kind))
        if use_trace:
            (counted if index == COUNTING_PASS else traced).append(elapsed)
        else:
            plain.append(elapsed)
            in_pass.append(sampler.in_pass_s)
            normalised.append(elapsed * reference / probes[workload.probe][-1])
        attempted += result.attempted
        failed += result.failed
        problems.extend(result.problems[: max(0, 5 - len(problems))])
        index += 1
    out = {
        "samples": plain,
        "normalised_samples": normalised,
        "probe": {"kind": workload.probe,
                  "reference_s": {kind: ref for kind, (_, ref) in TICKS.items()},
                  "samples": probes, "in_pass_s": in_pass},
        "ops": workload.ops_per_pass * len(plain),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        out.update(traced_samples=traced, counting_samples=counted, layers=layers,
                   missing_targets=tracer.missing, spans=tracer.spans)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"), default="measure")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out", help="file the spans of the first timing pass are written to")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / "benchmarks" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, args.seed, args.smoke, workdir, ROOT)
        workload.setup()
        raw_setup_s = time.perf_counter() - T0
        import qss_sim

        package = Path(qss_sim.__file__).resolve()
        if ROOT / "src" not in package.parents:
            raise RuntimeError(f"imported qss_sim from {package}, not from {ROOT / 'src'}")
        # Set-up is interpreter-bound (imports, parsing, small warm-ups), so
        # it is normalised by the python probe, run right after it.
        probe = python_probe()
        result = {"raw_setup_s": raw_setup_s, "setup_probe_s": probe,
                  "setup_s": raw_setup_s * PYTHON_PROBE_REF_S / probe}
        if args.phase == "measure":
            result.update(measure(workload, args.seconds, bool(args.trace)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spans = result.pop("spans", None)
    if spans is not None and args.spans_out:
        with open(args.spans_out, "w") as fh:
            fh.write("# pass,index,parent,layer,start_s,end_s\n")
            first = min((record[4] for record in spans if record[4] != COUNTING_PASS), default=None)
            for i, (layer, parent, start, end, pass_index) in enumerate(spans):
                if pass_index == first:
                    fh.write(f"{pass_index},{i},{parent},{layer},{start - T0:.9f},{end - T0:.9f}\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
