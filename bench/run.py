"""levicivita benchmark: runs one workload and prints one JSON result line.

From the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` reports the per-layer metrics: it alternates untraced rounds
with rounds under cProfile and reads the layers from the traced ones.  The
last line of standard output is the JSON result; a summary and any failed
check go to standard error.  See bench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from functools import partial
from pathlib import Path

from layers import METRICS, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "derive", "arith")

#: How often each round repeats the probes of the other workloads.  A
#: certify round is long, so it repeats the small derive and arith probes
#: more often to give their metrics enough samples.
PROBE_REPS = {"certify": 8, "derive": 2, "arith": 2}
SETUP_REPS = 7

#: Timings are rescaled to the speed at which the calibration loop of
#: CALIBRATION_LOOP iterations takes CALIBRATION_REFERENCE_S seconds (about
#: its time on an idle core of the 2.1 GHz Xeon the reference run used).
#: The effective speed of that shared host drifted by up to 2x within a
#: minute, moving the program and the loop alike.
CALIBRATION_LOOP = 6000
CALIBRATION_REFERENCE_S = 0.0018
SAMPLE_INTERVAL_S = 0.1

#: Times ``import levicivita`` in a fresh interpreter, rescaled by that
#: interpreter's own calibration loops (it may run on the other CPU).
IMPORT_TIMER = (
    "import sys; sys.path[:0] = sys.argv[1:]; from run import Speedometer; "
    "meter = Speedometer(); meter.last = meter.calibrate(); "
    "print(meter.time(lambda: __import__('levicivita'))[1])"
)


class Tally:
    """Operations attempted and failed, and the problems the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC), str(Path(__file__).parent)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


class Speedometer:
    """Times operations and rescales them to a reference machine speed.

    The machine's speed is the time of a fixed pure-Python loop, run with
    the collector off so that the objects the program holds cannot change
    its cost.  It is sampled between operations and, from a timer signal,
    every SAMPLE_INTERVAL_S during long ones; the handler's time is taken
    out of the operation's.  Use as a context manager around all timing.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self.busy = False
        self.last = 0.0

    def __enter__(self):
        self.last = self.calibrate()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrate(self) -> float:
        self.busy = True
        gc.disable()
        try:
            t0 = time.perf_counter()
            table, acc = {}, 0
            for i in range(CALIBRATION_LOOP):
                key = (i, i * 3 % 7)
                table[key] = table.get(key, 0) + i
                acc += i * i % 13
            return time.perf_counter() - t0
        finally:
            gc.enable()
            self.busy = False

    def _tick(self, signum, frame):
        if self.busy:
            return
        t0 = time.perf_counter()
        self.last = self.calibrate()
        self.samples.append(self.last)
        self.paused += time.perf_counter() - t0

    def time(self, fn, sampled=True):
        """Run ``fn()``; return its result, its rescaled time and the scale.

        With ``sampled`` false the timer is stopped meanwhile, so that a
        profiler running inside ``fn`` neither slows nor records the loop.
        """
        if not sampled:
            signal.setitimer(signal.ITIMER_REAL, 0)
        before, first, paused = self.last, len(self.samples), self.paused
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0 - (self.paused - paused)
        if not sampled:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.last = self.calibrate()
        loops = [before, *self.samples[first:], self.last]
        scale = CALIBRATION_REFERENCE_S * len(loops) / sum(loops)
        return result, elapsed * scale, scale


def run_round(workload, inputs, tally: Tally, meter: Speedometer, profile=None):
    """Run every operation of every phase once, then check the outputs.

    Each operation is timed on its own (and profiled, if a profile is
    given); a phase's time is the sum over its operations.  Returns the
    phase times, the outputs and the round's median rescaling.
    """
    times, outputs, scales = {}, {}, []
    for name, operations in workload.phases(inputs):
        total, results = 0.0, []
        for operation in operations:
            if profile is not None:
                operation = partial(profile.runcall, operation)
            result, seconds, scale = meter.time(operation, sampled=profile is None)
            results.append(result)
            total += seconds
            scales.append(scale)
        times[name] = total
        outputs[name] = results
    failed, problems = workload.check(inputs, outputs)
    tally.attempted += inputs.ops
    tally.failed += failed
    tally.problems += problems
    return times, outputs, statistics.median(scales)


def end_to_end(workload, others, seed: int, seconds: float, tally: Tally, meter) -> dict:
    def build():
        return workload.build(seed, probe=False), {o: o.build(seed, probe=True) for o in others}

    setups = []
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        (inputs, probes), built, _ = meter.time(build)
        setups.append(imported + built)
    times = defaultdict(list)
    probe_times = {o: defaultdict(list) for o in others}
    start = time.perf_counter()
    while True:
        for name, t in run_round(workload, inputs, tally, meter)[0].items():
            times[name].append(t)
        for o in others:
            for _ in range(PROBE_REPS[workload.NAME]):
                for name, t in run_round(o, probes[o], tally, meter)[0].items():
                    probe_times[o][name].append(t)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {"setup_s": (statistics.median(setups), "s")}
    metrics.update(workload.end_to_end(inputs, times))
    for o in others:
        metrics.update(o.end_to_end(probes[o], probe_times[o]))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return metrics


def per_layer(workload, seed: int, seconds: float, tally: Tally, meter) -> dict:
    units = dict(METRICS)
    inputs = workload.build(seed, probe=False)
    plain, traced, rows = [], [], []
    evidence = None
    start = time.perf_counter()
    while True:
        plain.append(sum(run_round(workload, inputs, tally, meter)[0].values()))
        profile = cProfile.Profile()
        times, outputs, scale = run_round(workload, inputs, tally, meter, profile)
        traced.append(sum(times.values()))
        rows.append(
            {k: v * scale if units[k] == "s" else v for k, v in layer_metrics(profile).items()}
        )
        if evidence is None:
            evidence = workload.evidence(outputs)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {}
    for name, unit in METRICS:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif name.startswith("wlud.") and unit == "count":
            value = evidence.get(name, 0)
        elif unit == "s":
            value = statistics.median(row[name] for row in rows)
        else:
            value = rows[0][name]  # counts repeat exactly from round to round
        metrics[name] = (value, unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "levicivita" / "__init__.py").is_file():
        print(f"error: no levicivita sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import arith
    import certify
    import derive

    modules = {m.NAME: m for m in (certify, derive, arith)}
    workload = modules[args.workload]
    others = [m for name, m in modules.items() if name != args.workload]
    tally = Tally()
    with Speedometer() as meter:
        if args.trace:
            metrics = per_layer(workload, args.seed, args.seconds, tally, meter)
        else:
            metrics = end_to_end(workload, others, args.seed, args.seconds, tally, meter)
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
