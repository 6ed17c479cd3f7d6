"""owenexplain benchmark: one workload per process, closed loop, one caller.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload oracle-enum --seed 1 --seconds 40 --trace 0

Workloads are oracle-enum and extract-arms (see workloads.py and
README.md). The library is imported from ``src/`` of the checkout;
nothing needs building. A run repeats whole rounds of the workload's fixed
library calls until ``--seconds`` have passed, checks every output outside
the timed calls, and prints one metric per line followed by a JSON result
as the last line of standard output.

--trace 0 measures the end-to-end metrics with no wrapper installed.
--trace 1 traces one set-up, then alternates untraced and traced rounds,
and reports the per-layer metrics of the traced set-up plus the mean traced
round; trace.overhead_s is the traced minus the untraced median round time.
Spans are written to perfbench/out/.
"""

from __future__ import annotations

import os

# One caller on one thread: BLAS must not start worker threads of its own
# (set before numpy is first imported, here and in the set-up probes).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p90_ms": ("ms", "lower"),
}
# Set-up is timed over several fresh interpreters and the median reported.
SETUP_PROBES = 7
# With two rounds or more, the 90th percentile of call latency falls inside
# the slowest call of the round on oracle-enum and extract-arms (5 and 2
# calls per round), not between two different calls.
MIN_ROUNDS = 2


def load_library() -> None:
    """Import owenexplain from this checkout's src/ and nowhere else."""
    package = SRC / "owenexplain"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from the root of an owenexplain checkout")
    sys.path.insert(0, str(SRC))
    import owenexplain

    if Path(owenexplain.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported owenexplain from {owenexplain.__file__}, not {package}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports owenexplain and
    builds the workload's inputs and configurations."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs rounds of one workload and keeps latencies, failures and check
    results."""

    def __init__(self):
        self.tracer = None  # set while a traced round runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def rounds(self, workload, seconds: float) -> list[list[float]]:
        """Whole rounds until `seconds` have passed and at least MIN_ROUNDS
        are done."""
        done = []
        start = time.perf_counter()
        while len(done) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            done.append(self.round(workload, len(done)))
        return done

    def round(self, workload, index: int) -> list[float]:
        """The wall time of each successful call of one round."""
        latencies = []
        for op in workload.ops():
            self.attempted += 1
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    output = op.call()
                else:
                    with self.tracer.span("op " + op.label):
                        output = op.call()
            except Exception:
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - start)
            try:
                if self.tracer is None:
                    op.check(output)
                else:
                    with self.tracer.paused():
                        op.check(output)
            except checks.CheckFailed as err:
                self.problems.append(f"{op.label} (round {index}): {err}")
            del output
        return latencies


def end_to_end(rounds: list[list[float]], setup_s: float) -> dict[str, float]:
    latencies = [t for r in rounds for t in r]
    if not latencies:
        return {name: 0.0 for name in END_TO_END}
    ops_per_round = statistics.median(len(r) for r in rounds)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": ops_per_round / statistics.median(sum(r) for r in rounds),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        if len(latencies) > 1 else 1e3 * latencies[0],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed)
        return 0

    if args.trace:
        from tracing import PER_LAYER, Tracer

        runner = Runner()
        plain = make(args.seed)
        tracer = Tracer()
        tracer.install()
        traced_workload = make(args.seed)
        tracer.end_setup()
        tracer.uninstall()
        # Untraced and traced rounds alternate, so drift on a shared machine
        # falls on both sides of trace.overhead_s alike.
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(runner.round(plain, len(untraced)))
            tracer.install()
            runner.tracer = tracer
            try:
                traced.append(runner.round(traced_workload, len(traced)))
            finally:
                tracer.uninstall()
                runner.tracer = None
        overhead = statistics.median(map(sum, traced)) - statistics.median(map(sum, untraced))
        metrics = tracer.metrics(len(traced), overhead)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        runner = Runner()
        metrics = end_to_end(runner.rounds(make(args.seed), args.seconds), setup_s)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}

    for problem in runner.problems:
        print(f"check failed: {problem}")
    for name, value in metrics.items():
        print(f"{name:32s} {value!r} {units[name]}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
