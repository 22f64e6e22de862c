"""fairalloc benchmark: one closed-loop client running a workload's tasks.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload pof_narrow --seed 1 --seconds 25 --trace 0

The workload's scenario files are generated from --seed (see workloads.py)
and the program receives only those files. One process runs one task at a
time through fairalloc's public API or ``fairalloc.cli.main``, repeating
the fixed task list as many times as its nominal pass time fits in
--seconds (at least once), and checks every task's output (see checks.py).

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics: setup_s (median time for a fresh interpreter to import
fairalloc and load every input), run_s (median over the passes of the summed
task times of one pass over the task list), task_p50_ms and task_p90_ms
(percentiles over the tasks of the list of each task's median time over the
passes), and peak_rss_mb (peak resident memory of this process). Times are
wall times scaled to a reference machine speed, measured between tasks by
the fixed kernel of calibration.py; the unscaled wall times are printed on
standard error. Failed tasks are counted in "failed" out of "attempted";
fail_frac is their ratio.

With --trace 1 the run makes one untraced pass, then one pass with the
wrappers of tracing.py installed, and prints the per-layer metrics of the
traced pass plus the tracing overhead. Spans go to
.bench_out/spans-<workload>-seed<seed>.json under the checkout.

The program is imported from the checkout's src/ directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import single_thread  # first: pins BLAS and OpenMP before numpy loads

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

# Metric names and units, as BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def select(values: dict, section: str) -> dict:
    """The metrics of a BENCHMARK.json section, with their units, from ``values``."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[section]}


# Set-up probes per run: a burst of load from other processes lasts seconds,
# so half run before the passes and half after, and the median is reported.
# Each probe then times the calibration kernel, which scales its time (the
# kernel's imports are fairalloc's own, so they are loaded by then).
SETUP_REPEATS = 8
SETUP_PROBE = """
import sys
from time import perf_counter
start = perf_counter()
import fairalloc.scenario_io
for name in sys.argv[1:]:
    with open(name, encoding="utf-8") as handle:
        fairalloc.scenario_io.load_scenario_file(handle.read())
elapsed = perf_counter() - start
import calibration
print(repr(elapsed), repr(calibration.kernel_seconds()))
"""


def environment(np, scipy) -> dict:
    """Machine and library record printed with every run."""
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in single_thread.THREAD_VARS},
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    caches = {}
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    info["caches"] = caches
    return info


def measure_setup(files, repeats) -> list:
    """(reference, wall) seconds for a fresh interpreter to import fairalloc and
    load every input; the probe's kernel timing just after scales its time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    argv = [sys.executable, "-c", SETUP_PROBE, *files]
    times = []
    for _ in range(repeats):
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        elapsed, kernel = (float(word) for word in done.stdout.split())
        times.append((elapsed * calibration.scale(kernel, kernel), elapsed))
    return times


def execute(task, fa):
    if task.kind == "cli":
        return fa.cli.main(task.argv)
    scenario = fa.load_scenario_path(task.file).scenario
    result = fa.pof(scenario, task.alpha)
    return result, fa.scenario_certificate(scenario, workloads.EPSILON)


def run_pass(tasks, fa, tracer=None):
    """Run every task once; returns (task reference seconds, wall seconds, outputs, errors).

    Tasks run in segments of at least calibration.SEGMENT_S, with the
    calibration kernel timed between segments; a task's wall time is scaled
    by the kernel timings on either side of its segment. The wall time
    includes the kernel timings.
    """
    times, outputs, errors = [], [], []
    gc.collect()
    with contextlib.redirect_stderr(io.StringIO()):  # CLI summaries
        start = perf_counter()
        before, segment = calibration.kernel_seconds(), []
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.task = task.id
            begin = perf_counter()
            try:
                outputs.append(execute(task, fa))
                errors.append(None)
            except Exception as exc:  # a failing task is counted; the run goes on
                outputs.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            segment.append(perf_counter() - begin)
            if sum(segment) >= calibration.SEGMENT_S or i == len(tasks) - 1:
                after = calibration.kernel_seconds()
                factor = calibration.scale(before, after)
                times.extend(t * factor for t in segment)
                before, segment = after, []
        wall = perf_counter() - start
    return times, wall, outputs, errors


def check_pass(tasks, outputs, errors, checker) -> list:
    """(task id, problem, wrong) for the first problem of every failed task."""
    failures = []
    for task, output, error in zip(tasks, outputs, errors):
        wrong, reported = ([], [error]) if error is not None else checker.check(task, output)
        failures.extend([(task.id, p, True) for p in wrong][:1] or
                        [(task.id, p, False) for p in reported][:1])
        if task.output is not None:  # a later pass must not find a stale report
            Path(task.output).unlink(missing_ok=True)
    return failures


def per_layer_metrics(tracer, untraced_s, traced_s) -> dict:
    layers = tracer.layer_metrics()
    empty = {"calls": 0, "self_s": 0.0, "amount": 0}
    values = {}
    for layer in LAYERS:
        entry = layers.get(layer, empty)
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.self_s"] = entry["self_s"]
        values[f"{layer}.amount"] = entry["amount"]
    knots = values["distributions.expected_min_knots.amount"]
    values["distributions.expected_min_knots.knots"] = knots
    # computed from array sizes: four float64 arrays (x, cdf, survival, E[min]) per knot
    values["distributions.expected_min_knots.bytes_computed"] = 32 * knots
    values["distributions.sample.samples"] = values["distributions.sample.amount"]
    mc_samples = values["montecarlo.estimate_expected_min.amount"]
    mc_time = tracer.total_time("montecarlo.estimate_expected_min")
    values["montecarlo.samples_per_s"] = mc_samples / mc_time if mc_time > 0.0 else 0.0
    pofs = values["allocation.pof.calls"]
    under = tracer.calls_under("allocation.max_utilization", "allocation.pof")
    values["allocation.max_utilization.per_pof"] = under / pofs if pofs else 0.0
    for layer in ("scenario_io.load_scenario_file", "scenario_io.emit_availability_curve",
                  "scenario_io.rows_to_csv"):
        values[f"{layer}.bytes"] = values[f"{layer}.amount"]
    values["cli.main.nonzero_exits"] = values["cli.main.amount"]
    values["trace.untraced_run_s"] = untraced_s
    values["trace.traced_run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.spans"] = len(tracer.spans)
    return select(values, "per_layer")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and two set-up probes, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fairalloc" / "__init__.py").is_file():
        print(f"bench: no fairalloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import fairalloc
    import fairalloc.cli  # noqa: F401  (the tracer wraps cli.main)

    if Path(fairalloc.__file__).resolve().parent != SRC / "fairalloc":
        print(f"bench: imported fairalloc from {fairalloc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(np, scipy)
    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    (work / "out").mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        for name, text in workload.files.items():
            Path(name).write_text(text, encoding="utf-8")
        references = None if args.tiny else checks.load_references()
        checker = checks.Checker(fairalloc, workload.files, references)
        probes = 0 if args.trace else 2 if args.tiny else SETUP_REPEATS
        if probes:
            measure_setup(list(workload.files), 1)  # warms the file cache; not counted
        setup_times = measure_setup(list(workload.files), probes // 2)

        tasks = workload.tasks
        walls, pass_times, failures = [], [], []
        passes = 1 if args.trace else max(1, int(args.seconds // workload.pass_seconds))
        for _ in range(passes):
            times, wall, outputs, errors = run_pass(tasks, fairalloc)
            walls.append(wall)
            pass_times.append(times)
            failures.extend(check_pass(tasks, outputs, errors, checker))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times += measure_setup(list(workload.files), probes - probes // 2)
        attempted = len(walls) * len(tasks)

        if args.trace:
            tracer = Tracer(fairalloc)
            tracer.install()
            origin = perf_counter()
            try:
                traced_times, _, outputs, errors = run_pass(tasks, fairalloc, tracer)
            finally:
                tracer.uninstall()
            failures.extend(check_pass(tasks, outputs, errors, checker))
            attempted += len(tasks)
            metrics = per_layer_metrics(tracer, sum(pass_times[0]), sum(traced_times))
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path, origin, {"workload": args.workload, "seed": args.seed,
                                              "environment": env, "metrics": metrics})
        else:
            # a task's time is its median over the passes; percentiles are over tasks
            task_times = [statistics.median(times) for times in zip(*pass_times)]
            values = {
                "setup_s": statistics.median(t for t, _ in setup_times),
                "run_s": statistics.median(sum(times) for times in pass_times),
                "task_p50_ms": 1000.0 * statistics.median(task_times),
                "task_p90_ms": 1000.0 * statistics.quantiles(task_times, n=10, method="inclusive")[-1],
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = select(values, "end_to_end")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    failed = len(failures)
    report = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "tasks_per_pass": len(tasks), "passes": len(walls) + args.trace,
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        "reference_checked": checker.reference_hits,
        # unscaled times, for comparison with the reported reference seconds
        "wall_run_s": [round(w, 4) for w in walls],
        "wall_setup_s": [round(w, 4) for _, w in setup_times],
        "environment": env,
        "failures": failures[:20],
    }
    print(json.dumps(report), file=sys.stderr)
    correct = not any(wrong for _, _, wrong in failures)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
