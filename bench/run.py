"""shadowlab benchmark: seeded workloads, end-to-end times, per-layer numbers.

    python3 bench/run.py --workload pullback --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0

Load model: a closed loop with one client. One process, no worker threads;
each job starts when the previous one returns. A run sets up several times
(fresh import of ``shadowlab`` from ``src/``, job generation from the seed,
scenario files, warm-up), then repeats the workload's fixed job list for
``--seconds``. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a traced run, plus the tracing overhead
against untraced passes of the same run. Every job's outcome is checked;
a failed check makes the run exit 1. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Timing. This benchmark was defined on a 2-vCPU virtual machine shared with
other tenants: the hypervisor takes the vCPU away for milliseconds at a time
(steal), and the vCPU's speed for pure-Python code moves by up to 2x within
a second and from one run to the next (see ``speed.py``). Raw wall times,
their medians and their minima therefore move by 17-45% between runs of
the same code. Every span is timed in process CPU time, which excludes
steal; the jobs never block, so on an unshared CPU that is their wall time.
It is then rescaled to a fixed reference speed by a speed meter that times a
fixed reference loop every 2.5 ms inside the same process: a span's time is
its CPU time, minus the meter's own, times the mean speed sampled inside it.
A job's time is its mean over the passes at reference speed; `wall_s` sums
those over the job list and `job_p50_ms` is their median. Raw CPU times, the
speed samples and the share of wall time lost to steal are printed as well.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import micro
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("cli", "solver", "limits", "averaging", "density", "products", "families", "pseudo_orbits", "reporting")
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
P90_MIN_JOBS = 100


def load_library() -> SimpleNamespace:
    """Import shadowlab afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "shadowlab" or m.startswith("shadowlab.")]:
        del sys.modules[name]
    importlib.import_module("shadowlab")
    return SimpleNamespace(**{m: importlib.import_module(f"shadowlab.{m}") for m in MODULES})


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.scenarios = work_dir / "scenarios"
        self.reports = work_dir / "reports"
        self.lib = None
        self.jobs = []
        self.product = None
        self.api_bodies = {}
        self.attempted = 0
        self.failures = []
        self.digests = set()
        self.meter = None  # a running speed.SpeedMeter

    def setup(self) -> None:
        """Import, build families and inputs, warm up."""
        self.lib = load_library()
        self.jobs = workloads.build_jobs(self.workload, self.seed)
        families = self.lib.families
        self.product = families.product_family(families.doubling_family(), families.doubling_family())
        self.scenarios.mkdir(parents=True, exist_ok=True)
        self.reports.mkdir(parents=True, exist_ok=True)
        warmup = workloads.warmup_jobs(self.jobs)
        for job in self.jobs + warmup:
            if job.scenario is not None:
                (self.scenarios / f"{job.name}.json").write_text(json.dumps(job.scenario, sort_keys=True))
        for job in warmup:
            # Reduced jobs may legitimately fail their verdict; a config error may not.
            if self.run_job(job) == self.lib.cli.EXIT_CONFIG:
                raise RuntimeError(f"warm-up job {job.name} has an invalid config")

    def run_job(self, job) -> int:
        if job.scenario is not None:
            return self.lib.cli.run_scenario(self.scenarios / f"{job.name}.json", self.reports, quiet=True)
        p = job.pullback
        po = self.lib.pseudo_orbits.perturb_orbit(self.product, p["x0"], p["horizon"], p["noise"], p["seed"])
        report, _ = self.lib.solver.pullback_shadow(self.product, po, p["epsilon"])
        self.api_bodies[job.name] = {
            "family": report.family_name,
            "shadow_point": report.shadow_point,
            "horizon": report.horizon,
            "epsilon": report.epsilon,
            "per_step_errors": report.per_step_errors,
            "diameter_bound": report.diameter_bound,
            "measured_diameter": report.measured_diameter,
            "max_defect": report.max_defect,
            "verdict": report.verdict,
        }
        return 0 if report.verdict else 1

    def run_pass(self, tracer=None) -> list:
        """One pass over the job list; returns (CPU seconds, speed samples) per job."""
        for job in self.jobs:
            (self.reports / f"{job.name}.report.json").unlink(missing_ok=True)
        self.api_bodies.clear()
        outcomes = []
        times = []
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.name
                root = tracer.open("cli.run_scenario" if job.scenario is not None else "api.product_pullback")
            mark = self.meter.mark()
            try:
                outcomes.append((self.run_job(job), None))
            except Exception as exc:  # a job that raises is a counted failure, not the end of the run
                outcomes.append((None, f"{type(exc).__name__}: {exc}"))
            finally:
                times.append(self.meter.since(mark))
                if tracer is not None:
                    tracer.close(root)
        self.check_pass(outcomes)
        return times

    def check_pass(self, outcomes) -> None:
        reporting = self.lib.reporting
        digest = hashlib.sha256()
        for job, (code, error) in zip(self.jobs, outcomes):
            self.attempted += 1
            problems = []
            if error is not None:
                problems.append(f"raised {error}")
            elif code != job.expect_exit:
                problems.append(f"exit {code}, expected {job.expect_exit}")
            elif code == 0:
                try:
                    if job.scenario is not None:
                        envelope = reporting.load_report(self.reports / f"{job.name}.report.json")
                        problems += workloads.check_report(job, envelope["report"], self.reports)
                    else:
                        envelope = {"report": self.api_bodies[job.name]}
                        problems += workloads.check_pullback(job, envelope["report"])
                    digest.update(job.name.encode() + b"\0" + reporting.report_body_bytes(envelope))
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
            else:
                digest.update(job.name.encode() + b"\0exit %d" % code)
            if problems:
                self.failures.append(f"{job.name}: {'; '.join(problems)}")
        self.digests.add(digest.hexdigest())

    def run_passes(self, seconds: float, min_passes: int, tracer=None, on_pass=None) -> list:
        """Repeat the job list for about `seconds`, at least `min_passes` times.

        Returns each pass's list of job timings. With a tracer, its spans are
        reset before each pass and `on_pass(tracer, speeds)` reads them after,
        with the speed samples taken during the pass.
        """
        passes = []
        start = perf_counter()
        while True:
            if tracer is not None:
                tracer.reset()
            mark = self.meter.mark()
            passes.append(self.run_pass(tracer))
            if on_pass is not None:
                on_pass(tracer, self.meter.since(mark)[1])
            elapsed = perf_counter() - start
            if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
                return passes



def describe(name: str, unit: str, values: list) -> str:
    q1, q2, q3 = quartiles(values)
    return f"  {name:<14} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def job_times(passes: list, meter) -> list:
    """Each job's mean time over the passes, at reference speed (see speed.py)."""
    fallback = meter.mean_speed()
    times = []
    for timings in zip(*passes):
        raw = statistics.fmean(seconds for seconds, _ in timings)
        speeds = [s for _, samples in timings for s in samples]
        times.append(speed.at_reference_speed(raw, speeds, fallback))
    return times


def timed_setup(bench: Bench) -> float:
    """One set-up's time at reference speed."""
    mark = bench.meter.mark()
    bench.setup()
    seconds, speeds = bench.meter.since(mark)
    return speed.at_reference_speed(seconds, speeds, bench.meter.mean_speed())


def run_untraced(bench: Bench, seconds: float) -> dict:
    setups = [timed_setup(bench) for _ in range(SETUP_REPEATS)]
    wall, cpu = perf_counter(), process_time()
    passes = bench.run_passes(seconds, MIN_PASSES)
    wall, cpu = perf_counter() - wall, process_time() - cpu
    jobs = job_times(passes, bench.meter)
    pass_cpu = [sum(t for t, _ in timings) for timings in passes]
    samples_ms = [t * 1e3 for timings in passes for t, _ in timings]
    speeds = bench.meter.speeds
    metrics = {
        "wall_s": (sum(jobs), "s"),
        "job_p50_ms": (statistics.median(jobs) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"end-to-end (tracing off): {len(passes)} passes of {len(bench.jobs)} jobs; "
          "a job's time is its mean over the passes at reference speed")
    print(f"  {'wall_s':<14} {metrics['wall_s'][0]:.6g} s   sum of the job times")
    print(f"  {'job_p50_ms':<14} {metrics['job_p50_ms'][0]:.6g} ms  median of the {len(jobs)} job times")
    print(f"  {'setup_s':<14} {metrics['setup_s'][0]:.6g} s   median of {len(setups)} set-ups")
    print(f"  {'peak_rss_mb':<14} {metrics['peak_rss_mb'][0]:.6g} MB")
    print("steadiness: median and quartiles of every raw sample in this run")
    print(describe("speed", "x", speeds) + " speed samples (1 = reference speed)")
    print(describe("raw pass s", "s", pass_cpu) + " passes, CPU time")
    print(describe("raw job ms", "ms", samples_ms) + " jobs, CPU time")
    print(f"  {'not on CPU':<14} {1 - cpu / wall:.4f} of the passes' wall time (steal)")
    if len(samples_ms) >= P90_MIN_JOBS:
        p90 = statistics.quantiles(samples_ms, n=10)[-1]
        beyond = sum(t > p90 for t in samples_ms)
        print(f"  {'job_p90_ms':<14} {p90:.6g} ms  n={len(samples_ms)} jobs, {beyond} beyond it")
    else:
        print(f"  {'job_p90_ms':<14} not reported: {len(samples_ms)} jobs < {P90_MIN_JOBS}")
    print(describe("setup_s", "s", setups) + " set-ups at reference speed")
    print("job time (mean over passes at reference speed), ms:")
    for job, t in sorted(zip(bench.jobs, jobs), key=lambda row: row[1]):
        print(f"  {job.name:<36} {job.label:<40} {t * 1e3:.6g}")
    return metrics


def run_traced(bench: Bench, seconds: float) -> dict:
    bench.setup()
    plain = bench.run_passes(seconds / 2, MIN_TRACE_PASSES)
    lib = bench.lib

    def body_size(report):
        return len(lib.reporting.canonical_json(report))

    layers = []

    def collect(tracer, speeds):
        layer = tracing.layer_metrics(tracer.spans, tracer.counts, body_size)
        layers.append(rescale_layer(layer, speeds, bench.meter.mean_speed()))

    tracer = tracing.Tracer()
    patches = tracing.instrument(lib, tracer)
    try:
        traced = bench.run_passes(seconds / 2, MIN_TRACE_PASSES, tracer, collect)
    finally:
        patches.restore()
    for name in tracing.COUNT_METRICS:
        values = {layer[name] for layer in layers}
        if len(values) > 1:
            bench.failures.append(f"count {name} differs between traced passes: {sorted(values)}")
    layer = tracing.median_metrics(layers)
    layer.update(micro.micro_metrics(lib, bench.seed, bench.meter))
    plain_wall, traced_wall = sum(job_times(plain, bench.meter)), sum(job_times(traced, bench.meter))
    layer["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    print(f"per-layer (traced): median over {len(layers)} traced passes, times at reference speed; "
          "counts are exact per pass")
    for name in sorted(layer):
        print(f"  {name:<44} {layer[name]:.6g} {unit_of(name)}")
    print(f"  wall (sum of job times at reference speed): untraced {plain_wall:.4f} s, traced {traced_wall:.4f} s")
    return {name: (value, unit_of(name)) for name, value in layer.items()}


# Unit by the suffix of the metric's second name part, longest suffix first.
UNITS = (("_us_per_step", "us"), ("_us_per_point", "us"), ("_per_s", "1/s"), ("_frac", "ratio"),
         ("_ns", "ns"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"))


def unit_of(name: str) -> str:
    stem = name.split(".")[1]
    for suffix, unit in UNITS:
        if stem.endswith(suffix):
            return unit
    return "count"


def rescale_layer(layer: dict, speeds: list, fallback: float) -> dict:
    """A traced pass's metrics with every time rescaled by the pass's mean speed."""
    factor = speed.at_reference_speed(1.0, speeds, fallback)
    scale = {"s": factor, "ms": factor, "us": factor, "ns": factor, "1/s": 1.0 / factor}
    return {name: value * scale[unit_of(name)] if unit_of(name) in scale else value
            for name, value in layer.items()}


def run_one(args) -> int:
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work_dir)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    try:
        with speed.SpeedMeter() as bench.meter:
            if args.trace:
                metrics = run_traced(bench, args.seconds)
            else:
                metrics = run_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:  # another run still has its directory there
            pass
    if len(bench.digests) != 1:
        bench.failures.append(f"report bodies differ between passes: {len(bench.digests)} digests")
    print(f"report digest {args.workload} seed {args.seed}: sha256 {' '.join(sorted(bench.digests))}")
    failed = len(bench.failures)
    print(f"failed_frac {failed}/{bench.attempted} = {failed / bench.attempted:.6g}")
    for failure in bench.failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own fresh process: end-to-end, then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for trace_flag in (0, 1):
        for workload in workloads.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace_flag)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            worst = max(worst, proc.returncode)
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                print(lines[-1])
                combined["correct"] = False
                continue
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if worst == 0 and combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shadowlab" / "__init__.py").is_file():
        print(f"shadowlab sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
