#!/usr/bin/env python3
"""The tribvp benchmark.

    python3 bench/run.py --workload solve-sigmoid --seed 1 --seconds 40 --trace 0

It drives the program from outside through `tribvp.cli.main(argv)`, the code
path behind the `tribvp` command, in a closed loop: one job at a time in this
process, each job starting when the previous one has returned, no extra
threads.  A workload is one list of jobs, run pass after pass for at most
`--seconds`.  Every job's output is checked (checks.py); a job fails when its
exit code is unexpected or its check finds a problem.

Job times are scaled to a fixed host speed (hostspeed.py): a shared VM can
run at about half speed for seconds to minutes at a time, and on a shared
2-CPU VM raw times of the same code moved by 40% between sets of runs.  The
raw medians are printed too (bench/NOTES.md has the figures).

  solve-sigmoid   tribvp solve on configs/sigmoid.json (grid 2049)
  solve-exp       tribvp solve on configs/exp_piecewise.json (grid 2049)
  certify-batch   tribvp certify on BATCH_SIZE problems generated from the
                  seed (problems.py), plus constants, certify and sweep on both
                  worked configs

`--trace 0` measures the end-to-end metrics with no tracing installed.
`--trace 1` alternates untraced and traced passes (layers.py), reports the
per-layer metrics and the tracing overhead, and writes the spans to
.bench_work/.  Either way it prints one line per metric (name, value, unit)
and, last, one JSON object: {"correct", "attempted", "failed", "metrics"}.

It exits with a nonzero code and no result when the program's sources are not
next to it.  Inputs and outputs live in .bench_work/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from hostspeed import HostSpeed
from layers import Tracer
from problems import generate_batch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("solve-sigmoid", "solve-exp", "certify-batch")
WORKED = ("sigmoid", "exp_piecewise")
BATCH_SIZE = 320
SWEEP_AXES = ("beta:0.1:0.9:9", "alpha:0.5:5.5:5")
SWEEP_ROWS = 45
SETUP_REPEATS = 8
MIN_PASSES = 3

# name -> unit; BENCHMARK.json lists the same names (test_harness checks it).
END_TO_END = {
    "job_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "functions.calls": "count",
    "functions.points": "count",
    "functions.busy_s": "s",
    "functions.f_grid_us": "us",
    "functions.f_grid_exp_us": "us",
    "grid.calls": "count",
    "grid.busy_s": "s",
    "linear.solve_linear.calls": "count",
    "linear.solve_linear.busy_s": "s",
    "linear.residuals.busy_s": "s",
    "linear.solve_linear_us": "us",
    "nonlinear.picard.busy_s": "s",
    "nonlinear.picard.iterations": "count",
    "nonlinear.shooting.busy_s": "s",
    "nonlinear.candidates": "count",
    "nonlinear.kept": "count",
    "nonlinear.kept_ratio": "ratio",
    "nonlinear.route_share": "ratio",
    "nonlinear.apply_A_us": "us",
    "nonlinear.rk4_trajectory_ms": "ms",
    "certify.box.calls": "count",
    "certify.box.busy_s": "s",
    "certify.samples": "count",
    "certify.search.busy_s": "s",
    "certify.box_us": "us",
    "constants.busy_s": "s",
    "problem.validate.busy_s": "s",
    "config.load.busy_s": "s",
    "report.write.busy_s": "s",
    "runner.self_s": "s",
    "solutions_verified": "count",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}
# Per-job sums from layers.Tracer that are reported as their mean over traced jobs.
SUMMED = [name for name in PER_LAYER if name.endswith((".calls", ".points", ".busy_s", ".iterations", ".self_s"))] + [
    "nonlinear.candidates",
    "nonlinear.kept",
    "certify.samples",
]

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from tribvp.config import load_run_config
for path in sys.argv[2:]:
    load_run_config(path, "certify", "unused")
print(repr(time.perf_counter() - start))
"""


@dataclass(frozen=True)
class Job:
    name: str
    argv: list
    config: Path
    check: Callable  # (out_dir, exit_code) -> (problems, verified solutions)


@dataclass(frozen=True)
class JobRecord:
    name: str
    wall: float  # seconds, without the time spent in host-speed probes
    cpu: float
    speed: float  # hostspeed factor: wall * speed is the scaled time
    traced: bool
    problems: list
    verified: int
    sums: dict | None
    probing: float = 0.0  # seconds spent in host-speed probes during the job


def worked_config(name: str) -> Path:
    return ROOT / checks.REFERENCE["configs"][name]["path"]


def solve_job(name: str) -> Job:
    path = worked_config(name)
    return Job(f"solve-{name}", ["solve", "--config", str(path)], path, partial(checks.check_solve, config=name))


def _no_count(check):
    return lambda out, code: (check(out, code), 0)


def certify_batch_jobs(seed: int) -> list[Job]:
    cfg_dir = WORK / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for gen in generate_batch(seed, BATCH_SIZE):
        path = cfg_dir / f"{gen.name}.json"
        path.write_text(json.dumps(gen.doc, indent=1))
        jobs.append(Job(gen.name, ["certify", "--config", str(path)], path, _no_count(partial(checks.check_generated, gen=gen))))
    for name in WORKED:
        path = worked_config(name)
        sweep_argv = ["sweep", "--config", str(path)]
        for axis in SWEEP_AXES:
            sweep_argv += ["--axis", axis]
        jobs += [
            Job(f"constants-{name}", ["constants", "--config", str(path)], path,
                _no_count(partial(checks.check_worked_constants, config=name))),
            Job(f"certify-{name}", ["certify", "--config", str(path)], path,
                _no_count(partial(checks.check_worked_certify, config=name))),
            Job(f"sweep-{name}", sweep_argv, path,
                _no_count(partial(checks.check_sweep, config=name, rows_expected=SWEEP_ROWS))),
        ]
    random.Random(seed).shuffle(jobs)
    return jobs


def workload_jobs(workload: str, seed: int) -> list[Job]:
    if workload == "solve-sigmoid":
        return [solve_job("sigmoid")]
    if workload == "solve-exp":
        return [solve_job("exp_piecewise")]
    return certify_batch_jobs(seed)


def measure_setup(configs: list[Path], repeats: int) -> list[float]:
    """Seconds, in each of `repeats` fresh interpreters, to import tribvp and load every config."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, configs)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_job(cli, job: Job, tracer: Tracer | None, host: HostSpeed) -> JobRecord:
    out = WORK / "out" / job.name
    shutil.rmtree(out, ignore_errors=True)
    argv = [*job.argv, "--out", str(out)]
    code, sums, crash = None, None, None
    with contextlib.redirect_stderr(io.StringIO()):
        mark = host.mark()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code, sums = tracer.job(job.name, lambda: cli.main(argv))
        except (Exception, SystemExit) as exc:
            crash = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        speed, probing = host.since(mark)
    if crash:
        problems, verified = [crash], 0
    else:
        try:
            problems, verified = job.check(out, code)
        except (KeyError, TypeError, ValueError, IndexError) as exc:  # a report in an unexpected shape
            problems, verified = [f"output check failed: {type(exc).__name__}: {exc}"], 0
    return JobRecord(job.name, wall - probing, cpu - probing, speed, tracer is not None, problems, verified, sums, probing)


def run_loop(cli, jobs: list[Job], seconds: float, tracer: Tracer | None) -> list[JobRecord]:
    """Whole passes over the jobs for at most `seconds`, and at least MIN_PASSES.

    A pass is not started when it would end after `seconds`, judged by the
    length of the one before, so a run stays within its time however long a
    job is.  With a tracer, odd passes are traced and even ones not.
    """
    records = []
    start = time.perf_counter()
    passes = 0
    with HostSpeed() as host:
        while True:
            pass_start = time.perf_counter()
            traced = tracer is not None and passes % 2 == 1
            with tracer.installed() if traced else contextlib.nullcontext():
                records += [run_job(cli, job, tracer if traced else None, host) for job in jobs]
            passes += 1
            now = time.perf_counter()
            if passes >= MIN_PASSES and 2 * now - pass_start - start > seconds:
                return records


def scaled_wall(r: JobRecord) -> float:
    return r.wall * r.speed


def per_job(records: list[JobRecord], value: Callable[[JobRecord], float]) -> list[float]:
    """Each distinct job's median of value(record) over the run's passes, sorted.

    One slow problem repeated in every pass counts once.
    """
    values: dict[str, list[float]] = {}
    for r in records:
        values.setdefault(r.name, []).append(value(r))
    return sorted(statistics.median(v) for v in values.values())


def tail(times: list[float]) -> float:
    """The highest percentile of sorted per-job times with at least 10 distinct jobs beyond it.

    With 10 distinct jobs or fewer (the solve workloads have one) no such
    percentile exists, and the largest per-job time stands in.
    """
    return times[-11] if len(times) > 10 else times[-1]


def end_to_end(records: list[JobRecord], setup_s: float) -> dict:
    walls = per_job(records, scaled_wall)
    return {
        "job_s": statistics.median(walls),
        "job_tail_s": tail(walls),
        "jobs_per_s": len(walls) / sum(walls),
        "cpu_s": statistics.median(per_job(records, lambda r: r.cpu * r.speed)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_call(fn, repeats: int = 5, batch_s: float = 0.02) -> float:
    """Median over `repeats` batches of the seconds one call of fn takes."""
    start = time.perf_counter()
    fn()
    calls = max(1, int(batch_s / max(time.perf_counter() - start, 1e-9)))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def _worked_grid(name: str):
    """The worked problem `name`, its thresholds, and its grid nodes with u rising from 0 to c."""
    from tribvp.config import load_run_config

    cfg = load_run_config(worked_config(name), "solve", WORK / "micro")
    nodes = np.linspace(0.0, float(cfg.problem.T), cfg.grid_n)
    return cfg.problem, cfg.thresholds, nodes, np.linspace(0.0, float(cfg.thresholds.c), cfg.grid_n)


def micro_timings() -> dict:
    """One call of each layer's unit of work on the sigmoid worked problem (grid 2049).

    f is timed on the exp-piecewise worked problem too: its f costs several
    times more per point, and a `functions` optimisation is aimed at it.

    A probe whose function a later version of the program no longer has, or
    calls differently, reads 0 and is reported on stderr.
    """
    # import_module, not `from tribvp import certify`: the package re-exports
    # a function under that name.
    certify, constants, linear, nonlinear = (
        importlib.import_module(f"tribvp.{name}") for name in ("certify", "constants", "linear", "nonlinear")
    )
    from tribvp.grid import SolutionCurve

    p, tt, nodes, u = _worked_grid("sigmoid")
    p_exp, _, nodes_exp, u_exp = _worked_grid("exp_piecewise")
    T, n = float(p.T), len(nodes)
    y = SolutionCurve(0.0, T, p.f(nodes, u))
    k = constants.compute_constants(p)
    probes = {
        "functions.f_grid_us": (1e6, lambda: p.f(nodes, u), {}),
        "functions.f_grid_exp_us": (1e6, lambda: p_exp.f(nodes_exp, u_exp), {}),
        "linear.solve_linear_us": (1e6, lambda: linear.solve_linear(p, y), {}),
        "nonlinear.apply_A_us": (1e6, lambda: nonlinear.apply_operator_A(p, SolutionCurve(0.0, T, u)), {}),
        "certify.box_us": (1e6, lambda: certify.check_D3(p, k.m, tt.c), {}),
        "nonlinear.rk4_trajectory_ms": (
            1e3, lambda: nonlinear.shooting_residual(p, float(tt.b), 0.0, n), {"repeats": 3, "batch_s": 0.0}
        ),
    }
    out = {}
    for name, (scale, fn, kwargs) in probes.items():
        try:
            out[name] = scale * per_call(fn, **kwargs)
        except (AttributeError, TypeError, ValueError) as exc:
            print(f"bench: probe {name} skipped: {type(exc).__name__}: {exc}", file=sys.stderr)
            out[name] = 0.0
    return out


def solutions_verified(records: list[JobRecord]) -> float:
    """Median verified solutions per solve job; 0 on a workload without solve jobs."""
    solves = [r.verified for r in records if r.name.startswith("solve-")]
    return statistics.median(solves) if solves else 0


def per_layer(records: list[JobRecord], micro: dict) -> dict:
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    mean = {name: sum(r.sums.get(name, 0.0) for r in traced) / len(traced) for name in SUMMED}
    traced_wall = statistics.mean(r.wall + r.probing for r in traced)  # the spans' busy times include probes
    route = mean["nonlinear.picard.busy_s"] + mean["nonlinear.shooting.busy_s"]
    metrics = {
        **mean,
        **micro,
        "nonlinear.kept_ratio": mean["nonlinear.kept"] / mean["nonlinear.candidates"] if mean["nonlinear.candidates"] else 0.0,
        "nonlinear.route_share": route / traced_wall,
        "solutions_verified": solutions_verified(records),
        "trace.job_s": statistics.median(per_job(traced, scaled_wall)),
        "trace.overhead_s": statistics.median(per_job(traced, scaled_wall)) - statistics.median(per_job(plain, scaled_wall)),
    }
    return {name: metrics[name] for name in PER_LAYER}


def import_cli():
    """tribvp.cli from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import tribvp.cli as cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import tribvp from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported tribvp from {cli.__file__}, not from {SRC}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    for name in WORKED:
        if not worked_config(name).is_file():
            sys.exit(f"bench: missing worked config {worked_config(name)}")
    WORK.mkdir(exist_ok=True)
    jobs = workload_jobs(args.workload, args.seed)

    if args.trace:
        tracer = Tracer()
        records = run_loop(cli, jobs, args.seconds, tracer)
        metrics = per_layer(records, micro_timings())
        tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = PER_LAYER
    else:
        # Set-up is measured before and after the loop, so it samples the
        # machine at both ends of the run.  The interpreters cannot be probed
        # (probes taken while waiting for one read slow from waking up), so
        # their median is scaled by the run's median host speed.
        configs = sorted({job.config for job in jobs})
        setups = measure_setup(configs, SETUP_REPEATS // 2)
        records = run_loop(cli, jobs, args.seconds, None)
        setups += measure_setup(configs, SETUP_REPEATS - SETUP_REPEATS // 2)
        metrics = end_to_end(records, statistics.median(setups) * statistics.median(r.speed for r in records))
        units = END_TO_END

    failed = [r for r in records if r.problems]
    for r in failed[:10]:
        print(f"FAILED {r.name}: {'; '.join(map(str, r.problems))[:500]}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    # Reported outside "metrics": both can be 0, which an end-to-end metric may not be.
    print(f"{'failed_frac':32s} {len(failed) / len(records):.6g} ratio ({len(failed)} of {len(records)} jobs)")
    if args.workload.startswith("solve-"):
        print(f"{'solutions_verified':32s} {solutions_verified(records):.6g} count")
    # The raw figures behind the scaled times, for reading, not for comparing runs.
    print(f"{'raw_job_s':32s} {statistics.median(r.wall for r in records):.6g} s (median, not scaled)")
    print(f"{'host_speed':32s} {statistics.median(r.speed for r in records):.6g} (median factor)")
    if not args.trace:
        print(f"{'raw_setup_s':32s} {statistics.median(setups):.6g} s (median, not scaled)")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
