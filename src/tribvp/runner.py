"""Pipeline orchestration: validate -> constants -> certify -> solve, plus sweeps."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .certify import certify, search_thresholds
from .config import RunConfig, f_check_u_max
from .constants import compute_constants
from .errors import ConfigError, TribvpError
from .grid import remove_files, write_csv
from .nonlinear import find_solutions
from .problem import check_h2, validate_hypotheses
from .report import SCHEMA_VERSION, dump_report, format_sig, write_sweep_csv

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_HYPOTHESIS_FAILURE = 3
EXIT_CERTIFICATION_FAILURE = 4
EXIT_NUMERICAL_FAILURE = 5


@dataclass
class RunOutcome:
    exit_code: int
    report: dict
    message: str = ""


class StageTimer:
    """Wall time per named stage of one run, for the report's timing section."""

    def __init__(self):
        self.stages: dict[str, float] = {}

    def time(self, name: str) -> "_Stage":
        """A context manager that stores its block's wall time as stage name, also when the block raises."""
        return _Stage(self.stages, name)


class _Stage:
    __slots__ = ("stages", "name", "start")

    def __init__(self, stages: dict, name: str):
        self.stages, self.name = stages, name

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc_info):
        self.stages[self.name] = time.perf_counter() - self.start


def run(cfg: RunConfig, timer: StageTimer | None = None) -> RunOutcome:
    """Execute the stages implied by cfg.mode and write artifacts to output_dir.

    The report's timing section holds timer's stages (the caller's, as loading
    the configuration) and this run's.  If writing an artifact raises OSError,
    the files this run wrote are removed before it propagates.
    """
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    timer = StageTimer() if timer is None else timer
    p = cfg.problem

    with timer.time("validate"):
        hypothesis = validate_hypotheses(p, u_max=f_check_u_max(cfg.thresholds), f_range=cfg.f_range)
    report = {"schema_version": SCHEMA_VERSION, "config": cfg.to_doc(), "hypothesis": hypothesis.to_dict(),
              "constants": None, "certificate": None, "solutions": None}
    curve_paths = []

    if not hypothesis.ok:
        _finish(cfg, timer, report, curve_paths)
        return RunOutcome(EXIT_HYPOTHESIS_FAILURE, report, "; ".join(hypothesis.messages))

    try:
        with timer.time("constants"):
            constants = compute_constants(p)
        report["constants"] = constants.to_dict()

        certificate = None
        thresholds, thresholds_source = cfg.thresholds, "config"
        if cfg.mode in ("certify", "solve"):
            if thresholds is None and cfg.mode == "certify":
                with timer.time("search_thresholds"):
                    thresholds = search_thresholds(p, constants)
                thresholds_source = "searched"
            if thresholds is not None:
                thresholds = thresholds.with_gamma(constants.gamma)
                with timer.time("certify"):
                    certificate = certify(p, thresholds, constants)
                report["certificate"] = certificate.to_dict()
                report["thresholds"] = thresholds.to_dict()
                report["thresholds_source"] = thresholds_source

        if cfg.mode == "solve":
            with timer.time("solve"):
                found = find_solutions(p, thresholds, cfg.grid_n)
            curve_paths = [cfg.output_dir / f"solution_{k}.csv" for k in range(len(found))]
            with timer.time("write_solutions"):
                write_csv([result.curve for result, _ in found], curve_paths)
            report["solutions"] = [
                {
                    **cls.to_dict(),
                    "residuals": result.residuals.to_dict(),
                    "source": "newton",
                    "iterations": result.iterations,
                    "clamped_evals": result.clamped_evals,
                    "file": path.name,
                }
                for path, (result, cls) in zip(curve_paths, found)
            ]

    except (TribvpError, np.linalg.LinAlgError, FloatingPointError) as exc:
        _finish(cfg, timer, report, curve_paths)
        return RunOutcome(EXIT_NUMERICAL_FAILURE, report, str(exc))

    _finish(cfg, timer, report, curve_paths)
    if cfg.mode == "certify":
        if certificate is None:
            return RunOutcome(EXIT_CERTIFICATION_FAILURE, report, "no certifiable thresholds found")
        if not certificate.verdict:
            return RunOutcome(EXIT_CERTIFICATION_FAILURE, report, "certificate verdict is false")
    return RunOutcome(EXIT_OK, report)


def _finish(cfg: RunConfig, timer: StageTimer, report: dict, curve_paths: list) -> None:
    """Add the stage timings to the report and write report.json; if it cannot be written, remove the run's curves (curve_paths) too."""
    if cfg.include_timing:
        report["timing"] = dict(sorted(timer.stages.items()))
    try:
        dump_report(report, cfg.output_dir / "report.json")
    except OSError:
        remove_files(curve_paths)
        raise


SWEEPABLE = ("alpha", "beta", "eta")


def parse_axis(spec: str):
    """Parse an axis spec "name:lo:hi:steps" into (name, values)."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(f"axis spec must be name:lo:hi:steps, got {spec!r}")
    name, lo, hi, steps = parts
    if name not in SWEEPABLE:
        raise ConfigError(f"sweep axis must be one of {SWEEPABLE}, got {name!r}")
    try:
        lo_f, hi_f, n = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise ConfigError(f"malformed axis spec {spec!r}: {exc}") from exc
    if not (math.isfinite(lo_f) and math.isfinite(hi_f)):
        raise ConfigError(f"axis bounds must be finite numbers, got {spec!r}")
    if n < 1:
        raise ConfigError("axis needs at least one step")
    values = np.linspace(lo_f, hi_f, n) if n > 1 else np.array([lo_f])
    return name, values


def parse_axes(specs: list[str]) -> list[tuple[str, np.ndarray]]:
    """parse_axis of each spec; an axis named twice is a ConfigError, since a row holds one value per name."""
    axes = [parse_axis(spec) for spec in specs]
    names = [name for name, _ in axes]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"sweep axis {name!r} is given more than once")
    return axes


def sweep(cfg: RunConfig, axes: list[tuple[str, np.ndarray]]) -> RunOutcome:
    """Evaluate constants (and certificates, when thresholds are set) over a grid.

    Rows that violate the admissibility bounds are emitted with verdict
    "H2-fail" instead of aborting; evaluation errors inside a row are
    reported as "error", and the outcome's message gives each one's reason.
    Rows check only the bounds: T and f, and so the f check, are the same in
    every row.
    """
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    axis_names = [name for name, _ in axes]
    rows, errors = [], []
    for combo in itertools.product(*(values.tolist() for _, values in axes)):
        row = dict(zip(axis_names, combo))
        try:
            p = cfg.problem.with_params(**{name: float(v) for name, v in zip(axis_names, combo)})
            h2_alpha_ok, h2_beta_ok, _ = check_h2(p)
            if not (h2_alpha_ok and h2_beta_ok):
                row["verdict"] = "H2-fail"
            else:
                k = compute_constants(p)
                row.update(
                    {
                        "lambda": float(k.lam),
                        "gamma": float(k.gamma),
                        "m": float(k.m),
                        "delta": float(k.delta),
                    }
                )
                if cfg.thresholds is not None:
                    cert = certify(p, cfg.thresholds.with_gamma(k.gamma), k)
                    row["verdict"] = "true" if cert.verdict else "false"
                else:
                    row["verdict"] = ""
        except (TribvpError, ValueError) as exc:
            row["verdict"] = "error"
            point = ", ".join(f"{name}={format_sig(v)}" for name, v in zip(axis_names, combo))
            errors.append(f"row {len(rows) + 1} ({point}): {exc}")
        rows.append(row)
    write_sweep_csv(cfg.output_dir / "sweep.csv", axis_names, rows)
    report = {"rows": len(rows), "axes": axis_names}
    return RunOutcome(EXIT_OK, report, "\n".join(errors))
