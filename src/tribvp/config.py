"""Run configuration: the JSON problem document and the grid size.

Document layout::

    {
      "problem":    {"T": 1, "eta": "1/3", "alpha": 3, "beta": "1/2",
                     "f": {"kind": ..., "params": [...], ...}},
      "thresholds": {"a": "1/120", "b": 2, "c": 124},     # optional
      "solver":     {"grid_n": 2049}                      # optional, or top-level, not both
    }

Numbers given as integers or strings like "1/3" are kept as exact rationals,
which is what makes the constants reproducible as exact fractions.  Solver
tolerances are module constants, so no document loosens what counts as verified.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .certify import ThresholdTriple
from .errors import ConfigError, FunctionSpecError
from .functions import F_CHECK_U_MAX, Range, parse_function_spec_with_range
from .nonlinear import DEFAULT_GRID_N
from .numeric import parse_field, render_number
from .problem import Problem

MODES = ("constants", "certify", "solve", "sweep")


def f_check_u_max(thresholds: ThresholdTriple | None) -> float:
    """u range of the f >= 0 checks, at construction and for H1: 2c, or F_CHECK_U_MAX without thresholds."""
    return 2.0 * thresholds.floats[2] if thresholds is not None else F_CHECK_U_MAX


def _parse_thresholds(tdoc) -> ThresholdTriple:
    """a, b and c of a thresholds object, each finite and positive; their ordering is a certify verdict."""
    if not isinstance(tdoc, dict):
        raise ConfigError(f"thresholds section must be an object, got {tdoc!r}")
    missing = [k for k in "abc" if k not in tdoc]
    if missing:
        raise ConfigError(f"thresholds section missing fields: {missing}")
    values = [parse_field(tdoc[k], f"thresholds.{k}") for k in "abc"]
    for name, value in zip("abc", values):
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"threshold {name} must be finite and positive, got {value}")
    return ThresholdTriple(*values)


@dataclass(frozen=True)
class RunConfig:
    """Everything one batch run needs: problem, thresholds, grid size, output.

    f_range is the range of problem.f on [0, T] x [0, f_check_u_max(thresholds)]
    that parse_run_config's construction check took, so that the run's f
    hypothesis reuses it; None makes the run bound that box itself.
    """

    problem: Problem
    thresholds: ThresholdTriple | None
    mode: str
    output_dir: Path
    grid_n: int = DEFAULT_GRID_N
    include_timing: bool = True
    f_range: Range | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        n = self.grid_n
        if not isinstance(n, int) or isinstance(n, bool) or n < 65 or n % 2 == 0:
            raise ConfigError(f"grid_n must be an odd integer >= 65, got {n!r}")

    def to_doc(self) -> dict:
        p = self.problem
        doc = {
            "problem": {
                "T": render_number(p.T),
                "eta": render_number(p.eta),
                "alpha": render_number(p.alpha),
                "beta": render_number(p.beta),
                "f": p.f.to_config() if p.f is not None else None,
            },
            "mode": self.mode,
            "output_dir": str(self.output_dir),
            "grid_n": self.grid_n,
        }
        if self.thresholds is not None:
            doc["thresholds"] = self.thresholds.to_dict()
        return doc


def parse_run_config(
    doc: dict,
    mode: str,
    output_dir,
    grid_n: int | None = None,
    thresholds_override: tuple | None = None,
    include_timing: bool = True,
) -> RunConfig:
    """Validate and normalize a configuration document."""
    try:
        if not isinstance(doc, dict) or not isinstance(doc.get("problem"), dict):
            raise ConfigError("config must be an object whose 'problem' section is an object")
        pdoc = doc["problem"]
        missing = [k for k in ("T", "eta", "alpha", "beta", "f") if k not in pdoc]
        if missing:
            raise ConfigError(f"problem section missing fields: {missing}")
        solver_doc = doc.get("solver", {})
        if not isinstance(solver_doc, dict):
            raise ConfigError(f"solver section must be an object, got {solver_doc!r}")
        unknown = sorted(solver_doc.keys() - {"grid_n"})
        if unknown:
            raise ConfigError(f"unknown solver option {unknown[0]!r}")
        if "grid_n" in doc and "grid_n" in solver_doc:
            raise ConfigError("grid_n is set twice, at the top level and as solver.grid_n")
        n = grid_n if grid_n is not None else doc.get("grid_n", solver_doc.get("grid_n", DEFAULT_GRID_N))

        t_val = parse_field(pdoc["T"], "problem.T")
        tdoc = doc.get("thresholds") if thresholds_override is None else dict(zip("abc", thresholds_override))
        thresholds = None if tdoc is None else _parse_thresholds(tdoc)

        f_spec, f_range = parse_function_spec_with_range(pdoc["f"], t_max=float(t_val), u_max=f_check_u_max(thresholds))
        problem = Problem(
            T=t_val,
            eta=parse_field(pdoc["eta"], "problem.eta"),
            alpha=parse_field(pdoc["alpha"], "problem.alpha"),
            beta=parse_field(pdoc["beta"], "problem.beta"),
            f=f_spec,
        )
    except (ValueError, OverflowError, FunctionSpecError) as exc:  # OverflowError: a rational beyond float range
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        problem=problem,
        thresholds=thresholds,
        mode=mode,
        output_dir=Path(output_dir),
        grid_n=n,
        include_timing=include_timing,
        f_range=f_range,
    )


def load_run_config(path, mode: str, output_dir, **kwargs) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 (RFC 8259), whatever the locale
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, or nesting too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_run_config(doc, mode, output_dir, **kwargs)
