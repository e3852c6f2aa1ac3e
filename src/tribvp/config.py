"""Run configuration: the JSON problem document and solver knobs.

Document layout::

    {
      "problem":    {"T": 1, "eta": "1/3", "alpha": 3, "beta": "1/2",
                     "f": {"kind": ..., "params": [...], ...}},
      "thresholds": {"a": "1/120", "b": 2, "c": 124},     # optional
      "solver":     {"grid_n": 2049, "picard_tol": 1e-10, ...}  # optional
    }

Numbers given as integers or strings like "1/3" are kept as exact rationals,
which is what makes the constants reproducible as exact fractions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .certify import SearchConfig, ThresholdTriple
from .errors import ConfigError, FunctionSpecError
from .functions import parse_function_spec
from .nonlinear import SolveConfig
from .numeric import parse_number, render_number
from .problem import Problem

MODES = ("constants", "certify", "solve", "sweep")

_SOLVER_KEYS = {
    "grid_n": int,
    "picard_tol": float,
    "picard_max_iter": int,
    "residual_tol": float,
    "ode_c2": float,
    "dedup_tol": float,
    "newton_tol": float,
    "newton_max_iter": int,
    "h1_u_max": float,
    "search_lo": float,
    "search_hi": float,
    "search_per_axis": int,
}


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class RunConfig:
    """Everything one batch run needs: problem, thresholds, budgets, output."""

    problem: Problem
    thresholds: ThresholdTriple | None
    mode: str
    output_dir: Path
    grid_n: int = 2049
    solver_doc: dict = field(default_factory=dict)
    include_timing: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not _is_count(self.grid_n) or self.grid_n < 65 or self.grid_n % 2 == 0:
            raise ConfigError(f"grid_n must be an odd integer >= 65, got {self.grid_n!r}")
        for key, value in self.solver_doc.items():
            if key not in _SOLVER_KEYS:
                raise ConfigError(f"unknown solver option {key!r}")
            if _SOLVER_KEYS[key] is int and not _is_count(value):
                raise ConfigError(f"solver option {key} must be an integer >= 1, got {value!r}")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"solver option {key} must be a number, got {value!r}")
            if key.endswith(("tol", "c2", "lo", "hi", "u_max")) and not value > 0:
                raise ConfigError(f"solver option {key} must be positive, got {value}")

    def solve_config(self) -> SolveConfig:
        """Solver knobs set in the document; every other field keeps its SolveConfig default."""
        knobs = {f.name for f in fields(SolveConfig)} - {"grid_n", "thresholds"}
        set_here = {key: value for key, value in self.solver_doc.items() if key in knobs}
        return SolveConfig(grid_n=self.grid_n, thresholds=self.thresholds, **set_here)

    def search_config(self) -> SearchConfig:
        """search_* keys set in the document; every other field keeps its SearchConfig default."""
        return SearchConfig(**{k.removeprefix("search_"): v for k, v in self.solver_doc.items() if k.startswith("search_")})

    def h1_u_max(self) -> float:
        if "h1_u_max" in self.solver_doc:
            return float(self.solver_doc["h1_u_max"])
        if self.thresholds is not None:
            return 2.0 * float(self.thresholds.c)
        return 10.0

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
        if self.solver_doc:
            doc["solver"] = dict(sorted(self.solver_doc.items()))
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
        if not isinstance(doc, dict) or "problem" not in doc:
            raise ConfigError("config must be an object with a 'problem' section")
        pdoc = doc["problem"]
        missing = [k for k in ("T", "eta", "alpha", "beta", "f") if k not in pdoc]
        if missing:
            raise ConfigError(f"problem section missing fields: {missing}")
        solver_doc = dict(doc.get("solver", {}))
        n = grid_n if grid_n is not None else doc.get("grid_n", solver_doc.pop("grid_n", 2049))

        t_val = parse_number(pdoc["T"])
        thresholds = None
        tdoc = doc.get("thresholds")
        if thresholds_override is not None:
            a, b, c = (parse_number(x) for x in thresholds_override)
            thresholds = ThresholdTriple.from_abc(a, b, c)
        elif tdoc is not None:
            missing = [k for k in ("a", "b", "c") if k not in tdoc]
            if missing:
                raise ConfigError(f"thresholds section missing fields: {missing}")
            thresholds = ThresholdTriple.from_abc(
                parse_number(tdoc["a"]), parse_number(tdoc["b"]), parse_number(tdoc["c"])
            )

        u_max = 2.0 * float(thresholds.c) if thresholds is not None else 10.0
        f_spec = parse_function_spec(pdoc["f"], t_max=float(t_val), u_max=u_max)
        problem = Problem(
            T=t_val,
            eta=parse_number(pdoc["eta"]),
            alpha=parse_number(pdoc["alpha"]),
            beta=parse_number(pdoc["beta"]),
            f=f_spec,
        )
    except (ValueError, FunctionSpecError) as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        problem=problem,
        thresholds=thresholds,
        mode=mode,
        output_dir=Path(output_dir),
        grid_n=n,
        solver_doc=solver_doc,
        include_timing=include_timing,
    )


def load_run_config(path, mode: str, output_dir, **kwargs) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_run_config(doc, mode, output_dir, **kwargs)
