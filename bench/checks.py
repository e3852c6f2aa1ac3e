"""Output checks for benchmark jobs.

Each check reads what one `tribvp` job wrote and returns a list of problems;
an empty list means the job passed.  A job that returns an unexpected exit
code or fails its check counts as failed.  The expected values come from
`reference.json` (recorded at the seed commit) and from `problems.lw_constants`,
never from the program's own modules.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from problems import Generated, admissible, lw_constants

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# Mirrors the program's advertised verification bounds: boundary residuals
# <= 1e-8, ODE residual <= 100 h^2, nonnegative to 1e-10, concave to 1e-8.
BC_TOL = 1e-8
ODE_C2 = 100.0
NONNEGATIVE_TOL = 1e-10
CONCAVITY_SLACK = 1e-8
LABELS = ("small", "middle", "large-min")
CONSTANT_NAMES = ("lambda", "gamma", "m", "delta")


def _number(x):
    """A report number: "p/q" strings are exact, everything else a float."""
    return Fraction(x) if isinstance(x, str) else float(x)


def _close(x, y, rel) -> bool:
    x, y = float(x), float(y)
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


def _read_report(out_dir: Path):
    try:
        return json.loads((out_dir / "report.json").read_text()), []
    except (OSError, ValueError) as exc:
        return None, [f"no readable report.json: {exc}"]


def _check_constants(report: dict, T, eta, alpha, beta, exact: bool) -> list[str]:
    expected = lw_constants(T, eta, alpha, beta)
    got = report.get("constants") or {}
    problems = []
    for name in CONSTANT_NAMES:
        entry = got.get(name) or {}
        want = expected[name]
        if exact:
            if entry.get("fraction") != str(want):
                problems.append(f"constant {name}: fraction {entry.get('fraction')!r}, expected {want}")
        elif not _close(entry.get("decimal", float("nan")), want, 1e-9):
            problems.append(f"constant {name}: {entry.get('decimal')!r}, expected {float(want)!r}")
    return problems


def _check_bounds(report: dict, expected: dict, tol: float, absolute: bool) -> list[str]:
    cert = report.get("certificate") or {}
    problems = []
    for cond, want in expected.items():
        got = (cert.get(cond) or {}).get("bound")
        want = float(_number(want))
        ok = got is not None and (abs(got - want) <= tol if absolute else _close(got, want, tol))
        if not ok:
            problems.append(f"{cond} bound {got!r}, expected {want!r}")
    return problems


def check_worked_constants(out_dir: Path, exit_code: int, config: str) -> list[str]:
    """`constants` on a worked config: exit 0 and exact constant fractions."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    report, problems = _read_report(out_dir)
    if report is None:
        return problems
    want = REFERENCE["configs"][config]["constants"]
    got = report.get("constants") or {}
    return [
        f"constant {name}: fraction {(got.get(name) or {}).get('fraction')!r}, expected {value}"
        for name, value in want.items()
        if (got.get(name) or {}).get("fraction") != value
    ]


def check_worked_certify(out_dir: Path, exit_code: int, config: str) -> list[str]:
    """`certify` on a worked config: exact constants, verdict true, acceptance bounds to 1e-9."""
    problems = check_worked_constants(out_dir, exit_code, config)
    if problems:
        return problems
    report, _ = _read_report(out_dir)
    if not (report.get("certificate") or {}).get("verdict"):
        problems.append("certificate verdict is not true")
    ref = REFERENCE["configs"][config]
    return problems + _check_bounds(report, ref["bounds"], REFERENCE["bound_tol"], absolute=True)


def check_solve(out_dir: Path, exit_code: int, config: str) -> tuple[list[str], int]:
    """`solve` on a worked config; returns (problems, number of verified solutions).

    Every reported solution must meet the residual bounds, and its CSV must be
    nonnegative, concave and match the reported norm.  Every reference
    solution must be present; extra verified solutions are allowed.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"], 0
    report, problems = _read_report(out_dir)
    if report is None:
        return problems, 0
    solutions = report.get("solutions") or []
    grid_n = report["config"]["grid_n"]
    T = float(_number(report["config"]["problem"]["T"]))
    h = T / (grid_n - 1)
    for k, sol in enumerate(solutions):
        res = sol.get("residuals") or {}
        if not (res.get("bc0_residual", 1.0) <= BC_TOL and res.get("bcT_residual", 1.0) <= BC_TOL):
            problems.append(f"solution {k}: boundary residuals {res}")
        if not res.get("ode_residual_max", 1.0) <= ODE_C2 * h * h:
            problems.append(f"solution {k}: ODE residual {res.get('ode_residual_max')!r} > {ODE_C2 * h * h!r}")
        if sol.get("label") not in LABELS:
            problems.append(f"solution {k}: label {sol.get('label')!r}")
        try:
            u = np.loadtxt(out_dir / sol["file"], delimiter=",", skiprows=1)[:, 1]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"solution {k}: unreadable curve: {exc}")
            continue
        if u.size != grid_n or not np.all(np.isfinite(u)):
            problems.append(f"solution {k}: curve has {u.size} finite-checked nodes, expected {grid_n}")
            continue
        if u.min() < -NONNEGATIVE_TOL or sol.get("min_full", -1.0) < -NONNEGATIVE_TOL:
            problems.append(f"solution {k}: negative (min {u.min()!r})")
        if np.max(u[:-2] - 2.0 * u[1:-1] + u[2:]) > CONCAVITY_SLACK:
            problems.append(f"solution {k}: not concave")
        if not _close(np.max(np.abs(u)), sol.get("norm", float("nan")), 1e-12):
            problems.append(f"solution {k}: curve sup norm does not match reported norm")
    problems += missing_references(solutions, config)
    return problems, len(solutions)


def missing_references(solutions: list[dict], config: str) -> list[str]:
    ref = REFERENCE["configs"][config]
    scale_floor = float(Fraction(ref["a"]))
    rel = REFERENCE["rel_tol"]
    problems = []
    for want in ref["solutions"]:
        tol = rel * max(abs(want["norm"]), scale_floor)
        if not any(
            s.get("label") == want["label"] and abs(s.get("norm", float("inf")) - want["norm"]) <= tol
            for s in solutions
        ):
            problems.append(f"reference {want['label']} solution (norm {want['norm']!r}) not found")
    return problems


def check_generated(out_dir: Path, exit_code: int, gen: Generated) -> list[str]:
    """`certify` on a generated problem: exit 0 (verdict true) or 4 (false or no thresholds found).

    Constants must match the closed forms, and each reported growth bound must
    equal m*a, b/delta and m*c for the thresholds the report carries.
    """
    if exit_code not in (0, 4):
        return [f"exit code {exit_code}, expected 0 or 4"]
    report, problems = _read_report(out_dir)
    if report is None:
        return problems
    if not (report.get("hypothesis") or {}).get("ok"):
        problems.append("hypothesis check failed on an admissible problem")
    problems += _check_constants(report, gen.T, gen.eta, gen.alpha, gen.beta, gen.exact)
    cert = report.get("certificate")
    source = "config" if "thresholds" in gen.doc else "searched"
    if cert is None:
        if source == "config" or exit_code != 4:
            problems.append("no certificate")
        return problems
    if report.get("thresholds_source") != source:
        problems.append(f"thresholds_source {report.get('thresholds_source')!r}, expected {source!r}")
    if (exit_code == 0) != bool(cert.get("verdict")):
        problems.append(f"exit code {exit_code} disagrees with verdict {cert.get('verdict')!r}")
    tt = {name: _number(report["thresholds"][name]) for name in ("a", "b", "c")}
    k = lw_constants(gen.T, gen.eta, gen.alpha, gen.beta)
    expected = {"d1": k["m"] * tt["a"], "d2": tt["b"] / k["delta"], "d3": k["m"] * tt["c"]}
    return problems + _check_bounds(report, expected, 1e-9, absolute=False)


def check_sweep(out_dir: Path, exit_code: int, config: str, rows_expected: int) -> list[str]:
    """`sweep`: every row's H2 flag and constants agree with the closed forms."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    doc = json.loads((ROOT / REFERENCE["configs"][config]["path"]).read_text())["problem"]
    T, eta = float(_number(doc["T"])), float(_number(doc["eta"]))
    try:
        with open(out_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"no readable sweep.csv: {exc}"]
    problems = [] if len(rows) == rows_expected else [f"{len(rows)} sweep rows, expected {rows_expected}"]
    for i, row in enumerate(rows):
        alpha = float(row.get("alpha") or _number(doc["alpha"]))
        beta = float(row.get("beta") or _number(doc["beta"]))
        if not admissible(T, eta, alpha, beta):
            if row["verdict"] != "H2-fail":
                problems.append(f"row {i}: verdict {row['verdict']!r} on an inadmissible point")
            continue
        if row["verdict"] not in ("true", "false"):
            problems.append(f"row {i}: verdict {row['verdict']!r}")
            continue
        want = lw_constants(T, eta, alpha, beta)
        for name in CONSTANT_NAMES:
            if not _close(row[name], want[name], 1e-9):
                problems.append(f"row {i}: {name} {row[name]}, expected {want[name]!r}")
    return problems
