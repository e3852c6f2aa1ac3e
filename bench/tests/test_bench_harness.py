"""Tests for the benchmark harness itself: generator, output checks, metric list."""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from layers import Tracer  # noqa: E402
from problems import generate_batch, lw_constants  # noqa: E402

from tribvp.config import parse_run_config  # noqa: E402
from tribvp.problem import validate_hypotheses  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    first = [g.doc for g in generate_batch(7, 40)]
    assert first == [g.doc for g in generate_batch(7, 40)]
    assert first != [g.doc for g in generate_batch(8, 40)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_problems_satisfy_h2_and_the_gamma_domain(seed, tmp_path):
    batch = generate_batch(seed, 60)
    assert sum("thresholds" in g.doc for g in batch) == 36
    assert any(not g.exact for g in batch) and any(g.exact for g in batch)
    for g in batch:
        T, eta, alpha, beta = g.T, g.eta, g.alpha, g.beta
        assert 0 < eta < T
        assert 0 < alpha < 2 * T / eta**2
        assert 0 < beta < (2 * T - alpha * eta**2) / (alpha * eta**2 - 2 * eta + 2 * T)
        assert alpha * (beta + 1) * eta**2 < 2 * T
        # what the program reads from the config is the same point, and it agrees
        cfg = parse_run_config(g.doc, "certify", tmp_path)
        assert float(cfg.problem.alpha) == float(alpha) and float(cfg.problem.beta) == float(beta)
        hyp = validate_hypotheses(cfg.problem)
        assert hyp.h2_alpha_ok and hyp.h2_beta_ok, g.name


def _write_solve_output(out: Path, norms: dict[str, float], residual: float = 0.0, bump: bool = False):
    """A solve report with one concave curve per (label, norm), peaking at t = 1/2."""
    out.mkdir(parents=True, exist_ok=True)
    n = 2049
    t = np.linspace(0.0, 1.0, n)
    solutions = []
    for k, (label, norm) in enumerate(norms.items()):
        u = norm * (1.0 - (t - 0.5) ** 2)
        if bump:
            u[100] += 1e-3 * max(norm, 1.0)
        np.savetxt(out / f"solution_{k}.csv", np.column_stack([t, u]), delimiter=",", header="t,u", comments="")
        solutions.append(
            {
                "label": label,
                "norm": float(np.max(np.abs(u))),
                "min_full": float(u.min()),
                "residuals": {"ode_residual_max": 0.0, "bc0_residual": residual, "bcT_residual": 0.0},
                "file": f"solution_{k}.csv",
            }
        )
    report = {"config": {"grid_n": n, "problem": {"T": "1"}}, "solutions": solutions}
    (out / "report.json").write_text(json.dumps(report))


def _reference_norms(config):
    return {s["label"]: s["norm"] for s in checks.REFERENCE["configs"][config]["solutions"]}


def test_solve_check_accepts_the_reference_and_rejects_perturbed_solutions(tmp_path):
    norms = _reference_norms("sigmoid")
    _write_solve_output(tmp_path / "ok", norms)
    assert checks.check_solve(tmp_path / "ok", 0, "sigmoid") == ([], 3)

    off = dict(norms, middle=norms["middle"] * (1 + 1e-4))
    _write_solve_output(tmp_path / "norm", off)
    problems, _ = checks.check_solve(tmp_path / "norm", 0, "sigmoid")
    assert any("reference middle" in p for p in problems)

    _write_solve_output(tmp_path / "bump", norms, bump=True)
    problems, _ = checks.check_solve(tmp_path / "bump", 0, "sigmoid")
    assert any("not concave" in p for p in problems)

    _write_solve_output(tmp_path / "bc", norms, residual=1e-6)
    problems, _ = checks.check_solve(tmp_path / "bc", 0, "sigmoid")
    assert any("boundary residuals" in p for p in problems)

    assert checks.check_solve(tmp_path / "ok", 5, "sigmoid")[0]


def test_solve_check_allows_extra_solutions(tmp_path):
    norms = dict(_reference_norms("exp_piecewise"), middle=1.0804)
    _write_solve_output(tmp_path, norms)
    assert checks.check_solve(tmp_path, 0, "exp_piecewise") == ([], 3)


def _write_certify_output(out: Path, config: str, constants=None, bounds=None):
    ref = checks.REFERENCE["configs"][config]
    constants = {**ref["constants"], **(constants or {})}
    bounds = {**{k: float(F(v)) for k, v in ref["bounds"].items()}, **(bounds or {})}
    report = {
        "constants": {k: {"decimal": float(F(v)), "fraction": v} for k, v in constants.items()},
        "certificate": {"verdict": True, **{k: {"bound": v} for k, v in bounds.items()}},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report))


@pytest.mark.parametrize("config", ["sigmoid", "exp_piecewise"])
def test_certify_check_rejects_a_wrong_constant_or_bound(config, tmp_path):
    _write_certify_output(tmp_path / "ok", config)
    assert checks.check_worked_certify(tmp_path / "ok", 0, config) == []

    _write_certify_output(tmp_path / "gamma", config, constants={"gamma": "1/5"})
    assert checks.check_worked_certify(tmp_path / "gamma", 0, config)

    _write_certify_output(tmp_path / "d3", config, bounds={"d3": float(F(checks.REFERENCE["configs"][config]["bounds"]["d3"])) + 1e-6})
    assert checks.check_worked_certify(tmp_path / "d3", 0, config)


def test_generated_check_rejects_a_wrong_constant(tmp_path):
    gen = next(g for g in generate_batch(3, 10) if g.exact and "thresholds" in g.doc)
    k = lw_constants(gen.T, gen.eta, gen.alpha, gen.beta)
    tt = {name: F(gen.doc["thresholds"][name]) for name in "abc"}
    report = {
        "hypothesis": {"ok": True},
        "constants": {name: {"decimal": float(v), "fraction": str(v)} for name, v in k.items()},
        "thresholds": {name: str(v) for name, v in tt.items()},
        "thresholds_source": "config",
        "certificate": {
            "verdict": False,
            "d1": {"bound": float(k["m"] * tt["a"])},
            "d2": {"bound": float(tt["b"] / k["delta"])},
            "d3": {"bound": float(k["m"] * tt["c"])},
        },
    }
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert checks.check_generated(tmp_path, 4, gen) == []
    assert checks.check_generated(tmp_path, 0, gen)  # exit code disagrees with the verdict

    report["constants"]["m"]["fraction"] = str(k["m"] * F(1001, 1000))
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert any("constant m" in p for p in checks.check_generated(tmp_path, 4, gen))


def test_tracer_restores_the_program_functions():
    import tribvp.nonlinear as nonlinear
    import tribvp.runner as runner

    original = runner.find_solutions
    with Tracer().installed():
        assert runner.find_solutions is not original
        assert nonlinear.find_solutions is runner.find_solutions
    assert runner.find_solutions is original and nonlinear.find_solutions is original


def test_job_times_are_per_job_medians_scaled_by_host_speed():
    def rec(name, wall, speed=1.0):
        return run.JobRecord(name, wall, wall / 2, speed, False, [], 0, None)

    # b's third run met a host at half speed: scaled, it reads as its others
    records = [rec("a", 3.0), rec("b", 1.0), rec("a", 2.0), rec("b", 1.0), rec("a", 2.0), rec("b", 2.0, 0.5)]
    metrics = run.end_to_end(records, setup_s=0.1)
    assert metrics["job_s"] == 1.5 and metrics["cpu_s"] == 0.75
    assert metrics["job_tail_s"] == 2.0
    assert metrics["jobs_per_s"] == 2 / 3.0
    assert run.tail(list(range(1, 13))) == 2


def test_host_speed_factor_follows_the_probe():
    from hostspeed import REFERENCE_S, SENSITIVITY, HostSpeed

    host = HostSpeed()
    host.samples = [REFERENCE_S] * 30
    mark = host.mark()
    host.samples += [2 * REFERENCE_S] * 40  # the host ran at half speed
    assert host.since(mark)[0] == pytest.approx(0.5**SENSITIVITY)
    assert host.since(host.mark())[0] == pytest.approx(0.5**SENSITIVITY)  # no probe since: the last ones stand in


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
