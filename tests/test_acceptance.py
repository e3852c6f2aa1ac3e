"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines; each test fails loudly if its criterion is not met.
"""

import json
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from tribvp import (
    SolutionCurve,
    ThresholdTriple,
    certify,
    compute_constants,
    cone_membership,
    lambda_constant,
    solve_linear,
)
from tribvp.config import parse_run_config
from tribvp.functions import NEGATIVE_U_TOL, PiecewiseU, RationalSigmoid
from tribvp.nonlinear import DEFAULT_GRID_N, find_solutions, newton_solutions
from tribvp.runner import run

from conftest import (
    EXP_PIECES,
    make_exp_piecewise_problem,
    make_sigmoid_problem,
    random_nonnegative_load,
    random_valid_problem,
)
from oracles import apply_operator_A, check_gamma_bound, picard_solutions, shooting_residual, solve_linear_oracle

N = 2049
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def linear_suite():
    """200 random (problem, load, solution) triples at n = 2049."""
    rng = np.random.default_rng(987654321)
    suite = []
    for _ in range(200):
        p = random_valid_problem(rng)
        y = random_nonnegative_load(float(p.T), N, rng)
        suite.append((p, y, solve_linear(p, y)))
    return suite


@pytest.fixture(scope="module")
def sigmoid_search():
    """The heavy multi-start run, shared by the multiplicity criteria."""
    p = make_sigmoid_problem()
    tt = ThresholdTriple(F(1, 120), F(2), F(124)).with_gamma(F(1, 4))
    start = time.perf_counter()
    picard = picard_solutions(p, tt, DEFAULT_GRID_N)
    newton = newton_solutions(p, tt, DEFAULT_GRID_N)
    combined = find_solutions(p, tt)
    elapsed = time.perf_counter() - start
    return {
        "problem": p,
        "picard": picard,
        "newton": newton,
        "combined": combined,
        "elapsed": elapsed,
    }


def test_criterion_01_constants_exact_fractions():
    k1 = compute_constants(make_sigmoid_problem())
    assert (k1.gamma, k1.m, k1.delta) == (F(1, 4), F(1, 3), F(4, 45))
    assert all(isinstance(v, F) for v in (k1.gamma, k1.m, k1.delta))
    k2 = compute_constants(make_exp_piecewise_problem())
    assert (k2.gamma, k2.m, k2.delta) == (F(1, 4), F(4, 25), F(1, 8))
    assert all(isinstance(v, F) for v in (k2.gamma, k2.m, k2.delta))
    print(
        "CRITERION 1 PASS: constants exact -- "
        f"sigmoid ({k1.gamma}, {k1.m}, {k1.delta}), exp-piecewise ({k2.gamma}, {k2.m}, {k2.delta})"
    )


def test_criterion_02_lambda_exact_fractions():
    # independently derived by substituting the parameters into the
    # structural-constant formula with exact rationals (see oracle below)
    def oracle(T, eta, alpha, beta):
        return (2 * T - alpha * eta**2) - beta * (alpha * eta**2 - 2 * eta + 2 * T)

    p1, p2 = make_sigmoid_problem(), make_exp_piecewise_problem()
    assert oracle(F(1), F(1, 3), F(3), F(1, 2)) == F(5, 6)
    assert oracle(F(1), F(1, 2), F(1), F(1)) == F(1, 2)
    assert lambda_constant(p1) == F(5, 6)
    assert lambda_constant(p2) == F(1, 2)
    print("CRITERION 2 PASS: structural constant exact -- 5/6 and 1/2")


def test_criterion_03_certification_regression():
    start = time.perf_counter()
    p1 = make_sigmoid_problem()
    cert1 = certify(p1, ThresholdTriple(F(1, 120), F(2), F(124)).with_gamma(F(1, 4)), compute_constants(p1))
    p2 = make_exp_piecewise_problem()
    cert2 = certify(p2, ThresholdTriple(F(1, 4), F(4), F(544)).with_gamma(F(1, 4)), compute_constants(p2))
    elapsed = time.perf_counter() - start
    assert cert1.verdict and cert2.verdict
    assert abs(cert1.d1.bound - 1.0 / 360.0) <= 1e-9
    assert abs(cert1.d2.bound - 22.5) <= 1e-9
    assert abs(cert1.d3.bound - 124.0 / 3.0) <= 1e-9
    assert abs(cert2.d2.bound - 32.0) <= 1e-9
    assert abs(cert2.d3.bound - 87.04) <= 1e-9
    assert elapsed < 5.0
    print(
        "CRITERION 3 PASS: both problems certify true "
        f"(bounds 1/360, 22.5, 124/3; 32, 87.04) in {elapsed:.2f}s"
    )


def test_criterion_04_solver_vs_oracle_and_convergence(linear_suite):
    start = time.perf_counter()
    worst = 0.0
    for p, y, u in linear_suite:
        u_oracle = solve_linear_oracle(p, y)
        worst = max(worst, float(np.max(np.abs(u.values - u_oracle.values))))
    assert worst <= 1e-8

    # order check against the constant-load closed form (quadratic): the
    # quadrature is exact there, so accept a roundoff-floor error as
    # "order 2 or better"; otherwise require the ratio
    p = make_sigmoid_problem()
    errors = {}
    for n in (1025, 2049):
        u = solve_linear(p, SolutionCurve.constant(1.0, 1.0, n))
        t = u.nodes
        exact = -(t**2) / 2 + (26.0 / 45.0) * t + 37.0 / 270.0
        errors[n] = float(np.max(np.abs(u.values - exact)))
    floor = 1e-13
    ratio = errors[1025] / max(errors[2049], 1e-300)
    assert errors[2049] <= floor or ratio >= 3.5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"CRITERION 4 PASS: 200-sample oracle agreement {worst:.2e} <= 1e-8; "
        f"closed-form error {errors[2049]:.1e} at roundoff floor (exact quadrature) in {elapsed:.1f}s"
    )


def test_criterion_05_cone_property_suite(linear_suite):
    for p, _, u in linear_suite:
        assert u.min_value() >= -NEGATIVE_U_TOL
        assert check_gamma_bound(u, float(compute_constants(p).gamma), float(p.eta)).ok
    rng = np.random.default_rng(1357)
    for p in (make_sigmoid_problem(), make_exp_piecewise_problem()):
        for _ in range(100):
            u = solve_linear(p, random_nonnegative_load(1.0, 1025, rng))
            au = apply_operator_A(p, u)
            assert cone_membership(au).ok
    print(
        "CRITERION 5 PASS: nonnegativity + tail-minimum bound on 200 random "
        "solutions; operator maps 100 random cone elements into the cone on both problems"
    )


def test_criterion_06_multiplicity_exhibit(sigmoid_search):
    found = sigmoid_search["combined"]
    assert len(found) >= 3, f"expected at least 3 distinct solutions, found {len(found)}"
    curves = [r.curve for r, _ in found]
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            sep = float(np.max(np.abs(curves[i].values - curves[j].values)))
            assert sep > 1e-3, f"solutions {i} and {j} separated by only {sep}"
    for result, _ in found:
        h = result.curve.h
        assert result.residuals.ode_residual_max <= 100.0 * h * h
        assert result.residuals.bc0_residual <= 1e-8
        assert result.residuals.bcT_residual <= 1e-8
    labels = {cls.label for _, cls in found}
    assert {"small", "large-min", "middle"} <= labels, f"labels found: {labels}"
    # f(t, 0) = 0 here, so the small solution is u = 0, written as exact zeros
    assert [(cls.label, cls.trivial) for _, cls in found] == [("small", True), ("middle", False), ("large-min", False)]
    assert not found[0][0].curve.values.any()
    assert sigmoid_search["elapsed"] < 120.0
    norms = sorted(round(cls.norm, 6) for _, cls in found)

    # table_positive.json has f(t, 0) = 1/1000 > 0: its three certified solutions are all strictly positive
    cfg = parse_run_config(json.loads((CONFIG_DIR / "table_positive.json").read_text()), "solve", Path("unused"))
    k = compute_constants(cfg.problem)
    tt = cfg.thresholds.with_gamma(k.gamma)
    assert certify(cfg.problem, tt, k).verdict
    positive = find_solutions(cfg.problem, tt, cfg.grid_n)
    assert [cls.label for _, cls in positive] == ["small", "middle", "large-min"]
    assert all(cls.min_full > 0 and not cls.trivial for _, cls in positive)
    print(
        f"CRITERION 6 PASS: {len(found)} verified solutions with norms {norms}, "
        f"labels {sorted(labels)}, in {sigmoid_search['elapsed']:.1f}s; the small one trivial; "
        f"table_positive.json: 3 solutions, min_full >= {min(cls.min_full for _, cls in positive):.3g}"
    )


def test_criterion_07_route_cross_validation(sigmoid_search):
    picard = sigmoid_search["picard"]
    newton = sigmoid_search["newton"]
    assert picard and newton
    # every attracting fixed point reached by iteration must be matched by a
    # Newton solution; matched pairs agree well inside 1e-6.  The middle
    # solution is a repelling fixed point, so only Newton can reach it.
    matched_pairs = 0
    for pr in picard:
        dists = [float(np.max(np.abs(pr.curve.values - nr.curve.values))) for nr in newton]
        best = min(dists)
        assert best <= 1e-6, f"iteration solution with norm {pr.curve.sup_norm()} unmatched ({best})"
        matched_pairs += 1
    assert matched_pairs >= 2  # the zero and the large solution at minimum

    # Both routes solve the same discrete equation u = A u.  RK4 integration of
    # the ODE from each reported solution's initial data is independent of it:
    # it must meet both boundary conditions and retrace the curve.
    worst_bc = worst_gap = 0.0
    for result, _ in sigmoid_search["combined"]:
        u, h = result.curve.values, result.curve.h
        slope = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
        shot = shooting_residual(sigmoid_search["problem"], float(u[0]), float(slope), n=u.size)
        assert not shot.blew_up
        bc = max(abs(shot.r1), abs(shot.r2))
        gap = float(np.max(np.abs(shot.curve.values - u)))
        assert bc <= 1e-6, f"RK4 boundary residual {bc} for the solution with norm {result.curve.sup_norm()}"
        assert gap <= 1e-6 * max(1.0, result.curve.sup_norm()), f"RK4 trajectory {gap} off the curve"
        worst_bc, worst_gap = max(worst_bc, bc), max(worst_gap, gap)
    print(
        f"CRITERION 7 PASS: all {matched_pairs} iteration-route solutions matched "
        f"by Newton within 1e-6; RK4 re-integration of all {len(sigmoid_search['combined'])} "
        f"solutions: boundary residuals <= {worst_bc:.1e}, trajectory gap <= {worst_gap:.1e}"
    )


def test_criterion_08_function_catalog():
    f1 = RationalSigmoid(scale=F(40))
    assert f1(0, F(2)) == F(32)
    assert f1(0, F(1, 120)) == F(40, 14401)

    h = PiecewiseU(pieces=EXP_PIECES)
    for bp in (F(1), F(4), F(544)):
        idx = [p.until for p in EXP_PIECES[:-1]].index(bp)
        left = EXP_PIECES[idx].evaluate(bp)
        right = EXP_PIECES[idx + 1].evaluate(bp)
        assert abs(float(left) - float(right)) <= 1e-9
    # the final breakpoint: both branches evaluate to exactly 23751/272,
    # so there is no discrepancy to report
    left = EXP_PIECES[3].evaluate(F(546))
    right = EXP_PIECES[4].evaluate(F(546))
    assert left == right == F(23751, 272)
    assert h(0, F(546)) == F(23751, 272)
    print(
        "CRITERION 8 PASS: sigmoid values exact (32, 40/14401); piecewise "
        "continuous at 1, 4, 544; branch values at 546 exactly equal (23751/272)"
    )


def test_criterion_09_deterministic_reports(tmp_path):
    runs = [("certify", name) for name in ("sigmoid.json", "exp_piecewise.json")]
    runs += [("solve", name) for name in ("sigmoid.json", "exp_piecewise.json", "table_positive.json")]
    for mode, name in runs:
        doc = json.loads((CONFIG_DIR / name).read_text())
        out = tmp_path / mode / name.removesuffix(".json")
        cfg = parse_run_config(doc, mode, out, include_timing=False)
        outputs = []
        for _ in range(2):
            run(cfg)
            files = [out / "report.json", *sorted(out.glob("solution_*.csv"))]
            outputs.append({f.name: f.read_bytes() for f in files})
            for f in files:
                f.unlink()
        assert outputs[0] == outputs[1], f"{mode} outputs for {name} not byte-identical"
        assert mode == "certify" or len(outputs[0]) > 1, f"solve on {name} wrote no solution CSV"
    print("CRITERION 9 PASS: repeated runs produce byte-identical reports and solution CSVs (timing excluded)")
