from fractions import Fraction as F

import numpy as np
import pytest

from tribvp import (
    Problem,
    SolutionCurve,
    SolveConfig,
    ThresholdTriple,
    apply_operator_A,
    classify_solution,
    cone_membership,
    find_solutions,
    picard_iterate,
    shooting_residual,
    solve_linear,
    solve_linear_oracle,
)
from tribvp.grid import cumulative_simpson, partial_integral
from tribvp import linear, nonlinear
from tribvp.linear import LinearPlan, residuals
from tribvp.nonlinear import (
    FixedPointResult,
    _dedup,
    _fixed_point_residual,
    _jacobian_matvec,
    _load,
    newton_solutions,
)
from tribvp.errors import FunctionDomainError
from tribvp.functions import ConstantF, PolynomialU

from conftest import make_exp_piecewise_problem, make_sigmoid_problem, random_nonnegative_load

N = 2049


def zero_f_problem() -> Problem:
    # the zero nonlinearity violates the non-vanishing hypothesis; it is
    # used here only to exercise the operator plumbing on a known case
    return Problem(T=F(1), eta=F(1, 3), alpha=F(3), beta=F(1, 2), f=ConstantF(value=F(0)))


def test_psi_trivials():
    # psi(u) = min u, the concave functional of the Leggett-Williams cone
    assert SolutionCurve.constant(5.0, 1.0, 65).min_value() == 5.0
    t = np.linspace(0.0, 1.0, 65)
    assert SolutionCurve(0.0, 1.0, t).min_value() == 0.0


def test_psi_is_concave_functional(rng):
    for _ in range(25):
        u = random_nonnegative_load(1.0, 129, rng)
        v = random_nonnegative_load(1.0, 129, rng)
        lam = rng.uniform()
        mix = SolutionCurve(0.0, 1.0, lam * u.values + (1 - lam) * v.values)
        assert mix.min_value() >= lam * u.min_value() + (1 - lam) * v.min_value() - 1e-12
        assert u.min_value() <= u.sup_norm()


def test_cone_membership_trivials():
    assert cone_membership(SolutionCurve.constant(1.0, 1.0, 65)).ok
    t = np.linspace(0.0, 1.0, 65)
    convex = cone_membership(SolutionCurve(0.0, 1.0, t**2))
    assert not convex.ok and convex.violations[0][0] == "convex"
    negative = cone_membership(SolutionCurve(0.0, 1.0, t - 0.5))
    assert not negative.ok and negative.violations[0][0] == "negative"


def test_operator_zero_nonlinearity():
    p = zero_f_problem()
    au = apply_operator_A(p, SolutionCurve.constant(7.0, 1.0, N))
    assert au.sup_norm() == 0.0


def test_operator_positive_inside_interval():
    p = make_sigmoid_problem()
    au = apply_operator_A(p, SolutionCurve.constant(1.0, 1.0, N))
    assert np.all(au.values[1:-1] > 0.0)
    au0 = apply_operator_A(p, SolutionCurve.constant(0.0, 1.0, N))
    assert au0.sup_norm() == 0.0


def test_operator_is_delegated_linear_solve(rng):
    p = make_sigmoid_problem()
    u = solve_linear(p, random_nonnegative_load(1.0, N, rng))
    au = apply_operator_A(p, u)
    y = SolutionCurve(0.0, 1.0, p.f(u.nodes, np.maximum(u.values, 0.0)))
    direct = solve_linear(p, y)
    assert np.max(np.abs(au.values - direct.values)) < 1e-12


def test_operator_matches_four_term_transcription(rng):
    # same four-term expression written with the opposite sign convention:
    # leading minus signs over +Lambda instead of the solver's -Lambda
    p = make_sigmoid_problem()
    T, eta, alpha, beta = p.floats()
    from tribvp.problem import lambda_constant

    lam = float(lambda_constant(p))
    for _ in range(5):
        u = solve_linear(p, random_nonnegative_load(1.0, N, rng))
        au = apply_operator_A(p, u)
        t = u.nodes
        h = u.h
        fv = p.f(t, np.maximum(u.values, 0.0))
        i1 = partial_integral((eta - t) * fv, h, eta)
        i2 = partial_integral((eta - t) ** 2 * fv, h, eta)
        cum = cumulative_simpson(fv, h)
        cum_s = cumulative_simpson(t * fv, h)
        conv = t * cum - cum_s
        i3 = conv[-1]
        transcription = (
            -(beta * (2 * T - alpha * eta**2) - 2 * beta * (1 - alpha * eta) * t) / lam * i1
            - (alpha * beta * eta - alpha * (beta - 1) * t) / lam * i2
            - (2 * (beta - 1) * t - 2 * beta * eta) / lam * i3
            - conv
        )
        assert np.max(np.abs(au.values - transcription)) < 1e-10


def test_operator_preserves_cone(rng):
    for p in (make_sigmoid_problem(), make_exp_piecewise_problem()):
        for _ in range(20):
            u = solve_linear(p, random_nonnegative_load(1.0, 1025, rng))
            assert cone_membership(u).ok
            au = apply_operator_A(p, u)
            assert cone_membership(au).ok


def test_operator_rejects_negative_input():
    p = make_sigmoid_problem()
    bad = SolutionCurve(0.0, 1.0, np.full(N, -1.0))
    with pytest.raises(Exception):
        apply_operator_A(p, bad)


def test_picard_zero_nonlinearity_converges_immediately():
    p = zero_f_problem()
    result = picard_iterate(p, SolutionCurve.constant(1.0, 1.0, N), 1e-10, 50)
    # one application lands exactly on the fixed point; the stopping rule
    # needs a second to observe a zero update
    assert result.converged and result.iterations <= 2
    assert result.curve.sup_norm() == 0.0


def test_picard_from_large_start():
    p = make_sigmoid_problem()
    result = picard_iterate(p, SolutionCurve.constant(50.0, 1.0, N), 1e-10, 500)
    assert result.converged
    assert result.curve.sup_norm() == pytest.approx(12.0504, abs=1e-3)
    h = result.curve.h
    assert result.residuals.ode_residual_max <= 100.0 * h * h
    assert result.residuals.bc0_residual <= 1e-8 and result.residuals.bcT_residual <= 1e-8


def test_picard_from_tiny_start_finds_zero_solution():
    p = make_sigmoid_problem()
    result = picard_iterate(p, SolutionCurve.constant(1e-3, 1.0, N), 1e-10, 500)
    assert result.converged
    assert result.curve.sup_norm() < 1e-10
    assert result.residuals.ode_residual_max <= 1e-8


def test_shooting_zero_nonlinearity_trivials():
    p = zero_f_problem()
    shot = shooting_residual(p, 0.0, 0.0, n=513)
    assert shot.r1 == 0.0 and shot.r2 == 0.0 and not shot.blew_up
    shot1 = shooting_residual(p, 1.0, 0.0, n=513)
    # u stays at 1: r1 = 1 - beta, r2 = 1 - alpha*eta
    assert shot1.r1 == pytest.approx(1.0 - 0.5, abs=1e-12)
    assert shot1.r2 == pytest.approx(1.0 - 3.0 / 3.0, abs=1e-12)


def test_shooting_agrees_with_picard_fixed_point():
    p = make_sigmoid_problem()
    fixed = picard_iterate(p, SolutionCurve.constant(50.0, 1.0, N), 1e-12, 500)
    u0 = float(fixed.curve.values[0])
    s0 = float((fixed.curve.values[1] - fixed.curve.values[0]) / fixed.curve.h)
    # refine the slope estimate with a one-sided second-order difference
    v = fixed.curve.values
    s0 = float((-3 * v[0] + 4 * v[1] - v[2]) / (2 * fixed.curve.h))
    shot = shooting_residual(p, u0, s0, n=N)
    assert abs(shot.r1) < 1e-6 and abs(shot.r2) < 1e-6


def test_shooting_blowup_flagged():
    # strong constant push with a huge start blows past the guard
    p = make_sigmoid_problem().with_params(f=ConstantF(value=F(10)))
    shot = shooting_residual(p, 1e9 * 0.9, 1e9, n=257)
    assert shot.blew_up
    assert np.isinf(shot.r1) and np.isinf(shot.r2)


def test_newton_jacobian_first_order_against_central():
    p = make_sigmoid_problem()
    u0, s0 = 5.0, 20.0
    n = 513

    def r(u, s):
        shot = shooting_residual(p, u, s, n=n)
        return np.array([shot.r1, shot.r2])

    def forward_jac(d):
        base = r(u0, s0)
        return np.column_stack([(r(u0 + d, s0) - base) / d, (r(u0, s0 + d) - base) / d])

    def central_jac(d):
        return np.column_stack(
            [
                (r(u0 + d, s0) - r(u0 - d, s0)) / (2 * d),
                (r(u0, s0 + d) - r(u0, s0 - d)) / (2 * d),
            ]
        )

    d = 1e-4
    err_d = np.max(np.abs(forward_jac(d) - central_jac(d / 2)))
    err_half = np.max(np.abs(forward_jac(d / 2) - central_jac(d / 4)))
    ratio = err_d / err_half
    assert 1.5 < ratio < 3.0  # forward differences are first-order accurate


def test_classification_trivials():
    tt = ThresholdTriple.from_abc(1.0, 4.0, 100.0, 0.25)
    small = classify_solution(SolutionCurve.constant(0.5, 1.0, 65), tt)
    assert small.label == "small"
    large = classify_solution(SolutionCurve.constant(8.0, 1.0, 65), tt)
    assert large.label == "large-min"
    t = np.linspace(0.0, 1.0, 65)
    middle_curve = SolutionCurve(0.0, 1.0, 2.0 + t)  # norm 3 > a, min 2 < b
    middle = classify_solution(middle_curve, tt, eta=0.5)
    assert middle.label == "middle"
    assert middle.min_tail == pytest.approx(2.5)
    edge = classify_solution(SolutionCurve.constant(1.0, 1.0, 65), tt)
    assert edge.label == "unclassified"  # norm exactly a satisfies no predicate


def test_dedup_merges_and_keeps_better_residual():
    from tribvp.linear import ResidualReport

    base = np.linspace(1.0, 2.0, 65)

    def result(values, ode):
        return FixedPointResult(
            curve=SolutionCurve(0.0, 1.0, values),
            converged=True,
            iterations=1,
            final_update_norm=0.0,
            residuals=ResidualReport(ode, 0.0, 0.0),
            source="picard",
        )

    good = result(base, 1e-12)
    close = result(base + 1e-7, 1e-6)
    far = result(base + 1.0, 1e-12)
    kept = _dedup([close, good, far], dedup_tol=1e-4)
    assert len(kept) == 2
    assert any(r.residuals.ode_residual_max == 1e-12 and r.curve.values[0] == 1.0 for r in kept)


def test_find_solutions_zero_nonlinearity_returns_zero_only():
    p = zero_f_problem()
    cfg = SolveConfig(grid_n=513)
    found = find_solutions(p, cfg)
    assert len(found) == 1
    result, cls = found[0]
    assert result.curve.sup_norm() < 1e-9
    assert cls.label == "unclassified"  # no thresholds configured


def test_find_solutions_exp_problem_two_verified(exp_thresholds):
    p = make_exp_piecewise_problem()
    cfg = SolveConfig(grid_n=1025, thresholds=exp_thresholds)
    found = find_solutions(p, cfg)
    assert len(found) >= 2
    labels = {cls.label for _, cls in found}
    assert "small" in labels and "large-min" in labels
    for result, _ in found:
        h = result.curve.h
        assert result.residuals.ode_residual_max <= 100.0 * h * h
        assert result.residuals.bc0_residual <= 1e-8
        assert result.residuals.bcT_residual <= 1e-8
        assert cone_membership(result.curve).ok


def test_solution_matrix_reproduces_the_linear_solve(rng):
    p = make_sigmoid_problem()
    n = 257
    G = LinearPlan(p, n)(np.eye(n))
    for _ in range(10):
        y = random_nonnegative_load(1.0, n, rng)
        assert np.max(np.abs(G @ y.values - solve_linear(p, y).values)) <= 1e-12


def test_newton_jacobian_vector_product_matches_central_difference(rng):
    p = make_sigmoid_problem()
    plan = LinearPlan(p, N)
    u = solve_linear(p, random_nonnegative_load(1.0, N, rng)).values
    v = rng.uniform(-1.0, 1.0, N)
    eps = 1e-6
    central = (_fixed_point_residual(p, plan, u + eps * v) - _fixed_point_residual(p, plan, u - eps * v)) / (2 * eps)
    jv = _jacobian_matvec(p, plan, u)(v)
    assert np.max(np.abs(jv - central)) <= 1e-7 * np.max(np.abs(central))


def test_newton_zero_nonlinearity_has_exactly_one_root():
    roots = newton_solutions(zero_f_problem(), SolveConfig(grid_n=513))
    assert len(roots) == 1
    assert roots[0].curve.sup_norm() == 0.0


def test_singular_jacobian_drops_only_its_start(monkeypatch, sigmoid_thresholds):
    solve = np.linalg.solve
    calls = []

    def fail_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", fail_first)
    found = find_solutions(make_sigmoid_problem(), SolveConfig(thresholds=sigmoid_thresholds))
    assert len(calls) > 1
    assert {"small", "middle", "large-min"} <= {cls.label for _, cls in found}


def test_oracle_route_agreement_on_operator(rng):
    # the operator built on the closed form agrees with one built on the
    # independent construction, for in-cone inputs
    p = make_sigmoid_problem()
    u = solve_linear(p, random_nonnegative_load(1.0, N, rng))
    y = SolutionCurve(0.0, 1.0, _load(p, u.nodes, u.values))
    assert np.max(np.abs(solve_linear(p, y).values - solve_linear_oracle(p, y).values)) < 1e-8


def u40_problem() -> Problem:
    # f = u^40 overflows to inf once an iterate passes about 5e7
    return Problem(T=F(1), eta=F(1, 3), alpha=F(3), beta=F(1, 2), f=PolynomialU(coeffs=(F(0),) * 40 + (F(1),)))


def test_find_solutions_computes_lambda_once_per_grid_size(monkeypatch, sigmoid_thresholds):
    # a work count, not a timing: the linear setup is built once per grid, not per solve
    calls = []
    original = linear.lambda_constant
    monkeypatch.setattr(linear, "lambda_constant", lambda p: calls.append(p) or original(p))
    found = find_solutions(make_sigmoid_problem(), SolveConfig(thresholds=sigmoid_thresholds))
    assert len(found) == 3
    assert len(calls) == 2  # COARSE_N and grid_n


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_picard_drops_a_start_where_f_overflows():
    p = u40_problem()
    with pytest.raises(FunctionDomainError, match="not finite"):
        picard_iterate(p, SolutionCurve.constant(100.0, 1.0, 129), 1e-10, 50)
    kept = nonlinear.picard_solutions(p, SolveConfig(grid_n=129))
    assert kept and all(r.curve.sup_norm() == 0.0 for r in kept)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_newton_polish_drops_a_root_where_f_overflows(monkeypatch):
    p = u40_problem()
    t = np.linspace(0.0, 1.0, nonlinear.COARSE_N)
    roots = [(np.full(t.size, 1e10), 0), (np.zeros(t.size), 0)]
    monkeypatch.setattr(nonlinear, "_coarse_roots", lambda p, cfg: (t, roots))
    kept = newton_solutions(p, SolveConfig(grid_n=129))
    assert [r.curve.sup_norm() for r in kept] == [0.0]


def test_picard_rejects_a_start_off_the_problem_interval():
    with pytest.raises(ValueError, match=r"\[0, T\]"):
        picard_iterate(make_sigmoid_problem(), SolutionCurve.constant(1.0, 2.0, 129), 1e-10, 5)
