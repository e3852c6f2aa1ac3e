import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from tribvp import (
    Problem,
    SolutionCurve,
    ThresholdTriple,
    classify_solution,
    cone_membership,
    find_solutions,
    solve_linear,
)
from tribvp.grid import cumulative_simpson, interp_cubic, partial_integral
from tribvp import linear, nonlinear
from tribvp.linear import LinearPlan, ResidualReport
from tribvp.nonlinear import (
    DEDUP_TOL,
    FixedPointResult,
    _distinct,
    _fixed_point_residual,
    _jacobian_matvec,
    _load,
    _newton,
    newton_solutions,
)
from tribvp.certify import certify, search_thresholds
from tribvp.config import parse_run_config
from tribvp.constants import compute_constants
from tribvp.errors import FunctionDomainError
from tribvp.functions import (
    NEGATIVE_U_TOL,
    ExpDecay,
    Piece,
    PiecewiseLinearTable,
    PiecewiseU,
    PolynomialU,
    ProductF,
    RationalSigmoid,
)

from conftest import EXP_PIECES, make_exp_piecewise_problem, make_sigmoid_problem, random_nonnegative_load
from oracles import apply_operator_A, picard_iterate, picard_solutions, shooting_residual, solve_linear_oracle

N = 2049


def zero_f_problem() -> Problem:
    # the zero nonlinearity violates the non-vanishing hypothesis; it is
    # used here only to exercise the operator plumbing on a known case
    return Problem(T=F(1), eta=F(1, 3), alpha=F(3), beta=F(1, 2), f=PolynomialU(coeffs=(F(0),)))


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
    T, eta, alpha, beta = p.floats
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
    p = make_sigmoid_problem().with_params(f=PolynomialU(coeffs=(F(10),)))
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
    tt = ThresholdTriple(1.0, 4.0, 100.0).with_gamma(0.25)
    small = classify_solution(SolutionCurve.constant(0.5, 1.0, 65), tt, 0.5)
    assert small.label == "small"
    large = classify_solution(SolutionCurve.constant(8.0, 1.0, 65), tt, 0.5)
    assert large.label == "large-min"
    t = np.linspace(0.0, 1.0, 65)
    middle_curve = SolutionCurve(0.0, 1.0, 2.0 + t)  # norm 3 > a, min 2 < b
    middle = classify_solution(middle_curve, tt, 0.5)
    assert middle.label == "middle"
    assert middle.min_tail == pytest.approx(2.5)
    edge = classify_solution(SolutionCurve.constant(1.0, 1.0, 65), tt, 0.5)
    assert edge.label == "unclassified"  # norm exactly a satisfies no predicate


def test_distinct_keeps_the_first_root_in_norm_order(monkeypatch):
    base = np.linspace(1.0, 2.0, 65)

    def result(values):
        return FixedPointResult(SolutionCurve(0.0, 1.0, values), 1, ResidualReport(0.0, 0.0, 0.0), 0)

    first, near, far = result(base), result(base + 1e-7), result(base + 1.0)
    monkeypatch.setattr(nonlinear, "newton_solutions", lambda p, thresholds, grid_n: [near, far, first])
    kept = [r for r, _ in find_solutions(zero_f_problem(), None, 65)]
    assert kept[0] is first and kept[1] is far and len(kept) == 2  # first precedes near in (norm, min) order
    assert _distinct(np.array([base + 1e-7, base])) == [0]  # given order, not norm order, picks the kept row


def test_distinct_counts_a_distance_at_the_tolerance_as_the_same_root():
    zero = np.zeros(65)  # tolerance DEDUP_TOL * max(1, 0) = DEDUP_TOL, reached exactly by a shift of DEDUP_TOL
    assert _distinct(np.array([zero, zero + DEDUP_TOL])) == [0]
    assert _distinct(np.array([zero, zero + np.nextafter(DEDUP_TOL, 1.0)])) == [0, 1]
    assert _distinct(np.array([])) == [] and _distinct(np.empty((0, 65))) == []


def test_find_solutions_zero_nonlinearity_returns_zero_only():
    p = zero_f_problem()
    found = find_solutions(p, None, 513)
    assert len(found) == 1
    result, cls = found[0]
    assert result.curve.sup_norm() < 1e-9
    assert cls.label == "unclassified"  # no thresholds configured


def test_find_solutions_exp_problem_two_verified(exp_thresholds):
    p = make_exp_piecewise_problem()
    found = find_solutions(p, exp_thresholds, 1025)
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
    roots = newton_solutions(zero_f_problem(), None, 513)
    assert len(roots) == 1
    assert roots[0].curve.sup_norm() == 0.0


def _spy_newton(monkeypatch):
    """Record the residual, step and start block of every _newton call, and its result."""
    calls = []
    newton = nonlinear._newton

    def spy(residual, step, U):
        calls.append({"residual": residual, "step": step, "U": U, "result": newton(residual, step, U)})
        return calls[-1]["result"]

    monkeypatch.setattr(nonlinear, "_newton", spy)
    return calls


def test_newton_rows_never_mix(monkeypatch, sigmoid_thresholds):
    calls = _spy_newton(monkeypatch)
    nonlinear._coarse_roots(make_sigmoid_problem(), sigmoid_thresholds)
    residual, step = calls[0]["residual"], calls[0]["step"]

    def uneven_step(U, R):
        # Newton's step except on two extra rows far below every iterate of the search:
        # where max u < -1e5 it points uphill, so every halving fails and the row stops where
        # it is; where -1e5 <= max u < -1e3 it is a hundredth of Newton's, so the row spends
        # its whole iteration budget
        dU, top = step(U, R), U.max(axis=1)
        dU[top < -1e5] *= -1.0
        dU[(top >= -1e5) & (top < -1e3)] *= 0.01
        return dU

    # the search's Jacobian block holds one matrix per start, so two starts make way for the extra rows
    starts = np.vstack([calls[0]["U"][:-2], np.full((2, nonlinear.COARSE_N), [[-1e6], [-1e4]])])
    U, rnorm, iterations, _ = _newton(residual, uneven_step, starts)
    assert iterations[-2] == 0 and iterations[-1] == nonlinear.NEWTON_MAX_ITER
    assert np.all(rnorm[:-2] <= nonlinear.NEWTON_TOL * np.maximum(1.0, np.max(np.abs(U[:-2]), axis=1)))
    for i, u0 in enumerate(starts):
        (u,), (r,), (k,), _ = _newton(residual, uneven_step, u0[None])
        assert np.array_equal(u, U[i]) and r == rnorm[i] and k == iterations[i], i


def test_newton_returns_the_residual_rows_of_its_final_block(monkeypatch, sigmoid_thresholds):
    calls = _spy_newton(monkeypatch)
    nonlinear._coarse_roots(make_sigmoid_problem(), sigmoid_thresholds)
    U, _, _, R = calls[0]["result"]
    assert np.array_equal(R, calls[0]["residual"](U))  # bit for bit, though each row was evaluated in its own block


def test_classify_without_thresholds_is_unclassified():
    curve = SolutionCurve(0.0, 1.0, np.linspace(1.0, 2.0, 5))
    cls = classify_solution(curve, None, 0.5)
    assert (cls.label, cls.norm, cls.min_full, cls.min_tail) == ("unclassified", 2.0, 1.0, 1.5)


def test_singular_jacobian_drops_only_its_start(monkeypatch, sigmoid_thresholds):
    # One start's Jacobian is singular at its first step, in the block solve and in the
    # row-by-row fallback alike.  Only that start is dropped; every other start runs bit
    # for bit as without the fault.  The dropped start is the first to reach the middle root.
    p, tt = make_sigmoid_problem(), sigmoid_thresholds
    calls = _spy_newton(monkeypatch)
    _, expected = nonlinear._coarse_roots(p, tt)
    U, rnorm, iterations, _ = calls[0]["result"]
    middle = sorted(expected, key=lambda root: np.max(root[0]))[1][0]
    j = next(i for i, u in enumerate(U) if np.array_equal(u, middle))

    solve = np.linalg.solve
    singular = []

    def fail_on_start_j(a, b):
        if not singular:
            assert len(a) == len(U)  # the first call solves every start at once
            singular.append(a[j].copy())
        if any(np.array_equal(m, singular[0]) for m in a):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fail_on_start_j)
    _, found = nonlinear._coarse_roots(p, tt)
    U1, rnorm1, iterations1, _ = calls[1]["result"]
    others = np.arange(len(U)) != j
    assert rnorm1[j] == np.inf and iterations1[j] == 0
    assert np.array_equal(U1[others], U[others]) and np.array_equal(rnorm1[others], rnorm[others])
    assert np.array_equal(iterations1[others], iterations[others])
    assert not any(np.array_equal(u, middle) for u, _ in found)
    assert len(found) == len(expected)  # a later start reaches the middle root
    for u, k in found:
        assert any(np.array_equal(u, v) and k == n for v, n in zip(U[others], iterations[others]))


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
    found = find_solutions(make_sigmoid_problem(), sigmoid_thresholds)
    assert len(found) == 3
    assert len(calls) == 2  # COARSE_N and grid_n


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_picard_drops_a_start_where_f_overflows():
    p = u40_problem()
    with pytest.raises(FunctionDomainError, match="not finite"):
        picard_iterate(p, SolutionCurve.constant(100.0, 1.0, 129), 1e-10, 50)
    kept = picard_solutions(p, None, 129)
    assert kept and all(r.curve.sup_norm() == 0.0 for r in kept)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_newton_polish_drops_a_root_where_f_overflows(monkeypatch):
    p = u40_problem()
    t = np.linspace(0.0, 1.0, nonlinear.COARSE_N)
    roots = [(np.full(t.size, 1e10), 0), (np.zeros(t.size), 0)]
    monkeypatch.setattr(nonlinear, "_coarse_roots", lambda p, thresholds: (t, roots))
    kept = newton_solutions(p, None, 129)
    assert [r.curve.sup_norm() for r in kept] == [0.0]


def test_picard_rejects_a_start_off_the_problem_interval():
    with pytest.raises(ValueError, match=r"\[0, T\]"):
        picard_iterate(make_sigmoid_problem(), SolutionCurve.constant(1.0, 2.0, 129), 1e-10, 5)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _worked_docs() -> list[dict]:
    """Both worked configs, and table_positive.json, whose three solutions are all positive."""
    names = ("sigmoid.json", "exp_piecewise.json", "table_positive.json")
    return [json.loads((CONFIG_DIR / name).read_text()) for name in names]


@pytest.mark.parametrize("doc", _worked_docs(), ids=["sigmoid", "exp_piecewise", "table"])
def test_find_solutions_loses_no_picard_root(doc, tmp_path):
    # Picard reaches the attracting fixed points by iteration alone; the Newton route must report each one
    run_cfg = parse_run_config(doc, "solve", tmp_path)
    p = run_cfg.problem
    tt, n = run_cfg.thresholds.with_gamma(compute_constants(p).gamma), run_cfg.grid_n
    picard = picard_solutions(p, tt, n)
    found = [result.curve.values for result, _ in find_solutions(p, tt, n)]
    assert picard
    for pr in picard:
        u = pr.curve.values
        gap = min(float(np.max(np.abs(u - v))) for v in found)
        assert gap <= 1e-9 * max(1.0, pr.curve.sup_norm()), (pr.curve.sup_norm(), gap)


def _problem_and_thresholds(doc, tmp_path):
    run_cfg = parse_run_config(doc, "solve", tmp_path)
    p = run_cfg.problem
    return p, run_cfg.thresholds.with_gamma(compute_constants(p).gamma)


def _proven_zero(p: Problem, u: np.ndarray) -> bool:
    """The root newton_solutions reports without a hand-off or a polish: exact zeros of a proven f(., 0) = 0."""
    return p.zero_is_solution and not u.any()


def _polished_roots(p: Problem, roots):
    """The coarse roots that newton_solutions hands to _polish, in order."""
    return [(u, k) for u, k in roots if not _proven_zero(p, u)]


@pytest.mark.parametrize("doc", _worked_docs(), ids=["sigmoid", "exp_piecewise", "table"])
def test_cubic_hand_off_leaves_at_most_one_full_grid_newton_step(doc, tmp_path, monkeypatch):
    # a work count, not a timing: a coarse root interpolated cubically starts inside the fine quadratic basin
    p, tt = _problem_and_thresholds(doc, tmp_path)
    _, roots = nonlinear._coarse_roots(p, tt)
    roots = _polished_roots(p, roots)
    calls = _spy_newton(monkeypatch)
    found = [r for r in newton_solutions(p, tt, 2049) if not _proven_zero(p, r.curve.values)]
    polished = calls[1:]  # one polish per coarse root but the proven u = 0, in the order of the roots
    assert found and len(polished) == len(roots)
    for r in found:
        i = int(np.argmin([np.max(np.abs(c["result"][0][0] - r.curve.values)) for c in polished]))
        steps = int(polished[i]["result"][2][0])
        assert r.iterations - roots[i][1] == steps <= 1, (r.curve.sup_norm(), steps)


@pytest.mark.parametrize("grid_n", [65, 1025, 2049])
@pytest.mark.parametrize("doc", _worked_docs(), ids=["sigmoid", "exp_piecewise", "table"])
def test_one_hand_off_stencil_prolongs_each_root_as_interp_cubic_does(doc, grid_n, tmp_path, monkeypatch):
    p, tt = _problem_and_thresholds(doc, tmp_path)
    t, roots = nonlinear._coarse_roots(p, tt)
    roots = _polished_roots(p, roots)
    prolonged = []
    polish = nonlinear._polish
    monkeypatch.setattr(nonlinear, "_polish", lambda p, plan, u, k: prolonged.append(u) or polish(p, plan, u, k))
    newton_solutions(p, tt, grid_n)
    fine_t = LinearPlan(p, grid_n).t
    assert len(prolonged) == len(roots) >= 2
    for v, (u, _) in zip(prolonged, roots):
        assert np.array_equal(v, interp_cubic(u, t[1], fine_t))  # bit for bit


@pytest.mark.parametrize("doc", _worked_docs(), ids=["sigmoid", "exp_piecewise", "table"])
def test_coarse_grid_size_does_not_pick_the_roots(doc, tmp_path, monkeypatch):
    p, tt = _problem_and_thresholds(doc, tmp_path)
    default = find_solutions(p, tt, 1025)
    monkeypatch.setattr(nonlinear, "COARSE_N", 65)
    finer = find_solutions(p, tt, 1025)
    assert [cls.label for _, cls in finer] == [cls.label for _, cls in default]
    for (r, _), (s, _) in zip(default, finer):
        gap = float(np.max(np.abs(r.curve.values - s.curve.values)))
        assert gap <= 1e-11 * max(1.0, r.curve.sup_norm()), (r.curve.sup_norm(), gap)


def _counting_work(monkeypatch, grid_n):
    """Count full-grid LinearPlan applications and GMRES matvecs."""
    work = {"plan": 0, "matvec": 0}
    call, gmres = LinearPlan.__call__, nonlinear._gmres

    def counted_call(plan, v):
        work["plan"] += plan.t.size == grid_n
        return call(plan, v)

    def counted_gmres(matvec, b, floor):
        def counted(v):
            work["matvec"] += 1
            return matvec(v)

        return gmres(counted, b, floor)

    monkeypatch.setattr(LinearPlan, "__call__", counted_call)
    monkeypatch.setattr(nonlinear, "_gmres", counted_gmres)
    return work


@pytest.mark.parametrize(
    "doc, plan_calls, matvecs", zip(_worked_docs(), (13, 12, 13), (7, 7, 6)), ids=["sigmoid", "exp_piecewise", "table"]
)
def test_polish_work_per_solve(doc, plan_calls, matvecs, tmp_path, monkeypatch):
    # a work count, not a timing: GMRES stops at the Newton target, A u is not applied again, and
    # verification reads the plan's stencils
    p, tt = _problem_and_thresholds(doc, tmp_path)
    work = _counting_work(monkeypatch, 2049)
    assert find_solutions(p, tt, 2049)
    assert work["plan"] <= plan_calls and work["matvec"] <= matvecs, work


@pytest.mark.parametrize("doc, total", zip(_worked_docs(), (12, 2, 5)), ids=["sigmoid", "exp_piecewise", "table"])
def test_newton_iterations_per_solve(doc, total, tmp_path):
    # a work count, not a timing: coarse and full-grid Newton steps over all reported roots
    p, tt = _problem_and_thresholds(doc, tmp_path)
    assert sum(r.iterations for r, _ in find_solutions(p, tt, 2049)) <= total


@pytest.mark.parametrize("grid_n", [1025, 2049])
@pytest.mark.parametrize("doc", _worked_docs(), ids=["sigmoid", "exp_piecewise", "table"])
def test_inexact_newton_costs_no_newton_step(doc, grid_n, tmp_path, monkeypatch):
    # GMRES solved to GMRES_RTOL alone, as before the floor, gives the same roots and steps
    p, tt = _problem_and_thresholds(doc, tmp_path)
    inexact = find_solutions(p, tt, grid_n)
    gmres = nonlinear._gmres
    monkeypatch.setattr(nonlinear, "_gmres", lambda matvec, b, floor: gmres(matvec, b, 0.0))
    exact = find_solutions(p, tt, grid_n)
    assert [cls.label for _, cls in inexact] == [cls.label for _, cls in exact]
    for (r, _), (s, _) in zip(inexact, exact):
        assert (r.iterations, r.clamped_evals) == (s.iterations, s.clamped_evals)
        gap = float(np.max(np.abs(r.curve.values - s.curve.values)))
        assert gap <= 1e-12 * max(1.0, s.curve.sup_norm()), (s.curve.sup_norm(), gap)


def _gmres_without_floor(matvec, b):
    """GMRES as it was before its floor, kept as the reference for the bits."""
    beta = float(np.linalg.norm(b))
    m = nonlinear.GMRES_RESTART
    V, H = [b / beta], np.zeros((m + 1, m))
    cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
    g[0] = beta
    for j in range(m):
        w = matvec(V[j])
        for i in range(j + 1):
            H[i, j] = w @ V[i]
            w -= H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        for i in range(j):
            H[i, j], H[i + 1, j] = cs[i] * H[i, j] + sn[i] * H[i + 1, j], cs[i] * H[i + 1, j] - sn[i] * H[i, j]
        rho = math.hypot(H[j, j], H[j + 1, j])
        cs[j], sn[j] = H[j, j] / rho, H[j + 1, j] / rho
        H[j, j] = rho
        g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
        if abs(g[j + 1]) <= nonlinear.GMRES_RTOL * beta:
            break
        V.append(w / H[j + 1, j])
    k = j + 1
    y = np.zeros(k)
    for i in reversed(range(k)):
        y[i] = (g[i] - H[i, i + 1 : k] @ y[i + 1 :]) / H[i, i]
    return sum(yi * vi for yi, vi in zip(y, V))


def test_gmres_meets_its_stopping_bound_and_keeps_its_bits_without_a_floor(rng):
    n = 16
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    bnorm = float(np.linalg.norm(b))
    steps = []
    for floor in (0.0, 1e-3 * bnorm, 1e-6 * bnorm, 1e-9 * bnorm):
        products = []
        x = nonlinear._gmres(lambda v: products.append(v) or A @ v, b, floor)
        steps.append(len(products))
        assert np.linalg.norm(b - A @ x) <= max(nonlinear.GMRES_RTOL * bnorm, floor), floor
    assert steps[1] < steps[2] < steps[3] <= steps[0]  # a higher floor stops sooner
    assert np.array_equal(nonlinear._gmres(lambda v: A @ v, b, 0.0), _gmres_without_floor(lambda v: A @ v, b))


def test_exp_small_solution_counts_the_clamps_of_its_final_iterate(exp_thresholds):
    # the final A u is no longer applied, but its clamps are still counted; this root is u = 0, which
    # the coarse search hands over as exact zeros and newton_solutions reports without a polish
    found = find_solutions(make_exp_piecewise_problem(), exp_thresholds)
    small = [r for r, cls in found if cls.label == "small"]
    assert [r.clamped_evals for r in small] == [0]


@pytest.mark.parametrize("doc", _worked_docs()[:2], ids=["sigmoid", "exp_piecewise"])
def test_the_small_solution_of_a_zero_at_zero_f_is_exact_zeros(doc, tmp_path):
    # f(t, 0) = 0 on both worked configs: u = 0 solves them exactly, and it is reported as exact zeros
    p, tt = _problem_and_thresholds(doc, tmp_path)
    assert p.zero_is_solution
    found = find_solutions(p, tt)
    assert [(cls.label, cls.trivial) for _, cls in found][0] == ("small", True)
    assert not any(cls.trivial for _, cls in found[1:])
    small = found[0][0]
    assert not small.curve.values.any() and small.clamped_evals == 0
    assert small.residuals == ResidualReport(0.0, 0.0, 0.0)


def test_a_near_zero_root_of_an_f_positive_at_zero_is_polished_as_found(monkeypatch):
    # f = 1e-12 > 0 at u = 0: the one root, u = 1e-12 A1, is below NEWTON_ACCEPT_TOL but is no zero, and
    # the coarse search hands it over as Newton left it
    p = Problem(T=F(1), eta=F(1, 3), alpha=F(3), beta=F(1, 2), f=PolynomialU(coeffs=(F(1, 10**12),)))
    assert not p.zero_is_solution
    calls = _spy_newton(monkeypatch)
    _, roots = nonlinear._coarse_roots(p, None)
    U, rnorm, _, _ = calls[0]["result"]
    assert len(roots) == 1 and 0.0 < np.max(roots[0][0]) <= nonlinear.NEWTON_ACCEPT_TOL
    assert any(np.array_equal(roots[0][0], u) for u in U[nonlinear._accepted(U, rnorm)])
    (result, cls), = find_solutions(p, None, 513)
    assert cls.min_full > 0 and not cls.trivial
    expected = LinearPlan(p, 513)(np.full(513, 1e-12))
    assert np.max(np.abs(result.curve.values - expected)) <= 1e-12 * np.max(expected)


ZERO_AT_ZERO_FORMS = {  # catalog forms with f(t, 0) = 0, which Problem.zero_is_solution proves
    "sigmoid": RationalSigmoid(scale=F(40)),
    "exp-product": ProductF(time_factor=ExpDecay(rate=F(1)), u_factor=PiecewiseU(pieces=EXP_PIECES)),
    "polynomial": PolynomialU(coeffs=(F(0), F(1), F(2))),
    "piecewise": PiecewiseU(pieces=(Piece(F(1), "linear", (F(3), F(0))), Piece(None, "constant", (F(3),)))),
    "table": PiecewiseLinearTable(table=((F(0), F(0)), (F(2), F(4)))),
}


def _with_coarse_zero_root(monkeypatch, iterations):
    """Make _coarse_roots hand newton_solutions one root of exact zeros; returns the _polish calls made."""
    t = np.linspace(0.0, 1.0, nonlinear.COARSE_N)
    monkeypatch.setattr(nonlinear, "_coarse_roots", lambda p, tt: (t, [(np.zeros(t.size), iterations)]))
    polished, polish = [], nonlinear._polish
    monkeypatch.setattr(nonlinear, "_polish", lambda *args: polished.append(args) or polish(*args))
    return polished


def _bits(r: FixedPointResult):
    """Every field of a result, with each float as its bit pattern, so that -0.0 and 0.0 differ."""
    rep = r.residuals
    curve = (r.curve.t0.hex(), r.curve.t1.hex(), r.curve.values.dtype, r.curve.values.tobytes())
    residuals = (rep.ode_residual_max.hex(), rep.bc0_residual.hex(), rep.bcT_residual.hex())
    return curve, r.iterations, r.clamped_evals, residuals


@pytest.mark.parametrize("n", [65, 2049])
@pytest.mark.parametrize("form", sorted(ZERO_AT_ZERO_FORMS))
def test_the_proven_zero_root_is_reported_as_polish_would_report_it(form, n, monkeypatch):
    p = Problem(T=F(1), eta=F(1, 3), alpha=F(3), beta=F(1, 2), f=ZERO_AT_ZERO_FORMS[form])
    assert p.zero_is_solution
    polished = _with_coarse_zero_root(monkeypatch, 3)
    (shortcut,) = newton_solutions(p, None, n)
    assert polished == []  # the full-grid Newton did not run
    gated = nonlinear._polish(p, LinearPlan(p, n), np.zeros(n), 3)
    assert gated is not None and _bits(shortcut) == _bits(gated)


def test_an_exact_zero_root_of_an_unproven_f_still_goes_through_polish(monkeypatch):
    # f = 1e-12 > 0 at u = 0: zeros are no fixed point, so the gate, not the shortcut, decides the root
    p = Problem(T=F(1), eta=F(1, 3), alpha=F(3), beta=F(1, 2), f=PolynomialU(coeffs=(F(1, 10**12),)))
    assert not p.zero_is_solution
    polished = _with_coarse_zero_root(monkeypatch, 0)
    found = newton_solutions(p, None, 129)
    assert len(polished) == 1 and not polished[0][2].any()
    (result,) = found  # A 0 = 1e-12 A 1, the fixed point, not the zeros the shortcut would report
    assert result.curve.values.min() > 0.0


# The problems of bench/problems.py's generate_batch(1, 320) that certify, by number: at n = 1025 each
# reports small, middle and large-min, except those that lack large-min or middle (ROADMAP item 3).
CERTIFIED = (
    "004 006 008 010 012 014 016 022 024 026 030 032 034 036 038 041 042 048 058 062 064 068 070 072 074 076 078 088 "
    "090 092 094 096 098 100 102 105 108 110 112 116 118 120 122 124 128 134 136 138 142 146 148 152 156 160 164 172 "
    "174 180 182 186 188 194 196 198 200 206 215 216 220 228 232 240 244 245 246 248 253 256 258 260 262 268 270 272 "
    "278 279 280 284 295 296 300 302 304 312 314 316"
)
NO_LARGE_MIN = (
    "004 006 010 014 016 022 024 030 032 034 036 058 062 064 070 088 094 100 108 110 116 128 134 146 164 172 174 180 "
    "188 194 198 228 244 246 258 262 268 278 302 312 314"
)
NO_MIDDLE = "041 105 215 245 253 279 295"


def test_labels_and_counts_of_the_certified_generated_problems(tmp_path, monkeypatch):
    # both families have f(t, 0) = 0, so every small solution is u = 0, written as exact zeros
    monkeypatch.syspath_prepend(str(CONFIG_DIR.parent / "bench"))
    from problems import generate_batch

    expected = {f"gen{k}": ["small", "middle", "large-min"] for k in CERTIFIED.split()}
    expected.update({f"gen{k}": ["small", "middle"] for k in NO_LARGE_MIN.split()})
    expected.update({f"gen{k}": ["small", "large-min"] for k in NO_MIDDLE.split()})
    labels = {}
    for g in generate_batch(1, 320):
        cfg = parse_run_config(g.doc, "solve", tmp_path)
        p, k = cfg.problem, compute_constants(cfg.problem)
        tt = search_thresholds(p, k) if cfg.thresholds is None else cfg.thresholds
        if tt is None or not certify(p, tt.with_gamma(k.gamma), k).verdict:
            continue
        found = find_solutions(p, tt.with_gamma(k.gamma), 1025)
        labels[g.name] = [cls.label for _, cls in found]
        assert [cls.trivial for _, cls in found] == [not r.curve.values.any() for r, _ in found], g.name
        assert [cls.trivial for _, cls in found] == [True] + [False] * (len(found) - 1), g.name
    assert labels == expected


def test_zero_is_solution_is_proved_once_per_solve(monkeypatch, exp_thresholds):
    p = make_exp_piecewise_problem()
    boxes = []
    range_of = type(p.f).range
    monkeypatch.setattr(type(p.f), "range", lambda f, *box: boxes.append(box) or range_of(f, *box))
    find_solutions(p, exp_thresholds, 129)
    assert boxes == [(0.0, 1.0, 0.0, 0.0)]


def test_polish_counts_the_clamps_of_its_final_iterate_and_reuses_its_residual(monkeypatch):
    # A zigzag final iterate with 64 nodes at -1e-13 is no fixed point: the gate reports nothing for it
    p, n = make_sigmoid_problem(), 129
    plan = LinearPlan(p, n)
    final = np.where(np.arange(n) % 2, -1e-13, 0.5)

    def newton(residual, step, U):
        R = residual(final[None])
        return final[None], np.max(np.abs(R), axis=1), np.zeros(1, dtype=int), R

    monkeypatch.setattr(nonlinear, "_newton", newton)
    assert nonlinear._polish(p, plan, np.zeros(n), 0) is None
    monkeypatch.undo()

    # From the constant 1e-8, one Newton step reaches the exp config's zero root with negative nodes,
    # and it is reported: its clamps are those of every F(u) the polish evaluated, plus those of
    # Newton's final u for the reported A u, which is u - F(u) bit for bit
    p = make_exp_piecewise_problem()
    plan = LinearPlan(p, nonlinear.DEFAULT_GRID_N)
    clamps, residual = [], nonlinear._fixed_point_residual

    def counted(p, plan, u):
        clamps.append(np.count_nonzero(u < 0.0))
        return residual(p, plan, u)

    monkeypatch.setattr(nonlinear, "_fixed_point_residual", counted)
    calls = _spy_newton(monkeypatch)
    result = nonlinear._polish(p, plan, np.full(plan.t.size, 1e-8), 0)
    (u,), _, (iterations,), (fu,) = calls[0]["result"]
    assert iterations == 1 and np.count_nonzero(u < 0.0) > 0
    assert result.clamped_evals == sum(clamps) + np.count_nonzero(u < 0.0)
    assert np.array_equal(result.curve.values, u - fu)


def test_cone_membership_rejects_exactly_the_curves_where_f_raises():
    # one bound for both: f's domain ends at -NEGATIVE_U_TOL, and so does the cone
    p = make_sigmoid_problem()
    for low, in_cone in ((-NEGATIVE_U_TOL, True), (np.nextafter(-NEGATIVE_U_TOL, -1.0), False)):
        values = np.zeros(65)
        values[32] = low
        curve = SolutionCurve(0.0, 1.0, values)
        check = cone_membership(curve)
        assert check.ok is in_cone
        assert check.violations == (() if in_cone else (("negative", 0.5, low),))
        if in_cone:
            p.f(curve.nodes, curve.values)
        else:
            with pytest.raises(FunctionDomainError, match="below domain"):
                p.f(curve.nodes, curve.values)
