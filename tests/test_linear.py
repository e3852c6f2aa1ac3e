from fractions import Fraction as F

import numpy as np
import pytest

from tribvp import (
    Problem,
    SingularConfigurationError,
    SolutionCurve,
    check_gamma_bound,
    check_nonnegativity,
    residuals,
    solve_linear,
    solve_linear_oracle,
)
from tribvp.constants import gamma
from tribvp.linear import LinearPlan

from conftest import (
    make_exp_piecewise_problem,
    make_sigmoid_problem,
    random_nonnegative_load,
    random_valid_problem,
)

N = 2049


def closed_form_constant_load(p: Problem):
    """For y = 1 the solution is the quadratic -t^2/2 + A t + B with (A, B)
    solving the boundary system; solved exactly in rationals."""
    T, eta, alpha, beta = p.T, p.eta, p.alpha, p.beta
    # (1 - beta) B - beta*eta A = -beta*eta^2/2
    # (T - alpha*eta^2/2) A + (1 - alpha*eta) B = T^2/2 - alpha*eta^3/6
    a11, a12, r1 = -beta * eta, 1 - beta, -beta * eta * eta / 2
    a21, a22, r2 = T - alpha * eta * eta / 2, 1 - alpha * eta, T * T / 2 - alpha * eta**3 / 6
    det = a11 * a22 - a12 * a21
    A = (r1 * a22 - a12 * r2) / det
    B = (a11 * r2 - r1 * a21) / det
    return A, B


def test_zero_load_gives_zero_solution():
    p = make_sigmoid_problem()
    y = SolutionCurve.constant(0.0, 1.0, N)
    assert solve_linear(p, y).sup_norm() == 0.0
    assert solve_linear_oracle(p, y).sup_norm() == 0.0


def test_constant_load_matches_quadratic_closed_form():
    p = make_exp_piecewise_problem()
    A, B = closed_form_constant_load(p)
    assert (A, B) == (F(1, 4), F(25, 48))
    y = SolutionCurve.constant(1.0, 1.0, N)
    u = solve_linear(p, y)
    for t_probe in (0.0, 0.5, 1.0):
        expected = -t_probe**2 / 2 + float(A) * t_probe + float(B)
        assert u.value_at(t_probe) == pytest.approx(expected, abs=1e-13)
    t = u.nodes
    exact = -(t**2) / 2 + float(A) * t + float(B)
    assert np.max(np.abs(u.values - exact)) < 1e-13
    uo = solve_linear_oracle(p, y)
    assert np.max(np.abs(uo.values - exact)) < 1e-13


def test_linear_ramp_load_oracle_agreement():
    p = make_sigmoid_problem()
    t = np.linspace(0.0, 1.0, N)
    y = SolutionCurve(0.0, 1.0, t)
    u = solve_linear(p, y)
    uo = solve_linear_oracle(p, y)
    assert np.max(np.abs(u.values - uo.values)) < 1e-8


def test_oracle_equivalence_and_cone_properties_random_suite(rng):
    # trimmed version of the acceptance suite: solver vs oracle, plus the
    # nonnegativity and tail-minimum guarantees for nonnegative loads
    for _ in range(50):
        p = random_valid_problem(rng)
        y = random_nonnegative_load(float(p.T), N, rng)
        u = solve_linear(p, y)
        uo = solve_linear_oracle(p, y)
        assert np.max(np.abs(u.values - uo.values)) <= 1e-8
        assert check_nonnegativity(u).ok
        g = float(gamma(p))
        assert check_gamma_bound(u, g, float(p.eta)).ok


def test_solver_is_linear(rng):
    p = make_sigmoid_problem()
    y1 = random_nonnegative_load(1.0, N, rng)
    y2 = random_nonnegative_load(1.0, N, rng)
    u1 = solve_linear(p, y1)
    u2 = solve_linear(p, y2)
    u_sum = solve_linear(p, y1 + y2)
    assert np.max(np.abs(u_sum.values - (u1.values + u2.values))) < 1e-10
    u_scaled = solve_linear(p, y1.scaled(3.5))
    assert np.max(np.abs(u_scaled.values - 3.5 * u1.values)) < 1e-10


def test_residuals_scale_with_h_squared():
    p = make_sigmoid_problem()
    measured = {}
    for n in (513, 1025):
        t = np.linspace(0.0, 1.0, n)
        y = SolutionCurve(0.0, 1.0, 1.0 + np.sin(3.0 * t) ** 2)
        u = solve_linear(p, y)
        rep = residuals(p, u, y)
        h = u.h
        measured[n] = rep.ode_residual_max / (h * h)
        assert rep.ode_residual_max < 100.0 * h * h
        assert rep.bc0_residual < 1e-10 and rep.bcT_residual < 1e-10
    # constant C in the C*h^2 law stays bounded across grids
    assert 0.5 < measured[513] / measured[1025] < 2.0


def test_residuals_zero_for_zero_curves():
    p = make_sigmoid_problem()
    zero = SolutionCurve.constant(0.0, 1.0, 65)
    rep = residuals(p, zero, zero)
    assert rep.ode_residual_max == rep.bc0_residual == rep.bcT_residual == 0.0


def test_residual_jump_from_node_perturbation():
    p = make_sigmoid_problem()
    n = 257
    y = SolutionCurve.constant(1.0, 1.0, n)
    u = solve_linear(p, y)
    h = u.h
    bumped = np.array(u.values)
    bumped[n // 2] += 1.0
    rep = residuals(p, SolutionCurve(0.0, 1.0, bumped), y)
    assert rep.ode_residual_max == pytest.approx(2.0 / h**2, rel=0.01)


def test_singular_beta_raises():
    # beta exactly at the admissibility bound zeroes the denominator
    p = Problem(T=F(1), eta=F(1, 3), alpha=F(3), beta=F(1))
    y = SolutionCurve.constant(1.0, 1.0, 129)
    with pytest.raises(SingularConfigurationError):
        solve_linear(p, y)
    with pytest.raises(SingularConfigurationError):
        solve_linear_oracle(p, y)


def test_nonnegativity_check_reports_worst_node():
    u = SolutionCurve(0.0, 1.0, np.array([0.0, 1.0, -1.0, 1.0, 0.0]))
    check = check_nonnegativity(u)
    assert not check.ok and check.min_value == -1.0 and check.t_worst == 0.5
    assert check_nonnegativity(SolutionCurve.constant(0.0, 1.0, 9)).ok


def test_gamma_bound_constant_curve_margin():
    k = 3.0
    g = 0.25
    u = SolutionCurve.constant(k, 1.0, 65)
    check = check_gamma_bound(u, g, eta=1.0 / 3.0)
    assert check.ok
    assert check.margin == pytest.approx((1 - g) * k, rel=1e-14)


def test_gamma_bound_violation_detected():
    # peak before eta, near-zero tail: the tail-minimum bound must fail
    t = np.linspace(0.0, 1.0, 129)
    vals = np.where(t < 0.3, 1.0, 1e-6)
    check = check_gamma_bound(SolutionCurve(0.0, 1.0, vals), 0.25, eta=1.0 / 3.0)
    assert not check.ok and check.margin < 0


def test_convergence_order_constant_load():
    # The quadrature integrates constant loads exactly, so the error against
    # the closed form sits at the roundoff floor on every grid; "order >= 2"
    # then holds trivially.  Measure the ratio only above the floor.
    p = make_sigmoid_problem()
    A, B = closed_form_constant_load(p)
    errors = {}
    for n in (1025, 2049):
        y = SolutionCurve.constant(1.0, 1.0, n)
        u = solve_linear(p, y)
        t = u.nodes
        exact = -(t**2) / 2 + float(A) * t + float(B)
        errors[n] = np.max(np.abs(u.values - exact))
    floor = 1e-13
    assert errors[2049] <= floor or errors[1025] / errors[2049] >= 3.5


def test_convergence_order_curvy_load():
    # a genuinely discretization-limited case shows the order directly
    p = make_sigmoid_problem()
    ref_n = 8193

    def load(t):
        return 1.0 + np.sin(3.0 * t) ** 2 + t**3

    t_ref = np.linspace(0.0, 1.0, ref_n)
    u_ref = solve_linear(p, SolutionCurve(0.0, 1.0, load(t_ref)))
    errs = []
    for n in (1025, 2049):
        t = np.linspace(0.0, 1.0, n)
        u = solve_linear(p, SolutionCurve(0.0, 1.0, load(t)))
        step = (ref_n - 1) // (n - 1)
        errs.append(np.max(np.abs(u.values - u_ref.values[::step])))
    assert errs[0] / errs[1] >= 3.5


@pytest.mark.parametrize("make", [make_sigmoid_problem, make_exp_piecewise_problem])
@pytest.mark.parametrize("n", [5, 65, N])
def test_plan_on_unit_loads_equals_the_column_solves_bitwise(make, n):
    # the identity in blocks of at most 256 columns keeps n = 2049 small
    p = make()
    plan = LinearPlan(p, n)
    for j in range(0, n, 256):
        block = np.eye(n, min(256, n - j), -j)
        columns = [solve_linear(p, SolutionCurve(0.0, 1.0, unit)).values for unit in block.T]
        assert np.array_equal(plan(block), np.column_stack(columns))


@pytest.mark.parametrize("make", [make_sigmoid_problem, make_exp_piecewise_problem])
def test_plan_matches_the_oracle_on_random_loads(make, rng):
    p = make()
    plan = LinearPlan(p, N)
    loads = np.column_stack([np.polyval(rng.uniform(-1.0, 1.0, 3), plan.t) ** 2 + rng.uniform() for _ in range(8)])
    batch = plan(loads)
    for k, y in enumerate(loads.T):
        oracle = solve_linear_oracle(p, SolutionCurve(0.0, 1.0, y)).values
        assert np.max(np.abs(plan(y) - oracle)) <= 1e-12
        assert np.max(np.abs(batch[:, k] - oracle)) <= 1e-12


def test_plan_for_a_singular_beta_raises():
    p = Problem(T=F(1), eta=F(1, 3), alpha=F(3), beta=F(1))
    with pytest.raises(SingularConfigurationError):
        LinearPlan(p, 129)
