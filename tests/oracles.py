"""Independent cross-checks of the package, used only by the tests.

None of these runs on a `tribvp` CLI path.  Each one reaches its result by a
different route from the code it checks, so agreement between the two means
something:

- `solve_linear_oracle` builds the parametric solution
  u(t) = u0 + s0*t - integral_0^t (t - s) y and determines (u0, s0) from the
  two boundary conditions as a 2x2 solve.  It uses only `Problem` and the grid
  quadrature, never the closed form of `LinearPlan`.
- `residuals` evaluates both boundary conditions with `interp_cubic` and
  `partial_integral` directly, not with the stencils a `LinearPlan` holds.
- `picard_iterate` and `picard_solutions` iterate u <- A u.  They apply a
  `LinearPlan`, which `solve_linear_oracle` checks, and call nothing of the
  Newton route in `tribvp.nonlinear`; they reach only the attracting fixed points.
- `shooting_residual` integrates u'' = -f(t, u) with RK4 from initial data, so it
  uses only `p.f` and the quadrature.

`tests/test_oracles.py` checks these import rules.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from tribvp.errors import FunctionDomainError, SingularConfigurationError
from tribvp.grid import SolutionCurve, cumulative_simpson, interp_cubic, partial_integral
from tribvp.linear import LinearPlan, ResidualReport, solve_linear
from tribvp.problem import Problem

PICARD_TOL = 1e-10  # sup-norm update at which Picard iteration stops
PICARD_MAX_ITER = 500
DIVERGENCE_NORM = 1e6  # sup norm at which a Picard iterate counts as diverged
BLOWUP_LIMIT = 1e9  # |u| at which the RK4 check trajectory counts as blown up
GAMMA_BOUND_TOL = 1e-10
SINGULAR_TOL = 1e-14  # |det| below which the oracle's 2x2 boundary system counts as singular
# The verification bounds the package advertises for a solution: boundary
# residuals, and ODE residual ODE_C2 * h^2.
RESIDUAL_TOL = 1e-8
ODE_C2 = 100.0


class PicardResult(NamedTuple):
    curve: SolutionCurve
    converged: bool
    iterations: int
    residuals: ResidualReport


class ShootingResult(NamedTuple):
    r1: float
    r2: float
    curve: SolutionCurve
    blew_up: bool


class GammaBoundCheck(NamedTuple):
    ok: bool
    margin: float
    min_tail: float
    sup_norm: float


def _check_grid(p: Problem, y: SolutionCurve) -> None:
    T = p.floats[0]
    if abs(y.t0) > 1e-12 or abs(y.t1 - T) > 1e-9 * max(1.0, T):
        raise ValueError("input curve must be sampled on [0, T]")
    if y.n % 2 == 0:
        raise ValueError("linear solve needs an odd node count")


def simpson_integral(values: np.ndarray, h: float) -> float:
    """Composite Simpson over the full grid; node count must be odd."""
    n = len(values)
    if n % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd node count, got {n}")
    if n == 1:
        return 0.0
    return float(h / 3.0 * (values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-1:2])))


def solve_linear_oracle(p: Problem, y: SolutionCurve) -> SolutionCurve:
    """Direct construction: parametric double integral + 2x2 boundary solve."""
    _check_grid(p, y)
    T, eta, alpha, beta = p.floats
    t, h, v = y.nodes, y.h, y.values
    conv = t * cumulative_simpson(v, h) - cumulative_simpson(t * v, h)  # integral_0^t (t - s) y(s) ds
    conv_eta = eta * partial_integral(v, h, eta) - partial_integral(t * v, h, eta)
    conv_cum_eta = partial_integral(conv, h, eta)  # integral_0^eta of the convolution
    # u(t) = u0 + s0*t - conv(t); the boundary conditions give
    #   (1 - beta) u0 - beta*eta s0            = -beta * conv(eta)
    #   (1 - alpha*eta) u0 + (T - alpha*eta^2/2) s0 = conv(T) - alpha * conv_cum_eta
    a_mat = np.array(
        [
            [1.0 - beta, -beta * eta],
            [1.0 - alpha * eta, T - alpha * eta * eta / 2.0],
        ]
    )
    rhs = np.array([-beta * conv_eta, conv[-1] - alpha * conv_cum_eta])
    det = a_mat[0, 0] * a_mat[1, 1] - a_mat[0, 1] * a_mat[1, 0]
    if abs(det) < SINGULAR_TOL:
        raise SingularConfigurationError(
            f"boundary system is singular for these parameters (det = {det})"
        )
    u0, s0 = np.linalg.solve(a_mat, rhs)
    return SolutionCurve(0.0, T, u0 + s0 * t - conv)


def residuals(p: Problem, u: SolutionCurve, y: SolutionCurve) -> ResidualReport:
    """Second-difference ODE residual plus both boundary-condition residuals."""
    if u.n != y.n:
        raise ValueError("u and y must share a grid")
    _, eta, alpha, beta = p.floats
    v, h = u.values, u.h
    second = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h)
    ode_res = float(np.max(np.abs(second + y.values[1:-1]))) if v.size > 2 else 0.0
    bc0 = abs(v[0] - beta * interp_cubic(v, h, eta))
    bcT = abs(v[-1] - alpha * partial_integral(v, h, eta))
    return ResidualReport(ode_residual_max=ode_res, bc0_residual=float(bc0), bcT_residual=float(bcT))


def check_gamma_bound(u: SolutionCurve, gamma: float, eta: float) -> GammaBoundCheck:
    """Tail-minimum bound: min over grid nodes in [eta, T] >= gamma * sup norm."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    min_tail = u.min_from(eta)
    sup = u.sup_norm()
    margin = min_tail - gamma * sup
    return GammaBoundCheck(ok=margin >= -GAMMA_BOUND_TOL, margin=float(margin), min_tail=min_tail, sup_norm=sup)


def _load(p: Problem, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """y = f(t, u); FunctionDomainError when y is not finite (f itself raises below its domain)."""
    y = p.f(t, u)
    if not np.isfinite(y).all():
        raise FunctionDomainError(f"f is not finite on an iterate of sup norm {np.max(np.abs(u))}")
    return y


def apply_operator_A(p: Problem, u: SolutionCurve) -> SolutionCurve:
    """One application of the solution operator: solve u'' + f(t, u) = 0 linearly."""
    return solve_linear(p, SolutionCurve(u.t0, u.t1, _load(p, u.nodes, u.values)))


def picard_iterate(
    p: Problem,
    u0: SolutionCurve,
    tol: float = PICARD_TOL,
    max_iter: int = PICARD_MAX_ITER,
    plan: LinearPlan | None = None,
) -> PicardResult:
    """Iterate u <- A u until the sup-norm update drops below tol.

    There is no contraction guarantee, so the iteration caps at max_iter and
    stops early when the iterate norm passes the divergence threshold; a
    converged result must additionally pass the residual check.  `plan` is
    the linear solve on u0's grid, built here when not given.
    """
    _check_grid(p, u0)
    plan = plan or LinearPlan(p, u0.n)
    u = u0.values
    update = math.inf
    iterations = 0
    diverged = False
    for iterations in range(1, max_iter + 1):
        au = plan(_load(p, plan.t, u))
        update = float(np.max(np.abs(au - u)))
        u = au
        if float(np.max(np.abs(u))) > DIVERGENCE_NORM:
            diverged = True
            break
        if update <= tol:
            break
    curve = SolutionCurve(0.0, plan.T, u)
    rep = residuals(p, curve, SolutionCurve(0.0, plan.T, _load(p, plan.t, u)))
    verified = rep.within(ODE_C2 * curve.h * curve.h, RESIDUAL_TOL)
    return PicardResult(curve, not diverged and update <= tol and verified, iterations, rep)


def picard_solutions(p: Problem, thresholds, grid_n: int) -> list[PicardResult]:
    """Picard iteration on one linear plan for grid_n nodes, from constant starts at
    1e-2*a, a, b, (d,) c of the thresholds, or at decades without thresholds."""
    if thresholds is None:
        levels = [1e-2, 1e-1, 1.0, 10.0, 100.0]
    else:
        a, b, c, d = thresholds.floats
        levels = [1e-2 * a, a, b, *([] if d is None else [d]), c]
    plan = LinearPlan(p, grid_n)
    results = []
    for level in levels:
        start = SolutionCurve.constant(level, plan.T, grid_n)
        try:
            result = picard_iterate(p, start, plan=plan)
        except FunctionDomainError:
            continue  # iterate left the admissible domain; not a solution path
        if result.converged:
            results.append(result)
    return results


def shooting_residual(p: Problem, u0: float, s0: float, n: int) -> ShootingResult:
    """Boundary residuals of the RK4 trajectory from (u(0), u'(0)) = (u0, s0) on n nodes.

    Integrates u'' = -f(t, u) with fixed-step RK4, clamping u to zero before
    every f evaluation.  r1 = u0 - beta*u(eta), r2 = u(T) - alpha*integral_0^eta u.
    A trajectory that leaves [-BLOWUP_LIMIT, BLOWUP_LIMIT] (or goes non-finite)
    is frozen at its last finite state and reports signed-infinity residuals.
    """
    T, eta, alpha, beta = p.floats
    h = T / (n - 1)
    U = np.empty(n)
    u, v = float(u0), float(s0)
    U[0] = u

    def accel(t, x):
        x = max(x, 0.0) if math.isfinite(x) else 0.0
        return -float(p.f(t, np.array([x]))[0])

    for i in range(n - 1):
        t = i * h
        k1u, k1v = v, accel(t, u)
        k2u, k2v = v + 0.5 * h * k1v, accel(t + 0.5 * h, u + 0.5 * h * k1u)
        k3u, k3v = v + 0.5 * h * k2v, accel(t + 0.5 * h, u + 0.5 * h * k2u)
        k4u, k4v = v + h * k3v, accel(t + h, u + h * k3u)
        new_u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        new_v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (math.isfinite(new_u) and math.isfinite(new_v) and abs(new_u) <= BLOWUP_LIMIT):
            U[i + 1 :] = u
            marker = math.copysign(math.inf, u)
            return ShootingResult(marker, marker, SolutionCurve(0.0, T, U), True)
        u, v = new_u, new_v
        U[i + 1] = u
    r1 = U[0] - beta * interp_cubic(U, h, eta)
    r2 = U[-1] - alpha * partial_integral(U, h, eta)
    return ShootingResult(float(r1), float(r2), SolutionCurve(0.0, T, U), False)
