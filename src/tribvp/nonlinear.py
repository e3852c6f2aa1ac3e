"""Finding and classifying multiple positive solutions.

The solution operator A maps a candidate u to the solution of the linear
problem with load y(t) = f(t, u(t)); its fixed points are exactly the
solutions of the nonlinear problem.  Two routes look for them:

- Picard iteration u <- A u from a handful of constant starts (finds the
  attracting fixed points), and
- Newton on F(u) = u - A u with J = I - G diag(df/du), where G is the
  matrix of the linear solve: dense on a coarse grid from the Picard levels
  and a ladder of scaled concave profiles, then matrix-free Newton-GMRES on
  the full grid (also reaches the repelling fixed points).

Every candidate is re-verified against the discrete ODE/boundary residuals
and the cone conditions (nonnegative, concave down) before it is reported,
then classified against the thresholds (a, b, c).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .certify import ThresholdTriple
from .errors import FunctionDomainError
from .grid import SolutionCurve, interp_cubic, partial_integral
from .linear import (
    NONNEGATIVITY_TOL,
    LinearPlan,
    ResidualReport,
    check_grid,
    check_nonnegativity,
    residuals,
    solve_linear,
)
from .problem import Problem

# Discrete concavity allows raw second differences up to this much above zero
# (equivalently u'' <= 1e-8 / h^2), absorbing quadrature noise only.
CONCAVITY_SLACK = 1e-8


@dataclass(frozen=True)
class SolveConfig:
    """Budgets and tolerances for the multi-start solution search."""

    grid_n: int = 2049
    picard_tol: float = 1e-10
    picard_max_iter: int = 500
    residual_tol: float = 1e-8
    ode_c2: float = 100.0  # ODE residual tolerance is ode_c2 * h^2
    dedup_tol: float = 1e-4  # relative sup-norm distance that merges two solutions
    divergence_norm: float = 1e6
    newton_tol: float = 1e-12  # relative target driven by the iteration
    newton_max_iter: int = 25
    thresholds: ThresholdTriple | None = None

    def ode_tol(self, h: float) -> float:
        return self.ode_c2 * h * h


@dataclass(frozen=True)
class FixedPointResult:
    """One candidate fixed point with its convergence and residual diagnostics."""

    curve: SolutionCurve
    converged: bool
    iterations: int
    final_update_norm: float
    residuals: ResidualReport
    source: str = "picard"
    clamped_evals: int = 0


@dataclass(frozen=True)
class SolutionClass:
    """Size classification of one solution against thresholds (a, b, c)."""

    norm: float
    min_full: float
    min_tail: float | None
    label: str

    def to_dict(self) -> dict:
        return asdict(self)


class ConeCheck(NamedTuple):
    ok: bool
    violations: tuple


class ShootingResult(NamedTuple):
    r1: float
    r2: float
    curve: SolutionCurve
    clamped_evals: int
    blew_up: bool


def cone_membership(u: SolutionCurve, tol: float = NONNEGATIVITY_TOL) -> ConeCheck:
    """Nonnegative and concave down, discretely: second differences <= slack."""
    violations = []
    nn = check_nonnegativity(u, tol)
    if not nn.ok:
        violations.append(("negative", nn.t_worst, nn.min_value))
    second = u.values[:-2] - 2.0 * u.values[1:-1] + u.values[2:]
    if second.size:
        idx = int(np.argmax(second))
        if second[idx] > CONCAVITY_SLACK:
            violations.append(("convex", float(u.nodes[idx + 1]), float(second[idx])))
    return ConeCheck(ok=not violations, violations=tuple(violations))


def _load(p: Problem, t: np.ndarray, u: np.ndarray, strict: bool = True) -> np.ndarray:
    """y = f(t, u) with transient negative undershoots of u clamped to zero.

    FunctionDomainError when y is not finite, or (strict) when u dips below
    the admissible domain; the solution routes drop such a start.
    """
    if strict and u.min() < -NONNEGATIVITY_TOL:
        raise FunctionDomainError(f"operator input dips to {u.min()}, below the admissible domain")
    y = p.f(t, np.maximum(u, 0.0))
    if not np.all(np.isfinite(y)):
        raise FunctionDomainError(f"f is not finite on an iterate of sup norm {np.max(np.abs(u))}")
    return y


def apply_operator_A(p: Problem, u: SolutionCurve) -> SolutionCurve:
    """One application of the solution operator: solve u'' + f(t, u) = 0 linearly."""
    return solve_linear(p, SolutionCurve(u.t0, u.t1, _load(p, u.nodes, u.values)))


def picard_iterate(
    p: Problem,
    u0: SolutionCurve,
    tol: float = 1e-10,
    max_iter: int = 500,
    cfg: SolveConfig | None = None,
    plan: LinearPlan | None = None,
) -> FixedPointResult:
    """Iterate u <- A u until the sup-norm update drops below tol.

    There is no contraction guarantee, so the iteration caps at max_iter and
    stops early when the iterate norm passes the divergence threshold; a
    converged result must additionally pass the residual check.  `plan` is
    the linear solve on u0's grid, built here when not given.
    """
    cfg = cfg or SolveConfig(grid_n=u0.n)
    check_grid(p, u0)
    plan = plan or LinearPlan(p, u0.n)
    u = u0.values
    update = math.inf
    clamp_total = 0
    iterations = 0
    diverged = False
    for iterations in range(1, max_iter + 1):
        y = _load(p, plan.t, u)
        clamp_total += int(np.count_nonzero(u < 0.0))
        au = plan(y)
        update = float(np.max(np.abs(au - u)))
        u = au
        if float(np.max(np.abs(u))) > cfg.divergence_norm:
            diverged = True
            break
        if update <= tol:
            break
    curve = SolutionCurve(0.0, plan.T, u)
    rep = residuals(p, curve, SolutionCurve(0.0, plan.T, _load(p, plan.t, u)))
    ok = (
        not diverged
        and update <= tol
        and rep.within(cfg.ode_tol(curve.h), cfg.residual_tol)
    )
    return FixedPointResult(
        curve=curve,
        converged=ok,
        iterations=iterations,
        final_update_norm=update,
        residuals=rep,
        source="picard",
        clamped_evals=clamp_total,
    )


# --- Newton route ------------------------------------------------------------

BLOWUP_LIMIT = 1e9  # |u| at which the RK4 check trajectory counts as blown up
# A Newton root counts when ||u - A u|| <= NEWTON_ACCEPT_TOL * max(1, ||u||),
# even if the iteration stalled before newton_tol.
NEWTON_ACCEPT_TOL = 1e-9
NEWTON_MAX_HALVINGS = 12
COARSE_N = 65  # nodes of the dense Newton search; its roots only start the full-grid Newton
GMRES_RESTART = 20  # Krylov vectors per full-grid Newton step, one linear solve each
GMRES_RTOL = 1e-12
FD_STEP = 1e-6  # relative step of the central difference standing in for df/du
LADDER_STEPS = 12  # scaled concave profiles among the Newton starts


def shooting_residual(p: Problem, u0: float, s0: float, n: int = 2049) -> ShootingResult:
    """Boundary residuals of the RK4 trajectory from (u(0), u'(0)) = (u0, s0).

    Integrates u'' = -f(t, u) with fixed-step RK4, clamping u to zero before
    every f evaluation.  r1 = u0 - beta*u(eta), r2 = u(T) - alpha*integral_0^eta u.
    A trajectory that leaves [-BLOWUP_LIMIT, BLOWUP_LIMIT] (or goes non-finite)
    is frozen at its last finite state and reports signed-infinity residuals.
    The solution routes never integrate the ODE, so this is an independent check.
    """
    T, eta, alpha, beta = p.floats()
    h = T / (n - 1)
    U = np.empty(n)
    u, v = float(u0), float(s0)
    U[0] = u
    clamped = 0

    def accel(t, x):
        nonlocal clamped
        if x < 0.0:
            clamped += 1
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
            return ShootingResult(marker, marker, SolutionCurve(0.0, T, U), clamped, True)
        u, v = new_u, new_v
        U[i + 1] = u
    r1 = U[0] - beta * interp_cubic(U, h, eta)
    r2 = U[-1] - alpha * partial_integral(U, h, eta)
    return ShootingResult(float(r1), float(r2), SolutionCurve(0.0, T, U), clamped, False)


def _start_levels(cfg: SolveConfig) -> list[float]:
    """Heights of the constant starts: 1e-2*a, a, b, (d,) c, or decades without thresholds."""
    if cfg.thresholds is None:
        return [1e-2, 1e-1, 1.0, 10.0, 100.0]
    tt = cfg.thresholds
    d = [] if tt.d is None else [float(tt.d)]
    return [1e-2 * float(tt.a), float(tt.a), float(tt.b), *d, float(tt.c)]


def _df_du(p: Problem, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Central difference for df/du at max(u, 0), one-sided where it would cross u = 0."""
    u = np.maximum(u, 0.0)
    d = FD_STEP * np.maximum(1.0, u)
    lo = np.maximum(u - d, 0.0)
    hi = u + d
    return (p.f(t, hi) - p.f(t, lo)) / (hi - lo)


def _fixed_point_residual(p: Problem, plan: LinearPlan, u: np.ndarray) -> np.ndarray:
    """F(u) = u - A u on the plan's grid, with u clamped to zero where f is evaluated."""
    return u - plan(_load(p, plan.t, u, strict=False))


def _jacobian_matvec(p: Problem, plan: LinearPlan, u: np.ndarray):
    """v -> J v with J = I - G diag(df/du(t, u)), one linear solve per product."""
    fu = _df_du(p, plan.t, u)
    return lambda v: v - plan(fu * v)


def _gmres(matvec, b: np.ndarray) -> np.ndarray:
    """Approximate x with matvec(x) = b: GMRES from x = 0 over at most GMRES_RESTART vectors.

    Givens rotations keep the small least-squares problem triangular: its
    residual is known at every step, and no LAPACK call is needed.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b)
    m = GMRES_RESTART
    V = [b / beta]
    H = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    for j in range(m):
        w = matvec(V[j])
        for i in range(j + 1):  # modified Gram-Schmidt
            H[i, j] = w @ V[i]
            w -= H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        for i in range(j):
            H[i, j], H[i + 1, j] = cs[i] * H[i, j] + sn[i] * H[i + 1, j], cs[i] * H[i + 1, j] - sn[i] * H[i, j]
        rho = math.hypot(H[j, j], H[j + 1, j])
        cs[j], sn[j] = H[j, j] / rho, H[j + 1, j] / rho
        H[j, j] = rho
        g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
        if abs(g[j + 1]) <= GMRES_RTOL * beta:
            break
        V.append(w / H[j + 1, j])
    k = j + 1
    y = np.zeros(k)
    for i in reversed(range(k)):
        y[i] = (g[i] - H[i, i + 1 : k] @ y[i + 1 :]) / H[i, i]
    return sum(yi * vi for yi, vi in zip(y, V))


def _newton(residual, step, u: np.ndarray, cfg: SolveConfig):
    """Damped Newton on residual(u) = 0; step(u, r) solves J(u) du = -r.

    A step is halved until the sup norm of the residual decreases; when no
    halving does, the iteration stops where it is.  Returns (u, ||F(u)||_inf,
    iterations).
    """
    r = residual(u)
    rnorm = float(np.max(np.abs(r)))
    iterations = 0
    while iterations < cfg.newton_max_iter and rnorm > cfg.newton_tol * max(1.0, float(np.max(np.abs(u)))):
        du = step(u, r)
        lam = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            cand = u + lam * du
            r_cand = residual(cand)
            cand_norm = float(np.max(np.abs(r_cand)))
            if cand_norm < rnorm:
                break
            lam *= 0.5
        else:
            break
        u, r, rnorm = cand, r_cand, cand_norm
        iterations += 1
    return u, rnorm, iterations


def _accepted(u: np.ndarray, rnorm: float) -> bool:
    return rnorm <= NEWTON_ACCEPT_TOL * max(1.0, float(np.max(np.abs(u))))


def _coarse_roots(p: Problem, cfg: SolveConfig):
    """Dense Newton on COARSE_N nodes from the Picard levels and a ladder of concave profiles.

    Returns the coarse nodes and the distinct roots as (u, iterations).  A
    start whose Jacobian is singular is dropped; the others go on.
    """
    n = COARSE_N
    plan = LinearPlan(p, n)
    t, G = plan.t, plan(np.eye(n))  # G @ y == solve_linear(p, y).values, one unit load per column
    J = np.empty_like(G)

    def residual(u):
        return u - G @ p.f(t, np.maximum(u, 0.0))

    def step(u, r):
        np.multiply(G, -_df_du(p, t, u), out=J)
        J.flat[:: n + 1] += 1.0
        return np.linalg.solve(J, -r)

    levels = _start_levels(cfg)
    profile = G @ np.ones(n)
    profile /= profile.max()
    starts = [np.full(n, level) for level in levels]
    starts += [lam * profile for lam in np.geomspace(levels[0], levels[-1], LADDER_STEPS)]
    roots: list[tuple[np.ndarray, int]] = []
    for u0 in starts:
        try:
            u, rnorm, iterations = _newton(residual, step, u0, cfg)
        except np.linalg.LinAlgError:
            continue
        if _accepted(u, rnorm) and not any(
            np.max(np.abs(u - v)) <= cfg.dedup_tol * max(1.0, np.max(np.abs(v))) for v, _ in roots
        ):
            roots.append((u, iterations))
    return t, roots


def _polish(p: Problem, plan: LinearPlan, prolonged: np.ndarray, coarse_iterations: int, cfg: SolveConfig):
    """Apply A once to a coarse root prolonged to the plan's grid, and finish with Newton-GMRES."""
    clamped = 0

    def residual(u):
        nonlocal clamped
        clamped += int(np.count_nonzero(u < 0.0))
        return _fixed_point_residual(p, plan, u)

    def step(u, r):
        return _gmres(_jacobian_matvec(p, plan, u), -r)

    u, rnorm, iterations = _newton(residual, step, prolonged - residual(prolonged), cfg)  # u - F(u) = A u
    curve = SolutionCurve(0.0, plan.T, u - residual(u))
    rep = residuals(p, curve, SolutionCurve(0.0, plan.T, _load(p, plan.t, curve.values)))
    return FixedPointResult(
        curve=curve,
        converged=_accepted(u, rnorm) and rep.within(cfg.ode_tol(curve.h), cfg.residual_tol),
        iterations=coarse_iterations + iterations,
        final_update_norm=rnorm,
        residuals=rep,
        source="newton",
        clamped_evals=clamped,
    )


def newton_solutions(p: Problem, cfg: SolveConfig, plan: LinearPlan | None = None) -> list[FixedPointResult]:
    """Roots of F(u) = u - A u: coarse dense Newton from many starts, then full-grid polish.

    `plan` is the linear solve on grid_n nodes, built here when not given.  A
    root where f stops being finite on the full grid is dropped.
    """
    plan = plan or LinearPlan(p, cfg.grid_n)
    t_coarse, roots = _coarse_roots(p, cfg)
    results = []
    for u, iterations in roots:
        with contextlib.suppress(FunctionDomainError):
            results.append(_polish(p, plan, np.interp(plan.t, t_coarse, u), iterations, cfg))
    return [r for r in results if r.converged]


def picard_solutions(p: Problem, cfg: SolveConfig, plan: LinearPlan | None = None) -> list[FixedPointResult]:
    """Picard iteration from the configured constant starts on one linear plan for grid_n."""
    plan = plan or LinearPlan(p, cfg.grid_n)
    results = []
    for level in _start_levels(cfg):
        start = SolutionCurve.constant(level, plan.T, cfg.grid_n)
        try:
            result = picard_iterate(p, start, cfg.picard_tol, cfg.picard_max_iter, cfg, plan)
        except FunctionDomainError:
            continue  # iterate left the admissible domain; not a solution path
        if result.converged:
            results.append(result)
    return results


def _dedup(results: list[FixedPointResult], dedup_tol: float) -> list[FixedPointResult]:
    """Merge near-identical curves, keeping the one with the smaller residuals."""

    def badness(r: FixedPointResult) -> float:
        rep = r.residuals
        return rep.ode_residual_max + rep.bc0_residual + rep.bcT_residual

    ordered = sorted(results, key=lambda r: (r.curve.sup_norm(), r.curve.min_value(), badness(r)))
    kept: list[FixedPointResult] = []
    for cand in ordered:
        merged = False
        for i, ref in enumerate(kept):
            scale = max(1.0, ref.curve.sup_norm())
            if float(np.max(np.abs(cand.curve.values - ref.curve.values))) < dedup_tol * scale:
                if badness(cand) < badness(ref):
                    kept[i] = cand
                merged = True
                break
        if not merged:
            kept.append(cand)
    return kept


def classify_solution(
    u: SolutionCurve, tt: ThresholdTriple, eta: float | None = None
) -> SolutionClass:
    """Label a solution by the three size predicates; unclassified on the edges."""
    norm = u.sup_norm()
    min_full = u.min_value()
    min_tail = u.min_from(eta) if eta is not None else None
    a, b = float(tt.a), float(tt.b)
    if norm < a:
        label = "small"
    elif min_full > b:
        label = "large-min"
    elif norm > a and min_full < b:
        label = "middle"
    else:
        label = "unclassified"
    return SolutionClass(norm=norm, min_full=min_full, min_tail=min_tail, label=label)


def find_solutions(
    p: Problem, cfg: SolveConfig = SolveConfig()
) -> list[tuple[FixedPointResult, SolutionClass]]:
    """Run both routes, verify, dedup, and classify every surviving solution."""
    plan = LinearPlan(p, cfg.grid_n)
    with np.errstate(over="ignore", invalid="ignore"):  # a start where f stops being finite is dropped
        candidates = picard_solutions(p, cfg, plan) + newton_solutions(p, cfg, plan)
    verified = [r for r in candidates if r.converged and cone_membership(r.curve).ok]
    unique = _dedup(verified, cfg.dedup_tol)
    eta = float(p.eta)
    out = []
    for result in unique:
        if cfg.thresholds is not None:
            cls = classify_solution(result.curve, cfg.thresholds, eta)
        else:
            curve = result.curve
            cls = SolutionClass(
                norm=curve.sup_norm(),
                min_full=curve.min_value(),
                min_tail=curve.min_from(eta),
                label="unclassified",
            )
        out.append((result, cls))
    return out
