"""Finding and classifying multiple positive solutions.

The solution operator A maps a candidate u to the solution of the linear
problem with load y(t) = f(t, u(t)); its fixed points are exactly the
solutions of the nonlinear problem.  One route looks for them: Newton on
F(u) = u - A u with J = I - G diag(df/du), where df/du is the form's exact
slope (`FunctionSpec.df_du`) and G is the matrix of the linear solve, dense
on a coarse grid from a few constant levels and a ladder of scaled concave
profiles, then matrix-free Newton-GMRES on the full grid from each coarse
root interpolated cubically.  It reaches the attracting and the repelling
fixed points alike.  The coarse search advances all starts as one block;
each row keeps its own stopping test, budget and halvings, so every root is
what its start alone gives.

One gate in `_polish` decides which roots are reported: a fixed point
(`_accepted`) that meets the discrete ODE and boundary residual bounds and
lies in the cone (nonnegative to f's domain bound NEGATIVE_U_TOL, concave
down).  It decides every root but the proven u = 0: when f(., 0) = 0 is
proved (`Problem.zero_is_solution`), a coarse root of exact zeros is reported
with the numbers the gate would compute for it, without full-grid work.  The
roots that `_distinct` keeps, on the coarse grid and again on the reported
curves in (sup norm, min) order, are classified against (a, b, c).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .certify import ThresholdTriple
from .errors import FunctionDomainError
from .functions import NEGATIVE_U_TOL
from .grid import SolutionCurve, interp_apply, interp_weights
from .linear import LinearPlan, ResidualReport
from .problem import Problem

# Discrete concavity allows raw second differences up to this much above zero
# (equivalently u'' <= 1e-8 / h^2), absorbing quadrature noise only.
CONCAVITY_SLACK = 1e-8

DEFAULT_GRID_N = 2049  # grid nodes of every reported solution unless a run sets grid_n
RESIDUAL_TOL = 1e-8  # verification bound on the boundary residuals
ODE_C2 = 100.0  # verification bound on the ODE residual is ODE_C2 * h^2
DEDUP_TOL = 1e-4  # relative sup-norm distance within which two roots are one (`_distinct`)
NEWTON_TOL = 1e-12  # relative target driven by the Newton iteration
NEWTON_MAX_ITER = 25
# A Newton root counts when ||u - A u|| <= NEWTON_ACCEPT_TOL * max(1, ||u||),
# even if the iteration stalled before NEWTON_TOL.
NEWTON_ACCEPT_TOL = 1e-9
NEWTON_MAX_HALVINGS = 12
COARSE_N = 33  # nodes of the dense Newton search; its roots, interpolated cubically, only start the full-grid Newton
GMRES_RESTART = 20  # Krylov vectors per full-grid Newton step, one linear solve each
GMRES_RTOL = 1e-12
LADDER_STEPS = 12  # scaled concave profiles among the Newton starts


@dataclass(frozen=True)
class FixedPointResult:
    """One reported fixed point with its Newton work and residual diagnostics."""

    curve: SolutionCurve
    iterations: int
    residuals: ResidualReport
    clamped_evals: int


@dataclass(frozen=True)
class SolutionClass:
    """Size classification of one solution against thresholds (a, b, c), and whether it is u = 0."""

    norm: float
    min_full: float
    min_tail: float
    label: str
    trivial: bool

    def to_dict(self) -> dict:
        return {"norm": self.norm, "min_full": self.min_full, "min_tail": self.min_tail, "label": self.label,
                "trivial": self.trivial}


class ConeCheck(NamedTuple):
    ok: bool
    violations: tuple


def cone_membership(u: SolutionCurve) -> ConeCheck:
    """Nonnegative to -NEGATIVE_U_TOL (f's domain bound) and concave down: second differences <= slack."""
    violations = []
    idx = int(np.argmin(u.values))
    if u.values[idx] < -NEGATIVE_U_TOL:
        violations.append(("negative", float(u.nodes[idx]), float(u.values[idx])))
    second = u.values[:-2] - 2.0 * u.values[1:-1] + u.values[2:]
    if second.size:
        idx = int(np.argmax(second))
        if second[idx] > CONCAVITY_SLACK:
            violations.append(("convex", float(u.nodes[idx + 1]), float(second[idx])))
    return ConeCheck(ok=not violations, violations=tuple(violations))


def _load(p: Problem, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """y = f(t, u) with the negative entries of u clamped to zero.

    FunctionDomainError when y is not finite; newton_solutions drops such a root.
    """
    y = p.f(t, np.maximum(u, 0.0))
    if not np.isfinite(y).all():
        raise FunctionDomainError(f"f is not finite on an iterate of sup norm {np.max(np.abs(u))}")
    return y


def _start_levels(thresholds: ThresholdTriple | None) -> list[float]:
    """Heights of the constant starts: 1e-2*a, a, b, (d,) c, or decades without thresholds."""
    if thresholds is None:
        return [1e-2, 1e-1, 1.0, 10.0, 100.0]
    a, b, c, d = thresholds.floats
    return [1e-2 * a, a, b, *([] if d is None else [d]), c]


def _fixed_point_residual(p: Problem, plan: LinearPlan, u: np.ndarray) -> np.ndarray:
    """F(u) = u - A u on the plan's grid, with u clamped to zero where f is evaluated."""
    return u - plan(_load(p, plan.t, u))


def _jacobian_matvec(p: Problem, plan: LinearPlan, u: np.ndarray):
    """v -> J v with J = I - G diag(df/du(t, u)), one linear solve per product; u is clamped to zero for df/du."""
    fu = p.f.df_du(plan.t, np.maximum(u, 0.0))
    return lambda v: v - plan(fu * v)


def _gmres(matvec, b: np.ndarray, floor: float) -> np.ndarray:
    """Approximate x with matvec(x) = b: GMRES from x = 0 over at most GMRES_RESTART vectors.

    Stops once ||b - matvec(x)||_2 <= max(GMRES_RTOL * ||b||_2, floor).
    Givens rotations keep the small least-squares problem triangular: its
    residual is known at every step, and no LAPACK call is needed.
    """
    beta = math.sqrt(b.dot(b))  # np.linalg.norm's own sum of squares, without its wrapper
    if beta == 0.0:
        return np.zeros_like(b)
    m, stop = GMRES_RESTART, max(GMRES_RTOL * beta, floor)
    V = np.empty((m + 1, b.size))  # the Krylov basis, one vector per row
    np.divide(b, beta, out=V[0])
    H = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    for j in range(m):
        w = matvec(V[j])
        for i in range(j + 1):  # modified Gram-Schmidt
            H[i, j] = hij = w @ V[i]
            w -= hij * V[i]
        H[j + 1, j] = math.sqrt(w.dot(w))
        for i in range(j):
            H[i, j], H[i + 1, j] = cs[i] * H[i, j] + sn[i] * H[i + 1, j], cs[i] * H[i + 1, j] - sn[i] * H[i, j]
        rho = math.hypot(H[j, j], H[j + 1, j])
        cs[j], sn[j] = H[j, j] / rho, H[j + 1, j] / rho
        H[j, j] = rho
        g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
        if abs(g[j + 1]) <= stop:
            break
        np.divide(w, H[j + 1, j], out=V[j + 1])
    k = j + 1
    y = np.zeros(k)
    for i in reversed(range(k)):
        y[i] = (g[i] - H[i, i + 1 : k] @ y[i + 1 :]) / H[i, i]
    return sum(yi * vi for yi, vi in zip(y, V))


def _newton(residual, step, U: np.ndarray):
    """Damped Newton on residual(u) = 0 for every row u of the block U (k, n); rows never mix.

    step(V, R) solves J(v) dv = -r for every row of V.  Each row halves its
    step until the sup norm of its residual decreases, and stops where it is
    when no halving does.  When step raises LinAlgError, the rows are solved
    one at a time, and a row whose Jacobian is singular is dropped: it stops
    with residual norm inf.  Returns (U, ||F(u)||_inf per row, iterations per
    row, F(U)), where F(U) is what residual returned for each row's final u.
    """
    U = U.copy()
    R = residual(U)
    rnorm = np.abs(R).max(axis=1)
    iterations = np.zeros(len(U), dtype=int)
    stopped = np.zeros(len(U), dtype=bool)
    dU = np.empty_like(U)
    while True:
        tol = NEWTON_TOL * np.fmax(1.0, np.abs(U).max(axis=1))  # fmax, like max(1.0, x), skips a NaN
        rows = np.flatnonzero(~stopped & (iterations < NEWTON_MAX_ITER) & (rnorm > tol))
        if not rows.size:
            return U, rnorm, iterations, R
        try:
            dU[rows] = step(U[rows], R[rows])
        except np.linalg.LinAlgError:
            for i in rows:
                try:
                    dU[i] = step(U[i : i + 1], R[i : i + 1])[0]
                except np.linalg.LinAlgError:
                    stopped[i], rnorm[i] = True, math.inf
            rows = rows[~stopped[rows]]
        lam = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            if not rows.size:
                break
            cand = U[rows] + lam * dU[rows]
            r_cand = residual(cand)
            cand_norm = np.abs(r_cand).max(axis=1)
            better = cand_norm < rnorm[rows]
            done = rows[better]
            U[done], R[done], rnorm[done] = cand[better], r_cand[better], cand_norm[better]
            iterations[done] += 1
            rows = rows[~better]
            lam *= 0.5
        stopped[rows] = True


def _accepted(U: np.ndarray, rnorm):
    """Per row u of U: ||F(u)||_inf = rnorm <= NEWTON_ACCEPT_TOL * max(1, ||u||_inf)."""
    return rnorm <= NEWTON_ACCEPT_TOL * np.fmax(1.0, np.abs(U).max(axis=-1))


def _coarse_roots(p: Problem, thresholds: ThresholdTriple | None):
    """Dense Newton on COARSE_N nodes from the constant start levels and a ladder of concave profiles.

    All starts advance as one block.  Returns the coarse nodes and the
    distinct roots as (u, iterations).  A start whose Jacobian is singular is
    dropped; the others go on.  When f(., 0) = 0 (`Problem.zero_is_solution`),
    an accepted root of sup norm at most NEWTON_ACCEPT_TOL becomes exact zeros.
    Of the accepted roots, the `_distinct` ones are kept, in start order.
    """
    n = COARSE_N
    plan = LinearPlan(p, n)
    t, G = plan.t, plan(np.eye(n))  # G @ y == solve_linear(p, y).values, one unit load per column
    levels = _start_levels(thresholds)
    profile = G @ np.ones(n)
    profile /= profile.max()
    starts = [np.full(n, level) for level in levels]
    starts += [lam * profile for lam in np.geomspace(levels[0], levels[-1], LADDER_STEPS)]
    J = np.empty((len(starts), n, n))  # one Jacobian per row, reused at every step

    def residual(U):  # G @ y per row as one batched matmul, which keeps the bits of a matrix-vector product
        return U - (G @ p.f(t, np.maximum(U, 0.0))[:, :, None])[:, :, 0]

    def step(U, R):
        Jk = J[: len(U)]
        np.multiply(G, -p.f.df_du(t, np.maximum(U, 0.0))[:, None, :], out=Jk)
        Jk.reshape(len(U), -1)[:, :: n + 1] += 1.0
        return np.linalg.solve(Jk, -R[:, :, None])[:, :, 0]

    U, rnorm, iterations, _ = _newton(residual, step, np.array(starts))
    accepted = _accepted(U, rnorm)
    if p.zero_is_solution:  # a root this small is u = 0, which then solves the problem exactly
        U[accepted & (np.abs(U).max(axis=1) <= NEWTON_ACCEPT_TOL)] = 0.0
    rows = np.flatnonzero(accepted)
    return t, [(U[rows[i]], int(iterations[rows[i]])) for i in _distinct(U[rows])]


def _distinct(V) -> list[int]:
    """Indices of the distinct roots among the rows of V (k, n), in order: a row within
    DEDUP_TOL * max(1, ||v||_inf) of a row v kept before it, read from one table of all pairs, is dropped."""
    if not len(V):
        return []
    scale = DEDUP_TOL * np.fmax(1.0, np.abs(V).max(axis=1))
    near = (np.abs(V[:, None, :] - V[None, :, :]).max(axis=2) <= scale).tolist()  # [i][j]: i within j's tolerance
    kept: list[int] = []
    for i, row in enumerate(near):
        if not any(row[j] for j in kept):
            kept.append(i)
    return kept


def _polish(
    p: Problem, plan: LinearPlan, prolonged: np.ndarray, coarse_iterations: int
) -> FixedPointResult | None:
    """Apply A once to a coarse root prolonged to the plan's grid, and finish with inexact Newton-GMRES.

    GMRES stops at a tenth of the Newton target in the 2-norm, which bounds the
    sup norm: the linear part of the next residual meets the target, and the
    tenth leaves room for the quadratic remainder.  The reported A u = u - F(u)
    reuses the F(u) Newton evaluated at its final u.  None unless the final u
    is accepted as a fixed point, A u meets ODE_C2*h^2 and RESIDUAL_TOL on the
    plan's stencils, and A u lies in the cone, checked in that order.
    """
    clamped = 0

    def residual(U):  # U is a one-row block
        nonlocal clamped
        clamped += int(np.count_nonzero(U < 0.0))
        return _fixed_point_residual(p, plan, U[0])[None]

    def step(U, R):
        floor = 0.1 * NEWTON_TOL * max(1.0, float(np.abs(U[0]).max()))
        return _gmres(_jacobian_matvec(p, plan, U[0]), -R[0], floor)[None]

    U = prolonged[None]
    (u,), (rnorm,), (iterations,), (fu,) = _newton(residual, step, U - residual(U))  # u - F(u) = A u
    if not _accepted(u, rnorm):
        return None
    clamped += int(np.count_nonzero(u < 0.0))  # the reported A u clamps the negatives of the final u too
    curve = SolutionCurve(0.0, plan.T, u - fu)
    rep = plan.residuals(curve.values, _load(p, plan.t, curve.values))
    if not (rep.within(ODE_C2 * curve.h * curve.h, RESIDUAL_TOL) and cone_membership(curve).ok):
        return None
    return FixedPointResult(curve, coarse_iterations + int(iterations), rep, clamped)


def newton_solutions(p: Problem, thresholds: ThresholdTriple | None, grid_n: int) -> list[FixedPointResult]:
    """Roots of F(u) = u - A u: coarse dense Newton from many starts, then full-grid polish.

    Each coarse root reaches the full grid by cubic interpolation, which
    leaves the polish at most one Newton step on the worked configs.  A root
    that _polish's gate rejects, or where f stops being finite on the full
    grid, is dropped.  The proven u = 0 (`Problem.zero_is_solution` and a
    coarse root of exact zeros) is reported without the hand-off or _polish:
    f(t, 0) = +-0.0 at every node, so _polish would start at A 0 = 0, stop
    after 0 steps with no clamp, and find residuals of 0.0 and zeros in the cone.
    """
    plan = LinearPlan(p, grid_n)
    t_coarse, roots = _coarse_roots(p, thresholds)
    hand_off = interp_weights(t_coarse.size, t_coarse[1], plan.t)  # one stencil and gather index for every root
    results = []
    for u, iterations in roots:
        if p.zero_is_solution and not u.any():
            zero = SolutionCurve.constant(0.0, plan.T, grid_n)
            results.append(FixedPointResult(zero, iterations, ResidualReport(0.0, 0.0, 0.0), 0))
            continue
        with contextlib.suppress(FunctionDomainError):
            results.append(_polish(p, plan, interp_apply(u, *hand_off), iterations))
    return [r for r in results if r is not None]


def classify_solution(
    u: SolutionCurve, tt: ThresholdTriple | None, eta: float, zero_is_solution: bool = False
) -> SolutionClass:
    """Label a solution by the three size predicates; unclassified on the edges or without thresholds.

    It is trivial when u = 0 solves the problem (`Problem.zero_is_solution`) and every value of u is 0.0.
    """
    norm = u.sup_norm()
    min_full = u.min_value()
    min_tail = u.min_from(eta)
    label = "unclassified"
    if tt is not None:
        a, b, _, _ = tt.floats
        if norm < a:
            label = "small"
        elif min_full > b:
            label = "large-min"
        elif norm > a and min_full < b:
            label = "middle"
    trivial = zero_is_solution and not u.values.any()
    return SolutionClass(norm=norm, min_full=min_full, min_tail=min_tail, label=label, trivial=trivial)


def find_solutions(
    p: Problem, thresholds: ThresholdTriple | None = None, grid_n: int = DEFAULT_GRID_N
) -> list[tuple[FixedPointResult, SolutionClass]]:
    """Newton roots of u = A u on grid_n nodes that pass _polish's gate, in (sup norm, min) order, distinct and classified."""
    with np.errstate(over="ignore", invalid="ignore"):  # a start where f stops being finite is dropped
        found = newton_solutions(p, thresholds, grid_n)
    found.sort(key=lambda r: (r.curve.sup_norm(), r.curve.min_value()))
    eta, zero = p.floats[1], p.zero_is_solution
    kept = _distinct(np.array([r.curve.values for r in found]))
    return [(found[i], classify_solution(found[i].curve, thresholds, eta, zero)) for i in kept]
