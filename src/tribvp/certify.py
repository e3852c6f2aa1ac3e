"""Certification of the triple-solution sufficient conditions.

For thresholds 0 < a < b < b/gamma <= c the three growth conditions are

    D1:  f(t, u) <  m*a      on [0, T]   x [0, a]        (strict)
    D2:  f(t, u) >= b/delta  on [eta, T] x [b, b/gamma]
    D3:  f(t, u) <= m*c      on [0, T]   x [0, c]

Each box is bounded by the nonlinearity's own `range`: the extremum for forms
monotone on each branch, a rigorous enclosure for polynomials.  Reports carry
the margin, the point that bounds f, and the method ("exact" or "enclosure").
A positive verdict is a proof only where the margin is wider than rounding:
the extremum and the levels m*a, b/delta and m*c are compared as
round-to-nearest floats, so a margin within a few ulps of 0 can read as
holding when the condition fails exactly (ROADMAP item 19; pinned by
tests/test_certify.py::test_d1_met_with_equality_in_exact_arithmetic_is_refused).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .constants import LWConstants
from .errors import CertificationError
from .functions import EXACT, Range
from .numeric import Number, Unreduced, exact_operands, render_number
from .problem import FLOAT_STRICTNESS_TOL, Problem

# Threshold search: each axis is scanned on SEARCH_PER_AXIS log-spaced points
# of [SEARCH_LO, SEARCH_HI], zooming in at most SEARCH_MAX_LEVELS times.
SEARCH_LO = 1e-4
SEARCH_HI = 1e4
SEARCH_PER_AXIS = 13
SEARCH_MAX_LEVELS = 8
# Relative slack of a refuted bracket [x_lo, x_hi]: it is widened to [x_lo(1-s), x_hi(1+s)], and
# f at the witness is shaded by the same s, which covers the ulps by which a later level's
# samples, its boxes' float bounds and the witness's value can stray.
_REFUTE_SLACK = 1e-9


@dataclass(frozen=True)
class ThresholdTriple:
    """Solution-size thresholds (a, b, c) and the derived tail level d = b/gamma."""

    a: Number
    b: Number
    c: Number
    d: Number | None = None

    @cached_property
    def floats(self) -> tuple[float, float, float, float | None]:
        """(a, b, c, d) as floats, converted once; d stays None when unset."""
        return float(self.a), float(self.b), float(self.c), None if self.d is None else float(self.d)

    def with_gamma(self, gamma: Number) -> "ThresholdTriple":
        return ThresholdTriple(self.a, self.b, self.c, self.b / gamma)

    def to_dict(self) -> dict:
        doc = {"a": render_number(self.a), "b": render_number(self.b), "c": render_number(self.c)}
        if self.d is not None:
            doc["d"] = render_number(self.d)
        return doc


@dataclass(frozen=True)
class ConditionReport:
    """One growth condition's outcome on its box."""

    condition: str
    holds: bool
    margin: float
    bound: float
    worst_point: tuple[float, float]
    method: str

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "holds": self.holds,
            "margin": self.margin,
            "bound": self.bound,
            "worst_point": list(self.worst_point),
            "method": self.method,
        }


@dataclass(frozen=True)
class Certificate:
    """Aggregate verdict: threshold ordering plus all three growth conditions."""

    ordering_ok: bool
    d1: ConditionReport
    d2: ConditionReport
    d3: ConditionReport

    @property
    def verdict(self) -> bool:
        return self.ordering_ok and self.d1.holds and self.d2.holds and self.d3.holds

    def to_dict(self) -> dict:
        return {
            "ordering_ok": self.ordering_ok,
            "d1": self.d1.to_dict(),
            "d2": self.d2.to_dict(),
            "d3": self.d3.to_dict(),
            "verdict": self.verdict,
        }


def check_ordering(tt: ThresholdTriple, gamma: Number) -> bool:
    """Strict 0 < a < b < b/gamma, non-strict b/gamma <= c."""
    if not 0 < float(gamma) < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    a, b, c, gamma = exact_operands(tt.a, tt.b, tt.c, gamma)
    tol = 0 if isinstance(a, Unreduced) else FLOAT_STRICTNESS_TOL
    d = b / gamma
    return bool(a > tol and b - a > tol and d - b > tol and c >= d - tol)


def _box_range(p: Problem, t_lo: float, t_hi: float, u_lo, u_hi) -> Range:
    """Bounds of f over the box [t_lo, t_hi] x [u_lo, u_hi], all floats, or over one box
    per entry of the float array u_hi (u_lo then a float or an array like it).

    Boxes go through numpy under Python's float rules: overflow and NaN pass
    silently, and a division by zero raises.
    """
    if p.f is None:
        raise CertificationError("problem has no nonlinearity to certify")
    try:
        if not isinstance(u_hi, np.ndarray):
            return p.f.range(t_lo, t_hi, u_lo, u_hi)
        with np.errstate(divide="raise", over="ignore", invalid="ignore"):
            return p.f.range(t_lo, t_hi, u_lo if isinstance(u_lo, np.ndarray) else np.full_like(u_hi, u_lo), u_hi)
    except Exception as exc:  # any failure of a user-supplied f voids the certificate
        if isinstance(u_hi, np.ndarray):
            u_lo, u_hi = f"{np.min(u_lo)}", f"{np.max(u_hi)} ({u_hi.size} boxes)"
        raise CertificationError(f"f evaluation failed on [{t_lo}, {t_hi}] x [{u_lo}, {u_hi}]: {exc}") from exc


# The conditions on floats: x, b and d are one threshold each, or arrays of them
# (one box each).  They return (holds, margin, bound, range).


def _cap(p: Problem, T: float, m: float, x, strict: bool) -> tuple:
    """f against the cap m*x on [0, T] x [0, x] (D1 strict, D3 not)."""
    bound = m * x
    r = _box_range(p, 0.0, T, 0.0, x)
    margin = bound - r.hi
    return (margin > 0 if strict else margin >= 0), margin, bound, r


def _floor(p: Problem, eta: float, T: float, delta: float, b, d) -> tuple:
    """f against the floor b/delta on [eta, T] x [b, d] (D2)."""
    bound = b / delta
    r = _box_range(p, eta, T, b, d)
    margin = r.lo - bound
    return margin >= 0, margin, bound, r


# Refuters: whether no threshold in the bracket [x_lo, x_hi], widened by _REFUTE_SLACK, can
# pass _cap or _floor.  Each bounds f on one witness segment {u} x [t_lo, t_hi] that lies in
# every box of the bracket; a witness where f raises or is not finite refutes nothing.


def _on_segment(p: Problem, t_lo: float, t_hi: float, u: float) -> Range | None:
    """f's range on the segment [t_lo, t_hi] x {u}, or None if f raises or is not finite there.

    An "exact" range's lo and hi are values f takes on the segment; an "enclosure" only bounds them."""
    try:
        r = p.f.range(t_lo, t_hi, u, u)
    except Exception:  # the next level's array call reports a failing f
        return None
    return r if math.isfinite(r.lo) and math.isfinite(r.hi) else None


def _cap_refuted(p: Problem, T: float, m: float, x_lo: float, x_hi: float, strict: bool) -> bool:
    """Every box [0, T] x [0, x] of the bracket holds the segment u = x_lo(1-s): _cap fails on all
    of them when f there reaches the largest cap m*x_hi(1+s) (exceeds it if not strict)."""
    s = _REFUTE_SLACK
    r = _on_segment(p, 0.0, T, x_lo * (1 - s))
    if r is None:
        return False
    f, cap = (r.hi if r.method == EXACT else r.lo) * (1 - s), m * x_hi * (1 + s)
    return f >= cap if strict else f > cap


def _floor_refuted(p: Problem, eta: float, T: float, delta: float, gamma: float, x_lo: float, x_hi: float) -> bool:
    """When the bracket is narrow enough that every box [eta, T] x [b, b/gamma] of it holds the
    segment u = x_hi(1+s): _floor fails on all of them when f there is below the least floor
    x_lo(1-s)/delta."""
    s = _REFUTE_SLACK
    lo, hi = x_lo * (1 - s), x_hi * (1 + s)
    if hi > lo / gamma:
        return False
    r = _on_segment(p, eta, T, hi)
    return r is not None and (r.lo if r.method == EXACT else r.hi) * (1 + s) < lo / delta


def _check_cap(p: Problem, condition: str, name: str, m: Number, x: Number, strict: bool) -> ConditionReport:
    """D1 or D3 as condition: f against the cap m*x on [0, T] x [0, x], for the positive threshold x called name."""
    x = float(x)
    if not x > 0:
        raise ValueError(f"threshold {name} must be positive")
    holds, margin, bound, r = _cap(p, p.floats[0], float(m), x, strict)
    return ConditionReport(condition, holds=holds, margin=margin, bound=bound, worst_point=r.hi_at, method=r.method)


def check_D1(p: Problem, m: Number, a: Number) -> ConditionReport:
    """Small-range cap: f < m*a on [0, T] x [0, a] (strict)."""
    return _check_cap(p, "D1", "a", m, a, strict=True)


def check_D2(p: Problem, delta: Number, b: Number, gamma: Number) -> ConditionReport:
    """Tail floor: f >= b/delta on [eta, T] x [b, b/gamma]."""
    b_lo = float(b)
    if not b_lo > 0:
        raise ValueError("threshold b must be positive")
    T, eta, _, _ = p.floats
    holds, margin, bound, r = _floor(p, eta, T, float(delta), b_lo, float(b / gamma))
    return ConditionReport("D2", holds=holds, margin=margin, bound=bound, worst_point=r.lo_at, method=r.method)


def check_D3(p: Problem, m: Number, c: Number) -> ConditionReport:
    """Global cap: f <= m*c on [0, T] x [0, c]."""
    return _check_cap(p, "D3", "c", m, c, strict=False)


def certify(p: Problem, tt: ThresholdTriple, k: LWConstants) -> Certificate:
    """Check the ordering and all three growth conditions; verdict is their conjunction."""
    return Certificate(
        ordering_ok=check_ordering(tt, k.gamma),
        d1=check_D1(p, k.m, tt.a),
        d2=check_D2(p, k.delta, tt.b, k.gamma),
        d3=check_D3(p, k.m, tt.c),
    )


def _feasible_axis_points(evaluate, refute) -> list[float]:
    """Coarse-to-fine log-grid scan of one threshold axis.

    evaluate(xs) returns (holds, margin, bound, range) for the array xs, one
    box per point.  Each level scans SEARCH_PER_AXIS points in one call; if
    none holds, the next level zooms into the one-step bracket [x_lo, x_hi]
    around the best relative margin.  Every later sample lies in that bracket,
    so when refute(x_lo, x_hi) proves that no point of it can hold, the scan
    stops with the [] the remaining levels would return.  Growth conditions
    depend on a single threshold each, so the axes can be searched
    independently like this.
    """
    lo_log, hi_log = np.log10(SEARCH_LO), np.log10(SEARCH_HI)
    for level in range(SEARCH_MAX_LEVELS + 1):
        xs = np.logspace(lo_log, hi_log, SEARCH_PER_AXIS)
        holds, margin, bound, _ = evaluate(xs)
        if holds.any():
            return xs[holds].tolist()
        rel = margin / np.maximum(np.abs(bound), 1e-300)
        best = int(np.argmax(rel))
        x_lo, x_hi = xs[max(best - 1, 0)], xs[min(best + 1, len(xs) - 1)]
        lo_log, hi_log = np.log10(x_lo), np.log10(x_hi)
        if hi_log - lo_log < 1e-15 or level == SEARCH_MAX_LEVELS or refute(float(x_lo), float(x_hi)):
            break
    return []


def search_thresholds(p: Problem, k: LWConstants) -> ThresholdTriple | None:
    """Find a certifiable (a, b, c) by coarse-to-fine scanning; None if absent.

    Each axis is scanned with local zooming (some problems admit only a
    narrow window, e.g. a pointwise-tight tail floor), and stops early once
    _cap_refuted or _floor_refuted proves that nothing in its bracket can
    hold, which returns what its remaining levels would.  The growth checks are
    proofs, so every scanned point that holds stays valid; the first triple in
    deterministic order (a ascending, b ascending) whose ordering holds is
    returned, with the largest feasible c: c enters the ordering only through
    c >= b/gamma, so no smaller c can hold where it fails.
    """
    T, eta, _, _ = p.floats
    m, delta, gamma = float(k.m), float(k.delta), float(k.gamma)
    feasible_a = _feasible_axis_points(
        lambda a: _cap(p, T, m, a, strict=True), partial(_cap_refuted, p, T, m, strict=True)
    )
    if not feasible_a:
        return None
    feasible_b = _feasible_axis_points(
        lambda b: _floor(p, eta, T, delta, b, b / gamma), partial(_floor_refuted, p, eta, T, delta, gamma)
    )
    if not feasible_b:
        return None
    feasible_c = _feasible_axis_points(
        lambda c: _cap(p, T, m, c, strict=False), partial(_cap_refuted, p, T, m, strict=False)
    )
    if not feasible_c:
        return None

    c = max(feasible_c)
    for a in feasible_a:
        for b in feasible_b:
            if b > a and c >= b / gamma:
                tt = ThresholdTriple(a, b, c).with_gamma(gamma)
                if check_ordering(tt, k.gamma):
                    return tt
    return None
