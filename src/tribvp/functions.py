"""Catalog of nonlinearities f(t, u).

A closed set of forms covers every problem instance and test in this package;
there is deliberately no expression parser.  Each spec evaluates on scalars
(exactly, when the inputs and parameters are Fractions) and on numpy arrays
(double precision, broadcasting over t and u).

All specs must be nonnegative for t in [0, T], u >= 0, and piecewise forms
must be continuous at their breakpoints; both are checked at construction.

The array path converts each form's parameters to float once (a cached
property of the frozen dataclass).

Every form bounds itself on a box with `range(t_lo, t_hi, u_lo, u_hi)`: exact
from box edges and breakpoints for the forms monotone on each branch, and a
rigorous interval enclosure for polynomials (Moore, *Interval Analysis*;
Tucker, *Validated Numerics*).
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import FunctionDomainError, FunctionSpecError
from .numeric import Number, is_exact, parse_number, render_number

# Below this, a negative u is treated as a domain violation rather than noise.
NEGATIVE_U_TOL = 1e-10

# Continuity requirement at piecewise breakpoints.
BREAKPOINT_TOL = 1e-9

# Bisection depth at which a polynomial's range takes its Taylor-form enclosure.
POLY_DEPTH = 40

EXACT, ENCLOSURE = "exact", "enclosure"


def _check_u_domain(u):
    umin = np.min(u) if np.ndim(u) else u
    if umin < -NEGATIVE_U_TOL:
        raise FunctionDomainError(f"f evaluated at u = {umin}, below domain [0, inf)")


def _clip_u(u):
    if np.ndim(u):
        return np.maximum(u, 0.0)
    return max(u, type(u)(0))


def _polyval(coeffs, x):
    """Horner's rule; exact for Fractions, else double precision (x may be an array)."""
    acc = np.zeros_like(x) if np.ndim(x) else 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class Range(NamedTuple):
    """Bounds lo <= f <= hi on a box.  "exact": they are f's values at lo_at and
    hi_at; "enclosure": they are proved, and lo_at, hi_at are sub-box centres."""

    lo: float
    hi: float
    lo_at: tuple[float, float]
    hi_at: tuple[float, float]
    method: str


def _range(lows, highs=None) -> Range:
    """Range from (value, (t, u), method) candidates that contain the box extrema."""
    lo = min(lows, key=lambda c: c[0])
    hi = max(lows if highs is None else highs, key=lambda c: c[0])
    method = EXACT if lo[2] == hi[2] == EXACT else ENCLOSURE
    return Range(float(lo[0]), float(hi[0]), lo[1], hi[1], method)


# --- exact interval arithmetic for polynomial ranges -----------------------


def _horner(coeffs, x) -> tuple:
    """Interval Horner: encloses sum_k coeffs[k] s^k for s in the interval x."""
    lo = hi = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        products = (lo * x[0], lo * x[1], hi * x[0], hi * x[1])
        lo, hi = min(products) + c, max(products) + c
    return lo, hi


def _taylor(coeffs, x0) -> list:
    """a_k with p(x0 + s) = sum_k a_k s^k (repeated synthetic division)."""
    a = list(coeffs)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += x0 * a[j + 1]
    return a


def _one_signed(a, s) -> bool:
    """Whether p'(x0 + s) keeps one sign for s in s = [0, w] or [-w, 0], given p's
    Taylor coefficients a at x0 (a factor s^j of p' keeps its sign through Horner)."""
    lo, hi = _horner([k * c for k, c in enumerate(a)][1:] or [0], s)
    return lo >= 0 or hi <= 0


def _simplest(a, b) -> Fraction:
    """The rational with the least denominator in the open interval (a, b)."""
    n = math.floor(a)
    if n + 1 < b:
        return Fraction(n + 1)
    return n + 1 / _simplest(1 / (b - n), 1 / (a - n) if a > n else math.inf)


def _float(x: Fraction, toward: float = 0.0) -> float:
    """x as the nearest float, or rounded toward -inf or inf; +-inf beyond the float range."""
    if abs(x) > sys.float_info.max:
        big = math.inf if toward == 0 or (toward > 0) == (x > 0) else sys.float_info.max
        return big if x > 0 else -big
    f = float(x)
    return f if toward == 0 or Fraction(f) == x or (Fraction(f) > x) == (toward > 0) else math.nextafter(f, toward)


def _poly_range(coeffs, lo: float, hi: float, at) -> Range:
    """Range of p(x) = sum_k coeffs[k] x^k on [lo, hi]; at(x) is x's (t, u) point.

    Exact rational arithmetic.  Where p' keeps one sign on a sub-interval X (by
    interval Horner of its Taylor form at either end, which also proves it when
    p' vanishes at that end), p is monotone on X with endpoint extrema.  Others
    are split at the simplest rational inside if p' vanishes there (so rational
    roots of p' become ends), else bisected, until the Taylor-form enclosure of
    p on X lies within the values found, is as narrow as floats resolve, or
    POLY_DEPTH levels deep; then it enters the range.  The list is never capped.
    """
    p = [Fraction(c) for c in coeffs]
    dp = [k * c for k, c in enumerate(p)][1:]
    ends = [(_float(_polyval(p, x)), at(float(x)), EXACT) for x in (Fraction(lo), Fraction(hi))]
    lows, highs, stack = [], [], [(Fraction(lo), Fraction(hi), 0)]
    while stack:
        a, b, depth = stack.pop()
        ta, tb, w = _taylor(p, a), _taylor(p, b), b - a
        if _one_signed(ta, (0, w)) or _one_signed(tb, (-w, 0)):
            ends += [(_float(_polyval(p, x)), at(float(x)), EXACT) for x in (a, b)]
            continue
        (alo, ahi), (blo, bhi) = _horner(ta, (0, w)), _horner(tb, (-w, 0))
        vlo, vhi = _float(max(alo, blo), -math.inf), _float(min(ahi, bhi), math.inf)
        if min(ends)[0] <= vlo and vhi <= max(ends)[0]:
            continue
        if depth < POLY_DEPTH and math.nextafter(vlo, math.inf) < vhi:
            c = _simplest(a, b)
            m = c if _polyval(dp, c) == 0 else (a + b) / 2
            stack += [(a, m, depth + 1), (m, b, depth + 1)]
        else:
            lows.append((vlo, at(float((a + b) / 2)), ENCLOSURE))
            highs.append((vhi, at(float((a + b) / 2)), ENCLOSURE))
    return _range(ends + lows, ends + highs)


@dataclass(frozen=True)
class FunctionSpec(ABC):
    """Base class: a nonnegative continuous f(t, u); subclasses define _value and range."""

    kind = "abstract"

    def __call__(self, t, u):
        _check_u_domain(u)
        return self._value(t, _clip_u(u))

    @abstractmethod
    def _value(self, t, u):
        """f at (t, u) for u >= 0, on scalars or broadcasting numpy arrays."""

    @abstractmethod
    def range(self, t_lo: float, t_hi: float, u_lo: float, u_hi: float) -> Range:
        """Bounds of f over the box [t_lo, t_hi] x [u_lo, u_hi]."""

    def _attained(self, points) -> Range:  # for forms whose box extrema lie among `points`
        return _range([(float(self(t, u)), (t, u), EXACT) for t, u in points])

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class RationalSigmoid(FunctionSpec):
    """Autonomous f(u) = scale * u^2 / (u^2 + 1); increasing, sup = scale."""

    scale: Number = 1

    kind = "autonomous-rational-sigmoid"

    def _value(self, t, u):
        if isinstance(u, Fraction) and is_exact(self.scale):
            uu = u * u
            return self.scale * uu / (uu + 1)
        u = np.asarray(u, dtype=float) if np.ndim(u) else float(u)
        uu = u * u
        return self._scale * uu / (uu + 1.0)

    _scale = cached_property(lambda self: float(self.scale))

    def range(self, t_lo, t_hi, u_lo, u_hi):
        return self._attained([(t_lo, u_lo), (t_lo, u_hi)])

    def to_config(self):
        return {"kind": self.kind, "params": [render_number(self.scale)]}


@dataclass(frozen=True)
class ConstantF(FunctionSpec):
    """f(t, u) = c.  c = 0 is allowed for tests but fails the H1 check."""

    value: Number = 0

    kind = "constant"

    def _value(self, t, u):
        if np.ndim(u) or np.ndim(t):
            return np.broadcast_to(float(self.value), np.broadcast_shapes(np.shape(t), np.shape(u))).copy()
        return self.value if isinstance(u, Fraction) else float(self.value)

    def range(self, t_lo, t_hi, u_lo, u_hi):
        return self._attained([(t_lo, u_lo)])

    def to_config(self):
        return {"kind": self.kind, "params": [render_number(self.value)]}


@dataclass(frozen=True)
class PolynomialU(FunctionSpec):
    """Autonomous polynomial in u: coeffs[0] + coeffs[1]*u + ..."""

    coeffs: tuple = (0,)

    kind = "polynomial"

    def _value(self, t, u):
        if isinstance(u, Fraction) and is_exact(*self.coeffs):
            return _polyval(self.coeffs, u)
        acc = _polyval(self._coeffs, np.asarray(u, dtype=float) if np.ndim(u) else float(u))
        if np.ndim(t) and not np.ndim(acc):
            acc = np.broadcast_to(acc, np.shape(t)).copy()
        return acc

    _coeffs = cached_property(lambda self: [float(c) for c in self.coeffs])

    def range(self, t_lo, t_hi, u_lo, u_hi):
        return _poly_range(self.coeffs, u_lo, u_hi, lambda u: (t_lo, u))

    def to_config(self):
        return {"kind": self.kind, "params": [render_number(c) for c in self.coeffs]}


# --- piecewise machinery -------------------------------------------------

_PIECE_FORMS = ("linear", "constant", "rational-linear")


@dataclass(frozen=True)
class Piece:
    """One branch of a piecewise definition in u.

    `until` is the right breakpoint (None for the final, unbounded branch).
    Forms: linear [A, B] -> A*u + B; constant [C]; rational-linear
    [a1, a0, b1, b0] -> (a1*u + a0)/(b1*u + b0).
    """

    until: Number | None
    form: str
    params: tuple

    def evaluate(self, u):
        exact = isinstance(u, Fraction) and is_exact(*self.params)
        p = self.params if exact else self._floats
        if not exact and np.ndim(u) == 0:
            u = float(u)
        if self.form == "linear":
            return p[0] * u + p[1]
        if self.form == "constant":
            if np.ndim(u):
                return np.full_like(np.asarray(u, dtype=float), p[0])
            return p[0]
        if self.form == "rational-linear":
            a1, a0, b1, b0 = p
            return (a1 * u + a0) / (b1 * u + b0)
        raise FunctionSpecError(f"unknown piece form {self.form!r}")

    _floats = cached_property(lambda self: tuple(float(x) for x in self.params))

    def to_config(self):
        return {
            "until": None if self.until is None else render_number(self.until),
            "form": self.form,
            "params": [render_number(x) for x in self.params],
        }


@dataclass(frozen=True)
class PiecewiseU(FunctionSpec):
    """Autonomous piecewise function of u with linear/constant/rational branches."""

    pieces: tuple = ()

    kind = "piecewise"

    def __post_init__(self):
        if not self.pieces:
            raise FunctionSpecError("piecewise definition needs at least one branch")
        if self.pieces[-1].until is not None:
            raise FunctionSpecError("final branch must be unbounded (until = null)")
        breakpoints = [p.until for p in self.pieces[:-1]]
        if any(b is None for b in breakpoints):
            raise FunctionSpecError("only the final branch may be unbounded")
        for left, right in zip(breakpoints, breakpoints[1:]):
            if not right > left:
                raise FunctionSpecError(
                    f"breakpoints must be strictly ascending, got {left} then {right}"
                )
        for i, b in enumerate(breakpoints):
            lo = self.pieces[i].evaluate(b if isinstance(b, Fraction) else float(b))
            hi = self.pieces[i + 1].evaluate(b if isinstance(b, Fraction) else float(b))
            if abs(float(lo) - float(hi)) > BREAKPOINT_TOL:
                raise FunctionSpecError(
                    f"discontinuity at breakpoint u = {b}: "
                    f"left branch gives {float(lo)!r}, right branch gives {float(hi)!r}"
                )
        for left, piece in zip([0, *breakpoints], self.pieces):
            if piece.form == "rational-linear":
                # No pole on the branch iff the denominator has one sign at both ends
                # (at u = inf: the sign of b1, or of b0 when b1 = 0).
                b1, b0 = piece.params[2:]
                far = (b1 or b0) if piece.until is None else b1 * piece.until + b0
                if (b1 * left + b0) * far <= 0:
                    raise FunctionSpecError(f"rational-linear branch on [{left}, {piece.until}] has a pole")

    def _value(self, t, u):
        # Branch membership is [x_i, x_{i+1}); continuity makes the edge choice moot.
        # Each branch sees only its own points, so a rational branch never meets its pole.
        if np.ndim(u) == 0:
            out = next((p for p in self.pieces[:-1] if u < p.until), self.pieces[-1]).evaluate(u)
        else:
            u = np.asarray(u, dtype=float)
            branch = np.searchsorted(self._breaks, u, side="right")
            out = np.empty_like(u)
            for i in range(branch.min(), branch.max() + 1):
                on = branch == i
                out[on] = self.pieces[i].evaluate(u[on])
        if np.ndim(t) and not np.ndim(out):
            out = np.broadcast_to(out, np.shape(t)).copy()
        return out

    _breaks = cached_property(lambda self: np.array([float(p.until) for p in self.pieces[:-1]]))

    def range(self, t_lo, t_hi, u_lo, u_hi):
        # Each branch is monotone: its extrema are at the ends of its part of the box.
        # Both one-sided values at a breakpoint cover the slack BREAKPOINT_TOL allows.
        candidates, left = [], -math.inf
        for piece in self.pieces:
            right = math.inf if piece.until is None else float(piece.until)
            a, b = max(left, u_lo), min(right, u_hi)
            if a <= b:
                candidates += [(float(piece.evaluate(u)), (t_lo, u), EXACT) for u in (a, b)]
            left = right
        return _range(candidates)

    def to_config(self):
        return {"kind": self.kind, "pieces": [p.to_config() for p in self.pieces]}


@dataclass(frozen=True)
class PiecewiseLinearTable(FunctionSpec):
    """Piecewise-linear interpolation of (u_i, v_i) pairs, constant beyond the last."""

    table: tuple = ()

    kind = "piecewise-linear-table"

    def __post_init__(self):
        if len(self.table) < 2:
            raise FunctionSpecError("piecewise-linear table needs at least two points")
        us = [p[0] for p in self.table]
        for left, right in zip(us, us[1:]):
            if not right > left:
                raise FunctionSpecError("table abscissae must be strictly ascending")

    def _value(self, t, u):
        out = np.interp(np.asarray(u, dtype=float), *self._arrays)
        if np.ndim(u) == 0:
            out = float(out)
        if np.ndim(t) and not np.ndim(out):
            out = np.broadcast_to(out, np.shape(t)).copy()
        return out

    _arrays = cached_property(lambda self: np.array(self.table, dtype=float).T)  # abscissae, values

    def range(self, t_lo, t_hi, u_lo, u_hi):
        inside = [float(u) for u, _ in self.table if u_lo < u < u_hi]
        return self._attained([(t_lo, u) for u in (u_lo, *inside, u_hi)])

    def to_config(self):
        return {"kind": self.kind, "params": [render_number(x) for point in self.table for x in point]}


# --- time factors and products -------------------------------------------


@dataclass(frozen=True)
class TimeFactor:
    kind = "abstract"

    def evaluate(self, t):
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ExpDecay(TimeFactor):
    """exp(-rate * t)."""

    rate: Number = 1

    kind = "exp-decay"

    def evaluate(self, t):
        if np.ndim(t):
            return np.exp(self._neg_rate * np.asarray(t, dtype=float))
        return math.exp(self._neg_rate * float(t))

    _neg_rate = cached_property(lambda self: -float(self.rate))

    def range(self, t_lo, t_hi, u_lo, u_hi):
        return _range([(self.evaluate(t), (t, u_lo), EXACT) for t in (t_lo, t_hi)])

    def to_config(self):
        return {"kind": self.kind, "params": [render_number(self.rate)]}


@dataclass(frozen=True)
class PolynomialT(TimeFactor):
    coeffs: tuple = (1,)

    kind = "polynomial"

    def evaluate(self, t):
        return _polyval(self._coeffs, np.asarray(t, dtype=float) if np.ndim(t) else float(t))

    _coeffs = cached_property(lambda self: [float(c) for c in self.coeffs])

    def range(self, t_lo, t_hi, u_lo, u_hi):
        return _poly_range(self.coeffs, t_lo, t_hi, lambda t: (t, u_lo))

    def to_config(self):
        return {"kind": self.kind, "params": [render_number(c) for c in self.coeffs]}


@dataclass(frozen=True)
class ProductF(FunctionSpec):
    """f(t, u) = time_factor(t) * u_factor(u)."""

    time_factor: TimeFactor = None
    u_factor: FunctionSpec = None

    kind = "product"

    def __post_init__(self):
        if isinstance(self.u_factor, ProductF):
            raise FunctionSpecError("a product's u factor must be a function of u alone")

    def _value(self, t, u):
        h = self.u_factor._value(t, u)
        return self.time_factor.evaluate(t) * (float(h) if isinstance(h, Fraction) else h)

    def range(self, t_lo, t_hi, u_lo, u_hi):
        # t and u vary independently, so all four corners (each factor's lo or hi,
        # zipped with its point) are attained, and a product's extrema lie on corners.
        tr, ur = (f.range(t_lo, t_hi, u_lo, u_hi) for f in (self.time_factor, self.u_factor))
        method = EXACT if tr.method == ur.method == EXACT else ENCLOSURE
        return _range([(tv * uv, (tp[0], up[1]), method)
                       for tv, tp in zip(tr[:2], tr[2:4]) for uv, up in zip(ur[:2], ur[2:4])])

    def to_config(self):
        return {"kind": self.kind, "time": self.time_factor.to_config(), "u": self.u_factor.to_config()}


# --- parsing ---------------------------------------------------------------


def _parse_pieces(doc_pieces) -> tuple[Piece, ...]:
    pieces = []
    for frag in doc_pieces:
        form = frag.get("form")
        if form not in _PIECE_FORMS:
            raise FunctionSpecError(f"unknown piece form {form!r}")
        until = frag.get("until")
        pieces.append(
            Piece(
                until=None if until is None else parse_number(until),
                form=form,
                params=tuple(parse_number(x) for x in frag.get("params", [])),
            )
        )
    return tuple(pieces)


def parse_function_spec(doc: dict, t_max: float = 1.0, u_max: float = 10.0) -> FunctionSpec:
    """Build a FunctionSpec from a config fragment and run construction checks.

    Rejects unknown kinds, discontinuous piecewise tables, rational-linear
    branches with a pole, and any spec whose range on [0, t_max] x [0, u_max]
    reaches below 0.  A `monotone_in_u` key is accepted and ignored: the range
    finds each form's extrema without it.  `separable-exponential-piecewise`
    [rate] with `pieces` is the product exp(-rate*t) * piecewise(u).
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FunctionSpecError(f"function spec must be an object with a 'kind': {doc!r}")
    kind = doc["kind"]
    params = [parse_number(x) for x in doc.get("params", [])]

    if kind == "autonomous-rational-sigmoid":
        if len(params) != 1:
            raise FunctionSpecError("autonomous-rational-sigmoid takes params [scale]")
        spec = RationalSigmoid(scale=params[0])
    elif kind == "constant":
        if len(params) != 1:
            raise FunctionSpecError("constant takes params [value]")
        spec = ConstantF(value=params[0])
    elif kind == "polynomial":
        if not params:
            raise FunctionSpecError("polynomial needs at least one coefficient")
        spec = PolynomialU(coeffs=tuple(params))
    elif kind == "piecewise":
        spec = PiecewiseU(pieces=_parse_pieces(doc.get("pieces", [])))
    elif kind == "piecewise-linear-table":
        if len(params) < 4 or len(params) % 2:
            raise FunctionSpecError("piecewise-linear-table params are flattened (u, v) pairs")
        table = tuple((params[i], params[i + 1]) for i in range(0, len(params), 2))
        spec = PiecewiseLinearTable(table=table)
    elif kind == "separable-exponential-piecewise":
        if len(params) != 1:
            raise FunctionSpecError("separable-exponential-piecewise takes params [rate]")
        h = PiecewiseU(pieces=_parse_pieces(doc.get("pieces", [])))
        spec = ProductF(time_factor=ExpDecay(rate=params[0]), u_factor=h)
    elif kind == "product":
        time_doc = doc.get("time")
        u_doc = doc.get("u")
        if not time_doc or not u_doc:
            raise FunctionSpecError("product takes 'time' and 'u' factor specs")
        tkind = time_doc.get("kind")
        tparams = [parse_number(x) for x in time_doc.get("params", [])]
        if tkind == "exp-decay":
            tf = ExpDecay(rate=tparams[0])
        elif tkind == "polynomial":
            tf = PolynomialT(coeffs=tuple(tparams))
        elif tkind == "constant":
            tf = PolynomialT(coeffs=(tparams[0],))
        else:
            raise FunctionSpecError(f"unknown time-factor kind {tkind!r}")
        spec = ProductF(time_factor=tf, u_factor=parse_function_spec(u_doc, t_max, u_max))
    else:
        raise FunctionSpecError(f"unknown function kind {kind!r}")

    r = spec.range(0.0, float(t_max), 0.0, float(u_max))
    if r.lo < 0:
        raise FunctionSpecError(f"nonlinearity is negative at (t, u) = {r.lo_at}: {r.lo} ({r.method} bound)")
    return spec
