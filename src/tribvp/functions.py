"""Catalog of nonlinearities f(t, u).

A closed set of forms covers every problem instance and test in this package;
there is deliberately no expression parser.  Each spec evaluates on scalars
(exactly, when the inputs and parameters are Fractions) and on numpy arrays
(double precision, broadcasting over t and u).

All specs must be nonnegative for t in [0, T], u >= 0, and piecewise forms
must be continuous at positive breakpoints; both are checked at construction.

The array path converts each form's parameters to float once (a cached
property of the frozen dataclass).

Every form gives its exact slope df/du with `df_du(t, u)`, in double
precision: the derivative of the branch it evaluates, right-sided at u = 0, at
breakpoints and at table abscissae.  The Newton Jacobians use it.

Every form bounds itself on a box with `range(t_lo, t_hi, u_lo, u_hi)`: exact
from box edges and breakpoints for the forms monotone on each branch, and a
rigorous interval enclosure for polynomials (Moore, *Interval Analysis*;
Tucker, *Validated Numerics*).  The same call bounds many boxes with one t
interval when u_lo and u_hi are arrays of u edges, one box per entry, and
then gives lo and hi only: the sigmoid, piecewise and product forms and a
constant (the degree-0 polynomial) pick from all boxes' candidates at once,
the other polynomials and the table forms take the boxes one by one.  Either
way each box's lo and hi are the bits the scalar call gives it.
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
from .numeric import Number, is_exact, parse_field, render_number

# Below this, a negative u is treated as a domain violation rather than noise.
NEGATIVE_U_TOL = 1e-10

# Continuity requirement at piecewise breakpoints.
BREAKPOINT_TOL = 1e-9

# Top of the u range [0, F_CHECK_U_MAX] of the f >= 0 checks when no threshold c sets one.
F_CHECK_U_MAX = 10.0

# Bisection depth at which a polynomial's range takes its Taylor-form enclosure.
POLY_DEPTH = 40

EXACT, ENCLOSURE = "exact", "enclosure"


def _is_array(x) -> bool:
    """np.ndim(x) > 0, answered without numpy for arrays and Python numbers."""
    if isinstance(x, np.ndarray):
        return x.ndim > 0
    return not isinstance(x, (float, int, Fraction)) and np.ndim(x) > 0


def _is_fraction(x) -> bool:
    """isinstance(x, Fraction), with floats and numpy arrays judged by their type alone."""
    kind = type(x)
    return kind is Fraction or (kind is not np.ndarray and kind is not float and isinstance(x, Fraction))


def _polyval(coeffs, x):
    """Horner's rule; exact for Fractions, else double precision (x may be an array)."""
    acc = np.zeros_like(x) if _is_array(x) else 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class Range(NamedTuple):
    """Bounds lo <= f <= hi on a box.  "exact": they are f's values at lo_at and
    hi_at; "enclosure": they are proved, and lo_at, hi_at are sub-box centres.

    Over arrays of boxes lo and hi are arrays, one entry per box, and lo_at,
    hi_at and method are None: the scalar call on a box gives them."""

    lo: float
    hi: float
    lo_at: tuple[float, float]
    hi_at: tuple[float, float]
    method: str


def _part(left, right, lo, hi) -> tuple:
    """The part [max(left, lo), min(right, hi)] of [lo, hi] inside [left, right], empty
    where its ends cross; entry by entry for arrays, with max's and min's choice on
    ties and NaN."""
    if isinstance(lo, np.ndarray):
        return np.where(lo > left, lo, left), np.where(hi < right, hi, right)
    return max(left, lo), min(right, hi)


def _range(lows, highs=None) -> Range:
    """Range from (value, (t, u), method) candidates that contain the box extrema;
    candidates valued on arrays of boxes go to _boxes_range.

    lo is the first least candidate and hi the first greatest.  A bound that is
    not finite, or picked from candidates that include a NaN, proves nothing: lo
    becomes -inf and hi inf.
    """
    if isinstance(lows[0][0], np.ndarray):
        return _boxes_range(np.array([c[0] for c in lows]))
    lo = min(lows, key=lambda c: c[0] if c[0] == c[0] else -math.inf)  # a NaN is picked first
    hi = max(lows if highs is None else highs, key=lambda c: c[0] if c[0] == c[0] else math.inf)
    lo_value = float(lo[0]) if math.isfinite(lo[0]) else -math.inf
    hi_value = float(hi[0]) if math.isfinite(hi[0]) else math.inf
    method = EXACT if lo[2] == hi[2] == EXACT else ENCLOSURE
    return Range(lo_value, hi_value, lo[1], hi[1], method)


def _boxes_range(values, on=None) -> Range:
    """lo and hi of n boxes from the values (k, n) of k candidates and `on`, the (k, n)
    mask of the boxes each candidate lies on (None: all); each box needs one at least.

    A box gets the bits _range gives its own candidates in order: argmin and
    argmax pick the first extreme one, or the first NaN, and a pick that is not
    finite becomes -inf for lo and inf for hi.
    """
    boxes = np.arange(values.shape[1])
    lows = values if on is None else np.where(on, values, math.inf)
    highs = values if on is None else np.where(on, values, -math.inf)
    lo, hi = lows[lows.argmin(axis=0), boxes], highs[highs.argmax(axis=0), boxes]
    return Range(np.where(lo < math.inf, lo, -math.inf), np.where(hi > -math.inf, hi, math.inf), None, None, None)


def _each_box(range_of, t_lo, t_hi, u_lo, u_hi) -> Range:
    """lo and hi of range_of on the boxes [t_lo, t_hi] x [u_lo[j], u_hi[j]], one by one."""
    ranges = [range_of(t_lo, t_hi, lo, hi) for lo, hi in zip(u_lo.tolist(), u_hi.tolist())]
    return Range(np.array([r.lo for r in ranges]), np.array([r.hi for r in ranges]), None, None, None)


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
    """Base class: a nonnegative continuous f(t, u); subclasses define _value, _slope and range."""

    kind = "abstract"

    def __call__(self, t, u):
        """f at (t, u), on scalars or on numpy arrays broadcast together.

        The evaluation contract, which df_du shares (both go through
        _on_domain): u below -NEGATIVE_U_TOL is a FunctionDomainError, a u
        between it and 0 is evaluated at 0, and a value of another shape than t
        and u together (a scalar, say) is broadcast to it.  A 0-d array u is the
        scalar it holds, and a list u an array.
        """
        return self._on_domain(self._value, t, u)

    def df_du(self, t, u):
        """The partial derivative of f in u at (t, u), in double precision, under __call__'s contract.

        On each branch it is the branch's derivative; at a kink (u = 0, a
        breakpoint, a table abscissa) it is the right-hand one, of the branch
        __call__ evaluates there.
        """
        return self._on_domain(self._slope, t, u)

    def _on_domain(self, evaluate, t, u):
        if isinstance(u, np.ndarray):
            if not u.ndim:
                u = u[()]
        elif _is_array(u):  # a list
            u = np.asarray(u)
        array = isinstance(u, np.ndarray)
        low = u.min() if array else u
        if low < -NEGATIVE_U_TOL:
            raise FunctionDomainError(f"f evaluated at u = {low}, below domain [0, inf)")
        if not array:
            out = evaluate(t, max(u, type(u)(0)))
            if not _is_array(t):
                return out
            shape = np.shape(t)
        else:
            # Where every u is above 0 the clamp changes no bit; where one is 0 or -0.0, the clamp
            # makes it +0.0, as a slope's sign needs.
            out = evaluate(t, u if low > 0 else np.maximum(u, 0.0))
            shape = u.shape if np.shape(t) in ((), u.shape) else np.broadcast(t, u).shape
        if np.shape(out) != shape:
            out = np.full(shape, out, dtype=float)
        return out

    @abstractmethod
    def _value(self, t, u):
        """f at (t, u) for u >= 0, on scalars or numpy arrays; __call__ broadcasts the value."""

    @abstractmethod
    def _slope(self, t, u):
        """df/du at (t, u) for u >= 0 as a float or float array, right-sided at kinks; df_du broadcasts it."""

    @abstractmethod
    def range(self, t_lo: float, t_hi: float, u_lo: float, u_hi: float) -> Range:
        """Bounds of f over the box [t_lo, t_hi] x [u_lo, u_hi], or over the boxes
        [t_lo, t_hi] x [u_lo[j], u_hi[j]] when u_lo and u_hi are 1-D float arrays of one shape."""

    def _attained(self, points) -> Range:  # for forms whose box extrema lie among `points`
        if isinstance(points[0][1], np.ndarray):  # arrays of boxes: f at all points in one call
            return _boxes_range(self(np.array([t for t, _ in points])[:, None], np.array([u for _, u in points])))
        return _range([(float(self(t, u)), (t, u), EXACT) for t, u in points])

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class RationalSigmoid(FunctionSpec):
    """Autonomous f(u) = scale * u^2 / (u^2 + 1); increasing, sup = scale."""

    scale: Number = 1

    kind = "autonomous-rational-sigmoid"

    def _value(self, t, u):
        if _is_fraction(u) and is_exact(self.scale):
            uu = u * u
            return self.scale * uu / (uu + 1)
        u = np.asarray(u, dtype=float) if _is_array(u) else float(u)
        uu = u * u
        return self._scale * uu / (uu + 1.0)

    _scale = cached_property(lambda self: float(self.scale))

    def _slope(self, t, u):
        u = np.asarray(u, dtype=float) if _is_array(u) else float(u)
        d = u * u + 1.0
        return self._twice_scale * u / (d * d)

    _twice_scale = cached_property(lambda self: float(2 * self.scale))

    def range(self, t_lo, t_hi, u_lo, u_hi):
        return self._attained([(t_lo, u_lo), (t_lo, u_hi)])

    def to_config(self):
        return {"kind": self.kind, "params": [render_number(self.scale)]}


@dataclass(frozen=True)
class PolynomialU(FunctionSpec):
    """Autonomous polynomial in u: coeffs[0] + coeffs[1]*u + ...; a `constant` f is the degree-0 one."""

    coeffs: tuple = (0,)

    kind = "polynomial"

    def _value(self, t, u):
        if _is_fraction(u) and is_exact(*self.coeffs):
            return _polyval(self.coeffs, u)
        return _polyval(self._coeffs, np.asarray(u, dtype=float) if _is_array(u) else float(u))

    _coeffs = cached_property(lambda self: [float(c) for c in self.coeffs])

    def _slope(self, t, u):
        return _polyval(self._dcoeffs, np.asarray(u, dtype=float) if _is_array(u) else float(u))

    _dcoeffs = cached_property(lambda self: [float(k * c) for k, c in enumerate(self.coeffs)][1:] or [0.0])  # p'

    def range(self, t_lo, t_hi, u_lo, u_hi):
        if len(self.coeffs) == 1:  # a constant attains its one value everywhere
            return self._attained([(t_lo, u_lo)])
        if isinstance(u_lo, np.ndarray):
            return _each_box(self.range, t_lo, t_hi, u_lo, u_hi)
        return _poly_range(self.coeffs, u_lo, u_hi, lambda u: (t_lo, u))

    def to_config(self):
        return {"kind": self.kind, "params": [render_number(c) for c in self.coeffs]}


# --- piecewise machinery -------------------------------------------------

_PIECE_ARITY = {"linear": 2, "constant": 1, "rational-linear": 4}  # params of each branch form


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

    def __post_init__(self):
        arity = _PIECE_ARITY.get(self.form) if isinstance(self.form, str) else None
        if arity is None:
            raise FunctionSpecError(f"unknown piece form {self.form!r}")
        if len(self.params) != arity:
            raise FunctionSpecError(f"params of a {self.form} branch: expected {arity}, got {len(self.params)}")

    def evaluate(self, u):
        exact = _is_fraction(u) and is_exact(*self.params)
        p = self.params if exact else self._floats
        if not exact and not _is_array(u):
            u = float(u)
        if self.form == "linear":
            return p[0] * u + p[1]
        if self.form == "constant":
            if _is_array(u):
                return np.full_like(np.asarray(u, dtype=float), p[0])
            return p[0]
        a1, a0, b1, b0 = p  # rational-linear
        return (a1 * u + a0) / (b1 * u + b0)

    def slope(self, u):
        """d/du of evaluate at u as a float; an array only for a rational-linear branch on an array u."""
        p = self._floats
        if self.form == "linear":
            return p[0]
        if self.form == "constant":
            return 0.0
        a1, a0, b1, b0 = p
        d = b1 * u + b0
        return (a1 * b0 - a0 * b1) / (d * d)

    _floats = cached_property(lambda self: tuple(float(x) for x in self.params))

    def to_config(self):
        return {
            "until": None if self.until is None else render_number(self.until),
            "form": self.form,
            "params": [render_number(x) for x in self.params],
        }


def _line(a, b, x) -> tuple[int, int]:
    """a*x + b as integers n, d with d > 0, for exact a, b and x."""
    an, ad, bn, bd, xn, xd = a.numerator, a.denominator, b.numerator, b.denominator, x.numerator, x.denominator
    return an * xn * bd + bn * ad * xd, ad * bd * xd


def _sign_of_line(a, b, x) -> int:
    """The sign of a*x + b: in integers when a, b and x are exact, else of Python's float value (0 for NaN)."""
    v = _line(a, b, x)[0] if is_exact(a, b, x) else a * x + b
    return (v > 0) - (v < 0)


def _value_at(piece: Piece, b):
    """The branch's value at breakpoint b as integers n, d with d > 0: exact when b is a Fraction and the
    parameters are exact, else those of the float Piece.evaluate gives at float(b), which stays a float
    when it is inf or NaN."""
    if isinstance(b, Fraction) and is_exact(*piece.params):
        if piece.form == "constant":
            c = piece.params[0]
            return c.numerator, c.denominator
        n, d = _line(*piece.params[:2], b)
        if piece.form == "linear":
            return n, d
        dn, dd = _line(*piece.params[2:], b)  # rational-linear: nonzero, as the pole check proved
        return (n * dd, d * dn) if dn > 0 else (-n * dd, -d * dn)
    v = piece.evaluate(float(b))
    return v.as_integer_ratio() if math.isfinite(v) else v


_TOL_N, _TOL_D = BREAKPOINT_TOL.as_integer_ratio()


def _apart(lo, hi) -> bool:
    """|lo - hi| > BREAKPOINT_TOL, exactly, for values as _value_at gives them."""
    if type(lo) is float or type(hi) is float:  # inf or NaN: any finite x (0.0 here) leaves inf - x and NaN - x as they are
        return abs((lo if type(lo) is float else 0.0) - (hi if type(hi) is float else 0.0)) > BREAKPOINT_TOL
    (n1, d1), (n2, d2) = lo, hi
    return abs(n1 * d2 - n2 * d1) * _TOL_D > _TOL_N * d1 * d2


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
        # Every check below is on exact values: plain comparisons, and integers where a branch is exact.
        if breakpoints and not breakpoints[0] > 0:
            raise FunctionSpecError(f"pieces[0].until = {breakpoints[0]} is not positive: f is defined for u >= 0 only")
        for left, right in zip(breakpoints, breakpoints[1:]):
            if not right > left:
                raise FunctionSpecError(
                    f"breakpoints must be strictly ascending, got {left} then {right}"
                )
        # Before the continuity check, which evaluates each branch at its ends and would divide by zero at a pole there.
        for left, piece in zip([0, *breakpoints], self.pieces):
            if piece.form == "rational-linear":
                # No pole on the branch iff the denominator has one sign at both ends
                # (at u = inf: the sign of b1, or of b0 when b1 = 0).
                b1, b0 = piece.params[2:]
                if piece.until is None:
                    far = ((b1 > 0) - (b1 < 0)) or (b0 > 0) - (b0 < 0)
                else:
                    far = _sign_of_line(b1, b0, piece.until)
                if _sign_of_line(b1, b0, left) * far <= 0:
                    raise FunctionSpecError(f"rational-linear branch on [{left}, {piece.until}] has a pole")
        for i, b in enumerate(breakpoints):
            if _apart(_value_at(self.pieces[i], b), _value_at(self.pieces[i + 1], b)):
                u = b if isinstance(b, Fraction) else float(b)
                lo, hi = (float(p.evaluate(u)) for p in self.pieces[i:i + 2])
                raise FunctionSpecError(
                    f"discontinuity at breakpoint u = {b}: left branch gives {lo!r}, right branch gives {hi!r}"
                )

    def _value(self, t, u):
        return self._on_branches(Piece.evaluate, u)

    def _slope(self, t, u):
        return self._on_branches(Piece.slope, u)

    def _on_branches(self, method, u):
        """method(piece, u) of each u's branch.  Branch membership is [x_i, x_{i+1}): continuity makes
        the edge choice moot for values, and makes slopes right-sided at breakpoints.  Each branch sees
        only its own points, so a rational branch never meets its pole."""
        if not _is_array(u):
            return method(next((p for p in self.pieces[:-1] if u < p.until), self.pieces[-1]), u)
        u = np.asarray(u, dtype=float)
        branch = np.searchsorted(self._breaks, u, side="right")
        out = np.empty_like(u)
        for i in range(branch.min(), branch.max() + 1):
            on = branch == i
            out[on] = method(self.pieces[i], u[on])
        return out

    # Branch i lies on [edges[i], edges[i + 1]]: the breakpoints as floats, from -inf to inf.
    _edges = cached_property(lambda self: (-math.inf, *(float(p.until) for p in self.pieces[:-1]), math.inf))
    _breaks = cached_property(lambda self: np.array(self._edges[1:-1]))
    # The left and right ends of the branches as (branch, 1) columns.
    _edge_columns = cached_property(lambda self: (np.array(self._edges[:-1])[:, None], np.array(self._edges[1:])[:, None]))

    def range(self, t_lo, t_hi, u_lo, u_hi):
        # Each branch is monotone: its extrema are at the ends of its part [a, b] of
        # the box, and it has none where a > b.  Both one-sided values at a
        # breakpoint cover the slack BREAKPOINT_TOL allows.
        if isinstance(u_lo, np.ndarray):
            return self._boxes(u_lo, u_hi)
        candidates = []
        for piece, left, right in zip(self.pieces, self._edges, self._edges[1:]):
            a, b = _part(left, right, u_lo, u_hi)
            if a <= b:
                candidates += [(float(piece.evaluate(u)), (t_lo, u), EXACT) for u in (a, b)]
        return _range(candidates)

    def _boxes(self, u_lo, u_hi) -> Range:
        """range over arrays of boxes: every branch's part of every box at once, a row per
        branch.  a >= left and b <= right already; clipping the other side keeps each
        branch's evaluation inside it (a rational branch may have its pole outside)."""
        lefts, rights = self._edge_columns
        a, b = _part(lefts, rights, u_lo, u_hi)
        on = a <= b
        inside = np.empty((len(a), 2, a.shape[1]))  # (branch, a or b, box)
        np.minimum(a, rights, out=inside[:, 0])
        np.maximum(b, lefts, out=inside[:, 1])
        values = np.zeros_like(inside)
        for i in np.flatnonzero(on.any(axis=1)):
            values[i] = self.pieces[i].evaluate(inside[i])
        # Candidates in the scalar call's order, a then b of each branch, which decides
        # the pick between equal values such as 0.0 and -0.0.
        return _boxes_range(values.reshape(2 * len(a), -1), np.repeat(on, 2, axis=0))

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
        return out if _is_array(u) else float(out)

    _arrays = cached_property(lambda self: np.array(self.table, dtype=float).T)  # abscissae, values

    def _slope(self, t, u):
        array = _is_array(u)
        out = self._segment_slopes[np.searchsorted(self._arrays[0], u if array else float(u), side="right")]
        return out if array else float(out)

    # Entry i + 1 is the slope from abscissa i on; before the first abscissa and from the last on, f is flat.
    _segment_slopes = cached_property(
        lambda self: np.concatenate([[0.0], np.diff(self._arrays[1]) / np.diff(self._arrays[0]), [0.0]])
    )

    def range(self, t_lo, t_hi, u_lo, u_hi):
        if isinstance(u_lo, np.ndarray):
            return _each_box(self.range, t_lo, t_hi, u_lo, u_hi)
        inside = [float(u) for u, _ in self.table if u_lo < u < u_hi]
        return self._attained([(t_lo, u) for u in (u_lo, *inside, u_hi)])

    def to_config(self):
        return {"kind": self.kind, "params": [render_number(x) for point in self.table for x in point]}


# --- time factors and products -------------------------------------------


@dataclass(frozen=True)
class ExpDecay:
    """exp(-rate * t)."""

    rate: Number = 1

    kind = "exp-decay"

    def evaluate(self, t):
        if _is_array(t):
            return np.exp(self._neg_rate * np.asarray(t, dtype=float))
        return math.exp(self._neg_rate * float(t))

    _neg_rate = cached_property(lambda self: -float(self.rate))

    def range(self, t_lo, t_hi, u_lo, u_hi):
        return _range([(self.evaluate(t), (t, u_lo), EXACT) for t in (t_lo, t_hi)])

    def to_config(self):
        return {"kind": self.kind, "params": [render_number(self.rate)]}


@dataclass(frozen=True)
class PolynomialT:
    coeffs: tuple = (1,)

    kind = "polynomial"

    def evaluate(self, t):
        return _polyval(self._coeffs, np.asarray(t, dtype=float) if _is_array(t) else float(t))

    _coeffs = cached_property(lambda self: [float(c) for c in self.coeffs])

    def range(self, t_lo, t_hi, u_lo, u_hi):
        return _poly_range(self.coeffs, t_lo, t_hi, lambda t: (t, u_lo))

    def to_config(self):
        return {"kind": self.kind, "params": [render_number(c) for c in self.coeffs]}


@dataclass(frozen=True)
class ProductF(FunctionSpec):
    """f(t, u) = time_factor(t) * u_factor(u)."""

    time_factor: ExpDecay | PolynomialT = None
    u_factor: FunctionSpec = None

    kind = "product"

    def __post_init__(self):
        if isinstance(self.u_factor, ProductF):
            raise FunctionSpecError("a product's u factor must be a function of u alone")

    def _value(self, t, u):
        h = self.u_factor._value(t, u)
        return self.time_factor.evaluate(t) * (float(h) if _is_fraction(h) else h)

    def _slope(self, t, u):
        return self.time_factor.evaluate(t) * self.u_factor._slope(t, u)

    def range(self, t_lo, t_hi, u_lo, u_hi):
        # t and u vary independently, so all four corners (each factor's lo or hi,
        # zipped with its point) are attained, and a product's extrema lie on corners.
        # The time factor's range does not depend on u, so one call serves all boxes
        # (which have no points: up is None).
        tr, ur = (f.range(t_lo, t_hi, u_lo, u_hi) for f in (self.time_factor, self.u_factor))
        method = EXACT if tr.method == ur.method == EXACT else ENCLOSURE
        return _range([(tv * uv, up and (tp[0], up[1]), method)
                       for tv, tp in zip(tr[:2], tr[2:4]) for uv, up in zip(ur[:2], ur[2:4])])

    def to_config(self):
        return {"kind": self.kind, "time": self.time_factor.to_config(), "u": self.u_factor.to_config()}


# --- parsing ---------------------------------------------------------------


def _params(doc: dict, where: str) -> list:
    """The numbers of a spec's or a branch's `params`, which must be a list; a bad one names where.params[i]."""
    params = doc.get("params", [])
    if not isinstance(params, list):
        raise FunctionSpecError(f"{where}.params must be a list, got {params!r}")
    return [parse_field(x, f"{where}.params[{i}]") for i, x in enumerate(params)]


def _parse_piecewise(doc_pieces, where: str) -> PiecewiseU:
    """The PiecewiseU of a document's pieces; a breakpoint it rejects is named as the document does, f.pieces[0].until."""
    if not isinstance(doc_pieces, list) or not all(isinstance(frag, dict) for frag in doc_pieces):
        raise FunctionSpecError(f"{where}.pieces must be a list of objects, got {doc_pieces!r}")
    pieces = []
    for i, frag in enumerate(doc_pieces):
        until, at = frag.get("until"), f"{where}.pieces[{i}]"
        until = None if until is None else parse_field(until, f"{at}.until")
        pieces.append(Piece(until, frag.get("form"), tuple(_params(frag, at))))
    try:
        return PiecewiseU(pieces=tuple(pieces))
    except FunctionSpecError as exc:
        if not str(exc).startswith("pieces["):
            raise
        raise FunctionSpecError(f"{where}.{exc}") from exc


def parse_function_spec(doc: dict, t_max: float = 1.0, u_max: float = F_CHECK_U_MAX) -> FunctionSpec:
    """Build a FunctionSpec from a config fragment and run construction checks.

    Rejects unknown kinds, discontinuous piecewise tables, breakpoints at or
    below 0, rational-linear branches with a pole, and any spec whose range
    on [0, t_max] x [0, u_max] reaches below 0.  A `monotone_in_u` key is
    accepted and ignored: the range finds each form's extrema without it.
    `separable-exponential-piecewise` [rate] with `pieces` is the product
    exp(-rate*t) * piecewise(u).  A number malformed or beyond float range is
    a ValueError naming it, as f.params[0].
    """
    return parse_function_spec_with_range(doc, t_max, u_max)[0]


def parse_function_spec_with_range(doc: dict, t_max: float = 1.0, u_max: float = F_CHECK_U_MAX) -> tuple[FunctionSpec, Range]:
    """parse_function_spec's spec, and the Range on [0, t_max] x [0, u_max] its nonnegativity check took.

    The check bounds the whole f once; a product's factors are not bounded on their own.
    """
    spec = _parse_spec(doc, "f")
    r = spec.range(0.0, float(t_max), 0.0, float(u_max))
    if r.lo == -math.inf:
        raise FunctionSpecError(f"nonlinearity is not finite on [0, {float(t_max)}] x [0, {float(u_max)}]")
    if r.lo < 0:
        raise FunctionSpecError(f"nonlinearity is negative at (t, u) = {r.lo_at}: {r.lo} ({r.method} bound)")
    return spec, r


def _parse_spec(doc: dict, where: str) -> FunctionSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FunctionSpecError(f"function spec must be an object with a 'kind': {doc!r}")
    kind = doc["kind"]
    params = _params(doc, where)

    if kind == "autonomous-rational-sigmoid":
        if len(params) != 1:
            raise FunctionSpecError("autonomous-rational-sigmoid takes params [scale]")
        return RationalSigmoid(scale=params[0])
    elif kind == "constant":
        if len(params) != 1:
            raise FunctionSpecError("constant takes params [value]")
        return PolynomialU(coeffs=(params[0],))
    elif kind == "polynomial":
        if not params:
            raise FunctionSpecError("polynomial needs at least one coefficient")
        return PolynomialU(coeffs=tuple(params))
    elif kind == "piecewise":
        return _parse_piecewise(doc.get("pieces", []), where)
    elif kind == "piecewise-linear-table":
        if len(params) < 4 or len(params) % 2:
            raise FunctionSpecError("piecewise-linear-table params are flattened (u, v) pairs")
        table = tuple((params[i], params[i + 1]) for i in range(0, len(params), 2))
        return PiecewiseLinearTable(table=table)
    elif kind == "separable-exponential-piecewise":
        if len(params) != 1:
            raise FunctionSpecError("separable-exponential-piecewise takes params [rate]")
        return ProductF(time_factor=ExpDecay(rate=params[0]), u_factor=_parse_piecewise(doc.get("pieces", []), where))
    elif kind == "product":
        time_doc = doc.get("time")
        u_doc = doc.get("u")
        if not isinstance(time_doc, dict) or not isinstance(u_doc, dict):
            raise FunctionSpecError("product takes 'time' and 'u' factor specs, each an object")
        tkind = time_doc.get("kind")
        tparams = _params(time_doc, f"{where}.time")
        if tkind in ("exp-decay", "constant") and len(tparams) != 1:
            raise FunctionSpecError(f"{tkind} time factor takes exactly one parameter")
        if tkind == "exp-decay":
            tf = ExpDecay(rate=tparams[0])
        elif tkind in ("polynomial", "constant"):  # a constant is the degree-0 polynomial
            if not tparams:
                raise FunctionSpecError("polynomial time factor needs at least one coefficient")
            tf = PolynomialT(coeffs=tuple(tparams))
        else:
            raise FunctionSpecError(f"unknown time-factor kind {tkind!r}")
        return ProductF(time_factor=tf, u_factor=_parse_spec(u_doc, f"{where}.u"))
    raise FunctionSpecError(f"unknown function kind {kind!r}")
