"""Uniform-grid curves, composite Simpson quadrature, and nodal interpolation.

Everything in the package discretizes [0, T] on a uniform grid with an odd
node count, so the Simpson pair structure always closes.  Partial integrals
up to an off-grid point x are computed as (pure Simpson up to the last even
node below x) + (Simpson over the short remainder, with integrand values
interpolated cubically).  Cumulative integrals at grid nodes use Simpson
pairs at even indices and a trapezoid correction on the final subinterval at
odd indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SolutionCurve:
    """A function on [t0, t1] sampled at n uniform nodes."""

    t0: float
    t1: float
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("curve needs a 1-d array of at least two samples")
        if not np.all(np.isfinite(v)):
            raise ValueError("curve values must be finite")
        if not self.t1 > self.t0:
            raise ValueError("curve needs t1 > t0")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def min_value(self) -> float:
        return float(np.min(self.values))

    def min_from(self, t_lo: float) -> float:
        """Minimum over grid nodes with t >= t_lo."""
        start = int(np.searchsorted(self.nodes, t_lo - 1e-12 * max(1.0, abs(t_lo))))
        return float(np.min(self.values[start:]))

    def value_at(self, t: float) -> float:
        return interp_cubic(self.values, self.h, t - self.t0)

    def __add__(self, other: "SolutionCurve") -> "SolutionCurve":
        return SolutionCurve(self.t0, self.t1, self.values + other.values)

    def __sub__(self, other: "SolutionCurve") -> "SolutionCurve":
        return SolutionCurve(self.t0, self.t1, self.values - other.values)

    def scaled(self, factor: float) -> "SolutionCurve":
        return SolutionCurve(self.t0, self.t1, factor * self.values)

    @classmethod
    def constant(cls, value: float, t1: float, n: int, t0: float = 0.0) -> "SolutionCurve":
        return cls(t0, t1, np.full(n, float(value)))

    def to_csv(self, path):
        rows = "".join("%.17g,%.17g\n" % tu for tu in zip(self.nodes.tolist(), self.values.tolist()))
        with open(path, "w", newline="") as fh:
            fh.write("t,u\n" + rows)

    @classmethod
    def from_csv(cls, path) -> "SolutionCurve":
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        return cls(float(rows[0, 0]), float(rows[-1, 0]), rows[:, 1])


def simpson_integral(values: np.ndarray, h: float) -> float:
    """Composite Simpson over the full grid; node count must be odd."""
    n = len(values)
    if n % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd node count, got {n}")
    if n == 1:
        return 0.0
    return float(h / 3.0 * (values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-1:2])))


def cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral at every node, along axis 0.

    Even indices close Simpson pairs.  Odd indices integrate the Simpson
    parabola of their pair over its first half, (h/12)(5*v0 + 8*v1 - v2);
    a plain trapezoid there would leave an O(h^3) sawtooth between odd and
    even nodes that second differences amplify to an O(h) ODE residual.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    out = np.zeros(v.shape)
    if n >= 3:
        pair = h / 3.0 * (v[0:-2:2] + 4.0 * v[1:-1:2] + v[2::2])
        out[2::2] = np.cumsum(pair, axis=0)
    n_half = (n - 1) // 2  # odd nodes with a full pair ahead of them
    if n_half:
        out[1 : 2 * n_half : 2] = out[0 : 2 * n_half - 1 : 2] + h / 12.0 * (
            5.0 * v[0 : 2 * n_half - 1 : 2] + 8.0 * v[1 : 2 * n_half : 2] - v[2 : 2 * n_half + 1 : 2]
        )
    if n >= 2 and n % 2 == 0:
        out[-1] = out[-2] + h / 2.0 * (v[-2] + v[-1])
    return out


def _interp_stencil(n: int, h: float, x: float):
    """Four-point Lagrange stencil (start index, weights) for position x."""
    pos = x / h
    j = int(np.floor(pos))
    start = min(max(j - 1, 0), n - 4)
    xi = pos - start
    w = np.empty(4)
    for k in range(4):
        num = 1.0
        den = 1.0
        for m in range(4):
            if m != k:
                num *= xi - m
                den *= k - m
        w[k] = num / den
    return start, w


def interp_weights(n: int, h: float, x: float):
    if n < 4:
        raise ValueError("cubic interpolation needs at least four nodes")
    if not -1e-9 <= x / h <= (n - 1) + 1e-9:
        raise ValueError(f"interpolation point {x} outside the grid")
    return _interp_stencil(n, h, x)


def interp_cubic(values: np.ndarray, h: float, x: float) -> float:
    """Cubic Lagrange interpolation of nodal values at offset x from node 0."""
    start, w = interp_weights(len(values), h, x)
    return float(np.dot(w, values[start : start + 4]))


def partial_integral_weights(n: int, h: float, x: float) -> np.ndarray:
    """Weight vector w with  integral_0^x g  ~=  w . g_nodes.

    Pure Simpson up to the last even node at or below x, then Simpson over
    the remainder [t_e, x] with g(mid) and g(x) interpolated cubically.
    """
    if n % 2 == 0:
        raise ValueError("partial integrals assume an odd node count")
    if x < -1e-12 or x > (n - 1) * h * (1 + 1e-12):
        raise ValueError(f"integration endpoint {x} outside the grid")
    x = min(max(x, 0.0), (n - 1) * h)
    w = np.zeros(n)
    e = min(int(np.floor(x / h)), n - 1)
    e -= e % 2
    if e >= 2:
        w[0] += h / 3.0
        w[e] += h / 3.0
        w[1:e:2] += 4.0 * h / 3.0
        w[2:e:2] += 2.0 * h / 3.0
    length = x - e * h
    if length > 1e-14 * max(1.0, x):
        s_mid, w_mid = interp_weights(n, h, e * h + 0.5 * length)
        s_end, w_end = interp_weights(n, h, x)
        w[e] += length / 6.0
        w[s_mid : s_mid + 4] += (4.0 * length / 6.0) * w_mid
        w[s_end : s_end + 4] += (length / 6.0) * w_end
    return w


def partial_integral(values: np.ndarray, h: float, x: float) -> float:
    """integral_0^x of nodal values (x may sit between nodes)."""
    return float(np.dot(partial_integral_weights(len(values), h, x), values))
