"""Uniform-grid curves, composite Simpson quadrature, and nodal interpolation.

Everything in the package discretizes [0, T] on a uniform grid with an odd
node count, so the Simpson pair structure always closes.  Partial integrals
up to an off-grid point x are computed as (pure Simpson up to the last even
node below x) + (Simpson over the short remainder, with integrand values
interpolated cubically).  Cumulative integrals at grid nodes close Simpson
pairs at even indices and integrate the first half of a pair's parabola at
odd indices.  A curve's CSV holds the bytes of "%.17g" for each value, formatted
for all the curves of one write at once (format_g17).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

T_COLUMNS_KEPT = 4  # distinct grids whose formatted t column a process keeps for its next write
NEAR_TIE = 1e-6  # a fraction part this close to a half may round either way in _significands
EXPONENT_LIMIT = 280  # format_g17's powers of ten stay normal doubles, split without overflow, up to 10**(16 + this)
_ZERO, _SLOW = -1000, -1001  # format_g17's stand-in exponents for zeros and for values it formats one by one
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves of 26 bits


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

    @classmethod
    def constant(cls, value: float, t1: float, n: int, t0: float = 0.0) -> "SolutionCurve":
        return cls(t0, t1, np.full(n, float(value)))


def write_csv(curves, paths):
    """Write each curve to its path as "t,u" and "%.17g,%.17g" rows; if one write fails, none of the files is left.

    The u values of all the curves are formatted in one format_g17 call.
    """
    pairs = list(zip(curves, paths))
    if not pairs:
        return
    lines = format_g17(np.concatenate([curve.values for curve, _ in pairs]))
    ends = itertools.accumulate(curve.n for curve, _ in pairs)
    write_files((path, _csv_text(curve, lines[end - curve.n : end])) for (curve, path), end in zip(pairs, ends))


def _csv_text(curve: SolutionCurve, u_lines: list[bytes]) -> bytes:
    return _csv_format(float(curve.t0).hex(), float(curve.t1).hex(), curve.n) % tuple(u_lines)


@functools.lru_cache(maxsize=T_COLUMNS_KEPT)
def _csv_format(t0_hex: str, t1_hex: str, n: int) -> bytes:
    """The CSV of the n uniform nodes from t0 to t1 with a "%s" field for each u: the t column, formatted once per grid.

    Keyed by the endpoints' bits, because 0.0 == -0.0 and yet they print apart.
    """
    nodes = np.linspace(float.fromhex(t0_hex), float.fromhex(t1_hex), n)
    return b"t,u\n" + b"".join([t + b",%s\n" for t in format_g17(nodes)])


def format_g17(values) -> list[bytes]:
    """b"%.17g" % v for each v of a 1-d float array, formatted for the whole array at once.

    Zeros print as "0" or "-0" and the other finite values through _texts; those whose
    digits _significands cannot settle, non-finite ones and those with decimal exponent
    |e| > EXPONENT_LIMIT take the per-value format (_g17_one).
    """
    x = np.asarray(values, dtype=float)
    a = np.abs(x)
    e = np.log10(a, out=np.full(x.size, float(_ZERO)), where=(a > 0) & (a < np.inf))
    np.floor(e, out=e)
    e[(np.abs(e) > EXPONENT_LIMIT) & (a != 0)] = _SLOW  # NaN != 0 too
    negative = np.signbit(x)
    lines = np.empty(x.size, "S24")
    zero = e == _ZERO
    lines[zero] = b"0"
    lines[zero & negative] = b"-0"
    slow = e == _SLOW
    usual = np.flatnonzero(e > _ZERO)
    if usual.size:
        lines[usual], slow[usual] = _texts(a[usual], e[usual], negative[usual])
    lines = lines.tolist()  # each without its trailing NULs
    for i in np.flatnonzero(slow).tolist():
        lines[i] = _g17_one(float(x[i]))
    return lines


def _texts(a, e, negative):
    """The %.17g texts of the values of magnitude a > 0, decimal exponent e (a float) and
    sign, as a 24-byte string array; and the mask of the values whose digits
    _significands could not settle (their text is to be replaced).

    The rows of one exponent share their layout, which moves few bytes of their
    _digit_rows rows because each exponent's text starts at a byte of its own, one
    byte earlier for a "-".
    """
    top, low, unsure = _significands(a, e)
    rows = _digit_rows(top, low)
    records = rows.view("V32").ravel()  # a row as one item, to move whole rows at once
    start = np.full(a.size, 6)
    for k in range(int(e.min()), int(e.max()) + 1):
        part = np.flatnonzero(e == k)
        if not part.size:
            continue
        group = records[part].view(np.uint8).reshape(-1, 32)
        if -4 <= k < 0:
            # "0." and -k - 1 zeros before the digits, all of them fraction digits.
            start[part] = 6 + k
            group[:, 7 + k] = 46
        elif 0 <= k < 17:
            # The k + 1 integer digits, then "." and the 16 - k fraction digits; no "."
            # when those are all zeros, and then the integer digits get their zeros back.
            whole = np.flatnonzero(group[:, 8 + k] == 0)
            for col in range(6, 7 + k):
                group[:, col] = group[:, col + 1]
            group[:, 7 + k] = 46
            if whole.size:
                group[whole, 6 : 7 + k] |= 48
                group[whole, 7 + k] = 0
        else:
            # d.dddd, then e+XX or e-XXX after the last digit kept (in place of "." when none is).
            group[:, 6] = group[:, 7]
            group[:, 7] = 46
            kept = np.count_nonzero(group[:, 8:24], axis=1)
            end = np.where(kept > 0, 8 + kept, 7)
            for j, char in enumerate(b"e%+03d" % k):
                group[np.arange(part.size), end + j] = char
        records[part] = group.view("V32").ravel()
    minus = np.flatnonzero(negative)
    start[minus] -= 1
    rows[minus, start[minus]] = 45
    start += np.arange(0, 32 * a.size, 32)
    # the 24 bytes from every byte of the rows on, as strings: one gather reads each text
    return np.ndarray(rows.size - 23, "S24", rows, 0, (1,))[start], unsure


def _significands(a, e):
    """The 17-digit integer nearest each a * 10**(16 - e), for values a > 0 of decimal
    exponent e, as its first nine and last eight digits in two float arrays; and the
    mask of the values whose digits the product cannot settle (their digits are 0).

    With 10**(16 - e) as the double-double hi + lo, Dekker's exact product of a and hi
    plus a * lo is off from a * 10**(16 - e) by far less than 2**-40, so a fraction part
    within NEAR_TIE of a half is the only rounding in doubt; digits outside
    [10**16, 10**17) mean the exponent guess was one off (near a power of ten, or where
    the rounding carries to one more digit).  Every integer here is below 2**53 or a
    product exact in doubles, so the digits come out of float operations exactly.
    """
    e_lo = int(e.min())
    powers = np.array([_pow10(16 - k) for k in range(e_lo, int(e.max()) + 1)])
    index = (e - e_lo).astype(np.intp)
    hi, hi_hi, hi_lo, lo = (column[index] for column in powers.T)
    y = a * hi  # an integer: it lies in [10**16, 10**17) unless the exponent guess is off
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    frac = y - a_hi * hi_hi
    frac -= a_lo * hi_hi
    frac -= a_hi * hi_lo
    np.subtract(a_lo * hi_lo, frac, out=frac)  # y + frac == a * hi exactly
    frac += a * lo
    whole = np.floor(frac)
    frac -= whole
    unsure = (np.abs(frac - 0.5) <= NEAR_TIE) | ((y - 1e16) + whole < 0)  # y - 1e16 is exact
    whole += np.floor(frac + 0.5)  # y + whole is the nearest integer
    # top * 10**8 + low == y + whole; the quotient may round to the next integer, so
    # low is then negative, and whole may carry low past 10**8: one more step settles both.
    top = np.floor(y / 1e8)
    low = y - top * 1e8
    low += whole
    carry = np.floor(low / 1e8)
    top += carry
    low -= carry * 1e8
    unsure |= top >= 1e9
    top[unsure] = 0.0
    low[unsure] = 0.0
    return top, low, unsure


def _digit_rows(top, low):
    """32-byte rows for the 17-digit integers top * 10**8 + low (0 gives zeros): "0000",
    "000" and the leading digit, four groups of four digits with the trailing zeros
    (which %g strips) as NULs, and eight NULs."""
    four, tail = _tables()
    head = np.floor(top / 1e4)
    lead = np.floor(head / 1e4)
    mid = np.floor(low / 1e4)
    rows = np.zeros((top.size, 8), "<u4")
    rows[:, 0] = four[0]
    rows[:, 1] = four[lead.astype(np.intp)]
    # The groups of four digits, last first; a group loses its trailing zeros where all
    # the digits after it are zeros.
    last = low - mid * 1e4
    rows[:, 5] = tail[last.astype(np.intp)]
    after = np.flatnonzero(last == 0)  # the rows whose digits after the group are all zeros
    for col, group in ((4, mid), (3, top - head * 1e4), (2, head - lead * 1e4)):
        k = group.astype(np.intp)
        rows[:, col] = four[k]
        rows[after, col] = tail[k[after]]
        after = after[group[after] == 0]
    return rows.view(np.uint8)


def _g17_one(value: float) -> bytes:
    return b"%.17g" % value



@functools.cache
def _pow10(s: int) -> tuple[float, float, float, float]:
    """10**s as a double-double hi + lo, with hi's Veltkamp halves."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    hi = num / den  # int division is correctly rounded
    m, d = hi.as_integer_ratio()
    lo = (num * d - m * den) / (den * d)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    return hi, hi_hi, hi - hi_hi, lo


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """format_g17's lookup tables, built on first use: for k < 10000 the ASCII of "%04d" % k
    as one little-endian uint32, and the same with its trailing zeros as NULs."""
    two = [48 + k // 10 + (48 + k % 10) * 256 for k in range(100)]  # "%02d" % k
    bare = [t if k % 10 else t & 255 if k else 0 for k, t in enumerate(two)]  # without its trailing zeros
    high, low, bare = np.array(two)[:, None], np.array(two) * 65536, np.array(bare)
    four = high + low
    tail = np.where(np.arange(100) > 0, high + bare * 65536, bare[:, None])
    return four.astype("<u4").ravel(), tail.astype("<u4").ravel()


def write_files(items) -> None:
    """Write each (path, bytes) pair in order; if one raises OSError, remove the files this call opened and re-raise."""
    opened = []
    try:
        for path, data in items:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            opened.append(path)
            try:
                rest = memoryview(data)
                while rest:  # os.write may write less than it is given
                    rest = rest[os.write(fd, rest):]
            finally:
                os.close(fd)
    except OSError:
        remove_files(opened)
        raise


def remove_files(paths) -> None:
    """Remove each path, ignoring any that cannot be removed: the error being reported is the write's."""
    for path in paths:
        try:
            os.remove(path)
        except OSError:
            pass


def cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral at every node, along axis 0 of an odd number of nodes.

    Even indices close Simpson pairs.  Odd indices integrate the Simpson
    parabola of their pair over its first half, (h/12)(5*v0 + 8*v1 - v2);
    a plain trapezoid there would leave an O(h^3) sawtooth between odd and
    even nodes that second differences amplify to an O(h) ODE residual.
    """
    v = np.asarray(values, dtype=float)
    lo, mid, hi = v[0:-1:2], v[1::2], v[2::2]  # the three nodes of each pair
    out = np.empty_like(v)
    out[:1] = 0.0
    # in place, in the order of h/3*(lo + 4*mid + hi) and h/12*(5*lo + 8*mid - hi): + and * commute bit for bit
    pair = 4.0 * mid
    pair += lo
    pair += hi
    pair *= h / 3.0
    np.cumsum(pair, axis=0, out=out[2::2])
    half = 5.0 * lo
    half += 8.0 * mid
    half -= hi
    half *= h / 12.0
    np.add(out[0:-1:2], half, out=out[1::2])
    return out


def interp_weights(n: int, h: float, x):
    """Four-point Lagrange stencil (start index, weights) for position x; for an array x,
    (the four node indices of each point, their weights), as the (m, 4) arrays of a gather.

    A scalar x is worked in Python floats: the same float64 operations, in the same
    order, as on an array, without a 0-d array's overhead on each of them.
    """
    if n < 4:
        raise ValueError("cubic interpolation needs at least four nodes")
    scalar = np.ndim(x) == 0
    if scalar:
        pos = float(x) / h
        inside = -1e-9 <= pos <= (n - 1) + 1e-9
    else:
        pos = np.asarray(x) / h
        inside = np.all((-1e-9 <= pos) & (pos <= (n - 1) + 1e-9))
    if not inside:
        raise ValueError(f"interpolation point {x} outside the grid")
    if scalar:
        start = min(max(math.floor(pos) - 1, 0), n - 4)
    else:
        start = np.clip(np.floor(pos).astype(int) - 1, 0, n - 4)
    xi = pos - start
    d0, d1, d2, d3 = (xi - m for m in range(4))
    # weight k: the product of xi - m over the other nodes m, over that of k - m
    weights = (d1 * d2 * d3 / -6.0, d0 * d2 * d3 / 2.0, d0 * d1 * d3 / -2.0, d0 * d1 * d2 / 6.0)
    if scalar:
        return start, np.array(weights)
    # written by columns: a (m, 4) broadcast or stack runs a length-4 inner loop once per row
    idx, w = np.empty((start.size, 4), dtype=start.dtype), np.empty((start.size, 4))
    for k in range(4):
        np.add(start, k, out=idx[:, k])
        w[:, k] = weights[k]
    return idx, w


def interp_cubic(values: np.ndarray, h: float, x):
    """Cubic Lagrange interpolation of nodal values at offset x from node 0, or at every offset of an array x."""
    return interp_apply(values, *interp_weights(len(values), h, x))


def interp_apply(values: np.ndarray, start, w):
    """Apply a stencil of interp_weights to nodal values, so one stencil serves many curves on one grid."""
    if np.ndim(start) == 0:
        return float(np.dot(w, values[start : start + 4]))
    stencils = values[start]
    return (w[:, None, :] @ stencils[:, :, None])[:, 0, 0]  # one dot product per point: the bits of the scalar call


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
    e = min(math.floor(x / h), n - 1)
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
