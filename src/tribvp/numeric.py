"""Number parsing helpers for the exact-rational / floating-point dual mode.

Integers and strings like "1/3" become `fractions.Fraction`; floats stay
floats.  Downstream arithmetic is written with plain Python operators, so a
computation stays exact whenever every operand is a Fraction and silently
degrades to double precision otherwise.  The constants' closed forms run on
`exact_operands`, which trades Fractions for `Unreduced` rationals, and reduce
each result once.  A check on exact values that a float decides by a wide
margin goes through `filtered_sign`, which computes exactly only where the
float cannot decide.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

Number = float | Fraction


# Unit roundoff of round-to-nearest doubles, and the least positive double.  Rounding a real x
# to a double, as one arithmetic operation or a conversion does, gives x (1 + d) + e with
# |d| <= UNIT and |e| <= TINY / 2, e nonzero only below the normal range and never for + and -
# (Higham, *Accuracy and Stability of Numerical Algorithms*, section 2.1).
UNIT = 2.0 ** -53
TINY = 2.0 ** -1074

# Digits of each part of a plain numeral that parse_field reads with int(): 10**15 is far inside float range.
_PLAIN_DIGITS = 15


def parse_field(value, where: str) -> Number:
    """A config scalar: int/str -> Fraction (exact), float -> float; a malformed value,
    or one beyond float range, is a ValueError naming `where`.

    A plain numeral ("-" at most in front, ASCII digits, at most one "/" with a
    nonzero denominator, at most 15 digits a part) is read with int(); any
    other string goes through Fraction(str), with the same value or error.
    """
    if isinstance(value, float):
        number = value
    elif isinstance(value, str):
        plain = _plain_numeral(value)
        if plain is not None:
            return plain  # within float range by its digit count
        try:
            number = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: cannot parse {value!r} as a rational number") from exc
    elif is_exact(value) and not isinstance(value, bool):
        number = Fraction(value)
    else:
        raise ValueError(f"{where}: expected a number, got {value!r}")
    try:
        float(number)
    except OverflowError as exc:
        raise ValueError(f"{where} = {value!r} is beyond float range") from exc
    return number


def _plain_numeral(text: str) -> Fraction | None:
    """Fraction(text) for a plain numeral as parse_field defines it; None for any other string."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (text.isascii() and digits.isdigit() and len(digits) <= _PLAIN_DIGITS):
        return None
    if not slash:
        return Fraction(int(num))
    if not (den.isdigit() and len(den) <= _PLAIN_DIGITS):
        return None
    d = int(den)
    return Fraction(int(num), d) if d else None


def filtered_sign(approx: float, err: float, exact) -> int:
    """The sign (-1, 0 or 1) of a real q known to lie within err of the float approx.

    A float filter (Shewchuk, *Discrete Comput. Geom.* 18, 1997): when approx
    lies farther than err from 0, q has its sign and exact is not called;
    otherwise, and whenever approx or err is NaN or err is inf, exact() gives
    q, or any number with q's sign, computed exactly.  Each caller derives its
    err from the operations that produced approx.
    """
    if approx > err:
        return 1
    if approx < -err:
        return -1
    q = exact()
    return (q > 0) - (q < 0)


def is_exact(*values) -> bool:
    """True when every value supports exact rational arithmetic.

    `Fraction`, `int` and `float` are judged by their type alone; any other
    type (`bool` and numpy integers among them) by the `Rational` ABC.
    """
    for v in values:
        kind = type(v)
        if kind is float or not (kind is Fraction or kind is int or isinstance(v, Rational)):
            return False
    return True


class Unreduced:
    """An exact rational n/d with integer n and d > 0, kept unreduced.

    `Fraction` takes a gcd after every operation; the closed forms for the
    constants and the H2 bounds, and the threshold ordering test, are a few
    dozen operations on a handful of small rationals, so they run on this type
    instead and `reduced` takes one gcd per result.  It has what they use:
    + - * / with itself, + - * with `int` (on either side for + and *), and
    < > >= with itself and `int`.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int = 1):
        self.n = n
        self.d = d

    def __add__(self, other):
        if type(other) is Unreduced:
            return Unreduced(self.n * other.d + other.n * self.d, self.d * other.d)
        if type(other) is int:
            return Unreduced(self.n + other * self.d, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Unreduced:
            return Unreduced(self.n * other.d - other.n * self.d, self.d * other.d)
        if type(other) is int:
            return Unreduced(self.n - other * self.d, self.d)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is Unreduced:
            return Unreduced(self.n * other.n, self.d * other.d)
        if type(other) is int:
            return Unreduced(self.n * other, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Unreduced:
            return NotImplemented
        if other.n == 0:
            raise ZeroDivisionError("division by zero")
        if other.n < 0:
            return Unreduced(-self.n * other.d, -self.d * other.n)
        return Unreduced(self.n * other.d, self.d * other.n)

    def _sides(self, other) -> tuple[int, int]:
        """The numerators of self and other over their common positive denominator."""
        if type(other) is Unreduced:
            return self.n * other.d, other.n * self.d
        if type(other) is int:
            return self.n, other * self.d
        raise TypeError(f"cannot compare Unreduced with {type(other).__name__}")

    def __lt__(self, other):
        a, b = self._sides(other)
        return a < b

    def __gt__(self, other):
        a, b = self._sides(other)
        return a > b

    def __ge__(self, other):
        a, b = self._sides(other)
        return a >= b

    def __float__(self) -> float:
        return self.n / self.d  # correctly rounded, as float(Fraction(n, d)) is

    def __repr__(self) -> str:
        return f"Unreduced({self.n}, {self.d})"


def exact_operands(*values) -> tuple:
    """The values as `Unreduced` when every one is exact, else unchanged.

    Float (or mixed) values keep Python's arithmetic, so a closed form
    evaluated on them performs the same operations in the same order as on
    the raw values.
    """
    if is_exact(*values):
        return tuple(Unreduced(int(v.numerator), int(v.denominator)) for v in values)
    return values


def reduced(value):
    """An `Unreduced` as a `Fraction` (its one gcd); any other number unchanged."""
    if type(value) is Unreduced:
        return Fraction(value.n, value.d)
    return value


def render_number(value: Number):
    """JSON-friendly rendering: Fractions become "p/q" strings."""
    if isinstance(value, Fraction):
        return str(value)
    return value
