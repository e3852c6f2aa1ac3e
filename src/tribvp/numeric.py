"""Number parsing helpers for the exact-rational / floating-point dual mode.

Integers and strings like "1/3" become `fractions.Fraction`; floats stay
floats.  Downstream arithmetic is written with plain Python operators, so a
computation stays exact whenever every operand is a Fraction and silently
degrades to double precision otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

Number = float | Fraction


def parse_number(value) -> Number:
    """Parse a config scalar: int/str -> Fraction (exact), float -> float."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {value!r} as a rational number") from exc
    raise ValueError(f"expected a number, got {value!r}")


def parse_field(value, where: str) -> Number:
    """parse_number(value); a malformed value, or one beyond float range, is a ValueError naming `where`."""
    try:
        number = parse_number(value)
        float(number)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    except OverflowError as exc:
        raise ValueError(f"{where} = {value!r} is beyond float range") from exc
    return number


def is_exact(*values) -> bool:
    """True when every value supports exact rational arithmetic."""
    return all(isinstance(v, Rational) for v in values)


def render_number(value: Number):
    """JSON-friendly rendering: Fractions become "p/q" strings."""
    if isinstance(value, Fraction):
        return str(value)
    return value
