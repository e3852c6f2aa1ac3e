from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribvp.numeric import filtered_sign, parse_field


def _reference_parse(text: str):
    """parse_field on a string as Fraction(str) decides it: the value, or the ValueError's text."""
    try:
        number = F(text)
    except (ValueError, ZeroDivisionError):
        return f"x: cannot parse {text!r} as a rational number"
    try:
        float(number)
    except OverflowError:
        return f"x = {text!r} is beyond float range"
    return number


def _parsed(text: str):
    try:
        return parse_field(text, "x")
    except ValueError as exc:
        return str(exc)


# Parts of numerals: plain digits, and what makes a string other than a plain numeral.
_PART = st.one_of(
    st.text("0123456789", min_size=0, max_size=18),
    st.sampled_from(["0", "00", "007", "000000000000000", "999999999999999", "1000000000000000", "1" * 400]),
    st.text("0123456789 _.eE+-٣²１", min_size=0, max_size=6),
)
_NUMERAL = st.one_of(
    st.builds(lambda sign, n, d: sign + n + d, st.sampled_from(["", "-", "+", " ", "--", "-+"]), _PART,
              st.one_of(st.just(""), st.builds(lambda d: "/" + d, _PART))),
    st.sampled_from(["-0", "+3", "3/0", "-3/00", "3/", "/3", " 3", "3 ", "1.5", "1e3", "-1E-3", "1_000",
                     "٣", "3/٤", "²", "", "-", "/", "3//4", "3/4/5", "-1/-2", "nan", "inf"]),
)


@settings(max_examples=500, deadline=None)
@given(_NUMERAL)
def test_parse_field_reads_a_string_as_fraction_does(text):
    expected, got = _reference_parse(text), _parsed(text)
    assert got == expected and type(got) is type(expected), (text, got, expected)


@pytest.mark.parametrize("text, value", [("-0", 0), ("007", 7), ("-007/014", F(-1, 2)), ("0/5", 0),
                                         ("999999999999999/1", 999999999999999)])
def test_parse_field_plain_numerals(text, value):
    assert parse_field(text, "x") == value and type(parse_field(text, "x")) is F


def test_filtered_sign_calls_exact_only_inside_the_bound():
    calls = []

    def exact(q):
        return lambda: calls.append(q) or q

    assert filtered_sign(1.0, 0.5, exact(1)) == 1 and filtered_sign(-1.0, 0.5, exact(-1)) == -1
    assert calls == []
    # within the bound, or with a NaN approximation or an infinite bound, the exact value decides
    assert filtered_sign(0.25, 0.5, exact(F(-1, 10**30))) == -1
    assert filtered_sign(float("nan"), 0.5, exact(F(0))) == 0
    assert filtered_sign(1e300, float("inf"), exact(F(1, 7))) == 1
    assert calls == [F(-1, 10**30), 0, F(1, 7)]
