import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tribvp import FunctionDomainError, FunctionSpecError, functions, parse_function_spec
from tribvp.functions import (
    BREAKPOINT_TOL,
    FunctionSpec,
    ExpDecay,
    Piece,
    PiecewiseLinearTable,
    PiecewiseU,
    PolynomialT,
    PolynomialU,
    ProductF,
    RationalSigmoid,
    Range,
    _boxes_range,
    _range,
)

from conftest import EXP_PIECES


SIGMOID_DOC = {"kind": "autonomous-rational-sigmoid", "params": [40], "monotone_in_u": True}

EXP_DOC = {
    "kind": "separable-exponential-piecewise",
    "params": [1],
    "monotone_in_u": True,
    "pieces": [
        {"until": 1, "form": "linear", "params": ["2/25", 0]},
        {"until": 4, "form": "linear", "params": ["2173/75", "-2167/75"]},
        {"until": 544, "form": "constant", "params": [87]},
        {"until": 546, "form": "linear", "params": ["87/544", 0]},
        {"until": None, "form": "rational-linear", "params": [117, 7371, 1, 270]},
    ],
}


def test_sigmoid_exact_values():
    f = RationalSigmoid(scale=F(40))
    assert f(0, F(2)) == F(32)
    assert f(0, F(1, 120)) == F(40, 14401)
    assert isinstance(f(0, F(2)), F)


def test_sigmoid_saturates():
    f = RationalSigmoid(scale=F(40))
    assert abs(f(0.0, 1e8) - 40.0) < 1e-6


def test_sigmoid_array_matches_scalar():
    f = RationalSigmoid(scale=F(40))
    us = np.linspace(0.0, 5.0, 17)
    vec = f(0.0, us)
    assert vec.shape == us.shape
    for u, v in zip(us, vec):
        assert f(0.0, float(u)) == pytest.approx(v, abs=0)


def test_piecewise_branch_values_exact():
    h = PiecewiseU(pieces=EXP_PIECES)
    assert h(0, F(1, 2)) == F(1, 25)
    assert h(0, F(2)) == F(2173, 75) * 2 - F(2167, 75)
    assert h(0, F(100)) == F(87)
    assert h(0, F(545)) == F(87, 544) * 545
    assert h(0, F(1000)) == F(117 * 1000 + 7371, 1270)


@pytest.mark.parametrize("breakpoint", [F(1), F(4), F(544), F(546)])
def test_piecewise_exactly_continuous(breakpoint):
    pieces = EXP_PIECES
    idx = [p.until for p in pieces[:-1]].index(breakpoint)
    left = pieces[idx].evaluate(breakpoint)
    right = pieces[idx + 1].evaluate(breakpoint)
    assert left == right  # exact rational equality, not just within tolerance


def test_exp_piecewise_at_t0():
    f = ProductF(time_factor=ExpDecay(rate=F(1)), u_factor=PiecewiseU(pieces=EXP_PIECES))
    assert f(0, F(4)) == pytest.approx(87.0, abs=1e-12)
    assert f(1.0, 4.0) == pytest.approx(87.0 * np.exp(-1.0), rel=1e-14)


def test_parse_sigmoid_doc():
    f = parse_function_spec(SIGMOID_DOC)
    assert f == RationalSigmoid(scale=F(40))  # the monotone_in_u key has no effect
    assert f(0, F(2)) == 32


def test_parse_exp_doc_matches_direct():
    f = parse_function_spec(EXP_DOC, t_max=1.0, u_max=1100.0)
    direct = ProductF(time_factor=ExpDecay(rate=F(1)), u_factor=PiecewiseU(pieces=EXP_PIECES))
    assert f == direct
    ts = np.linspace(0.0, 1.0, 7)
    us = np.array([0.0, 0.5, 1.0, 3.3, 100.0, 545.0, 800.0])
    assert np.allclose(f(ts[:, None], us[None, :]), direct(ts[:, None], us[None, :]), rtol=0, atol=0)


def test_parse_constant_zero_allowed():
    f = parse_function_spec({"kind": "constant", "params": [0]})
    assert f(0.3, 2.0) == 0.0


@pytest.mark.parametrize("c", [F(0), F(3), F(1, 3), 1e-3])
def test_a_constant_is_the_degree_0_polynomial(c):
    # alone and as a product's u factor, as a constant time factor is the degree-0 PolynomialT
    doc = {"kind": "constant", "params": [c if isinstance(c, float) else str(c)]}
    assert parse_function_spec(doc) == PolynomialU(coeffs=(c,))
    product = parse_function_spec({"kind": "product", "time": {"kind": "exp-decay", "params": [1]}, "u": doc})
    assert product == ProductF(time_factor=ExpDecay(rate=F(1)), u_factor=PolynomialU(coeffs=(c,)))
    with pytest.raises(FunctionSpecError, match=r"constant takes params \[value\]"):
        parse_function_spec({"kind": "constant", "params": [c, 1]})


def test_a_degree_0_polynomial_takes_its_range_from_its_one_value(monkeypatch):
    # no rational enclosure and no box-by-box pass: the value at (t_lo, u_lo) is lo and hi of every box
    def fail(*args):
        raise AssertionError("a constant's range went through the general polynomial path")

    monkeypatch.setattr(functions, "_poly_range", fail)
    monkeypatch.setattr(functions, "_each_box", fail)
    f = PolynomialU(coeffs=(F(3),))
    assert f.range(0.25, 0.75, 1.5, 2.5) == Range(3.0, 3.0, (0.25, 1.5), (0.25, 1.5), "exact")
    edges = np.geomspace(1e-6, 1e3, 14)
    r = f.range(0.0, 1.0, edges[:-1], edges[1:])
    assert r.lo.tolist() == r.hi.tolist() == [3.0] * 13


def test_parse_unknown_kind_rejected():
    with pytest.raises(FunctionSpecError):
        parse_function_spec({"kind": "mystery", "params": [1]})


def test_parse_discontinuous_pieces_rejected():
    doc = {
        "kind": "piecewise",
        "pieces": [
            {"until": 1, "form": "linear", "params": [1, 0]},
            {"until": None, "form": "constant", "params": [5]},
        ],
    }
    with pytest.raises(FunctionSpecError, match="discontinuity"):
        parse_function_spec(doc)


def test_parse_negative_sampled_rejected():
    doc = {"kind": "polynomial", "params": [1, -1]}  # 1 - u dips negative
    with pytest.raises(FunctionSpecError, match="negative"):
        parse_function_spec(doc, u_max=10.0)


@pytest.mark.parametrize("params", [[0, 0, 1], [0, 0, 0, 1], [1, -4, 6, -4, 1], [1, -6, 9]])
def test_parse_polynomial_touching_zero_accepted(params):
    # u^2 and u^3 vanish at the box edge u = 0; (u - 1)^4 and (3u - 1)^2 touch 0 at a rational point inside
    r = parse_function_spec({"kind": "polynomial", "params": params}).range(0.0, 1.0, 0.0, 10.0)
    assert r.lo == 0.0 and r.method == "exact"


def test_polynomial_range_beyond_the_float_range_is_infinite():
    # u^80 at u = 1e4 is 1e320; the float evaluation gives inf, and so must the range
    f = PolynomialU(coeffs=(F(0),) * 80 + (F(1),))
    r = f.range(0.0, 1.0, 0.0, 1e4)
    assert (r.lo, r.hi, r.method) == (0.0, math.inf, "exact") and f(0.0, 1e4) == math.inf


def test_parse_product_with_vanishing_time_factor():
    doc = {
        "kind": "product",
        "time": {"kind": "polynomial", "params": [0, 0, 1]},
        "u": {"kind": "polynomial", "params": [0, 0, 1]},
    }
    r = parse_function_spec(doc).range(0.0, 1.0, 0.0, 10.0)
    assert (r.lo, r.hi, r.method) == (0.0, 100.0, "exact")


def test_a_product_document_is_bounded_once_on_its_whole_f(monkeypatch):
    # the u factor is not bounded on its own: its one range call is the product's
    calls = []
    bound = PolynomialU.range
    monkeypatch.setattr(PolynomialU, "range", lambda self, *box: calls.append(box) or bound(self, *box))
    doc = {
        "kind": "product",
        "time": {"kind": "polynomial", "params": [1, "-3/2", 1]},
        "u": {"kind": "polynomial", "params": [1, -4, 6, -4, 1]},
    }
    parse_function_spec(doc, t_max=1.0, u_max=248.0)
    assert calls == [(0.0, 1.0, 0.0, 248.0)]


def test_a_product_is_nonnegative_or_negative_as_a_whole():
    def product(time, u):
        return {"kind": "product", "time": {"kind": "constant", "params": [time]}, "u": {"kind": "polynomial", "params": u}}

    # two negative factors: -1 * (-1 - u) = 1 + u
    assert parse_function_spec(product(-1, [-1, -1]))(0.5, 2.0) == 3.0
    # a zero time factor makes any u factor nonnegative (H1 then finds f vanishing)
    assert parse_function_spec(product(0, [-1]))(0.5, 2.0) == 0.0
    # a negative u factor alone: the point and value are the product's, 2 * (1 - 10)
    with pytest.raises(FunctionSpecError, match=r"negative at \(t, u\) = \(0.0, 10.0\): -18.0 \(exact bound\)$"):
        parse_function_spec(product(2, [1, -1]))


def test_parse_unsorted_breakpoints_rejected():
    doc = {
        "kind": "piecewise",
        "pieces": [
            {"until": 4, "form": "constant", "params": [1]},
            {"until": 1, "form": "constant", "params": [1]},
            {"until": None, "form": "constant", "params": [1]},
        ],
    }
    with pytest.raises(FunctionSpecError, match="ascending"):
        parse_function_spec(doc)


def test_parse_product_kind():
    doc = {
        "kind": "product",
        "time": {"kind": "exp-decay", "params": [2]},
        "u": {"kind": "polynomial", "params": [0, 1]},
    }
    f = parse_function_spec(doc)
    assert f(0.5, 3.0) == pytest.approx(3.0 * np.exp(-1.0), rel=1e-14)


@pytest.mark.parametrize(
    "time, u",
    [
        ({"kind": "constant"}, {"kind": "polynomial", "params": [0, 1]}),
        ({"kind": "exp-decay"}, {"kind": "polynomial", "params": [0, 1]}),
        ({"kind": "exp-decay", "params": [1, 2]}, {"kind": "polynomial", "params": [0, 1]}),
        ({"kind": "polynomial", "params": []}, {"kind": "polynomial", "params": [0, 1]}),
        ("x", {"kind": "polynomial", "params": [0, 1]}),
        ({"kind": "constant", "params": [1]}, "x"),
        ({"kind": "sine", "params": [1]}, {"kind": "constant", "params": [1]}),
    ],
)
def test_parse_product_rejects_malformed_factors(time, u):
    # parameter counts as for the u forms: exp-decay and constant take one, polynomial at least one; no other kind
    with pytest.raises(FunctionSpecError):
        parse_function_spec({"kind": "product", "time": time, "u": u})


def test_piecewise_linear_table():
    f = parse_function_spec({"kind": "piecewise-linear-table", "params": [0, 0, 1, 2, 3, 2]})
    assert f(0.0, 0.5) == pytest.approx(1.0)
    assert f(0.0, 2.0) == pytest.approx(2.0)
    assert f(0.0, 50.0) == pytest.approx(2.0)  # constant beyond the table


def test_domain_error_below_tolerance():
    f = RationalSigmoid(scale=F(40))
    with pytest.raises(FunctionDomainError):
        f(0.0, -1e-6)
    # tiny negative noise is clamped, not rejected
    assert f(0.0, -1e-12) == pytest.approx(0.0, abs=1e-20)


def test_constant_broadcasts_over_t():
    f = PolynomialU(coeffs=(F(3),))
    ts = np.linspace(0, 1, 5)
    out = f(ts, 1.0)
    assert out.shape == ts.shape and np.all(out == 3.0)


BROADCAST_FORMS = {  # the constant form's case is test_constant_broadcasts_over_t; the product's u factor is constant
    "sigmoid": RationalSigmoid(scale=F(40)),
    "polynomial": PolynomialU(coeffs=(F(1), F(0), F(2))),
    "piecewise": PiecewiseU(pieces=EXP_PIECES),
    "table": PiecewiseLinearTable(table=((F(0), F(0)), (F(2), F(4)))),
    "product": ProductF(time_factor=ExpDecay(rate=F(1)), u_factor=PolynomialU(coeffs=(F(3),))),
}


@pytest.mark.parametrize("name", sorted(BROADCAST_FORMS))
def test_each_form_broadcasts_a_scalar_u_over_an_array_t(name):
    # FunctionSpec.__call__ broadcasts the value over t and u together, whatever shape _value returns
    f = BROADCAST_FORMS[name]
    ts = np.linspace(0, 1, 5)
    out = f(ts, 1.5)
    assert isinstance(out, np.ndarray) and out.shape == ts.shape
    assert out.tolist() == [float(f(t, 1.5)) for t in ts.tolist()]
    block = f(ts, np.full((3, ts.size), 1.5))  # one row of u per start, as the coarse Newton search evaluates
    assert block.shape == (3, ts.size) and all(row == out.tolist() for row in block.tolist())


def test_polynomial_exact():
    f = PolynomialU(coeffs=(F(1), F(0), F(2)))
    assert f(0, F(1, 2)) == F(3, 2)


def test_piecewise_membership_half_open():
    pieces = (
        Piece(F(1), "linear", (F(1), F(0))),
        Piece(None, "constant", (F(1),)),
    )
    f = PiecewiseU(pieces=pieces)
    # continuity makes the boundary choice observationally irrelevant
    assert f(0.0, 1.0) == pytest.approx(1.0)
    assert f(0.0, 0.25) == pytest.approx(0.25)


def test_parse_table_dip_between_samples_rejected():
    doc = {"kind": "piecewise-linear-table", "params": [0, 1, "1/10", 1, "23/200", -1, "13/100", 1, 10, 1]}
    with pytest.raises(FunctionSpecError, match="negative"):
        parse_function_spec(doc)


@pytest.mark.parametrize(
    "pieces",
    [
        (Piece(None, "rational-linear", (F(1), F(0), F(1), F(-2))),),
        (Piece(F(3), "rational-linear", (F(1), F(0), F(1), F(-2))), Piece(None, "constant", (F(3),))),
    ],
)
def test_rational_linear_pole_on_branch_rejected(pieces):
    # 1/(u - 2) has its pole at u = 2, inside the branch
    with pytest.raises(FunctionSpecError, match="pole"):
        PiecewiseU(pieces=pieces)


def _exact_rejection(pieces) -> str | None:
    """The first check PiecewiseU's construction fails, decided in exact arithmetic on the breakpoints,
    the parameters and the values the branches give (exact for Fractions, the float evaluation otherwise)."""
    breakpoints = [p.until for p in pieces[:-1]]
    if breakpoints and not breakpoints[0] > 0:
        return "is not positive"
    if any(not right > left for left, right in zip(breakpoints, breakpoints[1:])):
        return "strictly ascending"
    for left, p in zip([0, *breakpoints], pieces):
        if p.form == "rational-linear":
            b1, b0 = p.params[2:]
            far = (b1 or b0) if p.until is None else b1 * p.until + b0
            if F(b1 * left + b0) * F(far) <= 0:
                return "has a pole"
    for i, b in enumerate(breakpoints):
        u = b if isinstance(b, F) else float(b)
        if abs(F(pieces[i].evaluate(u)) - F(pieces[i + 1].evaluate(u))) > F(BREAKPOINT_TOL):
            return "discontinuity"
    return None


# Gaps between the branches at a breakpoint: none, the tolerance and the doubles on either side of it.
_GAPS = [F(0), F(BREAKPOINT_TOL), F(math.nextafter(BREAKPOINT_TOL, 0)), F(math.nextafter(BREAKPOINT_TOL, 1)),
         F(1, 10**12), F(3, 10**9)]


@st.composite
def _branches(draw):
    """Two or three branches: breakpoints that floats may not tell apart, and a second branch that meets
    the first within a gap near BREAKPOINT_TOL or has its denominator vanish at one of its ends."""
    def rational(max_exp=6):
        return F(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**6))) * F(10) ** draw(st.integers(-3, max_exp))

    b = (abs(rational()) or F(1)) if draw(st.integers(0, 5)) else draw(st.sampled_from([F(0), F(-1), F(1, 10**400)]))
    step = draw(st.sampled_from([F(1), F(1, 10**30), F(0), F(-1, 10**30), F(1, 3)]))
    a, c = rational(), rational()
    value = a * b + c + draw(st.sampled_from([1, -1])) * draw(st.sampled_from(_GAPS))
    form = draw(st.sampled_from(["constant", "linear", "rational-linear"]))
    if form == "constant":
        params = (value,)
    elif form == "linear":
        slope = rational()
        params = (slope, value - slope * b)
    else:
        d1 = rational()
        d0 = draw(st.sampled_from([-d1 * b, -d1 * (b + step), rational() or F(1)]))
        n1, den = rational(), d1 * b + d0
        params = (n1, value * den - n1 * b, d1, d0)
    pieces = [Piece(b, "linear", (a, c))]
    if draw(st.booleans()):
        pieces += [Piece(b + step, form, params), Piece(None, "constant", (draw(st.sampled_from([F(1), F(0)])),))]
    else:
        pieces += [Piece(None, form, params)]
    if draw(st.booleans()):  # float parameters and breakpoints: checked on what the floats evaluate to
        pieces = [Piece(None if p.until is None else float(p.until), p.form, tuple(float(x) for x in p.params))
                  for p in pieces]
    return tuple(pieces)


@settings(max_examples=400, deadline=None)
@given(_branches())
def test_piecewise_construction_decides_each_check_exactly(pieces):
    expected = _exact_rejection(pieces)
    if expected is None:
        PiecewiseU(pieces=pieces)
    else:
        with pytest.raises(FunctionSpecError, match=expected):
            PiecewiseU(pieces=pieces)


@pytest.mark.parametrize("gap", [-1, 0, 1])
@pytest.mark.parametrize("level", [F(87), F(10**6, 3)])
def test_a_continuity_gap_at_the_tolerance_is_decided_exactly(gap, level):
    # the branches meet BREAKPOINT_TOL apart, or one double step of it nearer or farther: only
    # exact arithmetic tells these apart at the level 87 or 10^6/3, where a float's ulp is above 1e-14
    tol = F(math.nextafter(BREAKPOINT_TOL, {-1: 0, 0: BREAKPOINT_TOL, 1: 1}[gap]))
    pieces = (Piece(F(2), "linear", (level / 2, F(0))), Piece(None, "constant", (level + tol,)))
    if gap > 0:
        with pytest.raises(FunctionSpecError, match="discontinuity"):
            PiecewiseU(pieces=pieces)
    else:
        PiecewiseU(pieces=pieces)


def test_a_denominator_vanishing_exactly_at_a_branch_end_is_a_pole():
    # 1/(u - b) with b = 1/3 + 10^-30, which no double tells apart from 1/3, the branch's left end or its right end
    b = F(1, 3) + F(1, 10**30)
    for left, right in ((b, F(2)), (F(1, 3), b)):
        pieces = (Piece(left, "constant", (F(1),)), Piece(right, "rational-linear", (F(0), F(1), F(1), -b)),
                  Piece(None, "constant", (F(1),)))
        with pytest.raises(FunctionSpecError, match="has a pole"):
            PiecewiseU(pieces=pieces)


def test_numbers_beyond_float_range_are_checked_exactly():
    # no float holds 10^400: the construction checks fall back to exact arithmetic instead of raising
    huge = F(10**400)
    PiecewiseU(pieces=(Piece(huge, "constant", (F(1),)), Piece(None, "constant", (F(1),))))
    PiecewiseU(pieces=(Piece(F(2), "constant", (huge,)), Piece(None, "constant", (huge,))))
    with pytest.raises(FunctionSpecError, match="has a pole"):
        PiecewiseU(pieces=(Piece(F(2), "constant", (F(1),)), Piece(None, "rational-linear", (F(0), huge, F(1), -huge))))


def test_fraction_breakpoints_with_float_parameters_are_checked_on_the_floats():
    # a branch with float parameters is compared at float(b), as Piece.evaluate computes it: at b = 1 + 10^-20,
    # 1e12 * u is the double 1e12, so it meets the constant 1e12, and the exact 10^12 * b, 10^-8 above, does not
    b = 1 + F(1, 10**20)
    PiecewiseU(pieces=(Piece(b, "linear", (1e12, 0.0)), Piece(None, "constant", (1e12,))))
    with pytest.raises(FunctionSpecError, match=r"gives 1000000000000\.0, right branch gives 1000000000000\.0$"):
        PiecewiseU(pieces=(Piece(b, "linear", (F(10**12), F(0))), Piece(None, "constant", (1e12,))))
    # the pole test too: 3.0 * (1/3 + 10^-30) - 1.0 is 0.0 in floats, and 3 * 10^-30 in exact arithmetic
    left = F(1, 3) + F(1, 10**30)
    with pytest.raises(FunctionSpecError, match="has a pole"):
        PiecewiseU(pieces=(Piece(left, "constant", (1.0,)), Piece(None, "rational-linear", (0.0, 1.0, 3.0, -1.0))))
    PiecewiseU(pieces=(Piece(left, "constant", (F(1),)), Piece(None, "rational-linear", (F(0), 3 * left - 1, F(3), F(-1)))))


def test_int_breakpoints_are_compared_on_float_values():
    # Piece.evaluate takes an int u as a float, so at the breakpoint 3 both branches are the double 10^9,
    # though exactly they lie 2 * 10^-9 apart, as they do at the Fraction 3
    def pieces(b):
        return Piece(b, "linear", (F(10**9, 3), F(0))), Piece(None, "constant", (10**9 + F(2, 10**9),))

    PiecewiseU(pieces=pieces(3))
    with pytest.raises(FunctionSpecError, match="discontinuity at breakpoint u = 3"):
        PiecewiseU(pieces=pieces(F(3)))
    # the ordering compares an int with a Fraction exactly
    with pytest.raises(FunctionSpecError, match="strictly ascending, got 3 then 3$"):
        PiecewiseU(pieces=(Piece(3, "constant", (F(1),)), Piece(F(3), "constant", (F(1),)), Piece(None, "constant", (F(1),))))
    PiecewiseU(pieces=(Piece(3, "constant", (F(1),)), Piece(3 + F(1, 10**20), "constant", (F(1),)), Piece(None, "constant", (F(1),))))


def test_an_infinite_branch_value_is_a_discontinuity_and_a_nan_one_is_not():
    # |lo - hi| > BREAKPOINT_TOL on the float values: inf - x is inf, and NaN compares false
    with pytest.raises(FunctionSpecError, match="left branch gives inf, right branch gives 1.0$"):
        PiecewiseU(pieces=(Piece(F(10), "linear", (1e308, 0.0)), Piece(None, "constant", (1.0,))))
    with pytest.raises(FunctionSpecError, match="left branch gives 1.0, right branch gives inf$"):
        PiecewiseU(pieces=(Piece(F(10), "constant", (F(1),)), Piece(None, "linear", (1e308, 0.0))))
    PiecewiseU(pieces=(Piece(1.0, "linear", (math.inf, -math.inf)), Piece(None, "constant", (5.0,))))  # NaN at u = 1
    PiecewiseU(pieces=(Piece(F(10), "linear", (1e308, 0.0)), Piece(None, "constant", (math.inf,))))  # inf - inf is NaN


def test_form_without_range_cannot_be_constructed():
    # certification and the H1 check rely on range, so a subclass must define it
    class NoRange(FunctionSpec):
        def _value(self, t, u):
            return 1.0

    with pytest.raises(TypeError, match="abstract.*range"):
        NoRange()


def test_form_without_a_slope_cannot_be_constructed():
    # the Newton Jacobians rely on df_du, so a subclass must define its slope
    class NoSlope(FunctionSpec):
        def _value(self, t, u):
            return 1.0

        def range(self, t_lo, t_hi, u_lo, u_hi):
            return self._attained([(t_lo, u_lo)])

    with pytest.raises(TypeError, match="abstract.*_slope"):
        NoSlope()


def test_product_u_factor_must_not_depend_on_t():
    inner = ProductF(time_factor=ExpDecay(rate=F(1)), u_factor=PolynomialU(coeffs=(F(1),)))
    with pytest.raises(FunctionSpecError, match="u alone"):
        ProductF(time_factor=ExpDecay(rate=F(-1)), u_factor=inner)


RANGE_FORMS = {
    "sigmoid": RationalSigmoid(scale=F(40)),
    "constant": PolynomialU(coeffs=(F(3),)),
    "bump": PolynomialU(coeffs=(F(1), F(3), F(-1), F(1, 10))),
    "spike-table": PiecewiseLinearTable(
        table=((F(0), F(1)), (F(1, 10), F(1)), (F(23, 200), F(3)), (F(13, 100), F(1)), (F(10), F(2)))
    ),
    "exp-piecewise": ProductF(time_factor=ExpDecay(rate=F(1)), u_factor=PiecewiseU(pieces=EXP_PIECES)),
    "peak": PiecewiseU(
        pieces=(
            Piece(F(1), "constant", (F(0),)),
            Piece(F(50), "linear", (F(20, 49), F(-20, 49))),
            Piece(F(60), "linear", (F(-2), F(120))),
            Piece(None, "constant", (F(0),)),
        )
    ),
    "rational-tail": PiecewiseU(
        pieces=(Piece(F(2), "linear", (F(4, 3), F(0))), Piece(None, "rational-linear", (F(3), F(2), F(1), F(1))))
    ),
    "cube": PolynomialU(coeffs=(F(0), F(0), F(0), F(1))),
    "quartic-touch": PolynomialU(coeffs=(F(1), F(-4), F(6), F(-4), F(1))),
    "third-touch": PolynomialU(coeffs=(F(1), F(-6), F(9))),
    # both factors change monotonicity inside the box, and the u factor changes sign
    "polynomial-product": ProductF(
        time_factor=PolynomialT(coeffs=(F(1), F(-3, 2), F(1))), u_factor=PolynomialU(coeffs=(F(2), F(-3), F(1)))
    ),
}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(RANGE_FORMS)),
    t=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    u=st.tuples(st.floats(0.0, 12.0), st.floats(0.0, 12.0)) | st.tuples(st.floats(0.0, 600.0), st.floats(0.0, 600.0)),
)
def test_range_brackets_a_dense_sample(name, t, u):
    # the dense sample is the oracle: every value must lie inside [lo, hi]
    f = RANGE_FORMS[name]
    (t_lo, t_hi), (u_lo, u_hi) = sorted(t), sorted(u)
    r = f.range(t_lo, t_hi, u_lo, u_hi)
    values = f(np.linspace(t_lo, t_hi, 41)[:, None], np.linspace(u_lo, u_hi, 801)[None, :])
    slack = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    assert r.lo <= np.min(values) + slack and np.max(values) <= r.hi + slack
    assert r.method in ("exact", "enclosure")
    if r.method == "exact":
        for bound, (tb, ub) in ((r.lo, r.lo_at), (r.hi, r.hi_at)):
            assert t_lo <= tb <= t_hi and u_lo <= ub <= u_hi
            assert float(f(tb, ub)) == pytest.approx(bound, rel=1e-12, abs=1e-12)


ARRAY_FORMS = {
    "sigmoid": RationalSigmoid(scale=F(40)),
    "constant": PolynomialU(coeffs=(F(3),)),
    "exp-piecewise": PiecewiseU(pieces=EXP_PIECES),  # linear, constant and rational-linear branches
    "peak": RANGE_FORMS["peak"],
    "rational-tail": RANGE_FORMS["rational-tail"],
    "float-piecewise": PiecewiseU(
        pieces=(Piece(0.5, "linear", (2.0, 0.0)), Piece(3.0, "constant", (1.0,)), Piece(None, "linear", (-0.25, 1.75)))
    ),
    "table": RANGE_FORMS["spike-table"],
    "polynomial": RANGE_FORMS["bump"],
    "product-exp": RANGE_FORMS["exp-piecewise"],
    "product-polynomial": ProductF(time_factor=PolynomialT(coeffs=(F(1), F(-3, 2), F(1))), u_factor=RANGE_FORMS["bump"]),
    "product-polynomial-sigmoid": ProductF(time_factor=PolynomialT(coeffs=(F(1, 2), F(2))), u_factor=RationalSigmoid(scale=F(7))),
}


def _breakpoints(f) -> list[float]:
    """Where the u factor of f changes branch: its breakpoints or table abscissae."""
    f = getattr(f, "u_factor", f)
    if isinstance(f, PiecewiseU):
        return [float(p.until) for p in f.pieces[:-1]]
    if isinstance(f, PiecewiseLinearTable):
        return [float(u) for u, _ in f.table]
    return []


def _marks(f) -> list[float]:
    """_breakpoints, or one point in the middle for the forms without any."""
    return _breakpoints(f) or [1.0]


@st.composite
def _u_boxes(draw, marks):
    # edges on a breakpoint, one float off it, anywhere, or beyond the last breakpoint
    mark = st.sampled_from(marks)
    edge = st.one_of(
        mark,
        mark.map(lambda b: math.nextafter(b, 0.0)),
        mark.map(lambda b: math.nextafter(b, math.inf)),
        st.floats(0.0, 2.0 * max(marks) + 10.0),
        st.floats(max(marks), 1e6),
    )
    box = st.tuples(edge, edge).map(sorted) | edge.map(lambda x: [x, x])  # zero-width boxes too
    return np.array(draw(st.lists(box, min_size=1, max_size=13))).T


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(ARRAY_FORMS)), t=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), data=st.data())
def test_array_range_equals_scalar_range_bitwise(name, t, data):
    f = ARRAY_FORMS[name]
    (t_lo, t_hi), (u_lo, u_hi) = sorted(t), data.draw(_u_boxes(_marks(f)))
    boxes = f.range(t_lo, t_hi, u_lo, u_hi)
    one_by_one = [f.range(t_lo, t_hi, lo, hi) for lo, hi in zip(u_lo.tolist(), u_hi.tolist())]
    assert boxes.lo.tobytes() == np.array([r.lo for r in one_by_one]).tobytes()
    assert boxes.hi.tobytes() == np.array([r.hi for r in one_by_one]).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    columns=st.lists(
        st.lists(st.tuples(st.sampled_from([math.nan, 0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf]), st.booleans()),
                 min_size=4, max_size=4).filter(lambda box: any(on for _, on in box)),
        min_size=1, max_size=6,
    ),
    masked=st.booleans(),
)
def test_boxes_range_picks_what_min_and_max_pick(columns, masked):
    # NaN, signed zeros and infinities, with and without masks: each box gets the bits of the first least
    # and first greatest of its own candidates, but -inf and inf where that pick is not finite or a
    # candidate is NaN, since such a bound proves nothing; the scalar call gives the same bits
    values = np.array([[v for v, _ in box] for box in columns]).T
    on = np.array([[o or not masked for _, o in box] for box in columns]).T
    boxes = _boxes_range(values, on if masked else None)
    kept = [[v for v, o in box if o or not masked] for box in columns]

    def rule(c, pick, bad):
        return bad if any(math.isnan(v) for v in c) or not math.isfinite(pick(c)) else pick(c)

    assert boxes.lo.tobytes() == np.array([rule(c, min, -math.inf) for c in kept]).tobytes()
    assert boxes.hi.tobytes() == np.array([rule(c, max, math.inf) for c in kept]).tobytes()
    one_by_one = [_range([(v, (0.0, 0.0), "exact") for v in c]) for c in kept]
    assert boxes.lo.tobytes() == np.array([r.lo for r in one_by_one]).tobytes()
    assert boxes.hi.tobytes() == np.array([r.hi for r in one_by_one]).tobytes()


def test_piecewise_array_equals_scalar_evaluation_bitwise():
    h = PiecewiseU(pieces=EXP_PIECES)
    breaks = [float(p.until) for p in EXP_PIECES[:-1]]
    near = [math.nextafter(b, d) for b in breaks for d in (0.0, math.inf)]
    us = np.concatenate([np.linspace(0.0, 600.0, 1201), breaks, near])
    vec = h(0.0, us)
    assert [h(0.0, float(u)) for u in us] == vec.tolist()


def test_piecewise_evaluates_each_branch_only_on_its_own_points():
    # the tail (3u - 2)/u from u = 2 has its pole at u = 0, outside its branch
    h = PiecewiseU(pieces=(Piece(F(2), "linear", (F(1), F(0))), Piece(None, "rational-linear", (F(3), F(-2), F(1), F(0)))))
    us = np.linspace(0.0, 4.0, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = h(0.0, us)
    assert np.array_equal(vec, np.where(us < 2.0, us, (3.0 * us - 2.0) / np.maximum(us, 2.0)))


def test_fraction_scalars_stay_exact_after_array_evaluation():
    # the float parameters cached by an array call must not leak into the exact path
    forms = {
        RationalSigmoid(scale=F(40)): (F(2), F(32)),
        PolynomialU(coeffs=(F(1), F(0), F(2))): (F(1, 2), F(3, 2)),
        PiecewiseU(pieces=EXP_PIECES): (F(545), F(87, 544) * 545),
    }
    for f, (u, exact) in forms.items():
        f(0.0, np.linspace(0.0, 600.0, 7))
        assert f(0, u) == exact and isinstance(f(0, u), F)


@pytest.mark.parametrize("name", sorted(RANGE_FORMS))
def test_a_zero_dimensional_u_is_the_scalar_it_holds(name):
    f = RANGE_FORMS[name]
    got, want = f(0.5, np.array(1.5)), f(0.5, np.float64(1.5))
    assert type(got) is type(want) and got == want


@pytest.mark.parametrize("name", sorted(RANGE_FORMS))
def test_a_list_u_evaluates_as_an_array(name):
    f = RANGE_FORMS[name]
    us = [0.0, 0.5, 1.5, 7.0]
    assert f(0.5, us).tolist() == f(0.5, np.array(us)).tolist()
    with pytest.raises(FunctionDomainError):
        f(0.5, [1.0, -1e-6])


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(RANGE_FORMS)),
    t=st.floats(0.0, 1.0),
    u=st.floats(0.0, 12.0) | st.floats(0.0, 600.0),
)
def test_slope_matches_a_central_difference_away_from_kinks(name, t, u):
    f = RANGE_FORMS[name]
    h = 1e-6 * max(1.0, u)
    assume(all(abs(u - k) > 2.0 * h for k in (0.0, *_breakpoints(f))))
    central = (float(f(t, u + h)) - float(f(t, u - h))) / (2.0 * h)
    assert abs(float(f.df_du(t, u)) - central) <= 1e-6 * max(1.0, abs(central))


@pytest.mark.parametrize("name", sorted(RANGE_FORMS))
def test_slope_at_zero_and_at_each_kink_is_the_right_hand_quotient(name):
    # at u = 0, a breakpoint or an abscissa, df_du is the slope of the branch __call__ evaluates there
    f = RANGE_FORMS[name]
    kinks = [0.0, *_breakpoints(f)]
    for t in (0.0, 0.5, 1.0):
        on_array = f.df_du(t, np.array(kinks)).tolist()
        for k, slope in zip(kinks, on_array):
            h = 1e-8 * max(1.0, k)
            right = (float(f(t, k + h)) - float(f(t, k))) / h
            for got in (float(f.df_du(t, k)), slope):
                assert abs(got - right) <= 1e-6 * max(1.0, abs(right)), (t, k)


@pytest.mark.parametrize("name", sorted(RANGE_FORMS))
def test_slope_broadcasts_as_call_does(name, rng):
    f = RANGE_FORMS[name]
    t = np.linspace(0.0, 1.0, 33)
    U = 10.0 ** rng.uniform(-3.0, 3.0, (2, 3, t.size))
    U.flat[: len(_breakpoints(f)) + 1] = [0.0, *_breakpoints(f)]
    block = f.df_du(t, U)  # (2, k, n): a stack of blocks
    assert block.shape == f(t, U).shape == U.shape
    for i in range(2):
        rows = f.df_du(t, U[i])  # (k, n): one row per start of the coarse search
        assert np.array_equal(rows, block[i])
        for j in range(3):
            assert np.array_equal(f.df_du(t, U[i, j]), rows[j])  # (n,): one full-grid iterate
    assert f.df_du(t, 1.5).shape == f(t, 1.5).shape == t.shape
    assert isinstance(f.df_du(0.5, 1.5), float) and f.df_du(F(1, 2), F(3, 2)) == f.df_du(0.5, 1.5)
    assert np.array_equal(f.df_du(t, np.full(t.size, -1e-12)), f.df_du(t, np.zeros(t.size)))
    for method in (f, f.df_du):  # -0.0 is taken at +0.0, bit for bit
        assert method(t, np.full(t.size, -0.0)).tobytes() == method(t, np.zeros(t.size)).tobytes()
    with pytest.raises(FunctionDomainError):
        f.df_du(t, np.full(t.size, -1e-6))


PRODUCT_FORMS = {name: f for name, f in {**RANGE_FORMS, **ARRAY_FORMS}.items() if isinstance(f, ProductF)}


@pytest.mark.parametrize("name", sorted(PRODUCT_FORMS))
def test_product_slope_is_the_time_factor_times_the_u_factor_slope(name, rng):
    f = PRODUCT_FORMS[name]
    t = np.linspace(0.0, 1.0, 33)
    U = 10.0 ** rng.uniform(-3.0, 3.0, (3, t.size))
    assert np.array_equal(f.df_du(t, U), f.time_factor.evaluate(t) * f.u_factor.df_du(t, U))
    assert f.df_du(0.5, 1.5) == f.time_factor.evaluate(0.5) * f.u_factor.df_du(0.5, 1.5)
