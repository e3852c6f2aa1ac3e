import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribvp import FunctionDomainError, FunctionSpecError, parse_function_spec
from tribvp.functions import (
    ConstantF,
    FunctionSpec,
    ExpDecay,
    Piece,
    PiecewiseLinearTable,
    PiecewiseU,
    PolynomialT,
    PolynomialU,
    ProductF,
    RationalSigmoid,
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
    f = ConstantF(value=F(3))
    ts = np.linspace(0, 1, 5)
    out = f(ts, 1.0)
    assert out.shape == ts.shape and np.all(out == 3.0)


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


def test_form_without_range_cannot_be_constructed():
    # certification and the H1 check rely on range, so a subclass must define it
    class NoRange(FunctionSpec):
        def _value(self, t, u):
            return 1.0

    with pytest.raises(TypeError, match="abstract.*range"):
        NoRange()


def test_product_u_factor_must_not_depend_on_t():
    inner = ProductF(time_factor=ExpDecay(rate=F(1)), u_factor=ConstantF(value=F(1)))
    with pytest.raises(FunctionSpecError, match="u alone"):
        ProductF(time_factor=ExpDecay(rate=F(-1)), u_factor=inner)


RANGE_FORMS = {
    "sigmoid": RationalSigmoid(scale=F(40)),
    "constant": ConstantF(value=F(3)),
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
