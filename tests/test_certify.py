from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
import pytest

from tribvp import (
    CertificationError,
    Problem,
    ThresholdTriple,
    certify,
    check_D1,
    check_D2,
    check_D3,
    check_ordering,
    compute_constants,
    search_thresholds,
)
from tribvp.functions import ConstantF, FunctionSpec, PolynomialU, parse_function_spec

from conftest import make_exp_piecewise_problem, make_sigmoid_problem


def test_ordering_examples():
    assert check_ordering(ThresholdTriple.from_abc(F(1, 120), F(2), F(124)), F(1, 4))
    assert check_ordering(ThresholdTriple.from_abc(F(1, 4), F(4), F(544)), F(1, 4))
    assert not check_ordering(ThresholdTriple.from_abc(F(2), F(2), F(100)), F(1, 4))


def test_ordering_boundary_c_equal_d():
    # b/gamma <= c is non-strict: c exactly b/gamma passes
    assert check_ordering(ThresholdTriple.from_abc(F(1), F(2), F(8)), F(1, 4))
    assert not check_ordering(ThresholdTriple.from_abc(F(1), F(2), F(79, 10)), F(1, 4))


def test_small_range_cap_on_sigmoid_problem():
    p = make_sigmoid_problem()
    k = compute_constants(p)
    rep = check_D1(p, k.m, F(1, 120))
    assert rep.holds
    assert rep.bound == pytest.approx(1.0 / 360.0, abs=1e-15)
    # the cap is tight here: margin = 1/360 - 40/14401
    assert rep.margin == pytest.approx(1.0 / 360.0 - 40.0 / 14401.0, rel=1e-9)
    assert rep.worst_point[1] == pytest.approx(1.0 / 120.0)


def test_tail_floor_on_sigmoid_problem():
    p = make_sigmoid_problem()
    k = compute_constants(p)
    rep = check_D2(p, k.delta, F(2), k.gamma)
    assert rep.holds
    assert rep.bound == pytest.approx(22.5)
    assert rep.margin == pytest.approx(32.0 - 22.5, rel=1e-12)  # min f is f(2) = 32


def test_global_cap_on_sigmoid_problem():
    p = make_sigmoid_problem()
    k = compute_constants(p)
    rep = check_D3(p, k.m, F(124))
    assert rep.holds
    assert rep.bound == pytest.approx(124.0 / 3.0, rel=1e-15)
    fmax = 40.0 * 124.0**2 / (124.0**2 + 1.0)
    assert rep.margin == pytest.approx(124.0 / 3.0 - fmax, rel=1e-9)


def test_exp_problem_conditions():
    p = make_exp_piecewise_problem()
    k = compute_constants(p)
    d1 = check_D1(p, k.m, F(1, 4))
    d2 = check_D2(p, k.delta, F(4), k.gamma)
    d3 = check_D3(p, k.m, F(544))
    assert d1.holds and d2.holds and d3.holds
    assert d1.bound == pytest.approx(0.04)
    assert d2.bound == pytest.approx(32.0)
    assert d2.margin == pytest.approx(87.0 / np.e - 32.0, rel=1e-12)
    assert d3.bound == pytest.approx(87.04)
    assert d3.margin == pytest.approx(0.04, abs=1e-9)


def test_strictness_boundary_cases():
    # f == m*a everywhere: the strict small-range cap fails, margin 0
    p = make_sigmoid_problem().with_params(f=ConstantF(value=F(1)))
    rep = check_D1(p, F(1, 3), F(3))  # m*a = 1 exactly
    assert rep.margin == 0.0 and not rep.holds
    # the global cap is non-strict: f == m*c passes with margin 0
    rep3 = check_D3(p, F(1, 3), F(3))
    assert rep3.margin == 0.0 and rep3.holds


def test_zero_nonlinearity_cannot_satisfy_tail_floor():
    p = make_sigmoid_problem().with_params(f=ConstantF(value=F(0)))
    rep = check_D2(p, F(4, 45), F(2), F(1, 4))
    assert not rep.holds
    assert rep.margin == pytest.approx(-22.5)


def test_certificates_for_both_example_problems(sigmoid_thresholds, exp_thresholds):
    p1 = make_sigmoid_problem()
    cert1 = certify(p1, sigmoid_thresholds, compute_constants(p1))
    assert cert1.ordering_ok and cert1.verdict
    p2 = make_exp_piecewise_problem()
    cert2 = certify(p2, exp_thresholds, compute_constants(p2))
    assert cert2.ordering_ok and cert2.verdict
    for cert in (cert1, cert2):
        assert [c.method for c in (cert.d1, cert.d2, cert.d3)] == ["exact"] * 3


def test_certificate_fails_when_global_cap_too_low():
    p = make_sigmoid_problem()
    k = compute_constants(p)
    tt = ThresholdTriple.from_abc(F(1, 120), F(2), F(100), k.gamma)
    cert = certify(p, tt, k)
    # m*c = 100/3 < sup f = 40: the global cap is violated
    assert not cert.d3.holds and not cert.verdict
    assert cert.d1.holds and cert.d2.holds and cert.ordering_ok


# f rises from 0 at u = 1 to 20 at u = 50 and falls back to 0 at u = 60; its
# maximum on [0, 55] sits inside the box, not on the u = 55 edge.
PEAK_DOC = {
    "kind": "piecewise",
    "pieces": [
        {"until": 1, "form": "constant", "params": [0]},
        {"until": 50, "form": "linear", "params": ["20/49", "-20/49"]},
        {"until": 60, "form": "linear", "params": [-2, 120]},
        {"until": None, "form": "constant", "params": [0]},
    ],
}


@pytest.mark.parametrize("hint", [False, True])
def test_interior_peak_fails_global_cap_with_or_without_monotone_key(hint):
    doc = {**PEAK_DOC, "monotone_in_u": True} if hint else PEAK_DOC
    p = make_sigmoid_problem().with_params(f=parse_function_spec(doc, u_max=110.0))
    k = compute_constants(p)
    rep = check_D3(p, k.m, F(55))
    assert not rep.holds
    assert rep.margin == pytest.approx(-5.0 / 3.0, abs=1e-12)
    assert rep.worst_point[1] == 50.0
    assert rep.method == "exact"


def test_polynomial_interior_maximum_is_enclosed():
    # 1 + 3u - u^2 + u^3/10 peaks inside [0, 5], at u = (10 - sqrt(10))/3
    bump = PolynomialU(coeffs=(F(1), F(3), F(-1), F(1, 10)))
    p = Problem(T=F(1), eta=F(1, 3), alpha=F(3), beta=F(1, 2), f=bump)
    rep = check_D1(p, F(1, 3), F(5))
    fmax = rep.bound - rep.margin
    assert 3.826835382234695 - 1e-14 <= fmax <= 3.826835382234695 + 1e-12
    assert rep.method == "enclosure"
    assert rep.worst_point[1] == pytest.approx((10 - np.sqrt(10)) / 3, abs=1e-6)


def test_superlinear_polynomial_conditions_are_exact():
    # u^3 vanishes to third order at the box edge u = 0, where f is smallest
    p = Problem(T=F(1), eta=F(1, 3), alpha=F(3), beta=F(1, 2), f=PolynomialU(coeffs=(F(0), F(0), F(0), F(1))))
    d1, d3 = check_D1(p, F(1, 3), F(1, 2)), check_D3(p, F(1, 3), F(1, 2))
    assert d1.holds and d1.margin == pytest.approx(1 / 6 - 1 / 8, abs=1e-15) and d1.method == "exact"
    assert d3.holds and d3.worst_point == (0.0, 0.5)
    d2 = check_D2(p, F(1, 2), F(1), F(1, 2))
    assert d2.margin == pytest.approx(1 - 2, abs=1e-15) and d2.worst_point == (1 / 3, 1.0)


def test_search_finds_certifiable_thresholds():
    p = make_sigmoid_problem()
    k = compute_constants(p)
    tt = search_thresholds(p, k)
    assert tt is not None
    assert certify(p, tt, k).verdict  # any returned triple re-validates


def test_search_exp_problem():
    p = make_exp_piecewise_problem()
    k = compute_constants(p)
    tt = search_thresholds(p, k)
    assert tt is not None
    assert certify(p, tt, k).verdict


def test_search_returns_none_for_zero_nonlinearity():
    p = make_sigmoid_problem().with_params(f=ConstantF(value=F(0)))
    k = compute_constants(p)
    assert search_thresholds(p, k) is None


@dataclass(frozen=True)
class _Fails(FunctionSpec):
    def _value(self, t, u):
        raise RuntimeError("no value here")

    def range(self, t_lo, t_hi, u_lo, u_hi):
        return self._attained([(t_lo, u_lo), (t_hi, u_hi)])


def test_evaluation_failure_raises_certification_error():
    p = make_sigmoid_problem().with_params(f=_Fails())
    with pytest.raises(CertificationError, match=r"f evaluation failed on \[0.0, 1.0\] x \[0.0, 1.0\]: no value here"):
        check_D1(p, F(1, 3), F(1))
