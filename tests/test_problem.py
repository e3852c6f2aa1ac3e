from dataclasses import dataclass
from fractions import Fraction as F
from numbers import Rational

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribvp import Problem, lambda_constant, validate_hypotheses
from tribvp.certify import ThresholdTriple
from tribvp.functions import _is_fraction
from tribvp.numeric import Unreduced, is_exact
from tribvp.functions import FunctionSpec, PiecewiseLinearTable, PolynomialU, RationalSigmoid

from conftest import make_exp_piecewise_problem, make_sigmoid_problem


def test_sigmoid_problem_hypotheses_pass():
    rep = validate_hypotheses(make_sigmoid_problem())
    assert rep.h2_alpha_ok and rep.h2_beta_ok and rep.h1_ok
    assert rep.ok and rep.messages == ()


def test_sigmoid_problem_bounds():
    p = make_sigmoid_problem()
    assert p.alpha_upper() == F(18)
    assert p.beta_upper() == F(1)


def test_exp_problem_hypotheses_pass():
    rep = validate_hypotheses(make_exp_piecewise_problem())
    assert rep.ok


def test_alpha_at_bound_fails_strictly():
    p = Problem(T=F(1), eta=F(1, 2), alpha=F(8), beta=F(1, 10), f=RationalSigmoid(scale=F(1)))
    rep = validate_hypotheses(p)
    assert not rep.h2_alpha_ok  # 2T/eta^2 = 8 exactly, and the bound is strict
    assert any("alpha" in m for m in rep.messages)


def test_beta_at_bound_fails():
    p = make_sigmoid_problem().with_params(beta=F(1))
    rep = validate_hypotheses(p)
    assert rep.h2_alpha_ok and not rep.h2_beta_ok


def test_float_mode_uses_tolerance():
    p = Problem(T=1.0, eta=1.0 / 3.0, alpha=18.0 * (1 - 1e-14), beta=0.5, f=PolynomialU(coeffs=(1.0,)))
    rep = validate_hypotheses(p)
    assert not rep.h2_alpha_ok  # within 1e-12 of the bound counts as violating


def test_zero_nonlinearity_fails_sampled_check():
    p = make_sigmoid_problem().with_params(f=PolynomialU(coeffs=(F(0),)))
    rep = validate_hypotheses(p)
    assert rep.h2_alpha_ok and rep.h2_beta_ok and not rep.h1_ok
    assert any("vanishes" in m for m in rep.messages)


def test_missing_nonlinearity_reported():
    p = make_sigmoid_problem().with_params(f=None)
    assert not validate_hypotheses(p).h1_ok


@dataclass(frozen=True)
class _Boom(FunctionSpec):
    def _value(self, t, u):
        if u > 5:
            raise RuntimeError("cannot evaluate here")
        return 1.0

    def _slope(self, t, u):
        return 0.0

    def range(self, t_lo, t_hi, u_lo, u_hi):
        return self._attained([(t_lo, u_lo), (t_hi, u_hi)])


def test_evaluation_failure_reported_with_location():
    p = make_sigmoid_problem().with_params(f=_Boom())
    rep = validate_hypotheses(p)
    assert not rep.h1_ok
    assert any("f evaluation failed on [0, 1.0] x [0, 10.0]: cannot evaluate here" in m for m in rep.messages)


@pytest.mark.parametrize("coeffs", [(0, 0, 1), (0, 0, 0, 1), (1, -4, 6, -4, 1)])
def test_polynomial_vanishing_at_a_point_passes_h1(coeffs):
    # u^2 and u^3 vanish at the box edge u = 0, (u - 1)^4 inside the box
    f = PolynomialU(coeffs=tuple(F(c) for c in coeffs))
    rep = validate_hypotheses(make_sigmoid_problem().with_params(f=f))
    assert rep.h1_ok and rep.messages == ()


def test_table_dip_fails_h1():
    # -1 at u = 0.115, between the nodes of any uniform sample of [0, 10] coarser than 1/200
    table = ((F(0), F(1)), (F(1, 10), F(1)), (F(23, 200), F(-1)), (F(13, 100), F(1)), (F(10), F(1)))
    rep = validate_hypotheses(make_sigmoid_problem().with_params(f=PiecewiseLinearTable(table=table)))
    assert not rep.h1_ok
    assert any("negative at (t, u) = (0.0, 0.115): -1.0" in m for m in rep.messages)


def test_validation_deterministic():
    p = make_sigmoid_problem()
    assert validate_hypotheses(p) == validate_hypotheses(p)


def test_lambda_exact_values():
    assert lambda_constant(make_sigmoid_problem()) == F(5, 6)
    assert lambda_constant(make_exp_piecewise_problem()) == F(1, 2)
    p0 = Problem(T=F(1), eta=F(1, 2), alpha=F(1), beta=F(0))
    assert lambda_constant(p0) == F(7, 4)  # beta = 0 collapses the second term


def test_lambda_linear_in_beta():
    base = make_sigmoid_problem()
    betas = [F(0), F(1, 4), F(1, 2)]
    values = [lambda_constant(base.with_params(beta=b)) for b in betas]
    slope01 = (values[1] - values[0]) / (betas[1] - betas[0])
    slope12 = (values[2] - values[1]) / (betas[2] - betas[1])
    assert slope01 == slope12  # exact collinearity
    expected_slope = -(base.alpha * base.eta**2 - 2 * base.eta + 2 * base.T)
    assert slope01 == expected_slope


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lambda_positive_on_admissible_region(data):
    T = data.draw(st.floats(0.2, 5.0), label="T")
    eta = data.draw(st.floats(0.05, 0.95), label="eta_frac") * T
    alpha = data.draw(st.floats(0.01, 0.99), label="alpha_frac") * (2 * T / eta**2)
    beta_bound = (2 * T - alpha * eta**2) / (alpha * eta**2 - 2 * eta + 2 * T)
    beta = data.draw(st.floats(0.0, 0.99), label="beta_frac") * beta_bound
    p = Problem(T=T, eta=eta, alpha=alpha, beta=beta)
    assert lambda_constant(p) > 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(T=F(-1), eta=F(1, 2), alpha=F(1), beta=F(1)),
        dict(T=F(1), eta=F(2), alpha=F(1), beta=F(1)),
        dict(T=F(1), eta=F(0), alpha=F(1), beta=F(1)),
        dict(T=F(1), eta=F(1, 2), alpha=F(0), beta=F(1)),
        dict(T=F(1), eta=F(1, 2), alpha=F(1), beta=F(-1)),
        dict(T=float("nan"), eta=F(1, 2), alpha=F(1), beta=F(1)),
    ],
)
def test_structural_violations_raise(kwargs):
    with pytest.raises(ValueError):
        Problem(**kwargs)


class _Half(F):
    """A Fraction subclass, judged by the ABC, not by its type."""


def test_exactness_is_judged_as_the_rational_abc_judges_it():
    # is_exact and _is_fraction judge Fraction, int, float and ndarray by their type alone
    values = [F(1, 3), _Half(1, 2), 3, True, np.int64(2), np.uint8(1), 0.5, np.float64(0.5), "1/3", None,
              Unreduced(1, 3), np.array([1.0]), np.array(2), np.array([F(1, 2)], dtype=object)]
    for v in values:
        assert is_exact(v) == isinstance(v, Rational), v
        assert _is_fraction(v) == isinstance(v, F), v
    assert is_exact(F(1, 3), 2, np.int32(4)) and not is_exact(F(1, 3), 0.5) and is_exact()


def test_float_views_are_converted_once():
    p = Problem(T=F(2), eta=F(1, 3), alpha=F(3, 2), beta=F(1, 2))
    assert p.floats == (2.0, 1 / 3, 1.5, 0.5) and p.floats is p.floats
    assert p.with_params(beta=0.25).floats == (2.0, 1 / 3, 1.5, 0.25)
    tt = ThresholdTriple(F(1, 4), 2, 8.0)
    assert tt.floats == (0.25, 2.0, 8.0, None) and tt.with_gamma(F(1, 2)).floats == (0.25, 2.0, 8.0, 4.0)
