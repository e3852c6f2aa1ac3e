import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribvp import GammaDomainError, Problem, compute_constants, lambda_constant, validate_hypotheses
from tribvp.constants import delta_terms, gamma_terms
from tribvp.numeric import Unreduced

from conftest import make_exp_piecewise_problem, make_sigmoid_problem


def test_sigmoid_problem_constants_exact():
    k = compute_constants(make_sigmoid_problem())
    assert k.lam == F(5, 6)
    assert k.gamma == F(1, 4)
    assert k.m == F(1, 3)
    assert k.delta == F(4, 45)
    assert isinstance(k.gamma, F) and isinstance(k.m, F) and isinstance(k.delta, F)


def test_sigmoid_problem_argmins():
    p = make_sigmoid_problem()
    k = compute_constants(p)
    assert gamma_terms(p) == [F(1, 3), F(1, 4), F(2, 3)]
    assert k.gamma_argmin == 1
    assert delta_terms(p) == [F(4, 45), F(2, 15)]
    assert k.delta_argmin == 0


def test_exp_problem_constants_exact():
    k = compute_constants(make_exp_piecewise_problem())
    assert k.lam == F(1, 2)
    assert k.gamma == F(1, 4)
    assert k.m == F(4, 25)
    assert k.delta == F(1, 8)
    assert k.delta_argmin == 1  # second term attains; the first is 1/4


def test_exp_problem_delta_terms():
    assert delta_terms(make_exp_piecewise_problem()) == [F(1, 4), F(1, 8)]


def test_m_with_zero_beta():
    p = Problem(T=F(1), eta=F(1, 2), alpha=F(1), beta=F(0))
    assert compute_constants(p).m == F(7, 4)


def test_gamma_equals_min_of_independent_terms():
    # eta close to T makes the third term tiny; the min must track it
    p = Problem(T=1.0, eta=0.999, alpha=0.1, beta=0.1)
    terms = gamma_terms(p)
    k = compute_constants(p)
    assert k.gamma == min(terms)
    assert k.gamma == terms[2] and k.gamma_argmin == 2


def test_delta_vanishes_with_beta():
    base = make_sigmoid_problem()
    deltas = []
    for b in (F(1, 2), F(1, 4), F(1, 8), F(1, 64), F(1, 1024)):
        k = compute_constants(base.with_params(beta=b))
        deltas.append(k.delta)
        assert k.delta_argmin == 0  # the beta-proportional term attains
    assert all(d1 > d2 for d1, d2 in zip(deltas, deltas[1:]))
    assert deltas[-1] < F(1, 1000)


def test_gamma_domain_error_outside_admissible_region():
    # beta far above its bound makes 2T - alpha*(1+beta)*eta^2 <= 0
    p = Problem(T=F(1), eta=F(9, 10), alpha=F(12, 5), beta=F(1, 2))
    with pytest.raises(GammaDomainError):
        compute_constants(p)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_constants_positive_on_admissible_region(data):
    T = data.draw(st.floats(0.2, 4.0), label="T")
    eta = data.draw(st.floats(0.1, 0.9), label="eta_frac") * T
    alpha = data.draw(st.floats(0.02, 0.95), label="alpha_frac") * (2 * T / eta**2)
    beta_bound = (2 * T - alpha * eta**2) / (alpha * eta**2 - 2 * eta + 2 * T)
    beta = data.draw(st.floats(0.01, 0.95), label="beta_frac") * beta_bound
    k = compute_constants(Problem(T=T, eta=eta, alpha=alpha, beta=beta))
    assert 0 < k.gamma < 1
    assert k.lam > 0 and k.m > 0 and k.delta > 0


def test_constants_report_carries_fractions():
    doc = compute_constants(make_sigmoid_problem()).to_dict()
    assert doc["gamma"] == {"decimal": 0.25, "fraction": "1/4"}
    assert doc["delta"]["fraction"] == "4/45"
    assert doc["lambda"]["fraction"] == "5/6"


def _reference(T, eta, alpha, beta) -> dict:
    """The closed forms evaluated directly on the numbers given (Fraction arithmetic for Fractions)."""
    ae2 = alpha * eta * eta
    lam = (2 * T - ae2) - beta * (ae2 - 2 * eta + 2 * T)
    bounds = {"lambda": lam, "alpha_upper": 2 * T / (eta * eta), "beta_upper": (2 * T - ae2) / (ae2 - 2 * eta + 2 * T)}
    ab1 = alpha * (beta + 1)
    third_den = 2 * T - ab1 * eta * eta
    if float(third_den) <= 0:
        return {**bounds, "third_den": third_den}
    growth = T * T * (2 * T * (beta + 1) + beta * eta * (alpha * eta + 2) + alpha * beta * T * T)
    tail = (T - eta) * (T - eta)
    return {
        **bounds,
        "gamma_terms": [eta / T, ab1 * eta * eta / (2 * T), ab1 * eta * (T - eta) / third_den],
        "m": 2 * lam / growth,
        "delta_terms": [beta * eta * tail / lam, alpha * eta * eta * (1 + beta) * tail / (2 * lam)],
    }


def _check_against_reference(p: Problem, ref: dict, same) -> None:
    assert same(lambda_constant(p), ref["lambda"])
    assert same(p.alpha_upper(), ref["alpha_upper"]) and same(p.beta_upper(), ref["beta_upper"])
    tol = 0 if p.exact else 1e-12
    hyp = validate_hypotheses(p)
    assert hyp.h2_alpha_ok == (p.alpha > tol and p.alpha < ref["alpha_upper"] - tol)
    assert hyp.h2_beta_ok == (p.beta > tol and p.beta < ref["beta_upper"] - tol)
    if "third_den" in ref:
        message = f"compression-ratio term undefined: 2T - alpha*(beta+1)*eta^2 = {ref['third_den']} <= 0"
        for constant in (gamma_terms, compute_constants):
            with pytest.raises(GammaDomainError) as err:
                constant(p)
            assert str(err.value) == message
        return
    assert all(map(same, gamma_terms(p), ref["gamma_terms"])) and len(gamma_terms(p)) == 3
    assert all(map(same, delta_terms(p), ref["delta_terms"])) and len(delta_terms(p)) == 2
    k = compute_constants(p)
    g, d = ref["gamma_terms"], ref["delta_terms"]
    assert same(k.lam, ref["lambda"]) and same(k.m, ref["m"])
    assert same(k.gamma, min(g)) and k.gamma_argmin == g.index(min(g))
    assert same(k.delta, min(d)) and k.delta_argmin == d.index(min(d))


def _exact_same(value, expected) -> bool:
    return type(value) is F and value == expected


def _bits_same(value, expected) -> bool:
    return type(value) is float and value.hex() == expected.hex()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_closed_forms_equal_fraction_arithmetic_and_float_bits(data):
    # (T, eta, alpha, beta) with eta, alpha and beta drawn as fractions of their admissible
    # ranges, or beta at or beyond the gamma domain's bound (where H2 fails too), so that
    # some draws check the GammaDomainError message instead
    frac = lambda lo, hi, label: F(data.draw(st.integers(lo, hi), label=label), 100)
    T = F(data.draw(st.integers(1, 400), label="T_num"), data.draw(st.integers(1, 60), label="T_den"))
    eta = frac(1, 99, "eta") * T
    alpha = frac(1, 99, "alpha") * 2 * T / (eta * eta)
    if data.draw(st.booleans(), label="outside_gamma_domain"):
        beta = frac(100, 300, "beta") * (2 * T - alpha * eta * eta) / (alpha * eta * eta)
    else:
        beta = frac(0, 99, "beta") * (2 * T - alpha * eta * eta) / (alpha * eta * eta - 2 * eta + 2 * T)
    exact = Problem(T=T, eta=eta, alpha=alpha, beta=beta)
    _check_against_reference(exact, _reference(T, eta, alpha, beta), _exact_same)
    floats = exact.floats
    _check_against_reference(Problem(*floats), _reference(*floats), _bits_same)


ORDER = (operator.lt, operator.gt, operator.ge)


def test_unreduced_arithmetic_matches_fraction():
    values = [F(-7, 3), F(0), F(5, 4), F(6, 8), F(-2, 6), F(9)]
    u = lambda x: Unreduced(x.numerator * 2, x.denominator * 2)  # deliberately unreduced
    exact = lambda r: F(r.n, r.d)
    for x in values:
        for y in values:
            assert exact(u(x) + u(y)) == x + y and exact(u(x) - u(y)) == x - y and exact(u(x) * u(y)) == x * y
            assert all(op(u(x), u(y)) == op(x, y) for op in ORDER)
            if y:
                assert (u(x) / u(y)).d > 0 and exact(u(x) / u(y)) == x / y
            else:
                with pytest.raises(ZeroDivisionError):
                    u(x) / u(y)
        for k in (3, -2):
            assert exact(u(x) + k) == exact(k + u(x)) == x + k and exact(u(x) - k) == x - k
            assert exact(u(x) * k) == exact(k * u(x)) == x * k
            assert all(op(u(x), k) == op(x, k) for op in ORDER)
        assert float(u(x)) == float(x)
