import json
import math
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

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
from tribvp.certify import SEARCH_HI, SEARCH_LO, SEARCH_MAX_LEVELS, SEARCH_PER_AXIS
from tribvp.cli import main
from tribvp.config import parse_run_config
from tribvp.functions import (
    ConstantF,
    FunctionSpec,
    Piece,
    PiecewiseLinearTable,
    PiecewiseU,
    PolynomialU,
    RationalSigmoid,
    parse_function_spec,
)

from conftest import make_exp_piecewise_problem, make_sigmoid_problem

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_ordering_examples():
    assert check_ordering(ThresholdTriple(F(1, 120), F(2), F(124)), F(1, 4))
    assert check_ordering(ThresholdTriple(F(1, 4), F(4), F(544)), F(1, 4))
    assert not check_ordering(ThresholdTriple(F(2), F(2), F(100)), F(1, 4))


def test_ordering_boundary_c_equal_d():
    # b/gamma <= c is non-strict: c exactly b/gamma passes
    assert check_ordering(ThresholdTriple(F(1), F(2), F(8)), F(1, 4))
    assert not check_ordering(ThresholdTriple(F(1), F(2), F(79, 10)), F(1, 4))


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
    tt = ThresholdTriple(F(1, 120), F(2), F(100)).with_gamma(k.gamma)
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

    def _slope(self, t, u):
        raise RuntimeError("no slope here")

    def range(self, t_lo, t_hi, u_lo, u_hi):
        return self._attained([(t_lo, u_lo), (t_hi, u_hi)])


def test_evaluation_failure_raises_certification_error():
    p = make_sigmoid_problem().with_params(f=_Fails())
    with pytest.raises(CertificationError, match=r"f evaluation failed on \[0.0, 1.0\] x \[0.0, 1.0\]: no value here"):
        check_D1(p, F(1, 3), F(1))


def test_search_failure_raises_certification_error():
    p = make_sigmoid_problem().with_params(f=_Fails())
    with pytest.raises(CertificationError, match=r"f evaluation failed on \[0.0, 1.0\] x \[0.0, 10000.0 \(13 boxes\)\]: no value here"):
        search_thresholds(p, compute_constants(p))


def test_f_failing_inside_the_search_exits_5(tmp_path, monkeypatch, capsys):
    # the scan bounds each level's boxes in one array call; a failure there voids the certificate
    value = RationalSigmoid._value

    def fails_on_boxes(self, t, u):
        if isinstance(u, np.ndarray):
            raise RuntimeError("no value on boxes")
        return value(self, t, u)

    monkeypatch.setattr(RationalSigmoid, "_value", fails_on_boxes)
    doc = json.loads((CONFIG_DIR / "sigmoid.json").read_text())
    del doc["thresholds"]
    config = tmp_path / "searched.json"
    config.write_text(json.dumps(doc))
    assert main(["certify", "--config", str(config), "--out", str(tmp_path / "out"), "--no-timing"]) == 5
    assert "f evaluation failed on [0.0, 1.0] x [0.0, 10000.0 (13 boxes)]: no value on boxes" in capsys.readouterr().err


# u on [0, 1], then (1e308 u)/(1.8079e298 u + 1e308): about 2 at u = 2 and 3.56e9 at u = 1e10 exactly,
# but in floats the numerator overflows, to inf at u = 2 and to inf/inf = NaN at u = 1e10
OVERFLOWING_F = {"kind": "piecewise", "pieces": [
    {"until": 1, "form": "linear", "params": [0.99999999981921, 0]},
    {"until": None, "form": "rational-linear", "params": [1e308, 0.0, 1.8079e298, 1e308]},
]}


def test_a_non_finite_evaluation_proves_no_bound(tmp_path, capsys):
    f = PiecewiseU(pieces=tuple(Piece(d["until"], d["form"], tuple(d["params"])) for d in OVERFLOWING_F["pieces"]))
    p = make_sigmoid_problem().with_params(f=f)
    k = compute_constants(p)
    d2 = check_D2(p, k.delta, 2, k.gamma)  # f(2) = inf in floats, about 2 < b/delta = 22.5 exactly
    assert (d2.holds, d2.margin) == (False, -math.inf)
    d3 = check_D3(p, k.m, 1e10)  # f(0, 1e10) = NaN in floats, 3.56e9 > m*c = 3.33e9 exactly
    assert (d3.holds, d3.margin) == (False, -math.inf)

    # through the CLI, the construction check finds the NaN on [0, T] x [0, 2c] and calls f not finite
    doc = json.loads((CONFIG_DIR / "sigmoid.json").read_text())
    doc["problem"]["f"], doc["thresholds"] = OVERFLOWING_F, {"a": 1, "b": 2, "c": 1e10}
    config = tmp_path / "overflowing.json"
    config.write_text(json.dumps(doc))
    assert main(["certify", "--config", str(config), "--out", str(tmp_path / "out"), "--no-timing"]) == 2
    assert "config error: nonlinearity is not finite on [0, 1.0] x [0, 20000000000.0]" in capsys.readouterr().err


# --- the threshold search against a one-point-at-a-time scan ---------------


def _pointwise_search(p, k):
    """search_thresholds with every scanned point checked by its own check_D1/D2/D3 call:
    the scan as it was before each level became one array call, kept as the oracle."""

    def scan(evaluate):
        lo_log, hi_log = np.log10(SEARCH_LO), np.log10(SEARCH_HI)
        for _ in range(SEARCH_MAX_LEVELS + 1):
            xs = np.logspace(lo_log, hi_log, SEARCH_PER_AXIS)
            reports = [evaluate(float(x)) for x in xs]
            feasible = [float(x) for x, rep in zip(xs, reports) if rep.holds]
            if feasible:
                return feasible
            rel = [rep.margin / max(abs(rep.bound), 1e-300) for rep in reports]
            best = int(np.argmax(rel))
            lo_log = np.log10(xs[max(best - 1, 0)])
            hi_log = np.log10(xs[min(best + 1, len(xs) - 1)])
            if hi_log - lo_log < 1e-15:
                break
        return []

    gamma = float(k.gamma)
    feasible_a = scan(lambda a: check_D1(p, k.m, a))
    if not feasible_a:
        return None
    feasible_b = scan(lambda b: check_D2(p, k.delta, b, gamma))
    if not feasible_b:
        return None
    feasible_c = scan(lambda c: check_D3(p, k.m, c))
    if not feasible_c:
        return None
    for a in feasible_a:
        for b in feasible_b:
            if b <= a:
                continue
            for c in feasible_c[::-1]:
                if c < b / gamma:
                    continue
                tt = ThresholdTriple(a, b, c).with_gamma(gamma)
                if check_ordering(tt, k.gamma):
                    return tt
    return None


def _generated(eta, alpha, beta, f):
    return Problem(T=F(1), eta=F(eta), alpha=F(alpha), beta=F(beta), f=parse_function_spec(f))


def _exp_f(rate, pieces):
    forms = ("linear", "linear", "constant", "linear", "rational-linear")
    return {
        "kind": "separable-exponential-piecewise",
        "params": [rate],
        "pieces": [{"until": until, "form": form, "params": params} for (until, params), form in zip(pieces, forms)],
    }


SEARCHED = {
    # hit on the first level of every axis
    "sigmoid-first": _generated("1/5", 10, "2/5", {"kind": "autonomous-rational-sigmoid", "params": [35]}),
    "exp-first": _generated("1/4", 8, "39/80", _exp_f("1/2", [
        ("1", ["2/25", 0]), ("4", ["2173/75", "-2167/75"]), ("544", [87]), ("546", ["87/544", 0]),
        (None, [117, 7371, 1, 270])])),
    # the tail floor D2 holds only after zooming (a sigmoid's D2 window holds b = 1, a first-level point)
    "exp-zoom": _generated("2/5", "5/4", "27/35", _exp_f("1/2", [
        ("3", ["11/150", 0]), ("12", ["23903/900", "-23837/300"]), ("1632", ["957/4"]), ("1638", ["319/2176", 0]),
        (None, ["1287/4", "243243/4", 1, 810])])),
    "exp-zoom-fixture": make_exp_piecewise_problem(),
    # nothing holds: every level of D2 is scanned
    "sigmoid-nothing": _generated("1/5", 45, "1/85", {"kind": "autonomous-rational-sigmoid", "params": [91]}),
    "exp-nothing": _generated("1/2", 4, "1/40", _exp_f(1, [
        ("5/4", ["2/125", 0]), ("5", ["2173/375", "-2167/300"]), ("680", ["87/4"]), ("1365/2", ["87/2720", 0]),
        (None, ["117/4", "36855/16", 1, "675/2"])])),
    "polynomial": make_sigmoid_problem().with_params(f=PolynomialU(coeffs=(F(1, 10), F(0), F(3), F(1, 10)))),
    "table": make_sigmoid_problem().with_params(
        f=PiecewiseLinearTable(table=((F(0), F(0)), (F(1, 2), F(1, 10)), (F(2), F(30)), (F(50), F(31)), (F(60), F(400))))
    ),
}


@pytest.mark.parametrize("name", ["sigmoid.json", "exp_piecewise.json", *SEARCHED])
def test_search_keeps_the_pointwise_triples(name):
    if name.endswith(".json"):
        p = parse_run_config(json.loads((CONFIG_DIR / name).read_text()), "certify", "out").problem
    else:
        p = SEARCHED[name]
    k = compute_constants(p)
    tt = search_thresholds(p, k)
    assert tt == _pointwise_search(p, k)
    if name.endswith("-nothing"):
        assert tt is None
    elif not name.startswith(("polynomial", "table")):
        assert tt is not None
