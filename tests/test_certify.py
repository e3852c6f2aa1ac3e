import importlib
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
    p = make_sigmoid_problem().with_params(f=PolynomialU(coeffs=(F(1),)))
    rep = check_D1(p, F(1, 3), F(3))  # m*a = 1 exactly
    assert rep.margin == 0.0 and not rep.holds
    # the global cap is non-strict: f == m*c passes with margin 0
    rep3 = check_D3(p, F(1, 3), F(3))
    assert rep3.margin == 0.0 and rep3.holds


def test_zero_nonlinearity_cannot_satisfy_tail_floor():
    p = make_sigmoid_problem().with_params(f=PolynomialU(coeffs=(F(0),)))
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
    p = make_sigmoid_problem().with_params(f=PolynomialU(coeffs=(F(0),)))
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
    # nothing holds on D2: the oracle scans every level of it, the search stops once f refutes the bracket
    "sigmoid-nothing": _generated("1/5", 45, "1/85", {"kind": "autonomous-rational-sigmoid", "params": [91]}),
    "exp-nothing": _generated("1/2", 4, "1/40", _exp_f(1, [
        ("5/4", ["2/125", 0]), ("5", ["2173/375", "-2167/300"]), ("680", ["87/4"]), ("1365/2", ["87/2720", 0]),
        (None, ["117/4", "36855/16", 1, "675/2"])])),
    # nothing holds on D1 (gen226 and gen211 of bench/problems.py's generate_batch(1, 320))
    "sigmoid-a-nothing": _generated("9/20", "40/27", "153/140", {"kind": "autonomous-rational-sigmoid", "params": [833]}),
    "exp-a-nothing": _generated("3/10", "170/9", "51/620", _exp_f(1, [
        ("3", ["3/50", 0]), ("12", ["2173/100", "-6501/100"]), ("1632", ["783/4"]), ("1638", ["261/2176", 0]),
        (None, ["1053/4", "199017/4", 1, 810])])),
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


# --- the early stop: a bracket that one f value refutes ends its axis ---------

certify_module = importlib.import_module("tribvp.certify")  # tribvp.certify is the function
SCAN = certify_module._feasible_axis_points


def _full_scan(evaluate, refute):
    """_feasible_axis_points with a refuter that never fires: every level is scanned."""
    return SCAN(evaluate, lambda lo, hi: False)


def _count_boxes(monkeypatch) -> list:
    """t_lo of every _box_range call from now on: one call per scanned level, t_lo = eta on D2."""
    calls, box_range = [], certify_module._box_range
    monkeypatch.setattr(certify_module, "_box_range", lambda p, t_lo, *box: calls.append(t_lo) or box_range(p, t_lo, *box))
    return calls


@pytest.mark.parametrize(
    "name, axis", [("sigmoid-nothing", "D2"), ("exp-nothing", "D2"), ("sigmoid-a-nothing", "D1"), ("exp-a-nothing", "D1")]
)
def test_an_exhausted_axis_stops_once_its_bracket_is_refuted(monkeypatch, name, axis):
    p = SEARCHED[name]
    k = compute_constants(p)
    calls = _count_boxes(monkeypatch)
    levels = (lambda: calls.count(p.floats[1])) if axis == "D2" else (lambda: len(calls))  # D1 is searched first
    assert search_thresholds(p, k) is None
    refuted = levels()
    calls.clear()
    monkeypatch.setattr(certify_module, "_feasible_axis_points", _full_scan)
    assert search_thresholds(p, k) is None
    assert levels() == SEARCH_MAX_LEVELS + 1 and refuted <= 4


@pytest.fixture(scope="module")
def stripped_batch():
    """generate_batch(1, 320) without thresholds, each problem searched with refutation and
    without: rows (carried thresholds, (triple, _box_range calls) per run), and each refuted
    bracket with the evaluate of its axis."""
    rows, refuted = [], []

    def recording(evaluate, refute):
        def spy(lo, hi):
            if refute(lo, hi):
                refuted.append((evaluate, lo, hi))
                return True
            return False

        return SCAN(evaluate, spy)

    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(CONFIG_DIR.parent / "bench"))
        from problems import generate_batch

        calls = _count_boxes(mp)
        for g in generate_batch(1, 320):
            doc = {key: value for key, value in g.doc.items() if key != "thresholds"}
            p = parse_run_config(doc, "certify", "out").problem
            k = compute_constants(p)
            runs = []
            for scan in (recording, _full_scan):
                mp.setattr(certify_module, "_feasible_axis_points", scan)
                calls.clear()
                runs.append((search_thresholds(p, k), len(calls)))
            rows.append(("thresholds" in g.doc, runs))
    return rows, refuted


def test_refutation_keeps_every_searched_triple_of_a_generated_batch(stripped_batch):
    rows, refuted = stripped_batch
    assert [on[0] for _, (on, full) in rows] == [full[0] for _, (on, full) in rows]
    # 229 problems find no triple; a refuted bracket ends the search of 212 of them
    assert (sum(on[0] is None for _, (on, _) in rows), len(refuted)) == (229, 212)


def test_no_point_of_a_refuted_bracket_holds(stripped_batch):
    s = certify_module._REFUTE_SLACK
    for evaluate, lo, hi in stripped_batch[1]:
        xs = np.logspace(np.log10(lo * (1 - s)), np.log10(hi * (1 + s)), 1001)
        assert not evaluate(xs)[0].any(), (lo, hi)


def test_refutation_halves_the_range_calls_of_the_searched_problems(stripped_batch):
    searched = [runs for carried, runs in stripped_batch[0] if not carried]
    on, full = (sum(run[i][1] for run in searched) for i in (0, 1))
    assert (len(searched), full) == (128, 995)
    assert on <= full // 2


@pytest.mark.parametrize("scalar", [RuntimeError("no scalar value"), math.inf, math.nan])
def test_a_witness_that_raises_or_is_not_finite_refutes_nothing(monkeypatch, scalar):
    # the witness is bounded by a scalar range call, the levels by array calls
    p = SEARCHED["sigmoid-nothing"]
    k = compute_constants(p)
    T, eta, _, _ = p.floats
    m, delta, gamma = float(k.m), float(k.delta), float(k.gamma)

    def refuted():  # f(1) = 45.5, above the caps m*x <= 0.14 and below the floors x/delta >= 96
        caps = [certify_module._cap_refuted(p, T, m, 1.0, 1.1, strict) for strict in (True, False)]
        return [*caps, certify_module._floor_refuted(p, eta, T, delta, gamma, 1.0 / 1.1, 1.0)]

    assert refuted() == [True] * 3
    expected = _pointwise_search(p, k)  # before the patch: the oracle's scalar calls need f
    value = RationalSigmoid._value

    def array_only(self, t, u):
        if isinstance(u, np.ndarray):
            return value(self, t, u)
        if isinstance(scalar, Exception):
            raise scalar
        return scalar

    monkeypatch.setattr(RationalSigmoid, "_value", array_only)
    assert refuted() == [False] * 3
    calls = _count_boxes(monkeypatch)
    assert search_thresholds(p, k) == expected
    assert calls.count(eta) == SEARCH_MAX_LEVELS + 1  # D2 scanned to its last level


def test_an_overflowing_witness_refutes_nothing():
    f = PiecewiseU(pieces=tuple(Piece(d["until"], d["form"], tuple(d["params"])) for d in OVERFLOWING_F["pieces"]))
    p = make_sigmoid_problem().with_params(f=f)
    k = compute_constants(p)
    T, eta, _, _ = p.floats
    m, delta, gamma = float(k.m), float(k.delta), float(k.gamma)
    # f(2.5) is about 2.5 exactly, below the floor 2/delta = 22.5, but inf in floats
    assert not certify_module._floor_refuted(p, eta, T, delta, gamma, 2.0, 2.5)
    # f(1e10) is 3.56e9 exactly, above the cap m*1.01e10 = 3.37e9, but NaN in floats
    assert not certify_module._cap_refuted(p, T, m, 1e10, 1.01e10, strict=False)
    assert search_thresholds(p, k) == _pointwise_search(p, k)


def test_the_floor_refuter_needs_one_u_in_every_box_of_its_bracket():
    p = make_sigmoid_problem().with_params(f=PolynomialU(coeffs=(F(0),)))
    T, eta, _, _ = p.floats
    # f = 0 is below every floor b/delta, but the boxes [1, 4] and [5, 20] of [1, 5] share no u
    assert certify_module._floor_refuted(p, eta, T, 4 / 45, 0.25, 1.0, 3.9)
    assert not certify_module._floor_refuted(p, eta, T, 4 / 45, 0.25, 1.0, 5.0)


def test_a_bracket_that_holds_a_feasible_point_is_not_refuted():
    # f = u^2: D1 holds for a < m (f(a) < m*a) and D2 for b >= 1/delta (f(b) >= b/delta)
    p = make_sigmoid_problem().with_params(f=PolynomialU(coeffs=(F(0), F(0), F(1))))
    T, eta, _, _ = p.floats
    assert check_D1(p, 1, 0.5).holds and check_D2(p, 1, 1.1, F(1, 2)).holds
    assert not certify_module._cap_refuted(p, T, 1.0, 0.5, 2.0, strict=True)  # f(2) = 4 >= 2 proves nothing
    assert certify_module._cap_refuted(p, T, 1.0, 2.0, 3.0, strict=True)
    assert not certify_module._floor_refuted(p, eta, T, 1.0, 0.5, 0.8, 1.2)  # f(0.8) = 0.64 < 0.8 proves nothing
    assert certify_module._floor_refuted(p, eta, T, 1.0, 0.5, 0.5, 0.7)
    # f = 1 meets the cap m*a = 1 at a = 4 exactly; the next float above 4, inside the widened bracket, holds
    p = p.with_params(f=PolynomialU(coeffs=(F(1),)))
    assert certify_module._cap(p, T, 0.25, np.array([math.nextafter(4.0, 5.0)]), strict=True)[0].all()
    assert not certify_module._cap_refuted(p, T, 0.25, 4.0, 4.0, strict=True)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
def test_d1_met_with_equality_in_exact_arithmetic_is_refused(tmp_path):
    # f(a) = m*a exactly: 10610/309 * a^2/(a^2 + 1) at a = 1/103 is 1/309 = m/103 with m = 1/3, and
    # D1 is strict, so the verdict must be false; round-to-nearest floats read a margin of about 1e-18
    doc = json.loads((CONFIG_DIR / "sigmoid.json").read_text())
    doc["problem"]["f"]["params"] = ["10610/309"]
    doc["thresholds"] = {"a": "1/103", "b": 2, "c": 124}
    config = tmp_path / "d1_equality.json"
    config.write_text(json.dumps(doc))
    assert main(["certify", "--config", str(config), "--out", str(tmp_path / "out"), "--no-timing"]) == 4
    assert json.loads((tmp_path / "out" / "report.json").read_text())["certificate"]["verdict"] is False
