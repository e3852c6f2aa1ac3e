"""Seeded inputs for the benchmark, and reference constants to check outputs.

`generate_batch(seed, size)` draws the `certify-batch` problems.  It works out
the admissibility region (H2) and the gamma domain itself, with exact
rationals, so every problem it hands to the program is admissible.  The program
only ever sees the config documents written from these problems.

`lw_constants` is the benchmark's own evaluation of the paper's closed forms
for Lambda, gamma, m and delta.  The output checks compare the program's
reports against it, so it must stay independent of `tribvp.constants`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

# The five branches of h(u) in configs/exp_piecewise.json:
# (until, form, params), as exact rationals.
EXP_PIECES = (
    (F(1), "linear", (F(2, 25), F(0))),
    (F(4), "linear", (F(2173, 75), F(-2167, 75))),
    (F(544), "constant", (F(87),)),
    (F(546), "linear", (F(87, 544), F(0))),
    (None, "rational-linear", (F(117), F(7371), F(1), F(270))),
)

# Share of generated problems written with float parameters (the rest are exact).
FLOAT_SHARE = 0.25
# Share of generated problems that carry thresholds; the rest go through the
# threshold search.  Slightly over half, so that the batch's median job falls
# inside the thresholded jobs' cluster of run times instead of on the gap
# between the two clusters, where it would jump with the seed.
THRESHOLD_SHARE = 0.6


def lw_constants(T, eta, alpha, beta) -> dict:
    """Lambda, gamma, m and delta from the closed forms; exact for Fractions."""
    ae2 = alpha * eta * eta
    lam = (2 * T - ae2) - beta * (ae2 - 2 * eta + 2 * T)
    ab1 = alpha * (beta + 1)
    gamma = min(
        eta / T,
        ab1 * eta * eta / (2 * T),
        ab1 * eta * (T - eta) / (2 * T - ab1 * eta * eta),
    )
    growth = T * T * (2 * T * (beta + 1) + beta * eta * (alpha * eta + 2) + alpha * beta * T * T)
    tail = (T - eta) * (T - eta)
    delta = min(beta * eta * tail / lam, ae2 * (1 + beta) * tail / (2 * lam))
    return {"lambda": lam, "gamma": gamma, "m": 2 * lam / growth, "delta": delta}


def alpha_upper(T, eta):
    """H2: 0 < alpha < 2T/eta^2."""
    return 2 * T / (eta * eta)


def beta_upper(T, eta, alpha):
    """H2: 0 < beta < (2T - alpha eta^2)/(alpha eta^2 - 2 eta + 2T)."""
    ae2 = alpha * eta * eta
    return (2 * T - ae2) / (ae2 - 2 * eta + 2 * T)


def gamma_beta_upper(T, eta, alpha):
    """Gamma domain: alpha (beta + 1) eta^2 < 2T, solved for beta."""
    return 2 * T / (alpha * eta * eta) - 1


def admissible(T, eta, alpha, beta) -> bool:
    """Strictly inside H2 and inside the gamma domain."""
    return (
        0 < eta < T
        and 0 < alpha < alpha_upper(T, eta)
        and 0 < beta < beta_upper(T, eta, alpha)
        and alpha * (beta + 1) * eta * eta < 2 * T
    )


@dataclass(frozen=True)
class Generated:
    """One generated problem: its config document and what the check expects."""

    name: str
    doc: dict
    exact: bool
    T: F
    eta: F
    alpha: F
    beta: F


def _num(x: F, exact: bool):
    return str(x) if exact else float(x)


def _sigmoid_f(rng: random.Random):
    scale = F(round(10 ** rng.uniform(1.0, 3.0)))
    return {"kind": "autonomous-rational-sigmoid", "params": [str(scale)], "monotone_in_u": True}, scale


def _exp_piecewise_f(rng: random.Random):
    """h scaled by s in value and r in u; continuity survives the exact scaling."""
    s = F(rng.randint(1, 16), 4)
    r = F(rng.randint(1, 16), 4)
    rate = rng.choice((F(1, 2), F(1), F(2)))
    pieces = []
    for until, form, params in EXP_PIECES:
        if form == "linear":
            params = (s * params[0] / r, s * params[1])
        elif form == "constant":
            params = (s * params[0],)
        else:
            a1, a0, b1, b0 = params
            params = (s * a1, s * a0 * r, b1, b0 * r)
        pieces.append(
            {
                "until": None if until is None else str(until * r),
                "form": form,
                "params": [str(x) for x in params],
            }
        )
    doc = {
        "kind": "separable-exponential-piecewise",
        "params": [str(rate)],
        "monotone_in_u": True,
        "pieces": pieces,
    }
    return doc, r


def _sigmoid_thresholds(scale, k):
    """Thresholds aimed at D1-D3 for K u^2/(u^2+1); they certify when K*delta >= 2."""
    m, delta, gamma = k["m"], k["delta"], k["gamma"]
    a = m / (2 * scale)
    b = max(scale * delta / 2, 2 * a)
    c = max(scale / m, b / gamma)
    return a, b, c


def _exp_thresholds(r, k):
    """The worked config's (1/4, 4, 544) stretched with the u axis."""
    a, b = r / 4, 4 * r
    return a, b, max(544 * r, b / k["gamma"])


def generate_batch(seed: int, size: int) -> list[Generated]:
    """`size` admissible problems; the first THRESHOLD_SHARE of them carry thresholds.

    Parameters are fractions k/20 of their admissible range, with k drawn in
    1..19, so every one lies strictly inside the bounds.  Families alternate
    between the rational sigmoid and the exp-piecewise form.
    """
    rng = random.Random(seed)
    T = F(1)
    out = []
    for i in range(size):
        eta = F(rng.randint(2, 18), 20) * T
        alpha = alpha_upper(T, eta) * F(rng.randint(1, 19), 20)
        beta_hi = min(beta_upper(T, eta, alpha), gamma_beta_upper(T, eta, alpha))
        beta = beta_hi * F(rng.randint(1, 19), 20)
        if not admissible(T, eta, alpha, beta):
            raise AssertionError(f"generated an inadmissible problem: {(T, eta, alpha, beta)}")
        exact = rng.random() >= FLOAT_SHARE
        if i % 2 == 0:
            f_doc, scale = _sigmoid_f(rng)
        else:
            f_doc, scale = _exp_piecewise_f(rng)
        doc = {
            "problem": {
                "T": _num(T, exact),
                "eta": _num(eta, exact),
                "alpha": _num(alpha, exact),
                "beta": _num(beta, exact),
                "f": f_doc,
            }
        }
        if i < round(THRESHOLD_SHARE * size):
            k = lw_constants(T, eta, alpha, beta)
            pick = _sigmoid_thresholds if i % 2 == 0 else _exp_thresholds
            a, b, c = pick(scale, k)
            doc["thresholds"] = {"a": _num(a, exact), "b": _num(b, exact), "c": _num(c, exact)}
        out.append(Generated(f"gen{i:03d}", doc, exact, T, eta, alpha, beta))
    return out
