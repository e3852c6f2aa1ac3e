"""The certification constants gamma, m, delta derived from a problem's parameters.

All three are plain rational expressions in (T, eta, alpha, beta), so they are
computed exactly when the problem carries Fractions (on unreduced rationals,
with one reduction per result) and in double precision otherwise.

- gamma: the cone compression ratio; the guaranteed fraction of the sup norm
  that any solution of the linear problem retains on [eta, T].
- m: the growth-cap scale; bounding f by m*c keeps the solution operator's
  image inside the radius-c ball.
- delta: the growth-floor scale; f >= b/delta on the tail box pushes the
  minimum of the image above b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GammaDomainError
from .numeric import Number, reduced, render_number
from .problem import Problem, lambda_of


@dataclass(frozen=True)
class LWConstants:
    """Certification constants for one problem, with min-term bookkeeping."""

    lam: Number
    gamma: Number
    m: Number
    delta: Number
    gamma_argmin: int
    delta_argmin: int

    def to_dict(self) -> dict:
        def entry(value):
            doc = {"decimal": float(value)}
            if isinstance(value, Fraction):
                doc["fraction"] = render_number(value)
            return doc

        return {
            "lambda": entry(self.lam),
            "gamma": entry(self.gamma),
            "m": entry(self.m),
            "delta": entry(self.delta),
            "gamma_argmin": self.gamma_argmin,
            "delta_argmin": self.delta_argmin,
        }


def gamma_terms(p: Problem) -> list[Number]:
    """The three candidate compression ratios; the constant is their minimum."""
    return [reduced(term) for term in _gamma_terms(*p.operands)]


def _gamma_terms(T, eta, alpha, beta) -> list:
    ab1 = alpha * (beta + 1)
    third_den = 2 * T - ab1 * eta * eta
    if float(third_den) <= 0:
        raise GammaDomainError(reduced(third_den))
    return [
        eta / T,
        ab1 * eta * eta / (2 * T),
        ab1 * eta * (T - eta) / third_den,
    ]


def _m(T, eta, alpha, beta, lam):
    growth = T * T * (2 * T * (beta + 1) + beta * eta * (alpha * eta + 2) + alpha * beta * T * T)
    return 2 * lam / growth


def delta_terms(p: Problem) -> list[Number]:
    operands = p.operands
    return [reduced(term) for term in _delta_terms(*operands, lambda_of(*operands))]


def _delta_terms(T, eta, alpha, beta, lam) -> list:
    tail = (T - eta) * (T - eta)
    return [
        beta * eta * tail / lam,
        alpha * eta * eta * (1 + beta) * tail / (2 * lam),
    ]


def compute_constants(p: Problem) -> LWConstants:
    """Lambda, gamma, m and delta, with Lambda evaluated once and each constant reduced once."""
    operands = p.operands
    lam = lambda_of(*operands)
    g_terms = _gamma_terms(*operands)
    d_terms = _delta_terms(*operands, lam)
    gamma_argmin = min(range(len(g_terms)), key=g_terms.__getitem__)  # the first least term on a tie, by < alone
    delta_argmin = min(range(len(d_terms)), key=d_terms.__getitem__)
    return LWConstants(
        lam=reduced(lam),
        gamma=reduced(g_terms[gamma_argmin]),
        m=reduced(_m(*operands, lam)),
        delta=reduced(d_terms[delta_argmin]),
        gamma_argmin=gamma_argmin,
        delta_argmin=delta_argmin,
    )
