"""Concavity ODE laboratory.

The blow-up certificates reduce to a scalar fact: if

    y'' <= -kappa * A * y^(1 + 1/kappa),   y(t0) = y0 > 0,  y'(t0) = y1 <= 0,

with  y0 >= (B (T - t0))^(-kappa)  and  T - t0 > pi^2 (2 kappa + 1) B / (8 kappa^2 A),

then y vanishes in finite time, no later than

    t_bound = t0 + arcsin(z0) / sqrt(III),

where I = 2 kappa^2 A / (2 kappa + 1), II = y1^2 + I y0^r with r = 2 + 1/kappa,
III = I y0^(1/kappa) and z0 = sqrt(I y0^r / II); the admissibility
conditions force t_bound < T. The equality ODE, whose vanishing time
dominates every solution of the inequality, has the first integral
y'^2 + I y^r = II, and y falls monotonically to 0, so its vanishing time is
exact (DLMF 8.17):

    t_vanish = t0 + (II/I)^(1/r) / (r sqrt(II)) * B(z0^2; 1/r, 1/2),

with B the incomplete beta function. This module evaluates both closed
forms and generates random admissible problems, so the chain
t_vanish <= t_bound < T can be machine-checked in bulk; nothing here
integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoVanishBeforeT

_REL_SLACK = 1e-12
_SLACK = 0.1    # random_admissible_problems: margin over both admissibility floors
_CF_TERMS = 100  # _beta_cf: at most this many pairs of terms (it needs < 20)


@dataclass(frozen=True)
class ConcavityProblem:
    """One admissible instance of the scalar concavity inequality."""

    kappa: float
    A: float
    B: float
    T: float
    y0: float
    y1: float
    t0: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.kappa, self.A, self.B, self.T,
                                       self.y0, self.y1, self.t0))):
            raise ValueError("kappa, A, B, T, y0, y1 and t0 must be finite")
        if self.kappa <= 0 or self.A <= 0 or self.B <= 0:
            raise ValueError("kappa, A and B must be positive")
        if self.y0 <= 0:
            raise ValueError("y0 must be positive")
        if self.y1 > 0:
            raise ValueError("y1 must be nonpositive")
        if self.T <= self.t0:
            raise ValueError("T must exceed t0")
        try:
            II = self.const_II
        except OverflowError:
            II = math.inf
        if not math.isfinite(II):
            raise ValueError("y1^2 + I y0^(2 + 1/kappa) overflows")
        if II <= 0:  # both y1^2 and I y0^(2 + 1/kappa) underflowed
            raise ValueError("y1^2 + I y0^(2 + 1/kappa) underflows to 0")
        if self.const_I == 0.0:  # else the window below divides by 0
            raise ValueError(f"kappa = {self.kappa}: I underflows to 0")
        floor = (self.B * (self.T - self.t0)) ** (-self.kappa)
        if self.y0 < floor * (1.0 - _REL_SLACK):
            raise ValueError(
                f"y0 = {self.y0} below admissible floor {floor}")
        gap = math.pi ** 2 * (2.0 * self.kappa + 1.0) * self.B / (
            8.0 * self.kappa ** 2 * self.A)
        if self.T - self.t0 <= gap * (1.0 - _REL_SLACK):
            raise ValueError(
                f"T - t0 = {self.T - self.t0} not above the window {gap}")

    @property
    def const_I(self) -> float:
        return 2.0 * self.kappa ** 2 * self.A / (2.0 * self.kappa + 1.0)

    @property
    def const_II(self) -> float:
        return self.y1 ** 2 + self.const_I * self.y0 ** (2.0 + 1.0 / self.kappa)

    @property
    def const_III(self) -> float:
        return self.const_I * self.y0 ** (1.0 / self.kappa)

    @property
    def z0(self) -> float:
        z = math.sqrt(self.const_I * self.y0 ** (2.0 + 1.0 / self.kappa)
                      / self.const_II)
        return min(z, 1.0)


def tstar_bound(prob: ConcavityProblem) -> float:
    """Closed-form upper bound on the vanishing time of the equality ODE."""
    return prob.t0 + math.asin(prob.z0) / math.sqrt(prob.const_III)


def solve_concavity(prob: ConcavityProblem,
                    t_max: float | None = None) -> float:
    """Vanishing time of y'' = -kappa A y^(1+1/kappa) from (y0, y1), in
    closed form.

    The equality dynamics dominate every solution of the inequality, so this
    is the latest vanishing time compatible with the data. Raises
    NoVanishBeforeT if it falls after t_max (default: the certified horizon
    T). B(z0^2; a, 1/2) is the continued fraction DLMF 8.17.22 below the
    switch point z0^2 = (a + 1)/(a + 5/2), and its symmetry above.
    """
    r = 2.0 + 1.0 / prob.kappa
    a = 1.0 / r
    II = prob.const_II
    t_v = prob.t0 + ((II / prob.const_I) ** a / (r * math.sqrt(II))
                     * _beta_half(prob.z0 ** 2, a))
    end = prob.T if t_max is None else t_max
    if not t_v <= end:
        raise NoVanishBeforeT(f"y vanishes at t = {t_v!r}, after t = {end}")
    return t_v


def _beta_half(x: float, a: float) -> float:
    """B(x; a, 1/2) for 0 <= x <= 1, 0 < a <= 1/2: the continued fraction
    below (a + 1)/(a + 5/2), else B(a, 1/2) - B(1 - x; 1/2, a)."""
    if x < (a + 1.0) / (a + 2.5):
        return x ** a * math.sqrt(1.0 - x) / a * _beta_cf(x, a, 0.5)
    y = 1.0 - x
    return (math.gamma(a) * math.sqrt(math.pi) / math.gamma(a + 0.5)
            - 2.0 * math.sqrt(y) * x ** a * _beta_cf(y, 0.5, a))


def _beta_cf(x: float, a: float, b: float) -> float:
    """The continued fraction cf of B(x; a, b) = x^a (1-x)^b cf / a (DLMF
    8.17.22) by modified Lentz, for x < (a + 1)/(a + b + 2) and a, b in
    (0, 1/2], where no partial denominator nears 0 (so no Lentz guard);
    ArithmeticError if unconverged after _CF_TERMS pairs of terms."""
    c, h = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    d = h
    for m in range(1, _CF_TERMS + 1):
        k = a + 2 * m
        even = m * (b - m) * x / ((k - 1) * k)
        d = 1.0 / (1.0 + even * d)
        c = 1.0 + even / c
        h *= c * d
        odd = -(a + m) * (a + b + m) * x / (k * (k + 1))
        d = 1.0 / (1.0 + odd * d)
        c = 1.0 + odd / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 2.0 ** -52:
            return h
    raise ArithmeticError(f"B(x; {a}, {b}) at x = {x}: the continued "
                          f"fraction has not converged in {_CF_TERMS} terms")


def random_admissible_problems(count: int,
                               seed: int = 0) -> list[ConcavityProblem]:
    """Draw admissible problems spanning exponents, scales and start times.

    T sits (1 + _SLACK) above the admissibility window and B is inflated so the
    y0 floor holds with the same slack; every returned problem passes
    construction-time validation. The generator makes one (count, 6) draw:
    the stream of six `uniform(lo, hi)` calls per problem, as numpy's
    `uniform(lo, hi)` is lo + (hi - lo) * the next double.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k, a, y, s, t0, b in rng.random((count, 6)).tolist():
        kappa = 0.1 + (2.0 - 0.1) * k
        A = 0.5 + (20.0 - 0.5) * a
        y0 = 0.5 + (3.0 - 0.5) * y
        y1 = -2.0 * s  # uniform(0, 2), negated; t0 is uniform(0, 1)
        lead = (1.0 + _SLACK) * math.pi ** 2 * (2.0 * kappa + 1.0) / (
            8.0 * kappa ** 2 * A)
        b_floor = math.sqrt(y0 ** (-1.0 / kappa) / lead)
        B = b_floor * (1.0 + _SLACK) * (1.0 + b)
        T = t0 + lead * B
        out.append(ConcavityProblem(kappa=kappa, A=A, B=B, T=T,
                                    y0=y0, y1=y1, t0=t0))
    return out
