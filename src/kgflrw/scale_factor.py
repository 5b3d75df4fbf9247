"""FLRW scale factors and the structural conditions the blow-up machinery needs.

Two backgrounds are supported. With spatial dimension n, expansion rate H and
equation-of-state-like exponent sigma:

* power-law  a(t) = a0 * (1 + n(1+sigma)H t/2)^(2/(n(1+sigma))); its
             sigma = -1 limit is de Sitter, a(t) = a0 * exp(H t)
* tabulated  monotone cubic interpolation of (t, a, adot, addot) knots

The power-law family covers static (H=0: Minkowski, one (a, adot, addot)
at every t, which a run evaluates once), decelerating, accelerating
(de Sitter included) and contracting universes, including finite-time "Big
Rip" divergences for sigma < -1 with H > 0. The horizon T0 is the end of the
classical domain: +inf when (1+sigma)H >= 0, else the root of
1 + n(1+sigma)H t/2.

Two derived scalars gate the start time of a run: the expansion-rate threshold
|m| c (sqrt(eps(eps+4)) - eps) / (2n), and its reciprocal-per-dimension form
C_eps = 2 / (|m| c (sqrt(eps(eps+4)) - eps)), so the threshold equals
1/(n C_eps). `hypotheses.evaluate` admits a start time t0 when adot(t0)/a(t0)
is at or below the threshold; for m = 0 it is +inf and every t0 is admissible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NegativeTime, NoAdmissibleT0, TimeBeyondHorizon

_HORIZON_SLACK = 1e-12  # relative exclusion zone at a finite horizon
_CONSISTENCY_TOL = 0.25  # Tabulated: largest relative secant-vs-adot misfit
_MONOTONE_SAMPLES = 1024  # check_monotone_expansion: samples of a table


def _check_times(t: np.ndarray, horizon: float, inclusive_end: bool = False) -> None:
    if np.any(t < 0):
        raise NegativeTime(f"t = {np.min(t)} is before the initial slice t = 0")
    if math.isinf(horizon):
        return
    bad = t > horizon if inclusive_end else t >= horizon * (1.0 - _HORIZON_SLACK)
    if np.any(bad):
        raise TimeBeyondHorizon(f"t = {np.max(t)} reaches the horizon T0 = {horizon}")


def _check_a(a: float, name: str) -> None:
    """a > 0 with a normal (not underflowed) square: c^2 / a^2 enters every
    energy."""
    if not (a > 0 and a * a >= sys.float_info.min):
        raise ValueError(f"{name} must be positive and its square must not "
                         f"underflow, got {a}")


def _as_eval(a, adot, addot, scalar: bool):
    """(a, adot, addot) as floats for a scalar t, else as float arrays (a 0-d
    array t gives 0-d arrays)."""
    if scalar:
        return float(a), float(adot), float(addot)
    return np.asarray(a, dtype=float), np.asarray(adot, dtype=float), np.asarray(addot, dtype=float)


@dataclass(frozen=True)
class PowerLaw:
    """Power-law scale factor a0 (1 + n(1+sigma)H t/2)^(2/(n(1+sigma)));
    sigma = -1 is its de Sitter limit a0 exp(H t)."""

    sigma: float
    H: float
    a0: float = 1.0
    n: int = 1

    def __post_init__(self):
        _check_a(self.a0, "a0")
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError("n must be a positive integer")
        # the horizon, which every eval checks, computed once
        endless = (1.0 + self.sigma) * self.H >= 0.0
        object.__setattr__(self, "_horizon", math.inf if endless else
                           -2.0 / (self.n * (1.0 + self.sigma) * self.H))

    @property
    def static(self) -> bool:
        """H = 0 (or -0.0): eval(t) is eval(0.0) at every finite t >= 0."""
        return self.H == 0.0

    def horizon(self) -> float:
        return self._horizon

    def eval(self, t):
        """Return (a, adot, addot) at t: floats for a scalar t, arrays for
        an array t.

        A scalar is evaluated in Python floats, whose + - * / and ** (libm
        pow) round as numpy's float64 scalars do; the ** that overflows to
        inf in numpy raises OverflowError on a float, and that case takes
        the numpy scalars. sigma = -1 keeps np.exp, which differs from
        libm's exp in 9 235 of 200 000 random draws."""
        if not (isinstance(t, float) or np.isscalar(t)):
            tt = np.asarray(t, dtype=float)
            _check_times(tt, self._horizon)
            return _as_eval(*self._terms(tt), False)
        tt, T0 = float(t), self._horizon  # checked as `_check_times` does
        if tt < 0:
            raise NegativeTime(f"t = {tt} is before the initial slice t = 0")
        if not math.isinf(T0) and tt >= T0 * (1.0 - _HORIZON_SLACK):
            raise TimeBeyondHorizon(f"t = {tt} reaches the horizon T0 = {T0}")
        if self.sigma == -1.0:
            x = self.H * tt
            if x < 709.0:  # exp(x) < 8.3e307 does not overflow
                a = self.a0 * float(np.exp(x))
            else:  # exp(x) may overflow: inf, without a warning
                with np.errstate(over="ignore"):
                    a = self.a0 * float(np.exp(x))
            return a, self.H * a, self.H * self.H * a
        try:
            return self._terms(tt)
        except OverflowError:  # inf, without a warning
            with np.errstate(over="ignore"):
                return _as_eval(*self._terms(np.float64(tt)), True)

    def _terms(self, tt):
        """(a, adot, addot) at the checked time(s) tt, a float or an array."""
        a0, H = self.a0, self.H
        if self.sigma == -1.0:
            a = a0 * np.exp(H * tt)
            return a, H * a, H * H * a
        b = 0.5 * self.n * (1.0 + self.sigma) * H
        beta = 2.0 / (self.n * (1.0 + self.sigma))
        base = 1.0 + b * tt
        return (a0 * base ** beta, a0 * H * base ** (beta - 1.0),
                a0 * H * b * (beta - 1.0) * base ** (beta - 2.0))


def DeSitter(H: float, a0: float = 1.0, n: int = 1) -> PowerLaw:
    """The exponential scale factor a0 exp(H t): the sigma = -1 power law."""
    return PowerLaw(-1.0, H, a0, n)


class Tabulated:
    """Scale factor from (t, a, adot, addot) knots, monotone-cubic interpolated.

    Knots must start at t = 0, be strictly increasing in t, and keep a > 0.
    The interpolant is shape-preserving (Fritsch-Carlson): one interpolator
    over the stacked (a, adot, addot) rows, each row interpolated on its own.
    A crude consistency check compares knot secants of a against the
    averaged adot knots and rejects tables whose stated derivative is
    grossly wrong.
    """
    static = False  # see PowerLaw.static

    def __init__(self, t, a, adot, addot, n: int = 1):
        from scipy.interpolate import PchipInterpolator

        t = np.asarray(t, dtype=float)
        a = np.asarray(a, dtype=float)
        adot = np.asarray(adot, dtype=float)
        addot = np.asarray(addot, dtype=float)
        if t.ndim != 1 or len(t) < 4:
            raise ValueError("need at least 4 knots")
        if not (len(t) == len(a) == len(adot) == len(addot)):
            raise ValueError("knot arrays must share a length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("knot times must be strictly increasing")
        if t[0] < 0:
            raise NegativeTime("table must not start before t = 0")
        _check_a(float(np.min(a)), "the smallest scale factor knot")
        secant = np.diff(a) / np.diff(t)
        mean_rate = 0.5 * (adot[1:] + adot[:-1])
        scale = np.maximum(np.abs(mean_rate), 1e-12 * np.max(np.abs(adot) + 1.0))
        rel = np.abs(secant - mean_rate) / scale
        if np.any(rel > _CONSISTENCY_TOL) and np.max(np.abs(mean_rate)) > 0:
            k = int(np.argmax(rel))
            raise ValueError(
                f"adot knots inconsistent with a knots near t = {t[k]:g} "
                f"(secant {secant[k]:g} vs stated {mean_rate[k]:g})"
            )
        self.n = int(n)
        self._t0, self._t1 = float(t[0]), float(t[-1])
        self._interp = PchipInterpolator(t, np.stack([a, adot, addot]),
                                         axis=1, extrapolate=False)

    def horizon(self) -> float:
        return self._t1

    def eval(self, t):
        scalar = np.isscalar(t)
        tt = np.asarray(t, dtype=float)
        if np.any(tt < self._t0):
            raise NegativeTime(f"t = {np.min(tt)} is before the first knot t = {self._t0}")
        _check_times(tt, self._t1, inclusive_end=True)
        return _as_eval(*self._interp(tt), scalar)


ScaleFactor = Union[PowerLaw, Tabulated]


def t0_condition_threshold(m: float, c: float, eps: float, n: int) -> float:
    """Largest admissible adot/a at the start time; +inf for m = 0."""
    if m == 0.0:
        return math.inf
    return abs(m) * c * (math.sqrt(eps * (eps + 4.0)) - eps) / (2.0 * n)


def c_epsilon(m: float, c: float, eps: float) -> float:
    """C_eps = 2 / (|m| c (sqrt(eps(eps+4)) - eps)); +inf for m = 0 and, as
    in the m -> 0 limit, for a subnormal |m| whose denominator underflows."""
    den = abs(m) * c * (math.sqrt(eps * (eps + 4.0)) - eps)
    return 2.0 / den if den > 0.0 else math.inf


def min_admissible_t0(sf: ScaleFactor, m: float, c: float, eps: float) -> float:
    """Earliest start time satisfying the expansion-rate threshold.

    Power-law family only. Returns 0 when the initial rate already sits at or
    below `t0_condition_threshold`; otherwise solves adot(t0)/a(t0) = that
    threshold = 1/(n C_eps). Raises NoAdmissibleT0 when the rate never drops
    to the threshold (sigma <= -1, de Sitter included).
    """
    if m == 0.0:
        raise ValueError("m = 0 makes every t0 admissible; the minimum is trivially 0")
    if isinstance(sf, Tabulated):
        raise ValueError("min_admissible_t0 supports the power-law family only")
    thr = t0_condition_threshold(m, c, eps, sf.n)
    if sf.H <= thr:
        return 0.0
    if sf.sigma <= -1.0:
        raise NoAdmissibleT0(
            f"with sigma = {sf.sigma} the rate never drops from H = {sf.H} "
            f"to the threshold {thr}")
    ceps = c_epsilon(m, c, eps)
    t0 = 2.0 * ceps / (1.0 + sf.sigma) - 2.0 / (sf.n * (1.0 + sf.sigma) * sf.H)
    if math.isinf(t0):  # an underflowed |m| c: the threshold rate is 0
        raise NoAdmissibleT0("|m| c underflows; the rate never drops to 0")
    return t0


def check_monotone_expansion(sf: ScaleFactor, t_lo: float, t_hi: float) -> bool:
    """True when adot >= 0 and adot^2 - addot*a >= 0 hold on [t_lo, t_hi].

    The power-law family is decided exactly: its identity
    (adot^2 - addot a)/a^2 = (n(1+sigma)H^2/2) (1 + n(1+sigma)H t/2)^(-2)
    has the sign of (1+sigma), and adot has the sign of H inside the horizon,
    so the pair holds iff H = 0, or H > 0 with sigma >= -1 (de Sitter is
    sigma = -1). Tabulated factors are sampled; the interval is clipped to
    the table's domain since the conditions are only ever needed up to
    min(T, T0).
    """
    if t_lo < 0:
        raise NegativeTime(f"t_lo = {t_lo} is before the initial slice")
    if t_hi < t_lo:
        raise ValueError("empty interval")
    if not isinstance(sf, Tabulated):
        return sf.H == 0.0 or sf.H > 0.0 and sf.sigma >= -1.0
    hi = min(t_hi, sf.horizon())
    lo = min(t_lo, hi)
    ts = np.linspace(lo, hi, _MONOTONE_SAMPLES)
    a, adot, addot = sf.eval(ts)
    tol_rate = 1e-12 * max(
        np.max(np.abs(adot)), np.max(np.abs(adot) ** 2 + np.abs(addot * a)), 1.0
    )
    if np.min(adot) < -tol_rate:
        return False
    if np.min(adot * adot - addot * a) < -tol_rate:
        return False
    return True
