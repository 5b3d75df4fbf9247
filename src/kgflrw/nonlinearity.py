"""Power nonlinearities and the structural inequality that drives blow-up.

Two families:

* GaugeInvariantPower  f(u) = lam * |u|^(p-1) u   on complex u, p > 1, lam real
* RealAbsPower         f(u) = sign * |u|^p        on real u, p > 1, sign = +-1;
                       complex input raises ComplexInputToRealNonlinearity

Both have f(0) = 0 and the local Lipschitz growth |f(s)-f(v)| <=
C |s-v| (|s|^(p-1) + |v|^(p-1)). Both are homogeneous of degree p, so the
potential F(u) = int_0^u f is

    F(u) = Re(f(u) conj(u)) / (p+1),

lam |u|^(p+1) / (p+1) for the gauge family and sign |u|^p u / (p+1) for the
real one. The families therefore implement f only: int F is computed from
the same evaluation as Re int f(u) conj(u), in
`functionals.potential_integrals`. The machinery requires a structure
constant eps > 0 with

    Re(f(u) conj(u)) >= (2 + eps) F(u)   for all admissible u,

that is (p - 1 - eps) F(u) >= 0. For the gauge family this pins eps <= p-1
when lam > 0 and eps >= p-1 when lam < 0; the real family forces eps = p-1
exactly (F changes sign with u). The coupling lam is real: a complex one
has no potential, so it is refused at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import ComplexInputToRealNonlinearity

_EPS_TOL = 1e-12   # absolute slack on a closed end of an eps range


class EpsRange(NamedTuple):
    """Admissible eps interval; endpoints flagged closed/open."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def contains(self, eps: float) -> bool:
        lo_ok = eps >= self.lo - _EPS_TOL if self.lo_closed else eps > self.lo
        hi_ok = eps <= self.hi + _EPS_TOL if self.hi_closed else eps < self.hi
        return lo_ok and hi_ok


def _validate_p(p: float) -> None:
    if not (p > 1.0):
        raise ValueError(f"exponent p must exceed 1, got {p}")


def _abs_pow(u, y: float) -> float:
    """|u| ** y of a Python float or complex; +inf, as numpy gives it, where
    Python's abs or ** overflows and raises OverflowError."""
    try:
        return abs(u) ** y
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class GaugeInvariantPower:
    """f(u) = lam |u|^(p-1) u; phase-equivariant, defined for complex u."""

    p: float
    lam: float = 1.0
    eps: float | None = None

    def __post_init__(self):
        _validate_p(self.p)
        if np.iscomplexobj(self.lam):
            raise ValueError(f"lam must be real (a complex coupling has no "
                             f"potential), got {self.lam}")
        lam = float(self.lam)
        if lam == 0:
            raise ValueError("lam = 0 gives the linear equation; not a valid family member")
        object.__setattr__(self, "lam", lam)
        eps = self.eps
        if eps is None:
            eps = self.p - 1.0
        if not (eps > 0.0):
            raise ValueError(f"eps must be positive, got {eps}")
        rng = admissible_eps_range(self)
        if not rng.contains(eps):
            raise ValueError(
                f"eps = {eps} outside the admissible range "
                f"[{rng.lo}, {rng.hi}] for p = {self.p}, lam = {lam} "
                f"(endpoints {'closed' if rng.lo_closed else 'open'}/"
                f"{'closed' if rng.hi_closed else 'open'})"
            )
        object.__setattr__(self, "eps", float(eps))

    @property
    def real_only(self) -> bool:
        return False

    def f(self, u, out=None):
        """f(u); given out (float64 for real u, else complex128), the same
        operations in place. A complex f still allocates |u|^(p-1) (numpy
        may round a power on strided out.real differently) and writes only
        its product with u into out, so out is never an operand and
        f(u, out) has the bits of f(u), signs of zeros included."""
        u = np.asarray(u)
        if out is None:
            return self.lam * np.abs(u) ** (self.p - 1.0) * u
        mag = np.abs(u, out=None if u.dtype.kind == "c" else out)
        if self.p != 2.0:  # |u| ** 1.0 is |u|; ** and **= take one path
            mag **= self.p - 1.0
        np.multiply(self.lam, mag, out=mag)
        return np.multiply(mag, u, out=out)

    def f_scalar(self, u):
        """f of one Python float or complex in f's order of operations; at
        p = 2 it skips |u| ** 1.0 as f(u, out=...) does, with its bits on a
        float."""
        if self.p != 2.0:
            return self.lam * _abs_pow(u, self.p - 1.0) * u
        try:
            return self.lam * abs(u) * u
        except OverflowError:  # |u| of a complex u, which numpy takes as inf
            return self.lam * math.inf * u


@dataclass(frozen=True)
class RealAbsPower:
    """f(u) = sign |u|^p on real data; the structure constant is pinned to p-1."""

    p: float
    sign: int = 1
    eps: float | None = None

    def __post_init__(self):
        _validate_p(self.p)
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        eps = self.eps
        if eps is None:
            eps = self.p - 1.0
        if abs(eps - (self.p - 1.0)) > _EPS_TOL:
            raise ValueError(
                f"this family satisfies the structure inequality only at eps = p-1 = "
                f"{self.p - 1.0}, got {eps}"
            )
        object.__setattr__(self, "eps", float(eps))

    @property
    def real_only(self) -> bool:
        return True

    def _real(self, u) -> np.ndarray:
        u = np.asarray(u)
        if np.iscomplexobj(u):
            raise ComplexInputToRealNonlinearity(
                f"the real family takes real data only, got {u.dtype}")
        return u.astype(float) if u.dtype != float else u

    def f(self, u, out=None):
        """f(u); given a float64 array out, the same operations in place."""
        ur = self._real(u)
        if out is None:
            return self.sign * np.abs(ur) ** self.p
        np.abs(ur, out=out)
        out **= self.p
        return np.multiply(self.sign, out, out=out)

    def f_scalar(self, u):
        """f of one Python float in f's order of operations; any other
        scalar is taken as `_real` takes an array, a complex one refused."""
        if u.__class__ is not float:
            u = self._real(u).item()
        return self.sign * _abs_pow(u, self.p)


Nonlinearity = Union[GaugeInvariantPower, RealAbsPower]


def admissible_eps_range(nl: Nonlinearity) -> EpsRange:
    """Admissible structure constants for the family.

    Gauge family, lam > 0: (0, p-1]. Gauge family, lam < 0: [p-1, inf).
    Real family: the single point {p-1}.
    """
    if isinstance(nl, RealAbsPower):
        return EpsRange(nl.p - 1.0, nl.p - 1.0, True, True)
    if nl.lam > 0.0:
        return EpsRange(0.0, nl.p - 1.0, False, True)
    return EpsRange(nl.p - 1.0, math.inf, True, False)


def sobolev_admissible(p: float, n: int) -> bool:
    """Exponent window for local well-posedness of the flow in n dimensions.

    1 < p for n = 1, 2; additionally p < 1 + 2/(n-2) for n >= 3. This is
    informational: the blow-up certificates themselves do not need it.
    """
    if p <= 1.0:
        return False
    if n <= 2:
        return True
    return p < 1.0 + 2.0 / (n - 2.0)
