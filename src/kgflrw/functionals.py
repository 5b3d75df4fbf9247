"""Energy, Nehari functional, data margins and the convexity diagnostics.

For a field u with velocity u_t on a background a(t), with mass m, wave speed
c and structure constant eps, the core scalars are

    E = 1/2 ||u_t||^2 + 1/2 c^2 a^-2 ||grad u||^2 + 1/2 m^2 c^2 ||u||^2
        - c^2 int F(u)
    I = c^2 a^-2 ||grad u||^2 + m^2 c^2 ||u||^2 - c^2 Re int conj(u) f(u)

E is non-increasing whenever adot >= 0; the exact budget is

    E(t) + int_t0^t [ n (adot/a) ||u_t||^2 + c^2 (adot/a^3) ||grad u||^2 ] = E(t0).

The structure inequality splits E against I:

    E >= 1/2 ||u_t||^2 + I/(eps+2)
         + eps/(2(eps+2)) (c^2 a^-2 ||grad u||^2 + m^2 c^2 ||u||^2),

with equality exactly when the structure inequality is pointwise tight.

E, I and the margins below are arithmetic on six spatial integrals of a
state, measured once per state into `Integrals` (at t0 by `dynamics.Start`,
then by the run's workspace): ||u||^2, ||u_t||^2, Re(u, u_t),
||grad u||^2, int F(u) and Re int f(u) conj(u). Each but int F is a plain
cell sum times the cell volume, which on a smooth periodic integrand
converges faster than any power of h. ||grad u||^2 is -Re(u, lap u) with
the stencil Laplacian that a run steps with (`field`), so the integration
by parts holds on the grid. int F is the last over p+1, as
F = Re(f(u) conj(u)) / (p+1) (`nonlinearity`). The state is measured in
one dtype, the one `state_arrays` picks: float64 for real data, else
complex128; each sum is taken in that dtype. Uniform data (`is_uniform`)
are measured as one cell, the Python scalars u and v, times the box volume
V = cell volume * N^n (`Grid.volume`), as each cell sum of such a state is
N^n times that cell's term (`norm_integrals`, `potential_integrals`):
||u||^2 = |u|^2 V, ||u_t||^2 = |v|^2 V, Re(u, u_t) = Re(conj(v) u) V, each
product sum started from +0.0 as a BLAS dot starts, so the sign of a zero
velocity never reaches the trace; Re f(u) conj(u) is
Re(conj(u) `f_scalar`(u)) V, int F that over p + 1, and the gradient is
0.0. These are the exact cell sums up to a few roundings; a whole-array
dot adds up to gamma_N sum |a_i b_i| (Higham, Accuracy and Stability of
Numerical Algorithms, section 3.1).

Two data margins certify blow-up: rho (norm-weighted, start at t0 = 0) and
delta (velocity-weighted, any admissible t0):

    rho   = m^2 c^2 eps / (2(eps+2)) ||u0||^2      - E(0)
    delta = |m| c eps   / (2(eps+2)) Re(u0, u1)    - E(t0)

The convexity certificate tracks theta(t) = ||u||^2 + running corrections for
the expansion plus an anchor term n (T - t) (adot(t0)/a(t0)) ||u0||^2, whose
power theta^(-kappa) is concave in time. Its discriminant eta >= 0 is a
Cauchy-Schwarz combination, and zeta is the lower bound that feeds the
concavity constant. Running time-integrals use trapezoid accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridMismatch
from .field import Field, Grid, dot_re, placed
from .nonlinearity import Nonlinearity


@dataclass(frozen=True)
class PhysicalParams:
    """Mass m (any real, |m| enters thresholds), wave speed c > 0, structure
    constant eps > 0, spatial dimension n."""

    m: float
    c: float
    eps: float
    n: int

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("wave speed c must be positive")
        if self.eps <= 0:
            raise ValueError("structure constant eps must be positive")
        if self.n not in (1, 2, 3):
            raise ValueError("spatial dimension must be 1, 2 or 3")

    @property
    def m_tilde(self) -> float:
        """min(1, |m|): the unit-insensitive mass used by the data classification."""
        return min(1.0, abs(self.m))

    @property
    def c_tilde(self) -> float:
        """min(1, c)."""
        return min(1.0, self.c)


class Integrals(NamedTuple):
    """The six integrals of one state; the methods take the background value
    a at its time. Without a nonlinearity F and re_fu are 0.0: subtracting
    c^2 * 0.0 leaves E and I unchanged bit for bit."""

    L: float        # ||u||^2
    ut_sq: float    # ||u_t||^2
    re_u_ut: float  # Re(u, u_t)
    grad_sq: float  # ||grad u||^2
    F: float        # int F(u)
    re_fu: float    # Re int f(u) conj(u)

    def energy(self, a: float, params: PhysicalParams) -> float:
        c2 = params.c * params.c
        e = 0.5 * self.ut_sq
        e += 0.5 * c2 / (a * a) * self.grad_sq
        e += 0.5 * params.m * params.m * c2 * self.L
        e -= c2 * self.F
        return e

    def nehari(self, a: float, params: PhysicalParams) -> float:
        c2 = params.c * params.c
        val = c2 / (a * a) * self.grad_sq
        val += params.m * params.m * c2 * self.L
        val -= c2 * self.re_fu
        return val

    def rho(self, a: float, params: PhysicalParams) -> float:
        """Norm-weighted data margin; a = a(0) for the data at t = 0."""
        mc2 = params.m * params.m * params.c * params.c
        lead = mc2 * params.eps / (2.0 * (params.eps + 2.0)) * self.L
        return lead - self.energy(a, params)

    def delta(self, a: float, params: PhysicalParams) -> float:
        """Velocity-weighted data margin; a = a(t0) for the data at t0."""
        lead = (abs(params.m) * params.c * params.eps / (2.0 * (params.eps + 2.0))
                * self.re_u_ut)
        return lead - self.energy(a, params)


def norm_integrals(u, v, grid: Grid) -> tuple[float, float, float]:
    """||u||^2, ||u_t||^2 and Re(u, u_t) of a state: of its arrays, or of
    a uniform state given as its one cell's Python scalars, whose products
    Re(conj(a) b), each started from +0.0 as a BLAS dot is (a -0.0 product
    gives +0.0), are weighted by the box volume `grid.volume`."""
    if isinstance(u, np.ndarray):
        cv = grid.cell_volume
        return dot_re(u, u) * cv, dot_re(v, v) * cv, dot_re(v, u) * cv
    vol, ur, ui, vr, vi = grid.volume, u.real, u.imag, v.real, v.imag
    return ((0.0 + (ur * ur + ui * ui)) * vol,
            (0.0 + (vr * vr + vi * vi)) * vol,
            (0.0 + (vr * ur + vi * ui)) * vol)


def potential_integrals(u, fu, grid: Grid, nl: Nonlinearity | None
                        ) -> tuple[float, float]:
    """int F(u) and Re int f(u) conj(u) from one evaluation fu = f(u), as
    F = Re(f(u) conj(u)) / (p+1) (`nonlinearity`); both 0.0 for the linear
    equation (nl and fu None). Of the arrays u and fu, or of a uniform
    state's one cell, given as Python scalars (fu from nl's `f_scalar`),
    times the volume, the product started from +0.0 as in
    `norm_integrals`."""
    if nl is None:
        return 0.0, 0.0
    if isinstance(u, np.ndarray):
        re_fu = dot_re(u, fu) * grid.cell_volume
    else:
        re_fu = (0.0 + (u.real * fu.real + u.imag * fu.imag)) * grid.volume
    return re_fu / (nl.p + 1.0), re_fu


def is_uniform(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether every cell of u equals u's first cell, every cell of v equals
    v's first cell, and both first cells are finite."""
    return all(np.isfinite(x.flat[0]) and bool(np.all(x == x.flat[0]))
               for x in (u, v))


def state_arrays(u: Field, v: Field) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the state's arrays, at `placed` slots 0 and 1, in the one
    dtype it is stepped and measured in: float64 when both have an all-zero
    imaginary part (every coupling maps reals to reals), else complex128."""
    real = not (u.values.imag.any() or v.values.imag.any())
    pair = [f.values.real if real else f.values for f in (u, v)]
    out = tuple(placed(x.shape, x.dtype, slot) for slot, x in enumerate(pair))
    for dst, x in zip(out, pair):
        dst[...] = x
    return out


def state_grid(u: Field, v: Field) -> Grid:
    """The grid of the state (u, u_t = v); GridMismatch if u and v differ."""
    if u.grid != v.grid:
        raise GridMismatch("u and u_t live on different grids")
    return u.grid


# ---------------------------------------------------------------------------
# history integrals, accumulated by the PDE driver


class RunningIntegrals:
    """Trapezoid accumulator for the rate-weighted running integrals.

    Pushed once per accepted step. Tracks P, Q, R (rate-weighted L, ||u_t||^2,
    Re(u,u_t)), the curvature integral G and its time integral IG, the energy
    dissipation integral, and the comoving light path c int a^-1 dtau used by
    the wrap-around guard. A push computes the six integrands at t in one
    pass (n * rate once; c^2 from construction) and keeps them, with t, as
    one tuple, which the next push reads by index.
    """

    def __init__(self, n: int, c: float):
        self.n = n
        self.c = c
        self._c2 = c * c
        self.P = 0.0
        self.Q = 0.0
        self.R = 0.0
        self.G = 0.0
        self.IG = 0.0
        self.dissipated = 0.0
        self.light_path = 0.0
        self._prev: tuple | None = None

    def push(self, t: float, L: float, ut_sq: float, re_u_ut: float,
             grad_sq: float, a: float, adot: float, addot: float) -> None:
        rate = adot / a
        n_rate = self.n * rate
        # the integrands p, q, r, g, d and w of P, Q, R, G, dissipated and
        # light_path at t; no ** in d: a float power raises OverflowError
        # where / gives inf
        p, q, r = n_rate * L, n_rate * ut_sq, n_rate * re_u_ut
        g = (adot * adot - addot * a) / (a * a) * L
        d, w = q + self._c2 * rate / a / a * grad_sq, self.c / a
        prev, self._prev = self._prev, (t, p, q, r, g, d, w)
        if prev is not None:
            half = 0.5 * (t - prev[0])
            self.P += half * (prev[1] + p)
            self.Q += half * (prev[2] + q)
            self.R += half * (prev[3] + r)
            g_old = self.G
            self.G = g_new = g_old + half * (prev[4] + g)
            self.IG += half * (g_old + g_new)
            self.dissipated += half * (prev[5] + d)
            self.light_path += half * (prev[6] + w)


@dataclass
class FunctionalSnapshot:
    """One recorded row of the trajectory diagnostics.

    The CSV trace serializes the first fourteen fields; the rest (G, ut_sq,
    mode, dissipation, background values) support recomputation and the
    energy budget without re-running.
    """

    t: float
    dt: float
    L: float
    Lp: float
    E: float
    I: float
    theta: float
    theta_prime: float
    theta_second: float
    theta_negk: float
    eta: float
    zeta: float
    Hdiag: float
    wrap_margin: float
    G: float = 0.0
    ut_sq: float = 0.0
    mode: str = "none"
    e_dissipated: float = 0.0
    a: float = 1.0
    adot: float = 0.0


CSV_COLUMNS = (
    "t", "dt", "L2sq", "L2sq_prime", "E", "I", "theta", "theta_prime",
    "theta_second", "theta_negk", "eta", "zeta", "Hdiag", "wrap_margin",
)


def snapshot_csv_values(row: FunctionalSnapshot) -> tuple[float, ...]:
    return (row.t, row.dt, row.L, row.Lp, row.E, row.I, row.theta,
            row.theta_prime, row.theta_second, row.theta_negk, row.eta,
            row.zeta, row.Hdiag, row.wrap_margin)
