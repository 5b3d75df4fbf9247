"""The tests' oracles, each defined once, and the fixtures that several
test modules share: the plain reference kernels (the np.roll Laplacian, its
quadratic form and symbols, the Fourier mode energies, the allocate-per-stage
RK4 step, the scalar RK4 step as a loop over a per-cell right-hand side,
the one-cell dot, the meshgrid profiles, F in closed form and by
quadrature, the functionals recomputed from the fields, the certificates'
exponents, the history integrals' plain trapezoid accumulator, the DOP853
integrations of spatially constant data and of the concavity ODE, the de
Sitter closed form), the rounding bounds that hold the program to them
(Higham, Accuracy and Stability of Numerical Algorithms, section 3.1) and
the frozen exact values, and the config text edit that sweep points were
parsed from. Every
test module imports them from here, and none imports another test module
(`test_hygiene.py`).
"""

import math
import re
import sys
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad, solve_ivp

from kgflrw import (GaugeInvariantPower, PhysicalParams, RealAbsPower, Start,
                    bundled_scenario_text, evaluate)
from kgflrw.dynamics import _coeffs
from kgflrw.errors import GridMismatch
from kgflrw.nonlinearity import Nonlinearity
from kgflrw.scale_factor import ScaleFactor

# ---------------------------------------------------------------------------
# bits and rounding bounds


def same_bits(a, b) -> bool:
    """Whether a and b hold the same floats bit for bit: arrays of one shape
    and dtype with the same 64-bit words (-0.0 is not +0.0), or floats,
    complexes or sequences of them whose parts have the same `float.hex`
    (the sign of a zero or an infinity included; a NaN matches a NaN)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
            *(np.ascontiguousarray(x).view(np.uint64) for x in (a, b))))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same_bits, a, b))
    a, b = complex(a), complex(b)
    return (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex())


U = 2.0 ** -53  # the unit roundoff; an ulp of a float is at most 2 U of it


def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * U / (1.0 - n * U)


def gamma_units(k: int) -> Fraction:
    """Higham's gamma_k for k roundings, k 2^-53 / (1 - k 2^-53), exactly."""
    return Fraction(k, 2 ** 53 - k)


def exact_dot(a, b) -> Fraction:
    """Re(conj(a) b) of two Python scalars, exactly."""
    return (Fraction(a.real) * Fraction(b.real)
            + Fraction(a.imag) * Fraction(b.imag))


def abs_dot(a, b) -> Fraction:
    """|Re a Re b| + |Im a Im b|: the terms of exact_dot, at most |a| |b|."""
    return (abs(Fraction(a.real) * Fraction(b.real))
            + abs(Fraction(a.imag) * Fraction(b.imag)))


def l1(a) -> Fraction:
    """|Re a| + |Im a| of a Python scalar, exactly: at least |a|."""
    return abs(Fraction(a.real)) + abs(Fraction(a.imag))


# Per-call errors, in units of U relative to the exact value, of the
# operations in f and in the closed form of F (`ref_F`) that numpy and
# Python may round differently (the abs of a float is exact):
# - Python's abs of a complex and its float ** are libm's hypot and pow,
#   each within 1 ulp on x86_64 (the GNU C Library manual, "Known Maximum
#   Errors in Math Functions");
# - numpy's float64 power takes its AVX-512 loops from SVML, within 4 ulps
#   (numpy 1.22.0 release notes, "Vectorize umath module using AVX-512");
# - numpy's complex absolute is the scaled form max sqrt(1 + (min / max)^2)
#   (its SIMD loop since numpy 1.25): five roundings, of which the sum with
#   1 passes on at most half of the error of the square (at most 1) and the
#   square root halves its argument's, so within 3.25 U; taken as 2 ulps.
ABS_ERR = {"numpy": 4.0, "python": 2.0}
POW_ERR = {"numpy": 8.0, "python": 2.0}


def eval_err(nl, which: str, impl: str) -> float:
    """The relative error, to first order in U, of nl's f ("f") or the
    closed form of F ("F", `ref_F`) as numpy's array methods or the Python
    scalar ones ("numpy", "python") evaluate it: |u| raised to at most p
    (f) or p + 1 (F), which multiplies the error of |u| by that exponent,
    the power's own error, and two more roundings (products, the quotient
    by p + 1)."""
    exponent = nl.p + (1.0 if which == "F" else 0.0)
    return (exponent * ABS_ERR[impl] + POW_ERR[impl] + 2.0) * U


def eval_gap(nl, which: str) -> float:
    """A bound on |Python's f or F - numpy's| of one input, relative to
    numpy's value: both are within their eval_err of the exact value, which
    is within 1 / (1 - c) of numpy's, c numpy's eval_err."""
    c_np = eval_err(nl, which, "numpy")
    return (c_np + eval_err(nl, which, "python")) / (1.0 - c_np)


def potential_gap(nl, cells: int) -> float:
    """A bound on |the program's int F - integrate_F| of an array of `cells`
    cells, relative to A = sum_i |F(u_i)| times the cell volume, to first
    order in U. The program sums Re(conj(u_i) f(u_i)), a dot of 2 cells real
    products on complex data (cells on real data) whose moduli sum to
    (p+1) A / cell volume (in both families the parts of f(u) conj(u) of a
    cell share one sign), with each f within eval_err of f part by part:
    within eval_err(f) + gamma_(2 cells) of the exact sum, and two
    roundings more (the volume, the quotient by p+1). integrate_F sums the
    closed form, each within eval_err(F), in any order: gamma_cells more,
    and one rounding (the volume). The four roundings left in
    gamma_(3 cells + 4) cover the second-order terms."""
    return (eval_err(nl, "f", "numpy") + eval_err(nl, "F", "numpy")
            + float(gamma_units(3 * cells + 4)))


def lap_terms(vals: np.ndarray, h: float) -> np.ndarray:
    """Per cell, the magnitudes of the Laplacian's terms summed, over
    12 h^2: (16 sum |f_{i+-1}| + sum |f_{i+-2}| + 34 n |f_i|) / (12 h^2).
    Both forms add 16 f_{i+-1}, -f_{i+-2}, -32 n f_i and +2 n f_i."""
    a = np.abs(vals)
    total = 34.0 * vals.ndim * a
    for ax in range(vals.ndim):
        for shift, weight in ((1, 16.0), (2, 1.0)):
            total += weight * (np.roll(a, shift, ax) + np.roll(a, -shift, ax))
    return total / (12.0 * h * h)


def lap_bound(vals: np.ndarray, h: float) -> np.ndarray:
    """A bound on |lap_array - ref_lap_array| per cell. In either form a
    term reaches the unscaled sum through at most n + 2 roundings (the
    kernel: n in S1, one in S1 - 2n f and one in the last difference; the
    reference: three on its axis and n - 1 in the sum over axes; times 16
    is exact), then through four in the scale: 12 h, times h, the
    reciprocal and the product. So each is within gamma_(n+6) lap_terms of
    the exact value, in each part of a complex value and so in modulus."""
    return 2.0 * gamma(vals.ndim + 6) * lap_terms(vals, h)


def grad_bound(vals: np.ndarray, h: float) -> float:
    """A bound on |grad_sq_array - ref_grad_sq|. Each term conj(v_i) w v_j
    / (12 h^2) of the exact form reaches either result through at most
    n + 6 roundings of its Laplacian value (lap_bound's count: the kernel
    takes its four roundings of the scale once, after the sum) and 2N in
    the dot of N cells, a real dot of at most 2N products (a complex cell
    is two); so each result is within gamma_(2N + n + 6) of the exact form
    times its terms' magnitudes, sum |v_i| lap_terms(v)_i
    (|Re v_i Re v_j| + |Im v_i Im v_j| <= |v_i| |v_j|)."""
    terms = float(np.sum(np.abs(vals) * lap_terms(vals, h)))
    return 2.0 * gamma(2 * vals.size + vals.ndim + 6) * terms


class Gapped(NamedTuple):
    """A value of the reference and a bound per cell on the distance of
    the kernel's value of the same quantity from it."""

    x: np.ndarray
    gap: np.ndarray


def rounded(x: np.ndarray, exact_gap) -> Gapped:
    """x, the reference's result of one operation, with the bound on the
    kernel's result of that operation on operands whose exact results
    differ by at most exact_gap. Each result is rounded by at most u of its
    magnitude, so they differ by at most exact_gap (1 + u) + 2 u |x| /
    (1 - u); operands that agree give results that agree."""
    slack = (1.0 + U) * exact_gap + 2.0 * U / (1.0 - U) * np.abs(x)
    return Gapped(x, np.where(exact_gap > 0.0, slack, 0.0))


def g_add(a: Gapped, b: Gapped) -> Gapped:
    return rounded(a.x + b.x, a.gap + b.gap)


def g_sub(a: Gapped, b: Gapped) -> Gapped:
    return rounded(a.x - b.x, a.gap + b.gap)


def g_mul(c: float, a: Gapped) -> Gapped:
    return rounded(c * a.x, abs(c) * a.gap)


def g_f(nl, su: Gapped, scalar: bool = False) -> Gapped:
    """nl.f of the reference's input, with the bound on the kernel's f of
    its own input. The exact f moves by at most p |c| (|u| + gap)^(p-1) gap
    (the mean value theorem; c is lam or the sign), and numpy's f is within
    (2 (p - 1) + 10) u of the exact f to first order in u: an |u| rounded
    once (complex abs) and raised to p - 1, numpy's power within 4 ulps
    (8 u), and two products. With scalar, the kernel's f is nl.f_scalar,
    which may round otherwise than numpy's f of the same input: within its
    eval_err c of the exact f, so within (1 + c) lip gap + eval_gap |f| of
    the reference's value, also where the inputs agree."""
    fx = np.asarray(nl.f(su.x))
    lip = nl.p * abs(getattr(nl, "lam", 1.0)) * (
        np.abs(su.x) + su.gap) ** (nl.p - 1.0)
    if scalar:
        c_py = eval_err(nl, "f", "python")
        return Gapped(fx, (1.0 + c_py) * lip * su.gap
                      + eval_gap(nl, "f") * np.abs(fx))
    c_f = (2.0 * (nl.p - 1.0) + 10.0) * U
    slack = (1.0 + c_f) * lip * su.gap + 2.0 * c_f / (1.0 - c_f) * np.abs(fx)
    return Gapped(fx, np.where(su.gap > 0.0, slack, 0.0))


def exact(*arrays) -> list[Gapped]:
    """Reference values that the kernel starts from bit for bit."""
    return [Gapped(x, np.zeros(x.shape)) for x in arrays]


# ---------------------------------------------------------------------------
# reference kernels


def ref_lap_array(vals: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order periodic Laplacian on a raw array."""
    out = np.zeros_like(vals)
    for ax in range(vals.ndim):
        p1 = np.roll(vals, -1, axis=ax)
        m1 = np.roll(vals, 1, axis=ax)
        p2 = np.roll(vals, -2, axis=ax)
        m2 = np.roll(vals, 2, axis=ax)
        out += 16.0 * (p1 + m1 - 2.0 * vals) - (p2 + m2 - 2.0 * vals)
    out /= 12.0 * h * h
    return out


def ref_grad_sq(vals: np.ndarray, h: float) -> float:
    """The cell sum of |grad v|^2 as the Laplacian's quadratic form,
    -Re sum conj(v) D2 v."""
    return -float(np.vdot(vals, ref_lap_array(vals, h)).real)


def lap_symbol(k, h):
    """Eigenvalue of the 4th-order Laplacian stencil on exp(i k x)."""
    return (32.0 * math.cos(k * h) - 2.0 * math.cos(2 * k * h) - 30.0) / (12.0 * h * h)


def grad_symbol(k, h):
    """-lap_symbol in its summation-by-parts form, (4 / h^2)(s + s^2 / 3)
    with s = sin^2(k h / 2): nonnegative, so -Re <u, D2 u> is a squared
    seminorm."""
    s = math.sin(0.5 * k * h) ** 2
    return 4.0 / (h * h) * (s + s * s / 3.0)


def mode_energies(u, v, grid, params):
    """The energy of each Fourier mode of the grid system u' = v,
    v' = c^2 (D2 - m^2) u, h^n / (2 N^n) (|v_k|^2 + omega_k^2 |u_k|^2)
    (Parseval), and omega_k^2 = c^2 (lambda_k + m^2), with lambda_k the
    symbol of -D2, (4 / h^2)(s + s^2 / 3) with s = sin^2(k h / 2), summed
    over the axes."""
    n, N, h = grid.n, grid.points_per_axis, grid.spacing
    s = np.sin(np.pi * np.fft.fftfreq(N)) ** 2  # k h / 2 = pi j / N
    lam_axis = 4.0 / (h * h) * (s + s * s / 3.0)
    lam = sum(lam_axis.reshape((-1,) + (1,) * (n - 1 - ax))
              for ax in range(n))
    w2 = params.c ** 2 * (lam + params.m ** 2)
    energy = grid.cell_volume / (2 * N ** n) * (
        np.abs(np.fft.fftn(v)) ** 2 + w2 * np.abs(np.fft.fftn(u)) ** 2)
    return energy, w2


def ref_rhs(t, u, v, sf, params, nl, h):
    a, adot, _ = sf.eval(t)
    rate = adot / a
    c2 = params.c * params.c
    dv = (c2 / (a * a)) * ref_lap_array(u, h)
    dv -= (params.m * params.m * c2) * u
    dv -= (params.n * rate) * v
    if nl is not None:
        dv = dv + c2 * np.asarray(nl.f(u))
    return v, dv


def ref_rk4(t, u, v, dt, sf, params, nl, h):
    k1u, k1v = ref_rhs(t, u, v, sf, params, nl, h)
    hm = 0.5 * dt
    k2u, k2v = ref_rhs(t + hm, u + hm * k1u, v + hm * k1v, sf, params, nl, h)
    k3u, k3v = ref_rhs(t + hm, u + hm * k2u, v + hm * k2v, sf, params, nl, h)
    k4u, k4v = ref_rhs(t + dt, u + dt * k3u, v + dt * k3v, sf, params, nl, h)
    sixth = dt / 6.0
    u_new = u + sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    v_new = v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u_new, v_new


def ref_rhs_gap(t, su: Gapped, sv: Gapped, sf, params, nl, h,
                scalar: bool = False):
    """ref_rhs on Gapped values. The reference's c^2 a^-2 lap u reaches
    each term through n + 7 roundings (ref_lap_array's n + 6 and the
    product) and the kernel's through n + 6 (its sum's n + 2, the three of
    the folded factor c^2 a^-2 / (12 h^2) and the product), each on its own
    stage input; the exact values on the two inputs differ by at most
    c^2 a^-2 lap_terms(gap). The other operations are the same in both.
    With scalar, the kernel is `_rk4_uniform` on a uniform stage input,
    whose lap u is 0.0 as the reference's is on its uniform array, and its
    f is f_scalar (`g_f`)."""
    a, adot, _ = sf.eval(t)
    c2 = params.c * params.c
    lap_c, n = c2 / (a * a), su.x.ndim
    if scalar:
        assert np.all(su.x == su.x.flat[0])
        gap = np.zeros(su.x.shape)
    else:
        gap = lap_c * ((gamma(n + 6) + gamma(n + 7)) * lap_terms(su.x, h)
                       + (1.0 + gamma(n + 6)) * lap_terms(su.gap, h))
    dv = Gapped(lap_c * ref_lap_array(su.x, h), gap)
    dv = g_sub(dv, g_mul(params.m * params.m * c2, su))
    dv = g_sub(dv, g_mul(params.n * (adot / a), sv))
    if nl is not None:
        dv = g_add(dv, g_mul(c2, g_f(nl, su, scalar)))
    return sv, dv


def ref_rk4_gap(t, u: Gapped, v: Gapped, dt, sf, params, nl, h,
                scalar: bool = False):
    """ref_rk4 on Gapped values: the reference step from (u.x, v.x), and a
    bound on the distance of the kernel's step from it when the kernel
    starts within (u.gap, v.gap) of that state; scalar as in ref_rhs_gap."""
    def rhs(t, su, sv):
        return ref_rhs_gap(t, su, sv, sf, params, nl, h, scalar)

    hm = 0.5 * dt
    k1u, k1v = rhs(t, u, v)
    k2u, k2v = rhs(t + hm, g_add(u, g_mul(hm, k1u)), g_add(v, g_mul(hm, k1v)))
    k3u, k3v = rhs(t + hm, g_add(u, g_mul(hm, k2u)), g_add(v, g_mul(hm, k2v)))
    k4u, k4v = rhs(t + dt, g_add(u, g_mul(dt, k3u)), g_add(v, g_mul(dt, k3v)))
    sixth = dt / 6.0

    def combine(x, k1, k2, k3, k4):
        acc = g_add(g_add(g_add(k1, g_mul(2.0, k2)), g_mul(2.0, k3)), k4)
        return g_add(x, g_mul(sixth, acc))

    return combine(u, k1u, k2u, k3u, k4u), combine(v, k1v, k2v, k3v, k4v)


def ref_cell_dot(a, b) -> float:
    """Re(conj(a) b) of two Python scalars, started from +0.0 as a BLAS dot
    is, so that a -0.0 product gives +0.0: the one-cell sum of a uniform
    state's integrals before the volume factor."""
    return 0.0 + (a.real * b.real + a.imag * b.imag)


def ref_rhs_cell(k, u, v, fu):
    """dv/dt on one cell of Python scalars, with lap u = +0.0, as the
    array kernel's slab sum writes it: the sum starts from lap_c * 0.0; fu
    is the nonlinearity's `f_scalar` of u, or None."""
    lap_c, mass, damp, c2 = k
    out = lap_c * 0.0 - mass * u - damp * v
    return out if fu is None else out + c2 * fu


def ref_rk4_uniform(dt, k_start, k_mid, k_end, nl, u, v, fu):
    """The scalar RK4 step of `dynamics._rk4_uniform` as a loop over the
    stages of `ref_rhs_cell`: the operations of the array kernel, in its
    order, from the pair (u, v) with f(u) = fu (None without nl), with
    dv/dt's factors (`_coeffs`) at the three stage times. Returns the new
    pair."""
    f = (lambda x: None) if nl is None else nl.f_scalar
    hm = 0.5 * dt
    acc_v = ref_rhs_cell(k_start, u, v, fu)
    su, sv, acc_u = u + hm * v, v + hm * acc_v, v
    for step_next in (hm, dt):
        kv = ref_rhs_cell(k_mid, su, sv, f(su))
        acc_u, acc_v = acc_u + 2.0 * sv, acc_v + 2.0 * kv
        su, sv = u + step_next * sv, v + step_next * kv
    kv = ref_rhs_cell(k_end, su, sv, f(su))
    sixth = dt / 6.0
    return u + sixth * (acc_u + sv), v + sixth * (acc_v + kv)


def mesh_profile(grid, kind, amplitude, width, center) -> np.ndarray:
    """make_profile's values from full meshgrid coordinate arrays: each
    axis term taken on the whole grid and summed from zeros in axis order,
    the Gaussian's exponent as -r2 / (2 w^2)."""
    x = grid.axis_coords()
    mesh = np.meshgrid(*([x] * grid.n), indexing="ij")
    if kind == "plane_mod":
        k = int(round(width)) * np.pi / grid.half_width
        phase = np.zeros(grid.shape)
        for xs, c in zip(mesh, center):
            phase += k * (xs - c)
        return amplitude * np.exp(1j * phase)
    r2 = np.zeros(grid.shape)
    for xs, c in zip(mesh, center):
        r2 += (xs - c) ** 2
    if kind == "gaussian":
        return amplitude * np.exp(-r2 / (2.0 * width * width))
    vals = np.zeros(grid.shape, dtype=np.complex128)
    inside = r2 < width * width
    s = r2[inside] / (width * width)
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s))
    return vals


def stage_factors(sf, params, h, t, dt) -> tuple:
    """dv/dt's factors (`_coeffs`) at the stage times t, t + dt/2 and t + dt
    of a step, from sf's own values there: `_rk4`'s arguments after dt."""
    return tuple(_coeffs(sf.eval(s), params, h)
                 for s in (t, t + 0.5 * dt, t + dt))


def ref_F(nl, u):
    """The closed form of the potential in numpy: lam |u|^(p+1) / (p+1)
    (gauge family), sign |u|^p u / (p+1) (real family, on real u)."""
    u = np.asarray(u)
    if nl.real_only:
        return nl.sign * np.abs(u) ** nl.p * u / (nl.p + 1.0)
    return nl.lam * np.abs(u) ** (nl.p + 1.0) / (nl.p + 1.0)


def potential_oracle(nl, u):
    """F(u) as the line integral int_0^1 Re(f(s u) conj(u)) ds: valid
    whenever a potential exists, and independent of the closed form. The
    real family takes u real."""
    kind = np.float64 if nl.real_only else np.complex128
    uc = kind(u)

    def integrand(s):
        val = complex(nl.f(kind(s * uc)))
        return (val * uc.conjugate()).real

    # fractional powers make quad's error estimate conservative near s = 0
    val, err = quad(integrand, 0.0, 1.0, limit=200, points=[0.0],
                    epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-7 * max(1.0, abs(val))
    return val


# ---------------------------------------------------------------------------
# reference integrals and functionals, recomputed from the fields: the
# integrals each as its own plain sum, ||grad u||^2 as `ref_grad_sq`, int F
# as the sum of `ref_F`, in the order of operations of `Integrals`


State = namedtuple("State", "t u v")
Arrays = namedtuple("Arrays", "grid values")  # a field in the state's dtype
_REL = 1e-9


def l2_norm_sq(fld) -> float:
    """||u||^2 = integral of |u|^2 over the torus."""
    return float(np.vdot(fld.values, fld.values).real) * fld.grid.cell_volume


def grad_norm_sq(fld) -> float:
    """||grad u||^2 as the quadratic form of the fourth-order Laplacian."""
    return ref_grad_sq(fld.values, fld.grid.spacing) * fld.grid.cell_volume


def inner_re(f1, f2) -> float:
    """Re integral of u conj(v); the real part of the L2 pairing."""
    if f1.grid != f2.grid:
        raise GridMismatch("inner product needs both fields on one grid")
    return float(np.vdot(f2.values, f1.values).real) * f1.grid.cell_volume


def integrate_F(nl, fld) -> float:
    """Integral of the potential F(u) over the torus."""
    return float(np.sum(ref_F(nl, fld.values))) * fld.grid.cell_volume


def ref_energy(state, sf, params, nl):
    a, _, _ = sf.eval(state.t)
    c2 = params.c * params.c
    e = 0.5 * l2_norm_sq(state.v)
    e += 0.5 * c2 / (a * a) * grad_norm_sq(state.u)
    e += 0.5 * params.m * params.m * c2 * l2_norm_sq(state.u)
    if nl is not None:
        e -= c2 * integrate_F(nl, state.u)
    return e


def ref_nehari(state, sf, params, nl):
    a, _, _ = sf.eval(state.t)
    c2 = params.c * params.c
    val = c2 / (a * a) * grad_norm_sq(state.u)
    val += params.m * params.m * c2 * l2_norm_sq(state.u)
    if nl is not None:
        fu = Arrays(state.u.grid, nl.f(state.u.values))
        val -= c2 * inner_re(fu, state.u)
    return val


def ref_rel_E_I_gap(state, sf, params, nl):
    """E minus its structural lower bound (the functionals' docstring)."""
    a, _, _ = sf.eval(state.t)
    c2 = params.c * params.c
    eps = params.eps
    quad_form = (c2 / (a * a) * grad_norm_sq(state.u)
                 + params.m * params.m * c2 * l2_norm_sq(state.u))
    bound = 0.5 * l2_norm_sq(state.v)
    bound += ref_nehari(state, sf, params, nl) / (eps + 2.0)
    bound += eps / (2.0 * (eps + 2.0)) * quad_form
    return ref_energy(state, sf, params, nl) - bound


def ref_rho(u0, u1, sf, params, nl, E0=None):
    """rho; E0, if given, stands for the reference E(0)."""
    mc2 = params.m * params.m * params.c * params.c
    lead = mc2 * params.eps / (2.0 * (params.eps + 2.0)) * l2_norm_sq(u0)
    if E0 is None:
        E0 = ref_energy(State(0.0, u0, u1), sf, params, nl)
    return lead - E0


def ref_delta(u0, u1, t0, sf, params, nl, E0=None):
    """delta; E0, if given, stands for the reference E(t0)."""
    lead = (abs(params.m) * params.c * params.eps / (2.0 * (params.eps + 2.0))
            * inner_re(u0, u1))
    if E0 is None:
        E0 = ref_energy(State(t0, u0, u1), sf, params, nl)
    return lead - E0


def ref_re_tolerance(u0, u1):
    return _REL * (math.sqrt(l2_norm_sq(u0) * l2_norm_sq(u1)) + 1e-300)


def ref_kappa_tilde(mode: str, eps: float) -> float:
    """zeta's weight under a certificate: eps + 1 for the norm-margin one
    ("thm1"), eps/2 + 1 for the velocity-margin one ("thm2")."""
    return {"thm1": eps + 1.0, "thm2": 0.5 * eps + 1.0}[mode]


def ref_kappa(mode: str, eps: float) -> float:
    """The concavity exponent (kappa_tilde - 1)/4 under a certificate:
    eps/4 for "thm1", eps/8 for "thm2", each one division."""
    return {"thm1": eps / 4.0, "thm2": eps / 8.0}[mode]


def ref_classify_table1(u0, u1, t0, sf, params, nl, E0=None, I0=None):
    """The table's label; E0 and I0, if given, stand for the reference
    E(t0) and I(u0)."""
    st_ = State(t0, u0, u1)
    if E0 is None:
        E0 = ref_energy(st_, sf, params, nl)
    if I0 is None:
        I0 = ref_nehari(st_, sf, params, nl)
    re01 = inner_re(u0, u1)
    mt, ct = params.m_tilde, params.c_tilde
    if mt == 0.0 or I0 >= 0.0 or E0 < 0.0 or re01 < -ref_re_tolerance(u0, u1):
        return "none"
    lead = mt * mt * ct * ct * params.eps / (2.0 * (params.eps + 2.0))
    x_big = lead * l2_norm_sq(u0) > E0
    y_big = lead * re01 > E0
    if x_big:
        return "II" if y_big else "I"
    return "III" if y_big else "IV"


class RefRunningIntegrals:
    """The trapezoid accumulator of `functionals.RunningIntegrals`, written
    plainly: each push builds the tuple of the six integrands at t (n *
    rate * x for each rate-weighted one), and with a previous sample adds
    each trapezoid, G's before IG's, which integrates G's old and new
    values."""

    def __init__(self, n: int, c: float):
        self.n = n
        self.c = c
        self.P = 0.0
        self.Q = 0.0
        self.R = 0.0
        self.G = 0.0
        self.IG = 0.0
        self.dissipated = 0.0
        self.light_path = 0.0
        self._prev = None

    def push(self, t, L, ut_sq, re_u_ut, grad_sq, a, adot, addot):
        n, c = self.n, self.c
        rate = adot / a
        cur = (t, n * rate * L, n * rate * ut_sq, n * rate * re_u_ut,
               (adot * adot - addot * a) / (a * a) * L,
               n * rate * ut_sq + c * c * rate / a / a * grad_sq, c / a)
        if self._prev is not None:
            t_prev, p, q, r, g, d, w = self._prev
            half = 0.5 * (t - t_prev)
            self.P += half * (p + cur[1])
            self.Q += half * (q + cur[2])
            self.R += half * (r + cur[3])
            g_old = self.G
            self.G += half * (g + cur[4])
            self.IG += half * (g_old + self.G)
            self.dissipated += half * (d + cur[5])
            self.light_path += half * (w + cur[6])
        self._prev = cur


# ---------------------------------------------------------------------------
# exact values and scalar ODE references

# blow-up time of u'' = u^2, u(0) = 3, u'(0) = 0 (the anchor's spatially
# constant data): (1/sqrt(2)) int_1^inf ds / sqrt(s^3 - 1), frozen quadrature
TSTAR = 1.7173153422544112
# the vanishing time of y'' = -3 y^5 from (1, 0):
# int_0^1 dy / sqrt(1 - y^6) = B(1/6, 1/2) / 6
VANISH_REST = 1.2143253239437908
_ORACLE_RTOL = 1e-10  # homogeneous_oracle: DOP853 tolerance
_ORACLE_CAP = 1e10    # homogeneous_oracle: |u| at the escape event
_VANISH_RTOL = 1e-12  # dop853_vanish: DOP853 tolerance, atol relative to y0


# homogeneous_oracle's solution (t, u, v), the time of its escape event,
# t* and, without a t*, why there is none
OracleResult = namedtuple("OracleResult", "t u v t_event t_star t_star_status")


def homogeneous_oracle(u0: complex, u1: complex, sf: ScaleFactor,
                       params: PhysicalParams, nl: Nonlinearity | None,
                       t_end: float, t0: float = 0.0) -> OracleResult:
    """High-accuracy reference for spatially constant data.

    Integrates u'' + n (adot/a) u' + m^2 c^2 u = c^2 f(u) as a 4-real system
    with DOP853. A terminal event fires at |u| = _ORACLE_CAP; for a real
    escaping trajectory the remaining time to the singularity is the
    converged quadrature of the frozen-damping energy relation, giving t_star
    to far below the PDE tolerance. Without a t_star, t_star_status says why.
    """
    n = params.n
    c2 = params.c * params.c
    m2c2 = params.m * params.m * c2

    def rhs(t, s):
        ur, ui, vr, vi = s
        a, adot, _ = sf.eval(t)
        rate = n * adot / a
        if nl is not None:
            fu = nl.f(np.complex128(complex(ur, ui)))
            fr, fi = fu.real, fu.imag
        else:
            fr = fi = 0.0
        return [vr, vi,
                -rate * vr - m2c2 * ur + c2 * fr,
                -rate * vi - m2c2 * ui + c2 * fi]

    def escape(t, s):
        return s[0] * s[0] + s[1] * s[1] - _ORACLE_CAP * _ORACLE_CAP

    escape.terminal = True
    escape.direction = 1

    sol = solve_ivp(rhs, (t0, t_end), [u0.real, u0.imag, u1.real, u1.imag],
                    method="DOP853", rtol=_ORACLE_RTOL,
                    atol=_ORACLE_RTOL * max(abs(u0), 1.0),
                    events=escape, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    u = sol.y[0] + 1j * sol.y[1]
    v = sol.y[2] + 1j * sol.y[3]
    t_event = t_star = None
    status = f"|u| stays below {_ORACLE_CAP:g} up to t = {sol.t[-1]:.17g}"
    if sol.t_events[0].size:
        t_event = float(sol.t_events[0][0])
        try:
            t_star = t_event + _oracle_tail(sol.sol(t_event), params, nl)
            status = None
        except ValueError as exc:
            status = str(exc)
    return OracleResult(sol.t, u, v, t_event, t_star, status)


def _oracle_tail(s_event, params: PhysicalParams,
                 nl: Nonlinearity | None) -> float:
    """Remaining time from the escape event to the singularity; ValueError
    with the reason when the tail formula does not apply."""
    if nl is None:
        raise ValueError("linear equation: no escape to a singularity")
    ur, ui, vr, vi = s_event
    if abs(ui) > 1e-6 * math.hypot(ur, ui):
        raise ValueError("the trajectory left the real axis")
    sgn = 1.0 if ur >= 0 else -1.0
    w_e = sgn * ur
    wp_e = sgn * vr
    if wp_e <= 0:
        raise ValueError("|u| is not growing at the escape event")
    # the coupling of the escape direction: f(sgn w) sgn = lam_eff w^p, w > 0
    lam_eff = sgn * nl.sign if nl.real_only else nl.lam
    if lam_eff <= 0:
        raise ValueError("defocusing coupling along the escape direction")
    p = nl.p
    c2 = params.c * params.c
    m2c2 = params.m * params.m * c2
    coef = 2.0 * c2 * lam_eff / (p + 1.0)
    base = wp_e * wp_e - coef * w_e ** (p + 1.0) + m2c2 * w_e * w_e

    def integrand(x):
        u = w_e / x
        sq = base + coef * u ** (p + 1.0) - m2c2 * u * u
        return (w_e / (x * x)) / math.sqrt(sq)

    tail, _ = quad(integrand, 0.0, 1.0, limit=200)
    return tail


def dop853_vanish(prob):
    """Integrate y'' = -kappa A max(y,0)^(1+1/kappa) from (y0, y1) with
    DOP853 until y crosses zero before T; return the vanishing time and the
    solve_ivp solution."""
    expo = 1.0 + 1.0 / prob.kappa
    coef = prob.kappa * prob.A

    def rhs(t, s):
        y, yp = s
        return [yp, -coef * max(y, 0.0) ** expo]

    def hit_zero(t, s):
        return s[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    sol = solve_ivp(rhs, (prob.t0, prob.T), [prob.y0, prob.y1],
                    method="DOP853", rtol=_VANISH_RTOL,
                    atol=_VANISH_RTOL * prob.y0, events=hit_zero)
    assert sol.success and sol.t_events[0].size, sol.message
    return float(sol.t_events[0][0]), sol


def desitter_oracle(H, a0, t):
    """The de Sitter closed form: a0 e^(Ht), H a and H^2 a."""
    a = a0 * np.exp(H * np.asarray(t, dtype=float))
    return a, H * a, H * H * a


# ---------------------------------------------------------------------------
# shared fixtures


NONLINEARITIES = (None, GaugeInvariantPower(p=2.0, lam=1.0),
                  GaugeInvariantPower(p=3.0, lam=-1.0, eps=2.5),
                  RealAbsPower(p=2.0), RealAbsPower(p=3.0, sign=-1))

def count_calls(mp, owner, name: str) -> list:
    """Count the calls of owner.name for as long as mp is active: of a
    method of the class owner, or of a function of a kgflrw module through
    every loaded module of the package that binds it."""
    calls, func = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return func(*args, **kwargs)

    owners = [owner] if isinstance(owner, type) else [
        mod for key, mod in sys.modules.items()
        if key.startswith("kgflrw.") and getattr(mod, name, None) is func]
    for target in owners:
        mp.setattr(target, name, counting)
    return calls


def scenario_cert(scn):
    """The certificate a run of scn follows: the `TheoremCheck` its
    theorem_mode resolves to on its data, or None."""
    rec = Start(*scn.build_fields(), scn.nl).rec
    return evaluate(rec, scn.run.t0, scn.sf, scn.params,
                    mode=scn.run.theorem_mode).cert


def edited_scenario(name: str, *edits) -> str:
    """The config text of a bundled scenario with each (old, new) edit made,
    each old found exactly once."""
    text = bundled_scenario_text(name)
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def override_text(text: str, key: str, value: float) -> str:
    """The config text with value written on key's first line, or on a new
    last line if no line sets key: how a sweep point's config was written
    before `parse_text` took the point's values."""
    sval = format(float(value), ".17g")
    pat = re.compile(rf"^\s*{re.escape(key)}\s*=")
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if pat.match(ln.split("#", 1)[0]):
            lines[i] = f"{key} = {sval}"
            break
    else:
        lines.append(f"{key} = {sval}")
    return "\n".join(lines) + "\n"


def vehicle_text() -> str:
    """The localized blow-up vehicle: the anchor's physics (flat, m = 0,
    gauge p = 2) with a Gaussian u0 of amplitude 10 and width 0.5, cut to
    t_end = 1.1. It rejects steps and records every step of its tail."""
    gaussian = "data0.kind = gaussian\ndata0.width = 0.5"
    return edited_scenario("minkowski-m0-u2-A3",
                           ("data0.kind = homogeneous", gaussian),
                           ("data0.amplitude = 3.0", "data0.amplitude = 10.0"),
                           ("run.t_end = 1.75", "run.t_end = 1.1"))
