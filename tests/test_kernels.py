"""The stencil and RK4 kernels against plain reference kernels.

The references below are the straightforward np.roll / allocate-per-stage
formulations of the same arithmetic. The kernels in kgflrw.field and
kgflrw.dynamics pad, reuse buffers and write in place, but perform the same
floating-point operations in the same order, so they must agree bit for
bit, including the exact zeros a constant field maps to.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from kgflrw import (DeSitter, GaugeInvariantPower, PhysicalParams, PowerLaw,
                    RealAbsPower, load_bundled_scenario, run)
from kgflrw import dynamics
from kgflrw.cli import trace_csv_text
from kgflrw.dynamics import RK4Workspace, _rhs, _rk4
from kgflrw.field import Stencil, deriv_array, grad_sq_array, lap_array


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


def ref_deriv_array(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order periodic first derivative along one axis."""
    p1 = np.roll(vals, -1, axis=axis)
    m1 = np.roll(vals, 1, axis=axis)
    p2 = np.roll(vals, -2, axis=axis)
    m2 = np.roll(vals, 2, axis=axis)
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)


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


# ---------------------------------------------------------------------------
# helpers


def bits(a: np.ndarray) -> np.ndarray:
    """The raw 64-bit words of a float or complex array (-0.0 != +0.0)."""
    return np.ascontiguousarray(a).view(np.uint64)


def assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(bits(a), bits(b))


@st.composite
def fields(draw, count=1):
    """Random complex fields of dimension 1-3, 8-24 points per axis (axes
    drawn independently, so most shapes are not cubic), plus a spacing h.
    Roughly one draw in four is constant, where the stencils give exact 0."""
    n = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(8, 24), min_size=n, max_size=n)))
    h = draw(st.floats(1e-2, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-3, 3.0))
    out = []
    for _ in range(count):
        if draw(st.integers(0, 3)) == 0:
            z = complex(*rng.normal(size=2)) * scale
            vals = np.full(shape, z, dtype=np.complex128)
        else:
            vals = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        out.append(vals)
    return (h, *out)


# ---------------------------------------------------------------------------
# stencils


@settings(max_examples=60, deadline=None)
@given(fields())
def test_stencils_match_reference_bitwise(case):
    h, vals = case
    ws = Stencil(vals.shape)
    ref = ref_lap_array(vals, h)
    assert_bitwise(lap_array(vals, h), ref)
    out = np.empty_like(vals)
    for _ in range(2):  # a reused workspace carries nothing over
        assert_bitwise(lap_array(vals, h, ws, out=out), ref)
    total = 0.0
    for ax in range(vals.ndim):
        d = ref_deriv_array(vals, ax, h)
        assert_bitwise(deriv_array(vals, ax, h), d)
        assert_bitwise(deriv_array(vals, ax, h, ws), d)
        total += float(np.vdot(d, d).real)
    assert grad_sq_array(vals, h, ws) == total
    if np.all(vals == vals.flat[0]):
        assert not np.any(bits(ref))  # +0.0 everywhere


def test_stencils_on_real_arrays_and_signed_zeros():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(12, 9))
    assert_bitwise(lap_array(vals, 0.3), ref_lap_array(vals, 0.3))
    assert_bitwise(deriv_array(vals, 1, 0.3), ref_deriv_array(vals, 1, 0.3))
    # +0.0 cells between -0.0 neighbours: the sum over axes starts from zero
    for shape in ((16,), (16, 8)):
        zeros = np.zeros(shape, dtype=np.complex128)
        zeros.real[1::2] = -0.0
        assert_bitwise(lap_array(zeros, 0.3), ref_lap_array(zeros, 0.3))
        assert_bitwise(lap_array(zeros.real.copy(), 0.3),
                       ref_lap_array(zeros.real.copy(), 0.3))


# ---------------------------------------------------------------------------
# RHS and RK4 step


BACKGROUNDS = (PowerLaw(0.0, H=0.0), PowerLaw(0.0, H=0.7),
               PowerLaw(-0.5, H=0.4), DeSitter(H=0.5))
NONLINEARITIES = (None, GaugeInvariantPower(p=2.0, lam=1.0),
                  GaugeInvariantPower(p=3.0, lam=-1.0, eps=2.5),
                  RealAbsPower(p=2.0))


@settings(max_examples=60, deadline=None)
@given(fields(count=2), st.sampled_from(BACKGROUNDS),
       st.sampled_from(NONLINEARITIES), st.floats(0.0, 1.5),
       st.floats(0.0, 2.0), st.floats(1e-4, 0.05), st.floats(0.5, 2.0))
def test_rk4_matches_reference_bitwise(case, sf, nl, t, m, dt, c):
    h, u, v = case
    if nl is not None and nl.real_only:
        u, v = u.real.astype(np.complex128), v.real.astype(np.complex128)
    sf = type(sf)(**{**sf.__dict__, "n": u.ndim})
    params = PhysicalParams(m=m, c=c, eps=1.0, n=u.ndim)
    u_keep, v_keep = u.copy(), v.copy()
    ws = RK4Workspace(u, v)

    _, dv_ref = ref_rhs(t, u, v, sf, params, nl, h)
    assert_bitwise(_rhs(t, u, v, sf, params, nl, h, ws, ws.kv), dv_ref)

    u_ref, v_ref = ref_rk4(t, u, v, dt, sf, params, nl, h)
    for _ in range(2):  # a retried step from the same state
        u_new, v_new = _rk4(t, dt, sf, params, nl, h, ws)
        assert_bitwise(u_new, u_ref)
        assert_bitwise(v_new, v_ref)
        # the accepted state is read, never written
        assert_bitwise(ws.u, u_keep)
        assert_bitwise(ws.v, v_keep)
    ws.accept()
    assert ws.u is u_new and ws.v is v_new
    assert ws.trial_u is u and ws.trial_v is v


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BACKGROUNDS), st.floats(0.0, 5.0))
def test_scalar_eval_matches_array_eval(sf, t):
    """The Python-float path of eval gives the bits of the array path."""
    scalar = sf.eval(t)
    assert all(type(x) is float for x in scalar)
    assert [x.hex() for x in scalar] == [
        float(x).hex() for x in sf.eval(np.asarray(t))]


def test_run_matches_reference_rk4(monkeypatch):
    """The anchor blow-up run, once with the kernel and once with the
    reference step patched in, records the same trace bit for bit. The run
    rejects steps and records its tail every step, so both paths are
    covered."""
    scn = load_bundled_scenario("minkowski-m0-u2-A3")
    u0, u1 = scn.build_fields()

    def simulate():
        return run(u0, u1, scn.sf, scn.params, scn.nl, scn.run,
                   T_bound=math.pi ** 2, mode="thm1")

    fast = simulate()

    def reference_step(t, dt, sf, params, nl, h, ws):
        u_new, v_new = ref_rk4(t, ws.u, ws.v, dt, sf, params, nl, h)
        ws.trial_u[...] = u_new
        ws.trial_v[...] = v_new
        return ws.trial_u, ws.trial_v

    monkeypatch.setattr(dynamics, "_rk4", reference_step)
    slow = simulate()

    assert fast.meta["rejected"] > 0
    assert sum(1 for r in fast.rows if r.L >= 1e8 * fast.meta["L0"]) >= 12
    assert trace_csv_text(fast) == trace_csv_text(slow)
    assert fast.meta == slow.meta
    assert fast.blowup == slow.blowup
    assert fast.blowup.t_star is not None
