"""The stencil and RK4 kernels against plain reference kernels.

The references (`oracles.py`) are the straightforward np.roll /
allocate-per-stage formulations. The Laplacian kernel sums in another
order: the pairwise sums Sk = sum over axes of (f_{i+k} + f_{i-k}) in
16 (S1 - 2n f) - (S2 - 2n f), with its scale 1 / (12 h^2) folded into
dv/dt's factor in a step, or into the gradient's quadratic form
-Re sum conj(v) D2 v after its sum. So the Laplacian, the gradient and the
RK4 step are held to the references within rounding bounds derived from
their operation counts (`lap_bound`, `grad_bound`, `ref_rk4_gap`), and a
constant field still maps to +0.0 in every cell in both. Stage 1 of a step
reads the Laplacian sum that the measurement of the accepted state left
behind; it is held bit for bit to the step whose stage 1 sweeps the
stencil itself (`lap_stage1_step`).

A run on uniform data skips the stencil and steps one scalar pair, with f
in Python arithmetic (`f_scalar`). The pair must equal every cell of the
reference step bit for bit where that f has numpy's operations (gauge
p = 2 on float64), and elsewhere lie within a bound from the per-call
errors of libm's pow and hypot and numpy's power and complex abs
(`eval_err`). It measures that pair as one cell times the box volume, where
the reference run, with the uniform path forced off and the same f at
every cell, sums the N equal cells with BLAS in another order; the two runs
take the same steps, and each trace column is held to a summation bound
from its terms, plus the per-call error of f where it takes it.

On real data the kernels also run in float64. There the complex kernel is
the oracle: the float64 stencils and RK4 step must give its real part bit
for bit. A reduction sums in the array's own dtype, BLAS ddot on float64 and
zdotc on complex128, in other orders, so the float64 sums are held to whole
array zdotc of the same data within the summation bound
gamma_n sum |a_i b_i| (Higham, Accuracy and Stability of Numerical
Algorithms, section 3.1), and a float64 run takes the steps of the complex
run of the same data.

The kernels sweep the padded buffer in slabs of axis-0 planes; the test
grids mostly fit one slab, so the last section shrinks `field.SLAB_BYTES`
to get several slabs and a ragged last one, and holds those sweeps to the
one-slab kernel bit for bit.
"""

import dataclasses
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kgflrw import (DeSitter, GaugeInvariantPower, Grid, PhysicalParams,
                    PowerLaw, RealAbsPower, config, load_bundled_scenario,
                    run)
from kgflrw import dynamics, field, functionals
from kgflrw.cli import trace_csv_text
from kgflrw.dynamics import RK4Workspace, RunConfig, Start, _rhs_slab, _rk4
from kgflrw.field import (Field, Stencil, dot_re, grad_sq_array, lap_array,
                          lap_slab, make_profile)
from kgflrw.functionals import (Integrals, is_uniform, norm_integrals,
                                potential_integrals)
from oracles import (NONLINEARITIES, count_calls, edited_scenario, eval_gap,
                     exact, gamma, grad_bound, lap_bound, ref_cell_dot,
                     ref_grad_sq, ref_lap_array, ref_rk4, ref_rk4_gap,
                     ref_kappa, ref_kappa_tilde, ref_rk4_uniform, same_bits,
                     scenario_cert, stage_factors, vehicle_text)


# ---------------------------------------------------------------------------
# helpers


def whole(x, like: np.ndarray) -> np.ndarray:
    """x, an array of a workspace, or a uniform workspace's scalar as the
    whole array of like's shape and dtype that has it in every cell."""
    if isinstance(x, np.ndarray):
        return x
    assert type(x) is (float if like.dtype == np.float64 else complex)
    return np.full(like.shape, x, like.dtype)


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


def assert_cells_within(got: np.ndarray, want: np.ndarray,
                        bound: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.all(np.abs(got - want) <= bound)


def assert_step_within(got: tuple, want: tuple) -> None:
    """The kernel's (u, v) within the gaps of the reference's."""
    for x, w in zip(got, want):
        assert_cells_within(
            x, w.x if x.dtype == w.x.dtype else real_part(w.x), w.gap)


# ---------------------------------------------------------------------------
# stencils


@settings(max_examples=60, deadline=None)
@given(fields())
def test_stencils_match_reference_bitwise(case):
    """The Laplacian within lap_bound of the reference, with the same bits
    again from a reused workspace; the gradient within grad_bound of the
    reference quadratic form, with the same bits again from a reused
    workspace, which leave in out the sum that lap_array scales; a constant
    field maps to +0.0 in every cell and has gradient 0."""
    h, vals = case
    ws = Stencil(vals.shape)
    ref = ref_lap_array(vals, h)
    lap = lap_array(vals, h)
    assert_cells_within(lap, ref, lap_bound(vals, h))
    out = np.empty_like(vals)
    for _ in range(2):  # a reused workspace carries nothing over
        assert same_bits(lap_array(vals, h, ws, out=out), lap)
    grad = grad_sq_array(vals, h)
    assert abs(grad - ref_grad_sq(vals, h)) <= grad_bound(vals, h)
    for _ in range(2):
        assert grad_sq_array(vals, h, ws, out=out).hex() == grad.hex()
        assert same_bits(out * (1.0 / (12.0 * h * h)), lap)
    if np.all(vals == vals.flat[0]):
        assert same_bits(lap, np.zeros_like(lap))
        assert same_bits(ref, np.zeros_like(ref))
        assert grad == 0.0 == ref_grad_sq(vals, h)


def test_stencils_on_real_arrays_and_signed_zeros():
    """On zeros of both signs, +0.0 cells between -0.0 neighbours, the
    Laplacian is a zero (its sign is not fixed), and on real input it is
    the real part of the complex kernel's on the same data bit for bit, as
    on the random data of the tests below."""
    for shape in ((16,), (16, 8)):
        zeros = np.zeros(shape, dtype=np.complex128)
        zeros.real[1::2] = -0.0
        lap = lap_array(zeros, 0.3)
        assert np.all(lap == 0.0)
        assert same_bits(lap_array(zeros.real.copy(), 0.3), real_part(lap))


# ---------------------------------------------------------------------------
# RHS and RK4 step


BACKGROUNDS = (PowerLaw(0.0, H=0.0), PowerLaw(0.0, H=0.7),
               PowerLaw(-0.5, H=0.4), DeSitter(H=0.5))


@settings(max_examples=60, deadline=None)
@given(fields(count=2), st.sampled_from(BACKGROUNDS),
       st.sampled_from(NONLINEARITIES), st.floats(0.0, 1.5),
       st.floats(0.0, 2.0), st.floats(1e-4, 0.05), st.floats(0.5, 2.0))
def test_rk4_matches_reference_bitwise(case, sf, nl, t, m, dt, c):
    """One step within the rounding bound of the reference step
    (`ref_rk4_gap`, whose values are the reference's bits), and a step
    retried from the same state after `reject()` gives the same bits."""
    h, u, v = case
    if nl is not None and nl.real_only:  # the real family takes float64
        u, v = u.real.copy(), v.real.copy()
    sf = dataclasses.replace(sf, n=u.ndim)
    params = PhysicalParams(m=m, c=c, eps=1.0, n=u.ndim)
    u_keep, v_keep = u.copy(), v.copy()
    ws = RK4Workspace(u, v, nl, h)
    u_old, v_old = ws.u, ws.v  # the arrays, or a uniform state's scalars

    want = ref_rk4_gap(t, *exact(u, v), dt, sf, params, nl, h)
    for w, x in zip(want, ref_rk4(t, u, v, dt, sf, params, nl, h)):
        assert same_bits(w.x, x)
    k = stage_factors(sf, params, h, t, dt)
    steps = []
    for _ in range(2):  # a retried step from the same state
        u_new, v_new = _rk4(dt, *k, nl, ws)
        steps.append([whole(x, u).copy() for x in (u_new, v_new)])
        assert_step_within(steps[-1], want)
        # the accepted state is read, never written
        assert same_bits(whole(ws.u, u_keep), u_keep)
        assert same_bits(whole(ws.v, v_keep), v_keep)
        ws.reject()
    for x, y in zip(*steps):
        assert same_bits(x, y)
    ws.accept()
    assert ws.u is u_new and ws.v is v_new
    assert ws.trial_u is u_old and ws.trial_v is v_old


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BACKGROUNDS), st.floats(0.0, 5.0))
def test_scalar_eval_matches_array_eval(sf, t):
    """The Python-float path of eval gives the bits of the array path."""
    scalar = sf.eval(t)
    assert all(type(x) is float for x in scalar)
    assert [x.hex() for x in scalar] == [
        float(x).hex() for x in sf.eval(np.asarray(t))]


def reference_step(t, dt, sf, params, nl, h, ws):
    """A step of the reference kernel from time t, into the trial buffers
    of ws, as `_rk4` writes them."""
    u_new, v_new = ref_rk4(t, ws.u, ws.v, dt, sf, params, nl, h)
    ws.trial_u[...] = u_new
    ws.trial_v[...] = v_new
    return ws.trial_u, ws.trial_v


class CellwiseF(NamedTuple):
    """nl with its f taken cell by cell by nl.f_scalar, for ref_rk4."""

    nl: object

    def f(self, u: np.ndarray) -> np.ndarray:
        return np.array([self.nl.f_scalar(x) for x in u.ravel().tolist()]
                        ).reshape(u.shape)


def cellwise_reference_step(t, dt, sf, params, nl, h, ws):
    """reference_step with the scalar f of a uniform run at every cell."""
    return reference_step(t, dt, sf, params,
                          None if nl is None else CellwiseF(nl), h, ws)


def run_fields(u0, u1, sf, params, nl, cfg, **kwargs):
    """run() from the data (u0, u1)."""
    return run(Start(u0, u1, nl), sf, params, cfg, **kwargs)


def reference_run(monkeypatch, *args, step=None, reference=reference_step,
                  **kwargs):
    """`run_fields` with the uniform path forced off, so that every stage
    and every gradient goes through the stencil, and with step, a kernel
    of `_rk4`'s arguments, in its place. By default step is reference (a
    step of `reference_step`'s arguments) bound to the run's sf, params and
    h at the time of the run's stepper: it evaluates the scale factor
    itself and reads none of the stepper's factors."""
    u0, _, sf, params, _, _ = args
    steppers = []

    class Stepper(dynamics.Stepper):
        def __init__(self, *init_args):
            super().__init__(*init_args)
            steppers.append(self)

    def bound(dt, k_start, k_mid, k_end, nl, ws):
        return reference(steppers[-1].state.t, dt, sf, params, nl,
                         u0.grid.spacing, ws)

    with monkeypatch.context() as mp:
        mp.setattr(dynamics, "Stepper", Stepper)
        mp.setattr(dynamics, "_rk4", step or bound)
        mp.setattr(dynamics, "is_uniform", lambda u, v: False)
        return run_fields(*args, **kwargs)


def assert_same_steps(fast, slow) -> None:
    """Two runs take the same steps and end alike: the t, dt and wrap
    margin of every row, the step counts, t_final and the ending are equal.
    t* and its uncertainty, fitted to L values that may differ in their
    last bits, agree to a thousandth of that uncertainty."""
    assert [(r.t, r.dt, r.wrap_margin) for r in fast.rows] == [
        (r.t, r.dt, r.wrap_margin) for r in slow.rows]
    for key in ("accepted", "rejected", "t_final", "reached_t_end"):
        assert fast.meta[key] == slow.meta[key]
    fb, sb = fast.blowup, slow.blowup
    if fb is None or sb is None:
        assert fb is sb is None
        return
    fit = {"t_star": None, "t_star_uncertainty": None}
    assert dataclasses.replace(fb, **fit) == dataclasses.replace(sb, **fit)
    assert (fb.t_star is None) == (sb.t_star is None)
    if sb.t_star is not None:
        tol = 1e-3 * sb.t_star_uncertainty
        assert abs(fb.t_star - sb.t_star) <= tol
        assert abs(fb.t_star_uncertainty - sb.t_star_uncertainty) <= tol


def assert_columns_within_sum_bound(fast, slow, params, cells: int,
                                    nl) -> None:
    """Each trace column of a uniform run, measured as one cell times the
    box volume, against the run that sums the `cells` equal cells with
    BLAS, from the same states. The one-cell measure is within gamma_4 of
    the exact sum (two products, a sum, the volume and its product), a BLAS
    sum within gamma_(cells + 2) (the sum, the complex product and the cell
    volume), and a column combines them with a few roundings more, so the
    two may differ by gamma_(cells + 8) times the sum of the absolute
    values of the column's terms. The terms come from the stencil run's
    row: the gradient is 0 on uniform data, |Re(u, u_t)| sums to at most
    sqrt(||u||^2 ||u_t||^2) (plus |Re(u, u_t)| itself, which stands in
    where ||u_t||^2 underflows to 0), a history integral (P, Q, R, IG and
    theta's anchor term) counts as one term, and Hdiag's E(t0) term brings
    the terms of E at t0. The uniform run's f of the cell is nl's
    f_scalar, the stencil run's numpy's f of each cell: the term
    c^2 Re int f(u) conj(u) of I (whose terms f(u) conj(u) share one sign)
    may move by eval_gap of f more, and so may the columns that take I.
    Both runs take int F as that integral over p + 1, one rounding more
    each, so the term c^2 int F of E may move by eval_gap of f and two
    roundings more: by eval_gap of F, which exceeds eval_gap of f by more
    than the error of numpy's and Python's |u| (6 U), and so may the
    columns that take E."""
    g = gamma(cells + 8)
    g_E = g_I = g
    if nl is not None:
        g_E, g_I = g + eval_gap(nl, "F"), g + eval_gap(nl, "f")
    col_g = {"E": g_E, "Hdiag": g_E, "I": g_I, "theta_second": g_I,
             "zeta": g_I}
    m2c2 = (params.m * params.c) ** 2

    def close(x: float, y: float, scale: float, g: float = g) -> bool:
        return (x == y or math.isnan(x) and math.isnan(y)
                or abs(x - y) <= g * scale)

    def energy_terms(s) -> float:
        half = 0.5 * s.ut_sq + 0.5 * m2c2 * s.L
        return half + abs(half - s.E)  # the last term is c^2 |int F|

    assert close(fast.meta["L0"], slow.meta["L0"], slow.meta["L0"])
    hd_den = abs(params.m) * params.c * params.eps
    # in the run's order, product then quotient: a subnormal |m| whose
    # reciprocal overflows meets E(t0) = 0 as 0 / hd_den, not as inf * 0
    s_E0 = (4.0 * (params.eps + 2.0) * energy_terms(slow.rows[0]) / hd_den
            if hd_den > 0.0 else math.nan)
    for f, s in zip(fast.rows, slow.rows):
        s_Lp = 2.0 * math.sqrt(s.L * s.ut_sq) + abs(s.Lp)
        s_E = energy_terms(s)
        s_I = m2c2 * s.L + abs(m2c2 * s.L - s.I)  # c^2 |Re int f conj u|
        s_theta = s.L + abs(s.theta - s.L)
        scales = {"L": s.L, "ut_sq": s.ut_sq, "Lp": s_Lp, "E": s_E,
                  "I": s_I, "theta": s_theta,
                  "theta_prime": s_Lp + abs(s.theta_prime - s.Lp),
                  "theta_second": 2.0 * (s.ut_sq + s_I),
                  # (L + P)(||u_t||^2 + Q) - (Re(u, u_t) + R)^2
                  "eta": 2.0 * abs(s.eta) + s.theta_prime ** 2,
                  "Hdiag": s_Lp + s_E0}
        if s.mode != "none":
            kt = ref_kappa_tilde(s.mode, params.eps)
            k = ref_kappa(s.mode, params.eps)
            lead = (kt + 1.0) * s.ut_sq + 2.0 * s.I
            scales["zeta"] = ((kt + 1.0) * s.ut_sq + 2.0 * s_I
                              + abs(s.zeta + lead))
            scales["theta_negk"] = abs(s.theta_negk) * (
                1.0 + k * s_theta / s.theta)
        for name, scale in scales.items():
            assert close(getattr(f, name), getattr(s, name), scale,
                         col_g.get(name, g)), name
        for name in ("zeta", "theta_negk"):
            if name not in scales:
                assert math.isnan(getattr(f, name))
                assert math.isnan(getattr(s, name))


@pytest.mark.parametrize("bump", [0.0, 0.01], ids=["uniform", "gaussian"])
def test_run_matches_reference_rk4(monkeypatch, bump):
    """The anchor blow-up run, once with the kernel and once with the
    reference step patched in. The anchor's uniform data take the path
    without the stencil: the same steps and the same blow-up, each column
    within the summation bound of the stencil run's. A small Gaussian added
    to u0 takes the stencil and records the same trace bit for bit. Both
    runs reject steps and record their tail every step, so both step
    outcomes are covered."""
    scn = load_bundled_scenario("minkowski-m0-u2-A3")
    u0, u1 = scn.build_fields()
    u0 = Field(scn.grid, u0.values + make_profile(
        scn.grid, "gaussian", bump, width=1.0).values)
    args = (u0, u1, scn.sf, scn.params, scn.nl, scn.run)
    kwargs = dict(cert=scenario_cert(scn))

    with monkeypatch.context() as mp:
        laps = count_calls(mp, dynamics, "lap_slab")
        fast = run_fields(*args, **kwargs)
    assert (len(laps) == 0) == (bump == 0.0)
    slow = reference_run(monkeypatch, *args, **kwargs)

    assert fast.meta["rejected"] > 0
    assert sum(1 for r in fast.rows if r.L >= 1e8 * fast.meta["L0"]) >= 12
    assert fast.blowup.t_star is not None
    assert_same_steps(fast, slow)
    if bump == 0.0:
        assert_columns_within_sum_bound(fast, slow, scn.params,
                                        u0.values.size, scn.nl)
    else:
        assert trace_csv_text(fast) == trace_csv_text(slow)
        assert fast.meta == slow.meta
        assert fast.blowup == slow.blowup


@st.composite
def uniform_problems(draw):
    """Uniform data on a small grid of dimension 1-3: a real or complex
    amplitude, a velocity that is a constant or a mix of +0.0 and -0.0
    cells; a gauge power with p in (1, 5], the real family (on real data)
    or no nonlinearity; a power-law or de Sitter background."""
    n = draw(st.integers(1, 3))
    grid = Grid(n=n, points_per_axis=8, half_width=math.pi)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())
    amp = complex(draw(st.floats(0.3, 10.0)),
                  0.0 if real else draw(st.floats(-2.0, 2.0)))
    u0 = Field(grid, np.full(grid.shape, amp))
    vel = draw(st.sampled_from(["zeros", "real", "complex"]))
    if vel == "zeros":
        v = np.where(rng.random(grid.shape) < 0.5, 0.0, -0.0)
    else:
        v = np.full(grid.shape, complex(
            draw(st.floats(-1.0, 1.0)),
            draw(st.floats(-1.0, 1.0)) if vel == "complex" else 0.0))
    u1 = Field(grid, v)
    p = draw(st.one_of(st.sampled_from([2.0, 3.0]), st.floats(1.05, 5.0)))
    family = draw(st.sampled_from(["gauge", "real", "none"]))
    nl = {"gauge": GaugeInvariantPower(p=p, lam=draw(st.sampled_from(
              [1.0, -1.0]))),
          "real": RealAbsPower(p=p, sign=draw(st.sampled_from([1, -1]))),
          "none": None}[family]
    if family == "real":
        u0, u1 = (Field(grid, f.values.real) for f in (u0, u1))
    H = draw(st.floats(0.0, 0.8))
    sf = draw(st.sampled_from([PowerLaw(draw(st.sampled_from(
        [0.0, 1.0, -0.5])), H=H, n=n), DeSitter(H=H, n=n)]))
    params = PhysicalParams(m=draw(st.floats(0.0, 2.0)), c=1.0,
                            eps=1.0 if nl is None else nl.eps, n=n)
    cfg = RunConfig(t_end=0.8, dt=draw(st.floats(0.005, 0.05)),
                    record_every=draw(st.integers(1, 3)),
                    blowup_threshold=1e4, theorem_mode="none")
    return u0, u1, sf, params, nl, cfg


@settings(max_examples=40, deadline=None)
@given(uniform_problems(), st.data())
def test_uniform_run_matches_stencil_run(problem, data):
    """A run on uniform data takes no stencil and takes the steps of the
    reference step with the uniform path forced off and f_scalar at every
    cell (the uniform step's f, whose distance from numpy's f the step test
    above bounds): the same t and dt on every row, the same counts and the
    same blow-up, with each column within the summation bound of the
    stencil run's. The same data with one cell of u0 or u1 moved by one ulp
    take the stencil."""
    u0, u1, sf, params, nl, cfg = problem
    args = (u0, u1, sf, params, nl, cfg)
    assert is_uniform(*functionals.state_arrays(u0, u1))
    with pytest.MonkeyPatch.context() as mp:
        laps = count_calls(mp, dynamics, "lap_slab")
        grads = count_calls(mp, dynamics, "grad_sq_array")
        fast = run_fields(*args)
        assert not laps and not grads
        slow = reference_run(mp, *args, reference=cellwise_reference_step)
    assert len(fast.rows) > 1
    assert_same_steps(fast, slow)
    assert_columns_within_sum_bound(fast, slow, params, u0.values.size, nl)

    moved = data.draw(st.sampled_from([0, 1]))
    vals = [u0.values.copy(), u1.values.copy()]
    cell = data.draw(st.integers(0, vals[moved].size - 1))
    flat = vals[moved].reshape(-1)
    flat[cell] = complex(np.nextafter(flat[cell].real, np.inf),
                         flat[cell].imag)
    u0, u1 = (Field(u0.grid, x) for x in vals)
    assert not is_uniform(*functionals.state_arrays(u0, u1))
    with pytest.MonkeyPatch.context() as mp:
        laps = count_calls(mp, dynamics, "lap_slab")
        run_fields(u0, u1, sf, params, nl, cfg)
        assert laps


# ---------------------------------------------------------------------------
# stage 1 from the measurement of the accepted state


def lap_stage1_step(dt, k_start, k_mid, k_end, nl, ws):
    """`_rk4` whose every stage loads its input, sweeps it with `lap_slab`
    and evaluates f: u is loaded again, its f(u) evaluated again, and stage
    1 calls `lap_slab` on the load; trial_v is filled with NaN first, so a
    sum left there reaches no result. Stages 2 to 4 are `_rk4`'s."""
    if ws.uniform:
        return _rk4(dt, k_start, k_mid, k_end, nl, ws)
    ws.stencil.load(ws.u)
    ws.fu = None if nl is None else nl.f(ws.u)
    ws.trial_v.fill(np.nan)
    hm = 0.5 * dt
    for slab, u, v, _, acc_v, su, sv, _, tmp, f_out in ws.slabs:
        _rhs_slab(slab, lap_slab(slab), k_start, u, v, nl, acc_v, tmp, f_out,
                  ws.fu)
        np.multiply(hm, v, out=su)
        np.add(u, su, out=su)
        np.multiply(hm, acc_v, out=sv)
        np.add(v, sv, out=sv)
    for stage, step_next in ((2, hm), (3, dt)):
        ws.stencil.load(ws.su)
        for slab, u, v, acc_u, acc_v, su, sv, kv, tmp, f_out in ws.slabs:
            _rhs_slab(slab, lap_slab(slab), k_mid, su, sv, nl, kv, tmp,
                      f_out, None)
            np.multiply(step_next, sv, out=su)
            np.add(u, su, out=su)
            np.multiply(2.0, sv, out=sv)
            np.add(v if stage == 2 else acc_u, sv, out=acc_u)
            np.multiply(step_next, kv, out=sv)
            np.add(v, sv, out=sv)
            np.multiply(2.0, kv, out=kv)
            np.add(acc_v, kv, out=acc_v)
    ws.stencil.load(ws.su)
    sixth = dt / 6.0
    for slab, u, v, acc_u, acc_v, su, sv, kv, tmp, f_out in ws.slabs:
        _rhs_slab(slab, lap_slab(slab), k_end, su, sv, nl, kv, tmp, f_out,
                  None)
        np.add(acc_u, sv, out=acc_u)
        np.add(acc_v, kv, out=acc_v)
        np.multiply(sixth, acc_u, out=acc_u)
        np.add(u, acc_u, out=acc_u)
        np.multiply(sixth, acc_v, out=acc_v)
        np.add(v, acc_v, out=acc_v)
    return ws.trial_u, ws.trial_v


def budget_step(limit: int):
    """`_rk4` that fails the test on its call past limit: a run that
    reuses a stale load or f(u) may shrink its steps toward dt_min and run
    on instead of ending."""
    calls = []

    def step(*args):
        calls.append(None)
        assert len(calls) <= limit, "more steps than the fresh run took"
        return _rk4(*args)
    return step


def assert_same_run(fast, fresh) -> None:
    """Two runs with the same trace, bit for bit (every field of every
    row, by repr, so that NaNs compare), and the same ending."""
    assert trace_csv_text(fast) == trace_csv_text(fresh)
    assert [list(map(repr, dataclasses.astuple(r))) for r in fast.rows] == [
        list(map(repr, dataclasses.astuple(r))) for r in fresh.rows]
    assert fast.meta == fresh.meta and fast.blowup == fresh.blowup


def test_vehicle_reuse_matches_fresh_stages(monkeypatch):
    """The localized blow-up vehicle, whose stage 1 takes the Laplacian
    sum and f(u) of the accepted state's measurement (4 x attempted steps
    + 1 loads: one per measurement, one per rejection and one per later
    stage), against the run whose every stage loads, sweeps and evaluates f
    (`lap_stage1_step`; 4 x attempted steps + accepted + rejected + 1 loads)
    and against the reference step: the same trace bit for bit, and the reference's
    steps. The vehicle rejects steps, records every step of its tail and
    runs past rows taken record_every steps apart. Both kernel runs take
    the stencil path as `reference_run` sets it up."""
    scn = config.parse_text(vehicle_text())
    args = (*scn.build_fields(), scn.sf, scn.params, scn.nl, scn.run)
    kwargs = dict(cert=scenario_cert(scn))
    with monkeypatch.context() as mp:
        loads = count_calls(mp, Stencil, "load")
        fresh = reference_run(mp, *args, step=lap_stage1_step, **kwargs)
        fresh_loads = len(loads)
        del loads[:]
        accepted, rejected = fresh.meta["accepted"], fresh.meta["rejected"]
        fast = reference_run(mp, *args, step=budget_step(accepted + rejected),
                             **kwargs)
    assert rejected > 0 and fresh.blowup.reason == "norm_threshold"
    assert sum(1 for r in fresh.rows if r.L >= 1e8 * fresh.meta["L0"]) >= 12
    assert fresh_loads == 5 * (accepted + rejected) + 1
    assert len(loads) == 4 * (accepted + rejected) + 1
    assert_same_run(fast, fresh)
    assert_same_steps(fast, reference_run(monkeypatch, *args, **kwargs))


@st.composite
def rejecting_problems(draw):
    """Small 2D and 3D runs that reject steps: u1 is u0 times s in
    [0.5, 2] (so ||u||^2 grows at the rate 2 s) with a little noise, and
    growth_tol = 1e-3 rejects every step longer than about 5e-4 / s until
    dt_min = dt / 64. Real or complex data, any family or none, rows every
    1 to 3 steps, and the stencil in one slab or in several."""
    n = draw(st.integers(2, 3))
    N = draw(st.sampled_from([8, 10, 12]))
    grid = Grid(n=n, points_per_axis=N, half_width=math.pi)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())
    u0 = rng.normal(size=grid.shape) + (0 if real else 1j) * rng.normal(
        size=grid.shape)
    u0 *= draw(st.floats(0.2, 2.0))
    noise = rng.normal(size=grid.shape) + (0 if real else 1j) * rng.normal(
        size=grid.shape)
    u1 = draw(st.floats(0.5, 2.0)) * u0 + 1e-3 * noise
    nl = draw(st.sampled_from(NONLINEARITIES))
    if nl is not None and nl.real_only:
        u0, u1 = u0.real, u1.real
    dt = 0.3 * grid.spacing
    cfg = RunConfig(t_end=8 * dt, dt=dt, dt_min=dt / 64, growth_tol=1e-3,
                    record_every=draw(st.integers(1, 3)),
                    theorem_mode="none")
    params = PhysicalParams(m=draw(st.floats(0.0, 2.0)), c=1.0,
                            eps=1.0 if nl is None else nl.eps, n=n)
    sf = draw(st.sampled_from([PowerLaw(0.0, H=0.0, n=n), DeSitter(H=0.5,
                                                                    n=n)]))
    slab_bytes = draw(st.sampled_from([field.SLAB_BYTES, 1024]))
    return (Field(grid, u0), Field(grid, u1), sf, params, nl, cfg), slab_bytes


@settings(max_examples=30, deadline=None)
@given(rejecting_problems())
def test_reuse_matches_fresh_stages(problem):
    """A drawn run with rejected steps has the trace of the run whose
    every stage loads, sweeps and evaluates f, bit for bit."""
    args, slab_bytes = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "SLAB_BYTES", slab_bytes)
        fresh = reference_run(mp, *args, step=lap_stage1_step)
        attempted = fresh.meta["accepted"] + fresh.meta["rejected"]
        fast = reference_run(mp, *args, step=budget_step(attempted))
    assert fresh.meta["rejected"] > 0
    assert_same_run(fast, fresh)


class CheckedWorkspace(RK4Workspace):
    """An `RK4Workspace` that checks its invariant when it is built, after
    each accept and after each rejection: trial_v holds the Laplacian sum
    of u that lap_array scales, the stencil's padded interior is u, and fu
    is f(u), bit for bit."""

    checks = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.check()

    def accept(self):
        super().accept()
        self.check()

    def reject(self):
        super().reject()
        self.check()

    def check(self):
        assert same_bits(self.trial_v * (1.0 / (12.0 * self.h * self.h)),
                       lap_array(self.u, self.h))
        assert same_bits(self.stencil._inner, self.u)
        if self.nl is None:
            assert self.fu is None
        else:
            assert same_bits(self.fu, self.nl.f(self.u))
        CheckedWorkspace.checks += 1


@settings(max_examples=30, deadline=None)
@given(rejecting_problems())
def test_workspace_holds_u_and_its_f_between_steps(problem):
    """Between steps a run's workspace holds its accepted state's Laplacian
    sum in trial_v, the state loaded in the stencil and its f(u): once
    built, after each accepted step and after each rejected one, whose
    stages write over trial_v and load over u."""
    args, slab_bytes = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "SLAB_BYTES", slab_bytes)
        mp.setattr(dynamics, "RK4Workspace", CheckedWorkspace)
        CheckedWorkspace.checks = 0
        trace = run_fields(*args)
    assert trace.meta["rejected"] > 0
    assert CheckedWorkspace.checks == (1 + trace.meta["accepted"]
                                       + trace.meta["rejected"])


@pytest.mark.parametrize("nl", NONLINEARITIES + (
    GaugeInvariantPower(p=2.5, lam=1.0, eps=1.5), RealAbsPower(p=3.0)))
@pytest.mark.parametrize("sf", BACKGROUNDS)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_uniform_step_matches_reference_bitwise(monkeypatch, sf, nl, dtype):
    """The scalar pair of a uniform workspace against every cell of the
    reference step's result, in both dtypes, on every background and
    family, over two steps, so that the second reads the swapped pairs. It
    takes the reference's bits where f_scalar takes numpy's operations: no
    nonlinearity, or gauge p = 2 on float64. Elsewhere f_scalar takes
    libm's pow (gauge p = 2.5 and real p = 3 take numpy's SIMD power, not
    an integer power) or Python's complex abs, and the pair is within the
    bound of ref_rk4_gap with the scalar f. The workspace holds no array,
    and the step takes no stencil slab, no dv/dt slab and no array f. The
    real family takes float64 data in both cases."""
    if nl is not None and nl.real_only:
        dtype = np.float64
    real = dtype == np.float64
    u, v = (np.full(16, x if real else complex(x, y), dtype)
            for x, y in ((2.5, -1.25), (-0.75, 0.5)))
    params = PhysicalParams(m=0.7, c=1.3, eps=1.0, n=1)
    dt, h = 0.01, 0.1
    ws = RK4Workspace(u, v, nl, h)
    assert ws.uniform and not hasattr(ws, "stencil")
    assert not any(isinstance(x, np.ndarray) for x in vars(ws).values())
    times = (0.4, 0.4 + dt)
    wants = [exact(u, v)]
    for t in times:
        wants.append(ref_rk4_gap(t, *wants[-1], dt, sf, params, nl, h,
                                 scalar=True))
    bitwise = nl is None or (dtype == np.float64
                             and nl == GaugeInvariantPower(p=2.0))
    laps = count_calls(monkeypatch, dynamics, "lap_slab")
    rhs = count_calls(monkeypatch, dynamics, "_rhs_slab")
    array_f = [] if nl is None else count_calls(monkeypatch, type(nl), "f")
    for t, want in zip(times, wants[1:]):
        got = tuple(whole(x, w.x) for x, w in zip(
            _rk4(dt, *stage_factors(sf, params, h, t, dt), nl, ws), want))
        if bitwise:
            for x, w in zip(got, want):
                assert same_bits(x, w.x)
        assert_step_within(got, want)
        ws.accept()
    assert not laps and not rhs and not array_f


SCALAR_NLS = NONLINEARITIES + (GaugeInvariantPower(p=2.5, lam=1.0, eps=1.5),)
# a signed zero, a subnormal, and magnitudes whose products and powers
# overflow to inf and then give nan, or whose complex abs overflows
# (f_scalar's OverflowError branch)
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, 1e160, -1e160, 1e300, -1e300, 1.7e308)


def cell_floats(rng, size: int) -> list:
    """size Python floats: normal draws at magnitudes from 1e-3 to 1e3, one
    in eight replaced by one of SPECIAL_FLOATS."""
    x = rng.normal(size=size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
    special = rng.random(size) < 0.125
    x[special] = rng.choice(SPECIAL_FLOATS, int(special.sum()))
    return x.tolist()


def cell_pair(x: list, real: bool) -> tuple:
    """Two cells from the first four floats of x: floats, or complexes."""
    if real:
        return x[0], x[1]
    return complex(x[0], x[2]), complex(x[1], x[3])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SCALAR_NLS), st.booleans(), st.integers(0, 2**32 - 1))
def test_uniform_step_matches_the_stage_loop_bitwise(nl, real, seed):
    """`_rk4_uniform`, written out stage by stage, against the loop over
    `ref_rhs_cell` that it replaced (`ref_rk4_uniform`), bit for bit, in 50
    steps per example: on every family and without one, on float and
    complex pairs (the real family takes floats), with random dv/dt factors
    at the three stage times and dt from 1e-6 to 1, and SPECIAL_FLOATS
    among them. The trial pair of the workspace is the returned pair, and
    the accepted pair is left as it was. A rounding in one stage reaches
    the new pair's bits in about one step in a hundred, hence the many
    steps."""
    real = real or nl is not None and nl.real_only
    rng = np.random.default_rng(seed)
    for _ in range(50):
        x = cell_floats(rng, 16)
        u, v = cell_pair(x, real)
        ks = [tuple(x[i:i + 4]) for i in (4, 8, 12)]
        dt = 10.0 ** rng.uniform(-6.0, 0.0)
        ws = RK4Workspace(u, v, nl, 0.1)
        assert ws.uniform
        want = ref_rk4_uniform(dt, *ks, nl, u, v, ws.fu)
        assert same_bits(dynamics._rk4_uniform(dt, *ks, nl, ws), want)
        assert same_bits((ws.trial_u, ws.trial_v), want)
        assert ws.u is u and ws.v is v


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SCALAR_NLS), st.booleans(), st.integers(1, 3),
       st.floats(0.5, 4.0), st.integers(0, 2**32 - 1))
def test_one_cell_measure_is_the_cell_dot_bitwise(nl, real, n, half_width,
                                                  seed):
    """The one-cell sums of norm_integrals and potential_integrals, written
    out, against `ref_cell_dot` times the box volume, bit for bit, on 20
    float or complex pairs per example with SPECIAL_FLOATS among them."""
    real = real or nl is not None and nl.real_only
    grid = Grid(n=n, points_per_axis=16, half_width=half_width)
    vol, rng = grid.volume, np.random.default_rng(seed)
    for _ in range(20):
        u, v = cell_pair(cell_floats(rng, 4), real)
        assert same_bits(norm_integrals(u, v, grid), (
            ref_cell_dot(u, u) * vol, ref_cell_dot(v, v) * vol,
            ref_cell_dot(v, u) * vol))
        if nl is not None:
            fu = nl.f_scalar(u)
            re_fu = ref_cell_dot(u, fu) * vol
            assert same_bits(potential_integrals(u, fu, grid, nl),
                             (re_fu / (nl.p + 1.0), re_fu))


# ---------------------------------------------------------------------------
# the float64 path against the complex kernel


def real_part(a: np.ndarray) -> np.ndarray:
    assert a.dtype == np.complex128
    return np.ascontiguousarray(a.real)


@settings(max_examples=60, deadline=None)
@given(fields())
def test_real_stencils_match_complex_kernel_bitwise(case):
    """The float64 stencils give the real part of the complex ones: the
    Laplacian, and the sum the gradient leaves behind. The gradient sums
    the same products r_i S_i in float64 (ddot) as in complex128 (zdotc),
    in other orders and before the same product by the scale: within
    2 gamma_(2N + 1) scale sum |r_i S_i| of the complex value, and within
    grad_bound of the reference, with the same bits from a reused
    workspace."""
    h, vals = case
    r = vals.real.copy()
    z = r.astype(np.complex128)
    ws = Stencil(r.shape, np.float64)
    sums = [np.empty_like(x) for x in (r, z)]
    grad = grad_sq_array(r, h, out=sums[0])
    wide = grad_sq_array(z, h, out=sums[1])
    assert same_bits(sums[0], real_part(sums[1]))
    scale = 1.0 / (12.0 * h * h)
    terms = scale * float(np.sum(np.abs(r * sums[0])))
    assert abs(grad - wide) <= 2.0 * gamma(2 * r.size + 1) * terms
    assert abs(grad - ref_grad_sq(z, h)) <= grad_bound(r, h)
    for _ in range(2):  # a reused workspace carries nothing over
        assert same_bits(lap_array(r, h, ws), real_part(lap_array(z, h)))
        assert grad_sq_array(r, h, ws).hex() == grad.hex()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(8, 64), st.integers(0, 2**32 - 1),
       st.floats(1e-3, 1e3), st.booleans())
@example(1, 64, 0, 3.0, True)  # the anchor's u0
def test_real_dot_within_summation_bound_of_zdotc(n, N, seed, scale,
                                                  uniform):
    """dot_re of float64 arrays (BLAS ddot) against whole-array zdotc of the
    same arrays widened to complex128. Both sum the same products in other
    orders, each within gamma_n sum |a_i b_i| of the exact sum; their
    difference is held to that one bound. Uniform draws have every cell
    equal, like the anchor's 64 cells; the sums can still differ there."""
    rng = np.random.default_rng(seed)
    shape = (N,) * n
    a, b = (scale * (np.full(shape, rng.normal()) if uniform
                     else rng.normal(size=shape)) for _ in range(2))
    for x, y in ((a, a), (b, b), (b, a)):
        wide = float(np.vdot(x.astype(np.complex128),
                             y.astype(np.complex128)).real)
        bound = gamma(x.size) * float(np.sum(np.abs(x * y)))
        assert abs(dot_re(x, y) - wide) <= bound


@settings(max_examples=60, deadline=None)
@given(fields(count=2), st.sampled_from(BACKGROUNDS),
       st.sampled_from(NONLINEARITIES), st.floats(0.0, 1.5),
       st.floats(0.0, 2.0), st.floats(1e-4, 0.05), st.floats(0.5, 2.0))
def test_real_rk4_matches_complex_kernel_bitwise(case, sf, nl, t, m, dt, c):
    """The float64 step gives the real part of the complex step bit for
    bit, and both stay within the rounding bound of the reference over two
    steps; uniform draws step scalar pairs in both dtypes, which must hold
    those bits in every cell. The real family takes float64 data only, so
    its float64 step is held to the reference alone."""
    h, u, v = case
    u, v = u.real.copy(), v.real.copy()
    sf = dataclasses.replace(sf, n=u.ndim)
    params = PhysicalParams(m=m, c=c, eps=1.0, n=u.ndim)
    z, zv = u.astype(np.complex128), v.astype(np.complex128)
    ws = RK4Workspace(u, v, nl, h)
    wz = (None if nl is not None and nl.real_only
          else RK4Workspace(z.copy(), zv.copy(), nl, h))
    assert np.result_type(ws.u) == np.float64
    assert wz is None or wz.uniform == ws.uniform

    want = exact(u, v) if wz is None else exact(z, zv)
    for _ in range(2):  # a step accepted, then the next one
        k = stage_factors(sf, params, h, t, dt)
        u_new, v_new = (whole(x, u) for x in _rk4(dt, *k, nl, ws))
        want = ref_rk4_gap(t, *want, dt, sf, params, nl, h)
        assert_step_within((u_new, v_new), want)
        ws.accept()
        if wz is not None:
            uz_new, vz_new = (whole(x, z) for x in _rk4(dt, *k, nl, wz))
            assert same_bits(u_new, real_part(uz_new))
            assert same_bits(v_new, real_part(vz_new))
            assert_step_within((uz_new, vz_new), want)
            wz.accept()
        t += dt


def workspace_integrals(ws: RK4Workspace, grid: Grid) -> Integrals:
    """The six integrals of the workspace's accepted state, from its
    measurement, as `Start` takes them at t0."""
    return Integrals(*norm_integrals(ws.u, ws.v, grid),
                     ws.grad_sq * grid.cell_volume,
                     *potential_integrals(ws.u, ws.fu, grid, ws.nl))


def workspace_dtypes(monkeypatch) -> list:
    """Record the dtype of every RK4Workspace that run() builds."""
    seen = []
    init = RK4Workspace.__init__

    def recording(self, *args):
        init(self, *args)
        seen.append(np.result_type(self.u))

    monkeypatch.setattr(RK4Workspace, "__init__", recording)
    return seen


def gaussian_scenario(n: int, N: int):
    """`desitter-smooth` in n dimensions with a Gaussian velocity too."""
    text = edited_scenario(
        "desitter-smooth", ("grid.n = 1", f"grid.n = {n}"),
        ("grid.N = 256", f"grid.N = {N}"),
        ("data0.width = 0.55", "data0.width = 1.2"),
        ("data1.kind = homogeneous\ndata1.amplitude = 0.0",
         "data1.kind = gaussian\ndata1.amplitude = -0.3\ndata1.width = 1.2"),
        ("run.t_end = 0.8", "run.t_end = 0.2"),
        ("run.dt = 1e-3", "run.dt = 0.02"),
        ("run.record_every = 20", "run.record_every = 3"))
    return config.parse_text(text, name=f"gaussian-{n}d")


def test_real_run_matches_complex_run(monkeypatch):
    """The anchor blow-up run and small 2D and 3D Gaussian runs take the
    same steps in float64 as with the complex workspace forced: the same t
    and dt on every row, the same step counts and the same blow-up. The
    states are the same bits, so each recorded integral is the same sum in
    another order, held to gamma_n sum |a_i b_i| as in the dot test above:
    gamma_n L for ||u||^2 and ||u_t||^2, and 2 gamma_n sqrt(L ||u_t||^2)
    (Cauchy-Schwarz) for L' = 2 Re(u, u_t)."""
    anchor = load_bundled_scenario("minkowski-m0-u2-A3")
    cases = [(anchor, scenario_cert(anchor)),
             (gaussian_scenario(2, 32), None),
             (gaussian_scenario(3, 24), None)]

    def simulate(scn, cert):
        u0, u1 = scn.build_fields()
        return run(Start(u0, u1, scn.nl), scn.sf, scn.params, scn.run, cert)

    seen = workspace_dtypes(monkeypatch)
    real = [simulate(*case) for case in cases]
    assert seen == [np.float64] * 3
    monkeypatch.setattr(dynamics, "state_arrays",
                        lambda u0, u1: (u0.values.copy(), u1.values.copy()))
    wide = [simulate(*case) for case in cases]
    assert seen[3:] == [np.complex128] * 3
    for (scn, _), fast, slow in zip(cases, real, wide):
        assert len(fast.rows) > 4
        assert [(r.t, r.dt) for r in fast.rows] == [(r.t, r.dt)
                                                     for r in slow.rows]
        g = gamma(math.prod(scn.grid.shape))
        for f, s in zip(fast.rows, slow.rows):
            assert abs(f.L - s.L) <= g * s.L
            assert abs(f.ut_sq - s.ut_sq) <= g * s.ut_sq
            assert abs(f.Lp - s.Lp) <= 2.0 * g * math.sqrt(s.L * s.ut_sq)
        assert abs(fast.meta["L0"] - slow.meta["L0"]) <= g * slow.meta["L0"]
        for key in ("accepted", "rejected", "t_final", "reached_t_end"):
            assert fast.meta[key] == slow.meta[key]
        assert fast.blowup == slow.blowup
    assert real[0].blowup.t_star is not None


GAUGE = GaugeInvariantPower(p=2.0, lam=-1.0, eps=1.5)


@pytest.mark.parametrize("u0_spec, u1_amp, nl, dtype", [
    (("gaussian", 0.5), 0.0, GAUGE, np.float64),
    (("gaussian", 0.5), -0.2, RealAbsPower(p=2.0), np.float64),
    (("bump", 0.5), 0.1, None, np.float64),
    (("plane_mod", 0.5), 0.0, GAUGE, np.complex128),
    (("gaussian", 0.5 + 0.1j), 0.0, GAUGE, np.complex128),
    (("gaussian", 0.5), 0.1j, None, np.complex128),
])
def test_run_steps_real_state_in_float64(monkeypatch, u0_spec, u1_amp, nl,
                                         dtype):
    """run() steps in float64 exactly when the data are real, whatever the
    coupling; complex data stay complex128."""
    seen = workspace_dtypes(monkeypatch)
    grid = Grid(n=1, points_per_axis=32, half_width=math.pi)
    kind, amp = u0_spec
    u0 = make_profile(grid, kind, amp, width=1.0)
    u1 = make_profile(grid, "homogeneous", u1_amp)
    params = PhysicalParams(m=1.0, c=1.0, eps=1.0 if nl is None else nl.eps, n=1)
    cfg = RunConfig(t_end=0.05, dt=1e-2, theorem_mode="none")
    run(Start(u0, u1, nl), PowerLaw(0.0, H=0.0), params, cfg)
    assert seen == [dtype]


# ---------------------------------------------------------------------------
# many slabs


def slab_bytes(shape, dtype, rows: int) -> int:
    """The `field.SLAB_BYTES` that cuts a field of this shape and dtype into
    slabs of `rows` axis-0 planes (a padded plane has 2 + 2 wrap cells per
    axis)."""
    return rows * math.prod(s + 4 for s in shape[1:]) * np.dtype(dtype).itemsize


def sliced(shape, dtype, rows_seed: int, build):
    """build() with slabs of 1 to shape[0] - 1 planes, so at least two."""
    rows = 1 + rows_seed % (shape[0] - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "SLAB_BYTES", slab_bytes(shape, dtype, rows))
        made = build()
    stencil = made if isinstance(made, Stencil) else made.stencil
    assert len(stencil.slabs) == -(-shape[0] // rows) >= 2
    return made


def one_slab(build):
    """build() with one slab, whatever the shape (a uniform workspace has
    none)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "SLAB_BYTES", 1 << 40)
        made = build()
    assert len(getattr(made, "stencil", made).slabs) <= 1
    return made


@settings(max_examples=60, deadline=None)
@given(fields(), st.integers(0, 64), st.booleans())
def test_multi_slab_stencils_match_reference_bitwise(case, rows_seed, real):
    """The stencils over several slabs give the one-slab kernel's bits,
    which on real data are the real part of the complex kernel's: the
    Laplacian, within lap_bound of the reference, and the gradient, within
    grad_bound of the reference quadratic form, with its sum."""
    h, z = case
    vals = z.real.copy() if real else z
    if real:
        z = vals.astype(np.complex128)

    def ref(a):
        return real_part(a) if real else a

    lap = lap_array(vals, h, one_slab(lambda: Stencil(vals.shape, vals.dtype)))
    assert same_bits(lap, ref(lap_array(z, h)))
    assert_cells_within(lap, ref(ref_lap_array(z, h)), lap_bound(z, h))
    whole_sum = np.empty_like(vals)
    grad = grad_sq_array(vals, h, one_slab(
        lambda: Stencil(vals.shape, vals.dtype)), out=whole_sum)
    assert abs(grad - ref_grad_sq(z, h)) <= grad_bound(z, h)
    ws = sliced(vals.shape, vals.dtype, rows_seed,
                lambda: Stencil(vals.shape, vals.dtype))
    out = np.empty_like(vals)
    for _ in range(2):  # a reused workspace carries nothing over
        assert same_bits(lap_array(vals, h, ws), lap)
        assert grad_sq_array(vals, h, ws, out=out).hex() == grad.hex()
        assert same_bits(out, whole_sum)


@settings(max_examples=60, deadline=None)
@given(fields(count=2), st.sampled_from(BACKGROUNDS),
       st.sampled_from(NONLINEARITIES), st.floats(0.0, 1.5),
       st.floats(0.0, 2.0), st.floats(1e-4, 0.05), st.floats(0.5, 2.0),
       st.integers(0, 64), st.booleans())
def test_multi_slab_rk4_matches_reference_bitwise(case, sf, nl, t, m, dt, c,
                                                  rows_seed, real):
    """_rk4 over several slabs gives the bits of the one-slab complex
    kernel: in float64 its real part, in complex128 the value itself; that
    kernel stays within the rounding bound of the reference over two steps.
    The real family takes float64 data only: its one-slab kernel is the
    float64 one. A uniform draw steps its scalar pair, which must hold
    those bits in every cell."""
    h, u, v = case
    real_nl = nl is not None and nl.real_only
    if real or real_nl:
        u, v = u.real.copy(), v.real.copy()
    z, zv = (u, v) if real_nl else (u.astype(np.complex128),
                                    v.astype(np.complex128))
    if not real:
        u, v = z, zv

    def ref(a):
        return a if a.dtype == u.dtype else real_part(a)

    sf = dataclasses.replace(sf, n=u.ndim)
    params = PhysicalParams(m=m, c=c, eps=1.0, n=u.ndim)
    # a uniform workspace has no slabs; it steps the scalar pair
    uniform = is_uniform(u, v)
    wz = one_slab(lambda: RK4Workspace(z.copy(), zv.copy(), nl, h))
    ws = RK4Workspace(u.copy(), v.copy(), nl, h) if uniform else sliced(
        u.shape, u.dtype, rows_seed,
        lambda: RK4Workspace(u.copy(), v.copy(), nl, h))
    want = exact(z, zv)
    for _ in range(2):  # a step accepted, then the next one
        want = ref_rk4_gap(t, *want, dt, sf, params, nl, h)
        k = stage_factors(sf, params, h, t, dt)
        uz_new, vz_new = (whole(x, z) for x in _rk4(dt, *k, nl, wz))
        u_new, v_new = (whole(x, u) for x in _rk4(dt, *k, nl, ws))
        assert same_bits(u_new, ref(uz_new))
        assert same_bits(v_new, ref(vz_new))
        assert_step_within((uz_new, vz_new), want)
        ws.accept()
        wz.accept()
        t += dt


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(8, 16), st.floats(0.5, 4.0),
       st.sampled_from(NONLINEARITIES), st.integers(0, 2**32 - 1),
       st.floats(1e-2, 3.0), st.integers(0, 64), st.booleans())
def test_multi_slab_measure_matches_one_slab_bitwise(n, N, half_width, nl,
                                                     seed, scale, rows_seed,
                                                     real):
    """A workspace's measurement over several slabs, with f written into
    the workspace's own array, against that of the same arrays in one slab
    and against the t0 measurement of a `Start` of their fields, in float64
    and in complex128: a `Start` measures complex128 fields with real
    values in float64. The real family takes float64 data only."""
    grid = Grid(n=n, points_per_axis=N, half_width=half_width)
    rng = np.random.default_rng(seed)
    u, v = (scale * (rng.normal(size=grid.shape)
                     + 1j * rng.normal(size=grid.shape)) for _ in range(2))
    if real or (nl is not None and nl.real_only):
        u, v = u.real.copy(), v.real.copy()
    h = grid.spacing
    want = workspace_integrals(
        one_slab(lambda: RK4Workspace(u.copy(), v.copy(), nl, h)), grid)
    # a Start takes real values in float64, so only there or on complex
    # values do its sums and the workspace's share a dtype
    if u.dtype == np.float64 or u.imag.any() or v.imag.any():
        assert same_bits(Start(Field(grid, u), Field(grid, v), nl).rec, want)
    ws = sliced(u.shape, u.dtype, rows_seed,
                lambda: RK4Workspace(u.copy(), v.copy(), nl, h))
    assert same_bits(workspace_integrals(ws, grid), want)


def test_multi_slab_run_matches_one_slab_run(monkeypatch):
    """A 3D N=48 run, which spans several slabs at the module's slab size,
    records the trace of the same run swept as one slab, bit for bit."""
    scn = gaussian_scenario(3, 48)
    assert len(Stencil(scn.grid.shape, np.float64).slabs) > 1

    def simulate():
        u0, u1 = scn.build_fields()
        return run(Start(u0, u1, scn.nl), scn.sf, scn.params, scn.run)

    sliced_run = simulate()
    monkeypatch.setattr(field, "SLAB_BYTES", 1 << 40)
    assert len(Stencil(scn.grid.shape, np.float64).slabs) == 1
    whole = simulate()
    assert len(sliced_run.rows) > 4
    assert trace_csv_text(sliced_run) == trace_csv_text(whole)
    assert sliced_run.meta == whole.meta


@pytest.mark.parametrize("nl, dtype", [
    (GaugeInvariantPower(p=2.0, lam=1.0), np.float64),
    (RealAbsPower(p=3.0, sign=-1), np.float64),
    (None, np.float64),
    (GaugeInvariantPower(p=2.0, lam=-1.0, eps=1.5), np.complex128),
])
def test_step_and_row_allocate_less_than_a_state_array(nl, dtype):
    """Once the workspace exists, an accepted step and the measurement of a
    recorded row allocate less than one state array: the stage scratch is
    slab-sized and f and F are written into existing buffers. (On complex
    data f still allocates its real factor |u|^(p-1), half a state array.)"""
    grid = Grid(n=3, points_per_axis=32, half_width=math.pi)
    rng = np.random.default_rng(11)
    u, v = (0.3 * rng.normal(size=grid.shape).astype(dtype) for _ in range(2))
    h = grid.spacing
    ws = RK4Workspace(u, v, nl, h)
    assert len(ws.stencil.slabs) > 1
    sf = DeSitter(H=0.5, n=3)
    params = PhysicalParams(m=1.0, c=1.0, eps=1.0, n=3)

    def step_and_row(t):
        k = stage_factors(sf, params, h, t, 1e-3)
        u_new, v_new = _rk4(1e-3, *k, nl, ws)
        norm_integrals(u_new, v_new, grid)
        ws.accept()
        potential_integrals(ws.u, ws.fu, grid, nl)

    step_and_row(0.0)  # so that the next one allocates what every step does
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step_and_row(1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < u.nbytes


@settings(max_examples=40, deadline=None)
@given(fields(count=2), st.sampled_from(BACKGROUNDS),
       st.sampled_from(NONLINEARITIES), st.floats(0.0, 1.5),
       st.floats(0.0, 2.0), st.floats(1e-4, 0.05), st.integers(0, 64),
       st.booleans(), st.booleans())
def test_stage1_reads_measured_sum_bitwise(case, sf, nl, t, m, dt, rows_seed,
                                           real, several):
    """`_rk4`, whose stage 1 reads the Laplacian sum that the measurement
    left in trial_v, against `lap_stage1_step`, whose stage 1 sweeps the
    stencil, on workspaces of the same data: the same bits, in float64 and
    complex128, in one slab and in several, for a step, the step retried
    after `reject()` (which writes the sum again), and the next step after
    `accept()`. The real family takes float64 data only."""
    h, u, v = case
    if real or (nl is not None and nl.real_only):
        u, v = u.real.copy(), v.real.copy()
    assume(not is_uniform(u, v))  # a uniform workspace has no stencil

    def build():
        return RK4Workspace(u.copy(), v.copy(), nl, h)

    ws, ref = (sliced(u.shape, u.dtype, rows_seed, build) if several
               else one_slab(build) for _ in range(2))
    params = PhysicalParams(m=m, c=1.0, eps=1.0, n=u.ndim)
    sf = dataclasses.replace(sf, n=u.ndim)
    for tries in (2, 1):  # a step tried, rejected and retried, then the next
        k = stage_factors(sf, params, h, t, dt)
        for attempt in range(tries):
            got = [x.copy() for x in _rk4(dt, *k, nl, ws)]
            want = lap_stage1_step(dt, *k, nl, ref)
            for x, w in zip(got, want):
                assert same_bits(x, w)
            if attempt + 1 < tries:
                ws.reject()
                ref.reject()
        ws.accept()
        ref.accept()
        t += dt
