"""Time integration driver.

Oracles:
  * a single Fourier mode under the linear flow obeys the exact semi-discrete
    oscillator u(t) = u0 cos(omega t) with omega^2 = m^2 c^2 + c^2 |symbol|,
    where the symbol is the discrete Laplacian eigenvalue, so the only error
    is RK4 time error;
  * on localized data the flat linear flow is diagonal in Fourier modes, and
    RK4 scales each mode's energy by exactly |R(i omega dt)|^2 per step, so
    the trace's E, with ||grad u||^2 the quadratic form of the stepped
    Laplacian, is predicted from the t0 data up to rounding;
  * spatially constant focusing data m = 0, c = 1, u0 = 3, u1 = 0, p = 2,
    lam = 1 blow up at t* = (1/sqrt2) int_1^inf ds/sqrt(s^3-1)
    = 1.7173153422544112 (frozen);
  * a synthetic tail L = (t* - t)^(-4/(p-1)) is recovered exactly by the
    extrapolator.

The spatially constant reference, `homogeneous_oracle` (`oracles.py`), is
test code: it integrates with scipy.integrate, which the package does not
import.
"""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from kgflrw import (DeSitter, GaugeInvariantPower, Grid, PhysicalParams,
                    PowerLaw, RunConfig, Trace, bundled_scenario_text,
                    dynamics, estimate_t_star, make_profile, parse_text,
                    run)
from kgflrw.dynamics import RK4Workspace, Start, StepState, Stepper, _rk4
from kgflrw.errors import (InvariantViolation, TimeBeyondHorizon,
                           TooFewSamples, WrapAroundRisk)
from kgflrw.field import dot_re, lap_array
from kgflrw.functionals import state_arrays
from kgflrw.cli import main_entry
from oracles import (TSTAR, edited_scenario, homogeneous_oracle,
                     mode_energies, scenario_cert, stage_factors,
                     vehicle_text)


def flat():
    return PowerLaw(0.0, H=0.0)


def test_single_mode_oscillator_exact():
    grid = Grid(n=1, points_per_axis=64, half_width=math.pi)
    mode = 3
    u0 = make_profile(grid, "plane_mod", 2.0, width=mode)
    u1 = make_profile(grid, "homogeneous", 0.0)
    params = PhysicalParams(m=1.0, c=1.0, eps=1.0, n=1)
    # discrete symbol of the mode, read off the stencil itself
    sym = lap_array(u0.values, grid.spacing)[0] / u0.values[0]
    omega = math.sqrt(1.0 + abs(float(sym.real)))
    cfg = RunConfig(t_end=0.45, dt=1e-3, record_every=10, theorem_mode="none")
    trace = run(Start(u0, u1, None), flat(), params, cfg)
    assert trace.blowup is None
    assert trace.meta["reached_t_end"]
    L0 = trace.rows[0].L
    for row in trace.rows:
        exact = L0 * math.cos(omega * row.t) ** 2
        assert abs(row.L - exact) <= 1e-10 * L0


@pytest.mark.parametrize("n, N, amp, dt", [
    (1, 64, 0.5, 0.03), (1, 128, 0.5 + 0.3j, 0.01), (2, 32, 0.5 + 0.3j, 0.05),
    (3, 24, 0.5, 0.08)])
def test_flat_linear_energy_is_rk4_mode_damping(n, N, amp, dt):
    """The semi-discrete energy identity on localized data, to the time
    integrator's accuracy, with the bound derived before the run.

    Flat and linear, the grid system is diagonal in Fourier modes, and its
    energy E_h = 1/2 ||v||^2 + 1/2 c^2 ||grad u||^2_h + 1/2 m^2 c^2 ||u||^2,
    with ||grad u||^2_h = -Re <u, D2 u> h^n, is the sum of the mode energies
    (`mode_energies`), which the system conserves. In the variables
    (omega u_k, v_k) a mode's RK4 map is a polynomial in a skew matrix with
    eigenvalues R(+-i z), z = omega_k dt, so it scales the mode's energy by
    exactly |R(i z)|^2 = 1 - z^6 / 72 + z^8 / 576 per step. So before
    rounding the trace's E at each row is sum_k E_k(t0) times the product of
    those factors over the steps so far (`record_every` = 1: one row per
    step, with its dt; a rejected step leaves the state as it was).

    Rounding, to first order in u, with r = omega_max / omega_min: a step
    rounds each cell through at most n + 15 operations (the Laplacian sum's
    n + 2, dv/dt's five, the stage update's two, the four of the weighted
    sum and the final two), of terms whose energy norm is at most
    e^(z_max) r times the state's (a stage moves the norm by at most a
    factor 1 + z_max, and omega_max weighs a cell of u in that norm against
    omega_min), so it moves E by at most 4 (n + 15) u e^(2 z_max) r E. E is
    measured from sums of nonnegative terms but the quadratic form, whose
    terms sum to at most (17/16) omega_max^2 ||u||^2 h^n (`grad_bound`):
    within 2 gamma_(2 N^n + n + 8) r^2 E. The prediction takes two FFTs, each
    within 5 log2(N^n) u of the exact transform in norm, and a sum of N^n
    nonnegative terms: within (10 log2(N^n) + N^n + 4) u r^2 E."""
    grid = Grid(n=n, points_per_axis=N, half_width=math.pi)
    u0 = make_profile(grid, "gaussian", amp, width=1.2, center=0.3)
    u1 = make_profile(grid, "gaussian", -0.2, width=1.4)
    params = PhysicalParams(m=1.0, c=1.0, eps=1.0, n=n)
    start = Start(u0, u1, None)
    assert start.ws.u.dtype == (np.float64 if amp == 0.5 else np.complex128)
    energy, w2 = mode_energies(start.ws.u, start.ws.v, grid, params)
    cfg = RunConfig(t_end=2.0, dt=dt, record_every=1, theorem_mode="none")
    trace = run(start, PowerLaw(0.0, H=0.0, n=n), params, cfg)
    assert trace.blowup is None and len(trace.rows) > 20

    cells, u = grid.points_per_axis ** n, np.finfo(np.float64).eps / 2
    r = math.sqrt(w2.max() / w2.min())
    z_max = math.sqrt(w2.max()) * dt
    per_step = 4 * (n + 15) * u * math.exp(2 * z_max) * r
    k = 2 * cells + n + 8  # gamma_k = k u / (1 - k u)
    fixed = r * r * (2 * k * u / (1 - k * u)
                     + (10 * math.log2(cells) + cells + 4) * u)
    E0 = trace.rows[0].E
    factor = np.ones_like(w2)
    for steps, row in enumerate(trace.rows):
        if row.dt > 0.0:
            z2 = w2 * row.dt * row.dt
            factor *= 1.0 - z2 ** 3 / 72.0 + z2 ** 4 / 576.0
        want = float(np.sum(energy * factor))
        assert abs(row.E - want) <= (fixed + steps * per_step) * E0
    assert E0 - trace.rows[-1].E > 1e3 * (fixed + steps * per_step) * E0


def test_homogeneous_data_stays_homogeneous(monkeypatch):
    """The premise of the uniform path, checked on the full stencil path:
    uniform data step to a uniform state."""
    grid = Grid(n=1, points_per_axis=32, half_width=1.0)
    u0 = make_profile(grid, "homogeneous", 2.0 + 1.0j)
    u1 = make_profile(grid, "homogeneous", -0.5j)
    params = PhysicalParams(m=1.0, c=1.0, eps=1.0, n=1)
    nl = GaugeInvariantPower(p=2.0, lam=1.0)
    assert RK4Workspace(u0.values, u1.values, nl, grid.spacing).uniform
    monkeypatch.setattr(dynamics, "is_uniform", lambda u, v: False)
    # five accepted steps, driven as run() drives them
    ws = RK4Workspace(u0.values.copy(), u1.values.copy(), nl, grid.spacing)
    assert not ws.uniform
    t = 0.0
    for _ in range(5):
        _rk4(1e-3, *stage_factors(flat(), params, grid.spacing, t, 1e-3),
             nl, ws)
        t = t + 1e-3
        ws.accept()
    for fld in (ws.u, ws.v):
        assert np.all(fld == fld.flat[0])


# ---------------------------------------------------------------------------
# the homogeneous reference solution (`oracles.homogeneous_oracle`)


def test_oracle_frozen_blowup_time():
    params = PhysicalParams(m=0.0, c=1.0, eps=1.0, n=1)
    nl = GaugeInvariantPower(p=2.0, lam=1.0)
    res = homogeneous_oracle(3.0 + 0.0j, 0.0 + 0.0j, flat(), params, nl,
                             t_end=5.0)
    assert res.t_event is not None and res.t_star_status is None
    assert res.t_star == pytest.approx(TSTAR, abs=1e-9)


def test_oracle_linear_stays_bounded():
    params = PhysicalParams(m=1.0, c=1.0, eps=1.0, n=1)
    res = homogeneous_oracle(1.0 + 0.0j, 0.0 + 0.0j, flat(), params, None,
                             t_end=3.0)
    assert res.t_event is None and res.t_star is None
    assert res.t_star_status == "|u| stays below 1e+10 up to t = 3"
    # u(t) = cos(m c t)
    assert res.u[-1].real == pytest.approx(math.cos(3.0), abs=1e-8)


def test_anchor_run_detects_blowup(anchor_run):
    _, report, trace = anchor_run
    assert trace.blowup is not None
    assert trace.blowup.reason == "norm_threshold"
    assert trace.blowup.detected
    assert trace.blowup.t_star == pytest.approx(TSTAR, abs=1e-6)
    assert trace.blowup.t_star_uncertainty is not None
    assert trace.blowup.t_star_uncertainty < 1e-4
    assert trace.meta["rejected"] > 0
    assert not trace.meta["reached_t_end"]
    assert trace.blowup.t_star <= report.T_bound


@pytest.mark.parametrize("threshold", [1e6, 1e8])
def test_anchor_t_star_at_low_blowup_threshold(anchor_scenario, threshold):
    """The tail fit window follows the run's own threshold, so a run stopped
    at 1e6 or 1e8 times the initial norm still reports t* (criterion 8's 1%)."""
    scn = anchor_scenario
    u0, u1 = scn.build_fields()
    cfg = dataclasses.replace(scn.run, blowup_threshold=threshold)
    trace = run(Start(u0, u1, scn.nl), scn.sf, scn.params, cfg,
                scenario_cert(scn))
    assert trace.blowup.reason == "norm_threshold"
    assert trace.blowup.t_star == pytest.approx(TSTAR, rel=0.01)
    assert trace.blowup.t_star_status is None


def test_estimate_t_star_synthetic():
    t_star, p = 2.0, 2.0
    ts = np.linspace(t_star - 0.015, t_star - 0.001, 12)
    rows = [SimpleNamespace(t=float(t), L=float((t_star - t) ** (-4.0 / (p - 1.0))))
            for t in ts]
    est, unc = estimate_t_star(rows, p, L0=1.0)
    assert est == pytest.approx(t_star, abs=1e-10)
    assert unc <= 1e-10
    with pytest.raises(TooFewSamples):
        estimate_t_star(rows[:3], p, L0=1.0)
    # a decaying tail has no zero crossing ahead
    bad = [SimpleNamespace(t=float(t), L=float(1e9 * math.exp(-t))) for t in ts]
    with pytest.raises(ValueError):
        estimate_t_star(bad, p, L0=1.0)


def test_wrap_around_guard():
    grid = Grid(n=1, points_per_axis=64, half_width=1.0)
    u0 = make_profile(grid, "bump", 1.0, width=0.5)
    u1 = make_profile(grid, "homogeneous", 0.0)
    params = PhysicalParams(m=0.0, c=1.0, eps=1.0, n=1)
    cfg = RunConfig(t_end=1.0, dt=1e-2, record_every=5, theorem_mode="none")
    partial = run(Start(u0, u1, None, 0.5), flat(), params, cfg)
    assert isinstance(partial, Trace)
    assert partial.blowup.reason == "wrap_around"
    assert not partial.blowup.detected
    assert not partial.meta["reached_t_end"]
    assert len(partial.rows) >= 1
    # margin = 0.5 - c t crosses zero at t = 0.5, where the run ends
    assert partial.blowup.t == pytest.approx(0.5, abs=0.05)
    assert partial.meta["t_final"] == partial.blowup.t
    # a support that already fills the box: no start, no run, no trace
    with pytest.raises(WrapAroundRisk):
        Start(u0, u1, None, 1.5)


def test_step_guards():
    """run() clamps every step to the CFL limit and ends on a non-finite
    state with the reason "nonfinite" instead of raising."""
    grid = Grid(n=1, points_per_axis=32, half_width=1.0)
    params = PhysicalParams(m=0.0, c=1.0, eps=1.0, n=1)
    nl = GaugeInvariantPower(p=2.0, lam=1.0)
    u0 = make_profile(grid, "homogeneous", 1.0)
    u1 = make_profile(grid, "homogeneous", 0.0)
    limit = 0.4 * grid.spacing * 1.0 / 1.0  # cfl * h * a / c, a = 1 here
    cfg = RunConfig(t_end=0.5, dt=1.0, record_every=1, theorem_mode="none")
    trace = run(Start(u0, u1, nl), flat(), params, cfg)
    assert trace.meta["reached_t_end"]
    assert len(trace.rows) == trace.meta["accepted"] + 1
    assert all(r.dt == limit for r in trace.rows[1:-1])
    assert 0.0 < trace.rows[-1].dt <= limit
    huge = make_profile(grid, "homogeneous", 1e100)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run(Start(huge, u1, nl), flat(), params, cfg)
    assert trace.blowup.reason == "nonfinite"
    assert not trace.blowup.detected
    assert all(math.isfinite(r.L) for r in trace.rows)


def test_run_rejects_horizon_overrun():
    sf = PowerLaw(-3.0, H=1.0)  # horizon at t = 1
    grid = Grid(n=1, points_per_axis=32, half_width=1.0)
    u0 = make_profile(grid, "homogeneous", 1.0)
    u1 = make_profile(grid, "homogeneous", 0.0)
    params = PhysicalParams(m=0.0, c=1.0, eps=1.0, n=1)
    cfg = RunConfig(t_end=1.0, dt=1e-3, theorem_mode="none")
    with pytest.raises(TimeBeyondHorizon):
        run(Start(u0, u1, None), sf, params, cfg)


def test_run_validation():
    grid = Grid(n=1, points_per_axis=32, half_width=1.0)
    u0 = make_profile(grid, "homogeneous", 1.0)
    u1 = make_profile(grid, "homogeneous", 0.0)
    cfg = RunConfig(t_end=0.1, dt=1e-3, theorem_mode="none")
    with pytest.raises(ValueError):
        run(Start(u0, u1, None), flat(),
            PhysicalParams(m=0.0, c=1.0, eps=1.0, n=2),
            cfg)  # params.n != grid.n
    zero = make_profile(grid, "homogeneous", 0.0)
    with pytest.raises(InvariantViolation, match="nonzero"):
        run(Start(zero, u1, None), flat(),
            PhysicalParams(m=0.0, c=1.0, eps=1.0, n=1), cfg)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(t_end=0.0)
    with pytest.raises(ValueError):
        RunConfig(t0=-1.0, t_end=1.0)
    with pytest.raises(ValueError):
        RunConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        RunConfig(record_every=0)
    with pytest.raises(ValueError):
        RunConfig(blowup_threshold=0.5)
    with pytest.raises(ValueError):
        RunConfig(cfl=1.5)
    with pytest.raises(ValueError):
        RunConfig(theorem_mode="sometimes")
    # a floor at or above dt would count every step as at the floor
    for dt_min in (1e-3, 1e-2):
        with pytest.raises(ValueError, match="dt_min"):
            RunConfig(dt=1e-3, dt_min=dt_min)
    RunConfig(dt=1e-3, dt_min=9.99e-4)
    # a growth_tol lost in 1.0 + growth_tol rejects every growing step
    for tol in (0.0, 5e-324, 1e-300, 2.2250738585072014e-308, 1e-17,
                math.nan):
        with pytest.raises(ValueError, match="growth_tol"):
            RunConfig(growth_tol=tol)
    RunConfig(growth_tol=1e-15)


def test_final_row_carries_the_step_taken():
    """A run that ends between two recorded steps writes its last row after
    the loop with the dt of the step it took, not the nominal run.dt. Here
    run.dt = 1.0 is clamped to the CFL limit 0.025 on every step, and the
    last row is the one a run recording every step ends with."""
    grid = Grid(n=1, points_per_axis=32, half_width=math.pi)
    u0 = make_profile(grid, "homogeneous", 3.0)
    u1 = make_profile(grid, "homogeneous", 0.0)
    params = PhysicalParams(m=0.0, c=1.0, eps=1.0, n=1)
    nl = GaugeInvariantPower(p=2.0, lam=1.0)
    traces = [run(Start(u0, u1, nl), flat(), params, RunConfig(
        t_end=0.5, dt=1.0, record_every=every, cfl=0.12732395447351627,
        theorem_mode="none")) for every in (7, 1)]
    sparse, dense = traces
    assert sparse.meta["accepted"] % 7 != 0
    assert all(0.0 < r.dt <= 0.025 for r in sparse.rows[1:])
    assert sparse.rows[-1].t == 0.5
    assert repr(dataclasses.astuple(sparse.rows[-1])) == repr(
        dataclasses.astuple(dense.rows[-1]))


def test_desitter_expansion_damps_energy():
    grid = Grid(n=1, points_per_axis=64, half_width=math.pi)
    u0 = make_profile(grid, "plane_mod", 0.1, width=2)
    u1 = make_profile(grid, "homogeneous", 0.0)
    params = PhysicalParams(m=1.0, c=1.0, eps=1.0, n=1)
    cfg = RunConfig(t_end=0.5, dt=1e-3, record_every=25, theorem_mode="none")
    trace = run(Start(u0, u1, None), DeSitter(H=0.5), params, cfg)
    es = [r.E for r in trace.rows]
    assert es[-1] < es[0]
    # dissipation budget: E(t) + dissipated = E(t0); at N = 64 the residual
    # is set by the O(h^4) stencil mismatch, so only wiring is checked here
    budget = trace.rows[-1].E + trace.rows[-1].e_dissipated
    assert budget == pytest.approx(es[0], rel=1e-4)


@pytest.mark.parametrize("H, dt_min, t_raise", [(-100.0, 1e-4, 0.0666),
                                                (-1e4, 1e-5, 8.87e-4)])
def test_cfl_window_collapsing_below_dt_min_raises(H, dt_min, t_raise):
    """On a = exp(H t) the CFL window 0.4 h a shrinks, and 0.4 h a falls
    below dt_min near t_raise: the stepper raises there, naming the
    current t, instead of stepping ever shorter windows toward t_end. At
    H = -1e4 the window over a whole step, a(t + 1e-3) = exp(-10) a(t), is
    below dt_min from the start, but the floor step's window is not, so
    every step takes dt_min. At most 1000 steps, so endless stepping fails
    the test instead of blocking it."""
    grid = Grid(n=1, points_per_axis=32, half_width=math.pi)
    params = PhysicalParams(m=0.0, c=1.0, eps=1.0, n=1)
    u0, u1 = make_profile(grid, "homogeneous", 1.0), make_profile(
        grid, "homogeneous", 0.0)
    cfg = RunConfig(t_end=0.5, dt=1e-3, dt_min=dt_min, theorem_mode="none")
    u, v = state_arrays(u0, u1)
    stepper = Stepper(StepState(0.0, u, v, cfg.dt, 2.0 * math.pi,
                                2.0 * math.pi, 0, ()),
                      RK4Workspace(u, v, None, grid.spacing),
                      DeSitter(H=H), params, None, grid, cfg)
    dts = []
    with pytest.raises(InvariantViolation, match="CFL window") as err:
        for _, (_, dt, *_) in zip(range(1000), stepper.steps()):
            dts.append(dt)
    t = stepper.state.t
    assert str(err.value).endswith(f" at t = {t} is below dt_min = {dt_min}")
    assert abs(t - t_raise) < 0.02 * t_raise and len(dts) > 50
    if H == -1e4:
        assert set(dts) == {cfg.dt_min}


@pytest.mark.parametrize("case", ["tail", "regrowing", "at-floor"])
def test_checkpoint_resumes_the_run_bit_for_bit(case):
    """The anchor's stepper is checkpointed at its first accepted step with
    L >= 1e4 L0, where the tail's step-size error starts to build up; at the
    first step after a rejection, while dt regrows; and, with a dt_min the
    run reaches, at its first growing step at the floor. A new stepper built
    from the checkpoint takes every later step of the uninterrupted run,
    leaves the same record after each, and ends in the same state and on the
    same blow-up, bit for bit. The anchor is uniform, so the run steps a
    scalar pair and the checkpoint fills whole arrays with it: every cell
    must hold the accepted pair's bits."""
    text = bundled_scenario_text("minkowski-m0-u2-A3")
    if case == "at-floor":
        text = text.replace("run.dt_min = 1e-12", "run.dt_min = 1e-4")
    scn = parse_text(text)
    u0, u1 = scn.build_fields()
    L0 = dot_re(u0.values, u0.values) * scn.grid.cell_volume
    at = {"tail": lambda st: st.L_prev >= 1e4 * L0,
          "regrowing": lambda st: (0 < st.accept_streak < 4
                                   and st.dt < scn.run.dt),
          "at-floor": lambda st: len(st.floor_ratios) > 0}[case]

    def stepper(state):
        return Stepper(state, RK4Workspace(state.u, state.v, scn.nl,
                                           scn.grid.spacing), scn.sf,
                       scn.params, scn.nl, scn.grid, scn.run)

    def bits(stepper, steps):
        """Each step, its background, and the record it leaves for the
        next one."""
        return [(*(x.hex() for x in (t, dt, L, *motion, *bg,
                                     stepper.state.dt)),
                 stepper.state.accept_streak, stepper.state.floor_ratios)
                for t, dt, L, motion, bg in steps]

    full = stepper(StepState(scn.run.t0, *state_arrays(u0, u1),
                             scn.run.dt, L0, L0, 0, ()))
    steps = full.steps()
    for t, _, L, *_ in steps:
        if at(full.state):
            break
    ck = full.checkpoint()
    assert ck.t == t and ck.L_prev == L and ck.L0 == L0
    assert full.ws.uniform and (full.state.u, full.state.v) == (
        full.ws.u, full.ws.v)
    for arr, x in ((ck.u, full.ws.u), (ck.v, full.ws.v)):
        assert arr.dtype == np.float64 and arr.shape == scn.grid.shape
        assert {float(c).hex() for c in arr.flat} == {x.hex()}
    rejected = full.rejected
    rest = bits(full, steps)

    resumed = stepper(ck)
    assert bits(resumed, resumed.steps()) == rest != []
    assert resumed.rejected == full.rejected - rejected
    assert resumed.blowup == full.blowup
    for a, b in ((resumed.ws.u, full.ws.u), (resumed.ws.v, full.ws.v)):
        assert type(a) is type(b) is float and a.hex() == b.hex()
    if case == "tail":  # the restart point of a tail re-integration
        assert 1.5 < t < 1.6 and len(rest) > 100 and resumed.rejected > 0
    if case == "at-floor":
        assert full.blowup.reason == "step_collapse"


def test_background_computes_each_time_once(monkeypatch):
    """The scale factor's eval and dv/dt's factors each run once per time
    that the stepper needs. The anchor's flat background is static, so
    they run once, at t0, and every attempted step reuses t0's values and
    factors, a retried step's included. On desitter-thm2 (H = 0.5), whose
    CFL window never clamps a step either, they run at t0 and at each
    attempted step's midpoint and end, but a retry ends at t + dt/2, the
    same float as the rejected attempt's midpoint, and takes that
    attempt's values and factors: 1 + 2 x attempted - rejected calls. The
    stepper carries an accepted step's end values as the next start, and
    yields the background that it holds."""
    sf_eval, coeffs = PowerLaw.eval, dynamics._coeffs
    for name, static in (("minkowski-m0-u2-A3", True),
                         ("desitter-thm2", False)):
        scn = parse_text(bundled_scenario_text(name))
        assert scn.sf.static is static
        u0, u1 = scn.build_fields()
        L0 = dot_re(u0.values, u0.values) * scn.grid.cell_volume
        evals, factors = [], []
        with monkeypatch.context() as m:
            m.setattr(PowerLaw, "eval",
                      lambda sf, t: evals.append(t) or sf_eval(sf, t))
            m.setattr(dynamics, "_coeffs",
                      lambda *a: factors.append(a) or coeffs(*a))
            u, v = state_arrays(u0, u1)
            stepper = Stepper(
                StepState(scn.run.t0, u, v, scn.run.dt, L0, L0, 0, ()),
                RK4Workspace(u, v, scn.nl, scn.grid.spacing), scn.sf,
                scn.params, scn.nl, scn.grid, scn.run)
            assert (evals, len(factors)) == ([scn.run.t0], 1)
            for t, *_, bg in stepper.steps():
                assert bg is stepper.bg and bg == sf_eval(scn.sf, t)
        attempted = stepper.accepted + stepper.rejected
        assert stepper.blowup.reason == "norm_threshold"
        assert stepper.rejected > 0
        calls = 1 if static else 1 + 2 * attempted - stepper.rejected
        assert len(evals) == len(factors) == calls


def static_cases():
    """Configs of runs on a static background: the flat PowerLaw at
    H = 0.0 and -0.0, sigma 0 and 0.5; de Sitter at H = 0; the anchor at
    run.dt = 0.05, where the CFL window clamps every step; and the
    localized vehicle cut to t_end = 0.3, which runs the stencil."""
    anchor = bundled_scenario_text("minkowski-m0-u2-A3")
    cases = [pytest.param(anchor.replace("scale.H = 0.0", f"scale.H = {H}")
                          .replace("scale.sigma = 0.0", f"scale.sigma = {s}"),
                          id=f"flat-H{H}-sigma{s}")
             for H in ("0.0", "-0.0") for s in ("0.0", "0.5")]
    return cases + [
        pytest.param(bundled_scenario_text("desitter-thm2").replace(
            "scale.H = 0.5", "scale.H = 0.0"), id="desitter-H0"),
        pytest.param(anchor.replace("run.dt = 1e-3", "run.dt = 0.05"),
                     id="anchor-dt0.05"),
        pytest.param(vehicle_text().replace("run.t_end = 1.1",
                                            "run.t_end = 0.3"),
                     id="vehicle-0.3")]


@pytest.mark.parametrize("text", static_cases())
def test_static_background_matches_the_evaluating_path(tmp_path, capsys,
                                                       monkeypatch, text):
    """A static background's steps reuse t0's background and dv/dt's
    factors; with `static` patched to False the stepper evaluates both at
    every stage time, and simulate writes the same trace.csv and
    report.txt, byte for byte, with the same stdout and exit code."""
    assert parse_text(text).sf.static
    cfg = tmp_path / "scn.cfg"
    cfg.write_text(text)

    def simulate(out):
        rc = main_entry(["simulate", str(cfg), "--out", str(out)])
        return (rc, capsys.readouterr().out,
                *((out / f).read_bytes() for f in ("trace.csv",
                                                   "report.txt")))

    fast = simulate(tmp_path / "static")
    monkeypatch.setattr(PowerLaw, "static", False)
    assert not parse_text(text).sf.static
    slow = simulate(tmp_path / "evaluated")
    assert fast == slow and fast[2].count(b"\n") > 2


def test_run_arrays_sit_at_distinct_offsets_mod_4k():
    """A non-uniform run's whole arrays (the state, the trial state, the
    stage input and f(u)), its slab scratch, and its stencil's padded
    buffer and work bands each start at their own 64-byte slot past a 4 KiB
    boundary, in float64 and complex128, so that no two operands of one
    ufunc alias mod 4 KiB, wherever the heap puts them; the step's buffers
    as the first step allocates them."""
    text = bundled_scenario_text("desitter-smooth")
    for amplitude in ("0.5", "0.5+0.5j"):
        scn = parse_text(text.replace("data0.amplitude = 0.5",
                                      f"data0.amplitude = {amplitude}"))
        ws = Start(*scn.build_fields(), scn.nl).ws
        ws._allocate_step()
        st = ws.stencil
        pad = st._inner.ctypes.data - 2 * sum(st._inner.strides)
        addresses = [x.ctypes.data for x in (
            ws.u, ws.v, ws.trial_u, ws.trial_v, ws.su, ws.sv, ws.fu, ws.kv,
            ws.tmp)] + [pad] + [w.ctypes.data for w in st.slabs[0].work]
        offsets = [a % 4096 for a in addresses]
        assert offsets == [64 * slot for slot in range(14)]
        assert len(set(offsets)) == len(offsets)


def test_real_data_allocate_what_each_phase_reads(tmp_path, capsys):
    """A 3D N = 40 real Gaussian (`desitter-smooth` at grid.n = 3, width
    0.7: at N = 32 no Gaussian over 4 cells wide passes check's wrap
    guard), in units of one float64 state array, traced by tracemalloc.
    Its two fields are float64 and take two arrays at their peak (a
    complex128 field takes two alone). `Start` holds u, v, trial_v, fu and
    the stencil, under 7 arrays, and no trial_u, su or sv until the first
    `_rk4`, which allocates them. check's traced peak, the fields and
    Start, stays under 10 arrays."""
    text = edited_scenario(
        "desitter-smooth", ("grid.n = 1", "grid.n = 3"),
        ("grid.N = 256", "grid.N = 40"), ("data0.width = 0.55",
                                          "data0.width = 0.7"))
    scn = parse_text(text)
    size = 40 ** 3 * np.dtype(np.float64).itemsize

    def traced(call):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return out, (tracemalloc.get_traced_memory()[1] - base) / size

    tracemalloc.start()
    try:
        (u0, u1), fields_peak = traced(scn.build_fields)
        start, start_peak = traced(lambda: Start(u0, u1, scn.nl))
        del u0, u1
        cfg = tmp_path / "smooth3d.cfg"
        cfg.write_text(text)
        rc, check_peak = traced(lambda: main_entry(["check", str(cfg)]))
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 3
    ws = start.ws
    assert ws.u.dtype == np.float64
    assert fields_peak < 2.5 and start_peak < 7.0 and check_peak < 10.0
    assert ws.trial_u is ws.su is ws.sv is None and not ws.slabs
    k = dynamics._coeffs(scn.sf.eval(0.0), scn.params, scn.grid.spacing)
    _rk4(1e-3, k, k, k, scn.nl, ws)
    for x in (ws.trial_u, ws.su, ws.sv):
        assert x.shape == scn.grid.shape and x.dtype == np.float64


def test_window_clamps_every_step(monkeypatch):
    """desitter-smooth at run.dt = 0.05, five times its CFL window, with a
    row at every step: each step but the last is clamped to the window
    cfl * h * a(t_prev) / c, a from the scale factor's eval at the step's
    start (a grows on de Sitter, so the start's is the smaller), and the
    last ends at t_end within it. A clamped attempt evaluates the scale
    factor at its end, at the clamped end and at the midpoint, and the last
    at its end and midpoint, so eval runs 1 + 3 x attempted - 1 times and
    dv/dt's factors 1 + 2 x attempted."""
    scn = parse_text(edited_scenario(
        "desitter-smooth", ("run.dt = 1e-3", "run.dt = 0.05"),
        ("run.record_every = 20", "run.record_every = 1")))
    sf, cfg = scn.sf, scn.run
    evals, factors = [], []
    sf_eval, coeffs = type(sf).eval, dynamics._coeffs
    monkeypatch.setattr(type(sf), "eval",
                        lambda sf, t: evals.append(t) or sf_eval(sf, t))
    monkeypatch.setattr(dynamics, "_coeffs",
                        lambda *a: factors.append(a) or coeffs(*a))
    trace = run(Start(*scn.build_fields(), scn.nl), sf, scn.params, cfg)
    rows = trace.rows
    assert trace.meta["reached_t_end"] and trace.meta["rejected"] == 0
    assert len(rows) == trace.meta["accepted"] + 1 > 50
    windows = [cfg.cfl * scn.grid.spacing * sf_eval(sf, prev.t)[0]
               / scn.params.c for prev in rows[:-1]]
    assert windows[0] < cfg.dt / 4
    assert [r.dt for r in rows[1:-1]] == windows[:-1]
    assert 0.0 < rows[-1].dt <= windows[-1]
    assert rows[-1].t == trace.meta["t_final"] >= cfg.t_end - 1e-12
    attempted = trace.meta["accepted"]
    assert len(evals) == 3 * attempted
    assert len(factors) == 1 + 2 * attempted


def test_stepper_refuses_a_background_of_another_dimension():
    grid = Grid(n=3, points_per_axis=8, half_width=math.pi)
    start = Start(make_profile(grid, "homogeneous", 0.5),
                  make_profile(grid, "homogeneous", 0.0), None)
    params = PhysicalParams(m=1.0, c=1.0, eps=1.0, n=3)
    cfg = RunConfig(t_end=0.1, dt=0.01, theorem_mode="none")
    with pytest.raises(ValueError, match="background's n"):
        run(start, DeSitter(H=0.4, n=1), params, cfg)
    assert run(start, DeSitter(H=0.4, n=3), params, cfg).blowup is None
