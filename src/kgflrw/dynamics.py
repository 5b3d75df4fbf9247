"""Time integration of the damped wave system on a periodic grid.

First-order form: du/dt = v, dv/dt = -n (adot/a) v + c^2 a^-2 lap u
- m^2 c^2 u + c^2 f(u). Classical RK4 with the background evaluated at each
stage time, so homogeneous data reduce the step to the exact scalar RK4 map
(the stencil Laplacian is +0.0 on constants, bit for bit). A run steps and
measures one copy of the data (`Start`), in the dtype that `state_arrays`
picks: float64 for real data, else complex128. The step works in place in
arrays allocated once per run, those of a step alone at the first step
(`RK4Workspace`; `field.placed`), which also
measures each accepted state once: one sweep gives the Laplacian sum of u,
whose quadratic form is the gradient (`field`), and f(u) is kept beside
it; stage 1 of the next step takes both, a recorded row f(u), and a
retried step the sum computed again. The stepper evaluates the background
and dv/dt's factors (`_coeffs`: the stencil's 1 / (12 h^2) folded into
that of lap u) once per stage time: a step starts from the last one's end,
a retry ends at the rejected midpoint, and a `static` background (H = 0)
is t0's. A stage, and the measurement's f(u), finish one stencil slab at
a time, so that their temporaries stay in cache.

A uniform run (every cell of u0 equal to its first, finite cell, and the
same for u1: `functionals.is_uniform`) steps one scalar state, the
homogeneous ODE: once `RK4Workspace` has found the data uniform, the run
holds the first cell's u, v and f(u) as Python scalars and builds no whole
array; only `Stepper.checkpoint()` fills one.
`_rk4_uniform` does the array kernel's operations in its order, with
lap u = +0.0 (the stencil's bits on a uniform array) and f the
nonlinearity's `f_scalar`, written out stage by stage: each stage's dv/dt
is `_rhs_slab`'s sum on one cell, whose c^2 f(u) term only a nonlinear
run adds. Python's +, - and * with real multipliers are
numpy's IEEE operations, so the step has the kernel's bits where f does
(gauge p = 2 on float64 data); elsewhere libm's pow and hypot may round
otherwise than numpy's power and complex abs. Cells that `==` calls equal
may differ in the sign of a zero, which the scalar step takes from the
first cell. The run measures such a state as one cell (`functionals`).

The stepper (`Stepper`) owns the workspace, the background at its time
and the step control: dt is clamped to the CFL window cfl * h * a_min / c
(a_min over the step endpoints; a window below dt_min at t0, or later over
a step of dt_min, is a config error, as is a t0 where t0 + dt rounds to
t0), a step that grows ||u|| by more than growth_tol is retried at dt/2
until dt_min, and after a stretch of accepted steps dt regrows toward the
configured value. Blow-up is ||u||^2 at
blowup_threshold times its initial value ("norm_threshold"), dt pinned at
dt_min with accelerating growth ("step_collapse"), or a nonfinite state
("nonfinite": the last finite state ends the trace and detected stays
False). It starts from one record, `StepState`, which `run()` makes at t0
and `Stepper.checkpoint()` copies. A certificate reads the t0 measurement
of the run's `Start` (`rec`), which also applies the wrap guard at t0.

The recorder, `run()`, follows one certificate value (`cert`: the bound,
exponent and rate of theta), feeds the history integrals, writes the rows
through one snapshot, tracks the wrap margin and fits t* to the tail:
||u||^2 scales like (t* - t)^(-4/(p-1)), so y = L^(-(p-1)/4) is
asymptotically linear and its zero crossing, under two fit windows, gives
t* and an uncertainty. A run that starts returns its trace, whose `blowup`
names how it stopped; the wrap guard's is "wrap_around", with detected
False as for "nonfinite".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import (InvariantViolation, TimeBeyondHorizon, TooFewSamples,
                     WrapAroundRisk)
from .field import (Field, Grid, Stencil, grad_sq_array, lap_slab, lap_sum,
                    placed)
from .functionals import (FunctionalSnapshot, Integrals, PhysicalParams,
                          RunningIntegrals, is_uniform, norm_integrals,
                          potential_integrals, state_arrays, state_grid)
from .hypotheses import MODES, TheoremCheck
from .nonlinearity import Nonlinearity
from .scale_factor import ScaleFactor

_TAIL_POINTS = 12     # estimate_t_star: rows in the full fit window


@dataclass(frozen=True)
class RunConfig:
    t0: float = 0.0
    t_end: float = 1.0
    dt: float = 1e-3
    dt_min: float = 1e-9
    record_every: int = 10
    blowup_threshold: float = 1e12
    cfl: float = 0.4
    growth_tol: float = 0.05
    theorem_mode: str = "auto"

    def __post_init__(self):
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if self.t0 < 0:
            raise ValueError("t0 must be nonnegative")
        if self.dt <= 0 or self.dt_min <= 0:
            raise ValueError("dt and dt_min must be positive")
        if self.dt_min >= self.dt:  # else every step is at the floor
            raise ValueError("dt_min must be below dt")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.blowup_threshold <= 1:
            raise ValueError("blowup_threshold must exceed 1")
        if not 0 < self.cfl <= 1:
            raise ValueError("cfl must be in (0, 1]")
        if not 1.0 + self.growth_tol > 1.0:  # else every growth is rejected
            raise ValueError("growth_tol must keep 1.0 + growth_tol > 1.0")
        if self.theorem_mode not in MODES:
            raise ValueError(f"theorem_mode must be one of {MODES}")


@dataclass
class BlowupInfo:
    reason: str
    t: float
    t_star: float | None = None
    t_star_uncertainty: float | None = None
    detected: bool = True
    t_star_status: str | None = None  # why a detected blow-up has no t_star


@dataclass
class Trace:
    rows: list
    blowup: BlowupInfo | None
    meta: dict = dc_field(default_factory=dict)


class RK4Workspace:
    """The state one integration works in, set up once per run in the dtype
    that `state_arrays` chose, with nl and the grid spacing h. It measures
    its accepted state when built and after every `accept()`: `grad_sq`,
    the cell sum of |grad u|^2 (`field.grad_sq_array`), and `fu` = f(u)
    (None without nl). Between steps `trial_v` holds the stencil's sum of
    u (lap u times 12 h^2), which stage 1 reads, as it does fu; a tried
    step writes over it, and `reject()` computes it again.

    `uniform` marks a run that steps one scalar state (`_rk4_uniform`),
    given as its scalar pair or as arrays that `is_uniform` finds uniform,
    which it reduces to the Python scalars of their first cells. Its
    accepted state `u`, `v`, the trial state `trial_u`, `trial_v` and fu
    are Python scalars, the value of every cell (`accept()` swaps the
    pairs); it has no whole array and no stencil, and its gradient is 0.0.

    Otherwise whole arrays, each at its own `placed` slot: the accepted
    state `u`, `v`, the trial state `trial_u`, `trial_v`, a stage's input
    `su`, `sv` (the next stage's Laplacian reads all of su), the `stencil`,
    and fu, an array of its own that the measurement fills one stencil slab
    at a time, as the stages evaluate f. Scratch of one slab: dv/dt `kv`
    and a term `tmp`, which also takes f(u) in float64 (a complex f
    allocates its slab-sized value). `slabs` holds each stencil slab with
    its views of (u, v, trial_u, trial_v, su, sv, kv, tmp) and the `out` of
    f: tmp or None. A measurement reads none of trial_u, su, sv, kv, tmp and
    `slabs`: they are None and empty until the first `_rk4` makes them."""

    def __init__(self, u, v, nl: Nonlinearity | None, h: float):
        if isinstance(u, np.ndarray) and is_uniform(u, v):
            u, v = u.item(0), v.item(0)  # the pair of the first cells
        self.uniform = not isinstance(u, np.ndarray)
        self.u, self.v = self.trial_u, self.trial_v = u, v
        self.nl, self.h = nl, h
        self.slabs = self._swapped = ()
        if not self.uniform:
            self.trial_u = self.su = self.sv = self.kv = self.tmp = None
            self.trial_v = placed(u.shape, u.dtype, 3)
            self.stencil = Stencil(u.shape, u.dtype)
            self.fu = None if nl is None else placed(u.shape, u.dtype, 6)
        self._measure()

    def _allocate_step(self) -> None:
        """Allocate the buffers only a step uses and build `slabs`."""
        u, v, real = self.u, self.v, self.u.dtype == np.float64
        self.trial_u, self.su, self.sv = (
            placed(u.shape, u.dtype, slot) for slot in (2, 4, 5))
        shape = self.stencil.slabs[0].inner.shape[:1] + u.shape[1:]
        self.kv, self.tmp = (placed(shape, u.dtype, slot) for slot in (7, 8))
        self.slabs = []
        for slab in self.stencil.slabs:
            kv, tmp = (x[:slab.rows.stop - slab.rows.start]
                       for x in (self.kv, self.tmp))
            views = (x[slab.rows] for x in (
                u, v, self.trial_u, self.trial_v, self.su, self.sv))
            self.slabs.append((slab, *views, kv, tmp, tmp if real else None))
        self._swapped = [(slab, tu, tv, u, v, *rest)
                         for slab, u, v, tu, tv, *rest in self.slabs]

    def _measure(self) -> None:
        nl, u = self.nl, self.u
        if self.uniform:
            self.grad_sq = 0.0
            self.fu = None if nl is None else nl.f_scalar(u)
            return
        # the sum of u stays in trial_v for stage 1
        self.grad_sq = grad_sq_array(u, self.h, self.stencil, self.trial_v)
        if nl is not None:
            for slab in self.stencil.slabs:
                nl.f(u[slab.rows], out=self.fu[slab.rows])

    def accept(self) -> None:
        self.u, self.trial_u = self.trial_u, self.u
        self.v, self.trial_v = self.trial_v, self.v
        self.slabs, self._swapped = self._swapped, self.slabs
        self._measure()

    def reject(self) -> None:
        if not self.uniform:
            lap_sum(self.u, self.stencil, self.trial_v)


def _coeffs(vals, params, h) -> tuple:
    """The factors of `lap_slab`'s sum (lap u times 12 h^2), u, v and f(u)
    in dv/dt at the background values (a, adot, addot) of one time."""
    a, adot, _ = vals
    c2 = params.c * params.c
    return (c2 / (a * a) / (12.0 * h * h), params.m * params.m * c2,
            params.n * (adot / a), c2)


def _rhs_slab(slab, lap, k, u, v, nl, out, tmp, f_out, f_u=None):
    """dv/dt on one slab of u into out, from lap, the slab's `lap_slab`
    sum of u (out itself in stage 1); f(u) is the slab's rows of the whole
    array f_u, or if that is None goes into f_out (tmp, or None to allocate
    it)."""
    lap_c, mass, damp, c2 = k
    np.multiply(mass, u, out=tmp)
    np.multiply(lap, lap_c, out=out)
    np.subtract(out, tmp, out=out)
    np.multiply(damp, v, out=tmp)
    np.subtract(out, tmp, out=out)
    if nl is not None:
        np.multiply(c2, nl.f(u, out=f_out) if f_u is None
                    else f_u[slab.rows], out=tmp)
        np.add(out, tmp, out=out)


def _rk4_uniform(dt, k_start, k_mid, k_end, nl, ws: RK4Workspace):
    """`_rk4` on a uniform state: the operations of the array kernel, in its
    order, on the scalar pair `ws.u`, `ws.v`, into `ws.trial_u`,
    `ws.trial_v`; stage 1 takes f(u) from `ws.fu`. Each stage's dv/dt is
    `_rhs_slab` on one cell with lap u = +0.0: the sum starts from
    lap_c * 0.0, and c^2 f(u) is added only with nl."""
    u, v = ws.u, ws.v
    f = None if nl is None else nl.f_scalar
    hm = 0.5 * dt
    lap_c, mass, damp, c2 = k_start
    k1v = lap_c * 0.0 - mass * u - damp * v
    if f is not None:
        k1v = k1v + c2 * ws.fu
    su, sv = u + hm * v, v + hm * k1v
    lap_c, mass, damp, c2 = k_mid
    kv = lap_c * 0.0 - mass * su - damp * sv
    if f is not None:
        kv = kv + c2 * f(su)
    acc_u, acc_v = v + 2.0 * sv, k1v + 2.0 * kv
    su, sv = u + hm * sv, v + hm * kv
    kv = lap_c * 0.0 - mass * su - damp * sv
    if f is not None:
        kv = kv + c2 * f(su)
    acc_u, acc_v = acc_u + 2.0 * sv, acc_v + 2.0 * kv
    su, sv = u + dt * sv, v + dt * kv
    lap_c, mass, damp, c2 = k_end
    kv = lap_c * 0.0 - mass * su - damp * sv
    if f is not None:
        kv = kv + c2 * f(su)
    sixth = dt / 6.0
    ws.trial_u = u_new = u + sixth * (acc_u + sv)
    ws.trial_v = v_new = v + sixth * (acc_v + kv)
    return u_new, v_new


def _rk4(dt, k_start, k_mid, k_end, nl, ws: RK4Workspace):
    """One classical RK4 step of length dt from the accepted state at a
    time t, with dv/dt's factors (`_coeffs`) at t, t + dt/2 and t + dt.

    Buffer ownership: reads `ws.u`, `ws.v` and never writes them; writes the
    new state into `ws.trial_u`, `ws.trial_v` and returns those two arrays,
    which stay valid until the next `_rk4` call on ws (after `ws.accept()`
    they are the accepted state). Every other buffer of ws but `ws.fu` is
    overwritten. Stage 1 scales in place the Laplacian sum of u that the
    measurement (or `ws.reject()`) left in ws.trial_v, and reads f(u) from
    ws.fu; each later stage loads its input and sweeps it. A stage
    finishes one slab at a time; the Laplacian reads the loaded copy, so su
    may be overwritten slab by slab. The weighted sum k1 + 2 k2 + 2 k3 + k4
    is accumulated in the trial buffers stage by stage, in that order, so
    every element sees the operations of the plain RK4 formula; dv/dt's
    Laplacian term is the stencil's pairwise sum times one folded factor
    (`field`). A uniform workspace takes `_rk4_uniform` instead, whose
    state and trial state are scalar pairs."""
    if ws.uniform:
        return _rk4_uniform(dt, k_start, k_mid, k_end, nl, ws)
    if not ws.slabs:
        ws._allocate_step()
    hm = 0.5 * dt
    # stage 1: k1 = (v, acc_v), from the sum of u in acc_v
    for slab, u, v, _, acc_v, su, sv, _, tmp, f_out in ws.slabs:
        _rhs_slab(slab, acc_v, k_start, u, v, nl, acc_v, tmp, f_out, ws.fu)
        np.multiply(hm, v, out=su)
        np.add(u, su, out=su)
        np.multiply(hm, acc_v, out=sv)
        np.add(v, sv, out=sv)
    # stages 2 and 3: k = (sv, kv); the u sum starts from k1u = v
    for stage, step_next in ((2, hm), (3, dt)):
        ws.stencil.load(ws.su)
        for slab, u, v, acc_u, acc_v, su, sv, kv, tmp, f_out in ws.slabs:
            _rhs_slab(slab, lap_slab(slab), k_mid, su, sv, nl, kv, tmp, f_out)
            np.multiply(step_next, sv, out=su)
            np.add(u, su, out=su)
            np.multiply(2.0, sv, out=sv)
            np.add(v if stage == 2 else acc_u, sv, out=acc_u)
            np.multiply(step_next, kv, out=sv)
            np.add(v, sv, out=sv)
            np.multiply(2.0, kv, out=kv)
            np.add(acc_v, kv, out=acc_v)
    # stage 4
    ws.stencil.load(ws.su)
    sixth = dt / 6.0
    for slab, u, v, acc_u, acc_v, su, sv, kv, tmp, f_out in ws.slabs:
        _rhs_slab(slab, lap_slab(slab), k_end, su, sv, nl, kv, tmp, f_out)
        np.add(acc_u, sv, out=acc_u)
        np.add(acc_v, kv, out=acc_v)
        np.multiply(sixth, acc_u, out=acc_u)
        np.add(u, acc_u, out=acc_u)
        np.multiply(sixth, acc_v, out=acc_v)
        np.add(v, acc_v, out=acc_v)
    return ws.trial_u, ws.trial_v


@dataclass
class StepState:
    """The accepted state (u, v) at t, the step size dt to try next, ||u||^2
    at the start (L0, blowup_threshold's unit) and at t (L_prev), the accepts
    since dt last changed and the growth ratios of the last (up to three)
    steps accepted at the dt_min floor. (u, v) are whole arrays, or the
    Python scalars of a uniform state's cell: `run()` starts from its
    `Start`'s workspace pair, the stepper keeps the accepted pair here, and
    `Stepper.checkpoint()` fills whole arrays from them."""

    t: float
    u: np.ndarray | float | complex
    v: np.ndarray | float | complex
    dt: float
    L0: float
    L_prev: float
    accept_streak: int
    floor_ratios: tuple


class Stepper:
    """Adaptive RK4 from a `StepState`, stepping in ws (the `RK4Workspace`
    of its u and v) and keeping the state current: a stepper built from
    `checkpoint()` and a workspace of its arrays takes the same steps bit
    for bit. `bg` is the background (a, adot, addot) at the state's time:
    t0's throughout, with dv/dt's factors, if `sf.static`. `steps()` yields
    (t, dt, L, motion, bg) of each accepted step until t_end or `blowup`:
    the new time, its length, ||u||^2, the motion integrals (||u_t||^2,
    Re(u, u_t), ||grad u||^2) and the new bg, after the step's guards: the
    step is the last if it set `blowup` or reached `t_stop`."""

    def __init__(self, state: StepState, ws: RK4Workspace, sf: ScaleFactor,
                 params: PhysicalParams, nl: Nonlinearity | None, grid: Grid,
                 cfg: RunConfig):
        horizon = sf.horizon()
        if cfg.t_end >= horizon:
            raise TimeBeyondHorizon(f"t_end = {cfg.t_end} not below the "
                                    f"background horizon {horizon}")
        if params.n != grid.n:
            raise ValueError("params.n must match the grid dimension")
        if sf.n != params.n:
            raise ValueError("the background's n must match params.n")
        if state.t + state.dt == state.t:  # no step would move t
            raise InvariantViolation("dynamics", f"t0 + dt rounds to t0 = "
                                     f"{state.t} at dt = {state.dt}")
        self.state, self.params, self.nl = state, params, nl
        self.sf, self.grid, self.cfg = sf, grid, cfg
        self._cfl_h = cfg.cfl * grid.spacing
        self.bg = sf.eval(state.t)
        self._window(self.bg, self.bg, state.t, cfg.dt_min)
        self._k = _coeffs(self.bg, params, grid.spacing)
        if not math.isfinite(cfg.blowup_threshold * state.L0):
            raise InvariantViolation(
                "dynamics", f"norm threshold blowup_threshold * ||u0||^2 = "
                f"{cfg.blowup_threshold} * {state.L0} overflows")
        self.ws = ws
        self.t_stop = cfg.t_end - 1e-12 * max(1.0, abs(cfg.t_end))
        self.accepted = self.rejected = 0
        self.blowup: BlowupInfo | None = None

    def _window(self, start, end, t: float, floor: float) -> float:
        """The CFL window of a step from t with the background values start
        and end; InvariantViolation below floor."""
        window = self._cfl_h * min(start[0], end[0]) / self.params.c
        if window < floor:
            raise InvariantViolation(
                "dynamics", f"CFL window cfl * h * a / c = {window} at "
                f"t = {t} is below dt_min = {self.cfg.dt_min}")
        return window

    def checkpoint(self) -> StepState:
        ws = self.ws
        if ws.uniform:  # the only whole arrays of a uniform run
            u, v = (np.full(self.grid.shape, x) for x in (ws.u, ws.v))
        else:
            u, v = ws.u.copy(), ws.v.copy()
        return replace(self.state, u=u, v=v)

    def steps(self):
        st, ws, sf, nl, grid = self.state, self.ws, self.sf, self.nl, self.grid
        params, c, cfl_h = self.params, self.params.c, self._cfl_h
        h, cv = grid.spacing, grid.cell_volume
        cfg, t_end, dt_min = self.cfg, self.cfg.t_end, self.cfg.dt_min
        dt_max, t_stop = cfg.dt, self.t_stop
        growth, L_max = 1.0 + cfg.growth_tol, cfg.blowup_threshold * st.L0
        bg, k_start = self.bg, self._k
        fixed = (bg, k_start) if sf.static else None  # t0's, for every t
        retry = None  # a rejected attempt's midpoint, the retry's end
        while self.blowup is None and st.t < t_stop:
            t, dt = st.t, st.dt
            if t_end - t < dt:
                dt = t_end - t
            end, k_end = retry or fixed or (sf.eval(t + dt), None)
            retry = None
            window = cfl_h * (end[0] if end[0] < bg[0] else bg[0]) / c
            if window < dt and window < dt_min:  # try the floor step's window
                dt = min(dt, dt_min)
                end, k_end = sf.eval(t + dt), None
                window = self._window(bg, end, t, dt)
            if window < dt:
                dt = window
                end, k_end = fixed or (sf.eval(t + dt), None)
            k_end = k_end or _coeffs(end, params, h)
            mid = fixed[0] if fixed else sf.eval(t + 0.5 * dt)
            k_mid = fixed[1] if fixed else _coeffs(mid, params, h)
            u_new, v_new = _rk4(dt, k_start, k_mid, k_end, nl, ws)
            L, ut_sq, re_u_ut = norm_integrals(u_new, v_new, grid)
            if not math.isfinite(L):
                self.blowup = BlowupInfo("nonfinite", t, detected=False)
                return
            ratio = math.sqrt(L / st.L_prev) if st.L_prev > 0 else 1.0
            at_floor = dt <= dt_min
            grew = ratio > growth
            if grew and not at_floor:
                st.dt = 0.5 * dt
                st.accept_streak = 0
                self.rejected += 1
                ws.reject()
                retry = mid, k_mid  # t + dt/2, the retry's t + dt
                continue
            st.t = t = t + dt
            ws.accept()
            st.u, st.v = ws.u, ws.v
            self.bg, self._k = bg, k_start = end, k_end
            self.accepted += 1
            st.accept_streak += 1
            # regrow after 4 clean accepts; 3 at-floor accepts still fit in
            # the step_collapse window before the doubling lifts dt off it
            if st.accept_streak >= 4 and st.dt < dt_max:
                st.dt = min(dt_max, 2.0 * st.dt)
                st.accept_streak = 0
            motion = (ut_sq, re_u_ut, ws.grad_sq * cv)
            if not (math.isfinite(ut_sq) and math.isfinite(motion[2])):
                self.blowup = BlowupInfo("nonfinite", t, detected=False)
                return
            if L >= L_max:
                self.blowup = BlowupInfo("norm_threshold", t)
            elif at_floor and grew:
                r = st.floor_ratios = st.floor_ratios[-2:] + (ratio,)
                if len(r) == 3 and r[0] < r[1] < r[2]:
                    self.blowup = BlowupInfo("step_collapse", t)
            elif st.floor_ratios:
                st.floor_ratios = ()
            st.L_prev = L
            yield t, dt, L, motion, end


def _row_builder(params: PhysicalParams, cert: TheoremCheck | None,
                 L0: float, E_t0: float):
    """The row snapshot of a run that follows cert (or None: no anchor in
    theta, and NaN theta^(-kappa) and zeta), with L0 and E at t0 (in
    Hdiag). cert gives theta's anchor n (T_bound - t) rate0 L0, kappa and
    zeta's weight 4 kappa + 1, computed once, as is Hdiag's E_t0 term."""
    n, eps = params.n, params.eps
    mode = "none" if cert is None else cert.name
    if cert is not None:
        T_bound, rate0, kappa = cert.T_bound, cert.rate0, cert.kappa
        kt = 4.0 * kappa + 1.0
    # Hdiag's denominator; 0 for m = 0 and for a subnormal |m| whose product
    # underflows, both the massless limit, where Hdiag is NaN
    hd_den = abs(params.m) * params.c * eps
    hd_E = 4.0 * (eps + 2.0) * E_t0 / hd_den if hd_den > 0.0 else None

    def snapshot(t: float, dt_used: float, rec: Integrals, a, adot,
                 acc: RunningIntegrals, margin: float) -> FunctionalSnapshot:
        L, ut_sq, re_u_ut = rec.L, rec.ut_sq, rec.re_u_ut
        E = rec.energy(a, params)
        I = rec.nehari(a, params)
        theta = L + acc.P + n * acc.IG
        try:
            cross_sq = (re_u_ut + acc.R) ** 2
        except OverflowError:  # a finite state whose eta overflows
            cross_sq = math.inf
        eta = (L + acc.P) * (ut_sq + acc.Q) - cross_sq
        negk = zeta = math.nan
        if cert is not None:
            theta += n * (T_bound - t) * rate0 * L0
            if theta > 0:
                negk = theta ** -kappa
            zeta = -(kt + 1.0) * ut_sq - 2.0 * I - (kt + 3.0) * acc.Q
        hdg = math.nan if hd_E is None else 2.0 * re_u_ut - hd_E
        return FunctionalSnapshot(
            t, dt_used, L, 2.0 * re_u_ut, E, I, theta,
            2.0 * re_u_ut + 2.0 * acc.R, 2.0 * (ut_sq - I), negk, eta, zeta,
            hdg, margin, acc.G, ut_sq, mode, acc.dissipated, a, adot)
    return snapshot


class Start:
    """The data (u0, u1) of one run: its grid, the wrap margin at t0
    `margin` (half_width - support_radius, inf without support_radius;
    WrapAroundRisk, before any measurement, if not positive), its workspace
    `ws` (which holds nl) and the t0 measurement `rec`, from the
    workspace's load and f(u), which the first step takes and a certificate
    reads."""

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, u0: Field, u1: Field, nl: Nonlinearity | None,
                 support_radius: float | None = None):
        self.grid = grid = state_grid(u0, u1)
        self.margin = (math.inf if support_radius is None
                       else grid.half_width - support_radius)
        if self.margin <= 0:
            raise WrapAroundRisk(
                f"support radius {support_radius} already fills the box")
        self.ws = ws = RK4Workspace(*state_arrays(u0, u1), nl, grid.spacing)
        self.rec = Integrals(*norm_integrals(ws.u, ws.v, grid),
                             ws.grad_sq * grid.cell_volume,
                             *potential_integrals(ws.u, ws.fu, grid, nl))


@np.errstate(over="ignore", invalid="ignore")
def run(start: Start, sf: ScaleFactor, params: PhysicalParams,
        cfg: RunConfig, cert: TheoremCheck | None = None) -> Trace:
    """Integrate from the data of start at cfg.t0 and record the
    diagnostic trace.

    A `Stepper` takes the steps. Each accepted state feeds the history
    integrals; it is a row at t0, every record_every steps, at every step of
    the blow-up tail and at the end. cert, the report's certificate or None,
    labels each row's mode and gives its theta columns (`_row_builder`).
    The trace carries the light-cone wrap margin from start.margin: one
    exhausted before t_end ends the run with the undetected blow-up
    "wrap_around". numpy's overflow warnings are off: a non-finite state
    is the trace's "nonfinite" ending.
    """
    grid, ws, rec, nl = start.grid, start.ws, start.rec, start.ws.nl
    L0 = rec.L
    if L0 <= 0:
        raise InvariantViolation("dynamics", "initial data must be nonzero")
    stepper = Stepper(StepState(cfg.t0, ws.u, ws.v, cfg.dt, L0, L0, 0, ()),
                      ws, sf, params, nl, grid, cfg)
    margin0 = start.margin
    acc = RunningIntegrals(params.n, params.c)
    a, adot, addot = stepper.bg
    E_t0 = rec.energy(a, params)
    snapshot = _row_builder(params, cert, L0, E_t0)
    acc.push(cfg.t0, *rec[:4], a, adot, addot)
    rows = [snapshot(cfg.t0, 0.0, rec, a, adot, acc, margin0)]

    tail_start = cfg.blowup_threshold * 1e-4
    # a row every record_every steps, at the last step unless it wrapped,
    # and at each step of the blow-up tail, L >= tail_L (none when linear)
    record_every, t_stop = cfg.record_every, stepper.t_stop
    tail_L = tail_start * L0 if nl is not None else math.inf
    guarded, margin = math.isfinite(margin0), math.inf
    since_record = 0
    for t, dt_used, L, (ut_sq, re_u_ut, grad_sq), (a, adot, addot) in (
            stepper.steps()):
        acc.push(t, L, ut_sq, re_u_ut, grad_sq, a, adot, addot)
        since_record += 1
        if guarded:
            margin = margin0 - acc.light_path
        wrapped = margin <= 0
        if (since_record >= record_every or L >= tail_L or not wrapped and (
                t >= t_stop or stepper.blowup is not None)):
            F, re_fu = potential_integrals(ws.u, ws.fu, grid, nl)
            rec = Integrals(L, ut_sq, re_u_ut, grad_sq, F, re_fu)
            rows.append(snapshot(t, dt_used, rec, a, adot, acc, margin))
            since_record = 0
        if wrapped:
            stepper.blowup = BlowupInfo("wrap_around", t, detected=False)
            break

    blow = stepper.blowup
    if blow is not None and blow.detected:
        if nl is None:
            blow.t_star_status = "linear equation: no power-law tail to fit"
        else:
            try:
                blow.t_star, blow.t_star_uncertainty = estimate_t_star(
                    rows, nl.p, L0, tail_factor=min(1e8, tail_start))
            except (TooFewSamples, ValueError) as exc:
                blow.t_star_status = str(exc)
    return Trace(rows=rows, blowup=blow, meta={
        "accepted": stepper.accepted, "rejected": stepper.rejected,
        "t_final": stepper.state.t, "reached_t_end": blow is None,
        "E_t0": E_t0, "L0": L0})


def estimate_t_star(rows, p: float, L0: float,
                    tail_factor: float = 1e8) -> tuple[float, float]:
    """Extrapolate the blow-up instant from the recorded tail.

    Fits y = L^(-(p-1)/4) linearly in t over the last _TAIL_POINTS rows with
    L >= tail_factor * L0 and returns the zero crossing, with the shift under
    a half-window refit as the uncertainty.
    """
    tail = [r for r in rows if r.L >= tail_factor * L0]
    tail = tail[-_TAIL_POINTS:]
    if len(tail) < 4:
        raise TooFewSamples(
            f"only {len(tail)} rows above the tail threshold")
    t = np.array([r.t for r in tail])
    y = np.array([r.L for r in tail]) ** (-(p - 1.0) / 4.0)
    slope, intercept = np.polyfit(t, y, 1)
    if slope >= 0:
        raise ValueError("tail is not decaying toward a zero crossing")
    t_full = -intercept / slope
    half = len(tail) // 2
    s2, i2 = np.polyfit(t[half:], y[half:], 1)
    t_half = -i2 / s2 if s2 < 0 else t_full
    return float(t_full), abs(float(t_full) - float(t_half))

