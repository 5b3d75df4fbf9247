"""The functionals as arithmetic on one measurement, against plain references.

The references (`oracles.py`) are the functionals as written before the six
spatial integrals of a state were measured once: each one recomputes its
norms from the fields, with the plain integrals of the `field` module of
that time, except that ||grad u||^2 is the plain quadratic form
`ref_grad_sq` and int F sums the closed form of F (`ref_F`), where the
program takes Re int f(u) conj(u) / (p+1). They are given the state's arrays
in the dtype that `state_arrays` picks, as a `Start` is. The `Integrals`
arithmetic performs the reference's floating-point operations in the same
order, so the norms agree bit for bit, and E and I within a bound from
`grad_bound` and, for E, from the per-call errors of f and of the closed
form and the summation bound gamma_N (`potential_gap`); what takes E and I
to the reference formulas given the measured E and I agrees bit for bit.
A run measures uniform data as one cell times the box volume; that measure
is held to the exact rational sum of its N^n equal cells. The count tests
check that a simulation, its certificate included, measures each state
once, that a uniform run sums no array while it steps, and that a recorded
row takes f(u) from the measurement of its state, without a call of the
nonlinearity.
"""

import contextlib
import inspect
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kgflrw import (DeSitter, GaugeInvariantPower, Grid, PhysicalParams,
                    PowerLaw, RealAbsPower, bundled_scenario_text, evaluate,
                    field)
from kgflrw import config, dynamics, functionals
from kgflrw.cli import main_entry, parse_report
from kgflrw.errors import HorizonTooShort
from kgflrw.dynamics import (RK4Workspace, RunConfig, Start, Stepper,
                             StepState)
from kgflrw.field import Field, Stencil
from oracles import (NONLINEARITIES, U, Arrays, State, abs_dot, count_calls,
                     eval_gap, exact_dot, gamma, gamma_units, grad_bound,
                     grad_norm_sq, inner_re, integrate_F, l1, l2_norm_sq,
                     potential_gap, ref_classify_table1, ref_delta,
                     ref_energy, ref_F, ref_nehari, ref_rho, same_bits,
                     edited_scenario, scenario_cert, vehicle_text)

# ---------------------------------------------------------------------------
# the functionals on random states


@st.composite
def states(draw):
    """Random data (u0, u1) on a 1-3 dimensional grid with 8-16 points per
    axis, a nonlinearity (real data for the real-only family), a background
    with a != 1 at t0 > 0, and physical parameters. The a != 1 condition is
    on the evaluated a(t0): PowerLaw(sigma=1, H=1, a0=0.5) has a(1) = 1."""
    n = draw(st.integers(1, 3))
    grid = Grid(n=n, points_per_axis=draw(st.integers(8, 16)),
                half_width=draw(st.floats(0.5, 4.0)))
    nl = draw(st.sampled_from(NONLINEARITIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = [draw(st.floats(1e-2, 3.0)) for _ in range(2)]
    vals = [s * (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
            for s in scales]
    if nl is not None and nl.real_only:
        vals = [v.real for v in vals]
    a0 = draw(st.floats(0.5, 2.0))
    H = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        sf = DeSitter(H=H, a0=a0, n=n)
    else:
        sf = PowerLaw(draw(st.floats(0.0, 2.0)), H=H, a0=a0, n=n)
    params = PhysicalParams(m=draw(st.floats(-2.0, 2.0)),
                            c=draw(st.floats(0.5, 2.0)),
                            eps=draw(st.floats(0.1, 3.0)), n=n)
    t0 = draw(st.floats(0.05, 1.5))
    assume(sf.eval(t0)[0] != 1.0)
    return Field(grid, vals[0]), Field(grid, vals[1]), t0, sf, params, nl


def assert_within_gradient_gap(got, want, q, u, k: int, terms: float,
                               extra: float = 0.0) -> None:
    """A value of the program's measurement against the reference's, whose
    terms agree but q ||grad u||^2, whose cell sums (grad_sq_array,
    ref_grad_sq) differ by at most grad_bound, and any other whose distance
    extra bounds; each value is within gamma_k of the exact sum of its own
    terms, and terms sums the magnitudes of both values' terms."""
    bound = (q * u.grid.cell_volume * grad_bound(u.values, u.grid.spacing)
             + extra + gamma(k) * terms)
    assert abs(got - want) <= bound, (got, want, bound)


@settings(max_examples=80, deadline=None)
@given(states())
def test_functionals_match_reference_bitwise(case):
    """A `Start`'s t0 measurement against the reference: the norms bit for
    bit, and within `assert_within_gradient_gap` ||grad u||^2 (the volume's
    rounding), I (two products and two sums) and E(t0) and E(0) (two
    products and three sums, and c^2 int F within c^2 potential_gap A, with
    A = sum_i |F(u_i)| times the cell volume as its float sum, which moves
    the bound at second order only), with two roundings more for the
    magnitudes of rounded terms. rho, delta and the table's label are bit
    for bit given the measured E and I, as is `evaluate`'s report."""
    u0, u1, t0, sf, params, nl = case
    r0, r1 = (Arrays(u0.grid, x) for x in functionals.state_arrays(u0, u1))
    state = State(t0, r0, r1)
    a0, a_0 = sf.eval(t0)[0], sf.eval(0.0)[0]
    assert a0 != 1.0
    rec = Start(u0, u1, nl).rec
    assert same_bits(rec[:3], (l2_norm_sq(r0), l2_norm_sq(r1),
                               inner_re(r0, r1)))
    G_ref, F_ref, extra = grad_norm_sq(r0), 0.0, 0.0
    assert_within_gradient_gap(rec.grad_sq, G_ref, 1.0, r0, 1,
                               abs(rec.grad_sq) + abs(G_ref))
    c2, m2c2 = params.c * params.c, params.m * params.m * params.c ** 2
    if nl is not None:
        F_ref = integrate_F(nl, r0)
        A = float(np.sum(np.abs(ref_F(nl, r0.values)))) * r0.grid.cell_volume
        extra = c2 * potential_gap(nl, r0.values.size) * A
    E, E_0 = rec.energy(a0, params), rec.energy(a_0, params)
    for a, got, t in ((a0, E, t0), (a_0, E_0, 0.0)):
        q = 0.5 * c2 / (a * a)
        terms = sum(0.5 * (rec.ut_sq + m2c2 * rec.L) + q * abs(G) + c2 * abs(F)
                    for G, F in ((rec.grad_sq, rec.F), (G_ref, F_ref)))
        want = ref_energy(State(t, r0, r1), sf, params, nl)
        assert_within_gradient_gap(got, want, q, r0, 7, terms, extra)
    I, q = rec.nehari(a0, params), c2 / (a0 * a0)
    terms = sum(m2c2 * rec.L + q * abs(G) + c2 * abs(rec.re_fu)
                for G in (rec.grad_sq, G_ref))
    assert_within_gradient_gap(I, ref_nehari(state, sf, params, nl), q, r0,
                               6, terms)
    assert same_bits(rec.rho(a_0, params),
                     ref_rho(r0, r1, sf, params, nl, E0=E_0))
    assert same_bits(rec.delta(a0, params),
                     ref_delta(r0, r1, t0, sf, params, nl, E0=E))
    label = ref_classify_table1(r0, r1, t0, sf, params, nl, E0=E, I0=I)
    try:
        rep = evaluate(rec, t0, sf, params)
    except HorizonTooShort:
        # the label reads the background only through a(t0), which a flat
        # background of scale a(t0), without a horizon, gives exactly
        flat = PowerLaw(0.0, H=0.0, a0=a0, n=params.n)
        assert evaluate(rec, t0, flat, params).case_label == label
        return
    assert same_bits((rep.E_t0, rep.I_u0), (E, I))
    assert same_bits(rep.delta, ref_delta(r0, r1, t0, sf, params, nl, E0=E))
    assert rep.case_label == label


# ---------------------------------------------------------------------------
# one measurement per state


def test_simulate_measures_each_state_once(tmp_path, monkeypatch):
    """A simulation on non-uniform data measures each state once, through
    the run's one stencil: the certificate (`check`'s too) reads the t0
    measurement, so the gradient is taken at t0 and per accepted step. A step
    loads and sweeps its stages 2 to 4; stage 1 reads the Laplacian sum of
    the accepted state's gradient, which the stepper computes again only
    after a rejection. So a run ending at t_end or at the norm threshold
    loads 4 x attempted steps + 1 times and sweeps each load once, in one
    slab here. f runs once per slab for each measurement and each of
    stages 2 to 4: slabs x (accepted + 1) + 3 x slabs x attempted calls.
    The anchor's uniform run and its certificate measure one cell, with
    gradient 0.0: no gradient, no stencil, no load and no sweep, and as
    many calls of f_scalar as one slab makes of f. The anchor and the
    vehicle reject steps, blow up and record every step of their tail; the
    shortened smooth run ends between two recorded steps, so its last row
    comes after the loop."""
    nl_calls = count_nonlinearity_calls(monkeypatch)
    grads = count_calls(monkeypatch, field, "grad_sq_array")
    sweeps = count_calls(monkeypatch, field, "lap_slab")
    stencils = count_calls(monkeypatch, Stencil, "__init__")
    loads = count_calls(monkeypatch, Stencil, "load")
    smooth = bundled_scenario_text("desitter-smooth").replace(
        "run.t_end = 0.8", "run.t_end = 0.105")
    for name, text, min_steps in (
            ("anchor", bundled_scenario_text("minkowski-m0-u2-A3"), 1000),
            ("vehicle", vehicle_text(), 1000), ("smooth", smooth, 100)):
        del nl_calls[:], grads[:], sweeps[:], stencils[:], loads[:]
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main_entry(["simulate", str(cfg), "--out", str(out)]) == 0
        report = parse_report((out / "report.txt").read_text())
        accepted = report["run.accepted_steps"]
        rejected = report["run.rejected_steps"]
        assert accepted > min_steps and (rejected > 0) == (name != "smooth")
        assert report["blowup.reason"] == (
            "none" if name == "smooth" else "norm_threshold")
        counts = (len(grads), len(stencils), len(loads), len(sweeps))
        attempted = accepted + rejected
        assert nl_calls == ["f_scalar" if name == "anchor" else "f"] * (
            accepted + 1 + 3 * attempted)
        if name == "anchor":
            assert counts == (0, 0, 0, 0)
        else:
            assert counts == (accepted + 1, 1, 4 * attempted + 1,
                              4 * attempted + 1)
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert float(rows[-1].split(",")[0]) == report["run.t_final"]
    assert accepted % 20 != 0  # the last row is not a recorded step


# ---------------------------------------------------------------------------
# a uniform state, measured as one cell


def assert_exact_within(got: float, exact: Fraction, scale: Fraction, k: int,
                  vol: Fraction, extra: Fraction = Fraction(0)):
    """got is exact up to k roundings, each 2^-53 relative to scale, or,
    where a product underflows, 2^-1074 absolute before the volume vol,
    and up to extra more."""
    tiny = k * vol / 2 ** 1074
    assert abs(Fraction(got) - exact) <= gamma_units(k) * scale + tiny + extra


def amplitudes(real: bool):
    part = st.floats(-10.0, 10.0, allow_subnormal=False)
    if real:
        return part
    return st.builds(complex, part, part)


@st.composite
def uniform_states(draw):
    """A uniform state on a grid of dimension 1-3 with N = 8-64 points per
    axis: a nonzero real or complex amplitude, a velocity of the same kind
    (or a signed zero), and a nonlinearity that steps such data."""
    n = draw(st.integers(1, 3))
    grid = Grid(n=n, points_per_axis=draw(st.integers(8, 64)),
                half_width=draw(st.floats(0.5, 4.0)))
    real = draw(st.booleans())
    u = draw(amplitudes(real).filter(lambda x: abs(x) > 1e-3))
    v = draw(amplitudes(real) | st.sampled_from([0.0, -0.0]))
    nl = draw(st.sampled_from(
        [GaugeInvariantPower(p=p, lam=lam) for p in (2.0, 2.5, 3.0)
         for lam in (1.0, -1.0)] + ([RealAbsPower(p=2.0),
                                     RealAbsPower(p=3.0, sign=-1)]
                                    if real else [])))
    if real:
        u, v = float(u.real), float(v.real)
    else:
        u, v = complex(u), complex(v)
    return grid, u, v, nl


@settings(max_examples=60, deadline=None)
@given(uniform_states())
@example((Grid(n=1, points_per_axis=64, half_width=math.pi), 3 + 0.5j,
          complex(-0.0, -0.0), GaugeInvariantPower(p=2.0)))  # Re(conj(v) u) = -0.0
def test_uniform_measure_is_the_exact_sum_up_to_roundings(state):
    """||u||^2, ||u_t||^2, Re(u, u_t), int F and Re int f(u) conj(u) of a
    uniform state, as a `Start` and run() report them at t0 and a stepper
    and a recorded row report them after a step, against the exact
    rational sum of the grid's N^n equal cells times the cell volume. f of
    a cell is numpy's value on the whole array, equal at every cell, so
    that sum is N^n times the cell's value; int F is held to the exact sum
    of Re(f(u) conj(u)) / (p+1). The bounds count roundings in units of
    2^-53 (gamma_k): four for a norm (two products, their sum, the volume
    cell_volume * N^n and the product with it), the same for Re(u, u_t) and
    Re f(u) conj(u), relative to the sum of the absolute values of the
    cell's products (at most |u| |v|, as the sum can cancel), and five for
    int F (the quotient by p+1); a product that underflows adds at most
    2^-1074 before the volume. The run takes f of the cell as
    f_scalar, which may differ from numpy's by eval_gap of |f|, so by that
    much more of |u| |f| V (each modulus bounded by l1). A zero sum is
    +0.0."""
    grid, u, v, nl = state
    cells = grid.points_per_axis ** grid.n
    vol = cells * Fraction(grid.cell_volume)
    params = PhysicalParams(m=1.0, c=1.0, eps=nl.eps, n=grid.n)
    sf = PowerLaw(0.0, H=0.0, n=grid.n)
    cfg = RunConfig(t_end=0.01, dt=0.01, theorem_mode="none")
    fields = [Field(grid, np.full(grid.shape, x)) for x in (u, v)]
    start = Start(*fields, nl)
    rec = start.rec
    trace = dynamics.run(start, sf, params, cfg)
    row0 = trace.rows[0]
    assert rec.grad_sq == 0.0
    stepper = Stepper(StepState(0.0, u, v, cfg.dt, 1.0, 1.0, 0, ()),
                      RK4Workspace(u, v, nl, grid.spacing), sf, params, nl,
                      grid, cfg)
    _, _, L, (ut_sq, re_u_ut, grad_sq), _ = next(stepper.steps())
    ws = stepper.ws
    assert ws.uniform and grad_sq == 0.0
    # at t0 (the Start's record as run's L0 and row 0), then after a step
    for x, y, norms in ((u, v, (trace.meta["L0"], row0.ut_sq,
                                0.5 * row0.Lp)),
                        (ws.u, ws.v, (L, ut_sq, re_u_ut))):
        for got, a, b in zip(norms, (x, y, y), (x, y, x)):
            assert_exact_within(got, exact_dot(a, b) * vol,
                                abs_dot(a, b) * vol, 4, vol)
            if exact_dot(a, b) == 0:
                assert math.copysign(1.0, got) == 1.0

    stepped = functionals.potential_integrals(ws.u, ws.fu, grid, nl)
    for x, (F, re_fu) in ((u, rec[4:]), (ws.u, stepped)):
        f_cells = nl.f(np.full(grid.shape, x))
        f_cell = f_cells.flat[0].item()
        assert np.all(f_cells == f_cell)
        f_gap = Fraction(eval_gap(nl, "f")) * l1(x) * l1(f_cell) * vol
        assert_exact_within(re_fu, exact_dot(x, f_cell) * vol,
                            abs_dot(x, f_cell) * vol, 4, vol, f_gap)
        # re_fu / (p+1), one rounding more, and 2^-1075 where it underflows
        p1 = Fraction(nl.p + 1.0)
        assert_exact_within(F, exact_dot(x, f_cell) * vol / p1,
                            abs_dot(x, f_cell) * vol / p1, 5, vol / p1,
                            f_gap * (1 + Fraction(U)) / p1
                            + Fraction(1, 2 ** 1075))


class CountingFills(np.ndarray):
    """An array that counts the calls of its fill method."""

    fills: list = []

    def fill(self, value):
        CountingFills.fills.append(None)
        super().fill(value)


def test_uniform_run_sums_no_array_per_step(monkeypatch):
    """The anchor's uniform run, from state arrays that count their fills
    (an array made like them is one too), makes no np.vdot and no fill in
    any of its attempted steps and recorded rows (a whole-array measure
    makes three vdot sums per attempted step and fills the trial arrays).
    The measurement is the one-cell arithmetic of norm_integrals and
    potential_integrals, once per attempted step and once per recorded
    row."""
    scn = config.parse_text(bundled_scenario_text("minkowski-m0-u2-A3"))
    u0, u1 = scn.build_fields()
    cert = scenario_cert(scn)
    arrays = functionals.state_arrays
    monkeypatch.setattr(dynamics, "state_arrays", lambda a, b: tuple(
        x.view(CountingFills) for x in arrays(a, b)))
    vdots, vdot = [], np.vdot
    monkeypatch.setattr(np, "vdot", lambda *a: vdots.append(None) or vdot(*a))
    norms = count_calls(monkeypatch, functionals, "norm_integrals")
    pots = count_calls(monkeypatch, functionals, "potential_integrals")
    steps = count_calls(monkeypatch, dynamics, "_rk4")
    CountingFills.fills.clear()
    trace = dynamics.run(Start(u0, u1, scn.nl), scn.sf, scn.params, scn.run,
                         cert)
    attempted = trace.meta["accepted"] + trace.meta["rejected"]
    assert trace.meta["rejected"] > 0 and len(trace.rows) > 300
    assert len(steps) == attempted
    assert (len(vdots), len(CountingFills.fills)) == (0, 0)
    assert len(norms) == 1 + attempted  # t0, then each attempted step
    assert len(pots) == len(trace.rows)


def count_nonlinearity_calls(monkeypatch) -> list:
    """Record the name of each call of a public method of either family:
    its f and f_scalar, and any other it defines."""
    calls = []
    for family in (GaugeInvariantPower, RealAbsPower):
        for name, method in list(vars(family).items()):
            if name.startswith("_") or not inspect.isfunction(method):
                continue

            def counting(self, *args, _method=method, _name=name, **kwargs):
                calls.append(_name)
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(family, name, counting)
    return calls


@pytest.mark.parametrize("edits, slab_bytes", [
    ((), None),
    ((("nonlin.p = 2.0", "nonlin.p = 3.0"),), None),
    ((("data0.amplitude = 3.0", "data0.amplitude = 3+0.5j"),), None),
    ((("nonlin.family = gauge", "nonlin.family = real"),
      ("nonlin.lambda = 1.0\n", "")), None),
    ((("data0.kind = homogeneous",
       "data0.kind = gaussian\ndata0.width = 1.0"),), None),
    ((("data0.kind = homogeneous",
       "data0.kind = gaussian\ndata0.width = 1.0"),), 128),
], ids=["p2", "p3", "complex", "real", "gaussian", "gaussian-slabs"])
def test_row_calls_the_nonlinearity_once(monkeypatch, edits, slab_bytes):
    """A recorded row makes no nonlinearity call: it takes int F and
    Re int f(u) conj(u) from the f(u) that the run's workspace evaluated
    when it measured the accepted state (a row that evaluated f made one
    call, one that also evaluated F two). The workspace measures the state
    at t0 and after each accepted step, calling the array f once per
    stencil slab, or f_scalar once on a uniform run. Stage 1 takes that
    f(u), and stages 2 to 4 call f as the measurement does, so a run makes
    slabs x (accepted + 1) + 3 x slabs x attempted steps calls (slabs = 1
    on a uniform run). Runs: the
    anchor cut to t_end = 0.05, uniform at p = 2, at p = 3, at amplitude
    3+0.5j and under the real family; a Gaussian u0 in one slab, and in
    four at a smaller slab size."""
    text = edited_scenario("minkowski-m0-u2-A3",
                           ("run.t_end = 1.75", "run.t_end = 0.05"), *edits)
    scn = config.parse_text(text)
    u0, u1 = scn.build_fields()
    uniform = "gaussian" not in text
    if slab_bytes is not None:
        monkeypatch.setattr(field, "SLAB_BYTES", slab_bytes)
    slabs = len(Stencil(scn.grid.shape, np.float64).slabs)
    assert slabs == (1 if slab_bytes is None else 4)
    calls = count_nonlinearity_calls(monkeypatch)
    per_row, measure_row = [], functionals.potential_integrals

    def counting_row(*args):
        before = len(calls)
        result = measure_row(*args)
        per_row.append(calls[before:])
        return result

    # the rows and t0's measurement
    monkeypatch.setattr(dynamics, "potential_integrals", counting_row)
    trace = dynamics.run(Start(u0, u1, scn.nl), scn.sf, scn.params, scn.run)
    accepted = trace.meta["accepted"]
    attempted = accepted + trace.meta["rejected"]
    assert attempted > 0 and len(trace.rows) > 1
    assert per_row == [[]] * len(trace.rows)
    per_state = 1 if uniform else slabs
    kind = "f_scalar" if uniform else "f"
    assert calls == [kind] * (per_state * (accepted + 1)
                              + 3 * per_state * attempted)
