"""The functionals as arithmetic on one measurement, against plain references.

The references below are the functionals as written before the six spatial
integrals of a state were measured once: each one recomputes its norms from
the fields, with the plain integrals of the `field` module of that time kept
here verbatim, except that int F sums the closed form of F (`ref_F`),
where `measure` takes Re int f(u) conj(u) / (p+1). They are given the
state's arrays in the dtype that `state_arrays` picks, as `measure` is.
`measure` and the `Integrals` arithmetic perform the same floating-point
operations in the same order, so both paths agree bit for bit but in
int F: there E is held to the reference within a bound from the per-call
errors of f and of the closed form and the summation bound gamma_N
(`potential_gap`), and what takes E to the reference formulas given the
measured E, bit for bit. A uniform run and `measure` measure uniform data
as one cell times the box volume; that measure is held to the exact
rational sum of its N^n equal cells. The count tests check that a simulation and a
certificate evaluation measure each state once, that a uniform run sums no
array while it steps, and that a recorded row takes f(u) from the
measurement of its state, without a call of the nonlinearity.
"""

import contextlib
import inspect
import io
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kgflrw import (DeSitter, GaugeInvariantPower, Grid, PhysicalParams,
                    PowerLaw, RealAbsPower, bundled_scenario_text,
                    classify_table1, evaluate, field, measure)
from kgflrw import cli, config, dynamics, functionals, hypotheses
from kgflrw.cli import main_entry, parse_report
from kgflrw.errors import GridMismatch, HorizonTooShort
from kgflrw.dynamics import (RK4Workspace, RunConfig, Start, Stepper,
                             StepState)
from kgflrw.field import Field, Stencil, grad_sq_array
from test_nonlinearity import U, eval_err, eval_gap, ref_F  # F's oracle

_REL = 1e-9


# ---------------------------------------------------------------------------
# reference integrals and functionals

State = namedtuple("State", "t u v")
Arrays = namedtuple("Arrays", "grid values")  # a field in the state's dtype


def l2_norm_sq(fld: Field) -> float:
    """||u||^2 = integral of |u|^2 over the torus."""
    return float(np.vdot(fld.values, fld.values).real) * fld.grid.cell_volume


def grad_norm_sq(fld: Field, ws: Stencil | None = None) -> float:
    """||grad u||^2 as the quadratic form of the fourth-order Laplacian."""
    return grad_sq_array(fld.values, fld.grid.spacing, ws) * fld.grid.cell_volume


def inner_re(f1: Field, f2: Field) -> float:
    """Re integral of u conj(v); the real part of the L2 pairing."""
    if f1.grid != f2.grid:
        raise GridMismatch("inner product needs both fields on one grid")
    return float(np.vdot(f2.values, f1.values).real) * f1.grid.cell_volume


def integrate_F(nl, fld: Field) -> float:
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
    quad = c2 / (a * a) * grad_norm_sq(state.u) + params.m * params.m * c2 * l2_norm_sq(state.u)
    bound = 0.5 * l2_norm_sq(state.v)
    bound += ref_nehari(state, sf, params, nl) / (eps + 2.0)
    bound += eps / (2.0 * (eps + 2.0)) * quad
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


def ref_classify_table1(u0, u1, t0, sf, params, nl, E0=None):
    """The table's label; E0, if given, stands for the reference E(t0)."""
    st_ = State(t0, u0, u1)
    if E0 is None:
        E0 = ref_energy(st_, sf, params, nl)
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


# ---------------------------------------------------------------------------
# bitwise equality on random states


NONLINEARITIES = (None, GaugeInvariantPower(p=2.0, lam=1.0),
                  GaugeInvariantPower(p=3.0, lam=-1.0, eps=2.5),
                  RealAbsPower(p=2.0), RealAbsPower(p=3.0, sign=-1))


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


def same_bits(x: float, y: float) -> bool:
    return float(x).hex() == float(y).hex()


def potential_gap(nl, cells: int) -> float:
    """A bound on |measure's int F - integrate_F| of an array of `cells`
    cells, relative to A = sum_i |F(u_i)| times the cell volume, to first
    order in U (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1). measure sums Re(conj(u_i) f(u_i)), a dot of 2 cells real
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


def assert_energy_within_potential_gap(E, E_ref, u, params, nl) -> None:
    """E of the measure against the reference's, which share every term
    but c^2 int F, bit for bit: without a nonlinearity they are the same
    bits, else within c^2 potential_gap A of the two int F, two roundings
    of c^2 |int F| (the product with c^2), taken as two more in the gap,
    and one rounding of each E (the subtraction). A is taken as its float
    sum, which moves the bound at second order only."""
    if nl is None:
        assert same_bits(E, E_ref)
        return
    c2 = params.c * params.c
    A = float(np.sum(np.abs(ref_F(nl, u.values)))) * u.grid.cell_volume
    bound = (c2 * (potential_gap(nl, u.values.size) + 2.0 * U) * A
             + U * (abs(E) + abs(E_ref)))
    assert abs(E - E_ref) <= bound, (E, E_ref, bound)


@settings(max_examples=80, deadline=None)
@given(states())
def test_functionals_match_reference_bitwise(case):
    """Every functional of the measure against the reference: I bit for
    bit, E(t0) and E(0) within `assert_energy_within_potential_gap`, and
    rho, delta and the table's label bit for bit given those E."""
    u0, u1, t0, sf, params, nl = case
    r0, r1 = (Arrays(u0.grid, x) for x in functionals.state_arrays(u0, u1))
    state = State(t0, r0, r1)
    a0, a_0 = sf.eval(t0)[0], sf.eval(0.0)[0]
    assert a0 != 1.0
    rec = measure(u0, u1, nl)
    E, E_0 = rec.energy(a0, params), rec.energy(a_0, params)
    assert_energy_within_potential_gap(E, ref_energy(state, sf, params, nl),
                                       r0, params, nl)
    assert_energy_within_potential_gap(
        E_0, ref_energy(State(0.0, r0, r1), sf, params, nl), r0, params, nl)
    assert same_bits(rec.nehari(a0, params),
                     ref_nehari(state, sf, params, nl))
    assert same_bits(rec.rho(a_0, params),
                     ref_rho(r0, r1, sf, params, nl, E0=E_0))
    assert same_bits(rec.delta(a0, params),
                     ref_delta(r0, r1, t0, sf, params, nl, E0=E))
    assert (classify_table1(rec, a0, params)
            == ref_classify_table1(r0, r1, t0, sf, params, nl, E0=E))
    # the run's record of the same data, from its workspace's stencil and
    # its Laplacian sum in the workspace's trial_v
    rec_s = Start(u0, u1, nl).rec
    assert same_bits(rec_s.L, l2_norm_sq(r0))
    assert same_bits(rec_s.ut_sq, l2_norm_sq(r1))
    assert same_bits(rec_s.re_u_ut, inner_re(r0, r1))
    assert same_bits(rec_s.grad_sq, grad_norm_sq(r0))
    assert all(map(same_bits, rec_s, rec))
    try:
        rep = evaluate(measure(u0, u1, nl), t0, sf, params)
    except HorizonTooShort:
        return
    assert same_bits(rep.E_t0, E)
    assert same_bits(rep.I_u0, ref_nehari(state, sf, params, nl))
    assert same_bits(rep.delta, ref_delta(r0, r1, t0, sf, params, nl, E0=E))
    assert rep.case_label == ref_classify_table1(r0, r1, t0, sf, params, nl,
                                                 E0=E)


# ---------------------------------------------------------------------------
# one measurement per state


def count_calls(monkeypatch, func) -> list:
    """Count calls of a kgflrw.field function through every module binding."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return func(*args, **kwargs)

    for mod in (field, functionals, dynamics, hypotheses, cli):
        if getattr(mod, func.__name__, None) is func:
            monkeypatch.setattr(mod, func.__name__, counting)
    return calls


def count_stencil_calls(monkeypatch, name: str) -> list:
    """Count the calls of the Stencil method name (`__init__`: stencils
    built)."""
    calls, method = [], getattr(Stencil, name)

    def counting(self, *args, **kwargs):
        calls.append(None)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(Stencil, name, counting)
    return calls


def vehicle_text() -> str:
    """The localized blow-up vehicle: the anchor's physics (flat, m = 0,
    gauge p = 2) with a Gaussian u0 of amplitude 10 and width 0.5, cut to
    t_end = 1.1. It rejects steps and records every step of its tail."""
    text = bundled_scenario_text("minkowski-m0-u2-A3")
    for old, new in (("data0.kind = homogeneous",
                      "data0.kind = gaussian\ndata0.width = 0.5"),
                     ("data0.amplitude = 3.0", "data0.amplitude = 10.0"),
                     ("run.t_end = 1.75", "run.t_end = 1.1")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


def test_simulate_measures_each_state_once(tmp_path, monkeypatch):
    """A simulation on non-uniform data measures each state once, through
    the run's one stencil: the certificate reads the run's t0 measurement,
    so the gradient is taken at t0 and once per accepted step. A step
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
    grads = count_calls(monkeypatch, field.grad_sq_array)
    sweeps = count_calls(monkeypatch, field.lap_slab)
    stencils = count_stencil_calls(monkeypatch, "__init__")
    loads = count_stencil_calls(monkeypatch, "load")
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


def test_evaluate_measures_the_data_once(monkeypatch):
    grid = Grid(n=2, points_per_axis=16, half_width=math.pi)
    rng = np.random.default_rng(5)
    u0, u1 = (Field(grid, rng.normal(size=grid.shape) + 0j) for _ in range(2))
    nl = GaugeInvariantPower(p=2.0, lam=1.0)
    calls = count_nonlinearity_calls(monkeypatch)
    grads = count_calls(monkeypatch, field.grad_sq_array)
    stencils = count_stencil_calls(monkeypatch, "__init__")
    evaluate(measure(u0, u1, nl), 0.0, DeSitter(H=0.3, n=2),
             PhysicalParams(m=1.0, c=1.0, eps=1.0, n=2))
    assert (len(grads), len(stencils), calls) == (1, 1, ["f"])


# ---------------------------------------------------------------------------
# a uniform state, measured as one cell


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


def assert_within(got: float, exact: Fraction, scale: Fraction, k: int,
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
    uniform state, as `measure` and run() report them at t0 and a stepper
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
    2^-1074 before the volume. The measure takes f of the cell as
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
    trace = dynamics.run(Start(*fields, nl), sf, params, cfg)
    row0, rec = trace.rows[0], measure(*fields, nl)
    assert rec.grad_sq == 0.0
    stepper = Stepper(StepState(0.0, u, v, cfg.dt, 1.0, 1.0, 0, ()),
                      RK4Workspace(u, v, nl, grid.spacing), sf, params, nl,
                      grid, cfg)
    _, _, L, (ut_sq, re_u_ut, grad_sq), _ = next(stepper.steps())
    ws = stepper.ws
    assert ws.uniform and grad_sq == 0.0
    # at t0 (run's L0 and row 0, and measure), then after a step
    for x, y, norms in ((u, v, (trace.meta["L0"], row0.ut_sq,
                                0.5 * row0.Lp)),
                        (u, v, rec[:3]), (ws.u, ws.v, (L, ut_sq, re_u_ut))):
        for got, a, b in zip(norms, (x, y, y), (x, y, x)):
            assert_within(got, exact_dot(a, b) * vol, abs_dot(a, b) * vol, 4,
                          vol)
            if exact_dot(a, b) == 0:
                assert math.copysign(1.0, got) == 1.0

    stepped = functionals.potential_integrals(ws.u, ws.fu, grid, nl)
    for x, (F, re_fu) in ((u, rec[4:]), (ws.u, stepped)):
        f_cells = nl.f(np.full(grid.shape, x))
        f_cell = f_cells.flat[0].item()
        assert np.all(f_cells == f_cell)
        f_gap = Fraction(eval_gap(nl, "f")) * l1(x) * l1(f_cell) * vol
        assert_within(re_fu, exact_dot(x, f_cell) * vol,
                      abs_dot(x, f_cell) * vol, 4, vol, f_gap)
        # re_fu / (p+1), one rounding more, and 2^-1075 where it underflows
        p1 = Fraction(nl.p + 1.0)
        assert_within(F, exact_dot(x, f_cell) * vol / p1,
                      abs_dot(x, f_cell) * vol / p1, 5, vol / p1,
                      f_gap * (1 + Fraction(U)) / p1 + Fraction(1, 2 ** 1075))


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
    arrays = functionals.state_arrays
    monkeypatch.setattr(dynamics, "state_arrays", lambda a, b: tuple(
        x.view(CountingFills) for x in arrays(a, b)))
    vdots, vdot = [], np.vdot
    monkeypatch.setattr(np, "vdot", lambda *a: vdots.append(None) or vdot(*a))
    norms = count_calls(monkeypatch, functionals.norm_integrals)
    pots = count_calls(monkeypatch, functionals.potential_integrals)
    steps = count_calls(monkeypatch, dynamics._rk4)
    CountingFills.fills.clear()
    trace = dynamics.run(Start(u0, u1, scn.nl), scn.sf, scn.params, scn.run,
                         mode="thm1")
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
    text = bundled_scenario_text("minkowski-m0-u2-A3")
    for old, new in (("run.t_end = 1.75", "run.t_end = 0.05"), *edits):
        assert text.count(old) == 1
        text = text.replace(old, new)
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
