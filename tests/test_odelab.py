"""Scalar concavity laboratory.

Oracles, frozen first:

  kappa = 1/4, A = 12, y0 = 1 gives const_I = 1 exactly, so
    y1 =  0: II = 1, III = 1, z0 = 1,        bound = pi/2
    y1 = -1: II = 2, III = 1, z0 = 1/sqrt2,  bound = pi/4
  and the equality ODE y'' = -3 y^5 with y(0) = 1, y'(0) = 0 conserves
  (y')^2/2 + y^6/2, so its vanishing time is
    int_0^1 dy / sqrt(1 - y^6) = B(1/6, 1/2) / 6 = 1.2143253239437908   (exact)
  (substitute w = y^6), while y'(0) = -1 shifts the energy to 1 and gives
    int_0^1 dy / sqrt(2 - y^6)                         (quadrature oracle)

solve_concavity evaluates the vanishing time in closed form; its oracle,
`dop853_vanish` (`oracles.py`), integrates the equality ODE with DOP853.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kgflrw import (ConcavityProblem, Start, concavity_problem, evaluate,
                    load_bundled_scenario, random_admissible_problems,
                    solve_concavity, tstar_bound)
from kgflrw.cli import ORACLE_COLUMNS, _csv, main_entry
from kgflrw.errors import NoVanishBeforeT
from kgflrw.odelab import _SLACK
from oracles import VANISH_REST, dop853_vanish


def worked_problem(y1):
    # window = pi^2 (2k+1) B / (8 k^2 A) = pi^2 / 4 ~ 2.47; floor (BT)^-k <= 1
    return ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.6, y0=1.0, y1=y1)


def test_worked_constants_rest():
    prob = worked_problem(0.0)
    assert prob.const_I == pytest.approx(1.0, rel=1e-15)
    assert prob.const_II == pytest.approx(1.0, rel=1e-15)
    assert prob.const_III == pytest.approx(1.0, rel=1e-15)
    assert prob.z0 == pytest.approx(1.0, rel=1e-15)
    assert tstar_bound(prob) == pytest.approx(math.pi / 2, rel=1e-14)


def test_worked_constants_moving():
    prob = worked_problem(-1.0)
    assert prob.const_II == pytest.approx(2.0, rel=1e-15)
    assert prob.z0 == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert tstar_bound(prob) == pytest.approx(math.pi / 4, rel=1e-14)


def test_vanish_time_rest_frozen():
    quad_val, quad_err = quad(lambda y: 1.0 / math.sqrt(1.0 - y ** 6), 0.0, 1.0)
    assert quad_err < 1e-9
    assert quad_val == pytest.approx(VANISH_REST, abs=1e-10)
    t_v = solve_concavity(worked_problem(0.0))
    assert t_v == pytest.approx(VANISH_REST, abs=1e-14)
    assert t_v <= math.pi / 2
    assert dop853_vanish(worked_problem(0.0))[0] == pytest.approx(
        VANISH_REST, abs=1e-9)


def test_vanish_time_moving_quadrature():
    oracle, err = quad(lambda y: 1.0 / math.sqrt(2.0 - y ** 6), 0.0, 1.0)
    assert err < 1e-10
    t_v = solve_concavity(worked_problem(-1.0))
    assert t_v == pytest.approx(oracle, abs=1e-9)
    assert t_v <= math.pi / 4


def test_energy_conserved_along_solution():
    prob = worked_problem(-1.0)
    t_v, sol = dop853_vanish(prob)
    assert t_v == pytest.approx(solve_concavity(prob), rel=1e-9)
    y, y_prime = sol.y
    # V(y) = kappa A y^(2+1/kappa) / (2+1/kappa) = y^6 / 2 here
    e = 0.5 * y_prime ** 2 + 0.5 * np.clip(y, 0.0, None) ** 6
    e0 = e[0]
    assert np.max(np.abs(e - e0)) <= 1e-9 * e0


@pytest.mark.parametrize("count,seed", [(120, 7), (40, 1)])
def test_closed_form_matches_dop853(count, seed):
    for prob in random_admissible_problems(count, seed=seed):
        t_ref, _ = dop853_vanish(prob)
        t_v = solve_concavity(prob)
        assert t_v - prob.t0 == pytest.approx(t_ref - prob.t0, rel=1e-9)


@st.composite
def edge_problems(draw):
    """Admissible problems with kappa near the ends of the generator's range
    and y1 at 0 (z0 = 1) or strongly negative. T sits just above the window
    for B, and B at least just above its floor, as in
    random_admissible_problems; B is also drawn away from 0, where the floor
    goes at small kappa. t0 = 0, since it only shifts the result, and at
    small kappa and large y0 the vanishing time can fall below the spacing
    of floats near 1."""
    kappa = draw(st.one_of(st.floats(0.01, 0.1), st.floats(2.0, 10.0)))
    A = draw(st.floats(0.5, 20.0))
    y0 = draw(st.floats(0.5, 3.0))
    y1 = draw(st.one_of(st.just(0.0), st.floats(-2.0, 0.0),
                        st.floats(-1e4, -10.0)))
    lead = 1.1 * math.pi ** 2 * (2.0 * kappa + 1.0) / (8.0 * kappa ** 2 * A)
    B = max(1.1 * math.sqrt(y0 ** (-1.0 / kappa) / lead),
            draw(st.floats(1e-3, 10.0)))
    return ConcavityProblem(kappa=kappa, A=A, B=B, T=lead * B, y0=y0, y1=y1)


@settings(max_examples=200, deadline=None)
@given(edge_problems())
def test_closed_form_within_bound_at_the_edges(prob):
    t_v = solve_concavity(prob)
    assert math.isfinite(t_v)
    # the true gap to the bound is about z0^2 (1/6 - 1/(2r + 2)) relative,
    # while y0 ** (2 + 1/kappa) with a rounded exponent moves either closed
    # form by up to |ln y0| r eps (~1e-14 here): below that, rounding decides
    assert prob.t0 < t_v <= tstar_bound(prob) * (1.0 + 1e-12)


def test_bound_monotone_in_speed_and_strength():
    bounds = [tstar_bound(ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=50.0,
                                           y0=1.0, y1=y1))
              for y1 in (0.0, -0.5, -1.0, -2.0, -4.0)]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    by_a = [tstar_bound(ConcavityProblem(kappa=0.25, A=a, B=1.0, T=50.0,
                                         y0=1.0, y1=-1.0))
            for a in (1.0, 4.0, 12.0, 48.0, 200.0)]
    assert all(b1 >= b2 for b1, b2 in zip(by_a, by_a[1:]))
    assert by_a[0] > by_a[-1]


def test_random_problems_chain():
    probs = random_admissible_problems(40, seed=1)
    assert len(probs) == 40
    for prob in probs:
        bound = tstar_bound(prob)
        assert bound <= prob.T * (1.0 + 1e-12)
        t_v = solve_concavity(prob)
        assert t_v <= bound * (1.0 + 1e-8)
        assert t_v > prob.t0


def per_draw_problems(count, seed):
    """The random problems drawn one `uniform(lo, hi)` call at a time: the
    oracle of `random_admissible_problems`' single (count, 6) draw."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        kappa = rng.uniform(0.1, 2.0)
        A = rng.uniform(0.5, 20.0)
        y0 = rng.uniform(0.5, 3.0)
        y1 = -rng.uniform(0.0, 2.0)
        t0 = rng.uniform(0.0, 1.0)
        lead = (1.0 + _SLACK) * math.pi ** 2 * (2.0 * kappa + 1.0) / (
            8.0 * kappa ** 2 * A)
        b_floor = math.sqrt(y0 ** (-1.0 / kappa) / lead)
        B = b_floor * (1.0 + _SLACK) * rng.uniform(1.0, 2.0)
        T = t0 + lead * B
        out.append(ConcavityProblem(kappa=kappa, A=A, B=B, T=T,
                                    y0=y0, y1=y1, t0=t0))
    return out


@pytest.mark.parametrize("count", [0, 1, 7, 120])
def test_one_draw_problems_match_the_per_draw_stream(count):
    """Every field of every problem, as float.hex, over seeds 0-50."""
    for seed in range(51):
        got = random_admissible_problems(count, seed=seed)
        want = per_draw_problems(count, seed)
        assert len(got) == len(want) == count
        for g, w in zip(got, want):
            for field in dataclasses.fields(ConcavityProblem):
                a, b = getattr(g, field.name), getattr(w, field.name)
                assert type(a) is type(b) is float
                assert a.hex() == b.hex(), (seed, field.name)


def test_oracle_random_csv_is_that_of_the_per_draw_stream(capsys):
    """`oracle-ode --random 120 --seed 7` prints the CSV of the per-draw
    problems byte for byte."""
    assert main_entry(["oracle-ode", "--random", "120", "--seed", "7"]) == 0
    want = _csv(ORACLE_COLUMNS,
                [(p.kappa, p.A, p.B, p.T, p.y0, p.y1, solve_concavity(p),
                  tstar_bound(p)) for p in per_draw_problems(120, 7)])
    assert capsys.readouterr().out == want


def test_problem_validation():
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.6, y0=1.0, y1=0.5)
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.6, y0=-1.0, y1=0.0)
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=-0.25, A=12.0, B=1.0, T=2.6, y0=1.0, y1=0.0)
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=0.0, y0=1.0, y1=0.0, t0=0.5)
    # T - t0 inside the admissibility window
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.0, y0=1.0, y1=0.0)
    # y0 below the floor (B T)^(-kappa): B T = 2.6 -> floor ~ 0.787
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.6, y0=0.5, y1=0.0)
    # a non-finite value, such as A = inf from overflowed data, is no problem
    ok = dict(kappa=0.25, A=12.0, B=1.0, T=2.6, y0=1.0, y1=0.0, t0=0.0)
    for key in ok:
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                ConcavityProblem(**dict(ok, **{key: bad}))


def test_problem_whose_constants_overflow_is_rejected():
    """kappa = 0.001 and y0 = 3 put y0^(2 + 1/kappa) = 3^1002 past the float
    range on an otherwise admissible problem: a ValueError at construction
    (which concavity_problem turns into a config error), not an
    OverflowError from const_II in tstar_bound or solve_concavity."""
    kappa, A, B = 0.001, 10.0, 1.0
    T = 1.1 * math.pi ** 2 * (2.0 * kappa + 1.0) * B / (8.0 * kappa ** 2 * A)
    with pytest.raises(ValueError, match="overflows"):
        ConcavityProblem(kappa=kappa, A=A, B=B, T=T, y0=3.0, y1=-1.0)


def test_problem_whose_constants_underflow_is_rejected():
    """y1 = 0 and y0 = 1e-76 with kappa = 1/4: y0^6 underflows, so II is
    0.0 and solve_concavity would divide by it. A ValueError at
    construction instead."""
    with pytest.raises(ValueError, match="underflows to 0"):
        ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=1e304, y0=1e-76, y1=0.0)


def test_no_vanish_before_cutoff():
    with pytest.raises(NoVanishBeforeT):
        solve_concavity(worked_problem(0.0), t_max=0.5)


def _report(name):
    scn = load_bundled_scenario(name)
    u0, u1 = scn.build_fields()
    rep = evaluate(Start(u0, u1, scn.nl).rec, scn.run.t0, scn.sf,
                   scn.params, mode=scn.run.theorem_mode)
    return scn, rep


def test_certificate_mapping():
    # flat massless anchor at rest: theta0 = ||u0||^2 = 18 pi, theta'0 = 0
    scn, rep = _report("minkowski-m0-u2-A3")
    prob = concavity_problem(rep, scn.params)
    assert (prob.kappa, prob.t0, prob.T) == (0.25, 0.0, rep.T_bound)
    assert prob.A == 2.0 * 3.0 * rep.rho
    assert prob.B == rep.L0 == pytest.approx(18 * math.pi, rel=1e-13)
    assert prob.y0 == pytest.approx((18 * math.pi) ** -0.25, rel=1e-15)
    assert prob.y1 == 0.0
    # moving data on de Sitter (rate 1/2, velocity margin): the anchor term
    # enters theta0 and y1 = -kappa theta'0 theta0^(-kappa-1) < 0
    scn, rep = _report("desitter-thm2")
    prob = concavity_problem(rep, scn.params)
    theta0 = rep.L0 * (1.0 + 0.5 * rep.T_bound)
    assert prob.kappa == 0.125 and prob.A == 2.0 * 3.0 * rep.delta
    assert prob.B == pytest.approx(1.5 * rep.L0, rel=1e-15)
    assert prob.y0 == pytest.approx(theta0 ** -0.125, rel=1e-14)
    assert prob.y1 == pytest.approx(
        -0.125 * 2.0 * rep.re_u0_u1 * theta0 ** -1.125, rel=1e-14)
    assert prob.y1 < 0.0
    with pytest.raises(ValueError):
        concavity_problem(dataclasses.replace(rep, L0=-1.0), scn.params)

