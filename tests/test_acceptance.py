"""Acceptance gate: one test per release criterion.

Each test is named test_criterion_<N>_* so the conftest summary hook can
print a PASS/FAIL line per criterion. Tolerances and runtime budgets are
fixed here; they are the contract, not a reflection of what the code
currently achieves.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import kgflrw
from kgflrw.cli import main_entry
from kgflrw.errors import TimeBeyondHorizon
from oracles import TSTAR, ref_kappa_tilde

T1_ANCHOR = math.pi ** 2
T2_DESITTER = 360.0 * math.pi ** 2 / 109.0
T2_FLAT = 240.0 * math.pi ** 2 / 109.0

THEOREM_SCENARIOS = ("minkowski-m0-u2-A3", "desitter-thm2", "minkowski-m1-thm2")

CROSSING_CFG = """\
scale.family = powerlaw
scale.a0 = 1.0
scale.H = 0.0
scale.sigma = 0.0

phys.m = 1.0
phys.c = 1.0

nonlin.family = gauge
nonlin.p = 2.0
nonlin.lambda = 1.0
nonlin.eps = 1.0

grid.n = 1
grid.N = 16
grid.half_width = 3.141592653589793

data0.kind = homogeneous
data0.amplitude = {amp}

data1.kind = homogeneous
data1.amplitude = 0.0

run.t0 = 0.0
run.t_end = 1.0
run.dt = 1e-3
run.theorem_mode = auto
"""


def _timed_run(name):
    scn = kgflrw.load_bundled_scenario(name)
    u0, u1 = scn.build_fields()
    began = time.perf_counter()
    start = kgflrw.Start(u0, u1, scn.nl)
    rep = kgflrw.evaluate(start.rec, scn.run.t0, scn.sf, scn.params,
                          mode=scn.run.theorem_mode)
    trace = kgflrw.run(start, scn.sf, scn.params, scn.run, rep.cert)
    elapsed = time.perf_counter() - began
    return scn, rep, trace, elapsed


@pytest.fixture(scope="module")
def theorem_runs():
    """Evaluate + run each certified bundled scenario once, with timings."""
    return {name: _timed_run(name) for name in THEOREM_SCENARIOS}


def test_criterion_1_homogeneous_oracle_equivalence(theorem_runs):
    scn, rep, trace, run_elapsed = theorem_runs["minkowski-m0-u2-A3"]
    assert trace.blowup is not None
    assert trace.blowup.reason == "norm_threshold"

    times = np.array([r.t for r in trace.rows])
    norms = np.sqrt([r.L for r in trace.rows])
    cut = times <= 0.99 * TSTAR
    assert np.count_nonzero(cut) >= 30

    # independent scalar reference: u'' = u^2 from (3, 0), evaluated at the
    # recorded snapshot times
    t_eval = times[cut]
    start = time.perf_counter()
    sol = solve_ivp(lambda t, y: [y[1], y[0] ** 2], (0.0, float(t_eval[-1])),
                    [3.0, 0.0], method="DOP853", rtol=1e-12, atol=1e-12,
                    t_eval=t_eval)
    oracle_elapsed = time.perf_counter() - start
    assert sol.success

    vol = trace.meta["L0"] / 9.0
    ref = np.sqrt(vol) * np.abs(sol.y[0])
    rel = np.abs(norms[cut] - ref) / ref
    assert rel.max() <= 1e-6, f"max ||u|| relative error {rel.max():.3e}"
    assert run_elapsed + oracle_elapsed < 5.0


def test_criterion_2_bound_certification(theorem_runs):
    scn, rep, trace, elapsed = theorem_runs["minkowski-m0-u2-A3"]
    assert rep.mode == "thm1"
    assert rep.T_bound == pytest.approx(T1_ANCHOR, rel=1e-12)
    t_star = trace.blowup.t_star
    assert t_star is not None
    assert trace.blowup.t <= rep.T_bound
    margin = rep.T_bound - t_star
    assert margin > 0.0, f"flat bound margin {margin:.6f}"
    assert elapsed < 30.0

    scn2, rep2, trace2, elapsed2 = theorem_runs["desitter-thm2"]
    assert rep2.mode == "thm2"
    assert rep2.T_bound == pytest.approx(T2_DESITTER, rel=1e-12)
    t_star2 = trace2.blowup.t_star
    assert t_star2 is not None
    assert trace2.blowup.t <= rep2.T_bound
    margin2 = rep2.T_bound - t_star2
    assert margin2 > 0.0, f"expanding bound margin {margin2:.6f}"
    assert elapsed2 < 30.0


def test_criterion_3_energy_identity():
    # smooth expanding run: E(t) + dissipated(t) must track E(0)
    scn = kgflrw.load_bundled_scenario("desitter-smooth")
    u0, u1 = scn.build_fields()
    trace = kgflrw.run(kgflrw.Start(u0, u1, scn.nl,
                                    scn.wrap_support_radius()),
                       scn.sf, scn.params, scn.run)
    assert trace.blowup is None
    E = np.array([r.E for r in trace.rows])
    D = np.array([r.e_dissipated for r in trace.rows])
    scale = max(abs(E[0]), np.abs(E).max(), D.max())
    resid = np.abs(E + D - E[0]).max() / scale
    assert resid <= 1e-6, f"dissipation residual {resid:.3e}"
    assert D[-1] > 0.0
    assert np.all(E <= E[0] + 1e-6 * scale)

    # flat linear run: no damping term, E is a constant of motion
    scn = kgflrw.load_bundled_scenario("minkowski-linear")
    u0, u1 = scn.build_fields()
    trace = kgflrw.run(kgflrw.Start(u0, u1, scn.nl), scn.sf, scn.params,
                       scn.run)
    assert trace.blowup is None
    E = np.array([r.E for r in trace.rows])
    drift = np.abs(E - E[0]).max() / abs(E[0])
    assert drift <= 1e-8, f"flat energy drift {drift:.3e}"
    assert trace.rows[-1].e_dissipated == 0.0


def test_criterion_4_invariance_suite(theorem_runs):
    for name in THEOREM_SCENARIOS:
        scn, rep, trace, _ = theorem_runs[name]
        eps = scn.params.eps
        m, c = scn.params.m, scn.params.c
        rho = rep.margins["thm1.rho"]
        assert rho > 0.0
        E_t0 = trace.meta["E_t0"]
        t0 = scn.run.t0
        rows = trace.rows
        t = np.array([r.t for r in rows])
        L = np.array([r.L for r in rows])
        after = t > t0 + 1e-12

        # negative functional stays negative along the flow
        I = np.array([r.I for r in rows])
        assert np.all(I < 0.0), f"{name}: I reached {I.max():.3e}"

        # norm growth is strictly monotone past the start
        Lp = np.array([r.Lp for r in rows])
        assert np.all(Lp[after] > 0.0), f"{name}: L' not positive"

        # mass-weighted norm keeps the data margin
        lhs = m * m * c * c * eps * L - 2.0 * (eps + 2.0) * E_t0
        rhs = 2.0 * (eps + 2.0) * rho
        tol = 1e-6 * max(1.0, abs(rhs))
        assert np.all(lhs >= rhs - tol), f"{name}: margin bound violated"

        # Cauchy-Schwarz surplus of the history functional
        eta = np.array([r.eta for r in rows])
        thp = np.array([r.theta_prime for r in rows])
        eta_scale = eta + 0.25 * thp * thp
        assert np.all(eta >= -1e-10 * eta_scale), f"{name}: eta negative"

        # convexity surplus, rebased to the norm-margin exponent eps + 1;
        # zeta is a near-total cancellation of its terms late in blow-up, so
        # the slack must scale with the cancelling magnitudes
        ut_sq = np.array([r.ut_sq for r in rows])
        zeta = np.array([r.zeta for r in rows])
        kt = ref_kappa_tilde(rows[0].mode, eps)
        Q = (-zeta - (kt + 1.0) * ut_sq - 2.0 * I) / (kt + 3.0)
        assert np.all(Q >= -1e-9 * max(1.0, np.abs(Q).max()))
        kt1 = eps + 1.0
        zeta1 = -(kt1 + 1.0) * ut_sq - 2.0 * I - (kt1 + 3.0) * Q
        zeta_scale = np.maximum(
            max(1.0, abs(rhs)),
            (kt1 + 1.0) * ut_sq + 2.0 * np.abs(I) + (kt1 + 3.0) * np.abs(Q))
        assert np.all(zeta1 >= rhs - 1e-6 * zeta_scale), \
            f"{name}: zeta bound violated"

        # diagnostic for the velocity margin stays positive when m != 0
        if m != 0.0:
            hdiag = np.array([r.Hdiag for r in rows])
            assert np.all(hdiag > 0.0), f"{name}: Hdiag not positive"

        # theta^(-kappa) concave: nonuniform 3-point second differences
        y = np.array([r.theta_negk for r in rows])
        assert np.all(np.isfinite(y)) and np.all(y > 0.0)
        t0s, t1s, t2s = t[:-2], t[1:-1], t[2:]
        y0s, y1s, y2s = y[:-2], y[1:-1], y[2:]
        d2 = 2.0 * (y0s / ((t1s - t0s) * (t2s - t0s))
                    - y1s / ((t1s - t0s) * (t2s - t1s))
                    + y2s / ((t2s - t0s) * (t2s - t1s)))
        d2_scale = (np.abs(y0s) + 2.0 * np.abs(y1s) + np.abs(y2s)) \
            / (t2s - t0s) ** 2
        assert np.all(d2 <= 1e-6 * d2_scale), f"{name}: theta^-k not concave"


def test_criterion_5_concavity_oracle():
    start = time.perf_counter()
    problems = kgflrw.random_admissible_problems(120, seed=7)
    assert len(problems) >= 100
    for prob in problems:
        bound = kgflrw.tstar_bound(prob)
        t_vanish = kgflrw.solve_concavity(prob)
        assert prob.t0 < t_vanish <= bound * (1.0 + 1e-8)
        assert bound <= prob.T * (1.0 + 1e-8)

    worked = kgflrw.ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.6,
                                     y0=1.0, y1=0.0)
    t_vanish = kgflrw.solve_concavity(worked)
    assert t_vanish == pytest.approx(1.21433, abs=1e-4)
    assert t_vanish == pytest.approx(1.2143253239439595, abs=1e-9)
    assert kgflrw.tstar_bound(worked) == pytest.approx(math.pi / 2, rel=1e-14)
    assert time.perf_counter() - start < 10.0


def test_criterion_6_small_data_negative(tmp_path):
    # volume-weighted margin rho(A) = (2 pi / 3) A^2 (A - 1) for this family
    def rho_of(amp):
        scn = kgflrw.parse_text(CROSSING_CFG.format(amp=amp), name="cross")
        u0, u1 = scn.build_fields()
        return kgflrw.Start(u0, u1, scn.nl).rec.rho(scn.sf.eval(0.0)[0],
                                                    scn.params)

    for amp in (0.25, 0.5, 0.75, 0.999):
        val = rho_of(amp)
        assert val < 0.0
        assert val == pytest.approx(
            2.0 * math.pi / 3.0 * amp ** 2 * (amp - 1.0), rel=1e-12)
    for amp in (1.001, 1.25, 2.0, 3.0):
        val = rho_of(amp)
        assert val > 0.0
        assert val == pytest.approx(
            2.0 * math.pi / 3.0 * amp ** 2 * (amp - 1.0), rel=1e-12)

    below = tmp_path / "below.cfg"
    below.write_text(CROSSING_CFG.format(amp=0.5), encoding="utf-8")
    assert main_entry(["check", str(below)]) == 3

    above = tmp_path / "above.cfg"
    above.write_text(CROSSING_CFG.format(amp=2.0), encoding="utf-8")
    assert main_entry(["check", str(above)]) == 0


def test_criterion_7_scale_factor_structure():
    # exponential family: adot^2 - addot a vanishes identically
    for H, a0 in ((0.5, 1.0), (1.7, 2.3), (0.03, 0.2), (2.0, 1.0)):
        sf = kgflrw.DeSitter(H=H, a0=a0)
        for tt in np.linspace(0.0, 3.0, 7):
            a, adot, addot = sf.eval(float(tt))
            curv = adot * adot - addot * a
            ulp = np.spacing(max(adot * adot, abs(addot * a)))
            assert abs(curv) <= 8.0 * ulp

    # phantom backgrounds fail the curvature condition
    assert not kgflrw.check_monotone_expansion(
        kgflrw.PowerLaw(sigma=-3.0, H=1.0), 0.0, 0.5)
    assert not kgflrw.check_monotone_expansion(
        kgflrw.PowerLaw(sigma=-1.5, H=2.0), 0.0, 0.1)
    assert kgflrw.check_monotone_expansion(
        kgflrw.PowerLaw(sigma=1.0, H=1.0), 0.0, 10.0)
    assert kgflrw.check_monotone_expansion(kgflrw.DeSitter(H=0.5), 0.0, 10.0)

    # finite-horizon arithmetic on 20 triples, checked behaviorally: the
    # closed form a0 (1 - t/T0)^beta reproduces eval, a diverges (rip) or
    # collapses near T0, and evaluation at T0 is refused
    rng = np.random.default_rng(11)
    triples = []
    for _ in range(10):
        triples.append((float(rng.uniform(-3.5, -1.2)),
                        float(rng.uniform(0.3, 2.0)),
                        int(rng.integers(1, 4))))
    for _ in range(10):
        triples.append((float(rng.uniform(-0.5, 1.5)),
                        float(rng.uniform(-2.0, -0.3)),
                        int(rng.integers(1, 4))))
    for sigma, H, n in triples:
        a0 = float(rng.uniform(0.5, 2.0))
        sf = kgflrw.PowerLaw(sigma=sigma, H=H, a0=a0, n=n)
        T0 = -2.0 / (n * (1.0 + sigma) * H)
        assert T0 > 0.0
        assert sf.horizon() == pytest.approx(T0, rel=1e-14)
        beta = 2.0 / (n * (1.0 + sigma))
        ts = np.linspace(0.1, 0.9, 5) * T0
        a, _, _ = sf.eval(ts)
        ref = a0 * (1.0 - ts / T0) ** beta
        assert np.allclose(a, ref, rtol=1e-12, atol=0.0)
        a_near, _, _ = sf.eval(T0 * (1.0 - 1e-9))
        if (1.0 + sigma) < 0.0:
            assert a_near > 100.0 * a0
        else:
            assert a_near < a0 / 100.0
        with pytest.raises(TimeBeyondHorizon):
            sf.eval(T0)
        with pytest.raises(TimeBeyondHorizon):
            sf.eval(1.01 * T0)

    assert math.isinf(kgflrw.PowerLaw(sigma=0.0, H=1.0).horizon())
    assert math.isinf(kgflrw.PowerLaw(sigma=-3.0, H=-1.0).horizon())


def test_criterion_8_refinement_stability(theorem_runs):
    _, _, base_trace, _ = theorem_runs["minkowski-m0-u2-A3"]
    base = base_trace.blowup.t_star
    assert base is not None

    text = kgflrw.bundled_scenario_text("minkowski-m0-u2-A3")
    variants = {
        "N128": text.replace("grid.N = 64", "grid.N = 128"),
        "dt5e-4": text.replace("run.dt = 1e-3", "run.dt = 5e-4"),
    }
    for label, var_text in variants.items():
        assert var_text != text
        scn = kgflrw.parse_text(var_text, name=f"anchor-{label}")
        u0, u1 = scn.build_fields()
        start = kgflrw.Start(u0, u1, scn.nl)
        rep = kgflrw.evaluate(start.rec, scn.run.t0, scn.sf, scn.params,
                              mode=scn.run.theorem_mode)
        trace = kgflrw.run(start, scn.sf, scn.params, scn.run, rep.cert)
        t_star = trace.blowup.t_star
        assert t_star is not None
        shift = abs(t_star - base) / base
        assert shift < 0.01, f"{label}: T* shifted by {shift:.4%}"
