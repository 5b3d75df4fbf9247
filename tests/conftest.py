"""Shared fixtures plus the acceptance summary hook.

Acceptance tests live in test_acceptance.py as test_criterion_<N>_*; the
terminal summary prints one PASS/FAIL line per criterion, aggregated over
every test function belonging to it.
"""

import re

import pytest

_CRITERIA = {
    1: "homogeneous-oracle equivalence (||u|| rel err <= 1e-6 to 0.99 t*, < 5 s)",
    2: "certified bounds dominate observed T* (flat and expanding, < 30 s each)",
    3: "energy identity residual (<= 1e-6 smooth expanding, <= 1e-8 flat linear)",
    4: "trajectory invariance suite (I<0, L'>0, lower bounds, eta, zeta, Hdiag, concavity)",
    5: "concavity-ODE oracle chain (vanish <= bound <= T; worked case; < 10 s)",
    6: "small-data negative test (rho sign crossing; check exits 3 then 0)",
    7: "scale-factor structure (curvature identity, Big-Rip rejection, horizons)",
    8: "refinement stability (T* shift < 1% under N and dt refinement)",
}

_NODE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, bool] = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            match = _NODE_RE.search(getattr(rep, "nodeid", ""))
            if match is None:
                continue
            num = int(match.group(1))
            ok = outcome == "passed"
            results[num] = results.get(num, True) and ok
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_CRITERIA):
        if num in results:
            status = "PASS" if results[num] else "FAIL"
        else:
            status = "NOT RUN"
        terminalreporter.write_line(
            f"criterion {num}: {status} - {_CRITERIA[num]}")


@pytest.fixture(scope="session")
def anchor_scenario():
    import kgflrw
    return kgflrw.load_bundled_scenario("minkowski-m0-u2-A3")


@pytest.fixture(scope="session")
def anchor_run(anchor_scenario):
    """One shared blow-up run of the flat massless anchor (mode thm1)."""
    import kgflrw

    scn = anchor_scenario
    u0, u1 = scn.build_fields()
    start = kgflrw.Start(u0, u1, scn.nl)
    rep = kgflrw.evaluate(start.rec, scn.run.t0, scn.sf, scn.params,
                          mode=scn.run.theorem_mode)
    trace = kgflrw.run(start, scn.sf, scn.params, scn.run, rep.cert)
    return scn, rep, trace
