"""Blow-up certificates: who applies, what bound they certify.

Two certificates are implemented. The norm-margin certificate ("thm1") starts
at t = 0 and requires

    rho = m^2 c^2 eps / (2(eps+2)) ||u0||^2 - E(0) > 0,   Re(u0,u1) >= 0,

with an expanding background (adot >= 0 and adot^2 - addot a >= 0) up to the
certified time; it bounds the blow-up time by

    T = max{ 1, pi^2 (1 + n adot(0)/a(0)) ||u0||^2 / (eps^2 rho) }.

The velocity-margin certificate ("thm2") starts at any admissible t0 with
adot(t0)/a(t0) <= |m| c (sqrt(eps(eps+4)) - eps) / (2n) (no constraint when
m = 0) and requires

    delta = |m| c eps / (2(eps+2)) Re(u0,u1) - E(t0) > 0,
    I(u0) < 0,  Re(u0,u1) >= 0,

bounding blow-up by

    T = t0 + max[ 1, 2 pi^2 (eps+4) (1 + n adot(t0)/a(t0)) ||u0||^2
                     / (eps^2 (eps+2) delta) ].

Either bound only certifies blow-up when it fits inside the background's own
lifetime; a check blocked solely by that clause says why in its `horizon`
field, and `evaluate` raises HorizonTooShort when no certificate applies and
one was blocked that way. `evaluate` reads the background at t0, the rate
threshold and the Re(u0,u1) >= 0 verdict once, for both checks and the
four-quadrant initial-data table (in the unit-insensitive m~, c~); its report
holds each verdict (`thm1`, `thm2`, `case_label`). The module also maps
closed-form backgrounds to the corollary cases that guarantee the background
conditions, and a certificate to its concavity comparison ODE.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field, fields

from .errors import HorizonTooShort, InvariantViolation, NoAdmissibleT0
from .functionals import Integrals, PhysicalParams
from .odelab import ConcavityProblem
from .scale_factor import (ScaleFactor, Tabulated,
                           check_monotone_expansion, min_admissible_t0,
                           t0_condition_threshold)

MODES = ("auto", "thm1", "thm2", "none")  # a run's theorem_mode
_REL = 1e-9


def theorem1_bound(L0: float, rho_val: float, eps: float, n: int,
                   rate0: float) -> float:
    """Certified bound of the norm-margin certificate (data at t = 0)."""
    if rho_val <= 0:
        raise ValueError("bound requires a positive norm margin")
    den = eps * eps * rho_val
    if den == 0.0:  # underflowed: the bound is past every float
        return math.inf
    return max(1.0, math.pi ** 2 * (1.0 + n * rate0) * L0 / den)


def theorem2_bound(L0: float, delta_val: float, eps: float, n: int,
                   rate0: float, t0: float) -> float:
    """Certified bound of the velocity-margin certificate (data at t0)."""
    if delta_val <= 0:
        raise ValueError("bound requires a positive velocity margin")
    den = eps * eps * (eps + 2.0) * delta_val
    if den == 0.0:  # underflowed: the bound is past every float
        return math.inf
    return t0 + max(1.0, 2.0 * math.pi ** 2 * (eps + 4.0) * (1.0 + n * rate0)
                    * L0 / den)


@dataclass
class TheoremCheck:
    """One certificate's verdict with per-condition booleans and margins;
    horizon says why when the background's lifetime alone blocks it. The
    certificate makes theta^(-kappa) concave, kappa eps/4 (norm margin) or
    eps/8 (velocity margin); rate0 is adot/a at its start, which its bound
    and theta's anchor term n (T_bound - t) rate0 ||u0||^2 use."""

    name: str
    applicable: bool
    margin: float
    T_bound: float | None
    conditions: dict
    kappa: float
    rate0: float
    horizon: str | None = None


def _re_tolerance(m0: Integrals) -> float:
    return _REL * (math.sqrt(m0.L * m0.ut_sq) + 1e-300)


def _verdict(name: str, margin: float, T: float | None, conds: dict,
             t_start: float, sf: ScaleFactor, kappa: float,
             rate0: float) -> TheoremCheck:
    """Add the background and bound clauses to conds and decide; T is the
    certified time (None for a nonpositive margin). A bound that is not a
    finite number, or that does not exceed t_start (t0 + 1 rounds to t0
    for a large t0), certifies nothing."""
    conds["bound_finite"] = T is None or math.isfinite(T)
    conds["bound_after_start"] = T is None or T > t_start
    lifetime = sf.horizon()
    conds["background"] = check_monotone_expansion(
        sf, t_start, lifetime if T is None else min(T, lifetime))
    conds["within_horizon"] = T is None or T <= lifetime
    applicable = all(conds.values())
    blocked = None
    if not conds["within_horizon"] and all(
            ok for key, ok in conds.items() if key != "within_horizon"):
        blocked = (f"certificate needs T = {T:.9g} but the background "
                   f"lifetime is {lifetime:.9g}")
    return TheoremCheck(name, applicable, margin, T if applicable else None,
                        conds, kappa, rate0, blocked)


def _norm_margin(m0: Integrals, a0: float, rate0: float, re_ok: bool,
                 sf: ScaleFactor, params: PhysicalParams) -> TheoremCheck:
    """Norm-margin certificate on the data at t = 0, given a(0), the rate
    adot/a there and the Re(u0, u1) verdict. When only the clause
    T <= horizon fails, its horizon field gives the reason."""
    rho_val = m0.rho(a0, params)
    conds = {"margin_positive": rho_val > 0.0, "re_nonneg": re_ok}
    T1 = (theorem1_bound(m0.L, rho_val, params.eps, params.n, rate0)
          if conds["margin_positive"] else None)
    return _verdict("thm1", rho_val, T1, conds, 0.0, sf, params.eps / 4.0,
                    rate0)


def _velocity_margin(m0: Integrals, t0: float, a0: float, rate0: float,
                     thr: float, I0: float, re_ok: bool, sf: ScaleFactor,
                     params: PhysicalParams) -> TheoremCheck:
    """Velocity-margin certificate on the data at t0, given a(t0), the rate,
    its threshold thr, I(u0) and the Re(u0, u1) verdict; horizon as in
    `_norm_margin`. A tiny relative slack on thr absorbs roundoff at the
    admissibility boundary."""
    delta_val = m0.delta(a0, params)
    ok_t0 = math.isinf(thr) or rate0 <= thr + 1e-12 * max(1.0, abs(thr))
    conds = {
        "t0_condition": ok_t0,
        "margin_positive": delta_val > 0.0,
        "nehari_negative": I0 < 0.0,
        "re_nonneg": re_ok,
    }
    T2 = (theorem2_bound(m0.L, delta_val, params.eps, params.n, rate0, t0)
          if conds["margin_positive"] else None)
    return _verdict("thm2", delta_val, T2, conds, t0, sf, params.eps / 8.0,
                    rate0)


def _table_label(m0: Integrals, E0: float, I0: float, re_ok: bool,
                 params: PhysicalParams) -> str:
    """Quadrant label of the initial-data table for the data at t0, given
    E(t0), I(u0) and the Re(u0, u1) verdict, "none" outside its domain, or
    "undecided" when E(t0) or I(u0) is NaN.

    The table lives under I(u0) < 0, Re(u0,u1) >= 0, E(t0) >= 0 and m~ > 0.
    With X = m~^2 c~^2 eps/(2(eps+2)) ||u0||^2 and Y the same constant times
    Re(u0,u1): I has X > E >= Y, II has X > E and Y > E, III has E >= X and
    Y > E, IV (open) has E >= X and E >= Y.
    """
    mt, ct = params.m_tilde, params.c_tilde
    if math.isnan(E0) or math.isnan(I0):
        return "undecided"
    if mt == 0.0 or I0 >= 0.0 or E0 < 0.0 or not re_ok:
        return "none"
    lead = mt * mt * ct * ct * params.eps / (2.0 * (params.eps + 2.0))
    x_big = lead * m0.L > E0
    y_big = lead * m0.re_u_ut > E0
    if x_big:
        return "II" if y_big else "I"
    return "III" if y_big else "IV"


@dataclass
class CorollaryCases:
    """Closed-form background coverage: which worked case of each corollary
    guarantees the background conditions (n/a when none or not closed-form)."""

    thm1_case: str
    thm2_case: str


def check_corollaries(sf: ScaleFactor, t0: float, params: PhysicalParams,
                      thr: float, t0_ok: bool) -> CorollaryCases:
    """The cases at t0: thm2's t0_condition verdict t0_ok decides case iii
    (the rate at t0 = 0 is H), and case iv needs H above the threshold thr."""
    if isinstance(sf, Tabulated):
        return CorollaryCases("n/a", "n/a")
    H, sigma = sf.H, sf.sigma

    c1 = "n/a"
    if t0 == 0.0:
        if H == 0.0:
            c1 = "i"
        elif H > 0.0 and sigma >= -1.0:
            c1 = "ii"

    c2 = "n/a"
    m = params.m
    if H == 0.0:
        if t0 == 0.0:
            c2 = "i"
    elif H > 0.0 and sigma >= -1.0:
        if m == 0.0:
            if t0 == 0.0:
                c2 = "ii"
        elif t0 == 0.0 and t0_ok:
            c2 = "iii"
        elif sigma > -1.0 and H > thr:
            try:
                t0_req = min_admissible_t0(sf, m, params.c, params.eps)
            except NoAdmissibleT0:  # an underflowed mass: no finite t0
                t0_req = math.nan  # matches no t0
            if abs(t0 - t0_req) <= 1e-9 * max(1.0, abs(t0_req)):
                c2 = "iv"
    return CorollaryCases(c1, c2)


@dataclass
class HypothesisReport:
    case_label: str
    theorem: str            # which certificates hold: thm1 | thm2 | both | none
    mode: str               # the certificate a run follows: cert's name
    rho: float
    delta: float
    I_u0: float
    re_u0_u1: float
    E_t0: float
    L0: float
    t0_used: float
    T_bound: float | None
    corollary_case: str
    margins: dict = dc_field(default_factory=dict)
    thm1: TheoremCheck | None = None
    thm2: TheoremCheck | None = None
    cert: TheoremCheck | None = None  # the check mode resolved to

    def flat(self) -> dict:
        """Scalar key=value view for text and CSV emission: the scalar
        fields in order (T_bound None as "none"), then margin.<key>."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("margins", "thm1", "thm2", "cert")}
        if self.T_bound is None:
            out["T_bound"] = "none"
        for key in sorted(self.margins):
            out[f"margin.{key}"] = self.margins[key]
        return out


def evaluate(m0: Integrals, t0: float, sf: ScaleFactor,
             params: PhysicalParams, mode: str = "auto") -> HypothesisReport:
    """Run both certificate checks on the data's integrals m0 at t0
    (`dynamics.Start.rec`), classify them, resolve the mode.

    One sf.eval(t0) gives a(t0), the rate adot/a, E(t0) and I(u0); the
    rate threshold and the Re(u0, u1) verdict are made once, and both
    checks and the table label take them. mode "auto" prefers the
    norm-margin certificate; "thm1"/"thm2" pin one. Raises ValueError when
    sf.n is not params.n, InvariantViolation when an integral of the data
    is not finite or a(t0) is not a usable scale factor, and
    HorizonTooShort when no certificate applies and at least one was
    blocked only by the horizon clause (thm1's reason first).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if sf.n != params.n:
        raise ValueError(f"the background is built for n = {sf.n} but the "
                         f"data for n = {params.n}")
    bad = [f"{key} = {val}" for key, val in m0._asdict().items()
           if not math.isfinite(val)]
    if bad:
        raise InvariantViolation("functionals", "initial data give non-finite "
                                 "integrals: " + ", ".join(bad))

    # the inputs both certificates and the table share, each read once
    a0, adot0, _ = sf.eval(t0)
    if not (math.isfinite(a0) and a0 > 0 and a0 * a0 >= sys.float_info.min
            and math.isfinite(adot0)):  # scale.a0's rule, and finite
        raise InvariantViolation("scale_factor", "a(t0) must be finite and "
                                 "positive with a square that does not "
                                 "underflow, and adot(t0) finite; at t0 = "
                                 f"{t0}: a = {a0}, adot = {adot0}")
    rate0 = adot0 / a0
    E0, I0 = m0.energy(a0, params), m0.nehari(a0, params)
    thr = t0_condition_threshold(params.m, params.c, params.eps, params.n)
    re_ok = m0.re_u_ut >= -_re_tolerance(m0)

    t1 = (_norm_margin(m0, a0, rate0, re_ok, sf, params) if t0 == 0.0 else
          TheoremCheck("thm1", False, math.nan, None,
                       {"starts_at_zero": False}, params.eps / 4.0, math.nan))
    t2 = _velocity_margin(m0, t0, a0, rate0, thr, I0, re_ok, sf, params)

    applicable = [chk for chk in (t1, t2) if chk.applicable]
    theorem = ("both" if len(applicable) == 2
               else applicable[0].name if applicable else "none")
    if theorem == "none" and (t1.horizon or t2.horizon):
        raise HorizonTooShort(t1.horizon or t2.horizon)

    # the resolved certificate is the first applicable one that mode
    # allows; T_bound and the corollary case come from it, else from the
    # first applicable one
    allowed = [chk for chk in applicable if mode in ("auto", chk.name)]
    cert = allowed[0] if allowed else None
    shown = (allowed or applicable or [None])[0]
    T_bound = shown.T_bound if shown is not None else None

    case = _table_label(m0, E0, I0, re_ok, params)
    cors = check_corollaries(sf, t0, params, thr,
                             t2.conditions["t0_condition"])
    cor = ("n/a" if shown is None else
           {"thm1": cors.thm1_case, "thm2": cors.thm2_case}[shown.name])

    margins = {
        "thm1.rho": t1.margin,
        "thm2.delta": t2.margin,
        "thm2.nehari": I0,
        "re_u0_u1": m0.re_u_ut,
    }
    if t1.T_bound is not None:
        margins["thm1.T_bound"] = t1.T_bound
    if t2.T_bound is not None:
        margins["thm2.T_bound"] = t2.T_bound
    if math.isfinite(thr):
        margins["thm2.t0_rate_slack"] = thr - rate0

    return HypothesisReport(
        case_label=case, theorem=theorem,
        mode="none" if cert is None else cert.name,
        rho=t1.margin, delta=t2.margin, I_u0=I0, re_u0_u1=m0.re_u_ut,
        E_t0=E0, L0=m0.L, t0_used=t0, T_bound=T_bound, corollary_case=cor,
        margins=margins, thm1=t1, thm2=t2, cert=cert)


def concavity_problem(report: HypothesisReport,
                      params: PhysicalParams) -> ConcavityProblem:
    """The comparison problem y'' <= -kappa A y^(1+1/kappa) solved by
    y = theta^(-kappa) along report.cert, with its kappa, bound T and rate0:
    A = 2(eps+2) margin, B = (1 + n rate0) L0, and y0, y1 from theta(t0) and
    theta'(t0) = 2 Re(u0, u1). Values that overflow or round into a
    problem ConcavityProblem rejects raise InvariantViolation."""
    eps, n, t0, L0 = params.eps, params.n, report.t0_used, report.L0
    cert = report.cert
    kappa, rate0, T = cert.kappa, cert.rate0, cert.T_bound
    A = 2.0 * (eps + 2.0) * cert.margin
    B = (1.0 + n * rate0) * L0
    theta0 = L0 + n * (T - t0) * rate0 * L0
    if theta0 <= 0:
        raise ValueError("theta(t0) must be positive")
    try:
        y0 = theta0 ** (-kappa)
        y1 = -kappa * (2.0 * report.re_u0_u1) * theta0 ** (-kappa - 1.0)
    except OverflowError:  # a tiny theta0: ConcavityProblem rejects inf
        y0 = y1 = math.inf
    try:
        return ConcavityProblem(kappa=kappa, A=A, B=B, T=T, y0=y0, y1=y1,
                                t0=t0)
    except ValueError as exc:
        raise InvariantViolation(
            "hypotheses", f"no concavity problem for this certificate: {exc}"
        ) from exc

