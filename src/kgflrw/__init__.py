"""Numerical laboratory for blow-up of semilinear waves on expanding
cosmological backgrounds: certificate checks, field evolution with
diagnostic traces, and the closed-form concavity-ODE comparison."""

from importlib import resources as _resources

from . import errors
from .config import ProfileSpec, Scenario, parse_config, parse_text
from .dynamics import (BlowupInfo, RunConfig, Start, Trace, estimate_t_star,
                       run)
from .field import Field, Grid, make_profile, support_radius
from .functionals import CSV_COLUMNS, Integrals, PhysicalParams
from .hypotheses import (HypothesisReport, TheoremCheck, check_corollaries,
                         concavity_problem, evaluate, theorem1_bound,
                         theorem2_bound)
from .nonlinearity import (GaugeInvariantPower, RealAbsPower,
                           admissible_eps_range, sobolev_admissible)
from .odelab import (ConcavityProblem, random_admissible_problems,
                     solve_concavity, tstar_bound)
from .scale_factor import (DeSitter, PowerLaw, Tabulated, c_epsilon,
                           check_monotone_expansion, min_admissible_t0,
                           t0_condition_threshold)

__version__ = "0.1.0"


def bundled_scenario_names() -> list[str]:
    """Names of the shipped scenario configs (pass to load_bundled_scenario)."""
    root = _resources.files(__name__) / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir()
                  if p.name.endswith(".cfg"))


def bundled_scenario_text(name: str) -> str:
    path = _resources.files(__name__) / "scenarios" / f"{name}.cfg"
    return path.read_text(encoding="utf-8")


def load_bundled_scenario(name: str) -> Scenario:
    return parse_text(bundled_scenario_text(name), name=name)
