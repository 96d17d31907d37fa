"""Stationary equilibria of a four-state defense game between computer
owners and a botnet operator, with an exact N-agent simulator for
validating the mean-field limit."""

from .model import (
    CONFIG_KEYS,
    ControlVector,
    DegenerateDenominator,
    Domain,
    EffectiveRates,
    InvalidSimplex,
    ModelParams,
    StateDist,
    StepTooLarge,
    StrategyCase,
    alpha_beta,
    classify_domain,
    integrate,
    kinetic_jacobian,
    kinetic_rhs,
)
from .hjb import (
    HjbSolution,
    SingularSystem,
    TooManySolutions,
    case_interval,
    enumerate_hjb,
    oracle_enumerate,
    solve_case,
)
from .fixedpoint import (
    FixedPoint,
    fixed_point_acyclic,
    fixed_point_mixed,
    stability,
)
from .equilibrium import (
    AssumptionViolation,
    BifurcationReport,
    Equilibrium,
    SweepRow,
    kappa_of,
    kappa_thresholds,
    solve_mfg,
    sweep_kappa,
)

# the simulator's names import agentsim, and numpy with it, on first access (PEP 562)
_AGENTSIM_NAMES = ("DeviationStats", "SimConfig", "Trajectory",
                   "compare_ode", "simulate", "simulate_myopic")


def __getattr__(name: str):
    if name not in _AGENTSIM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import agentsim
    return getattr(agentsim, name)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation", "BifurcationReport", "CONFIG_KEYS",
    "ControlVector", "DegenerateDenominator", "DeviationStats", "Domain",
    "EffectiveRates", "Equilibrium", "FixedPoint",
    "HjbSolution", "InvalidSimplex", "ModelParams", "SimConfig",
    "SingularSystem", "StateDist", "StepTooLarge", "StrategyCase", "SweepRow",
    "TooManySolutions", "Trajectory", "alpha_beta",
    "case_interval", "classify_domain", "compare_ode", "enumerate_hjb",
    "fixed_point_acyclic", "fixed_point_mixed",
    "integrate", "kappa_of", "kappa_thresholds", "kinetic_jacobian",
    "kinetic_rhs", "oracle_enumerate", "simulate",
    "simulate_myopic", "solve_case", "solve_mfg", "stability", "sweep_kappa",
]
