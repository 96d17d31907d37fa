"""Stationary game equilibria: population states that are stationary under
a strategy which is itself individually optimal against that state.

An equilibrium pairs a fixed point of the kinetic dynamics (per case)
with a valid Bellman solution of the same case at that point.  The cost
ratio kappa = k_D/k_I is the bifurcation parameter: the case-i equilibrium
exists above a threshold kappa that depends on the case-i fixed point,
the case-iii equilibrium below a threshold at its own fixed point, and
so on.  This module synthesizes all equilibria, computes the thresholds,
and produces kappa-sweep tables for phase diagrams.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from . import fixedpoint as fp_mod
from . import hjb as hjb_mod
from .model import (
    STATE_FIELDS,
    ControlVector,
    DegenerateDenominator,
    ModelParams,
    StateDist,
    StrategyCase,
    alpha_beta,
    check_denominator,
    classify_domain,
)

EFFICIENCY_TIE_TOL = 1e-12
MAX_SWEEP_STEPS = 10 ** 6  # grid points per sweep, each kept as one row in memory
Bracketed = tuple[fp_mod.FixedPoint, float, float]


class AssumptionViolation(ValueError):
    """A computation requiring equal recovery rates was asked without them."""


@dataclass(frozen=True)
class Equilibrium:
    """A stationary point paired with its case's valid Bellman solution.

    The state and case are the fixed point's, the control and cost the
    Bellman solution's; ``efficient`` marks the cheapest equilibria.
    """

    hjb: hjb_mod.HjbSolution
    fixed_point: fp_mod.FixedPoint
    efficient: bool

    @property
    def x(self) -> StateDist:
        return self.fixed_point.x

    @property
    def case(self) -> StrategyCase:
        return self.fixed_point.case

    @property
    def control(self) -> ControlVector:
        return self.hjb.control

    @property
    def mu(self) -> float:
        return self.hjb.mu

    @property
    def stable(self) -> bool:
        return self.fixed_point.stable

    @property
    def eigenvalues(self) -> tuple[complex, complex, complex]:
        return self.fixed_point.eigenvalues

    def to_record(self) -> dict:
        merged = {**self.hjb.to_record(), **self.fixed_point.to_record(),
                  "efficient": self.efficient}
        return {name: merged[name] for name in EQUILIBRIUM_CSV_FIELDS}


EQUILIBRIUM_CSV_FIELDS = (
    "case", *STATE_FIELDS, "mu", "g_DI", "g_DS", "g_UI", "g_US",
    *fp_mod.EIGENVALUE_FIELDS, "stable", "efficient", "degenerate", "slack1", "slack2",
)


def stationary_points(params: ModelParams) -> list[fp_mod.FixedPoint]:
    """Every stationary point, case by case in StrategyCase order; each
    point carries its case.  k_D and k_I do not enter the kinetic
    dynamics, so these are the same for every kappa."""
    points = []
    for case in StrategyCase:
        if case in (StrategyCase.PREFER_UNPROTECTED, StrategyCase.PREFER_DEFENDED):
            points.append(fp_mod.fixed_point_acyclic(params, case))
        else:
            points.extend(fp_mod.fixed_point_mixed(params, case))
    return points


def _bracketed_points(params: ModelParams) -> list[Bracketed]:
    """Every stationary point with its case's exact kappa interval; neither depends on kappa."""
    return [(fp, *hjb_mod.case_interval(params, fp.x, fp.case))
            for fp in stationary_points(params)]


def solve_mfg(params: ModelParams) -> list[Equilibrium]:
    """All stationary equilibria at the kappa of ``params``, sorted by average cost.

    A stationary point is an equilibrium when its case's interval holds
    kappa; only those points are priced with their case's Bellman
    solution.  An empty list is a legal outcome inside a bifurcation gap.
    """
    found: list[tuple[hjb_mod.HjbSolution, fp_mod.FixedPoint]] = []
    for fp, lo, hi in _bracketed_points(params):
        if not lo <= params.kappa <= hi:
            continue
        try:
            sol = hjb_mod.solve_case(params, fp.x, fp.case, (lo, hi))
        except DegenerateDenominator:
            continue
        found.append((sol, fp))

    if not found:
        return []
    mu_min = min(sol.mu for sol, _ in found)
    tie = EFFICIENCY_TIE_TOL * max(params.k_I, abs(mu_min))
    out = [Equilibrium(hjb=sol, fixed_point=fp, efficient=sol.mu <= mu_min + tie)
           for sol, fp in found]
    out.sort(key=lambda e: (e.mu, e.case.label))
    return out


def kappa_of(params: ModelParams, z: float) -> float:
    """Threshold cost ratio as a function of the infected fraction z.

    Defined for equal recovery rates:
        kappa(z) = ((q_inf_U - q_inf_D)*v_H + z*(beta_UU - beta_UD))
                   / (q_inf_U*v_H + z*beta_UU + q_rec)
    Increasing in z iff beta_UU*(q_inf_D*v_H + q) > beta_UD*(q_inf_U*v_H + q).
    """
    if not params.has_equal_recovery_rates:
        raise AssumptionViolation(
            "kappa(z) requires q_rec_D == q_rec_U; use the four generic thresholds")
    q = params.q_rec_U
    num = (params.q_inf_U - params.q_inf_D) * params.v_H + z * (params.beta_UU - params.beta_UD)
    den = params.q_inf_U * params.v_H + z * params.beta_UU + q
    return num / den


def kappa_increasing(params: ModelParams) -> bool:
    return (params.beta_UU * (params.q_inf_D * params.v_H + params.q_rec_U)
            > params.beta_UD * (params.q_inf_U * params.v_H + params.q_rec_U))


@dataclass(frozen=True)
class BifurcationReport:
    """Bifurcation thresholds in kappa and the data behind them.

    kappa_star / kappa_bar_star are defined only under equal recovery
    rates (they are then kappa(z) at the case-i and asymptotic case-iii
    infected fractions).  kappa_1..kappa_4 are the generic large-lam
    thresholds: (beta-alpha)/(beta+q_rec_U) at the case-i and case-iii
    points, delta/(alpha+q_rec_D) at the case-ii and case-iii points.
    """

    kappa_star: float | None
    kappa_bar_star: float | None
    kappa_1: float
    kappa_2: float
    kappa_3: float
    kappa_4: float
    x_star_UI: float
    x_star_DI: float
    x_bar_star_UI: float
    domains: dict[str, str]
    kappa_z_increasing: bool

    def to_record(self) -> dict:
        return asdict(self)


def _gap_threshold(params: ModelParams, x: StateDist) -> float:
    """(beta-alpha)/(beta+q_rec_U) at a state."""
    alpha, beta = alpha_beta(params, x)
    return (beta - alpha) / check_denominator(beta + params.q_rec_U, "beta + q_rec_U")


def _delta_threshold(params: ModelParams, x: StateDist) -> float:
    """delta/(alpha+q_rec_D) at a state."""
    alpha, _ = alpha_beta(params, x)
    return params.delta / check_denominator(alpha + params.q_rec_D, "alpha + q_rec_D")


def kappa_thresholds(params: ModelParams) -> BifurcationReport:
    """Bifurcation thresholds from the closed-form case-i, case-ii and
    large-lam case-iii states (``fixedpoint.endemic_state``); no spectrum
    is computed and nothing depends on lam.

    Raises DegenerateDenominator when a threshold's denominator vanishes.
    """
    x_i, x_ii, x_iii = (fp_mod.endemic_state(params, case) for case in (
        StrategyCase.PREFER_UNPROTECTED, StrategyCase.PREFER_DEFENDED,
        StrategyCase.DEFEND_SUSCEPTIBLE))

    kappa_1 = _gap_threshold(params, x_i)
    kappa_2 = _delta_threshold(params, x_ii)
    kappa_3 = _delta_threshold(params, x_iii)
    kappa_4 = _gap_threshold(params, x_iii)

    if params.has_equal_recovery_rates:
        kappa_star: float | None = kappa_of(params, x_i.x_UI)
        kappa_bar_star: float | None = kappa_of(params, x_iii.x_UI)
    else:
        kappa_star = kappa_bar_star = None

    domains = {
        "x_star_UI": classify_domain(params, x_i).value,
        "x_star_DI": classify_domain(params, x_ii).value,
        "x_bar_star_UI": classify_domain(params, x_iii).value,
    }
    return BifurcationReport(
        kappa_star=kappa_star,
        kappa_bar_star=kappa_bar_star,
        kappa_1=kappa_1, kappa_2=kappa_2, kappa_3=kappa_3, kappa_4=kappa_4,
        x_star_UI=x_i.x_UI, x_star_DI=x_ii.x_DI, x_bar_star_UI=x_iii.x_UI,
        domains=domains,
        kappa_z_increasing=kappa_increasing(params),
    )


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    count: int
    cases: tuple[str, ...]
    mu_values: tuple[float, ...]
    stable: tuple[bool, ...]
    near_bifurcation: bool

    def to_record(self) -> dict:
        # a shallow copy: asdict's recursive one costs ~25 us per grid point
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_csv_record(self) -> dict:
        """One flat CSV row; the tuple columns are joined with + and ;."""
        return {
            "kappa": self.kappa,
            "count": self.count,
            "cases": "+".join(self.cases),
            "mu_min": min(self.mu_values) if self.mu_values else None,
            "mu_all": ";".join(repr(m) for m in self.mu_values),
            "stable_all": ";".join("true" if s else "false" for s in self.stable),
            "near_bifurcation": self.near_bifurcation,
        }


SWEEP_CSV_FIELDS = (
    "kappa", "count", "cases", "mu_min", "mu_all", "stable_all", "near_bifurcation",
)


def check_sweep(kappa_min: float, kappa_max: float, steps: int) -> None:
    """Raise ValueError unless 0 <= kappa_min < kappa_max < inf and
    2 <= steps <= MAX_SWEEP_STEPS."""
    if not (0.0 <= kappa_min < kappa_max < math.inf):
        raise ValueError("need finite 0 <= kappa_min < kappa_max")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if steps > MAX_SWEEP_STEPS:
        raise ValueError(f"steps exceeds {MAX_SWEEP_STEPS}")


def sweep_kappa(params: ModelParams, kappa_min: float, kappa_max: float,
                steps: int) -> list[SweepRow]:
    """Equilibrium structure along a kappa grid, k_I held fixed.

    The stationary points and their exact kappa intervals
    (``hjb.case_interval``) do not depend on kappa, so they are found
    once per sweep, and a point's closed form (``hjb.case_pricer``) the
    first time its interval holds a grid kappa; a grid point evaluates
    only the k_D terms, at the floats ``params.with_kappa(kappa)`` gives.
    A row is tagged near_bifurcation when a finite end of a non-empty
    interval lies between its two neighbours (one grid step, kappa as
    membership sees it).  Membership changes only at those ends, so the
    count never changes between two untagged neighbours.
    """
    check_sweep(kappa_min, kappa_max, steps)
    points = _bracketed_points(params)
    ends = [end for _, lo, hi in points if lo <= hi
            for end in (lo, hi) if math.isfinite(end)]
    params.with_kappa(kappa_max)  # ValueError if k_D overflows: kappa*k_I is monotone in kappa
    span = kappa_max - kappa_min
    step = span / (steps - 1)
    # numpy.linspace's grid, float for float (i/(steps - 1)*span where step underflows to 0)
    kappas = [(i * step if step else i / (steps - 1) * span) + kappa_min
              for i in range(steps - 1)] + [kappa_max]
    k_Ds = [kappa * params.k_I for kappa in kappas]
    at = [k_D / params.k_I for k_D in k_Ds]
    edges = [at[0] - step, *at, at[-1] + step]
    pricers: dict[int, hjb_mod.Pricer | None] = {}
    rows = []
    for i, kappa in enumerate(kappas):
        found = []
        for j, (fp, lo, hi) in enumerate(points):
            if not lo <= at[i] <= hi:
                continue
            if j not in pricers:  # no denominator reads k_D: a degenerate point is never priced
                try:
                    pricers[j] = hjb_mod.case_pricer(params, fp.x, fp.case)
                except DegenerateDenominator:
                    pricers[j] = None
            if (price := pricers[j]) is not None:
                found.append((price(k_Ds[i], True).mu, fp.case.label, fp.stable))
        found.sort(key=lambda t: t[:2])
        mu_values, cases, stable = tuple(zip(*found)) or ((), (), ())
        rows.append(SweepRow(
            kappa=kappa,
            count=len(found),
            cases=cases,
            mu_values=mu_values,
            stable=stable,
            near_bifurcation=any(edges[i] <= end <= edges[i + 2] for end in ends),
        ))
    return rows
