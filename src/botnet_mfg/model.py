"""Core model: parameters, state types, effective infection rates, and the
kinetic mean-field dynamics of the four-state defense game, in Python
floats (no numpy).

Each computer is in one of four states, written in the fixed coordinate
order (DI, DS, UI, US): Defended/Unprotected crossed with Infected/
Susceptible.  An attacker applies direct-infection pressure ``v_H``;
infected machines infect susceptible ones through pairwise contact at
rates ``beta_<infector><susceptible>``; owners toggle the defense system,
and a toggle decision executes after an exponential time with rate
``lam``.

The population-level dynamics is the closed ODE on the 3-simplex

    dx_DI/dt =  alpha*x_DS - q_rec_D*x_DI + lam*(u_UI*x_UI - u_DI*x_DI)
    dx_DS/dt = -alpha*x_DS + q_rec_D*x_DI + lam*(u_US*x_US - u_DS*x_DS)
    dx_UI/dt =  beta*x_US  - q_rec_U*x_UI - lam*(u_UI*x_UI - u_DI*x_DI)
    dx_US/dt = -beta*x_US  + q_rec_U*x_UI - lam*(u_US*x_US - u_DS*x_DS)

with the effective infection intensities

    alpha = q_inf_D*v_H + x_DI*beta_DD + x_UI*beta_UD   (defended targets)
    beta  = q_inf_U*v_H + x_DI*beta_DU + x_UI*beta_UU   (unprotected targets)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

# |sum(x) - 1| accepted on input before renormalizing; root-finders and
# integrators produce drift at this scale.
SIMPLEX_INPUT_TOL = 1e-9
# relative tolerance on the rate comparison separating the two solution domains
DOMAIN_BOUNDARY_TOL = 1e-12


class InvalidSimplex(ValueError):
    """Raised when a candidate distribution is not a point on the 3-simplex."""


class StepTooLarge(RuntimeError):
    """Raised when an integration step drives a component below -1e-6."""


class DegenerateDenominator(ArithmeticError):
    """A closed-form denominator vanished (degenerate rates or state)."""


def check_denominator(value: float, what: str) -> float:
    """value, or DegenerateDenominator when it is exactly zero: no floor
    is free of the time unit, and a caller range-checks what a near-zero
    value gives (a non-finite Bellman solution, a state off the simplex)."""
    if value == 0.0:
        raise DegenerateDenominator(f"{what} vanishes")
    return value


class StrategyCase(Enum):
    """The four pure stationary strategies a rational owner can hold.

    The control bit means "request a toggle of the defense state".  Only
    four of the 16 binary controls are self-consistent with optimality:
    if leaving D is worthwhile for one D-state holder of a value function,
    entering D cannot be worthwhile for the mirror state.
    """

    PREFER_UNPROTECTED = "i"    # drop defense everywhere
    PREFER_DEFENDED = "ii"      # acquire defense everywhere
    DEFEND_SUSCEPTIBLE = "iii"  # defend while healthy, drop it when infected
    DEFEND_INFECTED = "iv"      # defend only while infected

    @property
    def label(self) -> str:
        return self.value

    @property
    def control(self) -> "ControlVector":
        return CASE_CONTROLS[self]

    @classmethod
    def from_label(cls, label: str) -> "StrategyCase":
        for case in cls:
            if case.value == label:
                return case
        raise ValueError(f"unknown strategy case {label!r}")


class Domain(Enum):
    D1 = "D1"
    D2 = "D2"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class ModelParams:
    """All rate and cost constants of the model.

    Rates are per unit time; ``v_H`` (attacker effort) and the cost ratio
    are dimensionless.  ``beta_XY`` is the contact infection rate from an
    X-infected machine onto a Y-susceptible one (infector first).
    """

    q_rec_D: float     # recovery rate while defended
    q_rec_U: float     # recovery rate while unprotected
    q_inf_D: float     # direct-infection coefficient while defended
    q_inf_U: float     # direct-infection coefficient while unprotected
    beta_UU: float
    beta_UD: float
    beta_DU: float
    beta_DD: float
    lam: float         # execution rate of owner decisions (config key "lambda")
    v_H: float         # attacker effort level
    k_D: float         # defense fee per unit time
    k_I: float         # infection loss per unit time

    def __post_init__(self) -> None:
        for name in CONFIG_KEYS:
            value = getattr(self, _FIELD_BY_KEY[name])
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"parameter {name} must be finite and >= 0, got {value}")
        if self.lam <= 0.0:
            raise ValueError("lambda must be positive")
        if self.k_I <= 0.0:
            raise ValueError("k_I must be positive")

    @property
    def kappa(self) -> float:
        """Cost ratio k_D / k_I, the bifurcation parameter."""
        return self.k_D / self.k_I

    @property
    def delta(self) -> float:
        """Recovery-rate gap q_rec_D - q_rec_U."""
        return self.q_rec_D - self.q_rec_U

    @property
    def has_equal_recovery_rates(self) -> bool:
        return self.q_rec_D == self.q_rec_U

    def max_rate(self) -> float:
        return max(
            self.q_rec_D, self.q_rec_U,
            self.q_inf_D * self.v_H, self.q_inf_U * self.v_H,
            self.beta_UU, self.beta_UD, self.beta_DU, self.beta_DD,
            self.lam,
        )

    def with_kappa(self, kappa: float) -> "ModelParams":
        """Copy with k_D set to kappa * k_I."""
        return replace(self, k_D=kappa * self.k_I)

    # -- flat key/value config -------------------------------------------

    def to_config_text(self) -> str:
        lines = [f"{key} = {getattr(self, _FIELD_BY_KEY[key])!r}" for key in CONFIG_KEYS]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_config_text(cls, text: str) -> "ModelParams":
        return cls(**parse_config(text.splitlines()))


def parse_config(lines: Iterable[str], overrides: Iterable[str] = ()) -> dict[str, float]:
    """ModelParams field values from ``key = value`` lines (``#`` comments),
    then from each override as one more line that must hold one assignment;
    a later line wins, but a key may appear only once in ``lines``.  Syntax
    errors and missing keys raise ValueError; ModelParams checks ranges.
    """
    values: dict[str, float] = {}
    entries = [(f"line {n}", raw, False) for n, raw in enumerate(lines, start=1)]
    entries += [(f"override {item!r}", item, True) for item in overrides]
    for where, raw, override in entries:
        line = raw.split("#", 1)[0].strip()
        if not line and not override:
            continue
        if line.count("=") != 1:
            raise ValueError(f"{where}: expected one 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_BY_KEY:
            raise ValueError(f"{where}: unknown parameter {key!r}")
        field = _FIELD_BY_KEY[key]
        if field in values and not override:
            raise ValueError(f"{where}: duplicate parameter {key!r}")
        try:
            values[field] = float(value)
        except ValueError as exc:
            raise ValueError(f"{where}: bad number for {key!r}") from exc
    missing = [key for key in CONFIG_KEYS if _FIELD_BY_KEY[key] not in values]
    if missing:
        raise ValueError(f"missing parameters: {', '.join(missing)}")
    return values


# exact external key set; "lambda" is a keyword, hence the lam field
CONFIG_KEYS = (
    "q_rec_D", "q_rec_U", "q_inf_D", "q_inf_U",
    "beta_UU", "beta_UD", "beta_DU", "beta_DD",
    "lambda", "v_H", "k_D", "k_I",
)
_FIELD_BY_KEY = {key: ("lam" if key == "lambda" else key) for key in CONFIG_KEYS}

# the state components in coordinate order; also the state column names
STATE_FIELDS = ("x_DI", "x_DS", "x_UI", "x_US")


@dataclass(frozen=True)
class StateDist:
    """A point on the 3-simplex: population fractions in the four states.

    Inputs may carry drift up to |sum - 1| <= 1e-9 and components down to
    -1e-9; they are clipped and renormalized so the stored components are
    nonnegative and sum to one within 1e-12.
    """

    x_DI: float
    x_DS: float
    x_UI: float
    x_US: float

    def __post_init__(self) -> None:
        comps = [self.x_DI, self.x_DS, self.x_UI, self.x_US]
        if any(not math.isfinite(c) for c in comps):
            raise InvalidSimplex(f"non-finite component in {comps}")
        if any(c < -SIMPLEX_INPUT_TOL or c > 1.0 + SIMPLEX_INPUT_TOL for c in comps):
            raise InvalidSimplex(f"component outside [0, 1]: {comps}")
        total = math.fsum(comps)
        if abs(total - 1.0) > SIMPLEX_INPUT_TOL:
            raise InvalidSimplex(f"components sum to {total}, not 1")
        clipped = [max(c, 0.0) for c in comps]
        total = math.fsum(clipped)
        for name, value in zip(STATE_FIELDS, clipped):
            object.__setattr__(self, name, value / total)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_DI, self.x_DS, self.x_UI, self.x_US)

    @classmethod
    def from_sequence(cls, values: Sequence[float] | Iterable[float]) -> "StateDist":
        vals = list(values)
        if len(vals) != 4:
            raise InvalidSimplex(f"expected 4 components, got {len(vals)}")
        return cls(*(float(v) for v in vals))


@dataclass(frozen=True)
class ControlVector:
    """Binary toggle requests per state, in the order (DI, DS, UI, US)."""

    u_DI: int
    u_DS: int
    u_UI: int
    u_US: int

    def __post_init__(self) -> None:
        for name in ("u_DI", "u_DS", "u_UI", "u_US"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.u_DI, self.u_DS, self.u_UI, self.u_US)

    @property
    def case(self) -> StrategyCase | None:
        """The strategy case this control realizes, if any."""
        return _CASE_BY_CONTROL.get(self.as_tuple())


CASE_CONTROLS: dict[StrategyCase, ControlVector] = {
    StrategyCase.PREFER_UNPROTECTED: ControlVector(1, 1, 0, 0),
    StrategyCase.PREFER_DEFENDED: ControlVector(0, 0, 1, 1),
    StrategyCase.DEFEND_SUSCEPTIBLE: ControlVector(1, 0, 0, 1),
    StrategyCase.DEFEND_INFECTED: ControlVector(0, 1, 1, 0),
}
_CASE_BY_CONTROL = {cv.as_tuple(): case for case, cv in CASE_CONTROLS.items()}


class EffectiveRates(NamedTuple):
    alpha: float
    beta: float


def alpha_beta(params: ModelParams, x: StateDist) -> EffectiveRates:
    """Effective infection intensities seen by defended / unprotected targets."""
    return EffectiveRates(
        params.q_inf_D * params.v_H + x.x_DI * params.beta_DD + x.x_UI * params.beta_UD,
        params.q_inf_U * params.v_H + x.x_DI * params.beta_DU + x.x_UI * params.beta_UU)


def _rhs_components(
    params: ModelParams,
    x_DI: float, x_DS: float, x_UI: float, x_US: float,
    u: ControlVector,
) -> tuple[float, float, float, float]:
    """Kinetic right-hand side on raw floats: the hot path for the
    integrator, and the off-simplex points of finite differences.

    Each one-way population flow is computed once; the last component
    closes the balance, so the four components sum to exactly 0.0 under
    left-to-right summation.
    """
    alpha = params.q_inf_D * params.v_H + x_DI * params.beta_DD + x_UI * params.beta_UD
    beta = params.q_inf_U * params.v_H + x_DI * params.beta_DU + x_UI * params.beta_UU
    lam = params.lam

    infect_D = x_DS * alpha            # DS -> DI
    recover_D = x_DI * params.q_rec_D  # DI -> DS
    infect_U = x_US * beta             # US -> UI
    recover_U = x_UI * params.q_rec_U  # UI -> US
    drop_I = lam * x_DI * u.u_DI       # DI -> UI
    take_I = lam * x_UI * u.u_UI       # UI -> DI
    drop_S = lam * x_DS * u.u_DS       # DS -> US
    take_S = lam * x_US * u.u_US       # US -> DS

    d_DI = (infect_D - recover_D) + (take_I - drop_I)
    d_DS = (recover_D - infect_D) + (take_S - drop_S)
    d_UI = (infect_U - recover_U) + (drop_I - take_I)
    d_US = 0.0 - ((d_DI + d_DS) + d_UI)
    return d_DI, d_DS, d_UI, d_US


def kinetic_rhs(params: ModelParams, x: StateDist,
                u: ControlVector) -> tuple[float, float, float, float]:
    """Time derivative of the population fractions under a fixed control.

    The components sum to exactly zero under left-to-right summation (mass
    conservation), and any component whose fraction is zero is nonnegative
    (the simplex is forward-invariant).
    """
    return _rhs_components(params, x.x_DI, x.x_DS, x.x_UI, x.x_US, u)


def kinetic_jacobian(params: ModelParams, x: StateDist,
                     u: ControlVector) -> tuple[tuple[float, ...], ...]:
    """Analytic 4x4 Jacobian of kinetic_rhs with respect to x, as rows of
    floats; column sums vanish, reflecting mass conservation."""
    alpha, beta = alpha_beta(params, x)
    lam = params.lam
    x_DS, x_US = x.x_DS, x.x_US
    b_DD, b_UD, b_DU, b_UU = params.beta_DD, params.beta_UD, params.beta_DU, params.beta_UU
    return (
        (x_DS * b_DD - params.q_rec_D - lam * u.u_DI, alpha,
         x_DS * b_UD + lam * u.u_UI, 0.0),                                   # DI
        (-x_DS * b_DD + params.q_rec_D, -alpha - lam * u.u_DS,
         -x_DS * b_UD, lam * u.u_US),                                        # DS
        (x_US * b_DU + lam * u.u_DI, 0.0,
         x_US * b_UU - params.q_rec_U - lam * u.u_UI, beta),                 # UI
        (-x_US * b_DU, lam * u.u_DS,
         -x_US * b_UU + params.q_rec_U, -beta - lam * u.u_US),               # US
    )


def default_step(params: ModelParams) -> float:
    """Fixed RK4 step: 1e-2 over the fastest rate in the parameter set."""
    return 1e-2 / params.max_rate()


def integrate(
    params: ModelParams,
    x0: StateDist,
    u: ControlVector,
    horizon: float,
    step: float | None = None,
    sample_every: int = 1,
) -> list[tuple[float, StateDist]]:
    """Integrate the kinetic ODE with classical fixed-step RK4.

    Returns the sampled trajectory [(t, state), ...]; the final state at
    ``horizon`` is always included.  Emitted states are clipped onto the
    simplex and renormalized.  Raises StepTooLarge if any intermediate
    component falls below -1e-6.
    """
    if horizon < 0.0:
        raise ValueError("horizon must be >= 0")
    if step is None:
        step = default_step(params)
    if step <= 0.0:
        raise ValueError("step must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")

    trajectory: list[tuple[float, StateDist]] = [(0.0, x0)]
    if horizon == 0.0:
        return trajectory

    n_steps = max(1, math.ceil(horizon / step))
    h = horizon / n_steps
    half = 0.5 * h
    sixth = h / 6.0
    rhs = _rhs_components
    a, b, c, d = x0.as_tuple()
    for i in range(n_steps):
        # classical RK4 on four scalars
        k1a, k1b, k1c, k1d = rhs(params, a, b, c, d, u)
        k2a, k2b, k2c, k2d = rhs(params, a + half * k1a, b + half * k1b,
                                 c + half * k1c, d + half * k1d, u)
        k3a, k3b, k3c, k3d = rhs(params, a + half * k2a, b + half * k2b,
                                 c + half * k2c, d + half * k2d, u)
        k4a, k4b, k4c, k4d = rhs(params, a + h * k3a, b + h * k3b,
                                 c + h * k3c, d + h * k3d, u)
        a = a + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        c = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        d = d + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        # clip onto the simplex and renormalize
        if min(a, b, c, d) < -1e-6:
            raise StepTooLarge(
                f"integration state left the simplex: {(a, b, c, d)}; shrink the step")
        a, b, c, d = max(a, 0.0), max(b, 0.0), max(c, 0.0), max(d, 0.0)
        total = math.fsum((a, b, c, d))
        a, b, c, d = a / total, b / total, c / total, d / total
        if (i + 1) % sample_every == 0 or i + 1 == n_steps:
            trajectory.append(((i + 1) * h, StateDist(a, b, c, d)))
    return trajectory


def classify_domain(params: ModelParams, x: StateDist) -> Domain:
    """Which solution domain a population state belongs to.

    D1 holds where beta + q_rec_U > alpha + q_rec_D (unprotected machines
    both catch the infection faster and shed it slower, net); D2 is the
    reverse; Boundary is a gap within DOMAIN_BOUNDARY_TOL times the larger
    of the two sums, so the answer does not depend on the time unit.
    """
    alpha, beta = alpha_beta(params, x)
    unprotected, defended = beta + params.q_rec_U, alpha + params.q_rec_D
    if abs(unprotected - defended) <= DOMAIN_BOUNDARY_TOL * max(unprotected, defended):
        return Domain.BOUNDARY
    return Domain.D1 if unprotected > defended else Domain.D2
