"""Randomized self-checks: closed forms against oracles, invariants of the
dynamics, and the generator identity of the agent simulation.

Each check draws its own inputs from a seeded generator and reports a
pass/fail count, so a single seed reproduces a full report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import agentsim, fixedpoint, hjb
from .model import (
    ControlVector,
    ModelParams,
    StateDist,
    StrategyCase,
    _rhs_components,
    alpha_beta,
    kinetic_jacobian,
    kinetic_rhs,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: int
    failed: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_record(self) -> dict:
        return asdict(self)


def random_params(rng: np.random.Generator, lam: float | None = None,
                  lo: float = 0.1, hi: float = 5.0,
                  equal_recovery: bool = False) -> ModelParams:
    """A parameter draw respecting the natural sign structure, in Python floats."""
    draws = rng.uniform(lo, hi, size=8).tolist()
    q_a, q_b = sorted(draws[0:2])
    if equal_recovery:
        q_a = q_b
    inf_a, inf_b = sorted(draws[2:4])
    if inf_a == inf_b:
        inf_b = inf_a + lo
    b_ud, b_uu = sorted(draws[4:6])
    b_dd, b_du = sorted(draws[6:8])
    return ModelParams(
        q_rec_D=q_b, q_rec_U=q_a,
        q_inf_D=inf_a, q_inf_U=inf_b,
        beta_UU=b_uu, beta_UD=b_ud, beta_DU=b_du, beta_DD=b_dd,
        # the draw rng.choice([1.0, 10.0, 1000.0]) makes, without its overhead
        lam=lam if lam is not None else (1.0, 10.0, 1000.0)[int(rng.integers(0, 3))],
        v_H=float(rng.uniform(0.2, 2.0)),
        k_D=float(rng.uniform(0.0, 1.0)),
        k_I=1.0,
    )


def random_state(rng: np.random.Generator) -> StateDist:
    return StateDist.from_sequence(rng.dirichlet(np.ones(4)))


def random_control(rng: np.random.Generator) -> ControlVector:
    return ControlVector(*(int(b) for b in rng.integers(0, 2, size=4)))


def check_mass_conservation(seed: int, trials: int) -> CheckResult:
    """Components of the kinetic right-hand side sum to exactly zero."""
    rng = np.random.default_rng(seed)
    failed = 0
    for _ in range(trials):
        params = random_params(rng)
        rhs = kinetic_rhs(params, random_state(rng), random_control(rng))
        if float(rhs.sum()) != 0.0:
            failed += 1
    return CheckResult("mass_conservation_exact", trials - failed, failed)


def check_boundary_positivity(seed: int, trials: int) -> CheckResult:
    """A vanished compartment never flows further negative."""
    rng = np.random.default_rng(seed)
    failed = 0
    for _ in range(trials):
        params = random_params(rng)
        u = random_control(rng)
        zero_at = int(rng.integers(0, 4))
        raw = rng.dirichlet(np.ones(3))
        comps = np.insert(raw, zero_at, 0.0)
        rhs = kinetic_rhs(params, StateDist.from_sequence(comps), u)
        if rhs[zero_at] < 0.0:
            failed += 1
    return CheckResult("boundary_positivity", trials - failed, failed)


def check_domain_consistency(seed: int, trials: int) -> CheckResult:
    """The three equivalent forms of the domain comparison agree."""
    rng = np.random.default_rng(seed)
    failed = 0
    for _ in range(trials):
        params = random_params(rng)
        x = random_state(rng)
        alpha, beta = alpha_beta(params, x)
        lam, q_D, q_U = params.lam, params.q_rec_D, params.q_rec_U
        f1 = (beta + q_U) - (alpha + q_D)
        f2 = (beta + q_U) * (alpha + q_D + lam) - (alpha + q_D) * (beta + q_U + lam)
        f3 = (beta * (lam + q_D) - alpha * (lam + q_U)) - (
            (beta + lam) * q_D - (alpha + lam) * q_U)
        signs = {np.sign(f1), np.sign(f2), np.sign(f3)}
        scale = max(1.0, abs(f2), abs(f3))
        if len(signs) > 1 and not all(
            abs(f) <= 1e-9 * scale for f in (f1, f2, f3)
        ):
            failed += 1
    return CheckResult("domain_form_consistency", trials - failed, failed)


def check_hjb_residuals(seed: int, trials: int) -> CheckResult:
    """Valid closed-form solutions satisfy the optimality system."""
    rng = np.random.default_rng(seed)
    failed = 0
    checked = 0
    for _ in range(trials):
        params = random_params(rng)
        x = random_state(rng)
        for sol in hjb.enumerate_hjb(params, x):
            checked += 1
            tol = hjb.RESIDUAL_SCALE * max(1.0, abs(sol.mu))
            if (hjb.bellman_residual(params, x, sol) > tol
                    or not hjb.control_attains_min(sol, hjb.DEGENERATE_SLACK * params.k_I)):
                failed += 1
    return CheckResult("hjb_residual", checked - failed, failed,
                       detail=f"{checked} valid solutions across {trials} draws")


def check_oracle_agreement(seed: int, trials: int) -> CheckResult:
    """Closed-form enumeration matches the 16-control linear-system oracle."""
    rng = np.random.default_rng(seed)
    failed = 0
    for _ in range(trials):
        params = random_params(rng)
        x = random_state(rng)
        if not _oracle_matches(params, x):
            failed += 1
    return CheckResult("oracle_agreement", trials - failed, failed)


def _oracle_matches(params: ModelParams, x: StateDist, tol: float = 1e-9) -> bool:
    closed = hjb.enumerate_hjb(params, x)
    brute = hjb.oracle_enumerate(params, x)
    if len(brute) > 2:
        return False
    # skip knife-edge draws; boundary ties are compared structurally only
    if any(s.degenerate for s in closed + brute):
        return {s.case for s in closed} >= {s.case for s in brute if s.case is not None}
    if {s.case for s in closed} != {s.case for s in brute}:
        return False
    by_case = {s.case: s for s in brute}
    for sol in closed:
        ref = by_case[sol.case]
        if abs(sol.mu - ref.mu) > tol:
            return False
        if max(abs(a - b) for a, b in zip(sol.g, ref.g)) > tol:
            return False
    return True


def check_jacobian(seed: int, trials: int) -> CheckResult:
    """Analytic Jacobian against central finite differences."""
    rng = np.random.default_rng(seed)
    failed = 0
    h = 1e-6
    for _ in range(trials):
        params = random_params(rng, lam=float(rng.uniform(0.5, 20.0)))
        x = random_state(rng)
        u = random_control(rng)
        jac = kinetic_jacobian(params, x, u)
        fd = np.empty((4, 4))
        base = x.as_array()
        for j in range(4):
            up, down = base.copy(), base.copy()
            up[j] += h
            down[j] -= h
            # the raw components: finite differences step off the simplex
            f_up = np.array(_rhs_components(params, *up, u))
            f_down = np.array(_rhs_components(params, *down, u))
            fd[:, j] = (f_up - f_down) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(jac))))
        if float(np.max(np.abs(jac - fd))) > 1e-5 * scale:
            failed += 1
    return CheckResult("jacobian_finite_difference", trials - failed, failed)


def check_fixed_points(seed: int, trials: int) -> CheckResult:
    """Acyclic and mixed stationary points: residuals, roots, stability."""
    rng = np.random.default_rng(seed)
    failed = 0
    checked = 0
    for _ in range(trials):
        params = random_params(rng)
        for case in (StrategyCase.PREFER_UNPROTECTED, StrategyCase.PREFER_DEFENDED):
            fp = fixedpoint.fixed_point_acyclic(params, case)
            checked += 1
            if fixedpoint.fixed_point_residual(params, fp) > fixedpoint.RESIDUAL_TOL:
                failed += 1
            elif not fp.stable:
                failed += 1
        for case in (StrategyCase.DEFEND_SUSCEPTIBLE, StrategyCase.DEFEND_INFECTED):
            for fp in fixedpoint.fixed_point_mixed(params, case):
                checked += 1
                if fixedpoint.fixed_point_residual(params, fp) > fixedpoint.RESIDUAL_TOL:
                    failed += 1
    return CheckResult("fixed_point_residuals", checked - failed, failed,
                       detail=f"{checked} points across {trials} draws")


def check_generator_identity(seed: int, trials: int) -> CheckResult:
    """Event rates scaled by 1/N reproduce the kinetic right-hand side."""
    rng = np.random.default_rng(seed)
    failed = 0
    for _ in range(trials):
        params = random_params(rng)
        u = random_control(rng)
        raw = [int(v) for v in rng.integers(0, 500, size=4)]
        if sum(raw) == 0:
            raw[0] = 1
        counts = agentsim.AgentCounts(*raw)
        drift = agentsim.generator_drift(params, counts, u)
        rhs = kinetic_rhs(params, counts.to_dist(), u)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        if float(np.max(np.abs(drift - rhs))) > 1e-12 * scale:
            failed += 1
    return CheckResult("generator_identity", trials - failed, failed)


ALL_CHECKS = (
    check_mass_conservation,
    check_boundary_positivity,
    check_domain_consistency,
    check_hjb_residuals,
    check_oracle_agreement,
    check_jacobian,
    check_fixed_points,
    check_generator_identity,
)


def run_all(seed: int, trials: int) -> list[CheckResult]:
    """Run every check with per-check derived seeds."""
    results = []
    for offset, check in enumerate(ALL_CHECKS):
        results.append(check(seed + offset, trials))
    return results
