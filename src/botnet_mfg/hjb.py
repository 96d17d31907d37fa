"""Closed-form solutions of the stationary ergodic Bellman system.

For a frozen population state x, a rational owner solves the four-line
average-cost optimality system (relative values g on the four states,
average cost mu per unit time):

    lam*min(g_UI - g_DI, 0) + q_rec_D*(g_DS - g_DI) + k_I + k_D = mu
    lam*min(g_US - g_DS, 0) + alpha*(g_DI - g_DS)   + k_D       = mu
    lam*min(g_DI - g_UI, 0) + q_rec_U*(g_US - g_UI) + k_I       = mu
    lam*min(g_DS - g_US, 0) + beta*(g_UI - g_US)                = mu

Picking the negative branch of a min corresponds to requesting a toggle
(u = 1).  Only the four strategy cases are self-consistent; each admits a
closed-form (g, mu) and a pair of inequality margins ("slacks") deciding
whether the case's control actually attains every minimum.

Writing A = (beta+lam)*q_rec_D - (alpha+lam)*q_rec_U,
        B = beta*(lam+q_rec_D) - alpha*(lam+q_rec_U),
        P = (alpha+q_rec_D)*(beta+q_rec_U+lam),
        Q = (alpha+q_rec_D+lam)*(beta+q_rec_U),
the validity regions in the cost ratio kappa = k_D/k_I are

    case i   : kappa*Q >= A  and  kappa*Q >= B
    case ii  : kappa*P <= A  and  kappa*P <= B
    case iii : kappa*P >= A  and  kappa*Q <= B
    case iv  : kappa*Q <= A  and  kappa*P >= B

B - A = lam*((beta+q_rec_U) - (alpha+q_rec_D)), so ordering of A and B is
decided by the domain D1/D2 of x.  P and Q are never negative, so each
region is one closed interval in kappa, exact at every lam and rate; these
intervals alone decide whether a case holds, in ``solve_case``'s ``valid``
flag too, and ``solve_case`` prices it.  ``interval_rule`` is the only
place the rule lives: ``case_interval`` applies it at a StateDist and
``agentsim.kept_test`` at head-counts, adding only the fsum normalization
a StateDist makes.  An inequality whose P or Q vanishes holds for every
kappa or for none; with P, Q > 0 the intervals are

    case i   : [max(A,B)/Q, inf)
    case ii  : (-inf, min(A,B)/P]
    case iii : [A/P, B/Q]
    case iv  : [B/P, A/Q]

With s = alpha + q_rec_D, r = beta + q_rec_U and delta = q_rec_D - q_rec_U,
the endpoints A/P, B/Q, B/P, A/Q tend to delta/s, (beta-alpha)/r,
(beta-alpha)/s, delta/r as lam -> infinity, at rate 1/lam.

More than two intervals can hold at once: where r = s, A = B and P = Q,
so all four meet at kappa = A/P (e.g. every contact rate 2, q_inf_D =
q_inf_U, equal recovery, k_D = 0).  There the four solutions coincide; at
most two *distinct* solutions ever hold, which ``enumerate_hjb`` checks.

g and mu are linear in (k_D, k_I), so every tolerance below is a multiple
of k_I: scaling both costs by c > 0 scales g, mu and the slacks by c and
returns the same cases and flags.  Scaling the rates too (a change of
time unit) leaves every interval as it is: a closed form fails only on a
denominator exactly zero (DegenerateDenominator) or a non-finite
solution (OverflowError), never on an absolute floor.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .model import (
    ControlVector,
    DegenerateDenominator,
    ModelParams,
    StateDist,
    StrategyCase,
    alpha_beta,
    check_denominator,
)

# in units of k_I: a slack within DEGENERATE_SLACK*k_I of zero is reported
# degenerate; validity itself is decided by the exact case_interval
DEGENERATE_SLACK = 1e-9
RESIDUAL_SCALE = 1e-10
# infected fractions (x_DI, x_UI) -> a case's kappa interval (lo, hi)
IntervalRule = Callable[[float, float], tuple[float, float]]


class SingularSystem(np.linalg.LinAlgError):
    """The fixed-control linear system is rank-deficient."""


class TooManySolutions(ArithmeticError):
    """More than two distinct case solutions were valid at one state."""


CSV_FIELDS = ("case", "mu", "g_DI", "g_DS", "g_UI", "g_US",
              "valid", "degenerate", "slack1", "slack2")


@dataclass(frozen=True)
class HjbSolution:
    """One candidate solution of the optimality system.

    g is renormalized so min(g) = 0 (relative values are defined up to an
    additive constant).  ``slack1``/``slack2`` are the DI-line and DS-line
    margins (``_margins``): for the four cases, their two validity
    inequalities.  A closed-form case is ``valid`` when its
    ``case_interval`` holds kappa; the oracle keeps only solutions with no
    margin below -tol.  ``degenerate`` marks a margin within tol of zero,
    tol = DEGENERATE_SLACK*k_I.
    """

    g_DI: float
    g_DS: float
    g_UI: float
    g_US: float
    mu: float
    valid: bool
    degenerate: bool
    slack1: float
    slack2: float
    control: ControlVector

    @property
    def case(self) -> StrategyCase | None:
        return self.control.case

    def g_array(self) -> np.ndarray:
        return np.array([self.g_DI, self.g_DS, self.g_UI, self.g_US])

    def to_record(self) -> dict:
        rec = {name: getattr(self, name) for name in CSV_FIELDS}
        rec["case"] = self.case.label if self.case is not None else None
        return rec


def _margins(u: ControlVector, g_DI: float, g_DS: float, g_UI: float, g_US: float) -> tuple:
    """The line margins in line order: g_self - g_partner where u toggles,
    g_partner - g_self where not; u attains a line's min iff its margin >= 0."""
    return (g_DI - g_UI if u.u_DI else g_UI - g_DI,
            g_DS - g_US if u.u_DS else g_US - g_DS,
            g_UI - g_DI if u.u_UI else g_DI - g_UI,
            g_US - g_DS if u.u_US else g_DS - g_US)


def _finish(params: ModelParams, u: ControlVector, g: tuple[float, float, float, float],
            mu: float, valid: bool) -> HjbSolution:
    """The one HjbSolution builder: margins of the raw g, then g shifted to
    min 0.  Raises OverflowError unless mu and the shifted g are finite."""
    g_DI, g_DS, g_UI, g_US = g
    m_DI, m_DS, m_UI, m_US = _margins(u, g_DI, g_DS, g_UI, g_US)
    shift = min(g)
    g_DI, g_DS, g_UI, g_US = g_DI - shift, g_DS - shift, g_UI - shift, g_US - shift
    if not (math.isfinite(mu) and math.isfinite(g_DI) and math.isfinite(g_DS)
            and math.isfinite(g_UI) and math.isfinite(g_US)):
        raise OverflowError(f"non-finite Bellman solution: mu={mu}, g={g}")
    tol = DEGENERATE_SLACK * params.k_I
    return HjbSolution(
        g_DI=g_DI, g_DS=g_DS, g_UI=g_UI, g_US=g_US, mu=mu, valid=valid,
        degenerate=(abs(m_DI) <= tol or abs(m_DS) <= tol
                    or abs(m_UI) <= tol or abs(m_US) <= tol),
        slack1=m_DI, slack2=m_DS, control=u,
    )


def solve_case(params: ModelParams, x: StateDist, case: StrategyCase,
               interval: tuple[float, float] | None = None) -> HjbSolution:
    """Closed-form (g, mu) for one strategy case at a frozen state x.

    The returned solution always satisfies the fixed-control linear system;
    ``valid`` reports whether the case's interval holds kappa, that is
    whether its control attains the minimum in every line, with the signed
    margins in ``slack1``/``slack2``.  A caller that has just computed
    ``case_interval(params, x, case)`` passes it as ``interval``.
    """
    lo, hi = interval if interval is not None else case_interval(params, x, case)
    alpha, beta = alpha_beta(params, x)
    u, valid = case.control, lo <= params.kappa <= hi
    lam, q_D, q_U = params.lam, params.q_rec_D, params.q_rec_U
    k_D, k_I = params.k_D, params.k_I

    if case is StrategyCase.PREFER_UNPROTECTED:
        den = check_denominator(beta + q_U, "beta + q_rec_U")
        g_UI = k_I / den
        mu = beta * g_UI
        den2 = check_denominator(lam * den * (alpha + lam + q_D), "lam*den*(alpha+lam+q_rec_D)")
        g_DS = (k_D - mu) / lam + k_I * alpha * (beta + lam + q_U) / den2
        g_DI = (k_D - mu) / lam + k_I * (alpha + lam) * (beta + lam + q_U) / den2
        return _finish(params, u, (g_DI, g_DS, g_UI, 0.0), mu, valid)

    if case is StrategyCase.PREFER_DEFENDED:
        den = check_denominator(alpha + q_D, "alpha + q_rec_D")
        g_DI = k_I / den
        mu = k_D + alpha * g_DI
        den2 = check_denominator(lam * den * (beta + lam + q_U), "lam*den*(beta+lam+q_rec_U)")
        g_US = -k_D / lam + k_I * (beta * (lam + q_D) - alpha * (lam + q_U)) / den2
        g_UI = -k_D / lam + k_I * ((beta + lam) * (lam + q_D) - alpha * q_U) / den2
        return _finish(params, u, (g_DI, 0.0, g_UI, g_US), mu, valid)

    if case is StrategyCase.DEFEND_SUSCEPTIBLE:
        den = check_denominator(alpha * (beta + lam + q_U) + q_U * (alpha + lam + q_D),
                                "alpha*(beta+lam+q_rec_U) + q_rec_U*(alpha+lam+q_rec_D)")
        den2 = check_denominator(lam * den, "lam*den")
        g_DI = (beta + lam + q_U) * (k_I - k_D) / den
        g_US = (k_I * (beta * (lam + q_D) - alpha * (lam + q_U))
                - k_D * (beta + q_U) * (alpha + lam + q_D)) / den2
        g_UI = (k_I * ((lam + q_D) * (lam + beta) - alpha * q_U)
                - k_D * (beta + lam + q_U) * (alpha + lam + q_D)) / den2
        mu = (k_I * alpha * (beta + lam + q_U) + k_D * q_U * (alpha + lam + q_D)) / den
        return _finish(params, u, (g_DI, 0.0, g_UI, g_US), mu, valid)

    # DEFEND_INFECTED: interval_rule rejects anything else
    den = check_denominator(beta * (alpha + lam + q_D) + q_D * (beta + lam + q_U),
                            "beta*(alpha+lam+q_rec_D) + q_rec_D*(beta+lam+q_rec_U)")
    den2 = check_denominator(lam * den, "lam*den")
    g_UI = (k_D + k_I) * (alpha + lam + q_D) / den
    g_DS = (k_D * (beta + lam + q_U) * (alpha + q_D)
            + k_I * (alpha * (lam + q_U) - beta * (lam + q_D))) / den2
    g_DI = (k_D * (beta + lam + q_U) * (alpha + lam + q_D)
            + k_I * ((alpha + lam) * (lam + q_U) - beta * q_D)) / den2
    mu = beta * g_UI
    return _finish(params, u, (g_DI, g_DS, g_UI, 0.0), mu, valid)


def bellman_residual(params: ModelParams, x: StateDist, sol: HjbSolution) -> float:
    """Max absolute residual of the four optimality lines at (g, mu)."""
    alpha, beta = alpha_beta(params, x)
    lam = params.lam
    g_DI, g_DS, g_UI, g_US = sol.g_DI, sol.g_DS, sol.g_UI, sol.g_US
    lines = (
        lam * min(g_UI - g_DI, 0.0) + params.q_rec_D * (g_DS - g_DI)
        + params.k_I + params.k_D - sol.mu,
        lam * min(g_US - g_DS, 0.0) + alpha * (g_DI - g_DS) + params.k_D - sol.mu,
        lam * min(g_DI - g_UI, 0.0) + params.q_rec_U * (g_US - g_UI)
        + params.k_I - sol.mu,
        lam * min(g_DS - g_US, 0.0) + beta * (g_UI - g_US) - sol.mu,
    )
    return max(abs(v) for v in lines)


def control_attains_min(sol: HjbSolution, tol: float) -> bool:
    """Whether the stored control picks the minimizing branch on every line,
    up to tol (DEGENERATE_SLACK*k_I on the scale of the costs)."""
    m_DI, m_DS, m_UI, m_US = _margins(sol.control, sol.g_DI, sol.g_DS, sol.g_UI, sol.g_US)
    return not (m_DI < -tol or m_DS < -tol or m_UI < -tol or m_US < -tol)


def interval_rule(params: ModelParams, case: StrategyCase) -> IntervalRule:
    """case's kappa interval as a function of the infected fractions.

    The only place the validity rule lives: returns a function of
    (x_DI, x_UI) giving the interval (lo, hi), ends included, on which
    case holds.  The rates and lam + q_rec are read once, here; each call
    computes alpha, beta and the module docstring's A, B, P, Q, then the
    ends.  Exact at every rate: an inequality kappa*d >= n or
    kappa*d <= n with d = 0 holds for every kappa or for none, and then
    bounds kappa by an infinity.  The case is valid for no finite kappa
    when lo > hi or an end is infinite on the wrong side.
    """
    if not isinstance(case, StrategyCase):
        raise ValueError(f"unknown case {case!r}")
    dir_D = params.q_inf_D * params.v_H
    dir_U = params.q_inf_U * params.v_H
    b_DD, b_UD, b_DU, b_UU = params.beta_DD, params.beta_UD, params.beta_DU, params.beta_UU
    lam, q_D, q_U = params.lam, params.q_rec_D, params.q_rec_U
    lam_D, lam_U = lam + q_D, lam + q_U
    inf = math.inf
    case_i, case_ii = case is StrategyCase.PREFER_UNPROTECTED, case is StrategyCase.PREFER_DEFENDED
    # case iv is case iii with A and B swapped
    swap = case is StrategyCase.DEFEND_INFECTED

    # the least kappa with kappa*d >= n is n/d for d > 0, else -inf or inf;
    # the greatest with kappa*d <= n is n/d for d > 0, else inf or -inf;
    # max(a, b) is b if b > a else a and min(a, b) is b if b < a else a
    def rule(x_DI, x_UI):
        alpha = dir_D + x_DI * b_DD + x_UI * b_UD
        beta = dir_U + x_DI * b_DU + x_UI * b_UU
        A = (beta + lam) * q_D - (alpha + lam) * q_U
        B = beta * lam_D - alpha * lam_U
        s, r = alpha + q_D, beta + q_U
        P = s * (r + lam)
        Q = (s + lam) * r
        if case_i:  # [max(A/Q, B/Q), inf)
            if Q > 0.0:
                lo_A, lo_B = A / Q, B / Q
            else:
                lo_A = -inf if A <= 0.0 else inf
                lo_B = -inf if B <= 0.0 else inf
            return (lo_B if lo_B > lo_A else lo_A), inf
        if case_ii:  # (-inf, min(A/P, B/P)]
            if P > 0.0:
                hi_A, hi_B = A / P, B / P
            else:
                hi_A = inf if A >= 0.0 else -inf
                hi_B = inf if B >= 0.0 else -inf
            return -inf, (hi_B if hi_B < hi_A else hi_A)
        if swap:
            A, B = B, A
        # case iii [A/P, B/Q], case iv [B/P, A/Q]
        return (A / P if P > 0.0 else (-inf if A <= 0.0 else inf),
                B / Q if Q > 0.0 else (inf if B >= 0.0 else -inf))

    return rule


def case_interval(params: ModelParams, x: StateDist,
                  case: StrategyCase) -> tuple[float, float]:
    """The kappa interval (lo, hi), ends included, on which case is valid at x
    (``interval_rule`` at x's infected fractions)."""
    return interval_rule(params, case)(x.x_DI, x.x_UI)


def enumerate_hjb(params: ModelParams, x: StateDist) -> list[HjbSolution]:
    """The solutions of the cases whose ``case_interval`` holds kappa at x,
    sorted by (mu, case label).

    Adjacent cases both hold at a shared interval end, with coinciding
    solutions; where beta + q_rec_U = alpha + q_rec_D all four can (see
    the module docstring).  More than two distinct solutions raises
    TooManySolutions.
    """
    kappa = params.kappa
    solutions = []
    for case in StrategyCase:
        lo, hi = case_interval(params, x, case)
        if lo <= kappa <= hi:
            try:
                solutions.append(solve_case(params, x, case, (lo, hi)))
            except DegenerateDenominator:
                continue
    solutions.sort(key=lambda s: (s.mu, s.case.label))
    if (n_distinct := len(_distinct(solutions, DEGENERATE_SLACK * params.k_I))) > 2:
        raise TooManySolutions(f"{n_distinct} distinct valid solutions at {x}")
    return solutions


def _distinct(solutions: list[HjbSolution], tol: float) -> list[HjbSolution]:
    """Solutions in order, dropping any equal within tol (mu and g) to an earlier one."""
    distinct: list[HjbSolution] = []
    for sol in solutions:
        if not any(
            abs(sol.mu - other.mu) <= tol
            and abs(sol.g_DI - other.g_DI) <= tol and abs(sol.g_DS - other.g_DS) <= tol
            and abs(sol.g_UI - other.g_UI) <= tol and abs(sol.g_US - other.g_US) <= tol
            for other in distinct
        ):
            distinct.append(sol)
    return distinct


ALL_CONTROLS = [ControlVector(*bits) for bits in itertools.product((0, 1), repeat=4)]
_CONTROL_BITS = np.array([u.as_tuple() for u in ALL_CONTROLS], dtype=float)
# line i of the optimality system toggles state i to its partner state
_PARTNER = (2, 3, 0, 1)
# the rate-free entries: -mu on every line and the normalization g_US = 0
_ORACLE_TEMPLATE = np.zeros((16, 5, 5))
_ORACLE_TEMPLATE[:, :4, 4] = -1.0
_ORACLE_TEMPLATE[:, 4, 3] = 1.0


def _oracle_systems(params: ModelParams, alpha: float,
                    beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The 16 fixed-control systems in the unknowns (g_DI, g_DS, g_UI, g_US,
    mu), matrices and right-hand sides, in ALL_CONTROLS order.

    Each rate entry is computed as lam*u or -lam*u - rate, so its float,
    the sign of a zero included, is that of the scalar formula.
    """
    lam = params.lam
    mats = _ORACLE_TEMPLATE.copy()
    up, down = lam * _CONTROL_BITS, -lam * _CONTROL_BITS
    rates = ((params.q_rec_D, 1), (alpha, 0), (params.q_rec_U, 3), (beta, 2))
    for row, (rate, other) in enumerate(rates):
        mats[:, row, row] = down[:, row] - rate
        mats[:, row, _PARTNER[row]] = up[:, row]
        mats[:, row, other] = rate
    rhs = np.zeros((16, 5))
    rhs[:, :3] = (-(params.k_I + params.k_D), -params.k_D, -params.k_I)
    return mats, rhs


def oracle_enumerate(params: ModelParams, x: StateDist) -> list[HjbSolution]:
    """Brute-force check: solve the fixed-control linear system for all 16
    binary controls and keep those whose control attains every minimum.

    Independent of the closed forms; must agree with enumerate_hjb.
    Solutions equal up to an additive shift of g are deduplicated.
    """
    mats, rhs = _oracle_systems(params, *alpha_beta(params, x))

    # controls that disconnect the chain (e.g. u = 0 everywhere) make the
    # one-average-cost system rank-deficient; those are solved in the
    # least-squares sense and kept only when actually consistent
    dets = np.abs(np.linalg.det(mats))
    hadamard = np.prod(np.linalg.norm(mats, axis=2), axis=1)
    regular = dets > 1e-9 * hadamard
    sols = np.full((16, 5), np.nan)
    if regular.any():
        try:
            sols[regular] = np.linalg.solve(mats[regular], rhs[regular][..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
        if not np.all(np.isfinite(sols[regular])):
            raise SingularSystem("non-finite solution of the fixed-control system")
    for i in np.where(~regular)[0]:
        z = np.linalg.lstsq(mats[i], rhs[i], rcond=None)[0]
        if np.max(np.abs(mats[i] @ z - rhs[i])) <= 1e-8 * np.max(np.abs(rhs[i])):
            sols[i] = z

    tol = DEGENERATE_SLACK * params.k_I
    finite = np.isfinite(sols).all(axis=1)
    kept: list[HjbSolution] = []
    for i, u in enumerate(ALL_CONTROLS):
        if not finite[i]:
            continue
        g_DI, g_DS, g_UI, g_US, mu = sols[i].tolist()
        m_DI, m_DS, m_UI, m_US = _margins(u, g_DI, g_DS, g_UI, g_US)
        if m_DI < -tol or m_DS < -tol or m_UI < -tol or m_US < -tol:
            continue
        kept.append(_finish(params, u, (g_DI, g_DS, g_UI, g_US), mu, True))

    return _distinct(sorted(kept, key=lambda s: (s.mu, s.case.label if s.case else "z")), tol)
