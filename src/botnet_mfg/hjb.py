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
flag too, and ``case_pricer`` prices it.  ``interval_table`` is the only
place the rule lives: one evaluation at (x_DI, x_UI) gives all four
intervals.  ``enumerate_hjb`` evaluates it once per call,
``case_interval`` reads one case from it at a StateDist, and the myopic
simulator checks its incumbent with it at the head-counts, adding only
the fsum normalization a StateDist makes.  An inequality whose P or Q
vanishes holds for every kappa or for none; with P, Q > 0 the intervals are

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

The 16-control oracle (``oracle_enumerate``) checks the closed forms
without them.  With g_US = 0 the US line gives mu = lam*u_US*g_DS +
beta*g_UI; the other three lines minus it are a 3x3 system in (g_DI,
g_DS, g_UI), solved by scalar Gaussian elimination.  The system is
regular iff the control's 4-state chain has one closed class (unichain;
Puterman 1994, ch. 8-9).  Reachability decides this exactly from which
rates are zero, and a multichain control, which has no unique (g, mu),
is skipped: u = 0000 always, more where q_rec, alpha or beta is 0.  The
oracle's only tolerance is DEGENERATE_SLACK*k_I on the line margins.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

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
# infected fractions (x_DI, x_UI) -> every case's kappa interval, its ends
# (lo, hi) flat in StrategyCase order
IntervalTable = Callable[[float, float], tuple[float, ...]]
# a case's lo in an IntervalTable's ends; its hi follows
END_INDEX = {case: 2 * k for k, case in enumerate(StrategyCase)}
# (k_D, valid) -> one case's closed-form solution at a frozen state
Pricer = Callable[[float, bool], "HjbSolution"]


class SingularSystem(ArithmeticError):
    """A unichain fixed-control system met an exactly zero pivot in the
    oracle's elimination (multichain controls are skipped, not raised)."""


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

    @property
    def g(self) -> tuple[float, float, float, float]:
        return (self.g_DI, self.g_DS, self.g_UI, self.g_US)

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


def solve_case(params: ModelParams, x: StateDist, case: StrategyCase) -> HjbSolution:
    """Closed-form (g, mu) for one strategy case at a frozen state x.

    The returned solution always satisfies the fixed-control linear system;
    ``valid`` reports whether the case's interval holds kappa, that is
    whether its control attains the minimum in every line, with the signed
    margins in ``slack1``/``slack2``.  A caller that knows the case holds
    prices it with ``case_pricer`` instead.
    """
    lo, hi = case_interval(params, x, case)
    return case_pricer(params, x, case)(params.k_D, lo <= params.kappa <= hi)


def case_pricer(params: ModelParams, x: StateDist, case: StrategyCase) -> Pricer:
    """case's closed-form solution at x as a function of (k_D, valid).

    The only place the closed forms live: alpha, beta, every denominator
    (DegenerateDenominator) and every term free of k_D are computed once,
    here; a call evaluates only the k_D terms.  params.k_D is not read.
    """
    alpha, beta = alpha_beta(params, x)
    u = case.control
    lam, q_D, q_U = params.lam, params.q_rec_D, params.q_rec_U
    k_I = params.k_I
    s_lam, r_lam = alpha + lam + q_D, beta + lam + q_U

    if case is StrategyCase.PREFER_UNPROTECTED:
        den = check_denominator(beta + q_U, "beta + q_rec_U")
        g_UI = k_I / den
        mu = beta * g_UI
        den2 = check_denominator(lam * den * s_lam, "lam*den*(alpha+lam+q_rec_D)")
        c_DS = k_I * alpha * r_lam / den2
        c_DI = k_I * (alpha + lam) * r_lam / den2
        return lambda k_D, valid: _finish(
            params, u, ((k_D - mu) / lam + c_DI, (k_D - mu) / lam + c_DS, g_UI, 0.0), mu, valid)

    if case is StrategyCase.PREFER_DEFENDED:
        den = check_denominator(alpha + q_D, "alpha + q_rec_D")
        g_DI = k_I / den
        c_mu = alpha * g_DI
        den2 = check_denominator(lam * den * r_lam, "lam*den*(beta+lam+q_rec_U)")
        c_US = k_I * (beta * (lam + q_D) - alpha * (lam + q_U)) / den2
        c_UI = k_I * ((beta + lam) * (lam + q_D) - alpha * q_U) / den2
        return lambda k_D, valid: _finish(
            params, u, (g_DI, 0.0, -k_D / lam + c_UI, -k_D / lam + c_US), k_D + c_mu, valid)

    if case is StrategyCase.DEFEND_SUSCEPTIBLE:
        den = check_denominator(alpha * r_lam + q_U * s_lam,
                                "alpha*(beta+lam+q_rec_U) + q_rec_U*(alpha+lam+q_rec_D)")
        den2 = check_denominator(lam * den, "lam*den")
        c_US = k_I * (beta * (lam + q_D) - alpha * (lam + q_U))
        c_UI = k_I * ((lam + q_D) * (lam + beta) - alpha * q_U)
        c_mu, r = k_I * alpha * r_lam, beta + q_U
        return lambda k_D, valid: _finish(params, u, (
            r_lam * (k_I - k_D) / den, 0.0, (c_UI - k_D * r_lam * s_lam) / den2,
            (c_US - k_D * r * s_lam) / den2), (c_mu + k_D * q_U * s_lam) / den, valid)

    # DEFEND_INFECTED
    den = check_denominator(beta * s_lam + q_D * r_lam,
                            "beta*(alpha+lam+q_rec_D) + q_rec_D*(beta+lam+q_rec_U)")
    den2 = check_denominator(lam * den, "lam*den")
    c_DS = k_I * (alpha * (lam + q_U) - beta * (lam + q_D))
    c_DI, s = k_I * ((alpha + lam) * (lam + q_U) - beta * q_D), alpha + q_D

    def price(k_D: float, valid: bool) -> HjbSolution:
        g_UI = (k_D + k_I) * s_lam / den
        return _finish(params, u, ((k_D * r_lam * s_lam + c_DI) / den2,
                                   (k_D * r_lam * s + c_DS) / den2, g_UI, 0.0), beta * g_UI, valid)
    return price


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


def interval_table(params: ModelParams) -> IntervalTable:
    """Every case's kappa interval as a function of the infected fractions.

    The only place the validity rule lives: returns a function of
    (x_DI, x_UI) giving the ends (lo, hi), ends included, of every case's
    interval, flat in StrategyCase order (END_INDEX[case] is the index of
    its lo).  The rates and lam + q_rec are read once, here; each call
    computes alpha, beta and the module docstring's A, B, P, Q once, then
    every end.  Exact at every rate: an inequality kappa*d >= n or
    kappa*d <= n with d = 0 holds for every kappa or for none, and then
    bounds kappa by an infinity.  A case is valid for no finite kappa when
    lo > hi or an end is infinite on the wrong side.
    """
    dir_D = params.q_inf_D * params.v_H
    dir_U = params.q_inf_U * params.v_H
    b_DD, b_UD, b_DU, b_UU = params.beta_DD, params.beta_UD, params.beta_DU, params.beta_UU
    lam, q_D, q_U = params.lam, params.q_rec_D, params.q_rec_U
    lam_D, lam_U = lam + q_D, lam + q_U
    inf = math.inf

    # lo_n_d is the least kappa with kappa*d >= n and hi_n_d the greatest
    # with kappa*d <= n: both n/d for d > 0; for d = 0, lo is -inf or inf
    # and hi is inf or -inf; max(a, b) is b if b > a else a and min(a, b)
    # is b if b < a else a
    def table(x_DI, x_UI):
        alpha = dir_D + x_DI * b_DD + x_UI * b_UD
        beta = dir_U + x_DI * b_DU + x_UI * b_UU
        A = (beta + lam) * q_D - (alpha + lam) * q_U
        B = beta * lam_D - alpha * lam_U
        s, r = alpha + q_D, beta + q_U
        P = s * (r + lam)
        Q = (s + lam) * r
        if P > 0.0:
            lo_A_P = hi_A_P = A / P
            lo_B_P = hi_B_P = B / P
        else:
            lo_A_P, hi_A_P = (-inf if A <= 0.0 else inf), (inf if A >= 0.0 else -inf)
            lo_B_P, hi_B_P = (-inf if B <= 0.0 else inf), (inf if B >= 0.0 else -inf)
        if Q > 0.0:
            lo_A_Q = hi_A_Q = A / Q
            lo_B_Q = hi_B_Q = B / Q
        else:
            lo_A_Q, hi_A_Q = (-inf if A <= 0.0 else inf), (inf if A >= 0.0 else -inf)
            lo_B_Q, hi_B_Q = (-inf if B <= 0.0 else inf), (inf if B >= 0.0 else -inf)
        # i [max(A/Q, B/Q), inf), ii (-inf, min(A/P, B/P)], iii [A/P, B/Q], iv [B/P, A/Q]
        return (lo_B_Q if lo_B_Q > lo_A_Q else lo_A_Q, inf,
                -inf, hi_B_P if hi_B_P < hi_A_P else hi_A_P,
                lo_A_P, hi_B_Q,
                lo_B_P, hi_A_Q)

    return table


def case_interval(params: ModelParams, x: StateDist,
                  case: StrategyCase) -> tuple[float, float]:
    """The kappa interval (lo, hi), ends included, on which case is valid at x
    (case's ends of ``interval_table`` at x's infected fractions)."""
    ends = interval_table(params)(x.x_DI, x.x_UI)
    k = END_INDEX[case]
    return ends[k], ends[k + 1]


def enumerate_hjb(params: ModelParams, x: StateDist) -> list[HjbSolution]:
    """The solutions of the cases whose ``case_interval`` holds kappa at x,
    sorted by (mu, case label).

    Adjacent cases both hold at a shared interval end, with coinciding
    solutions; where beta + q_rec_U = alpha + q_rec_D all four can (see
    the module docstring).  More than two distinct solutions raises
    TooManySolutions.
    """
    kappa, k_D = params.kappa, params.k_D
    ends = interval_table(params)(x.x_DI, x.x_UI)
    solutions = []
    for case, lo, hi in zip(StrategyCase, ends[::2], ends[1::2]):
        if lo <= kappa <= hi:
            try:
                solutions.append(case_pricer(params, x, case)(k_D, True))
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
        if not any(all(abs(a - b) <= tol for a, b in zip((sol.mu, *sol.g), (other.mu, *other.g)))
                   for other in distinct):
            distinct.append(sol)
    return distinct


ALL_CONTROLS = [ControlVector(*bits) for bits in itertools.product((0, 1), repeat=4)]
# state i of (DI, DS, UI, US) toggles to _PARTNER[i] and recovers or is infected to _NATURAL[i]
_PARTNER = (2, 3, 0, 1)
_NATURAL = (1, 0, 3, 2)


@functools.cache
def _unichain(positive: tuple[bool, bool, bool, bool]) -> tuple[ControlVector, ...]:
    """The controls, in ALL_CONTROLS order, whose 4-state chain is unichain,
    given which of (q_rec_D, alpha, q_rec_U, beta) are positive.  lam > 0,
    so a state also moves to its partner wherever u toggles it.  A finite
    chain has one closed class iff some state is reachable from every state.
    """
    kept = []
    for u in ALL_CONTROLS:
        reach = [{i} | ({_PARTNER[i]} if bit else set()) | ({_NATURAL[i]} if on else set())
                 for i, (bit, on) in enumerate(zip(u.as_tuple(), positive))]
        for _ in range(2):  # paths of 1 step, then 2, then 4
            reach = [set().union(*(reach[j] for j in r)) for r in reach]
        if set.intersection(*reach):
            kept.append(u)
    return tuple(kept)


def _eliminate(r0: tuple, r1: tuple, r2: tuple) -> tuple[float, float, float]:
    """(x0, x1, x2) solving the three rows (a0, a1, a2, b) of
    a0*x0 + a1*x1 + a2*x2 = b, by Gaussian elimination with partial
    pivoting.  Raises SingularSystem on an exactly zero pivot."""
    if abs(r1[0]) > abs(r0[0]):
        r0, r1 = r1, r0
    if abs(r2[0]) > abs(r0[0]):
        r0, r2 = r2, r0
    a00, a01, a02, b0 = r0
    try:  # every pivot is a divisor
        f1, f2 = r1[0] / a00, r2[0] / a00
        a11, a12, b1 = r1[1] - f1 * a01, r1[2] - f1 * a02, r1[3] - f1 * b0
        a21, a22, b2 = r2[1] - f2 * a01, r2[2] - f2 * a02, r2[3] - f2 * b0
        if abs(a21) > abs(a11):
            a11, a12, b1, a21, a22, b2 = a21, a22, b2, a11, a12, b1
        f = a21 / a11
        x2 = (b2 - f * b1) / (a22 - f * a12)
    except ZeroDivisionError as exc:
        raise SingularSystem("zero pivot") from exc
    x1 = (b1 - a12 * x2) / a11
    return (b0 - a01 * x1 - a02 * x2) / a00, x1, x2


def oracle_enumerate(params: ModelParams, x: StateDist) -> list[HjbSolution]:
    """Brute-force check: solve the fixed-control system of every unichain
    binary control (module docstring) and keep those whose control attains
    every minimum, sorted by mu, dropping any equal within
    DEGENERATE_SLACK*k_I to an earlier one.  Independent of the closed forms
    and of ``interval_table``; must agree with enumerate_hjb.
    """
    alpha, beta = alpha_beta(params, x)
    lam, q_D, q_U = params.lam, params.q_rec_D, params.q_rec_U
    k_D, k_I = params.k_D, params.k_I
    tol = DEGENERATE_SLACK * k_I
    kept: list[HjbSolution] = []
    for u in _unichain((q_D > 0.0, alpha > 0.0, q_U > 0.0, beta > 0.0)):
        t_DI, t_DS, t_UI, t_US = lam * u.u_DI, lam * u.u_DS, lam * u.u_UI, lam * u.u_US
        g_DI, g_DS, g_UI = _eliminate((-(t_DI + q_D), q_D - t_US, t_DI - beta, -(k_I + k_D)),
                                      (alpha, -(t_DS + alpha) - t_US, -beta, -k_D),
                                      (t_UI, -t_US, -(t_UI + q_U) - beta, -k_I))
        m_DI, m_DS, m_UI, m_US = _margins(u, g_DI, g_DS, g_UI, 0.0)
        if not (m_DI < -tol or m_DS < -tol or m_UI < -tol or m_US < -tol):
            kept.append(_finish(params, u, (g_DI, g_DS, g_UI, 0.0),
                                t_US * g_DS + beta * g_UI, True))

    return _distinct(sorted(kept, key=lambda s: (s.mu, s.case.label if s.case else "z")), tol)
