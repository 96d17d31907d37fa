"""Stationary points of the kinetic dynamics per strategy case, with
linear stability from the reduced three-dimensional Jacobian.

Acyclic cases collapse to a scalar endemic-equilibrium quadratic

    Q(y) = b*y**2 + y*(q - b + p) - p,     p = direct rate, q = recovery,
                                           b = within-group contact rate,

whose unique root in (0, 1) gives the infected fraction.  The mixed cases
reduce to a quartic in x_DI whose roots on [0, 1] are isolated in floats
(for large lam they collapse back to a quadratic of the same shape): the
critical points, found recursively, cut [0, 1] into monotone pieces, each
bisected and Newton-polished; a knot whose value is zero to within
ROOT_ZERO_TOL is a root, Newton-polished between its neighbouring knots
unless its value is 0.0.  The count can be wrong there, as for two roots
about 1e-7 apart.  Case iv is the mirror image of case iii under the
relabeling that swaps the defended and unprotected sides: it reuses the
case-iii states of the relabeled problem, swapped back.  A spectrum is
computed only for a point that is returned: in closed form at an acyclic
point, and at a mixed point as the roots of the reduced Jacobian's
characteristic cubic.  Everything is computed in Python floats, so the
output does not depend on a linear-algebra library or on the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .model import (
    CASE_CONTROLS,
    STATE_FIELDS,
    ControlVector,
    DegenerateDenominator,
    ModelParams,
    StateDist,
    StrategyCase,
    check_denominator,
    kinetic_jacobian,
    kinetic_rhs,
)

BISECT_TOL = 1e-13
ROOT_ZERO_TOL = 1e-15    # |p(y)| <= this * sum|c_i| counts as a root at y
RESIDUAL_REL_TOL = 1e-13  # sup-norm bound on kinetic_rhs at a point, in units of max_rate()
STABLE_EIG_TOL = -1e-12  # stable <=> all eigenvalue real parts below this
NEWTON_STEPS = 100       # bound on the cubic's Newton iteration, which stops on its own


EIGENVALUE_FIELDS = tuple(f"eig{i}_{part}" for i in (1, 2, 3) for part in ("re", "im"))
CSV_FIELDS = ("case", *STATE_FIELDS, *EIGENVALUE_FIELDS, "stable", "method")


@dataclass(frozen=True)
class FixedPoint:
    """A stationary population state under one strategy case."""

    x: StateDist
    case: StrategyCase
    eigenvalues: tuple[complex, complex, complex]
    stable: bool
    method: str                # closed_form (cases i, ii) | quartic_numeric (iii, iv)

    def to_record(self) -> dict:
        eigs = (v for z in self.eigenvalues for v in (z.real, z.imag))
        return dict(zip(CSV_FIELDS, (self.case.label, *self.x.as_tuple(),
                                     *eigs, self.stable, self.method)))


def endemic_root(contact: float, recovery: float, direct: float) -> float:
    """Root in [0, 1] of contact*y^2 + y*(recovery - contact + direct) - direct.

    With direct pressure the root is interior; without it the infection is
    endemic only above the contact threshold, otherwise the disease-free
    root 0 is returned.  A vanishing contact rate degenerates to the linear
    balance point.  Where recovery - contact + direct > 0 the root is taken
    in the conjugate form, which does not cancel at large recovery rates.
    Raises OverflowError when the discriminant is not finite.
    """
    b, q, p = contact, recovery, direct
    if b <= 0.0:
        # linear limit of the quadratic root
        return p / (q + p) if p > 0.0 else 0.0
    if p <= 0.0:
        return (b - q) / b if b > q else 0.0
    disc = (b + p) ** 2 + q * q - 2.0 * q * (b - p)
    if not math.isfinite(disc):
        raise OverflowError(f"non-finite discriminant of the endemic quadratic: {disc}")
    if b - q - p < 0.0:
        return 2.0 * p / ((q - b + p) + math.sqrt(disc))
    return (b - q - p + math.sqrt(disc)) / (2.0 * b)


def endemic_state(params: ModelParams, case: StrategyCase) -> StateDist:
    """The closed-form endemic state of a case: exact for the acyclic cases
    i and ii, the large-lam limit for the mixed cases iii and iv.

    One state pair empties and the survivor solves an endemic quadratic
    (case iii infects the unprotected against the defended-side direct
    pressure, case iv mirrors it); lam does not enter.
    """
    if case is StrategyCase.PREFER_UNPROTECTED:
        root = endemic_root(params.beta_UU, params.q_rec_U, params.q_inf_U * params.v_H)
        return StateDist(0.0, 0.0, root, 1.0 - root)
    if case is StrategyCase.PREFER_DEFENDED:
        root = endemic_root(params.beta_DD, params.q_rec_D, params.q_inf_D * params.v_H)
        return StateDist(root, 1.0 - root, 0.0, 0.0)
    if case is StrategyCase.DEFEND_SUSCEPTIBLE:
        root = endemic_root(params.beta_UD, params.q_rec_U, params.q_inf_D * params.v_H)
        return StateDist(0.0, 1.0 - root, root, 0.0)
    if case is StrategyCase.DEFEND_INFECTED:
        root = endemic_root(params.beta_DU, params.q_rec_D, params.q_inf_U * params.v_H)
        return StateDist(root, 0.0, 0.0, 1.0 - root)
    raise ValueError(f"{case!r} is not a strategy case")


def fixed_point_acyclic(params: ModelParams, case: StrategyCase) -> FixedPoint:
    """Stationary point for the all-unprotected (i) or all-defended (ii) strategy."""
    if case not in (StrategyCase.PREFER_UNPROTECTED, StrategyCase.PREFER_DEFENDED):
        raise ValueError(f"{case} is not an acyclic case")
    return _point(params, endemic_state(params, case), case, "closed_form")


def _swap_du(params: ModelParams) -> ModelParams:
    """Relabel the defended and unprotected sides of the model."""
    return replace(
        params,
        q_rec_D=params.q_rec_U, q_rec_U=params.q_rec_D,
        q_inf_D=params.q_inf_U, q_inf_U=params.q_inf_D,
        beta_DD=params.beta_UU, beta_UU=params.beta_DD,
        beta_DU=params.beta_UD, beta_UD=params.beta_DU,
    )


def mixed_quartic_coeffs(params: ModelParams) -> tuple[float, float, float, float, float]:
    """Ascending coefficients of the case-iii stationarity polynomial in x_DI.

    Eliminating x_UI = x_DI*N(x_DI)/D(x_DI), with N(y) = (q_inf_U*v_H +
    lam)*y + beta_DU*y**2 and D(y) = q_rec_U - beta_UU*y, from the
    two-equation reduced system and clearing D**2 yields the degree <= 4
    polynomial t1*t2 - (q_rec_D + lam)*y*D**2, written out term by term.
    """
    q, b = params.q_rec_U, params.beta_UU
    n1, n2 = params.q_inf_U * params.v_H + params.lam, params.beta_DU
    # susceptible-defended mass times D: t1 = D*(1 - 2y) - N
    t10, t11, t12 = q, -2.0 * q - b - n1, 2.0 * b - n2
    # infection intensity on DS times D: t2 = (q_inf_D*v_H + beta_DD*y)*D + beta_UD*N
    a0, a1, c = params.q_inf_D * params.v_H, params.beta_DD, params.beta_UD
    t20, t21, t22 = a0 * q, a1 * q - a0 * b + c * n1, c * n2 - a1 * b
    loss = params.q_rec_D + params.lam
    return (
        t10 * t20,
        t10 * t21 + t11 * t20 - loss * (q * q),
        t10 * t22 + t11 * t21 + t12 * t20 + loss * (2.0 * q * b),
        t11 * t22 + t12 * t21 - loss * (b * b),
        t12 * t22,
    )


def reconstruct_mixed_state(params: ModelParams, x_DI: float) -> StateDist:
    """Full case-iii state from the x_DI abscissa.

    x_US = x_DI and x_UI follows from the switching balance.  At the pole
    q_rec_U = beta_UU*x_DI this raises DegenerateDenominator; within
    rounding of it, x_UI lands far outside [0, 1]: InvalidSimplex.
    """
    den = check_denominator(params.q_rec_U - params.beta_UU * x_DI, "q_rec_U - beta_UU*x_DI")
    x_UI = x_DI * (params.q_inf_U * params.v_H + params.beta_DU * x_DI + params.lam) / den
    x_DS = 1.0 - x_UI - 2.0 * x_DI
    return StateDist(x_DI, x_DS, x_UI, x_DI)


def bracket_roots(coeffs: Sequence[float]) -> list[float]:
    """All roots on [0, 1], ascending, of the polynomial with the given
    ascending float coefficients.

    The real roots of the derivative in (0, 1), found by the same
    isolation one degree down, split [0, 1] into monotone pieces.  A piece
    whose end values change sign holds exactly one root, found by
    bisection with Newton polishing; a piece end whose value is zero to
    rounding is itself a root, so double roots at critical points are
    kept, polished by the same Newton steps within its neighbouring knots
    unless its value is 0.0.  A constant polynomial has no roots.
    """
    return _unit_roots(tuple(float(c) for c in coeffs))


def _unit_roots(cs: tuple[float, ...]) -> list[float]:
    while cs and cs[-1] == 0.0:
        cs = cs[:-1]
    if len(cs) <= 1:
        return []
    dcs = tuple((i + 1) * cs[i + 1] for i in range(len(cs) - 1))
    knots = [0.0] + [r for r in _unit_roots(dcs) if 0.0 < r < 1.0] + [1.0]
    vals = [_horner(cs, y) for y in knots]
    zero = ROOT_ZERO_TOL * sum(abs(c) for c in cs)
    roots: list[float] = []
    for i, (y, f) in enumerate(zip(knots, vals)):
        if abs(f) <= zero:
            roots.append(y if f == 0.0 else _newton(
                cs, dcs, y, knots[max(i - 1, 0)], knots[min(i + 1, len(knots) - 1)]))
        elif i + 1 < len(knots) and abs(vals[i + 1]) > zero and f * vals[i + 1] < 0.0:
            roots.append(_bisect(cs, dcs, y, knots[i + 1], f))
    return roots


def _horner(coeffs: tuple[float, ...], y: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _bisect(cs: tuple[float, ...], dcs: tuple[float, ...],
            lo: float, hi: float, f_lo: float) -> float:
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = _horner(cs, mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return _newton(cs, dcs, 0.5 * (lo + hi), lo - BISECT_TOL, hi + BISECT_TOL)


def _newton(cs: tuple[float, ...], dcs: tuple[float, ...],
            root: float, lo: float, hi: float) -> float:
    """A few Newton polishing steps from root, stopping at a zero slope or
    before a step that leaves [lo, hi]; the switching-rate scale makes the
    residual budget tight for large lam."""
    for _ in range(3):
        df = _horner(dcs, root)
        if df == 0.0:
            break
        candidate = root - _horner(cs, root) / df
        if not lo <= candidate <= hi:
            break
        root = candidate
    return root


def fixed_point_mixed(params: ModelParams, case: StrategyCase) -> list[FixedPoint]:
    """All stationary points of a mixed case at finite lam.

    Case iii isolates the roots of the quartic on [0, 1] (bracket_roots;
    the module docstring states its limit); case iv takes the case-iii
    states of the relabeled problem and swaps their coordinates back.
    Roots that cannot be reconstructed into a simplex point (those at the
    back-substitution pole included) are discarded, as are reconstructions
    whose kinetic residual exceeds RESIDUAL_REL_TOL * max_rate(), a bound
    in the rates' own unit; the spectrum is computed only for the states
    kept.
    """
    if case is StrategyCase.DEFEND_SUSCEPTIBLE:
        return [_point(params, x, case, "quartic_numeric") for x in _case_iii_states(params)]
    if case is StrategyCase.DEFEND_INFECTED:
        return [_point(params, StateDist(x.x_UI, x.x_US, x.x_DI, x.x_DS), case, "quartic_numeric")
                for x in _case_iii_states(_swap_du(params))]
    raise ValueError(f"{case} is not a mixed case")


def _case_iii_states(params: ModelParams) -> list[StateDist]:
    """The reconstructed case-iii states whose kinetic residual passes."""
    control = CASE_CONTROLS[StrategyCase.DEFEND_SUSCEPTIBLE]
    states: list[StateDist] = []
    for root in bracket_roots(mixed_quartic_coeffs(params)):
        try:
            x = reconstruct_mixed_state(params, root)
        except (DegenerateDenominator, ValueError):
            continue
        if _residual(params, x, control) <= RESIDUAL_REL_TOL * params.max_rate():
            states.append(x)
    return states


# coordinate eliminated by the simplex constraint when reducing to 3 variables
_ELIMINATED = {
    StrategyCase.PREFER_UNPROTECTED: 3,   # x_US carries the mass
    StrategyCase.PREFER_DEFENDED: 1,      # x_DS
    StrategyCase.DEFEND_SUSCEPTIBLE: 1,   # x_DS
    StrategyCase.DEFEND_INFECTED: 3,      # x_US
}


def reduced_jacobian(params: ModelParams, x: StateDist, u: ControlVector,
                     eliminated: int) -> list[list[float]]:
    """3x3 Jacobian of the dynamics restricted to the simplex, as rows.

    Eliminating coordinate j via the constraint replaces column j by its
    negative spread over the others: J_red[i, k] = J[i, k] - J[i, j].  The
    spectrum on the simplex tangent space does not depend on the choice
    of j.
    """
    full = kinetic_jacobian(params, x, u)
    keep = [i for i in range(4) if i != eliminated]
    return [[full[i][k] - full[i][eliminated] for k in keep] for i in keep]


def _point(params: ModelParams, x: StateDist, case: StrategyCase, method: str) -> FixedPoint:
    """The fixed point at x with its eigenvalues and stability filled in."""
    eigs, stable = stability(params, x, case)
    return FixedPoint(x, case, eigs, stable, method)


def stability(params: ModelParams, x: StateDist,
              case: StrategyCase) -> tuple[tuple[complex, complex, complex], bool]:
    """Eigenvalues, sorted by (real, imag), and the stability flag at x.

    Acyclic cases use the exact closed-form spectrum (one eigenvalue is
    exactly -lam); mixed cases take the roots of the cubic characteristic
    polynomial of the reduced Jacobian.
    """
    if case is StrategyCase.PREFER_UNPROTECTED and x.x_DI == 0.0 and x.x_DS == 0.0:
        eigs = _acyclic_eigs(
            x.x_UI, params.beta_UU, params.q_rec_U, params.q_inf_U * params.v_H,
            params.q_rec_D, params.q_inf_D * params.v_H, params.beta_UD, params.lam)
    elif case is StrategyCase.PREFER_DEFENDED and x.x_UI == 0.0 and x.x_US == 0.0:
        eigs = _acyclic_eigs(
            x.x_DI, params.beta_DD, params.q_rec_D, params.q_inf_D * params.v_H,
            params.q_rec_U, params.q_inf_U * params.v_H, params.beta_DU, params.lam)
    else:
        eigs = _cubic_eigs(reduced_jacobian(params, x, case.control, _ELIMINATED[case]))
    eigs = tuple(sorted(eigs, key=lambda z: (z.real, z.imag)))
    return eigs, all(z.real < STABLE_EIG_TOL for z in eigs)


def _acyclic_eigs(root: float, contact: float, recovery: float, direct: float,
                  other_recovery: float, other_direct: float,
                  cross_contact: float, lam: float) -> tuple[complex, ...]:
    """Closed-form spectrum at an acyclic fixed point.

    The emptied pair contributes the exact factor (xi + lam) *
    (xi + lam + other_recovery + intensity on the emptied susceptibles);
    the surviving epidemic contributes the scalar slope of its balance.
    """
    slow = (1.0 - 2.0 * root) * contact - direct - recovery
    emptied_intensity = other_direct + root * cross_contact
    return (
        complex(slow),
        complex(-lam - (other_recovery + emptied_intensity)),
        complex(-lam),
    )


def _cubic_eigs(m: Sequence[Sequence[float]]) -> tuple[complex, ...]:
    """Roots of the characteristic cubic xi^3 - tr*xi^2 + minors*xi - det of
    m (OverflowError unless all three are finite), scaled by a power of two
    so they are O(1): Newton from Kahan's start onto a real root, then the
    deflated quadratic (W. Kahan, To Solve a Real Cubic Equation, 1986).
    det is taken by cofactors, and a zero det gives the root 0 exactly."""
    (a, b, c), (d, e, f), (g, h, i) = m
    tr = a + e + i
    minors = e * i - f * h + a * i - c * g + a * e - b * d
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not all(map(math.isfinite, (tr, minors, det))):
        raise OverflowError(f"characteristic polynomial out of float range: {(tr, minors, det)}")
    k = max((-(-math.frexp(v)[1] // n) for n, v in enumerate((tr, minors, det), 1) if v),
            default=0)
    b2, b1, b0 = -math.ldexp(tr, -k), math.ldexp(minors, -2 * k), -math.ldexp(det, -3 * k)
    x, c1, c0 = 0.0, b2, b1  # det == 0: the root 0, exactly
    if b0 != 0.0:
        x = -b2 / 3.0
        p, dp, c1, c0 = _cubic_eval(x, b2, b1, b0)
        r, s = abs(p) ** (1.0 / 3.0), math.copysign(1.0, p)
        if dp < 0.0:
            r = 1.324718 * max(r, math.sqrt(-dp))
        x_next = x - s * r
        for _ in range(NEWTON_STEPS):
            x = x_next
            p, dp, c1, c0 = _cubic_eval(x, b2, b1, b0)
            x_next = x if dp == 0.0 else x - (p / dp) / 1.000000000000001  # stops short
            if s * x_next <= s * x:
                break
        if abs(x) * x * x > abs(b0):  # a large root: deflate from the constant end
            c0 = -b0 / x
            c1 = (c0 - b1) / x
    # the deflated quadratic y^2 + c1*y + c0
    mid = -0.5 * c1
    disc = mid * mid - c0
    root = math.sqrt(abs(disc))
    if disc < 0.0:
        rest = (complex(mid, root), complex(mid, -root))
    else:
        big = mid + math.copysign(root, mid)
        rest = (complex(big), complex(c0 / big)) if big else (0j, 0j)
    return tuple(complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
                 for z in (complex(x), *rest))


def _cubic_eval(x: float, b2: float, b1: float, b0: float) -> tuple[float, float, float, float]:
    """x^3 + b2*x^2 + b1*x + b0 and its slope at x, and the quotient's y^1, y^0 coefficients."""
    c1 = x + b2
    c0 = c1 * x + b1
    return c0 * x + b0, (x + c1) * x + c0, c1, c0


def fixed_point_residual(params: ModelParams, fp: FixedPoint) -> float:
    """Sup-norm of the kinetic right-hand side at the point (NaN if any part is)."""
    return _residual(params, fp.x, fp.case.control)


def _residual(params: ModelParams, x: StateDist, control: ControlVector) -> float:
    comps = [abs(v) for v in kinetic_rhs(params, x, control)]
    return math.nan if any(v != v for v in comps) else max(comps)
