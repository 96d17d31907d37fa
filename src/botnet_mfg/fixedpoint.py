"""Stationary points of the kinetic dynamics per strategy case, with
linear stability from the reduced three-dimensional Jacobian.

Acyclic cases collapse to a scalar endemic-equilibrium quadratic

    Q(y) = b*y**2 + y*(q - b + p) - p,     p = direct rate, q = recovery,
                                           b = within-group contact rate,

whose unique root in (0, 1) gives the infected fraction.  The mixed cases
reduce to a quartic in x_DI whose roots on [0, 1] are isolated in floats:
the critical points, found recursively, cut [0, 1] into monotone pieces,
each bisected and Newton-polished; for large lam they collapse back to a
quadratic of the same shape.  The count can be wrong where a knot value is
zero to within ROOT_ZERO_TOL, as for two roots about 1e-7 apart.  Case iv
is the mirror image of case iii under the relabeling that swaps the
defended and unprotected sides: it reuses the case-iii states of the
relabeled problem, swapped back.  A spectrum is computed only for a
point that is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    CASE_CONTROLS,
    STATE_FIELDS,
    ControlVector,
    DegenerateDenominator,
    ModelParams,
    StateDist,
    StrategyCase,
    _rhs_components,
    check_denominator,
    kinetic_jacobian,
)

BISECT_TOL = 1e-13
ROOT_ZERO_TOL = 1e-15    # |p(y)| <= this * sum|c_i| counts as a root at y
RESIDUAL_TOL = 1e-9      # sup-norm bound on kinetic_rhs at a returned point
STABLE_EIG_TOL = -1e-12  # stable <=> all eigenvalue real parts below this


EIGENVALUE_FIELDS = tuple(f"eig{i}_{part}" for i in (1, 2, 3) for part in ("re", "im"))
CSV_FIELDS = ("case", *STATE_FIELDS, *EIGENVALUE_FIELDS, "stable", "method")


@dataclass(frozen=True)
class FixedPoint:
    """A stationary population state under one strategy case."""

    x: StateDist
    case: StrategyCase
    eigenvalues: tuple[complex, complex, complex]
    stable: bool
    method: str                # closed_form | quartic_numeric | large_lambda

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


def fixed_point_acyclic(params: ModelParams, case: StrategyCase) -> FixedPoint:
    """Stationary point for the all-unprotected or all-defended strategy.

    Case i empties the defended states and leaves the unprotected
    epidemic balance; case ii is the mirror image.
    """
    if case is StrategyCase.PREFER_UNPROTECTED:
        root = endemic_root(params.beta_UU, params.q_rec_U, params.q_inf_U * params.v_H)
        x = StateDist(0.0, 0.0, root, 1.0 - root)
    elif case is StrategyCase.PREFER_DEFENDED:
        root = endemic_root(params.beta_DD, params.q_rec_D, params.q_inf_D * params.v_H)
        x = StateDist(root, 1.0 - root, 0.0, 0.0)
    else:
        raise ValueError(f"{case} is not an acyclic case")
    return _point(params, x, case, "closed_form")


def _swap_du(params: ModelParams) -> ModelParams:
    """Relabel the defended and unprotected sides of the model."""
    return replace(
        params,
        q_rec_D=params.q_rec_U, q_rec_U=params.q_rec_D,
        q_inf_D=params.q_inf_U, q_inf_U=params.q_inf_D,
        beta_DD=params.beta_UU, beta_UU=params.beta_DD,
        beta_DU=params.beta_UD, beta_UD=params.beta_DU,
    )


def _swap_state(x: StateDist) -> StateDist:
    return StateDist(x.x_UI, x.x_US, x.x_DI, x.x_DS)


def mixed_quartic_coeffs(params: ModelParams) -> np.ndarray:
    """Ascending coefficients of the case-iii stationarity polynomial in x_DI.

    Eliminating x_UI = x_DI*(q_inf_U*v_H + beta_DU*x_DI + lam) /
    (q_rec_U - beta_UU*x_DI) from the two-equation reduced system and
    clearing the denominator squared yields a degree <= 4 polynomial.
    """
    lam, v_H = params.lam, params.v_H
    den = np.array([params.q_rec_U, -params.beta_UU])             # D(y)
    num = np.array([0.0, params.q_inf_U * v_H + lam, params.beta_DU])  # N(y)
    # susceptible-defended mass times D: D*(1 - 2y) - N
    t1 = _polyadd(_polymul(den, np.array([1.0, -2.0])), -num)
    # infection intensity on DS times D: (q_inf_D*v_H + beta_DD*y)*D + beta_UD*N
    t2 = _polyadd(_polymul(np.array([params.q_inf_D * v_H, params.beta_DD]), den),
                  params.beta_UD * num)
    loss = (params.q_rec_D + lam) * _polymul(np.array([0.0, 1.0]), _polymul(den, den))
    poly = _polyadd(_polymul(t1, t2), -loss)
    out = np.zeros(5)
    out[: len(poly)] = poly
    return out


def _trim(c: np.ndarray) -> np.ndarray:
    """c without its trailing zero coefficients, keeping at least one."""
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return c[:n]


def _polymul(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """np.polynomial.polynomial.polymul on float arrays: the same trims and
    the same convolution, without its input conversion."""
    return _trim(np.convolve(_trim(c1), _trim(c2)))


def _polyadd(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """np.polynomial.polynomial.polyadd on float arrays; polysub(c1, c2)
    is _polyadd(c1, -c2), bit for bit."""
    c1, c2 = _trim(c1), _trim(c2)
    if len(c1) < len(c2):
        c1, c2 = c2, c1
    out = c1.copy()
    out[: len(c2)] += c2
    return _trim(out)


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


def bracket_roots(coeffs: np.ndarray) -> list[float]:
    """All roots of a polynomial on [0, 1], ascending.

    The real roots of the derivative in (0, 1), found by the same
    isolation one degree down, split [0, 1] into monotone pieces.  A piece
    whose end values change sign holds exactly one root, found by
    bisection with Newton polishing; a piece end whose value is zero to
    rounding is itself a root, so double roots at critical points are
    kept.  A constant polynomial has no roots.
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
            roots.append(y)
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
    root = 0.5 * (lo + hi)
    # a few Newton polishing steps; the switching-rate scale makes the
    # residual budget tight for large lam
    for _ in range(3):
        f = _horner(cs, root)
        df = _horner(dcs, root)
        if df == 0.0:
            break
        candidate = root - f / df
        if not (lo - BISECT_TOL <= candidate <= hi + BISECT_TOL):
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
    whose kinetic residual exceeds the fixed-point tolerance; the spectrum
    is computed only for the states kept.
    """
    if case is StrategyCase.DEFEND_SUSCEPTIBLE:
        return [_point(params, x, case, "quartic_numeric") for x in _case_iii_states(params)]
    if case is StrategyCase.DEFEND_INFECTED:
        return [_point(params, _swap_state(x), case, "quartic_numeric")
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
        if _residual(params, x, control) <= RESIDUAL_TOL:
            states.append(x)
    return states


def fixed_point_mixed_asymptotic(params: ModelParams, case: StrategyCase) -> FixedPoint:
    """Large-lam limit of a mixed-case stationary point.

    The switching balance empties one state pair and the survivor solves
    an endemic quadratic: case iii infects the unprotected against the
    defended-side direct pressure, case iv mirrors it.
    """
    if case is StrategyCase.DEFEND_SUSCEPTIBLE:
        root = endemic_root(params.beta_UD, params.q_rec_U, params.q_inf_D * params.v_H)
        x = StateDist(0.0, 1.0 - root, root, 0.0)
    elif case is StrategyCase.DEFEND_INFECTED:
        root = endemic_root(params.beta_DU, params.q_rec_D, params.q_inf_U * params.v_H)
        x = StateDist(root, 0.0, 0.0, 1.0 - root)
    else:
        raise ValueError(f"{case} is not a mixed case")
    return _point(params, x, case, "large_lambda")


# coordinate eliminated by the simplex constraint when reducing to 3 variables
_ELIMINATED = {
    StrategyCase.PREFER_UNPROTECTED: 3,   # x_US carries the mass
    StrategyCase.PREFER_DEFENDED: 1,      # x_DS
    StrategyCase.DEFEND_SUSCEPTIBLE: 1,   # x_DS
    StrategyCase.DEFEND_INFECTED: 3,      # x_US
}


def reduced_jacobian(params: ModelParams, x: StateDist, u: ControlVector,
                     eliminated: int) -> np.ndarray:
    """3x3 Jacobian of the dynamics restricted to the simplex.

    Eliminating coordinate j via the constraint replaces column j by its
    negative spread over the others: J_red[i, k] = J[i, k] - J[i, j].  The
    spectrum on the simplex tangent space does not depend on the choice
    of j.
    """
    full = kinetic_jacobian(params, x, u)
    keep = [i for i in range(4) if i != eliminated]
    return full[np.ix_(keep, keep)] - full[keep, eliminated][:, None]


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
        red = reduced_jacobian(params, x, case.control, _ELIMINATED[case])
        eigs = _cubic_eigs(red)
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


def _cubic_eigs(m: np.ndarray) -> tuple[complex, ...]:
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    minors = (
        m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    )
    det = float(np.linalg.det(m))
    if det == 0.0:
        # np.roots splits off the root at zero
        roots = np.roots([1.0, -tr, minors, -det])
    else:
        # the companion matrix np.roots builds for x^3 - tr*x^2 + minors*x - det
        roots = np.linalg.eigvals(np.array([[tr, -minors, det],
                                            [1.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0]]))
    return tuple(complex(z) for z in roots)


def fixed_point_residual(params: ModelParams, fp: FixedPoint) -> float:
    """Sup-norm of the kinetic right-hand side at the point (NaN if any part is)."""
    return _residual(params, fp.x, fp.case.control)


def _residual(params: ModelParams, x: StateDist, control: ControlVector) -> float:
    comps = [abs(v) for v in _rhs_components(params, x.x_DI, x.x_DS, x.x_UI, x.x_US, control)]
    return math.nan if any(v != v for v in comps) else max(comps)
