import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from botnet_mfg import (
    DegenerateDenominator,
    InvalidSimplex,
    ModelParams,
    StrategyCase,
    fixed_point_acyclic,
    fixed_point_mixed,
    fixed_point_mixed_asymptotic,
    kinetic_jacobian,
    kinetic_rhs,
    fixedpoint,
    stability,
)
from botnet_mfg.fixedpoint import (
    _swap_du,
    bracket_roots,
    endemic_root,
    endemic_state,
    fixed_point_residual,
    mixed_quartic_coeffs,
    reconstruct_mixed_state,
    reduced_jacobian,
)
from botnet_mfg.validation import random_params

CASE_I = StrategyCase.PREFER_UNPROTECTED
CASE_II = StrategyCase.PREFER_DEFENDED
CASE_III = StrategyCase.DEFEND_SUSCEPTIBLE
CASE_IV = StrategyCase.DEFEND_INFECTED

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _mk(lam=10.0, **kw):
    base = dict(q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
                beta_UU=2.0, beta_UD=1.0, beta_DU=2.0, beta_DD=1.0,
                lam=lam, v_H=1.0, k_D=0.5, k_I=1.0)
    base.update(kw)
    return ModelParams(**base)


class TestEndemicRoot:
    def test_golden_ratio_case(self):
        root = endemic_root(1.0, 1.0, 1.0)
        assert root == pytest.approx(GOLDEN, abs=1e-12)

    def test_sis_limit_without_direct_pressure(self):
        root = endemic_root(2.0, 1.0, 0.0)
        assert root == pytest.approx(0.5, abs=1e-15)

    def test_subcritical_returns_disease_free(self):
        assert endemic_root(1.0, 2.0, 0.0) == 0.0

    def test_zero_contact_linear_fallback(self):
        root = endemic_root(0.0, 1.0, 1.0)
        assert root == pytest.approx(0.5)

    def test_root_is_interior_with_positive_pressure(self, rng):
        for _ in range(10_000):
            b, q, p = rng.uniform(0.0, 5.0, size=3)
            p = max(p, 1e-6)
            root = endemic_root(float(b), float(q), float(p))
            assert 0.0 < root < 1.0
            if b > 0.0:
                poly = b * root * root + root * (q - b + p) - p
                assert abs(poly) <= 1e-12 * max(1.0, b, q, p)


    def test_conjugate_form_where_recovery_dominates(self):
        # q - b + p > 0 takes 2p/((q - b + p) + sqrt(disc)); the textbook
        # form loses every digit of a root near p/q to cancellation
        root = endemic_root(4.0, 1e10, 1.0)
        assert root == pytest.approx(1e-10, rel=1e-9)
        assert abs(4.0 * root * root + root * (1e10 - 4.0 + 1.0) - 1.0) <= 1e-15

    def test_non_finite_discriminant_raises(self):
        with pytest.raises(OverflowError):
            endemic_root(4.0, 1e200, 1.0)


class TestEndemicState:
    def test_builders_return_its_states(self, rng):
        for _ in range(50):
            params = random_params(rng)
            for case in (CASE_I, CASE_II):
                fp = fixed_point_acyclic(params, case)
                assert fp.x == endemic_state(params, case) and fp.method == "closed_form"
            for case in (CASE_III, CASE_IV):
                fp = fixed_point_mixed_asymptotic(params, case)
                assert fp.x == endemic_state(params, case) and fp.method == "large_lambda"

    @pytest.mark.parametrize("case", list(StrategyCase), ids=lambda c: c.label)
    def test_does_not_depend_on_lambda(self, case):
        states = {endemic_state(_mk(lam=lam), case) for lam in (1.0, 2000.0, 1e200, 1e308)}
        assert len(states) == 1

    @pytest.mark.parametrize("case", ["i", None, 3])
    def test_rejects_what_is_not_a_strategy_case(self, case):
        with pytest.raises(ValueError):
            endemic_state(_mk(), case)

    def test_builders_reject_the_other_cases(self):
        for case in (CASE_III, CASE_IV, "i"):
            with pytest.raises(ValueError, match="not an acyclic case"):
                fixed_point_acyclic(_mk(), case)
        for case in (CASE_I, CASE_II, "iii"):
            with pytest.raises(ValueError, match="not a mixed case"):
                fixed_point_mixed_asymptotic(_mk(), case)


class TestLargeRecovery:
    """Acyclic and large-lam points at recovery rates up to 1e12."""

    @pytest.mark.parametrize("name", ["q_rec_U", "q_rec_D"])
    @pytest.mark.parametrize("rate", [1e4, 1e8, 1e10, 1e12])
    def test_residual_within_tolerance(self, name, rate):
        params = _mk(**{name: rate})
        for case in (CASE_I, CASE_II):
            fp = fixed_point_acyclic(params, case)
            assert fixed_point_residual(params, fp) <= 1e-9, case
        for case in (CASE_III, CASE_IV):
            # as lam -> inf the toggled states empty at once, so the limit
            # point's residual is the drift of the infected mass
            fp = fixed_point_mixed_asymptotic(params, case)
            d_DI, _, d_UI, _ = kinetic_rhs(params, fp.x, case.control)
            assert abs(d_DI + d_UI) <= 1e-9, case


class TestAcyclic:
    def test_golden_ratio_fixed_point(self):
        params = _mk(beta_UU=1.0, q_inf_U=1.0, q_rec_U=1.0)
        fp = fixed_point_acyclic(params, CASE_I)
        assert fp.x.x_UI == pytest.approx(GOLDEN, abs=1e-12)
        assert fp.x.x_DI == 0.0 and fp.x.x_DS == 0.0

    def test_no_attacker_supercritical(self):
        params = _mk(v_H=0.0, beta_UU=2.0, q_rec_U=1.0)
        fp = fixed_point_acyclic(params, CASE_I)
        assert fp.x.x_UI == pytest.approx(0.5, abs=1e-15)

    def test_no_attacker_subcritical_flags_boundary(self):
        params = _mk(v_H=0.0, beta_UU=1.0, q_rec_U=2.0)
        fp = fixed_point_acyclic(params, CASE_I)
        assert fp.x.x_UI == 0.0
        assert fp.x.as_tuple() == (0.0, 0.0, 0.0, 1.0)
        assert fixed_point_residual(params, fp) == 0.0

    def test_case_i_eigenvalues_closed_form(self, rng):
        # xi_3 = -lam exactly; xi_2 = -lam - (q_rec_D + alpha at the point);
        # xi_1 is the slope of the surviving epidemic balance
        for _ in range(500):
            params = random_params(rng)
            fp = fixed_point_acyclic(params, CASE_I)
            xs = fp.x.x_UI
            expected = sorted([
                (1.0 - 2.0 * xs) * params.beta_UU - params.q_inf_U * params.v_H - params.q_rec_U,
                -params.lam - (params.q_rec_D + params.q_inf_D * params.v_H + xs * params.beta_UD),
                -params.lam,
            ])
            got = sorted(e.real for e in fp.eigenvalues)
            assert any(e == -params.lam for e in got)
            for a, b in zip(got, expected):
                assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(b)))
            assert all(abs(e.imag) == 0.0 for e in fp.eigenvalues)

    def test_closed_form_matches_numeric_spectrum(self, rng):
        # the reduced-Jacobian spectrum agrees with the closed forms
        for _ in range(200):
            params = random_params(rng, lam=float(rng.uniform(0.5, 50.0)))
            fp = fixed_point_acyclic(params, CASE_I)
            red = reduced_jacobian(params, fp.x, CASE_I.control, 3)
            numeric = sorted(np.linalg.eigvals(red).real)
            closed = sorted(e.real for e in fp.eigenvalues)
            for a, b in zip(numeric, closed):
                assert a == pytest.approx(b, rel=1e-8, abs=1e-8)

    def test_acyclic_always_stable(self, rng):
        for _ in range(2000):
            params = random_params(rng)
            for case in (CASE_I, CASE_II):
                assert fixed_point_acyclic(params, case).stable

    def test_stability_criterion_holds_for_closed_form_root(self, rng):
        # 2*x > 1 - (q_rec_U + q_inf_U*v_H)/beta_UU automatically
        for _ in range(10_000):
            params = random_params(rng)
            fp = fixed_point_acyclic(params, CASE_I)
            lhs = 2.0 * fp.x.x_UI
            rhs = 1.0 - (params.q_rec_U + params.q_inf_U * params.v_H) / params.beta_UU
            assert lhs > rhs


class TestMixed:
    def test_residuals_below_tolerance(self, rng):
        for _ in range(300):
            params = random_params(rng)
            for case in (CASE_III, CASE_IV):
                for fp in fixed_point_mixed(params, case):
                    assert fixed_point_residual(params, fp) <= 1e-9

    def test_quartic_degree_and_root_consistency(self, base_params):
        coeffs = mixed_quartic_coeffs(base_params)
        assert len(coeffs) == 5
        roots = bracket_roots(coeffs)
        assert roots
        for y in roots:
            x = reconstruct_mixed_state(base_params, y)
            rhs = kinetic_rhs(base_params, x, CASE_III.control)
            assert float(np.max(np.abs(rhs))) <= 1e-8

    def test_unique_point_at_large_lambda(self, rng):
        for _ in range(200):
            params = random_params(rng, lam=1000.0)
            for case in (CASE_III, CASE_IV):
                points = fixed_point_mixed(params, case)
                assert len(points) == 1
                assert points[0].stable

    def test_switch_symmetry_on_symmetric_parameters(self):
        params = _mk(q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.8, q_inf_U=0.8,
                     beta_UU=1.5, beta_UD=0.9, beta_DU=0.9, beta_DD=1.5)
        pts_iii = fixed_point_mixed(params, CASE_III)
        pts_iv = fixed_point_mixed(params, CASE_IV)
        assert len(pts_iii) == len(pts_iv)
        for a, b in zip(pts_iii, pts_iv):
            assert a.x.x_DI == pytest.approx(b.x.x_UI, abs=1e-10)
            assert a.x.x_DS == pytest.approx(b.x.x_US, abs=1e-10)

    def test_small_mass_scaling_at_large_lambda(self):
        params = _mk(lam=1000.0, q_rec_D=1.3, q_rec_U=0.9, q_inf_D=0.4)
        fp = fixed_point_mixed(params, CASE_III)[0]
        asym = fixed_point_mixed_asymptotic(params, CASE_III)
        assert abs(fp.x.x_UI - asym.x.x_UI) <= 5.0 / params.lam
        # the defended-infected sliver scales like x_UI * q_rec_U / lam
        assert fp.x.x_DI == pytest.approx(
            fp.x.x_UI * params.q_rec_U / params.lam, rel=20.0 / params.lam)

    def test_spurious_root_at_a_subnormal_recovery_rate_is_dropped(self):
        # README rates with q_rec_U = 5e-324: the quartic's only root on
        # [0, 1] is 0.0, whose state (0, 1, 0, 0) is not stationary under
        # case iii; the residual filter drops it
        params = _mk(lam=2000.0, q_rec_U=5e-324, beta_UU=4.0, beta_UD=0.5,
                     beta_DU=4.0, beta_DD=0.5, k_D=0.7)
        roots = bracket_roots(mixed_quartic_coeffs(params))
        assert list(map(repr, roots)) == ["0.0"]
        x = reconstruct_mixed_state(params, roots[0])
        assert x.as_tuple() == (0.0, 1.0, 0.0, 0.0)
        assert max(abs(v) for v in kinetic_rhs(params, x, CASE_III.control)) == 0.5
        assert fixed_point_mixed(params, CASE_III) == []


class TestPole:
    """The back-substitution pole q_rec_U = beta_UU*x_DI, here at x_DI = 1/4."""

    POLE = 0.25
    NEIGHBOURS = (math.nextafter(POLE, 0.0), math.nextafter(POLE, 1.0))

    def test_root_exactly_at_the_pole_raises(self):
        params = _mk(q_rec_U=1.0, beta_UU=4.0)
        with pytest.raises(DegenerateDenominator):
            reconstruct_mixed_state(params, self.POLE)

    @pytest.mark.parametrize("x_DI", NEIGHBOURS)
    def test_root_one_ulp_off_the_pole_is_off_the_simplex(self, x_DI):
        params = _mk(q_rec_U=1.0, beta_UU=4.0)
        with pytest.raises(InvalidSimplex):
            reconstruct_mixed_state(params, x_DI)

    def test_pole_roots_are_dropped(self, monkeypatch):
        params = _mk(q_rec_U=1.0, beta_UU=4.0)
        monkeypatch.setattr(fixedpoint, "bracket_roots",
                            lambda coeffs: [self.NEIGHBOURS[0], self.POLE, self.NEIGHBOURS[1]])
        assert fixed_point_mixed(params, CASE_III) == []


class TestBracketRoots:
    """Exact isolation finds every root on [0, 1], however close."""

    @pytest.mark.parametrize("roots, expected, tol", [
        ((0.3, 0.301, 0.6, 0.9), (0.3, 0.301, 0.6, 0.9), 1e-9),
        ((0.3002, 0.3003, 0.6, 0.9), (0.3002, 0.3003, 0.6, 0.9), 1e-9),
        ((0.25, 0.25, 0.7, 0.1), (0.1, 0.25, 0.7), 1e-12),
        ((1.0 / 3.0, 1.0 / 3.0, 0.6, 0.9), (1.0 / 3.0, 0.6, 0.9), 1e-12),
        ((0.0, 1.0, 0.4, 0.6), (0.0, 0.4, 0.6, 1.0), 1e-12),
        ((0.5, -2.0, 1.5, 3.0), (0.5,), 1e-12),
    ])
    def test_every_root_of_a_quartic(self, roots, expected, tol):
        got = bracket_roots(np.polynomial.polynomial.polyfromroots(roots))
        assert got == pytest.approx(list(expected), abs=tol)

    def test_exact_ends_are_returned_exactly(self):
        got = bracket_roots(np.polynomial.polynomial.polyfromroots((0.0, 1.0, 0.4, 0.6)))
        assert got[0] == 0.0 and got[-1] == 1.0

    @pytest.mark.parametrize("roots", [(0.2, 0.7, 0.9), (0.2, 0.7)])
    def test_leading_zero_coefficients(self, roots):
        coeffs = np.zeros(5)
        poly = np.polynomial.polynomial.polyfromroots(roots)
        coeffs[: len(poly)] = poly
        assert bracket_roots(coeffs) == pytest.approx(list(roots), abs=1e-12)

    def test_constant_has_no_roots(self):
        assert bracket_roots(np.array([3.0, 0.0, 0.0, 0.0, 0.0])) == []

    @pytest.mark.parametrize("case", [CASE_III, CASE_IV])
    def test_one_isolation_per_mixed_solve(self, case, base_params, monkeypatch):
        calls = []

        def counting(coeffs):
            calls.append(coeffs)
            return bracket_roots(coeffs)

        monkeypatch.setattr(fixedpoint, "bracket_roots", counting)
        assert fixed_point_mixed(base_params, case)
        assert len(calls) == 1


class TestAsymptotic:
    def test_golden_ratio(self):
        params = _mk(beta_UD=1.0, q_rec_U=1.0, q_inf_D=1.0)
        fp = fixed_point_mixed_asymptotic(params, CASE_III)
        assert fp.x.x_UI == pytest.approx(GOLDEN, abs=1e-12)
        assert fp.x.as_tuple()[0] == 0.0 and fp.x.as_tuple()[3] == 0.0

    def test_matches_case_ii_root_under_simplifying_assumptions(self, rng):
        # with target-only contact rates and equal recovery, the asymptotic
        # case-iii abscissa solves the same quadratic as the case-ii point
        for _ in range(200):
            b_D, b_U = sorted(rng.uniform(0.1, 4.0, size=2))
            q = float(rng.uniform(0.1, 3.0))
            inf_D, inf_U = sorted(rng.uniform(0.1, 3.0, size=2))
            params = ModelParams(
                q_rec_D=q, q_rec_U=q, q_inf_D=inf_D, q_inf_U=inf_U,
                beta_UU=b_U, beta_UD=b_D, beta_DU=b_U, beta_DD=b_D,
                lam=50.0, v_H=1.0, k_D=0.5, k_I=1.0)
            fp_iii = fixed_point_mixed_asymptotic(params, CASE_III)
            fp_ii = fixed_point_acyclic(params, CASE_II)
            assert fp_iii.x.x_UI == pytest.approx(fp_ii.x.x_DI, abs=1e-12)

    def test_convergence_rate_in_lambda(self, rng):
        # the quartic point approaches the asymptotic one like 1/lam
        lams = (10.0, 100.0, 1000.0, 10_000.0)
        for case in (CASE_III, CASE_IV):
            gaps = []
            for lam in lams:
                draws = []
                sub = np.random.default_rng(99)
                for _ in range(20):
                    params = random_params(sub, lam=lam, hi=2.0)
                    asym = fixed_point_mixed_asymptotic(params, case)
                    pts = fixed_point_mixed(params, case)
                    assert pts
                    dist = min(
                        float(np.max(np.abs(np.array(fp.x.as_tuple()) - np.array(asym.x.as_tuple()))))
                        for fp in pts)
                    draws.append(dist)
                gaps.append(np.mean(draws))
            slope = np.polyfit(np.log(lams), np.log(gaps), 1)[0]
            assert -1.2 <= slope <= -0.8, (case, slope, gaps)


class TestStabilityFunction:
    def test_mixed_large_lambda_stable(self, rng):
        for _ in range(100):
            params = random_params(rng, lam=2000.0)
            for case in (CASE_III, CASE_IV):
                for fp in fixed_point_mixed(params, case):
                    assert fp.stable

    def test_refill_is_idempotent(self, base_params):
        fp = fixed_point_acyclic(base_params, CASE_I)
        assert stability(base_params, fp.x, fp.case) == (fp.eigenvalues, fp.stable)

    def test_one_spectrum_per_returned_mixed_point(self, rng, monkeypatch):
        calls = []

        def counting(params, x, case):
            calls.append(case)
            return stability(params, x, case)

        monkeypatch.setattr(fixedpoint, "stability", counting)
        returned = []
        for lam in (1.0, 10.0, 1000.0):
            for _ in range(50):
                params = random_params(rng, lam=lam)
                for case in (CASE_III, CASE_IV):
                    returned += [fp.case for fp in fixed_point_mixed(params, case)]
        assert len(returned) >= 300
        assert calls == returned


class TestUnstableMixedPoint:
    """At the README rates without attacker pressure the disease-free mixed
    points are stationary and their spectra are integers: -(lam + q_rec_D),
    -lam, and the epidemic growth rate on the populated side, beta - q_rec.
    The unprotected epidemic is supercritical (4 - 1 = 3), so the case-iv
    point at x_US = 1 is a saddle; the defended one is not (0.5 - 1)."""

    README = dict(q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
                  beta_UU=4.0, beta_UD=0.5, beta_DU=4.0, beta_DD=0.5,
                  lam=2000.0, v_H=0.0, k_D=0.7, k_I=1.0)

    @pytest.mark.parametrize("case, x, eigs, stable", [
        (CASE_IV, (0.0, 0.0, 0.0, 1.0), (-2001.0, -2000.0, 3.0), False),
        (CASE_III, (0.0, 1.0, 0.0, 0.0), (-2001.0, -2000.0, -0.5), True),
    ], ids=["iv-saddle", "iii-stable"])
    def test_exact_spectrum(self, case, x, eigs, stable):
        params = ModelParams(**self.README)
        point = next(fp for fp in fixed_point_mixed(params, case) if fp.x.as_tuple() == x)
        assert fixed_point_residual(params, point) == 0.0
        assert point.eigenvalues == tuple(complex(e) for e in eigs)
        assert point.stable is stable


def _polymul(a, b):
    """Exact product of two ascending coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polyadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def _exact_quartic(params):
    """The case-iii quartic expanded in exact rationals of the same float parameters."""
    F = Fraction
    lam, v_H = F(params.lam), F(params.v_H)
    den = [F(params.q_rec_U), -F(params.beta_UU)]
    num = [F(0), F(params.q_inf_U) * v_H + lam, F(params.beta_DU)]
    t1 = _polyadd(_polymul(den, [1, -2]), [-c for c in num])
    t2 = _polyadd(_polymul([F(params.q_inf_D) * v_H, F(params.beta_DD)], den),
                  [F(params.beta_UD) * c for c in num])
    loss = _polymul([0, F(params.q_rec_D) + lam], _polymul(den, den))
    return _polyadd(_polymul(t1, t2), [-c for c in loss])


def _assert_quartic_matches_exact(params, label=None):
    got = mixed_quartic_coeffs(params)
    exact = _exact_quartic(params)
    assert len(got) == len(exact) == 5
    bound = 2e-15 * sum(abs(c) for c in got)
    for g, e in zip(got, exact):
        assert (g == 0.0) == (e == 0), label
        assert float(abs(Fraction(g) - e)) <= bound, label


def _exact_root(coeffs, y):
    """The root near y of the exact polynomial, after one exact Newton step, rounded."""
    y = Fraction(y)
    value = sum(c * y ** i for i, c in enumerate(coeffs))
    slope = sum(i * c * y ** (i - 1) for i, c in enumerate(coeffs) if i)
    return float(y - value / slope) if slope else float(y)


def _reference_states(params, case):
    """The mixed states at the exact quartic's roots, rounded to floats (case
    iv by relabeling)."""
    if case is CASE_IV:
        return [fixedpoint.StateDist(x.x_UI, x.x_US, x.x_DI, x.x_DS)
                for x in _reference_states(_swap_du(params), CASE_III)]
    exact = _exact_quartic(params)
    states = []
    for near in bracket_roots([float(c) for c in exact]):
        root = _exact_root(exact, near)
        try:
            x = reconstruct_mixed_state(params, root)
        except (DegenerateDenominator, ValueError):
            continue
        residual = float(np.max(np.abs(kinetic_rhs(params, x, case.control))))
        if residual <= fixedpoint.RESIDUAL_REL_TOL * params.max_rate():
            states.append(x)
    return states


def _eigvals_gap(eigs, m):
    """Largest distance between eigs and np.linalg.eigvals(m), under the best
    pairing, and the largest eigenvalue modulus."""
    ref = [complex(z) for z in np.linalg.eigvals(np.array(m))]
    gap = min(max(abs(a - b) for a, b in zip(eigs, perm))
              for perm in itertools.permutations(ref))
    return gap, max(abs(z) for z in ref)


def _reference_reduced_jacobian(params, x, u, eliminated):
    """reduced_jacobian entry by entry from the 4x4 array."""
    full = np.array(kinetic_jacobian(params, x, u))
    keep = [i for i in range(4) if i != eliminated]
    red = np.empty((3, 3))
    for a, i in enumerate(keep):
        for b, k in enumerate(keep):
            red[a, b] = full[i, k] - full[i, eliminated]
    return red


def _zero_rate_params(rng, lam):
    """A random_params draw with up to three rates set to zero."""
    params = random_params(rng, lam=lam)
    names = ("beta_UU", "beta_DU", "beta_DD", "beta_UD", "q_rec_U", "v_H")
    picked = rng.choice(len(names), size=int(rng.integers(1, 4)), replace=False)
    return replace(params, **{names[i]: 0.0 for i in picked})


class TestBitIdentity:
    """The scalar kernels against independent references: the quartic
    expanded in exact rationals, the LAPACK spectrum of the same matrix,
    and the reduced Jacobian taken entry by entry from the 4x4 array."""

    def test_mixed_points_and_quartic_match_reference(self, rng):
        compared = 0
        for k in range(2000):
            lam = (1.0, 10.0, 1000.0, 2000.0)[k % 4]
            params = _zero_rate_params(rng, lam) if k % 10 == 9 else random_params(rng, lam=lam)
            _assert_quartic_matches_exact(params)
            for case in (CASE_III, CASE_IV):
                points = fixed_point_mixed(params, case)
                reference = _reference_states(params, case)
                assert len(points) == len(reference)
                for fp, x in zip(points, reference):
                    assert max(abs(a - b) for a, b in zip(fp.x.as_tuple(), x.as_tuple())) <= 1e-15
                    eliminated = 1 if case is CASE_III else 3
                    red = reduced_jacobian(params, fp.x, case.control, eliminated)
                    assert np.array(red).tobytes() == _reference_reduced_jacobian(
                        params, fp.x, case.control, eliminated).tobytes()
                    gap, rho = _eigvals_gap(fp.eigenvalues, red)
                    assert gap <= 1e-10 * rho
                compared += len(points)
        assert compared >= 3000

    def test_quartic_with_zero_rates_matches_reference(self, rng):
        # every combination of one to four vanishing rates: the written-out
        # coefficients vanish exactly where the exact expansion does
        names = ("beta_UU", "beta_DU", "beta_DD", "beta_UD", "q_rec_U", "q_rec_D",
                 "q_inf_U", "q_inf_D", "v_H")
        for lam in (1.0, 10.0, 1000.0, 2000.0):
            for _ in range(2):
                base = random_params(rng, lam=lam)
                for size in (1, 2, 3, 4):
                    for zeroed in itertools.combinations(names, size):
                        _assert_quartic_matches_exact(
                            replace(base, **dict.fromkeys(zeroed, 0.0)), zeroed)

    def test_cubic_eigs_match_eigvals(self, rng):
        for _ in range(500):
            m = (rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-3, 4)).tolist()
            gap, rho = _eigvals_gap(fixedpoint._cubic_eigs(m), m)
            assert gap <= 1e-12 * rho

    @pytest.mark.parametrize("m", [
        [[1e150, 0.0, 0.0], [0.0, -1e150, 0.0], [0.0, 0.0, 1.0]],
        [[0.0, 1e150, 0.0], [-1e150, 0.0, 0.0], [0.0, 0.0, -1e-200]],
        [[1e200, 1.0, 0.0], [1.0, 1e-200, 0.0], [0.0, 0.0, 1.0]],
    ], ids=["real", "complex", "wide"])
    def test_roots_near_the_float_range_end(self, m):
        # finite coefficients whose roots' cubes overflow unless the cubic is scaled
        gap, rho = _eigvals_gap(fixedpoint._cubic_eigs(m), m)
        assert gap <= 1e-12 * rho

    @pytest.mark.parametrize("m", [
        [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [4.0, 5.0, 6.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[-2.0, 1.0, 0.0], [1.0, -0.5, 0.0], [3.0, 1.0, -1.0]],
        [[1.0, 2.0, -1.0], [2.0, 4.0, -2.0], [1.0, 3.0, 0.5]],
    ], ids=["zero-row", "zero", "rank-two", "complex-pair"])
    def test_singular_matrix_keeps_the_zero_root(self, m):
        # in "complex-pair" 0 is the only real root, which Newton's iteration
        # would reach only to within a subnormal
        eigs = fixedpoint._cubic_eigs(m)
        assert 0j in eigs and len(eigs) == 3
        gap, rho = _eigvals_gap(eigs, m)
        assert gap <= 1e-12 * rho

    def test_overflowing_characteristic_polynomial_raises(self):
        with pytest.raises(OverflowError):
            fixedpoint._cubic_eigs([[1e200] * 3] * 3)

    @pytest.mark.parametrize("q_inf, expect_nan", [(1e308, True), (1.0, False)])
    def test_residual_is_the_numpy_sup_norm(self, q_inf, expect_nan):
        params = _mk(q_inf_D=q_inf, v_H=1e308 if expect_nan else 1.0)
        x = fixedpoint.StateDist(0.25, 0.25, 0.25, 0.25)
        for case in StrategyCase:
            fp = fixedpoint.FixedPoint(x, case, (0j, 0j, 0j), False, "closed_form")
            got = fixed_point_residual(params, fp)
            ref = float(np.max(np.abs(kinetic_rhs(params, x, case.control))))
            assert math.isnan(got) == math.isnan(ref) == expect_nan
            assert expect_nan or got == ref
