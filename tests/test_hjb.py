import math
from dataclasses import replace

import numpy as np
import pytest

from botnet_mfg import (
    DegenerateDenominator,
    Domain,
    ModelParams,
    StateDist,
    StrategyCase,
    alpha_beta,
    case_interval,
    classify_domain,
    enumerate_hjb,
    oracle_enumerate,
    solve_case,
)
from botnet_mfg import hjb
from botnet_mfg.hjb import (
    DEGENERATE_SLACK,
    TooManySolutions,
    bellman_residual,
    control_attains_min,
)
from botnet_mfg.equilibrium import stationary_points
from botnet_mfg.validation import _oracle_matches, random_params, random_state
from conftest import case_thresholds, reference_interval

CASE_I = StrategyCase.PREFER_UNPROTECTED
CASE_II = StrategyCase.PREFER_DEFENDED
CASE_III = StrategyCase.DEFEND_SUSCEPTIBLE
CASE_IV = StrategyCase.DEFEND_INFECTED


class TestSolveCase:
    def test_zero_costs_give_zero_values(self, base_params, interior_state):
        params = replace(base_params, k_D=0.0, k_I=1e-300)
        sol = solve_case(params, interior_state, CASE_I)
        assert sol.mu == pytest.approx(0.0, abs=1e-290)
        assert np.allclose(sol.g_array(), 0.0, atol=1e-290)

    def test_case_i_average_cost_formula(self):
        # mu = beta*k_I/(beta + q_rec_U); beta = 1 and q_rec_U = 1 give 1/2
        params = ModelParams(
            q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
            beta_UU=0.0, beta_UD=0.0, beta_DU=0.0, beta_DD=0.0,
            lam=1.0, v_H=1.0, k_D=0.5, k_I=1.0)
        x = StateDist(0.1, 0.4, 0.2, 0.3)
        assert alpha_beta(params, x).beta == 1.0
        sol = solve_case(params, x, CASE_I)
        assert sol.mu == pytest.approx(0.5, abs=1e-14)

    def test_residual_and_min_attainment_on_random_draws(self, rng):
        for _ in range(500):
            params = random_params(rng)
            x = random_state(rng)
            for case in StrategyCase:
                sol = solve_case(params, x, case)
                if sol.valid:
                    tol = 1e-10 * max(1.0, abs(sol.mu))
                    assert bellman_residual(params, x, sol) <= tol
                    assert control_attains_min(sol, DEGENERATE_SLACK * params.k_I)

    def test_a_passed_interval_gives_the_same_solution(self, rng):
        for _ in range(300):
            params = random_params(rng)
            x = random_state(rng)
            for case in StrategyCase:
                interval = case_interval(params, x, case)
                assert solve_case(params, x, case, interval) == solve_case(params, x, case)

    def test_renormalized_to_zero_minimum(self, rng):
        for _ in range(200):
            params = random_params(rng)
            x = random_state(rng)
            for case in StrategyCase:
                sol = solve_case(params, x, case)
                assert min(sol.g_array()) == pytest.approx(0.0, abs=1e-15)

    def test_slacks_match_threshold_inequalities(self, rng):
        # the g-difference margins carry the sign of the kappa-band tests
        for _ in range(300):
            params = random_params(rng)
            x = random_state(rng)
            th = case_thresholds(params, x)
            kD, kI = params.k_D, params.k_I
            signs = {
                CASE_I: (kD * th["Q"] - kI * th["A"], kD * th["Q"] - kI * th["B"]),
                CASE_II: (kI * th["A"] - kD * th["P"], kI * th["B"] - kD * th["P"]),
                CASE_III: (kD * th["P"] - kI * th["A"], kI * th["B"] - kD * th["Q"]),
                CASE_IV: (kI * th["A"] - kD * th["Q"], kD * th["P"] - kI * th["B"]),
            }
            for case, (m1, m2) in signs.items():
                sol = solve_case(params, x, case)
                for slack, margin in ((sol.slack1, m1), (sol.slack2, m2)):
                    if abs(margin) > 1e-9:
                        assert slack * margin > 0.0, (case, slack, margin)


class TestExactDenominators:
    """A denominator fails only when it is exactly zero; a solution that is
    not finite fails as OverflowError."""

    @pytest.mark.parametrize("k_I, overflows", [(1.0, False), (1e300, True)])
    def test_tiny_case_i_denominator_is_divided_by(self, base_params, interior_state,
                                                   k_I, overflows):
        params = replace(base_params, **{
            name: getattr(base_params, name) * 1e-101
            for name in ("q_rec_D", "q_rec_U", "q_inf_D", "q_inf_U", "beta_UU",
                         "beta_UD", "beta_DU", "beta_DD", "lam")}, k_D=0.5 * k_I, k_I=k_I)
        alpha, beta = alpha_beta(params, interior_state)
        den2 = params.lam * (beta + params.q_rec_U) * (alpha + params.lam + params.q_rec_D)
        assert 1e-302 < den2 < 1e-299
        if overflows:
            with pytest.raises(OverflowError):
                solve_case(params, interior_state, CASE_I)
        else:
            sol = solve_case(params, interior_state, CASE_I)
            assert all(math.isfinite(v) for v in (*sol.g_array(), sol.mu))

    def test_non_finite_solution_raises(self, interior_state):
        # lambda = 1e308 overflows the case-i numerator and denominator alike
        params = ModelParams(
            q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
            beta_UU=4.0, beta_UD=0.5, beta_DU=4.0, beta_DD=0.5,
            lam=1e308, v_H=1.0, k_D=0.7, k_I=1.0)
        with pytest.raises(OverflowError):
            solve_case(params, interior_state, CASE_I)
        with pytest.raises(OverflowError):
            enumerate_hjb(params, interior_state)

    def test_exactly_zero_denominator_raises(self):
        # no recovery and no infection pressure on an unprotected host
        params = ModelParams(
            q_rec_D=1.0, q_rec_U=0.0, q_inf_D=0.5, q_inf_U=0.0,
            beta_UU=0.0, beta_UD=0.5, beta_DU=0.0, beta_DD=0.5,
            lam=10.0, v_H=1.0, k_D=0.7, k_I=1.0)
        with pytest.raises(DegenerateDenominator, match="beta \\+ q_rec_U vanishes"):
            solve_case(params, StateDist(0.1, 0.4, 0.2, 0.3), CASE_I)


class TestEnumerate:
    def test_equal_recovery_unique_in_d1(self, rng):
        for _ in range(500):
            params = random_params(rng, equal_recovery=True)
            x = random_state(rng)
            if classify_domain(params, x) is not Domain.D1:
                continue
            sols = enumerate_hjb(params, x)
            if any(s.degenerate for s in sols):
                continue
            assert len(sols) == 1

    def test_band_interior_gives_case_iii(self, equal_recovery_params):
        x = StateDist(0.1, 0.4, 0.2, 0.3)
        th = case_thresholds(equal_recovery_params, x)
        lo, hi = th["A"] / th["P"], th["B"] / th["Q"]
        assert lo < hi
        params = equal_recovery_params.with_kappa(0.5 * (lo + hi))
        sols = enumerate_hjb(params, x)
        assert [s.case for s in sols] == [CASE_III]

    def test_above_band_gives_case_i(self, equal_recovery_params):
        x = StateDist(0.1, 0.4, 0.2, 0.3)
        th = case_thresholds(equal_recovery_params, x)
        params = equal_recovery_params.with_kappa(th["B"] / th["Q"] * 1.05)
        sols = enumerate_hjb(params, x)
        assert [s.case for s in sols] == [CASE_I]

    def test_acyclic_cases_never_strictly_coexist(self, rng):
        """The aggressive search behind the two-solution question.

        The case-i and case-ii regions are kappa >= max(A,B)/Q and
        kappa <= min(A,B)/P; they overlap only where B*P <= A*Q (in D1),
        and the identity

            B*P - A*Q = lam*(r - s)*((r*s - c) + lam*(alpha + q_rec_U)),
            r = beta + q_rec_U, s = alpha + q_rec_D,
            c = beta*q_rec_D - alpha*q_rec_U,

        makes that impossible off the degenerate boundary alpha =
        q_rec_U = 0, for any recovery gap.  So no parameter point yields
        two strictly valid solutions, and the two-at-most bound is loose.
        """
        for _ in range(2000):
            # unconstrained draws, including sign-structure violations
            vals = rng.uniform(0.0, 5.0, size=8)
            params = ModelParams(
                q_rec_D=vals[0], q_rec_U=vals[1], q_inf_D=vals[2], q_inf_U=vals[3],
                beta_UU=vals[4], beta_UD=vals[5], beta_DU=vals[6], beta_DD=vals[7],
                lam=float(rng.uniform(0.1, 100.0)), v_H=float(rng.uniform(0.0, 2.0)),
                k_D=float(rng.uniform(0.0, 3.0)), k_I=1.0)
            x = random_state(rng)
            alpha, beta = alpha_beta(params, x)
            th = case_thresholds(params, x)
            r, s = beta + params.q_rec_U, alpha + params.q_rec_D
            c = beta * params.q_rec_D - alpha * params.q_rec_U
            identity = params.lam * (r - s) * ((r * s - c) + params.lam * (alpha + params.q_rec_U))
            lhs = th["B"] * th["P"] - th["A"] * th["Q"]
            assert lhs == pytest.approx(identity, rel=1e-9, abs=1e-9)

            sol_i = solve_case(params, x, CASE_I)
            sol_ii = solve_case(params, x, CASE_II)
            assert not (
                min(sol_i.slack1, sol_i.slack2) > 1e-9
                and min(sol_ii.slack1, sol_ii.slack2) > 1e-9
            )

    def test_interior_exclusivity_of_adjacent_cases(self, rng):
        pairs = ((CASE_I, CASE_III), (CASE_I, CASE_IV),
                 (CASE_II, CASE_III), (CASE_II, CASE_IV))
        for _ in range(800):
            params = random_params(rng)
            x = random_state(rng)
            sols = {case: solve_case(params, x, case) for case in StrategyCase}
            for a, b in pairs:
                strict_a = min(sols[a].slack1, sols[a].slack2) > 1e-9
                strict_b = min(sols[b].slack1, sols[b].slack2) > 1e-9
                assert not (strict_a and strict_b)

    def test_domain_gating_implications(self, rng):
        for _ in range(800):
            params = random_params(rng)
            x = random_state(rng)
            sols = {case: solve_case(params, x, case) for case in StrategyCase}
            domain = classify_domain(params, x)

            def strict(case):
                return min(sols[case].slack1, sols[case].slack2) > 1e-9

            if strict(CASE_I) and strict(CASE_II):
                assert domain is Domain.D1
            if strict(CASE_III) and strict(CASE_IV):
                assert domain is Domain.D2

    def test_equal_recovery_band_ordering(self, rng):
        # A/P <= B/Q and B/P >= A/Q whenever beta > alpha and the recovery
        # rates coincide
        for _ in range(500):
            params = random_params(rng, equal_recovery=True)
            x = random_state(rng)
            alpha, beta = alpha_beta(params, x)
            if beta <= alpha:
                continue
            th = case_thresholds(params, x)
            assert th["A"] / th["P"] <= th["B"] / th["Q"] + 1e-12
            assert th["B"] / th["P"] >= th["A"] / th["Q"] - 1e-12

    def test_three_distinct_solutions_raise(self, base_params, interior_state, monkeypatch):
        # the invariant is an explicit check, so it also holds under python -O;
        # with every interval the whole line, four distinct solutions are priced
        monkeypatch.setattr(hjb, "case_interval", lambda *args: (-math.inf, math.inf))
        with pytest.raises(TooManySolutions):
            enumerate_hjb(base_params, interior_state)

    def test_four_intervals_hold_where_recovery_totals_meet(self):
        # equal rates on both sides give alpha = beta and equal recovery, so
        # beta + q_rec_U = alpha + q_rec_D, A = B = 0 and P = Q: all four
        # intervals hold at kappa = A/P = 0, and the four solutions coincide
        params = ModelParams(
            q_rec_D=1.0, q_rec_U=1.0, q_inf_D=1.0, q_inf_U=1.0,
            beta_UU=2.0, beta_UD=2.0, beta_DU=2.0, beta_DD=2.0,
            lam=10.0, v_H=1.0, k_D=0.0, k_I=1.0)
        x = StateDist(0.1, 0.4, 0.2, 0.3)
        th = case_thresholds(params, x)
        assert (th["A"], th["B"], th["P"]) == (0.0, 0.0, th["Q"])
        for case in StrategyCase:
            lo, hi = case_interval(params, x, case)
            assert lo <= params.kappa <= hi, case
        sols = enumerate_hjb(params, x)
        assert {s.case for s in sols} == set(StrategyCase)
        for sol in sols[1:]:
            assert sol.mu == pytest.approx(sols[0].mu, abs=1e-12)
            assert np.allclose(sol.g_array(), sols[0].g_array(), rtol=0.0, atol=1e-12)
        brute = oracle_enumerate(params, x)
        assert len(brute) == 1
        assert brute[0].mu == pytest.approx(sols[0].mu, abs=1e-12)
        assert np.allclose(brute[0].g_array(), sols[0].g_array(), rtol=0.0, atol=1e-12)

    def test_cost_scale_free(self, rng):
        # g, mu and the slacks are linear in (k_D, k_I): scaling both by c
        # keeps kappa, the cases and the flags, and scales the values by c
        scales = (1e-10, 1e-3, 1.0, 1e3, 1e10)
        for _ in range(300):
            params = random_params(rng)
            x = random_state(rng)
            ref = {case: solve_case(params, x, case) for case in StrategyCase}
            ref_cases = [s.case for s in enumerate_hjb(params, x)]
            for c in scales:
                scaled = replace(params, k_D=params.k_D * c, k_I=params.k_I * c)
                assert [s.case for s in enumerate_hjb(scaled, x)] == ref_cases, (params, c)
                for case, sol in ref.items():
                    got = solve_case(scaled, x, case)
                    assert (got.valid, got.degenerate) == (sol.valid, sol.degenerate)
                    want = np.array([sol.mu, *sol.g_array()])
                    err = np.abs(np.array([got.mu, *got.g_array()]) - c * want)
                    assert np.max(err) <= 1e-12 * c * np.max(np.abs(want)), (params, c, case)
                assert _oracle_matches(scaled, x, tol=1e-9 * c), (params, c)


class TestOracle:
    def test_agreement_on_random_draws(self, rng):
        for _ in range(1000):
            params = random_params(rng)
            x = random_state(rng)
            assert _oracle_matches(params, x)

    def test_zero_costs_degenerate(self, base_params, interior_state):
        # tolerances scale with k_I, so tiny costs give case ii, as k_I = 1 does
        params = replace(base_params, k_D=0.0, k_I=1e-300)
        sols = oracle_enumerate(params, interior_state)
        assert [s.case for s in sols] == [CASE_II]
        assert not sols[0].degenerate
        assert sols[0].mu == pytest.approx(0.0, abs=1e-290)
        assert np.allclose(sols[0].g_array(), 0.0, atol=1e-290)

    def test_fields_are_python_floats(self, rng):
        names = ("g_DI", "g_DS", "g_UI", "g_US", "mu", "slack1", "slack2")
        for _ in range(200):
            params = random_params(rng)
            x = random_state(rng)
            sols = oracle_enumerate(params, x) + [solve_case(params, x, case)
                                                  for case in StrategyCase]
            for sol in sols:
                assert all(type(getattr(sol, name)) is float for name in names), sol

    def test_slacks_equal_the_closed_forms(self, rng):
        # both builders go through one margin rule: slack1/slack2 are the
        # DI-line and DS-line margins, so an oracle solution carries the
        # slacks of the closed form for its case
        compared = 0
        for _ in range(500):
            params = random_params(rng)
            x = random_state(rng)
            closed = {s.case: s for s in enumerate_hjb(params, x)}
            brute = oracle_enumerate(params, x)
            if any(s.degenerate for s in brute + list(closed.values())):
                continue
            tol = 1e-9 * params.k_I
            for ref in brute:
                sol = closed[ref.case]
                assert abs(ref.slack1 - sol.slack1) <= tol, (params, x, ref.case)
                assert abs(ref.slack2 - sol.slack2) <= tol, (params, x, ref.case)
                compared += 1
        assert compared > 400

    def test_case_is_read_from_the_control(self, rng):
        for _ in range(100):
            params = random_params(rng)
            x = random_state(rng)
            sols = oracle_enumerate(params, x) + [solve_case(params, x, case)
                                                  for case in StrategyCase]
            for sol in sols:
                assert sol.case is sol.control.case

    def test_count_bound(self, rng):
        for _ in range(500):
            params = random_params(rng)
            sols = oracle_enumerate(params, random_state(rng))
            assert len(sols) <= 2

    def test_systems_match_the_scalar_formulas(self, rng):
        for k in range(400):
            params = random_params(rng, lam=(1.0, 10.0, 1000.0, 2000.0)[k % 4])
            if k % 2:
                zeroed = ("q_rec_D", "q_rec_U", "k_D")[: k % 4]
                params = replace(params, **dict.fromkeys(zeroed, 0.0))
            alpha, beta = (0.0, 0.0) if k % 5 == 0 else alpha_beta(params, random_state(rng))
            mats, rhs = hjb._oracle_systems(params, alpha, beta)
            ref_mats, ref_rhs = _scalar_systems(params, alpha, beta)
            assert mats.tobytes() == ref_mats.tobytes()
            assert rhs.tobytes() == ref_rhs.tobytes()


def _scalar_systems(params, alpha, beta):
    """The 16 fixed-control systems, entry by entry."""
    lam, q_D, q_U = params.lam, params.q_rec_D, params.q_rec_U
    mats = np.zeros((16, 5, 5))
    rhs = np.zeros((16, 5))
    for i, u in enumerate(hjb.ALL_CONTROLS):
        m = mats[i]
        m[0, 0] = -lam * u.u_DI - q_D
        m[0, 1] = q_D
        m[0, 2] = lam * u.u_DI
        m[1, 0] = alpha
        m[1, 1] = -lam * u.u_DS - alpha
        m[1, 3] = lam * u.u_DS
        m[2, 0] = lam * u.u_UI
        m[2, 2] = -lam * u.u_UI - q_U
        m[2, 3] = q_U
        m[3, 1] = lam * u.u_US
        m[3, 2] = beta
        m[3, 3] = -lam * u.u_US - beta
        m[:4, 4] = -1.0
        m[4, 3] = 1.0
        rhs[i, :3] = (-(params.k_I + params.k_D), -params.k_D, -params.k_I)
    return mats, rhs


class TestCaseInterval:
    def test_membership_equals_validity_at_stationary_points(self, rng):
        lams = (1.0, 10.0, 100.0, 1000.0, 2000.0)
        kappas = np.linspace(0.0, 1.0, 200)
        checked = 0
        for i in range(60):
            params = random_params(rng, lam=lams[i % 5], equal_recovery=bool(i % 2))
            for fp in stationary_points(params):
                lo, hi = case_interval(params, fp.x, fp.case)
                for kappa in kappas:
                    sol = solve_case(params.with_kappa(float(kappa)), fp.x, fp.case)
                    holds = min(sol.slack1, sol.slack2) >= -1e-9 * params.k_I
                    assert (lo <= kappa <= hi) == holds, (params, fp.case, kappa)
                    checked += holds
        assert checked > 1000

    def test_endpoints_converge_to_large_lambda_limits(self):
        # A/P, B/Q, B/P, A/Q against delta/s, gap/r, gap/s, delta/r
        lams = (10.0, 100.0, 1000.0, 10_000.0)
        means = []
        for lam in lams:
            rng = np.random.default_rng(1005)  # same draws at every lam
            dists = []
            for _ in range(20):
                params = random_params(rng, lam=lam)
                x = random_state(rng)
                alpha, beta = alpha_beta(params, x)
                s, r = alpha + params.q_rec_D, beta + params.q_rec_U
                gap, delta = beta - alpha, params.delta
                exact = (*case_interval(params, x, CASE_III),
                         *case_interval(params, x, CASE_IV))
                limits = (delta / s, gap / r, gap / s, delta / r)
                dists.append([abs(e - lim) for e, lim in zip(exact, limits)])
            means.append(np.mean(dists, axis=0))
        slopes = np.polyfit(np.log(lams), np.log(means), 1)[0]
        assert np.all((-1.2 <= slopes) & (slopes <= -0.8)), slopes

    def test_intervals_give_enumerated_cases_at_large_lambda(self, rng):
        for _ in range(1000):
            params = random_params(rng, lam=1e4)
            x = random_state(rng)
            members = set()
            for case in StrategyCase:
                lo, hi = case_interval(params, x, case)
                if lo <= params.kappa <= hi:
                    members.add(case)
            assert members == {s.case for s in enumerate_hjb(params, x)}

    def test_opposite_cases_never_share_an_interior(self, rng):
        for _ in range(2000):
            params = random_params(rng)
            x = random_state(rng)
            bands = {case: case_interval(params, x, case) for case in StrategyCase}
            for a, b in ((CASE_I, CASE_II), (CASE_III, CASE_IV)):
                lo = max(bands[a][0], bands[b][0])
                hi = min(bands[a][1], bands[b][1])
                assert hi <= lo + 1e-12 * max(1.0, abs(lo)), (a, b, bands)

    def test_equals_the_reference_bit_for_bit(self, rng):
        # no infected agents under zero rates: P = 0, Q = 0, or both with
        # A = B = 0, so the reference's _least returns an infinity
        zero = (dict(q_rec_D=0.0, v_H=0.0, beta_DD=0.0),
                dict(q_rec_U=0.0, v_H=0.0, beta_UD=0.0),
                dict(q_rec_D=0.0, q_rec_U=0.0, v_H=0.0))
        lams = (1.0, 10.0, 20.0, 1000.0, 2000.0)
        zero_denominators = at_end = 0
        for k in range(3000):
            params = random_params(rng, lam=lams[k % 5], equal_recovery=k % 7 == 0)
            x = random_state(rng)
            if k % 4 == 3:
                params = replace(params, **zero[k // 4 % 3])
                x = StateDist(0.0, x.x_DI + x.x_DS, 0.0, x.x_UI + x.x_US)
            th = case_thresholds(params, x)
            zero_denominators += th["P"] == 0.0 or th["Q"] == 0.0
            ends = [end for case in StrategyCase for end in reference_interval(params, x, case)
                    if math.isfinite(end) and end >= 0.0]
            if ends and k % 2:
                params = params.with_kappa(ends[rng.integers(len(ends))])
                at_end += 1
            for case in StrategyCase:
                got, want = case_interval(params, x, case), reference_interval(params, x, case)
                # the bytes tell a zero's sign and an infinity's
                assert np.array(got).tobytes() == np.array(want).tobytes(), (params, x, case)
        assert zero_denominators > 500 and at_end > 1000

    def test_rejects_an_unknown_case(self, base_params):
        with pytest.raises(ValueError, match="unknown case"):
            hjb.interval_rule(base_params, "i")

    def test_zero_denominator_gives_exact_intervals(self):
        # no recovery and no pressure on a defended susceptible: P = 0 at DS,
        # so each inequality on P holds for every kappa or for none
        params = ModelParams(
            q_rec_D=0.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
            beta_UU=0.5, beta_UD=0.5, beta_DU=0.5, beta_DD=0.5,
            lam=10.0, v_H=0.0, k_D=0.7, k_I=1.0)
        x = StateDist(0.0, 1.0, 0.0, 0.0)
        expected = {CASE_I: (0.0, math.inf), CASE_II: (-math.inf, -math.inf),
                    CASE_III: (-math.inf, 0.0), CASE_IV: (-math.inf, -1.0)}
        checked = 0
        for case, interval in expected.items():
            lo, hi = case_interval(params, x, case)
            assert (lo, hi) == interval, case
            for kappa in (0.0, 0.25, 1.0):
                try:
                    sol = solve_case(params.with_kappa(kappa), x, case)
                except DegenerateDenominator:
                    continue
                holds = min(sol.slack1, sol.slack2) >= -1e-9 * params.k_I
                assert (lo <= kappa <= hi) == holds, (case, kappa)
                checked += 1
        assert checked > 0
