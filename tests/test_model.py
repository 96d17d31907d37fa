import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from botnet_mfg import (
    ControlVector,
    Domain,
    InvalidSimplex,
    StepTooLarge,
    ModelParams,
    StateDist,
    StrategyCase,
    alpha_beta,
    classify_domain,
    integrate,
    kinetic_jacobian,
    kinetic_rhs,
)
from botnet_mfg.fixedpoint import fixed_point_acyclic
from botnet_mfg.model import CONFIG_KEYS
from botnet_mfg.validation import random_control, random_params, random_state


class TestParams:
    def test_rejects_negative_rates(self, base_params):
        with pytest.raises(ValueError):
            replace(base_params, q_rec_D=-0.1)

    def test_rejects_zero_lambda_and_k_I(self, base_params):
        with pytest.raises(ValueError):
            replace(base_params, lam=0.0)
        with pytest.raises(ValueError):
            replace(base_params, k_I=0.0)

    def test_kappa_and_delta(self, base_params):
        assert base_params.kappa == 0.5
        assert base_params.delta == pytest.approx(0.2)

    def test_config_roundtrip(self, base_params):
        text = base_params.to_config_text()
        assert "lambda = 10.0" in text
        assert ModelParams.from_config_text(text) == base_params

    def test_random_draw_config_roundtrip(self, rng):
        for equal_recovery in (False, True):
            params = random_params(rng, equal_recovery=equal_recovery)
            assert "np." not in params.to_config_text()
            assert ModelParams.from_config_text(params.to_config_text()) == params

    def test_config_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelParams.from_config_text("bogus = 1\n")
        with pytest.raises(ValueError, match="missing"):
            ModelParams.from_config_text("q_rec_D = 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            ModelParams.from_config_text("k_I = 1\nk_I = 2\n")

    def test_config_key_set_is_exact(self):
        assert CONFIG_KEYS == (
            "q_rec_D", "q_rec_U", "q_inf_D", "q_inf_U",
            "beta_UU", "beta_UD", "beta_DU", "beta_DD",
            "lambda", "v_H", "k_D", "k_I")


class TestStateDist:
    def test_renormalizes_tiny_drift(self):
        x = StateDist(0.25, 0.25, 0.25, 0.25 + 5e-10)
        assert math.fsum(x.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_clips_tiny_negative(self):
        x = StateDist(-5e-10, 0.5, 0.25, 0.25 + 5e-10)
        assert x.x_DI == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidSimplex):
            StateDist(0.5, 0.5, 0.5, 0.5)

    def test_rejects_large_negative(self):
        with pytest.raises(InvalidSimplex):
            StateDist(-0.01, 0.51, 0.25, 0.25)


class TestControlVector:
    def test_case_patterns(self):
        assert StrategyCase.PREFER_UNPROTECTED.control.as_tuple() == (1, 1, 0, 0)
        assert StrategyCase.PREFER_DEFENDED.control.as_tuple() == (0, 0, 1, 1)
        assert StrategyCase.DEFEND_SUSCEPTIBLE.control.as_tuple() == (1, 0, 0, 1)
        assert StrategyCase.DEFEND_INFECTED.control.as_tuple() == (0, 1, 1, 0)

    def test_case_recovery_from_control(self):
        for case in StrategyCase:
            assert case.control.case is case
        assert ControlVector(1, 0, 0, 0).case is None

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            ControlVector(2, 0, 0, 0)


class TestAlphaBeta:
    def test_interaction_terms_vanish_without_infected(self, base_params):
        x = StateDist(0.0, 0.6, 0.0, 0.4)
        rates = alpha_beta(base_params, x)
        assert rates.alpha == base_params.q_inf_D * base_params.v_H
        assert rates.beta == base_params.q_inf_U * base_params.v_H

    def test_direct_substitution(self):
        params = ModelParams(
            q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.3, q_inf_U=0.6,
            beta_UU=4.0, beta_UD=2.0, beta_DU=3.0, beta_DD=1.0,
            lam=1.0, v_H=1.0, k_D=0.5, k_I=1.0)
        x = StateDist(0.1, 0.4, 0.2, 0.3)
        rates = alpha_beta(params, x)
        assert rates.alpha == pytest.approx(0.8, abs=1e-15)
        assert rates.beta == pytest.approx(1.7, abs=1e-15)

    def test_symmetric_contact_rates(self, rng):
        for _ in range(50):
            b = float(rng.uniform(0.1, 3.0))
            params = random_params(rng)
            params = replace(params, beta_UU=b, beta_UD=b, beta_DU=b, beta_DD=b)
            x = random_state(rng)
            rates = alpha_beta(params, x)
            y = x.x_DI + x.x_UI
            assert rates.alpha - params.q_inf_D * params.v_H == pytest.approx(b * y, rel=1e-12)
            assert rates.beta - params.q_inf_U * params.v_H == pytest.approx(b * y, rel=1e-12)


class TestKineticRhs:
    def test_mass_conservation_is_exact(self, rng):
        for _ in range(10_000):
            params = random_params(rng)
            rhs = kinetic_rhs(params, random_state(rng), random_control(rng))
            assert float(np.sum(rhs)) == 0.0

    def test_boundary_positivity(self, rng):
        for _ in range(10_000):
            params = random_params(rng)
            zero_at = int(rng.integers(0, 4))
            comps = np.insert(rng.dirichlet(np.ones(3)), zero_at, 0.0)
            rhs = kinetic_rhs(params, StateDist.from_sequence(comps), random_control(rng))
            assert rhs[zero_at] >= 0.0

    def test_acyclic_fixed_point_is_a_root(self, base_params):
        fp = fixed_point_acyclic(base_params, StrategyCase.PREFER_UNPROTECTED)
        rhs = kinetic_rhs(base_params, fp.x, StrategyCase.PREFER_UNPROTECTED.control)
        assert float(np.max(np.abs(rhs))) <= 1e-10

    def test_disease_free_state_absorbing_without_attacker(self, base_params):
        params = replace(base_params, v_H=0.0)
        rhs = kinetic_rhs(params, StateDist(0.0, 0.0, 0.0, 1.0),
                          StrategyCase.PREFER_UNPROTECTED.control)
        assert np.array_equal(rhs, np.zeros(4))

    def test_matches_componentwise_formula(self, rng):
        # the closing component equals its direct expression to rounding
        for _ in range(200):
            params = random_params(rng)
            x = random_state(rng)
            u = random_control(rng)
            alpha, beta = alpha_beta(params, x)
            direct = (-x.x_US * beta + x.x_UI * params.q_rec_U
                      - params.lam * (x.x_US * u.u_US - x.x_DS * u.u_DS))
            rhs = kinetic_rhs(params, x, u)
            scale = max(1.0, params.max_rate())
            assert rhs[3] == pytest.approx(direct, abs=1e-12 * scale)

    def test_aggregated_sis_reduction(self, rng):
        # equal contact/infection/recovery rates collapse the infected mass
        # to a scalar logistic-with-recovery equation, for any control
        for _ in range(200):
            b = float(rng.uniform(0.2, 3.0))
            q_inf = float(rng.uniform(0.2, 3.0))
            v_D = float(rng.uniform(0.2, 3.0))
            params = ModelParams(
                q_rec_D=v_D, q_rec_U=v_D, q_inf_D=q_inf, q_inf_U=q_inf,
                beta_UU=b, beta_UD=b, beta_DU=b, beta_DD=b,
                lam=float(rng.uniform(0.5, 20.0)), v_H=float(rng.uniform(0.2, 2.0)),
                k_D=0.5, k_I=1.0)
            x = random_state(rng)
            u = random_control(rng)
            rhs = kinetic_rhs(params, x, u)
            total = x.x_DI + x.x_UI
            expected = (q_inf * params.v_H * (1.0 - total)
                        + b * total * (1.0 - total) - v_D * total)
            assert rhs[0] + rhs[2] == pytest.approx(expected, abs=1e-12)


class TestJacobian:
    def test_column_sums_vanish(self, rng):
        for _ in range(100):
            params = random_params(rng)
            jac = kinetic_jacobian(params, random_state(rng), random_control(rng))
            assert max(abs(sum(col)) for col in zip(*jac)) <= 1e-12 * params.max_rate()


class TestIntegrate:
    def test_zero_horizon(self, base_params, interior_state):
        traj = integrate(base_params, interior_state,
                         StrategyCase.PREFER_UNPROTECTED.control, horizon=0.0)
        assert traj == [(0.0, interior_state)]

    def test_stays_at_stable_fixed_point(self, base_params):
        fp = fixed_point_acyclic(base_params, StrategyCase.PREFER_UNPROTECTED)
        traj = integrate(base_params, fp.x, fp.case.control, horizon=5.0, step=1e-3)
        final = np.array(traj[-1][1].as_tuple())
        assert float(np.max(np.abs(final - np.array(fp.x.as_tuple())))) <= 1e-8

    def test_perturbation_decays(self):
        params = ModelParams(
            q_rec_D=1.0, q_rec_U=0.8, q_inf_D=0.3, q_inf_U=1.0,
            beta_UU=2.0, beta_UD=1.0, beta_DU=1.5, beta_DD=0.7,
            lam=2.0, v_H=1.0, k_D=0.5, k_I=1.0)
        fp = fixed_point_acyclic(params, StrategyCase.PREFER_UNPROTECTED)
        eps = 1e-2 / 2.0
        start = StateDist(eps, eps, fp.x.x_UI - eps, fp.x.x_US - eps)
        horizon = 50.0 / 0.3  # fifty times the slowest relevant rate
        traj = integrate(params, start, fp.case.control, horizon=horizon,
                         step=2e-3, sample_every=1000)
        final = np.array(traj[-1][1].as_tuple())
        assert float(np.max(np.abs(final - np.array(fp.x.as_tuple())))) <= 1e-4

    def test_negative_step_rejected(self, base_params, interior_state):
        with pytest.raises(ValueError):
            integrate(base_params, interior_state,
                      StrategyCase.PREFER_UNPROTECTED.control, horizon=1.0, step=-1.0)

    def test_oversized_step_raises(self, base_params):
        # a full-unit step against the fast switching drain overshoots hard
        start = StateDist(0.9, 0.05, 0.02, 0.03)
        with pytest.raises(StepTooLarge) as err:
            integrate(base_params, start, StrategyCase.PREFER_UNPROTECTED.control,
                      horizon=2.0, step=1.0)
        assert str(err.value) == (
            "integration state left the simplex: (954.2179610113518, -677.7679610113519, "
            "-1122.739342253738, 847.289342253738); shrink the step")


def _path_bytes(path):
    return "".join(",".join(repr(float(v)) for v in (t, *state.as_tuple())) + "\n"
                   for t, state in path).encode()


class TestIntegrateGolden:
    """Byte-pinned RK4 samples at the default step: every strategy case at a
    slow and a fast switching rate, sampling every step and every 7th."""

    @pytest.mark.parametrize("label, lam, horizon, every, samples, digest", [
        ("i", 5.0, 1.0, 1, 501, "970a059678c1932c216a9d2cb78b4c614561ba47e78700b911257457421c14a9"),
        ("i", 5.0, 1.0, 7, 73, "e84a71a009973187f47122f136a0edfdc86ec041b7901238b00f68f5e1b163b5"),
        ("i", 2000.0, 0.01, 1, 2001, "53d944449022f72f0cdca542d91490ede4c3541566516309c5368eee1fb48a53"),
        ("i", 2000.0, 0.01, 7, 287, "25a158011747a068ca5441c50811c1e702c23b8bceead5144562efe663bf8249"),
        ("ii", 5.0, 1.0, 1, 501, "2efdc203b3aaf81afe7d3dfedcae7cacbcf8702e03c878f8c23ac6ae5530f575"),
        ("ii", 5.0, 1.0, 7, 73, "3d41890ee4cb14f6faac6bbe16f377fda76b89389a42abf75b9e2a52d33458cd"),
        ("ii", 2000.0, 0.01, 1, 2001, "1e5af84fafe438cf86dfa21222992c7a66371a5f23e142aad4e154f251861947"),
        ("ii", 2000.0, 0.01, 7, 287, "54f253b4c941b2b90cdae02e8fa379ba17e5ca93108d71d19cbfa9388c53580d"),
        ("iii", 5.0, 1.0, 1, 501, "14db685e39949eef0b778e5c4ce44d7719728174439c0ae7cba8b56f3afe2826"),
        ("iii", 5.0, 1.0, 7, 73, "e8c2391b47b04fb75bc7b37ff0ec862ad207177c43afb192cbc94e7b5e828fdc"),
        ("iii", 2000.0, 0.01, 1, 2001, "c6af0aa87f9e1cfc837aa63f62be7521c742de06fcae145cb7230abd82b87063"),
        ("iii", 2000.0, 0.01, 7, 287, "30c6814aad234726d4f0548f00a4cc362160eeaf09e84be1f458ce61ae6ba28b"),
        ("iv", 5.0, 1.0, 1, 501, "2ac7868dde3f635c7b6819d1e0a2cfd3d97953d5726f49ccd8609fa3c9fd0ce6"),
        ("iv", 5.0, 1.0, 7, 73, "4a26e848dbfeb7bfc147fc9e5444310a66d1e02f004d08fa49daa578a721187e"),
        ("iv", 2000.0, 0.01, 1, 2001, "744bd9ce767573a3069118f4e6d0e096662c65e323bd0d299223e2682e05769c"),
        ("iv", 2000.0, 0.01, 7, 287, "6a0d6e1e0e982914f65627e90ee432e925fd432b774692024dc6cb37d48330bc"),
    ])
    def test_integrate_sha256(self, base_params, label, lam, horizon, every, samples, digest):
        control = StrategyCase.from_label(label).control
        path = integrate(replace(base_params, lam=lam), StateDist(0.3, 0.3, 0.2, 0.2),
                         control, horizon, sample_every=every)
        assert len(path) == samples
        assert hashlib.sha256(_path_bytes(path)).hexdigest() == digest


class TestClassifyDomain:
    def test_equal_recovery_reduces_to_rate_comparison(self, rng):
        for _ in range(200):
            params = random_params(rng, equal_recovery=True)
            x = random_state(rng)
            alpha, beta = alpha_beta(params, x)
            if beta > alpha + 1e-9:
                assert classify_domain(params, x) is Domain.D1

    def test_target_only_contact_rates_threshold(self):
        # with two contact levels the domain condition is a threshold on the
        # infected fraction; here the threshold is negative, so D1 always
        params = ModelParams(
            q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.7, q_inf_U=1.0,
            beta_UU=4.0, beta_UD=1.0, beta_DU=4.0, beta_DD=1.0,
            lam=1.0, v_H=1.0, k_D=0.5, k_I=1.0)
        assert params.beta_DU == params.beta_UU and params.beta_UD == params.beta_DD
        threshold = ((params.q_inf_D - params.q_inf_U) * params.v_H
                     + params.delta) / (params.beta_UU - params.beta_UD)
        assert threshold == pytest.approx(-0.1)
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert classify_domain(params, random_state(rng)) is Domain.D1

    def test_equal_rates_with_positive_delta_is_d2(self, base_params):
        # alpha == beta forces the recovery gap to decide
        params = replace(base_params, q_inf_D=1.0, q_inf_U=1.0,
                         beta_UU=1.0, beta_UD=1.0, beta_DU=1.0, beta_DD=1.0)
        assert params.delta > 0.0
        assert classify_domain(params, StateDist(0.1, 0.4, 0.2, 0.3)) is Domain.D2

    def test_equal_rates_and_recoveries_are_on_the_boundary(self, rng):
        # alpha == beta at every state and q_rec_D == q_rec_U, so the gap is exactly 0
        params = ModelParams(
            q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.8, q_inf_U=0.8,
            beta_UU=2.0, beta_UD=2.0, beta_DU=2.0, beta_DD=2.0,
            lam=50.0, v_H=1.0, k_D=0.3, k_I=1.0)
        for _ in range(100):
            x = random_state(rng)
            alpha, beta = alpha_beta(params, x)
            assert alpha == beta
            assert classify_domain(params, x) is Domain.BOUNDARY
