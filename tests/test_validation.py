import numpy as np
import pytest

from botnet_mfg import ModelParams, validation
from botnet_mfg.validation import (
    ALL_CHECKS,
    random_control,
    random_params,
    random_state,
    run_all,
)

SEED = 2024

# reprs of the first draws from default_rng(SEED), in this order
FIRST_DRAWS = (
    "ModelParams(q_rec_D=3.4115735561082814, q_rec_U=1.1501836860674626, "
    "q_inf_D=1.6163149513202895, q_inf_U=4.017383874196683, "
    "beta_UU=4.979430284440787, beta_UD=0.7969358948722538, "
    "beta_DU=0.9860366871145877, beta_DD=0.485755115433795, lam=1000.0, "
    "v_H=0.505314649472687, k_D=0.5887593155397302, k_I=1.0)",
    "ModelParams(q_rec_D=3.122356817736513, q_rec_U=3.122356817736513, "
    "q_inf_D=0.12268525230909033, q_inf_U=2.87208215002657, "
    "beta_UU=4.8805487683798345, beta_UD=2.3790840771032293, "
    "beta_DU=4.017199348412335, beta_DD=3.0244295968501813, lam=10.0, "
    "v_H=0.7856293791489006, k_D=0.20634391138553032, k_I=1.0)",
    "ModelParams(q_rec_D=2.269355278754893, q_rec_U=1.4624028587358748, "
    "q_inf_D=1.144470994096442, q_inf_U=4.387293416618497, "
    "beta_UU=4.055191733692506, beta_UD=1.4438005208508748, "
    "beta_DU=1.4149900972773943, beta_DD=1.4135080608813835, lam=2000.0, "
    "v_H=0.3275872116142822, k_D=0.46720881382534096, k_I=1.0)",
    "StateDist(x_DI=0.04905251963713757, x_DS=0.27481678994208747, "
    "x_UI=0.07558419501592709, x_US=0.6005464954048478)",
    "StateDist(x_DI=0.30407322596808606, x_DS=0.5959758308902653, "
    "x_UI=0.04592375087596805, x_US=0.05402719226568056)",
    "ControlVector(u_DI=1, u_DS=0, u_UI=0, u_US=1)",
)


def _choice_params(rng, lam=None, lo=0.1, hi=5.0, equal_recovery=False):
    """random_params as four size-2 uniform draws and rng.choice."""
    q_a, q_b = sorted(rng.uniform(lo, hi, size=2).tolist())
    if equal_recovery:
        q_a = q_b
    inf_a, inf_b = sorted(rng.uniform(lo, hi, size=2).tolist())
    if inf_a == inf_b:
        inf_b = inf_a + lo
    b_ud, b_uu = sorted(rng.uniform(lo, hi, size=2).tolist())
    b_dd, b_du = sorted(rng.uniform(lo, hi, size=2).tolist())
    return ModelParams(
        q_rec_D=q_b, q_rec_U=q_a, q_inf_D=inf_a, q_inf_U=inf_b,
        beta_UU=b_uu, beta_UD=b_ud, beta_DU=b_du, beta_DD=b_dd,
        lam=lam if lam is not None else float(rng.choice([1.0, 10.0, 1000.0])),
        v_H=float(rng.uniform(0.2, 2.0)), k_D=float(rng.uniform(0.0, 1.0)), k_I=1.0)


class TestDraws:
    def test_first_draws_are_pinned(self):
        rng = np.random.default_rng(SEED)
        draws = (
            random_params(rng),
            random_params(rng, lam=None, equal_recovery=True),
            random_params(rng, lam=2000.0),
            random_state(rng),
            random_state(rng),
            random_control(rng),
        )
        assert tuple(map(repr, draws)) == FIRST_DRAWS

    def test_params_consume_the_stream_of_the_choice_formulation(self):
        ours, ref = np.random.default_rng(SEED), np.random.default_rng(SEED)
        lams = set()
        for k in range(2000):
            lam = 5.0 if k % 7 == 0 else None
            kw = dict(lam=lam, equal_recovery=k % 3 == 0)
            got = random_params(ours, **kw)
            assert got == _choice_params(ref, **kw)
            assert type(got.lam) is float
            lams.add(got.lam)
        assert lams == {1.0, 5.0, 10.0, 1000.0}
        assert ours.random() == ref.random()

    def test_params_respect_the_sign_structure(self):
        rng = np.random.default_rng(SEED)
        for _ in range(500):
            p = random_params(rng)
            assert p.q_rec_D >= p.q_rec_U
            assert p.q_inf_U > p.q_inf_D
            assert p.beta_UU >= p.beta_UD and p.beta_DU >= p.beta_DD


class TestChecks:
    @pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
    def test_passes_at_20_trials(self, check):
        result = check(SEED, 20)
        assert result.ok and result.passed >= 20, result

    def test_run_all_derives_one_seed_per_check(self):
        results = run_all(SEED, 5)
        assert results == [check(SEED + i, 5) for i, check in enumerate(ALL_CHECKS)]
        assert validation.CheckResult("x", 1, 0).to_record() == {
            "name": "x", "passed": 1, "failed": 0, "detail": ""}
