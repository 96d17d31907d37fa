import numpy as np
import pytest

from botnet_mfg import ModelParams, StateDist, alpha_beta
from botnet_mfg.hjb import _thresholds
from botnet_mfg.validation import random_control, random_params, random_state

__all__ = ["case_thresholds", "random_params", "random_state", "random_control"]


def case_thresholds(params: ModelParams, x: StateDist) -> dict[str, float]:
    """The four quantities A, B, P, Q deciding case validity at x, by name."""
    return dict(zip("ABPQ", _thresholds(params, *alpha_beta(params, x))))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def base_params():
    """A well-behaved parameter set satisfying the natural sign structure."""
    return ModelParams(
        q_rec_D=1.2, q_rec_U=1.0, q_inf_D=0.3, q_inf_U=1.0,
        beta_UU=2.0, beta_UD=1.0, beta_DU=1.5, beta_DD=0.7,
        lam=10.0, v_H=1.0, k_D=0.5, k_I=1.0,
    )


@pytest.fixture
def equal_recovery_params():
    return ModelParams(
        q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
        beta_UU=4.0, beta_UD=0.5, beta_DU=4.0, beta_DD=0.5,
        lam=1000.0, v_H=1.0, k_D=0.5, k_I=1.0,
    )


@pytest.fixture
def interior_state():
    return StateDist(0.1, 0.4, 0.2, 0.3)
