import math

import numpy as np
import pytest

from botnet_mfg import ModelParams, StateDist, StrategyCase, alpha_beta
from botnet_mfg.validation import random_control, random_params, random_state

__all__ = ["case_thresholds", "reference_interval", "random_params", "random_state",
           "random_control"]


def case_thresholds(params: ModelParams, x: StateDist) -> dict[str, float]:
    """The four quantities A, B, P, Q deciding case validity at x, by name,
    written out as the ``hjb`` module docstring defines them."""
    alpha, beta = alpha_beta(params, x)
    lam, q_D, q_U = params.lam, params.q_rec_D, params.q_rec_U
    return {"A": (beta + lam) * q_D - (alpha + lam) * q_U,
            "B": beta * (lam + q_D) - alpha * (lam + q_U),
            "P": (alpha + q_D) * (beta + q_U + lam),
            "Q": (alpha + q_D + lam) * (beta + q_U)}


def _least(n: float, d: float) -> float:
    """Least kappa with kappa*d >= n, d >= 0; -_least(-n, d) is the greatest with <=."""
    if d > 0.0:
        return n / d
    return -math.inf if n <= 0.0 else math.inf


def reference_interval(params: ModelParams, x: StateDist,
                       case: StrategyCase) -> tuple[float, float]:
    """case's kappa interval at x from the inequalities of the ``hjb``
    module docstring, one ``_least`` per inequality."""
    th = case_thresholds(params, x)
    A, B, P, Q = th["A"], th["B"], th["P"], th["Q"]
    if case is StrategyCase.PREFER_UNPROTECTED:
        return max(_least(A, Q), _least(B, Q)), math.inf
    if case is StrategyCase.PREFER_DEFENDED:
        return -math.inf, min(-_least(-A, P), -_least(-B, P))
    if case is StrategyCase.DEFEND_SUSCEPTIBLE:
        return _least(A, P), -_least(-B, Q)
    return _least(B, P), -_least(-A, Q)


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
