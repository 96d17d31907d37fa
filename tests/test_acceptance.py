"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import time

import numpy as np
import pytest

from botnet_mfg import (
    ModelParams,
    StateDist,
    StrategyCase,
    compare_ode,
    enumerate_hjb,
    kappa_thresholds,
    kinetic_rhs,
    solve_case,
    solve_mfg,
    sweep_kappa,
)
from botnet_mfg.agentsim import SimConfig, generator_drift, replica_trajectories
from botnet_mfg.cli import main as cli_main
from botnet_mfg.fixedpoint import (
    endemic_state,
    fixed_point_acyclic,
    fixed_point_mixed,
    fixed_point_residual,
)
from botnet_mfg.hjb import DEGENERATE_SLACK, bellman_residual, control_attains_min
from botnet_mfg.model import Domain, classify_domain
from botnet_mfg.validation import _oracle_matches, random_control, random_params, random_state

CASE_I = StrategyCase.PREFER_UNPROTECTED
CASE_II = StrategyCase.PREFER_DEFENDED
CASE_III = StrategyCase.DEFEND_SUSCEPTIBLE
CASE_IV = StrategyCase.DEFEND_INFECTED

LAMBDAS = (1.0, 10.0, 1000.0)


def _report(num: int, desc: str, elapsed: float | None = None,
            bound: float | None = None) -> None:
    extra = ""
    if bound is not None:
        extra = f"  [{elapsed:.1f}s < {bound:.0f}s]"
    print(f"\nACCEPTANCE {num:>2} PASS: {desc}{extra}")


def _draw(rng):
    lam = float(rng.choice(LAMBDAS))
    return random_params(rng, lam=lam), random_state(rng)


def test_criterion_1_hjb_residuals():
    """Valid closed-form solutions satisfy the optimality system to
    1e-10 * max(1, |mu|) over 10^4 draws with rates in [0.1, 5]."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        params, x = _draw(rng)
        for case in StrategyCase:
            sol = solve_case(params, x, case)
            if not sol.valid:
                continue
            checked += 1
            tol = 1e-10 * max(1.0, abs(sol.mu))
            assert bellman_residual(params, x, sol) <= tol
            assert control_attains_min(sol, DEGENERATE_SLACK * params.k_I)
    elapsed = time.perf_counter() - start
    assert checked >= 10_000
    assert elapsed < 10.0
    _report(1, f"HJB residual suite ({checked} valid solutions)", elapsed, 10.0)


def test_criterion_2_oracle_equivalence():
    """Closed-form enumeration matches the 16-control oracle on 10^4
    draws; the distinct-solution count never exceeds 2."""
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    for _ in range(10_000):
        params, x = _draw(rng)
        assert _oracle_matches(params, x)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, "oracle equivalence on 10^4 random inputs", elapsed, 30.0)


def test_criterion_3_uniqueness_equal_recovery():
    """Equal recovery rates: exactly one solution at every sampled state
    in D1 off threshold equalities; 10^4 trials, zero violations."""
    rng = np.random.default_rng(1003)
    violations = 0
    trials = 0
    while trials < 10_000:
        lam = float(rng.choice(LAMBDAS))
        params = random_params(rng, lam=lam, equal_recovery=True)
        x = random_state(rng)
        if classify_domain(params, x) is not Domain.D1:
            continue
        sols = enumerate_hjb(params, x)
        if any(s.degenerate for s in sols):
            continue
        trials += 1
        if len(sols) != 1:
            violations += 1
    assert violations == 0
    _report(3, "uniqueness under equal recovery rates (10^4 D1 states)")


def test_criterion_4_fixed_point_residuals_and_stability():
    """Acyclic and mixed stationary points have kinetic residual <= 1e-9;
    case-i spectrum matches the closed form to 1e-9 with one eigenvalue
    exactly -lam; acyclic points always stable; 10^4 draws."""
    rng = np.random.default_rng(1004)
    mixed_points = 0
    for _ in range(10_000):
        lam = float(rng.choice(LAMBDAS))
        params = random_params(rng, lam=lam)

        fp_i = fixed_point_acyclic(params, CASE_I)
        fp_ii = fixed_point_acyclic(params, CASE_II)
        for fp in (fp_i, fp_ii):
            assert fixed_point_residual(params, fp) <= 1e-9
            assert fp.stable

        xs = fp_i.x.x_UI
        expected = sorted([
            (1.0 - 2.0 * xs) * params.beta_UU
            - params.q_inf_U * params.v_H - params.q_rec_U,
            -params.lam - (params.q_rec_D + params.q_inf_D * params.v_H
                           + xs * params.beta_UD),
            -params.lam,
        ])
        got = sorted(e.real for e in fp_i.eigenvalues)
        assert any(e == -params.lam for e in got)
        for a, b in zip(got, expected):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

        for case in (CASE_III, CASE_IV):
            for fp in fixed_point_mixed(params, case):
                mixed_points += 1
                assert fixed_point_residual(params, fp) <= 1e-9
    assert mixed_points > 10_000
    _report(4, f"fixed-point residuals and case-i spectrum ({mixed_points} mixed points)")


def test_criterion_5_large_lambda_convergence_rate():
    """Distance between the quartic and asymptotic mixed points decays
    with log-log slope -1.0 +/- 0.2 over lam in {10, 10^2, 10^3, 10^4}."""
    start = time.perf_counter()
    lams = (10.0, 100.0, 1000.0, 10_000.0)
    for case in (CASE_III, CASE_IV):
        means = []
        for lam in lams:
            rng = np.random.default_rng(1005)  # same draws at every lam
            dists = []
            for _ in range(20):
                params = random_params(rng, lam=lam, hi=2.0)
                asym = endemic_state(params, case)
                pts = fixed_point_mixed(params, case)
                assert pts
                dists.append(min(
                    float(np.max(np.abs(np.array(fp.x.as_tuple()) - np.array(asym.as_tuple()))))
                    for fp in pts))
            means.append(np.mean(dists))
        slope = float(np.polyfit(np.log(lams), np.log(means), 1)[0])
        assert -1.2 <= slope <= -0.8, (case.label, slope, means)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, "large-lambda asymptotic rate (slope -1.0 +/- 0.2)", elapsed, 10.0)


def test_criterion_6_equilibrium_count_bounds():
    """At lam = 10^3, random parameter draws produce at most 4 equilibria,
    at most one per case, all stable; 10^3 draws, zero violations."""
    rng = np.random.default_rng(1006)
    for _ in range(1000):
        params = random_params(rng, lam=1000.0, hi=2.0)
        eqs = solve_mfg(params)
        assert len(eqs) <= 4
        cases = [e.case for e in eqs]
        assert len(cases) == len(set(cases))
        assert all(e.stable for e in eqs)
    _report(6, "equilibrium count bounds at lam = 10^3 (10^3 draws)")


REGIME_ONE = ModelParams(
    q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
    beta_UU=4.0, beta_UD=0.5, beta_DU=4.0, beta_DD=0.5,
    lam=2000.0, v_H=1.0, k_D=0.5, k_I=1.0)
REGIME_TWO = ModelParams(
    q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.3, q_inf_U=2.0,
    beta_UU=3.0, beta_UD=3.0, beta_DU=3.0, beta_DD=3.0,
    lam=2000.0, v_H=1.0, k_D=0.5, k_I=1.0)


def _count_bands(rows):
    blocks = []
    for row in rows:
        if row.near_bifurcation:
            continue
        if not blocks or blocks[-1] != row.count:
            blocks.append(row.count)
    return blocks


def _edges(rows):
    return [0.5 * (a.kappa + b.kappa)
            for a, b in zip(rows, rows[1:]) if a.count != b.count]


def test_criterion_7_bifurcation_band_structure():
    """Both threshold orderings reproduce their band patterns over a
    200-point sweep, with edges within 10/lam of the thresholds."""
    start = time.perf_counter()

    for params, span, pattern in (
        (REGIME_ONE, (0.45, 0.72), [1, 0, 1]),
        (REGIME_TWO, (0.25, 0.40), [1, 2, 1]),
    ):
        report = kappa_thresholds(params)
        lo, hi = sorted((report.kappa_star, report.kappa_bar_star))
        assert span[0] < lo < hi < span[1]
        rows = sweep_kappa(params, span[0], span[1], 200)
        assert _count_bands(rows) == pattern
        window = 10.0 / params.lam
        edges = _edges(rows)
        assert min(abs(e - lo) for e in edges) <= window
        assert min(abs(e - hi) for e in edges) <= window

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(7, "bifurcation band patterns 1/0/1 and 1/2/1", elapsed, 60.0)


def test_criterion_8_kinetic_limit_scaling():
    """Mean sup-deviation between empirical runs and the kinetic solution
    decays with log-log slope -0.5 +/- 0.15 over N in {10^2, 10^3, 10^4},
    50 replicas each, fixed case-i control."""
    start = time.perf_counter()
    params = ModelParams(
        q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.3, q_inf_U=1.0,
        beta_UU=2.0, beta_UD=1.0, beta_DU=2.0, beta_DD=1.0,
        lam=5.0, v_H=1.0, k_D=0.5, k_I=1.0)
    u = CASE_I.control
    x0 = StateDist(0.0, 0.0, 0.3, 0.7)
    sizes = (100, 1000, 10_000)
    means = []
    for n in sizes:
        cfg = SimConfig(n_agents=n, horizon=8.0, seed=8000 + n, policy=u,
                        sample_interval=0.2, initial=x0)
        trajs = replica_trajectories(params, cfg, 50)
        stats = compare_ode(params, trajs, u)
        means.append(stats.mean)
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    elapsed = time.perf_counter() - start
    assert -0.65 <= slope <= -0.35, (slope, means)
    assert elapsed < 300.0
    _report(8, f"propagation-of-chaos slope {slope:.3f} in [-0.65, -0.35]",
            elapsed, 300.0)


def test_criterion_9_byte_determinism(tmp_path, capsys):
    """Identical config and seed give byte-identical simulate and sweep
    output files."""
    config = tmp_path / "params.cfg"
    config.write_text(REGIME_ONE.to_config_text())

    sim_outs = []
    for name in ("sim_a.csv", "sim_b.csv"):
        out = tmp_path / name
        code = cli_main([
            "simulate", "--config", str(config), "--x", "0,0,0.3,0.7",
            "--n-agents", "400", "--horizon", "4.0", "--seed", "99",
            "--policy", "fixed:i", "--sample-interval", "0.25",
            "--set", "lambda=5", "--out", str(out)])
        assert code == 0
        sim_outs.append(out.read_bytes())
    assert sim_outs[0] == sim_outs[1]

    sweep_outs = []
    for name in ("sweep_a.csv", "sweep_b.csv"):
        out = tmp_path / name
        code = cli_main([
            "sweep", "--config", str(config), "--kappa-min", "0.45",
            "--kappa-max", "0.72", "--steps", "50", "--out", str(out)])
        assert code == 0
        sweep_outs.append(out.read_bytes())
    assert sweep_outs[0] == sweep_outs[1]
    capsys.readouterr()
    _report(9, "byte-identical simulate and sweep reruns")


def test_criterion_10_generator_identity():
    """Event rates scaled by 1/N reproduce the kinetic right-hand side at
    x = n/N to 1e-12 on 10^4 random integer-valued float count vectors."""
    rng = np.random.default_rng(1010)
    for _ in range(10_000):
        params = random_params(rng)
        u = random_control(rng)
        counts = [float(v) for v in rng.integers(0, 1000, size=4)]
        if sum(counts) == 0.0:
            counts[2] = 1.0
        n = sum(counts)
        drift = generator_drift(params, counts, u)
        rhs = kinetic_rhs(params, StateDist(*(c / n for c in counts)), u)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert float(np.max(np.abs(np.subtract(drift, rhs)))) <= 1e-12 * scale
    _report(10, "generator identity on 10^4 count vectors")
