import hashlib
import math
from bisect import bisect_left, bisect_right
from dataclasses import replace

import numpy as np
import pytest

from botnet_mfg import (
    ControlVector,
    ModelParams,
    SimConfig,
    StateDist,
    StrategyCase,
    case_interval,
    compare_ode,
    enumerate_hjb,
    kappa_thresholds,
    kinetic_rhs,
    simulate,
    simulate_myopic,
    solve_mfg,
)
from botnet_mfg import agentsim, hjb
from botnet_mfg.agentsim import (
    EVENT_MOVES,
    _UNIT,
    _dist_of,
    _resolve_control,
    generator_drift,
    initial_counts,
    rate_table,
    replica_trajectories,
)
from botnet_mfg.validation import random_control, random_params
from conftest import case_thresholds

CASE_I = StrategyCase.PREFER_UNPROTECTED
CASE_II = StrategyCase.PREFER_DEFENDED
CASE_III = StrategyCase.DEFEND_SUSCEPTIBLE
U_I = CASE_I.control
U_OFF = ControlVector(0, 0, 0, 0)


def sim_params(lam=5.0):
    return ModelParams(
        q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.3, q_inf_U=1.0,
        beta_UU=2.0, beta_UD=1.0, beta_DU=2.0, beta_DD=1.0,
        lam=lam, v_H=1.0, k_D=0.5, k_I=1.0)


class TestAgentCounts:
    """Head-counts rounded from a distribution: ``initial_counts``, the one
    rounding, which every run starts from."""

    def test_rounding_preserves_total(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 5000))
            x = StateDist.from_sequence(rng.dirichlet(np.ones(4)))
            counts = initial_counts(n, x)
            assert sum(counts) == n and all(type(c) is float for c in counts)

    def test_rounding_preserves_total_near_two_to_the_53(self):
        # the products n*c round up here and the floors sum to n + 1
        n = 7444312577870816
        x = StateDist(0.2373721850385354, 0.6021620526884818,
                      0.027603021929907046, 0.13286274034307588)
        assert sum(int(c) for c in initial_counts(n, x)) == n
        rng = np.random.default_rng(0)
        for _ in range(5000):
            n = int(rng.integers(2 ** 50, 2 ** 53, endpoint=True))
            x = StateDist.from_sequence(rng.dirichlet(np.ones(4)))
            counts = initial_counts(n, x)
            assert sum(int(c) for c in counts) == n, (n, x)
            for count, c in zip(counts, x.as_tuple()):
                assert abs(count - n * c) <= 1.0, (n, x)
        # the excess is never taken from an empty state
        x = StateDist(0.37410972163903494, 0.2958400775849636, 0.33005020077600156, 0.0)
        counts = initial_counts(8268214169269468, x)
        assert sum(int(c) for c in counts) == 8268214169269468 and counts[3] == 0.0

    @pytest.mark.parametrize("n_agents", [0, 10 ** 17, 10 ** 20])
    def test_rounding_rejects_population_outside_exact_float_counts(self, n_agents):
        with pytest.raises(ValueError, match="n_agents"):
            initial_counts(n_agents, StateDist(0.0, 0.0, 0.3, 0.7))

    def test_exact_fractions_round_exactly(self):
        assert initial_counts(10, StateDist(0.1, 0.2, 0.3, 0.4)) == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("n_agents", [1, 3, 2500])
    @pytest.mark.parametrize("policy", [U_I, "myopic"], ids=["fixed", "myopic"])
    def test_first_sample_row_is_the_rounded_counts(self, n_agents, policy):
        x = StateDist(0.3, 0.3, 0.2, 0.2)
        cfg = SimConfig(n_agents=n_agents, horizon=1.0, seed=3, policy=policy,
                        sample_interval=0.5, initial=x)
        run = simulate if policy == U_I else simulate_myopic
        row = run(sim_params(), cfg).states[0] * n_agents
        assert row.tolist() == initial_counts(n_agents, x)


def _reference_rates(params, n, u, counts):
    """The ten channel rates of the module docstring's table, written out
    independently of ``rate_table``."""
    c_DI, c_DS, c_UI, c_US = counts
    lam = params.lam
    return (c_DS * (params.q_inf_D * params.v_H), c_US * (params.q_inf_U * params.v_H),
            c_DI * params.q_rec_D, c_UI * params.q_rec_U,
            c_DS * (c_DI * (params.beta_DD / n) + c_UI * (params.beta_UD / n)),
            c_US * (c_DI * (params.beta_DU / n) + c_UI * (params.beta_UU / n)),
            c_DS * (lam * u.u_DS), c_US * (lam * u.u_US),
            c_DI * (lam * u.u_DI), c_UI * (lam * u.u_UI))


def _walk(rates, draw):
    """Gillespie's channel pick as a walk over the ten rates: the first
    channel whose cumulative sum exceeds the draw or, when the draw rounds
    up to the total, the last channel that moved the sum."""
    acc, last = 0.0, None
    for k, r in enumerate(rates):
        if acc + r > acc:
            last = k
        acc += r
        if draw < acc:
            return k
    return last


def _pick(sums, draw):
    """The simulator's channel pick on the running sums."""
    k = bisect_right(sums, draw)
    return bisect_left(sums, sums[9]) if k == 10 else k


ZEROABLE = ("q_inf_D", "q_inf_U", "q_rec_D", "q_rec_U", "v_H",
            "beta_UU", "beta_UD", "beta_DU", "beta_DD")


class TestEventRates:
    def test_absorbing_state_has_zero_rates(self):
        params = sim_params()
        params = replace(params, v_H=0.0)
        assert rate_table(params, 100, U_I)(0.0, 0.0, 0.0, 100.0) == (0.0,) * 10

    def test_single_contact_pair(self):
        params = ModelParams(
            q_rec_D=0.0, q_rec_U=0.0, q_inf_D=0.0, q_inf_U=0.0,
            beta_UU=1.0, beta_UD=0.0, beta_DU=0.0, beta_DD=0.0,
            lam=1.0, v_H=0.0, k_D=0.5, k_I=1.0)
        sums = rate_table(params, 2, U_OFF)(0.0, 0.0, 1.0, 1.0)
        assert sums == (0.0,) * 5 + (0.5,) * 5
        assert _pick(sums, 0.0) == _pick(sums, 0.5) == 5
        assert EVENT_MOVES[5] == (3, 2)

    def test_rates_nonnegative(self, rng):
        for _ in range(500):
            params = random_params(rng)
            counts = [float(v) for v in rng.integers(0, 100, size=4) + 1]
            sums = rate_table(params, int(sum(counts)), random_control(rng))(*counts)
            assert len(sums) == len(EVENT_MOVES) == 10
            assert sums[0] >= 0.0
            assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_running_sums_of_the_reference_rates(self, rng):
        for _ in range(500):
            params = random_params(rng)
            params = replace(params, **{k: 0.0 for k in ZEROABLE if rng.random() < 0.3})
            n = int(rng.integers(1, 10_000))
            u = random_control(rng)
            counts = [float(c) for c in rng.multinomial(n, rng.dirichlet(np.ones(4)))]
            acc, expected = 0.0, []
            for r in _reference_rates(params, n, u, counts):
                acc += r
                expected.append(acc)
            assert rate_table(params, n, u)(*counts) == tuple(expected)

    def test_float_and_int_head_counts_give_the_same_sums(self, rng):
        for k in range(2000):
            params = random_params(rng)
            n = int(rng.integers(1, 2 ** 53 + 1)) if k % 2 else int(rng.integers(1, 10_000))
            u = random_control(rng)
            counts = [int(c) for c in rng.multinomial(n, rng.dirichlet(np.ones(4)))]
            table = rate_table(params, n, u)
            from_int = table(*counts)
            from_float = table(*(float(c) for c in counts))
            assert [a.hex() for a in from_float] == [a.hex() for a in from_int]

    def test_bisect_picks_the_walked_channel(self, rng):
        # zeroed rates, draws on a running sum and draws equal to the total
        pairs = 0
        while pairs < 12_000:
            params = random_params(rng)
            params = replace(params, **{k: 0.0 for k in ZEROABLE if rng.random() < 0.3})
            n = int(rng.integers(1, 5000))
            u = random_control(rng)
            counts = [float(c) for c in rng.multinomial(n, rng.dirichlet(np.ones(4)))]
            rates = _reference_rates(params, n, u, counts)
            sums = rate_table(params, n, u)(*counts)
            if sums[9] == 0.0:
                continue
            draws = [(int(rng.integers(0, 2 ** 53)) * _UNIT) * sums[9] for _ in range(3)]
            draws += [sums[9], sums[int(rng.integers(10))], 0.0]
            for draw in draws:
                k = _pick(sums, draw)
                assert k == _walk(rates, draw), (params, n, u, counts, draw)
                assert rates[k] > 0.0
                pairs += 1

    def test_simulator_draw_at_the_total_takes_the_last_rising_channel(self, monkeypatch):
        # a unit of 1.0 puts every draw at or above the total, so every jump
        # takes the fallback: UI -> DI (channel 9) while UI holds an agent,
        # else DI -> UI (channel 8); recovery (channels 2, 3) never fires
        monkeypatch.setattr(agentsim, "_UNIT", 1.0)
        cfg = SimConfig(n_agents=3, horizon=2.0, seed=5, policy=ControlVector(1, 1, 1, 1),
                        sample_interval=0.1, initial=StateDist(0.0, 0.0, 1.0, 0.0))
        counts = simulate(sim_params(), cfg).states * 3
        assert np.all(counts >= 0.0)
        assert not counts[:, [1, 3]].any()
        assert set(counts[len(counts) // 2:, 2]) <= {0.0, 1.0}

    def test_raw_word_uniform_is_generator_random(self):
        # the simulator's waiting time and jump draw against
        # Generator.exponential and Generator.random() on a twin stream
        ref = np.random.Generator(np.random.PCG64(2024))
        rng = np.random.Generator(np.random.PCG64(2024))
        standard_exponential = rng.standard_exponential
        random_raw = rng.bit_generator.random_raw
        expected, got = [], []
        for i in range(100_000):
            total = float(1 + i % 97)
            expected.append((ref.exponential(1.0 / total), ref.random()))
            got.append((standard_exponential() * (1.0 / total), (random_raw() >> 11) * _UNIT))
        assert got == expected

    def test_generator_identity(self, rng):
        for _ in range(2000):
            params = random_params(rng)
            counts = [float(v) for v in rng.integers(0, 500, size=4)]
            if sum(counts) == 0.0:
                counts[0] = 1.0
            n = sum(counts)
            u = random_control(rng)
            drift = generator_drift(params, counts, u)
            rhs = kinetic_rhs(params, StateDist(*(c / n for c in counts)), u)
            scale = max(1.0, float(np.max(np.abs(rhs))))
            assert float(np.max(np.abs(np.subtract(drift, rhs)))) <= 1e-12 * scale


class TestSimulate:
    def test_single_frozen_agent(self):
        params = replace(sim_params(), v_H=0.0)
        cfg = SimConfig(n_agents=1, horizon=5.0, seed=1, policy=U_OFF,
                        sample_interval=1.0, initial=StateDist(0.0, 0.0, 0.0, 1.0))
        traj = simulate(params, cfg)
        assert len(traj.times) == 6
        assert np.array_equal(traj.states, np.tile([0.0, 0.0, 0.0, 1.0], (6, 1)))

    def test_determinism(self):
        params = sim_params()
        cfg = SimConfig(n_agents=500, horizon=5.0, seed=77, policy=U_I,
                        sample_interval=0.25, initial=StateDist(0.0, 0.0, 0.3, 0.7))
        a, b = simulate(params, cfg), simulate(params, cfg)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_counts_conserved_along_run(self):
        params = sim_params()
        cfg = SimConfig(n_agents=300, horizon=4.0, seed=5, policy=U_I,
                        sample_interval=0.1, initial=StateDist(0.1, 0.2, 0.3, 0.4))
        traj = simulate(params, cfg)
        sums = traj.states.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)
        assert np.all(traj.states >= 0.0)

    def test_long_run_mean_matches_fixed_point(self):
        from botnet_mfg.fixedpoint import fixed_point_acyclic

        params = sim_params()
        fp = fixed_point_acyclic(params, CASE_I)
        horizon = 100.0 / 0.3
        cfg = SimConfig(n_agents=2000, horizon=horizon, seed=9, policy=U_I,
                        sample_interval=0.5, initial=StateDist(0.0, 0.0, 0.3, 0.7))
        traj = simulate(params, cfg)
        burn = len(traj.times) // 2
        samples = traj.states[burn:, 2]
        assert abs(samples.mean() - fp.x.x_UI) <= 3.0 * samples.std()

    @pytest.mark.parametrize("n_agents", [0, -3, 2 ** 53 + 1, 10 ** 17, 10 ** 20, 2.5, 100.0])
    def test_rejects_population_outside_exact_float_counts(self, n_agents):
        with pytest.raises(ValueError, match="n_agents"):
            SimConfig(n_agents=n_agents, horizon=1.0, seed=0, policy=U_I,
                      sample_interval=0.5, initial=StateDist(0.0, 0.0, 0.3, 0.7))

    @pytest.mark.parametrize("initial", [(0, 0, 3, 0), [0.0, 0.0, 0.3, 0.7], None],
                             ids=["counts", "list", "none"])
    def test_rejects_an_initial_that_is_not_a_state_dist(self, initial):
        with pytest.raises(ValueError, match="initial"):
            SimConfig(n_agents=3, horizon=1.0, seed=0, policy=U_I,
                      sample_interval=0.5, initial=initial)

    @pytest.mark.parametrize("horizon, sample_interval", [
        (1.0, 1e-300), (1.0, math.nextafter(1e-6, 0.0)), (1e300, 1.0), (1e308, 1e-10)])
    def test_rejects_more_samples_than_the_cap(self, horizon, sample_interval):
        # constructed only: a run of such a config would keep every sample
        with pytest.raises(ValueError, match="sample_interval exceeds"):
            SimConfig(n_agents=10, horizon=horizon, seed=0, policy=U_I,
                      sample_interval=sample_interval, initial=StateDist(0.0, 0.0, 0.3, 0.7))

    def test_accepts_the_sample_cap(self):
        cfg = SimConfig(n_agents=10, horizon=1.0, seed=0, policy=U_I,
                        sample_interval=1e-6, initial=StateDist(0.0, 0.0, 0.3, 0.7))
        assert cfg.horizon / cfg.sample_interval == agentsim.MAX_SAMPLES

    @pytest.mark.parametrize("policy", [U_I, agentsim.MYOPIC], ids=["fixed", "myopic"])
    def test_replicas_share_the_sample_cap(self, policy, monkeypatch):
        def refuse(*args):
            raise AssertionError("a replica ran")

        monkeypatch.setattr(agentsim, "_run", refuse)
        cfg = SimConfig(n_agents=10, horizon=1.0, seed=0, policy=policy,
                        sample_interval=1e-3, initial=StateDist(0.0, 0.0, 0.3, 0.7))
        for replicas in (1001, 10 ** 400):
            with pytest.raises(ValueError, match="replicas \\* horizon / sample_interval"):
                replica_trajectories(sim_params(), cfg, replicas)
        agentsim.check_replicas(cfg, 1000)  # exactly at the cap

    def test_requires_fixed_policy(self):
        params = sim_params()
        cfg = SimConfig(n_agents=10, horizon=1.0, seed=0, policy="myopic",
                        sample_interval=0.5, initial=StateDist(0.0, 0.0, 0.3, 0.7))
        with pytest.raises(ValueError):
            simulate(params, cfg)


class TestCompareOde:
    def test_no_events_means_zero_deviation(self):
        params = replace(sim_params(), v_H=0.0)
        cfg = SimConfig(n_agents=50, horizon=3.0, seed=2, policy=U_OFF,
                        sample_interval=0.5, initial=StateDist(0.0, 0.0, 0.0, 1.0))
        stats = compare_ode(params, simulate(params, cfg), U_OFF)
        assert stats.mean == 0.0

    def test_reproducible(self):
        params = sim_params()
        cfg = SimConfig(n_agents=200, horizon=4.0, seed=3, policy=U_I,
                        sample_interval=0.2, initial=StateDist(0.0, 0.0, 0.3, 0.7))
        s1 = compare_ode(params, simulate(params, cfg), U_I)
        s2 = compare_ode(params, simulate(params, cfg), U_I)
        assert s1.mean == s2.mean

    def test_replica_stats_shape(self):
        params = sim_params()
        cfg = SimConfig(n_agents=200, horizon=3.0, seed=30, policy=U_I,
                        sample_interval=0.2, initial=StateDist(0.0, 0.0, 0.3, 0.7))
        trajs = replica_trajectories(params, cfg, 5)
        stats = compare_ode(params, trajs, U_I)
        assert len(stats.per_replica) == 5
        assert stats.mean == pytest.approx(np.mean(stats.per_replica))
        assert stats.std == pytest.approx(np.std(stats.per_replica, ddof=1))

    def test_one_ode_solve_per_distinct_start(self, monkeypatch):
        params = sim_params()
        cfg = SimConfig(n_agents=200, horizon=2.0, seed=40, policy=U_I,
                        sample_interval=0.25, initial=StateDist(0.0, 0.0, 0.3, 0.7))
        same = replica_trajectories(params, cfg, 5)
        other = replica_trajectories(
            params, replace(cfg, initial=StateDist(0.1, 0.1, 0.3, 0.5)), 2)
        singles = [compare_ode(params, traj, U_I).per_replica[0] for traj in same + other]
        calls = []
        real = agentsim.integrate
        monkeypatch.setattr(agentsim, "integrate",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        assert compare_ode(params, same, U_I).per_replica == tuple(singles[:5])
        assert len(calls) == 1
        calls.clear()
        assert compare_ode(params, same[:2] + other, U_I).per_replica == tuple(
            singles[:2] + singles[5:])
        assert len(calls) == 2

    @pytest.mark.parametrize("sample_interval, horizon", [
        (0.13, 2.0), (0.17, 1.0), (0.55, 8.0), (0.65, 2.0), (1.1, 8.0)])
    def test_ode_lands_on_every_sample(self, monkeypatch, sample_interval, horizon):
        # ceil(horizon / step) rounds one step past the grid on these
        params = sim_params()  # the kinetic_limit benchmark rates
        cfg = SimConfig(n_agents=50, horizon=horizon, seed=1, policy=U_I,
                        sample_interval=sample_interval,
                        initial=StateDist(0.0, 0.0, 0.3, 0.7))
        traj = simulate(params, cfg)
        paths = []
        real = agentsim.integrate
        monkeypatch.setattr(agentsim, "integrate",
                            lambda *a, **k: paths.append(real(*a, **k)) or paths[-1])
        stats = compare_ode(params, traj, U_I)
        (path,) = paths
        assert len(path) == len(traj.times)
        assert np.allclose([t for t, _ in path], traj.times, rtol=0.0, atol=1e-12)
        ode = np.array([state.as_tuple() for _, state in path])
        assert stats.mean == float(np.max(np.abs(ode - traj.states)))

    def test_deviation_shrinks_with_population(self):
        params = sim_params()
        devs = []
        for n in (100, 10_000):
            cfg = SimConfig(n_agents=n, horizon=4.0, seed=123, policy=U_I,
                            sample_interval=0.2, initial=StateDist(0.0, 0.0, 0.3, 0.7))
            stats = compare_ode(params, replica_trajectories(params, cfg, 8), U_I)
            devs.append(stats.mean)
        assert devs[1] < devs[0] / 3.0


class TestMyopic:
    def test_stays_near_equilibrium(self):
        params = ModelParams(
            q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
            beta_UU=4.0, beta_UD=0.5, beta_DU=4.0, beta_DD=0.5,
            lam=50.0, v_H=1.0, k_D=0.8, k_I=1.0)
        eqs = solve_mfg(params)
        assert [e.case for e in eqs] == [CASE_I]
        x_eq = eqs[0].x
        horizon = 50.0 / 0.5
        cfg = SimConfig(n_agents=5000, horizon=horizon, seed=17, policy="myopic",
                        sample_interval=0.5, initial=x_eq)
        traj = simulate_myopic(params, cfg)
        gaps = np.max(np.abs(traj.states - np.array(x_eq.as_tuple())), axis=1)
        assert float(np.mean(gaps <= 0.05)) > 0.9

    def test_converges_to_case_i_when_defense_expensive(self):
        base = ModelParams(
            q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
            beta_UU=4.0, beta_UD=0.5, beta_DU=4.0, beta_DD=0.5,
            lam=50.0, v_H=1.0, k_D=0.5, k_I=1.0)
        report = kappa_thresholds(base)
        params = base.with_kappa(min(report.kappa_star + 0.3, 1.0))
        cfg = SimConfig(n_agents=1000, horizon=30.0, seed=21, policy="myopic",
                        sample_interval=0.5, initial=StateDist(0.3, 0.3, 0.2, 0.2))
        traj = simulate_myopic(params, cfg)
        tail = traj.cases[len(traj.cases) // 2:]
        assert set(tail) == {"i"}

    def test_single_agent_deterministic_switch_log(self):
        params = sim_params(lam=2.0)
        cfg = SimConfig(n_agents=1, horizon=10.0, seed=4, policy="myopic",
                        sample_interval=0.5, initial=StateDist(0.0, 0.0, 1.0, 0.0),
                        myopic_recompute="event")
        t1 = simulate_myopic(params, cfg)
        t2 = simulate_myopic(params, cfg)
        assert t1.switches == t2.switches
        assert np.array_equal(t1.states, t2.states)

    def test_cases_column_present(self):
        params = sim_params()
        cfg = SimConfig(n_agents=100, horizon=2.0, seed=8, policy="myopic",
                        sample_interval=0.5, initial=StateDist(0.0, 0.0, 0.3, 0.7))
        traj = simulate_myopic(params, cfg)
        assert traj.cases is not None
        assert len(traj.cases) == len(traj.times)


LATTICE_SIZES = (3, 7, 100, 2499, 2500, 10_000)


def _lattice_counts(rng, n):
    """Head-counts (n_DI, n_DS, n_UI, n_US) summing to n, as Python ints."""
    return [int(c) for c in rng.multinomial(n, rng.dirichlet(np.ones(4)))]


def _interval_holds(params, counts, n, case):
    """The public reference: case_interval at the StateDist of the counts."""
    lo, hi = case_interval(params, _dist_of(counts, n), case)
    return lo <= params.kappa <= hi


class TestMyopicDecision:
    def test_adopts_cheapest_enumerated_solution(self, rng):
        lams = (1.0, 10.0, 20.0, 1000.0, 2000.0)
        compared = switched = 0
        while compared < 2000:
            params = random_params(rng, lam=lams[compared % 5])
            n = LATTICE_SIZES[compared % len(LATTICE_SIZES)]
            counts = _lattice_counts(rng, n)
            incumbent = random_control(rng).case
            solutions = enumerate_hjb(params, _dist_of(counts, n))
            if not solutions or any(s.degenerate for s in solutions):
                continue
            best = solutions[0]
            # a control outside the four cases has no interval
            if incumbent is not None and _interval_holds(params, counts, n, incumbent):
                assert incumbent is best.case, (params, counts, incumbent)
            else:
                notes = []
                sol = _resolve_control(params, counts, n, notes, 0.0)
                assert (sol.control, sol.mu) == (best.control, best.mu), (
                    params, counts, incumbent)
                assert not notes
                switched += 1
            compared += 1
        assert switched > 1000

    def test_kept_decision_prices_nothing(self, monkeypatch):
        # every case is priced inside an enumerate_hjb call, and those run
        # only on a switch or a note
        depth, enumerated, outside = [0], [], []
        real_enumerate, real_pricer = hjb.enumerate_hjb, hjb.case_pricer

        def enumerate_hjb(*args):
            enumerated.append(args)
            depth[0] += 1
            try:
                return real_enumerate(*args)
            finally:
                depth[0] -= 1

        def case_pricer(*args):
            if not depth[0]:
                outside.append(args)
            return real_pricer(*args)

        monkeypatch.setattr(hjb, "enumerate_hjb", enumerate_hjb)
        monkeypatch.setattr(hjb, "case_pricer", case_pricer)
        for recompute in ("interval", "event"):
            enumerated.clear()
            cfg = SimConfig(n_agents=200, horizon=4.0, seed=2024, policy="myopic",
                            sample_interval=0.25, initial=StateDist(0.3, 0.3, 0.2, 0.2),
                            myopic_recompute=recompute)
            traj = simulate_myopic(GAP_PARAMS, cfg)
            assert traj.switches and not outside
            assert len(enumerated) == 1 + len(traj.switches) + len(traj.notes)

    def test_shared_end_keeps_incumbent(self):
        # kappa = A/P is the upper end of case ii and the lower end of case iii
        counts, n = [3, 3, 2, 2], 10
        x = _dist_of(counts, n)
        assert x == StateDist(0.3, 0.3, 0.2, 0.2)
        base = replace(GAP_PARAMS, q_rec_D=1.5)
        th = case_thresholds(base, x)
        params = base.with_kappa(th["A"] / th["P"])
        holding = {case for case in StrategyCase
                   if _interval_holds(params, counts, n, case)}
        assert holding == {CASE_II, CASE_III}
        best = min((hjb.solve_case(params, x, case) for case in (CASE_II, CASE_III)),
                   key=lambda s: (s.mu, s.case.label))
        assert not _interval_holds(params, counts, n, CASE_I)
        sol = _resolve_control(params, counts, n, [], 0.0)
        assert (sol.control, sol.mu) == (best.control, best.mu)


class TestKeptDecisionFromCounts:
    """The myopic run checks its incumbent from the head-counts."""

    def test_lattice_fractions_are_statedist_floats(self, rng):
        # the run divides c/n by their fsum, the floats StateDist(c/n)
        # stores; with kappa on an end of case_interval there, the raw
        # fractions c/n can give the other verdict
        checked = differs = 0
        for n in LATTICE_SIZES:
            for _ in range(500):
                counts = _lattice_counts(rng, n)
                fractions = [c / n for c in counts]
                total = math.fsum(fractions)
                if total == 1.0:
                    continue
                x = StateDist(*fractions)
                assert (x.x_DI, x.x_UI) == (fractions[0] / total, fractions[2] / total)
                for case in StrategyCase:
                    k = hjb.END_INDEX[case]
                    for end in case_interval(GAP_PARAMS, x, case):
                        if not (math.isfinite(end) and end >= 0.0):
                            continue
                        params = GAP_PARAMS.with_kappa(end)
                        holds = _interval_holds(params, counts, n, case)
                        raw = hjb.interval_table(params)(fractions[0], fractions[2])
                        differs += (raw[k] <= params.kappa <= raw[k + 1]) != holds
                        checked += 1
        assert checked > 100 and differs > 0

    def test_agrees_with_holds_at_the_statedist(self, monkeypatch):
        # every evaluation of the interval table in a per-event run reads
        # the StateDist of the head-counts that the next rate-table call
        # sees; P = 0 without infected agents under the zero rates
        pending, checks = [], []
        real_table, real_rates = hjb.interval_table, agentsim.rate_table

        def interval_table(params):
            table = real_table(params)
            return lambda *x: pending.append(x) or table(*x)

        def rate_table(params, n, u):
            sums = real_rates(params, n, u)

            def traced(*counts):
                x = _dist_of(counts, n)
                for x_DI, x_UI in pending:
                    assert (x_DI, x_UI) == (x.x_DI, x.x_UI), (n, counts)
                    checks.append((counts[0] / n, counts[2] / n) != (x_DI, x_UI))
                pending.clear()
                return sums(*counts)
            return traced

        monkeypatch.setattr(hjb, "interval_table", interval_table)
        monkeypatch.setattr(agentsim, "rate_table", rate_table)
        zero_rates = replace(GAP_PARAMS, q_rec_D=0.0, v_H=0.0, beta_DD=0.0)
        for params, n, initial in (
                (GAP_PARAMS, 2499, StateDist(0.3, 0.3, 0.2, 0.2)),
                (GAP_PARAMS, 10_000, StateDist(0.3, 0.3, 0.2, 0.2)),
                (zero_rates, 2499, StateDist(0.0, 0.6, 0.0, 0.4))):
            checks.clear()
            cfg = SimConfig(n_agents=n, horizon=0.5, seed=7, policy="myopic",
                            sample_interval=0.05, initial=initial, myopic_recompute="event")
            traj = simulate_myopic(params, cfg)
            assert not pending
            assert len(checks) > 1000, (n, len(checks))
            if params is GAP_PARAMS:
                # the fsum normalization changed the fractions the table read
                assert any(checks) and traj.switches, n
            else:
                assert case_thresholds(params, initial)["P"] == 0.0
            # a failed incumbent is never re-adopted
            assert all(s.old_case != s.new_case for s in traj.switches)

    def test_one_table_per_run_and_none_for_a_fixed_control(self, monkeypatch):
        # depth 0: built by the run; depth 1: inside an enumerate_hjb call
        builds, depth = [], [0]
        real_table, real_enumerate = hjb.interval_table, hjb.enumerate_hjb

        def enumerate_hjb(*args):
            depth[0] += 1
            try:
                return real_enumerate(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(hjb, "enumerate_hjb", enumerate_hjb)
        monkeypatch.setattr(hjb, "interval_table",
                            lambda params: builds.append(depth[0]) or real_table(params))
        cfg = SimConfig(n_agents=200, horizon=4.0, seed=2024, policy=U_I,
                        sample_interval=0.25, initial=StateDist(0.3, 0.3, 0.2, 0.2))
        simulate(sim_params(), cfg)
        assert builds == []
        for recompute in ("interval", "event"):
            builds.clear()
            traj = simulate_myopic(GAP_PARAMS, replace(cfg, policy="myopic",
                                                       myopic_recompute=recompute))
            assert len(traj.switches) > 1 and not traj.notes
            assert builds.count(0) == 1
            assert builds.count(1) == 1 + len(traj.switches)

    def test_full_rule_runs_only_on_a_switch_or_a_note(self, monkeypatch):
        calls = []
        monkeypatch.setattr(agentsim, "_dist_of",
                            lambda *args: calls.append(args) or _dist_of(*args))
        cfg = SimConfig(n_agents=200, horizon=4.0, seed=2024, policy="myopic",
                        sample_interval=0.25, initial=StateDist(0.3, 0.3, 0.2, 0.2),
                        myopic_recompute="event")
        traj = simulate_myopic(GAP_PARAMS, cfg)
        assert traj.switches
        assert len(calls) == 1 + len(traj.switches) + len(traj.notes)


def _simulate_csv(traj):
    """The bytes of `botnet-mfg simulate` CSV for one replica, followed by
    the `--switch-log` CSV."""
    myopic = traj.cases is not None
    lines = ["t,x_DI,x_DS,x_UI,x_US" + (",case" if myopic else "")]
    for k in range(len(traj.times)):
        row = [repr(float(traj.times[k]))] + [repr(float(v)) for v in traj.states[k]]
        lines.append(",".join(row + ([traj.cases[k]] if myopic else [])))
    lines.append("t,old_case,new_case,mu")
    lines += [f"{s.t!r},{s.old_case},{s.new_case},{s.mu!r}" for s in traj.switches]
    return ("\n".join(lines) + "\n").encode()


# README rates at lambda = 20, kappa = 0.6: no equilibrium, so the myopic
# control keeps switching
GAP_PARAMS = ModelParams(
    q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
    beta_UU=4.0, beta_UD=0.5, beta_DU=4.0, beta_DD=0.5,
    lam=20.0, v_H=1.0, k_D=0.6, k_I=1.0)


class TestGolden:
    """Byte-pinned SSA output at small N and fixed seeds."""

    @pytest.mark.parametrize("policy, recompute, n, switches, digest", [
        (U_I, "interval", 300, 0,
         "e23c3808ce70568d9ff89a8c61a2917ec996486adf42e55e77b60e89f4e6be81"),
        ("myopic", "interval", 200, 13,
         "5dafd00773f541c5a49cec5429246c0cf3427eea0187c8a819c90ee78424b86f"),
        ("myopic", "event", 200, 70,
         "11475e283716d00daf20ad69060af1181e897f807faacccf5f376d95285ec8b8"),
    ])
    def test_simulate_csv_sha256(self, policy, recompute, n, switches, digest):
        params = sim_params() if policy == U_I else GAP_PARAMS
        cfg = SimConfig(n_agents=n, horizon=4.0, seed=2024, policy=policy,
                        sample_interval=0.25, initial=StateDist(0.3, 0.3, 0.2, 0.2),
                        myopic_recompute=recompute)
        run = simulate if policy == U_I else simulate_myopic
        traj = run(params, cfg)
        assert len(traj.switches) == switches
        assert hashlib.sha256(_simulate_csv(traj)).hexdigest() == digest

    @pytest.mark.parametrize("zeroed, u, n, digest", [
        ((), ControlVector(1, 1, 1, 1), 300,
         "bbdb3711ee1330cbc2731e52ef4f7ce9767d5811849789c19b6f7fa9f13e3afe"),
        (("q_inf_D", "q_rec_U"), ControlVector(0, 1, 0, 1), 300,
         "5d8e014584bbc72eabe6f1ee28e9dfb4afc1d1599a7f7723a8ee8cd2d62033e0"),
        ((), ControlVector(1, 1, 1, 1), 10_000,
         "aa23637d447d102ed6868e3dcd03eb2993542dc795c0201dd522424a999c053c"),
    ], ids=["all-channels", "channels-0-3-8-9-zero", "all-channels-large-n"])
    def test_fixed_control_sha256(self, zeroed, u, n, digest):
        params = replace(sim_params(), **{name: 0.0 for name in zeroed})
        cfg = SimConfig(n_agents=n, horizon=4.0, seed=2024, policy=u,
                        sample_interval=0.25, initial=StateDist(0.3, 0.3, 0.2, 0.2))
        traj = simulate(params, cfg)
        assert hashlib.sha256(_simulate_csv(traj)).hexdigest() == digest

    def test_benchmark_myopic_config_sha256(self):
        # the per-event myopic_feedback configuration, over its first second
        cfg = SimConfig(n_agents=2500, horizon=1.0, seed=1, policy="myopic",
                        sample_interval=0.5, initial=StateDist(0.3, 0.3, 0.2, 0.2),
                        myopic_recompute="event")
        traj = simulate_myopic(GAP_PARAMS, cfg)
        assert len(traj.switches) == 44
        assert hashlib.sha256(_simulate_csv(traj)).hexdigest() == (
            "bec009906387b9ec61122a4eb8c612719dd55609bad9c5bc2c7977e004552bd3")
