"""Exact event-driven simulation of the N-agent Markov dynamics.

The population jumps one agent at a time through ten event channels;
interaction rates carry the 1/N mean-field scaling, so event rates divided
by N reproduce the kinetic right-hand side exactly at x = n/N:

    idx  move       rate
    0    DS -> DI   n_DS * q_inf_D * v_H                       direct infection
    1    US -> UI   n_US * q_inf_U * v_H
    2    DI -> DS   n_DI * q_rec_D                             recovery
    3    UI -> US   n_UI * q_rec_U
    4    DS -> DI   n_DS * (n_DI*beta_DD + n_UI*beta_UD) / N   contact
    5    US -> UI   n_US * (n_DI*beta_DU + n_UI*beta_UU) / N
    6    DS -> US   lam * n_DS * u_DS                          switching
    7    US -> DS   lam * n_US * u_US
    8    DI -> UI   lam * n_DI * u_DI
    9    UI -> DI   lam * n_UI * u_UI

``rate_table`` is the only place these formulas live: it returns their
running sums, the simulator draws its jumps from them and
``generator_drift`` takes each rate back as a step of the sums to check
it against the kinetic right-hand side.

Waiting times are exponential with the total rate; the jump channel is
drawn proportionally to the rates (the classical direct stochastic
simulation algorithm).  The channel is ``bisect_right`` of the uniform
times the total on the running sums: a zero rate repeats its
predecessor's sum and is never picked, so this is the channel a walk
over the ten rates picks.  The uniform is the top 53 bits of the
generator's next raw word, the same number ``Generator.random()``
returns.  Head-counts are floats; ``SimConfig`` keeps them at most
2**53, where each count and each product with it is the float an integer
count gives.  Randomness comes from a 64-bit PCG64 generator; each
replica uses its own stream seeded with base_seed + replica_index, so
runs are reproducible bit for bit.

In myopic mode the incumbent case is kept while its exact kappa
interval holds at the head-counts: the run builds ``hjb.interval_table``
once, the only place the validity rule lives, and after each jump (or
sample) calls it on the fractions c/n divided by their fsum, the floats
a ``StateDist`` of them stores; that normalization is all the run adds.
When the interval fails, ``_resolve_control`` builds a ``StateDist`` and
``hjb.enumerate_hjb`` at it picks the cheapest holding case.

``compare_ode`` integrates the kinetic ODE once per distinct starting
row and sample grid among the trajectories it is given, so the replicas
of one configuration share a single solve.  With ``validation``, this is
the only module that imports numpy: for its PCG64 streams and arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import hjb as hjb_mod
from .model import (
    ControlVector,
    ModelParams,
    StateDist,
    default_step,
    integrate,
)

# channel -> (source index, destination index) in state order (DI, DS, UI, US)
EVENT_MOVES: tuple[tuple[int, int], ...] = (
    (1, 0), (3, 2), (0, 1), (2, 3), (1, 0),
    (3, 2), (1, 3), (3, 1), (0, 2), (2, 0),
)

MYOPIC = "myopic"
# head-counts (n_DI, n_DS, n_UI, n_US) -> running sums of the ten channel rates
RateTable = Callable[[float, float, float, float], tuple[float, ...]]
_UNIT = 2.0 ** -53   # a 53-bit integer times this is a uniform in [0, 1)
MAX_AGENTS = 2 ** 53  # float head-counts are exact up to here
MAX_SAMPLES = 10 ** 6  # samples of a run, over all its replicas, each kept as one row in memory


def _check_n_agents(n_agents: int) -> None:
    if not isinstance(n_agents, (int, np.integer)) or not 1 <= n_agents <= MAX_AGENTS:
        raise ValueError(f"n_agents must be an integer in [1, 2**53], got {n_agents!r}")


def initial_counts(n_agents: int, x: StateDist) -> list[float]:
    """Round a distribution to head-counts (n_DI, n_DS, n_UI, n_US), as
    floats, summing to n_agents (largest remainders win the leftover agents)."""
    _check_n_agents(n_agents)
    targets = [n_agents * c for c in x.as_tuple()]
    base = [math.floor(t) for t in targets]
    leftover = n_agents - sum(base)
    order = sorted(range(4), key=lambda i: (base[i] - targets[i], i))
    for i in range(leftover):
        base[order[i]] += 1
    # near 2**53 n*c can round up: take any excess from the smallest remainders
    for i in [i for i in reversed(order) if base[i]][:max(-leftover, 0)]:
        base[i] -= 1
    return [float(c) for c in base]


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: size, horizon, seeding, policy, sampling."""

    n_agents: int
    horizon: float
    seed: int
    policy: ControlVector | str          # a fixed control, or "myopic"
    sample_interval: float
    initial: StateDist
    myopic_recompute: str = "interval"   # "interval" | "event"

    def __post_init__(self) -> None:
        _check_n_agents(self.n_agents)
        if not isinstance(self.initial, StateDist):
            raise ValueError(f"initial must be a StateDist, got {self.initial!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("horizon", "sample_interval"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not self.horizon / self.sample_interval <= MAX_SAMPLES:
            raise ValueError(f"horizon / sample_interval exceeds {MAX_SAMPLES}")
        if isinstance(self.policy, str) and self.policy != MYOPIC:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.myopic_recompute not in ("interval", "event"):
            raise ValueError("myopic_recompute must be 'interval' or 'event'")


@dataclass(frozen=True)
class SwitchEvent:
    t: float
    old_case: str
    new_case: str
    mu: float


SWITCH_FIELDS = tuple(f.name for f in fields(SwitchEvent))  # switch-log columns


@dataclass
class Trajectory:
    """Sampled empirical distribution of one run."""

    times: np.ndarray
    states: np.ndarray                    # (n_samples, 4) fractions
    cases: list[str] | None = None        # active strategy per sample (myopic)
    switches: list[SwitchEvent] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def rate_table(params: ModelParams, n_agents: int,
               u: ControlVector) -> RateTable:
    """The ten channel rates of an n_agents population under control u.

    Returns a function of the head-counts (n_DI, n_DS, n_UI, n_US) that
    yields the running sums a_k = r_0 + ... + r_k of the rates in channel
    order, summed left to right, so a_9 is the total rate.
    """
    dir_D = params.q_inf_D * params.v_H
    dir_U = params.q_inf_U * params.v_H
    q_D, q_U = params.q_rec_D, params.q_rec_U
    b_DD, b_DU = params.beta_DD / n_agents, params.beta_DU / n_agents
    b_UD, b_UU = params.beta_UD / n_agents, params.beta_UU / n_agents
    lam = params.lam
    s_DS, s_US, s_DI, s_UI = lam * u.u_DS, lam * u.u_US, lam * u.u_DI, lam * u.u_UI

    def sums(c_DI, c_DS, c_UI, c_US):
        a0 = c_DS * dir_D
        a1 = a0 + c_US * dir_U
        a2 = a1 + c_DI * q_D
        a3 = a2 + c_UI * q_U
        a4 = a3 + c_DS * (c_DI * b_DD + c_UI * b_UD)
        a5 = a4 + c_US * (c_DI * b_DU + c_UI * b_UU)
        a6 = a5 + c_DS * s_DS
        a7 = a6 + c_US * s_US
        a8 = a7 + c_DI * s_DI
        return (a0, a1, a2, a3, a4, a5, a6, a7, a8, a8 + c_UI * s_UI)

    return sums


def generator_drift(params: ModelParams, counts: Sequence[float],
                    u: ControlVector) -> tuple[float, float, float, float]:
    """(1/N) * sum over channels of rate * jump direction, N = sum(counts).

    Each rate is a step a_k - a_{k-1} of ``rate_table``'s running sums,
    the rates the simulator samples from.  Algebraically identical to
    kinetic_rhs at x = n/N.
    """
    n = sum(counts)
    drift = [0.0, 0.0, 0.0, 0.0]
    prev = 0.0
    for a, (src, dst) in zip(rate_table(params, n, u)(*counts), EVENT_MOVES):
        drift[src] -= a - prev
        drift[dst] += a - prev
        prev = a
    return drift[0] / n, drift[1] / n, drift[2] / n, drift[3] / n


def _resolve_control(params: ModelParams, counts: list[float], n: int,
                     notes: list[str], t: float) -> hjb_mod.HjbSolution | None:
    """Myopic rule at the head-counts, run where no incumbent's interval
    holds: the cheapest solution of ``enumerate_hjb`` at
    ``_dist_of(counts, n)``, or None, with the gap noted, when no case
    holds and the control is retained.
    """
    x = _dist_of(counts, n)
    solutions = hjb_mod.enumerate_hjb(params, x)
    if not solutions:
        notes.append(f"t={t!r}: no valid solution at x={x.as_tuple()!r}; control retained")
        return None
    return solutions[0]


def _run(params: ModelParams, cfg: SimConfig, myopic: bool) -> Trajectory:
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    counts4 = initial_counts(cfg.n_agents, cfg.initial)
    n = cfg.n_agents

    notes: list[str] = []
    switches: list[SwitchEvent] = []
    # END_INDEX of the incumbent case; None: each recompute runs the full rule
    incumbent: int | None = None
    if myopic:
        intervals = hjb_mod.interval_table(params)
        kappa, fsum = params.kappa, math.fsum
        sol = _resolve_control(params, counts4, n, notes, 0.0)
        control = ControlVector(0, 0, 0, 0)
        if sol is not None:
            control, incumbent = sol.control, hjb_mod.END_INDEX[sol.case]
    else:
        control = cfg.policy  # type: ignore[assignment]
    table = rate_table(params, n, control)

    n_samples = math.floor(cfg.horizon / cfg.sample_interval + 1e-9)
    times: list[float] = []
    states: list[tuple[float, float, float, float]] = []
    cases: list[str] = []

    t = 0.0
    next_sample = 0
    ts = 0.0  # the next sample time, next_sample * sample_interval
    per_event = myopic and cfg.myopic_recompute == "event"
    per_sample = myopic and not per_event
    standard_exponential = rng.standard_exponential
    # Generator.random() of PCG64 is the top 53 bits of the next raw word
    random_raw = rng.bit_generator.random_raw

    # sampling instants interrupt the exponential clock; redrawing the
    # waiting time afterwards is exact because the clock is memoryless
    while next_sample <= n_samples:
        c_DI, c_DS, c_UI, c_US = counts4
        sums = table(c_DI, c_DS, c_UI, c_US)
        total = sums[9]
        # Generator.exponential(scale) is scale * standard_exponential()
        t_event = t + standard_exponential() * (1.0 / total) if total > 0.0 else math.inf

        if ts <= t_event:
            t = ts
            times.append(ts)
            states.append((c_DI / n, c_DS / n, c_UI / n, c_US / n))
            cases.append(_case_label(control))
            next_sample += 1
            ts = next_sample * cfg.sample_interval
            recompute = per_sample
        else:
            # execute the jump at t_event in the first channel whose
            # running sum exceeds the draw
            t = t_event
            draw = (random_raw() >> 11) * _UNIT * total
            k = bisect_right(sums, draw)
            if k == 10:  # draw rounded up to the total: the last sum that rises
                k = bisect_left(sums, total)
            src, dst = EVENT_MOVES[k]
            counts4[src] -= 1.0
            counts4[dst] += 1.0
            recompute = per_event

        if recompute:
            if incumbent is not None:
                # the incumbent's interval at the StateDist of the head-counts
                c_DI, c_DS, c_UI, c_US = counts4
                f_DI, f_UI = c_DI / n, c_UI / n
                f_sum = fsum((f_DI, c_DS / n, f_UI, c_US / n))
                ends = intervals(f_DI / f_sum, f_UI / f_sum)
                recompute = not ends[incumbent] <= kappa <= ends[incumbent + 1]
            if recompute:
                sol = _resolve_control(params, counts4, n, notes, t)
                if sol is not None:
                    switches.append(SwitchEvent(t, _case_label(control), sol.case.label, sol.mu))
                    control = sol.control
                    table = rate_table(params, n, control)
                    incumbent = hjb_mod.END_INDEX[sol.case]

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        cases=cases if myopic else None,
        switches=switches,
        notes=notes,
    )


def _dist_of(counts: list[float], n: int) -> StateDist:
    return StateDist(counts[0] / n, counts[1] / n, counts[2] / n, counts[3] / n)


def _case_label(control: ControlVector) -> str:
    case = control.case
    return case.label if case is not None else "".join(str(b) for b in control.as_tuple())


def simulate(params: ModelParams, cfg: SimConfig) -> Trajectory:
    """Run the exact jump simulation under a fixed control.

    Deterministic in (params, cfg): identical seeds give identical
    trajectories.  A zero total rate freezes the state until the horizon.
    """
    if not isinstance(cfg.policy, ControlVector):
        raise ValueError("simulate requires a fixed-control policy")
    return _run(params, cfg, myopic=False)


def simulate_myopic(params: ModelParams, cfg: SimConfig) -> Trajectory:
    """Run with the control re-derived from the optimality system as the
    empirical distribution moves; every control change is logged.

    Whether the answer stays near a stationary equilibrium is an open
    question; the trajectory is evidence, not a theorem.
    """
    if cfg.policy != MYOPIC:
        raise ValueError("simulate_myopic requires policy='myopic'")
    return _run(params, cfg, myopic=True)


@dataclass(frozen=True)
class DeviationStats:
    """Sup-norm gap between empirical runs and the kinetic solution."""

    mean: float
    std: float
    per_replica: tuple[float, ...]


def compare_ode(params: ModelParams,
                trajectories: Trajectory | list[Trajectory],
                u: ControlVector) -> DeviationStats:
    """Deviation of empirical trajectories from the kinetic ODE.

    Integrates the ODE from each trajectory's own starting state, lands
    exactly on the sample times, and takes the sup over samples of the
    max-component deviation.  Replicas with the same starting row and the
    same sample times share one ODE solve within a call.  Mean and
    standard deviation are over replicas.
    """
    if isinstance(trajectories, Trajectory):
        trajectories = [trajectories]
    if not trajectories:
        raise ValueError("need at least one trajectory")
    paths: dict[tuple[bytes, bytes], np.ndarray] = {}
    devs = []
    for traj in trajectories:
        if len(traj.times) < 2:
            devs.append(0.0)
            continue
        key = (traj.states[0].tobytes(), traj.times.tobytes())
        if key not in paths:
            paths[key] = _ode_states(params, traj, u)
        devs.append(float(np.max(np.abs(paths[key] - traj.states))))
    arr = np.array(devs)
    return DeviationStats(mean=float(arr.mean()),
                          std=float(arr.std(ddof=1)) if len(devs) > 1 else 0.0,
                          per_replica=tuple(devs))


def _ode_states(params: ModelParams, traj: Trajectory, u: ControlVector) -> np.ndarray:
    """The kinetic solution from traj's first row at each of its sample times:
    ``substeps`` RK4 steps per sample interval, (samples - 1) * substeps in all."""
    dt = float(traj.times[1] - traj.times[0])
    horizon = float(traj.times[-1])
    substeps = max(1, math.ceil(dt / min(dt, default_step(params))))
    n_steps = (len(traj.times) - 1) * substeps
    # integrate takes ceil(horizon / step) steps of horizon / that count;
    # ceil(horizon / (horizon / n_steps)) can round one past n_steps, so
    # pass a step strictly between horizon / n_steps and horizon / (n_steps - 1)
    path = integrate(params, StateDist.from_sequence(traj.states[0]), u, horizon,
                     step=horizon / (n_steps - 0.5), sample_every=substeps)
    return np.array([state.as_tuple() for _, state in path])


def check_replicas(cfg: SimConfig, replicas: int) -> None:
    """Raise ValueError unless replicas * horizon / sample_interval, the
    rows that all replicas keep, is at most MAX_SAMPLES (a replica keeps
    at least one row, so more replicas than that are rejected too)."""
    if not (replicas <= MAX_SAMPLES
            and replicas * (cfg.horizon / cfg.sample_interval) <= MAX_SAMPLES):
        raise ValueError(f"replicas * horizon / sample_interval exceeds {MAX_SAMPLES}")


def replica_trajectories(params: ModelParams, cfg: SimConfig,
                         replicas: int) -> list[Trajectory]:
    """Independent runs with per-replica streams seed + 0, 1, ...; the
    sample cap (check_replicas) is checked before any of them runs."""
    check_replicas(cfg, replicas)
    run = simulate if isinstance(cfg.policy, ControlVector) else simulate_myopic
    return [run(params, replace(cfg, seed=cfg.seed + i)) for i in range(replicas)]
