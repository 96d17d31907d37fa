"""The four benchmark workloads.

Each workload makes its inputs from the seed, runs a fixed unit of work
(a "pass") as a closed loop -- every call starts after the previous one
returned -- and checks every output of a pass against an oracle that
does not share the code path it checks.

- phase_diagram: the solver path through ``cli.main`` (thresholds,
  equilibria, 200-step sweep) on the two criterion-7 anchors plus seeded
  parameter draws.  The simulator and the integrator never run.
- kinetic_limit: the criterion-8 experiment at reduced replica counts:
  SSA replicas and ``compare_ode``.  The HJB and fixed-point layers never run.
- myopic_feedback: one per-event myopic simulation inside the
  no-equilibrium gap, so the control chatters and ``enumerate_hjb`` runs
  at every jump on a moving state.  Fixed points and the integrator never run.
- self_check: ``cli.main validate``, the only path through the 16-control
  oracle, the finite-difference Jacobian and the generator identity.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from botnet_mfg import agentsim, cli, validation
from botnet_mfg.model import (
    ModelParams,
    StateDist,
    StrategyCase,
    alpha_beta,
    kinetic_rhs,
)

KINETIC_TOL = 1e-9        # sup-norm of kinetic_rhs at an equilibrium row
BELLMAN_SCALE = 1e-10     # Bellman residual bound, times max(1, |mu|)
MAX_CASES = 4

REGIME_ONE = ModelParams(
    q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
    beta_UU=4.0, beta_UD=0.5, beta_DU=4.0, beta_DD=0.5,
    lam=2000.0, v_H=1.0, k_D=0.5, k_I=1.0)
REGIME_TWO = ModelParams(
    q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.3, q_inf_U=2.0,
    beta_UU=3.0, beta_UD=3.0, beta_DU=3.0, beta_DD=3.0,
    lam=2000.0, v_H=1.0, k_D=0.5, k_I=1.0)


@dataclass
class PassOutput:
    """What one pass produced: named byte blobs (digested in order), the
    parsed values the checker reads, and per-operation timings."""

    blobs: list[tuple[str, bytes]] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    op_times: dict[str, list[float]] = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, data in self.blobs:
            h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0")
            h.update(data)
        return h.hexdigest()

    def time_op(self, kind: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.op_times.setdefault(kind, []).append(time.perf_counter() - start)
        return result


@dataclass
class Verdict:
    """Checked operations of one pass, with one message per failed one."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems[:3])}")


class Workload:
    """Interface of a workload; the methods below are the optional ones."""

    name = ""

    def rerun_check(self, inputs, out: PassOutput) -> Verdict:
        """Checks that need a rerun of part of the first pass's work."""
        return Verdict()

    def report(self, inputs, out: PassOutput) -> dict:
        """Figures recorded with the run that are not metrics."""
        return {}


def _trajectory_problems(times: np.ndarray, states: np.ndarray, n_agents: int,
                         grid: list[float]) -> list[str]:
    """Samples on the 1/N lattice, summing to 1, nonnegative, on the grid."""
    problems = []
    if not np.array_equal(times, np.array(grid)):
        problems.append("sample times differ from the grid")
    if states.shape != (len(grid), 4):
        return problems + [f"states have shape {states.shape}"]
    scaled = states * n_agents
    if np.max(np.abs(scaled - np.rint(scaled))) > 1e-6:
        problems.append("a row is off the 1/N lattice")
    if np.max(np.abs(states.sum(axis=1) - 1.0)) > 1e-12:
        problems.append("a row does not sum to 1")
    if np.min(states) < 0.0:
        problems.append("a row has a negative component")
    return problems


def _take(path: str) -> bytes:
    """Read and delete a command's output file (empty if it wrote none)."""
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def _grid(cfg: agentsim.SimConfig) -> list[float]:
    n = math.floor(cfg.horizon / cfg.sample_interval + 1e-9)
    return [i * cfg.sample_interval for i in range(n + 1)]


# -- phase_diagram ---------------------------------------------------------

@dataclass(frozen=True)
class ParamSet:
    name: str
    params: ModelParams
    config: str                       # path of the key=value file
    bands: tuple[int, ...] | None     # expected band pattern (anchors only)


@dataclass(frozen=True)
class PhaseInputs:
    workdir: str
    sets: tuple[ParamSet, ...]
    steps: int = 200


class PhaseDiagram(Workload):
    name = "phase_diagram"
    draws = 2
    lambdas = (1.0, 10.0, 1000.0, 2000.0)
    commands = ("thresholds", "equilibria", "sweep")

    def make_inputs(self, seed: int, workdir: str) -> PhaseInputs:
        rng = np.random.default_rng(seed)
        named = [("regime_one", REGIME_ONE, (1, 0, 1)), ("regime_two", REGIME_TWO, (1, 2, 1))]
        for i in range(self.draws):
            lam = float(rng.choice(self.lambdas))
            draw = validation.random_params(rng, lam=lam, lo=0.1, hi=2.0)
            # random_params leaves numpy scalars in some fields, which
            # to_config_text would write as "np.float64(...)"
            draw = ModelParams(**{k: float(v) for k, v in vars(draw).items()})
            named.append((f"draw{i}", draw, None))
        sets = []
        for name, params, bands in named:
            path = os.path.join(workdir, f"{name}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(params.to_config_text())
            sets.append(ParamSet(name, params, path, bands))
        return PhaseInputs(workdir, tuple(sets))

    def _argv(self, inputs: PhaseInputs, ps: ParamSet, command: str) -> tuple[list[str], str]:
        out = os.path.join(inputs.workdir, f"{ps.name}.{command}.csv")
        argv = [command, "--config", ps.config, "--out", out]
        if command == "sweep":
            argv += ["--kappa-min", "0", "--kappa-max", "1", "--steps", str(inputs.steps)]
        return argv, out

    def warm_up(self, inputs: PhaseInputs) -> None:
        for command in ("thresholds", "equilibria"):
            cli.main(self._argv(inputs, inputs.sets[0], command)[0])

    def run_pass(self, inputs: PhaseInputs) -> PassOutput:
        out = PassOutput()
        for ps in inputs.sets:
            for command in self.commands:
                argv, path = self._argv(inputs, ps, command)
                code = out.time_op(command, cli.main, argv)
                data = _take(path)
                out.blobs.append((f"{ps.name}.{command}", data))
                out.values[(ps.name, command)] = (code, data.decode())
        return out

    def check(self, inputs: PhaseInputs, out: PassOutput) -> Verdict:
        verdict = Verdict()
        for ps in inputs.sets:
            for command in self.commands:
                code, text = out.values[(ps.name, command)]
                rows = list(csv.DictReader(io.StringIO(text)))
                problems = [] if code == 0 else [f"exit code {code}"]
                if command == "thresholds":
                    problems += threshold_problems(rows)
                elif command == "equilibria":
                    problems += equilibrium_problems(ps.params, rows)
                else:
                    problems += sweep_problems(rows, inputs.steps, ps.bands)
                verdict.op(problems, f"{ps.name} {command}")
        return verdict


def threshold_problems(rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"{len(rows)} threshold rows"]
    bad = [k for k in ("kappa_1", "kappa_2", "kappa_3", "kappa_4")
           if not math.isfinite(float(rows[0][k]))]
    return [f"non-finite {', '.join(bad)}"] if bad else []


def bellman_residual(params: ModelParams, x: StateDist, g: tuple[float, ...],
                     mu: float) -> float:
    """Max residual of the four average-cost optimality lines at (g, mu).

    Written out here rather than taken from ``hjb`` so that the check does
    not reuse the code it checks."""
    alpha, beta = alpha_beta(params, x)
    g_DI, g_DS, g_UI, g_US = g
    lam = params.lam
    lines = (
        lam * min(g_UI - g_DI, 0.0) + params.q_rec_D * (g_DS - g_DI) + params.k_I + params.k_D,
        lam * min(g_US - g_DS, 0.0) + alpha * (g_DI - g_DS) + params.k_D,
        lam * min(g_DI - g_UI, 0.0) + params.q_rec_U * (g_US - g_UI) + params.k_I,
        lam * min(g_DS - g_US, 0.0) + beta * (g_UI - g_US),
    )
    return max(abs(v - mu) for v in lines)


def equilibrium_problems(params: ModelParams, rows: list[dict]) -> list[str]:
    problems = []
    for i, row in enumerate(rows):
        case = StrategyCase.from_label(row["case"])
        x = StateDist(*(float(row[k]) for k in ("x_DI", "x_DS", "x_UI", "x_US")))
        mu = float(row["mu"])
        g = tuple(float(row[k]) for k in ("g_DI", "g_DS", "g_UI", "g_US"))
        kinetic = float(np.max(np.abs(kinetic_rhs(params, x, case.control))))
        if not kinetic <= KINETIC_TOL:
            problems.append(f"row {i} kinetic residual {kinetic:.3g}")
        bellman = bellman_residual(params, x, g, mu)
        if not bellman <= BELLMAN_SCALE * max(1.0, abs(mu)):
            problems.append(f"row {i} Bellman residual {bellman:.3g}")
    return problems


def band_pattern(rows: list[dict]) -> tuple[int, ...]:
    """Equilibrium counts of consecutive blocks, rows near a threshold skipped."""
    blocks: list[int] = []
    for row in rows:
        if row["near_bifurcation"] == "true":
            continue
        count = int(row["count"])
        if not blocks or blocks[-1] != count:
            blocks.append(count)
    return tuple(blocks)


def sweep_problems(rows: list[dict], steps: int, bands: tuple[int, ...] | None) -> list[str]:
    problems = [] if len(rows) == steps else [f"{len(rows)} sweep rows, expected {steps}"]
    for i, row in enumerate(rows):
        cases = row["cases"].split("+") if row["cases"] else []
        if int(row["count"]) != len(cases):
            problems.append(f"row {i} count {row['count']} with {len(cases)} cases")
        if len(cases) > MAX_CASES or len(set(cases)) != len(cases):
            problems.append(f"row {i} cases {row['cases']!r}")
    if bands is not None and band_pattern(rows) != bands:
        problems.append(f"band pattern {band_pattern(rows)}, expected {bands}")
    return problems


# -- kinetic_limit ---------------------------------------------------------

KINETIC_PARAMS = ModelParams(
    q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.3, q_inf_U=1.0,
    beta_UU=2.0, beta_UD=1.0, beta_DU=2.0, beta_DD=1.0,
    lam=5.0, v_H=1.0, k_D=0.5, k_I=1.0)
SLOPE_BAND = (-0.65, -0.35)   # criterion 8's band; recorded, not a gate here


@dataclass(frozen=True)
class KineticInputs:
    params: ModelParams
    configs: tuple[agentsim.SimConfig, ...]   # one per population size
    replicas: int


class KineticLimit(Workload):
    name = "kinetic_limit"
    sizes = (100, 1000, 10_000)
    replicas = 3
    control = StrategyCase.PREFER_UNPROTECTED.control

    def make_inputs(self, seed: int, workdir: str) -> KineticInputs:
        configs = tuple(
            agentsim.SimConfig(n_agents=n, horizon=8.0, seed=1_000_000 * seed + n,
                               policy=self.control, sample_interval=0.2,
                               initial=StateDist(0.0, 0.0, 0.3, 0.7))
            for n in self.sizes)
        return KineticInputs(KINETIC_PARAMS, configs, self.replicas)

    def warm_up(self, inputs: KineticInputs) -> None:
        traj = agentsim.simulate(inputs.params, inputs.configs[0])
        agentsim.compare_ode(inputs.params, [traj], self.control)

    def run_pass(self, inputs: KineticInputs) -> PassOutput:
        out = PassOutput()
        for cfg in inputs.configs:
            trajs = out.time_op("replicas", agentsim.replica_trajectories,
                                inputs.params, cfg, inputs.replicas)
            stats = out.time_op("compare_ode", agentsim.compare_ode,
                                inputs.params, trajs, self.control)
            for i, traj in enumerate(trajs):
                out.blobs.append((f"N{cfg.n_agents}.r{i}.t", traj.times.tobytes()))
                out.blobs.append((f"N{cfg.n_agents}.r{i}.x", traj.states.tobytes()))
            out.blobs.append((f"N{cfg.n_agents}.dev", repr(stats.per_replica).encode()))
            out.values[cfg.n_agents] = (trajs, stats)
        return out

    def check(self, inputs: KineticInputs, out: PassOutput) -> Verdict:
        verdict = Verdict()
        for cfg in inputs.configs:
            trajs, stats = out.values[cfg.n_agents]
            for i, traj in enumerate(trajs):
                verdict.op(_trajectory_problems(traj.times, traj.states, cfg.n_agents,
                                                _grid(cfg)),
                           f"N={cfg.n_agents} replica {i}")
            devs = stats.per_replica
            ok = len(devs) == inputs.replicas and all(
                math.isfinite(d) and d >= 0.0 for d in devs)
            verdict.op([] if ok else [f"deviations {devs!r}"], f"N={cfg.n_agents} compare_ode")
        return verdict

    def rerun_check(self, inputs: KineticInputs, out: PassOutput) -> Verdict:
        """Replica 0 of each size, rerun alone, is byte-identical."""
        verdict = Verdict()
        for cfg in inputs.configs:
            first = out.values[cfg.n_agents][0][0]
            again = agentsim.simulate(inputs.params, cfg)
            same = (again.times.tobytes() == first.times.tobytes()
                    and again.states.tobytes() == first.states.tobytes())
            verdict.op([] if same else ["rerun differs"], f"N={cfg.n_agents} rerun")
        return verdict

    def report(self, inputs: KineticInputs, out: PassOutput) -> dict:
        """Log-log slope of the mean sup-deviation against N."""
        sizes = [cfg.n_agents for cfg in inputs.configs]
        means = [out.values[n][1].mean for n in sizes]
        slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
        return {"deviation_slope": slope, "slope_band": list(SLOPE_BAND)}


# -- myopic_feedback -------------------------------------------------------

# README rates; lambda = 20 and kappa = 0.6 sit in the no-equilibrium gap
MYOPIC_PARAMS = replace(REGIME_ONE, lam=20.0, k_D=0.6)


@dataclass(frozen=True)
class MyopicInputs:
    params: ModelParams
    config: agentsim.SimConfig


class MyopicFeedback(Workload):
    name = "myopic_feedback"

    def make_inputs(self, seed: int, workdir: str) -> MyopicInputs:
        # N = 2500 rather than 5000: a pass of about 2.5 s gives a 20 s run
        # enough passes for a steady median, and the control still chatters
        cfg = agentsim.SimConfig(
            n_agents=2500, horizon=5.0, seed=seed, policy=agentsim.MYOPIC,
            sample_interval=0.5, initial=StateDist(0.3, 0.3, 0.2, 0.2),
            myopic_recompute="event")
        return MyopicInputs(MYOPIC_PARAMS, cfg)

    def warm_up(self, inputs: MyopicInputs) -> None:
        short = replace(inputs.config, horizon=0.05, sample_interval=0.05)
        agentsim.simulate_myopic(inputs.params, short)

    def run_pass(self, inputs: MyopicInputs) -> PassOutput:
        out = PassOutput()
        traj = out.time_op("run", agentsim.simulate_myopic, inputs.params, inputs.config)
        log = "".join(f"{s.t!r},{s.old_case},{s.new_case},{s.mu!r}\n" for s in traj.switches)
        out.blobs += [("t", traj.times.tobytes()), ("x", traj.states.tobytes()),
                      ("cases", ",".join(traj.cases).encode()), ("switches", log.encode())]
        out.values["trajectory"] = traj
        return out

    def check(self, inputs: MyopicInputs, out: PassOutput) -> Verdict:
        traj = out.values["trajectory"]
        cfg = inputs.config
        problems = _trajectory_problems(traj.times, traj.states, cfg.n_agents, _grid(cfg))
        if traj.cases is None or len(traj.cases) != len(traj.times):
            problems.append("one active case per sample expected")
        for sw in traj.switches:
            if not math.isfinite(sw.mu):
                problems.append(f"switch at t={sw.t!r} has mu {sw.mu!r}")
            if sw.old_case == sw.new_case:
                problems.append(f"switch at t={sw.t!r} keeps case {sw.old_case}")
        verdict = Verdict()
        verdict.op(problems, "myopic run")
        return verdict


# -- self_check ------------------------------------------------------------

@dataclass(frozen=True)
class SelfCheckInputs:
    seed: int
    trials: int
    out: str


class SelfCheck(Workload):
    name = "self_check"
    trials = 400

    def make_inputs(self, seed: int, workdir: str) -> SelfCheckInputs:
        return SelfCheckInputs(seed, self.trials, os.path.join(workdir, "validate.csv"))

    def _argv(self, inputs: SelfCheckInputs, trials: int) -> list[str]:
        return ["validate", "--seed", str(inputs.seed), "--trials", str(trials),
                "--out", inputs.out]

    def warm_up(self, inputs: SelfCheckInputs) -> None:
        cli.main(self._argv(inputs, 5))

    def run_pass(self, inputs: SelfCheckInputs) -> PassOutput:
        out = PassOutput()
        code = out.time_op("validate", cli.main, self._argv(inputs, inputs.trials))
        data = _take(inputs.out)
        out.blobs.append(("validate", data))
        out.values["validate"] = (code, data.decode())
        return out

    def check(self, inputs: SelfCheckInputs, out: PassOutput) -> Verdict:
        """Every trial of every CheckResult row is one operation, plus the
        row count and the exit code."""
        code, text = out.values["validate"]
        rows = list(csv.DictReader(io.StringIO(text)))
        verdict = Verdict()
        expected = len(validation.ALL_CHECKS)
        verdict.op([] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"],
                   "validate rows")
        failed = 0
        for row in rows:
            passed, bad = int(row["passed"]), int(row["failed"])
            verdict.attempted += passed + bad
            failed += bad
            verdict.failures += [f"{row['check']}: trial failed"] * bad
        verdict.op([] if (code == 0) == (failed == 0) else
                   [f"exit code {code} with {failed} failed trials"], "validate exit code")
        return verdict


WORKLOADS = {w.name: w for w in (PhaseDiagram(), KineticLimit(), MyopicFeedback(), SelfCheck())}
