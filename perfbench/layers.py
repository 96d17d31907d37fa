"""What the traced run wraps, and the per-layer metrics it derives.

Each function is wrapped at the name its callers look up at call time:
``hjb.solve_case`` serves ``enumerate_hjb``, ``equilibrium`` and
``validation``; the simulator reaches the integrator as
``agentsim.integrate``; ``sweep_kappa`` finds ``solve_mfg`` and
``kappa_thresholds`` as module globals; ``run_all`` iterates
``validation.ALL_CHECKS``.  ``fixed_point_mixed`` calls itself for case iv
through its module global, so that recursion nests as two spans.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from botnet_mfg import agentsim, cli, equilibrium, fixedpoint, hjb, model, validation
from botnet_mfg.model import StrategyCase

from tracer import Hook, Tracer, traced

SOLVE_MFG = "equilibrium.solve_mfg"
SWEEP = "equilibrium.sweep_kappa"
MIXED = "fixedpoint.fixed_point_mixed"

# spans whose per-call durations are kept, for the per-call medians
PER_CALL = (
    "hjb.enumerate_hjb", "hjb.oracle_enumerate",
    "fixedpoint.fixed_point_acyclic", MIXED,
    SOLVE_MFG, "equilibrium.kappa_thresholds", SWEEP,
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """A call's argument by keyword, else by position, else None."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _integrate(tr: Tracer, args, kwargs, _result) -> None:
    horizon = _arg(args, kwargs, 3, "horizon")
    step = _arg(args, kwargs, 4, "step")
    if step is None:
        step = model.default_step(_arg(args, kwargs, 0, "params"))
    if horizon > 0.0:
        tr.counters["rk4_steps"] += max(1, math.ceil(horizon / step))


def _solve_case(tr: Tracer, _args, _kwargs, sol) -> None:
    tr.counters["solve_case.returned"] += 1
    tr.counters["solve_case.valid"] += int(sol.valid)


def _acyclic(tr: Tracer, _args, _kwargs, _point) -> None:
    if tr.current == SOLVE_MFG:
        tr.counters["pairs"] += 1


def _mixed(tr: Tracer, args, kwargs, points) -> None:
    if _arg(args, kwargs, 1, "case") is StrategyCase.DEFEND_SUSCEPTIBLE:
        tr.counters["case_iii.solves"] += 1
        tr.counters["case_iii.points"] += len(points)
    if tr.current == SOLVE_MFG:
        tr.counters["pairs"] += len(points)


def _bracket(tr: Tracer, _args, _kwargs, roots) -> None:
    tr.counters["roots"] += len(roots)


def _solve_mfg(tr: Tracer, _args, _kwargs, equilibria) -> None:
    tr.counters["equilibria"] += len(equilibria)


def _sweep(tr: Tracer, args, kwargs, _rows) -> None:
    tr.counters["grid_points"] += _arg(args, kwargs, 3, "steps")


def _simulated(tr: Tracer, args, kwargs, traj) -> None:
    cfg = _arg(args, kwargs, 1, "cfg")
    tr.counters["agent_time"] += cfg.n_agents * cfg.horizon
    tr.counters["samples"] += len(traj.times)
    tr.counters["switches"] += len(traj.switches)


def _cli_main(tr: Tracer, args, kwargs, _code) -> None:
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    for flag in ("--out", "--switch-log"):
        if flag in argv[:-1]:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                tr.counters["output_bytes"] += os.path.getsize(path)


def _check_failed(name: str) -> Hook:
    def hook(tr: Tracer, _args, _kwargs, result) -> None:
        tr.counters[f"{name}.failed"] += result.failed
    return hook


@dataclass(frozen=True)
class Target:
    """One module attribute replaced by a span wrapper."""

    owner: object
    attr: str
    name: str
    hook: Hook | None = None

    def wrap(self, tracer: Tracer, original):
        return traced(tracer, self.name, original, self.hook)


@dataclass(frozen=True)
class CheckTable:
    """``validation.ALL_CHECKS``: every entry wrapped under its own name."""

    owner: object = validation
    attr: str = "ALL_CHECKS"

    def wrap(self, tracer: Tracer, original):
        out = []
        for fn in original:
            name = f"validation.{fn.__name__}"
            out.append(traced(tracer, name, fn, _check_failed(name)))
        return tuple(out)


CHECK_NAMES = tuple(f"validation.{fn.__name__}" for fn in validation.ALL_CHECKS)

TARGETS = (
    Target(agentsim, "integrate", "model.integrate", _integrate),
    Target(hjb, "solve_case", "hjb.solve_case", _solve_case),
    Target(hjb, "enumerate_hjb", "hjb.enumerate_hjb"),
    Target(hjb, "oracle_enumerate", "hjb.oracle_enumerate"),
    Target(fixedpoint, "fixed_point_acyclic", "fixedpoint.fixed_point_acyclic", _acyclic),
    Target(fixedpoint, "fixed_point_mixed", MIXED, _mixed),
    Target(fixedpoint, "bracket_roots", "fixedpoint.bracket_roots", _bracket),
    Target(fixedpoint, "stability", "fixedpoint.stability"),
    Target(equilibrium, "solve_mfg", SOLVE_MFG, _solve_mfg),
    Target(equilibrium, "kappa_thresholds", "equilibrium.kappa_thresholds"),
    Target(equilibrium, "sweep_kappa", SWEEP, _sweep),
    Target(agentsim, "replica_trajectories", "agentsim.replica_trajectories"),
    Target(agentsim, "simulate", "agentsim.simulate", _simulated),
    Target(agentsim, "simulate_myopic", "agentsim.simulate_myopic", _simulated),
    Target(agentsim, "compare_ode", "agentsim.compare_ode"),
    Target(validation, "run_all", "validation.run_all"),
    CheckTable(),
    Target(cli, "main", "cli.main", _cli_main),
)

COUNTED = (
    "model.integrate", "hjb.solve_case", "hjb.enumerate_hjb", "hjb.oracle_enumerate",
    MIXED, "fixedpoint.bracket_roots", "fixedpoint.stability",
    "fixedpoint.fixed_point_acyclic", SOLVE_MFG, SWEEP, "equilibrium.kappa_thresholds",
    "agentsim.simulate", "cli.main",
)
TIMED = COUNTED + ("agentsim.compare_ode", "agentsim.simulate_myopic") + CHECK_NAMES


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = tr.by_name()
    c = tr.counters

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = calls(name)
    for name in TIMED:
        out[f"{name}.self_s"] = spans.get(name, (0, 0.0, 0.0))[2]
    for name in CHECK_NAMES:
        out[f"{name}.failed"] = c[f"{name}.failed"]

    out["model.integrate.rk4_steps"] = c["rk4_steps"]
    out["hjb.solve_case.valid_ratio"] = _ratio(c["solve_case.valid"],
                                               c["solve_case.returned"])
    out["fixedpoint.bracket_roots.roots"] = c["roots"]
    out["fixedpoint.bracket_retries"] = calls("fixedpoint.bracket_roots") - c["case_iii.solves"]
    out["fixedpoint.root_yield"] = _ratio(c["case_iii.points"], c["roots"])

    # top-level mixed solves (not the case-iv -> case-iii recursion) under a sweep
    sweep_mixed = sum(
        tr.calls[node] for node, name in enumerate(tr.names)
        if name == MIXED and tr.names[tr.parents[node]] != MIXED
        and SWEEP in tr.ancestors(node))
    out["equilibrium.mixed_solves_per_kappa"] = _ratio(sweep_mixed, c["grid_points"])
    out["equilibrium.pair_yield"] = _ratio(c["equilibria"], c["pairs"])

    out["agentsim.agent_time"] = c["agent_time"]
    out["agentsim.agent_time_per_s"] = _ratio(
        c["agent_time"], total("agentsim.simulate") + total("agentsim.simulate_myopic"))
    out["agentsim.samples"] = c["samples"]
    out["agentsim.switches"] = c["switches"]
    out["cli.output_bytes"] = c["output_bytes"]
    return out


# Which end-to-end figure each per-layer metric should move, by metric
# name prefix (longest prefix wins).  "Flat" workloads expect no change.
MOVES = {
    "model.": "wall_s on kinetic_limit; flat on the other workloads",
    "hjb.solve_case.": "sweep_s and equilibria_ms on phase_diagram, wall_s on myopic_feedback",
    "hjb.enumerate_hjb.": "wall_s on myopic_feedback (calls = jump events + 1)",
    "hjb.oracle_enumerate.": "wall_s on self_check",
    "fixedpoint.": ("sweep_s and equilibria_ms on phase_diagram, wall_s on self_check; "
                    "flat on kinetic_limit and myopic_feedback"),
    "equilibrium.": "sweep_s and thresholds_ms on phase_diagram",
    "agentsim.simulate.": "wall_s on kinetic_limit",
    "agentsim.compare_ode.": "wall_s on kinetic_limit",
    "agentsim.agent_time": "wall_s on kinetic_limit",
    "agentsim.simulate_myopic.": "wall_s on myopic_feedback",
    "agentsim.samples": "wall_s on myopic_feedback",
    "agentsim.switches": "wall_s on myopic_feedback",
    "validation.": "wall_s and fail_ratio on self_check",
    "cli.": "thresholds_ms and equilibria_ms on phase_diagram",
    "trace.": "none: tracing cost, traced minus untraced wall_s of the same workload",
}


def moves(metric: str) -> str | None:
    prefixes = [p for p in MOVES if metric.startswith(p)]
    return MOVES[max(prefixes, key=len)] if prefixes else None
