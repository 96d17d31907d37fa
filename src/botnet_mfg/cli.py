"""Command-line front end.

    botnet-mfg hjb          --config params.cfg --x 0.1,0.2,0.3,0.4
    botnet-mfg fixed-points --config params.cfg
    botnet-mfg equilibria   --config params.cfg
    botnet-mfg thresholds   --config params.cfg
    botnet-mfg sweep        --config params.cfg --kappa-min A --kappa-max B --steps N
    botnet-mfg simulate     --config params.cfg --x ... --n-agents N --horizon T \
                            --seed S --policy fixed:i|myopic \
                            [--myopic-recompute interval|event]
    botnet-mfg validate     --seed S --trials N

Parameters come from a flat key=value config file; each --set KEY=VALUE is
one more line after it that may override or supply a key, and values are
range-checked after the overrides.  Output is CSV (default) or JSON, to
stdout or --out; every command writes it through ``write``.  Exit codes:
0 success, 1 validation failure, invalid input or parameter value,
degenerate rates (a solver failure) or unwritable output, 2 config syntax error,
missing key or unreadable config.  The parser is built once, at import.
Only ``simulate`` and ``validate`` import numpy, when they run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Callable

from . import equilibrium, fixedpoint, hjb
from .model import (
    STATE_FIELDS,
    ControlVector,
    InvalidSimplex,
    ModelParams,
    StateDist,
    StrategyCase,
    parse_config,
)


class CliError(Exception):
    def __init__(self, code: str, message: str, exit_code: int = 1):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botnet-mfg",
        description="Stationary equilibria and agent simulation of the "
                    "four-state defense game.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_params: bool = True) -> None:
        if needs_params:
            p.add_argument("--config", help="flat key=value parameter file")
            p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                           help="override or supply a parameter (repeatable)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("hjb", help="enumerate optimality-system solutions at a state")
    add_common(p)
    p.add_argument("--x", required=True, help="four comma-separated fractions")

    p = sub.add_parser("fixed-points", help="stationary points of all four cases")
    add_common(p)

    p = sub.add_parser("equilibria", help="all consistent stationary equilibria")
    add_common(p)

    p = sub.add_parser("thresholds", help="bifurcation thresholds in kappa")
    add_common(p)

    p = sub.add_parser("sweep", help="equilibrium structure along a kappa grid")
    add_common(p)
    p.add_argument("--kappa-min", type=float, required=True)
    p.add_argument("--kappa-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = sub.add_parser("simulate", help="exact N-agent jump simulation")
    add_common(p)
    p.add_argument("--x", required=True, help="initial fractions, comma separated")
    p.add_argument("--n-agents", type=int, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--policy", required=True,
                   help="fixed:<i|ii|iii|iv> or myopic")
    p.add_argument("--sample-interval", type=float, default=1.0)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--switch-log", metavar="PATH",
                   help="also write the myopic control-change log as CSV")
    p.add_argument("--myopic-recompute", metavar="{interval,event}",
                   help="when the myopic policy re-decides: at every sample "
                        "time (interval, the default) or after every event")

    p = sub.add_parser("validate", help="randomized oracle and invariant suite")
    add_common(p, needs_params=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)

    return parser


def load_params(args: argparse.Namespace) -> ModelParams:
    lines: list[str] = []
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        fields = parse_config(lines, args.set)
    except OSError as exc:
        raise CliError("config_io_error", str(exc), exit_code=2) from exc
    except ValueError as exc:  # includes UnicodeDecodeError
        raise CliError("config_parse_error", str(exc), exit_code=2) from exc
    try:
        return ModelParams(**fields)
    except ValueError as exc:
        raise CliError("invalid_params", str(exc)) from exc


def parse_state(text: str) -> StateDist:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError("invalid_simplex", f"--x needs 4 fractions, got {len(parts)}")
    try:
        comps = [float(p) for p in parts]
    except ValueError as exc:
        raise CliError("invalid_simplex", f"bad fraction in {text!r}") from exc
    try:
        return StateDist.from_sequence(comps)
    except InvalidSimplex as exc:
        raise CliError("invalid_simplex", str(exc)) from exc


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(fields: tuple[str, ...], records: list[dict]) -> str:
    lines = [",".join(fields)]
    for rec in records:
        lines.append(",".join(_cell(rec[f]) for f in fields))
    return "\n".join(lines) + "\n"


def emit(path: str | None, text: str) -> None:
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError("output_io_error", str(exc)) from exc


def write(args: argparse.Namespace, fields: tuple[str, ...],
          rows: Callable[[], list[dict]], payload: Callable[[], object] | None = None) -> int:
    """Write a command's output to --out or stdout; returns exit code 0.

    CSV writes rows() under the columns fields; JSON writes payload(),
    which defaults to rows().  Only the chosen form is built.
    """
    if args.format == "json":
        emit(args.out, json.dumps((payload or rows)(), indent=2) + "\n")
    else:
        emit(args.out, records_to_csv(fields, rows()))
    return 0


def solved(compute: Callable[..., Any], *args) -> Any:
    """Run a solver call, reporting its failure as degenerate_rates.

    A vanishing denominator, a non-finite Bellman solution or rates past
    the float range fail as an ArithmeticError or a ValueError.
    """
    try:
        return compute(*args)
    except (ArithmeticError, ValueError) as exc:
        raise CliError("degenerate_rates", str(exc)) from exc


def cmd_hjb(args: argparse.Namespace) -> int:
    solutions = solved(hjb.enumerate_hjb, load_params(args), parse_state(args.x))
    return write(args, hjb.CSV_FIELDS, lambda: [sol.to_record() for sol in solutions])


def cmd_fixed_points(args: argparse.Namespace) -> int:
    points = solved(equilibrium.stationary_points, load_params(args))
    return write(args, fixedpoint.CSV_FIELDS, lambda: [fp.to_record() for fp in points])


def cmd_equilibria(args: argparse.Namespace) -> int:
    eqs = solved(equilibrium.solve_mfg, load_params(args))
    return write(args, equilibrium.EQUILIBRIUM_CSV_FIELDS,
                 lambda: [eq.to_record() for eq in eqs])


def cmd_thresholds(args: argparse.Namespace) -> int:
    report = solved(equilibrium.kappa_thresholds, load_params(args)).to_record()
    flat = {key: value for key, value in report.items() if key != "domains"}
    flat.update((f"domain_{key}", value) for key, value in report["domains"].items())
    return write(args, tuple(flat), lambda: [flat], lambda: report)


def cmd_sweep(args: argparse.Namespace) -> int:
    params = load_params(args)
    try:
        equilibrium.check_sweep(args.kappa_min, args.kappa_max, args.steps)
    except ValueError as exc:
        raise CliError("invalid_sweep", str(exc)) from exc
    rows = solved(equilibrium.sweep_kappa, params, args.kappa_min, args.kappa_max, args.steps)
    return write(args, equilibrium.SWEEP_CSV_FIELDS,
                 lambda: [r.to_csv_record() for r in rows],
                 lambda: [r.to_record() for r in rows])


def _fixed_policy(text: str) -> ControlVector:
    if text.startswith("fixed:"):
        try:
            return StrategyCase.from_label(text.removeprefix("fixed:")).control
        except ValueError as exc:
            raise CliError("invalid_policy", str(exc)) from exc
    raise CliError("invalid_policy", f"policy must be fixed:<case> or myopic, got {text!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import agentsim
    params = load_params(args)
    x0 = parse_state(args.x)
    myopic = args.policy == agentsim.MYOPIC
    policy = agentsim.MYOPIC if myopic else _fixed_policy(args.policy)
    if args.switch_log and not myopic:
        raise CliError("invalid_policy", "--switch-log needs --policy myopic")
    recompute = args.myopic_recompute
    if recompute is not None and not myopic:
        raise CliError("invalid_policy", "--myopic-recompute needs --policy myopic")
    if args.replicas < 1:
        raise CliError("invalid_replicas", "--replicas must be >= 1")
    try:
        cfg = agentsim.SimConfig(
            n_agents=args.n_agents, horizon=args.horizon, seed=args.seed,
            policy=policy, sample_interval=args.sample_interval, initial=x0,
            myopic_recompute="interval" if recompute is None else recompute)
    except ValueError as exc:
        raise CliError("invalid_sim_config", str(exc)) from exc
    try:
        agentsim.check_replicas(cfg, args.replicas)
    except ValueError as exc:
        raise CliError("invalid_replicas", str(exc)) from exc
    trajectories = solved(agentsim.replica_trajectories, params, cfg, args.replicas)

    lead = ("replica",) if args.replicas > 1 else ()
    if args.switch_log:
        switches = [dict(dataclasses.asdict(sw), replica=i)
                    for i, traj in enumerate(trajectories) for sw in traj.switches]
        emit(args.switch_log, records_to_csv(lead + agentsim.SWITCH_FIELDS, switches))

    def sample_rows() -> list[dict]:
        return [dict(zip(STATE_FIELDS, map(float, traj.states[k])), replica=i,
                     t=float(t), case=traj.cases[k] if myopic else None)
                for i, traj in enumerate(trajectories) for k, t in enumerate(traj.times)]

    def payload() -> dict | list[dict]:
        records = []
        for i, traj in enumerate(trajectories):
            rec = {"replica": i, "t": traj.times.tolist()}
            rec.update(zip(STATE_FIELDS, traj.states.T.tolist()))
            if myopic:
                rec["case"] = traj.cases
                rec["switches"] = [dataclasses.asdict(s) for s in traj.switches]
            records.append(rec)
        return records if args.replicas > 1 else records[0]

    fields = lead + ("t",) + STATE_FIELDS + (("case",) if myopic else ())
    return write(args, fields, sample_rows, payload)


def cmd_validate(args: argparse.Namespace) -> int:
    from . import validation
    if args.seed < 0:
        raise CliError("invalid_seed", "--seed must be >= 0")
    if args.trials < 1:
        raise CliError("invalid_trials", "--trials must be >= 1")
    results = validation.run_all(args.seed, args.trials)
    write(args, ("check", "passed", "failed", "detail"),
          lambda: [dict(r.to_record(), check=r.name) for r in results],
          lambda: [r.to_record() for r in results])
    return 0 if all(r.ok for r in results) else 1


COMMANDS = {
    "hjb": cmd_hjb,
    "fixed-points": cmd_fixed_points,
    "equilibria": cmd_equilibria,
    "thresholds": cmd_thresholds,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CliError as exc:
        record = {"error": exc.code, "detail": str(exc)}
        sys.stderr.write(json.dumps(record) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
