"""Command-line front end.

    botnet-mfg hjb          --config params.cfg --x 0.1,0.2,0.3,0.4
    botnet-mfg fixed-points --config params.cfg
    botnet-mfg equilibria   --config params.cfg
    botnet-mfg thresholds   --config params.cfg
    botnet-mfg sweep        --config params.cfg --kappa-min A --kappa-max B --steps N
    botnet-mfg simulate     --config params.cfg --x ... --n-agents N --horizon T \
                            --seed S --policy fixed:i
    botnet-mfg validate     --seed S --trials N

Parameters come from a flat key=value config file (see ModelParams), with
--set KEY=VALUE overrides.  Output is CSV (default) or JSON, to stdout or
--out.  Exit codes: 0 success, 1 validation failure or unwritable output,
2 config parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import agentsim, equilibrium, fixedpoint, hjb, validation
from .model import (
    CONFIG_KEYS,
    _FIELD_BY_KEY,
    ControlVector,
    InvalidSimplex,
    ModelParams,
    StateDist,
    StrategyCase,
)


STATE_FIELDS = ("x_DI", "x_DS", "x_UI", "x_US")


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

    p = sub.add_parser("validate", help="randomized oracle and invariant suite")
    add_common(p, needs_params=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)

    return parser


def load_params(args: argparse.Namespace) -> ModelParams:
    values: dict[str, float] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                params = ModelParams.from_config_text(fh.read())
        except OSError as exc:
            raise CliError("config_io_error", str(exc), exit_code=2) from exc
        except ValueError as exc:  # includes UnicodeDecodeError
            raise CliError("config_parse_error", str(exc), exit_code=2) from exc
        values = {key: getattr(params, _FIELD_BY_KEY[key]) for key in CONFIG_KEYS}
    for item in args.set:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or key not in _FIELD_BY_KEY:
            raise CliError("config_parse_error",
                           f"bad --set {item!r}; keys: {', '.join(CONFIG_KEYS)}",
                           exit_code=2)
        try:
            values[key] = float(raw.strip())
        except ValueError as exc:
            raise CliError("config_parse_error", f"bad number in --set {item!r}",
                           exit_code=2) from exc
    missing = [key for key in CONFIG_KEYS if key not in values]
    if missing:
        raise CliError("config_parse_error",
                       f"missing parameters: {', '.join(missing)}", exit_code=2)
    try:
        return ModelParams(**{_FIELD_BY_KEY[k]: v for k, v in values.items()})
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


def cmd_hjb(args: argparse.Namespace) -> int:
    params = load_params(args)
    x = parse_state(args.x)
    solutions = hjb.enumerate_hjb(params, x)
    records = [sol.to_record() for sol in solutions]
    if args.format == "json":
        emit(args.out, json.dumps(records, indent=2) + "\n")
    else:
        emit(args.out, records_to_csv(hjb.CSV_FIELDS, records))
    return 0


def cmd_fixed_points(args: argparse.Namespace) -> int:
    params = load_params(args)
    records = [fp.to_record() for _, fp in equilibrium.stationary_points(params)]
    if args.format == "json":
        emit(args.out, json.dumps(records, indent=2) + "\n")
    else:
        emit(args.out, records_to_csv(fixedpoint.CSV_FIELDS, records))
    return 0


def cmd_equilibria(args: argparse.Namespace) -> int:
    params = load_params(args)
    records = [eq.to_record() for eq in equilibrium.solve_mfg(params)]
    if args.format == "json":
        emit(args.out, json.dumps(records, indent=2) + "\n")
    else:
        emit(args.out, records_to_csv(equilibrium.EQUILIBRIUM_CSV_FIELDS, records))
    return 0


def cmd_thresholds(args: argparse.Namespace) -> int:
    params = load_params(args)
    report = equilibrium.kappa_thresholds(params).to_record()
    if args.format == "json":
        emit(args.out, json.dumps(report, indent=2) + "\n")
    else:
        flat = dict(report)
        domains = flat.pop("domains")
        for key, value in domains.items():
            flat[f"domain_{key}"] = value
        fields = tuple(flat.keys())
        emit(args.out, records_to_csv(fields, [flat]))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    params = load_params(args)
    try:
        rows = equilibrium.sweep_kappa(params, args.kappa_min, args.kappa_max, args.steps)
    except ValueError as exc:
        raise CliError("invalid_sweep", str(exc)) from exc
    if args.format == "json":
        emit(args.out, json.dumps([r.to_record() for r in rows], indent=2) + "\n")
    else:
        emit(args.out, records_to_csv(equilibrium.SWEEP_CSV_FIELDS,
                                      [r.to_csv_record() for r in rows]))
    return 0


def _parse_policy(text: str) -> ControlVector | str:
    if text == agentsim.MYOPIC:
        return agentsim.MYOPIC
    if text.startswith("fixed:"):
        try:
            return StrategyCase.from_label(text.removeprefix("fixed:")).control
        except ValueError as exc:
            raise CliError("invalid_policy", str(exc)) from exc
    raise CliError("invalid_policy", f"policy must be fixed:<case> or myopic, got {text!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    params = load_params(args)
    x0 = parse_state(args.x)
    policy = _parse_policy(args.policy)
    myopic = policy == agentsim.MYOPIC
    if args.switch_log and not myopic:
        raise CliError("invalid_policy", "--switch-log needs --policy myopic")
    if args.replicas < 1:
        raise CliError("invalid_replicas", "--replicas must be >= 1")
    try:
        cfg = agentsim.SimConfig(
            n_agents=args.n_agents, horizon=args.horizon, seed=args.seed,
            policy=policy, sample_interval=args.sample_interval, initial=x0)
    except ValueError as exc:
        raise CliError("invalid_sim_config", str(exc)) from exc
    trajectories = agentsim.replica_trajectories(params, cfg, args.replicas)

    lead = ("replica",) if args.replicas > 1 else ()
    if args.switch_log:
        switches = [dict(dataclasses.asdict(sw), replica=i)
                    for i, traj in enumerate(trajectories) for sw in traj.switches]
        emit(args.switch_log, records_to_csv(
            lead + ("t", "old_case", "new_case", "mu"), switches))
    if args.format == "json":
        payload = [_trajectory_record(traj, i, myopic)
                   for i, traj in enumerate(trajectories)]
        emit(args.out, json.dumps(payload if args.replicas > 1 else payload[0],
                                  indent=2) + "\n")
        return 0
    rows = []
    for i, traj in enumerate(trajectories):
        for k, t in enumerate(traj.times):
            row = dict(zip(STATE_FIELDS, map(float, traj.states[k])),
                       replica=i, t=float(t))
            if myopic:
                row["case"] = traj.cases[k]
            rows.append(row)
    fields = lead + ("t",) + STATE_FIELDS + (("case",) if myopic else ())
    emit(args.out, records_to_csv(fields, rows))
    return 0


def _trajectory_record(traj: agentsim.Trajectory, replica: int, myopic: bool) -> dict:
    rec = {
        "replica": replica,
        "t": [float(v) for v in traj.times],
        "x_DI": [float(v) for v in traj.states[:, 0]],
        "x_DS": [float(v) for v in traj.states[:, 1]],
        "x_UI": [float(v) for v in traj.states[:, 2]],
        "x_US": [float(v) for v in traj.states[:, 3]],
    }
    if myopic:
        rec["case"] = traj.cases
        rec["switches"] = [dataclasses.asdict(s) for s in traj.switches]
    return rec


def cmd_validate(args: argparse.Namespace) -> int:
    results = validation.run_all(args.seed, args.trials)
    if args.format == "json":
        emit(args.out, json.dumps([r.to_record() for r in results], indent=2) + "\n")
    else:
        rows = [dict(r.to_record(), check=r.name) for r in results]
        emit(args.out, records_to_csv(("check", "passed", "failed", "detail"), rows))
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CliError as exc:
        record = {"error": exc.code, "detail": str(exc)}
        sys.stderr.write(json.dumps(record) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
