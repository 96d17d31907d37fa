import hashlib
import json

import pytest

from botnet_mfg import agentsim
from botnet_mfg.cli import main
from botnet_mfg.model import ModelParams

CONFIG = """\
q_rec_D = 1.0
q_rec_U = 1.0
q_inf_D = 0.5
q_inf_U = 1.0
beta_UU = 4.0
beta_UD = 0.5
beta_DU = 4.0
beta_DD = 0.5
lambda = 2000.0
v_H = 1.0
k_D = 0.7
k_I = 1.0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "params.cfg"
    path.write_text(CONFIG)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHjbCommand:
    def test_csv_output(self, config_path, capsys):
        code, out, err = run(capsys, "hjb", "--config", config_path,
                             "--x", "0.1,0.4,0.2,0.3")
        assert code == 0 and not err
        lines = out.strip().split("\n")
        assert lines[0].startswith("case,mu,g_DI")
        assert len(lines) == 2
        assert lines[1].startswith("i,")

    def test_json_output(self, config_path, capsys):
        code, out, _ = run(capsys, "hjb", "--config", config_path,
                           "--x", "0.1,0.4,0.2,0.3", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert records[0]["case"] == "i"
        assert records[0]["valid"] is True

    def test_tiny_costs_give_the_unit_cost_case(self, config_path, capsys):
        # kappa = 0.7 as in the config, so the same single case i comes back
        code, out, _ = run(capsys, "hjb", "--config", config_path,
                           "--set", "k_D=0.7e-10", "--set", "k_I=1e-10",
                           "--x", "0.1,0.4,0.2,0.3", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [(r["case"], r["valid"], r["degenerate"]) for r in records] == [
            ("i", True, False)]

    def test_invalid_simplex_exit_1(self, config_path, capsys):
        code, out, err = run(capsys, "hjb", "--config", config_path,
                             "--x", "0.5,0.5,0.5,0.5")
        assert code == 1
        assert json.loads(err)["error"] == "invalid_simplex"

    def test_set_overrides(self, config_path, capsys):
        code, out, _ = run(capsys, "hjb", "--config", config_path,
                           "--x", "0.1,0.4,0.2,0.3",
                           "--set", "k_D=0.05", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["case"] == "iii"

    def test_inline_params_without_config(self, capsys):
        sets = []
        params = ModelParams.from_config_text(CONFIG)
        for key in ("q_rec_D", "q_rec_U", "q_inf_D", "q_inf_U", "beta_UU",
                    "beta_UD", "beta_DU", "beta_DD", "v_H", "k_D", "k_I"):
            sets += ["--set", f"{key}={getattr(params, key)}"]
        sets += ["--set", f"lambda={params.lam}"]
        code, out, _ = run(capsys, "hjb", *sets, "--x", "0.1,0.4,0.2,0.3")
        assert code == 0


class TestConfigErrors:
    def test_missing_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "partial.cfg"
        path.write_text("q_rec_D = 1.0\n")
        code, _, err = run(capsys, "equilibria", "--config", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "config_parse_error"

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG + "mystery = 3\n")
        code, _, err = run(capsys, "equilibria", "--config", str(path))
        assert code == 2

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "equilibria", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2
        assert json.loads(err)["error"] == "config_io_error"

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(CONFIG.encode() + "# d\xe9fense\n".encode("latin-1"))
        code, _, err = run(capsys, "equilibria", "--config", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "config_parse_error"

    def test_invalid_value_exit_1(self, config_path, capsys):
        code, _, err = run(capsys, "equilibria", "--config", config_path,
                           "--set", "lambda=0")
        assert code == 1
        assert json.loads(err)["error"] == "invalid_params"

    def test_set_supplies_a_key_missing_from_the_config(self, config_path, tmp_path,
                                                        capsys):
        path = tmp_path / "partial.cfg"
        path.write_text(CONFIG.replace("k_I = 1.0\n", ""))
        code, out, err = run(capsys, "thresholds", "--config", str(path),
                             "--set", "k_I=1.0")
        assert code == 0 and not err
        assert run(capsys, "thresholds", "--config", config_path)[1] == out

    @pytest.mark.parametrize("line", ["lambda = 2000.0", "k_I = 1.0"])
    def test_invalid_config_value_exit_1_unless_set_fixes_it(self, line, tmp_path,
                                                             capsys):
        key = line.split()[0]
        path = tmp_path / "zero.cfg"
        path.write_text(CONFIG.replace(line, f"{key} = 0"))
        code, _, err = run(capsys, "thresholds", "--config", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "invalid_params"
        code, _, err = run(capsys, "thresholds", "--config", str(path),
                           "--set", line.replace(" ", ""))
        assert code == 0 and not err

    @pytest.mark.parametrize("item", ["k_I", "k_X=1", "", "k_I=1=2", "k_I=1 k_D=2",
                                      "k_I=1,k_D=0.5", "k_I=x"])
    def test_bad_set_item_exit_2(self, item, config_path, capsys):
        code, _, err = run(capsys, "thresholds", "--config", config_path,
                           "--set", item)
        assert code == 2
        assert json.loads(err)["error"] == "config_parse_error"


class TestCommands:
    def test_equilibria(self, config_path, capsys):
        code, out, _ = run(capsys, "equilibria", "--config", config_path,
                           "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["case"] for r in records] == ["i"]
        assert records[0]["stable"] is True

    def test_fixed_points(self, config_path, capsys):
        code, out, _ = run(capsys, "fixed-points", "--config", config_path,
                           "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["case"] for r in records][:2] == ["i", "ii"]
        assert {r["method"] for r in records} == {"closed_form", "quartic_numeric"}

    def test_thresholds(self, config_path, capsys):
        code, out, _ = run(capsys, "thresholds", "--config", config_path,
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["kappa_star"] == pytest.approx(0.636271, abs=1e-5)

    def test_thresholds_on_the_domain_boundary(self, config_path, capsys):
        # equal infection and contact rates with equal recoveries: alpha == beta
        # and q_rec_D == q_rec_U, so every fixed point sits on the boundary
        boundary = ("q_inf_D=0.8", "q_inf_U=0.8", "beta_UU=2.0", "beta_UD=2.0",
                    "beta_DU=2.0", "beta_DD=2.0", "lambda=50", "k_D=0.3")
        sets = [arg for item in boundary for arg in ("--set", item)]
        code, out, _ = run(capsys, "thresholds", "--config", config_path, *sets,
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["domains"] == dict.fromkeys(
            ("x_star_UI", "x_star_DI", "x_bar_star_UI"), "Boundary")

    def test_sweep_csv_header(self, config_path, capsys):
        code, out, _ = run(capsys, "sweep", "--config", config_path,
                           "--kappa-min", "0.45", "--kappa-max", "0.72",
                           "--steps", "10")
        assert code == 0
        assert out.split("\n")[0] == "kappa,count,cases,mu_min,mu_all,stable_all,near_bifurcation"

    def test_simulate_csv(self, config_path, capsys):
        code, out, _ = run(capsys, "simulate", "--config", config_path,
                           "--x", "0,0,0.3,0.7", "--n-agents", "200",
                           "--horizon", "2.0", "--seed", "5",
                           "--policy", "fixed:i", "--sample-interval", "0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x_DI,x_DS,x_UI,x_US"
        assert len(lines) == 6

    def test_simulate_myopic_has_case_column(self, config_path, capsys):
        code, out, _ = run(capsys, "simulate", "--config", config_path,
                           "--set", "lambda=20",
                           "--x", "0,0,0.3,0.7", "--n-agents", "100",
                           "--horizon", "1.0", "--seed", "5",
                           "--policy", "myopic", "--sample-interval", "0.5")
        assert code == 0
        assert out.split("\n")[0] == "t,x_DI,x_DS,x_UI,x_US,case"

    def test_switch_log_written(self, config_path, tmp_path, capsys):
        log = tmp_path / "switches.csv"
        code, _, _ = run(capsys, "simulate", "--config", config_path,
                         "--set", "lambda=20",
                         "--x", "0.3,0.3,0.2,0.2", "--n-agents", "200",
                         "--horizon", "3.0", "--seed", "5",
                         "--policy", "myopic", "--sample-interval", "0.5",
                         "--switch-log", str(log))
        assert code == 0
        assert log.read_text().split("\n")[0] == "t,old_case,new_case,mu"

    def test_switch_log_rejected_for_fixed_policy(self, config_path, tmp_path,
                                                  capsys, monkeypatch):
        def fail(*_args):
            raise AssertionError("simulated before rejecting --switch-log")

        monkeypatch.setattr(agentsim, "replica_trajectories", fail)
        code, _, err = run(capsys, "simulate", "--config", config_path,
                           "--x", "0,0,0.3,0.7", "--n-agents", "10",
                           "--horizon", "1.0", "--seed", "5",
                           "--policy", "fixed:i",
                           "--switch-log", str(tmp_path / "x.csv"))
        assert code == 1
        assert json.loads(err)["error"] == "invalid_policy"

    @pytest.mark.parametrize("flag", ["--out", "--switch-log"])
    def test_unwritable_output_exit_1(self, flag, config_path, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--config", config_path,
                           "--set", "lambda=20",
                           "--x", "0,0,0.3,0.7", "--n-agents", "10",
                           "--horizon", "1.0", "--seed", "5",
                           "--policy", "myopic",
                           flag, str(tmp_path / "missing" / "x.csv"))
        assert code == 1
        assert json.loads(err)["error"] == "output_io_error"

    def test_bad_policy(self, config_path, capsys):
        code, _, err = run(capsys, "simulate", "--config", config_path,
                           "--x", "0,0,0.3,0.7", "--n-agents", "10",
                           "--horizon", "1.0", "--seed", "5",
                           "--policy", "fixed:v")
        assert code == 1
        assert json.loads(err)["error"] == "invalid_policy"

    def test_validate_reports_zero_failures(self, capsys):
        code, out, _ = run(capsys, "validate", "--seed", "7", "--trials", "60",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert all(r["failed"] == 0 for r in report)
        assert {r["name"] for r in report} >= {"oracle_agreement", "hjb_residual"}


SIMULATE = ["--x", "0,0,0.3,0.7", "--n-agents", "10", "--policy", "fixed:i"]


class TestBadInputs:
    @pytest.mark.parametrize("flags", [
        ["--seed", "-1", "--horizon", "1.0"],
        ["--seed", "5", "--horizon", "inf"],
        ["--seed", "5", "--horizon", "1.0", "--sample-interval", "nan"],
        ["--seed", "5", "--horizon", "1e308", "--sample-interval", "1e-10"],
        ["--seed", "5", "--horizon", "1.0", "--n-agents", "100000000000000000000"],
        ["--seed", "5", "--horizon", "1.0", "--n-agents", "9007199254740993"],
        ["--seed", "5", "--horizon", "1.0", "--n-agents", "0"],
    ], ids=["negative-seed", "infinite-horizon", "nan-sample-interval",
            "overflowing-sample-count", "huge-population", "population-above-2**53",
            "empty-population"])
    def test_simulate_rejects(self, flags, config_path, capsys):
        code, out, err = run(capsys, "simulate", "--config", config_path,
                             *SIMULATE, *flags)
        assert code == 1 and not out
        assert json.loads(err)["error"] == "invalid_sim_config"

    @pytest.mark.parametrize("bound", ["inf", "nan"])
    def test_sweep_rejects_non_finite_kappa_max(self, bound, config_path, capsys):
        code, out, err = run(capsys, "sweep", "--config", config_path,
                             "--kappa-min", "0", "--kappa-max", bound, "--steps", "5")
        assert code == 1 and not out
        assert json.loads(err) == {"error": "invalid_sweep",
                                   "detail": "need finite 0 <= kappa_min < kappa_max"}

    def test_sweep_rejects_more_steps_than_the_cap(self, config_path, capsys):
        code, out, err = run(capsys, "sweep", "--config", config_path,
                             "--kappa-min", "0", "--kappa-max", "1",
                             "--steps", "10000000000000")
        assert code == 1 and not out
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "invalid_sweep",
                                   "detail": "steps exceeds 1000000"}

    @pytest.mark.parametrize("policy, mode, error", [
        ("myopic", "events", "invalid_sim_config"),
        ("myopic", "", "invalid_sim_config"),
        ("fixed:i", "event", "invalid_policy"),
    ], ids=["unknown-mode", "empty-mode", "fixed-policy"])
    def test_simulate_rejects_myopic_recompute(self, policy, mode, error,
                                               config_path, capsys):
        code, out, err = run(capsys, "simulate", "--config", config_path,
                             "--x", "0.3,0.3,0.2,0.2", "--n-agents", "10",
                             "--horizon", "1.0", "--seed", "5", "--policy", policy,
                             "--myopic-recompute", mode)
        assert code == 1 and not out
        assert json.loads(err)["error"] == error

    def test_validate_rejects_negative_seed(self, capsys):
        code, out, err = run(capsys, "validate", "--seed", "-1", "--trials", "5")
        assert code == 1 and not out
        assert json.loads(err)["error"] == "invalid_seed"

    def test_validate_rejects_nonpositive_trials(self, capsys):
        code, out, err = run(capsys, "validate", "--seed", "5", "--trials", "-3")
        assert code == 1 and not out
        assert json.loads(err)["error"] == "invalid_trials"


GOLDEN_ARGS = {
    "hjb": ["--x", "0.1,0.4,0.2,0.3"],
    "fixed-points": [],
    "equilibria": [],
    "thresholds": [],
    "sweep": ["--kappa-min", "0.45", "--kappa-max", "0.72", "--steps", "10"],
    "simulate": ["--x", "0.3,0.3,0.2,0.2", "--n-agents", "200", "--horizon", "3.0",
                 "--seed", "5", "--policy", "myopic", "--sample-interval", "0.5",
                 "--replicas", "2", "--set", "lambda=20", "--set", "k_D=0.6"],
}

# sha256 of each command's stdout on CONFIG
GOLDEN_SHA256 = {
    ("hjb", "csv"):
        "8d808196bff21895a92ce00a974793b09868238d6f98050b3d6c2f9d1009518a",
    ("hjb", "json"):
        "6422d3a349abed3babd42bac045dc6169c428568ebfd1b41614330d5f8dee394",
    ("fixed-points", "csv"):
        "46be47b8615725dbfdb968d21e09989d3bc71199d81cadff8ea184a0f3ed5ff1",
    ("fixed-points", "json"):
        "8057a34ec467868f9ac38ccd8e0e3d0bf6ba728ace07619ef9bf5e69c19db52d",
    ("equilibria", "csv"):
        "67dc4be69f608e58425e9b9130b8f50d97136f701eb9868792fbe48a96fb1d9d",
    ("equilibria", "json"):
        "4e12b9d8ca2009a35e0bf8ea9e474191844e959b9bd0890cbe1816d13d2f3a43",
    ("thresholds", "csv"):
        "c7f082c2369585289883ab0551358171c965b65a581c2add48e5e16c38451d2f",
    ("thresholds", "json"):
        "90b7e17c01e7ba7f7b349f0db380f069d76852d914164be0150bed85303a79cb",
    ("sweep", "csv"):
        "928e38f2f43fc5d4b8829663ee5ac5495a100421d01c957c1b13aa6f1cde050f",
    ("sweep", "json"):
        "77236cb15245672dd1af2bb389d24659340a4aebfdcbd01c062c5705e273afe7",
    ("simulate", "csv"):
        "ce5ec4b4cc8b9eca0d70fe41f0860253a3c15461f20a8f05d2c06224b7d73798",
    ("simulate", "json"):
        "356dead18c1e22ceb274e9bb33a2032e21d5f55d0c12938cad896d7847c093f0",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGolden:
    @pytest.mark.parametrize("command, fmt", list(GOLDEN_SHA256),
                             ids=[f"{c}-{f}" for c, f in GOLDEN_SHA256])
    def test_command_sha256(self, command, fmt, config_path, capsys):
        code, out, err = run(capsys, command, "--config", config_path,
                             "--format", fmt, *GOLDEN_ARGS[command])
        assert code == 0 and not err
        assert sha256(out) == GOLDEN_SHA256[command, fmt]

    def test_simulate_fixed_csv_sha256(self, config_path, capsys):
        code, out, _ = run(capsys, "simulate", "--config", config_path,
                           "--x", "0,0,0.3,0.7", "--n-agents", "200",
                           "--horizon", "2.0", "--seed", "5",
                           "--policy", "fixed:i", "--sample-interval", "0.5")
        assert code == 0
        assert sha256(out) == (
            "87c46ef885fbee5fd2c597041442e77738b23548e387d1d8521e726e1083c8c6")

    def test_simulate_per_event_myopic_sha256(self, config_path, capsys):
        code, out, err = run(capsys, "simulate", "--config", config_path,
                             *GOLDEN_ARGS["simulate"], "--myopic-recompute", "event")
        assert code == 0 and not err
        assert sha256(out) == (
            "964592ea52f6f2a13ac0d7ea50a0b9586af97242d7c4cfe946530a4e413548c6")

    def test_switch_log_sha256(self, config_path, tmp_path, capsys):
        log = tmp_path / "switches.csv"
        code, _, _ = run(capsys, "simulate", "--config", config_path,
                         "--switch-log", str(log), *GOLDEN_ARGS["simulate"])
        assert code == 0
        assert sha256(log.read_text()) == (
            "684f8b0c444f15c78618c8c5ef56861c297ce713d8dfdcaa9c5a70b063f3aa58")

    def test_empty_equilibria_prints_header(self, config_path, capsys):
        code, out, _ = run(capsys, "equilibria", "--config", config_path,
                           "--set", "k_D=0.62")
        assert code == 0
        assert out.count("\n") == 1 and out.startswith("case,x_DI,")
        assert sha256(out) == (
            "0fd015cd19ba06eb50c8040ee7c7d61b18de2af56d82ba93c25d8436a32aada6")

    def test_set_does_not_carry_over_to_the_next_call(self, config_path, capsys):
        code, out, _ = run(capsys, "equilibria", "--config", config_path,
                           "--set", "k_D=0.62")
        assert code == 0 and out.count("\n") == 1
        code, out, _ = run(capsys, "equilibria", "--config", config_path)
        assert code == 0 and sha256(out) == GOLDEN_SHA256["equilibria", "csv"]

    def test_validate_json_sha256(self, capsys):
        code, out, _ = run(capsys, "validate", "--seed", "5", "--trials", "40",
                           "--format", "json")
        assert code == 0
        assert sha256(out) == (
            "58d9e1ca578148403ee4d5a402b0f0a6eebe3852e5d40fb196a5a99965dc3992")

    def test_validate_csv_sha256(self, capsys):
        code, out, _ = run(capsys, "validate", "--seed", "5", "--trials", "40")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4ab0d2399b2a483d4894f407652fb378a5671c5ecc65a1a099338b8e51292509")

    # the report holds pass/fail counts only, so an all-pass run of 40 draws
    # prints the seed-5 bytes at seed 7 as well; the floats behind it are
    # pinned by tests/test_fixedpoint.py::TestBitIdentity
    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "4ab0d2399b2a483d4894f407652fb378a5671c5ecc65a1a099338b8e51292509"),
        ("json", "58d9e1ca578148403ee4d5a402b0f0a6eebe3852e5d40fb196a5a99965dc3992"),
    ])
    def test_validate_seed_7_sha256(self, fmt, digest, capsys):
        code, out, _ = run(capsys, "validate", "--seed", "7", "--trials", "40",
                           "--format", fmt)
        assert code == 0 and sha256(out) == digest


# no recovery while defended and no attacker pressure: alpha + q_rec_D
# vanishes at the disease-free case-iii point that kappa_3 is taken at
ZERO_RATES = ["--set", "q_rec_D=0", "--set", "v_H=0", "--set", "beta_UU=0.5",
              "--set", "beta_DU=0.5", "--set", "beta_UD=0.5", "--set", "beta_DD=0.5",
              "--set", "lambda=10"]


class TestZeroRates:
    def test_sweep_prints_rows(self, config_path, capsys):
        code, out, err = run(capsys, "sweep", "--config", config_path, *ZERO_RATES,
                             "--kappa-min", "0", "--kappa-max", "1", "--steps", "5")
        assert code == 0 and not err
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert lines[1] == "0.0,2,i+iii,0.0,0.0;0.0,true;true,true"
        assert lines[-1] == "1.0,1,i,0.0,0.0,true,false"

    def test_thresholds_reports_degenerate_rates(self, config_path, capsys):
        code, out, err = run(capsys, "thresholds", "--config", config_path, *ZERO_RATES)
        assert code == 1 and not out
        assert json.loads(err)["error"] == "degenerate_rates"


SOLVER_COMMANDS = {
    "fixed-points": [],
    "equilibria": [],
    "thresholds": [],
    "sweep": ["--kappa-min", "0", "--kappa-max", "1", "--steps", "3"],
}
# rates past the float range: an overflowing square in endemic_root, an
# infinite root off the simplex, and (thresholds) a spectrum of infinities
FLOAT_RANGE_CASES = [(command, setting) for command in SOLVER_COMMANDS
                     for setting in ("beta_UU=1e160", "v_H=1e200", "q_rec_U=1e200")]
FLOAT_RANGE_CASES.append(("thresholds", "lambda=1e200"))


# lambda = 1e308 makes the case-i Bellman solution NaN: every command that
# prices it, the myopic simulator included, fails
NON_FINITE_COMMANDS = {
    "hjb": ["--x", "0.1,0.4,0.2,0.3"],
    "equilibria": [],
    "sweep": SOLVER_COMMANDS["sweep"],
    "simulate": ["--x", "0,0,0.3,0.7", "--n-agents", "10", "--horizon", "1",
                 "--seed", "5", "--policy", "myopic"],
}
FLOAT_RANGE_CASES += [(command, "lambda=1e308") for command in NON_FINITE_COMMANDS]


class TestFloatRange:
    @pytest.mark.parametrize("command, setting", FLOAT_RANGE_CASES)
    def test_reports_degenerate_rates(self, command, setting, config_path, capsys):
        flags = {**SOLVER_COMMANDS, **NON_FINITE_COMMANDS}[command]
        code, out, err = run(capsys, command, "--config", config_path,
                             "--set", setting, *flags)
        assert code == 1 and not out
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "degenerate_rates"

    def test_large_recovery_rate_keeps_the_endemic_root(self, config_path, capsys):
        # with beta_UU = 4 and direct pressure 1, the textbook root
        # (4 - q_rec_U - 1 + sqrt(disc))/8 cancels to 0 at q_rec_U = 1e10;
        # the conjugate form keeps x_UI = 1/(q_rec_U - 3) to rounding
        code, out, err = run(capsys, "fixed-points", "--config", config_path,
                             "--set", "q_rec_U=1e10", "--format", "json")
        assert code == 0 and not err
        point = next(p for p in json.loads(out) if p["case"] == "i")
        assert point["x_UI"] > 0.0

    def test_sweep_checks_its_bounds_before_solving(self, config_path, capsys):
        code, out, err = run(capsys, "sweep", "--config", config_path,
                             "--set", "q_rec_U=1e200",
                             "--kappa-min", "1", "--kappa-max", "0", "--steps", "3")
        assert code == 1 and not out
        assert json.loads(err)["error"] == "invalid_sweep"


class TestDeterminism:
    def test_simulate_byte_identical(self, config_path, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run(capsys, "simulate", "--config", config_path,
                             "--x", "0,0,0.3,0.7", "--n-agents", "300",
                             "--horizon", "3.0", "--seed", "11",
                             "--policy", "fixed:i", "--sample-interval", "0.25",
                             "--out", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_byte_identical(self, config_path, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run(capsys, "sweep", "--config", config_path,
                             "--kappa-min", "0.5", "--kappa-max", "0.7",
                             "--steps", "25", "--out", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
