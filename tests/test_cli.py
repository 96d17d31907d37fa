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


class TestGolden:
    def test_validate_csv_sha256(self, capsys):
        code, out, _ = run(capsys, "validate", "--seed", "5", "--trials", "40")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4ab0d2399b2a483d4894f407652fb378a5671c5ecc65a1a099338b8e51292509")


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
