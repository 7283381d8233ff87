import json
import math

import pytest

from magnomech import (build_params, default_config, default_params,
                       figure_preset, run_sweep, two_mode_eigenfrequencies)
from magnomech.cli import main

OMEGA_B = default_params().omega_b


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_exceptional_point(self, capsys):
        code, out, _ = run_cli(capsys, "classify",
                               "--set", "g_ma=0.06omega_b",
                               "--set", "kappa_a=0.02omega_b",
                               "--set", "kappa_m=0.1omega_b")
        assert code == 0
        obj = json.loads(out)
        assert obj["phase"] == "ExceptionalPoint"

    def test_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "classify")
        assert code == 0
        obj = json.loads(out)
        params = build_params(default_config())
        w_plus, _ = two_mode_eigenfrequencies(
            params.delta_a, params.kappa_a, params.kappa_m, params.g_ma)
        assert obj["phase"] == params.pt_phase().tag
        assert obj["omega_plus_re"] == w_plus.real  # exact round trip


class TestSteadyStateAndDrift:
    def test_steady_state_preset(self, capsys):
        code, out, _ = run_cli(capsys, "steady-state")
        obj = json.loads(out)
        assert code == 0
        assert obj["G_rad_s"] == pytest.approx(0.2 * OMEGA_B)

    def test_drift_csv_is_six_rows(self, capsys):
        code, out, _ = run_cli(capsys, "drift", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(len(line.split(",")) == 6 for line in lines)

    def test_bare_detuning_reaches_self_consistent_point(self, capsys):
        code, out, _ = run_cli(capsys, "steady-state",
                               "--set", "epsilon_d=1e13rad_s",
                               "--set", "delta_m=-1omega_b")
        assert code == 0
        assert json.loads(out)["iterations"] > 0
        # Without a drive, the bundled G_eff has no effective detuning to use.
        code, _, err = run_cli(capsys, "steady-state", "--set", "delta_m=-1omega_b")
        assert code == 2 and "delta_m_eff" in err

    def test_stability_json(self, capsys):
        code, out, _ = run_cli(capsys, "stability")
        obj = json.loads(out)
        assert code == 0
        assert obj["stable"] is True
        assert obj["max_lyapunov_rad_s"] < 0


class TestMeasures:
    def test_all_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "measures")
        assert code == 0
        objs = json.loads(out)
        assert [o["pair"] for o in objs] == ["am", "bm", "ab"]
        for o in objs:
            assert set(o) == {"pair", "E_N", "S_forward", "S_backward",
                              "eta_minus", "residual", "physicality_margin"}

    def test_unstable_point_exits_4(self, capsys):
        code, out, err = run_cli(capsys, "measures",
                                 "--set", "g_ma=0.06omega_b")
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"] == "unstable"

    def test_unknown_key_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "measures", "--set", "bogus=1.0")
        assert code == 2
        assert "omega_b" in err  # lists valid keys


class TestPrecedence:
    def test_set_overrides_config_file(self, capsys, tmp_path):
        conf = tmp_path / "p.conf"
        conf.write_text("g_ma = 0.5 omega_b\n")
        code, out, _ = run_cli(capsys, "classify", "--config", str(conf),
                               "--set", "g_ma=0.06omega_b",
                               "--set", "kappa_a=0.02omega_b")
        assert code == 0
        assert json.loads(out)["phase"] == "ExceptionalPoint"

    def test_config_file_overrides_defaults(self, capsys, tmp_path):
        conf = tmp_path / "p.conf"
        conf.write_text("kappa_a = 0.02 omega_b\ng_ma = 0.0599 omega_b\n")
        code, out, _ = run_cli(capsys, "classify", "--config", str(conf))
        assert json.loads(out)["phase"] == "Broken"


class TestSweepAndFigure:
    def test_figure_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig3a", "--format", "csv")
        assert code == 0
        expected = run_sweep(figure_preset("fig3a")).to_csv()
        assert out == expected

    def test_figure_follows_config_and_set(self, capsys, tmp_path):
        conf = tmp_path / "p.conf"
        conf.write_text("temperature = 200 mk\n")
        code, out, _ = run_cli(capsys, "figure", "fig3d", "--format", "csv",
                               "--config", str(conf))
        assert code == 0
        base = build_params(default_config()).replace(temperature=0.2)
        assert out == run_sweep(figure_preset("fig3d", base=base)).to_csv()
        assert out != run_sweep(figure_preset("fig3d")).to_csv()
        code, again, _ = run_cli(capsys, "figure", "fig3d", "--format", "csv",
                                 "--set", "temperature=200mk")
        assert code == 0 and again == out

    def test_figure_drive_layer_clash_exits_2(self, capsys):
        # fig3d fixes G_eff, which a drive-mode layer has replaced.
        code, out, err = run_cli(capsys, "figure", "fig3d",
                                 "--set", "epsilon_d=1e13rad_s")
        assert code == 2 and out == ""
        assert "G_eff" in err

    def test_custom_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "G_over_omega_b:0.1:0.3:3",
            "--output", "E_N(bm)", "--output", "stable", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "G/omega_b,E_N_bm_nats,stable,error"
        assert len(lines) == 4

    def test_bad_axis_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--axis", "nope:0:1:5",
                             "--output", "stable")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "figure", "fig2d", "--format", "csv",
                               "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("g_ma/G,")

    def test_unwritable_out_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "stability",
                             "--out", "/nonexistent/dir/x.json")
        assert code == 3


class TestVanishTemp:
    def test_conventional_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "vanish-temp", "--pair", "am",
                               "--set", "kappa_a=-0.02omega_b",
                               "--set", "G_eff=0.25omega_b",
                               "--t-lo", "0 mk", "--t-hi", "350 mk")
        assert code == 0
        obj = json.loads(out)
        assert 0.10 < obj["temperature_K"] < 0.20

    def test_invalid_bracket_exits_2(self, capsys):
        # Gain cavity has no photon-magnon entanglement to bracket.
        code, _, err = run_cli(capsys, "vanish-temp", "--pair", "am",
                               "--t-lo", "0 mk", "--t-hi", "250 mk")
        assert code == 2
        assert "error" in err
