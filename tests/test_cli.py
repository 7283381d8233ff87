import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from magnomech import (Axis, MagnomechError, ParameterError, SweepSpec,
                       build_params, default_config, default_params,
                       diffusion_from_params, drift_from_params, evaluate_point,
                       figure_preset, merge_layers, pair_measures, run_sweep,
                       solve_lyapunov, stability, two_mode_eigenfrequencies,
                       working_point)
from magnomech import cli, sweep
from magnomech.cli import main
from magnomech.config import apply_overrides
from magnomech.dynamics import GAIN_NOISE_MODES
from magnomech.measures import PAIRS

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


    @pytest.mark.parametrize("sets", [
        ("g_ma=1.4e154rad_s",),  # g_ma^2 overflows (1.3e154 does not)
        ("kappa_m=1e308rad_s", "kappa_a=1e308rad_s")])  # so does their sum
    def test_overflowing_eigenfrequencies_exit_2(self, capsys, sets):
        code, out, err = run_cli(capsys, "classify",
                                 *(arg for text in sets for arg in ("--set", text)))
        assert (code, out) == (2, "")
        assert err.startswith(
            "error: two_mode_eigenfrequencies: eigenfrequencies overflow")


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

    def test_drift_json_is_the_library_drift(self, capsys):
        code, out, _ = run_cli(capsys, "drift", "--format", "json")
        params = build_params(default_config())
        drift = drift_from_params(params, working_point(params))
        assert code == 0
        assert out == json.dumps({"drift": drift.a.tolist()}) + "\n"

    def test_bare_detuning_reaches_self_consistent_point(self, capsys):
        code, out, _ = run_cli(capsys, "steady-state",
                               "--set", "epsilon_d=1e13rad_s",
                               "--set", "delta_m=-1omega_b")
        assert code == 0
        assert json.loads(out)["iterations"] > 0
        # Without a drive, the bundled G_eff has no effective detuning to use.
        code, _, err = run_cli(capsys, "steady-state", "--set", "delta_m=-1omega_b")
        assert code == 2 and "delta_m_eff" in err

    def test_drive_point_with_an_underflowing_cubic_coefficient(self, capsys):
        # At g_mb = 1e-100 rad/s the cubic's n^3 coefficient underflows to 0;
        # the working point is that of g_mb = 1e-80 rad/s, where it does not.
        drive = ["--set", "epsilon_d=9.2e13rad_s", "--set", "delta_m=-0.95omega_b"]
        points = []
        for g_mb in ("1e-80rad_s", "1e-100rad_s"):
            code, out, _ = run_cli(capsys, "steady-state", *drive,
                                   "--set", f"g_mb={g_mb}")
            assert code == 0
            points.append(json.loads(out))
        for key in ("m_s_re", "m_s_im", "delta_m_eff_rad_s"):
            assert points[0][key] == points[1][key]

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

    def test_every_error_names_itself(self):
        # A failure's code is what a sweep cell or the unstable JSON shows.
        classes, codes = [MagnomechError], []
        while classes:
            subclasses = classes.pop().__subclasses__()
            classes += subclasses
            codes += [cls.code for cls in subclasses]
        assert len(codes) == len(set(codes)) and "error" not in codes

    @pytest.mark.parametrize("argv", [
        ("classify", "--jobs", "2"), ("steady-state", "--jobs", "2"),
        ("drift", "--jobs", "2"), ("stability", "--jobs", "2"),
        ("measures", "--jobs", "2"), ("vanish-temp", "--jobs", "2"),
        ("classify", "--gain-noise", "reversed"),
        ("steady-state", "--gain-noise", "reversed"),
        ("drift", "--gain-noise", "reversed"),
        ("stability", "--gain-noise", "reversed"),
        # A --set of a field that the sweep sets at every point: a preset's
        # change, its series' override (fig2a has none) or an axis.
        ("figure", "fig2d", "--format", "csv", "--set", "G_eff=0.1omega_b"),
        ("figure", "fig2a", "--format", "csv", "--set", "kappa_a=-0.05omega_b"),
        ("sweep", "--axis", "G_over_omega_b:0:0.5:3", "--set", "G_eff=0.1omega_b",
         "--output", "stable")])
    def test_flag_without_effect_exits_2(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and out == ""

    def test_sub_underflow_temperature_is_zero_temperature(self, capsys):
        zero = run_cli(capsys, "measures", "--set", "temperature=0")
        tiny = run_cli(capsys, "measures", "--set", "temperature=1e-310")
        assert tiny == zero and zero[0] == 0

    def test_overflowing_temperature_exits_2(self, capsys):
        # The occupations are infinite at 1e308 K: no covariance matrix.
        code, out, err = run_cli(capsys, "measures", "--set", "temperature=1e308")
        assert code == 2 and out == ""
        assert "non-finite" in err

    def test_underflowing_quantum_energy_exits_2(self, capsys):
        # hbar*omega/(k_B*T) underflows to 0: the cavity occupation is
        # infinite, and so is D.
        code, out, err = run_cli(capsys, "measures", "--set", "omega_a=1e-300rad_s")
        assert code == 2 and out == ""
        assert "non-finite diffusion matrix" in err

    def test_unknown_key_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "measures", "--set", "bogus=1.0")
        assert code == 2
        assert "omega_b" in err  # lists valid keys

    @pytest.mark.parametrize("argv, expected", [
        (("steady-state", "--set", "G_eff=1e300rad_s"), 2),
        (("stability", "--set", "G_eff=1e300rad_s"), 2),
        (("measures", "--set", "G_eff=1e300rad_s"), 2),
        (("stability", "--set", "epsilon_d=1e300rad_s",
          "--set", "delta_m=-1omega_b"), 2),
        (("measures", "--set", "temperature=5e306k"), 2),
        (("measures", "--set", "temperature=1e308k", "--set", "kappa_a=0"), 2)])
    def test_overflowing_point_prints_no_warning(self, capsys, argv, expected):
        # The working point, drift, diffusion or determinants of these
        # points overflow; each command still exits with its code.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, *argv)
        assert code == expected
        assert (code, out) == run_cli(capsys, *argv)[:2]

    # Both drive modes, and the preset, at points whose working point
    # overflows: the drive term eps_d^2 * |i*Delta_a - kappa_a|^2 from about
    # 2.2e146 rad/s, x_s at G_eff = 1e300 rad/s.
    OVERFLOWING = [("epsilon_d=1e300rad_s", "delta_m=-1omega_b"),
                   ("epsilon_d=1e300rad_s", "delta_m_eff=-1omega_b"),
                   ("epsilon_d=1e152rad_s", "delta_m=-1omega_b"),
                   ("epsilon_d=1e152rad_s", "delta_m_eff=-1omega_b"),
                   ("G_eff=1e300rad_s",)]

    @pytest.mark.parametrize("overrides", OVERFLOWING)
    def test_overflowing_working_point_is_a_parameter_error(self, capsys,
                                                            overrides):
        params = build_params(merge_layers(
            [default_config(), apply_overrides({}, list(overrides))]))
        with pytest.raises(ParameterError, match="working point overflows"):
            working_point(params)
        assert evaluate_point(params, ("stable",)) == {
            "stable": None, "error": "parameter_error"}
        sets = [arg for text in overrides for arg in ("--set", text)]
        for command in ("steady-state", "drift", "stability", "measures"):
            code, out, err = run_cli(capsys, command, *sets)
            assert (code, out) == (2, "")
            assert err.startswith("error: working point overflows: ")

    def test_steady_state_json_is_standard(self, capsys):
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")
        for overrides in [(), ("g_mb=0hz",), ("g_mb=1e-300rad_s",),
                          ("epsilon_d=9.2e13rad_s", "delta_m=-0.95omega_b"),
                          *self.OVERFLOWING]:
            sets = [arg for text in overrides for arg in ("--set", text)]
            code, out, _ = run_cli(capsys, "steady-state", *sets)
            assert code in (0, 2)
            for line in out.splitlines():
                json.loads(line, parse_constant=refuse)


class TestSinglePointChain:
    """``stability`` and ``measures`` print exactly the numbers of the
    documented chain working_point -> drift_from_params -> stability ->
    solve_lyapunov -> pair_measures."""

    POINTS = [(), ("epsilon_d=1e13rad_s", "delta_m=-1omega_b")]

    @staticmethod
    def _drift(overrides):
        params = build_params(merge_layers(
            [default_config(), apply_overrides({}, list(overrides))]))
        return params, drift_from_params(params, working_point(params))

    @staticmethod
    def _argv(command, overrides):
        return [command, *(arg for text in overrides for arg in ("--set", text))]

    @pytest.mark.parametrize("overrides", POINTS)
    def test_stability(self, capsys, overrides):
        _, drift = self._drift(overrides)
        report = stability(drift)
        code, out, _ = run_cli(capsys, *self._argv("stability", overrides))
        assert code == 0
        assert json.loads(out) == {
            "stable": report.stable, "max_lyapunov_rad_s": report.max_lyapunov,
            "eigenvalues_re": sorted(report.eigenvalues.real.tolist())}

    @pytest.mark.parametrize("gain_noise", GAIN_NOISE_MODES)
    @pytest.mark.parametrize("overrides", POINTS)
    def test_measures(self, capsys, overrides, gain_noise):
        params, drift = self._drift(overrides)
        cm = solve_lyapunov(drift, diffusion_from_params(params, gain_noise))
        expected = []
        for pair in PAIRS:
            pm = pair_measures(cm, pair)
            expected.append({
                "pair": pair, "E_N": pm.e_n, "S_forward": pm.s_12,
                "S_backward": pm.s_21, "eta_minus": pm.eta_minus,
                "residual": cm.residual,
                "physicality_margin": cm.physicality_margin})
        code, out, _ = run_cli(capsys, *self._argv("measures", overrides),
                               "--gain-noise", gain_noise)
        assert code == 0
        assert json.loads(out) == expected


class TestSinglePointCsv:
    @pytest.mark.parametrize("argv", [
        ("classify",), ("steady-state",), ("stability",), ("measures",),
        ("vanish-temp", "--set", "kappa_a=-0.02omega_b",
         "--set", "G_eff=0.25omega_b", "--t-hi", "350 mk")])
    def test_csv_rows_match_json(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *rows = [line.split(",") for line in out.splitlines()]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        objs = json.loads(out)
        objs = objs if isinstance(objs, list) else [objs]
        assert len(rows) == len(objs)
        for row, obj in zip(rows, objs):
            assert len(row) == len(header)
            for key, cell in zip(header, row):
                value = obj[key]
                if isinstance(value, bool):
                    assert cell in (str(value), str(int(value)))
                elif isinstance(value, float):
                    assert float(cell) == pytest.approx(value, rel=1e-11)
                else:
                    assert cell == str(value)

    def test_cells_follow_the_sweep_rule(self):
        # One cell rule for every CSV: None is an empty cell, as in a sweep.
        assert cli._kv_csv({"a": None, "b": 0.1 + 0.2, "c": True, "d": 3},
                           {"a": 1.5, "b": None, "c": "x", "d": None}) == (
            "a,b,c,d\n,0.3,True,3\n1.5,,x,\n")
        assert cli._matrix_csv(np.array([[1.0, -0.0], [1 / 3, 2e-300]])) == (
            "1,-0\n0.333333333333,2e-300\n")


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

    @pytest.mark.parametrize("argv, setting", [
        (("figure", "fig3a"), "kappa_a=0.01omega_b"),
        (("figure", "fig6b"), "temperature=100mk"),
        (("sweep", "--axis", "delta_over_omega_b:-1:0:3", "--output", "stable"),
         "delta_m=-1omega_b")])
    def test_set_without_effect_names_what_sets_its_field(self, capsys, argv,
                                                          setting):
        # A series override and an axis name themselves; a delta_m is
        # unused where delta_m_eff is given.
        code, out, err = run_cli(capsys, *argv, "--set", setting)
        assert code == 2 and out == ""
        assert err == {
            "kappa_a": "error: --set kappa_a takes no effect: the series override "
                       "'kappa_a_over_kappa_m' sets kappa_a at every point\n",
            "temperature": "error: --set temperature takes no effect: the axis "
                           "'temperature' sets temperature at every point\n",
            "delta_m": "error: --set delta_m takes no effect: the axis "
                       "'delta_over_omega_b' sets delta_m_eff at every point\n",
        }[setting.partition("=")[0]]

    @pytest.mark.parametrize("argv, setting", [
        # A reference that the preset's change or the axis only reads.
        (("figure", "fig2d", "--format", "csv"), "kappa_m=0.2omega_b"),
        (("sweep", "--axis", "G_over_gma:0:0.5:3", "--output", "max_lyapunov",
          "--format", "csv"), "g_ma=0.05omega_b"),
        # A drive drops the bundled G_eff, although the axis sets epsilon_d.
        (("sweep", "--set", "delta_m=-0.95omega_b", "--axis", "epsilon_d:8e13:5e14:3",
          "--output", "stable", "--format", "csv"), "epsilon_d=9.2e13rad_s"),
        # So does a b0, which the other keys of its drive need.
        (("sweep", "--set", "delta_m=-0.95omega_b", "--set", "sphere_diameter=1e-3",
          "--set", "spin_density=4.22e27", "--axis", "epsilon_d:8e13:5e14:3",
          "--output", "max_lyapunov", "--format", "csv"), "b0=1e-5t"),
        # omega_b rescales each key given in omega_b, although the axis sets it.
        (("sweep", "--axis", "omega_b:5e7:7e7:3", "--output", "max_lyapunov",
          "--format", "csv"), "omega_b=6e7rad_s")])
    def test_set_of_a_field_the_sweep_reads_takes_effect(self, capsys, argv,
                                                         setting):
        code, out, _ = run_cli(capsys, *argv, "--set", setting)
        assert code == 0
        assert out != run_cli(capsys, *argv)[1]

    def test_set_counts_what_it_drops_from_the_config_layers(self, capsys, tmp_path):
        # A G_eff clears the drive of a --config layer, although fig3a's axis
        # sets G_eff; over the bundled defaults it sets G_eff alone, even to
        # the value it has there.
        conf = tmp_path / "drive.conf"
        conf.write_text("epsilon_d = 9.2e13 rad_s\n")
        argv = ("figure", "fig3a", "--format", "csv", "--config", str(conf))
        code, out, _ = run_cli(capsys, *argv, "--set", "G_eff=0.2omega_b")
        assert code == 0 and out != run_cli(capsys, *argv)[1]
        assert run_cli(capsys, *argv[:4], "--set", "G_eff=0.2omega_b")[0] == 2

    def test_custom_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "G_over_omega_b:0.1:0.3:3",
            "--output", "E_N(bm)", "--output", "stable", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "G/omega_b,E_N_bm_nats,stable,error"
        assert len(lines) == 4

    def test_overflowing_temperature_fails_only_its_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "temperature:1:1e308:3", "--output",
            "stable", "--output", "physicality_margin", "--format", "csv")
        assert code == 0
        errors = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
        assert errors[0] == "" and errors[-1] == "singular_solve"

    def test_json_output_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig2d", "--format", "json")
        assert code == 0
        result = run_sweep(figure_preset("fig2d"))
        assert json.loads(out) == [dict(zip(result.columns, row))
                                   for row in result.rows]
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "G_over_omega_b:0.1:0.3:3",
            "--output", "E_N(bm)", "--output", "stable")
        assert code == 0
        result = run_sweep(SweepSpec(
            base=default_params(), axes=(Axis("G_over_omega_b", 0.1, 0.3, 3),),
            outputs=("E_N(bm)", "stable")))
        assert json.loads(out) == [dict(zip(result.columns, row))
                                   for row in result.rows]

    def test_repeated_output_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep",
                                 "--axis", "G_over_omega_b:0:0.1:2",
                                 "--output", "E_N(am)", "--output", "E_N(am)")
        assert (code, out) == (2, "")
        assert "distinct outputs" in err

    def test_axis_that_changes_an_earlier_reference_exits_2(self, capsys):
        # G_eff would be set from the base g_ma before the second axis
        # changes g_ma, so the row labelled G/g_ma = 0.1 would be at 0.2.
        axes = ["G_over_gma:0.1:0.2:2", "gma_over_omega_b:0.5:1:2"]
        code, out, err = run_cli(capsys, "sweep", "--axis", axes[0], "--axis",
                                 axes[1], "--output", "stable", "--format", "csv")
        assert (code, out) == (2, "")
        assert err == ("error: axis 'gma_over_omega_b' sets the reference "
                       "'g_ma' of the earlier axis 'G_over_gma'\n")
        # In the other order each G_eff is set from its own point's g_ma.
        code, out, _ = run_cli(capsys, "sweep", "--axis", axes[1], "--axis",
                               axes[0], "--output", "stable", "--format", "csv")
        assert code == 0 and out.startswith("g_ma/omega_b,G/g_ma,stable,error\n")

    def test_overflowing_rate_sum_is_broken(self, capsys):
        # kappa_a + kappa_m overflows, yet 2 g_ma < kappa_a + kappa_m.
        code, out, _ = run_cli(capsys, "sweep", "--set", "kappa_m=1e308rad_s",
                               "--set", "kappa_a=1e308rad_s",
                               "--axis", "G_over_omega_b:0:0.1:2",
                               "--output", "pt_phase", "--output", "stable",
                               "--format", "csv")
        assert code == 0
        assert [row.split(",")[1] for row in out.splitlines()[1:]] == [
            "Broken", "Broken"]

    def test_overflowing_axis_value_fails_its_points(self, capsys):
        # G_over_omega_b * omega_b overflows: each point fails its parameter
        # check, and no RuntimeWarning escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "sweep",
                                   "--axis", "G_over_omega_b:1e300:1e301:2",
                                   "--output", "stable", "--format", "csv")
        assert (code, out) == (0, "G/omega_b,stable,error\n"
                               "1e+300,,parameter_error\n"
                               "1e+301,,parameter_error\n")

    def test_bad_axis_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--axis", "nope:0:1:5",
                             "--output", "stable")
        assert code == 2
        for axis in ("temperature:0:1", "temperature:0:1:5:6"):
            code, out, err = run_cli(capsys, "sweep", "--axis", axis,
                                     "--output", "stable")
            assert (code, out) == (2, "")
            assert err == f"error: axis must look like NAME:LO:HI:N, got {axis!r}\n"

    @pytest.mark.parametrize("axis", ["temperature:-1e308:1e308:3",
                                      "temperature:0:inf:3"])
    def test_axis_without_a_finite_span_exits_2(self, capsys, axis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", "--axis", axis,
                                     "--output", "stable", "--format", "csv")
        assert code == 2 and out == ""
        assert err == (f"error: bad axis {axis!r}: "
                       "axis bounds and their span must be finite\n")

    @pytest.mark.parametrize("axes", [("G_over_omega_b:0.1:0.3:2", "G_eff:1:2:2"),
                                      ("delta_over_omega_b:-1:0:2",
                                       "delta_a:-1:0:2")])
    def test_axes_on_one_field_exit_2(self, capsys, axes):
        code, out, err = run_cli(capsys, "sweep", "--axis", axes[0],
                                 "--axis", axes[1], "--output", "stable")
        assert code == 2 and out == ""
        assert "set the same field" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "figure", "fig2d", "--format", "csv",
                               "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("g_ma/G,")

    def test_unwritable_out_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "stability",
                               "--out", "/nonexistent/dir/x.json")
        assert code == 3
        assert err == ("io error: [Errno 2] No such file or directory: "
                       "'/nonexistent/dir/x.json'\n")


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


def run_fresh(code: str) -> str:
    """Last stdout line of ``code`` run in a new interpreter on this src/.
    The interpreter leads a process group of its own: on a timeout the
    whole group is killed, any child it forked included."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    with subprocess.Popen([sys.executable, "-c", code], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    assert child.returncode == 0, err
    return out.splitlines()[-1]


def test_runtime_imports_no_scipy():
    # NumPy is the only runtime dependency; SciPy serves the tests alone.
    code = ("import sys\n"
            "import magnomech\n"
            "from magnomech import cli\n"
            "assert cli.main(['measures']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert run_fresh(code) == "[]"


def test_no_process_or_executor_module_is_imported():
    # Neither the package nor a threaded sweep loads multiprocessing or
    # concurrent.futures: a sweep's threads are plain threading.Threads.
    code = ("import io, sys\n"
            "import magnomech\n"
            "from magnomech import cli\n"
            "loaded = lambda: ('multiprocessing' in sys.modules,"
            " 'concurrent.futures' in sys.modules)\n"
            "before = loaded()\n"
            "sys.stdout = io.StringIO()\n"
            "assert cli.main(['figure', 'fig2a']) == 0\n"
            "sys.stdout = sys.__stdout__\n"
            "print(*before, *loaded())\n")
    assert run_fresh(code) == "False False False False"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this OS")
def test_a_forked_child_after_batch_threads():
    # A sweep's helper threads live for one call, so none is left when a
    # child forks after a threaded fig2a: the child runs the same sweep on
    # a helper of its own, neither hanging nor changing a row.
    code = ("import multiprocessing, threading\n"
            "from magnomech import sweep\n"
            "sweep._usable_cores = lambda: 2  # threaded on any machine\n"
            "spec = sweep.figure_preset('fig2a')\n"
            "rows = sweep.run_sweep(spec).rows\n"
            "start, helpers = threading.Thread.start, []\n"
            "def counted(thread):\n"
            "    helpers.append(thread.name)\n"
            "    start(thread)\n"
            "def child(conn):\n"
            "    threading.Thread.start = counted\n"
            "    conn.send((sweep.run_sweep(spec).rows == rows, helpers))\n"
            "ctx = multiprocessing.get_context('fork')\n"
            "ours, theirs = ctx.Pipe()\n"
            "alone = threading.active_count() == 1\n"
            "process = ctx.Process(target=child, args=(theirs,))\n"
            "process.start()\n"
            "same, started = ours.recv()\n"
            "process.join()\n"
            "print(alone, same, started, process.exitcode)\n")
    assert run_fresh(code) == "True True ['magnomech'] 0"


class TestJobsFlag:
    """``--jobs N`` must be at least 1 and changes no output byte. Only
    ``sweep`` and ``figure`` accept it (test_flag_without_effect_exits_2)."""

    def test_jobs_below_one_exits_2(self, capsys):
        for command in (("figure", "fig2d"),
                        ("sweep", "--axis", "G_over_omega_b:0.1:0.2:2",
                         "--output", "stable")):
            code, out, err = run_cli(capsys, *command, "--jobs", "0")
            assert code == 2 and out == "" and "--jobs" in err

    def test_jobs_other_than_one_only_say_so(self, capsys, cores):
        # fig2a's 10 batches run on two threads whatever --jobs says.
        cores(2)
        code, one, err = run_cli(capsys, "figure", "fig2a", "--format", "csv",
                                 "--jobs", "1")
        assert code == 0 and err == ""
        code, two, err = run_cli(capsys, "figure", "fig2a", "--format", "csv",
                                 "--jobs", "2")
        assert code == 0 and two == one
        assert err.count("\n") == 1 and err.endswith(
            f"up to {sweep.BATCH_THREADS} threads, one per usable core\n")


class TestRepeatedCalls:
    """main() builds its parser once per process; each call must still
    answer as the first call of a process would."""

    def test_back_to_back_calls_match_first_calls(self, capsys, tmp_path):
        conf = tmp_path / "p.conf"
        conf.write_text("kappa_a = 0.02 omega_b\ng_ma = 0.0599 omega_b\n")
        calls = [
            ("stability",),
            ("stability", "--set", "G_eff=0.45omega_b"),
            ("classify", "--config", str(conf)),
            ("classify", "--config", str(conf), "--set", "g_ma=0.5omega_b"),
            ("stability", "--bogus"),
            ("figure", "fig3a", "--format", "csv", "--set",
             "temperature=200mk"),
            ("classify",),
            ("figure", "fig3a", "--format", "csv"),
        ]
        first = {}
        for argv in calls:
            cli._build_parser.cache_clear()
            first[argv] = run_cli(capsys, *argv)[:2]
        assert first[("stability", "--bogus")][0] == 2
        # Each --set changes its answer, so a leaked override would show.
        assert first[calls[0]] != first[calls[1]]
        assert first[calls[2]] != first[calls[3]]
        assert first[calls[5]] != first[calls[7]]
        for argv in calls + calls[::-1]:
            assert run_cli(capsys, *argv)[:2] == first[argv], argv
