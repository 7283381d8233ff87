import math

import pytest

from magnomech import (Axis, BracketInvalidError, ParameterError, Series,
                       SweepSpec, default_params, evaluate_point,
                       figure_preset, run_sweep, stability_map,
                       vanishing_temperature)
from magnomech.sweep import FIGURE_NAMES, apply_parameter

OMEGA_B = default_params().omega_b


class TestApplyParameter:
    def test_ratio_parameters(self):
        base = default_params()
        assert apply_parameter(base, "G_over_omega_b", 0.3).G_eff == \
            pytest.approx(0.3 * OMEGA_B)
        assert apply_parameter(base, "G_over_gma", 0.25).G_eff == \
            pytest.approx(0.25 * base.g_ma)
        assert apply_parameter(base, "kappa_a_over_kappa_m", 0.5).kappa_a == \
            pytest.approx(0.5 * base.kappa_m)
        assert apply_parameter(base, "gma_over_G", 2.0).g_ma == \
            pytest.approx(2.0 * base.G_eff)

    def test_delta_sets_both_detunings(self):
        p = apply_parameter(default_params(), "delta_over_omega_b", -1.5)
        assert p.delta_a == pytest.approx(-1.5 * OMEGA_B)
        assert p.delta_m_eff == pytest.approx(-1.5 * OMEGA_B)

    def test_plain_fields(self):
        assert apply_parameter(default_params(), "temperature", 0.1) \
            .temperature == 0.1
        assert apply_parameter(default_params(), "kappa_m",
                               1e6).kappa_m == 1e6

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown sweep parameter"):
            apply_parameter(default_params(), "warp_factor", 9.0)


class TestSpecValidation:
    def test_axis_bounds(self):
        with pytest.raises(ParameterError):
            Axis("G_over_omega_b", 0.5, 0.1, 10)
        with pytest.raises(ParameterError):
            Axis("G_over_omega_b", 0.0, 1.0, 1)

    def test_axis_count(self):
        axes = tuple(Axis("G_over_omega_b", 0.1, 0.2, 2) for _ in range(3))
        with pytest.raises(ParameterError):
            SweepSpec(base=default_params(), axes=axes, outputs=("stable",))

    def test_unknown_output(self):
        with pytest.raises(ParameterError):
            SweepSpec(base=default_params(),
                      axes=(Axis("G_over_omega_b", 0.0, 0.5, 3),),
                      outputs=("E_N(zz)",))


class TestRunSweep:
    def test_matches_direct_evaluation(self):
        base = default_params()
        spec = SweepSpec(base=base,
                         axes=(Axis("G_over_omega_b", 0.1, 0.3, 3),),
                         outputs=("E_N(bm)", "max_lyapunov", "stable"))
        result = run_sweep(spec)
        for row in result.rows:
            g_ratio = row[0]
            point = evaluate_point(
                apply_parameter(base, "G_over_omega_b", g_ratio),
                spec.outputs)
            assert row[1] == point["E_N(bm)"]
            assert row[2] == point["max_lyapunov"]

    def test_row_order_first_axis_outermost(self):
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("G_over_omega_b", 0.1, 0.2, 2),
                               Axis("temperature", 0.01, 0.02, 3)),
                         outputs=("stable",))
        result = run_sweep(spec)
        assert len(result.rows) == 6
        assert [r[0] for r in result.rows] == pytest.approx(
            [0.1, 0.1, 0.1, 0.2, 0.2, 0.2])

    def test_unstable_rows_are_sentinels_not_zeros(self):
        # Strong drive near the exceptional point destabilizes the system.
        base = default_params().replace(g_ma=0.06 * OMEGA_B)
        spec = SweepSpec(base=base,
                         axes=(Axis("G_over_omega_b", 0.15, 0.25, 3),),
                         outputs=("E_N(am)", "stable"))
        result = run_sweep(spec)
        for row in result.rows:
            assert row[2] == 0  # unstable
            assert row[1] is None
        csv_text = result.to_csv()
        line = csv_text.splitlines()[1]
        assert line.split(",")[1] == ""  # empty cell, not "0"

    def test_worker_count_does_not_change_bytes(self):
        spec = figure_preset("fig3a")
        a = run_sweep(spec, jobs=1).to_csv()
        b = run_sweep(spec, jobs=3).to_csv()
        assert a == b

    def test_series_become_labeled_columns(self):
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("G_over_omega_b", 0.1, 0.2, 2),),
                         outputs=("stable",),
                         series=(Series("gain", (("kappa_a", 2e5),)),
                                 Series("loss", (("kappa_a", -2e5),))))
        result = run_sweep(spec)
        assert result.columns == ["G/omega_b", "stable[gain]", "error[gain]",
                                  "stable[loss]", "error[loss]"]

    def test_csv_header_units(self):
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("G_over_omega_b", 0.1, 0.2, 2),),
                         outputs=("E_N(am)", "S(m->b)", "max_lyapunov"))
        header = run_sweep(spec).to_csv().splitlines()[0]
        assert header == ("G/omega_b,E_N_am_nats,S_m_to_b_nats,"
                          "max_lyapunov_rad_s,error")
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("kappa_m", 0.1 * OMEGA_B, 0.2 * OMEGA_B, 2),
                               Axis("temperature", 0.01, 0.02, 2)),
                         outputs=("eta_minus(ab)", "residual",
                                  "physicality_margin", "pt_phase", "stable"),
                         series=(Series("gain"),))
        header = run_sweep(spec).to_csv().splitlines()[0]
        assert header == ("kappa_m_rad_s,T_K,eta_minus_ab[gain],residual[gain],"
                          "physicality_margin[gain],pt_phase[gain],"
                          "stable[gain],error[gain]")

    def test_failed_points_carry_error_codes(self):
        drive = default_params().replace(
            delta_m_eff=None, delta_m=-0.95 * OMEGA_B, G_eff=None,
            epsilon_d=9.2e13)
        assert evaluate_point(drive, ("stable",))["error"] == "non_convergence"
        # A G_eff axis over a drive-mode base gives no valid parameter set.
        spec = SweepSpec(base=drive, axes=(Axis("G_over_omega_b", 0.1, 0.2, 2),),
                         outputs=("stable",))
        assert run_sweep(spec).column("error") == ["parameter_error"] * 2


class TestFigurePresets:
    def test_all_names_build(self):
        for name in FIGURE_NAMES:
            spec = figure_preset(name)
            assert 1 <= len(spec.axes) <= 2

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            figure_preset("fig99")

    def test_fig2d_shape(self):
        spec = figure_preset("fig2d")
        assert spec.axes[0].name == "gma_over_G"
        assert (spec.axes[0].lo, spec.axes[0].hi) == (0.5, 5.0)
        assert spec.base.G_eff == pytest.approx(0.4 * OMEGA_B)
        assert "max_lyapunov" in spec.outputs

    def test_fig6b_shape(self):
        spec = figure_preset("fig6b")
        assert spec.axes[0].name == "temperature"
        assert spec.axes[0].hi == pytest.approx(0.25)
        assert {s.label for s in spec.series} == {"gain", "loss"}


class TestStabilityMap:
    def test_single_stable_cell_fraction(self):
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("G_over_omega_b", 0.19, 0.21, 2),),
                         outputs=())
        result, fractions = stability_map(spec)
        assert fractions[""] == 1.0
        assert result.column("stable") == [1, 1]


class TestVanishingTemperature:
    def test_invalid_bracket_when_already_zero(self):
        # Gain cavity with vacuum noise holds no photon-magnon entanglement.
        base = default_params().replace(G_eff=0.25 * OMEGA_B)
        with pytest.raises(BracketInvalidError):
            vanishing_temperature(base, "am", 0.0, 0.25)

    def test_invalid_bracket_ordering(self):
        with pytest.raises(BracketInvalidError):
            vanishing_temperature(default_params(), "am", 0.2, 0.1)

    def test_conventional_case_boundary(self):
        base = default_params().replace(kappa_a=-0.02 * OMEGA_B,
                                        G_eff=0.25 * OMEGA_B)
        temp = vanishing_temperature(base, "am", 0.0, 0.35)
        assert 0.10 < temp < 0.20
        # Reported boundary separates entangled from unentangled sides.
        from magnomech.sweep import evaluate_point
        below = evaluate_point(base.replace(temperature=temp - 1e-3),
                               ("E_N(am)",))
        above = evaluate_point(base.replace(temperature=temp + 1e-3),
                               ("E_N(am)",))
        assert below["E_N(am)"] > 0.0
        assert above["E_N(am)"] == 0.0

    def test_sub_millikelvin_bracket(self):
        # The cavity occupation at 0.5 mK overflows a naive exp; the search
        # must still start there and land on the same boundary.
        base = default_params().replace(kappa_a=-0.02 * OMEGA_B,
                                        G_eff=0.25 * OMEGA_B)
        assert evaluate_point(base.replace(temperature=0.5e-3),
                              ("E_N(am)",))["error"] == ""
        from_zero = vanishing_temperature(base, "am", 0.0, 0.35)
        from_sub_mk = vanishing_temperature(base, "am", 0.5e-3, 0.35)
        assert from_sub_mk == pytest.approx(from_zero, abs=2e-4)
