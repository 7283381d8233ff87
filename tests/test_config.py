import math

import pytest

from magnomech import ConfigError, build_params, default_config, default_params
from magnomech.config import (apply_overrides, load_config, merge_layers,
                              parse_entries, parse_value, read_config_text)

TWO_PI = 2.0 * math.pi


class TestParseValue:
    def test_cyclic_suffixes_multiply_by_two_pi(self):
        assert parse_value("g_ma", "10 hz") == (TWO_PI * 10, "frequency")
        assert parse_value("g_ma", "2 khz") == (TWO_PI * 2e3, "frequency")
        assert parse_value("g_ma", "10 mhz")[0] == pytest.approx(
            TWO_PI * 10e6, rel=1e-15)
        assert parse_value("g_ma", "10.1 ghz")[0] == pytest.approx(
            TWO_PI * 10.1e9, rel=1e-15)
        # Scaled first, then times 2*pi: exactly what TWO_PI * 10e6 gives.
        assert parse_value("omega_b", "10 mhz")[0] == TWO_PI * 10e6

    def test_rad_s_taken_verbatim(self):
        assert parse_value("g_ma", "123.5 rad_s") == (123.5, "frequency")

    def test_no_space_before_suffix(self):
        assert parse_value("g_ma", "0.06omega_b") == (0.06, "omega_b_ratio")
        assert parse_value("kappa_a", "0.2mhz") == (TWO_PI * 0.2e6, "frequency")

    def test_temperature_units(self):
        assert parse_value("temperature", "20 mk") == (20e-3, "temperature")
        assert parse_value("temperature", "1.5 k") == (1.5, "temperature")
        assert parse_value("temperature", "0.02") == (0.02, "temperature")

    def test_tesla(self):
        assert parse_value("b0", "6.88e-5 t") == (6.88e-5, "field")

    def test_unit_category_mismatch(self):
        with pytest.raises(ConfigError):
            parse_value("temperature", "10 mhz")
        with pytest.raises(ConfigError):
            parse_value("g_ma", "20 mk")
        with pytest.raises(ConfigError):
            parse_value("temperature", "0.5 omega_b")

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_value("g_ma", "ten mhz")
        with pytest.raises(ConfigError):
            parse_value("g_ma", "1.0 lightyears")


class TestEntriesAndFiles:
    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ConfigError, match="omega_b"):
            parse_entries([("frobnicate", "1.0")])

    def test_file_parsing_with_comments(self):
        text = "# header\nomega_b = 10 mhz\n\ng_ma = 1 omega_b  # inline\n"
        pairs = read_config_text(text)
        assert pairs == [("omega_b", "10 mhz"), ("g_ma", "1 omega_b")]

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match=":2"):
            read_config_text("omega_b = 10 mhz\nnot a pair\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/nowhere.conf")

    def test_bundled_default_builds(self):
        params = build_params(default_config())
        assert params.omega_b == pytest.approx(TWO_PI * 10e6)
        assert params.kappa_a == pytest.approx(0.02 * TWO_PI * 10e6)
        assert params.G_eff == pytest.approx(0.2 * TWO_PI * 10e6)
        assert params.temperature == pytest.approx(20e-3)
        assert params == default_params()  # one operating point, bit for bit


class TestOverridesAndLayers:
    def test_override_precedence(self):
        entries = apply_overrides(default_config(), ["g_ma=0.06omega_b"])
        params = build_params(entries)
        assert params.g_ma == pytest.approx(0.06 * params.omega_b)

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["g_ma"])

    def test_drive_layer_supersedes_coupling(self):
        merged = merge_layers([default_config(),
                               parse_entries([("epsilon_d", "1e14 rad_s")])])
        params = build_params(merged)
        assert params.G_eff is None and params.epsilon_d == 1e14

    def test_coupling_layer_supersedes_drive(self):
        drive = parse_entries([("epsilon_d", "1e14 rad_s")])
        base = merge_layers([default_config(), drive])
        merged = merge_layers([base, parse_entries([("G_eff", "0.3 omega_b")])])
        params = build_params(merged)
        assert params.epsilon_d is None
        assert params.G_eff == pytest.approx(0.3 * params.omega_b)

    def test_detuning_layers_supersede_each_other(self):
        bare = merge_layers([default_config(),
                             parse_entries([("delta_m", "-1 omega_b")])])
        assert "delta_m" in bare and "delta_m_eff" not in bare
        effective = merge_layers([bare,
                                  parse_entries([("delta_m_eff", "-1 omega_b")])])
        assert "delta_m_eff" in effective and "delta_m" not in effective

    def test_both_in_one_layer_rejected(self):
        with pytest.raises(ConfigError):
            merge_layers([parse_entries([("G_eff", "0.2 omega_b"),
                                         ("epsilon_d", "1e14 rad_s")])])
        with pytest.raises(ConfigError, match="delta_m"):
            merge_layers([parse_entries([("delta_m", "-1 omega_b"),
                                         ("delta_m_eff", "-1 omega_b")])])


class TestBuildParams:
    def test_omega_b_required(self):
        with pytest.raises(ConfigError, match="omega_b"):
            build_params(parse_entries([("g_ma", "1 mhz")]))

    def test_omega_b_ratio_resolution(self):
        entries = apply_overrides(default_config(), ["delta_a=-1omega_b"])
        params = build_params(entries)
        assert params.delta_a == pytest.approx(-params.omega_b)

    def test_drive_field_path(self):
        entries = merge_layers([
            default_config(),
            parse_entries([("b0", "6.88e-5 t"), ("sphere_diameter", "250e-6"),
                           ("spin_density", "4.22e27"),
                           ("delta_m", "-1 omega_b")])])
        params = build_params(entries)
        assert params.G_eff is None
        assert 1e15 < params.epsilon_d < 2e15

    def test_b0_requires_geometry(self):
        with pytest.raises(ConfigError, match="sphere_diameter"):
            build_params(merge_layers([default_config(),
                                       parse_entries([("b0", "1e-4 t")])]))
