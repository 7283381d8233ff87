import dataclasses
import gc
import itertools
import json
import math
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magnomech import (Axis, BracketInvalidError, DegenerateDenominatorError,
                       MagnomechError, ParameterError, Series,
                       SingularSolveError, SweepSpec, UnstableSystemError,
                       default_params, diffusion_from_params,
                       drift_from_params, evaluate_point, figure_preset,
                       pair_measures, run_sweep, solve_lyapunov,
                       vanishing_temperature, working_point)
from magnomech import measures, model, sweep
from magnomech.dynamics import (diffusion_batch, diffusion_matrices,
                                stability_batch)
from magnomech.errors import no_failures, raise_failure
from magnomech.measures import RESIDUAL_REL_TARGET
from magnomech.sweep import (BATCH_SIZE, FIGURE_NAMES, SweepResult,
                             VANISHING_TEMPERATURE_TOL,
                             apply_parameter)
from test_errors import record_helpers

OMEGA_B = default_params().omega_b

#: A batch size that cuts the 1-D presets and the small specs below into
#: several batches, for tests of what happens across batches.
SMALL_BATCH = 64


def ep_crossing_spec() -> SweepSpec:
    """A g_ma sweep across (kappa_a + kappa_m)/2 = 0.06 omega_b, two batches
    of SMALL_BATCH."""
    return SweepSpec(
        base=default_params().replace(G_eff=0.05 * OMEGA_B),
        axes=(Axis("gma_over_omega_b", 0.0, 0.12, 101),),
        outputs=("pt_phase", "stable", "E_N(am)", "S(m->b)", "S(a->m)",
                 "eta_minus(ab)", "max_lyapunov", "residual",
                 "physicality_margin"),
        gain_noise="reversed")


#: Overrides that zero the drive-mode response denominator
#: g_ma^2 + (i*Delta_a - kappa_a)(i*delta_m_eff + kappa_m) at every point.
DEGENERATE = (("g_ma", 0.0), ("kappa_a", 0.0), ("delta_a", 0.0))


def drive_spec() -> SweepSpec:
    """Drive-mode (self-consistent) points, at most of which a fixed-point
    iteration from delta_m never settles, and a series whose every point
    fails with a degenerate denominator."""
    drive = default_params().replace(
        delta_m_eff=None, delta_m=-0.95 * OMEGA_B, G_eff=None, epsilon_d=9.2e13)
    return SweepSpec(base=drive, axes=(Axis("epsilon_d", 8.6e13, 9.4e13, 9),),
                     outputs=("stable", "E_N(bm)", "S(b->m)"),
                     series=(Series(), Series("degenerate", DEGENERATE)))


def fig4b_edge_spec() -> SweepSpec:
    """fig4b's last two detuning rows; the Delta = 0 row has cross-check
    mismatches."""
    spec = figure_preset("fig4b")
    return SweepSpec(base=spec.base,
                     axes=(Axis("delta_over_omega_b", -0.02, 0.0, 2), spec.axes[1]),
                     outputs=spec.outputs)


def all_outputs_spec() -> SweepSpec:
    """fig4b's last two detuning rows with every output a query can ask for:
    each pair's E_N and eta^-, every steering direction and the certificates.
    Cross-check mismatches stop points at E_N(bm) and at E_N(ab)."""
    spec = fig4b_edge_spec()
    return SweepSpec(base=spec.base, axes=spec.axes, outputs=(
        "stable", "max_lyapunov", "E_N(am)", "E_N(bm)", "E_N(ab)",
        "S(a->m)", "S(m->a)", "S(b->m)", "S(m->b)", "S(a->b)", "S(b->a)",
        "eta_minus(am)", "eta_minus(bm)", "eta_minus(ab)", "residual",
        "physicality_margin"))


def drive_temperature_spec(epsilon_d: float, degenerate: bool = False
                           ) -> SweepSpec:
    """A drive-mode temperature sweep: one working point for all 251 points,
    with a degenerate denominator if asked."""
    base = drive_spec().base.replace(epsilon_d=epsilon_d)
    if degenerate:
        base = base.replace(**dict(DEGENERATE))
    return SweepSpec(base=base,
                     axes=(Axis("temperature", 0.0, 0.25, 251),),
                     outputs=("E_N(am)", "stable"))


def count_calls(monkeypatch, name: str) -> list:
    """Count the calls made to ``sweep.<name>``; returns the growing list of
    their arguments."""
    calls = []
    original = getattr(sweep, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(sweep, name, counted)
    return calls


def unstable_spec() -> SweepSpec:
    return SweepSpec(base=default_params().replace(g_ma=0.06 * OMEGA_B),
                     axes=(Axis("G_over_omega_b", 0.0, 0.25, 11),),
                     outputs=("E_N(am)", "S(a->m)", "stable", "max_lyapunov",
                              "residual"),
                     series=(Series("gain"), Series("loss", (("kappa_a", -2e5),))))


def covariance_failure_spec() -> SweepSpec:
    """A decoupled cavity at Delta_a = 1e6 omega_b with a loss of 2e-9 omega_b
    has an eigenvalue pair summing to -4e-9 omega_b, below the Lyapunov
    solve's pair-sum guard (1e-14 of the largest |eigenvalue|). So every
    stable point (Delta_m_eff >= 0) fails at the covariance stage; unstable
    ones (Delta_m_eff < 0) never get there."""
    base = default_params().replace(delta_a=1e6 * OMEGA_B,
                                    kappa_a=-2e-9 * OMEGA_B, g_ma=0.0)
    return SweepSpec(base=base,
                     axes=(Axis("delta_m_eff", -OMEGA_B, OMEGA_B, 11),),
                     outputs=("stable", "max_lyapunov", "E_N(am)", "residual"))


def repeated_override_spec() -> SweepSpec:
    """A series whose second override replaces the invalid G_eff of its
    first: every final point is valid and stable, with E_N(am) = 0."""
    return SweepSpec(base=default_params(),
                     axes=(Axis("temperature", 0.0, 0.02, 3),),
                     outputs=("E_N(am)", "stable"),
                     series=(Series("x", (("G_eff", -OMEGA_B),
                                          ("G_over_omega_b", 0.2))),))


def repaired_override_spec() -> SweepSpec:
    """A drive-mode base that a series gives a G_eff too. Only the g_mb = 0
    row, where the drive no longer sets the coupling, is a valid (preset)
    point; the other two give both."""
    return SweepSpec(base=default_params().replace(G_eff=None, epsilon_d=9.2e13),
                     axes=(Axis("g_mb", 0.0, 1.0, 3),),
                     outputs=("E_N(am)", "stable"),
                     series=(Series("x", (("G_over_omega_b", 0.2),)),))


#: A temperature axis whose 5e300 K overflows the two-mode determinants and
#: whose 1e301 K overflows D, so that a batch mixes healthy points with
#: points that each stage's one healthy-batch test must send to its
#: rule-by-rule checks.
HOT = Axis("temperature", 0.02, 1e301, 3)


def reversed_guards_spec() -> SweepSpec:
    """A gain cavity at kappa_a = 0.45 kappa_m under reversed noise: at 20 mK
    the G = 0.175 omega_b point has no E_N(bm) (nonphysical_cm), its
    neighbours do; at 5e300 K every point fails at its determinants
    (nonfinite_determinant), at 1e301 K at its D (singular_solve)."""
    base = default_params()
    return SweepSpec(base=base.replace(kappa_a=0.45 * base.kappa_m),
                     axes=(Axis("G_over_omega_b", 0.15, 0.2, 3), HOT),
                     outputs=("stable", "E_N(bm)", "S(b->m)", "E_N(am)",
                              "eta_minus(ab)", "residual", "physicality_margin"),
                     gain_noise="reversed")


def overflow_guards_spec() -> SweepSpec:
    """Steering alone, under vacuum noise: at 5e300 K the two-mode
    determinants overflow (nonfinite_determinant), at 1e301 K D does
    (singular_solve)."""
    return SweepSpec(base=default_params(),
                     axes=(Axis("G_over_omega_b", 0.1, 0.3, 3), HOT),
                     outputs=("S(m->b)", "S(a->b)", "stable", "max_lyapunov",
                              "physicality_margin"))


def working_point_overflow_spec() -> SweepSpec:
    """At g_mb = 1e-300 the magnon amplitude G_eff / g_mb squares to
    infinity (parameter_error); the drift, set by G_eff, is each G's own."""
    return SweepSpec(base=default_params(),
                     axes=(Axis("g_mb", 1e-300, 2.5, 3),
                           Axis("G_over_omega_b", 0.1, 0.3, 3)),
                     outputs=("stable", "E_N(am)", "S(a->m)", "residual"))


def point_rows(spec: SweepSpec) -> list[list]:
    """The rows of ``spec`` evaluated one point at a time. A point's
    overrides, then its axis values, apply in order, and only the
    SystemParams they end at is validated."""
    rows = []
    for point in spec.grid().tolist():
        row = list(point)
        for series in spec.series:
            steps = [*series.overrides,
                     *((axis.name, value) for axis, value in zip(spec.axes, point))]
            changes = {}
            try:
                for name, value in steps:
                    changes.update(sweep._parameter_changes(
                        {**vars(spec.base), **changes}, name, value))
                params = spec.base.replace(**changes)
            except ParameterError as exc:
                values = dict.fromkeys(spec.outputs)
                values["error"] = exc.code
            else:
                values = evaluate_point(params, spec.outputs, spec.gain_noise)
            row.extend(values[out] for out in (*spec.outputs, "error"))
        rows.append(row)
    return rows


def sequential_bisection(base, pair, t_lo, t_hi, gain_noise="vacuum",
                         visited=None):
    """vanishing_temperature one point at a time: each temperature runs the
    single-point chain working_point -> drift -> solve_lyapunov ->
    pair_measures, only when the bisection visits it. Appends every
    temperature solved to ``visited``."""
    def e_n(temperature):
        if visited is not None:
            visited.append(temperature)
        params = base.replace(temperature=temperature)
        drift = drift_from_params(params, working_point(params))
        cm = solve_lyapunov(drift, diffusion_from_params(params, gain_noise))
        return pair_measures(cm, pair).e_n

    if not t_lo < t_hi:
        raise BracketInvalidError("need t_lo < t_hi")
    try:
        lo_val, hi_val = e_n(t_lo), e_n(t_hi)
    except UnstableSystemError as exc:
        raise BracketInvalidError(f"system unstable inside bracket: {exc}") from exc
    if lo_val <= 0.0:
        raise BracketInvalidError(f"E_N({pair}) = 0 already at {t_lo} K")
    if hi_val > 0.0:
        raise BracketInvalidError(f"E_N({pair}) = {hi_val:.3g} > 0 still at {t_hi} K")
    lo, hi = t_lo, t_hi
    while hi - lo > VANISHING_TEMPERATURE_TOL:
        mid = 0.5 * (lo + hi)
        if e_n(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def channel_bisection(base, pair, t_lo, t_hi, gain_noise="vacuum"):
    """The bisection of sequential_bisection on the search's own kernels:
    one drift and its three channel covariances, then at each temperature
    visited, one at a time, a combination of the channels and a one-pair
    PairBatch. Raises in the single-point chain's order."""
    failures = no_failures(1)
    a = sweep._drifts(base.columns(), failures)
    eigenvalues, max_lyapunov, stable = stability_batch(a, failures)
    channels = (measures.channel_covariances(a[0], eigenvalues[0])
                if failures[0] is None and stable[0] else None)

    def e_n(temperature):
        base.replace(temperature=temperature)
        raise_failure(failures)
        occupations = [model.thermal_occupation(omega, temperature)
                       for omega in (base.omega_a, base.omega_m, base.omega_b)]
        measures.check_stable(max_lyapunov[0], bool(stable[0]))
        point = no_failures(1)
        d = diffusion_matrices(base.kappa_a, base.kappa_m, base.gamma_b,
                               *occupations, gain_noise)
        v = measures.combine_channels(channels, d[None], point)
        raise_failure(point)
        batch = measures.PairBatch(v, (pair,), checked=(pair,))
        raise_failure(batch.failures)
        return float(batch.e_n[0, 0])

    if not t_lo < t_hi:
        raise BracketInvalidError("need t_lo < t_hi")
    try:
        lo_val, hi_val = e_n(t_lo), e_n(t_hi)
    except UnstableSystemError as exc:
        raise BracketInvalidError(f"system unstable inside bracket: {exc}") from exc
    if lo_val <= 0.0:
        raise BracketInvalidError(f"E_N({pair}) = 0 already at {t_lo} K")
    if hi_val > 0.0:
        raise BracketInvalidError(f"E_N({pair}) = {hi_val:.3g} > 0 still at {t_hi} K")
    lo, hi = t_lo, t_hi
    while hi - lo > VANISHING_TEMPERATURE_TOL:
        mid = 0.5 * (lo + hi)
        if e_n(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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

    @pytest.mark.parametrize("name", ["G_over_omega_b", "temperature"])
    @pytest.mark.parametrize("value", ["abc", None, 1j, [0.1]])
    def test_value_that_is_not_a_real_number(self, name, value):
        with pytest.raises(ParameterError) as exc:
            apply_parameter(default_params(), name, value)
        assert str(exc.value) == \
            f"sweep parameter {name!r} needs a real number, got {value!r}"

    @pytest.mark.parametrize("name, field", [("G_over_omega_b", "G_eff"),
                                             ("temperature", "temperature")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_fails_as_its_params(self, name, field, value):
        # NaN and infinities are real numbers: the SystemParams they make
        # rejects them.
        with pytest.raises(ParameterError) as exc:
            apply_parameter(default_params(), name, value)
        assert str(exc.value) == f"SystemParams.{field} is not finite"

    def test_valid_names_are_listed_once(self):
        with pytest.raises(ParameterError) as exc:
            apply_parameter(default_params(), "warp_factor", 9.0)
        for name in ("temperature", "G_eff", "delta_over_omega_b"):
            assert str(exc.value).count(f"'{name}'") == 1


class TestSpecValidation:
    def test_axis_bounds(self):
        with pytest.raises(ParameterError):
            Axis("G_over_omega_b", 0.5, 0.1, 10)
        with pytest.raises(ParameterError):
            Axis("G_over_omega_b", 0.0, 1.0, 1)
        for lo, hi in ((-1e308, 1e308), (0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ParameterError, match="must be finite"):
                Axis("temperature", lo, hi, 3)

    def test_axis_count(self):
        axes = tuple(Axis("G_over_omega_b", 0.1, 0.2, 2) for _ in range(3))
        with pytest.raises(ParameterError):
            SweepSpec(base=default_params(), axes=axes, outputs=("stable",))

    @pytest.mark.parametrize("axis, series", [
        ("bogus", Series()), ("G_over_omega_b", Series("x", (("bogus", 1.0),)))])
    def test_unknown_parameter_name(self, axis, series):
        with pytest.raises(ParameterError, match="unknown sweep parameter 'bogus'"):
            SweepSpec(base=default_params(), axes=(Axis(axis, 0.1, 0.2, 2),),
                      outputs=("stable",), series=(series,))

    def test_non_integer_axis_count(self):
        with pytest.raises(ParameterError, match="an integer >= 2"):
            Axis("G_over_omega_b", 0.1, 0.2, 2.5)

    @pytest.mark.parametrize("first, second", [
        ("G_over_omega_b", "G_eff"), ("G_eff", "G_over_gma"),
        ("delta_over_omega_b", "delta_a"), ("delta_m_eff", "delta_over_omega_b")])
    def test_axes_that_set_one_field(self, first, second):
        # The second axis would overwrite the first one's value at every point.
        axes = (Axis(first, 0.1, 0.3, 2), Axis(second, 0.1, 0.3, 2))
        with pytest.raises(ParameterError, match="set the same field"):
            SweepSpec(base=default_params(), axes=axes, outputs=("stable",))

    @pytest.mark.parametrize("axis, override", [
        ("G_over_omega_b", ("G_eff", 0.05 * OMEGA_B)),
        ("G_eff", ("G_over_gma", 0.2)),
        ("delta_over_omega_b", ("delta_m_eff", -OMEGA_B)),
        ("temperature", ("temperature", 0.1))])
    def test_series_override_of_an_axis_field(self, axis, override):
        # The axis is applied after the override and would overwrite it, so
        # the series would repeat the curve of no override.
        with pytest.raises(ParameterError, match="of an axis"):
            SweepSpec(base=default_params(), axes=(Axis(axis, 0.1, 0.3, 2),),
                      outputs=("max_lyapunov",),
                      series=(Series(), Series("x", (override,))))

    def test_series_override_of_a_reference_field(self):
        # kappa_m is the axis's reference, not a field it sets: the override
        # rescales the axis.
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("kappa_a_over_kappa_m", 0.1, 0.3, 2),),
                         outputs=("stable",),
                         series=(Series("x", (("kappa_m", 1e7),)),))
        assert run_sweep(spec).column("error", "x") == ["", ""]

    @pytest.mark.parametrize("axes, overrides, message", [
        (("G_over_gma", "gma_over_omega_b"), (),
         "axis 'gma_over_omega_b' sets the reference 'g_ma' of the earlier "
         "axis 'G_over_gma'"),
        (("gma_over_G", "G_eff"), (),
         "axis 'G_eff' sets the reference 'G_eff' of the earlier axis 'gma_over_G'"),
        (("delta_over_omega_b", "omega_b"), (),
         "axis 'omega_b' sets the reference 'omega_b' of the earlier axis "
         "'delta_over_omega_b'"),
        (("g_ma",), (("G_over_gma", 0.2),),
         "axis 'g_ma' sets the reference 'g_ma' of the earlier series 'x' "
         "override 'G_over_gma'")])
    def test_axis_that_changes_an_earlier_reference(self, axes, overrides,
                                                    message):
        # The earlier step's field was set from the reference the axis then
        # changes: a point's label would not describe it.
        with pytest.raises(ParameterError, match=message):
            SweepSpec(base=default_params(),
                      axes=tuple(Axis(name, 0.5, 1.0, 2) for name in axes),
                      outputs=("stable",), series=(Series("x", overrides),))

    def test_duplicate_series_labels(self):
        with pytest.raises(ParameterError, match="distinct labels"):
            SweepSpec(base=default_params(),
                      axes=(Axis("G_over_omega_b", 0.1, 0.2, 2),),
                      outputs=("stable",),
                      series=(Series("x"), Series("x", (("g_ma", 1.0),))))

    def test_duplicate_outputs(self):
        # A repeated output would repeat a CSV column and collapse into one
        # key of each JSON row.
        with pytest.raises(ParameterError, match="distinct outputs"):
            SweepSpec(base=default_params(),
                      axes=(Axis("G_over_omega_b", 0.1, 0.2, 2),),
                      outputs=("E_N(am)", "stable", "E_N(am)"))

    def test_no_series(self):
        with pytest.raises(ParameterError, match="distinct labels"):
            SweepSpec(base=default_params(),
                      axes=(Axis("G_over_omega_b", 0.1, 0.2, 2),),
                      outputs=("stable",), series=())

    def test_unknown_output(self):
        with pytest.raises(ParameterError):
            SweepSpec(base=default_params(),
                      axes=(Axis("G_over_omega_b", 0.0, 0.5, 3),),
                      outputs=("E_N(zz)",))

    @pytest.mark.parametrize("output", ["S(a->a)", "eta_minus(ma)", "E_N"])
    def test_output_names_outside_the_table(self, output):
        with pytest.raises(ParameterError, match="unknown sweep output"):
            SweepSpec(base=default_params(),
                      axes=(Axis("G_over_omega_b", 0.0, 0.5, 3),),
                      outputs=(output,))

    def test_every_field_is_a_sweep_parameter(self):
        # Each SystemParams field sets itself, in a column in rad/s, except
        # the temperature in kelvin.
        names = [field.name for field in dataclasses.fields(model.SystemParams)]
        for name in names:
            column = "T_K" if name == "temperature" else f"{name}_rad_s"
            assert sweep._SWEEP_PARAMS[name] == ((name,), None, column)
            spec = SweepSpec(base=default_params(),
                             axes=(Axis(name, 0.5, 1.0, 2),), outputs=("stable",))
            assert sweep._column_names(spec)[name] == column
        ratios = ["G_over_omega_b", "G_over_gma", "gma_over_omega_b",
                  "gma_over_G", "kappa_a_over_kappa_m", "delta_over_omega_b"]
        with pytest.raises(ParameterError) as exc:
            apply_parameter(default_params(), "warp_factor", 9.0)
        assert str(exc.value) == ("unknown sweep parameter 'warp_factor'; "
                                  f"valid: {sorted(names + ratios)}")

    @pytest.mark.parametrize("axes, overrides, message", [
        # The second axis and the override both set G_eff: the axis meets
        # the override before the earlier axis.
        (("G_over_omega_b", "G_eff"), (("G_eff", 0.1),),
         "series 'x' override 'G_eff' sets the field ['G_eff'] of an axis"),
        # The axis changes the reference of the first override, and the
        # second override sets the axis's field: the first step comes first.
        (("omega_b",), (("G_over_omega_b", 0.1), ("omega_b", 1.0)),
         "axis 'omega_b' sets the reference 'omega_b' of the earlier series "
         "'x' override 'G_over_omega_b'"),
        # The first axis changes the override's reference, and the second
        # sets the first one's field: the first axis comes first.
        (("g_ma", "gma_over_omega_b"), (("G_over_gma", 0.2),),
         "axis 'g_ma' sets the reference 'g_ma' of the earlier series 'x' "
         "override 'G_over_gma'")])
    def test_two_broken_rules_report_the_first_in_the_walk(self, axes, overrides,
                                                           message):
        # Each axis in turn meets the overrides in order, then the earlier
        # axis; a step's field clash is reported before its reference.
        with pytest.raises(ParameterError) as exc:
            SweepSpec(base=default_params(),
                      axes=tuple(Axis(name, 0.5, 1.0, 2) for name in axes),
                      outputs=("stable",), series=(Series("x", overrides),))
        assert str(exc.value) == message

    @pytest.mark.parametrize("label", [None, 1, b"x", ("x",)])
    def test_series_labels_are_str(self, label):
        # Series(None) beside Series("") or Series(1) beside Series("1")
        # would name two columns alike.
        with pytest.raises(ParameterError, match="a series label must be a str"):
            Series(label)

    @pytest.mark.parametrize("value", [None, "abc", "0.1", 1j])
    def test_override_values_are_real_numbers(self, value):
        with pytest.raises(ParameterError) as exc:
            SweepSpec(base=default_params(),
                      axes=(Axis("temperature", 0.0, 0.1, 2),),
                      outputs=("stable",),
                      series=(Series(), Series("x", (("G_eff", value),))))
        assert str(exc.value) == (f"series 'x' override 'G_eff' needs a real "
                                  f"number, got {value!r}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_override_values_fail_their_cells(self, value):
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("temperature", 0.0, 0.1, 2),),
                         outputs=("stable",),
                         series=(Series("x", (("G_over_omega_b", value),)),))
        assert run_sweep(spec).column("error", "x") == ["parameter_error"] * 2

    @pytest.mark.parametrize("lo, hi", [("0", 1.0), (0.0, None), (0.0, 1j)])
    def test_axis_bounds_are_real_numbers(self, lo, hi):
        with pytest.raises(ParameterError) as exc:
            Axis("temperature", lo, hi, 2)
        assert str(exc.value) == (f"axis bounds must be real numbers, got "
                                  f"{lo!r} and {hi!r}")


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

    def test_worker_count_does_not_change_bytes(self, monkeypatch, cores):
        # Two batches each, on one thread and on two.
        monkeypatch.setattr(sweep, "BATCH_SIZE", SMALL_BATCH)
        for spec in (figure_preset("fig3a"), ep_crossing_spec()):
            assert len(spec.grid()) > SMALL_BATCH
            cores(1)
            a = run_sweep(spec).to_csv()
            cores(2)
            assert run_sweep(spec).to_csv() == a

    def test_stability_rows_do_not_depend_on_the_batch_size(self, monkeypatch):
        # Three of every seven points fail with parameter_error (T < 0), one
        # of them just before the first batch boundary. The 1,477 points
        # make 2 equal batches, and 24 of SMALL_BATCH points at most.
        spec = SweepSpec(base=default_params().replace(G_eff=0.25 * OMEGA_B),
                         axes=(Axis("gma_over_omega_b", 0.0, 1.2, 211),
                               Axis("temperature", -0.03, 0.03, 7)),
                         outputs=("stable", "max_lyapunov", "pt_phase"),
                         series=sweep._GAIN_LOSS)
        assert len(spec.grid()) > BATCH_SIZE
        expected = point_rows(spec)
        calls = count_calls(monkeypatch, "_series_cells")
        result = run_sweep(spec)
        # One item per batch and series.
        assert sorted(len(args[1]) for args in calls) == [738] * 2 + [739] * 2
        calls.clear()
        monkeypatch.setattr(sweep, "BATCH_SIZE", SMALL_BATCH)
        small = run_sweep(spec).rows
        assert sorted(len(args[1]) for args in calls) == [61] * 22 + [62] * 26
        assert result.rows == expected
        assert small == expected
        cells = {name: [result.column(name, series.label)
                        for series in spec.series]
                 for name in ("stable", "error")}
        assert cells["error"][0][737] == "parameter_error"
        assert {code for column in cells["error"] for code in column} == {
            "", "parameter_error"}
        assert {value for column in cells["stable"] for value in column} == {
            0, 1, None}

    @pytest.mark.parametrize("make_spec, codes", [
        (ep_crossing_spec, {""}),
        (drive_spec, {"", "degenerate_denominator"}),
        (fig4b_edge_spec, {"", "cross_check_mismatch"}),
        (unstable_spec, {""}),
        (covariance_failure_spec, {"", "singular_solve"}),
        (all_outputs_spec, {"", "cross_check_mismatch"}),
        (repeated_override_spec, {""}),
        (repaired_override_spec, {"", "parameter_error"}),
        (reversed_guards_spec, {"", "nonphysical_cm", "nonfinite_determinant",
                                "singular_solve"}),
        (overflow_guards_spec, {"", "nonfinite_determinant", "singular_solve"}),
        (working_point_overflow_spec, {"", "parameter_error"})])
    def test_batched_rows_match_single_points(self, make_spec, codes):
        spec = make_spec()
        result = run_sweep(spec)
        assert result.rows == point_rows(spec)
        for row in result.rows:
            assert all(type(cell) in (int, float, str, type(None)) for cell in row)
        assert {code for series in spec.series
                for code in result.column("error", series.label)} == codes
        assert {0, 1} & set(result.column("stable", spec.series[0].label))

    def test_first_failing_measure_stops_the_later_ones(self):
        # Outputs: verdict (2), pair measures in output order (12), then the
        # certificates (2). A failed measure leaves itself and every later
        # measure None, but keeps the earlier ones and the certificates.
        spec = all_outputs_spec()
        stopped = set()
        for row in run_sweep(spec).rows:
            values, error = row[len(spec.axes):-1], row[-1]
            if not values[0]:  # unstable: no covariance matrix
                continue
            verdict, cells, certificates = values[:2], values[2:14], values[14:]
            taken = cells.index(None) if None in cells else len(cells)
            assert None not in verdict + cells[:taken] + certificates
            assert cells[taken:] == [None] * (len(cells) - taken)
            assert (error == "") == (taken == len(cells))
            stopped.add(spec.outputs[2 + taken] if error else None)
        assert stopped == {None, "E_N(bm)", "E_N(ab)"}

    @pytest.mark.parametrize("epsilon_d, code", [
        (8.6e13, ""), (8.6e13, "degenerate_denominator"), (None, "")])
    def test_working_point_is_solved_once_per_batch(self, monkeypatch,
                                                     epsilon_d, code):
        # All live points of a batch go to one working-point call, in drive
        # mode and at a preset point (epsilon_d None: fig6a's) alike,
        # whatever the outputs: the 251 points make 4 batches of SMALL_BATCH.
        if epsilon_d is None:
            spec = dataclasses.replace(figure_preset("fig6a"),
                                       outputs=("E_N(am)", "stable"))
        else:
            spec = drive_temperature_spec(epsilon_d, degenerate=bool(code))
        stability = dataclasses.replace(spec, outputs=("stable",))
        expected = point_rows(spec)
        expected_stability = point_rows(stability)
        monkeypatch.setattr(sweep, "BATCH_SIZE", SMALL_BATCH)
        calls = count_calls(monkeypatch, "working_point_batch")
        result = run_sweep(spec)
        assert len(calls) == -(-len(expected) // SMALL_BATCH) == 4
        if epsilon_d is None:  # a shared drift's E_N matches to rounding
            assert_rows_close(result.rows, expected)
        else:
            assert result.rows == expected
        assert set(result.column("error")) == {code}
        calls.clear()
        assert run_sweep(stability).rows == expected_stability
        assert len(calls) == 4

    def test_repeated_failures_are_separate_copies(self, monkeypatch):
        spec = drive_temperature_spec(9.2e13, degenerate=True)
        columns = spec.base.columns(3)
        columns["temperature"] = np.array([0.0, 0.1, 0.2])
        failures = no_failures(3)
        with np.errstate(all="ignore"):  # as the kernel's callers run it
            sweep._drifts(columns, failures)
        # Three points fail at the same occupation.
        columns["temperature"] = np.array([0.1, 0.1, 0.1])
        TestVanishingTemperature._fail_at(monkeypatch, {0.1})
        occupation_failures = no_failures(3)
        diffusion_batch(columns, np.arange(3), "vacuum", occupation_failures)
        # Three points miss the reference field of their axis.
        evaluated = []
        evaluate = sweep._evaluate

        def recording(columns, failures, *args):
            evaluated.append(failures.copy())
            return evaluate(columns, failures, *args)
        monkeypatch.setattr(sweep, "_evaluate", recording)
        run_sweep(SweepSpec(base=drive_spec().base,
                            axes=(Axis("gma_over_G", 0.5, 5.0, 3),),
                            outputs=("stable",)))
        for expected, batch in ((DegenerateDenominatorError, failures),
                                (SingularSolveError, occupation_failures),
                                (ParameterError, *evaluated)):
            assert len({id(failure) for failure in batch}) == 3
            for failure in batch:
                assert type(failure) is type(batch[0]) is expected
                assert failure.args == batch[0].args
                assert failure.__traceback__ is None

    def test_failed_points_leave_no_garbage(self):
        # The cycle collector cannot see into the object arrays that hold
        # per-point failures, so a failure that kept its traceback would keep
        # its frames, and the array, alive for good.
        drive = drive_spec().base.replace(**dict(DEGENERATE))

        def live_failures():
            gc.collect()
            return sum(isinstance(o, MagnomechError) for o in gc.get_objects())

        def fail_twice():
            assert evaluate_point(drive, ("stable",))["error"] == \
                "degenerate_denominator"
            with pytest.raises(MagnomechError):
                vanishing_temperature(drive, "am", 0.0, 0.35)

        fail_twice()
        before = live_failures()
        fail_twice()
        assert live_failures() == before

    def test_ep_crossing_has_stable_points_in_both_phases(self):
        result = run_sweep(ep_crossing_spec())
        phases = {phase for phase, stable in
                  zip(result.column("pt_phase"), result.column("stable")) if stable}
        assert {"Unbroken", "Broken"} <= phases

    def test_covariance_stage_failure_keeps_verdict(self):
        # A point that fails after its stability verdict keeps the verdict,
        # so the stable fraction does not depend on the outputs requested.
        spec = covariance_failure_spec()
        result = run_sweep(spec)
        assert set(zip(result.column("stable"), result.column("error"))) == {
            (1, "singular_solve"), (0, "")}
        assert None not in result.column("max_lyapunov")
        verdict_only = run_sweep(dataclasses.replace(spec, outputs=("stable",)))
        assert result.stable_fraction() == verdict_only.stable_fraction() == 6 / 11

    def test_unset_derived_reference_fails_every_cell(self):
        # g_ma/G needs G_eff, which a drive-mode base leaves unset.
        spec = SweepSpec(base=drive_spec().base,
                         axes=(Axis("gma_over_G", 0.5, 5.0, 3),),
                         outputs=("stable", "E_N(am)"))
        result = run_sweep(spec)
        assert result.column("error") == ["parameter_error"] * 3
        assert [row[1:-1] for row in result.rows] == [[None, None]] * 3
        assert result.rows == point_rows(spec)

    def test_each_invalid_point_gets_its_first_broken_rule(self):
        # As SystemParams would reject that point alone.
        base = default_params()
        columns = base.columns(4)
        columns["G_eff"] = np.array([0.1, math.inf, -0.1, 0.2]) * OMEGA_B
        columns["g_ma"] = np.array([0.1, 0.1, -0.1, 0.1]) * OMEGA_B
        failures = no_failures(4)
        sweep._check_columns(columns, failures)
        messages = [None, "SystemParams.G_eff is not finite",
                    "coupling rates must be non-negative", None]
        assert [failure and str(failure) for failure in failures] == messages
        for k, message in enumerate(messages):
            point = {name: col[k] for name, col in columns.items()
                     if col is not None}
            if message is None:
                base.replace(**point)
            else:
                with pytest.raises(ParameterError, match=message):
                    base.replace(**point)

    def test_list_outputs_equal_tuple_outputs(self):
        outputs = ["stable", "E_N(am)", "S(m->b)", "eta_minus(ab)"]
        params = default_params()
        assert evaluate_point(params, outputs) == \
            evaluate_point(params, tuple(outputs))
        spec = SweepSpec(base=params, axes=(Axis("G_over_omega_b", 0.1, 0.3, 3),),
                         outputs=outputs)
        assert spec.outputs == tuple(outputs)
        assert run_sweep(spec).rows == run_sweep(
            dataclasses.replace(spec, outputs=tuple(outputs))).rows

    def test_extreme_temperatures_fail_with_codes(self):
        # Below ~1.8e-301 K, k_B*T underflows: the point is at 0 K. Near
        # 1e308 K the occupations overflow, and the solve fails that point.
        # No such point prints a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = default_params()
            outputs = ("stable", "E_N(ab)", "physicality_margin")
            assert evaluate_point(base.replace(temperature=1e-310), outputs) == \
                evaluate_point(base.replace(temperature=0.0), outputs)
            spec = SweepSpec(base=base, axes=(Axis("temperature", 1.0, 1e308, 3),),
                             outputs=outputs)
            result = run_sweep(spec)
            assert result.column("error")[-1] == "singular_solve"
            assert result.column("error")[0] == ""
            # The lone surviving row is a combination of the shared drift's
            # channels, and its single point a direct solve.
            assert_rows_close(result.rows, point_rows(spec))
            # Below omega ~ 5e-290 rad/s, hbar*omega/(k_B*T) underflows: at any
            # T > 0 the occupation is infinite, and so is D; 0 K still solves.
            spec = dataclasses.replace(spec, base=base.replace(omega_a=1e-300),
                                       axes=(Axis("temperature", 0.0, 0.02, 3),))
            result = run_sweep(spec)
            assert result.column("error") == ["", "singular_solve", "singular_solve"]
            assert result.column("stable") == [1, 1, 1]
            assert_rows_close(result.rows, point_rows(spec))
            # Without cavity loss, an infinite cavity occupation times the zero
            # rate is NaN: D is not finite, and the solve fails every point.
            spec = dataclasses.replace(spec, base=base.replace(kappa_a=0.0),
                                       axes=(Axis("temperature", 1e307, 1e308, 3),))
            result = run_sweep(spec)
            assert result.column("error") == ["singular_solve"] * 3
            assert result.rows == point_rows(spec)

    @pytest.mark.parametrize("g_ma", [1.0, 0.06])  # stable, unstable
    def test_unknown_gain_noise_fails_before_any_stage(self, g_ma):
        base = default_params().replace(g_ma=g_ma * OMEGA_B)
        outputs = ("stable", "max_lyapunov", "E_N(am)")
        assert evaluate_point(base, outputs, gain_noise="bogus") == {
            **dict.fromkeys(outputs), "error": "parameter_error"}
        with pytest.raises(ParameterError) as exc:
            vanishing_temperature(base, "am", 0.0, 0.35, "bogus")
        assert type(exc.value) is ParameterError
        assert str(exc.value) == \
            "gain_noise must be one of ('vacuum', 'reversed')"

    def test_overflowed_determinants_fail_their_points(self):
        # From about 1e77 K the two-mode determinants of the bundled point
        # overflow. E_N, eta^- and steering then fail the point instead of
        # reading 0; 1e60 K is still finite.
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("temperature", 1e60, 1e90, 7),),
                         outputs=("E_N(am)", "eta_minus(am)", "S(m->b)"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
        first, *rest = result.rows
        assert first[1] == 0.0 and first[3] == 0.0 and first[4] == ""
        assert first[2] == pytest.approx(2.82517557612e60, rel=1e-11)
        for row in rest:
            assert row[1:] == [None, None, None, "nonfinite_determinant"]
        assert result.rows == point_rows(spec)
        hot = default_params().replace(temperature=1e80)
        for output in ("S(m->b)", "S(a->m)", "eta_minus(ab)"):
            assert evaluate_point(hot, (output,))["error"] == \
                "nonfinite_determinant"
        # Near 3e76 K the determinants are finite but Sigma^2 overflows:
        # eta^- fails, steering (a ratio far below 1) reads 0.
        warm = default_params().replace(temperature=3.16e76)
        assert evaluate_point(warm, ("S(a->m)", "E_N(am)")) == {
            "S(a->m)": 0.0, "E_N(am)": None, "error": "nonfinite_determinant"}

    def test_unknown_output_is_a_parameter_error(self):
        assert evaluate_point(default_params(), ("stable", "E_N(zz)")) == {
            "stable": None, "E_N(zz)": None, "error": "parameter_error"}

    def test_a_str_of_outputs_is_a_parameter_error(self):
        # A bare str is not read as a sequence of one-letter outputs.
        with pytest.raises(ParameterError, match="sequence of output names"):
            evaluate_point(default_params(), "stable")
        with pytest.raises(ParameterError, match="sequence of output names"):
            SweepSpec(base=default_params(),
                      axes=(Axis("G_over_omega_b", 0.1, 0.2, 2),),
                      outputs="stable")

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
        drive = drive_spec().base.replace(**dict(DEGENERATE))
        assert evaluate_point(drive, ("stable",))["error"] == \
            "degenerate_denominator"
        # A G_eff axis over a drive-mode base gives no valid parameter set.
        spec = SweepSpec(base=drive, axes=(Axis("G_over_omega_b", 0.1, 0.2, 2),),
                         outputs=("stable",))
        assert run_sweep(spec).column("error") == ["parameter_error"] * 2
        # Nor does a given G_eff with a self-consistent detuning.
        spec = dataclasses.replace(spec, base=default_params().replace(
            delta_m_eff=None, delta_m=-OMEGA_B))
        assert run_sweep(spec).column("error") == ["parameter_error"] * 2


def thread_spec(n: int) -> SweepSpec:
    """n points of a G axis, through the working point, the eigenvalues and
    the Lyapunov solve."""
    return SweepSpec(base=default_params(),
                     axes=(Axis("G_over_omega_b", 0.0, 0.5, n),),
                     outputs=("stable", "max_lyapunov", "E_N(am)", "pt_phase"))


def two_series_map() -> SweepSpec:
    """A 41 x 25 gain-and-loss map: 1,025 points, one past a batch."""
    return SweepSpec(base=default_params(),
                     axes=(Axis("gma_over_omega_b", 0.0, 1.2, 41),
                           Axis("G_over_omega_b", 0.0, 0.6, 25)),
                     outputs=("stable", "max_lyapunov", "E_N(bm)"),
                     series=sweep._GAIN_LOSS)


class TestBatchThreads:
    """A sweep runs its (batch, series) items on one thread per usable core,
    at most BATCH_THREADS."""

    @staticmethod
    def serial_rows(spec: SweepSpec) -> list[list]:
        """The rows of the whole grid as one batch on one thread."""
        points = spec.grid()
        cells = points.T.tolist()
        for series in spec.series:
            cells += sweep._series_cells(spec, points, series)
        return rows_of(cells)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("make_spec, count", [
        (lambda: thread_spec(2), 1), (lambda: thread_spec(BATCH_SIZE), 1),
        (lambda: thread_spec(BATCH_SIZE + 1), 2),
        (lambda: thread_spec(2 * BATCH_SIZE + 3), 4), (two_series_map, 2)])
    def test_rows_are_the_serial_rows(self, monkeypatch, make_spec, count,
                                      threads, cores):
        spec = make_spec()
        n = len(spec.grid())
        expected = self.serial_rows(spec)
        cores(threads)
        calls = count_calls(monkeypatch, "_series_cells")
        assert run_sweep(spec).rows == expected
        assert len(calls) == count * len(spec.series)
        sizes = sorted(len(points) for _, points, series in calls
                       if series == spec.series[0])
        # Equal batches, as many on any core count: a grid that fits one
        # batch stays one, a larger one makes whole rounds of BATCH_THREADS.
        assert len(sizes) == count and sum(sizes) == n
        assert sizes[-1] - sizes[0] <= 1 and sizes[-1] <= BATCH_SIZE

    def test_shared_drift_rows_do_not_depend_on_the_cores(self, cores):
        # Two drifts of 1,025 temperatures each make 4 batches, each of one
        # drift, whatever the cores. Cut into one batch per 1,024 points and
        # thread, one core would make 3, the middle one holding both drifts:
        # its points would be solved one by one, whose floats differ from a
        # shared drift's.
        base = default_params().replace(G_eff=0.25 * OMEGA_B,
                                        kappa_a=-0.02 * OMEGA_B)
        spec = SweepSpec(base=base,
                         axes=(Axis("gma_over_omega_b", 0.5, 1.0, 2),
                               Axis("temperature", 0.0, 0.25, 1025)),
                         outputs=("E_N(am)",))
        rows = []
        for n in (1, 2, 3):
            cores(n)
            rows.append(run_sweep(spec).rows)
        assert rows[1:] == rows[:1] * 2
        assert sum(bool(row[2]) for row in rows[0][BATCH_SIZE:]) > 500

    def test_batch_threads_stop_at_the_cap(self, monkeypatch, cores):
        # One thread per usable core up to BATCH_THREADS, so one helper loop
        # from two cores up.
        started = record_helpers(monkeypatch)
        calls = count_calls(monkeypatch, "map_batches")
        spec = SweepSpec(base=default_params(), outputs=("stable",),
                         axes=(Axis("G_over_omega_b", 0.0, 0.5,
                                    2 * BATCH_SIZE + 3),))
        seen = []
        for n in (1, 2, 3, 64):
            cores(n)
            run_sweep(spec)
            seen.append(len(started))
            started.clear()
        assert sweep.BATCH_THREADS == 2
        assert seen == [0, 1, 1, 1]
        # Per sweep: one flat call over its 4 items (4 batches of one
        # series), none nested.
        assert [len(args[1]) for args in calls] == [4] * 4

    def test_an_error_in_a_batch_reaches_the_caller(self, monkeypatch, cores):
        # The third of four batches fails; the caller gets its error.
        cores(2)
        spec = thread_spec(2 * BATCH_SIZE + 3)
        evaluate, third = sweep._series_cells, spec.grid()[1025:1538]

        def failing(spec, points, series):
            if np.array_equal(points, third):
                raise SingularSolveError("injected")
            return evaluate(spec, points, series)
        monkeypatch.setattr(sweep, "_series_cells", failing)
        with pytest.raises(SingularSolveError, match="injected"):
            run_sweep(spec)

    def test_concurrent_sweeps_keep_their_rows(self, cores):
        cores(2)
        specs = [thread_spec(2 * BATCH_SIZE + 3), two_series_map(),
                 gain_loss_line("temperature")]
        expected = [run_sweep(spec).rows for spec in specs]
        results = [[] for _ in specs]

        def work(i):
            for _ in range(3):
                results[i].append(run_sweep(specs[i]).rows)
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(specs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        for rows, want in zip(results, expected):
            assert rows == [want] * 3


def gain_loss_line(axis: str) -> SweepSpec:
    """A one-batch preset of two series: fig3a (101 values of G, a drift
    each) or fig6b (251 temperatures, one shared drift)."""
    return figure_preset({"G": "fig3a", "temperature": "fig6b"}[axis])


class TestSeriesThreads:
    """A sweep of one batch runs its series on one thread per usable core,
    at most BATCH_THREADS, with the rows of one thread."""

    @pytest.mark.parametrize("axis", ["G", "temperature"])
    def test_rows_are_the_serial_rows(self, cores, axis):
        spec = gain_loss_line(axis)
        expected = TestBatchThreads.serial_rows(spec)
        rows = []
        for n in (1, 2, 3):
            cores(n)
            rows.append(run_sweep(spec).rows)
        assert rows == [expected] * 3

    def test_a_lone_batch_hands_one_series_to_a_helper(self, monkeypatch,
                                                       cores):
        cores(2)
        started = record_helpers(monkeypatch)
        spec = gain_loss_line("G")
        assert len(spec.grid()) <= BATCH_SIZE and len(spec.series) == 2
        run_sweep(spec)
        assert len(started) == 1  # one helper loop
        # A grid of two batches makes four items: still one helper loop in
        # all, taking the next item until none is left.
        started.clear()
        run_sweep(two_series_map())
        assert len(started) == 1

    def test_an_error_in_a_series_reaches_the_caller(self, monkeypatch,
                                                     cores):
        # Both series start; the gain series fails at once while the loss
        # series takes 50 ms: the error is raised once the loss series has
        # stopped.
        cores(2)
        series_cells = sweep._series_cells
        lock, both = threading.Lock(), threading.Barrier(2, timeout=30)
        running, finished = [0], []

        def failing(spec, points, series):
            with lock:
                running[0] += 1
            try:
                both.wait()
                if series.label == "gain":
                    raise SingularSolveError("injected")
                time.sleep(0.05)
                cells = series_cells(spec, points, series)
                finished.append(series.label)
                return cells
            finally:
                with lock:
                    running[0] -= 1
        monkeypatch.setattr(sweep, "_series_cells", failing)
        for axis in ("G", "temperature"):
            finished.clear()
            with pytest.raises(SingularSolveError, match="injected"):
                run_sweep(gain_loss_line(axis))
            assert running == [0]
            assert finished == ["loss"]


def count_linalg(monkeypatch) -> dict[str, list[int]]:
    """Stack sizes of the 36x36 Lyapunov systems passed to np.linalg.solve
    and of the 6x6 drifts passed to np.linalg.eigvals, one entry per call."""
    stacks = {"solve": [], "eigvals": []}
    solve, eigvals = np.linalg.solve, np.linalg.eigvals

    def counted_solve(a, b):
        if a.shape[-1] == 36:
            stacks["solve"].append(math.prod(a.shape[:-2]))
        return solve(a, b)

    def counted_eigvals(a):
        if a.shape[-1] == 6:
            stacks["eigvals"].append(math.prod(a.shape[:-2]))
        return eigvals(a)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    return stacks


def rows_of(cells: list[list]) -> list[list]:
    """The rows of the columns that ``sweep._evaluate`` returns."""
    return [list(row) for row in zip(*cells)]


def assert_rows_close(rows: list[list], expected: list[list]) -> None:
    """Equal rows, except that floats may differ by 1e-12 relative."""
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert [type(cell) for cell in row] == [type(cell) for cell in want]
        for cell, value in zip(row, want):
            if isinstance(cell, float):
                assert abs(cell - value) <= 1e-12 * max(abs(cell), abs(value))
            else:
                assert cell == value


def temperature_batch(base, temperatures, outputs) -> list[list]:
    """Rows of one batch of ``base`` at the given temperatures."""
    n = len(temperatures)
    columns, failures = base.columns(n), no_failures(n)
    columns["temperature"] = np.array(temperatures)
    sweep._check_columns(columns, failures)
    return rows_of(sweep._evaluate(columns, failures, outputs, "vacuum"))


class TestSharedDrifts:
    """A covariance batch whose live points all share one drift (a
    temperature axis) makes one eigen-solve and one solve of the drift's three
    noise-channel systems; any other batch solves each point."""

    def test_temperature_axis_solves_once_per_batch_and_series(
            self, monkeypatch):
        stacks = count_linalg(monkeypatch)
        run_sweep(figure_preset("fig6b"))
        batches = 2 * -(-251 // BATCH_SIZE)
        assert stacks == {"solve": [3] * batches, "eigvals": [1] * batches}

    def test_distinct_drifts_solve_once_per_point(self, monkeypatch):
        spec = figure_preset("fig3a")
        stacks = count_linalg(monkeypatch)
        result = run_sweep(spec)
        stable = sum(result.column("stable", series.label).count(1)
                     for series in spec.series)
        assert sum(stacks["eigvals"]) == len(result.rows) * len(spec.series)
        assert sum(stacks["solve"]) == stable > 0

    def test_search_factors_one_system_per_batch(self, monkeypatch):
        # A search shares one drift, so all 14 of its temperatures take one
        # eigen-solve and one stack of the three channel systems, none of
        # which needs refining here.
        base, t_lo, t_hi, noise = TestVanishingTemperature.SEARCHES[1]
        stacks = count_linalg(monkeypatch)
        vanishing_temperature(base, "am", t_lo, t_hi, noise)
        assert stacks == {"solve": [3], "eigvals": [1]}

    def test_bad_temperatures_fail_only_their_points(self, monkeypatch):
        # T < 0 fails the parameter check, and the occupations overflow D
        # at 5e307 and 1e308 K (the Lyapunov solve's pre-check). At 1e300 K
        # D and V (about 4e300) are finite, but the two-mode determinants
        # overflow. The others share one channel solve.
        temperatures = [0.01, -0.01, 0.02, 1e308, 0.03, -1.0, 5e307, 1e300]
        outputs = ("stable", "E_N(am)", "physicality_margin")
        stacks = count_linalg(monkeypatch)
        rows = temperature_batch(default_params(), temperatures, outputs)
        assert stacks == {"solve": [3], "eigvals": [1]}
        assert [row[-1] for row in rows] == [
            "", "parameter_error", "", "singular_solve", "",
            "parameter_error", "singular_solve", "nonfinite_determinant"]
        assert_rows_close(rows, [
            temperature_batch(default_params(), [t], outputs)[0]
            for t in temperatures])

    def test_failed_point_never_represents_a_group(self, monkeypatch):
        # omega_a enters only D: the three points with omega_a <= 0 fail the
        # parameter check, and the first of them must not stand for the
        # drift that the two valid points share.
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("omega_a", -OMEGA_B, OMEGA_B, 5),),
                         outputs=("stable", "E_N(bm)", "physicality_margin"))
        stacks = count_linalg(monkeypatch)
        result = run_sweep(spec)
        assert stacks == {"solve": [3], "eigvals": [1]}
        assert result.column("error") == ["parameter_error"] * 3 + [""] * 2
        assert_rows_close(result.rows, point_rows(spec))

    def test_shared_eigen_failure_fails_each_point(self, monkeypatch):
        # The one eigen-solve of a shared drift fails: every live point gets
        # a copy of its failure, and an earlier failure stays.
        def rejected(a):
            raise np.linalg.LinAlgError("injected")
        monkeypatch.setattr(np.linalg, "eigvals", rejected)
        columns, failures = default_params().columns(4), no_failures(4)
        columns["temperature"] = np.array([0.01, -1.0, 0.02, 0.03])
        sweep._check_columns(columns, failures)
        rows = rows_of(sweep._evaluate(columns, failures,
                                       ("stable", "E_N(am)"), "vacuum"))
        assert [row[-1] for row in rows] == [
            "eigen_solve", "parameter_error", "eigen_solve", "eigen_solve"]
        assert len({id(failure) for failure in failures}) == 4
        for k in (0, 2, 3):
            assert str(failures[k]) == \
                "eigenvalue computation failed: injected"
            assert rows[k][:2] == [None, None]

    def test_mixed_drift_batch_matches_single_points(self, monkeypatch):
        # Drifts that repeat, but not all alike, take the one-column path:
        # one eigen-solve and one system per point, and the bits of single
        # points.
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("G_over_omega_b", 0.1, 0.2, 2),
                               Axis("temperature", 0.01, 0.03, 3)),
                         outputs=("stable", "E_N(am)", "S(m->b)", "residual"),
                         gain_noise="reversed")
        stacks = count_linalg(monkeypatch)
        result = run_sweep(spec)
        assert stacks == {"solve": [6], "eigvals": [6]}
        assert result.rows == point_rows(spec)

    @pytest.mark.parametrize("name", ["fig6a", "fig6b"])
    @pytest.mark.parametrize("gain_noise", ["vacuum", "reversed"])
    def test_channel_residuals_meet_the_target(self, name, gain_noise):
        preset = figure_preset(name, gain_noise)
        spec = dataclasses.replace(preset, outputs=("residual", "stable"))
        result = run_sweep(spec)
        checked = 0
        for series in spec.series:
            base = spec.base
            for override in series.overrides:
                base = apply_parameter(base, *override)
            for (temperature,), residual in zip(
                    spec.grid().tolist(), result.column("residual", series.label)):
                if residual is None:
                    continue
                d = diffusion_from_params(base.replace(temperature=temperature),
                                          gain_noise).d
                assert residual <= RESIDUAL_REL_TARGET * np.abs(d).max()
                checked += 1
        assert checked > 200

    def test_residual_is_taken_only_if_asked(self, monkeypatch):
        # A combination needs no residual: a shared batch takes one, in
        # extended precision, only for a residual output.
        base = default_params()
        temperatures = [0.0, 0.01, -1.0, 0.02]
        calls = []
        residuals = measures.lyapunov_residuals
        monkeypatch.setattr(measures, "lyapunov_residuals",
                            lambda *args: calls.append(args) or residuals(*args))
        temperature_batch(base, temperatures, ("E_N(am)", "physicality_margin"))
        assert calls == []
        rows = temperature_batch(base, temperatures, ("residual", "E_N(am)"))
        assert len(calls) == 1
        assert [row[-1] for row in rows] == ["", "", "parameter_error", ""]
        for row, temperature in zip(rows, temperatures):
            if temperature < 0.0:
                continue
            params = base.replace(temperature=temperature)
            a = drift_from_params(params, working_point(params)).a
            d = diffusion_from_params(params).d
            v = measures.combine_channels(
                measures.channel_covariances(a, np.linalg.eigvals(a)),
                d[None], no_failures(1))[0]
            al, vl = a.astype(np.longdouble), v.astype(np.longdouble)
            assert row[0] == float(np.abs(al @ vl + vl @ al.T + d).max())
            assert row[0] <= RESIDUAL_REL_TARGET * np.abs(d).max()

    @pytest.mark.parametrize("gain_noise", ["vacuum", "reversed"])
    def test_shared_rows_equal_single_points_within_tolerance(self,
                                                              gain_noise):
        # One right-hand side and several take different LAPACK kernels, so
        # a shared-drift row matches its single point to rounding, not bits.
        spec = figure_preset("fig6a", gain_noise)
        assert_rows_close(run_sweep(spec).rows, point_rows(spec))


def reference_csv(result: SweepResult) -> str:
    """``result.to_csv()`` written one row and one cell at a time."""
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.12g}"
        return str(value)
    lines = [",".join(result.columns)]
    lines += [",".join(map(cell, row)) for row in result.rows]
    return "\n".join(lines) + "\n"


def stability_map_spec() -> SweepSpec:
    """A 13 x 11 stability map: 143 rows, a multiple of no batch size used."""
    return SweepSpec(base=default_params(),
                     axes=(Axis("gma_over_omega_b", 0.0, 1.2, 13),
                           Axis("G_over_omega_b", 0.0, 0.6, 11)),
                     outputs=("stable", "max_lyapunov", "pt_phase"))


def hand_built(*cells: list, axes: tuple[Axis, ...] = ()) -> SweepResult:
    """A result whose columns after the axes are ``cells``, on ``axes`` or
    else on one axis with a point per cell of the first column."""
    axes = axes or (Axis("G_over_omega_b", -0.5, 0.5, len(cells[0])),)
    spec = SweepSpec(base=default_params(), axes=axes, outputs=("stable",))
    return SweepResult(spec=spec,
                       columns=[*(f"axis{i}" for i in range(len(axes))),
                                *(f"c{j}" for j in range(len(cells)))],
                       cells=list(cells))


#: Output cells: any value a cell can hold, and some it cannot.
OUTPUT_CELLS = (st.none() | st.integers() | st.booleans() | st.floats()
                | st.floats().map(np.float64) | st.text(max_size=6)
                | st.sampled_from(["", "unstable", "singular_solve"]))

#: Axis bounds lo < hi with a finite span; either may be a zero of any sign.
AXIS_BOUNDS = st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                        st.floats(allow_nan=False, allow_infinity=False)
                        ).filter(lambda b: b[0] < b[1]
                                 and math.isfinite(b[1] - b[0]))


@st.composite
def hand_built_results(draw) -> SweepResult:
    """A result of one or two drawn axes and one to three drawn columns."""
    names = ("gma_over_omega_b", "G_over_omega_b")[:draw(st.integers(1, 2))]
    axes = tuple(Axis(name, *draw(AXIS_BOUNDS), draw(st.integers(2, 5)))
                 for name in names)
    n = math.prod(axis.count for axis in axes)
    column = st.lists(OUTPUT_CELLS, min_size=n, max_size=n)
    return hand_built(*draw(st.lists(column, min_size=1, max_size=3)),
                      axes=axes)


def two_series_specs() -> list[SweepSpec]:
    """Gain and loss over axes with a -0.0 end and negative ranges: a 1-D
    grid whose points fail (G < 0) up to that end, and a 2-D stability map
    with a failing G < 0 row."""
    return [SweepSpec(base=default_params(),
                      axes=(Axis("G_over_omega_b", -0.3, -0.0, 4),),
                      outputs=("stable", "E_N(am)"), series=sweep._GAIN_LOSS),
            SweepSpec(base=default_params(),
                      axes=(Axis("delta_over_omega_b", -2.0, -0.0, 5),
                            Axis("G_over_omega_b", -0.1, 0.3, 3)),
                      outputs=("stable", "max_lyapunov"), series=sweep._GAIN_LOSS)]


class TestCsvWriter:
    @pytest.mark.parametrize("make_spec", [
        lambda: figure_preset("fig3a"), stability_map_spec, unstable_spec,
        covariance_failure_spec, drive_spec, ep_crossing_spec])
    @pytest.mark.parametrize("batch_size", [BATCH_SIZE, 7, 1])
    def test_sweeps_match_the_row_writer(self, monkeypatch, make_spec,
                                         batch_size):
        # A column joins its series' items in batch order, however the grid
        # is cut; none of these grids shares a drift, so no cell moves.
        expected = run_sweep(make_spec()).to_csv()
        monkeypatch.setattr(sweep, "BATCH_SIZE", batch_size)
        result = run_sweep(make_spec())
        assert result.to_csv() == reference_csv(result) == expected

    @pytest.mark.parametrize("batch_size", [BATCH_SIZE, 3, 2])
    def test_zeros_nan_and_infinities(self, monkeypatch, batch_size):
        # Zeros of both signs, NaNs, infinities and None come out of the
        # sweep's items and keep their cells however the grid is cut: 9
        # points make one batch, or four (size 3) or six (size 2).
        values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, None,
                  np.float64(-0.0), np.float64(math.nan)]
        codes = ["", "x", "unstable", "", "", "", "", "", "singular_solve"]
        columns = [values, values[::-1], codes]
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("G_over_omega_b", -0.5, 0.5, len(values)),),
                         outputs=("stable", "E_N(am)"))
        position = {x: k for k, (x,) in enumerate(spec.grid().tolist())}
        sizes = []

        def cells_at(spec, points, series):
            sizes.append(len(points))
            index = [position[x] for x in points[:, 0].tolist()]
            return [[column[k] for k in index] for column in columns]

        monkeypatch.setattr(sweep, "BATCH_SIZE", batch_size)
        monkeypatch.setattr(sweep, "_series_cells", cells_at)
        result = run_sweep(spec)
        assert sum(sizes) == len(values)
        assert len(sizes) == {BATCH_SIZE: 1, 3: 4, 2: 6}[batch_size]
        assert result.cells == columns
        text = result.to_csv()
        assert text == reference_csv(result)
        assert [line.split(",")[1:] for line in text.splitlines()[1:4]] == [
            ["0", "nan", ""], ["-0", "-0", "x"], ["nan", "", "unstable"]]
        assert [line.split(",")[1] for line in text.splitlines()[4:]] == [
            "nan", "inf", "-inf", "", "-0", "nan"]

    def test_equal_values_of_other_types_keep_their_cells(self):
        # 1.0 == 1 == True and 1e13 == 10**13, but their cells differ.
        values = [1.0, True, 1, 1e13, 10**13, 1.0, True, 1e13]
        result = hand_built(values, values[::-1], [""] * len(values))
        text = result.to_csv()
        assert text == reference_csv(result)
        assert [line.split(",")[1] for line in text.splitlines()[1:]] == [
            "1", "True", "1", "1e+13", "10000000000000", "1", "True", "1e+13"]

    @settings(max_examples=200, deadline=None)
    @given(result=hand_built_results())
    def test_any_cells_match_the_row_writer(self, result):
        assert result.to_csv() == reference_csv(result)

    @pytest.mark.parametrize("spec", two_series_specs())
    def test_axis_cells_are_the_grid_in_order(self, spec):
        result = run_sweep(spec)
        text = result.to_csv()
        assert text == reference_csv(result)
        n_axes = len(spec.axes)
        assert [line.split(",")[:n_axes] for line in text.splitlines()[1:]] == \
            [[f"{v:.12g}" for v in point] for point in spec.grid().tolist()]
        assert "-0" in {line.split(",")[0] for line in text.splitlines()[1:]}

    def test_an_axis_at_the_float_limit_warns_nothing(self):
        # linspace's product for the last point overflows; it is set to hi.
        top = float(np.finfo(float).max)
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("gma_over_omega_b", -top, 0.0, 4),),
                         outputs=("stable",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
            text = result.to_csv()
        assert text == reference_csv(result)
        assert result.column("gma_over_omega_b") == [-top, top / 3 - top,
                                                     2 * (top / 3) - top, 0.0]
        assert result.column("error") == ["parameter_error"] * 3 + [""]

    def test_ragged_rows_are_refused(self):
        # A column shorter or longer than the grid's 3 points is never cut
        # or padded: every writer raises.
        axes = (Axis("G_over_omega_b", 0.0, 0.5, 3),)
        for length in (2, 4):
            result = hand_built([1, 1, 1], list(range(length)), ["", "", ""],
                                axes=axes)
            for write in (result.to_csv, lambda: result.rows, result.to_json):
                with pytest.raises(ValueError):
                    write()

    def test_rows_columns_and_json_read_the_cells(self, monkeypatch, cores):
        # Two batches of two series: unstable points, then failed ones; on
        # two threads, then on one.
        monkeypatch.setattr(sweep, "BATCH_SIZE", 8)
        cores(2)
        spec = dataclasses.replace(covariance_failure_spec(), series=(
            Series("cold"), Series("hot", (("temperature", 0.1),))))
        assert len(sweep._batches(spec.grid())) == 2
        result = run_sweep(spec)
        rows = result.rows
        for series in spec.series:
            assert set(result.column("error", series.label)) == \
                {"", "singular_solve"}
        assert result.to_json() == json.dumps(
            [dict(zip(result.columns, row)) for row in rows],
            separators=(",", ":")) + "\n"
        grid = spec.grid()
        assert result.column(spec.axes[0].name) == grid[:, 0].tolist()
        assert rows == [[*point, *cells] for point, *cells
                        in zip(grid.tolist(), *result.cells)]
        for series in spec.series:
            index = result._column_index("stable", series.label)
            assert result.column("stable", series.label) == \
                result.cells[index - 1]
        cores(1)
        assert run_sweep(spec).cells == result.cells

    def test_unknown_column_lists_the_columns(self):
        result = run_sweep(SweepSpec(base=default_params(), outputs=("stable",),
                                     axes=(Axis("G_over_omega_b", 0.0, 0.1, 2),)))
        with pytest.raises(KeyError) as exc:
            result.column("E_N(am)")
        assert exc.value.args == (
            f"no column 'E_N(am)'; have {result.columns}",)


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

    @pytest.mark.parametrize("name", FIGURE_NAMES)
    def test_resolved_spec(self, name):
        # Base kappa_a, g_ma and G_eff, axes, outputs, and each series'
        # kappa_a once its overrides are applied, compared exactly.
        base = default_params()
        km, wb = base.kappa_m, OMEGA_B
        g_axis = ("G_over_omega_b", 0.0, 0.5, 101)
        gain_loss = {"gain": 0.2 * km, "loss": -0.2 * km}
        stability_map = ("stable", "max_lyapunov")
        temperature = ("temperature", 0.0, 0.25, 251)
        expected = {
            "fig2a": (-0.2 * km, base.g_ma, base.G_eff,
                      (("gma_over_omega_b", 0.0, 1.2, 101),
                       ("G_over_omega_b", 0.0, 0.6, 101)), stability_map, None),
            "fig2b": (0.2 * km, base.g_ma, base.G_eff,
                      (("gma_over_omega_b", 0.0, 1.2, 101),
                       ("G_over_omega_b", 0.0, 0.6, 101)), stability_map, None),
            "fig2c": (base.kappa_a, 0.5 * wb, base.G_eff,
                      (("kappa_a_over_kappa_m", 0.0, 1.0, 101),
                       ("G_over_omega_b", 0.0, 0.6, 101)), stability_map, None),
            "fig2d": (0.2 * km, base.g_ma, 0.4 * wb,
                      (("gma_over_G", 0.5, 5.0, 101),),
                      ("max_lyapunov", "stable"), None),
            **{f"fig3{panel}": (base.kappa_a, base.g_ma, base.G_eff, (g_axis,),
                                (f"E_N({pair})", "stable"), gain_loss)
               for panel, pair in zip("abc", ("am", "bm", "ab"))},
            "fig3d": (base.kappa_a, base.g_ma, 0.1 * wb,
                      (("kappa_a_over_kappa_m", 0.0, 0.95, 96),),
                      ("E_N(am)", "stable"), None),
            **{f"fig4{panel}": (0.2 * km, base.g_ma, base.G_eff,
                                (("delta_over_omega_b", -2.0, 0.0, 101),
                                 ("G_over_gma", 0.0, 0.5, 101)),
                                (f"E_N({pair})", "stable"), None)
               for panel, pair in zip("abc", ("am", "bm", "ab"))},
            "fig4d": (base.kappa_a, base.g_ma, base.G_eff,
                      (("G_over_gma", 0.0, 0.5, 101),
                       ("kappa_a_over_kappa_m", 0.0, 0.95, 96)),
                      ("E_N(am)", "stable"), None),
            "fig5": (base.kappa_a, base.g_ma, base.G_eff, (g_axis,),
                     ("S(m->b)", "S(a->b)", "S(b->m)", "S(b->a)", "stable"),
                     gain_loss),
            "fig6a": (0.2 * km, base.g_ma, 0.25 * wb, (temperature,),
                      ("E_N(am)", "E_N(bm)", "E_N(ab)", "S(m->b)", "S(a->b)",
                       "stable"), None),
            "fig6b": (base.kappa_a, base.g_ma, 0.25 * wb, (temperature,),
                      ("E_N(am)", "stable"), gain_loss),
        }
        kappa_a, g_ma, g_eff, axes, outputs, series = expected[name]
        spec = figure_preset(name)
        assert (spec.base.kappa_a, spec.base.g_ma, spec.base.G_eff) == \
            (kappa_a, g_ma, g_eff)
        assert [(a.name, a.lo, a.hi, a.count) for a in spec.axes] == list(axes)
        assert spec.outputs == outputs
        resolved = {}
        for s in spec.series:
            params = spec.base
            for key, value in s.overrides:
                params = apply_parameter(params, key, value)
            resolved[s.label] = params.kappa_a
        assert resolved == (series or {"": kappa_a})
        assert spec.gain_noise == "vacuum"
        assert figure_preset(name, "reversed").gain_noise == "reversed"

    def test_drive_mode_base(self):
        # Every preset fixes or sweeps G_eff, which a drive-mode base leaves
        # to the working point: fixing it raises, sweeping it fails each cell.
        drive = drive_spec().base
        fixing = {"fig2d", "fig3d", "fig6a", "fig6b"}
        for name in FIGURE_NAMES:
            if name in fixing:
                with pytest.raises(ParameterError, match="G_eff"):
                    figure_preset(name, base=drive)
                continue
            spec = figure_preset(name, base=drive)
            result = run_sweep(spec)
            n_axes = len(spec.axes)
            assert len(result.rows) == math.prod(a.count for a in spec.axes)
            for series in spec.series:
                assert set(result.column("error", series.label)) == \
                    {"parameter_error"}
            assert {cell for row in result.rows for cell in row[n_axes:]} <= \
                {None, "parameter_error"}


class TestStabilityMap:
    def test_single_stable_cell_fraction(self):
        spec = SweepSpec(base=default_params(),
                         axes=(Axis("G_over_omega_b", 0.19, 0.21, 2),),
                         outputs=("stable",))
        result = run_sweep(spec)
        assert result.stable_fraction() == 1.0
        assert result.column("stable") == [1, 1]


def search_edges() -> list:
    """Searches whose bracket has a failing end: the loss point of criterion
    8 up to overflowing temperatures, then an unstable bracket and a
    drive-mode point whose working point fails, each on an infinite, a
    negative and an overflowing end."""
    loss = default_params().replace(kappa_a=-0.02 * OMEGA_B, G_eff=0.25 * OMEGA_B)
    unstable = default_params().replace(g_ma=0.06 * OMEGA_B, G_eff=0.25 * OMEGA_B)
    degenerate = drive_spec().base.replace(epsilon_d=8e13, **dict(DEGENERATE))
    cases = [pytest.param(loss, 0.0, t_hi, id=str(t_hi))
             for t_hi in (1e300, 1e308, math.inf)]
    return cases + [
        pytest.param(base, t_lo, t_hi, id=f"{name}-{t_lo:g}-{t_hi:g}")
        for name, base in (("unstable", unstable), ("degenerate", degenerate))
        for t_lo, t_hi in ((0.0, math.inf), (-1.0, 0.3), (0.0, 1e308))]


class TestVanishingTemperature:
    def test_invalid_bracket_when_already_zero(self):
        # Gain cavity with vacuum noise holds no photon-magnon entanglement.
        base = default_params().replace(G_eff=0.25 * OMEGA_B)
        with pytest.raises(BracketInvalidError):
            vanishing_temperature(base, "am", 0.0, 0.25)

    def test_invalid_bracket_ordering(self):
        with pytest.raises(BracketInvalidError):
            vanishing_temperature(default_params(), "am", 0.2, 0.1)

    def test_unknown_pair_fails_before_any_solve(self, monkeypatch):
        stacks = count_linalg(monkeypatch)
        with pytest.raises(ParameterError) as exc:
            vanishing_temperature(default_params(), "xy", 0.0, 0.35)
        assert str(exc.value) == "unknown pair 'xy'; valid: ('am', 'bm', 'ab')"
        assert stacks == {"solve": [], "eigvals": []}

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

    # Criterion 8's two searches, one on a drive-mode point, and a bracket
    # that starts above 0 K under vacuum noise.
    SEARCHES = [
        (default_params().replace(G_eff=0.25 * OMEGA_B), 0.0, 0.35, "reversed"),
        (default_params().replace(kappa_a=-0.02 * OMEGA_B, G_eff=0.25 * OMEGA_B),
         0.0, 0.35, "reversed"),
        (drive_spec().base.replace(epsilon_d=8e13), 0.0, 0.35, "reversed"),
        (default_params().replace(kappa_a=-0.02 * OMEGA_B, G_eff=0.25 * OMEGA_B),
         1.1e-3, 0.2, "vacuum")]

    def test_matches_sequential_bisection(self):
        for base, t_lo, t_hi, noise in self.SEARCHES:
            expected = sequential_bisection(base, "am", t_lo, t_hi, noise)
            assert vanishing_temperature(base, "am", t_lo, t_hi, noise) == expected

    @staticmethod
    def _fail_at(monkeypatch, bad_temperatures):
        """Make the points at ``bad_temperatures`` fail in the diffusion
        stage, of the batched search and of the single-point chain alike;
        returns the list of temperatures that stage sees."""
        seen = []
        occupation = model.thermal_occupation

        def failing(omega, temperature):
            seen.append(temperature)
            if temperature in bad_temperatures:
                raise SingularSolveError(f"injected at {temperature} K")
            return occupation(omega, temperature)
        monkeypatch.setattr(model, "thermal_occupation", failing)
        return seen

    def test_only_the_walked_path_can_raise(self, monkeypatch):
        base, t_lo, t_hi, noise = self.SEARCHES[-1]
        visited = []
        sequential_bisection(base, "am", t_lo, t_hi, noise, visited)
        self._fail_at(monkeypatch, {visited[4]})
        with pytest.raises(MagnomechError) as reference:
            sequential_bisection(base, "am", t_lo, t_hi, noise)
        with pytest.raises(MagnomechError) as got:
            vanishing_temperature(base, "am", t_lo, t_hi, noise)
        assert type(got.value) is type(reference.value) is SingularSolveError
        assert str(got.value) == str(reference.value)

    @pytest.mark.parametrize("base, t_lo, t_hi", search_edges())
    def test_overflowing_end_fails_as_the_reference(self, base, t_lo, t_hi):
        # D overflows at 1e308 K; at 1e300 K V is finite, its determinants
        # are not. An infinite end fails as a SystemParams, not as an
        # occupation, although the search evaluates it first. The drift's
        # failure and instability, raised once, come after an invalid low
        # end and before an invalid or overflowing high end.
        noise = self.SEARCHES[1][3]
        with pytest.raises(MagnomechError) as reference:
            sequential_bisection(base, "am", t_lo, t_hi, noise)
        with pytest.raises(MagnomechError) as got:
            vanishing_temperature(base, "am", t_lo, t_hi, noise)
        assert type(got.value) is type(reference.value)
        assert str(got.value) == str(reference.value)

    @staticmethod
    def _walk(lo, hi, target):
        """The midpoints a bisection of [lo, hi] visits if E_N reaches 0 at
        ``target``."""
        mids = []
        while hi - lo > VANISHING_TEMPERATURE_TOL:
            mids.append(0.5 * (lo + hi))
            lo, hi = (mids[-1], hi) if mids[-1] < target else (lo, mids[-1])
        return mids

    def _rounds(self, t_lo, t_hi, path, predictions):
        """The temperatures a search evaluates, round by round, along the
        reference ``path`` of midpoints, given the predictions its rounds
        made, in order, as ((lo, hi), crossing or None). Each round predicts
        inside the walk's bracket and takes the midpoints a walk toward that
        crossing visits, or only the bracket's midpoint with none; the first
        takes both ends before them. A later round starts at the first
        midpoint of the path that the round before did not evaluate."""
        predictions = iter(predictions)

        def walk(lo, hi):
            bracket, target = next(predictions)
            assert bracket == (lo, hi)
            mids = self._walk(lo, hi, hi if target is None else target)
            return mids[:1] if target is None else mids
        rounds = [[t_lo, t_hi, *walk(t_lo, t_hi)]]
        lo, hi = t_lo, t_hi
        for step, mid in enumerate(path):
            assert mid == 0.5 * (lo + hi)
            if mid not in rounds[-1]:
                rounds.append(walk(lo, hi))
            if step + 1 < len(path) and path[step + 1] > mid:
                lo = mid
            else:
                hi = mid
        assert next(predictions, None) is None  # one prediction per round
        return rounds

    @staticmethod
    def _record(monkeypatch, predict=None):
        """Record each occupation taken, as (omega, T), the size of each
        PairBatch built, and each prediction made by ``predict`` (by
        default the search's own), as ((lo, hi), crossing)."""
        calls, batches, predictions = [], [], []
        occupation, pair_batch = model.thermal_occupation, measures.PairBatch
        predict = predict or sweep._predict_crossing
        monkeypatch.setattr(model, "thermal_occupation", lambda omega, t: (
            calls.append((omega, t)) or occupation(omega, t)))

        def counted(v, *args, **kwargs):
            batches.append(len(v))
            return pair_batch(v, *args, **kwargs)
        monkeypatch.setattr(measures, "PairBatch", counted)
        monkeypatch.setattr(sweep, "_predict_crossing", lambda *args: (
            predictions.append((args[3:5], predict(*args))) or predictions[-1][1]))
        return calls, batches, predictions

    @staticmethod
    def _check_schedule(base, rounds, calls, batches):
        """The occupations taken are those of the temperatures of
        ``rounds``, in order, the cavity's, the magnon's and the phonon's
        each, and each round is one PairBatch."""
        omegas = (base.omega_a, base.omega_m, base.omega_b)
        assert calls == [(omega, t) for t in itertools.chain(*rounds)
                         for omega in omegas]
        assert batches == [len(temperatures) for temperatures in rounds]

    def _search(self, monkeypatch, search, predict=None):
        """The temperatures the one-at-a-time walk of ``search`` in SEARCHES
        visits, and the rounds of the search when ``predict`` makes its
        predictions (by default its own). Checks the rounds against the
        occupations taken and the PairBatches built, and the value against
        the walk's."""
        base, t_lo, t_hi, noise = search
        visited = []
        expected = sequential_bisection(base, "am", t_lo, t_hi, noise, visited)
        calls, batches, predictions = self._record(monkeypatch, predict)
        value = vanishing_temperature(base, "am", t_lo, t_hi, noise)
        rounds = self._rounds(t_lo, t_hi, visited[2:], predictions)
        self._check_schedule(base, rounds, calls, batches)
        assert value == expected
        return visited, rounds

    def test_each_round_walks_a_fresh_prediction(self, monkeypatch):
        # The prediction takes no occupation, and each of these searches
        # takes one round: the temperatures the one-at-a-time walk visits.
        for search in self.SEARCHES:
            visited, rounds = self._search(monkeypatch, search)
            assert rounds == [visited]

    @staticmethod
    def _sibling_first(search):
        """A prediction of the crossing on the far side of the walk's fourth
        midpoint, then the search's own: its first round walks down the
        wrong half there."""
        base, t_lo, t_hi, noise = search
        visited = []
        expected = sequential_bisection(base, "am", t_lo, t_hi, noise, visited)
        predict, calls = sweep._predict_crossing, itertools.count()
        return lambda *args: (2.0 * visited[2 + 3] - expected if next(calls) == 0
                              else predict(*args))

    def test_off_path_failures_do_not_raise(self, monkeypatch):
        # Failures at every temperature of the first round's wrong path,
        # below the step where it leaves the walk, raise nothing. The second
        # round's fresh prediction is right: it leaves no temperature off
        # the path.
        search = self.SEARCHES[-1]
        base, t_lo, t_hi, noise = search
        visited, rounds = self._search(monkeypatch, search, self._sibling_first(search))
        wrong_path = [t for t in rounds[0] if t not in visited]
        assert len(rounds) == 2 and wrong_path == rounds[0][2 + 4:]
        assert set(rounds[1]) <= set(visited)
        monkeypatch.undo()
        expected = sequential_bisection(base, "am", t_lo, t_hi, noise)
        monkeypatch.setattr(sweep, "_predict_crossing", self._sibling_first(search))
        seen = self._fail_at(monkeypatch, set(wrong_path))
        assert vanishing_temperature(base, "am", t_lo, t_hi, noise) == expected
        assert set(wrong_path) <= set(seen)

    def test_search_builds_one_pair_batch(self, monkeypatch):
        # [0, 0.35] K takes 12 steps, and its one round takes both ends and
        # the 12 steps. The prediction builds no PairBatch.
        base, t_lo, t_hi, noise = self.SEARCHES[1]
        _, batches, _ = self._record(monkeypatch)
        vanishing_temperature(base, "am", t_lo, t_hi, noise)
        assert batches == [14]

    @pytest.mark.parametrize("wrong", ["sibling", "none"])
    def test_a_wrong_prediction_is_made_again(self, monkeypatch, wrong):
        # A prediction on the wrong side of the fourth step costs one more
        # round, which walks toward a fresh prediction made inside the
        # bracket where the walk left the path. With no prediction, each
        # round takes the bracket's next midpoint. The bits are those of a
        # walk one temperature at a time either way.
        for search in self.SEARCHES:
            if wrong == "sibling":
                visited, rounds = self._search(monkeypatch, search,
                                               self._sibling_first(search))
                assert len(rounds) == 2 and set(rounds[1]) <= set(visited)
            else:
                visited, rounds = self._search(monkeypatch, search, lambda *args: None)
                assert rounds == [visited[:3], *([t] for t in visited[3:])]
            monkeypatch.undo()

    @pytest.mark.parametrize("t_hi", [1e300, 1e308, math.inf])
    def test_prediction_takes_no_occupation(self, monkeypatch, t_hi):
        # The prediction takes closed-form occupations and raises nothing,
        # under the search's errstate: the search warns of nothing (its
        # tests run with RuntimeWarning an error). From SEARCHES[1]'s drift,
        # it finds the crossing to within the search's tolerance over the
        # search's bracket, and none where the grid overflows D or the
        # determinants, or where an end is infinite.
        base, t_lo, t_end, noise = self.SEARCHES[1]
        failures = no_failures(1)
        *_, channels = sweep._shared_drift(sweep._drifts(base.columns(), failures),
                                           failures)
        expected = vanishing_temperature(base, "am", t_lo, t_end, noise)
        occupation = mock.Mock(side_effect=AssertionError("an occupation"))
        monkeypatch.setattr(model, "thermal_occupation", occupation)
        with np.errstate(all="ignore"):  # as the search runs it
            predicted = sweep._predict_crossing(base, "am", channels, t_lo, t_end, noise)
            assert sweep._predict_crossing(base, "am", channels, t_lo, t_hi,
                                           noise) is None
        assert abs(predicted - expected) < VANISHING_TEMPERATURE_TOL
        occupation.assert_not_called()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(g=st.floats(0.0, 0.35), g_ma=st.floats(0.5, 1.5),
           ratio=st.floats(-1.0, 1.0), delta=st.floats(-1.2, -0.8),
           t_lo=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
           width=st.floats(1e-5, 0.5), pair=st.sampled_from(("am", "bm", "ab")),
           noise=st.sampled_from(("vacuum", "reversed")))
    def test_matches_a_one_at_a_time_walk(
            self, g, g_ma, ratio, delta, t_lo, width, pair, noise):
        # The same value bit for bit, or an error of the same type and
        # message, as the same kernels visited one temperature at a time.
        # sequential_bisection is not the oracle here: at G = 0 or
        # kappa_a = 0 its direct Lyapunov solve and the channel combination
        # can disagree on whether E_N > 0.
        base = default_params()
        base = base.replace(G_eff=g * OMEGA_B, g_ma=g_ma * OMEGA_B,
                            kappa_a=ratio * base.kappa_m,
                            delta_a=delta * OMEGA_B, delta_m_eff=delta * OMEGA_B)

        def outcome(search):
            try:
                return search(base, pair, t_lo, t_lo + width, noise)
            except MagnomechError as exc:
                return type(exc), str(exc)
        assert outcome(vanishing_temperature) == outcome(channel_bisection)

    def test_search_makes_no_evaluate_batch(self, monkeypatch):
        # Each step combines the solved channels itself; no temperature of
        # the search goes through a sweep batch.
        base, t_lo, t_hi, noise = self.SEARCHES[1]
        calls = count_calls(monkeypatch, "_evaluate")
        vanishing_temperature(base, "am", t_lo, t_hi, noise)
        assert calls == []

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(g=st.floats(0.0, 0.5), g_ma=st.floats(0.2, 1.5),
           ratio=st.floats(-1.0, 1.0), delta=st.floats(-1.5, -0.5),
           t_max=st.floats(0.01, 1.0))
    def test_vacuum_entanglement_never_rises_with_temperature(
            self, g, g_ma, ratio, delta, t_max):
        # The search's premise of one crossing: a hotter bath adds positive
        # semidefinite noise to D, and so to V, which is a local operation.
        base = default_params()
        base = base.replace(G_eff=g * OMEGA_B, g_ma=g_ma * OMEGA_B,
                            kappa_a=ratio * base.kappa_m,
                            delta_a=delta * OMEGA_B, delta_m_eff=delta * OMEGA_B)
        pairs = tuple(f"E_N({pair})" for pair in ("am", "bm", "ab"))
        result = run_sweep(SweepSpec(
            base=base, axes=(Axis("temperature", 0.0, t_max, 8),),
            outputs=("stable", *pairs)))
        assume(result.column("stable")[0] == 1)
        assume(not any(result.column("error")))
        for output in pairs:
            e_n = result.column(output)
            for colder, hotter in zip(e_n, e_n[1:]):
                assert hotter <= colder * (1.0 + 1e-9)

    def test_low_end_fails_before_high_end(self, monkeypatch):
        base, t_lo, t_hi, noise = self.SEARCHES[-1]
        self._fail_at(monkeypatch, {t_lo, t_hi})
        with pytest.raises(SingularSolveError, match=f"at {t_lo} K"):
            vanishing_temperature(base, "am", t_lo, t_hi, noise)
