"""Behavior of the "reversed" gain-noise convention.

With ``gain_noise="reversed"`` a gain cavity's diffusion entries are
-kappa_a*(2n+1) (negative for gain). That convention produces the documented
gain-assisted enhancement phenomenology — strong phonon-magnon entanglement,
one-way steering, and raised vanishing temperatures — at the price of
covariance matrices that can violate the uncertainty bound. These tests pin
down that behavior so the trade-off stays visible; the library default
("vacuum") keeps every state physical instead.
"""

import pytest

from magnomech import (default_params, figure_preset, run_sweep,
                       vanishing_temperature)
from magnomech.sweep import evaluate_point

OMEGA_B = default_params().omega_b


@pytest.fixture(scope="module")
def fig3b_rev():
    return run_sweep(figure_preset("fig3b", gain_noise="reversed"))


@pytest.fixture(scope="module")
def fig5_rev():
    return run_sweep(figure_preset("fig5", gain_noise="reversed"))


class TestEntanglementEnhancement:
    def test_gain_series_has_strong_phonon_magnon_entanglement(self, fig3b_rev):
        vals = [v for v in fig3b_rev.column("E_N(bm)", "gain") if v is not None]
        assert max(vals) > 0.8

    def test_loss_series_stays_zero(self, fig3b_rev):
        vals = [v for v in fig3b_rev.column("E_N(bm)", "loss") if v is not None]
        assert max(vals) <= 1e-12

    def test_monotone_in_gain_loss_ratio(self):
        result = run_sweep(figure_preset("fig3d", gain_noise="reversed"))
        pairs = zip(result.column("kappa_a_over_kappa_m"),
                    result.column("E_N(am)"))
        vals = [v for k, v in pairs if k <= 0.9 and v is not None]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]


class TestOneWaySteering:
    def test_gain_series_steers_toward_the_phonon(self, fig5_rev):
        s_mb = [v for v in fig5_rev.column("S(m->b)", "gain") if v is not None]
        s_ab = [v for v in fig5_rev.column("S(a->b)", "gain") if v is not None]
        assert max(s_mb) > 0.5
        assert max(s_ab) > 0.5

    def test_phonon_cannot_steer_the_magnon(self, fig5_rev):
        s_bm = [v for v in fig5_rev.column("S(b->m)", "gain") if v is not None]
        assert max(s_bm) <= 1e-12

    def test_reverse_cavity_steering_stays_small(self, fig5_rev):
        # Not exactly zero: in the weak-coupling region G/omega_b <= 0.25 of
        # this line, which is stable throughout, the thermal phonon
        # (det sigma_b >> det sigma_a ~ 1/4) weakly steers the near-vacuum
        # cavity, as on the loss line in either convention. From
        # G/omega_b ~ 0.1 the reversed noise pushes det sigma_b below 1/4 (an
        # unphysical state) and S(a->b) >> S(b->a).
        s_ba = [v for v in fig5_rev.column("S(b->a)", "gain") if v is not None]
        assert max(s_ba) < 0.05

    def test_loss_series_has_no_forward_steering(self, fig5_rev):
        for out in ("S(m->b)", "S(a->b)", "S(b->m)"):
            vals = [v for v in fig5_rev.column(out, "loss") if v is not None]
            assert max(vals) <= 1e-12


class TestVanishingTemperature:
    def test_gain_raises_the_boundary(self):
        base = default_params().replace(G_eff=0.25 * OMEGA_B)
        gain = vanishing_temperature(base, "am", 0.0, 0.35,
                                     gain_noise="reversed")
        loss = vanishing_temperature(base.replace(kappa_a=-base.kappa_a),
                                     "am", 0.0, 0.35, gain_noise="reversed")
        assert 0.160 < gain < 0.220
        assert 0.125 < loss < 0.170
        assert gain > loss


class TestPhysicalityTradeoff:
    def test_reversed_mode_breaks_the_uncertainty_bound(self):
        point = default_params().replace(G_eff=0.3 * OMEGA_B)
        rev = evaluate_point(point, ("physicality_margin", "E_N(bm)"),
                             gain_noise="reversed")
        vac = evaluate_point(point, ("physicality_margin", "E_N(bm)"),
                             gain_noise="vacuum")
        assert rev["physicality_margin"] < -1e-3
        assert vac["physicality_margin"] >= -1e-9
        assert rev["E_N(bm)"] > vac["E_N(bm)"]
