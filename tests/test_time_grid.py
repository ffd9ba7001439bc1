"""The one step rule of every integrator (``frame_algebra._time_grid``) and the
checks every integrating entry point inherits from it."""
import numpy as np
import pytest

from engel_lab import rigidity_lab as rig
from engel_lab.characteristic_dynamics import (
    closed_orbit_holonomy,
    estimate_global_type,
    integrate_characteristic,
    integrate_orbits,
    orbits_within_chart,
    two_sided_orbit,
)
from engel_lab.cli import main
from engel_lab.engel_verify import darboux_standard
from engel_lab.errors import ChartExit, StepTooLarge
from engel_lab.frame_algebra import _time_grid

ZEROS = lambda t: np.zeros_like(np.atleast_1d(t), dtype=float)


class TestStepRule:
    @pytest.mark.parametrize("T, dt, n", [
        (1.0, 1e-3, 1000), (-2.5, 1e-2, 250), (5.0, 0.3, 17), (0.4, 1.0, 1), (0.0, 1e-3, 1)])
    def test_step_count_and_half_step_grid(self, T, dt, n):
        nsteps, grid = _time_grid(T, dt)
        assert nsteps == n == max(1, round(abs(T) / dt))
        assert np.array_equal(grid, np.linspace(0.0, T, 2 * n + 1))

    def test_even_entries_are_the_step_grid_bit_for_bit(self, rng):
        for T in [*rng.uniform(-30.0, 30.0, 40), 1.0, -1.0, 20.0, 4.71238898038469]:
            for n in (1, 2, 3, 7, 1000, int(rng.integers(1, 20000))):
                grid = _time_grid(T, abs(T) / n)[1]
                assert len(grid) == 2 * n + 1
                assert np.array_equal(grid[::2], np.linspace(0.0, T, n + 1))


# every integrating entry point, as a function of (T, dt)
def _entry_points(preset_cache, monkeypatch):
    chart = darboux_standard()
    lie = preset_cache("lorentz-magnetic-lie", kappa=-0.5)["structure"]
    cartan = preset_cache("cartan-r3")["structure"]
    p0 = np.zeros(4)

    def w_curve_variation(T, dt):
        monkeypatch.setattr(rig, "_DT", dt)     # the variation's curve step
        return rig.infinitesimal_rigidity_check("w_curve", length=T)

    return {
        "integrate_characteristic": lambda T, dt: integrate_characteristic(chart, p0, T, dt),
        "integrate_orbits": lambda T, dt: integrate_orbits(chart, p0, T, dt),
        "chart flow": lambda T, dt: chart.model.flow(chart.W_section, p0, T, dt),
        "lie flow": lambda T, dt: lie.model.flow(lie.W_section, p0, T, dt),
        "two_sided_orbit": lambda T, dt: two_sided_orbit(chart, p0, T, dt),
        "estimate_global_type": lambda T, dt: estimate_global_type(lie, 1, T, dt),
        "closed_orbit_holonomy": lambda T, dt: closed_orbit_holonomy(
            cartan, np.array([0.2, -0.1, 0.3, 0.0]), dt, T),
        "sample_d_curve": lambda T, dt: rig.sample_d_curve((ZEROS, ZEROS), T, dt),
        "sample_d_curves_batch": lambda T, dt: rig.sample_d_curves_batch(
            np.zeros((1, 3)), np.zeros((1, 3)), T, dt),
        "rigidity_probe": lambda T, dt: rig.rigidity_probe(T=T, n_trials=1, dt=dt),
        "infinitesimal_rigidity_check": w_curve_variation,
    }


ENTRY_POINTS = ("integrate_characteristic", "integrate_orbits", "chart flow", "lie flow",
                "two_sided_orbit", "estimate_global_type", "closed_orbit_holonomy",
                "sample_d_curve", "sample_d_curves_batch", "rigidity_probe",
                "infinitesimal_rigidity_check")
BAD_GRIDS = ([(1.0, dt) for dt in (0.0, -1e-3, np.nan, np.inf)]
             + [(T, 1e-2) for T in (np.nan, np.inf, -np.inf)])


@pytest.mark.parametrize("T, dt", BAD_GRIDS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_horizon_or_step_raises_everywhere(preset_cache, monkeypatch, entry, T, dt):
    with pytest.raises(StepTooLarge, match="need a finite T and a finite dt > 0"):
        _entry_points(preset_cache, monkeypatch)[entry](T, dt)


def test_infinite_step_gives_no_verdict(preset_cache):
    # one Magnus step of length T_max once read as a definite hyperbolic
    s = preset_cache("lorentz-magnetic-lie", kappa=-0.5)["structure"]
    with pytest.raises(StepTooLarge):
        estimate_global_type(s, n_orbits=1, T_max=20.0, dt=np.inf)


class TestStartOutsideTheChart:
    def test_raises_at_t0_before_the_first_step(self):
        s = darboux_standard()
        starts = np.array([[0.0, 0.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ChartExit, match=r"start \[5\. 0\. 0\. 0\.\] lies outside the "
                                            "chart box") as e:
            orbits_within_chart(s, starts, 1.0, 1e-2)
        assert e.value.t_exit == 0.0

    def test_periodic_coordinates_stay_unbounded(self, preset_cache):
        # the angle of the Cartan prolongation is periodic: a start past its
        # period is inside the chart
        s = preset_cache("cartan-r3")["structure"]
        _, _, kept = integrate_orbits(s, np.array([0.2, -0.1, 0.3, 20.0]), 0.5, 1e-2)
        assert kept[0] == 50

    def test_cli_names_the_start(self, tmp_path, capsys):
        assert main(["orbit", "--preset", "darboux", "--p0", "5,0,0,0",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: start [5. 0. 0. 0.] lies outside the chart box\n")
