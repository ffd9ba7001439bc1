"""Accessible sets, the integral identity, and infinitesimal rigidity."""
import json
import tracemalloc

import numpy as np
import pytest

from engel_lab._kernels import _DCURVE_BLOCK, dcurve_rk4, transport_rk4
from engel_lab.errors import DimensionMismatch, NotNull, SingularIntegrand, StepTooLarge
from engel_lab.geometry_models import constant_curvature_surface, flat_surface
from engel_lab.rigidity_lab import (
    AccessRegion,
    _control_block,
    _cos_modes,
    access_regions,
    accessible_membership,
    boundary_cone_value,
    boundary_cone_values,
    bump_profile,
    inaba_identity_check,
    infinitesimal_rigidity_check,
    null_variation_check,
    random_admissible_controls,
    rigidity_probe,
    sample_d_curve,
    sample_d_curves_batch,
)

from conftest import rel_err, sequential_transport

ONES = lambda t: np.ones_like(np.atleast_1d(t), dtype=float)


def dcurve_rk4_scalar(u_half, v_half, starts, dt, long_chart):
    """Scalar reference for ``dcurve_rk4``: one curve and one coordinate at
    a time, the RK4 stages written out in full."""
    B = starts.shape[0]
    nsteps = (u_half.shape[1] - 1) // 2
    out = np.empty((B, nsteps + 1, 4))
    for b in range(B):
        x, y, z, w = starts[b, 0], starts[b, 1], starts[b, 2], starts[b, 3]
        out[b, 0, 0] = x
        out[b, 0, 1] = y
        out[b, 0, 2] = z
        out[b, 0, 3] = w
        for k in range(nsteps):
            u0 = u_half[b, 2 * k]
            um = u_half[b, 2 * k + 1]
            u1 = u_half[b, 2 * k + 2]
            v0 = v_half[b, 2 * k]
            vm = v_half[b, 2 * k + 1]
            v1 = v_half[b, 2 * k + 2]
            if long_chart == 0:
                k1x = u0
                k1y = z * u0
                k1z = w * u0
                k1w = v0
                z2 = z + 0.5 * dt * k1z
                w2 = w + 0.5 * dt * k1w
                k2x = um
                k2y = z2 * um
                k2z = w2 * um
                k2w = vm
                z3 = z + 0.5 * dt * k2z
                w3 = w + 0.5 * dt * k2w
                k3x = um
                k3y = z3 * um
                k3z = w3 * um
                k3w = vm
                z4 = z + dt * k3z
                w4 = w + dt * k3w
                k4x = u1
                k4y = z4 * u1
                k4z = w4 * u1
                k4w = v1
            else:
                c0 = np.cos(w)
                s0 = np.sin(w)
                k1x = u0 * c0
                k1y = u0 * z * c0
                k1z = u0 * s0
                k1w = v0
                z2 = z + 0.5 * dt * k1z
                t2 = w + 0.5 * dt * k1w
                c2 = np.cos(t2)
                s2 = np.sin(t2)
                k2x = um * c2
                k2y = um * z2 * c2
                k2z = um * s2
                k2w = vm
                z3 = z + 0.5 * dt * k2z
                t3 = w + 0.5 * dt * k2w
                c3 = np.cos(t3)
                s3 = np.sin(t3)
                k3x = um * c3
                k3y = um * z3 * c3
                k3z = um * s3
                k3w = vm
                z4 = z + dt * k3z
                t4 = w + dt * k3w
                c4 = np.cos(t4)
                s4 = np.sin(t4)
                k4x = u1 * c4
                k4y = u1 * z4 * c4
                k4z = u1 * s4
                k4w = v1
            x += dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
            y += dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
            z += dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
            w += dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
            out[b, k + 1, 0] = x
            out[b, k + 1, 1] = y
            out[b, k + 1, 2] = z
            out[b, k + 1, 3] = w
    return out
ZEROS = lambda t: np.zeros_like(np.atleast_1d(t), dtype=float)


class TestAccessibleSet:
    def test_membership_examples(self):
        assert accessible_membership([0, 1, 0, 1]) is AccessRegion.APlus
        assert accessible_membership([0, 0, 0, 0.7]) is AccessRegion.AW
        assert accessible_membership([0, 0, 0, -2.0]) is AccessRegion.AW
        # the x-coordinate is irrelevant for A+
        assert accessible_membership([5, 1, 0, 1]) is AccessRegion.APlus
        assert accessible_membership([0, -1, 0, -1]) is AccessRegion.AMinus
        assert accessible_membership([0, -1, 0, 1]) is AccessRegion.Outside

    def test_cone_values(self):
        assert boundary_cone_value([3.0, 0, 0, 0]) == 0.0
        assert boundary_cone_value([0.0, 1, 0, 1]) == -2.0

    def test_regions_of_a_batch(self, rng):
        # the array forms give each point what the one-point forms give it;
        # w = 0 and the boundary cone on either side of it are outside
        pts = np.concatenate([rng.normal(size=(200, 4)),
                              [[0, 1, 0, 0], [0, 0, 0, 0], [1e-13, 0, 0, 3],
                               [0, 0.5, 1, 1], [0, -0.5, 1, -1]]])
        regions = access_regions(pts)
        assert list(regions[-5:]) == ["outside", "AW", "AW", "outside", "outside"]
        assert list(regions) == [accessible_membership(p).value for p in pts]
        assert set(regions) == {"A+", "A-", "AW", "outside"}
        assert np.array_equal(boundary_cone_values(pts), [boundary_cone_value(p) for p in pts])

    def test_forward_curve_lands_inside_cone(self):
        c = sample_d_curve((lambda t: np.sin(np.atleast_1d(t)), ONES), 1.0, 1e-3)
        end = c.points[-1]
        assert boundary_cone_value(end) < 0
        assert end[3] > 0
        assert accessible_membership(end) is AccessRegion.APlus

    def test_cone_function_is_first_integral_of_X(self):
        # along u = 1, v = 0 curves (integral curves of the horizontal frame
        # field) the cone function z^2 - 2yw is exactly conserved
        start = (0.3, -0.2, 0.5, 0.7)
        c = sample_d_curve((ONES, ZEROS), 1.0, 1e-3, start=start)
        vals = np.array([boundary_cone_value(p) for p in c.points])
        assert np.abs(vals - vals[0]).max() < 1e-10


class TestDCurves:
    def test_w_curve(self):
        c = sample_d_curve((ZEROS, ONES), 1.0, 1e-3)
        want = np.zeros_like(c.points)
        want[:, 3] = c.times
        assert np.abs(c.points - want).max() < 1e-14

    def test_x_curve(self):
        # u = 1, v = 0 from the origin: y and z stay zero
        c = sample_d_curve((ONES, ZEROS), 1.0, 1e-3)
        assert np.abs(c.points[:, 0] - c.times).max() < 1e-12
        assert np.abs(c.points[:, 1:]).max() < 1e-14

    def test_tangency_structural(self, rng):
        for _ in range(5):
            u, v = random_admissible_controls(rng)
            c = sample_d_curve((u, v), 1.0, 1e-3)
            assert c.tangency_residual() < 1e-6

    def test_kernel_paths_agree(self, rng):
        # the blocked prefix-sum kernel against the scalar reference, from
        # random starts with a non-constant v; a B that is no multiple of the
        # block size ends in a partial block
        for B in (1, _DCURVE_BLOCK - 1, _DCURVE_BLOCK + 1, 1000):
            nsteps = 400 if B < 1000 else 30
            tg = np.linspace(0, 1, 2 * nsteps + 1)
            U = (tg * np.cos(rng.uniform(1, 4, size=(B, 1)) * tg)
                 + rng.normal(scale=0.1, size=(B, tg.size)))
            V = 1.0 + 0.5 * np.sin(rng.uniform(1, 4, size=(B, 1)) * tg)
            starts = rng.normal(size=(B, 4))
            a = dcurve_rk4(U, V, starts, 1.0 / nsteps)
            assert np.array_equal(a, dcurve_rk4_scalar(U, V, starts, 1.0 / nsteps, 0))
            # the long chart adds the same sums, but the reference calls
            # numpy's scalar sin/cos, which may differ by an ulp from the SIMD
            # path that arrays take on some CPUs
            a = dcurve_rk4(U, V, starts, 1.0 / nsteps, long_chart=True)
            assert np.abs(a - dcurve_rk4_scalar(U, V, starts, 1.0 / nsteps, 1)).max() < 1e-13
        # the prefix-product scan against the left-to-right product
        A = rng.normal(size=(2 * 50 + 1, 2, 2))
        M, _ = transport_rk4(A, 1e-2)
        want = sequential_transport(A, 1e-2)
        assert rel_err(M, want) < 1e-12


class TestInabaIdentity:
    def test_w_curve_residual_zero(self):
        c = sample_d_curve((ZEROS, ONES), 1.0, 1e-3)
        assert inaba_identity_check(c) < 1e-15

    def test_linear_control(self):
        c = sample_d_curve((lambda t: np.atleast_1d(t), ONES), 1.0, 1e-3)
        assert inaba_identity_check(c) < 1e-6

    def test_hundred_random_controls(self, rng):
        worst = 0.0
        for _ in range(100):
            u, v = random_admissible_controls(rng)
            c = sample_d_curve((u, v), 1.0, 1e-3)
            worst = max(worst, inaba_identity_check(c))
        assert worst < 1e-5

    def test_quadrature_refinement(self, rng):
        # the residual is quadrature-limited: refining dt shrinks it
        u, v = random_admissible_controls(rng)
        coarse = inaba_identity_check(sample_d_curve((u, v), 1.0, 1e-3))
        fine = inaba_identity_check(sample_d_curve((u, v), 1.0, 1e-5))
        assert fine <= coarse + 1e-12

    def test_constant_control_exact_value(self):
        # u = 1: y(1) = 1/6 splits as 1/8 + 1/24 across the identity
        c = sample_d_curve((ONES, ONES), 1.0, 1e-3)
        assert abs(c.points[-1, 1] - 1.0 / 6.0) < 1e-12
        assert inaba_identity_check(c) < 1e-7

    def test_singular_data_rejected(self):
        # z/w fails to vanish as t -> 0+: the quadrature must refuse
        from engel_lab.rigidity_lab import DCurve
        t = np.linspace(0, 1, 1001)
        pts = np.zeros((1001, 4))
        pts[:, 3] = t
        pts[1:, 2] = 0.05
        c = DCurve(times=t, points=pts)
        with pytest.raises(SingularIntegrand):
            inaba_identity_check(c)

    def test_cli_batch_matches_single_curves(self, tmp_path):
        # the CLI reads its 100 identity curves from the probe, which
        # integrates them in blocks; each must equal the curve integrated
        # on its own from the same seed
        from engel_lab.cli import main
        assert main(["rigidity", "--trials", "60", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "rigidity.json").read_text())
        rng = np.random.default_rng(3)
        worst = max(inaba_identity_check(sample_d_curve(random_admissible_controls(rng),
                                                        1.0, 1e-3))
                    for _ in range(100))
        assert doc["inaba_n_curves"] == 100
        assert abs(doc["inaba_max_residual"] - worst) == 0.0

    def test_wrong_parameterization_rejected(self):
        c = sample_d_curve((ZEROS, lambda t: 2 * ONES(t)), 1.0, 1e-3)
        with pytest.raises(SingularIntegrand):
            inaba_identity_check(c)


class TestRigidityProbe:
    def test_control_table_rows_equal_closures(self):
        # one block row per closure, from the same draws and bit for bit
        tgrid = np.linspace(0.0, 1.0, 2001)
        U = _control_block(np.random.default_rng(4), 70, tgrid, _cos_modes(tgrid))
        rng = np.random.default_rng(4)
        controls = [random_admissible_controls(rng)[0] for _ in range(70)]
        assert np.array_equal(U, [u(tgrid) for u in controls])
        # off the grid each closure is the sum of its modes, added in order
        rng = np.random.default_rng(4)
        t = np.random.default_rng(5).uniform(-0.5, 3.0, 257)
        for u in controls:
            coeffs, freqs = rng.uniform(-1, 1, size=3), rng.integers(1, 4, size=3)
            want = np.zeros_like(t)
            for a, f in zip(coeffs, freqs):
                want += a * t * np.cos(np.pi * f * t)
            assert np.array_equal(u(t), want)
            assert np.array_equal(u(t[7]), want[7:8])

    def test_memory_flat_in_trials(self):
        # the curves go through in blocks and only their endpoints are kept,
        # so ten times the trials stay within 1.5 times the peak (a probe
        # that holds every curve at once grows about tenfold)
        def peak(n):
            tracemalloc.start()
            try:
                rigidity_probe(T=1.0, n_trials=n, dt=1e-3, seed=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) <= 1.5 * peak(200)

    @pytest.mark.parametrize("trials, curves", [(1000, 1008), (60, 108)])
    def test_cli_integrates_each_curve_once(self, tmp_path, monkeypatch, trials, curves):
        # the trials (at least the 100 integral-identity curves) and the 8
        # sweep curves: the identity reads the probe's paths, it does not
        # draw and integrate its curves again
        from engel_lab import rigidity_lab
        from engel_lab.cli import main
        rows = []

        def counting(u_half, v_half, starts, dt, long_chart=False):
            rows.append(len(starts))
            return dcurve_rk4(u_half, v_half, starts, dt, long_chart=long_chart)

        monkeypatch.setattr(rigidity_lab, "dcurve_rk4", counting)
        assert main(["rigidity", "--trials", str(trials), "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        assert sum(rows) == curves

    def test_no_trials_raises(self):
        with pytest.raises(ValueError, match="n_trials must be >= 1, got 0"):
            rigidity_probe(n_trials=0)

    def test_thousand_trials_stay_accessible(self):
        probe = rigidity_probe(T=1.0, n_trials=1000, dt=1e-3, seed=7)
        assert probe["n_outside_accessible"] == 0
        assert probe["max_cone_value"] < 0.0

    def test_quadratic_structure_of_sweep(self):
        probe = rigidity_probe(T=1.0, n_trials=4, dt=1e-3, seed=1)
        y2 = np.array(probe["y_over_eps2"])
        z1 = np.array(probe["z_over_eps"])
        # y(T)/eps^2 and sup|z|/eps converge to finite nonzero limits
        assert abs(y2[-1] - y2[-2]) < 0.05 * abs(y2[-1])
        assert abs(z1[-1] - z1[-2]) < 0.05 * abs(z1[-1])
        assert y2[-1] > 1e-3 and z1[-1] > 1e-3
        # |y(T)| and sup|z| decrease monotonically to zero with eps
        ys = [s["abs_yT"] for s in probe["sweep"]]
        zs = [s["sup_z"] for s in probe["sweep"]]
        assert all(a > b for a, b in zip(ys, ys[1:]))
        assert all(a > b for a, b in zip(zs, zs[1:]))
        # cone value stays strictly negative along the sweep and only
        # approaches the boundary in the u -> 0 limit
        cones = [s["cone_value"] for s in probe["sweep"]]
        assert all(c < 0 for c in cones)
        assert all(a < b for a, b in zip(cones, cones[1:]))

    def test_sweep_matches_single_curves(self):
        # the sweep is integrated as one batch; each entry must equal the
        # curve integrated on its own
        probe = rigidity_probe(T=1.0, n_trials=4, dt=1e-3, seed=1)
        for entry in probe["sweep"]:
            eps = entry["eps"]
            c = sample_d_curve((lambda t: eps * np.sin(np.pi * np.atleast_1d(t)), ONES),
                               1.0, 1e-3)
            assert abs(entry["abs_yT"] - abs(c.points[-1, 1])) == 0.0
            assert abs(entry["sup_z"] - np.abs(c.points[:, 2]).max()) == 0.0
            assert abs(entry["cone_value"] - boundary_cone_value(c.points[-1])) == 0.0

    def test_table_width_must_match_the_step(self):
        # 2001 columns are the half-step grid of dt = 1e-3, not of dt = 0.25
        U = np.zeros((2, 2001))
        assert sample_d_curves_batch(U, np.ones_like(U), 1.0, 1e-3).shape == (2, 1001, 4)
        with pytest.raises(DimensionMismatch, match="need 9"):
            sample_d_curves_batch(U, np.ones_like(U), 1.0, 0.25)
        with pytest.raises(DimensionMismatch):
            sample_d_curves_batch(U, np.ones((2, 2003)), 1.0, 1e-3)
        for T, dt in [(0.0, 1e-3), (-1.0, 1e-3), (1.0, 0.0), (1.0, -1e-3), (1.0, 2.0)]:
            with pytest.raises(StepTooLarge):
                sample_d_curves_batch(U, np.ones_like(U), T, dt)
            with pytest.raises(StepTooLarge):
                sample_d_curve((ZEROS, ONES), T, dt)

    def test_zero_control_is_w_curve(self):
        c = sample_d_curve((ZEROS, ONES), 1.0, 1e-3)
        assert abs(c.points[-1, 1]) == 0.0


class TestInfinitesimalRigidity:
    def test_w_curves_are_iwr_up_to_three_half_pi(self):
        # first-order y-escape vanishes regardless of the projective length
        for length in (np.pi / 2, np.pi, 1.5 * np.pi):
            out = infinitesimal_rigidity_check("w_curve", length=length)
            assert out["max_dy_ds"] <= 1e-6 * out["norm"]

    def test_transverse_curves_are_lsf(self):
        out = infinitesimal_rigidity_check("transverse")
        assert out["max_dy_ds"] >= 0.1 * out["norm"]
        # the witness derivative is exactly f
        f, _, _ = bump_profile(1.0)
        assert abs(out["max_dy_ds"] - np.abs(f(np.linspace(-1, 1, 2001))).max()) < 1e-9

    def test_zero_perturbation(self):
        out = infinitesimal_rigidity_check("w_curve", perturbation=lambda t: 0.0 * np.atleast_1d(t))
        assert out["max_dy_ds"] == 0.0

    def test_invariant_under_projective_reparameterization(self):
        # same conclusion in the w = tan(theta) chart for a short curve
        out_long = infinitesimal_rigidity_check("w_curve", length=1.2)
        assert out_long["max_dy_ds"] <= 1e-6 * out_long["norm"]

        # standard chart: controls (s g, 1) with w = t
        g = lambda t: np.sin(2 * np.atleast_1d(t))
        ds = 1e-4

        def y_of(s):
            c = sample_d_curve((lambda t: s * g(t), ONES), 1.2, 1e-3)
            return c.points[:, 1]

        d1 = (y_of(ds) - y_of(-ds)) / (2 * ds)
        d2 = (y_of(ds / 2) - y_of(-ds / 2)) / ds
        deriv = np.abs((4 * d2 - d1) / 3.0).max()
        assert deriv <= 1e-6


class TestNullVariation:
    def test_flat_chart(self):
        out = null_variation_check(flat_surface(), p0=(0.0, 0.0, 0.4), T=3.0)
        assert out["residual_max"] < 1e-6

    def test_sphere_chart(self):
        out = null_variation_check(constant_curvature_surface(1.0),
                                   p0=(0.0, 0.0, 0.3), T=2.0)
        assert out["residual_max"] < 1e-4

    def test_disk_chart(self):
        out = null_variation_check(constant_curvature_surface(-1.0),
                                   p0=(0.0, 0.0, np.pi / 2), T=2.0)
        assert out["residual_max"] < 1e-4

    def test_s_independent_family_gives_zero(self):
        out = null_variation_check(flat_surface(), p0=(0.0, 0.0, 0.4), T=2.0,
                                   eta=lambda t: np.zeros((np.atleast_1d(t).size, 2)))
        assert out["residual_max"] < 1e-14

    def test_moving_start_rejected(self):
        with pytest.raises(NotNull):
            null_variation_check(flat_surface(), T=1.0,
                                 eta=lambda t: np.ones((np.atleast_1d(t).size, 2)))
