"""Surfaces, unit tangent bundles, and Lorentzian extensions."""
import numpy as np
import pytest

from engel_lab.errors import ConfigError
from engel_lab.frame_algebra import bracket_chart, fd_jacobian
from engel_lab.geometry_models import (
    ConstantCurvatureUT,
    bump_surface,
    constant_curvature_surface,
    flat_surface,
    gauss_curvature,
    magnetic_extension,
    product_extension,
    surface_from_config,
    table_surface,
    unit_tangent_frames,
)

from conftest import frame_fields


class TestGaussCurvature:
    def test_flat_is_zero(self, rng):
        s = flat_surface()
        pts = rng.uniform(-1, 1, (20, 2))
        assert np.abs(gauss_curvature(s, pts)).max() < 1e-12

    def test_round_sphere_factor(self, rng):
        # lambda = 4 / (1 + r^2)^2 has curvature exactly 1
        s = constant_curvature_surface(1.0)
        pts = rng.uniform(-0.6, 0.6, (30, 2))
        assert np.abs(gauss_curvature(s, pts) - 1.0).max() < 1e-6

    def test_poincare_disk_factor(self, rng):
        s = constant_curvature_surface(-1.0)
        pts = rng.uniform(-0.5, 0.5, (30, 2))
        assert np.abs(gauss_curvature(s, pts) + 1.0).max() < 1e-6

    @pytest.mark.parametrize("kappa", [-1.0, -0.5, 0.5, 1.0, 2.0])
    def test_one_pass_curvature_is_the_generic_formula(self, kappa, rng):
        # the declared kappa, which the chart extensions use as is, is the
        # curvature of lambda by the generic formula, to rounding
        s = constant_curvature_surface(kappa)
        assert s.kappa == kappa
        pts = rng.uniform(s.box[:, 0], s.box[:, 1], (200, 2))
        assert np.abs(gauss_curvature(s, pts) - kappa).max() <= 1e-14

    @pytest.mark.parametrize("cfg", [
        {"catalog": "flat"}, {"catalog": "sphere"}, {"catalog": "disk"},
        {"catalog": "constant", "params": {"kappa": -0.5}}, {"catalog": "bump"}, "table",
    ], ids=["flat", "sphere", "disk", "constant", "bump", "table"])
    def test_analytic_log_derivatives_match_differences(self, cfg, rng):
        # dlog and d2log against central differences of log(lambda)
        if cfg == "table":
            xs, ys = np.linspace(-0.8, 0.8, 40), np.linspace(-0.7, 0.9, 30)
            s = table_surface(xs, ys, np.exp(0.3 * np.sin(np.add.outer(xs, 2 * ys))))
        else:
            s = surface_from_config(cfg)
        pts = rng.uniform(-0.5, 0.5, (15, 2))
        h = 1e-4
        log_lam = lambda q: np.log(s.lam_at(q))
        assert np.abs(s.dlog_at(pts) - fd_jacobian(log_lam, pts, h)).max() < 1e-6
        hess = fd_jacobian(lambda q: fd_jacobian(log_lam, q, h), pts, h)
        want = np.stack([hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]], axis=-1)
        assert np.abs(s.d2log_at(pts) - want).max() < 1e-5

    def test_translation_invariance_for_flat(self):
        s = flat_surface()
        assert gauss_curvature(s, np.array([0.0, 0.0])) == gauss_curvature(
            s, np.array([0.5, -0.4]))


class TestUnitTangentFrames:
    def test_flat_fields_are_the_planar_frame(self):
        ut = unit_tangent_frames(flat_surface())
        X, Y, Z = frame_fields(ut.model)
        p = np.array([0.3, -0.2, 0.7])
        c, s = np.cos(0.7), np.sin(0.7)
        assert np.allclose(X(p), [c, s, 0])
        assert np.allclose(Y(p), [-s, c, 0])
        assert np.allclose(Z(p), [0, 0, 1])
        assert np.abs(bracket_chart(ut.model.frame, [(0, 1)], p)).max() < 1e-9

    @pytest.mark.parametrize("kappa", [1.0, -1.0, -0.5, 0.5, -2.0])
    def test_commutation_relations(self, kappa, rng):
        ut = unit_tangent_frames(constant_curvature_surface(kappa))
        X, Y, Z = frame_fields(ut.model)
        half = 0.8 * float(ut.model.box[0, 1])
        for _ in range(4):
            p = rng.uniform([-half, -half, 0], [half, half, 2 * np.pi])
            ZX, ZY, XY = bracket_chart(ut.model.frame, [(2, 0), (2, 1), (0, 1)], p)
            assert np.abs(ZX - Y(p)).max() < 1e-6
            assert np.abs(ZY + X(p)).max() < 1e-6
            assert np.abs(XY - kappa * Z(p)).max() < 1e-5

    @pytest.mark.parametrize("cfg", [
        {"catalog": "flat"}, {"catalog": "sphere"}, {"catalog": "disk"},
        {"catalog": "constant", "params": {"kappa": -0.5}}, {"catalog": "bump"}, "table",
    ], ids=["flat", "sphere", "disk", "constant", "bump", "table"])
    def test_one_point_matches_its_batch_row(self, cfg, rng):
        # a single point is evaluated on floats and a batch on arrays; the
        # unit tangent and magnetic frames agree to the bit
        if cfg == "table":
            xs, ys = np.linspace(-0.8, 0.8, 40), np.linspace(-0.7, 0.9, 30)
            s = table_surface(xs, ys, np.exp(0.3 * np.sin(np.add.outer(xs, 2 * ys))))
        else:
            s = surface_from_config(cfg)
        ut = unit_tangent_frames(s)
        pts = rng.uniform([-0.5, -0.5, 0, 0], [0.5, 0.5, 2 * np.pi, 2 * np.pi], (200, 4))
        for model, P in ((ut.model, pts[:, :3]), (magnetic_extension(ut).model, pts)):
            one = np.stack([model.frame(p[None])[0] for p in P])
            assert np.array_equal(one, model.frame(P))

    def test_variable_curvature_bracket(self, rng):
        surf = bump_surface()
        ut = unit_tangent_frames(surf)
        X, Y, Z = frame_fields(ut.model)
        for _ in range(4):
            p = rng.uniform([-0.5, -0.5, 0], [0.5, 0.5, 2 * np.pi])
            k = gauss_curvature(surf, p[:2])
            XY = bracket_chart(ut.model.frame, [(0, 1)], p)[0]
            assert np.abs(XY - k * Z(p)).max() < 1e-5


class TestLiePresets:
    def test_constant_curvature_against_psl2(self):
        # kappa = -1 relations coincide with actual psl(2, R) commutators
        # under X ~ h, Y ~ l, Z ~ k
        h = 0.5 * np.array([[1.0, 0], [0, -1]])
        l = 0.5 * np.array([[0, 1.0], [1, 0]])
        k = 0.5 * np.array([[0, -1.0], [1, 0]])
        basis = [h, l, k]
        lie = ConstantCurvatureUT(-1.0).lie

        def comm(a, b):
            return a @ b - b @ a

        for i in range(3):
            for j in range(3):
                want = sum(lie.c[m, i, j] * basis[m] for m in range(3))
                assert np.allclose(comm(basis[i], basis[j]), want, atol=1e-14)

    def test_curvature_parameter_round_trip(self):
        ext = magnetic_extension(ConstantCurvatureUT(0.7))
        assert ext.kappa == 0.7


class TestExtensions:
    def test_theta_commutes_in_product(self, rng):
        ext = product_extension(unit_tangent_frames(constant_curvature_surface(-1.0)))
        for i in range(3):
            p = rng.uniform([-0.4, -0.4, 0, 0], [0.4, 0.4, 6.2, 6.2])
            assert np.abs(bracket_chart(ext.model.frame, [(3, i)], p)).max() < 1e-9

    def test_signatures(self):
        for builder in (product_extension, magnetic_extension):
            ext = builder(unit_tangent_frames(constant_curvature_surface(0.5)))
            assert ext.check_signature()
            ev = np.linalg.eigvalsh(ext.v_metric)
            assert (ev > 0).sum() == 2 and (ev < 0).sum() == 1

    def test_flat_product_equals_flat_magnetic(self, rng):
        # kappa = 0: both constructions give the flat (2,1) metric tensor
        # dx^2 + dy^2 - dphi^2 on T^3, in orthonormal frames of that tensor
        ut = unit_tangent_frames(flat_surface())
        prod = product_extension(ut)
        mag = magnetic_extension(ut)
        X3, Y3, Z3 = frame_fields(ut.model)
        eta = np.diag([1.0, 1.0, -1.0])
        for _ in range(5):
            p = rng.uniform([-1, -1, 0], [1, 1, 6.2])
            F = np.stack([X3(p), Y3(p), Z3(p)], axis=1)
            # metric tensor reconstructed from frame + coefficients
            g = np.linalg.inv(F).T @ mag.v_metric @ np.linalg.inv(F)
            assert np.allclose(g, eta, atol=1e-12)
        assert np.array_equal(prod.v_metric, mag.v_metric)

    def test_m_metric_diagonals(self):
        ut = ConstantCurvatureUT(0.0)
        assert np.array_equal(product_extension(ut).m_metric_diag, [1, 1, 0, -1])
        assert np.array_equal(magnetic_extension(ut).m_metric_diag, [1, 1, -1, 0])

    def test_characteristic_is_null(self, preset_cache):
        # <W, W> = 0 in the pullback metric for the magnetic extension
        built = preset_cache("lorentz-magnetic", kappa=-0.5)
        ext = built["extension"]
        k = -0.5
        w = np.array([1.0, 0.0, 1.0, -(1 + k)])
        assert abs(ext.pullback_inner(w, w)) < 1e-12


class TestSurfaceConfig:
    def test_catalog_entry(self):
        s = surface_from_config({"catalog": "constant", "params": {"kappa": -0.5}})
        assert abs(gauss_curvature(s, np.array([0.1, 0.2])) + 0.5) < 1e-8

    def test_table_surface_reproduces_curvature(self):
        xs = np.linspace(-0.8, 0.8, 60)
        ys = np.linspace(-0.8, 0.8, 60)
        ref = constant_curvature_surface(1.0, half=0.8)
        grid = np.array([[ref.lam_at(np.array([[x, y]]))[0] for y in ys] for x in xs])
        s = table_surface(xs, ys, grid)
        pts = np.array([[0.1, -0.2], [0.3, 0.25], [-0.4, 0.1]])
        assert np.abs(gauss_curvature(s, pts) - 1.0).max() < 1e-4

    def test_unknown_catalog_raises(self):
        with pytest.raises(ConfigError):
            surface_from_config({"catalog": "klein-bottle"})
