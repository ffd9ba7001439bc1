"""Surfaces, unit tangent bundles, and Lorentzian extensions."""
import dataclasses

import numpy as np
import pytest

from engel_lab.cli import KAPPA_SWEEP
from engel_lab.errors import NonFiniteEvaluation
from engel_lab.frame_algebra import bracket_chart, complex_step, sample_box
from engel_lab.geometry_models import (
    ConstantCurvatureUT,
    bump_surface,
    constant_curvature_surface,
    flat_surface,
    magnetic_extension,
    product_extension,
    unit_tangent_frames,
)

from conftest import fd_jacobian, frame_fields


SURFACES = {
    "flat": flat_surface,
    "sphere": lambda: constant_curvature_surface(1.0),
    "disk": lambda: constant_curvature_surface(-1.0),
    "constant": lambda: constant_curvature_surface(-0.5),
    "bump": bump_surface,
}


def kappa_of(s, x, y):
    """The surface's kappa at coordinate columns: its number on a
    constant-curvature surface, else its checked reader."""
    return s.kappa_at(x, y) if callable(s.kappa) else s.kappa


def laplacian_kappa(s, pts):
    """-Laplace(log lambda) / (2 lambda) at points (n, 2), the Laplacian taken
    by the complex step of the analytic log-gradient."""
    dlog = lambda z: np.stack(s.lam_dlog(*z.T)[1:])         # (2, n)
    lap = sum(d[j] for j, (_, d) in enumerate(complex_step(dlog, pts)))
    return -lap / (2.0 * s.lam_dlog_at(*pts.T)[0])


class TestConformalFactor:
    def test_nan_is_refused_at_a_float_point_and_at_a_batch(self):
        disk = constant_curvature_surface(-1.0)
        for x in (np.nan, np.array([0.0, np.nan])):
            with pytest.raises(NonFiniteEvaluation, match="finite and positive"):
                disk.lam_dlog_at(x, 0.0 * x)


class TestGaussCurvature:
    def test_flat_is_zero(self, rng):
        s = flat_surface()
        pts = rng.uniform(-1, 1, (20, 2))
        assert s.kappa == 0.0
        assert np.abs(laplacian_kappa(s, pts)).max() < 1e-12

    def test_round_sphere_factor(self, rng):
        # lambda = 4 / (1 + r^2)^2 has curvature exactly 1
        s = constant_curvature_surface(1.0)
        pts = rng.uniform(-0.6, 0.6, (30, 2))
        assert s.kappa == 1.0
        assert np.abs(laplacian_kappa(s, pts) - 1.0).max() < 1e-6

    def test_poincare_disk_factor(self, rng):
        s = constant_curvature_surface(-1.0)
        pts = rng.uniform(-0.5, 0.5, (30, 2))
        assert s.kappa == -1.0
        assert np.abs(laplacian_kappa(s, pts) + 1.0).max() < 1e-6

    @pytest.mark.parametrize("surface", SURFACES)
    def test_kappa_is_the_structure_equation(self, surface):
        # the declared kappa is the curvature of the unit tangent frame,
        # [X, Y] = kappa Z by complex-step brackets, across the whole box
        s = SURFACES[surface]()
        ut = unit_tangent_frames(s)
        pts = sample_box(ut.model, 500)
        XY = bracket_chart(ut.model.frame, [(0, 1)], pts)[:, 0]
        kappa = np.broadcast_to(kappa_of(s, *pts[:, :2].T), len(pts))
        Z = ut.model.frame(pts)[:, 2]
        err = np.abs(XY - kappa[:, None] * Z).max(axis=1)
        assert (err <= 1e-13 * np.maximum(1.0, np.abs(kappa))).all()

    @pytest.mark.parametrize("surface", SURFACES)
    def test_analytic_log_derivatives_match_differences(self, surface, rng):
        # dlog, and kappa = -Laplace(log lambda) / (2 lambda), against
        # central differences of log(lambda)
        s = SURFACES[surface]()
        pts = rng.uniform(-0.5, 0.5, (15, 2))
        h = 1e-4
        log_lam = lambda q: np.log(s.lam_dlog_at(*q.T)[0])
        lam, *dlog = s.lam_dlog_at(*pts.T)
        assert np.abs(np.stack(dlog, axis=-1) - fd_jacobian(log_lam, pts, h)).max() < 1e-6
        hess = fd_jacobian(lambda q: fd_jacobian(log_lam, q, h), pts, h)
        want = -(hess[:, 0, 0] + hess[:, 1, 1]) / (2.0 * lam)
        assert np.abs(kappa_of(s, *pts.T) - want).max() < 1e-5

    @pytest.mark.parametrize("surface", SURFACES)
    def test_surface_one_point_matches_its_batch_row(self, surface, rng):
        # surface functions take coordinate columns: floats at one point,
        # (n,) at a batch; a row of the batch equals its point to the bit
        s = SURFACES[surface]()
        pts = rng.uniform(-0.5, 0.5, (32, 2))
        batch = (*s.lam_dlog_at(*pts.T), np.broadcast_to(kappa_of(s, *pts.T), len(pts)))
        for i, (x, y) in enumerate(pts.tolist()):
            one = (*s.lam_dlog_at(x, y), kappa_of(s, x, y))
            assert isinstance(one[-1], float)
            row = np.array([b[i] for b in batch])
            assert row.tobytes() == np.array(one, dtype=float).tobytes()

    @pytest.mark.parametrize("surface", SURFACES)
    def test_surface_hands_floats_at_one_point(self, surface, rng):
        # every surface takes a frame's float path at one real point, and at
        # a batch hands columns of the points' dtype, complex ones included
        s = SURFACES[surface]()
        x, y = rng.uniform(-0.5, 0.5, 2).tolist()
        assert all(isinstance(v, float) for v in s.lam_dlog(x, y)), s.lam_dlog(x, y)
        assert isinstance(kappa_of(s, x, y), float)
        for cols in (rng.uniform(-0.5, 0.5, (2, 3)), rng.uniform(-0.5, 0.5, (2, 3)) + 1e-30j):
            got = s.lam_dlog(*cols)
            assert all(v.shape == (3,) and v.dtype == cols.dtype for v in got)

    def test_nonfinite_kappa_is_refused(self):
        # a variable kappa is read through its check, at one point and at a batch
        s = dataclasses.replace(bump_surface(), kappa=lambda x, y: x * np.inf)
        for x in (0.0, 0.5, np.zeros(3), np.full(3, 0.5)):
            with pytest.raises(NonFiniteEvaluation), np.errstate(invalid="ignore"):
                s.kappa_at(x, x)


class TestUnitTangentFrames:
    def test_flat_fields_are_the_planar_frame(self):
        ut = unit_tangent_frames(flat_surface())
        X, Y, Z = frame_fields(ut.model)
        p = np.array([0.3, -0.2, 0.7])
        c, s = np.cos(0.7), np.sin(0.7)
        assert np.allclose(X(p[None])[0], [c, s, 0])
        assert np.allclose(Y(p[None])[0], [-s, c, 0])
        assert np.allclose(Z(p[None])[0], [0, 0, 1])
        assert np.abs(bracket_chart(ut.model.frame, [(0, 1)], p)).max() < 1e-9

    @pytest.mark.parametrize("kappa", [1.0, -1.0, -0.5, 0.5, -2.0])
    def test_commutation_relations(self, kappa, rng):
        ut = unit_tangent_frames(constant_curvature_surface(kappa))
        X, Y, Z = frame_fields(ut.model)
        half = 0.8 * float(ut.model.box[0, 1])
        for _ in range(4):
            p = rng.uniform([-half, -half, 0], [half, half, 2 * np.pi])
            ZX, ZY, XY = bracket_chart(ut.model.frame, [(2, 0), (2, 1), (0, 1)], p)
            assert np.abs(ZX - Y(p[None])[0]).max() < 1e-6
            assert np.abs(ZY + X(p[None])[0]).max() < 1e-6
            assert np.abs(XY - kappa * Z(p[None])[0]).max() < 1e-5

    @pytest.mark.parametrize("surface", SURFACES)
    def test_one_point_matches_its_batch_row(self, surface, rng):
        # a single point is evaluated on floats and a batch on arrays; the
        # unit tangent and magnetic frames agree to the bit
        s = SURFACES[surface]()
        ut = unit_tangent_frames(s)
        pts = rng.uniform([-0.5, -0.5, 0, 0], [0.5, 0.5, 2 * np.pi, 2 * np.pi], (200, 4))
        for model, P in ((ut.model, pts[:, :3]), (magnetic_extension(ut).model, pts)):
            one = np.stack([model.frame(p[None])[0] for p in P])
            assert np.array_equal(one, model.frame(P))


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

    def test_flat_product_equals_flat_magnetic(self, rng):
        # kappa = 0: both constructions give the flat (2,1) metric tensor
        # dx^2 + dy^2 - dphi^2 on T^3, in orthonormal frames of that tensor:
        # the V-frame metric diag(1, 1, -1) read in chart coordinates is eta
        ut = unit_tangent_frames(flat_surface())
        X3, Y3, Z3 = frame_fields(ut.model)
        eta = np.diag([1.0, 1.0, -1.0])
        for _ in range(5):
            p = rng.uniform([-1, -1, 0], [1, 1, 6.2])
            F = np.stack([X3(p[None])[0], Y3(p[None])[0], Z3(p[None])[0]], axis=1)
            # metric tensor reconstructed from frame + coefficients
            g = np.linalg.inv(F).T @ eta @ np.linalg.inv(F)
            assert np.allclose(g, eta, atol=1e-12)

    def test_m_metric_diagonals(self):
        ut = ConstantCurvatureUT(0.0)
        assert np.array_equal(product_extension(ut).m_metric_diag, [1, 1, 0, -1])
        assert np.array_equal(magnetic_extension(ut).m_metric_diag, [1, 1, -1, 0])

    @pytest.mark.parametrize("kappa", KAPPA_SWEEP)
    @pytest.mark.parametrize("name", ["lorentz-product", "lorentz-product-lie",
                                      "lorentz-magnetic", "lorentz-magnetic-lie"])
    def test_characteristic_is_null(self, preset_cache, name, kappa):
        # <W, W> = 0 in the pullback metric of the structure's own extension
        built = preset_cache(name, kappa=kappa)
        w = np.asarray(built["structure"].W_section.constant_coeffs(), dtype=float)
        assert abs(w @ (built["extension"].m_metric_diag * w)) < 1e-12


MAGNETIC = [("lorentz-magnetic", {"kappa": k}) for k in (-1.0, -0.5, 0.5, 1.0)] + [
    ("magnetic-bump", {})]


class TestMagneticFrame:
    """The magnetic rows are the horizontal rows at phi + theta, which by the
    angle-sum formulas is the rotate of X(phi), Y(phi) by theta."""

    @staticmethod
    def _at(preset_cache, name, settings, n):
        ext = preset_cache(name, **settings)["extension"]
        return ext, sample_box(ext.model, 64)[:n]

    @pytest.mark.parametrize("n", [64, 1])
    @pytest.mark.parametrize("name, settings", MAGNETIC)
    def test_rows_are_the_rotated_horizontal_rows(self, preset_cache, name, settings, n):
        ext, pts = self._at(preset_cache, name, settings, n)
        x, y, phi, theta = pts[0].tolist() if n == 1 else pts.T
        X, Y = (np.array(r, dtype=float).reshape(3, -1) for r in ext.base.horizontal(x, y, phi))
        c, s = np.cos(theta), np.sin(theta)
        want = np.stack([c * X + s * Y, c * Y - s * X]).transpose(2, 0, 1)    # (n, 2, 3)
        got = ext.model.frame(pts)[:, :2]
        assert not got[..., 3].any()
        # the entry scale counts |phi + theta|: its rounding, half an ulp of
        # the angle, reaches cos and sin of it
        scale = np.abs(want).max(axis=(1, 2)) * np.maximum(1.0, pts[:, 2] + pts[:, 3])
        err = np.abs(got[..., :3] - want).max(axis=(1, 2))
        assert (err <= 4 * np.finfo(float).eps * scale).all()

    @pytest.mark.parametrize("n", [64, 1])
    @pytest.mark.parametrize("name, settings", MAGNETIC)
    def test_chart_brackets(self, preset_cache, name, settings, n):
        # [Theta, Xt] = Yt, [Theta, Yt] = -Xt, [Xt, Yt] = kappa Zt, with the
        # Gauss curvature at each point on magnetic-bump
        ext, pts = self._at(preset_cache, name, settings, n)
        F = ext.model.frame(pts)
        pairs = [(3, 0), (3, 1), (0, 1)]
        TX, TY, XY = bracket_chart(ext.model.frame, pairs, pts).transpose(1, 0, 2)
        kappa = ext.kappa_at(pts)[:, None]
        assert np.abs(TX - F[:, 1]).max() < 1e-8
        assert np.abs(TY + F[:, 0]).max() < 1e-8
        assert np.abs(XY - kappa * F[:, 2]).max() < 1e-8

