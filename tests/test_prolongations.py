"""The four constructions and their cross-identifications."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from scipy.linalg import expm

from engel_lab._kernels import _trace_split, closed_form_exp, expm2
from engel_lab.cli import KAPPA_SWEEP
from engel_lab.engel_verify import line_angle, sample_box, verify_engel
from engel_lab.errors import (
    ConfigError,
    CurvatureMismatch,
    EquivarianceError,
    FrameDegenerate,
    NotContact,
    SignatureError,
    TwistMonotonicityError,
)
from engel_lab.frame_algebra import (
    RANK_TOL,
    ChartModel,
    Section,
    coordinate_frame,
    rank_with_margin,
)
from engel_lab.geometry_models import (
    bump_surface,
    magnetic_extension,
    unit_tangent_frames,
)
from engel_lab.prolongations import (
    ContactModel,
    SuspensionData,
    _logm2,
    bi_engel_pair,
    cartan_prolongation,
    lorentz_prolongation,
    prequantum_prolongation,
    propellor_structure,
    standard_contact_r3,
    suspension,
    suspension_geodesic,
    suspension_identity,
)
from engel_lab.characteristic_dynamics import (
    _eigen_lines,
    integrate_characteristic,
    transport_EmodW,
)
from engel_lab.engel_verify import cauchy_characteristic
from engel_lab.presets import CAT_MAP, SHEAR_MAP, preset_names

from conftest import binade_entries, rel_err

ELLIPTIC_MAP = ((0.9, 1.0), (-0.1, 1.0))    # det 1, trace 1.9
EPS = np.finfo(float).eps


class TestCartan:
    def test_passes_verification(self, preset_cache):
        assert verify_engel(preset_cache("cartan-r3")["structure"],
                            n_samples=300).passed

    def test_E_is_pullback_of_contact_form(self, preset_cache, rng):
        # the three E sections annihilate the pulled-back form dy - z dx
        s = preset_cache("cartan-r3")["structure"]
        pts = rng.uniform(-1, 1, (30, 4))
        Ev = s.model.values(s.E_span, pts)
        form = np.zeros((30, 4))
        form[:, 1] = 1.0
        form[:, 0] = -pts[:, 2]
        assert np.abs(np.einsum("nkd,nd->nk", Ev, form)).max() < 1e-9

    def test_fiber_first_return_holonomy_trivial(self, preset_cache):
        s = preset_cache("cartan-r3")["structure"]
        orbit = integrate_characteristic(s, np.array([0.2, -0.1, 0.3, 0.0]),
                                         np.pi, 1e-3)
        orbit = transport_EmodW(s, orbit)
        assert np.abs(orbit.M[-1] - np.eye(2)).max() < 1e-9

    def test_integrable_planes_are_no_contact_model(self):
        # xi = <d/dx, d/dy> on R^3 is integrable: rank(xi + [xi, xi]) = 2
        base = ChartModel(3, [[-1, 1]] * 3, coordinate_frame(3))
        with pytest.raises(NotContact):
            ContactModel(base, (Section((1, 0, 0)), Section((0, 1, 0))), Section((0, 0, 1)))

    def test_needs_legendrian_frame(self):
        c = dataclasses.replace(standard_contact_r3(), legendrian_frame=None)
        with pytest.raises(NotContact):
            cartan_prolongation(c)


class TestLorentz:
    def test_unknown_extension_kind(self, preset_cache):
        ext = dataclasses.replace(preset_cache("lorentz-product", kappa=-1.0)["extension"],
                                  kind="warped")
        with pytest.raises(SignatureError, match="unknown extension kind 'warped'"):
            lorentz_prolongation(ext)

    @pytest.mark.parametrize("kappa", [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0])
    def test_both_kinds_verify(self, preset_cache, kappa):
        for kind in ("lorentz-product", "lorentz-magnetic",
                     "lorentz-product-lie", "lorentz-magnetic-lie"):
            rep = verify_engel(preset_cache(kind, kappa=kappa)["structure"],
                               n_samples=200)
            assert rep.passed, f"{kind} kappa={kappa}: {rep.summary}"

    def test_product_cauchy_is_X_plus_theta(self, preset_cache, rng):
        built = preset_cache("lorentz-product", kappa=-1.0)
        s = built["structure"]
        pts = np.column_stack([rng.uniform(-0.35, 0.35, (25, 2)),
                               rng.uniform(0, 2 * np.pi, (25, 2))])
        w = cauchy_characteristic(s, pts)
        ref = s.model.frame(pts)[:, 0].copy()
        ref[:, 3] += 1.0
        assert np.max(line_angle(w, ref)) < 1e-6

    @pytest.mark.parametrize("kappa", [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0])
    def test_magnetic_cauchy_theta_coefficient(self, preset_cache, kappa, rng):
        # Cauchy line = Xt + Zt - (1 + kappa) Theta
        built = preset_cache("lorentz-magnetic", kappa=kappa)
        s = built["structure"]
        half = 0.7 * float(s.model.box[0, 1])
        pts = np.column_stack([rng.uniform(-half, half, (20, 2)),
                               rng.uniform(0, 2 * np.pi, (20, 2))])
        w = cauchy_characteristic(s, pts)
        ref = s.model.values([s.W_section], pts)[:, 0]
        assert np.max(line_angle(w, ref)) < 1e-6

    def test_magnetic_kappa_minus_one_stays_horizontal(self, preset_cache):
        # W = Xt + Zt with no Theta component (the left-invariant null field)
        s = preset_cache("lorentz-magnetic", kappa=-1.0)["structure"]
        p = np.array([0.1, -0.05, 0.4, 1.3])
        w = cauchy_characteristic(s, p)
        assert abs(w[3]) < 1e-7

    @pytest.mark.parametrize("kappa", KAPPA_SWEEP)
    def test_constant_curvature_chart_W_is_the_lie_W(self, preset_cache, kappa):
        # the chart takes the declared kappa, so W = Xt + Zt - (1 + kappa) Theta
        # carries the same constant coefficients as on the Lie twin
        chart = preset_cache("lorentz-magnetic", kappa=kappa)["structure"].W_section
        lie = preset_cache("lorentz-magnetic-lie", kappa=kappa)["structure"].W_section
        assert chart.is_constant and lie.is_constant
        assert np.array_equal(chart.constant_coeffs(), lie.constant_coeffs())

    def test_variable_curvature_theta_coefficient(self, rng):
        # Theta coefficient equals -(1 + kappa(p)) pointwise on a bump surface
        surf = bump_surface()
        ext = magnetic_extension(unit_tangent_frames(surf))
        s = lorentz_prolongation(ext)
        pts = np.column_stack([rng.uniform(-0.5, 0.5, (15, 2)),
                               rng.uniform(0, 2 * np.pi, (15, 2))])
        w = cauchy_characteristic(s, pts)
        frame_vals = np.swapaxes(s.model.frame(pts), 1, 2)
        coef = np.einsum("nkd,nd->nk", np.linalg.pinv(frame_vals), w)
        coef /= coef[:, 0:1]
        want = -(1.0 + surf.kappa(pts[:, 0], pts[:, 1]))
        assert np.abs(coef[:, 3] - want).max() < 1e-12

    def test_variable_curvature_W_reads_its_surface_twice(self):
        # one field call of W at one point of magnetic-bump calls lam_dlog
        # once (the frame) and kappa once (W's Theta coefficient)
        calls = {"lam_dlog": 0, "kappa": 0}

        def counted(name, f):
            def g(x, y):
                calls[name] += 1
                return f(x, y)
            return g

        bump = bump_surface()
        surf = dataclasses.replace(bump, lam_dlog=counted("lam_dlog", bump.lam_dlog),
                                   kappa=counted("kappa", bump.kappa))
        s = lorentz_prolongation(magnetic_extension(unit_tangent_frames(surf)))
        field, p = s.model.field(s.W_section), s.model.sample(1)
        calls.update(lam_dlog=0, kappa=0)
        field(p)
        assert calls == {"lam_dlog": 1, "kappa": 1}

    def test_variable_curvature_W_one_point_is_its_batch_row(self, preset_cache):
        # kappa is float arithmetic at one point, an (n,) column at a batch;
        # W's field and values at a point equal its row of the batch to the bit
        s = preset_cache("magnetic-bump")["structure"]
        pts = s.model.sample(64)
        field = s.model.field(s.W_section)
        batch_field, batch_values = field(pts), s.model.values([s.W_section], pts)
        for i, p in enumerate(pts):
            assert isinstance(s.W_section.coeffs(p[None])[3], float)
            assert field(p[None]).tobytes() == batch_field[i:i + 1].tobytes()
            assert (s.model.values([s.W_section], p[None]).tobytes()
                    == batch_values[i:i + 1].tobytes())


class TestPrequantum:
    def test_local_model_is_standard_engel(self, preset_cache, rng):
        # chart order (x, z, w, theta); the permutation (x, th, z, w) carries
        # the structure onto the standard Engel-Darboux model
        s = preset_cache("prequantum-local")["structure"]
        perm = [0, 3, 1, 2]   # (x, z, w, th) -> (x, th, z, w)
        from engel_lab.engel_verify import darboux_standard
        std = darboux_standard()
        for _ in range(10):
            p = rng.uniform(-1, 1, 4)
            q = p[perm]
            Dv = s.model.values(s.D_span, p[None])[0][:, perm]
            Ds = std.model.values(std.D_span, q[None])[0]
            qa, _ = np.linalg.qr(Dv.T)
            qb, _ = np.linalg.qr(Ds.T)
            sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
            assert np.arccos(np.clip(sv.min(), -1, 1)) < 1e-6

    def test_passes_verification(self, preset_cache):
        assert verify_engel(preset_cache("prequantum-local")["structure"],
                            n_samples=300).passed

    def test_W_is_horizontal(self, preset_cache, rng):
        # pairing of W with dtheta + beta vanishes
        s = preset_cache("prequantum-local")["structure"]
        beta = s.aux["beta"]
        pts = rng.uniform(-1, 1, (20, 4))
        w = s.model.values([s.W_section], pts)[:, 0]
        b = np.empty((20, 3))
        for j, col in enumerate(beta(*pts[:, :3].T)):
            b[:, j] = col
        pairing = w[:, 3] + np.einsum("ni,ni->n", b, w[:, :3])
        assert np.abs(pairing).max() < 1e-9

    @pytest.mark.parametrize("name", ["prequantum-local", "propellor-cat", "bi-engel-cat"])
    def test_vanishing_beta_coefficients_are_int_entries(self, preset_cache, name):
        # beta = -q2 dq1: the rows h2 and h3 read int entries only, at one
        # point and on a batch, so W = h3 is constant in the chart
        model = preset_cache(name)["structure"].model
        for n in (1, 5):
            rows = model.rows(sample_box(model, n))
            for row, want in zip(rows[1:], [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]):
                assert [type(e) for e in row] == [int] * 4 and tuple(row) == want

    def test_constant_base_section_lifts_to_a_constant_section(self, preset_cache):
        # xi[0] = d/dw is constant, xi[1] = d/dx + w d/dz is not
        s = preset_cache("prequantum-local")["structure"]
        c = s.aux["contact"]
        assert s.D_span[0].is_constant and s.W_section.is_constant
        assert not s.D_span[1].is_constant
        pts = sample_box(s.model, 20)
        for base, lifted in zip(c.xi, s.D_span):
            want = np.zeros((20, 4))
            want[:, :3] = c.model.values([base], pts[:, :3])[:, 0]
            assert np.array_equal(lifted.coeff_at(pts), want)

    def test_curvature_mismatch_raises(self):
        from engel_lab.prolongations import prequantum_local
        s = prequantum_local()
        c = s.aux["contact"]
        bad_beta = lambda q1, q2, q3: (q2, 0, 0)
        with pytest.raises(CurvatureMismatch):
            prequantum_prolongation(c, w_bar=Section((0, 0, 1)),
                                    vol=lambda pts: np.ones(np.atleast_2d(pts).shape[0]),
                                    beta=bad_beta)

    def test_nan_curvature_raises(self):
        from engel_lab.prolongations import prequantum_local
        c = prequantum_local().aux["contact"]
        with pytest.raises(CurvatureMismatch):
            prequantum_prolongation(c, w_bar=Section((0, 0, 1)),
                                    vol=lambda pts: np.ones(np.atleast_2d(pts).shape[0]),
                                    beta=lambda q1, q2, q3: (np.nan, np.nan, np.nan))


class TestPropellor:
    def test_three_monodromies_verify(self, preset_cache):
        for name in ("propellor-identity", "propellor-parabolic", "propellor-cat"):
            assert verify_engel(preset_cache(name)["structure"], n_samples=250).passed

    @pytest.mark.parametrize("m", [np.eye(2), SHEAR_MAP, CAT_MAP] + [
        ((1 + s, 1), (s, 1)) for s in (-1, -0.1, -1e-3, 0, 1e-3, 0.1, 1)])
    def test_log_monodromy_inverts_expm2(self, m):
        # m(s) = [[1 + s, 1], [s, 1]] has det 1 and trace 2 + s: elliptic for
        # s < 0, the shear at s = 0, hyperbolic for s > 0 (the cat map at 1)
        m = np.asarray(m, dtype=float)
        assert np.abs(expm2(_logm2(m)[None])[0] - m).max() <= 1e-14
        assert np.abs(closed_form_exp(_logm2(m))(1.0) - m).max() <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(binade_entries(5).filter(bool), binade_entries(5), binade_entries(5))
    def test_log_monodromy_inverts_the_exponentials(self, x, y, z):
        # m = [[x, y], [z, (1 + yz)/x]], unimodular to rounding, trace > -2;
        # exp(log m) is m within ulps times cond m times (|L| / |N|)^2, the
        # square of the log's amplification a / sinh(a) (near 1 away from
        # trace -2, where a rounding of the half-trace moves a by 1/|sinh a|)
        m = np.array([[x, y], [z, (1.0 + y * z) / x]])
        h, N, _ = _trace_split(m)
        assume(abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0) <= 1e-12 and h > -1.0)
        L = _logm2(m)
        sv = np.linalg.svd(m, compute_uv=False)
        amp = max(1.0, np.abs(L).max() / np.abs(N).max()) if N.any() else 1.0
        bound = 8 * EPS * np.abs(m).max() * sv[0] / sv[1] * amp * amp
        assert np.abs(expm2(L[None])[0] - m).max() <= bound
        assert np.abs(closed_form_exp(L)(1.0) - m).max() <= bound

    def test_elliptic_monodromy_verifies(self):
        # trace 1.9: the closed-form logarithm needs no extra case
        _, s = propellor_structure(np.array(ELLIPTIC_MAP))
        assert verify_engel(s, n_samples=100).passed

    def test_log_monodromy_refusals(self):
        for m in (-np.eye(2), [[-3.0, 1.0], [-1.0, 0.0]]):     # det 1, trace -2 and -3
            with pytest.raises(ConfigError, match="<= -2"):
                _logm2(np.asarray(m))
        with pytest.raises(ConfigError, match="unimodular"):
            propellor_structure(np.diag([2.0, 1.0]))

    @pytest.mark.parametrize("A, m", [
        ([[0.0, -1.0], [0.7, 0.0]], None), ([[0.0, 1.0], [0.0, 0.0]], None),
        ([[0.0, -1.0], [-0.7, 0.0]], None),
        (None, CAT_MAP), (None, SHEAR_MAP), (None, ELLIPTIC_MAP)])
    def test_closed_form_exp_matches_expm(self, A, m):
        # det A > 0, = 0 and < 0, then the log monodromies m of the three
        # propellor classes; a batch row is the call at its time, bit for bit
        A = np.array(A) if m is None else _logm2(np.asarray(m, dtype=float))
        phi = closed_form_exp(A)
        ts = np.array([-2.5, -0.3, 0.0, 1e-3, 0.5, 1.0, 3.0])
        batch = phi(ts)
        assert batch.shape == (len(ts), 2, 2)
        for t, row in zip(ts, batch):
            assert phi(t).shape == (2, 2)
            assert np.array_equal(phi(t), row)
            assert rel_err(row, expm(t * A)) <= 1e-13

    @pytest.mark.parametrize("m", [SHEAR_MAP, CAT_MAP, ELLIPTIC_MAP])
    def test_frame_is_the_exponential_columns(self, m):
        # hP and hQ are the columns of phi^t = exp(t L), bit for bit (the
        # shear and the elliptic map tell columns from rows)
        _, s = propellor_structure(np.asarray(m, dtype=float))
        pts = sample_box(s.model, 50)
        E = closed_form_exp(s.aux["log_monodromy"])(pts[:, 2])
        for sec, j in zip(s.emw_frame, (0, 1)):
            got = sec.coeff_at(pts)
            assert np.array_equal(got[:, :2], E[:, :, j]), sec.name
            assert not got[:, 2:].any(), sec.name

    def test_closed_form_exp_refuses_a_traced_generator(self):
        with pytest.raises(FrameDegenerate, match="trace-free"):
            closed_form_exp(np.eye(2))

    @pytest.mark.parametrize("m", [np.eye(2), SHEAR_MAP, CAT_MAP])
    def test_contact_transverse_section_completes_the_planes(self, m):
        # (l, dt, n) spans the tangent space of the base with a clear margin;
        # propellor_structure passes its own E/W frame, so no run reads n
        contact, _ = propellor_structure(np.asarray(m, dtype=float))
        base = contact.model
        pts = base.sample(200)
        rank, marginal = rank_with_margin(
            base.values([*contact.xi, contact.transverse], pts), RANK_TOL)
        assert (rank == 3).all() and not marginal.any()

    def test_contact_model_validates(self):
        contact, _ = propellor_structure(np.eye(2))
        ContactModel(contact.model, contact.xi, contact.transverse)

    def test_equivariance_enforced(self):
        bad_path = lambda t: np.stack(
            [np.cos(np.pi * np.atleast_1d(t)),
             np.sin(np.pi * np.atleast_1d(t))], axis=-1)   # period-2 line path
        with pytest.raises(EquivarianceError):
            propellor_structure(np.array([[2.0, 1.0], [1.0, 1.0]]), line_path=bad_path)

    def test_degenerate_rotation_rejected(self):
        frozen = lambda t: np.stack(
            [np.ones_like(np.atleast_1d(t)), np.zeros_like(np.atleast_1d(t))],
            axis=-1)
        with pytest.raises(NotContact):
            propellor_structure(np.eye(2), line_path=frozen)

    def test_reversing_rotation_rejected(self):
        # theta(t) = 2 pi t + 1.5 sin 2 pi t is equivariant under the identity,
        # and its rate 2 pi + 3 pi cos 2 pi t changes sign twice per period
        def reversing(t):
            theta = 2 * np.pi * t + 1.5 * np.sin(2 * np.pi * t)
            return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        with pytest.raises(NotContact, match="single sign"):
            propellor_structure(np.eye(2), line_path=reversing)

    def test_equivariance_bound_is_relative(self):
        # det m - 1 is 0 in floats, and the path's deviation from equivariance
        # (about 1.7e-7) is rounding of its entries (up to 4.2e7); at turns = 1
        # the rotation reverses, since rho(L) = log lambda_u > 2 pi
        m = np.array([[0.7, 123.3], [77.1, (1 + 123.3 * 77.1) / 0.7]])
        _, s = propellor_structure(m, turns=2)
        rep = verify_engel(s, n_samples=200)
        assert rep.passed and rep.summary["n_marginal"] == 0
        with pytest.raises(NotContact, match="single sign"):
            propellor_structure(m, turns=1)


class TestSuspension:
    def test_identity_reproduces_cartan(self, preset_cache, rng):
        # K = 1, rho = pi t: frames agree with the Cartan prolongation under
        # theta = pi t
        susp = preset_cache("suspension-identity")["structure"]
        cartan = preset_cache("cartan-r3")["structure"]
        for _ in range(10):
            p = rng.uniform(-1, 1, 4)
            p[3] = rng.uniform(0, 1)
            q = p.copy()
            q[3] = np.pi * p[3]
            Cs = susp.model.values([susp.D_span[1]], p[None])[0, 0]
            Cc = cartan.model.values([cartan.D_span[1]], q[None])[0, 0]
            assert np.abs(Cs - Cc).max() < 1e-9

    def test_monotonicity_guard(self):
        c = standard_contact_r3()
        ident = lambda pts: np.atleast_2d(pts).copy()
        dident = lambda pts: np.broadcast_to(
            np.eye(3), (np.atleast_2d(pts).shape[0], 3, 3)).copy()
        sd = SuspensionData(contact=c, phi=ident, dphi=dident, phi_inv=ident,
                            rho=lambda t, v: np.pi * np.atleast_1d(t) ** 2, K=1)
        with pytest.raises(TwistMonotonicityError):
            suspension(sd)

    def test_twist_must_start_at_zero(self):
        c = standard_contact_r3()
        ident = lambda pts: np.atleast_2d(pts).copy()
        dident = lambda pts: np.broadcast_to(
            np.eye(3), (np.atleast_2d(pts).shape[0], 3, 3)).copy()
        sd = SuspensionData(contact=c, phi=ident, dphi=dident, phi_inv=ident,
                            rho=lambda t, v: np.pi * np.atleast_1d(t) + 0.1, K=1)
        with pytest.raises(TwistMonotonicityError, match=r"rho\(0, v\) must vanish"):
            suspension(sd)

    def test_wrong_twist_count_rejected(self):
        s = suspension_identity(K=1)
        assert s.provenance == "suspension_identity"
        c = standard_contact_r3()
        ident = lambda pts: np.atleast_2d(pts).copy()
        dident = lambda pts: np.broadcast_to(
            np.eye(3), (np.atleast_2d(pts).shape[0], 3, 3)).copy()
        sd = SuspensionData(contact=c, phi=ident, dphi=dident, phi_inv=ident,
                            rho=lambda t, v: 0.5 * np.pi * np.atleast_1d(t), K=1)
        with pytest.raises(TwistMonotonicityError):
            suspension(sd)

    def test_geodesic_suspension_conjugate_to_product(self, preset_cache):
        # Phi((sigma,v), t) = (geodesic-flow_t(sigma,v), theta=t) intertwines
        # the suspension W = d/dt with the product W = X + Theta
        susp = preset_cache("suspension-geodesic")["structure"]
        prod = preset_cache("lorentz-product", kappa=-1.0)["structure"]
        p0 = np.array([0.05, -0.1, 0.4, 0.0])
        T, dt = 0.8, 1e-3
        orb_s = integrate_characteristic(susp, p0, T, dt)
        orb_p = integrate_characteristic(prod, p0, T, dt)
        # flow map applied to the suspension orbit: integrate X from the
        # base point for time t; theta coordinate equals t
        ut = susp.aux["ut"]
        idx = [200, 500, 800]
        for i in idx:
            t = orb_s.times[i]
            from engel_lab.frame_algebra import _rk4_orbits
            _, (path,), _ = _rk4_orbits(lambda q: ut.model.frame(q)[:, 0], p0[:3], t, dt)
            mapped = np.concatenate([path[-1], [t]])
            assert np.abs(mapped - orb_p.points[i]).max() < 1e-8

    @pytest.mark.parametrize("kappa", [-0.7, 0.0, 0.7])
    def test_geodesic_pushforward_is_the_flow_exponential(self, kappa):
        # C = Zs and Ys are the columns of exp(t [[0, -1], [kappa, 0]]) in the
        # (Y, Z) plane: the pushforwards of Z and Y along V' = [X, V]
        s = suspension_geodesic(kappa)
        pts = sample_box(s.model, 64)
        want = expm2(pts[:, 3, None, None] * np.array([[0.0, -1.0], [kappa, 0.0]]))
        Ys, Zs = s.emw_frame
        for sec, j in ((Ys, 0), (Zs, 1), (s.D_span[1], 1)):
            got = sec.coeff_at(pts)
            assert not got[:, :2].any(), sec.name
            err = np.linalg.norm(got[:, 2:] - want[:, :, j], axis=1)
            assert (err <= 1e-13 * np.linalg.norm(want[:, :, j], axis=1)).all(), sec.name

    def test_shear_contactomorphism_suspension(self):
        # phi(x, y, z) = (x, y + g(x), z + g'(x)) preserves ker(dy - z dx)
        # and genuinely twists the Legendrian line by arctan(g''(x))
        c = standard_contact_r3()
        amp = 0.3

        def g(x):
            return amp * np.sin(x)

        def phi(pts):
            pts = np.atleast_2d(pts)
            out = pts.copy()
            out[:, 1] += g(pts[:, 0])
            out[:, 2] += amp * np.cos(pts[:, 0])
            return out

        def phi_inv(pts):
            pts = np.atleast_2d(pts)
            out = pts.copy()
            out[:, 1] -= g(pts[:, 0])
            out[:, 2] -= amp * np.cos(pts[:, 0])
            return out

        def dphi(pts):
            pts = np.atleast_2d(pts)
            J = np.broadcast_to(np.eye(3), (pts.shape[0], 3, 3)).copy()
            J[:, 1, 0] = amp * np.cos(pts[:, 0])
            J[:, 2, 0] = -amp * np.sin(pts[:, 0])
            return J

        def dtilde(pts):
            return np.arctan(-amp * np.sin(np.atleast_2d(pts)[:, 0]))

        sd = SuspensionData(
            contact=c, phi=phi, dphi=dphi, phi_inv=phi_inv,
            rho=lambda t, v: np.atleast_1d(t) * (np.pi - dtilde(np.atleast_2d(v))),
            K=1)
        # measured twisting agrees with the closed form (as a line angle)
        pts = np.array([[0.5, 0.1, -0.3], [1.2, 0.0, 0.4], [-0.8, 0.2, 0.0]])
        measured = sd.twisting_angle(pts)
        want = np.mod(dtilde(pts), np.pi)
        assert np.abs(np.mod(measured - want + np.pi / 2, np.pi) - np.pi / 2).max() < 1e-9
        s = suspension(sd)
        assert verify_engel(s, n_samples=200).passed

    def test_geodesic_suspension_transport_matches_product(self, preset_cache):
        # in the flow-equivariant frame the suspension generator equals the
        # product-extension generator, here [[0, 1], [1, 0]] at kappa = -1
        from engel_lab.characteristic_dynamics import transport_generator
        susp = preset_cache("suspension-geodesic")["structure"]
        prod = preset_cache("lorentz-product-lie", kappa=-1.0)["structure"]
        pts = np.array([[0.05, -0.1, 0.4, 0.3], [0.0, 0.0, 1.0, 2.0]])
        A_s = transport_generator(susp, pts)
        A_p = transport_generator(prod)
        assert np.abs(A_s - A_p).max() < 1e-6
        assert np.allclose(A_p, [[0.0, 1.0], [1.0, 0.0]])

    def test_propellor_transport_is_log_monodromy(self, preset_cache):
        # equivariant-frame generator = -log(monodromy); for the bi-Engel
        # eigen-frame it is the diagonal (log mu, -log mu)
        from engel_lab.characteristic_dynamics import transport_generator
        from engel_lab.presets import CAT_MAP
        s = preset_cache("propellor-cat")["structure"]
        pts = np.array([[0.2, 0.3, 0.4, 1.0], [0.7, 0.1, 0.9, 2.0]])
        A = transport_generator(s, pts)
        L = s.aux["log_monodromy"]
        assert np.abs(A + L).max() < 1e-6
        be = preset_cache("bi-engel-cat")["structure"]
        Abe = transport_generator(be, pts)
        mu = max(np.linalg.eigvals(np.array(CAT_MAP, dtype=float)).real)
        want = np.diag([np.log(mu), -np.log(mu)])
        assert np.abs(Abe - want).max() < 1e-6

    def test_bi_engel_pair_shares_E(self):
        plus, minus = bi_engel_pair()
        assert [sec.name for sec in plus.E_span] == [sec.name for sec in minus.E_span]
        assert verify_engel(plus, n_samples=200).passed
        assert verify_engel(minus, n_samples=200).passed
        # same even contact structure: identical section values
        pts = np.array([[0.2, 0.3, 0.4, 0.5], [0.8, 0.1, 0.9, 2.0]])
        Ep = plus.model.values(plus.E_span, pts)
        Em = minus.model.values(minus.E_span, pts)
        assert np.array_equal(Ep, Em)
        # two different D planes inside it: <W, u + s> and <W, u - s> span
        # W, u and s together
        D = np.concatenate([plus.model.values(plus.D_span, pts),
                            minus.model.values(minus.D_span, pts)], axis=1)
        rank, marginal = rank_with_margin(D, RANK_TOL)
        assert np.all(rank == 3) and not marginal.any()

    def test_bi_engel_pair_keeps_its_orientation(self):
        # at t = 0 the E/W frame (U, S) is the unstable and the stable line of
        # the cat map, (U, S) positively oriented: flipping S would swap the
        # D planes <W, U + S> and <W, U - S> of the pair
        plus, minus = bi_engel_pair()
        p = np.array([[0.2, 0.3, 0.0, 0.5]])
        (U, S), (D_plus, D_minus) = [[sec.coeff_at(p)[0, :2] for sec in secs] for secs in
                                     (plus.emw_frame, (plus.D_span[1], minus.D_span[1]))]
        golden = (1 + np.sqrt(5)) / 2
        assert np.allclose(U, np.array([golden, 1.0]) / np.hypot(golden, 1.0), rtol=0, atol=1e-15)
        assert np.allclose(S, np.array([-1.0, golden]) / np.hypot(golden, 1.0), rtol=0, atol=1e-15)
        assert np.array_equal(D_plus, U + S) and np.array_equal(D_minus, U - S)

    def test_bi_engel_rate_is_the_log_of_the_unstable_eigenvalue(self):
        # the cat map's log monodromy L has the rate rho(L) = log((3 + sqrt 5)/2)
        # = arccosh(3/2); the frame (U, S) of the pair is exp(-+rate t) times
        # the lines at t = 0, bit for bit
        _, s = propellor_structure(np.asarray(CAT_MAP, dtype=float))
        rate = _eigen_lines(s.aux["log_monodromy"])[3]
        assert abs(rate - math.acosh(1.5)) <= 2 * math.ulp(math.acosh(1.5))
        plus, _ = bi_engel_pair()
        pts = np.zeros((9, 4))
        pts[:, 2] = t = np.linspace(-2.0, 2.0, 9)
        U, S = (sec.coeff_at(pts)[:, :2] for sec in plus.emw_frame)
        assert np.array_equal(U, np.exp(-rate * t)[:, None] * U[4])
        assert np.array_equal(S, np.exp(rate * t)[:, None] * S[4])

    @pytest.mark.parametrize("m", [np.eye(2), SHEAR_MAP])
    def test_bi_engel_pair_needs_a_hyperbolic_monodromy(self, m):
        with pytest.raises(ConfigError, match="hyperbolic"):
            bi_engel_pair(np.asarray(m, dtype=float))


TAU = 2 * np.pi
# per chart preset at its defaults: dim, box, periodic, orbit_periods, name
_LAYOUTS = {
    "bi-engel-cat": (4, [[0, 1], [0, 1], [0, 1], [0, TAU]],
                     {0: 1.0, 1: 1.0, 3: TAU, 2: 1.0}, {}, "prequantum(propellor-base)"),
    "cartan-r3": (4, [[-2, 2], [-2, 2], [-2, 2], [0, TAU]], {3: TAU}, {3: np.pi},
                  "cartan(contact-r3)"),
    "darboux": (4, [[-2, 2]] * 4, {}, {}, "darboux-standard"),
    "integrable-counterexample": (4, [[-1, 1]] * 4, {}, {}, "integrable"),
    "long-darboux": (4, [[-2, 2], [-2, 2], [-2, 2], [0, TAU]], {3: TAU}, {3: np.pi},
                     "cartan(contact-r3)"),
    "lorentz-magnetic": (4, [[-1.2, 1.2], [-1.2, 1.2], [0, TAU], [0, TAU]],
                         {2: TAU, 3: TAU}, {}, "magnetic(sphere)"),
    "lorentz-product": (4, [[-1.2, 1.2], [-1.2, 1.2], [0, TAU], [0, TAU]],
                        {2: TAU, 3: TAU}, {}, "product(sphere)"),
    "magnetic-bump": (4, [[-0.8, 0.8], [-0.8, 0.8], [0, TAU], [0, TAU]],
                      {2: TAU, 3: TAU}, {}, "magnetic(bump)"),
    "prequantum-local": (4, [[-2, 2], [-2, 2], [-2, 2], [0, TAU]], {3: TAU}, {},
                         "prequantum(prequantum-base)"),
    "propellor-cat": (4, [[0, 1], [0, 1], [0, 1], [0, TAU]],
                      {0: 1.0, 1: 1.0, 3: TAU, 2: 1.0}, {}, "prequantum(propellor-base)"),
    "propellor-identity": (4, [[0, 1], [0, 1], [0, 1], [0, TAU]],
                           {0: 1.0, 1: 1.0, 3: TAU, 2: 1.0}, {}, "prequantum(propellor-base)"),
    "propellor-parabolic": (4, [[0, 1], [0, 1], [0, 1], [0, TAU]],
                            {0: 1.0, 1: 1.0, 3: TAU, 2: 1.0}, {}, "prequantum(propellor-base)"),
    "suspension-geodesic": (4, [[-0.68, 0.68], [-0.68, 0.68], [0, TAU], [0, TAU]],
                            {2: TAU}, {}, "suspension-geodesic(k=-1)"),
    "suspension-identity": (4, [[-2, 2], [-2, 2], [-2, 2], [0, 1]], {}, {},
                            "suspension(contact-r3)"),
}


class TestChartLayouts:
    def test_every_chart_preset_is_listed(self, preset_cache):
        charts = {n for n in preset_names()
                  if isinstance(preset_cache(n)["structure"].model, ChartModel)}
        assert charts == set(_LAYOUTS)

    @pytest.mark.parametrize("name", sorted(_LAYOUTS))
    def test_layout(self, preset_cache, name):
        # the base box and periods plus the fiber coordinate: Cartan closes
        # its orbits at pi, the suspensions' fiber has no period, and the
        # propellor charts wrap the time coordinate at 1
        dim, box, periodic, orbit_periods, chart_name = _LAYOUTS[name]
        m = preset_cache(name)["structure"].model
        assert m.dim == dim
        assert np.array_equal(m.box, np.array(box, dtype=float))
        assert m.periodic == periodic
        assert m.orbit_periods == orbit_periods
        assert m.name == chart_name
