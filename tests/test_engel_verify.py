"""Engel-condition verification and the Darboux models."""
import dataclasses
import json

import numpy as np
import pytest

from engel_lab.engel_verify import (
    _E_PAIRS,
    EngelStructure,
    _pairing_kernel,
    cauchy_characteristic,
    darboux_standard,
    line_angle,
    sample_box,
    verify_engel,
)
from engel_lab.errors import DegenerateKernel, DimensionMismatch, FrameDegenerate
from engel_lab.frame_algebra import RANK_TOL, ChartModel, Section, coordinate_frame
from engel_lab.presets import build_preset, preset_names
from engel_lab.serialize import dumps_canonical

from conftest import lapack_coords


class TestVerify:
    def test_standard_passes(self):
        rep = verify_engel(darboux_standard(), n_samples=400)
        assert rep.passed
        assert rep.summary == {
            "all_rank_D_2": True, "all_rank_E_3": True, "all_rank_EE_4": True,
            "max_cauchy_angle_error": rep.summary["max_cauchy_angle_error"],
            "n_marginal": 0, "n_samples": 400}
        assert rep.summary["max_cauchy_angle_error"] < 1e-9

    def test_long_darboux_passes(self):
        assert verify_engel(build_preset("long-darboux")["structure"], n_samples=400).passed

    def test_integrable_counterexample_fails_with_rank2(self, preset_cache):
        rep = verify_engel(preset_cache("integrable-counterexample")["structure"],
                           n_samples=50)
        assert not rep.passed
        assert np.all(rep.rank_E == 2)
        assert np.all(rep.rank_EE == 2)

    def test_report_serializes(self):
        doc = json.loads(dumps_canonical(
            verify_engel(darboux_standard(), n_samples=10).to_json_dict()))
        assert doc["schema_version"] == 3
        assert doc["passed"] is True
        assert len(doc["records"]) == 10
        rec = doc["records"][0]
        assert set(rec) == {"point", "rank_D", "rank_E", "rank_EE",
                            "cauchy_angle_error", "marginal"}

    def test_needs_two_D_and_three_E_sections(self):
        s = darboux_standard()
        for spans in ({"D_span": s.D_span[:1]}, {"E_span": s.E_span[:2]}):
            with pytest.raises(DimensionMismatch, match="need 2 D sections and 3 E sections"):
                dataclasses.replace(s, **spans)

    def test_needs_a_sample(self):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            verify_engel(darboux_standard(), n_samples=0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.inf, np.nan])
    def test_tolerance_must_be_finite_and_positive(self, preset_cache, tol):
        # a negative tolerance counts every singular value toward a rank, so
        # the counterexample would pass
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            verify_engel(preset_cache("integrable-counterexample")["structure"],
                         n_samples=5, tol=tol)

    def test_marginal_rank_is_flagged_not_decided(self):
        # a D section sitting a factor of ~2 above the tolerance must be
        # reported as marginal instead of silently rank-decided
        s = darboux_standard()
        eps = 2e-8
        s.D_span = [Section((0, 0, 0, 1), "W"),
                    Section((eps, 0, 0, 1), "W-tilted")]
        rep = verify_engel(s, n_samples=20, tol=1e-8)
        assert rep.summary["n_marginal"] == 20
        assert not rep.passed   # rank [D, D] collapses for this pair
        # an exactly dependent pair is decided, not flagged: rank D is 1
        s.D_span = [Section((1, 0, 0, 0)), Section((2, 0, 0, 0))]
        rep = verify_engel(s, n_samples=20)
        assert np.all(rep.rank_D == 1) and rep.summary["n_marginal"] == 0
        assert not rep.passed


class TestCauchy:
    def test_standard_gives_dw(self, rng):
        s = darboux_standard()
        pts = rng.uniform(-1, 1, (20, 4))
        w = cauchy_characteristic(s, pts)
        ref = np.tile([0, 0, 0, 1.0], (20, 1))
        assert np.max(line_angle(w, ref)) < 1e-6

    def test_long_gives_dtheta(self, rng):
        s = build_preset("long-darboux")["structure"]
        pts = rng.uniform(-1, 1, (20, 4))
        pts[:, 3] = rng.uniform(0, 2 * np.pi, 20)
        w = cauchy_characteristic(s, pts)
        ref = np.tile([0, 0, 0, 1.0], (20, 1))
        assert np.max(line_angle(w, ref)) < 1e-6

    def test_invariant_under_E_recombination(self, rng):
        # the kernel line must not depend on how E is spanned
        s = darboux_standard()
        p = np.array([0.4, -0.2, 0.7, 0.3])
        w0 = cauchy_characteristic(s, p)
        for _ in range(5):
            g = rng.normal(size=(3, 3)) + 2 * np.eye(3)
            if abs(np.linalg.det(g)) < 1e-2:
                continue
            # the darboux E span is constant: recombine its rows
            rows = np.stack([e.constant_coeffs() for e in s.E_span])
            new_E = [Section(tuple(g[i] @ rows)) for i in range(3)]
            s2 = darboux_standard()
            s2.E_span = new_E
            w1 = cauchy_characteristic(s2, p)
            assert float(line_angle(w0[None], w1[None])[0]) < 1e-6

    def test_no_point_is_the_lie_origin_and_refused_on_a_chart(self, preset_cache):
        lie = preset_cache("lorentz-magnetic-lie", kappa=-0.5)["structure"]
        assert np.array_equal(cauchy_characteristic(lie, None),
                              cauchy_characteristic(lie, np.zeros(4)))
        with pytest.raises(DimensionMismatch):
            cauchy_characteristic(darboux_standard(), None)

    def test_integrable_E_has_no_characteristic(self):
        # E = <d0, d1, d2> on a coordinate chart: every bracket vanishes, so
        # the pairing on E has rank 0
        d = [Section(tuple(row), f"d{i}") for i, row in enumerate(np.eye(4))]
        s = EngelStructure(model=ChartModel(4, [[-1, 1]] * 4, coordinate_frame(4)),
                           D_span=d[:2], E_span=d[:3], W_section=d[0],
                           transverse_section=d[3], provenance="coordinates",
                           emw_frame=d[1:3])
        with pytest.raises(DegenerateKernel, match="rank < 2"):
            cauchy_characteristic(s, np.zeros(4))

    def test_w_line_contained_in_D(self, rng):
        # flag inclusion: the kernel line lies in span(D)
        s = build_preset("long-darboux")["structure"]
        pts = rng.uniform(-1, 1, (10, 4))
        pts[:, 3] = rng.uniform(0, 2 * np.pi, 10)
        w = cauchy_characteristic(s, pts)
        Dv = s.model.values(s.D_span, pts)
        for i in range(10):
            q, _ = np.linalg.qr(Dv[i].T)
            resid = w[i] - q @ (q.T @ w[i])
            assert np.linalg.norm(resid) < 1e-6



def reference_pairing(basis, brEE):
    """The pairing b = (b12, b13, b23), (n, 3): the transverse coordinate of
    each [e_i, e_j] from one LAPACK square solve in the frame (e_1, e_2, e_3,
    T), refused where |det| is at most 1e-10 of the product of row lengths."""
    scale = np.prod(np.linalg.norm(basis, axis=-1), axis=-1)
    if not np.all(np.abs(np.linalg.det(basis)) > 1e-10 * scale):
        raise FrameDegenerate("E and the transverse section do not span TM")
    return lapack_coords(basis, brEE)[:, :, 3]


def reference_pairing_kernel(basis, brEE, wdecl, tol):
    """The kernel of the pairing by a full SVD of the skew matrix (b_ij),
    signed along ``wdecl``, and the mask sv[1] >= tol."""
    coef = reference_pairing(basis, brEE)
    B = np.zeros((len(coef), 3, 3))
    for k, (i, j) in enumerate(_E_PAIRS):
        B[:, i, j] = coef[:, k]
        B[:, j, i] = -coef[:, k]
    _, sv, vt = np.linalg.svd(B)
    wvec = np.einsum("nk,nkd->nd", vt[:, -1, :], basis[:, :3])
    sign = np.sign(np.einsum("nd,nd->n", wvec, wdecl))
    sign[sign == 0] = 1.0
    return wvec * sign[:, None], sv[:, 1] >= tol


def pairing_inputs(s, n):
    """(basis, brackets, declared W) at ``n`` Halton points of the model, as
    ``verify_engel`` passes them to the pairing."""
    pts = s.model.sample(n)
    vals = s.model.values([*s.E_span, s.transverse_section, s.W_section], pts)
    return vals[:, :4], s.model.brackets(s.E_span, _E_PAIRS, pts), vals[:, 4]


PAIRING_PRESETS = [name for name in preset_names() if name != "integrable-counterexample"]


class TestClosedFormPairing:
    @pytest.mark.parametrize("name", PAIRING_PRESETS)
    def test_matches_solve_and_svd(self, preset_cache, name):
        basis, brEE, wdecl = pairing_inputs(preset_cache(name)["structure"], 64)
        want, want_ok = reference_pairing_kernel(basis, brEE, wdecl, RANK_TOL)
        got, ok = _pairing_kernel(basis, brEE, wdecl, RANK_TOL)
        assert np.array_equal(ok, want_ok) and ok.all()
        assert line_angle(got, want).max() <= 1e-13
        assert np.all(np.einsum("nd,nd->n", got, want) > 0)    # the same sign

    @pytest.mark.parametrize("name", ["lorentz-magnetic", "propellor-cat"])
    def test_rank_mask_at_the_tolerance(self, preset_cache, name):
        # singular values of a skew 3x3 matrix are (|b|, |b|, 0): the mask
        # |b| >= tol decides as sv[1] >= tol does, a part in 1e6 either side
        basis, brEE, wdecl = pairing_inputs(preset_cache(name)["structure"], 64)
        side = np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
        b = np.linalg.norm(reference_pairing(basis, brEE), axis=1)
        scaled = brEE * (RANK_TOL * (1 + 1e-6 * side) / b)[:, None, None]
        _, want = reference_pairing_kernel(basis, scaled, wdecl, RANK_TOL)
        _, got = _pairing_kernel(basis, scaled, wdecl, RANK_TOL)
        assert np.array_equal(want, side > 0)
        assert np.array_equal(got, want)

    def test_no_linalg_call(self, preset_cache, monkeypatch):
        inputs = pairing_inputs(preset_cache("lorentz-magnetic")["structure"], 8)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called")

        for fn in ("det", "solve", "svd", "norm", "inv", "qr", "lstsq", "eig", "eigh"):
            monkeypatch.setattr(np.linalg, fn, refuse)
        _, ok = _pairing_kernel(*inputs, RANK_TOL)
        assert ok.all()

    @pytest.mark.parametrize("name", ["darboux", "lorentz-magnetic-lie"])
    def test_angle_error_is_exactly_zero(self, preset_cache, name):
        rep = verify_engel(preset_cache(name)["structure"], n_samples=200)
        assert np.all(rep.cauchy_angle_error == 0.0)
        assert rep.summary["max_cauchy_angle_error"] == 0.0

    @pytest.mark.parametrize("name", [n for n in PAIRING_PRESETS if not n.endswith("-lie")])
    def test_angle_error_is_at_rounding_on_charts(self, preset_cache, name):
        # the complex-step brackets carry no difference error into W: the
        # unit-tangent presets read 3e-16 to 5e-16 at 1000 points, the rest 0
        rep = verify_engel(preset_cache(name)["structure"], n_samples=1000)
        assert rep.passed and rep.summary["max_cauchy_angle_error"] <= 1e-14

    def test_counterexample_frame_is_refused_and_angles_null(self, preset_cache):
        s = preset_cache("integrable-counterexample")["structure"]
        with pytest.raises(FrameDegenerate, match="do not span TM"):
            _pairing_kernel(*pairing_inputs(s, 8), RANK_TOL)
        doc = json.loads(dumps_canonical(verify_engel(s, n_samples=8).to_json_dict()))
        assert doc["summary"]["max_cauchy_angle_error"] is None
        assert [rec["cauchy_angle_error"] for rec in doc["records"]] == [None] * 8


def test_line_angle_keeps_small_angles():
    # arccos(|u.v| / |u||v|) reads 0 or 1.5e-8 for every angle below about
    # 1e-8; the atan2 form resolves them, for either orientation of v
    a = np.array([1e-12, 1e-10, 1e-8, 1e-4, 0.5, np.pi / 2])
    u = np.tile([1.0, 0.0, 0.0, 0.0], (len(a), 1))
    v = np.stack([np.cos(a), np.sin(a), np.zeros_like(a), np.zeros_like(a)], axis=1)
    for w in (v, -3.0 * v):
        assert np.allclose(line_angle(u, w), a, rtol=1e-12, atol=0)
    assert np.array_equal(line_angle([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]),
                          [np.pi / 2] * 2)


class TestDarbouxModels:
    def test_E_annihilates_defining_form(self, rng):
        # E = ker(dy - z dx): every E section and the bracket [D_1, D_2]
        # pair to zero with the form, so D + [D, D] is E
        s = darboux_standard()
        pts = rng.uniform(-1.5, 1.5, (50, 4))
        Ev = np.concatenate([s.model.values(s.E_span, pts),
                             s.model.brackets(s.D_span, [(0, 1)], pts)], axis=1)
        form = np.zeros((50, 4))
        form[:, 1] = 1.0
        form[:, 0] = -pts[:, 2]
        pairing = np.einsum("nkd,nd->nk", Ev, form)
        assert np.abs(pairing).max() < 1e-12

    def test_tan_theta_conjugates_long_to_standard(self, rng):
        # pushforward under (x, y, z, th) -> (x, y, z, tan th) carries the
        # long-chart plane field to the standard one
        long = build_preset("long-darboux")["structure"]
        std = darboux_standard()
        for _ in range(20):
            p = rng.uniform(-1, 1, 4)
            p[3] = rng.uniform(-1.2, 1.2)      # inside (-pi/2, pi/2)
            q = p.copy()
            q[3] = np.tan(p[3])
            Dl = long.model.values(long.D_span, p[None])[0]
            push = Dl.copy()
            push[:, 3] = Dl[:, 3] / np.cos(p[3]) ** 2
            Ds = std.model.values(std.D_span, q[None])[0]
            # compare planes via principal angles
            qa, _ = np.linalg.qr(push.T)
            qb, _ = np.linalg.qr(Ds.T)
            sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
            assert np.arccos(np.clip(sv.min(), -1, 1)) < 1e-6

    def test_sampler_is_deterministic(self):
        s = darboux_standard()
        a = sample_box(s.model, 32)
        b = sample_box(s.model, 32)
        assert np.array_equal(a, b)
        assert s.model.contains(a).all()


def test_every_preset_passes_verification(preset_cache):
    # every construction the package builds satisfies (D1)/(D2)
    names = ["darboux", "long-darboux", "cartan-r3", "prequantum-local",
             "propellor-identity", "propellor-parabolic", "propellor-cat",
             "bi-engel-cat", "suspension-identity", "suspension-geodesic",
             "magnetic-bump"]
    for name in names:
        rep = verify_engel(preset_cache(name)["structure"], n_samples=200)
        assert rep.passed, f"{name} failed: {rep.summary}"
