"""Brackets, ranks, and the Lie algebra models."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engel_lab import frame_algebra
from engel_lab.errors import (ChartExit, DimensionMismatch, EmptyInput, FrameDegenerate,
                              NonFiniteEvaluation)
from engel_lab.frame_algebra import (
    ChartModel,
    ChartVectorField,
    LieModel,
    RANK_TOL,
    Section,
    bracket_chart,
    bracket_lie,
    complex_step,
    coordinate_frame,
    distribution_rank,
    frame_coords,
    halton_points,
    rank_with_margin,
    _rk4_orbits,
)
from engel_lab.geometry_models import magnetic_extension, ConstantCurvatureUT, _columns
from engel_lab.characteristic_dynamics import transport_generator
from engel_lab.engel_verify import darboux_standard, sample_box, verify_engel
from engel_lab.presets import preset_names

from conftest import fd_jacobian, lapack_coords


def ef_X():
    def comp(pts):
        out = np.zeros_like(pts)
        out[:, 0] = 1.0
        out[:, 1] = pts[:, 2]
        out[:, 2] = pts[:, 3]
        return out
    return ChartVectorField(comp, name="X")


def const_field(vec):
    v = np.asarray(vec, dtype=float)
    return ChartVectorField(lambda pts: np.broadcast_to(v, pts.shape).copy())


def stacked(*fields):
    """The fields as one function of points (n, 4) -> (n, k, 4)."""
    return lambda pts: np.stack([f(pts) for f in fields], axis=1)


class TestBracketChart:
    def test_dw_with_X_gives_dz(self):
        # [d/dw, X] = d/dz at the origin
        out = bracket_chart(stacked(const_field([0, 0, 0, 1]), ef_X()), [(0, 1)], np.zeros(4))
        assert out.shape == (1, 4)
        assert np.allclose(out[0], [0, 0, 1, 0], atol=1e-9)

    def test_self_bracket_vanishes(self):
        p = np.array([0.3, -0.2, 0.6, 0.1])
        assert np.allclose(bracket_chart(stacked(ef_X()), [(0, 0)], p), 0.0, atol=1e-12)

    def test_X_with_dy_vanishes(self, rng):
        # analytic oracle: the coefficients of X do not involve y
        for _ in range(5):
            p = rng.uniform(-1, 1, 4)
            out = bracket_chart(stacked(ef_X(), const_field([0, 1, 0, 0])), [(0, 1)], p)
            assert np.abs(out).max() < 1e-8

    def test_antisymmetry_random_fields(self, rng):
        def trig_field(coeffs):
            def comp(pts):
                out = np.zeros_like(pts)
                for i in range(4):
                    out[:, i] = (coeffs[i, 0] * np.sin(pts[:, (i + 1) % 4])
                                 + coeffs[i, 1] * pts[:, i] ** 2)
                return out
            return ChartVectorField(comp)

        for _ in range(10):
            a = trig_field(rng.uniform(-1, 1, (4, 2)))
            b = trig_field(rng.uniform(-1, 1, (4, 2)))
            p = rng.uniform(-1, 1, 4)
            lhs, rhs = bracket_chart(stacked(a, b), [(0, 1), (1, 0)], p)
            assert np.abs(lhs + rhs).max() < 1e-9

    def test_jacobians_match_analytic(self):
        # polynomial field with hand-coded jacobian: the complex step to
        # rounding, the central-difference reference to h^2
        def comp(pts):
            pts = np.atleast_2d(pts)
            out = np.zeros_like(pts)
            out[:, 0] = pts[:, 1] ** 3
            out[:, 1] = pts[:, 0] * pts[:, 2]
            out[:, 2] = pts[:, 3] ** 2
            out[:, 3] = 1.0
            return out

        def jac(pts):
            pts = np.atleast_2d(pts)
            J = np.zeros((pts.shape[0], 4, 4))
            J[:, 0, 1] = 3 * pts[:, 1] ** 2
            J[:, 1, 0] = pts[:, 2]
            J[:, 1, 2] = pts[:, 0]
            J[:, 2, 3] = 2 * pts[:, 3]
            return J

        p = np.array([[0.4, -0.7, 0.2, 0.9]])
        J = np.stack([d for _, d in complex_step(comp, p)], axis=-1)
        assert np.abs(J - jac(p)).max() <= 1e-15
        for h in (1e-3, 1e-4):
            err = np.abs(fd_jacobian(comp, p, h) - jac(p)).max()
            assert err < 5.0 * h ** 2

    def test_strided_values_give_the_rows_of_one_point_calls(self, rng):
        # dense values computed as planes (k, dim, n) and returned as their
        # transposed view (n, k, dim): every batch row of the brackets still
        # equals its one-row call and the brackets of the C-ordered values
        B, C = rng.standard_normal((2, 3, 4, 4))

        def planes(pts):
            return np.sin(np.einsum("kij,nj->kin", B, pts) + C.sum(axis=2)[..., None])

        strided = lambda pts: planes(pts).transpose(2, 0, 1)
        assert not strided(np.zeros((5, 4))).flags.c_contiguous
        contiguous = lambda pts: np.ascontiguousarray(strided(pts))
        pairs = [(0, 1), (0, 2), (1, 2), (2, 0)]
        pts = rng.uniform(-1, 1, (40, 4))
        br = bracket_chart(strided, pairs, pts)
        assert np.array_equal(br, bracket_chart(contiguous, pairs, pts))
        for i in range(len(pts)):
            assert np.array_equal(br[i], bracket_chart(strided, pairs, pts[i]))


CHART_PRESETS = [p for p in preset_names() if not p.endswith("-lie")]


def structure_sections(s):
    """Every section of an Engel structure: D, E, W, the transverse section
    and the two E/W frame sections."""
    return [*s.D_span, *s.E_span, s.W_section, s.transverse_section, *s.emw_frame]


@pytest.fixture(scope="module")
def magnetic():
    return magnetic_extension(ConstantCurvatureUT(-0.5)).model


class TestLieModel:
    def test_structure_relations(self, magnetic):
        # [Xt, Yt] = kappa Zt and [Theta, Zt] = 0, kappa = -0.5
        k = -0.5
        Xt, Yt, Zt, Th = np.eye(4)
        assert np.allclose(bracket_lie(magnetic, Xt, Yt), k * Zt)
        assert np.allclose(bracket_lie(magnetic, Th, Zt), 0.0)

    def test_bilinearity_on_W(self, magnetic):
        # W = Xt + Zt - (1 + kappa) Theta pairs with Theta to -Yt, kappa = -0.5
        k = -0.5
        Xt, Yt, Zt, Th = np.eye(4)
        W = Xt + Zt - (1 + k) * Th
        assert np.allclose(bracket_lie(magnetic, W, Th), -Yt)

    def test_jacobi_and_antisymmetry_exact(self, magnetic):
        LieModel(magnetic.names, magnetic.c)
        assert magnetic.antisymmetry_defect() == 0.0
        assert magnetic.jacobi_defect() < 1e-15

    def test_jacobi_holds_for_every_curvature(self):
        # each construction checks its own constants, the 3- and the 4-frame
        for k in (-3.0, -1.0, 0.0, 0.7, 2.5, 99.5):
            magnetic_extension(ConstantCurvatureUT(k))

    def test_broken_jacobi_refused_when_made(self):
        # [e0, e1] = e1 and [e1, e2] = e0: antisymmetric, Jacobi defect 1
        c = np.zeros((3, 3, 3))
        c[1, 0, 1], c[1, 1, 0] = 1.0, -1.0
        c[0, 1, 2], c[0, 2, 1] = 1.0, -1.0
        with pytest.raises(DimensionMismatch, match="Jacobi"):
            LieModel(("e0", "e1", "e2"), c)

    def test_nan_structure_constant_refused_when_made(self):
        c = np.zeros((3, 3, 3))
        c[2, 0, 1], c[2, 1, 0] = np.nan, -1.0
        with pytest.raises(DimensionMismatch):
            LieModel(("e0", "e1", "e2"), c)

    def test_broken_antisymmetry_refused_when_made(self):
        c = np.zeros((3, 3, 3))
        c[2, 0, 1] = 1.0
        with pytest.raises(DimensionMismatch, match="antisymmetric"):
            LieModel(("e0", "e1", "e2"), c)

    def test_structure_constants_must_be_cubic(self):
        with pytest.raises(DimensionMismatch, match=r"must be \(n, n, n\)"):
            LieModel(("e0", "e1"), np.zeros((2, 2, 3)))

    def test_section_must_match_the_frame(self, magnetic):
        with pytest.raises(DimensionMismatch, match="does not match the model frame"):
            magnetic.values([Section((1, 0, 0), "short")])

    def test_dimension_mismatch(self, magnetic):
        with pytest.raises(DimensionMismatch):
            bracket_lie(magnetic, np.ones(3), np.ones(4))


RANK_SHAPES = [(2, 4), (3, 4), (4, 4), (6, 4), (3, 3)]   # every caller's (k, dim)


def near_dependent_rows(rng, n, k, dim, tol):
    """``n`` Gaussian matrices (k, dim) of rank r - 1, r = min(k, dim), each
    scaled by 10^u with u uniform in [-5, 5], whose row ``j`` (random per
    matrix) then gains a unit direction times 10^v tol, v uniform in [-3, 3]:
    their r-th singular value is at most that residual."""
    r = min(k, dim)
    A = np.einsum("nkr,nrd->nkd", rng.normal(size=(n, k, r - 1)), rng.normal(size=(n, r - 1, dim)))
    A *= 10.0 ** rng.uniform(-5, 5, size=(n, 1, 1))
    direction = rng.normal(size=(n, dim))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    A[np.arange(n), rng.integers(k, size=n)] += tol * 10.0 ** rng.uniform(-3, 3, size=(n, 1)) * direction
    return A


def svd_rank_outcome(A, tol):
    """The SVD rule alone, the reference for ``rank_with_margin``'s minor
    certificate on finite matrices: the count of singular values above
    ``tol`` and whether one lies within a factor ``_MARGINAL_BAND`` of it,
    as lists."""
    sv = np.linalg.svd(A, compute_uv=False)
    band = (sv > tol / frame_algebra._MARGINAL_BAND) & (sv < tol * frame_algebra._MARGINAL_BAND)
    return (sv > tol).sum(axis=-1).tolist(), band.any(axis=-1).tolist()


def outcome(A, tol):
    """``rank_with_margin(A, tol)`` as lists, comparable with ``svd_rank_outcome``."""
    rank, marginal = rank_with_margin(A, tol)
    return np.asarray(rank).tolist(), np.asarray(marginal).tolist()


class TestRanks:
    def test_rank_examples(self):
        X = ef_X()(np.zeros((1, 4)))[0]
        dw = np.array([0, 0, 0, 1.0])
        dz = np.array([0, 0, 1.0, 0])
        dy = np.array([0, 1.0, 0, 0])
        assert distribution_rank([X, dw]) == 2
        assert distribution_rank([X, dw, dz]) == 3
        assert distribution_rank([X, dw, dz, dy]) == 4
        assert distribution_rank(iter([X, dw])) == 2
        assert distribution_rank(v for v in (X, dw, dz)) == 3

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            distribution_rank([])
        with pytest.raises(EmptyInput):
            distribution_rank(iter([]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_stack_has_no_rank(self, bad):
        # the SVD reads an inf entry as rank 0 and raises LinAlgError on a
        # NaN for the whole batch; a rank of such a stack is refused, typed
        A = np.ones((3, 2, 4))
        A[1, 0, 2] = bad
        with pytest.raises(NonFiniteEvaluation, match="rank of 1 of 3 matrices"):
            rank_with_margin(A, RANK_TOL)
        with pytest.raises(NonFiniteEvaluation, match="rank of 1 of 1 matrices"):
            rank_with_margin(A[1], RANK_TOL)
        # a certified (full-rank) stack with one non-finite matrix is refused too
        with pytest.raises(NonFiniteEvaluation, match="rank of 1 of 2 matrices"):
            rank_with_margin(np.stack([np.eye(2, 4), A[1]]), RANK_TOL)
        assert outcome(A[::2], RANK_TOL) == ([1, 1], [False, False])

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(RANK_SHAPES), st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans())
    def test_certificate_agrees_with_the_svd(self, shape, seed, nan):
        # 400 matrices of one caller's shape, one rank short but for one row's
        # residual of tol/1000 to 1000 tol, at scales 1e-5 to 1e5; some are
        # zero; the finite ones read as the SVD reads them, and a stack with
        # an inf, or with ``nan`` a NaN, is refused with its count
        rng = np.random.default_rng(seed)
        A = near_dependent_rows(rng, 400, *shape, RANK_TOL)
        A[rng.random(400) < 0.05] = 0.0
        A[rng.random(400) < 0.02, 0, 0] = np.inf
        if nan:
            A[rng.integers(400), -1, -1] = np.nan
        finite = np.isfinite(A).all(axis=(-2, -1))
        if n_bad := int((~finite).sum()):
            with pytest.raises(NonFiniteEvaluation, match=f"rank of {n_bad} of 400 matrices"):
                rank_with_margin(A, RANK_TOL)
        A = A[finite]
        want = svd_rank_outcome(A, RANK_TOL)
        assert outcome(A, RANK_TOL) == want
        # a single matrix (k, dim), as distribution_rank passes it
        for i in range(0, len(A), 80):
            assert outcome(A[i], RANK_TOL) == (want[0][i], want[1][i])

    def test_svd_runs_only_where_the_certificate_cannot_decide(self, preset_cache,
                                                                monkeypatch):
        passing = preset_cache("lorentz-magnetic")["structure"]
        failing = preset_cache("integrable-counterexample")["structure"]
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(frame_algebra.np.linalg, "svd",
                            lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
        assert verify_engel(passing, n_samples=1000).passed
        assert shapes == []
        # D = <X, W> has rank 2 everywhere; E and [E, E] fall short on every row
        report = verify_engel(failing, n_samples=1000)
        assert (report.rank_D == 2).all() and (report.rank_E < 3).all()
        assert shapes == [(1000, 3, 4), (1000, 6, 4)]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_rank_invariant_under_gl(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.integers(1, 4)
        vecs = rng.normal(size=(k, 4))
        g = rng.normal(size=(k, k)) + 2.0 * np.eye(k)
        if abs(np.linalg.det(g)) < 1e-3:
            return
        assert distribution_rank(list(vecs)) == distribution_rank(list(g @ vecs))


def residual_ratio(frame, vecs, coef):
    """|c F - v| / (|c| |F|) for every vector, |F| the Frobenius norm."""
    resid = np.linalg.norm(np.einsum("nmk,nkd->nmd", coef, frame) - vecs, axis=-1)
    return resid / (np.linalg.norm(coef, axis=-1) * np.linalg.norm(frame, axis=(1, 2))[:, None])


def frames_at_the_refusal(rng, n, dim, factor):
    """``n`` frames whose |det| is ``factor`` times 1e-10 of the product of
    their row lengths: the last row is a point of the other rows' span plus
    t times its unit normal, t solving |t det(f_1, ..., n)| = factor 1e-10
    prod |f_i| sqrt(|g|^2 + t^2)."""
    frame = rng.normal(size=(n, dim, dim))
    normal = np.linalg.svd(frame[:, :-1])[2][:, -1]           # (n, dim), unit
    g = np.einsum("nk,nkd->nd", rng.normal(size=(n, dim - 1)), frame[:, :-1])
    d0 = np.abs(np.linalg.det(np.concatenate([frame[:, :-1], normal[:, None]], axis=1)))
    k = factor * 1e-10 * np.prod(np.linalg.norm(frame[:, :-1], axis=-1), axis=-1)
    t = k * np.linalg.norm(g, axis=-1) / np.sqrt(d0 * d0 - k * k)
    frame[:, -1] = g + t[:, None] * normal
    return frame


class TestFrameCoords:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_random_frames_match_the_solve(self, rng, dim):
        frame, vecs = rng.normal(size=(2000, dim, dim)), rng.normal(size=(2000, 3, dim))
        coef = frame_coords(frame, vecs, "no frame")
        assert coef.shape == (2000, 3, dim)
        assert residual_ratio(frame, vecs, coef).max() <= 1e-13
        want = lapack_coords(frame, vecs)
        assert (np.linalg.norm(coef - want, axis=-1)
                <= 1e-9 * np.linalg.norm(want, axis=-1)).all()

    @pytest.mark.parametrize("dim", [3, 4])
    def test_frames_just_above_the_refusal(self, rng, dim):
        frame = frames_at_the_refusal(rng, 200, dim, 1.01)
        vecs = rng.normal(size=(200, 2, dim))
        assert residual_ratio(frame, vecs, frame_coords(frame, vecs, "no frame")).max() <= 1e-13

    @pytest.mark.parametrize("dim", [3, 4])
    def test_frames_just_below_the_refusal(self, rng, dim):
        # each frame is refused alone and spoils a batch of good frames
        good = rng.normal(size=(8, dim, dim))
        for bad in frames_at_the_refusal(rng, 20, dim, 0.99):
            for frame in (bad[None], np.concatenate([good, bad[None]])):
                with pytest.raises(FrameDegenerate, match="^the caller's message$"):
                    frame_coords(frame, np.ones((len(frame), 1, dim)), "the caller's message")

    @pytest.mark.parametrize("dim", [2, 5])
    def test_other_dimensions_are_refused(self, dim):
        with pytest.raises(DimensionMismatch):
            frame_coords(np.eye(dim)[None], np.ones((1, 1, dim)), "no frame")

    def test_no_linalg_call(self, rng, monkeypatch):
        inputs = {dim: (rng.normal(size=(16, dim, dim)), rng.normal(size=(16, 2, dim)))
                  for dim in (3, 4)}

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called")

        for fn in ("det", "solve", "svd", "norm", "inv", "qr", "lstsq", "eig", "eigh"):
            monkeypatch.setattr(np.linalg, fn, refuse)
        for frame, vecs in inputs.values():
            assert np.isfinite(frame_coords(frame, vecs, "no frame")).all()


def test_complex_step_batched_shape(rng):
    # one (value, derivative) pair per coordinate, each the shape of f(pts);
    # stacked sections keep their axis, and the value is f at the points
    f = ef_X()
    pts = rng.uniform(-1, 1, (7, 4))
    one = list(complex_step(f, pts))
    both = list(complex_step(stacked(f, const_field([0, 1, 0, 0])), pts))
    assert len(one) == len(both) == 4
    for (v, d), (vs, ds) in zip(one, both):
        assert v.shape == d.shape == (7, 4) and vs.shape == ds.shape == (7, 2, 4)
        assert np.array_equal(v, f(pts)) and np.array_equal(vs[:, 0], v)
        assert np.array_equal(ds[:, 0], d) and not ds[:, 1].any()


def test_halton_refuses_negative_skip():
    # a negative Halton index has no digits: every point would be the corner
    assert np.array_equal(halton_points(3, 4, skip=0)[0], [0.5, 1 / 3, 0.2, 1 / 7])
    with pytest.raises(ValueError, match="skip must be >= 0"):
        halton_points(5, 4, skip=-200)


def test_bracket_chart_refuses_unstacked_values():
    with pytest.raises(DimensionMismatch):
        bracket_chart(ef_X(), [(0, 0)], np.zeros((3, 4)))


def test_bracket_chart_refuses_a_float_allocation(preset_cache):
    # a frame copied into a float array drops the imaginary part of the
    # complex step, which would read as a zero bracket
    model = preset_cache("lorentz-magnetic")["structure"].model
    pts = sample_box(model, 5)

    def float_frame(q):
        F = np.zeros((len(q), 4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
            F[:] = model.frame(q)
        return F

    assert np.abs(bracket_chart(model.frame, [(0, 1)], pts)).max() > 0.1
    with pytest.raises(TypeError, match="real values at complex points"):
        bracket_chart(float_frame, [(0, 1)], pts)


@pytest.mark.filterwarnings("error")
def test_bracket_chart_refuses_an_infinite_field():
    # NonFiniteEvaluation is the only signal: no RuntimeWarning before it
    inf = ChartVectorField(lambda pts: np.full(pts.shape, np.inf))
    with pytest.raises(NonFiniteEvaluation):
        bracket_chart(stacked(ef_X(), inf), [(0, 1)], np.zeros((2, 4)))


class TestModelRefusals:
    def test_box_must_be_dim_by_two(self):
        with pytest.raises(DimensionMismatch, match=r"box must be \(dim, 2\)"):
            ChartModel(3, [[0, 1], [0, 1]], coordinate_frame(3))

    def test_halton_needs_at_most_six_dimensions(self):
        with pytest.raises(DimensionMismatch, match="dim <= 6"):
            halton_points(4, 7)

    def test_function_section_has_no_constant_coefficients(self):
        with pytest.raises(DimensionMismatch, match="'f' has non-constant coefficients"):
            Section(lambda pts: (pts[:, 0], 0, 0), "f").constant_coeffs()


class TestModelProtocol:
    def test_chart_values_match_per_section_fields(self, preset_cache):
        # on every chart preset, one values call over all its sections agrees
        # with each realized field, the fused one of a constant section
        # included, on a batch and on a one-point batch, and that point with
        # its row
        for name in [p for p in preset_names() if not p.endswith("-lie")]:
            s = preset_cache(name)["structure"]
            sections = [*s.D_span, *s.E_span, s.W_section, s.transverse_section]
            assert any(sec.is_constant for sec in sections), name
            pts = sample_box(s.model, 7)
            vals = s.model.values(sections, pts)
            assert vals.shape == (7, len(sections), s.model.dim)
            for k, sec in enumerate(sections):
                f = s.model.field(sec)
                assert np.array_equal(vals[:, k], f(pts)), (name, sec.name)
                one = s.model.values([sec], pts[3:4])[0, 0]
                assert np.array_equal(one, f(pts[3:4])[0]), (name, sec.name)
                assert np.array_equal(one, vals[3, k]), (name, sec.name)

    def test_orbit_through_a_nan_frame_raises(self):
        # the frame is NaN past x = 0.5, inside the box: a NaN is no chart exit
        def rows(p):
            nan = np.where(p[:, 0] > 0.5, np.nan, 0.0)
            return (1 + nan, nan), (nan, 1 + nan)

        model = ChartModel(2, [[-1, 1], [-1, 1]], rows)
        with pytest.raises(NonFiniteEvaluation, match="at step 50 of 100"):
            model.flow(Section((1, 0), "dx"), np.zeros(2), 1.0, 0.01)

    def test_box_test_skips_the_periodic_coordinates(self):
        model = ChartModel(2, [[-1, 1], [0, 1]], coordinate_frame(2), periodic={1: 1.0})
        pts = np.array([[0.5, 7.0], [1.5, 0.5], [np.nan, 0.5], [1.0 + 1e-10, -3.0]])
        assert np.array_equal(model.contains(pts), [True, False, False, False])
        assert np.array_equal(model.contains(pts, pad=1e-9), [True, False, False, True])
        assert np.array_equal(model.contains(pts[:1]), [True])
        assert np.array_equal(model.contains(pts[1:2]), [False])
        with pytest.raises(TypeError):     # the bounds of the box test keep their periods
            model.periodic[0] = 2.0

    def test_vector_coefficients_match_tuple(self):
        # columns returned as a mix of numbers and (n,) arrays, or as one
        # hand-built (dim, n) array, give the same section
        s = darboux_standard()
        pts = sample_box(s.model, 5)
        tup = Section(lambda p: (1, 0, -p[:, 3], 0))
        vec = Section(lambda p: np.stack([np.ones(len(p)), np.zeros(len(p)),
                                          -p[:, 3], np.zeros(len(p))]))
        assert not tup.is_constant and not vec.is_constant
        assert np.array_equal(tup.coeff_at(pts), vec.coeff_at(pts))
        assert np.array_equal(tup.coeff_at(pts[2:3]), vec.coeff_at(pts)[2:3])
        assert np.array_equal(s.model.values([tup], pts), s.model.values([vec], pts))
        assert np.array_equal(s.model.brackets([tup, s.W_section], [(0, 1)], pts),
                              s.model.brackets([vec, s.W_section], [(0, 1)], pts))
        # sum_i c_i F_i accumulated from zero in frame order, by hand
        F = s.model.frame(pts)
        want = F[:, 0] + 0.0 * F[:, 1] + (-pts[:, 3, None]) * F[:, 2] + 0.0 * F[:, 3]
        assert np.array_equal(s.model.values([tup], pts)[:, 0], want)

    def test_tuple_holding_a_callable_is_refused(self):
        with pytest.raises(TypeError, match="row of numbers or one function"):
            Section((1, 0, lambda p: -p[:, 3], 0), "X-wZ")

    def test_constant_section_row(self):
        sec = Section((1, 0, -2.5, 0))
        pts = np.zeros((3, 4))
        assert np.array_equal(sec.coeff_at(pts), np.tile([1.0, 0.0, -2.5, 0.0], (3, 1)))
        assert np.array_equal(sec.coeff_at(pts[:1]), [[1.0, 0.0, -2.5, 0.0]])
        row = sec.constant_coeffs()
        row[0] = 7.0
        assert sec.constant_coeffs()[0] == 1.0 and sec.coeff_at(pts)[0, 0] == 1.0

    def test_lie_protocol_broadcasts(self, magnetic):
        # a Lie model answers one row at any points, which broadcasts
        a, b = Section((1, 0, 1, 0)), Section((0, 0, 0, 1))
        pts = np.ones((3, 4))
        for p in (pts, pts[0], None):
            assert np.array_equal(magnetic.values([a, b], p), [[[1, 0, 1, 0], [0, 0, 0, 1]]])
        expected = [bracket_lie(magnetic, a.constant_coeffs(), b.constant_coeffs()),
                    bracket_lie(magnetic, b.constant_coeffs(), a.constant_coeffs())]
        for p in (pts, pts[0], None):
            assert np.array_equal(magnetic.brackets([a, b], [(0, 1), (1, 0)], p), [expected])
        assert np.array_equal(magnetic.sample(7), np.zeros((1, 4)))
        assert np.array_equal(magnetic.point(0.6), np.zeros((1, 4)))
        assert np.array_equal(magnetic.wrap(pts), pts)

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (3, 5)])
    @pytest.mark.parametrize("method", ["values", "brackets", "contains", "wrap"])
    def test_chart_takes_batches_of_its_width_only(self, method, shape):
        # a single point or a batch of another width is refused: read as a
        # batch, a single point would lose its batch axis in bracket_chart
        s = darboux_standard()
        call = {"values": lambda p: s.model.values(s.D_span, p),
                "brackets": lambda p: s.model.brackets(s.D_span, [(0, 1)], p),
                "contains": s.model.contains, "wrap": s.model.wrap}[method]
        assert call(np.zeros((3, 4))).shape[0] == 3
        with pytest.raises(DimensionMismatch, match=r"expected \(n, 4\)"):
            call(np.zeros(shape))

    def test_chart_model_needs_points(self):
        s = darboux_standard()
        for call in (lambda: s.model.values(s.D_span, None),
                     lambda: s.model.brackets(s.D_span, [(0, 1)], None),
                     lambda: s.model.contains(None), lambda: s.model.wrap(None)):
            with pytest.raises(DimensionMismatch):
                call()

    @pytest.mark.parametrize("name", [p for p in preset_names() if not p.endswith("-lie")])
    def test_frame_is_batched_and_row_independent(self, preset_cache, name):
        # batched RK4 rows are bit-identical to single orbits only if every
        # frame and section row is: each row of a batch equals that point
        # evaluated alone
        s = preset_cache(name)["structure"]
        model = s.model
        sections = [*s.D_span, *s.E_span, s.W_section]
        pts = sample_box(model, 64)
        F = model.frame(pts)
        vals = model.values(sections, pts)
        assert F.shape == (64, model.dim, model.dim)
        for i in range(len(pts)):
            assert np.array_equal(F[i], model.frame(pts[i:i + 1])[0])
            assert np.array_equal(vals[i], model.values(sections, pts[i:i + 1])[0])

    def test_values_sum_in_frame_order(self, rng):
        # a dense frame and dense coefficients, so any other summation order
        # shows: one point (float entries) and a batch (columns) both give
        # sum_i c_i F_i accumulated from zero in frame order, in entries, in
        # values and in the field of a constant section
        B, C, M = rng.standard_normal((3, 4, 4))
        model = ChartModel(4, [[-1, 1]] * 4, lambda p: [[np.cos(x * B[i, j] + C[i, j])
                                                          for j, x in enumerate(_columns(p))]
                                                         for i in range(4)])
        sections = [Section(lambda p, j=j: np.sin(p @ M + j).T) for j in range(3)]
        dense = Section(tuple(rng.standard_normal(4)))
        for pts in (rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, (50, 4))):
            F = model.frame(pts)
            co = np.stack([s.coeff_at(pts) for s in [*sections, dense]], axis=1)
            want = np.zeros(co.shape)
            for i in range(4):
                want += co[:, :, i:i + 1] * F[:, None, i, :]
            assert np.array_equal(model.values([*sections, dense], pts), want)
            entries = np.array([[np.broadcast_to(e, len(pts)) for e in comps]
                                for comps in model.entries([*sections, dense], pts)])
            assert entries.transpose(2, 0, 1).tobytes() == want.tobytes()
            assert model.field(dense)(pts).tobytes() == want[:, 3].tobytes()

    def test_section_of_wrong_length_is_refused(self):
        # three coefficients on a 4-dim chart, as a row or as columns
        s = darboux_standard()
        for sec in (Section((1, 0, 0)), Section(lambda p: (p[:, 0], 0, 1))):
            for pts in (np.zeros((1, 4)), np.zeros((2, 4))):
                with pytest.raises(DimensionMismatch, match="does not match the model frame"):
                    s.model.values([s.W_section, sec], pts)

    @pytest.mark.parametrize("rows", [
        coordinate_frame(3), lambda p: (*coordinate_frame(4)(p)[:3], (0, 0, 1)),
        lambda p: coordinate_frame(3 if len(p) == 1 else 4)(p),
        lambda p: coordinate_frame(4 if len(p) == 1 else 3)(p)])
    def test_frame_of_wrong_shape_is_refused(self, rows):
        # three rows on a 4-dim chart, or four rows of which one has three
        # entries, at one point or at a batch: the model refuses them when made
        with pytest.raises(DimensionMismatch, match="frame rows have"):
            ChartModel(4, [[-1, 1]] * 4, rows)

    @pytest.mark.parametrize("name", [p for p in preset_names() if not p.endswith("-lie")])
    def test_constant_field_is_the_whole_frame_sum(self, preset_cache, name):
        # entries skip zero coefficients and int entries 0 and work on floats
        # at one point; the sum here keeps every term of sum_i c_i F_i, from
        # zero in frame order, on the whole frame array, for every section of
        # the preset, a non-constant one through its coefficient columns
        s = preset_cache(name)["structure"]
        sections = [*s.D_span, *s.E_span, s.W_section, s.transverse_section, *s.emw_frame]
        for B in (1, 3, 64):
            pts = sample_box(s.model, B)
            F = s.model.frame(pts)
            want = np.zeros((B, len(sections), s.model.dim))
            for k, sec in enumerate(sections):
                co = sec.coeff_at(pts)
                for i in range(s.model.dim):
                    want[:, k] += co[:, i, None] * F[:, i]
            got = s.model.values(sections, pts)
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), B
            entries = np.array([[np.broadcast_to(e, B) for e in comps]
                                for comps in s.model.entries(sections, pts)])
            assert entries.transpose(2, 0, 1).tobytes() == want.tobytes(), B
            for k, sec in enumerate(sections):
                got = s.model.field(sec)(pts)
                assert got.shape == want[:, k].shape, (B, sec.name)
                assert got.tobytes() == want[:, k].tobytes(), (B, sec.name)

    @pytest.mark.parametrize("name", ["lorentz-magnetic", "lorentz-product"])
    @pytest.mark.parametrize("kappa", [-1.0, -0.5, 0.5, 1.0])
    def test_lie_twin_brackets_match_chart(self, preset_cache, name, kappa):
        # every pair of constant D/E sections: the chart bracket, resolved in
        # the chart frame at interior points, is the twin's exact bracket
        chart = preset_cache(name, kappa=kappa)["structure"]
        lie = preset_cache(name + "-lie", kappa=kappa)["structure"]
        mid = chart.model.box.mean(axis=1)
        pts = mid + 0.5 * (sample_box(chart.model, 20) - mid)
        frame = np.swapaxes(chart.model.frame(pts), 1, 2)
        sections, twins = [*chart.D_span, *chart.E_span], [*lie.D_span, *lie.E_span]
        assert all(c.coeffs == t.coeffs and c.is_constant for c, t in zip(sections, twins))
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        br = chart.model.brackets(sections, pairs, pts)
        coef = np.linalg.solve(frame[:, None], br[..., None])[..., 0]
        exact = lie.model.brackets(twins, pairs, pts)
        err = np.abs(coef - exact).max(axis=(0, 2))
        assert err.max() < 1e-13, [(sections[i].name, sections[j].name, e)
                                   for (i, j), e in zip(pairs, err) if e >= 1e-13]

    @pytest.mark.parametrize("name, closes_after", [
        ("cartan-r3", np.pi), ("propellor-cat", 2 * np.pi), ("darboux", None)])
    def test_batched_distance_equals_one_row_calls(self, preset_cache, name, closes_after):
        # the Cartan fiber closes after pi, inside its chart period 2 pi
        m = preset_cache(name)["structure"].model
        q = sample_box(m, 1)[0]
        pts = sample_box(m, 40, skip=7)
        turns = np.arange(-5, 5) * np.pi
        pts[::4] = q + turns[:, None] * np.eye(m.dim)[-1]
        d = m.distance(pts, q)
        assert d.shape == (40,)
        assert np.array_equal(d, [m.distance(p, q) for p in pts])
        want = turns == 0 if closes_after is None else np.isclose(turns % closes_after, 0)
        assert np.array_equal(d[::4] < 1e-14, want)

    @pytest.mark.parametrize("name", [p for p in preset_names() if not p.endswith("-lie")])
    def test_batched_brackets_equal_one_pair_calls(self, preset_cache, name):
        # a section's values row does not depend on the other sections in the
        # call, and each pair contracts its own derivative columns, so one
        # call over all pairs is bit-identical to one pair of sections at a time
        s = preset_cache(name)["structure"]
        sections = [*s.D_span, *s.E_span, s.W_section]
        pairs = [(i, j) for i in range(6) for j in range(6) if i != j]
        pts = sample_box(s.model, 20)
        br = s.model.brackets(sections, pairs, pts)
        assert br.shape == (20, len(pairs), s.model.dim)
        for k, (i, j) in enumerate(pairs):
            one = s.model.brackets([sections[i], sections[j]], [(0, 1)], pts)[:, 0]
            assert np.array_equal(br[:, k], one), (sections[i].name, sections[j].name)
        assert np.array_equal(s.model.brackets(sections, pairs, pts[:1]), br[:1])

    @pytest.mark.parametrize("name", CHART_PRESETS)
    def test_complex_step_brackets_match_central_differences(self, preset_cache, name):
        # every frame entry and coefficient on the path is analytic, so the
        # complex-step bracket of each D/E/W pair is a central difference at
        # h = 1e-5 up to that difference's error; an abs, a comparison or a
        # mod on the path would break the complex step and show here
        s = preset_cache(name)["structure"]
        sections = [*s.D_span, *s.E_span, s.W_section]
        pairs = np.array([(i, j) for i in range(6) for j in range(6) if i != j])
        pts = sample_box(s.model, 50)
        values = lambda q: s.model.values(sections, q)
        J, vals = fd_jacobian(values, pts, 1e-5), values(pts)
        a, b = pairs.T
        fd = (np.einsum("npij,npj->npi", J[:, b], vals[:, a])
              - np.einsum("npij,npj->npi", J[:, a], vals[:, b]))
        err = np.abs(s.model.brackets(sections, pairs, pts) - fd).max(axis=(1, 2))
        assert (err <= 1e-8 * np.abs(fd).max(axis=(1, 2))).all(), err.max()

    @pytest.mark.parametrize("name", CHART_PRESETS)
    def test_realized_field_takes_the_complex_step(self, preset_cache, name):
        # model.field allocates in the points' dtype, as model.values does, so
        # a realized field equals the values of its section byte for byte at
        # one point, at a batch and through the complex step, for every
        # section of the structure; a float allocation would drop the
        # imaginary part
        s = preset_cache(name)["structure"]
        pts = sample_box(s.model, 16)
        for sec in structure_sections(s):
            field = s.model.field(sec)
            values = lambda q: s.model.values([sec], q)[:, 0]
            for q in (pts[:1], pts[:3]):
                got = field(q)
                assert got.dtype == float and got.tobytes() == values(q).tobytes(), sec.name
            with warnings.catch_warnings():
                warnings.simplefilter("error", np.exceptions.ComplexWarning)
                got = list(complex_step(field, pts))
            for (v, d), (v_want, d_want) in zip(got, complex_step(values, pts), strict=True):
                assert v.tobytes() == v_want.tobytes() and d.tobytes() == d_want.tobytes()

    @pytest.mark.parametrize("name", CHART_PRESETS)
    def test_realized_field_calls_neither_values_nor_entries(self, preset_cache, name,
                                                            monkeypatch):
        # one closure evaluates every section: the frame rows once, then the
        # section's terms; a frame built on another chart's entries (the
        # rotating planes) still reads that chart's, not this one's
        s = preset_cache(name)["structure"]
        pts = sample_box(s.model, 3)
        fields = [(sec.name, s.model.field(sec)) for sec in structure_sections(s)]
        for method in ("values", "entries"):
            monkeypatch.setattr(s.model, method, lambda *a, method=method: pytest.fail(
                f"field evaluation called ChartModel.{method}"))
        for sec_name, field in fields:
            for q in (pts[:1], pts):
                assert field(q).shape == q.shape, sec_name

    @pytest.mark.parametrize("name", CHART_PRESETS)
    def test_bracket_and_generator_rows_equal_one_point_calls(self, preset_cache, name):
        # a single complex point takes the columns of a batch, not Python
        # scalars, so every row is its one-point call bit for bit; the
        # integrable counterexample has no E/W transport
        s = preset_cache(name)["structure"]
        sections = [*s.D_span, *s.E_span, s.W_section]
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        pts = sample_box(s.model, 64)
        calls = [lambda q: s.model.brackets(sections, pairs, q)]
        if name != "integrable-counterexample":
            calls.append(lambda q: transport_generator(s, q))
        for call in calls:
            rows = call(pts)
            for i in range(len(pts)):
                assert rows[i].tobytes() == call(pts[i:i + 1])[0].tobytes(), i


LOOP_PRESETS = ("lorentz-magnetic", "lorentz-product", "magnetic-bump")


def same_orbits(a, b):
    """Two (times, points, kept) flows agree bit for bit, NaN tails included."""
    return all(x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


class TestConstantFlow:
    @pytest.mark.parametrize("name", CHART_PRESETS)
    def test_flow_is_the_rk4_loop_bit_for_bit(self, preset_cache, name):
        # forward, backward and long enough that darboux and
        # suspension-identity rows leave the box and cartan-r3 and
        # propellor-cat rows run past their periodic coordinate
        s = preset_cache(name)["structure"]
        model, W = s.model, s.W_section
        assert (model._constant_velocity(W) is None) == (name in LOOP_PRESETS)
        starts = sample_box(model, 3)
        for T in (1.5, -1.5, 8.0):
            got = model.flow(W, starts, T, 0.05)
            want = _rk4_orbits(model.field(W), starts, T, 0.05, model)
            assert same_orbits(got, want), (name, T)
            _, pts, kept = got
            if T == 8.0 and name in ("darboux", "suspension-identity"):
                assert (kept < 160).all() and np.isnan(pts[:, -1]).all()
            if T == 8.0 and name in ("cartan-r3", "propellor-cat"):
                assert (kept == 160).all() and (pts[:, -1] > model.box[:, 1]).any(axis=1).all()

    def test_rows_that_leave_and_rows_that_stay(self, preset_cache):
        # one batch whose rows leave at different steps or not at all, on a
        # constant field of two coordinate rows whose RK4 increment rounds
        model = preset_cache("darboux")["structure"].model
        W = Section((0, 0, 0.3, 0.7), "0.3 d/dz + 0.7 d/dw")
        starts = np.array([[0, 0, 0, w] for w in (-1.9, 0.0, 1.0, 1.99)], dtype=float)
        got = model.flow(W, starts, 3.7, 0.013)
        assert same_orbits(got, _rk4_orbits(model.field(W), starts, 3.7, 0.013, model))
        assert np.array_equal(got[2] < 285, [False, True, True, True])

    @pytest.mark.parametrize("name", ["darboux", "prequantum-local", "lorentz-magnetic"])
    def test_start_outside_the_box_exits_at_zero(self, preset_cache, name):
        # coordinate 0 is not periodic on these charts
        s = preset_cache(name)["structure"]
        starts = sample_box(s.model, 2)
        starts[1, 0] = s.model.box[0, 1] + 0.5
        for flow in (lambda: s.model.flow(s.W_section, starts, 1.0, 0.1),
                     lambda: _rk4_orbits(s.model.field(s.W_section), starts, 1.0, 0.1, s.model)):
            with pytest.raises(ChartExit) as err:
                flow()
            assert err.value.t_exit == 0.0 and "outside the chart box" in str(err.value)

    def test_infinite_coefficient_raises_at_step_one(self, preset_cache):
        model = preset_cache("darboux")["structure"].model
        W = Section((0, 0, 0, np.inf), "inf W")
        assert model._constant_velocity(W) is not None
        starts = sample_box(model, 2)
        for flow in (lambda: model.flow(W, starts, 1.0, 0.1),
                     lambda: _rk4_orbits(model.field(W), starts, 1.0, 0.1, model)):
            with pytest.raises(NonFiniteEvaluation, match="at step 1 of 10"):
                flow()

    def test_a_field_reading_a_column_steps_the_loop(self, preset_cache, monkeypatch):
        # lorentz-magnetic's W reads the frame rows X and Y, whose entries are
        # columns: its flow runs the RK4 loop; propellor-cat's W = d/dq3 does not
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _rk4_orbits(*args, **kwargs)

        monkeypatch.setattr(frame_algebra, "_rk4_orbits", counted)
        for name, loops in (("lorentz-magnetic", True), ("propellor-cat", False)):
            s = preset_cache(name)["structure"]
            calls.clear()
            s.model.flow(s.W_section, sample_box(s.model, 2), 0.2, 0.1)
            assert len(calls) == int(loops), name
