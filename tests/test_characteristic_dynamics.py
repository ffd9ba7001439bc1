"""Characteristic flow, E/W transport, projective classification, and the
global type estimator."""
import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

import engel_lab
from engel_lab import characteristic_dynamics as dyn
from engel_lab._kernels import _trace_split, expm2, transport_rk4
from engel_lab.characteristic_dynamics import (
    _CLOSE_EPS,
    HolonomyLift,
    OrbitTrace,
    ProjectiveType,
    _parabolic_sign,
    classify_projective,
    closed_form_exp,
    closed_orbit_holonomy,
    developing_map,
    estimate_global_type,
    geodesic_projection_check,
    integrate_characteristic,
    integrate_orbits,
    lift_angle_mod_pi,
    orbits_within_chart,
    transport_EmodW,
    transport_generator,
    two_sided_orbit,
)
from engel_lab.cli import KAPPA_SWEEP
from engel_lab.engel_verify import darboux_standard, line_angle, sample_box
from engel_lab.errors import (AmbiguousClass, ChartExit, DegenerateKernel, DimensionMismatch,
                              FrameDegenerate, MonotonicityViolation, NonFiniteEvaluation,
                              StepTooLarge)
from engel_lab.frame_algebra import Section, _rk4_orbits

from conftest import (binade_entries, first_return_reference, lapack_eigen, lapack_fit,
                      lapack_image, lapack_sigma1, rel_err, sequential_transport)

KAPPAS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)


class TestIntegrate:
    def test_darboux_w_line(self):
        s = darboux_standard()
        orbit = integrate_characteristic(s, np.zeros(4), 1.5, 1e-3)
        want = np.zeros_like(orbit.points)
        want[:, 3] = orbit.times
        assert np.abs(orbit.points - want).max() < 1e-12

    def test_magnetic_lie_orbit_keeps_theta_for_kappa_minus_one(self, preset_cache):
        s = preset_cache("lorentz-magnetic-lie", kappa=-1.0)["structure"]
        p0 = np.array([0.3, 0.1, -0.2, 0.7])
        orbit = integrate_characteristic(s, p0, 2.0, 1e-2)
        assert np.abs(orbit.points[:, 3] - 0.7).max() < 1e-14

    def test_flat_product_orbit_is_a_line_of_slope_one(self, preset_cache):
        # with phi = 0 the orbit moves in (x, theta) with slope (1, 1)
        s = preset_cache("lorentz-product", kappa=0.0)["structure"]
        p0 = np.array([0.0, 0.2, 0.0, 0.0])
        orbit = integrate_characteristic(s, p0, 2.0, 1e-3)
        assert np.abs(orbit.points[:, 0] - orbit.times).max() < 1e-12
        assert np.abs(orbit.points[:, 3] - orbit.times).max() < 1e-12
        assert np.abs(orbit.points[:, 1] - 0.2).max() < 1e-12

    def test_chart_exit_reported(self):
        s = darboux_standard()
        with pytest.raises(ChartExit):
            integrate_characteristic(s, np.zeros(4), 5.0, 1e-2)

    def test_exit_within_ten_steps_cannot_be_cut_back(self):
        # W = d/dw from w = 1.95 leaves the box [-2, 2]^4 at t = 0.06, before
        # the shortest cut orbit of 10 dt
        s = darboux_standard()
        with pytest.raises(ChartExit) as e:
            orbits_within_chart(s, np.array([0.0, 0.0, 0.0, 1.95]), 1.0, 1e-2)
        assert e.value.t_exit == pytest.approx(0.06)

    @pytest.mark.parametrize("name, kw, T, n_exits", [
        ("propellor-cat", {}, 1.0, 0),
        ("lorentz-magnetic", {"kappa": -1.0}, 1.5, 1),
    ])
    def test_batch_rows_match_single_orbits(self, preset_cache, name, kw, T, n_exits):
        # the start points of estimate_global_type, integrated as one batch
        s = preset_cache(name, **kw)["structure"]
        mid = s.model.box.mean(axis=1)
        starts = mid + 0.5 * (sample_box(s.model, 3, skip=300) - mid)
        dt = 1e-2
        times, pts, kept = integrate_orbits(s, starts, T, dt)
        nsteps = len(times) - 1
        exits = 0
        for p0, row, k in zip(starts, pts, kept):
            try:
                single = integrate_characteristic(s, p0, T, dt)
            except ChartExit as e:
                exits += 1
                assert k < nsteps and e.t_exit == (k + 1) * (T / nsteps)
                # the exiting row keeps the unchecked path up to its exit
                _, (path,), _ = _rk4_orbits(s.model.field(s.W_section), p0, T, dt)
                assert np.array_equal(row[:k + 1], path[:k + 1])
                assert np.isnan(row[k + 1:]).all()
            else:
                assert k == nsteps
                assert np.array_equal(times, single.times)
                assert np.array_equal(row, single.points)
        assert exits == n_exits

    def test_crossing_a_periodic_seam_is_no_chart_exit(self, preset_cache):
        # the propellor W is d/dt, and t runs over the box [0, 1] with period 1
        s = preset_cache("propellor-cat")["structure"]
        times, pts, kept = integrate_orbits(s, [0.5, 0.5, 0.9, 1.0], 0.5, 1e-2)
        assert kept[0] == len(times) - 1
        assert pts[0, -1, 2] > s.model.box[2, 1]
        assert np.abs(pts[0, :, 2] - (0.9 + times)).max() < 1e-12

    def test_default_orbit_start_exit_time(self, preset_cache):
        # the start of `orbit --preset lorentz-magnetic --kappa -0.5`
        s = preset_cache("lorentz-magnetic", kappa=-0.5)["structure"]
        with pytest.raises(ChartExit) as exc:
            integrate_characteristic(s, s.model.point(0.6), 5.0, 1e-3)
        assert exc.value.t_exit == 2.073

    @pytest.mark.parametrize("name", ["lorentz-magnetic", "lorentz-magnetic-lie"])
    def test_two_sided_matches_separate_orbits(self, preset_cache, name):
        s = preset_cache(name, kappa=-1.0)["structure"]
        p0 = np.array([0.0, 0.0, np.pi / 2, 0.0])
        orbit = two_sided_orbit(s, p0, 1.0, 1e-2)
        back = integrate_characteristic(s, p0, -0.5, 1e-2)
        fwd = integrate_characteristic(s, p0, 0.5, 1e-2)
        assert np.array_equal(orbit.times, np.concatenate([back.times[::-1], fwd.times[1:]]))
        assert np.array_equal(orbit.points, np.concatenate([back.points[::-1], fwd.points[1:]]))

    def test_two_sided_reports_backward_exit_first(self, preset_cache):
        s = preset_cache("lorentz-magnetic", kappa=1.0)["structure"]
        box = s.model.box
        p0 = box.mean(axis=1) + 0.1 * (box[:, 1] - box[:, 0])
        with pytest.raises(ChartExit) as back:
            integrate_characteristic(s, p0, -3.0, 1e-2)
        with pytest.raises(ChartExit):
            integrate_characteristic(s, p0, 3.0, 1e-2)
        with pytest.raises(ChartExit) as both:
            two_sided_orbit(s, p0, 6.0, 1e-2)
        assert both.value.t_exit == back.value.t_exit < 0

    def test_reversibility(self, preset_cache):
        s = preset_cache("lorentz-magnetic", kappa=-0.5)["structure"]
        p0 = np.array([0.05, -0.04, 0.3, 0.2])
        fwd = integrate_characteristic(s, p0, 1.0, 1e-3)
        back = integrate_characteristic(s, fwd.points[-1], -1.0, 1e-3)
        assert np.abs(back.points[-1] - p0).max() < 1e-6


class TestTransport:
    @pytest.mark.parametrize("kappa", KAPPAS + (-3.0, -1.5, 2.0))
    def test_magnetic_generator(self, preset_cache, kappa):
        # A = [[0, -kappa(kappa+1)], [1, 0]] in the (Theta, Yt) frame; Cramer's
        # rule in the exact frame gives every entry to the last bit
        s = preset_cache("lorentz-magnetic-lie", kappa=kappa)["structure"]
        c = kappa * (kappa + 1.0)
        assert np.array_equal(transport_generator(s), [[0.0, -c], [1.0, 0.0]])

    def test_product_generator(self, preset_cache):
        # (Y, Z) frame: exp(tA) solves the Jacobi equation y'' + kappa y = 0
        for kappa in (1.0, 0.0, -1.0):
            s = preset_cache("lorentz-product-lie", kappa=kappa)["structure"]
            A = transport_generator(s)
            assert np.array_equal(A, [[0.0, 1.0], [-kappa, 0.0]])

    def test_generator_refuses_brackets_outside_E(self):
        # with W = X and the frame (d/dw, Z), [X, Z] = -Y leaves E
        s = dataclasses.replace(darboux_standard(), W_section=Section((1, 0, 0, 0), "X"),
                                emw_frame=(Section((0, 0, 0, 1), "dw"),
                                           Section((0, 0, 1, 0), "Z")))
        with pytest.raises(FrameDegenerate, match="does not lie in E"):
            transport_generator(s, sample_box(s.model, 10))

    @pytest.mark.parametrize("name", ["lorentz-magnetic", "lorentz-product"])
    @pytest.mark.parametrize("kappa", KAPPA_SWEEP)
    def test_chart_generator_matches_lie_twin(self, preset_cache, name, kappa):
        # the chart A, from central-difference brackets at interior points,
        # is the exact A of the -lie twin
        chart = preset_cache(name, kappa=kappa)["structure"]
        lie = preset_cache(name + "-lie", kappa=kappa)["structure"]
        mid = chart.model.box.mean(axis=1)
        pts = mid + 0.5 * (sample_box(chart.model, 20) - mid)
        assert np.abs(transport_generator(chart, pts) - transport_generator(lie)).max() < 1e-8

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_numeric_matches_closed_form_lie(self, preset_cache, kappa):
        s = preset_cache("lorentz-magnetic-lie", kappa=kappa)["structure"]
        orbit = integrate_characteristic(s, np.zeros(4), 1.0, 1e-3)
        orbit = transport_EmodW(s, orbit)
        Mcf = closed_form_exp(transport_generator(s))(1.0)
        assert np.abs(orbit.M[-1] - Mcf).max() < 1e-6

    def test_numeric_matches_closed_form_chart(self, preset_cache):
        # chart realization against the exact Lie holonomy
        for kappa in (-0.5, 0.5):
            chart = preset_cache("lorentz-magnetic", kappa=kappa)["structure"]
            lie = preset_cache("lorentz-magnetic-lie", kappa=kappa)["structure"]
            p0 = np.array([0.03, -0.02, 0.4, 0.1])
            orbit = integrate_characteristic(chart, p0, 1.0, 1e-3)
            orbit = transport_EmodW(chart, orbit)
            Mcf = closed_form_exp(transport_generator(lie))(1.0)
            assert np.abs(orbit.M[-1] - Mcf).max() < 1e-6

    def test_parabolic_exact_shear(self, preset_cache):
        for kappa in (0.0, -1.0):
            s = preset_cache("lorentz-magnetic-lie", kappa=kappa)["structure"]
            orbit = integrate_characteristic(s, np.zeros(4), 2.0, 1e-3)
            orbit = transport_EmodW(s, orbit)
            t = orbit.times
            want = np.broadcast_to(np.eye(2), orbit.M.shape).copy()
            want[:, 1, 0] = t
            assert np.abs(orbit.M - want).max() < 1e-6

    def test_dets_stay_unimodular(self, preset_cache):
        s = preset_cache("lorentz-magnetic-lie", kappa=-0.5)["structure"]
        orbit = integrate_characteristic(s, np.zeros(4), 20.0, 1e-2)
        orbit = transport_EmodW(s, orbit, angles=False)
        assert np.abs(orbit.dets - 1.0).max() < 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_names_its_first_time(self, preset_cache):
        # at kappa = -0.5 M grows like e^(t/2) and leaves the finite floats
        # near t = 2 log(max float) = 1419.6: reported there, never as NaN
        s = preset_cache("lorentz-magnetic-lie", kappa=-0.5)["structure"]
        orbit = integrate_characteristic(s, np.zeros(4), 1500.0, 0.05)
        for angles in (True, False):
            with pytest.raises(NonFiniteEvaluation, match=r"finite floats at t = 14(19|20)\.\d+$"):
                transport_EmodW(s, orbit, angles=angles)


class TestMagnus:
    GENERATORS = {
        "elliptic": [[0.0, -2.0], [1.0, 0.0]],
        "hyperbolic": [[0.0, 0.25], [1.0, 0.0]],
        "nilpotent": [[0.0, 0.0], [1.0, 0.0]],
        "zero": [[0.0, 0.0], [0.0, 0.0]],
        "tiny_r2": [[0.0, 1e-11], [1e-11, 0.0]],
        "traced": [[0.3, -1.0], [2.0, -0.1]],
    }

    @pytest.mark.parametrize("name", GENERATORS)
    def test_expm2_matches_scipy(self, name):
        A = np.array(self.GENERATORS[name])
        for t in (1e-3, 1.0, 20.0):
            assert rel_err(expm2((t * A)[None])[0], expm(t * A)) < 1e-12

    def test_dets_are_exp_of_summed_traces(self, rng):
        A = rng.normal(scale=0.3, size=(2 * 40 + 1, 2, 2))
        M, dets = transport_rk4(A, 1e-2)
        assert M.shape == (41, 2, 2) and dets.shape == (41,)
        assert np.abs(np.linalg.det(M) / dets - 1.0).max() < 1e-12

    @pytest.mark.skipif(platform.machine() != "x86_64",
                        reason="OPENBLAS_CORETYPE names x86_64 kernels")
    def test_bits_do_not_depend_on_the_blas_kernel(self):
        # each program runs in two child processes, one on OpenBLAS's non-FMA
        # Prescott kernel and one on the kernel it detects: a seeded 1000-step
        # transport; the E/W generator and the D/W line, both read by
        # frame_coords, at 4001 Halton points of three chart presets; and the
        # 2x2 algebra of the dynamics: the classify artifacts of the two
        # classify tasks of the dynamics benchmark and of bi-engel-cat, and
        # the closed-orbit holonomy of the flat torus
        transport = ("import sys, numpy as np; from engel_lab._kernels import transport_rk4; "
                     "A = np.random.default_rng(7).normal(scale=0.3, size=(2001, 2, 2)); "
                     "M, dets = transport_rk4(A, 1e-2); "
                     "sys.stdout.buffer.write(M.tobytes() + dets.tobytes())")
        frames = ("import sys; from engel_lab.presets import build_preset; "
                  "from engel_lab.characteristic_dynamics import _dw_coords, transport_generator\n"
                  "for name, kw in (('propellor-cat', {}), ('lorentz-magnetic', {'kappa': -0.5}), "
                  "('magnetic-bump', {})):\n"
                  "    s = build_preset(name, **kw)['structure']; pts = s.model.sample(4001)\n"
                  "    sys.stdout.buffer.write(transport_generator(s, pts).tobytes() "
                  "+ _dw_coords(s, pts).tobytes())")
        dynamics = ("import contextlib, io, sys, tempfile; from pathlib import Path\n"
                    "import numpy as np; from engel_lab import cli\n"
                    "from engel_lab.characteristic_dynamics import closed_orbit_holonomy\n"
                    "from engel_lab.presets import build_preset\n"
                    "cls = ['-T', '20.0', '--dt', '0.01', '--orbits', '3']\n"
                    "with tempfile.TemporaryDirectory() as out:\n"
                    "    for args in (['propellor-cat', *cls], "
                    "['lorentz-magnetic', '--kappa', '-1', *cls], ['bi-engel-cat']):\n"
                    "        with contextlib.redirect_stdout(io.StringIO()):\n"
                    "            rc = cli.main(['classify', '--preset', *args, '--out', out])\n"
                    "        assert rc == 0\n"
                    "        sys.stdout.buffer.write(Path(out, f'classify_{args[0]}.json')"
                    ".read_bytes())\n"
                    "s = build_preset('lorentz-product', kappa=0.0)['structure']\n"
                    "h, _ = closed_orbit_holonomy(s, np.array([0.0, 0.4, 0.0, 0.0]), 1e-3, 8.0)\n"
                    "sys.stdout.buffer.write(h.matrix.tobytes() + np.float64(h.winding).tobytes())")
        src = str(Path(engel_lab.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for code, size in ((transport, 8 * (4 * 1001 + 1001)), (frames, 8 * 3 * 4001 * (4 + 2)),
                           (dynamics, None)):
            children = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                         env={**env, **extra})
                        for extra in ({"OPENBLAS_CORETYPE": "Prescott"}, {})]
            outs = [child.communicate(timeout=60)[0] for child in children]
            assert all(child.returncode == 0 for child in children)
            assert outs[0] and outs[0] == outs[1]
            assert size is None or len(outs[0]) == size

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_long_lie_orbit_matches_closed_form(self, preset_cache, kappa):
        # T = 20 at dt = 1e-3: 20,000 steps of a constant generator
        s = preset_cache("lorentz-magnetic-lie", kappa=kappa)["structure"]
        orbit = integrate_characteristic(s, np.zeros(4), 20.0, 1e-3)
        orbit = transport_EmodW(s, orbit, angles=False)
        Mcf = closed_form_exp(transport_generator(s))
        sel = np.arange(0, len(orbit.times), 1000)
        want = np.array([Mcf(t) for t in orbit.times[sel]])
        assert rel_err(orbit.M[sel], want) < 1e-11

    def test_scan_matches_sequential_product_on_a_large_orbit(self, preset_cache,
                                                               monkeypatch):
        # the hyperbolic propellor-cat holonomy grows |M| past 1e8 by T = 20
        s = preset_cache("propellor-cat")["structure"]
        orbit = integrate_characteristic(s, s.model.box.mean(axis=1), 20.0, 1e-2)
        seen = []
        monkeypatch.setattr(dyn, "transport_rk4",
                            lambda A, dt: seen.append(A) or transport_rk4(A, dt))
        M = transport_EmodW(s, orbit, angles=False).M
        assert np.abs(M).max() > 1e8
        assert rel_err(M, sequential_transport(seen[0], 1e-2)) < 1e-12


class TestClosedForm:
    def test_elliptic_half_turn(self, preset_cache):
        # kappa = 1: K = sqrt(2); at t = pi / K the matrix in the frame
        # rescaled by diag(K, 1) is -I
        s = preset_cache("lorentz-magnetic-lie", kappa=1.0)["structure"]
        M = closed_form_exp(transport_generator(s))
        K = np.sqrt(2.0)
        out = np.diag([1.0 / K, 1.0]) @ M(np.pi / K) @ np.diag([K, 1.0])
        assert np.abs(out + np.eye(2)).max() < 1e-12

    def test_hyperbolic_cosh_form(self, preset_cache):
        # kappa = -0.5: K = 0.5, t = 2 gives [[cosh 1, sinh 1], [sinh 1, cosh 1]]
        s = preset_cache("lorentz-magnetic-lie", kappa=-0.5)["structure"]
        M = closed_form_exp(transport_generator(s))
        want = np.array([[np.cosh(1.0), np.sinh(1.0)],
                         [np.sinh(1.0), np.cosh(1.0)]])
        out = np.diag([2.0, 1.0]) @ M(2.0) @ np.diag([0.5, 1.0])     # diag(K, 1), K = 0.5
        assert np.abs(out - want).max() < 1e-12

    def test_parabolic_unipotent(self, preset_cache):
        s = preset_cache("lorentz-magnetic-lie", kappa=-1.0)["structure"]
        M = closed_form_exp(transport_generator(s))
        assert np.abs(M(3.0) - np.array([[1.0, 0.0], [3.0, 1.0]])).max() < 1e-12


def rot(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


class TestClassify:
    def test_identity_with_pi_winding_is_elliptic_length_pi(self):
        t = classify_projective(HolonomyLift(np.eye(2), np.pi))
        assert t.kind == "elliptic" and abs(t.length - np.pi) < 1e-12

    def test_parabolic_shear(self):
        t = classify_projective(HolonomyLift(np.array([[1.0, 0], [2.5, 1.0]]), 1.3))
        assert t.kind == "parabolic"

    def test_trans_hyperbolic_with_two_turns(self):
        m = np.diag([np.e, 1.0 / np.e])
        t = classify_projective(HolonomyLift(m, 2 * np.pi))
        assert t.kind == "trans-hyperbolic"
        assert t.n == 2
        assert abs(t.trace - (np.e + 1.0 / np.e)) < 1e-12

    def test_genuine_hyperbolic(self):
        t = classify_projective(HolonomyLift(np.diag([3.0, 1 / 3.0]), 1.0))
        assert t.kind == "hyperbolic" and abs(t.trace - (3 + 1 / 3)) < 1e-12

    def test_elliptic_rotation(self):
        t = classify_projective(HolonomyLift(rot(0.7), np.pi + 0.7))
        assert t.kind == "elliptic" and abs(t.length - np.pi - 0.7) < 1e-12

    def test_trans_parabolic(self):
        t = classify_projective(HolonomyLift(np.array([[1.0, -1.0], [0, 1.0]]), 1.5 * np.pi))
        assert t.kind == "trans-parabolic" and t.n == 1 and t.sign in (-1, 1)

    def test_ambiguous_raises(self):
        # non-trivial parabolic (trace exactly 2) with winding at a multiple
        # of pi: genuine vs trans cannot be decided
        m = np.array([[1.9, 0.9], [-0.9, 0.1]])
        with pytest.raises(AmbiguousClass):
            classify_projective(HolonomyLift(m, np.pi + 1e-9))

    def test_non_finite_matrix_is_refused(self):
        # a NaN determinant passes a test written as d <= 0, and the all-NaN
        # matrix it leaves once classified as parabolic
        for m in ([[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
            with pytest.raises(NonFiniteEvaluation, match="matrix and winding must be finite"):
                HolonomyLift(m, 1.0)
        with pytest.raises(DegenerateKernel, match="positive determinant"):
            HolonomyLift([[0.0, 0.0], [0.0, 1.0]], 1.0)

    def test_non_finite_winding_is_refused(self):
        # a NaN winding once ended in a bare ValueError from round()
        for w in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteEvaluation, match="matrix and winding must be finite"):
                classify_projective(HolonomyLift(np.eye(2), w))

    def test_near_identity_is_elliptic_not_ambiguous(self):
        m = np.array([[1.0 + 1e-9, 0.0], [0.0, 1.0 - 1e-9]])
        t = classify_projective(HolonomyLift(m, np.pi))
        assert t.kind == "elliptic" and abs(t.length - np.pi) < 1e-9

    def test_parabolic_sign_of_shears(self, rng):
        # a lower shear pushes lines counterclockwise, an upper one clockwise;
        # conjugation keeps the push if it keeps orientation
        for c in (1e-3, 0.7, 40.0):
            for m, want in ((np.array([[1.0, 0.0], [c, 1.0]]), 1),
                            (np.array([[1.0, c], [0.0, 1.0]]), -1)):
                assert _parabolic_sign(m) == _parabolic_sign(-m) == want
                for _ in range(50):
                    g = rng.normal(size=(2, 2))
                    while abs(np.linalg.det(g)) < 0.1:
                        g = rng.normal(size=(2, 2))
                    conj = g @ m @ np.linalg.inv(g)
                    assert _parabolic_sign(conj) == want * np.sign(np.linalg.det(g))

    def test_conjugation_invariance(self, rng):
        # the classification is by PSL(2,R) conjugacy class
        cases = [
            (rot(1.1), 1.1, "elliptic"),
            (np.array([[1.0, 0], [1.7, 1]]), 2.0, "parabolic"),
            (np.diag([2.0, 0.5]), 1.2, "hyperbolic"),
            (np.array([[1.0, -1.0], [0, 1.0]]), np.pi + 0.4, "trans-parabolic"),
            (np.diag([2.0, 0.5]), 2 * np.pi + 0.3, "trans-hyperbolic"),
        ]
        n_conj = 1000
        for m, w, want in cases:
            base = classify_projective(HolonomyLift(m, w))
            assert base.kind == want
            for _ in range(n_conj // len(cases)):
                g = rng.normal(size=(2, 2))
                while abs(np.linalg.det(g)) < 0.1:
                    g = rng.normal(size=(2, 2))
                g /= np.sqrt(abs(np.linalg.det(g)))
                conj = g @ m @ np.linalg.inv(g)
                t = classify_projective(HolonomyLift(conj, w))
                assert t.kind == want
                if t.n is not None:
                    assert t.n == base.n
                if t.trace is not None:
                    assert abs(t.trace - base.trace) < 1e-9


# closed orbits at dt 1e-3: preset, its parameters, p0 and t_max
CLOSED = {
    "cartan": ("cartan-r3", {}, [0.2, -0.1, 0.3, 0.0], 4.0),
    "flat-torus": ("lorentz-product", {"kappa": 0.0}, [0.0, 0.4, 0.0, 0.0], 8.0),
}


@pytest.fixture(scope="module")
def closed_orbit(preset_cache):
    """``closed_orbit_holonomy`` on a CLOSED orbit, run once per module:
    (structure, lift, orbit, [(args, result) of each integrate_orbits call])."""
    cache = {}

    def get(key):
        if key not in cache:
            name, kw, p0, t_max = CLOSED[key]
            s = preset_cache(name, **kw)["structure"]
            calls, real = [], dyn.integrate_orbits

            def spy(*args):
                calls.append((args, real(*args)))
                return calls[-1][1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dyn, "integrate_orbits", spy)
                h, orbit = closed_orbit_holonomy(s, np.array(p0), dt=1e-3, t_max=t_max)
            cache[key] = s, h, orbit, calls
        return cache[key]

    return get


class TestClosedOrbits:
    def test_cartan_fiber_elliptic_length_pi(self, closed_orbit):
        _, h, _, _ = closed_orbit("cartan")
        t = classify_projective(h)
        assert t.kind == "elliptic"
        assert abs(t.length - np.pi) < 1e-6
        assert np.abs(h.matrix - np.eye(2)).max() < 1e-8

    def test_flat_torus_closed_characteristic_is_parabolic(self, closed_orbit):
        _, h, _, _ = closed_orbit("flat-torus")
        t = classify_projective(h)
        assert t.kind == "parabolic"
        assert abs(abs(np.trace(h.matrix)) - 2.0) < 1e-9

    @pytest.mark.parametrize("key", CLOSED)
    def test_orbit_is_integrated_once(self, closed_orbit, key):
        # one pass over t_max at dt, then one step shorter than h from the
        # last stored sample to the return point
        _, _, orbit, [(full, _), (last, (times, _, kept))] = closed_orbit(key)
        assert full[2:] == (CLOSED[key][3], 1e-3)
        h = orbit.times[1] - orbit.times[0]
        assert last[3] == last[2] == times[-1] and 0 < last[2] < h
        assert len(times) == 2 and kept[0] == 1
        assert np.array_equal(last[1], orbit.points[-1])
        assert orbit.times[-1] < orbit.meta["return_time"] <= orbit.times[-1] + h

    @pytest.mark.parametrize("key", CLOSED)
    def test_return_time_matches_scalar_search(self, closed_orbit, key):
        s, _, orbit, [(full, (times, pts, _)), _] = closed_orbit(key)
        want = first_return_reference(s.model, full[1], times, pts[0], 1e-3, _CLOSE_EPS)
        assert orbit.meta["return_time"] == want

    def test_both_pullbacks_take_one_rule(self, preset_cache, monkeypatch):
        # the D/W line along the transported orbit and at the return point
        # are pulled back by one helper: one call per stored step, then one
        s = preset_cache("cartan-r3")["structure"]
        calls, real = [], dyn._pullback_angle
        monkeypatch.setattr(dyn, "_pullback_angle",
                            lambda M, dets, d: calls.append(len(M)) or real(M, dets, d))
        _, orbit = closed_orbit_holonomy(s, np.array(CLOSED["cartan"][2]), dt=1e-2, t_max=4.0)
        assert calls == [len(orbit.times), 1]

    def test_negative_winding_is_oriented_positively(self, preset_cache):
        # swapping the two legs of the E/W frame reverses the D/W rotation;
        # the lift flips the second leg back and gives the same class
        s = preset_cache("cartan-r3")["structure"]
        swapped = dataclasses.replace(s, emw_frame=s.emw_frame[::-1])
        h, orbit = closed_orbit_holonomy(swapped, np.array(CLOSED["cartan"][2]), dt=1e-2,
                                         t_max=4.0)
        assert orbit.angle[-1] < orbit.angle[0]
        t = classify_projective(h)
        assert t.kind == "elliptic" and abs(t.length - np.pi) < 1e-6

    def test_no_return_within_t_max(self, preset_cache):
        # the Cartan fiber closes after pi
        s = preset_cache("cartan-r3")["structure"]
        p0 = np.array([0.2, -0.1, 0.3, 0.0])
        orbit = integrate_characteristic(s, p0, 2.0, 1e-2)
        assert first_return_reference(s.model, p0, orbit.times, orbit.points, 1e-2,
                                      _CLOSE_EPS) is None
        with pytest.raises(ChartExit):
            closed_orbit_holonomy(s, p0, dt=1e-2, t_max=2.0)

    def test_lie_model_refused_before_integrating(self, preset_cache, monkeypatch):
        # a straight-line Lie orbit has no detectable return; refuse up front
        s = preset_cache("lorentz-magnetic-lie", kappa=-0.5)["structure"]

        def integrate(*args, **kwargs):
            raise AssertionError("integrated before refusing the Lie model")

        monkeypatch.setattr(dyn, "integrate_orbits", integrate)
        with pytest.raises(NotImplementedError):
            closed_orbit_holonomy(s, np.zeros(4), 1e-3, 1e3)


class TestDeveloping:
    def test_darboux_angle_is_arctan_w(self):
        s = darboux_standard()
        orbit = integrate_characteristic(s, np.zeros(4), 1.0, 1e-3)
        orbit = transport_EmodW(s, orbit)
        dev = developing_map(orbit)
        assert np.abs(dev.theta - np.arctan(orbit.times)).max() < 1e-9

    def test_start_on_the_first_frame_vector_has_no_pi_seam(self):
        # D/W starts at (1, w) in the E/W frame: a rounding-size w of either
        # sign starts the lifted angle at 0, not at 0 or pi
        s = darboux_standard()
        paths = [transport_EmodW(s, integrate_characteristic(
            s, np.array([0.0, 0.0, 0.0, w]), 1.0, 1e-2)).angle for w in (1e-17, -1e-17)]
        assert np.abs(paths[0] - paths[1]).max() < 1e-12
        assert abs(paths[0][0]) < 1e-15

    def test_cartan_fiber_advances_pi_per_period(self, preset_cache):
        s = preset_cache("cartan-r3")["structure"]
        orbit = integrate_characteristic(s, np.array([0.1, 0.2, 0.3, 0.0]),
                                         np.pi, 1e-3)
        orbit = transport_EmodW(s, orbit)
        dev = developing_map(orbit)
        assert abs(dev.length - np.pi) < 1e-9

    def test_magnetic_elliptic_rate_matches_closed_form(self, preset_cache):
        # developing angle of the kappa = 1 structure advances at the
        # closed-form rotation rate of the pulled-back line
        s = preset_cache("lorentz-magnetic-lie", kappa=1.0)["structure"]
        orbit = integrate_characteristic(s, np.zeros(4), 2.0, 1e-3)
        orbit = transport_EmodW(s, orbit)
        dev = developing_map(orbit)
        Mcf = closed_form_exp(transport_generator(s))
        want = []
        for t in orbit.times:
            u = np.linalg.solve(Mcf(t), np.array([1.0, 0.0]))
            want.append(np.arctan2(u[1], u[0]))
        want = np.abs(np.unwrap(np.array(want), period=np.pi))
        assert np.abs(dev.theta - dev.theta[0] - (want - want[0])).max() < 1e-6
        assert dev.length > 0.5   # strictly advancing

    def test_monotone_on_verified_structures(self, preset_cache):
        for name, kw in (("lorentz-magnetic", {"kappa": -0.5}),
                         ("propellor-cat", {}), ("suspension-geodesic", {})):
            s = preset_cache(name, **kw)["structure"]
            if name == "suspension-geodesic":
                p0 = np.array([0.02, -0.03, 0.4, 0.1])
            else:
                box = s.model.box
                p0 = box.mean(axis=1) + 0.05
            orbit = integrate_characteristic(s, p0, 1.0, 1e-3)
            orbit = transport_EmodW(s, orbit)
            developing_map(orbit)   # raises on a violation

    def test_violation_detected(self):
        orbit_like = type("O", (), {})()
        orbit_like = __import__("engel_lab").characteristic_dynamics.OrbitTrace(
            times=np.linspace(0, 1, 5), points=np.zeros((5, 4)),
            M=np.broadcast_to(np.eye(2), (5, 2, 2)).copy(),
            angle=np.array([0.0, 0.1, 0.05, 0.2, 0.3]), dets=np.ones(5))
        with pytest.raises(MonotonicityViolation):
            developing_map(orbit_like)

    def test_rounding_steps_are_flagged_not_refused(self):
        # the floor is 4 ulps of pi here: a step of -1e-15 or 1e-13 is flat
        # (counted, with the time it starts), a step of -1e-14 a violation
        def path(angle):
            return dyn.OrbitTrace(times=np.linspace(0, 1, 6), points=np.zeros((6, 4)),
                                  M=np.broadcast_to(np.eye(2), (6, 2, 2)).copy(),
                                  angle=np.array(angle), dets=np.ones(6))

        dev = developing_map(path([0.0, 0.1, 0.2, 0.2 - 1e-15, 0.2 + 1e-13, 0.3]))
        assert (dev.n_flat, dev.first_flat_t, dev.length) == (2, 0.4, 0.3)
        assert developing_map(path([0.0, 0.1, 0.2, 0.25, 0.3, 0.4])).n_flat == 0
        with pytest.raises(MonotonicityViolation):
            developing_map(path([0.0, 0.1, 0.2, 0.2 - 1e-14, 0.25, 0.3]))

    def test_transport_needs_its_determinants(self):
        M = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
        for dets in (None, np.ones(4)):
            with pytest.raises(DimensionMismatch, match="5 transport matrices"):
                dyn.OrbitTrace(np.linspace(0, 1, 5), np.zeros((5, 4)), M=M, dets=dets)

    def test_angle_guard(self):
        with pytest.raises(StepTooLarge):
            lift_angle_mod_pi(np.array([0.0, np.pi / 2 - 1e-12]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_angle_is_refused(self):
        # a NaN step compares false with every bound: neither the guard of
        # the lift nor the monotonicity test of the developing map may pass it
        raw = np.array([0.0, np.nan, 0.2])
        with pytest.raises(NonFiniteEvaluation, match="angle 1 is NaN or inf"):
            lift_angle_mod_pi(raw)
        orbit = dyn.OrbitTrace(times=np.linspace(0, 1, 3), points=np.zeros((3, 4)),
                               M=np.broadcast_to(np.eye(2), (3, 2, 2)).copy(),
                               angle=raw, dets=np.ones(3))
        with pytest.raises(MonotonicityViolation):
            developing_map(orbit)


class TestGlobalType:
    @pytest.mark.parametrize("kappa,want", [
        (-2.0, ("elliptic", None)), (-1.0, ("parabolic", True)),
        (-0.5, ("hyperbolic", True)), (0.0, ("parabolic", True)),
        (0.5, ("elliptic", None)), (1.0, ("elliptic", None))])
    def test_magnetic_table(self, preset_cache, kappa, want):
        s = preset_cache("lorentz-magnetic-lie", kappa=kappa)["structure"]
        est = estimate_global_type(s, n_orbits=1, T_max=20.0, dt=1e-2)
        assert (est.kind, est.genuine) == want

    @pytest.mark.parametrize("kappa,want", [
        (1.0, "elliptic"), (0.0, "parabolic"), (-1.0, "hyperbolic")])
    def test_product_table(self, preset_cache, kappa, want):
        s = preset_cache("lorentz-product-lie", kappa=kappa)["structure"]
        est = estimate_global_type(s, n_orbits=1, T_max=20.0, dt=1e-2)
        assert est.kind == want

    def test_no_orbits_raises(self, preset_cache):
        s = preset_cache("lorentz-magnetic-lie", kappa=1.0)["structure"]
        with pytest.raises(ValueError, match="n_orbits must be >= 1, got 0"):
            estimate_global_type(s, n_orbits=0)

    def test_thresholds_in_evidence(self, preset_cache):
        s = preset_cache("lorentz-magnetic-lie", kappa=1.0)["structure"]
        th = estimate_global_type(s, n_orbits=1, T_max=20.0, dt=1e-2).evidence["thresholds"]
        assert list(th.items()) == [("c_min", 0.05), ("r2_min", 0.99),
                                    ("distortion_bound", 1000.0), ("line_angle_tol", 0.001),
                                    ("cross_eps", 0.001)]

    def test_hyperbolic_invariant_lines(self, preset_cache):
        # kappa = -0.5: l^u,s = <0.5 Theta +- Yt> recovered to 1e-3
        s = preset_cache("lorentz-magnetic-lie", kappa=-0.5)["structure"]
        est = estimate_global_type(s, n_orbits=1, T_max=20.0, dt=1e-2)
        lines = [np.array(l) for l in est.evidence["orbits"][0]["lines"]]
        refs = [np.array([0.5, 1.0]), np.array([0.5, -1.0])]
        for ref in refs:
            ref = ref / np.linalg.norm(ref)
            best = min(np.arccos(np.clip(abs(ref @ l / np.linalg.norm(l)), 0, 1))
                       for l in lines)
            assert best < 1e-3

    def test_parabolic_invariant_line_is_Yt(self, preset_cache):
        s = preset_cache("lorentz-magnetic-lie", kappa=-1.0)["structure"]
        est = estimate_global_type(s, n_orbits=1, T_max=20.0, dt=1e-2)
        line = np.array(est.evidence["orbits"][0]["lines"][0])
        ang = np.arccos(np.clip(abs(line @ [0, 1]) / np.linalg.norm(line), 0, 1))
        assert ang < 1e-6

    def test_parabolic_line_survives_a_perturbed_jordan_block(self):
        # a 1e-12 perturbation gives M complex eigenvalues 1 +- 4.5e-6 i, so
        # the eigenvectors are lost; the image of N = M - I is still e2
        M = np.array([[1.0, -1e-12], [20.0, 1.0]])
        assert dyn._invariant_lines([M], 1e-3)[0] is None
        lines, why = dyn._parabolic_line(M, 1e-3)
        assert why is None and abs(lines[0][0]) < 1e-12 and abs(abs(lines[0][1]) - 1) < 1e-15
        # a rotation has no invariant line at all
        lines, why = dyn._parabolic_line(rot(0.7), 1e-3)
        assert lines is None and why.startswith("not unipotent")

    def test_lines_are_reported_with_one_sign(self):
        # the larger columns are (1, -1.618) of N - rho I and (-1, -1) of the
        # shear's N; every line is reported with its angle in (-pi/2, pi/2]
        lines, _ = dyn._invariant_lines([np.array([[2.0, 1.0], [1.0, 1.0]])], 1e-3)
        (shear,), _ = dyn._parabolic_line(np.array([[0.0, 1.0], [-1.0, 2.0]]), 1e-3)
        (vertical,), _ = dyn._parabolic_line(np.array([[1.0, 0.0], [1.0, 1.0]]), 1e-3)
        assert np.allclose(lines, [[0.85065081, 0.52573111], [0.52573111, -0.85065081]])
        assert np.allclose(shear, [np.sqrt(0.5)] * 2)
        assert np.array_equal(vertical, [0.0, 1.0])

    @staticmethod
    def _final_Ms(s, n_orbits):
        # the last det-normalized transport of each orbit estimate_global_type runs
        mid = s.model.point(0.5)
        starts = mid + 0.5 * (s.model.sample(n_orbits, skip=300) - mid)
        return [transport_EmodW(s, orbit, angles=False).normalized_M()[-1]
                for orbit, _ in orbits_within_chart(s, starts, 20.0, 1e-2)]

    def test_line_sign_survives_an_ulp_of_the_matrix(self, preset_cache):
        # bi-engel-cat's stable line is vertical in its E/W frame, so its first
        # entry is rounding, read as 0: the line points up.  A one-ulp move of
        # any entry of M keeps the sign of each line's larger entry
        for M in self._final_Ms(preset_cache("bi-engel-cat")["structure"], 3):
            lines = dyn._eigen_lines(M)[:3]
            assert [v[1] > 0 for v in lines if abs(v[0]) <= 4 * np.finfo(float).eps] == [True]
            want = [np.sign(v[np.argmax(np.abs(v))]) for v in lines]
            for i, j, to in np.ndindex(2, 2, 2):
                Mp = M.copy()
                Mp[i, j] = np.nextafter(M[i, j], (-np.inf, np.inf)[to])
                got = [np.sign(v[np.argmax(np.abs(v))]) for v in dyn._eigen_lines(Mp)[:3]]
                assert got == want

    def test_stable_lines_of_bi_engel_cat_agree(self, preset_cache):
        # the three orbits share one holonomy, and report one stable line
        s = preset_cache("bi-engel-cat")["structure"]
        orbits = estimate_global_type(s, n_orbits=3, T_max=20.0, dt=1e-2).evidence["orbits"]
        stable = np.array([o["lines"][1] for o in orbits])
        assert np.abs(stable - stable[0]).max() < 1e-15

    def test_repeated_eigen_direction_gives_no_lines(self):
        # a unipotent matrix has eigenvalues [1, 1] and one eigen-direction,
        # read twice from N +- 0 I; that is no pair of hyperbolic lines
        lines, why = dyn._invariant_lines([np.array([[1.0, 0.0], [1.0, 1.0]])], 1e-3)
        assert lines is None and why.startswith("repeated eigen-direction")

    def test_repeated_eigen_direction_reason_ignores_rounding(self):
        # the two matrices differ by an ulp in their diagonals, and their
        # eigen-directions lie 0 and 1.11e-16 rad apart
        M = np.array([[1.0, 0.0], [3.0, 1.0]])
        N = np.array([[1.0 + 2.0 ** -52, 0.0], [3.0, 1.0 - 2.0 ** -53]])
        (_, why_m), (_, why_n) = dyn._invariant_lines([M], 1e-3), dyn._invariant_lines([N], 1e-3)
        assert why_m == why_n == "repeated eigen-direction (within 0.001 rad)"

    def test_moving_eigen_direction_gives_no_lines(self):
        # cat map and diag(2, 1/2): both hyperbolic, with different eigenlines
        lines, why = dyn._invariant_lines([np.array([[2.0, 1.0], [1.0, 1.0]]),
                                           np.diag([2.0, 0.5])], 1e-3)
        assert lines is None and why == "eigen-direction 0 moves by 0.554 rad along the orbit"

    @pytest.mark.parametrize("name,want", [
        ("propellor-identity", ("elliptic", None)),
        ("propellor-parabolic", ("parabolic", False)),
        ("propellor-cat", ("hyperbolic", False)),
        ("bi-engel-cat", ("hyperbolic", True))])
    def test_propellor_types(self, preset_cache, name, want):
        s = preset_cache(name)["structure"]
        est = estimate_global_type(s, n_orbits=2, T_max=20.0, dt=1e-2)
        assert (est.kind, est.genuine) == want

    @pytest.mark.parametrize("name,kappa", [*(("lorentz-magnetic-lie", k) for k in KAPPA_SWEEP),
                                            ("propellor-cat", None)])
    def test_negative_horizon_gives_the_same_label(self, preset_cache, name, kappa):
        # growth is fitted against elapsed time, so sigma1 growing along a
        # backward orbit reads as growth, not as a negative slope
        s = preset_cache(name, **({} if kappa is None else {"kappa": kappa}))["structure"]
        fwd, bwd = (estimate_global_type(s, n_orbits=2, T_max=T, dt=1e-2) for T in (20.0, -20.0))
        assert fwd.kind != "unknown"
        assert bwd.label() == fwd.label()

    def test_evidence_is_free_of_rounding_noise(self, preset_cache):
        # the propellor-cat orbits share one holonomy, so their distortions
        # agree; sigma1 / sigma2 read 3.8e16 and 1.7e16 because sigma2 =
        # 1 / sigma1 is below the rounding of the transport
        s = preset_cache("propellor-cat")["structure"]
        orbits = estimate_global_type(s, n_orbits=2, T_max=20.0, dt=1e-2).evidence["orbits"]
        d = np.array([o["max_distortion"] for o in orbits])
        assert np.ptp(d) / d.max() < 1e-6
        # a flat sigma1 has no growth law to fit
        s = preset_cache("lorentz-product-lie", kappa=1.0)["structure"]
        (orbit,) = estimate_global_type(s, n_orbits=1, T_max=20.0, dt=1e-2).evidence["orbits"]
        assert orbit["kind"] == "elliptic"
        assert [orbit[k] for k in ("slope", "r2_exp", "lin_slope", "lin_r2")] == [None] * 4

    def test_flat_torus_chart_is_parabolic(self, preset_cache):
        # the periodic chart sustains the full horizon, so the chart path
        # agrees with the exact model
        s = preset_cache("lorentz-product", kappa=0.0)["structure"]
        est = estimate_global_type(s, n_orbits=2, T_max=20.0, dt=1e-2)
        assert (est.kind, est.genuine) == ("parabolic", True)

    def test_cut_orbit_with_rising_sigma1_is_not_elliptic(self, preset_cache):
        # magnetic-bump orbit 2 leaves the chart at t 0.58 while sigma1 rises
        # 1.03 -> 1.18, below the growth floor; it is unknown, not elliptic
        s = preset_cache("magnetic-bump")["structure"]
        orbit = estimate_global_type(s, n_orbits=3, T_max=20.0, dt=1e-2).evidence["orbits"][2]
        assert orbit["kind"] == "unknown"
        assert orbit["demoted"].startswith("sigma1 still rising")
        assert "t_cut = 0.58" in orbit["demoted"]

    def test_growth_that_fits_no_law_names_its_fits(self, preset_cache):
        # lorentz-product orbit 1 leaves the chart at t 1.75 with a growing
        # sigma1 whose best fit, the linear one, stays below r2 0.99
        s = preset_cache("lorentz-product", kappa=0.5)["structure"]
        orbit = estimate_global_type(s, n_orbits=3, T_max=20.0, dt=1e-2).evidence["orbits"][1]
        assert (orbit["kind"], orbit["t_end"]) == ("unknown", 1.75)
        assert orbit["demoted"] == (
            "sigma1 grows but fits no growth law: r2_exp = 0.9837, lin_r2 = 0.9899 "
            "(need > 0.99), slope = 0.1704 (exponential needs > 0.05)")

    def test_bounded_but_distorted_sigma1_is_unknown(self, preset_cache):
        # kappa = 99.5: sigma1 oscillates fast at distortion about 1e4, past
        # the elliptic bound, with no growth to fit
        s = preset_cache("lorentz-magnetic-lie", kappa=99.5)["structure"]
        est = estimate_global_type(s, n_orbits=1, T_max=20.0, dt=1e-2)
        (orbit,) = est.evidence["orbits"]
        assert est.kind == orbit["kind"] == "unknown"
        assert orbit["demoted"].startswith("sigma1 not growing (monotone fraction ")
        assert orbit["max_distortion"] >= 1e3

    @pytest.mark.parametrize("name,params", [
        ("darboux", {}), ("lorentz-product", {"kappa": 1.0}), ("suspension-identity", {})])
    def test_cut_orbit_with_flat_sigma1_stays_elliptic(self, preset_cache, name, params):
        # every orbit here leaves the chart with sigma1 = 1 to rounding
        s = preset_cache(name, **params)["structure"]
        est = estimate_global_type(s, n_orbits=3, T_max=20.0, dt=1e-2)
        assert est.kind == "elliptic"
        assert all(o["t_end"] < 20.0 and "demoted" not in o for o in est.evidence["orbits"])

    def test_short_window_never_promotes_elliptic(self, preset_cache):
        # curved-chart orbits exit early; the estimator may say unknown but
        # must not claim parabolic/hyperbolic for an elliptic structure
        s = preset_cache("lorentz-magnetic", kappa=1.0)["structure"]
        est = estimate_global_type(s, n_orbits=3, T_max=20.0, dt=1e-2)
        assert est.kind in ("elliptic", "unknown")


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_distortion_is_still_classified(self, preset_cache):
        # sigma1 ~ e^(t/2) at kappa = -0.5: its square leaves the finite
        # floats past t = log(max float) = 709.8, an infinite distortion that
        # is not elliptic; the linear law is fitted to sigma1 scaled by a
        # power of two, so the orbit still reads as hyperbolic
        s = preset_cache("lorentz-magnetic-lie", kappa=-0.5)["structure"]
        est = estimate_global_type(s, n_orbits=1, T_max=1000.0, dt=0.05)
        [ev] = est.evidence["orbits"]
        assert est.label() == "Hyperbolic (genuine)"
        assert abs(ev["slope"] - 0.5) < 1e-9 and ev["r2_exp"] > 0.999999
        assert ev["max_distortion"] == np.inf and np.isfinite(ev["lin_slope"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fit_overflow_is_reported(self):
        t = np.arange(4.0)
        with pytest.raises(NonFiniteEvaluation, match="growth fit up to t = 3 "):
            dyn._linear_fit(t, np.array([0.0, 1e300, -1e300, 1e300]))

EPS = np.finfo(float).eps

ENTRY = binade_entries(100)     # every product of two entries is a normal float


class TestTraceSplit:
    """``_kernels._trace_split``, the one split M = h I + N of the 2x2 plane
    that ``expm2``, ``closed_form_exp``, ``_logm2`` and ``_eigen_lines`` read."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: hnp.arrays(float, (n, 2, 2), elements=ENTRY)))
    def test_trace_free_part_and_rows(self, M):
        h, N, rho2 = _trace_split(M)
        assert np.array_equal(N[:, 0, 0], -N[:, 1, 1])
        assert np.array_equal(N[:, 0, 1], M[:, 0, 1]) and np.array_equal(N[:, 1, 0], M[:, 1, 0])
        # a row of the stack is its one-matrix call, bit for bit
        for i, m in enumerate(M):
            hi, Ni, rho2i = _trace_split(m)
            assert (hi, rho2i) == (h[i], rho2[i]) and np.array_equal(Ni, N[i])

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, (2, 2), elements=ENTRY))
    def test_eigenvalues_match_eig(self, m):
        # h +- sqrt(rho^2) against LAPACK, in ulps times sigma1 times the
        # eigenvalues' condition number sigma1 / (half their gap)
        h, _, rho2 = _trace_split(m)
        got = h + np.array([1.0, -1.0]) * np.sqrt(rho2 + 0j)
        want = np.linalg.eigvals(m)
        err = min(np.abs(got - want).max(), np.abs(got - want[::-1]).max())
        sigma1, half_gap = lapack_sigma1(m), 0.5 * abs(want[0] - want[1])
        assert err == 0 or err <= 8 * EPS * sigma1 * (sigma1 / half_gap if half_gap else np.inf)


class TestTwoByTwoAgainstLapack:
    """The closed forms of the E/W plane's 2x2 algebra against LAPACK on
    matrices scaled by 2^k, |k| <= 900, compared with LAPACK on the unscaled
    matrix: lines and the spread do not depend on the scale, sigma1 and rho
    scale with it exactly.  Bounds are in ulps times each quantity's
    condition number."""

    @pytest.fixture(scope="class")
    def random_matrices(self):
        rng = np.random.default_rng(38)
        return rng.normal(size=(2000, 2, 2)), rng.integers(-900, 901, size=2000)

    @pytest.fixture(scope="class")
    def near_parabolic(self):
        # conjugated shears +-[[1, s], [0, 1]] plus a perturbation of 1e-15
        # to 1e-5: real or complex eigenvalue pairs split by up to ~3e-3
        rng = np.random.default_rng(39)
        out = []
        for _ in range(500):
            c, s = np.cos(th := rng.uniform(0, np.pi)), np.sin(th)
            R = np.array([[c, -s], [s, c]])
            J = rng.choice([-1, 1]) * np.array([[1.0, rng.uniform(0.1, 10) * rng.choice([-1, 1])],
                                                [0.0, 1.0]])
            out.append(R @ J @ R.T + 10 ** rng.uniform(-15, -5) * rng.normal(size=(2, 2)))
        return np.array(out), rng.integers(-900, 901, size=500)

    def test_sigma1_matches_the_svd(self, random_matrices):
        m0, k = random_matrices
        got = np.ldexp(dyn._sigma1(np.ldexp(m0, k[:, None, None])), -k)
        assert np.abs(got / lapack_sigma1(m0) - 1.0).max() <= 8 * EPS
        # halved entries keep the sums finite at the top of the float range
        assert dyn._sigma1(np.ldexp(np.eye(2), 1023)) == 2.0 ** 1023

    def test_eigen_lines_and_rho_match_eig(self, random_matrices):
        m0, k = random_matrices
        n_complex = 0
        for m, kk in zip(m0, k):
            evals, vecs = lapack_eigen(m)
            _, plus, minus, rho, _ = dyn._eigen_lines(np.ldexp(m, kk))
            # rho is half the eigenvalue gap, or minus the imaginary part
            half_gap = 0.5 * (evals[0] - evals[1])
            want = half_gap.real if half_gap.real > 0 else -abs(half_gap.imag)
            cond = lapack_sigma1(m) / abs(want)
            assert abs(np.ldexp(rho, -kk) - want) <= 8 * EPS * lapack_sigma1(m) * cond
            if np.iscomplexobj(evals) and evals.imag.any():
                n_complex += 1
                continue
            for line, v in ((plus, vecs[:, 0]), (minus, vecs[:, 1])):
                assert line_angle(line, v)[0] <= 8 * EPS * cond
                assert line[0] > 0 or (line[0] == 0 and line[1] > 0)
        assert 300 < n_complex < 1000

    def test_image_and_spread_match_the_svd_near_a_parabolic(self, near_parabolic):
        m0, k = near_parabolic
        for m, kk in zip(m0, k):
            u, spread_want = lapack_image(m)
            image, *_, spread = dyn._eigen_lines(np.ldexp(m, kk))
            # the larger column of N and N's top singular vector part by
            # about spread^2; spread^2 = |rho^2| / |N|^2 is good to rounding
            assert line_angle(image, u)[0] <= 2 * (spread ** 2 + EPS)
            assert abs(spread ** 2 - spread_want ** 2) <= 8 * EPS
        assert np.mean([dyn._parabolic_line(m, 1e-3)[0] is not None for m in m0]) > 0.9

    def test_pullback_angle_matches_solve(self):
        # M^{-1} d from LAPACK's solve on the unscaled M, read as a line mod
        # pi; M is scaled by 2^k, |k| <= 450, and its det by 2^2k, so the
        # det stays a normal float.  A line's angle does not depend on the
        # scale, and the bound is in ulps times the condition number of M
        rng = np.random.default_rng(41)
        m0, d = rng.normal(size=(2000, 2, 2)), rng.normal(size=(2000, 2))
        m0[:, 0] *= np.sign(np.linalg.det(m0))[:, None]
        k = rng.integers(-450, 451, size=2000)
        det0 = m0[:, 0, 0] * m0[:, 1, 1] - m0[:, 0, 1] * m0[:, 1, 0]
        got = dyn._pullback_angle(np.ldexp(m0, k[:, None, None]), np.ldexp(det0, 2 * k), d)
        v = np.linalg.solve(m0, d[..., None])[..., 0]
        err = np.abs(np.mod(got - np.arctan2(v[:, 1], v[:, 0]) + np.pi / 2, np.pi) - np.pi / 2)
        sv = np.linalg.svd(m0, compute_uv=False)
        assert ((got > -np.pi / 2) & (got <= np.pi / 2)).all()
        assert (err <= 8 * EPS * sv[:, 0] / sv[:, 1]).all()

    def test_line_along_the_first_vector_reads_zero(self):
        # the cut is the vertical: a rounding-size second entry of either
        # sign leaves a line along the first frame vector at 0, not near
        # +-pi, and the vertical line reads pi/2
        d = np.array([[1.0, 1e-17], [1.0, -1e-17], [-1.0, 1e-17], [-1.0, -1e-17],
                      [0.0, 1.0], [0.0, -1.0]])
        got = dyn._pullback_angle(np.broadcast_to(np.eye(2), (6, 2, 2)), np.ones(6), d)
        assert np.abs(got[:4]).max() <= 1e-17 and (got[4:] == np.pi / 2).all()
        # so does a D/W vector along an invariant line with a normal entry of
        # +-1e-17, and D/W normal to the line reads pi/2
        for ln in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            Jln = np.array([-ln[1], ln[0]])
            got = dyn._line_offset(d[:, :1] * ln + d[:, 1:] * Jln, ln)
            assert np.abs(got[:4]).max() <= 1e-17 and (got[4:] == np.pi / 2).all()

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, 2, elements=ENTRY).filter(np.any),
           st.lists(hnp.arrays(float, 2, elements=ENTRY).filter(np.any), min_size=1, max_size=8))
    def test_genuine_offset_is_the_arctan2_difference(self, v, rows):
        # the offset of D/W from a unit invariant line, read in the frame
        # (ln, J ln), against the difference of the two arctan2 angles; both
        # are lines, so they agree mod pi
        ln, d = v / np.hypot(*v), np.array(rows)
        got = dyn._line_offset(d, ln)
        want = np.arctan2(d[:, 1], d[:, 0]) - np.arctan2(ln[1], ln[0])
        err = np.abs(np.mod(got - want + np.pi / 2, np.pi) - np.pi / 2)
        # arctan of a ratio below about -2^53 rounds to the open end, -pi/2
        assert (np.abs(got) <= np.pi / 2).all()
        assert err.max() <= 8 * np.spacing(np.pi)

    def test_linear_fit_matches_lstsq(self):
        # y scaled by 2^k, |k| <= 400, so every square stays a full float
        rng = np.random.default_rng(40)
        for _ in range(500):
            t = np.sort(rng.uniform(0, 20, 24))
            y = (rng.normal() * t + 10 * rng.normal()
                 + 10 ** rng.uniform(-6, 1) * rng.normal(size=24))
            k = int(rng.integers(-400, 401))
            slope, r2 = dyn._linear_fit(t, np.ldexp(y, k))
            slope_want, r2_want = lapack_fit(t, y)
            assert abs(np.ldexp(slope, -k) - slope_want) <= 16 * EPS * np.abs(y).max() / t.std()
            assert abs(r2 - r2_want) <= 64 * EPS


class TestRefusals:
    def test_orbit_without_transport_data(self):
        orbit = OrbitTrace(times=np.zeros(2), points=np.zeros((2, 4)))
        with pytest.raises(FrameDegenerate, match="no transport data"):
            orbit.normalized_M()
        with pytest.raises(FrameDegenerate, match="no transport data"):
            developing_map(orbit)

    def test_invalid_projective_types(self):
        with pytest.raises(AmbiguousClass, match="n >= 1"):
            ProjectiveType("trans-parabolic", n=0)
        with pytest.raises(AmbiguousClass, match="requires a length"):
            ProjectiveType("elliptic")

    def test_negative_winding(self):
        with pytest.raises(AmbiguousClass, match="oriented positively"):
            classify_projective(HolonomyLift(np.eye(2), -1.0))

    def test_projection_identities_need_the_magnetic_kind(self, preset_cache):
        built = preset_cache("lorentz-product", kappa=-1.0)
        orbit = integrate_characteristic(built["structure"], np.zeros(4), 0.1, 1e-2)
        with pytest.raises(DegenerateKernel, match="magnetic kind"):
            geodesic_projection_check(built["extension"], orbit)


class TestGeodesicProjection:
    @pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
    def test_projection_identities(self, preset_cache, kappa):
        built = preset_cache("lorentz-magnetic", kappa=kappa)
        s, ext = built["structure"], built["extension"]
        # start mid-chart pointing along +y: a length-5 projected horocycle
        # (kappa = -1) then stays inside the chart box
        p0 = np.array([0.0, 0.0, np.pi / 2, 0.0])
        orbit = two_sided_orbit(s, p0, 5.0, 1e-3)
        res = geodesic_projection_check(ext, orbit)
        assert res["max_speed_error"] < 1e-6
        assert res["max_r1"] < 1e-3       # kappa_g = -kappa
        assert res["max_r2"] < 1e-3       # kappa_g = Phi' + 1

    def test_orbit_csv_export(self, preset_cache, tmp_path):
        s = preset_cache("lorentz-magnetic-lie", kappa=0.5)["structure"]
        orbit = integrate_characteristic(s, np.zeros(4), 0.5, 1e-2)
        orbit = transport_EmodW(s, orbit)
        path = tmp_path / "orbit.csv"
        orbit.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,p0,p1,p2,p3,M11,M12,M21,M22,angle"
        assert len(lines) == len(orbit.times) + 1
