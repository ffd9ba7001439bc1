"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.  Tolerances are pinned here and nowhere else.
"""
import time

import numpy as np

import engel_lab as el
from engel_lab.characteristic_dynamics import (
    classify_projective,
    closed_form_exp,
    closed_orbit_holonomy,
    estimate_global_type,
    geodesic_projection_check,
    integrate_characteristic,
    transport_EmodW,
    transport_generator,
    two_sided_orbit,
)
from engel_lab.engel_verify import cauchy_characteristic, line_angle, sample_box, verify_engel
from engel_lab.frame_algebra import bracket_chart, distribution_rank
from engel_lab.rigidity_lab import (
    AccessRegion,
    accessible_membership,
    boundary_cone_value,
    inaba_identity_check,
    infinitesimal_rigidity_check,
    null_variation_check,
    random_admissible_controls,
    sample_d_curve,
    sample_d_curves_batch,
)

KAPPAS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_engel_verification(preset_cache):
    """Ranks (2,3,4) at 1000 quasi-random points, sv tolerance 1e-8, < 30 s."""
    jobs = [("darboux", {}), ("long-darboux", {}), ("cartan-r3", {}),
            ("prequantum-local", {}), ("propellor-identity", {}),
            ("propellor-parabolic", {}), ("propellor-cat", {})]
    for k in KAPPAS:
        jobs.append(("lorentz-product", {"kappa": k}))
        jobs.append(("lorentz-magnetic", {"kappa": k}))
    t0 = time.time()
    failures = []
    for name, kw in jobs:
        rep = verify_engel(preset_cache(name, **kw)["structure"],
                           n_samples=1000, tol=1e-8)
        if not rep.passed:
            failures.append((name, kw, rep.summary))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    report(1, ok, f"{len(jobs)} structures, 1000 pts each, tol 1e-8, "
                  f"{elapsed:.1f}s (<30s); failures={failures}")


def test_criterion_2_cauchy_closed_forms(preset_cache):
    """Extracted characteristic line matches the closed forms to 1e-6."""
    worst = 0.0
    s = preset_cache("darboux")["structure"]
    pts = sample_box(s.model, 1000)
    w = cauchy_characteristic(s, pts)
    worst = max(worst, float(np.max(line_angle(w, np.tile([0, 0, 0, 1.0], (1000, 1))))))
    for k in KAPPAS:
        for kind in ("lorentz-product", "lorentz-magnetic"):
            s = preset_cache(kind, kappa=k)["structure"]
            pts = sample_box(s.model, 1000)
            w = cauchy_characteristic(s, pts)
            ref = s.model.values([s.W_section], pts)[:, 0]
            worst = max(worst, float(np.max(line_angle(w, ref))))
    report(2, worst < 1e-6,
           f"dw / X+Theta / Xt+Zt-(1+k)Theta at 1000 pts, max angle {worst:.2e} (<1e-6)")


def test_criterion_3_magnetic_holonomy_matrices(preset_cache):
    """Transported holonomy vs exp(tA); classification and invariant lines."""
    max_err = 0.0
    for k in KAPPAS:
        s = preset_cache("lorentz-magnetic-lie", kappa=k)["structure"]
        orbit = integrate_characteristic(s, np.zeros(4), 1.0, 1e-3)
        orbit = transport_EmodW(s, orbit)
        Mcf = closed_form_exp(transport_generator(s))(1.0)
        max_err = max(max_err, float(np.abs(orbit.M[-1] - Mcf).max()))

    kinds = {}
    for k in KAPPAS:
        s = preset_cache("lorentz-magnetic-lie", kappa=k)["structure"]
        kinds[k] = estimate_global_type(s, n_orbits=1, T_max=20.0, dt=1e-2)
    class_ok = (kinds[1.0].kind == "elliptic" and kinds[-2.0].kind == "elliptic"
                and kinds[0.0].kind == "parabolic" and kinds[-1.0].kind == "parabolic"
                and kinds[-0.5].kind == "hyperbolic")

    shear_err = 0.0
    for k in (0.0, -1.0):
        s = preset_cache("lorentz-magnetic-lie", kappa=k)["structure"]
        orbit = integrate_characteristic(s, np.zeros(4), 2.0, 1e-3)
        orbit = transport_EmodW(s, orbit)
        want = np.broadcast_to(np.eye(2), orbit.M.shape).copy()
        want[:, 1, 0] = orbit.times
        shear_err = max(shear_err, float(np.abs(orbit.M - want).max()))

    lines = [np.array(l) for l in
             kinds[-0.5].evidence["orbits"][0]["lines"]]
    line_err = 0.0
    for ref in (np.array([0.5, 1.0]), np.array([0.5, -1.0])):
        ref = ref / np.linalg.norm(ref)
        best = min(float(np.arccos(np.clip(abs(ref @ l / np.linalg.norm(l)), 0, 1)))
                   for l in lines)
        line_err = max(line_err, best)

    ok = max_err < 1e-6 and class_ok and shear_err < 1e-6 and line_err < 1e-3
    table = {k: v.kind for k, v in kinds.items()}
    report(3, ok, f"|Mnum-exp(A)|={max_err:.1e} (<1e-6); classes {table} "
                  f"ok={class_ok}; parabolic shear err {shear_err:.1e} (<1e-6); "
                  f"invariant lines <0.5T+-Y> to {line_err:.1e} (<1e-3)")


def test_criterion_4_product_table(preset_cache):
    """Product extension: elliptic / parabolic / hyperbolic for k = 1/0/-1."""
    got = {}
    for k in (1.0, 0.0, -1.0):
        s = preset_cache("lorentz-product-lie", kappa=k)["structure"]
        got[k] = estimate_global_type(s, n_orbits=1, T_max=20.0, dt=1e-2).kind
    ok = got == {1.0: "elliptic", 0.0: "parabolic", -1.0: "hyperbolic"}
    report(4, ok, f"product-extension type table {got}")


def test_criterion_5_projection_identities(preset_cache):
    """Unit projected speed to 1e-6; |kg + k| and |kg - (Phi'+1)| < 1e-3."""
    worst_speed, worst_r1, worst_r2 = 0.0, 0.0, 0.0
    for k in (1.0, 0.0, -1.0):
        built = preset_cache("lorentz-magnetic", kappa=k)
        s, ext = built["structure"], built["extension"]
        p0 = np.array([0.0, 0.0, np.pi / 2, 0.0])
        orbit = two_sided_orbit(s, p0, 5.0, 1e-3)
        res = geodesic_projection_check(ext, orbit)
        worst_speed = max(worst_speed, res["max_speed_error"])
        worst_r1 = max(worst_r1, res["max_r1"])
        worst_r2 = max(worst_r2, res["max_r2"])
    ok = worst_speed < 1e-6 and worst_r1 < 1e-3 and worst_r2 < 1e-3
    report(5, ok, f"length-5 orbits, k in {{1,0,-1}}: speed err {worst_speed:.1e} "
                  f"(<1e-6), |kg+k| {worst_r1:.1e}, |kg-(Phi'+1)| {worst_r2:.1e} (<1e-3)")


def test_criterion_6_inaba_identity(rng):
    """Integral-identity residual < 1e-5 over 100 random admissible curves."""
    worst = 0.0
    for _ in range(100):
        u, v = random_admissible_controls(rng)
        c = sample_d_curve((u, v), 1.0, 1e-3)
        worst = max(worst, inaba_identity_check(c))
    report(6, worst < 1e-5, f"100 curves, T=1: max residual {worst:.2e} (<1e-5)")


def test_criterion_7_accessible_set(rng):
    """1000 forward D-curves land in A+ u AW; AW only for u = 0; cone < 0."""
    n = 1000
    nsteps = 1000
    tg = np.linspace(0.0, 1.0, 2 * nsteps + 1)
    U = np.empty((n, tg.size))
    for i in range(n):
        u, _ = random_admissible_controls(rng)
        U[i] = u(tg)
    paths = sample_d_curves_batch(U, np.ones_like(U), 1.0, 1e-3)
    regions = [accessible_membership(p[-1]) for p in paths]
    cones = np.array([boundary_cone_value(p[-1]) for p in paths])
    nontrivial = np.abs(U).max(axis=1) > 0
    in_aplus = all(r is AccessRegion.APlus for r, nt in zip(regions, nontrivial) if nt)
    aw_only_trivial = all(not nt for r, nt in zip(regions, nontrivial)
                          if r is AccessRegion.AW)
    cone_strict = bool(np.all(cones[nontrivial] < 0.0))
    zero = sample_d_curve((lambda t: 0.0 * np.atleast_1d(t),
                           lambda t: np.ones_like(np.atleast_1d(t))), 1.0, 1e-3)
    aw_attained = accessible_membership(zero.points[-1]) is AccessRegion.AW
    ok = in_aplus and aw_only_trivial and cone_strict and aw_attained
    report(7, ok, f"1000 curves: A+ only for nontrivial controls ({in_aplus}), "
                  f"AW iff u=0 ({aw_only_trivial and aw_attained}), "
                  f"max cone value {cones[nontrivial].max():.2e} (<0)")


def test_criterion_8_infinitesimal_rigidity():
    """W-curves IWR up to 3pi/2; transverse witness is LSF."""
    worst = 0.0
    for length in (np.pi / 2, np.pi, 1.5 * np.pi):
        out = infinitesimal_rigidity_check("w_curve", length=length)
        worst = max(worst, out["max_dy_ds"] / out["norm"])
    witness = infinitesimal_rigidity_check("transverse")
    ratio = witness["max_dy_ds"] / witness["norm"]
    ok = worst <= 1e-6 and ratio >= 0.1
    report(8, ok, f"W-curves up to 3pi/2: max |dy/ds| per unit norm "
                  f"{worst:.2e} (<=1e-6); transverse witness {ratio:.3f} (>=0.1)")


def test_criterion_9_null_variation():
    """max |dg(beta', dB/ds)| < 1e-4 on flat and curved charts."""
    worst = 0.0
    from engel_lab.geometry_models import constant_curvature_surface, flat_surface
    for surface, p0, T in ((flat_surface(), (0.0, 0.0, 0.4), 3.0),
                           (constant_curvature_surface(1.0), (0.0, 0.0, 0.3), 2.0),
                           (constant_curvature_surface(-1.0), (0.0, 0.0, np.pi / 2), 2.0)):
        out = null_variation_check(surface, p0=p0, T=T)
        worst = max(worst, out["residual_max"])
    report(9, worst < 1e-4, f"flat/sphere/disk charts: max residual {worst:.2e} (<1e-4)")


def test_criterion_10_closed_orbit_types(preset_cache, rng):
    """Cartan fiber elliptic of length pi; flat-torus characteristics
    parabolic; all five synthetic classes conjugation-invariant."""
    s = preset_cache("cartan-r3")["structure"]
    h, _ = closed_orbit_holonomy(s, np.array([0.2, -0.1, 0.3, 0.0]),
                                 dt=1e-3, t_max=4.0)
    t_cartan = classify_projective(h)
    cartan_ok = (t_cartan.kind == "elliptic" and abs(t_cartan.length - np.pi) < 1e-6)

    s = preset_cache("lorentz-product", kappa=0.0)["structure"]
    h, _ = closed_orbit_holonomy(s, np.array([0.0, 0.4, 0.0, 0.0]),
                                 dt=1e-3, t_max=8.0)
    flat_ok = classify_projective(h).kind == "parabolic"

    def rot(a):
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])

    synthetic = [
        (rot(1.1), 1.1, "elliptic"),
        (np.array([[1.0, 0.0], [1.7, 1.0]]), 2.0, "parabolic"),
        (np.diag([2.0, 0.5]), 1.2, "hyperbolic"),
        (np.array([[1.0, -1.0], [0.0, 1.0]]), np.pi + 0.4, "trans-parabolic"),
        (np.diag([2.0, 0.5]), 2 * np.pi + 0.3, "trans-hyperbolic"),
    ]
    synth_ok = True
    for m, w, want in synthetic:
        for _ in range(200):
            g = rng.normal(size=(2, 2))
            while abs(np.linalg.det(g)) < 0.1:
                g = rng.normal(size=(2, 2))
            g /= np.sqrt(abs(np.linalg.det(g)))
            conj = g @ m @ np.linalg.inv(g)
            got = classify_projective(el.HolonomyLift(conj, w))
            synth_ok &= got.kind == want
    ok = cartan_ok and flat_ok and synth_ok
    report(10, ok, f"Cartan fiber {t_cartan.kind}(len {t_cartan.length:.6f}) "
                   f"ok={cartan_ok}; flat-torus parabolic ok={flat_ok}; "
                   f"5 classes x 1000 conjugations ok={synth_ok}")


def test_criterion_11_property_suites(preset_cache, rng):
    """Bracket antisymmetry/Jacobi, rank GL-invariance, reversibility,
    developing monotonicity; the full pytest run enforces the 5-minute cap."""
    # bracket antisymmetry on the magnetic chart frame
    s = preset_cache("lorentz-magnetic", kappa=-0.5)["structure"]
    p = np.array([0.1, -0.05, 0.4, 0.8])
    f12, f21 = bracket_chart(s.model.frame, [(0, 1), (1, 0)], p)
    anti = float(np.abs(f12 + f21).max())

    # Jacobi exact on every Lie preset
    jacobi = 0.0
    for k in KAPPAS:
        m = preset_cache("lorentz-magnetic-lie", kappa=k)["structure"].model
        jacobi = max(jacobi, m.jacobi_defect())

    # rank invariance under GL recombination
    gl_ok = True
    for _ in range(50):
        vecs = rng.normal(size=(3, 4))
        g = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        if abs(np.linalg.det(g)) < 1e-2:
            continue
        gl_ok &= distribution_rank(list(vecs)) == distribution_rank(list(g @ vecs))

    # flow reversibility at 1e-6
    p0 = np.array([0.05, -0.04, 0.3, 0.2])
    fwd = integrate_characteristic(s, p0, 1.0, 1e-3)
    back = integrate_characteristic(s, fwd.points[-1], -1.0, 1e-3)
    rev = float(np.abs(back.points[-1] - p0).max())

    # developing-map monotonicity across verified structures
    mono_ok = True
    for name, kw, start in (("darboux", {}, np.zeros(4)),
                            ("cartan-r3", {}, np.array([0.1, 0.2, 0.3, 0.0])),
                            ("lorentz-magnetic-lie", {"kappa": 1.0}, np.zeros(4))):
        st = preset_cache(name, **kw)["structure"]
        orbit = transport_EmodW(st, integrate_characteristic(st, start, 1.0, 1e-3))
        try:
            el.developing_map(orbit)
        except Exception:
            mono_ok = False
    ok = anti < 1e-9 and jacobi < 1e-12 and gl_ok and rev < 1e-6 and mono_ok
    report(11, ok, f"antisymmetry {anti:.1e} (<1e-9), jacobi {jacobi:.1e} "
                   f"(<1e-12), GL-rank ok={gl_ok}, reversibility {rev:.1e} "
                   f"(<1e-6), monotone developing ok={mono_ok}")
