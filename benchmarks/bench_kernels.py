"""Time the integration kernels, the rigidity probe (with its memory peak),
one field evaluation, one ``values`` call of seven sections, one batched
complex-step section bracket call, one Cauchy pairing kernel, one transport generator
call, one characteristic RK4 step, one constant-field chart flow, one
closed-orbit holonomy, the writing of one verify artifact and of one orbit
CSV, and the construction of every preset.

Run:  python benchmarks/bench_kernels.py
"""
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from engel_lab import _kernels


def timeit(fn, *args, repeat=5, **kwargs):
    best = np.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_dcurves(n_curves=1000, n_steps=1000):
    rng = np.random.default_rng(0)
    tg = np.linspace(0, 1, 2 * n_steps + 1)
    U = rng.normal(size=(n_curves, 1))[:, 0:1] * np.sin(np.pi * tg)[None, :] * tg
    U = np.repeat(U, 1, axis=0) + rng.normal(scale=0.1, size=(n_curves, tg.size)) * tg
    V = np.ones_like(U)
    starts = np.zeros((n_curves, 4))
    t, _ = timeit(_kernels.dcurve_rk4, U, V, starts, 1.0 / n_steps)
    return f"dcurve_rk4 B={n_curves} {n_steps} steps", t


def bench_probe(trials=(1000, 10_000)):
    """Wall time and tracemalloc peak of one ``rigidity_probe`` (T = 1,
    dt = 1e-3) at each trial count.  The probe integrates its curves a block
    at a time and keeps their endpoints and the first 100 paths, so the peak
    does not grow with the trials."""
    from engel_lab.rigidity_lab import rigidity_probe

    rows = []
    for n in trials:
        t, _ = timeit(rigidity_probe, n_trials=n, repeat=3)
        tracemalloc.start()
        try:
            rigidity_probe(n_trials=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows.append((f"rigidity_probe {n} trials", t, peak))
    return rows


def bench_transport(n_steps=200_000):
    rng = np.random.default_rng(1)
    A = rng.normal(scale=0.3, size=(2 * n_steps + 1, 2, 2))
    A -= 0.5 * np.trace(A, axis1=1, axis2=2)[:, None, None] * np.eye(2)
    t, _ = timeit(_kernels.transport_rk4, A, 1e-4, repeat=3)
    return f"transport_rk4 {n_steps // 1000}k steps", t


def bench_field(sizes=(1, 3, 1000)):
    """Wall time of one evaluation of the characteristic field W as the
    chart RK4 of ``ChartModel.flow`` evaluates it (one call of
    ``model.field(W)`` on a (B, dim) batch): on lorentz-magnetic and
    propellor-cat, whose W are constant sections, at each B of ``sizes``
    (1, 3 and 1000: the batches of ``orbit``, ``classify`` and ``verify``);
    at B = 1 and 3 on magnetic-bump, whose W is not constant and evaluates
    the Gauss curvature, and on lorentz-product, a control whose frame is the
    plain horizontal frame of the magnetic one.  lorentz-product at kappa 0
    is the flat control, the same frame on the flat torus: its surface must
    hand floats at one point as the others do, and a 0-d array there takes
    the array branch of ``lam_dlog_at``, several us per call at B = 1."""
    from engel_lab.engel_verify import sample_box
    from engel_lab.presets import build_preset

    cases = [(name, params, B) for name, params in (("lorentz-magnetic", {"kappa": -0.5}),
                                                    ("propellor-cat", {}))
             for B in sizes]
    cases += [(name, params, B) for name, params in (("magnetic-bump", {}),
                                                     ("lorentz-product", {"kappa": -0.5}),
                                                     ("lorentz-product", {"kappa": 0.0}))
              for B in (1, 3)]
    rows = []
    for name, params, B in cases:
        s = build_preset(name, **params)["structure"]
        pts, field = sample_box(s.model, B), s.model.field(s.W_section)
        t, _ = timeit(lambda: [field(pts) for _ in range(20)])
        flat = " kappa=0" if params.get("kappa") == 0.0 else ""
        rows.append((f"field W B={B} {name}{flat}", t / 20))
    return rows


def bench_values(sizes=(1, 3, 1000)):
    """Wall time of one ``model.values`` call of the seven sections E, the
    transverse section, W and D, as ``verify`` and the transport generator
    stack them: on lorentz-magnetic, cartan-r3 and propellor-cat at each B
    of ``sizes``."""
    from engel_lab.engel_verify import sample_box
    from engel_lab.presets import build_preset

    rows = []
    for name, params in (("lorentz-magnetic", {"kappa": -0.5}), ("cartan-r3", {}),
                         ("propellor-cat", {})):
        s = build_preset(name, **params)["structure"]
        sections = [*s.E_span, s.transverse_section, s.W_section, *s.D_span]
        for B in sizes:
            pts = sample_box(s.model, B)
            t, _ = timeit(lambda: [s.model.values(sections, pts) for _ in range(20)])
            rows.append((f"values of 7 B={B} {name}", t / 20))
    return rows


def bench_brackets(sizes=(1, 3, 1000, 4001)):
    """Wall time of the three E brackets [e_i, e_j] on lorentz-magnetic in
    one ``model.brackets`` call, at each B of ``sizes`` (one orbit, the batch
    of ``classify``, ``verify``, and one transport generator call): the
    complex step, one call of the stacked section values per coordinate."""
    from engel_lab.engel_verify import sample_box
    from engel_lab.presets import build_preset

    s = build_preset("lorentz-magnetic", kappa=-0.5)["structure"]
    rows = []
    for B in sizes:
        pts = sample_box(s.model, B)
        t, _ = timeit(s.model.brackets, s.E_span, [(0, 1), (0, 2), (1, 2)], pts)
        rows.append((f"E brackets B={B} complex-step", t))
    return rows


def bench_pairing(B=1000):
    """Wall time of one ``_pairing_kernel`` call at B points, as
    ``verify_engel`` makes it: the closed-form kernel of d alpha on E from
    the E and transverse values and the three E brackets, on lorentz-magnetic
    and propellor-cat."""
    from engel_lab.engel_verify import _E_PAIRS, _pairing_kernel, sample_box
    from engel_lab.frame_algebra import RANK_TOL
    from engel_lab.presets import build_preset

    rows = []
    for name, params in (("lorentz-magnetic", {"kappa": -0.5}), ("propellor-cat", {})):
        s = build_preset(name, **params)["structure"]
        pts = sample_box(s.model, B)
        vals = s.model.values([*s.E_span, s.transverse_section, s.W_section], pts)
        brEE = s.model.brackets(s.E_span, _E_PAIRS, pts)
        t, _ = timeit(lambda: [_pairing_kernel(vals[:, :4], brEE, vals[:, 4], RANK_TOL)
                               for _ in range(20)])
        rows.append((f"pairing B={B} {name}", t / 20))
    return rows


def bench_generator(sizes=(1, 3, 4001)):
    """Wall time of one ``transport_generator`` call: on propellor-cat at B =
    1, 3 and 4001 points (one orbit, the batch of ``classify``, and about the
    half-step grid of a T = 20 orbit at dt = 1e-2), complex-step
    brackets and Cramer's rule in the frame at every point; and on
    lorentz-magnetic-lie at B = 4001, one exact row for all points."""
    from engel_lab.characteristic_dynamics import transport_generator
    from engel_lab.presets import build_preset

    rows = []
    for name, batch in (("propellor-cat", sizes), ("lorentz-magnetic-lie", sizes[-1:])):
        s = build_preset(name)["structure"]
        for B in batch:
            pts = np.broadcast_to(s.model.sample(B), (B, s.model.dim))
            t, _ = timeit(transport_generator, s, pts)
            rows.append((f"transport_generator B={B} {name}", t))
    return rows


def bench_characteristic(n_steps=200):
    """Wall time of one chart RK4 step of the characteristic orbit on
    lorentz-magnetic, one orbit against a batch of three."""
    from engel_lab.characteristic_dynamics import integrate_orbits
    from engel_lab.presets import build_preset

    s = build_preset("lorentz-magnetic", kappa=-0.5)["structure"]
    starts = s.model.box.mean(axis=1) + np.array(
        [[0.0, 0.0, 0.0, 0.0], [0.05, -0.05, 0.3, 0.1], [-0.05, 0.05, -0.3, 0.2]])
    rows = []
    for B in (1, 3):
        t, (_, _, kept) = timeit(integrate_orbits, s, starts[:B], n_steps * 1e-3, 1e-3,
                                 repeat=3)
        assert np.all(kept == n_steps), "a benchmark orbit left the chart"
        rows.append((f"characteristic B={B}", t / n_steps))
    return rows


def bench_flow(T=20.0, dt=1e-2):
    """Wall time of one ``integrate_orbits`` call of a characteristic field
    that is constant in its chart, so ``ChartModel.flow`` takes one prefix
    sum per row instead of the RK4 loop: on propellor-cat from B = 3 starts
    (the batch of ``classify``) and on cartan-r3 from one start, at T = 20
    and dt = 1e-2 (2,000 steps) by default."""
    from engel_lab.characteristic_dynamics import integrate_orbits
    from engel_lab.engel_verify import sample_box
    from engel_lab.presets import build_preset

    rows = []
    for name, B in (("propellor-cat", 3), ("cartan-r3", 1)):
        s = build_preset(name)["structure"]
        t, _ = timeit(integrate_orbits, s, sample_box(s.model, B), T, dt)
        rows.append((f"constant flow B={B} {name}", t))
    return rows


def bench_closed_orbit():
    """Wall time of one ``closed_orbit_holonomy`` call on the flat-torus
    orbit (lorentz-product, kappa = 0, from (0, 0.4, 0, 0), dt 1e-3, t_max
    8): one integration over t_max, then transport up to the return."""
    from engel_lab.characteristic_dynamics import closed_orbit_holonomy
    from engel_lab.presets import build_preset

    s = build_preset("lorentz-product", kappa=0.0)["structure"]
    t, _ = timeit(closed_orbit_holonomy, s, np.array([0.0, 0.4, 0.0, 0.0]), 1e-3, 8.0,
                  repeat=3)
    return "closed orbit, flat torus t_max=8", t


def bench_verify_artifact(n=1000):
    """Wall time of writing one ``verify`` artifact: ``write_json`` of the
    lorentz-magnetic report at n samples, as ``cmd_verify`` writes it."""
    from engel_lab.engel_verify import verify_engel
    from engel_lab.presets import build_preset
    from engel_lab.serialize import write_json

    report = verify_engel(build_preset("lorentz-magnetic")["structure"], n_samples=n)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "verify_lorentz-magnetic.json"
        t, _ = timeit(lambda: write_json(path, {**report.to_json_dict(),
                                                "preset": "lorentz-magnetic"}))
    return f"verify artifact, {n} records", t


def bench_orbit_csv(T=20.0, dt=1e-3):
    """Wall time of writing one orbit CSV of T / dt + 1 rows (20,001 at the
    defaults): the transported lorentz-magnetic-lie orbit from the base
    point, as ``orbit --format csv`` writes it (time, point, M and angle)."""
    from engel_lab.characteristic_dynamics import integrate_characteristic, transport_EmodW
    from engel_lab.presets import build_preset

    s = build_preset("lorentz-magnetic-lie", kappa=-0.5)["structure"]
    orbit = transport_EmodW(s, integrate_characteristic(s, np.zeros(4), T, dt))
    with tempfile.TemporaryDirectory() as d:
        t, _ = timeit(orbit.to_csv, Path(d) / "orbit.csv")
    return f"orbit csv, {len(orbit.times)} rows", t


def bench_presets():
    """Wall time of building every preset once at its defaults, as
    ``build_preset`` does at the start of each CLI task."""
    from engel_lab.presets import build_preset, preset_names

    names = preset_names()
    t, _ = timeit(lambda: [build_preset(name) for name in names])
    return f"build all {len(names)} presets", t


def main():
    # B = 1 shows the per-call overhead of the D-curve kernel, B = 8 a batch
    # as small as those of the Inaba-identity tests
    dcurves = [bench_dcurves(n_curves=1000)] + [bench_dcurves(n_curves=B, n_steps=2000)
                                                 for B in (1, 8)]
    for name, t in dcurves + [bench_transport()]:
        print(f"{name:<34s} {t * 1e3:9.2f}ms")
    for name, t, peak in bench_probe():
        print(f"{name:<34s} {t * 1e3:9.2f}ms, peak {peak / 1e6:.1f} MB")
    for name, t in bench_field():
        print(f"{name:<40s} {t * 1e6:9.1f}us per evaluation")
    for name, t in bench_values():
        print(f"{name:<34s} {t * 1e6:9.1f}us per call")
    for name, t in bench_brackets():
        print(f"{name:<34s} {t * 1e3:9.2f}ms per call")
    for name, t in bench_pairing():
        print(f"{name:<34s} {t * 1e3:9.2f}ms per call")
    for name, t in bench_generator():
        print(f"{name:<48s} {t * 1e3:9.2f}ms per call")
    for name, t in bench_characteristic():
        print(f"{name:<34s} {t * 1e6:9.1f}us per RK4 step")
    for name, t in bench_flow():
        print(f"{name:<34s} {t * 1e3:9.2f}ms per call")
    name, t = bench_closed_orbit()
    print(f"{name:<34s} {t * 1e3:9.2f}ms per call")
    for name, t in (bench_verify_artifact(), bench_orbit_csv()):
        print(f"{name:<34s} {t * 1e3:9.2f}ms per write")
    name, t = bench_presets()
    print(f"{name:<34s} {t * 1e3:9.2f}ms")


if __name__ == "__main__":
    main()
