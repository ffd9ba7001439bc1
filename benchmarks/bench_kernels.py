"""Time the integration kernels, one field evaluation and one
characteristic RK4 step.

Run:  python benchmarks/bench_kernels.py
"""
import time

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
    return f"dcurve_rk4 B={n_curves}", t


def bench_transport(n_steps=200_000):
    rng = np.random.default_rng(1)
    A = rng.normal(scale=0.3, size=(2 * n_steps + 1, 2, 2))
    A -= 0.5 * np.trace(A, axis1=1, axis2=2)[:, None, None] * np.eye(2)
    t, _ = timeit(_kernels.transport_rk4, A, 1e-4, repeat=3)
    return f"transport_rk4 {n_steps // 1000}k steps", t


def bench_field(sizes=(1, 1000)):
    """Wall time of one evaluation of the characteristic field W on
    lorentz-magnetic (one ``model.values`` call), at one point and in a batch."""
    from engel_lab.engel_verify import sample_box
    from engel_lab.presets import build_preset

    s = build_preset("lorentz-magnetic", kappa=-0.5)["structure"]
    rows = []
    for B in sizes:
        pts = sample_box(s.model, B)
        t, _ = timeit(lambda: [s.model.values([s.W_section], pts) for _ in range(20)])
        rows.append((f"field W B={B}", t / 20))
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


def main():
    # the single-curve row shows the per-call overhead of the D-curve kernel
    for name, t in (bench_dcurves(n_curves=1000), bench_dcurves(n_curves=1), bench_transport()):
        print(f"{name:<28s} {t * 1e3:9.2f}ms")
    for name, t in bench_field():
        print(f"{name:<28s} {t * 1e6:9.1f}us per evaluation")
    for name, t in bench_characteristic():
        print(f"{name:<28s} {t * 1e6:9.1f}us per RK4 step")


if __name__ == "__main__":
    main()
