"""Smoke run of ``benchmarks/bench_kernels.py``: every timing it reports
still runs, at tiny sizes."""
import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def bench():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_runs_at_tiny_sizes(bench):
    # bench_closed_orbit has no size argument and takes about 1.5 s
    rows = [bench.bench_dcurves(n_curves=2, n_steps=10), bench.bench_transport(n_steps=100),
            *bench.bench_probe(trials=(10,)), *bench.bench_field(sizes=(1, 10)),
            *bench.bench_values(sizes=(1, 10)),
            *bench.bench_brackets(sizes=(1, 10)), *bench.bench_pairing(B=10),
            *bench.bench_generator(sizes=(1, 11)),
            *bench.bench_characteristic(n_steps=5), *bench.bench_flow(T=0.1),
            bench.bench_verify_artifact(n=10),
            bench.bench_orbit_csv(T=0.1, dt=1e-2), bench.bench_presets()]
    for name, t, *_ in rows:
        assert isinstance(name, str) and t > 0, name
    names = {row[0] for row in rows}
    assert {f"field W B={B} {preset}" for B in (1, 3)
            for preset in ("magnetic-bump", "lorentz-product", "lorentz-product kappa=0")} <= names
    assert {f"values of 7 B={B} {preset}" for B in (1, 10)
            for preset in ("lorentz-magnetic", "cartan-r3", "propellor-cat")} <= names
    assert {"E brackets B=1 complex-step", "E brackets B=10 complex-step"} <= names
    assert {f"pairing B=10 {preset}" for preset in ("lorentz-magnetic", "propellor-cat")} <= names
    assert {"transport_generator B=1 propellor-cat", "transport_generator B=11 propellor-cat",
            "transport_generator B=11 lorentz-magnetic-lie"} <= names
