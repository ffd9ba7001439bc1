"""Command-line front end.

Subcommands bind the construction presets to the verification, dynamics, and
rigidity experiments and emit deterministic JSON/CSV artifacts.  Exit codes:
0 success (and verification pass), 1 verification failure, 2 configuration
error.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import characteristic_dynamics as dyn
from . import rigidity_lab as rig
from .engel_verify import verify_engel
from .errors import AmbiguousClass, ConfigError, EngelLabError, FrameDegenerate
from .presets import KAPPA_PRESETS, build_preset, preset_names
from .serialize import SCHEMA_VERSION, write_csv, write_json

KAPPA_SWEEP = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)
# the run settings (flags and --config keys); for those with a range, what a
# value must be and the test of it, checked in order
_KEYS = ("preset", "kappa", "T", "dt", "trials", "seed", "tol",
         "samples", "orbits", "out", "format", "p0")
_INTEGER = lambda v: np.isfinite(v) & (v == np.floor(v))
_POSITIVE = (("finite and positive", lambda v: np.isfinite(v) & (v > 0)),)
_COUNT = (("an integer", _INTEGER), ("at least 1", lambda v: v >= 1))
_RANGES = {"T": (("a finite nonzero number", lambda v: np.isfinite(v) & (v != 0)),),
           "dt": _POSITIVE, "tol": _POSITIVE,
           "samples": _COUNT, "trials": _COUNT, "orbits": _COUNT,
           # verify's Halton indices run from seed + 101 on, and must fit in int64
           "seed": (("an integer, at least 0", lambda v: _INTEGER(v) & (v >= 0)),
                    (f"at most {2 ** 62}", lambda v: v <= 2 ** 62)),
           "p0": (("comma-separated numbers", np.isfinite),)}


def _manifest_from_args(args, **ranges) -> dict:
    """The flags over the ``--config`` manifest, checked by ``{**_RANGES, **ranges}``."""
    manifest = {}
    if getattr(args, "config", None):
        try:
            manifest = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}")
        if not isinstance(manifest, dict):
            raise ConfigError("config manifest must be a JSON object")
        if unknown := set(manifest) - set(_KEYS):
            raise ConfigError(f"config {args.config} has unknown keys {sorted(unknown)}")
    for key in _KEYS:
        val = getattr(args, key, None)
        if val is not None:
            manifest[key] = val
    if isinstance(manifest.get("p0"), str):
        manifest["p0"] = manifest["p0"].split(",")
    for key, checks in {**_RANGES, **ranges}.items():
        for want, ok in checks:
            try:
                good = key not in manifest or np.all(ok(np.asarray(manifest[key], dtype=float)))
            except (TypeError, ValueError):
                good = False
            if not good:
                raise ConfigError(f"{key} must be {want}, got {manifest[key]!r}")
    manifest.setdefault("seed", 0)
    manifest.setdefault("format", "json")
    if manifest.get("format") not in ("json", "csv"):
        raise ConfigError("--format must be json or csv")
    return manifest


def _horizon(manifest, T: float, dt: float) -> tuple[float, float]:
    """The run's T and dt, defaults given; a step longer than |T| is refused."""
    T, dt = float(manifest.get("T", T)), float(manifest.get("dt", dt))
    if dt > abs(T):
        raise ConfigError(f"dt must be at most |T|, got dt={dt!r} with T={T!r}")
    return T, dt


def _build(manifest) -> dict:
    name = manifest.get("preset")
    if not name:
        raise ConfigError("a --preset is required")
    overrides = {}
    if manifest.get("kappa") is not None:
        if name not in KAPPA_PRESETS:
            raise ConfigError(f"preset {name!r} does not take --kappa")
        overrides["kappa"] = float(manifest["kappa"])
    return build_preset(name, **overrides)


def _outdir(manifest) -> Path:
    out = Path(manifest.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _failed_ranks(summary: dict) -> str:
    """The failed rank conditions of a verify summary, in the words ``verify`` prints."""
    bad = [k for k in ("all_rank_D_2", "all_rank_E_3", "all_rank_EE_4") if not summary[k]]
    return f"failed {', '.join(bad)} over {summary['n_samples']} points"


@contextlib.contextmanager
def _rank_failures_named(s, preset: str):
    """Add to a :class:`FrameDegenerate` the rank conditions that ``verify`` at
    its defaults finds failed; for a structure that passes, it goes on unchanged."""
    try:
        yield
    except FrameDegenerate as e:
        if (report := verify_engel(s)).passed:
            raise
        raise FrameDegenerate(f"{e}: {preset} is not Engel, {_failed_ranks(report.summary)}") from e


def cmd_verify(args) -> int:
    manifest = _manifest_from_args(args)
    report = verify_engel(_build(manifest)["structure"],
                          n_samples=int(manifest.get("samples", 1000)),
                          tol=float(manifest.get("tol", 1e-8)), skip=100 + int(manifest["seed"]))
    doc = report.to_json_dict()
    doc["preset"] = manifest["preset"]
    out = _outdir(manifest) / f"verify_{manifest['preset']}.json"
    write_json(out, doc)
    s = doc["summary"]
    detail = (f"ranks (2,3,4) at {s['n_samples']} points, {s['n_marginal']} marginal"
              if report.passed else _failed_ranks(s))
    print(f"{'PASS' if report.passed else 'FAIL'} {manifest['preset']}: {detail} -> {out}")
    return 0 if report.passed else 1


def cmd_classify(args) -> int:
    manifest = _manifest_from_args(args)
    T, dt = _horizon(manifest, 20.0, 1e-2)
    s = _build(manifest)["structure"]
    with _rank_failures_named(s, manifest["preset"]):
        est = dyn.estimate_global_type(s, n_orbits=int(manifest.get("orbits", 3)),
                                       T_max=T, dt=dt)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "preset": manifest["preset"],
        "kappa": manifest.get("kappa"),
        "type": est.kind,
        "genuine": est.genuine,
        "label": est.label(),
        "evidence": est.evidence,
    }
    out = _outdir(manifest) / f"classify_{manifest['preset']}.json"
    write_json(out, doc)
    print(f"{manifest['preset']}: {est.label()} -> {out}")
    return 0


def cmd_orbit(args) -> int:
    manifest = _manifest_from_args(args)
    T, dt = _horizon(manifest, 5.0, 1e-3)
    s = _build(manifest)["structure"]
    # by default a tenth of the chart box past its center, or a Lie model's base point
    p0 = np.array(manifest["p0"], dtype=float) if "p0" in manifest else s.model.point(0.6)
    if p0.shape[-1:] != (s.model.dim,):
        raise ConfigError(f"p0 must be {s.model.dim} numbers, got {manifest['p0']!r}")
    with _rank_failures_named(s, manifest["preset"]):
        [(orbit, truncated)] = dyn.orbits_within_chart(s, p0, T, dt)
        orbit = dyn.transport_EmodW(s, orbit)
        dev = dyn.developing_map(orbit)
    out = _outdir(manifest)
    if manifest["format"] == "csv":
        path = out / f"orbit_{manifest['preset']}.csv"
        orbit.to_csv(path)
    else:
        path = out / f"orbit_{manifest['preset']}.json"
        write_json(path, {
            "schema_version": SCHEMA_VERSION,
            "preset": manifest["preset"],
            "t": orbit.times,
            "points": orbit.points,
            "angle": orbit.angle,
            "developing_length": dev.length,
        })
    note = f" (truncated at chart exit t={truncated:g})" if truncated else ""
    print(f"{manifest['preset']}: orbit T={orbit.times[-1]:g}{note} developing "
          f"length {dev.length:.6g} (monotone) -> {path}")
    return 0


def cmd_rigidity(args) -> int:
    manifest = _manifest_from_args(args, T=_POSITIVE)     # D-curves run forward in time
    trials = int(manifest.get("trials", 1000))
    T, dt = _horizon(manifest, 1.0, 1e-3)
    seed = int(manifest["seed"])
    probe = rig.rigidity_probe(T=T, n_trials=trials, dt=dt, seed=seed)

    U = rig.random_admissible_table(np.random.default_rng(seed), 100, T, dt)
    paths = rig.sample_d_curves_batch(U, np.ones_like(U), T, dt)
    times = np.linspace(0.0, T, paths.shape[1])
    residuals = [rig.inaba_identity_check(rig.DCurve(times, pts, (None, None)))
                 for pts in paths]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "probe": probe,
        "inaba_max_residual": float(max(residuals)),
        "inaba_n_curves": len(residuals),
    }
    out = _outdir(manifest) / "rigidity.json"
    write_json(out, doc)
    print(f"rigidity: {probe['n_outside_accessible']} of {trials} endpoints outside "
          f"A+ u AW, max cone value {probe['max_cone_value']:.3e}, "
          f"inaba residual {doc['inaba_max_residual']:.3e} -> {out}")
    return 0


def cmd_report(args) -> int:
    manifest = _manifest_from_args(args)
    preset = manifest.get("preset", "kappa-sweep")
    if preset != "kappa-sweep":
        raise ConfigError("report supports --preset kappa-sweep")
    T, dt = _horizon(manifest, 20.0, 1e-2)
    rows = []
    for kappa in KAPPA_SWEEP:
        built = build_preset("lorentz-magnetic-lie", kappa=kappa)
        est = dyn.estimate_global_type(built["structure"], n_orbits=1, T_max=T, dt=dt)
        c = kappa * (kappa + 1.0)
        expected = "elliptic" if c > 0 else ("parabolic" if c == 0 else "hyperbolic")
        rows.append({
            "kappa": kappa,
            "kappa_kappa_plus_1": c,
            "expected": expected,
            "estimated": est.kind,
            "genuine": est.genuine,
            "agrees": est.kind == expected,
        })
    out = _outdir(manifest)
    if manifest["format"] == "csv":
        path = out / "kappa_sweep.csv"
        write_csv(path, ["kappa", "kappa_kappa_plus_1", "agrees"],
                  [[r["kappa"] for r in rows],
                   [r["kappa_kappa_plus_1"] for r in rows],
                   [1.0 if r["agrees"] else 0.0 for r in rows]])
    else:
        path = out / "kappa_sweep.json"
        write_json(path, {"schema_version": SCHEMA_VERSION, "rows": rows})
    ok = all(r["agrees"] for r in rows)
    for r in rows:
        print(f"kappa={r['kappa']:+.2f}  k(k+1)={r['kappa_kappa_plus_1']:+.2f}  "
              f"expected={r['expected']:<10s} estimated={r['estimated']}")
    print(("sign law reproduced" if ok else "MISMATCH") + f" -> {path}")
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing fills a new
    namespace on every call and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="engel-lab",
        description="Engel structures: construction, verification, and "
                    "Cauchy-characteristic dynamics at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kappa=True):
        p.add_argument("--preset", choices=preset_names() + ["kappa-sweep"],
                       help="named construction preset")
        if kappa:
            p.add_argument("--kappa", type=float, default=None,
                           help="curvature parameter for lorentz-* presets")
        p.add_argument("-T", dest="T", type=float, default=None, help="time horizon")
        p.add_argument("--dt", type=float, default=None, help="integration step")
        p.add_argument("--tol", type=float, default=None, help="rank tolerance")
        p.add_argument("--seed", type=int, default=None, help="sampling seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--config", default=None, help="JSON run manifest")

    p = sub.add_parser("verify", help="check ranks (2,3,4) at sample points")
    common(p)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="estimate the global dynamic type")
    common(p)
    p.add_argument("--orbits", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("orbit", help="integrate a characteristic orbit")
    common(p)
    p.add_argument("--p0", default=None, help="comma-separated start point")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("rigidity", help="accessible-set and integral-identity probes")
    common(p, kappa=False)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("report", help="kappa-sweep table for the sign law")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except AmbiguousClass as e:
        print(f"ambiguous classification: {e}", file=sys.stderr)
        return 1
    except EngelLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
