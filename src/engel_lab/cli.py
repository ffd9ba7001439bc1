"""Command-line front end.

Subcommands bind the construction presets to the verification, dynamics, and
rigidity experiments and emit deterministic JSON/CSV artifacts.  Each
command's settings (flags and ``--config`` keys, defaults and checks) are
declared once, in :data:`_COMMANDS`.  Exit codes: 0 success (and verification
pass), 1 verification failure, 2 configuration error.
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
from .errors import ConfigError, EngelLabError, FrameDegenerate
from .frame_algebra import RANK_TOL, _time_grid
from .presets import KAPPA_PRESETS, build_preset, preset_names
from .serialize import SCHEMA_VERSION, write_csv, write_json

KAPPA_SWEEP = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)
# what a value must be and the test of it on the value as floats, checked in order
_INTEGER = lambda v: np.isfinite(v) & (v == np.floor(v))
_NONZERO = (("a finite nonzero number", lambda v: np.isfinite(v) & (v != 0)),)
_POSITIVE = (("finite and positive", lambda v: np.isfinite(v) & (v > 0)),)
_COUNT = (("an integer", _INTEGER), ("at least 1", lambda v: v >= 1))
_SEED = (("an integer, at least 0", lambda v: _INTEGER(v) & (v >= 0)),
         # verify's Halton indices run from seed + 101 on, and must fit in int64
         (f"at most {2 ** 62}", lambda v: v <= 2 ** 62))


def _manifest_from_args(args) -> dict:
    """The command's settings: the flags over the ``--config`` manifest, each
    checked by its entry in :data:`_COMMANDS`, and the defaults of the unset
    ones.  The output directory is created once they are all checked."""
    settings = {**_COMMANDS[args.command][2], "out": _OUT}
    manifest = {}
    if args.config:
        try:
            manifest = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}")
        if not isinstance(manifest, dict):
            raise ConfigError("config manifest must be a JSON object")
        if unknown := set(manifest) - set(settings):
            raise ConfigError(f"config {args.config} has unknown keys {sorted(unknown)}")
    manifest.update((key, val) for key in settings if (val := getattr(args, key)) is not None)
    if isinstance(manifest.get("p0"), str):
        manifest["p0"] = manifest["p0"].split(",")
    for key, (_, _, default, checks, opts) in settings.items():
        if key not in manifest:
            manifest[key] = default
            continue
        if "choices" in opts and manifest[key] not in opts["choices"]:
            raise ConfigError(f"{key} must be one of {', '.join(opts['choices'])}, "
                              f"got {manifest[key]!r}")
        if "type" in opts and type(manifest[key]) not in (int, float):   # not a bool or string
            raise ConfigError(f"{key} must be a number, got {manifest[key]!r}")
        for want, ok in checks:
            try:
                good = np.all(ok(np.asarray(manifest[key], dtype=float)))
            except (TypeError, ValueError):
                good = False
            if not good:
                raise ConfigError(f"{key} must be {want}, got {manifest[key]!r}")
    if "preset" in settings and manifest["preset"] is None:
        raise ConfigError("a --preset is required")
    if manifest.get("kappa") is not None and manifest["preset"] not in KAPPA_PRESETS:
        raise ConfigError(f"preset {manifest['preset']!r} does not take --kappa")
    if "dt" in settings and (dt := float(manifest["dt"])) > abs(T := float(manifest["T"])):
        raise ConfigError(f"dt must be at most |T|, got dt={dt!r} with T={T!r}")
    try:
        (out := Path(manifest["out"])).mkdir(parents=True, exist_ok=True)
    except (OSError, TypeError) as e:
        raise ConfigError(f"cannot create output directory {manifest['out']!r}: {e}")
    manifest["out"] = out
    return manifest


def _build(manifest) -> dict:
    kappa = {} if manifest["kappa"] is None else {"kappa": float(manifest["kappa"])}
    return build_preset(manifest["preset"], **kappa)


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


def cmd_verify(manifest) -> int:
    report = verify_engel(_build(manifest)["structure"],
                          n_samples=int(manifest["samples"]), tol=float(manifest["tol"]),
                          skip=100 + int(manifest["seed"]))
    doc = report.to_json_dict()
    doc["preset"] = manifest["preset"]
    out = manifest["out"] / f"verify_{manifest['preset']}.json"
    write_json(out, doc)
    s = doc["summary"]
    detail = (f"ranks (2,3,4) at {s['n_samples']} points, {s['n_marginal']} marginal"
              if report.passed else _failed_ranks(s))
    print(f"{'PASS' if report.passed else 'FAIL'} {manifest['preset']}: {detail} -> {out}")
    return 0 if report.passed else 1


def cmd_classify(manifest) -> int:
    s = _build(manifest)["structure"]
    with _rank_failures_named(s, manifest["preset"]):
        est = dyn.estimate_global_type(s, n_orbits=int(manifest["orbits"]),
                                       T_max=float(manifest["T"]), dt=float(manifest["dt"]))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "preset": manifest["preset"],
        "kappa": manifest["kappa"],
        "type": est.kind,
        "genuine": est.genuine,
        "label": est.label(),
        "evidence": est.evidence,
    }
    out = manifest["out"] / f"classify_{manifest['preset']}.json"
    write_json(out, doc)
    print(f"{manifest['preset']}: {est.label()} -> {out}")
    return 0


def cmd_orbit(manifest) -> int:
    s = _build(manifest)["structure"]
    # by default a tenth of the chart box past its center, or a Lie model's base point
    p0 = s.model.point(0.6) if manifest["p0"] is None else np.array(manifest["p0"], dtype=float)
    with _rank_failures_named(s, manifest["preset"]):
        [(orbit, truncated)] = dyn.orbits_within_chart(s, p0, float(manifest["T"]),
                                                        float(manifest["dt"]))
        orbit = dyn.transport_EmodW(s, orbit)
        dev = dyn.developing_map(orbit)
    out = manifest["out"]
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
            "n_flat": dev.n_flat,
            "first_flat_t": dev.first_flat_t,
        })
    note = f" (truncated at chart exit t={truncated:g})" if truncated else ""
    flat = (f"; {dev.n_flat} flat steps from t={dev.first_flat_t:g}"
            if dev.n_flat else "")
    print(f"{manifest['preset']}: orbit T={orbit.times[-1]:g}{note} developing "
          f"length {dev.length:.6g} (monotone{flat}) -> {path}")
    return 0


def cmd_rigidity(manifest) -> int:
    trials, seed = int(manifest["trials"]), int(manifest["seed"])
    T, dt = float(manifest["T"]), float(manifest["dt"])
    # the integral identity is checked on the probe's leading curves
    probe = rig.rigidity_probe(T=T, n_trials=trials, dt=dt, seed=seed)
    paths = probe.pop("paths")
    times = _time_grid(T, dt)[1][::2]
    residuals = [rig.inaba_identity_check(rig.DCurve(times, pts)) for pts in paths]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "probe": probe,
        "inaba_max_residual": float(max(residuals)),
        "inaba_n_curves": len(residuals),
    }
    out = manifest["out"] / "rigidity.json"
    write_json(out, doc)
    print(f"rigidity: {probe['n_outside_accessible']} of {trials} endpoints outside "
          f"A+ u AW, max cone value {probe['max_cone_value']:.3e}, "
          f"inaba residual {doc['inaba_max_residual']:.3e} -> {out}")
    return 0


def cmd_report(manifest) -> int:
    T, dt = float(manifest["T"]), float(manifest["dt"])
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
    out = manifest["out"]
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


def _setting(flag, text, default=None, checks=(), **opts):
    """A setting: its flag and help text, its default, its checks and its other
    argparse options.  A flag parses to None, so it never hides a manifest value."""
    return flag, text, default, checks, opts


_PRESET = _setting("--preset", "named construction preset", choices=preset_names())
_KAPPA = _setting("--kappa", "curvature parameter of the lorentz-* presets and "
                  "suspension-geodesic", None, (("a finite number", np.isfinite),), type=float)
_FORMAT = _setting("--format", "artifact format", "json", choices=("json", "csv"))
_OUT = _setting("--out", "output directory", ".")


def _grid(T, dt, T_checks=_NONZERO):
    """The horizon and step settings of a command that integrates."""
    return {"T": _setting("-T", "time horizon", T, T_checks, type=float),
            "dt": _setting("--dt", "integration step", dt, _POSITIVE, type=float)}


# Each command: its function, its help, and the settings it reads, which are
# its flags and its manifest keys; every command also takes --out and --config.
_COMMANDS = {
    "verify": (cmd_verify, "check ranks (2,3,4) at sample points", {
        "preset": _PRESET, "kappa": _KAPPA,
        "samples": _setting("--samples", "sample points", 1000, _COUNT, type=int),
        "tol": _setting("--tol", "rank tolerance", RANK_TOL, _POSITIVE, type=float),
        "seed": _setting("--seed", "Halton sequence offset", 0, _SEED, type=int)}),
    "classify": (cmd_classify, "estimate the global dynamic type", {
        "preset": _PRESET, "kappa": _KAPPA, **_grid(20.0, 1e-2),
        "orbits": _setting("--orbits", "orbits to integrate", 3, _COUNT, type=int)}),
    "orbit": (cmd_orbit, "integrate a characteristic orbit", {
        "preset": _PRESET, "kappa": _KAPPA, **_grid(5.0, 1e-3),
        "p0": _setting("--p0", "comma-separated start point (default: a tenth of the chart "
                       "box past its center, or a Lie model's base point)", None,
                       # every preset's model is 4-dimensional
                       (("comma-separated numbers", np.isfinite),
                        ("4 numbers", lambda v: v.shape == (4,)))),
        "format": _FORMAT}),
    "rigidity": (cmd_rigidity, "accessible-set and integral-identity probes", {
        **_grid(1.0, 1e-3, _POSITIVE),     # D-curves run forward in time
        "trials": _setting("--trials", "random D-curves probed", 1000, _COUNT, type=int),
        "seed": _setting("--seed", "random control seed", 0, _SEED, type=int)}),
    "report": (cmd_report, "kappa-sweep table for the sign law", {
        "preset": _setting("--preset", "the table", "kappa-sweep", choices=("kappa-sweep",)),
        **_grid(20.0, 1e-2), "format": _FORMAT}),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from :data:`_COMMANDS`:
    parsing fills a new namespace on every call and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="engel-lab",
        description="Engel structures: construction, verification, and "
                    "Cauchy-characteristic dynamics at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, settings) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for key, (flag, text, default, _, opts) in {**settings, "out": _OUT}.items():
            text += "" if default is None else f" (default: {default})"
            p.add_argument(flag, dest=key, help=text, **opts)
        p.add_argument("--config", help="JSON run manifest, keyed by the settings above")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:     # argparse exits 2 on a usage error, 0 after --help
        return e.code
    try:
        return _COMMANDS[args.command][0](_manifest_from_args(args))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except EngelLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
