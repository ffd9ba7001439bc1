"""The four benchmark workloads: CLI tasks generated from a seed, the work
each task requests, and a correctness oracle per task.

Task sizes are the ROADMAP Baseline rows and must not be resized.  Every
size-bearing flag is passed explicitly (with the CLI's default value) so a
change of default in the program cannot silently change the work measured.
The oracles use only expectations the repository already pins: the sign law,
the acceptance-suite bounds and the verdicts in ``tests/``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# the 16 presets at this benchmark's definition; fixed here, not read from
# the program, so that adding a preset does not change the workload
PRESETS = (
    "bi-engel-cat", "cartan-r3", "darboux", "integrable-counterexample",
    "long-darboux", "lorentz-magnetic", "lorentz-magnetic-lie",
    "lorentz-product", "lorentz-product-lie", "magnetic-bump",
    "prequantum-local", "propellor-cat", "propellor-identity",
    "propellor-parabolic", "suspension-geodesic", "suspension-identity",
)
KAPPA_SWEEP = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)
VERIFY_SAMPLES = 1000
INABA_BOUND = 1e-5          # acceptance criterion 6
CLOSED_FORM_RTOL = 1e-6     # acceptance criterion 3



class CheckFailed(Exception):
    """A task output broke its oracle.  ``kind`` is ``strict-json`` for an
    artifact that strict JSON rejects and ``oracle`` otherwise."""

    def __init__(self, message: str, kind: str = "oracle"):
        super().__init__(message)
        self.kind = kind


@dataclass
class Task:
    argv: list
    work: float                                 # requested work units
    artifact: str                               # file the task writes
    check: Callable[[int, dict], None]          # (exit code, parsed artifact)
    tolerated: str = None                       # known defect kind, if any

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    name: str
    unit: str                                   # what one work unit is
    tasks: list


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def load_artifact(path: Path) -> tuple:
    """``(document, strict_error)``: the artifact parsed leniently for the
    oracle, and a ``strict-json`` :class:`CheckFailed` (not raised) when
    strict JSON rejects it for NaN, Infinity or raw control characters."""
    try:
        text = path.read_text()
    except OSError as e:
        raise CheckFailed(f"artifact missing: {e}")
    try:
        doc = json.loads(text, strict=False)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"artifact is not JSON: {e}")
    try:
        json.loads(text, parse_constant=_reject_constant)
    except ValueError as e:
        return doc, CheckFailed(f"strict JSON rejects {path.name}: {e}", "strict-json")
    return doc, None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _expect_rc(rc, want: int) -> None:
    _expect(rc == want, f"exit code {rc}, expected {want}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _steps(T: float, dt: float) -> int:
    return max(1, int(round(abs(T) / dt)))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_check(preset: str):
    must_pass = preset != "integrable-counterexample"
    n_expected = 1 if preset.endswith("-lie") else VERIFY_SAMPLES

    def check(rc, doc):
        _expect_rc(rc, 0 if must_pass else 1)
        _expect(doc.get("preset") == preset, "artifact names another preset")
        _expect(doc.get("passed") is must_pass, f"passed={doc.get('passed')}")
        _expect(doc["summary"]["n_samples"] == n_expected, "wrong sample count")
        _expect(len(doc["records"]) == n_expected, "wrong record count")

    return check


def verify(rng) -> Workload:
    tasks = []
    for preset in PRESETS:
        skip = int(rng.integers(0, 1000))      # the CLI uses Halton skip 100 + seed
        tasks.append(Task(
            ["verify", "--preset", preset, "--samples", str(VERIFY_SAMPLES),
             "--seed", str(skip)],
            VERIFY_SAMPLES, f"verify_{preset}.json", _verify_check(preset),
            # ROADMAP P0: this artifact carries a bare NaN.  The task still
            # counts as failed; the known defect does not make the run incorrect
            tolerated="strict-json" if preset == "integrable-counterexample" else None))
    return Workload("verify", "sample points", tasks)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def _orbit_check(T_max: float, expected_length: float = None):
    def check(rc, doc):
        _expect_rc(rc, 0)
        t = np.asarray(doc["t"], dtype=float)
        angle = np.asarray(doc["angle"], dtype=float)
        length = float(doc["developing_length"])
        _expect(np.all(np.isfinite(angle)) and np.all(np.isfinite(t)), "non-finite orbit")
        _expect(0.0 < t[-1] <= T_max + 1e-12 and np.all(np.diff(t) > 0), "bad time grid")
        steps = np.diff(angle)
        _expect(np.all(steps > 0) or np.all(steps < 0), "developing map not monotone")
        _expect(length > 0 and abs(length - abs(angle[-1] - angle[0])) <= 1e-9 * length,
                "developing length disagrees with the angle path")
        if expected_length is not None:
            rel = abs(length - expected_length) / expected_length
            _expect(rel <= CLOSED_FORM_RTOL,
                    f"developing length {length!r} vs closed form {expected_length!r}"
                    f" (rel {rel:.2e})")

    return check


def _classify_check(allowed: set, genuine=None):
    def check(rc, doc):
        _expect_rc(rc, 0)
        _expect(doc["type"] in allowed, f"class {doc['type']!r}, expected one of {sorted(allowed)}")
        if genuine is not None:
            _expect(doc["genuine"] is genuine, f"genuine={doc['genuine']}")

    return check


def dynamics(rng) -> Workload:
    from engel_lab.presets import build_preset

    T_cls, dt_cls, orbits = 20.0, 1e-2, 3
    T_orb, dt_orb = 5.0, 1e-3
    cls = ["-T", _fmt(T_cls), "--dt", _fmt(dt_cls), "--orbits", str(orbits)]
    # p0 near the CLI's default start, moved by at most 0.5 % of the box so
    # the chart exit (t ~ 2.1) and with it the work stay comparable per seed
    box = build_preset("lorentz-magnetic", kappa=-0.5)["structure"].model.box
    width = box[:, 1] - box[:, 0]
    p0 = box.mean(axis=1) + 0.1 * width + rng.uniform(-0.005, 0.005, len(width)) * width
    tasks = [
        Task(["classify", "--preset", "propellor-cat", *cls], orbits * _steps(T_cls, dt_cls),
             "classify_propellor-cat.json", _classify_check({"hyperbolic"}, genuine=False)),
        Task(["classify", "--preset", "lorentz-magnetic", "--kappa", "-1", *cls],
             orbits * _steps(T_cls, dt_cls), "classify_lorentz-magnetic.json",
             _classify_check({"parabolic", "unknown"})),
        Task(["orbit", "--preset", "lorentz-magnetic", "--kappa", "-0.5", "-T", _fmt(T_orb),
              "--dt", _fmt(dt_orb), "--p0=" + ",".join(_fmt(v) for v in p0)],
             _steps(T_orb, dt_orb), "orbit_lorentz-magnetic.json", _orbit_check(T_orb)),
    ]
    return Workload("dynamics", "requested characteristic steps", tasks)


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------

def rigidity(rng) -> Workload:
    trials, T, dt = 1000, 1.0, 1e-3
    seed = int(rng.integers(0, 2 ** 31 - 1))

    def check(rc, doc):
        _expect_rc(rc, 0)
        probe = doc["probe"]
        _expect(doc["seed"] == seed and probe["n_trials"] == trials, "wrong trial set")
        _expect(sum(probe["regions"].values()) == trials, "regions do not add up")
        _expect(probe["n_outside_accessible"] == 0,
                f"{probe['n_outside_accessible']} endpoints outside A+ u AW")
        _expect(doc["inaba_max_residual"] < INABA_BOUND,
                f"Inaba residual {doc['inaba_max_residual']:.3e} >= {INABA_BOUND:g}")

    return Workload("rigidity", "D-curve steps", [Task(
        ["rigidity", "--trials", str(trials), "-T", _fmt(T), "--dt", _fmt(dt),
         "--seed", str(seed)],
        trials * _steps(T, dt), "rigidity.json", check)])


# ---------------------------------------------------------------------------
# lie-transport
# ---------------------------------------------------------------------------

def sign_law(kappa: float) -> str:
    c = kappa * (kappa + 1.0)
    return "elliptic" if c > 0 else ("parabolic" if c == 0 else "hyperbolic")


def closed_form_length(kappa: float, T: float) -> float:
    """Developing length of the lorentz-magnetic-lie orbit from the exact
    transport exp(tA), A = transport_generator(s): the lifted angle swept by
    M(t)^-1 d, d the D/W line in the E/W frame.  Steps of T/400 turn the
    line by well under pi/2 for |kappa(kappa+1)| <= 2, so the lift is exact."""
    from engel_lab.characteristic_dynamics import closed_form_exp, transport_generator
    from engel_lab.presets import build_preset

    s = build_preset("lorentz-magnetic-lie", kappa=kappa)["structure"]
    M = closed_form_exp(transport_generator(s))
    e1, e2 = s.emw_frame
    cols = np.stack([e1.constant_coeffs(), e2.constant_coeffs(),
                     s.W_section.constant_coeffs()], axis=1)
    d = max((np.linalg.lstsq(cols, sec.constant_coeffs(), rcond=None)[0][:2]
             for sec in s.D_span), key=np.linalg.norm)
    u = np.array([np.linalg.inv(M(t)) @ d for t in np.linspace(0.0, T, 401)])
    raw = np.arctan2(u[:, 1], u[:, 0])
    inc = np.mod(np.diff(raw) + np.pi / 2, np.pi) - np.pi / 2
    return float(abs(inc.sum()))


def lie_transport(rng) -> Workload:
    T_rep, dt_rep = 20.0, 1e-2
    T_orb, dt_orb = 20.0, 1e-3

    def report_check(rc, doc):
        _expect_rc(rc, 0)
        rows = doc["rows"]
        _expect([r["kappa"] for r in rows] == list(KAPPA_SWEEP), "wrong kappa sweep")
        for r in rows:
            _expect(r["expected"] == sign_law(r["kappa"]) == r["estimated"],
                    f"kappa={r['kappa']}: estimated {r['estimated']!r}, "
                    f"sign law {sign_law(r['kappa'])!r}")

    tasks = [Task(["report", "--preset", "kappa-sweep", "-T", _fmt(T_rep), "--dt", _fmt(dt_rep)],
                  len(KAPPA_SWEEP) * _steps(T_rep, dt_rep), "kappa_sweep.json", report_check)]
    for kappa in KAPPA_SWEEP:
        # on a Lie model the start point moves the orbit, not its transport
        p0 = rng.uniform(-1.0, 1.0, 4)
        tasks.append(Task(
            ["orbit", "--preset", "lorentz-magnetic-lie", "--kappa", _fmt(kappa),
             "-T", _fmt(T_orb), "--dt", _fmt(dt_orb), "--p0=" + ",".join(_fmt(v) for v in p0)],
            _steps(T_orb, dt_orb), "orbit_lorentz-magnetic-lie.json",
            _orbit_check(T_orb, closed_form_length(kappa, T_orb))))
    return Workload("lie-transport", "transport steps", tasks)


WORKLOADS = {"verify": verify, "dynamics": dynamics, "rigidity": rigidity,
             "lie-transport": lie_transport}


def build(name: str, seed: int) -> Workload:
    """The workload's tasks; the same seed gives the same inputs."""
    return WORKLOADS[name](np.random.default_rng(seed))


def check_task(task: Task, rc, outdir: Path) -> None:
    """Raise :class:`CheckFailed` if the task's output breaks its oracle;
    semantic checks run before the strict-JSON check."""
    if rc is None:
        raise CheckFailed("task raised")
    doc, strict_error = load_artifact(outdir / task.artifact)
    try:
        task.check(rc, doc)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise CheckFailed(f"artifact lacks expected content: {e!r}")
    if strict_error is not None:
        raise strict_error
