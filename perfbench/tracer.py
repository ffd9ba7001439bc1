"""Span tracer that wraps engel_lab's public layer functions from outside.

Nothing under ``src/`` is edited: :func:`install` replaces each wrapped
function wherever an ``engel_lab`` module binds it (found by identity, so
``from .x import f`` copies are caught too) and ``ChartVectorField.__call__``
at class level.  :meth:`Installed.restore` puts every original back.

Spans are aggregated on exit instead of being stored, because a traced
``dynamics`` pass opens several hundred thousand field-evaluation spans.
A span's self time is its duration minus the durations of its direct
children, which is the part of its interval no child covers when spans nest.
"""
from __future__ import annotations

import os
import sys
import time
from collections import defaultdict


class Tracer:
    """Nested spans and counters, keyed by layer name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []                       # [name, start, child_time]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] += value


def _rows(p) -> int:
    """Points in a single-point ``(dim,)`` or batched ``(n, dim)`` argument."""
    return len(p) if getattr(p, "ndim", 1) == 2 else 1


def _wrap(tr: Tracer, name: str, fn, before=None, after=None, on_error=None):
    """``before(args, kwargs)`` and ``after(result, args, kwargs)`` record
    counters; ``on_error(exc, args, kwargs)`` sees exceptions before they
    propagate.  Counting happens outside the span so it is not charged to
    the layer."""
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        tr.enter(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as e:
            tr.exit()
            if on_error is not None:
                on_error(e, args, kwargs)
            raise
        tr.exit()
        if after is not None:
            after(out, args, kwargs)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _arg(args, kwargs, i, key, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(key, default)


def _integrate_hooks(tr: Tracer, chart_exit):
    """integrate_characteristic(s, p0, T, dt): requested steps are
    round(|T| / dt); a ChartExit at t_exit threw away round(|t_exit| / h)."""
    def after(out, args, kwargs):
        n = len(out.times) - 1
        tr.count("integrate.steps", n)
        tr.count("integrate.kept_steps", n)

    def on_error(e, args, kwargs):
        if isinstance(e, chart_exit):
            T = abs(float(_arg(args, kwargs, 2, "T")))
            h = T / max(1, int(round(T / float(_arg(args, kwargs, 3, "dt")))))
            tr.count("integrate.steps", int(round(abs(e.t_exit) / h)))
            tr.count("integrate.chart_exits")

    return after, on_error


def _file_size_hook(tr: Tracer):
    def after(out, args, kwargs):
        path = _arg(args, kwargs, 0, "path")
        tr.count("serialize.bytes", os.path.getsize(path))
    return after


class Installed:
    """The set of replacements made by :func:`install`."""

    def __init__(self):
        self._undo = []                        # (owner, attr, original)

    def replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def engel_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "engel_lab" or name.startswith("engel_lab."))]


def install(tr: Tracer) -> Installed:
    """Wrap every layer function in every engel_lab namespace that binds it."""
    from engel_lab import _kernels, characteristic_dynamics as dyn, cli
    from engel_lab import engel_verify, frame_algebra as fa, presets
    from engel_lab import rigidity_lab as rig, serialize
    from engel_lab.errors import ChartExit

    def points_arg(i, key, counter):
        return lambda args, kwargs: tr.count(counter, _rows(_arg(args, kwargs, i, key)))

    def transport_rk4_before(args, kwargs):
        A = _arg(args, kwargs, 0, "A_half")
        nsteps = (len(A) - 1) // 2
        tr.count("transport_rk4.steps", nsteps)
        tr.count("transport_rk4.bytes", 8 * (4 * len(A) + 4 * (nsteps + 1)))

    def dcurve_before(args, kwargs):
        u = _arg(args, kwargs, 0, "u_half")
        starts = _arg(args, kwargs, 2, "starts")
        B = _rows(starts)
        nsteps = (u.shape[-1] - 1) // 2
        tr.count("dcurve_rk4.curves", B)
        tr.count("dcurve_rk4.curve_steps", B * nsteps)
        # controls u and v, starts, and the (B, nsteps + 1, 4) output
        tr.count("dcurve_rk4.bytes", 8 * B * (2 * u.shape[-1] + 4 + 4 * (nsteps + 1)))

    def tg_before(args, kwargs):
        pts = _arg(args, kwargs, 1, "pts")
        if pts is not None:
            tr.count("transport_generator.points", _rows(pts))

    def classify_after(out, args, kwargs):
        orbits = out.evidence["orbits"]
        tr.count("classify.orbits", len(orbits))
        tr.count("classify.undecided", sum(o["kind"] == "unknown" for o in orbits))

    integrate_after, integrate_error = _integrate_hooks(tr, ChartExit)
    targets = [
        (cli.main, "cli", {}),
        (presets.build_preset, "presets.build", {}),
        (fa.bracket_chart, "frame_algebra.bracket",
         {"before": points_arg(2, "p", "bracket.points")}),
        (fa.rank_with_margin, "frame_algebra.rank", {}),
        (engel_verify.verify_engel, "engel_verify.verify",
         {"after": lambda out, a, k: tr.count("verify.points", len(out.points))}),
        (dyn.integrate_characteristic, "characteristic_dynamics.integrate",
         {"after": integrate_after, "on_error": integrate_error}),
        (dyn.transport_EmodW, "characteristic_dynamics.transport",
         {"after": lambda out, a, k: tr.count("transport.steps", len(out.times) - 1)}),
        (dyn.transport_generator, "characteristic_dynamics.transport_generator",
         {"before": tg_before}),
        (dyn.estimate_global_type, "characteristic_dynamics.classify",
         {"after": classify_after}),
        (_kernels.transport_rk4, "kernels.transport_rk4", {"before": transport_rk4_before}),
        (_kernels.dcurve_rk4, "kernels.dcurve_rk4", {"before": dcurve_before}),
        (rig.rigidity_probe, "rigidity_lab.probe",
         {"after": lambda out, a, k: tr.count("probe.trials", out["n_trials"])}),
        (rig.sample_d_curve, "rigidity_lab.sample_d_curve", {}),
        (rig.inaba_identity_check, "rigidity_lab.inaba", {}),
        (serialize.write_json, "serialize.write", {"after": _file_size_hook(tr)}),
        (serialize.write_csv, "serialize.write", {"after": _file_size_hook(tr)}),
    ]
    inst = Installed()
    try:
        modules = engel_modules()
        for fn, name, hooks in targets:
            wrapper = _wrap(tr, name, fn, **hooks)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        inst.replace(mod, attr, wrapper)
        call = fa.ChartVectorField.__dict__["__call__"]
        inst.replace(fa.ChartVectorField, "__call__", _wrap(
            tr, "frame_algebra.field_eval", call,
            before=points_arg(1, "p", "field_eval.points")))
    except BaseException:
        inst.restore()
        raise
    return inst


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers of one traced pass, keyed by BENCHMARK.json name."""
    c, calls, tot, own = tr.counts, tr.calls, tr.total_s, tr.self_s

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    fe, br = "frame_algebra.field_eval", "frame_algebra.bracket"
    integ, trans = "characteristic_dynamics.integrate", "characteristic_dynamics.transport"
    cls, tg = "characteristic_dynamics.classify", "characteristic_dynamics.transport_generator"
    trk, dck = "kernels.transport_rk4", "kernels.dcurve_rk4"
    ver, wr = "engel_verify.verify", "serialize.write"
    return {
        f"{fe}.calls": calls[fe],
        f"{fe}.points": c["field_eval.points"],
        f"{fe}.points_per_call": ratio(c["field_eval.points"], calls[fe]),
        f"{fe}.self_s": own[fe],
        "frame_algebra.us_per_point": ratio(own[fe], c["field_eval.points"], 1e6),
        f"{br}.calls": calls[br],
        f"{br}.points": c["bracket.points"],
        f"{br}.self_s": own[br],
        "frame_algebra.rank.calls": calls["frame_algebra.rank"],
        "frame_algebra.rank.self_s": own["frame_algebra.rank"],
        f"{ver}.calls": calls[ver],
        f"{ver}.points": c["verify.points"],
        f"{ver}.self_s": own[ver],
        "engel_verify.us_per_point": ratio(tot[ver], c["verify.points"], 1e6),
        f"{integ}.calls": calls[integ],
        f"{integ}.steps": c["integrate.steps"],
        f"{integ}.s": tot[integ],
        f"{integ}.self_s": own[integ],
        f"{integ}.us_per_step": ratio(tot[integ], c["integrate.steps"], 1e6),
        f"{integ}.chart_exits": c["integrate.chart_exits"],
        f"{integ}.kept_step_ratio": ratio(c["integrate.kept_steps"], c["integrate.steps"]),
        f"{trans}.calls": calls[trans],
        f"{trans}.steps": c["transport.steps"],
        f"{trans}.s": tot[trans],
        f"{trans}.self_s": own[trans],
        f"{tg}.points": c["transport_generator.points"],
        f"{tg}.self_s": own[tg],
        f"{cls}.calls": calls[cls],
        f"{cls}.orbits": c["classify.orbits"],
        f"{cls}.self_s": own[cls],
        f"{cls}.undecided_orbit_ratio": ratio(c["classify.undecided"], c["classify.orbits"]),
        f"{trk}.calls": calls[trk],
        f"{trk}.steps": c["transport_rk4.steps"],
        f"{trk}.self_s": own[trk],
        f"{trk}.ns_per_step": ratio(own[trk], c["transport_rk4.steps"], 1e9),
        f"{trk}.bytes_computed": c["transport_rk4.bytes"],
        f"{dck}.calls": calls[dck],
        f"{dck}.curves": c["dcurve_rk4.curves"],
        f"{dck}.curves_per_call": ratio(c["dcurve_rk4.curves"], calls[dck]),
        f"{dck}.curve_steps": c["dcurve_rk4.curve_steps"],
        f"{dck}.self_s": own[dck],
        f"{dck}.ns_per_curve_step": ratio(own[dck], c["dcurve_rk4.curve_steps"], 1e9),
        f"{dck}.bytes_computed": c["dcurve_rk4.bytes"],
        "rigidity_lab.probe.calls": calls["rigidity_lab.probe"],
        "rigidity_lab.probe.trials": c["probe.trials"],
        "rigidity_lab.probe.self_s": own["rigidity_lab.probe"],
        "rigidity_lab.sample_d_curve.calls": calls["rigidity_lab.sample_d_curve"],
        "rigidity_lab.sample_d_curve.self_s": own["rigidity_lab.sample_d_curve"],
        "rigidity_lab.inaba.calls": calls["rigidity_lab.inaba"],
        "rigidity_lab.inaba.self_s": own["rigidity_lab.inaba"],
        f"{wr}.calls": calls[wr],
        f"{wr}.bytes": c["serialize.bytes"],
        f"{wr}.s": tot[wr],
        f"{wr}.mb_per_s": ratio(c["serialize.bytes"], tot[wr], 1e-6),
        "presets.build.calls": calls["presets.build"],
        "presets.build.s": tot["presets.build"],
        "cli.self_s": own["cli"],
    }
