"""The tracer's self-time arithmetic and its install/restore contract."""
import numpy as np
import pytest

from perfbench import tracer


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_nested_span_tree():
    # A [0, 10] holds B [1, 5] (which holds C [2, 4]) and B [6, 8]
    tr = tracer.Tracer(clock=fake_clock([0, 1, 2, 4, 5, 6, 8, 10]))
    tr.enter("A")
    tr.enter("B")
    tr.enter("C")
    tr.exit()
    tr.exit()
    tr.enter("B")
    tr.exit()
    tr.exit()
    assert dict(tr.calls) == {"A": 1, "B": 2, "C": 1}
    assert dict(tr.total_s) == {"A": 10, "B": 6, "C": 2}
    assert dict(tr.self_s) == {"A": 4, "B": 4, "C": 2}
    assert sum(tr.self_s.values()) == 10     # self times partition the root span


def test_self_time_of_recursive_span_counts_each_instant_once():
    tr = tracer.Tracer(clock=fake_clock([0, 1, 3, 4]))
    tr.enter("F")
    tr.enter("F")
    tr.exit()
    tr.exit()
    assert tr.self_s["F"] == 4
    assert tr.total_s["F"] == 6


def _bindings():
    import engel_lab.frame_algebra as fa

    snap = {(m.__name__, k): v for m in tracer.engel_modules() for k, v in vars(m).items()}
    snap[("ChartVectorField", "__call__")] = fa.ChartVectorField.__dict__["__call__"]
    return snap


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    from engel_lab import _kernels, characteristic_dynamics as dyn, cli, engel_verify
    import engel_lab.frame_algebra as fa

    before = _bindings()
    originals = (cli.verify_engel, engel_verify.verify_engel, dyn.transport_rk4,
                 _kernels.transport_rk4, fa.ChartVectorField.__dict__["__call__"])
    inst = tracer.install(tracer.Tracer())
    try:
        # both the defining module and every importing module are wrapped
        assert cli.verify_engel is engel_verify.verify_engel
        assert cli.verify_engel.__wrapped__ is originals[0]
        assert dyn.transport_rk4 is not originals[2]
        assert _kernels.transport_rk4 is dyn.transport_rk4
        assert fa.ChartVectorField.__dict__["__call__"] is not originals[4]
    finally:
        inst.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_integrate_counts_thrown_away_steps_at_chart_exit():
    from engel_lab import characteristic_dynamics as dyn
    from engel_lab.errors import ChartExit
    from engel_lab.presets import build_preset

    s = build_preset("lorentz-magnetic", kappa=-0.5)["structure"]
    box = s.model.box
    p0 = box.mean(axis=1) + 0.1 * (box[:, 1] - box[:, 0])
    tr = tracer.Tracer()
    inst = tracer.install(tr)
    try:
        with pytest.raises(ChartExit) as exc:
            dyn.integrate_characteristic(s, p0, 5.0, 1e-2)
        dyn.integrate_characteristic(s, p0, 1.0, 1e-2)
    finally:
        inst.restore()
    m = tracer.layer_metrics(tr)
    lost = int(round(exc.value.t_exit / 1e-2))
    assert m["characteristic_dynamics.integrate.calls"] == 2
    assert m["characteristic_dynamics.integrate.chart_exits"] == 1
    assert m["characteristic_dynamics.integrate.steps"] == lost + 100
    assert m["characteristic_dynamics.integrate.kept_step_ratio"] == pytest.approx(100 / (lost + 100))
    assert m["frame_algebra.field_eval.calls"] > 0
    assert np.isclose(m["frame_algebra.field_eval.points_per_call"], 1.0)
