"""Workload generation, the strict-JSON oracle, and tracing's invisibility
in the artifacts."""
import filecmp
import json
import time

import pytest

from perfbench import run, tracer, workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    a = [t.argv for t in workloads.build(name, 11).tasks]
    b = [t.argv for t in workloads.build(name, 11).tasks]
    assert a == b


def test_other_seed_other_inputs():
    a = [t.argv for t in workloads.build("verify", 1).tasks]
    b = [t.argv for t in workloads.build("verify", 2).tasks]
    assert a != b


@pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": -Infinity}', '{"a": "x\ty"}'])
def test_strict_json_rejects_nonfinite_and_control_characters(tmp_path, text):
    path = tmp_path / "a.json"
    path.write_text(text)
    doc, error = workloads.load_artifact(path)
    assert "a" in doc
    assert error is not None and error.kind == "strict-json"


def test_strict_json_accepts_clean_artifact(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"a": [1.5, "x\\ty"]}))
    assert workloads.load_artifact(path)[1] is None


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(1, 201)]
    assert run.tail_latency([xs[:100], xs[100:]]) == ("p95", 190.0, 10)
    assert run.tail_latency([xs[:30]]) == ("p50", 15.0, 15)


def test_tail_of_a_short_run_is_the_slowest_tasks_median():
    passes = [[1.0, 5.0, 2.0], [1.0, 9.0, 2.0], [1.0, 6.0, 2.0]]
    assert run.tail_latency(passes) == ("slowest task's median", 6.0, 0)


def test_calibration_divides_out_the_reference_speed(monkeypatch):
    # a host running the reference at half speed halves the calibrated time
    monkeypatch.setattr(run, "reference_seconds", lambda: 2 * run.REF_NOMINAL_S)
    out, raw, cal = run.calibrated(lambda: time.sleep(0.01) or 7)
    assert out == 7 and raw >= 0.01
    assert cal == pytest.approx(raw / 2)


def _mini_workload():
    """Every layer once, at sizes small enough for a unit test."""
    none = lambda rc, doc: None
    tasks = list(workloads.build("verify", 5).tasks)
    for argv, artifact in [
        (["rigidity", "--trials", "30", "--seed", "3"], "rigidity.json"),
        (["report", "--preset", "kappa-sweep", "-T", "2"], "kappa_sweep.json"),
        (["orbit", "--preset", "lorentz-magnetic-lie", "--kappa", "-0.5", "-T", "2"],
         "orbit_lorentz-magnetic-lie.json"),
        (["orbit", "--preset", "lorentz-magnetic", "--kappa", "-0.5", "-T", "3",
          "--dt", "0.01"], "orbit_lorentz-magnetic.json"),
        (["classify", "--preset", "lorentz-magnetic", "--kappa", "-1", "-T", "1"],
         "classify_lorentz-magnetic.json"),
    ]:
        tasks.append(workloads.Task(argv, 1.0, artifact, none))
    return workloads.Workload("mini", "tasks", tasks)


def test_traced_and_untraced_artifacts_are_byte_identical(tmp_path):
    from engel_lab import cli

    wl = _mini_workload()
    plain_tally, traced_tally = run.Tally(), run.Tally()
    run.run_pass(cli, wl, tmp_path / "plain", plain_tally, workloads)
    tr = tracer.Tracer()
    inst = tracer.install(tr)
    try:
        run.run_pass(cli, wl, tmp_path / "traced", traced_tally, workloads)
    finally:
        inst.restore()
    assert plain_tally.unexpected == traced_tally.unexpected == []
    assert tr.calls["kernels.dcurve_rk4"] and tr.calls["kernels.transport_rk4"]
    files = sorted(p.relative_to(tmp_path / "plain")
                   for p in (tmp_path / "plain").rglob("*") if p.is_file())
    assert len(files) == len(wl.tasks)
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "plain", tmp_path / "traced", [str(f) for f in files], shallow=False)
    assert mismatch == [] and errors == []
