"""Exit-code contract, artifact determinism, and malformed-config handling."""
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engel_lab.characteristic_dynamics import integrate_orbits
from engel_lab.cli import main
from engel_lab.presets import build_preset
from engel_lab.serialize import dumps_canonical


def run(args):
    return main(args)


class TestVerifyCommand:
    def test_darboux_passes(self, tmp_path, capsys):
        code = run(["verify", "--preset", "darboux", "--samples", "50",
                    "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS darboux" in out
        doc = json.loads((tmp_path / "verify_darboux.json").read_text())
        assert doc["passed"] is True

    def test_magnetic_with_kappa(self, tmp_path):
        code = run(["verify", "--preset", "lorentz-magnetic", "--kappa", "-0.5",
                    "--samples", "100", "--out", str(tmp_path)])
        assert code == 0

    def test_counterexample_fails_exit_1(self, tmp_path):
        code = run(["verify", "--preset", "integrable-counterexample",
                    "--samples", "20", "--out", str(tmp_path)])
        assert code == 1

    def test_unknown_preset_exit_2(self, capsys):
        code = run(["verify", "--config", "/nonexistent/manifest.json"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_kappa_on_wrong_preset_exit_2(self):
        assert run(["verify", "--preset", "darboux", "--kappa", "1.0"]) == 2

    def test_determinism_byte_identical(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            assert run(["verify", "--preset", "long-darboux", "--samples", "64",
                        "--seed", "3", "--out", str(d)]) == 0
        a = (a_dir / "verify_long-darboux.json").read_bytes()
        b = (b_dir / "verify_long-darboux.json").read_bytes()
        assert a == b

    def test_config_manifest(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "darboux", "samples": 30,
                                   "out": str(tmp_path)}))
        assert run(["verify", "--config", str(cfg)]) == 0

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not valid json")
        assert run(["verify", "--config", str(cfg)]) == 2
        cfg.write_text('["a", "list"]')
        assert run(["verify", "--config", str(cfg)]) == 2


class TestClassifyCommand:
    def test_magnetic_elliptic(self, tmp_path, capsys):
        code = run(["classify", "--preset", "lorentz-magnetic-lie",
                    "--kappa", "1.0", "--out", str(tmp_path)])
        assert code == 0
        assert "Elliptic" in capsys.readouterr().out

    def test_magnetic_parabolic_genuine(self, tmp_path, capsys):
        code = run(["classify", "--preset", "lorentz-magnetic-lie",
                    "--kappa", "-1.0", "--out", str(tmp_path)])
        assert code == 0
        assert "Parabolic (genuine)" in capsys.readouterr().out

    def test_flat_magnetic_chart_agrees_with_lie_twin(self, tmp_path):
        # at kappa 0 the transport is unipotent up to rounding; its invariant
        # line must not be lost to the ill-conditioned eigenvectors
        labels = []
        for preset in ("lorentz-magnetic", "lorentz-magnetic-lie"):
            assert run(["classify", "--preset", preset, "--kappa", "0",
                        "--out", str(tmp_path)]) == 0
            doc = json.loads((tmp_path / f"classify_{preset}.json").read_text())
            assert not any("demoted" in ev for ev in doc["evidence"]["orbits"])
            labels.append(doc["label"])
        assert labels == ["Parabolic (genuine)"] * 2

    def test_demoted_orbit_states_the_reason(self, tmp_path):
        # kappa -1 orbits that leave the chart early fit exponential growth but
        # have no real invariant lines; the demotion is recorded, not silent
        assert run(["classify", "--preset", "lorentz-magnetic", "--kappa", "-1",
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "classify_lorentz-magnetic.json").read_text())
        orbits = doc["evidence"]["orbits"]
        assert doc["label"] == "Unknown"
        assert all(("demoted" in ev) == (ev["kind"] == "unknown") for ev in orbits)
        assert any("demoted" in ev for ev in orbits)

    def test_propellor_cat_hyperbolic(self, tmp_path, capsys):
        code = run(["classify", "--preset", "propellor-cat", "-T", "12",
                    "--out", str(tmp_path)])
        assert code == 0
        assert "Hyperbolic" in capsys.readouterr().out
        doc = json.loads((tmp_path / "classify_propellor-cat.json").read_text())
        assert doc["type"] == "hyperbolic"


class TestOrbitCommand:
    def test_csv_artifact(self, tmp_path, capsys):
        code = run(["orbit", "--preset", "lorentz-product-lie", "--kappa", "-1.0",
                    "-T", "10", "--dt", "0.01", "--format", "csv",
                    "--out", str(tmp_path)])
        assert code == 0
        assert "monotone" in capsys.readouterr().out
        lines = (tmp_path / "orbit_lorentz-product-lie.csv").read_text().splitlines()
        assert lines[0].startswith("t,p0,p1,p2,p3,M11")
        assert len(lines) == 1002


    def test_truncated_orbit_is_prefix_of_full_grid(self, tmp_path, capsys):
        # at dt = 0.01 the default start leaves the chart at t = 2.08; the
        # artifact keeps the steps up to t_cut = t_exit - 2 dt of the T = 5 grid
        code = run(["orbit", "--preset", "lorentz-magnetic", "--kappa", "-0.5",
                    "-T", "5", "--dt", "0.01", "--out", str(tmp_path)])
        assert code == 0
        assert "(truncated at chart exit t=2.06)" in capsys.readouterr().out
        doc = json.loads((tmp_path / "orbit_lorentz-magnetic.json").read_text())
        s = build_preset("lorentz-magnetic", kappa=-0.5)["structure"]
        box = s.model.box
        p0 = box.mean(axis=1) + 0.1 * (box[:, 1] - box[:, 0])
        times, pts, kept = integrate_orbits(s, p0, 5.0, 1e-2)
        n = len(doc["t"])
        assert n == 207 and kept[0] == 207
        assert np.array_equal(doc["t"], times[:n])
        assert np.array_equal(doc["points"], pts[0, :n])


class TestRigidityCommand:
    def test_small_run(self, tmp_path, capsys):
        code = run(["rigidity", "--trials", "60", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "rigidity.json").read_text())
        assert doc["probe"]["n_outside_accessible"] == 0
        assert doc["inaba_max_residual"] < 1e-5

    def test_artifact_ignores_thread_setting(self, tmp_path, monkeypatch):
        # a result must not depend on the environment, thread settings included
        artifacts = []
        for threads in ("1", "3"):
            monkeypatch.setenv("ENGEL_LAB_THREADS", threads)
            out = tmp_path / threads
            assert run(["rigidity", "--trials", "60", "--out", str(out)]) == 0
            artifacts.append((out / "rigidity.json").read_bytes())
        assert artifacts[0] == artifacts[1]
        doc = json.loads(artifacts[0])
        assert doc["probe"]["n_trials"] == 60
        assert doc["probe"]["n_outside_accessible"] == 0

    def test_manifest_control_family(self, tmp_path):
        cfg = tmp_path / "rig.json"
        cfg.write_text(json.dumps({"trials": 30, "modes": 2, "amplitude": 0.5,
                                   "out": str(tmp_path)}))
        assert run(["rigidity", "--config", str(cfg)]) == 0


class TestReportCommand:
    def test_kappa_sweep(self, tmp_path, capsys):
        code = run(["report", "--preset", "kappa-sweep", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sign law reproduced" in out
        doc = json.loads((tmp_path / "kappa_sweep.json").read_text())
        assert all(r["agrees"] for r in doc["rows"])


class TestSerializer:
    def test_seventeen_digit_floats(self):
        s = dumps_canonical({"x": 1.0 / 3.0, "arr": np.array([0.1])})
        assert "0.33333333333333331" in s
        assert "0.10000000000000001" in s

    def test_round_trip(self):
        doc = {"a": [1, 2.5, None, True], "b": {"c": "text"}}
        assert json.loads(dumps_canonical(doc)) == doc

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text() | st.text(st.characters(max_codepoint=0x1f)),
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
        max_leaves=20))
    @example({"a\tb": ["x\ty\x00\n", float("nan")], "c": [float("inf"), -float("inf")]})
    @settings(max_examples=200, deadline=None)
    def test_strict_json_round_trip(self, doc):
        # strict JSON: control characters escaped, non-finite floats as null
        def reject(name):
            raise ValueError(f"non-strict constant {name}")

        def as_strict(obj):
            if isinstance(obj, float):
                return obj if math.isfinite(obj) else None
            if isinstance(obj, list):
                return [as_strict(v) for v in obj]
            if isinstance(obj, dict):
                return {k: as_strict(v) for k, v in obj.items()}
            return obj

        assert json.loads(dumps_canonical(doc), parse_constant=reject) == as_strict(doc)
