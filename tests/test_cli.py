"""Exit-code contract, artifact determinism, and malformed-config handling."""
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from engel_lab.characteristic_dynamics import integrate_orbits
from engel_lab import cli
from engel_lab.cli import KAPPA_SWEEP, _parser, main
from engel_lab.engel_verify import verify_engel
from engel_lab.errors import ConfigError, FrameDegenerate
from engel_lab.presets import KAPPA_PRESETS, build_preset, preset_names
from engel_lab.serialize import Records, _fmt_float, dumps_canonical, write_csv


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

    @pytest.mark.parametrize("preset", preset_names())
    def test_artifact_bytes_match_per_record_dicts(self, preset, tmp_path):
        # the artifact written through the record table is the document of
        # one dict per sample, serialized value by value
        code = run(["verify", "--preset", preset, "--samples", "50", "--out", str(tmp_path)])
        r = verify_engel(build_preset(preset)["structure"], n_samples=50, tol=1e-8, skip=100)
        assert code == (0 if r.passed else 1)
        doc = {
            "schema_version": 3,
            "provenance": r.provenance,
            "tolerances": r.tolerances,
            "passed": bool(r.passed),
            "summary": r.summary,
            "records": [
                {
                    "point": [float(x) for x in r.points[i]],
                    "rank_D": int(r.rank_D[i]),
                    "rank_E": int(r.rank_E[i]),
                    "rank_EE": int(r.rank_EE[i]),
                    "cauchy_angle_error": float(r.cauchy_angle_error[i]),
                    "marginal": bool(r.marginal[i]),
                }
                for i in range(len(r.points))
            ],
            "preset": preset,
        }
        written = (tmp_path / f"verify_{preset}.json").read_text()
        assert written == dumps_canonical(doc) + "\n"

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


class TestParser:
    def test_parser_is_built_once(self):
        assert _parser() is _parser()

    def test_calls_do_not_share_parsed_values(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["verify", "--preset", "darboux", "--samples", "30", "--seed", "7",
                    "--tol", "1e-6", "--out", str(a)]) == 0
        assert run(["orbit", "--preset", "lorentz-product-lie", "--kappa", "-1", "-T", "1",
                    "--dt", "0.1", "--p0", "0,0,0,0", "--out", str(a)]) == 0
        assert run(["verify", "--preset", "darboux", "--samples", "20", "--out", str(b)]) == 0
        doc = json.loads((b / "verify_darboux.json").read_text())
        assert doc["summary"]["n_samples"] == 20
        assert doc["tolerances"]["rank_tol"] == 1e-8
        want = verify_engel(build_preset("darboux")["structure"], n_samples=20, skip=100)
        assert np.array_equal([rec["point"] for rec in doc["records"]], want.points)
        args = _parser().parse_args(["orbit", "--preset", "darboux"])
        assert (args.p0, args.kappa, args.T, args.dt, args.out) == (None,) * 5
        assert not hasattr(args, "samples")

    def test_each_command_takes_the_settings_it_reads(self):
        # 34 flags and 29 manifest keys over the five commands
        want = {"verify": {"--preset", "--kappa", "--samples", "--tol", "--seed"},
                "classify": {"--preset", "--kappa", "-T", "--dt", "--orbits"},
                "orbit": {"--preset", "--kappa", "-T", "--dt", "--p0", "--format"},
                "rigidity": {"-T", "--dt", "--trials", "--seed"},
                "report": {"--preset", "-T", "--dt", "--format"}}
        [sub] = [a for a in _parser()._actions if a.dest == "command"]
        for command, flags in want.items():
            have = {f for a in sub.choices[command]._actions for f in a.option_strings}
            assert have == flags | {"--out", "--config", "-h", "--help"}
            assert set(cli._COMMANDS[command][2]) == {f.lstrip("-") for f in flags}

    def test_every_benchmark_command_line_is_accepted(self, tmp_path):
        # benchmarks/golden.py runs the tasks of the four benchmark workloads
        # at two seeds plus its extra runs: each line parses and passes the
        # settings checks, so no benchmark task exits 2.  Nothing is run
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "golden.py"
        spec = importlib.util.spec_from_file_location("golden", path)
        spec.loader.exec_module(golden := importlib.util.module_from_spec(spec))
        for argv in golden.commands():
            cli._manifest_from_args(_parser().parse_args([*argv, "--out", str(tmp_path)]))

    def test_help_prints_the_defaults(self, capsys):
        assert run(["rigidity", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        for text in ("time horizon (default: 1.0)", "integration step (default: 0.001)",
                     "(default: 1000)", "(default: 0)", "output directory (default: .)"):
            assert text in out


class TestOutOfRangeInput:
    @pytest.mark.parametrize("argv, why", [
        (["orbit", "--preset", "darboux", "--p0", "a,b,c,d"],
         "p0 must be comma-separated numbers"),
        (["orbit", "--preset", "darboux", "-T", "0"], "T must be a finite nonzero number"),
        (["verify", "--preset", "darboux", "--samples", "0"], "samples must be at least 1"),
        (["rigidity", "--trials", "0"], "trials must be at least 1"),
        # a negative rank tolerance would count every singular value
        (["verify", "--preset", "integrable-counterexample", "--tol", "-1"],
         "tol must be finite and positive"),
        (["verify", "--preset", "darboux", "--tol", "inf"], "tol must be finite and positive"),
        (["orbit", "--preset", "darboux", "--p0", "0,0,0"], "p0 must be 4 numbers"),
        (["orbit", "--preset", "darboux", "--dt", "0"], "dt must be finite and positive"),
        (["orbit", "--preset", "darboux", "--dt", "-1"], "dt must be finite and positive"),
        (["rigidity", "-T", "-1"], "T must be finite and positive"),
        (["classify", "--preset", "darboux", "--orbits", "0"], "orbits must be at least 1"),
        (["classify", "--preset", "darboux", "--orbits", "-2"], "orbits must be at least 1"),
        # Halton indices below 0 would put every sample at the box corner
        (["verify", "--preset", "darboux", "--samples", "5", "--seed", "-200"],
         "seed must be an integer, at least 0"),
        (["rigidity", "--seed", "-3"], "seed must be an integer, at least 0"),
        # seed + 101 is the first Halton index, an int64
        (["verify", "--preset", "darboux", "--seed", "9223372036854775800"],
         "seed must be at most 4611686018427387904"),
        # a step longer than the horizon would be cut to it
        (["orbit", "--preset", "darboux", "-T", "1", "--dt", "5"], "dt must be at most |T|"),
        (["rigidity", "-T", "1", "--dt", "2"], "dt must be at most |T|"),
        (["classify", "--preset", "darboux", "--dt", "30"], "dt must be at most |T|"),
        # a non-finite kappa would fail inside the preset or the orbit
        (["verify", "--preset", "lorentz-magnetic", "--kappa=nan"],
         "kappa must be a finite number"),
        (["verify", "--preset", "lorentz-magnetic", "--kappa=inf"],
         "kappa must be a finite number"),
        (["verify", "--preset", "lorentz-magnetic", "--kappa=-inf"],
         "kappa must be a finite number"),
        (["classify", "--preset", "lorentz-magnetic-lie", "--kappa=nan"],
         "kappa must be a finite number"),
    ])
    def test_exit_2_before_any_work(self, tmp_path, capsys, argv, why):
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {why}, got ")
        assert not any(tmp_path.iterdir())

    def test_short_p0_creates_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "new"
        assert run(["orbit", "--preset", "darboux", "--p0", "0,0,0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: p0 must be 4 numbers, got ['0', '0', '0']\n")
        assert not out.exists()

    def test_dt_message_names_both_values(self, tmp_path, capsys):
        assert run(["orbit", "--preset", "darboux", "-T", "-1", "--dt", "5",
                    "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: dt must be at most |T|, got dt=5.0 with T=-1.0\n")

    @pytest.mark.parametrize("command, key, value", [
        ("verify", "samples", 2.5), ("verify", "samples", math.inf),
        ("rigidity", "trials", 1.5), ("classify", "orbits", math.inf)])
    def test_manifest_counts_are_integers(self, tmp_path, capsys, command, key, value):
        # 2.5 samples would run 2, and an infinite count cannot be converted
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        # rigidity reads no preset
        preset = {} if command == "rigidity" else {"preset": "darboux"}
        cfg.write_text(json.dumps({**preset, key: value}))
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {key} must be an integer, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("verify", "samples", True), ("verify", "seed", "3"), ("classify", "kappa", None),
        ("rigidity", "T", [1.0])])
    def test_manifest_numbers_are_numbers(self, tmp_path, capsys, command, key, value):
        # true would run 1 sample, and "3" would pass as the seed 3
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        preset = {} if command == "rigidity" else {"preset": "lorentz-magnetic-lie"}
        cfg.write_text(json.dumps({**preset, key: value}))
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {key} must be a number, got {value!r}\n"
        assert not out.exists()

    def test_unknown_manifest_key_exit_2(self, tmp_path, capsys):
        # a misspelled key would leave its setting at the default; rigidity's
        # control family has no setting
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        for command, manifest, key in (("verify", {"preset": "darboux", "sampels": 3}, "sampels"),
                                       ("rigidity", {"trials": 30, "modes": 2}, "modes")):
            cfg.write_text(json.dumps(manifest))
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"config error: config {cfg} has unknown keys ['{key}']\n")
        assert not out.exists()

    # the 14 settings that a command took as a flag and a manifest key but never read
    UNREAD = [("verify", "T", 3), ("verify", "dt", 0.5), ("verify", "format", "csv"),
              ("classify", "tol", 1e-30), ("classify", "seed", 99), ("classify", "format", "csv"),
              ("orbit", "tol", 1), ("orbit", "seed", 4),
              ("rigidity", "preset", "propellor-cat"), ("rigidity", "tol", 5),
              ("rigidity", "format", "csv"),
              ("report", "kappa", 7), ("report", "seed", 3), ("report", "tol", 2)]

    @pytest.mark.parametrize("command, key, value", UNREAD)
    def test_unread_flag_exit_2(self, tmp_path, capsys, command, key, value):
        flag = "-T" if key == "T" else f"--{key}"
        preset = ["--preset", "darboux"] if command in ("verify", "classify", "orbit") else []
        out = tmp_path / "out"
        assert run([command, *preset, flag, str(value), "--out", str(out)]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", UNREAD)
    def test_unread_manifest_key_exit_2(self, tmp_path, capsys, command, key, value):
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        preset = {"preset": "darboux"} if command in ("verify", "classify", "orbit") else {}
        cfg.write_text(json.dumps({**preset, key: value}))
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: config {cfg} has unknown keys ['{key}']\n")
        assert not out.exists()

    def test_manifest_kappa_must_be_finite(self, tmp_path, capsys):
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        cfg.write_text('{"preset": "lorentz-magnetic-lie", "kappa": NaN}')
        assert run(["classify", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: kappa must be a finite number, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unwritable_out_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch, below):
        def verify(*args, **kwargs):
            raise AssertionError("verified before the output directory was made")

        monkeypatch.setattr(cli, "verify_engel", verify)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / below if below else blocker
        assert run(["verify", "--preset", "darboux", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot create output directory {str(out)!r}: ")

    def test_config_p0_is_checked_like_the_option(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "darboux", "p0": [0, "x", 0, 0]}))
        assert run(["orbit", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        cfg.write_text(json.dumps({"preset": "darboux", "p0": [0, 0, 0, 0.5], "T": 0.1}))
        assert run(["orbit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "orbit_darboux.json").read_text())
        assert doc["points"][0] == [0, 0, 0, 0.5]


class TestNotEngel:
    @pytest.mark.parametrize("command", ["classify", "orbit"])
    def test_frame_failure_names_the_failed_ranks(self, tmp_path, capsys, command):
        # the words of `verify --preset integrable-counterexample`
        assert run([command, "--preset", "integrable-counterexample",
                    "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: E/W frame lost rank along the orbit: integrable-counterexample is not "
            "Engel, failed all_rank_E_3, all_rank_EE_4 over 1000 points\n")

    def test_engel_structure_keeps_the_frame_message(self, tmp_path, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise FrameDegenerate("E/W frame lost rank along the orbit")

        monkeypatch.setattr(cli.dyn, "estimate_global_type", degenerate)
        assert run(["classify", "--preset", "darboux", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: E/W frame lost rank along the orbit\n"

    def test_successful_run_does_not_verify(self, tmp_path, monkeypatch):
        def verify(*args, **kwargs):
            raise AssertionError("verified a structure whose frame did not fail")

        monkeypatch.setattr(cli, "verify_engel", verify)
        assert run(["classify", "--preset", "lorentz-magnetic-lie", "--kappa", "1",
                    "--out", str(tmp_path)]) == 0
        assert run(["orbit", "--preset", "darboux", "-T", "0.1", "--out", str(tmp_path)]) == 0


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
        times, pts, kept = integrate_orbits(s, s.model.point(0.6), 5.0, 1e-2)
        n = len(doc["t"])
        assert n == 207 and kept[0] == 207
        assert np.array_equal(doc["t"], times[:n])
        assert np.array_equal(doc["points"], pts[0, :n])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, why", [
    # M grows like e^(t/2) at kappa = -0.5 and leaves the finite floats past
    # t = 1419.6; it is not read as an angle
    (["orbit", "-T", "2000", "--dt", "0.02"], "E/W transport M or det M leaves the finite floats"),
])
def test_transport_overflow_exits_1(tmp_path, capsys, argv, why):
    code = run([*argv, "--preset", "lorentz-magnetic-lie", "--kappa", "-0.5",
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: {why} at t = ") and "Warning" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_distortion_is_classified(tmp_path, capsys):
    # sigma1 ~ e^(t/2) at kappa = -0.5: its square overflows past t = 709.8,
    # an infinite distortion written as null, while both growth laws are fitted
    code = run(["classify", "-T", "1400", "--dt", "0.05", "--preset", "lorentz-magnetic-lie",
                "--kappa", "-0.5", "--out", str(tmp_path)])
    assert code == 0 and ": Hyperbolic (genuine) -> " in capsys.readouterr().out
    doc = json.loads((tmp_path / "classify_lorentz-magnetic-lie.json").read_text())
    [ev] = doc["evidence"]["orbits"]
    assert abs(ev["slope"] - 0.5) < 1e-9 and ev["max_distortion"] is None


@pytest.mark.parametrize("T, n_flat", [("30", 325), ("40", 825), ("60", 1825)])
def test_converged_orbit_is_flagged_not_refused(tmp_path, capsys, T, n_flat):
    # the D/W angle of this hyperbolic orbit converges to the invariant line
    # at arctan 2: from t = 23.5 its steps fall below 1e-12 and then to
    # rounding of either sign, which the console line and the artifact count
    # as flat steps
    code = run(["orbit", "--preset", "lorentz-magnetic-lie", "--kappa", "-0.5", "-T", T,
                "--dt", "0.02", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0 and f"; {n_flat} flat steps from t=23.5) -> " in out
    doc = json.loads((tmp_path / "orbit_lorentz-magnetic-lie.json").read_text())
    assert abs(doc["developing_length"] - np.arctan(2)) < 1e-12
    assert doc["n_flat"] == n_flat and abs(doc["first_flat_t"] - 23.5) <= 0.02


def test_orbit_json_without_flat_steps(tmp_path):
    # before the angle converges no step is flat: the artifact says 0 and null
    # after the developing length
    code = run(["orbit", "--preset", "lorentz-magnetic-lie", "--kappa", "-0.5", "-T", "20",
                "--dt", "0.02", "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "orbit_lorentz-magnetic-lie.json").read_text())
    assert code == 0 and list(doc)[-3:] == ["developing_length", "n_flat", "first_flat_t"]
    assert doc["n_flat"] == 0 and doc["first_flat_t"] is None


class TestRigidityCommand:
    def test_small_run(self, tmp_path, capsys):
        code = run(["rigidity", "--trials", "60", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "rigidity.json").read_text())
        assert doc["probe"]["n_outside_accessible"] == 0
        assert doc["inaba_max_residual"] < 1e-5

    def test_artifact_ignores_thread_setting(self, tmp_path):
        # a result must not depend on the environment, the BLAS thread count
        # included: each run is a fresh process, since OpenBLAS reads the
        # setting once when numpy is imported
        runs = (["verify", "--preset", "lorentz-magnetic", "--kappa", "-0.5"],
                ["rigidity", "--trials", "60"])
        src = str(Path(cli.__file__).resolve().parents[1])
        artifacts = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            out = tmp_path / threads
            for argv in runs:
                subprocess.run([sys.executable, "-m", "engel_lab.cli", *argv, "--out", str(out)],
                               env=env, check=True, capture_output=True)
            artifacts[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert list(artifacts["1"]) == ["rigidity.json", "verify_lorentz-magnetic.json"]
        assert artifacts["1"] == artifacts["2"]
        doc = json.loads(artifacts["1"]["rigidity.json"])
        assert doc["probe"]["n_trials"] == 60
        assert doc["probe"]["n_outside_accessible"] == 0


class TestReportCommand:
    def test_kappa_sweep(self, tmp_path, capsys):
        code = run(["report", "--preset", "kappa-sweep", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sign law reproduced" in out
        doc = json.loads((tmp_path / "kappa_sweep.json").read_text())
        assert all(r["agrees"] for r in doc["rows"])

    def test_kappa_sweep_csv(self, tmp_path, capsys):
        assert run(["report", "--format", "csv", "--out", str(tmp_path)]) == 0
        assert "sign law reproduced" in capsys.readouterr().out
        header, *rows = (tmp_path / "kappa_sweep.csv").read_text().splitlines()
        assert header == "kappa,kappa_kappa_plus_1,agrees"
        cells = [[float(c) for c in row.split(",")] for row in rows]
        assert [c[0] for c in cells] == list(KAPPA_SWEEP)
        assert [c[1] for c in cells] == [k * (k + 1.0) for k in KAPPA_SWEEP]
        assert [c[2] for c in cells] == [1.0] * len(KAPPA_SWEEP)

    def test_negative_horizon_reproduces_the_sign_law(self, tmp_path, capsys):
        assert run(["report", "-T", "-20", "--out", str(tmp_path)]) == 0
        assert "sign law reproduced" in capsys.readouterr().out


class TestPresets:
    def test_misspelled_setting_is_refused(self):
        # once built the kappa = 1 structure without a word
        with pytest.raises(ConfigError, match="preset 'lorentz-magnetic' takes kappa, not kapa"):
            build_preset("lorentz-magnetic", kapa=-0.5)

    def test_setting_the_preset_does_not_read_is_refused(self):
        with pytest.raises(ConfigError, match="preset 'darboux' takes no settings, not kappa"):
            build_preset("darboux", kappa=3.0)

    def test_kappa_presets_are_those_that_take_kappa(self):
        assert KAPPA_PRESETS == ("lorentz-product", "lorentz-product-lie", "lorentz-magnetic",
                                 "lorentz-magnetic-lie", "suspension-geodesic")


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

    @given(st.data(), st.sampled_from([np.float64, np.float32]),
           st.one_of(st.just((0,)), st.just((3, 0)), st.just((2, 3, 2)),
                     st.integers(1, 12).map(lambda n: (n,)),
                     st.integers(1, 12).map(lambda n: (n, 4))),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_array_path_matches_element_path(self, data, dtype, shape, finite):
        # finite float arrays take the one-template path, the rest the
        # per-element path; both must write what the nested lists write
        elements = st.floats(width=np.finfo(dtype).bits, allow_nan=not finite,
                             allow_infinity=not finite)
        a = data.draw(hnp.arrays(dtype, shape, elements=elements))
        assert dumps_canonical(a) == dumps_canonical(a.tolist())

    def test_array_edge_values(self):
        a = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
        assert dumps_canonical(a) == dumps_canonical(a.tolist()) == (
            "[-0, 4.9406564584124654e-324, 1.7976931348623157e+308, "
            "-1.7976931348623157e+308]")
        for dtype in (np.float64, np.float32):
            for bad in (np.nan, np.inf, -np.inf):
                assert dumps_canonical(np.array([[0.5, bad]], dtype=dtype)) == "[[0.5, null]]"

    @given(st.data(), st.integers(0, 6), st.sampled_from([np.float64, np.float32]),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_records_match_per_row_dicts(self, data, n, dtype, finite):
        # the one-template table writes what the list of per-row dicts writes
        floats = st.floats(width=np.finfo(dtype).bits, allow_nan=not finite,
                           allow_infinity=not finite)
        cols = {
            "point": data.draw(hnp.arrays(dtype, (n, 4), elements=floats)),
            "x": data.draw(hnp.arrays(dtype, (n,), elements=floats)),
            "rank": data.draw(hnp.arrays(np.int64, (n,))),
            "flag": data.draw(hnp.arrays(np.bool_, (n,))),
        }
        rows = [{k: v[i].tolist() for k, v in cols.items()} for i in range(n)]
        assert dumps_canonical(Records(cols)) == dumps_canonical(rows)

    def test_records_edge_values(self):
        edge = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        bad = [np.nan, np.inf, -np.inf, 0.5]
        cols = {"p": np.array([edge, bad]).T, "e": edge, "b": bad,
                "k%d\t": [0, -1, 2, 3], "m": [True, False, False, True]}
        rows = [{k: np.asarray(v)[i].tolist() for k, v in cols.items()} for i in range(4)]
        text = dumps_canonical(Records(cols))
        assert text == dumps_canonical(rows)
        assert text.startswith('[{"p": [-0, null], "e": -0, "b": null, "k%d\\t": 0, "m": true}, '
                               '{"p": [4.9406564584124654e-324, null], ')
        assert dumps_canonical(Records({"p": np.zeros((0, 4)), "m": []})) == "[]"
        assert dumps_canonical(Records({"p": [[1.5, 2.0]], "m": [False]})) == (
            '[{"p": [1.5, 2], "m": false}]')
        with pytest.raises(ValueError):
            Records({"p": [1.0, 2.0], "m": [True]})

    def test_csv_matches_per_value_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        finite = rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
        odd = finite.copy()
        odd[[3, 10, 20]] = [np.nan, np.inf, -np.inf]
        edge = np.resize([-0.0, 5e-324, 1.7976931348623157e308], 40)
        cases = {
            "mixed": [finite, odd, edge, rng.standard_normal(40).astype(np.float32),
                      np.arange(40), [True, False] * 20],
            "one": [odd],
            "empty": [[], []],
        }
        for name, cols in cases.items():
            header = [f"c{i}" for i in range(len(cols))]
            write_csv(tmp_path / name, header, cols)
            rows = [",".join(_fmt_float(float(c[i])) for c in cols) + "\n"
                    for i in range(len(cols[0]))]
            assert (tmp_path / name).read_text() == ",".join(header) + "\n" + "".join(rows)
