import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import risloc
from risloc import cli
from risloc.cli import (EXIT_CONFIG, EXIT_GEOMETRY, EXIT_INTERNAL, EXIT_OK,
                        build_experiment, build_grid, build_parser,
                        build_scenario, config_hash, effective_config,
                        load_config, main, write_trace)
from risloc.errors import ConfigError, RislocError
from risloc.harness import ExperimentConfig, _group_traces

FAST_CONFIG = """
scenario:
  l_samples: 40
grid:
  az_deg: [-10, 10, 1]
  el_deg: [-30, 0, 1]
  r_m: [0.1, 3.9, 0.2]
experiment:
  runs: 2
  seed_base: 3
  line:
    x_points_m: [1.0, 2.0]
    y_m: 0.0
    z_m: -0.5
  aoi:
    x_min_m: 1.6
    x_max_m: 2.0
    y_min_m: 0.0
    y_max_m: 0.0
    step_m: 0.2
    z_m: -0.5
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(FAST_CONFIG)
    return str(path)


class TestConfig:
    def test_hash_invariant_to_key_order_and_whitespace(self, tmp_path):
        a = tmp_path / "a.yaml"
        b = tmp_path / "b.yaml"
        a.write_text("scenario:\n  f_hz: 23.8e9\n  l_samples: 40\n")
        b.write_text("scenario:\n    l_samples:  40\n    f_hz: 23.8e9\n\n")
        assert config_hash(load_config(str(a))) == \
            config_hash(load_config(str(b)))

    def test_hash_sensitive_to_values(self, tmp_path):
        a = tmp_path / "a.yaml"
        b = tmp_path / "b.yaml"
        a.write_text("experiment:\n  runs: 2\n")
        b.write_text("experiment:\n  runs: 3\n")
        assert config_hash(load_config(str(a))) != \
            config_hash(load_config(str(b)))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.yaml"))

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_scenario_defaults_match_reference_table(self):
        sc = build_scenario({})
        assert sc.f == pytest.approx(23.8e9)
        assert sc.tx_power == pytest.approx(0.1)
        assert sc.num_samples == 40
        assert sc.sample_time == pytest.approx(1e-4)
        assert np.allclose(sc.bs_position, [1.0, -3.0, 3.0])

    def test_bad_grid_axis_rejected(self):
        with pytest.raises(ConfigError):
            build_grid({"grid": {"az_deg": [0, 10]}})


class TestCliExitCodes:
    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["single", "--config", str(tmp_path / "none.yaml"),
                   "--out", str(tmp_path / "out"),
                   "--truth-p", "2", "0", "-0.5"])
        assert rc == EXIT_CONFIG

    def test_behind_array_exits_3(self, cfg_path, tmp_path):
        rc = main(["single", "--config", cfg_path,
                   "--out", str(tmp_path / "out"),
                   "--truth-p", "-2", "0", "-0.5"])
        assert rc == EXIT_GEOMETRY

    @pytest.mark.parametrize("flags, code, named", [
        (["--truth-p", "nan", "0", "-0.5"], EXIT_CONFIG, "must be finite"),
        (["--truth-p", "inf", "0", "-0.5"], EXIT_CONFIG, "must be finite"),
        (["--truth-p", "2", "nan", "-0.5"], EXIT_CONFIG, "must be finite"),
        # In front of the array at l = 0, behind it by l = L - 1.
        (["--variant", "gs-nf", "--truth-p", "0.02", "0", "-0.5",
          "--truth-v", "-10", "0", "0"], EXIT_GEOMETRY,
         "truth trajectory must stay in the front half-space")])
    def test_single_rejects_truth_it_cannot_honour(self, flags, code, named,
                                                   cfg_path, tmp_path,
                                                   capsys):
        rc = main(["single", "--config", cfg_path,
                   "--out", str(tmp_path / "out"), *flags])
        assert rc == code
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, named", [
        ("scenario:\n  f_Hz: 28.0e9\n", "unknown config key: scenario.f_Hz"),
        ("experiment:\n  aoi:\n    stepm: 0.2\n",
         "unknown config key: experiment.aoi.stepm"),
        ("scenario:\n", "config section scenario must be a mapping")])
    def test_unknown_config_key_exits_2(self, text, named, tmp_path,
                                        capsys):
        path = tmp_path / "typo.yaml"
        path.write_text(text)
        rc = main(["single", "--config", str(path),
                   "--out", str(tmp_path / "out"),
                   "--truth-p", "2", "0", "-0.5"])
        assert rc == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--runs", "--threads"])
    def test_zero_runs_or_threads_exits_2(self, flag, cfg_path, tmp_path,
                                          capsys):
        rc = main(["sweep-aoi", "--config", cfg_path,
                   "--out", str(tmp_path / "out"), flag, "0"])
        assert rc == EXIT_CONFIG
        assert f"{flag[2:]} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--runs", "5"], ["--threads", "3"],
                                       ["--variant", "gs-nf",
                                        "--variant", "gs-ff"]])
    def test_single_rejects_flags_it_cannot_honour(self, flags, cfg_path,
                                                   tmp_path, capsys):
        argv = ["single", "--config", cfg_path,
                "--out", str(tmp_path / "out"), "--truth-p", "2", "0", "-0.5"]
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == EXIT_CONFIG
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert build_parser().parse_args(
            argv + ["--variant", "gs-ff"]).variant == ["gs-ff"]

    @pytest.mark.parametrize("phases", ["[-15.0]", "[0.0, 90.0, 180.0]",
                                        "[30.0, 30.0]"])
    def test_reflection_set_not_two_values_exits_2(self, phases, tmp_path,
                                                   capsys):
        path = tmp_path / "refl.yaml"
        path.write_text(f"scenario:\n  reflection_phases_deg: {phases}\n")
        rc = main(["single", "--config", str(path),
                   "--out", str(tmp_path / "out"),
                   "--truth-p", "2", "0", "-0.5"])
        assert rc == EXIT_CONFIG
        assert "invalid scenario" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep-line", "sweep-aoi"])
    def test_sweep_rejects_no_antenna_pattern(self, command, cfg_path,
                                              tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg_path,
                  "--out", str(tmp_path / "out"), "--no-antenna-pattern"])
        assert exc.value.code == EXIT_CONFIG
        assert "--no-antenna-pattern" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSingle:
    def test_noiseless_single_outputs(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["single", "--config", cfg_path, "--out", str(out),
                   "--noiseless", "--truth-p", "2", "0", "-0.5"])
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert printed.startswith("p_hat ")
        for name in ("snapshot.txt", "trace.txt", "manifest.txt"):
            assert (out / name).is_file()
        rows = [ln.split() for ln in
                (out / "trace.txt").read_text().splitlines()
                if not ln.startswith("#")]
        stages = [r[0] for r in rows]
        assert stages == ["GS", "CF", "6D"]
        p_hat = np.array([float(x) for x in rows[-1][1:4]])
        # Noiseless, pattern on: accuracy limited by model mismatch.
        assert np.linalg.norm(p_hat - [2.0, 0.0, -0.5]) < 0.02
        costs = [float(r[7]) for r in rows]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(costs, costs[1:]))

    def test_manifest_contents(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        argv = ["single", "--config", cfg_path, "--out", str(out),
                "--noiseless", "--truth-p", "2", "0", "-0.5"]
        main(argv)
        manifest = dict(ln.split(None, 1) for ln in
                        (out / "manifest.txt").read_text().splitlines())
        assert manifest["config_hash"] == config_hash(effective_config(
            load_config(cfg_path), build_parser().parse_args(argv)))
        assert manifest["seed_base"] == "3"
        assert manifest["command"] == "single"


    def test_hash_follows_result_flags(self, cfg_path, tmp_path):
        def run_hash(name, *flags):
            out = tmp_path / name
            assert main(["single", "--config", cfg_path, "--out", str(out),
                         "--truth-p", "2", "0", "-0.5", *flags]) == EXIT_OK
            manifest = dict(ln.split(None, 1) for ln in
                            (out / "manifest.txt").read_text().splitlines())
            return manifest["config_hash"]

        plain = run_hash("plain")
        noiseless = run_hash("a", "--noiseless")
        assert plain == config_hash(load_config(cfg_path))
        assert noiseless != plain
        assert run_hash("b", "--noiseless") == noiseless
        # --seed 3 restates the file's seed_base: same effective config.
        assert run_hash("c", "--seed", "3") == plain

    def test_truth_v_enters_hash(self, tmp_path):
        path = tmp_path / "v.yaml"
        path.write_text(FAST_CONFIG.replace(
            "experiment:\n", "experiment:\n  truth_v_mps: [1, 0, 0]\n"))
        cfg = load_config(str(path))
        argv = ["single", "--config", str(path), "--out", str(tmp_path),
                "--truth-p", "2", "0", "-0.5"]

        def run(*flags):
            args = build_parser().parse_args(argv + list(flags))
            return (config_hash(effective_config(cfg, args)),
                    build_experiment(cfg, args).truth_v.tolist())

        plain = run()
        assert plain == (config_hash(cfg), [1.0, 0.0, 0.0])
        # Restating the file's velocity keeps its hash.
        assert run("--truth-v", "1", "0", "0") == plain
        moved = run("--truth-v", "0", "1.5", "0")
        assert moved[0] != plain[0]
        assert moved[1] == [0.0, 1.5, 0.0]

    def test_file_variant_runs(self, tmp_path):
        path = tmp_path / "fine.yaml"
        path.write_text(FAST_CONFIG.replace(
            "experiment:\n", "experiment:\n  variants: [gs-nf-fine]\n"))
        out = tmp_path / "out"
        assert main(["single", "--config", str(path), "--out", str(out),
                     "--truth-p", "2", "0", "-0.5"]) == EXIT_OK
        stages = [ln.split()[0] for ln in
                  (out / "trace.txt").read_text().splitlines()
                  if not ln.startswith("#")]
        assert stages == ["GS", "GS-fine", "CF", "6D"]

    def test_several_file_variants_exit_2(self, tmp_path, capsys):
        path = tmp_path / "two.yaml"
        path.write_text(FAST_CONFIG.replace(
            "experiment:\n", "experiment:\n  variants: [gs-nf, noap]\n"))
        out = tmp_path / "out"
        rc = main(["single", "--config", str(path), "--out", str(out),
                   "--truth-p", "2", "0", "-0.5"])
        assert rc == EXIT_CONFIG
        assert "experiment.variants lists 2" in capsys.readouterr().err
        assert not out.exists()
        # --variant picks one of them.
        assert main(["single", "--config", str(path), "--out", str(out),
                     "--truth-p", "2", "0", "-0.5",
                     "--variant", "noap"]) == EXIT_OK

    def test_trace_matches_sweep_trial(self, cfg_path, tmp_path):
        argv = ["single", "--config", cfg_path, "--out", str(tmp_path / "out"),
                "--truth-p", "2", "0", "-0.5"]
        assert main(argv) == EXIT_OK
        config = build_experiment(load_config(cfg_path),
                                  build_parser().parse_args(argv))
        traces, _ = _group_traces(dataclasses.replace(config,
                                                      variants=("gs-nf",)),
                                  [np.array([2.0, 0.0, -0.5])], 0)[0]
        write_trace(traces["gs-nf"][0], str(tmp_path / "sweep_trace.txt"))
        assert (tmp_path / "out" / "trace.txt").read_bytes() == \
            (tmp_path / "sweep_trace.txt").read_bytes()


class TestRunPath:
    @pytest.mark.parametrize("command", ["single", "sweep-aoi",
                                         "sweep-line"])
    def test_manifest_names_command(self, command, cfg_path, tmp_path):
        out = tmp_path / "out"
        flags = ["--truth-p", "2", "0", "-0.5"] if command == "single" \
            else ["--runs", "1"]
        assert main([command, "--config", cfg_path, "--out", str(out),
                     *flags]) == EXIT_OK
        manifest = dict(ln.split(None, 1) for ln in
                        (out / "manifest.txt").read_text().splitlines())
        assert manifest["command"] == command

    def test_command_that_raises_writes_no_manifest(self, cfg_path,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        def fail(config):
            raise RislocError("sweep failed")

        monkeypatch.setattr(cli, "aoi_sweep", fail)
        out = tmp_path / "out"
        assert main(["sweep-aoi", "--config", cfg_path,
                     "--out", str(out)]) == EXIT_INTERNAL
        assert "sweep failed" in capsys.readouterr().err
        assert out.is_dir() and not (out / "manifest.txt").exists()

    def test_failed_stage_writes_trace_and_manifest(self, cfg_path, tmp_path,
                                                    monkeypatch, capsys):
        estimate = cli.estimate

        def failing(*args, **kwargs):
            trace = estimate(*args, **kwargs)
            trace.failures.append(("6D", RislocError("no descent")))
            return trace

        monkeypatch.setattr(cli, "estimate", failing)
        out = tmp_path / "out"
        assert main(["single", "--config", cfg_path, "--out", str(out),
                     "--truth-p", "2", "0", "-0.5"]) == EXIT_INTERNAL
        assert "stage 6D failed: no descent" in capsys.readouterr().err
        for name in ("snapshot.txt", "trace.txt", "manifest.txt"):
            assert (out / name).is_file()


class TestSweeps:
    def test_line_sweep_table(self, cfg_path, tmp_path):
        out = tmp_path / "line"
        rc = main(["sweep-line", "--config", cfg_path, "--out", str(out),
                   "--runs", "1", "--variant", "gs-nf", "--variant",
                   "gs-ff"])
        assert rc == EXIT_OK
        rows = [ln.split() for ln in
                (out / "line_results.txt").read_text().splitlines()
                if not ln.startswith("#")]
        # 2 points x 2 variants x 3 stages.
        assert len(rows) == 12
        labels = {r[3] for r in rows}
        assert {"GS-NF", "GS-FF", "CF", "6D"} <= labels
        d_r = [float(r[0]) for r in rows]
        assert d_r == sorted(d_r)
        assert d_r[0] == pytest.approx(np.hypot(1.0, 0.5), rel=1e-8)

    def test_aoi_sweep_rows_and_determinism(self, cfg_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(["sweep-aoi", "--config", cfg_path, "--out",
                       str(out), "--runs", "1"])
            assert rc == EXIT_OK
        text_a = (out_a / "aoi_results.txt").read_text()
        assert text_a == (out_b / "aoi_results.txt").read_text()
        header, *rows = text_a.splitlines()
        assert len(rows) == 3  # 3 x-points, 1 y-point, 1 variant
        assert header.split()[-1] == "in_coverage"
        assert [row.split()[-1] for row in rows] == ["1"] * 3

    def test_seed_flag_changes_results(self, cfg_path, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            main(["sweep-aoi", "--config", cfg_path, "--out", str(out),
                  "--runs", "1", "--seed", str(seed)])
            outs.append((out / "aoi_results.txt").read_text())
        assert outs[0] != outs[1]


class TestConfigTable:
    @pytest.mark.parametrize("command, text, named", [
        ("single", "experiment:\n  aoi:\n    step_m: abc\n",
         "invalid experiment.aoi.step_m:"),
        ("single", "grid:\n  az_deg: 5\n", "invalid grid.az_deg:"),
        ("single", "experiment:\n  truth_v_mps: [1, 2]\n",
         "invalid experiment.truth_v_mps:"),
        ("single", "scenario:\n  p_bs_m: [1, 2]\n", "invalid scenario.p_bs_m:"),
        ("single", "scenario:\n  p_bs_m: [-1, -3, 3]\n", "invalid scenario:"),
        ("sweep-line", "experiment:\n  line:\n    x_points_m: abc\n",
         "invalid experiment.line.x_points_m:"),
        ("single", "scenario:\n  l_samples: 4.7\n",
         "invalid scenario.l_samples:"),
        ("single", "experiment:\n  runs: 2.9\n", "invalid experiment.runs:"),
        ("single", "experiment:\n  variants: gs-nf\n",
         "invalid experiment.variants:"),
        ("single", "scenario:\n  f_hz:\n", "missing config key: scenario.f_hz"),
        ("single", "scenario:\n  l_samples: 0\n", "invalid scenario:"),
        ("single", "scenario:\n  t_k: -1\n", "invalid scenario:"),
        ("sweep-aoi", "experiment:\n  aoi:\n    step_m: 0\n",
         "invalid experiment.aoi:"),
        ("sweep-aoi", "experiment:\n  variants: []\n", "invalid experiment:"),
        ("single", "layout:\n  cell_size_m: -1\n", "invalid layout:"),
        ("sweep-line", "experiment:\n  line:\n    x_points_m: []\n",
         "invalid experiment.line.x_points_m:"),
        ("sweep-line", "experiment:\n  line:\n    x_points_m: [-1]\n",
         "invalid experiment.line.x_points_m:"),
        ("single", "experiment:\n  line:\n    x_points_m: []\n",
         "invalid experiment.line.x_points_m:"),
        ("sweep-aoi", "experiment:\n  line:\n    y_m: abc\n",
         "invalid experiment.line.y_m:"),
        ("sweep-aoi", "experiment:\n  aoi:\n    x_min_m: -1\n    "
         "x_max_m: -1\n", "invalid experiment.aoi:"),
        ("single", "grid:\n  el_deg: [95, 100, 5]\n", "invalid grid:"),
        ("single", "grid:\n  az_deg: [175, 180, 5]\n", "invalid grid:"),
        ("sweep-aoi", "experiment:\n  variants: [gs-nf, gs-nf]\n",
         "invalid experiment:"),
        ("sweep-aoi --variant gs-nf --variant gs-nf", "{}\n",
         "invalid experiment:"),
        # YAML booleans are not numbers, though float(True) is 1.0, and
        # non-finite values crashed after the output directory was made.
        ("single", "grid:\n  r_m: [0.1, .inf, 0.2]\n", "invalid grid.r_m:"),
        ("sweep-aoi", "experiment:\n  aoi:\n    x_max_m: .nan\n",
         "invalid experiment.aoi.x_max_m:"),
        ("single", "experiment:\n  runs: true\n", "invalid experiment.runs:"),
        ("single", "scenario:\n  l_samples: true\n",
         "invalid scenario.l_samples:"),
        ("single", "experiment:\n  aoi:\n    step_m: true\n",
         "invalid experiment.aoi.step_m:"),
        ("single", "scenario:\n  g_bs_db: false\n",
         "invalid scenario.g_bs_db:"),
        ("single", "grid:\n  r_m: [true, 3.9, 0.2]\n", "invalid grid.r_m:"),
        ("single", "scenario:\n  reflection_phases_deg: [0, true]\n",
         "invalid scenario.reflection_phases_deg:"),
        ("single", "layout:\n  tile_offsets_m: [[true, 0], [0, 0.2], "
         "[0.2, 0], [0.2, 0.2]]\n", "invalid layout.tile_offsets_m:")])
    def test_malformed_value_exits_2(self, command, text, named, tmp_path,
                                     capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        argv = [*command.split(), "--config", str(path), "--out",
                str(tmp_path / "out")]
        if command == "single":
            argv += ["--truth-p", "2", "0", "-0.5"]
        assert main(argv) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_config_builds_the_default_objects(self):
        def same(a, b):
            if dataclasses.is_dataclass(a):
                return type(a) is type(b) and all(
                    same(getattr(a, f.name), getattr(b, f.name))
                    for f in dataclasses.fields(a))
            if isinstance(a, tuple):
                return len(a) == len(b) and all(map(same, a, b))
            a, b = np.asarray(a), np.asarray(b)
            return a.dtype == b.dtype and a.shape == b.shape \
                and a.tobytes() == b.tobytes()

        args = build_parser().parse_args(
            ["single", "--config", "-", "--out", "-", "--truth-p", "2", "0",
             "-0.5"])
        built, default = build_experiment({}, args), ExperimentConfig()
        for f in dataclasses.fields(default):
            assert same(getattr(built, f.name), getattr(default, f.name)), \
                f.name

    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(risloc.__file__))
        code = ("import sys, risloc.cli; print(sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
