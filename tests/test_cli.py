import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from qdiff import pme
from qdiff import regimes as reg
from qdiff.cli import (
    RunConfig,
    ValidationError,
    cmd_pipeline,
    cmd_synth,
    cmd_verify_pme,
    load_config,
    main,
)
from qdiff.ingest import lag_ladder
from qdiff.qgauss import ScalingLaw, selfsim_sample


@pytest.fixture(scope="module")
def small_ensembles(tmp_path_factory):
    out = tmp_path_factory.mktemp("ens")
    lags = lag_ladder(1, 100, 2)
    cmd_synth(out, q=1.71, alpha=1.79, d_coef=0.1118, lags=lags,
              n_per_lag=30_000, seed=7)
    return out


@pytest.fixture(scope="module")
def small_run(small_ensembles, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "run"
    return cmd_pipeline(RunConfig(ensembles=str(small_ensembles), out=str(out), max_lag=100.0))


RETIRED_KEYS = [
    "seed", "bandwidth_scale", "core_span_quantiles", "moment_window_quantiles",
    "fit_floor_counts", "boundary_a", "boundary_nu", "boundary_t0",
    "strong_fit_min", "strong_fit_max", "weak_fit_min", "weak_fit_max",
]


def _write_series(path, delimiter=","):
    """A 40,000-minute random-walk index series, minute and level per row."""
    rng = np.random.default_rng(12)
    values = 500.0 + np.cumsum(rng.normal(0, 0.05, 40_000))
    path.write_text("\n".join(f"{i}{delimiter}{v:.6f}" for i, v in enumerate(values)) + "\n")
    return path


class TestSynth:
    def test_files_and_metadata(self, tmp_path):
        lags = [1.0, 10.0]
        out = cmd_synth(tmp_path / "s", q=1.5, alpha=2.0, d_coef=1.0,
                        lags=lags, n_per_lag=100, seed=3)
        files = sorted(out.glob("lag_*.npy"))
        assert len(files) == 2
        meta = json.loads(files[0].with_suffix(".json").read_text())
        assert meta["lag"] == 1.0 and meta["n"] == 100
        top = json.loads((out / "synth.json").read_text())
        assert top["lags"] == lags

    def test_mixture_mode_weights_die_at_end(self, tmp_path):
        out = cmd_synth(tmp_path / "m", q=1.71, alpha=1.79, d_coef=0.1118,
                        lags=[1.0, 100.0], n_per_lag=1000, seed=3,
                        mode="mixture")
        meta = json.loads((out / "synth.json").read_text())
        assert meta["mode"] == "mixture"
        # past bump_t_end the lag holds only the wide component; both files exist
        assert len(sorted(out.glob("lag_*.npy"))) == 2

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValidationError):
            cmd_synth(tmp_path, q=1.5, alpha=2.0, d_coef=1.0, lags=[1.0],
                      n_per_lag=0, seed=1)


class TestPipeline:
    def test_all_stage_artifacts_present(self, small_ensembles, tmp_path):
        cfg = RunConfig(ensembles=str(small_ensembles), out=str(tmp_path / "run"),
                        max_lag=100.0)
        out = cmd_pipeline(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        stages = {a["stage"] for a in manifest["artifacts"]}
        # sample files are read in place, so the ensembles stage writes nothing
        assert stages == {
            "pdfs", "series", "regimes", "lag_fits",
            "collapse", "governing", "d2_grid",
        }
        assert manifest["failed_stage"] is None
        collapse = json.loads((out / "collapse.json").read_text())
        assert abs(collapse["weak"]["q"] - 1.71) < 0.1
        governing = json.loads((out / "governing.json").read_text())
        assert governing["xi"] == pytest.approx(
            (3.0 - collapse["weak"]["q"]) / collapse["weak"]["alpha"]
        )

    def test_rerun_is_byte_identical(self, small_ensembles, tmp_path):
        cfg1 = RunConfig(ensembles=str(small_ensembles), out=str(tmp_path / "a"), max_lag=100.0)
        cfg2 = RunConfig(ensembles=str(small_ensembles), out=str(tmp_path / "b"), max_lag=100.0)
        m1 = json.loads((cmd_pipeline(cfg1) / "manifest.json").read_text())
        m2 = json.loads((cmd_pipeline(cfg2) / "manifest.json").read_text())
        h1 = {a["path"]: a["sha256"] for a in m1["artifacts"]}
        h2 = {a["path"]: a["sha256"] for a in m2["artifacts"]}
        assert h1 == h2

    def test_ensemble_inputs_are_hashed(self, small_ensembles, small_run):
        inputs = json.loads((small_run / "manifest.json").read_text())["inputs"]
        paths = sorted(small_ensembles.glob("lag_*.npy"))
        assert paths and sorted(inputs) == [str(p) for p in paths]
        for p in paths:
            assert inputs[str(p)] == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_run_report_times_every_stage(self, small_run):
        stage_s = json.loads((small_run / "run_report.json").read_text())["stage_s"]
        assert set(stage_s) == {
            "ensembles", "pdfs", "series", "regimes", "lag_fits",
            "collapse", "governing", "d2_grid",
        }
        assert all(s >= 0.0 for s in stage_s.values())
        manifest = json.loads((small_run / "manifest.json").read_text())
        assert "run_report.json" not in {a["path"] for a in manifest["artifacts"]}

    def test_run_report_describes_every_lag_fit(self, small_run):
        report = json.loads((small_run / "run_report.json").read_text())["lag_fits"]
        rows = json.loads((small_run / "lag_fits.json").read_text())
        assert [r["lag"] for r in report] == [r["lag"] for r in rows]
        for entry, row in zip(report, rows):
            assert set(entry) == {"lag", "nfev", "status", "at_boundary", "grid_mass",
                                  "deviance", "n_bins"}
            assert entry["nfev"] > 0 and entry["status"] > 0
            assert 0.0 < entry["grid_mass"] <= 1.0
            assert math.isfinite(entry["deviance"]) and entry["deviance"] >= 0.0
            assert 10 <= entry["n_bins"] <= 120
            assert entry["at_boundary"] == row["at_boundary"]
            assert not {"nfev", "status", "grid_mass", "deviance", "n_bins"} & set(row)
        manifest = json.loads((small_run / "manifest.json").read_text())
        assert "run_report.json" not in {a["path"] for a in manifest["artifacts"]}

    def test_collapse_states_the_error_of_every_weak_number(self, small_run):
        weak = json.loads((small_run / "collapse.json").read_text())["weak"]
        for key in ("q_err", "alpha_err", "d_coef_err"):
            assert math.isfinite(weak[key]) and weak[key] > 0.0, key

    def test_run_report_says_why_the_strong_regime_is_missing(self, small_run):
        regimes = json.loads((small_run / "run_report.json").read_text())["regimes"]
        partition = json.loads((small_run / "partition.json").read_text())
        # no lag of the single-regime family shows a bump, so the default
        # boundary curve stands and no strong collapse is attempted
        assert regimes == {
            "n_lags_with_bump": 0,
            "nu_fitted": None,
            "nu_clamped": partition["nu"],
            "strong": "fewer than 3 lags with a bump (0)",
        }
        assert "collapsed_strong.npy" not in {
            a["path"] for a in json.loads((small_run / "manifest.json").read_text())["artifacts"]
        }

    def test_missing_input_fails_before_compute(self, tmp_path):
        cfg = RunConfig(input=str(tmp_path / "absent.csv"), out=str(tmp_path / "x"))
        with pytest.raises(ValidationError):
            cmd_pipeline(cfg)
        assert not (tmp_path / "x").exists()

    def test_series_input_end_to_end(self, tmp_path):
        rng = np.random.default_rng(12)
        n = 40_000
        values = 500.0 + np.cumsum(rng.normal(0, 0.05, n))
        lines = "\n".join(f"{i},{v:.6f}" for i, v in enumerate(values))
        src = tmp_path / "series.csv"
        src.write_text(lines + "\n")
        cfg = RunConfig(input=str(src), out=str(tmp_path / "run"),
                        min_lag=1.0, max_lag=100.0, points_per_decade=2,
                        detrend_window=2000.0)
        out = cmd_pipeline(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(src) in manifest["inputs"]
        assert (out / "gap_report.json").exists()
        heights = (out / "heights.csv").read_text().splitlines()
        assert len(heights) > 3

    def test_series_input_takes_one_spacing_median(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        minutes = np.delete(np.arange(20_040), rng.choice(np.arange(1, 20_039), 40, replace=False))
        values = 500.0 + np.cumsum(rng.normal(0, 0.05, minutes.size))
        src = tmp_path / "series.csv"
        src.write_text("".join(f"{m},{v:.6f}\n" for m, v in zip(minutes, values)))
        spacing = np.diff(minutes.astype(float))
        median, calls = np.median, []

        def counting_median(a, *args, **kwargs):
            calls.append(np.shape(a) == spacing.shape and np.array_equal(a, spacing))
            return median(a, *args, **kwargs)

        monkeypatch.setattr(np, "median", counting_median)
        cmd_pipeline(RunConfig(input=str(src), out=str(tmp_path / "run"), min_lag=1.0,
                               max_lag=100.0, points_per_decade=2, detrend_window=2000.0))
        assert sum(calls) == 1


class TestVerifyPme:
    def test_fast_diffusion_report(self):
        report = cmd_verify_pme(0.29, grid_points=513, refinements=2, t2=2.0)
        assert report["residual_rel_peak"] < 1e-6
        assert report["sup_error_rel_peak"] < 1e-3
        assert report["convergence_order"] == pytest.approx(2.0, abs=0.3)

    def test_heat_kernel_case(self):
        report = cmd_verify_pme(1.0, grid_points=1025, refinements=1, t2=2.0)
        assert report["residual_rel_peak"] < 1e-6
        assert report["sup_error_rel_peak"] < 1e-4

    def test_compact_support_front(self):
        report = cmd_verify_pme(1.5, grid_points=1025, refinements=1)
        assert report["front_error_cells"] <= 2.0

    @pytest.mark.parametrize("grid_points", [513, 1025, 4097])
    def test_front_of_the_exact_field_reads_zero_cells(self, grid_points, monkeypatch):
        # a solver that returns the exact field at m = 1.2, where the
        # profile vanishes like (x_f - x)^5 and a density threshold reads
        # the front cells inside it
        def exact_solve(field, t_end, **kwargs):
            u = np.asarray(pme.barenblatt(field.grid, t_end, field.m, 1.0))
            return pme.SolveResult(field=pme.PmeField(grid=field.grid, u=u, time=t_end,
                                                      m=field.m),
                                   mass_drift=0.0, floor_hits=0, n_steps=1)

        monkeypatch.setattr(pme, "solve_pme", exact_solve)
        report = cmd_verify_pme(1.2, grid_points=grid_points, refinements=1)
        assert report["front_error_cells"] < 1e-9

    def test_slow_diffusion_report(self):
        report = cmd_verify_pme(1.5, grid_points=257, refinements=2)
        assert report["convergence_order"] == pytest.approx(2.0, abs=0.3)
        assert report["floor_hits_by_level"] == [0, 0]
        assert max(report["mass_drift_by_level"]) < 1e-12

    def test_negative_m_skips_evolution(self):
        report = cmd_verify_pme(-0.73, refinements=1)
        assert report["residual_rel_peak"] < 1e-6
        assert "skipped" in report["evolution"]

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            cmd_verify_pme(0.0)
        with pytest.raises(ValidationError):
            cmd_verify_pme(2.5)


class TestConfig:
    def test_flat_file_with_comments(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "# kernel bandwidth in return units\n"
            "bandwidth = 0.005\n"
            "t_cross_start = 38  # alternate crossover reading\n"
            "points-per-decade = 6\n"
        )
        cfg = load_config(cfg_path, {"ensembles": "x"})
        assert cfg.bandwidth == 0.005
        assert cfg.t_cross_start == 38.0
        assert cfg.points_per_decade == 6

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("no_such_option = 3\n")
        with pytest.raises(ValidationError, match="unknown setting"):
            load_config(cfg_path)

    def test_validation_rules(self):
        with pytest.raises(ValidationError):
            RunConfig().validate()  # no input at all
        with pytest.raises(ValidationError):
            RunConfig(input="a", ensembles="b").validate()

    @pytest.mark.parametrize("key", RETIRED_KEYS)
    def test_retired_key_is_unknown(self, key, tmp_path, capsys):
        cfg_path = tmp_path / "old.cfg"
        cfg_path.write_text(f"{key} = 1\n")
        with pytest.raises(ValidationError, match=f"unknown setting '{key}'"):
            load_config(cfg_path)
        assert main(["pipeline", "--ensembles", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--set", f"{key}=1"]) == 1
        assert f"unknown setting '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("delimiter, in_file, extra", [
        pytest.param(";", "delimiter = ;  # semicolon-separated export\n", [], id="semicolon_file"),
        pytest.param("#", "delimiter = #  # hash-separated export\n", [], id="hash_file"),
        pytest.param("\t", "", ["--set", "delimiter=\t"], id="tab_set"),
    ])
    def test_delimiter_from_config_file_or_set(self, delimiter, in_file, extra, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(in_file + "max_lag = 100\npoints_per_decade = 2\ndetrend_window = 2000\n")
        src = _write_series(tmp_path / "series.csv", delimiter)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--input", str(src),
                     "--out", str(out), *extra]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["delimiter"] == delimiter
        assert manifest["failed_stage"] is None

    @pytest.mark.parametrize("delimiter", ["", ";;", '"', "\n"])
    def test_bad_delimiter_exits_1_before_any_stage(self, delimiter, tmp_path, capsys):
        src = tmp_path / "series.csv"
        src.write_text("0,100\n1,101\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--input", str(src), "--out", str(out),
                     "--set", f"delimiter={delimiter}"]) == 1
        assert "delimiter" in capsys.readouterr().err
        assert not out.exists()

    def test_unparseable_value_exits_1(self, tmp_path, capsys):
        assert main(["pipeline", "--ensembles", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--set", "points_per_decade=four"]) == 1
        assert "points_per_decade: expected int, got 'four'" in capsys.readouterr().err

    def test_grid_points_below_3_exits_1_before_any_stage(self, small_ensembles, tmp_path,
                                                          capsys):
        out = tmp_path / "run"
        assert main(["pipeline", "--ensembles", str(small_ensembles), "--out", str(out),
                     "--set", "max_lag=100", "--set", "grid_points=2"]) == 1
        assert "grid_points must be >= 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["detrend_window=nan", "detrend_window=0",
                                         "detrend_window=inf", "bandwidth=nan", "bandwidth=inf"])
    def test_non_finite_setting_exits_1_before_any_stage(self, setting, tmp_path, capsys):
        src = _write_series(tmp_path / "series.csv")
        out = tmp_path / "run"
        assert main(["pipeline", "--input", str(src), "--out", str(out), "--set", "max_lag=100",
                     "--set", "points_per_decade=2", "--set", "detrend_window=2000",
                     "--set", setting]) == 1
        key = setting.partition("=")[0]
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("max_lag=inf", "max_lag < inf"),
        ("min_lag=0.5", "rounds to a lag below 1"),
        ("min_lag=1e-300", "rounds to a lag below 1"),
        ("max_lag=1e300", "rounds to a lag beyond int64"),
    ])
    def test_lag_bound_without_a_ladder_exits_1_before_any_stage(self, setting, message,
                                                                  tmp_path, capsys):
        src = _write_series(tmp_path / "series.csv")
        out = tmp_path / "run"
        assert main(["pipeline", "--input", str(src), "--out", str(out),
                     "--set", "points_per_decade=2", "--set", setting]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_height_fit_ranges_follow_the_zone_times(self, small_ensembles, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("t_cross_start = 38  # alternate crossover reading\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--ensembles", str(small_ensembles),
                     "--out", str(out), "--set", "max_lag=100"]) == 0
        fits = json.loads((out / "height_fits.json").read_text())
        assert fits["strong"]["range"] == [1.0, 38.0]
        assert fits["weak"]["range"] == [78.0, 100.0]


class TestMainEntry:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["pipeline", "--ensembles", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "o")]) == 1
        assert main(["verify-pme", "--m", "5.0"]) == 1
        assert main(["verify-pme", "--m", "1.5", "--grid-points", "257",
                     "--refinements", "1"]) == 0

    def test_synth_and_fit_round_trip(self, small_ensembles, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["pipeline", "--ensembles", str(small_ensembles),
                     "--out", str(out), "--set", "max_lag=100"])
        assert code == 0
        fits = json.loads((out / "lag_fits.json").read_text())
        assert len(fits) == 5 and all(1.0 < fit["q"] < 3.0 for fit in fits)

        d2_out = tmp_path / "d2.csv"
        assert main(["d2-grid", "--q", "1.71", "--alpha", "1.79", "--d-coef",
                     "0.1118", "--t", "10", "--x-min", "0", "--x-max", "5",
                     "--n", "11", "--out", str(d2_out)]) == 0
        rows = d2_out.read_text().splitlines()
        assert len(rows) == 12

    @pytest.mark.parametrize("argv", [
        pytest.param(["fit", "--pdf", "{run}/pdfs/pdf_000010.npy"], id="fit"),
        pytest.param(["collapse", "--pdfs", "{run}/pdfs", "--alpha", "1.79", "--d-coef",
                      "0.1118", "--out", "{run}/col"], id="collapse"),
    ])
    def test_retired_subcommand_exits_1(self, small_run, capsys, argv):
        # the pipeline writes every lag fit and collapse these re-derived
        capsys.readouterr()
        assert main([a.format(run=small_run) for a in argv]) == 1
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err
        assert not (small_run / "col").exists()

    @pytest.mark.parametrize("flag", ["--bump-q", "--bump-alpha", "--bump-d", "--bump-weight",
                                      "--bump-t-end", "--bump-sharpness", "--half-width",
                                      "--t1", "--c-int"])
    def test_removed_flag_exits_1(self, flag, tmp_path, capsys):
        # each flag given its former default, so only its absence can fail the run
        default = {"--bump-q": "2.73", "--bump-alpha": "1.26", "--bump-d": "4.8e-3",
                   "--bump-weight": "0.5", "--bump-t-end": "78", "--bump-sharpness": "1",
                   "--half-width": "0", "--t1": "1", "--c-int": "1"}[flag]
        if flag.startswith("--bump"):
            argv = ["synth", "--out", str(tmp_path / "s"), "--q", "1.71", "--alpha", "1.79",
                    "--d-coef", "0.1118", "--max-lag", "10", "--points-per-decade", "1",
                    "--n-per-lag", "100", "--mode", "mixture"]
        else:
            argv = ["verify-pme", "--m", "1.5", "--grid-points", "65", "--refinements", "1"]
        assert main(argv + [flag, default]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_synth_lag_bound_without_a_ladder_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--q", "1.71", "--alpha", "1.79",
                     "--d-coef", "0.1118", "--min-lag", "0.5", "--max-lag", "10",
                     "--n-per-lag", "100"]) == 1
        assert "rounds to a lag below 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_set_key(self, tmp_path):
        assert main(["pipeline", "--ensembles", str(tmp_path), "--out",
                     str(tmp_path / "o"), "--set", "bogus=1"]) == 1


class TestStageFailure:
    def test_failure_marker_and_partial_artifacts(self, tmp_path):
        # a single lag cannot support the scaling-law fit: the collapse
        # stage fails, earlier artifacts survive, and the marker names it
        ens = cmd_synth(tmp_path / "one", q=1.71, alpha=1.79, d_coef=0.1118,
                        lags=[5.0], n_per_lag=20_000, seed=2)
        cfg = RunConfig(ensembles=str(ens), out=str(tmp_path / "run"), max_lag=10.0)
        with pytest.raises(Exception, match="collapse"):
            cmd_pipeline(cfg)
        out = tmp_path / "run"
        assert (out / "FAILED").read_text().startswith("collapse")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_stage"] == "collapse"
        stages = {a["stage"] for a in manifest["artifacts"]}
        assert "pdfs" in stages and "lag_fits" in stages

    def test_computation_error_exit_code(self, tmp_path):
        ens = cmd_synth(tmp_path / "one", q=1.71, alpha=1.79, d_coef=0.1118,
                        lags=[5.0], n_per_lag=20_000, seed=2)
        code = main(["pipeline", "--ensembles", str(ens),
                     "--out", str(tmp_path / "r2"), "--set", "max_lag=10"])
        assert code == 2

    def test_bad_index_csv_fails_the_ensembles_stage(self, tmp_path):
        bad = tmp_path / "index.csv"
        bad.write_text("minute,level\n0,100\n1,101\n\nbad,102\n3,103\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--input", str(bad), "--out", str(out)]) == 1
        failed = (out / "FAILED").read_text()
        assert failed.startswith("ensembles") and "line 5" in failed
        report = json.loads((out / "run_report.json").read_text())
        assert list(report["stage_s"]) == ["ensembles"]


def _save_as_npz(path):
    """Rewrite the array at ``path`` as an ``.npz`` archive under the same name."""
    samples = np.load(path)
    with open(path, "wb") as fh:
        np.savez(fh, samples=samples)


BAD_SAMPLE_FILES = [
    pytest.param(lambda p: np.save(p, np.ones((3, 2))), "1-D float64", id="two_dimensional"),
    pytest.param(lambda p: np.save(p, np.arange(10)), "1-D float64", id="integer"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:200]), "not a readable .npy",
                 id="truncated"),
    pytest.param(lambda p: np.save(p, np.array([0.1, None], dtype=object), allow_pickle=True),
                 "not a readable .npy", id="pickled_objects"),
    pytest.param(lambda p: np.save(p, np.array([0.1, np.inf])), "non-finite", id="non_finite"),
    pytest.param(lambda p: p.with_suffix(".json").unlink(), "sidecar", id="missing_sidecar"),
    pytest.param(_save_as_npz, "is an .npz archive", id="npz"),
]


class TestSampleFilesInWorkers:
    """Per-lag sample files are numpy .npy arrays holding the drawn doubles
    to the bit; the pipeline reads them in place and refuses a bad file as a
    validation error."""

    LAGS = [1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0]

    def test_synth_files_are_the_seeded_draws(self, tmp_path):
        out = cmd_synth(tmp_path / "s", q=1.71, alpha=1.79, d_coef=0.1118,
                        lags=self.LAGS, n_per_lag=2000, seed=11)
        law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        for i, t in enumerate(self.LAGS):
            expected = selfsim_sample(1.71, law, t, 2000, seed=11 + i)
            got = np.load(out / f"lag_{int(t):06d}.npy", allow_pickle=False)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_pipeline_copies_equal_synth_inputs(self, small_ensembles, tmp_path):
        out = cmd_pipeline(RunConfig(ensembles=str(small_ensembles),
                                     out=str(tmp_path / "run"), max_lag=100.0))
        # the inputs are read in place and never copied
        assert not (out / "ensembles").exists()
        # the bump-end fallback key is written only when the fallback fires
        assert "bump_end_rejected" not in json.loads((out / "partition.json").read_text())

    @staticmethod
    def _fails_in_ensembles(ens, tmp_path) -> str:
        """Run the pipeline on ``ens``; check the failure; return FAILED's text."""
        run = tmp_path / "run"
        assert main(["pipeline", "--ensembles", str(ens), "--out", str(run),
                     "--set", "max_lag=100"]) == 1
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["failed_stage"] == "ensembles" and manifest["artifacts"] == []
        report = json.loads((run / "run_report.json").read_text())
        assert list(report["stage_s"]) == ["ensembles"]
        failed = (run / "FAILED").read_text()
        assert failed.startswith("ensembles")
        return failed

    @pytest.mark.parametrize("spoil, message", BAD_SAMPLE_FILES)
    def test_bad_sample_file_is_a_validation_error(self, small_ensembles, tmp_path,
                                                   spoil, message):
        ens = tmp_path / "ens"
        shutil.copytree(small_ensembles, ens)
        bad = sorted(ens.glob("lag_*.npy"))[2]
        spoil(bad)
        failed = self._fails_in_ensembles(ens, tmp_path)
        assert bad.name in failed and message in failed

    def test_two_files_of_one_lag_are_refused_naming_both(self, small_ensembles, tmp_path):
        ens = tmp_path / "ens"
        shutil.copytree(small_ensembles, ens)
        for suffix in (".npy", ".json"):
            shutil.copy(ens / f"lag_000010{suffix}", ens / f"lag_000010_copy{suffix}")
        failed = self._fails_in_ensembles(ens, tmp_path)
        assert "lag_000010.npy and " in failed and "lag_000010_copy.npy both hold lag 10" in failed
        assert not (tmp_path / "run" / "pdfs").exists()

    def test_text_sample_files_are_named_as_no_longer_read(self, small_ensembles, tmp_path):
        ens = tmp_path / "ens"
        shutil.copytree(small_ensembles, ens)
        for path in ens.glob("lag_*.npy"):
            np.savetxt(path.with_suffix(".csv"), np.load(path), header="return", comments="")
            path.unlink()
        assert "text sample files" in self._fails_in_ensembles(ens, tmp_path)

    def test_empty_directory_exits_as_validation_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        run = tmp_path / "run"
        assert main(["pipeline", "--ensembles", str(tmp_path / "empty"),
                     "--out", str(run)]) == 1
        assert (run / "FAILED").read_text().startswith("ensembles")
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["failed_stage"] == "ensembles" and manifest["artifacts"] == []


class TestEarlyBumpEnd:
    def test_bump_end_before_crossover_falls_back(self, small_ensembles, tmp_path, monkeypatch):
        # a bump seen only at lag 1 of (1, 3, 10, 32, 100) ends at sqrt(3),
        # before t_cross_start: the run keeps the configured bump end
        monkeypatch.setattr(
            reg, "bump_boundary", lambda pdf: (-1e-3, 1e-3) if pdf.lag < 2 else None
        )
        cfg = RunConfig(ensembles=str(small_ensembles), out=str(tmp_path / "run"),
                        max_lag=100.0)
        out = cmd_pipeline(cfg)
        partition = json.loads((out / "partition.json").read_text())
        assert partition["bump_end_rejected"] == pytest.approx(math.sqrt(3.0))
        assert partition["t_bump_end"] == cfg.t_bump_end
        assert partition["n_lags_with_bump"] == 1


class TestWeakZoneLags:
    """With a bump on at least 3 lags, the weak regime comes from the lags
    at or past the bump's end only."""

    def test_too_few_lags_past_the_bump_end_fail_the_collapse(self, small_ensembles, tmp_path,
                                                              monkeypatch):
        # bumps at lags 1, 3, 10 and 32 of (1, 3, 10, 32, 100) end at
        # sqrt(3200) = 56.6, which leaves one weak lag
        monkeypatch.setattr(
            reg, "bump_boundary", lambda pdf: (-1e-3, 1e-3) if pdf.lag < 40 else None
        )
        out = tmp_path / "run"
        assert main(["pipeline", "--ensembles", str(small_ensembles), "--out", str(out),
                     "--set", "max_lag=100"]) == 2
        failed = (out / "FAILED").read_text()
        assert failed.startswith("collapse")
        assert f"t_bump_end {math.sqrt(3200.0):g}, got 1" in failed
        assert not (out / "collapsed_weak.npy").exists()
        report = json.loads((out / "run_report.json").read_text())
        assert report["regimes"]["n_lags_with_bump"] == 4

    def test_weak_lags_and_strong_reason(self, tmp_path, monkeypatch):
        lags = lag_ladder(1, 100, 4)
        ens = cmd_synth(tmp_path / "ens", q=1.71, alpha=1.79, d_coef=0.1118, lags=lags,
                        n_per_lag=20_000, seed=5)
        monkeypatch.setattr(
            reg, "bump_boundary", lambda pdf: (-1e-3, 1e-3) if pdf.lag < 5 else None
        )
        out = cmd_pipeline(RunConfig(ensembles=str(ens), out=str(tmp_path / "run"),
                                     max_lag=100.0, t_cross_start=1.5))
        t_bump_end = json.loads((out / "partition.json").read_text())["t_bump_end"]
        cloud = np.load(out / "collapsed_weak.npy", allow_pickle=False)
        weak_lags = [float(t) for t in lags if t >= t_bump_end]
        assert len(weak_lags) >= 3 and len(weak_lags) < len(lags)
        assert sorted(np.unique(cloud[:, 2]).tolist()) == weak_lags
        regimes = json.loads((out / "run_report.json").read_text())["regimes"]
        assert regimes["n_lags_with_bump"] == 3
        assert regimes["strong"] == "fewer than 3 lags below t_cross_start 1.5 (1)"
        assert "strong" not in json.loads((out / "collapse.json").read_text())


class TestStoredPdfs:
    """Per-lag densities and collapse clouds are .npy arrays."""

    def test_pipeline_writes_npy_grids_and_clouds(self, small_run):
        manifest = json.loads((small_run / "manifest.json").read_text())
        pdf_paths = [a["path"] for a in manifest["artifacts"] if a["stage"] == "pdfs"]
        assert pdf_paths and all(p.endswith(".npy") for p in pdf_paths)
        lags = set()
        for rel in pdf_paths:
            grid = np.load(small_run / rel, allow_pickle=False)
            assert grid.dtype == np.float64 and grid.ndim == 2 and grid.shape[1] == 2
            lags.add(json.loads((small_run / rel).with_suffix(".json").read_text())["lag"])
        assert "collapsed_weak.npy" in {a["path"] for a in manifest["artifacts"]}
        cloud = np.load(small_run / "collapsed_weak.npy", allow_pickle=False)
        assert cloud.dtype == np.float64 and cloud.ndim == 2 and cloud.shape[1] == 3
        assert set(np.unique(cloud[:, 2]).tolist()) == lags
        assert not list(small_run.glob("collapsed_*.csv")) and not list(small_run.glob("pdfs/*.csv"))

    @pytest.mark.parametrize("argv", [
        pytest.param(["verify-pme", "--m", "1.5", "--grid-points", "129", "--refinements", "1"],
                     id="verify_pme"),
    ])
    def test_out_file_is_the_printed_json(self, tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text() + "\n"
