import json
import math
import shutil

import numpy as np
import pytest

from qdiff import cli
from qdiff import regimes as reg
from qdiff.cli import (
    RunConfig,
    StageError,
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


class TestSynth:
    def test_files_and_metadata(self, tmp_path):
        lags = [1.0, 10.0]
        out = cmd_synth(tmp_path / "s", q=1.5, alpha=2.0, d_coef=1.0,
                        lags=lags, n_per_lag=100, seed=3)
        files = sorted(out.glob("lag_*.csv"))
        assert len(files) == 2
        meta = json.loads(files[0].with_suffix(".json").read_text())
        assert meta["lag"] == 1.0 and meta["n"] == 100
        top = json.loads((out / "synth.json").read_text())
        assert top["lags"] == lags

    def test_mixture_mode_weights_die_at_end(self, tmp_path):
        out = cmd_synth(tmp_path / "m", q=1.71, alpha=1.79, d_coef=0.1118,
                        lags=[1.0, 100.0], n_per_lag=1000, seed=3,
                        mode="mixture", bump_t_end=78.0)
        meta = json.loads((out / "synth.json").read_text())
        assert meta["mode"] == "mixture"
        # past bump_t_end the lag holds only the wide component; both files exist
        assert len(sorted(out.glob("lag_*.csv"))) == 2

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
        assert stages == {
            "ensembles", "pdfs", "series", "regimes", "lag_fits",
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


class TestVerifyPme:
    def test_fast_diffusion_report(self):
        report = cmd_verify_pme(0.29, grid_points=513, refinements=2, t2=2.0)
        assert report["residual_rel_peak"] < 1e-6
        assert report["sup_error_rel_peak"] < 1e-3
        assert report["convergence_order"] == pytest.approx(2.0, abs=0.3)

    def test_heat_kernel_case(self):
        report = cmd_verify_pme(1.0, grid_points=1025, refinements=1, t1=0.5, t2=1.0)
        assert report["residual_rel_peak"] < 1e-6
        assert report["sup_error_rel_peak"] < 1e-4

    def test_compact_support_front(self):
        report = cmd_verify_pme(1.5, grid_points=1025, refinements=1)
        assert report["front_error_cells"] <= 2.0

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
        pdf_files = sorted((out / "pdfs").glob("pdf_*.csv"))
        fit_out = tmp_path / "fit.json"
        assert main(["fit", "--pdf", str(pdf_files[0]), "--out", str(fit_out)]) == 0
        fit = json.loads(fit_out.read_text())
        assert 1.0 < fit["q"] < 3.0

        d2_out = tmp_path / "d2.csv"
        assert main(["d2-grid", "--q", "1.71", "--alpha", "1.79", "--d-coef",
                     "0.1118", "--t", "10", "--x-min", "0", "--x-max", "5",
                     "--n", "11", "--out", str(d2_out)]) == 0
        rows = d2_out.read_text().splitlines()
        assert len(rows) == 12

        col_out = tmp_path / "col"
        assert main(["collapse", "--pdfs", str(out / "pdfs"), "--alpha", "1.79",
                     "--d-coef", "0.1118", "--out", str(col_out)]) == 0
        res = json.loads((col_out / "collapse.json").read_text())
        assert abs(res["q"] - 1.71) < 0.1

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


def _repr_lines(samples: np.ndarray) -> bytes:
    return ("return\n" + "\n".join(map(repr, samples.tolist())) + "\n").encode()


class TestSampleFilesInWorkers:
    """Per-lag sample files are written and parsed in a worker pool; the
    bytes must equal a serial repr rendering, whatever the worker count."""

    LAGS = [1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0]  # more than two files per worker

    def test_synth_files_are_repr_of_the_seeded_draws(self, tmp_path):
        out = cmd_synth(tmp_path / "s", q=1.71, alpha=1.79, d_coef=0.1118,
                        lags=self.LAGS, n_per_lag=2000, seed=11)
        law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        for i, t in enumerate(self.LAGS):
            expected = selfsim_sample(1.71, law, t, 2000, seed=11 + i)
            assert (out / f"lag_{int(t):06d}.csv").read_bytes() == _repr_lines(expected)

    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        kwargs = dict(q=1.71, alpha=1.79, d_coef=0.1118, lags=self.LAGS,
                      n_per_lag=500, seed=4, mode="mixture")
        many = cmd_synth(tmp_path / "many", **kwargs)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
        one = cmd_synth(tmp_path / "one", **kwargs)
        names = sorted(p.name for p in many.iterdir())
        assert names == sorted(p.name for p in one.iterdir())
        for name in names:
            assert (many / name).read_bytes() == (one / name).read_bytes()

    def test_pipeline_copies_equal_synth_inputs(self, small_ensembles, tmp_path):
        out = cmd_pipeline(RunConfig(ensembles=str(small_ensembles),
                                     out=str(tmp_path / "run"), max_lag=100.0))
        copies = sorted((out / "ensembles").glob("lag_*.csv"))
        inputs = sorted(small_ensembles.glob("lag_*.csv"))
        assert [p.name for p in copies] == [p.name for p in inputs]
        for copy, src in zip(copies, inputs):
            assert copy.read_bytes() == src.read_bytes()
        # the bump-end fallback key is written only when the fallback fires
        assert "bump_end_rejected" not in json.loads((out / "partition.json").read_text())

    def test_non_numeric_row_is_a_stage_error(self, small_ensembles, tmp_path):
        ens = tmp_path / "ens"
        shutil.copytree(small_ensembles, ens)
        bad = sorted(ens.glob("lag_*.csv"))[2]
        lines = bad.read_text().splitlines()
        lines[5] = "not-a-number"
        bad.write_text("\n".join(lines) + "\n")
        run = tmp_path / "run"
        assert main(["pipeline", "--ensembles", str(ens), "--out", str(run),
                     "--set", "max_lag=100"]) == 2
        assert (run / "FAILED").read_text().startswith("ensembles")
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["failed_stage"] == "ensembles" and manifest["artifacts"] == []
        # the worker's exception crosses the process boundary with its type
        with pytest.raises(StageError) as info:
            cmd_pipeline(RunConfig(ensembles=str(ens), out=str(tmp_path / "again")))
        assert type(info.value.cause) is ValueError

    def test_empty_directory_is_refused_before_any_worker(self, tmp_path, monkeypatch):
        def no_pool(n_files):
            raise AssertionError("a pool was started for an empty directory")

        monkeypatch.setattr(cli, "_sample_pool", no_pool)
        (tmp_path / "empty").mkdir()
        with pytest.raises(StageError) as info:
            cmd_pipeline(RunConfig(ensembles=str(tmp_path / "empty"), out=str(tmp_path / "run")))
        assert info.value.stage == "ensembles"
        assert isinstance(info.value.cause, ValidationError)

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
