import numpy as np
import pytest

from mvufs import cli, datamodel


def write_config(path, text):
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_defaults_match_published_grids(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path / "c.txt", "dataset d\n"))
        assert cfg.lam == list(cli.DEFAULT_LOG_GRID)
        assert cfg.gamma == list(cli.DEFAULT_GAMMA_GRID)
        assert cfg.p == list(cli.DEFAULT_P_GRID)
        assert cfg.missing_ratios == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert cfg.repeats == 30

    def test_overrides_and_comments(self, tmp_path):
        text = (
            "dataset some/dir  # inline comment\n"
            "\n"
            "lambda 0.1 1\n"
            "gamma 3\n"
            "repeats 2\n"
            "per_view true\n"
        )
        cfg = cli.parse_config(write_config(tmp_path / "c.txt", text))
        assert cfg.dataset_path == "some/dir"
        assert cfg.lam == [0.1, 1.0]
        assert cfg.gamma == [3.0]
        assert cfg.repeats == 2
        assert cfg.per_view is True

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_config(tmp_path / "c.txt", "dataset d\nbogus 1\n")
        with pytest.raises(ValueError, match=":2:"):
            cli.parse_config(path)

    def test_synthetic_spec(self, tmp_path):
        text = (
            "synthetic_n 30\n"
            "synthetic_views 2\n"
            "synthetic_clusters 3\n"
            "synthetic_features 8 9\n"
            "synthetic_informative 2 3\n"
            "synthetic_seed 5\n"
        )
        cfg = cli.parse_config(write_config(tmp_path / "c.txt", text))
        assert cfg.synthetic is not None
        assert cfg.synthetic.n_instances == 30
        assert cfg.synthetic.features == (8, 9)
        assert cfg.synthetic.seed == 5


class TestValidateConfig:
    def test_clean_config(self):
        cfg = cli.ExperimentConfig(dataset_path="x")
        errors, warnings = cli.validate_config(cfg)
        assert errors == [] and warnings == []

    def test_gamma_one_is_error(self):
        cfg = cli.ExperimentConfig(dataset_path="x", gamma=[1.0])
        errors, _ = cli.validate_config(cfg)
        assert any("gamma" in e for e in errors)

    def test_empty_lambda_is_error(self):
        cfg = cli.ExperimentConfig(dataset_path="x", lam=[])
        errors, _ = cli.validate_config(cfg)
        assert any("lambda" in e for e in errors)

    def test_negative_beta_is_error(self):
        cfg = cli.ExperimentConfig(dataset_path="x", beta=[-1.0])
        errors, _ = cli.validate_config(cfg)
        assert any("negative" in e for e in errors)

    def test_out_of_range_missing_ratio_is_warning(self):
        cfg = cli.ExperimentConfig(dataset_path="x", missing_ratios=[0.9])
        errors, warnings = cli.validate_config(cfg)
        assert errors == []
        assert any("0.9" in w for w in warnings)

    def test_no_data_source_is_error(self):
        errors, _ = cli.validate_config(cli.ExperimentConfig())
        assert any("dataset" in e for e in errors)

    def test_zero_knn_is_error(self):
        cfg = cli.ExperimentConfig(dataset_path="x", knn=0)
        errors, _ = cli.validate_config(cfg)
        assert any("knn" in e for e in errors)


class TestSynthCommand:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "ds"
        rc = cli.main([
            "synth", "--out", str(out), "--instances", "24", "--views", "2",
            "--clusters", "3", "--features", "6", "7",
            "--informative", "2", "2", "--seed", "9",
        ])
        assert rc == 0
        ds = datamodel.load_dataset(str(out))
        assert ds.n_views == 2
        assert ds.views[0].shape == (6, 24)
        assert ds.views[1].shape == (7, 24)
        assert ds.labels is not None
        planted = (out / "planted.txt").read_text().strip().splitlines()
        assert len(planted) == 2


class TestValidateCommand:
    def test_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path / "good.txt", "dataset d\n")
        assert cli.main(["validate", "--config", good]) == 0
        bad = write_config(tmp_path / "bad.txt", "dataset d\ngamma 1\n")
        assert cli.main(["validate", "--config", bad]) == 1
        out = capsys.readouterr().out
        assert "error" in out and "gamma" in out

    @pytest.mark.parametrize("line,code,message", [
        ("clusters 1", 1, "error: clusters=1: need at least 2 clusters"),
        ("clusters 2", 0, ""),
        ("max_iter -1", 1, "error: max_iter=-1: max_iter must be nonnegative"),
        ("max_iter 0", 0, ""),
    ])
    def test_cluster_count_and_sweep_cap(self, tmp_path, capsys, line, code, message):
        cfg = write_config(tmp_path / "c.txt", f"dataset d\n{line}\n")
        assert cli.main(["validate", "--config", cfg]) == code
        assert capsys.readouterr().out.strip() == message


SMALL_SWEEP = (
    "synthetic_n 30\n"
    "synthetic_views 2\n"
    "synthetic_clusters 3\n"
    "synthetic_features 8 8\n"
    "synthetic_informative 3 3\n"
    "synthetic_noise 0.05\n"
    "missing_ratios 0.2\n"
    "feature_ratios 0.4\n"
    "lambda 0.1\n"
    "beta 0.1\n"
    "gamma 3\n"
    "p 0.5\n"
    "repeats 3\n"
    "max_iter 40\n"
    "seed 1\n"
)


class TestRunCommand:
    def test_single_cell_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.txt", SMALL_SWEEP)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text().strip().splitlines()
        assert report[0].startswith("#")
        assert len(report) == 2
        fields = report[1].split()
        assert len(fields) == 10
        assert 0.0 <= float(fields[6]) <= 1.0
        assert (out / "trace_0000.txt").exists()
        assert (out / "selected_0000.txt").exists()
        assert (out / "summary.txt").exists()
        trace = np.loadtxt(out / "trace_0000.txt")
        assert trace.ndim == 2 and trace.shape[1] == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.txt", SMALL_SWEEP)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("report.txt", "summary.txt", "trace_0000.txt",
                     "selected_0000.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", SMALL_SWEEP + "gamma 1\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("clusters 1", "need at least 2 clusters"),
        ("max_iter -1", "max_iter must be nonnegative"),
    ])
    def test_invalid_cluster_count_or_sweep_cap_runs_nothing(
        self, tmp_path, capsys, line, message
    ):
        cfg = write_config(tmp_path / "cfg.txt", SMALL_SWEEP + line + "\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTraceCommand:
    def test_echoes_file(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text("0 12.5\n1 11.0\n")
        assert cli.main(["trace", str(path)]) == 0
        assert capsys.readouterr().out == "0 12.5\n1 11.0\n"
