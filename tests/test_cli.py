import numpy as np
import pytest

from mvufs import cli, datamodel, evaluation

simulate_missing = datamodel.simulate_missing


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
        )
        cfg = cli.parse_config(write_config(tmp_path / "c.txt", text))
        assert cfg.dataset_path == "some/dir"
        assert cfg.lam == [0.1, 1.0]
        assert cfg.gamma == [3.0]
        assert cfg.repeats == 2

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
        cfg = cli.ExperimentConfig(dataset_path="x", missing_ratios=[0.05])
        errors, warnings = cli.validate_config(cfg)
        assert errors == []
        assert any("0.05" in w for w in warnings)

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

    @pytest.mark.parametrize("line,code,message", [
        ("missing_ratios -0.1", 1, "error: missing ratio -0.1: a missing ratio must lie in [0, 0.5]"),
        ("missing_ratios 0.6", 1, "error: missing ratio 0.6: a missing ratio must lie in [0, 0.5]"),
        ("missing_ratios nan", 1, "error: missing ratio nan: a missing ratio must lie in [0, 0.5]"),
        ("missing_ratios 0 0.5", 0, ""),
        ("feature_ratios 0", 1, "error: feature ratio 0.0: a feature ratio must lie in (0, 1]"),
        ("feature_ratios 1.5", 1, "error: feature ratio 1.5: a feature ratio must lie in (0, 1]"),
        ("feature_ratios 0.2 1", 0, "warning: feature ratio 1.0 outside the usual 10-50% range"),
    ])
    def test_ratio_bounds(self, tmp_path, capsys, line, code, message):
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

    @pytest.mark.parametrize("line,message", [
        ("missing_ratios 0.2 -0.1", "missing ratio -0.1"),
        ("missing_ratios 0.6", "missing ratio 0.6"),
        ("feature_ratios 1.5", "feature ratio 1.5"),
        ("feature_ratios 0", "feature ratio 0.0"),
    ])
    def test_out_of_range_ratio_runs_nothing(self, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path / "cfg.txt", SMALL_SWEEP + line + "\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {message}: a" in capsys.readouterr().err
        assert not out.exists()

    def test_ratio_bounds_run(self, tmp_path):
        text = SMALL_SWEEP + "missing_ratios 0 0.5\nfeature_ratios 1\n"
        out = tmp_path / "o"
        assert cli.main(["run", "--config", write_config(tmp_path / "cfg.txt", text),
                         "--out", str(out)]) == 0
        rows = (out / "report.txt").read_text().splitlines()[1:]
        assert [r.split()[:2] for r in rows] == [["0", "1"], ["0.5", "1"]]
        assert not (out / "failures.txt").exists()

    def test_failed_mask_fails_each_cell_of_its_ratio(self, tmp_path):
        ds, _ = datamodel.generate_synthetic(datamodel.SyntheticSpec(
            n_instances=30, n_views=2, n_clusters=3, features=(8, 8), informative=(3, 3),
            noise_scale=0.05, seed=4))
        datamodel.save_dataset(datamodel.simulate_missing(ds, 0.2, seed=1), str(tmp_path / "ds"))
        text = (f"dataset {tmp_path / 'ds'}\nmissing_ratios 0.2 0 0.3\nfeature_ratios 0.4\n"
                "lambda 0.1 1\nbeta 0.1\ngamma 3\np 0.5\nrepeats 3\nmax_iter 40\nseed 1\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", write_config(tmp_path / "cfg.txt", text),
                         "--out", str(out)]) == 0
        error = "DatasetError: simulate_missing expects a complete dataset"
        assert (out / "failures.txt").read_text() == "".join(
            f"cell {idx} ({m}, 0.4, {lam}, 0.1, 3.0, 0.5): {error}\n"
            for idx, m, lam in [(0, 0.2, 0.1), (1, 0.2, 1.0), (4, 0.3, 0.1), (5, 0.3, 1.0)])
        rows = (out / "report.txt").read_text().splitlines()[1:]
        assert [r.split()[:3] for r in rows] == [["0", "0.4", "0.1"], ["0", "0.4", "1"]]
        assert sorted(p.name for p in out.glob("trace_*")) == ["trace_0002.txt", "trace_0003.txt"]


# 24 cells; on this dataset each missing ratio's 12 cells make two distinct
# selections
GRID_SWEEP = SMALL_SWEEP + "missing_ratios 0.2 0.4\nlambda 0.01 1 100\nbeta 0.1 10\ngamma 3 5\n"


class TestSharedGroupWork:
    def test_memo_report_equals_per_cell_protocol(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.txt", GRID_SWEEP)
        protocol, kmeans_repeats = evaluation.run_protocol, evaluation._kmeans_repeats

        def uncached(*args, reports=None, **kwargs):
            return protocol(*args, **kwargs)

        monkeypatch.setattr(evaluation, "run_protocol", uncached)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "ref")]) == 0

        calls, passes, masks = [], [], []

        def recorded(dataset, selected, *args, reports=None, **kwargs):
            before = len(passes)
            report = protocol(dataset, selected, *args, reports=reports, **kwargs)
            calls.append((reports, tuple(selected), len(passes) - before))
            return report

        monkeypatch.setattr(evaluation, "run_protocol", recorded)
        monkeypatch.setattr(evaluation, "_kmeans_repeats",
                            lambda *a, **kw: passes.append(1) or kmeans_repeats(*a, **kw))
        monkeypatch.setattr(datamodel, "simulate_missing",
                            lambda *a, **kw: masks.append(a[1]) or simulate_missing(*a, **kw))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "memo")]) == 0

        ref = sorted(p.name for p in (tmp_path / "ref").iterdir())
        assert ref == sorted(p.name for p in (tmp_path / "memo").iterdir())
        for name in ref:
            assert (tmp_path / "ref" / name).read_bytes() == (tmp_path / "memo" / name).read_bytes()
        assert len(calls) == 24 and masks == [0.2, 0.4]
        for group in (calls[:12], calls[12:]):
            assert all(reports is group[0][0] for reports, _, _ in group)
            seen = set()
            for _, selected, made in group:
                assert made == (selected not in seen)  # one k-means pass, on a miss
                seen.add(selected)
            assert len(seen) == 2
        assert calls[0][0] is not calls[12][0]


# config lines after "dataset d" (None: no config file) and a part of the
# one error line they must give
CONFIG_FAULTS = [
    ("missing_ratios abc", "c.txt:2: could not convert string to float: 'abc'"),
    ("bogus 1", "c.txt:2: unknown key 'bogus'"),
    ("synthetic_n abc", "c.txt:2: invalid literal for int() with base 10: 'abc'"),
    ("synthetic_views 2\nsynthetic_features 8",
     "c.txt: synthetic spec: features/informative must have one entry per view"),
    (None, "No such file or directory"),
    ("per_view true", "c.txt:2: unknown key 'per_view'"),
]
FAULT_IDS = ["bad-float", "unknown-key", "bad-synthetic-int", "synthetic-spec", "no-file",
             "removed-per-view"]


def fault_config(tmp_path, lines):
    if lines is None:
        return str(tmp_path / "absent.txt")
    return write_config(tmp_path / "c.txt", f"dataset d\n{lines}\n")


class TestConfigFaults:
    @pytest.mark.parametrize("lines,message", CONFIG_FAULTS, ids=FAULT_IDS)
    def test_validate_prints_one_error(self, tmp_path, capsys, lines, message):
        assert cli.main(["validate", "--config", fault_config(tmp_path, lines)]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize("lines,message", CONFIG_FAULTS, ids=FAULT_IDS)
    def test_run_prints_one_error_and_writes_nothing(self, tmp_path, capsys, lines, message):
        out = tmp_path / "o"
        assert cli.main(["run", "--config", fault_config(tmp_path, lines),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert captured.out == "" and line.startswith("error: ") and message in line
        assert not out.exists()

    # (labels saved with the dataset, None: no dataset; config lines; message)
    UNLOADABLE = {
        "no-dataset": (None, "", "no manifest.txt in {path}"),
        "no-labels": (False, "", "cluster count unknown: set 'clusters' or provide labels"),
        "no-labels-with-clusters": (
            False, "clusters 3\n", "the dataset has no labels, which the evaluation protocol needs"),
        "too-many-clusters": (True, "clusters 30\n", "cannot form 30 clusters from 12 instances"),
    }

    @pytest.mark.parametrize("case", list(UNLOADABLE))
    def test_unloadable_dataset_runs_nothing(self, tmp_path, capsys, case):
        labelled, lines, message = self.UNLOADABLE[case]
        path = tmp_path / "ds"
        if labelled is not None:
            ds, _ = datamodel.generate_synthetic(datamodel.SyntheticSpec(
                n_instances=12, n_views=2, n_clusters=3, features=(4, 4),
                informative=(2, 2)))
            labels = ds.labels if labelled else None
            datamodel.save_dataset(datamodel.MultiViewDataset(ds.views, ds.presence, labels),
                                   str(path))
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "c.txt", f"dataset {path}\n{lines}")
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: " + message.format(path=path)]
        assert not out.exists()
