from dataclasses import replace

import numpy as np
import pytest

from mvufs import cli, datamodel, evaluation

simulate_missing = datamodel.simulate_missing


def write_config(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def small_dataset(tmp_path):
    """A labelled 30-instance, 2-view dataset that the default grids run on."""
    ds, _ = datamodel.generate_synthetic(datamodel.SyntheticSpec(
        n_instances=30, n_views=2, n_clusters=3, features=(8, 8), informative=(3, 3), seed=4))
    datamodel.save_dataset(ds, str(tmp_path / "ds"))
    return tmp_path / "ds"


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

    def test_later_line_replaces_an_earlier_one_and_view_lines_accumulate(self, tmp_path):
        text = "dataset a\nlambda 0.1 1\nseed 3\ndataset b\nlambda 10\nseed 4\n"
        cfg = cli.parse_config(write_config(tmp_path / "c.txt", text))
        assert (cfg.dataset_path, cfg.lam, cfg.seed) == ("b", [10.0], 4)
        for name, text in {"v0.txt": "1 2 3\n4 5 6\n", "v1.txt": "7 8 9\n",
                           "a.txt": "0\n0\n0\n", "b.txt": "0\n1\n1\n",
                           "manifest.txt": "views 5\nview v0.txt 2 3\nlabels a.txt\n"
                                           "views 2\nview v1.txt 1 3\nlabels b.txt\n"}.items():
            (tmp_path / name).write_text(text)
        ds = datamodel.load_dataset(str(tmp_path))
        assert [x.tolist() for x in ds.views] == [[[1, 2, 3], [4, 5, 6]], [[7, 8, 9]]]
        assert ds.labels.tolist() == [0, 1, 1]


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
    def test_exit_codes(self, tmp_path, capsys, small_dataset):
        good = write_config(tmp_path / "good.txt", f"dataset {small_dataset}\n")
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
    def test_cluster_count_and_sweep_cap(
        self, tmp_path, capsys, small_dataset, line, code, message
    ):
        cfg = write_config(tmp_path / "c.txt", f"dataset {small_dataset}\n{line}\n")
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
    def test_ratio_bounds(self, tmp_path, capsys, small_dataset, line, code, message):
        cfg = write_config(tmp_path / "c.txt", f"dataset {small_dataset}\n{line}\n")
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

    def test_pre_masked_dataset_runs_at_ratio_zero(self, tmp_path):
        # a dataset saved with absent instances runs as it is at ratio 0
        # (UNLOADABLE["pre-masked"]: any nonzero ratio refuses it)
        ds, _ = datamodel.generate_synthetic(datamodel.SyntheticSpec(
            n_instances=30, n_views=2, n_clusters=3, features=(8, 8), informative=(3, 3),
            noise_scale=0.05, seed=4))
        datamodel.save_dataset(datamodel.simulate_missing(ds, 0.2, seed=1), str(tmp_path / "ds"))
        text = (f"dataset {tmp_path / 'ds'}\nfeature_ratios 0.4\nmissing_ratios 0\n"
                "lambda 0.1 1\nbeta 0.1\ngamma 3\np 0.5\nrepeats 3\nmax_iter 40\nseed 1\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", write_config(tmp_path / "cfg.txt", text),
                         "--out", str(out)]) == 0
        rows = (out / "report.txt").read_text().splitlines()[1:]
        assert [r.split()[:3] for r in rows] == [["0", "0.4", "0.1"], ["0", "0.4", "1"]]
        assert not (out / "failures.txt").exists()


# 24 cells; each missing ratio's 12 cells make one selection per lambda, as
# U reads only V, lambda and p
GRID_SWEEP = SMALL_SWEEP + "missing_ratios 0.2 0.4\nlambda 0.01 1 100\nbeta 0.1 10\ngamma 3 5\n"


class TestSharedGroupWork:
    def test_memo_report_equals_per_cell_protocol(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.txt", GRID_SWEEP)
        protocol, kmeans = evaluation.run_protocol, evaluation.kmeans

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
        monkeypatch.setattr(evaluation, "kmeans",
                            lambda *a, **kw: passes.append(1) or kmeans(*a, **kw))
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
            assert len(seen) == 3
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
    ("lambda 0.1 nan", "lambda=nan: lam must be finite and nonnegative"),
    ("lambda inf", "lambda=inf: lam must be finite and nonnegative"),
    ("beta nan", "beta=nan: beta must be finite and nonnegative"),
    ("gamma nan", "gamma=nan: gamma must exceed 1 and be finite"),
    ("gamma inf", "gamma=inf: gamma must exceed 1 and be finite"),
    ("seed -1", "seed=-1: seed must be nonnegative"),
    ("synthetic_noise nan",
     "c.txt: synthetic spec: noise_scale=nan: noise_scale must be nonnegative and finite"),
    ("synthetic_seed -1", "c.txt: synthetic spec: seed=-1: seed must be nonnegative"),
    ("missing_ratios 0.2 0.2", "missing_ratios lists 0.2 more than once"),
    ("lambda 0.1 0.1", "lambda lists 0.1 more than once"),
    ("seed 7 8", "c.txt:2: 'seed' takes one value"),
    ("clusters 3 4", "c.txt:2: 'clusters' takes one value"),
    ("repeats 2 5", "c.txt:2: 'repeats' takes one value"),
    ("seed", "c.txt:2: 'seed' needs a value"),
    ("lambda", "c.txt:2: 'lambda' needs a value"),
]
FAULT_IDS = ["bad-float", "unknown-key", "bad-synthetic-int", "synthetic-spec", "no-file",
             "removed-per-view", "nan-lambda", "inf-lambda", "nan-beta", "nan-gamma",
             "inf-gamma", "negative-seed", "nan-synthetic-noise", "negative-synthetic-seed",
             "repeated-missing-ratio", "repeated-lambda", "two-seeds", "two-cluster-counts",
             "two-repeat-counts", "seed-no-value", "lambda-no-value"]


def overflow_instance_5(ds):
    """ds with 1.2e154 in features 2 and 3 of instance 5 in view 0: finite
    entries, but that instance's squared norm, 2 * 1.2e154^2, overflows."""
    x = ds.views[0].copy()
    x[2:4, 5] = 1.2e154
    return replace(ds, views=(x, *ds.views[1:]))


def overflow_view_sum(ds):
    """ds with 1e154 * (1 + i/1000) in feature 0 of each instance i in view 0:
    every instance's squared norm is finite, but the view's sum of squares
    overflows."""
    x = ds.views[0].copy()
    x[0] = 1e154 * (1 + np.arange(x.shape[1]) / 1000)
    return replace(ds, views=(x, *ds.views[1:]))


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

    # (the dataset saved as a function of a labelled 12-instance, 2-view one,
    # None: no dataset; config lines; message)
    UNLOADABLE = {
        "no-dataset": (None, "", "no manifest.txt in {path}"),
        "no-labels": (lambda ds: replace(ds, labels=None), "",
                      "cluster count unknown: set 'clusters' or provide labels"),
        "no-labels-with-clusters": (
            lambda ds: replace(ds, labels=None), "clusters 3\n",
            "the dataset has no labels, which the evaluation protocol needs"),
        "too-many-clusters": (
            lambda ds: ds, "clusters 30\n", "cannot form 30 clusters from 12 instances"),
        "knn-above-masked-view": (
            lambda ds: ds, "missing_ratios 0 0.5\nknn 6\n",
            "knn=6 must be smaller than the 6 instances a view keeps at missing ratio 0.5"),
        "one-class": (lambda ds: replace(ds, labels=np.zeros(12, dtype=int)), "",
                      "the labels hold one class: set 'clusters' to 2 or more"),
        "nine-views": (
            lambda ds: replace(ds, views=ds.views * 4 + ds.views[:1],
                               presence=np.ones((12, 9), dtype=int)),
            "missing_ratios 0\n", "the model needs 2 to 8 views; the dataset has 9"),
        "pre-masked": (
            lambda ds: datamodel.simulate_missing(ds, 0.2, seed=1), "missing_ratios 0.2 0 0.3\n",
            "simulate_missing expects a complete dataset"),
        "overflowing-norm": (overflow_instance_5, "",
                             "the sum of squares of view 0 overflows; rescale that view"),
        "overflowing-view-sum": (overflow_view_sum, "",
                                 "the sum of squares of view 0 overflows; rescale that view"),
    }

    @pytest.mark.parametrize("case", list(UNLOADABLE))
    def test_unloadable_dataset_runs_nothing(self, tmp_path, capsys, case):
        make, lines, message = self.UNLOADABLE[case]
        path = tmp_path / "ds"
        if make is not None:
            ds, _ = datamodel.generate_synthetic(datamodel.SyntheticSpec(
                n_instances=12, n_views=2, n_clusters=3, features=(4, 4),
                informative=(2, 2)))
            datamodel.save_dataset(make(ds), str(path))
        line = "error: " + message.format(path=path)
        cfg = write_config(tmp_path / "c.txt", f"dataset {path}\n{lines}")
        assert cli.main(["validate", "--config", cfg]) == 1
        assert capsys.readouterr() == (line + "\n", "")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", line + "\n")
        assert not out.exists()

    def test_one_class_with_clusters_runs(self, tmp_path):
        ds, _ = datamodel.generate_synthetic(datamodel.SyntheticSpec(
            n_instances=12, n_views=2, n_clusters=3, features=(4, 4), informative=(2, 2)))
        path = tmp_path / "ds"
        datamodel.save_dataset(
            datamodel.MultiViewDataset(ds.views, ds.presence, np.zeros(12, dtype=int)), str(path))
        cfg = write_config(tmp_path / "c.txt", f"dataset {path}\nclusters 2\nmissing_ratios 0\n"
                           "feature_ratios 0.5\nlambda 0.1\nbeta 0.1\ngamma 3\np 0.5\n"
                           "repeats 2\nmax_iter 5\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert not (tmp_path / "o" / "failures.txt").exists()

    def test_overflow_across_views_runs(self, tmp_path, capsys):
        # 1.3e154 in feature 0 of instance 5 in views 0 and 1: each view's sum
        # of squares is finite, the stack of views' is not. V's start and the
        # kNN search scale their input into range and no S update reads the
        # data, so every cell fits
        ds, _ = datamodel.generate_synthetic(datamodel.SyntheticSpec(
            n_instances=40, n_views=3, n_clusters=4, features=(10, 10, 10),
            informative=(3, 3, 3)))
        views = [x.copy() for x in ds.views]
        views[0][0, 5] = views[1][0, 5] = 1.3e154
        assert sum(float(np.vdot(x, x)) for x in views) == np.inf
        datamodel.save_dataset(replace(ds, views=tuple(views)), str(tmp_path / "ds"))
        cfg = write_config(tmp_path / "c.txt", f"dataset {tmp_path / 'ds'}\nmissing_ratios 0 0.3\n"
                           "feature_ratios 0.3\nlambda 0.1\nbeta 0.1\ngamma 3\np 0.5\n"
                           "repeats 3\nmax_iter 50\n")
        assert cli.main(["validate", "--config", cfg]) == 0
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert "wrote 2 report rows" in capsys.readouterr().out
        assert not (out / "failures.txt").exists()

    # synth options and the part of the one error line they must give
    SYNTH_FAULTS = {
        "more-clusters-than-instances": (["--instances", "3", "--clusters", "4"],
                                         "need N >= c >= 2"),
        "views-without-feature-counts": (
            ["--views", "2"], "features/informative must have one entry per view"),
        "negative-noise": (["--noise", "-1"], "noise_scale must be nonnegative"),
        "view-without-features": (["--views", "2", "--features", "0", "8", "--informative",
                                   "0", "3", "--instances", "30"], "view 0 has no features"),
    }

    @pytest.mark.parametrize("case", list(SYNTH_FAULTS))
    def test_bad_synth_spec_prints_one_error(self, tmp_path, capsys, case):
        options, message = self.SYNTH_FAULTS[case]
        out = tmp_path / "ds"
        assert cli.main(["synth", "--out", str(out), *options]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert captured.out == "" and line.startswith("error: ") and message in line
        assert not out.exists()

    @pytest.mark.parametrize("ratio", ["0", "0.2"])
    def test_one_view_dataset_runs_nothing(self, tmp_path, capsys, ratio):
        path = tmp_path / "ds"
        assert cli.main(["synth", "--out", str(path), "--instances", "12", "--views", "1",
                         "--features", "8", "--informative", "3"]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "c.txt", f"dataset {path}\nmissing_ratios {ratio}\n")
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: the model needs 2 to 8 views; the dataset has 1"]
        assert not out.exists()

    def test_non_empty_out_prints_one_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / "trace_0003.txt").write_text("earlier\n")
        cfg = write_config(tmp_path / "c.txt", SMALL_SWEEP)
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: output directory {out} is not empty"]
        assert [p.name for p in out.iterdir()] == ["trace_0003.txt"]
        assert (out / "trace_0003.txt").read_text() == "earlier\n"

    def test_empty_out_runs(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        cfg = write_config(tmp_path / "c.txt", SMALL_SWEEP)
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "report.txt").exists()

    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_out_naming_a_file_prints_one_error(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        cfg = write_config(tmp_path / "c.txt", SMALL_SWEEP)
        options = ["--config", cfg] if command == "run" else []
        assert cli.main([command, "--out", str(out), *options]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert captured.out == "" and line.startswith("error: ") and "File exists" in line
        assert out.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "taken"]
