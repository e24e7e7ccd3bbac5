"""Pipeline runner: single experiments and grid sweeps over missing ratios,
feature ratios and solver hyperparameters.

Subcommands:
  synth     write a synthetic dataset directory
  validate  check a config file, printing one diagnostic per violation
  run       execute the full sweep, writing report/trace/selection artifacts

A config that cannot be read or parsed, or whose dataset cannot be loaded or
evaluated (no labels, fewer instances than clusters), is reported as one
`error:` line; `run` then writes nothing.

`run` masks the dataset once per missing ratio; every cell of that ratio
fits on the same masked dataset and shares one memo of evaluation reports,
so each distinct feature selection of the ratio is clustered once. Every
cell still writes its own report row, trace and selection.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import datamodel, evaluation, selection, solver

DEFAULT_LOG_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)
DEFAULT_GAMMA_GRID = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
DEFAULT_P_GRID = (0.001, 0.01, 0.1, 1.0)

# config key -> SyntheticSpec field; features and informative take one value per view
SYNTHETIC_KEYS = {
    "synthetic_n": "n_instances", "synthetic_views": "n_views",
    "synthetic_clusters": "n_clusters", "synthetic_features": "features",
    "synthetic_informative": "informative", "synthetic_noise": "noise_scale",
    "synthetic_seed": "seed",
}
SYNTHETIC_DEFAULTS = dict(
    n_instances=120, n_views=3, n_clusters=4, features=(20, 20, 20), informative=(4, 4, 4)
)


@dataclass
class ExperimentConfig:
    dataset_path: str | None = None
    synthetic: datamodel.SyntheticSpec | None = None
    missing_ratios: list = field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5])
    feature_ratios: list = field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5])
    lam: list = field(default_factory=lambda: list(DEFAULT_LOG_GRID))
    beta: list = field(default_factory=lambda: list(DEFAULT_LOG_GRID))
    gamma: list = field(default_factory=lambda: list(DEFAULT_GAMMA_GRID))
    p: list = field(default_factory=lambda: list(DEFAULT_P_GRID))
    clusters: int | None = None
    repeats: int = 30
    seed: int = 0
    knn: int = 5
    max_iter: int = 300


def parse_config(path: str) -> ExperimentConfig:
    """Read the key/value config file. Lists are whitespace-separated values.

    A malformed line raises ValueError naming `path:line`; an unreadable file
    raises OSError.
    """
    cfg = ExperimentConfig()
    synth = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, *vals = line.split()
            try:
                if key == "dataset":
                    cfg.dataset_path = vals[0]
                elif key == "missing_ratios":
                    cfg.missing_ratios = [float(x) for x in vals]
                elif key == "feature_ratios":
                    cfg.feature_ratios = [float(x) for x in vals]
                elif key == "lambda":
                    cfg.lam = [float(x) for x in vals]
                elif key == "beta":
                    cfg.beta = [float(x) for x in vals]
                elif key == "gamma":
                    cfg.gamma = [float(x) for x in vals]
                elif key == "p":
                    cfg.p = [float(x) for x in vals]
                elif key == "clusters":
                    cfg.clusters = int(vals[0])
                elif key == "repeats":
                    cfg.repeats = int(vals[0])
                elif key == "seed":
                    cfg.seed = int(vals[0])
                elif key == "knn":
                    cfg.knn = int(vals[0])
                elif key == "max_iter":
                    cfg.max_iter = int(vals[0])
                elif key in SYNTHETIC_KEYS:
                    name = SYNTHETIC_KEYS[key]
                    values = tuple((float if name == "noise_scale" else int)(x) for x in vals)
                    synth[name] = values if name in ("features", "informative") else values[0]
                else:
                    raise ValueError(f"unknown key '{key}'")
            except IndexError:
                raise ValueError(f"{path}:{lineno}: '{key}' needs a value") from None
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if synth:
        try:
            cfg.synthetic = datamodel.SyntheticSpec(**{**SYNTHETIC_DEFAULTS, **synth})
        except datamodel.DatasetError as exc:
            raise ValueError(f"{path}: synthetic spec: {exc}") from exc
    return cfg


def validate_config(cfg: ExperimentConfig):
    """Return (errors, warnings); errors make the config unrunnable."""
    errors, warnings = [], []
    if cfg.dataset_path is None and cfg.synthetic is None:
        errors.append("config names neither a dataset directory nor a synthetic spec")
    for name, lst in (
        ("missing_ratios", cfg.missing_ratios),
        ("feature_ratios", cfg.feature_ratios),
        ("lambda", cfg.lam),
        ("beta", cfg.beta),
        ("gamma", cfg.gamma),
        ("p", cfg.p),
    ):
        if not lst:
            errors.append(f"{name} list is empty")
    for g in cfg.gamma:
        if g <= 1:
            errors.append(f"gamma={g}: gamma must exceed 1")
    for pv in cfg.p:
        if not (0 < pv <= 1):
            errors.append(f"p={pv}: p must lie in (0, 1]")
    for lv in cfg.lam + cfg.beta:
        if lv < 0:
            errors.append(f"negative regularization weight {lv}")
    for m in cfg.missing_ratios:
        if not (0 <= m <= 0.5):
            errors.append(f"missing ratio {m}: a missing ratio must lie in [0, 0.5]")
        elif 0 < m < 0.1:
            warnings.append(f"missing ratio {m} outside the usual 10-50% range")
    for f in cfg.feature_ratios:
        if not (0 < f <= 1):
            errors.append(f"feature ratio {f}: a feature ratio must lie in (0, 1]")
        elif not (0.1 <= f <= 0.5):
            warnings.append(f"feature ratio {f} outside the usual 10-50% range")
    if cfg.repeats < 1:
        errors.append("repeats must be at least 1")
    if cfg.knn < 1:
        errors.append(f"knn={cfg.knn}: knn must be at least 1")
    if cfg.clusters is not None and cfg.clusters < 2:
        errors.append(f"clusters={cfg.clusters}: need at least 2 clusters")
    if cfg.max_iter < 0:
        errors.append(f"max_iter={cfg.max_iter}: max_iter must be nonnegative")
    return errors, warnings


def _load_base_dataset(cfg: ExperimentConfig):
    """The dataset before masking and the cluster count. A dataset that the
    evaluation protocol cannot score, one without labels or with fewer
    instances than clusters, is refused before any fit."""
    if cfg.dataset_path is not None:
        dataset = datamodel.load_dataset(cfg.dataset_path)
    else:
        dataset, _ = datamodel.generate_synthetic(cfg.synthetic)
    if dataset.labels is None:
        if cfg.clusters is None:
            raise ValueError("cluster count unknown: set 'clusters' or provide labels")
        raise ValueError("the dataset has no labels, which the evaluation protocol needs")
    c = int(np.unique(dataset.labels).size) if cfg.clusters is None else cfg.clusters
    if c > dataset.n_instances:
        raise ValueError(f"cannot form {c} clusters from {dataset.n_instances} instances")
    return dataset, c


def _masked_dataset(cfg, base, missing_ratio, miss_idx):
    if missing_ratio > 0:
        return datamodel.simulate_missing(base, missing_ratio, seed=cfg.seed + 1000 * miss_idx)
    return base


def _run_cell(cfg, dataset, c, cell, reports):
    _, feature_ratio, lam, beta, gamma, p = cell
    hyper = solver.Hyperparameters(
        lam=lam, beta=beta, gamma=gamma, p=p, n_clusters=c,
        max_iter=cfg.max_iter, seed=cfg.seed, knn=cfg.knn,
    )
    result = solver.fit(dataset, hyper)
    ranking = selection.score_features(result.state.u)
    selected = selection.select_top(ranking, ratio=feature_ratio)
    report = evaluation.run_protocol(
        dataset, selected, c, repeats=cfg.repeats, base_seed=cfg.seed, reports=reports
    )
    return result, ranking, selected, report


def run_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    errors, warnings = validate_config(cfg)
    if not errors:
        try:
            base, c = _load_base_dataset(cfg)
        except (OSError, ValueError) as exc:
            errors = [str(exc)]
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    cells = itertools.product(
        cfg.missing_ratios, cfg.feature_ratios, cfg.lam, cfg.beta, cfg.gamma, cfg.p
    )
    miss_index = {m: i for i, m in enumerate(cfg.missing_ratios)}
    report_lines = [
        "# missing_ratio feature_ratio lambda beta gamma p "
        "acc_mean acc_std nmi_mean nmi_std"
    ]
    failures = []
    best = {}
    # The missing ratio varies slowest, so the cells of one ratio are a run
    # that shares one masked dataset and one memo of protocol reports.
    for ratio, group in itertools.groupby(enumerate(cells), lambda item: item[1][0]):
        try:
            dataset = _masked_dataset(cfg, base, ratio, miss_index[ratio])
        except Exception as exc:  # every cell of the ratio fails, the others run
            dataset, mask_error = None, exc
        reports = {}
        for idx, cell in group:
            try:
                if dataset is None:
                    raise mask_error
                result, ranking, selected, report = _run_cell(cfg, dataset, c, cell, reports)
            except Exception as exc:  # a divergent cell must not abort the sweep
                failures.append(f"cell {idx} {cell}: {type(exc).__name__}: {exc}")
                continue
            missing_ratio, feature_ratio, lam, beta, gamma, p = cell
            report_lines.append(
                f"{missing_ratio:g} {feature_ratio:g} {lam:g} {beta:g} {gamma:g} {p:g} "
                f"{report.acc_mean:.6f} {report.acc_std:.6f} "
                f"{report.nmi_mean:.6f} {report.nmi_std:.6f}"
            )
            solver.save_trace(result.trace, os.path.join(out_dir, f"trace_{idx:04d}.txt"))
            selection.save_selection(
                ranking, selected, os.path.join(out_dir, f"selected_{idx:04d}.txt")
            )
            key = (missing_ratio, feature_ratio)
            if key not in best or report.acc_mean > best[key][0]:
                best[key] = (report.acc_mean, idx, cell, report)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(report_lines) + "\n")
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("# missing_ratio feature_ratio best_cell lambda beta gamma p "
                 "acc_mean nmi_mean\n")
        for (m, f), (acc_mean, idx, cell, report) in sorted(best.items()):
            fh.write(
                f"{m:g} {f:g} {idx} {cell[2]:g} {cell[3]:g} {cell[4]:g} {cell[5]:g} "
                f"{report.acc_mean:.6f} {report.nmi_mean:.6f}\n"
            )
    if failures:
        with open(os.path.join(out_dir, "failures.txt"), "w") as fh:
            fh.write("\n".join(failures) + "\n")
    print(f"wrote {len(report_lines) - 1} report rows to {out_dir} "
          f"({len(failures)} failed cells)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mvufs",
        description="Incomplete multi-view unsupervised feature selection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config's full grid sweep")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic dataset directory")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--instances", type=int, default=120)
    p_synth.add_argument("--views", type=int, default=3)
    p_synth.add_argument("--clusters", type=int, default=4)
    p_synth.add_argument("--features", type=int, nargs="+", default=[20, 20, 20])
    p_synth.add_argument("--informative", type=int, nargs="+", default=[4, 4, 4])
    p_synth.add_argument("--noise", type=float, default=0.1)
    p_synth.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            errors, warnings = validate_config(parse_config(args.config))
        except (OSError, ValueError) as exc:
            errors, warnings = [str(exc)], []
        for w in warnings:
            print(f"warning: {w}")
        for e in errors:
            print(f"error: {e}")
        return 1 if errors else 0

    if args.command == "run":
        try:
            cfg = parse_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return run_sweep(cfg, args.out)

    if args.command == "synth":
        spec = datamodel.SyntheticSpec(
            n_instances=args.instances,
            n_views=args.views,
            n_clusters=args.clusters,
            features=tuple(args.features),
            informative=tuple(args.informative),
            noise_scale=args.noise,
            seed=args.seed,
        )
        dataset, planted = datamodel.generate_synthetic(spec)
        datamodel.save_dataset(dataset, args.out)
        with open(os.path.join(args.out, "planted.txt"), "w") as fh:
            for v, idx in enumerate(planted):
                fh.write(f"{v} " + " ".join(str(i) for i in idx) + "\n")
        print(f"wrote synthetic dataset to {args.out}")
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
