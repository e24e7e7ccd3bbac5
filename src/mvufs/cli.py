"""Pipeline runner: single experiments and grid sweeps over missing ratios,
feature ratios and solver hyperparameters.

Subcommands:
  synth     write a synthetic dataset directory
  validate  make every check `run` makes before its first fit
  run       execute the full sweep, writing report/trace/selection artifacts

`validate` and `run` share `preflight`. A config that cannot be read or
parsed, breaks a RULES table (of solver.Hyperparameters or
datamodel.SyntheticSpec: NaN, infinities, negative seeds) or lists a grid
value twice, or whose dataset cannot be loaded, masked or evaluated (see
_load_datasets), is one `error:` line: on stdout with exit code 1 for
`validate`, on stderr with exit code 2 for `run`, which then writes nothing.
So are a `synth` spec that cannot be built (stderr, exit code 2), an `--out`
that names a file and a `run --out` naming a non-empty directory.

`run` masks the dataset for every missing ratio before the first fit; the
cells of a ratio fit on its masked dataset and share one memo of evaluation
reports, so each distinct feature selection of the ratio is clustered once.
Every cell still writes its own report row, trace and selection.
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

# config key -> (field, value type, whether it takes a list of values); the
# synthetic_* fields are SyntheticSpec's, the others ExperimentConfig's
CONFIG_KEYS = {
    "dataset": ("dataset_path", str, False),
    "missing_ratios": ("missing_ratios", float, True),
    "feature_ratios": ("feature_ratios", float, True),
    "lambda": ("lam", float, True),
    "beta": ("beta", float, True),
    "gamma": ("gamma", float, True),
    "p": ("p", float, True),
    "clusters": ("clusters", int, False),
    "repeats": ("repeats", int, False),
    "seed": ("seed", int, False),
    "knn": ("knn", int, False),
    "max_iter": ("max_iter", int, False),
    "synthetic_n": ("n_instances", int, False),
    "synthetic_views": ("n_views", int, False),
    "synthetic_clusters": ("n_clusters", int, False),
    "synthetic_features": ("features", int, True),
    "synthetic_informative": ("informative", int, True),
    "synthetic_noise": ("noise_scale", float, False),
    "synthetic_seed": ("seed", int, False),
}
SYNTHETIC_DEFAULTS = dict(
    n_instances=120, n_views=3, n_clusters=4, features=(20, 20, 20), informative=(4, 4, 4)
)
# `synth` option -> SyntheticSpec field
SYNTH_FLAGS = {
    "--instances": "n_instances", "--views": "n_views", "--clusters": "n_clusters",
    "--features": "features", "--informative": "informative", "--noise": "noise_scale",
    "--seed": "seed",
}


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
    """Read the key/value config file through datamodel.read_keyed.

    A malformed line raises ValueError naming `path:line`; an unreadable file
    raises OSError.
    """
    fields, synth = {}, {}
    keys = {key: (kind, ...) if many else (kind,) for key, (_, kind, many) in CONFIG_KEYS.items()}
    for _, key, values in datamodel.read_keyed(path, keys):
        name, _, many = CONFIG_KEYS[key]
        target = synth if key.startswith("synthetic_") else fields
        target[name] = values if many else values[0]
    cfg = ExperimentConfig(**fields)
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
    for key, (name, _, many) in CONFIG_KEYS.items():
        if key.startswith("synthetic_"):
            continue
        values = getattr(cfg, name) if many else [getattr(cfg, name)]
        if many and not values:
            errors.append(f"{key} list is empty")
        rule = solver.Hyperparameters.RULES.get("n_clusters" if key == "clusters" else name)
        for x in values if rule else ():
            if x is not None and not rule[0](x):
                errors.append(f"{key}={x}: {rule[1]}")
        for x in dict.fromkeys(x for i, x in enumerate(values) if x in values[:i]):
            errors.append(f"{key} lists {x} more than once")
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
    return errors, warnings


def _load_datasets(cfg: ExperimentConfig):
    """Each missing ratio's masked dataset (ratio 0: the dataset as is) and
    the cluster count. Refused before any fit: a view count outside
    [2, solver.MAX_VIEWS], a dataset the evaluation protocol cannot score (no
    labels, fewer than two clusters or fewer instances than clusters), a
    view whose sum of squares overflows (so would every fit's first view
    loss), absent instances at a nonzero ratio (simulate_missing masks
    complete datasets only) and a `knn` that a masked view keeps too few
    instances for."""
    if cfg.dataset_path is not None:
        dataset = datamodel.load_dataset(cfg.dataset_path)
    else:
        dataset, _ = datamodel.generate_synthetic(cfg.synthetic)
    solver.check_view_count(dataset.n_views)
    for v, x in enumerate(dataset.views):
        if not np.isfinite(np.vdot(x, x)):
            raise ValueError(f"the sum of squares of view {v} overflows; rescale that view")
    if dataset.labels is None:
        if cfg.clusters is None:
            raise ValueError("cluster count unknown: set 'clusters' or provide labels")
        raise ValueError("the dataset has no labels, which the evaluation protocol needs")
    c = int(np.unique(dataset.labels).size) if cfg.clusters is None else cfg.clusters
    if c < 2:
        raise ValueError("the labels hold one class: set 'clusters' to 2 or more")
    if c > dataset.n_instances:
        raise ValueError(f"cannot form {c} clusters from {dataset.n_instances} instances")
    masked = {m: datamodel.simulate_missing(dataset, m, seed=cfg.seed + 1000 * i) if m else dataset
              for i, m in enumerate(cfg.missing_ratios)}
    for m, ds in masked.items():
        kept = int(ds.presence.sum(axis=0).min())
        if cfg.knn >= kept:
            raise ValueError(f"knn={cfg.knn} must be smaller than the {kept} instances "
                             f"a view keeps at missing ratio {m:g}")
    return masked, c


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


def preflight(config: str, out_dir: str | None, stream):
    """Every check `run` makes before its first fit: parse the config, apply
    validate_config, load and mask the dataset and, given `out_dir`, make it or
    find it empty. Prints one line per warning and error to `stream`; returns
    (cfg, masked datasets, cluster count), or None after an error."""
    errors, warnings = [], []
    try:
        cfg = parse_config(config)
        errors, warnings = validate_config(cfg)
        if not errors:
            masked, c = _load_datasets(cfg)
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
                if os.listdir(out_dir):
                    raise ValueError(f"output directory {out_dir} is not empty")
    except (OSError, ValueError) as exc:
        errors = [str(exc)]
    for line in [f"warning: {w}" for w in warnings] + [f"error: {e}" for e in errors]:
        print(line, file=stream)
    return None if errors else (cfg, masked, c)


def run_sweep(cfg: ExperimentConfig, masked: dict, c: int, out_dir: str) -> int:
    cells = itertools.product(
        cfg.missing_ratios, cfg.feature_ratios, cfg.lam, cfg.beta, cfg.gamma, cfg.p
    )
    report_lines = [
        "# missing_ratio feature_ratio lambda beta gamma p "
        "acc_mean acc_std nmi_mean nmi_std"
    ]
    failures = []
    best = {}
    # The missing ratio varies slowest, so the cells of one ratio are a run
    # that shares one masked dataset and one memo of protocol reports.
    for ratio, group in itertools.groupby(enumerate(cells), lambda item: item[1][0]):
        reports = {}
        for idx, cell in group:
            try:
                result, ranking, selected, report = _run_cell(cfg, masked[ratio], c, cell, reports)
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
    default = datamodel.SyntheticSpec(**SYNTHETIC_DEFAULTS)
    for flag, name in SYNTH_FLAGS.items():
        value = getattr(default, name)
        many = isinstance(value, tuple)
        p_synth.add_argument(flag, dest=name, metavar=flag[2:].upper(), default=value,
                             type=type(value[0] if many else value), nargs="+" if many else None)

    args = parser.parse_args(argv)

    if args.command != "synth":
        stream = sys.stdout if args.command == "validate" else sys.stderr
        checked = preflight(args.config, getattr(args, "out", None), stream)
        if args.command == "validate":
            return 0 if checked else 1
        return run_sweep(*checked, args.out) if checked else 2

    # synth
    try:
        spec = datamodel.SyntheticSpec(**{f: getattr(args, f) for f in SYNTH_FLAGS.values()})
        dataset, planted = datamodel.generate_synthetic(spec)
        datamodel.save_dataset(dataset, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(args.out, "planted.txt"), "w") as fh:
        for v, idx in enumerate(planted):
            fh.write(f"{v} " + " ".join(str(i) for i in idx) + "\n")
    print(f"wrote synthetic dataset to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
