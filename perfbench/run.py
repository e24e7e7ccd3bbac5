"""mvufs benchmark: run one workload as a closed loop and print one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single caller issues `mvufs run` commands in one process, each starting
after the previous one ends, for about `--seconds` and until every dataset of
the workload has run once. `--trace 0` prints the end-to-end metrics;
`--trace 1` runs each dataset untraced and traced in turn and prints the
per-layer metrics. `--smoke` shrinks the workload so a run takes seconds.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import bootstrap  # pins BLAS threads and the import path; must precede numpy

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from time import perf_counter

import numpy as np
import scipy

import checks
import tracing
from mvufs import cli, evaluation, selection, solver
from workloads import WORKLOADS, write_inputs

SETUP_PROBES = 5
MODULES = ("datamodel", "graph", "simplex", "solver", "selection", "evaluation", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("fit_s_p50", "s"),
    ("fit_s_p75", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("acc_mean", "ratio"),
    ("nmi_mean", "ratio"),
)

# Spans of set-up calls are reported as the total of the run's one set-up;
# every other span metric is per cell of the traced commands.
SETUP_LAYERS = ("datamodel.generate_synthetic", "datamodel.save_dataset")
PER_LAYER = (
    ("simplex.project_offdiag_simplex.s_update.calls", "count"),
    ("simplex.project_offdiag_simplex.s_update.self_s", "s"),
    ("simplex.project_offdiag_simplex.r_update.calls", "count"),
    ("simplex.project_offdiag_simplex.r_update.self_s", "s"),
    ("solver.update_r.self_s", "s"),
    ("solver.update_r.projections_per_column", "count"),
    ("graph.update_similarity.calls", "count"),
    ("graph.update_similarity.self_s", "s"),
    ("graph.laplacian.self_s", "s"),
    ("solver.objective.self_s", "s"),
    ("solver.view_losses.self_s", "s"),
    ("graph.pairwise_sq_dists.self_s", "s"),
    ("graph.pairwise_sq_dists.init.self_s", "s"),
    ("graph.build_initial_similarity.self_s", "s"),
    ("solver.initialize.self_s", "s"),
    ("evaluation.kmeans.init.self_s", "s"),
    ("solver.update_v.self_s", "s"),
    ("solver.update_u.self_s", "s"),
    ("solver.update_alpha.self_s", "s"),
    ("solver.sweep.self_s", "s"),
    ("solver.fit.self_s", "s"),
    ("solver.fit.mean_s", "s"),
    ("solver.sweeps", "count"),
    ("solver.converged_frac", "fraction"),
    ("solver.sweep_s_p50", "s"),
    ("evaluation.run_protocol.self_s", "s"),
    ("evaluation.kmeans.protocol.calls", "count"),
    ("evaluation.kmeans.protocol.self_s", "s"),
    ("evaluation.acc.self_s", "s"),
    ("evaluation.nmi.self_s", "s"),
    ("selection.score_features.self_s", "s"),
    ("selection.select_top.self_s", "s"),
    ("cli.run_sweep.self_s", "s"),
    ("solver.save_trace.self_s", "s"),
    ("selection.save_selection.self_s", "s"),
    ("cli.artifact_bytes", "B"),
    ("datamodel.load_dataset.self_s", "s"),
    ("datamodel.generate_synthetic.self_s", "s"),
    ("datamodel.save_dataset.self_s", "s"),
    ("datamodel.simulate_missing.self_s", "s"),
    ("datamodel.impute_missing.calls", "count"),
    ("datamodel.impute_missing.self_s", "s"),
    ("datamodel.build_view_weights.self_s", "s"),
) + tuple((f"{m}.warnings", "count") for m in MODULES) + (
    ("trace_overhead_frac", "fraction"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs that run in seconds")
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)  # child process of measure_setup
    return parser.parse_args(argv)


# --- set-up -----------------------------------------------------------------

def measure_setup(args, run_dir: str, probes: int) -> list:
    """Seconds from spawning a fresh interpreter until it has written the
    workload's inputs; the child reports the monotonic clock it stopped at."""
    samples = []
    for k in range(probes):
        probe_dir = os.path.join(run_dir, f"probe_{k}")
        os.makedirs(probe_dir)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", probe_dir,
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
        shutil.rmtree(probe_dir)
    return samples


# --- one `mvufs run` command --------------------------------------------------

def selection_digest(selected) -> str:
    text = repr([(int(v), int(f)) for v, f in selected])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_command(config: str, out_dir: str, expected_cells: int, recorder=None) -> dict:
    """Run `mvufs run` on one config; record each cell's outputs and check them.

    Checks run inside the command (so no cell's state outlives it) but their
    time is excluded from the command's wall time and, when traced, sits in
    a `perfbench.check` span so no layer's self time includes it.
    """
    cells = []
    check_s = 0.0
    fit0, select0, protocol0 = solver.fit, selection.select_top, evaluation.run_protocol

    def checked(check, value):
        nonlocal check_s
        t = perf_counter()
        with recorder.span("perfbench.check") if recorder else contextlib.nullcontext():
            problems = check(value)
        check_s += perf_counter() - t
        return problems

    def fit(dataset, hyper):
        cell = {"problems": []}
        cells.append(cell)
        t = perf_counter()
        try:
            result = fit0(dataset, hyper)
        except Exception:
            cell["problems"].append(traceback.format_exc())
            raise
        cell["fit_s"] = perf_counter() - t
        cell.update(sweeps=result.iterations, converged=result.converged,
                    objective=float(result.trace[-1]))
        cell["problems"] += checked(checks.fit_problems, result)
        return result

    def select_top(ranking, ratio=None, count=None):
        selected = select0(ranking, ratio=ratio, count=count)
        cells[-1]["selection"] = selection_digest(selected)
        return selected

    def run_protocol(*a, **kw):
        report = protocol0(*a, **kw)
        cells[-1].update(acc=report.acc_mean, nmi=report.nmi_mean)
        cells[-1]["problems"] += checked(checks.report_problems, report)
        return report

    solver.fit, selection.select_top, evaluation.run_protocol = fit, select_top, run_protocol
    caught = []
    problems = []
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            if recorder:
                caught = stack.enter_context(warnings.catch_warnings(record=True))
                warnings.simplefilter("always")
            start = perf_counter()
            try:
                rc = cli.main(["run", "--config", config, "--out", out_dir])
            except Exception:  # counted as failed cells, never fatal
                rc = None
                problems.append(traceback.format_exc())
            wall = perf_counter() - start
    finally:
        solver.fit, selection.select_top, evaluation.run_protocol = fit0, select0, protocol0

    rows = checks.report_rows(os.path.join(out_dir, "report.txt"))
    artifact_bytes = 0
    if os.path.isdir(out_dir):
        artifact_bytes = sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())
        shutil.rmtree(out_dir)
    if rc != 0 or rows != expected_cells:
        problems.append(f"exit code {rc}, {rows} report rows for {expected_cells} cells")
    counts = {m: 0 for m in MODULES}
    for w in caught:
        module = os.path.splitext(os.path.basename(w.filename))[0]
        if module in counts and os.path.dirname(w.filename).endswith("mvufs"):
            counts[module] += 1
    return {"wall_s": wall - check_s, "cells": cells, "expected_cells": expected_cells,
            "rows": rows, "problems": problems, "artifact_bytes": artifact_bytes,
            "warnings": counts}


def failed_cells(op: dict, first: dict | None) -> int:
    """Cells of one command that raised, failed a check, went missing, or
    differ from the first command on the same dataset (the program is
    deterministic given its inputs)."""
    if first is not None:
        for cell, ref in zip(op["cells"], first["cells"]):
            if outcome(cell) != outcome(ref):
                cell["problems"].append("outputs differ from the first run on this dataset")
    expected = op["expected_cells"]
    failed = sum(1 for c in op["cells"] if c["problems"])
    failed += max(0, expected - len(op["cells"]))
    failed = max(failed, expected - max(op["rows"], 0))  # cells missing from the report
    if op["problems"]:
        failed = max(failed, 1)
    return min(failed, expected)


def outcome(cell: dict) -> tuple:
    return tuple(cell.get(k) for k in ("sweeps", "objective", "selection", "acc", "nmi"))


# --- the closed loop ----------------------------------------------------------

def run_loop(configs, expected_cells: int, seconds: float, run_dir: str,
             recorder=None) -> list:
    """Commands in sequence, cycling through the datasets.

    An untraced run goes on until every dataset has run once, unless that
    would start a command after three times the run length. After that, a
    step starts only if, at the median step length so far, it would end
    nearer the deadline than stopping now does, so a run lasts `seconds`
    give or take half a step instead of overrunning by up to a whole one.

    With a recorder, each dataset runs untraced and traced back to back, the
    order alternating, so the pair gives the tracing overhead; a step is then
    the pair.
    """
    ops = []
    first = {}
    rounds = 1 if recorder else len(configs)
    steps = []
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        must = i == 0 or (i < rounds and elapsed < 3 * seconds)
        if not must and elapsed + statistics.median(steps) / 2 >= seconds:
            break
        step_start = perf_counter()
        index = i % len(configs)
        modes = (False,) if recorder is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            out_dir = os.path.join(run_dir, f"out_{len(ops)}")
            if traced:
                recorder.op_id = len(ops)
                recorder.install()
            try:
                op = run_command(configs[index], out_dir, expected_cells,
                                 recorder if traced else None)
            finally:
                if traced:
                    recorder.uninstall()
            op.update(dataset=index, traced=traced)
            op["failed"] = failed_cells(op, first.get(index))
            first.setdefault(index, op)
            ops.append(op)
        steps.append(perf_counter() - step_start)
        i += 1
    return ops


# --- metrics --------------------------------------------------------------------

def end_to_end_metrics(ops: list, setup_samples: list) -> dict:
    fit_times = [c["fit_s"] for op in ops for c in op["cells"] if "fit_s" in c]
    firsts = {}
    for op in ops:
        firsts.setdefault(op["dataset"], op)
    quality = [c for op in firsts.values() for c in op["cells"] if "acc" in c]
    # A run in which every cell failed still prints a result, with NaN times.
    fit_times = fit_times or [math.nan]
    quality = quality or [{"acc": math.nan, "nmi": math.nan}]
    values = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "fit_s_p50": (float(np.percentile(fit_times, 50)), len(fit_times)),
        "fit_s_p75": (float(np.percentile(fit_times, 75)), len(fit_times)),
        "cells_per_s": (statistics.median(op["expected_cells"] / op["wall_s"] for op in ops),
                        len(ops)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "acc_mean": (statistics.fmean(c["acc"] for c in quality), len(quality)),
        "nmi_mean": (statistics.fmean(c["nmi"] for c in quality), len(quality)),
    }
    return {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}


def per_layer_metrics(ops: list, recorder, n_views: int) -> dict:
    name_ids, _, op_ids, duration, self_time = recorder.table()
    in_ops = op_ids >= 0
    size = len(recorder.names)
    totals = {  # per span name: (self seconds, calls), in commands and in set-up
        True: (np.bincount(name_ids[in_ops], self_time[in_ops], size),
               np.bincount(name_ids[in_ops], minlength=size)),
        False: (np.bincount(name_ids[~in_ops], self_time[~in_ops], size),
                np.bincount(name_ids[~in_ops], minlength=size)),
    }
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    fit_id = recorder.names.index("solver.fit")
    n_cells = max(1, int(totals[True][1][fit_id]))

    def per_cell(prefix, stat):
        ids = [i for i, n in enumerate(recorder.names)
               if n == prefix or n.startswith(prefix + ".")]
        self_s, calls = totals[prefix not in SETUP_LAYERS]
        total = float(np.sum((self_s if stat == "self_s" else calls)[ids]))
        return total if prefix in SETUP_LAYERS else total / n_cells

    def durations(name):
        return duration[in_ops & (name_ids == recorder.names.index(name))]

    traced_cells = [c for op in traced for c in op["cells"] if "sweeps" in c]
    sweep_spans = durations("solver.sweep")
    r_columns = per_cell("solver.update_r", "calls") * n_views
    special = {
        "solver.update_r.projections_per_column":
            per_cell("simplex.project_offdiag_simplex.r_update", "calls") / r_columns
            if r_columns else 0.0,
        "solver.fit.mean_s": float(np.sum(durations("solver.fit"))) / n_cells,
        "solver.sweeps": per_cell("solver.sweep", "calls"),
        "solver.converged_frac":
            statistics.fmean(c["converged"] for c in traced_cells) if traced_cells else 0.0,
        "solver.sweep_s_p50": float(np.median(sweep_spans)) if sweep_spans.size else 0.0,
        "cli.artifact_bytes": sum(op["artifact_bytes"] for op in traced) / n_cells,
        "trace_overhead_frac":
            sum(op["wall_s"] for op in traced) / sum(op["wall_s"] for op in plain) - 1.0,
    }
    for module in MODULES:
        special[f"{module}.warnings"] = sum(op["warnings"][module] for op in traced) / n_cells
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            prefix, stat = name.rsplit(".", 1)
            value = per_cell(prefix, stat)
        metrics[name] = (float(value), unit, n_cells)
    return metrics


# --- run record -----------------------------------------------------------------

def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    package = os.path.join(bootstrap.SRC, "mvufs")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(bootstrap.ROOT, ".git")):
        proc = subprocess.run(["git", "-C", bootstrap.ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": bootstrap.NPROC,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {v: os.environ.get(v) for v in bootstrap.BLAS_THREAD_VARS}},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def write_record(args, ops, metrics, recorder) -> str:
    records = os.path.join(bootstrap.WORK, "records")
    os.makedirs(records, exist_ok=True)
    stem = os.path.join(records, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                 + ("-smoke" if args.smoke else ""))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "operations": [
            {"dataset": op["dataset"], "traced": op["traced"], "wall_s": op["wall_s"],
             "failed": op["failed"], "problems": op["problems"],
             "cells": [{"sweeps": c.get("sweeps"), "converged": c.get("converged"),
                        "objective": repr(c.get("objective")), "selection": c.get("selection"),
                        "acc": c.get("acc"), "nmi": c.get("nmi"), "fit_s": c.get("fit_s"),
                        "problems": c["problems"]} for c in op["cells"]]}
            for op in ops
        ],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if recorder is not None:
        recorder.save(stem + ".spans.npz")
    return stem + ".json"


# --- entry point ----------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.shrunk()
    if args.setup_probe:
        write_inputs(workload, args.seed, args.setup_probe)
        print(repr(time.monotonic()))
        return 0

    os.makedirs(bootstrap.WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=bootstrap.WORK)
    try:
        recorder = tracing.Recorder() if args.trace else None
        setup_samples = [] if args.trace else measure_setup(
            args, run_dir, 1 if args.smoke else SETUP_PROBES)
        if recorder:
            recorder.install()
        try:
            configs = write_inputs(workload, args.seed, os.path.join(run_dir, "inputs"))
        finally:
            if recorder:
                recorder.uninstall()
        ops = run_loop(configs, workload.cells, args.seconds, run_dir, recorder)
        if recorder:
            metrics = per_layer_metrics(ops, recorder, workload.n_views)
        else:
            metrics = end_to_end_metrics(ops, setup_samples)
        record = write_record(args, ops, metrics, recorder)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(op["expected_cells"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {len(ops)} commands, "
          f"{attempted} cells, {failed} failed; record {os.path.relpath(record, bootstrap.ROOT)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit:8s} n={samples}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
