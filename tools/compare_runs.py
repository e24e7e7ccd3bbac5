"""Check that two source trees give byte-identical `mvufs run` output directories.

    python tools/compare_runs.py PARENT_ROOT CHANGE_ROOT [--seed 1 3 7]

PARENT_ROOT and CHANGE_ROOT are checkouts, each with its package under
`src/`. For each `--seed` (default 7), the inputs of every benchmark
workload are written once, by `perfbench/workloads.write_inputs` of this
checkout at that seed; then each config runs as `mvufs run` under both
trees, in fresh interpreters with one BLAS thread. Every file of the two
output directories is compared byte for byte. The script prints one line
per seed and config, then, for each objective trace that differs, the worst
relative difference of its objective column (a last-digit rounding flip of
the `%.12g` text reads about 1e-12 or less), then one total over all seeds
and both trees' `src/mvufs` line counts. It exits 1 when a run fails, a
file differs or exists on one side only, or nothing was compared.
"""

from __future__ import annotations

import argparse
import filecmp
import glob
import importlib.util
import itertools
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))  # perfbench/workloads.py imports mvufs
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_tree(root: str, config: str, out: str) -> subprocess.CompletedProcess:
    """`mvufs run` on `config` with the package of the checkout at `root`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return subprocess.run(
        [sys.executable, "-m", "mvufs.cli", "run", "--config", config, "--out", out],
        env=env, cwd=os.path.dirname(out), capture_output=True, text=True)


def differing(a: str, b: str) -> tuple:
    """(files compared, names that differ or exist in one directory only)."""
    names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return len(names), sorted(mismatch + errors)


def trace_difference(a: str, b: str) -> str:
    """The worst relative difference between the objective columns of two
    trace files, or how their sweep counts differ."""
    x, y = (np.loadtxt(path, ndmin=2)[:, 1] for path in (a, b))
    if len(x) != len(y):
        return f"sweep counts differ ({len(x) - 1} against {len(y) - 1})"
    worst = np.max(np.abs(x - y) / np.maximum(np.abs(x), np.finfo(float).tiny))
    return f"worst relative objective difference {worst:.3g}"


def source_lines(root: str) -> int:
    """Lines in the `src/mvufs` Python files of the checkout at `root`."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "mvufs", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def compare(parent: str, change: str, chosen, seeds, work: str) -> int:
    """Run the configs of every workload in `chosen` at every seed in `seeds`
    under both trees inside `work`; 0 when every output directory is
    byte-identical, else 1."""
    total, bad = 0, 0
    for seed, workload in itertools.product(seeds, chosen):
        inputs = os.path.join(work, f"seed{seed}", workload.name)
        os.makedirs(inputs)
        for config in workloads.write_inputs(workload, seed, inputs):
            name = f"seed {seed} {workload.name} {os.path.splitext(os.path.basename(config))[0]}"
            outs = [f"{os.path.splitext(config)[0]}.{side}" for side in ("parent", "change")]
            runs = [run_tree(root, config, out) for root, out in zip((parent, change), outs)]
            failed = [side for side, run in zip(("parent", "change"), runs) if run.returncode]
            if failed:
                bad += 1
                print(f"{name}: FAILED under {' and '.join(failed)}")
                for run in runs:
                    sys.stdout.write(run.stderr)
                continue
            count, diff = differing(*outs)
            total += count
            bad += len(diff)
            verdict = "identical" if not diff else "DIFFER: " + " ".join(diff)
            print(f"{name}: {count} files, {verdict}")
            for file in diff:
                paths = [os.path.join(out, file) for out in outs]
                if file.startswith("trace_") and all(map(os.path.exists, paths)):
                    print(f"  {file}: {trace_difference(*paths)}")
    print(f"total: {total} files compared, {bad} differences or failed runs")
    lines = [source_lines(root) for root in (parent, change)]
    print(f"src/mvufs: {lines[0]} lines in parent, {lines[1]} in change "
          f"({lines[1] - lines[0]:+d})")
    return 1 if bad or not total else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, nargs="+", default=[7])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_runs-") as work:
        return compare(args.parent, args.change, workloads.WORKLOADS.values(), args.seed, work)


if __name__ == "__main__":
    sys.exit(main())
