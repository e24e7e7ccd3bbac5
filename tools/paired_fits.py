"""Time two source trees' `solver.fit` on a benchmark workload's cells, in pairs.

    python tools/paired_fits.py PARENT_ROOT CHANGE_ROOT [--workload grid-n120]
                                [--seed 5] [--rounds 2]

PARENT_ROOT and CHANGE_ROOT are checkouts, each with its package under
`src/`. Each tree's `src/mvufs` is loaded in this one process under its own
package name; the package imports itself relatively, so the two copies never
mix. The workload's datasets and configs are written once, by
`perfbench/workloads.write_inputs` of this checkout at `--seed`.

Each round, for each config, both trees read the config and load and mask
the dataset afresh with their own `cli.preflight`, as one `mvufs run`
command does. The fit cells (missing ratio, lambda, beta, gamma, p) then run
in the grid order of `mvufs run`, each fitted by both trees back to back;
the tree that fits first alternates from cell to cell and from round to
round. BLAS is pinned to one thread when the script starts numpy.

The script prints the change's p50 and p75 fit times over the parent's, the
quartiles of the per-fit ratios, and whether every pair's objective trace,
sweep count and final state (U, V, S, R, alpha) are bitwise equal. It exits
1 when a fit fails or any pair differs.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # read when numpy loads; no effect on a process that has it

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))  # perfbench/workloads.py imports mvufs
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def load_tree(root: str, name: str):
    """The `src/mvufs` package of the checkout at `root`, imported as `name`;
    returns its `cli` module (whose `solver` is the tree's)."""
    package = os.path.join(os.path.abspath(root), "src", "mvufs")
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]  # a package loaded before under this name
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def fit_cells(cfg) -> list:
    """The distinct fits of a config's grid, in `mvufs run` order: the
    feature ratio does not reach the fit."""
    return list(itertools.product(cfg.missing_ratios, cfg.lam, cfg.beta, cfg.gamma, cfg.p))


def state_bytes(result) -> list:
    """Everything a fit returns, as comparable (shape, dtype, bytes) items."""
    state = result.state
    arrays = [result.trace, state.v, state.r, state.alpha, *state.u, *state.s]
    return [result.iterations, result.converged, state.order is None,
            *((a.shape, a.dtype.str, a.tobytes()) for a in arrays)]


def timed_fit(cli, dataset, c: int, cfg, cell):
    ratio, lam, beta, gamma, p = cell
    hyper = cli.solver.Hyperparameters(lam=lam, beta=beta, gamma=gamma, p=p, n_clusters=c,
                                       max_iter=cfg.max_iter, seed=cfg.seed, knn=cfg.knn)
    start = perf_counter()
    result = cli.solver.fit(dataset, hyper)
    return perf_counter() - start, state_bytes(result)


def pair(trees, configs, rounds: int):
    """Run every config's fit cells under both trees `rounds` times; returns
    (parent times, change times, [descriptions of differing pairs])."""
    times = ([], [])
    differ = []
    for round_ in range(rounds):
        turn = round_  # picks the tree that fits first: alternates by cell and by round
        for index, config in enumerate(configs):
            loaded = []
            for cli in trees:
                checked = cli.preflight(config, None, io.StringIO())
                if checked is None:
                    raise RuntimeError(f"{cli.__name__} refused {config}")
                loaded.append(checked)
            for cell in fit_cells(loaded[0][0]):
                outs = [None, None]
                for side in (turn % 2, 1 - turn % 2):
                    cfg, masked, c = loaded[side]
                    seconds, outs[side] = timed_fit(trees[side], masked[cell[0]], c, cfg, cell)
                    times[side].append(seconds)
                turn += 1
                if outs[0] != outs[1]:
                    differ.append(f"round {round_} config {index} cell {cell}")
    return np.array(times[0]), np.array(times[1]), differ


def report(parent: np.ndarray, change: np.ndarray, differ: list) -> int:
    ratios = change / parent
    p50, p75 = (np.percentile(change, q) / np.percentile(parent, q) for q in (50, 75))
    print(f"{len(parent)} paired fits; parent p50 {np.median(parent) * 1e3:.2f} ms, "
          f"change p50 {np.median(change) * 1e3:.2f} ms")
    print(f"change / parent: p50 {p50:.3f}, p75 {p75:.3f}")
    q1, q2, q3 = np.percentile(ratios, (25, 50, 75))
    print(f"per-fit ratio quartiles: {q1:.3f} {q2:.3f} {q3:.3f}")
    if differ:
        print(f"states: {len(differ)} of {len(parent)} pairs DIFFER")
        for line in differ:
            print(f"  {line}")
        return 1
    print("states: every trace and final state bitwise equal")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", default="grid-n120", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    trees = [load_tree(root, f"mvufs_{side}")
             for root, side in ((args.parent, "parent"), (args.change, "change"))]
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="paired_fits-") as work:
        configs = workloads.write_inputs(workload, args.seed, work)
        print(f"{workload.name} seed {args.seed}: {len(configs)} datasets, {args.rounds} rounds")
        return report(*pair(trees, configs, args.rounds))


if __name__ == "__main__":
    sys.exit(main())
