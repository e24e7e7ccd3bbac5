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
quartiles of the per-fit ratios, each tree's mean sweeps per fit, whether
every pair's objective trace, sweep count and final state (U, V, S, R,
alpha; V and S in the dataset's order) are bitwise equal, and whether both
trees masked each missing ratio with the same presence mask, bit for bit.
When pairs differ, it also prints how many differ in sweep count and, over
the differing pairs with equal sweep counts, the worst relative difference
of each of the trace, U, V, S, R and alpha: the largest |parent - change|
over the parent's largest magnitude. It exits 1 when a fit fails or any
pair or mask differs.
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


def state_arrays(result) -> dict:
    """A fit's trace and final state, each a list of arrays by name, with V
    and the graphs gathered back into the dataset's order (SolverState.order)."""
    state = result.state
    order = state.order
    if order is None:  # a tree from before every fit held the cluster order
        order = np.arange(len(state.v))
    inv = np.argsort(order)
    return {"trace": [result.trace], "U": list(state.u), "V": [state.v[inv]],
            "S": [s[np.ix_(inv, inv)] for s in state.s], "R": [state.r], "alpha": [state.alpha]}


def state_bytes(result) -> list:
    """Everything a fit returns, as comparable (shape, dtype, bytes) items,
    with V and the graphs in the dataset's order (state_arrays)."""
    arrays = itertools.chain.from_iterable(state_arrays(result).values())
    return [result.iterations, result.converged,
            *((a.shape, a.dtype.str, a.tobytes()) for a in arrays)]


def relative_differences(parent, change) -> dict:
    """Per name of state_arrays, the largest |parent - change| over the
    parent's largest magnitude, for two results with equal sweep counts."""
    sizes, theirs = {}, state_arrays(change)
    for name, ours in state_arrays(parent).items():
        diff = max(np.max(np.abs(a - b)) for a, b in zip(ours, theirs[name]))
        scale = max(np.max(np.abs(a)) for a in ours)
        sizes[name] = float(diff / scale) if diff else 0.0
    return sizes


def timed_fit(cli, dataset, c: int, cfg, cell):
    ratio, lam, beta, gamma, p = cell
    hyper = cli.solver.Hyperparameters(lam=lam, beta=beta, gamma=gamma, p=p, n_clusters=c,
                                       max_iter=cfg.max_iter, seed=cfg.seed, knn=cfg.knn)
    start = perf_counter()
    result = cli.solver.fit(dataset, hyper)
    return perf_counter() - start, result


def pair(trees, configs, rounds: int):
    """Run every config's fit cells under both trees `rounds` times; returns
    (times, sweeps, [(description, relative_differences or None where the
    sweep counts differ) of each differing pair], [(description, whether
    equal) of each masked presence mask]); times and sweeps are 2 x fits
    arrays, the parent's row first."""
    times, sweeps = ([], []), ([], [])
    differ = []
    masks = []
    for round_ in range(rounds):
        turn = round_  # picks the tree that fits first: alternates by cell and by round
        for index, config in enumerate(configs):
            loaded = []
            for cli in trees:
                checked = cli.preflight(config, None, io.StringIO())
                if checked is None:
                    raise RuntimeError(f"{cli.__name__} refused {config}")
                loaded.append(checked)
            for ratio, dataset in loaded[0][1].items():
                other = loaded[1][1][ratio].presence
                masks.append((f"round {round_} config {index} ratio {ratio}",
                              dataset.presence.tobytes() == other.tobytes()
                              and dataset.presence.shape == other.shape))
            for cell in fit_cells(loaded[0][0]):
                outs = [None, None]
                for side in (turn % 2, 1 - turn % 2):
                    cfg, masked, c = loaded[side]
                    seconds, outs[side] = timed_fit(trees[side], masked[cell[0]], c, cfg, cell)
                    times[side].append(seconds)
                    sweeps[side].append(outs[side].iterations)
                turn += 1
                if state_bytes(outs[0]) != state_bytes(outs[1]):
                    same_count = outs[0].iterations == outs[1].iterations
                    differ.append((f"round {round_} config {index} cell {cell}",
                                   relative_differences(*outs) if same_count else None))
    return np.array(times), np.array(sweeps), differ, masks


def report(times: np.ndarray, sweeps: np.ndarray, differ: list, masks: list) -> int:
    parent, change = times
    ratios = change / parent
    p50, p75 = (np.percentile(change, q) / np.percentile(parent, q) for q in (50, 75))
    print(f"{len(parent)} paired fits; parent p50 {np.median(parent) * 1e3:.2f} ms, "
          f"change p50 {np.median(change) * 1e3:.2f} ms")
    print(f"change / parent: p50 {p50:.3f}, p75 {p75:.3f}")
    q1, q2, q3 = np.percentile(ratios, (25, 50, 75))
    print(f"per-fit ratio quartiles: {q1:.3f} {q2:.3f} {q3:.3f}")
    print(f"mean sweeps per fit: parent {sweeps[0].mean():.2f}, change {sweeps[1].mean():.2f}")
    if differ:
        print(f"states: {len(differ)} of {len(parent)} pairs DIFFER, "
              f"{np.count_nonzero(sweeps[0] != sweeps[1])} in sweep count")
        for line, _ in differ:
            print(f"  {line}")
        sized = [sizes for _, sizes in differ if sizes is not None]
        if sized:
            worst = ", ".join(f"{name} {max(s[name] for s in sized):.2g}" for name in sized[0])
            print(f"worst relative difference over {len(sized)} pairs with equal sweep "
                  f"counts: {worst}")
    else:
        print("states: every trace and final state bitwise equal")
    masks_differ = [line for line, equal in masks if not equal]
    if masks_differ:
        print(f"masks: {len(masks_differ)} of {len(masks)} DIFFER")
        for line in masks_differ:
            print(f"  {line}")
    else:
        print(f"masks: all {len(masks)} masked presence masks bitwise equal")
    return 1 if differ or masks_differ else 0


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
