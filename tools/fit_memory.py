"""Traced memory of one `solver.fit` on a `fit-n1000`-shaped dataset, by phase.

    python tools/fit_memory.py [--n 1000] [--ratio 0.3] [--seed 5]

The dataset is built with `mvufs` alone, the way the `fit-n1000` workload
builds its datasets: N instances in 4 clusters, 3 views of 50 features with
5 informative, noise 0.1 (dataset seed 1000 * seed), then `simulate_missing`
at --ratio (mask seed --seed). The fit takes the workload's cell: lambda =
beta = 0.1, gamma = 3, p = 0.5, kNN k = 5, at most 20 sweeps, solver seed
--seed.

Under tracemalloc the script prints the peak of traced memory above the base
before the fit, in MiB and in graphs of 8 N^2 bytes, for `initialize`, for
the sweeps (the largest over all sweeps) and for the whole fit. The fit runs
twice and the second is measured, so the modules and caches that the first
loads on its way are not counted. numpy reports its arrays to tracemalloc;
memory it does not see, such as BLAS work buffers, is not counted.
"""

from __future__ import annotations

import argparse
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mvufs import datamodel, solver  # noqa: E402

PHASES = {"initialize": "initialize", "sweep": "sweeps"}  # solver function: row label


def synthetic(n: int, ratio: float, seed: int) -> datamodel.MultiViewDataset:
    spec = datamodel.SyntheticSpec(n, 3, 4, (50,) * 3, (5,) * 3, 0.1, 1000 * seed)
    dataset, _ = datamodel.generate_synthetic(spec)
    return datamodel.simulate_missing(dataset, ratio, seed=seed) if ratio else dataset


def traced_fit(dataset: datamodel.MultiViewDataset, hyper: solver.Hyperparameters):
    """(per-phase peaks, whole-fit peak, sweeps), in bytes above the traced
    memory before the fit."""
    peaks = dict.fromkeys(PHASES, 0)
    originals = {name: getattr(solver, name) for name in PHASES}
    top = 0

    def traced(name):
        def run(*args):
            nonlocal top
            top = max(top, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return originals[name](*args)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                top = max(top, peak)
                peaks[name] = max(peaks[name], peak - base)
        return run

    tracemalloc.start()
    try:
        for name in PHASES:
            setattr(solver, name, traced(name))
        base = tracemalloc.get_traced_memory()[0]
        result = solver.fit(dataset, hyper)
        top = max(top, tracemalloc.get_traced_memory()[1])
    finally:
        for name, fn in originals.items():
            setattr(solver, name, fn)
        tracemalloc.stop()
    return peaks, top - base, result.iterations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000, help="instances (default 1000)")
    parser.add_argument("--ratio", type=float, default=0.3, help="missing ratio (default 0.3)")
    parser.add_argument("--seed", type=int, default=5, help="seed (default 5)")
    args = parser.parse_args(argv)
    dataset = synthetic(args.n, args.ratio, args.seed)
    hyper = solver.Hyperparameters(lam=0.1, beta=0.1, gamma=3, p=0.5, n_clusters=4,
                                   max_iter=20, seed=args.seed)
    solver.fit(dataset, hyper)
    peaks, whole, sweeps = traced_fit(dataset, hyper)
    graph = 8 * args.n ** 2
    print(f"N={args.n} ratio {args.ratio:g} seed {args.seed}: {sweeps} sweeps, "
          f"one graph = {graph / 2**20:.2f} MiB")
    print(f"{'phase':<16}{'peak MiB':>10}{'graphs':>8}")
    for name, peak in [(label, peaks[p]) for p, label in PHASES.items()] + [("fit", whole)]:
        print(f"{name:<16}{peak / 2**20:>10.2f}{peak / graph:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
