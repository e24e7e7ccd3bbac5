"""Compare the cell outputs of two sets of benchmark run records.

    python tools/compare_records.py PARENT CHANGE [--rtol 1e-10]

PARENT and CHANGE are directories of run records (`.perfbench/records/*.json`
as `perfbench/run.py` writes them) or single record files. Every cell of
every CHANGE run is compared with the same cell (workload, seed, smoke flag,
dataset, cell index) as the first PARENT run computed it, and every later
PARENT computation of that cell with the first one as well. Per dataset the script prints the
worst relative difference of the final objective and every difference in
sweeps, converged flags, selection digests, ACC or NMI. It exits 1 when any
of those differ, when an objective differs by more than --rtol, or when the
two sets share no cell.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

EXACT = ("sweeps", "converged", "selection", "acc", "nmi")


def load_runs(path: str) -> list:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = []
    for name in files:
        with open(name) as fh:
            record = json.load(fh)
        if "operations" in record:
            runs.append((name, record))
    return runs


def cells(run):
    """(workload, seed, smoke flag, dataset, cell index) and cell, for every
    cell of every command of one run."""
    _, record = run
    for op in record["operations"]:
        for i, cell in enumerate(op["cells"]):
            yield (record["workload"], record["seed"], record["smoke"], op["dataset"], i), cell


def relative(a, b) -> float:
    a, b = float(a), float(b)
    return abs(a - b) / max(abs(b), 1e-300)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rtol", type=float, default=1e-10)
    args = parser.parse_args(argv)
    parents, changes = load_runs(args.parent), load_runs(args.change)
    reference = {}
    for run in parents:
        for key, cell in cells(run):
            reference.setdefault(key, cell)
    per_dataset = {}  # (workload, seed, smoke, dataset) -> [comparisons, worst, mismatches]
    problems = []
    for side, runs in (("parent", parents), ("change", changes)):
        for run in runs:
            for key, cell in cells(run):
                ref = reference.get(key)
                if ref is None or (side == "parent" and cell is ref):
                    continue
                stats = per_dataset.setdefault(key[:4], [0, 0.0, 0])
                stats[0] += 1
                if cell.get("objective") is not None and ref.get("objective") is not None:
                    stats[1] = max(stats[1], relative(cell["objective"], ref["objective"]))
                for field in EXACT:
                    if cell.get(field) != ref.get(field):
                        stats[2] += 1
                        problems.append(f"{side} {os.path.basename(run[0])} {key}: {field} "
                                        f"{cell.get(field)!r} != {ref.get(field)!r}")
    for key, (count, worst, mismatches) in sorted(per_dataset.items()):
        workload, seed, smoke, dataset = key
        print(f"{workload} seed {seed}{' smoke' if smoke else ''} dataset {dataset}: "
              f"{count} cell comparisons, worst objective rel diff {worst:.2g}, "
              f"mismatches {mismatches}")
    for line in problems:
        print("MISMATCH", line)
    total = sum(s[0] for s in per_dataset.values())
    worst = max((s[1] for s in per_dataset.values()), default=0.0)
    print(f"total: {total} cell comparisons over {len(per_dataset)} datasets "
          f"({len(parents)} parent, {len(changes)} change runs), "
          f"worst objective rel diff {worst:.2g}, mismatches {len(problems)}")
    return 1 if total == 0 or problems or worst > args.rtol else 0


if __name__ == "__main__":
    sys.exit(main())
