"""Smoke tests of the benchmark itself, on shrunken workloads (about 10 s).

    python3 perfbench/smoke.py

Checks that
  * every metric BENCHMARK.json names prints with its unit, on every workload,
    untraced and traced, with every output check passing;
  * the seed argument decides the generated inputs;
  * the self times of the spans under one `fit` span sum to that span.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import bootstrap  # pins BLAS threads and the import path; must precede numpy

import filecmp
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

import tracing
from mvufs import datamodel, solver
from workloads import WORKLOADS, write_inputs

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def check_metrics(spec: dict) -> None:
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected, (name, trace, set(printed) ^ set(expected))
            for metric, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), metric
                assert math.isfinite(entry["value"]), metric
            print(f"ok   {name} --trace {trace}: {len(printed)} metrics with units")


def check_seed_decides_inputs(scratch: str) -> None:
    workload = WORKLOADS["grid-n120"].shrunk()
    dirs = {}
    for label, seed in (("a", 1), ("b", 1), ("c", 2)):
        dirs[label] = os.path.join(scratch, label)
        write_inputs(workload, seed, dirs[label])
    view = os.path.join("dataset_0", "view_0.txt")
    same = filecmp.cmp(os.path.join(dirs["a"], view), os.path.join(dirs["b"], view),
                       shallow=False)
    differ = not filecmp.cmp(os.path.join(dirs["a"], view), os.path.join(dirs["c"], view),
                             shallow=False)
    assert same and differ, "the seed argument does not decide the inputs"
    print("ok   same seed gives the same inputs, another seed other inputs")


def check_self_times() -> None:
    dataset, _ = datamodel.generate_synthetic(datamodel.SyntheticSpec(
        n_instances=40, n_views=3, n_clusters=4, features=(12, 12, 12),
        informative=(3, 3, 3), seed=0))
    dataset = datamodel.simulate_missing(dataset, 0.3, seed=1)
    recorder = tracing.Recorder()
    recorder.op_id = 0
    recorder.install()
    try:
        solver.fit(dataset, solver.Hyperparameters(
            lam=0.1, beta=0.1, gamma=3.0, p=0.5, n_clusters=4, max_iter=5))
    finally:
        recorder.uninstall()
    names, parent, _, duration, self_time = recorder.table()
    root = recorder.names.index("solver.fit")
    (fit_span,) = np.flatnonzero(names == root)
    under = [fit_span]
    for i in range(fit_span + 1, names.size):
        j = parent[i]
        while j > fit_span:
            j = parent[j]
        if j == fit_span:
            under.append(i)
    assert len(under) == names.size - fit_span, "spans escaped the fit span"
    assert np.all(self_time[under] >= -1e-9), "negative self time: overlapping spans"
    total = float(np.sum(self_time[under]))
    assert abs(total - duration[fit_span]) <= 1e-6 * duration[fit_span], (
        total, duration[fit_span])
    print(f"ok   self times of {len(under)} spans sum to the fit span "
          f"({total:.6f} s vs {duration[fit_span]:.6f} s)")


def main() -> int:
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    scratch = os.path.join(bootstrap.WORK, f"smoke-{os.getpid()}")
    try:
        check_seed_decides_inputs(scratch)
        check_self_times()
        check_metrics(spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("all smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
