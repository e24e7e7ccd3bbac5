"""Benchmark workloads and the inputs they generate from a seed.

Every workload drives the program through its user-facing `mvufs run`
command. A cell of that command is one `solver.fit`, then
`select_top(score_features(u), ratio)`, then `run_protocol(repeats)`; a
workload is one or more datasets plus the grid of cells run on each.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from mvufs import datamodel

CLUSTERS = 4
# Shared cell settings; each workload overrides only what its purpose needs.
BASE_GRID = {
    "missing_ratios": (0.3,),
    "feature_ratios": (0.2,),
    "lambda": (0.1,),
    "beta": (0.1,),
    "gamma": (3,),
    "p": (0.5,),
    "repeats": (30,),
}


@dataclass(frozen=True)
class Workload:
    name: str
    n_instances: int
    n_views: int
    features: int  # per view
    informative: int  # planted discriminative features per view
    # Distinct datasets a run cycles through. ACC and NMI vary with the
    # generated dataset; averaging over several keeps them steady across
    # seeds. Each is about the number of commands a run makes anyway.
    datasets: int
    grid: dict  # config-file key -> values

    @property
    def cells(self) -> int:
        count = 1
        for key, values in self.grid.items():
            if key not in ("repeats", "max_iter"):
                count *= len(values)
        return count

    def shrunk(self) -> "Workload":
        """The same workload at a size that runs in well under a second."""
        grid = {key: values[:2] if key == "lambda" else values[:1]
                for key, values in self.grid.items()}
        grid.update(repeats=(2,), max_iter=(3,))
        return replace(self, n_instances=40, features=12, informative=3,
                       datasets=min(self.datasets, 2), grid=grid)


def _grid(**overrides) -> dict:
    grid = dict(BASE_GRID)
    grid.update(overrides)
    return grid


WORKLOADS = {
    w.name: w
    for w in (
        # Dense N x N graph work dominates. N=1000 fits do not converge
        # within 300 sweeps, so the cap makes wall time track sweep cost.
        Workload(
            name="fit-n1000",
            n_instances=1000, n_views=3, features=50, informative=5,
            datasets=5, grid=_grid(max_iter=(20,)),
        ),
        # Small N: per-call Python overhead, the R solver, the k-means
        # protocol, artifact I/O and per-cell bookkeeping. Most cells
        # converge in 15-36 sweeps; a few run to the 300-sweep cap.
        Workload(
            name="grid-n120",
            n_instances=120, n_views=3, features=50, informative=5,
            datasets=3,
            grid=_grid(missing_ratios=(0.1, 0.3, 0.5),
                       **{"lambda": (0.01, 0.1, 1, 10)},
                       beta=(0.1, 1), gamma=(3, 5)),
        ),
    )
}


def dataset_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def write_inputs(workload: Workload, seed: int, directory: str) -> list:
    """Generate the workload's datasets and config files under `directory`.

    Returns one config path per dataset. The config's own seed (solver
    initialisation, missingness draw, k-means repeats) is the benchmark seed.
    """
    configs = []
    for i in range(workload.datasets):
        dataset, _ = datamodel.generate_synthetic(datamodel.SyntheticSpec(
            n_instances=workload.n_instances,
            n_views=workload.n_views,
            n_clusters=CLUSTERS,
            features=(workload.features,) * workload.n_views,
            informative=(workload.informative,) * workload.n_views,
            noise_scale=0.1,
            seed=dataset_seed(seed, i),
        ))
        data_dir = os.path.join(directory, f"dataset_{i}")
        datamodel.save_dataset(dataset, data_dir)
        lines = [f"dataset {data_dir}", f"seed {seed}"]
        lines += [f"{key} {' '.join(f'{v:g}' for v in values)}"
                  for key, values in workload.grid.items()]
        path = os.path.join(directory, f"config_{i}.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        configs.append(path)
    return configs
