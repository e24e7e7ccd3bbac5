"""Multi-view dataset containers, text I/O, missingness simulation and imputation.

A dataset holds l per-view feature matrices X^(v) of shape (d_v, N) with
nonnegative entries, an N x l presence mask (1 = instance observed in that
view) and optional ground-truth labels. All containers are immutable after
construction; operations are pure given (inputs, seed). A dataset works out
its own weighted-NMF weights from its presence mask (`weights`) and keeps the
solver's starts on it (`starts`), both once per dataset object.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np


# Repair steps simulate_missing may take before it gives up.
REPAIR_STEPS = 1000


class DatasetError(ValueError):
    """Raised for malformed datasets, manifests or matrix files."""


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, the caller's array left as it is: `weights`
    and `starts` are worked out once, so the arrays they come from must not
    change through the dataset."""
    a = a.view()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MultiViewDataset:
    views: tuple  # l arrays, each (d_v, N), nonnegative
    presence: np.ndarray  # (N, l) binary mask
    labels: np.ndarray | None = None

    def __post_init__(self):
        views = tuple(_read_only(np.asarray(x, dtype=float)) for x in self.views)
        object.__setattr__(self, "views", views)
        if len(views) == 0:
            raise DatasetError("dataset needs at least one view")
        n = views[0].shape[1]
        for v, x in enumerate(views):
            if x.ndim != 2:
                raise DatasetError(f"view {v} is not a matrix")
            if x.shape[0] == 0:
                raise DatasetError(f"view {v} has no features")
            if x.shape[1] != n:
                raise DatasetError(
                    f"view {v} has {x.shape[1]} instances, expected {n}"
                )
            if np.any(x < 0):
                raise DatasetError(f"view {v} contains a negative entry")
            if not np.all(np.isfinite(x)):
                raise DatasetError(f"view {v} contains a non-finite entry")
        presence = _read_only(np.asarray(self.presence))
        object.__setattr__(self, "presence", presence)
        if presence.shape != (n, len(views)):
            raise DatasetError(
                f"presence mask shape {presence.shape} != ({n}, {len(views)})"
            )
        if not np.all(np.isin(presence, (0, 1))):
            raise DatasetError("presence entries must be 0 or 1")
        if np.any(presence.sum(axis=1) == 0):
            raise DatasetError("some instance is present in zero views")
        if np.any(presence.sum(axis=0) == 0):
            raise DatasetError("some view has zero present instances")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=int)
            object.__setattr__(self, "labels", labels)
            if labels.shape != (n,):
                raise DatasetError("labels must have one entry per instance")

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_instances(self) -> int:
        return self.views[0].shape[1]

    @property
    def feature_counts(self) -> tuple:
        return tuple(x.shape[0] for x in self.views)

    @property
    def is_complete(self) -> bool:
        return bool(np.all(self.presence == 1))

    @functools.cached_property
    def weights(self) -> tuple:
        """Per view, the diagonal WNMF weights of the N instances (see
        build_view_weights), computed once."""
        return build_view_weights(self)

    @functools.cached_property
    def starts(self) -> dict:
        """The solver's starts on this dataset, filled by the fits that need
        them (see solver.initialize) and freed with the dataset."""
        return {}


@dataclass(frozen=True)
class SyntheticSpec:
    n_instances: int
    n_views: int
    n_clusters: int
    features: tuple  # per-view feature counts
    informative: tuple  # per-view count of planted discriminative features
    noise_scale: float = 0.1
    seed: int = 0

    # field -> (a test every valid value passes, message), as Hyperparameters.RULES
    RULES = {
        "noise_scale": (lambda x: 0 <= x < np.inf, "noise_scale must be nonnegative and finite"),
        "seed": (lambda x: x >= 0, "seed must be nonnegative"),
    }

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(int(d) for d in self.features))
        object.__setattr__(
            self, "informative", tuple(int(m) for m in self.informative)
        )
        if self.n_clusters < 2 or self.n_instances < self.n_clusters:
            raise DatasetError("need N >= c >= 2")
        if len(self.features) != self.n_views or len(self.informative) != self.n_views:
            raise DatasetError("features/informative must have one entry per view")
        for d, m in zip(self.features, self.informative):
            if not (0 <= m <= d):
                raise DatasetError("informative count must be within [0, d_v]")
        for name, (valid, message) in self.RULES.items():
            if not valid(getattr(self, name)):
                raise DatasetError(f"{name}={getattr(self, name)}: {message}")


def build_view_weights(dataset: MultiViewDataset) -> tuple:
    """Diagonal WNMF weights, one length-N vector per view: 1 for present
    instances, the view's presence fraction otherwise, so every entry lies in
    (0, 1] (a view has at least one present instance)."""
    n = dataset.n_instances
    vectors = []
    for v in range(dataset.n_views):
        col = dataset.presence[:, v].astype(float)
        frac = col.sum() / n
        vectors.append(np.where(col == 1, 1.0, frac))
    return tuple(vectors)


def simulate_missing(dataset: MultiViewDataset, ratio: float, seed: int) -> MultiViewDataset:
    """Mark floor(ratio * N) instances absent in each view, uniformly at random.

    Sampling is independent across views; instances that end up absent
    everywhere are repaired by swapping presence with a randomly chosen
    instance that can spare a view, keeping per-view absence counts exact.
    A count that leaves fewer present slots than instances (one view, any
    nonzero count) is refused before any draw. Data entries of absent
    instances are retained in storage.
    """
    if not dataset.is_complete:
        raise DatasetError("simulate_missing expects a complete dataset")
    if not (0 <= ratio <= 0.5):
        raise DatasetError("missing ratio must lie in [0, 0.5]")
    n, l = dataset.n_instances, dataset.n_views
    n_absent = int(np.floor(ratio * n))
    if n_absent == 0:
        return dataset
    if l * (n - n_absent) < n:  # fewer present slots than instances: no repair can help
        raise DatasetError(f"masking {n_absent} of {n} instances in each of {l} view(s) "
                           f"leaves some instance in no view")
    rng = np.random.default_rng(seed)
    presence = np.ones((n, l), dtype=int)
    for v in range(l):
        absent = rng.choice(n, size=n_absent, replace=False)
        presence[absent, v] = 0
    for _ in range(REPAIR_STEPS):
        lost = np.flatnonzero(presence.sum(axis=1) == 0)
        if lost.size == 0:
            return MultiViewDataset(dataset.views, presence, dataset.labels)
        i = lost[0]
        v = int(rng.integers(l))
        donors = np.flatnonzero((presence[:, v] == 1) & (presence.sum(axis=1) >= 2))
        if donors.size == 0:
            continue
        j = int(donors[rng.integers(donors.size)])
        presence[i, v] = 1
        presence[j, v] = 0
    raise DatasetError(
        f"could not satisfy the at-least-one-view constraint after "
        f"{REPAIR_STEPS} repair steps (ratio={ratio})"
    )


def present_means(x: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Mean of each row of x over the present instances.

    The sum runs in instance order (a running sum), so a row's mean is the
    same to the bit whichever other rows x holds; a reduction's summation
    order depends on the shape of the array it reduces.
    """
    return np.cumsum(x[:, present], axis=1)[:, -1] / np.count_nonzero(present)


def impute_missing(dataset: MultiViewDataset) -> list:
    """Replace absent columns of each view by the per-feature mean over present ones."""
    out = []
    for v, x in enumerate(dataset.views):
        col = dataset.presence[:, v]
        present = col == 1
        filled = x.copy()
        if not np.all(present):
            filled[:, ~present] = present_means(x, present)[:, None]
        out.append(filled)
    return out


def generate_synthetic(spec: SyntheticSpec):
    """Generate a labeled complete dataset with planted discriminative features.

    Informative features get cluster-dependent nonnegative means; the rest are
    cluster-independent noise scaled by noise_scale. Returns the dataset and,
    per view, the indices of the planted informative features.
    """
    rng = np.random.default_rng(spec.seed)
    n, c = spec.n_instances, spec.n_clusters
    labels = rng.permutation(np.arange(n) % c)
    views = []
    planted = []
    for d, m in zip(spec.features, spec.informative):
        x = spec.noise_scale * rng.uniform(0.0, 1.0, size=(d, n))
        idx = rng.choice(d, size=m, replace=False)
        idx.sort()
        means = rng.uniform(1.0, 3.0, size=(m, c))
        x[idx, :] += means[:, labels]
        views.append(x)
        planted.append(idx)
    dataset = MultiViewDataset(
        tuple(views), np.ones((n, spec.n_views), dtype=int), labels
    )
    return dataset, planted


# --- dataset directory format ------------------------------------------------
#
# manifest.txt lines (order free, '#' comments allowed):
#   views <l>
#   view <matrix-file> <d_v> <N>      (one line per view, in view order)
#   labels <file>                     (optional; one integer per line)
#   mask <file>                       (optional; N lines of l space-separated 0/1)
# Matrix files are dense text: one feature (row) per line, N columns.

MANIFEST_NAME = "manifest.txt"


def read_matrix(path: str, dtype=float, ndmin: int = 2) -> np.ndarray:
    try:
        return np.loadtxt(path, dtype=dtype, ndmin=ndmin)
    except ValueError as exc:
        raise DatasetError(f"malformed file {path}: {exc}") from exc


def save_dataset(dataset: MultiViewDataset, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = [f"views {dataset.n_views}"]
    for v, x in enumerate(dataset.views):
        name = f"view_{v}.txt"
        np.savetxt(os.path.join(directory, name), x, fmt="%.12g")
        lines.append(f"view {name} {x.shape[0]} {x.shape[1]}")
    if dataset.labels is not None:
        np.savetxt(os.path.join(directory, "labels.txt"), dataset.labels, fmt="%d")
        lines.append("labels labels.txt")
    if not dataset.is_complete:
        np.savetxt(os.path.join(directory, "mask.txt"), dataset.presence, fmt="%d")
        lines.append("mask mask.txt")
    with open(os.path.join(directory, MANIFEST_NAME), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(directory: str) -> MultiViewDataset:
    """Load a dataset directory; the manifest is authoritative about which files count."""
    manifest = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(manifest):
        raise DatasetError(f"no {MANIFEST_NAME} in {directory}")
    declared_views = None
    view_entries = []
    labels_path = None
    mask_path = None
    with open(manifest) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, *vals = line.split()
            try:
                if key in ("views", "labels", "mask") and len(vals) > 1:
                    raise ValueError(f"'{key}' takes one value")
                if key == "views":
                    declared_views = int(vals[0])
                    if declared_views < 1:
                        raise ValueError("a dataset needs at least one view")
                elif key == "view":
                    if len(vals) != 3:
                        raise ValueError("expected 'view <file> <d> <N>'")
                    if int(vals[1]) < 1:
                        raise ValueError(f"view {vals[0]} needs at least one feature")
                    view_entries.append((vals[0], int(vals[1]), int(vals[2])))
                elif key == "labels":
                    labels_path = vals[0]
                elif key == "mask":
                    mask_path = vals[0]
                else:
                    raise ValueError(f"unknown key '{key}'")
            except IndexError:
                raise DatasetError(f"manifest line {lineno}: '{key}' needs a value") from None
            except ValueError as exc:
                raise DatasetError(f"manifest line {lineno}: {exc}") from exc
    if declared_views is None:
        raise DatasetError("manifest missing 'views' line")
    if len(view_entries) != declared_views:
        raise DatasetError(
            f"manifest declares {declared_views} views but lists "
            f"{len(view_entries)} view lines"
        )
    views = []
    for name, d, n in view_entries:
        x = read_matrix(os.path.join(directory, name))
        if x.shape != (d, n):
            raise DatasetError(
                f"view file {name} has shape {x.shape}, manifest says ({d}, {n})"
            )
        if np.any(x < 0):
            raise DatasetError(f"negative entry in view file {name}")
        views.append(x)
    n = views[0].shape[1]
    labels = None
    if labels_path is not None:
        labels = read_matrix(os.path.join(directory, labels_path), int, ndmin=1)
    if mask_path is not None:
        presence = read_matrix(os.path.join(directory, mask_path), int)
    else:
        presence = np.ones((n, len(views)), dtype=int)
    return MultiViewDataset(tuple(views), presence, labels)
