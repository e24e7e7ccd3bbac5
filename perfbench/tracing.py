"""Span recorder for the traced run.

Spans are recorded from outside the program, by replacing public functions
with timing wrappers. A wrapper goes into the namespace of the module that
*calls* the function, because `from ... import name` binds the name once per
module: `mvufs.graph.project_offdiag_simplex` sees only S-column
projections, `mvufs.solver.project_offdiag_simplex` only R-column ones.

Spans live in flat arrays until the run ends. A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested in one thread, so the children never overlap.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from mvufs import cli, datamodel, evaluation, graph, selection, solver

# (module whose namespace holds the name, attribute, span name)
TARGETS = (
    (cli, "run_sweep", "cli.run_sweep"),
    (datamodel, "generate_synthetic", "datamodel.generate_synthetic"),
    (datamodel, "save_dataset", "datamodel.save_dataset"),
    (datamodel, "load_dataset", "datamodel.load_dataset"),
    (datamodel, "simulate_missing", "datamodel.simulate_missing"),
    (solver, "build_view_weights", "datamodel.build_view_weights"),
    (solver, "impute_missing", "datamodel.impute_missing"),
    (evaluation, "impute_missing", "datamodel.impute_missing"),
    (solver, "fit", "solver.fit"),
    (solver, "initialize", "solver.initialize"),
    (solver, "sweep", "solver.sweep"),
    (solver, "objective", "solver.objective"),
    (solver, "update_v", "solver.update_v"),
    (solver, "update_u", "solver.update_u"),
    (solver, "update_r", "solver.update_r"),
    (solver, "view_losses", "solver.view_losses"),
    (solver, "update_alpha", "solver.update_alpha"),
    (solver, "save_trace", "solver.save_trace"),
    (solver, "update_similarity", "graph.update_similarity"),
    (solver, "laplacian", "graph.laplacian"),
    (solver, "build_initial_similarity", "graph.build_initial_similarity"),
    (solver, "pairwise_sq_dists", "graph.pairwise_sq_dists.sweep"),
    (graph, "pairwise_sq_dists", "graph.pairwise_sq_dists.init"),
    (graph, "project_offdiag_simplex", "simplex.project_offdiag_simplex.s_update"),
    (solver, "project_offdiag_simplex", "simplex.project_offdiag_simplex.r_update"),
    (evaluation, "kmeans", "evaluation.kmeans"),
    (evaluation, "acc", "evaluation.acc"),
    (evaluation, "nmi", "evaluation.nmi"),
    (evaluation, "run_protocol", "evaluation.run_protocol"),
    (selection, "score_features", "selection.score_features"),
    (selection, "select_top", "selection.select_top"),
    (selection, "save_selection", "selection.save_selection"),
)

# `initialize` imports kmeans from mvufs.evaluation at call time, so one
# wrapper sees both callers; the parent span tells them apart.
SPLIT_BY_PARENT = {
    "evaluation.kmeans": {
        "solver.initialize": "evaluation.kmeans.init",
        "evaluation.run_protocol": "evaluation.kmeans.protocol",
    },
}

SETUP_OP = -1


class Recorder:
    """In-memory spans: name id, parent span index, operation id, start, end."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = SETUP_OP
        self._saved = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        by_parent = None
        if name in SPLIT_BY_PARENT:
            by_parent = {self._intern(parent): self._intern(child)
                         for parent, child in SPLIT_BY_PARENT[name].items()}
        names, stack, open_, close = self.name, self._stack, self._open, self._close

        def wrapper(*args, **kwargs):
            own = nid
            if by_parent is not None and stack[-1] >= 0:
                own = by_parent.get(names[stack[-1]], nid)
            i = open_(own)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def table(self):
        """Per-span arrays: name ids, parent indices, op ids, duration, self time."""
        parent = np.array(self.parent, dtype=np.int32)
        duration = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=duration.size)
        return (np.array(self.name, dtype=np.int32), parent,
                np.array(self.op, dtype=np.int32), duration, duration - child)

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 op=np.array(self.op, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))
