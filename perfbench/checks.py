"""Output checks. Each returns a list of problems; an empty list means the
output is correct. A failed check marks its cell failed and never raises."""

from __future__ import annotations

import functools
import math

import numpy as np

from mvufs import graph

SIMPLEX_TOL = 1e-8
MONOTONE_TOL = 1e-6  # relative rise allowed between sweeps, as in the tests


def guarded(check):
    @functools.wraps(check)
    def run(value) -> list:
        try:
            return check(value)
        except Exception as exc:  # a crashing check is a failed check
            return [f"{check.__name__} raised {type(exc).__name__}: {exc}"]
    return run


@guarded
def fit_problems(result) -> list:
    problems = []
    trace = np.asarray(result.trace, dtype=float)
    if not np.all(np.isfinite(trace)):
        problems.append("objective trace is not finite")
    elif np.any(trace[1:] > trace[:-1] * (1.0 + MONOTONE_TOL)):
        problems.append("objective trace increases")
    state = result.state
    for k, s in enumerate(state.s):
        try:
            graph.check_similarity(s)
        except ValueError as exc:
            problems.append(f"S[{k}]: {exc}")
    try:
        graph.check_coefficients(state.r)
    except ValueError as exc:
        problems.append(f"R: {exc}")
    alpha = np.asarray(state.alpha)
    if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > SIMPLEX_TOL:
        problems.append("alpha is off the simplex")
    if not all(np.all(u >= 0) and np.all(np.isfinite(u)) for u in state.u):
        problems.append("some U is negative or non-finite")
    if not (np.all(state.v >= 0) and np.all(np.isfinite(state.v))):
        problems.append("V is negative or non-finite")
    return problems


@guarded
def report_problems(report) -> list:
    return [
        f"{name}={value!r} outside [0, 1]"
        for name, value in (("acc_mean", report.acc_mean), ("nmi_mean", report.nmi_mean))
        if not (math.isfinite(value) and 0.0 <= value <= 1.0)
    ]


def report_rows(path: str) -> int:
    """Data rows in a `mvufs run` report.txt; -1 when the file is missing."""
    try:
        with open(path) as fh:
            return sum(1 for line in fh if line.strip() and not line.startswith("#"))
    except OSError:
        return -1
