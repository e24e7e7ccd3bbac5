"""The benchmark's run loop drives `mvufs run` through hooks on program
functions (perfbench/run.py `run_command` wraps `solver.fit`,
`selection.select_top` and `evaluation.run_protocol` with the keywords it
calls them by). A change that breaks a hook makes every benchmark run fail,
so each workload's shrunken inputs go through `run_command` here.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py, loaded with perfbench/ on sys.path only while loading."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]), \
            mock.patch.dict(os.environ):  # bootstrap pins the BLAS thread variables
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["fit-n1000", "grid-n120"])
def test_shrunk_workload_runs_through_the_hooks(run, tmp_path, name):
    workload = run.WORKLOADS[name].shrunk()
    configs = run.write_inputs(workload, 3, str(tmp_path / "inputs"))
    for i, config in enumerate(configs):
        op = run.run_command(config, str(tmp_path / f"out_{i}"), workload.cells)
        assert op["problems"] == [] and op["rows"] == workload.cells
        assert len(op["cells"]) == workload.cells
        for cell in op["cells"]:
            assert cell["problems"] == []
            assert None not in run.outcome(cell)  # sweeps, objective, selection, ACC, NMI
