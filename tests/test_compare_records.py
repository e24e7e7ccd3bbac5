import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "compare_records", os.path.join(ROOT, "tools", "compare_records.py"))
compare_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_records)


def write_run(directory, name, cells, dataset=0):
    os.makedirs(directory, exist_ok=True)
    record = {"workload": "w", "seed": 1, "smoke": False,
              "operations": [{"dataset": dataset, "cells": cells}]}
    with open(os.path.join(directory, name), "w") as fh:
        json.dump(record, fh)


def cell(**kw):
    base = dict(sweeps=3, converged=True, objective="2.0", selection="ab", acc=0.5, nmi=0.25)
    base.update(kw)
    return base


def test_equal_outputs_pass(tmp_path, capsys):
    write_run(tmp_path / "a", "r1.json", [cell(), cell(sweeps=4)])
    write_run(tmp_path / "b", "r1.json", [cell(objective="2.0000000000001"), cell(sweeps=4)])
    assert compare_records.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "w seed 1 dataset 0: 2 cell comparisons, worst objective rel diff 5e-14" in out


@pytest.mark.parametrize("change,field", [
    (dict(sweeps=4), "sweeps"), (dict(converged=False), "converged"),
    (dict(selection="cd"), "selection"), (dict(acc=0.6), "acc"), (dict(nmi=0.2), "nmi"),
])
def test_any_difference_fails(tmp_path, capsys, change, field):
    write_run(tmp_path / "a", "r1.json", [cell()])
    write_run(tmp_path / "b", "r1.json", [cell(**change)])
    assert compare_records.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert f"MISMATCH change r1.json ('w', 1, False, 0, 0): {field}" in capsys.readouterr().out


def test_objective_past_tolerance_and_disjoint_sets_fail(tmp_path):
    write_run(tmp_path / "a", "r1.json", [cell()])
    write_run(tmp_path / "b", "r1.json", [cell(objective="2.001")])
    write_run(tmp_path / "c", "r1.json", [cell()], dataset=1)
    assert compare_records.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert compare_records.main([str(tmp_path / "a"), str(tmp_path / "b"), "--rtol", "1e-2"]) == 0
    assert compare_records.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
