import dataclasses
import importlib.util
import os
import shutil

import numpy as np

from mvufs import solver
from mvufs.datamodel import SyntheticSpec, generate_synthetic, simulate_missing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "paired_fits", os.path.join(ROOT, "tools", "paired_fits.py"))
paired_fits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_fits)

# the benchmark's grid workload at its shrunk size: 2 datasets of 2 cells
SHRUNK = paired_fits.workloads.WORKLOADS["grid-n120"].shrunk()


def test_same_tree_twice_is_bitwise_equal(tmp_path, capsys):
    trees = [paired_fits.load_tree(ROOT, f"mvufs_same_{side}") for side in ("a", "b")]
    assert trees[0].solver is not trees[1].solver
    configs = paired_fits.workloads.write_inputs(SHRUNK, 1, str(tmp_path))
    parent, change, differ, masks = paired_fits.pair(trees, configs, rounds=2)
    assert len(parent) == len(change) == 2 * SHRUNK.datasets * 2
    assert differ == []
    assert [equal for _, equal in masks] == [True] * (2 * SHRUNK.datasets)
    assert paired_fits.report(parent, change, differ, masks) == 0
    out = capsys.readouterr().out
    assert f"{len(parent)} paired fits" in out
    assert "states: every trace and final state bitwise equal" in out
    assert f"masks: all {len(masks)} masked presence masks bitwise equal" in out


def changed_tree(tmp_path, module: str, old: str, new: str) -> str:
    """A copy of this checkout's `src` with `old` replaced by `new` in `module`."""
    changed = tmp_path / "changed"
    shutil.copytree(os.path.join(ROOT, "src"), changed / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = changed / "src" / "mvufs" / module
    source = path.read_text()
    assert old in source
    path.write_text(source.replace(old, new))
    return str(changed)


def test_a_changed_result_exits_one(tmp_path, capsys, monkeypatch):
    changed = changed_tree(tmp_path, "solver.py", "XI = 1e7", "XI = 1e6")
    monkeypatch.setitem(paired_fits.workloads.WORKLOADS, SHRUNK.name, SHRUNK)
    assert paired_fits.main([ROOT, changed, "--workload", SHRUNK.name, "--rounds", "1"]) == 1
    out = capsys.readouterr().out
    assert f"{SHRUNK.name} seed 5: 2 datasets, 1 rounds" in out
    assert "4 of 4 pairs DIFFER" in out
    assert "  round 0 config 1 cell (0.1, 0.01, 0.1, 3.0, 0.5)" in out
    assert "masks: all 2 masked presence masks bitwise equal" in out


def test_a_changed_mask_exits_one(tmp_path, capsys, monkeypatch):
    changed = changed_tree(tmp_path, "datamodel.py", "np.random.default_rng(seed)",
                           "np.random.default_rng(seed + 1)")
    monkeypatch.setitem(paired_fits.workloads.WORKLOADS, SHRUNK.name, SHRUNK)
    assert paired_fits.main([ROOT, changed, "--workload", SHRUNK.name, "--rounds", "1"]) == 1
    out = capsys.readouterr().out
    assert "masks: 2 of 2 DIFFER" in out
    assert "  round 0 config 0 ratio 0.1" in out


def test_state_bytes_compare_in_the_datasets_order(monkeypatch):
    # a fit that held its instances in cluster order against the same
    # result gathered back into the dataset's order
    monkeypatch.setattr(solver, "BLOCK_MIN_ENTRIES", 0)
    ds, _ = generate_synthetic(SyntheticSpec(40, 3, 3, (6, 6, 6), (2, 2, 2), 0.2, 11))
    ds = simulate_missing(ds, 0.3, seed=12)
    hy = solver.Hyperparameters(lam=0.1, beta=0.1, gamma=3.0, p=0.5, n_clusters=3, max_iter=4,
                                seed=13)
    held = solver.fit(ds, hy)
    order = held.state.order
    assert order is not None and np.any(np.diff(order) < 0)
    inv = np.argsort(order)
    gathered = dataclasses.replace(held, state=dataclasses.replace(
        held.state, v=held.state.v[inv], s=[s[np.ix_(inv, inv)] for s in held.state.s],
        order=None))
    assert not np.array_equal(gathered.state.v, held.state.v)
    assert paired_fits.state_bytes(held) == paired_fits.state_bytes(gathered)
