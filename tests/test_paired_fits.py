import importlib.util
import os
import shutil

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
    parent, change, differ = paired_fits.pair(trees, configs, rounds=2)
    assert len(parent) == len(change) == 2 * SHRUNK.datasets * 2
    assert differ == []
    assert paired_fits.report(parent, change, differ) == 0
    out = capsys.readouterr().out
    assert f"{len(parent)} paired fits" in out
    assert "states: every trace and final state bitwise equal" in out


def test_a_changed_result_exits_one(tmp_path, capsys, monkeypatch):
    changed = tmp_path / "changed"
    shutil.copytree(os.path.join(ROOT, "src"), changed / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver_py = changed / "src" / "mvufs" / "solver.py"
    source = solver_py.read_text()
    assert "XI = 1e7" in source
    solver_py.write_text(source.replace("XI = 1e7", "XI = 1e6"))
    monkeypatch.setitem(paired_fits.workloads.WORKLOADS, SHRUNK.name, SHRUNK)
    assert paired_fits.main([ROOT, str(changed), "--workload", SHRUNK.name, "--rounds", "1"]) == 1
    out = capsys.readouterr().out
    assert f"{SHRUNK.name} seed 5: 2 datasets, 1 rounds" in out
    assert "4 of 4 pairs DIFFER" in out
    assert "  round 0 config 1 cell (0.1, 0.01, 0.1, 3.0, 0.5)" in out
