import dataclasses
import importlib.util
import os
import shutil

from mvufs import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "compare_runs", os.path.join(ROOT, "tools", "compare_runs.py"))
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

# one dataset of the benchmark's first workload at its shrunk size: one cell
SHRUNK = [dataclasses.replace(
    compare_runs.workloads.WORKLOADS["fit-n1000"].shrunk(), datasets=1)]


def test_same_tree_is_identical(tmp_path, capsys):
    assert compare_runs.compare(ROOT, ROOT, SHRUNK, [1, 7], str(tmp_path)) == 0
    out = capsys.readouterr().out
    for seed in (1, 7):
        assert f"seed {seed} fit-n1000 config_0: 4 files, identical\n" in out
    assert "total: 8 files compared, 0 differences or failed runs" in out  # one total
    lines = compare_runs.source_lines(ROOT)
    assert lines > 1000
    assert f"src/mvufs: {lines} lines in parent, {lines} in change (+0)\n" in out


def test_changed_output_and_failed_run_fail(tmp_path, capsys):
    changed = tmp_path / "changed"
    shutil.copytree(os.path.join(ROOT, "src"), changed / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver_py = changed / "src" / "mvufs" / "solver.py"
    source = solver_py.read_text()
    assert '"%.12g"' in source
    solver_py.write_text(source.replace('"%.12g"', '"%.11g"'))
    assert compare_runs.compare(ROOT, str(changed), SHRUNK, [7], str(tmp_path / "a")) == 1
    out = capsys.readouterr().out
    assert "config_0: 4 files, DIFFER: trace_0000.txt\n" in out
    worst = float(out.split("trace_0000.txt: worst relative objective difference ")[1].split()[0])
    assert 0.0 < worst <= 1e-10  # one digit less of the same objectives
    assert compare_runs.compare(ROOT, str(tmp_path / "none"), SHRUNK, [7], str(tmp_path / "b")) == 1
    out = capsys.readouterr().out
    assert "fit-n1000 config_0: FAILED under change" in out
    lines = compare_runs.source_lines(ROOT)
    assert f"src/mvufs: {lines} lines in parent, 0 in change ({-lines:+d})\n" in out


def test_seed_option_takes_several_seeds(monkeypatch):
    calls = []
    monkeypatch.setattr(compare_runs, "compare", lambda *args: calls.append(args) or 0)
    assert compare_runs.main(["a", "b", "--seed", "1", "3", "7"]) == 0
    assert compare_runs.main(["a", "b"]) == 0
    assert [args[3] for args in calls] == [[1, 3, 7], [7]]


def test_trace_difference(tmp_path):
    def trace(name, *objectives):
        path = tmp_path / name
        path.write_text("".join(f"{i} {x}\n" for i, x in enumerate(objectives)))
        return str(path)

    flip = compare_runs.trace_difference(trace("a", 900.0, 816.747714213501),
                                         trace("b", 900.0, 816.7477142135))
    assert flip == "worst relative objective difference 1.25e-15"
    shorter = compare_runs.trace_difference(trace("c", 900.0), trace("d", 900.0, 800.0))
    assert shorter == "sweep counts differ (0 against 1)"


def test_benchmark_configs_pass_validate(tmp_path, capsys):
    # a pre-flight that refused these configs would fail every cell of a workload
    for workload in compare_runs.workloads.WORKLOADS.values():
        (config,) = compare_runs.workloads.write_inputs(
            dataclasses.replace(workload, datasets=1), 7, str(tmp_path / workload.name))
        assert cli.main(["validate", "--config", config]) == 0
    assert capsys.readouterr() == ("", "")
