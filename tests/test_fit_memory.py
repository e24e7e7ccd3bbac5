import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "fit_memory", os.path.join(ROOT, "tools", "fit_memory.py"))
fit_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fit_memory)


def test_prints_every_phase_at_small_n(capsys):
    assert fit_memory.main(["--n", "60", "--ratio", "0.3", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("N=60 ratio 0.3 seed 2: ")
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert list(rows) == ["initialize", "sweeps", "_restore_order", "fit"]
    assert rows["_restore_order"] == ["not", "run"]  # 60^2 < BLOCK_MIN_ENTRIES
    peaks = {name: float(cols[0]) for name, cols in rows.items() if cols[0] != "not"}
    assert all(peak > 0 for peak in peaks.values())
    assert peaks["fit"] == max(peaks.values())


def test_restore_peaks_no_higher_than_the_sweeps(capsys):
    # at N=400 initialize sorts the instances, so _restore_order runs
    assert fit_memory.main(["--n", "400", "--ratio", "0.3", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    peaks = {line.split()[0]: float(line.split()[1]) for line in lines[2:]}
    assert list(peaks) == ["initialize", "sweeps", "_restore_order", "fit"]
    assert 0 < peaks["_restore_order"] <= peaks["sweeps"] <= peaks["fit"]
