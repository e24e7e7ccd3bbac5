"""The benchmark's span recorder wraps program functions by module and name.

perfbench/tracing.py lists them in TARGETS; a name the program stops binding
makes a traced benchmark run fail with AttributeError, so every one is checked
here. The file is read, not imported, so nothing is written beside it.
"""

from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_bound():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in namespace["TARGETS"]
               if not hasattr(module, attr)]
    assert namespace["TARGETS"] and missing == []
