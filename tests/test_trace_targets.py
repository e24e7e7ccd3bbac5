"""The benchmark's span recorder wraps program functions by module and name.

perfbench/tracing.py lists them in TARGETS; a name the program stops binding
makes a traced benchmark run fail with AttributeError, so every one is checked
here. The other way round, a name the program imports only for the recorder
(a `# noqa: F401` import) must be one that TARGETS wraps in that module. The
file is read, not imported, so nothing is written beside it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "mvufs"


def traced_targets():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["TARGETS"]


def unused_imports():
    """(module name, bound name) of every `# noqa: F401` import in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
            ):
                found += [(f"mvufs.{path.stem}", a.asname or a.name) for a in node.names]
    return found


def test_every_traced_name_is_bound():
    targets = traced_targets()
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in targets
               if not hasattr(module, attr)]
    assert targets and missing == []


def test_every_unused_import_is_a_traced_name():
    wrapped = {(module.__name__, attr) for module, attr, _ in traced_targets()}
    found = unused_imports()
    assert found and [name for name in found if name not in wrapped] == []
