"""The demos import only names the package still has.

No test runs the demos (some take minutes), so a deleted or renamed
library function would break them silently.  This parses each script
and resolves every name it imports from `qcond`.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def qcond_imports(path):
    """(module, name) for each `from qcond... import name`, and (module,
    None) for each `import qcond...`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qcond":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "qcond")


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = list(qcond_imports(path))
    assert imports, f"{path.name} imports nothing from qcond"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module}.{name} is gone"
