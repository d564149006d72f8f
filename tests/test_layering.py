"""Each package module imports only the modules below it."""

import ast
from pathlib import Path

import paritylab

PACKAGE = Path(paritylab.__file__).parent

# module -> the package modules it may import
ALLOWED = {
    "report": set(),
    "core": set(),
    "families": {"core", "report"},
    "solver": {"core"},
    "analyzer": {"core", "families", "report", "solver"},
    "harness": {"analyzer", "core", "families", "solver"},
    "__main__": {"harness"},
}


def _package_imports(tree):
    # package modules named by any import in the file, nested ones included
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "paritylab":
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            if parts:
                out.add(parts[0])
            else:  # from . import x / from paritylab import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "paritylab" and len(parts) > 1:
                    out.add(parts[1])
    return out


def test_modules_import_only_lower_layers():
    found = {
        path.stem: _package_imports(ast.parse(path.read_text(), str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert set(found) == set(ALLOWED)
    extra = {m: sorted(found[m] - ALLOWED[m]) for m in found if found[m] - ALLOWED[m]}
    assert extra == {}
