"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "hazardvlm").glob("*.py"))

# (module, name): imports kept unused on purpose. The benchmark's tracer
# (perfbench/bench_trace.py) patches these names on the cli module.
ALLOWED = {
    ("cli", "grid_to_pixel"),
    ("cli", "hard_argmax"),
    ("cli", "apply_checkpoint"),
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no other part of the module
    reads (``__all__`` entries count as reads)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom math import pi, tau\nfrom x import y as z\nprint(tau)\n"
    assert unused_imports(source) == ["os", "pi", "z"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path.read_text(encoding="utf-8")) if (path.stem, name) not in ALLOWED]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_the_allowed_imports_are_still_unused():
    # an entry the module has come to use, or no longer imports, goes
    for module, name in ALLOWED:
        assert name in unused_imports((SOURCES[0].parent / f"{module}.py").read_text(encoding="utf-8"))
