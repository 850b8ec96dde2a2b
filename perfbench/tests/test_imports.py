"""``perfbench`` uses only public ``repro`` names, so the legacy
harness (``repro.bench``) can be deleted without touching it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1]


def repro_imports():
    """``(file, module, name)`` for every import of ``repro``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield path, alias.name, None
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield path, node.module, alias.name


def test_perfbench_imports_repro_somewhere():
    assert list(repro_imports())


def test_no_import_of_the_legacy_bench_package():
    legacy = [(str(path), module) for path, module, name
              in repro_imports()
              if "bench" in module.split(".")
              or (module == "repro" and name == "bench")]
    assert legacy == []


def test_no_underscore_prefixed_name_from_repro():
    private = [(str(path), module, name) for path, module, name
               in repro_imports()
               if any(part.startswith("_") for part in module.split("."))
               or (name or "").startswith("_")]
    assert private == []


def test_no_private_attribute_of_a_repro_object_is_touched():
    # ``engine._catalog`` and the like: any ``._name`` attribute access
    # outside ``self._x`` is a reach into someone's internals.
    reaches = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.parent.name == "tests":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                reaches.append((str(path), node.lineno, node.attr))
    assert reaches == []
