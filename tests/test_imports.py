"""Every module of the package (bar __init__, which re-exports) and every
test file uses each name it imports: as a name, as the base of an attribute
or in __all__. A package module imports an underscore name from another
package module only where PRIVATE_IMPORTS lists it. Every name in a package
module's __all__, __init__'s included, exists there and is listed once."""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = [p for p in sorted((ROOT / "src" / "matprod").glob("*.py")) if p.name != "__init__.py"]
FILES += sorted((ROOT / "tests").glob("*.py"))
# importing module: the "module.name" underscore names it takes from the package
PRIVATE_IMPORTS = {
    "exponents": {"linalg._as_matrix"},
    "experiments": {"exponents._bound_clears", "exponents._samples", "exponents._to_svd", "exponents._tree_pairs_2x2"},
}


def unused_imports(path: Path) -> list[str]:
    """path:line: name for each name path imports and never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):  # an attribute's base is a Name too
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert [entry for path in FILES for entry in unused_imports(path)] == []


def private_imports(path: Path) -> set[str]:
    """module.name for each underscore name, bar dunders, path imports from a package module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("matprod.")):
            module = (node.module or "").removeprefix("matprod.")
            found.update(f"{module}.{alias.name}" for alias in node.names
                         if alias.name.startswith("_") and not alias.name.endswith("__"))
    return found


def test_package_modules_import_only_the_listed_private_names():
    found = {path.stem: private_imports(path) for path in FILES if path.parent.name == "matprod"}
    assert {module: names for module, names in found.items() if names} == PRIVATE_IMPORTS


def test_every_exported_name_exists_once():
    stems = ["matprod"] + [f"matprod.{p.stem}" for p in FILES if p.parent.name == "matprod"]
    for module in map(importlib.import_module, stems):
        names = module.__all__
        assert len(set(names)) == len(names), module.__name__
        assert [name for name in names if not hasattr(module, name)] == [], module.__name__
