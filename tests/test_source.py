"""Rules checked on the package source itself."""

import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hybridlcu"


def test_no_bare_assert_in_package():
    # assert vanishes under python -O; invariants must raise explicitly
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _import_time_nodes(node):
    # everything that runs when the module is imported: function bodies are skipped
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_no_module_level_scipy_import():
    # scipy is slow to import and only the LCHS accuracy checks use it; argparse
    # pulls in gettext on every run, and cli reads argv from its own flag table
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("scipy", "argparse") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_all_exports_resolve():
    # a name left in __all__ after its definition is deleted breaks `import *`
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "hybridlcu" if path.stem == "__init__" else f"hybridlcu.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{export}" for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []



def test_no_unused_imports():
    # a module-level import that no code reads is dead weight, and a slow one costs every run
    tests = pathlib.Path(__file__).resolve().parent
    offenders = []
    for path in sorted([*SRC.glob("*.py"), *tests.glob("*.py")]):
        if path.name == "__init__.py":
            continue  # re-exports
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        for node in _import_time_nodes(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                offenders += [f"{path.name}:{node.lineno}:{name}" for name in bound if name not in read | exported]
    assert offenders == []
