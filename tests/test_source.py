"""Rules checked on the package source itself."""

import ast
import importlib
import inspect
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hybridlcu"


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


def test_no_object_setattr_in_package():
    # a class that stores derived state sets plain attributes in __init__; a frozen
    # dataclass patched through object.__setattr__ is a second idiom for the same thing
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        if isinstance(node.value, ast.Name) and node.value.id == "object"
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


def test_bare_import_loads_no_submodule():
    # `import hybridlcu` is for __version__; each entry point imports the modules it uses
    code = "import sys, hybridlcu; print(sorted(name for name in sys.modules if name.startswith('hybridlcu.')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_all_exports_resolve():
    # a name left in __all__ after its definition is deleted breaks `import *`
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "hybridlcu" if path.stem == "__init__" else f"hybridlcu.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{export}" for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_csv_names_declared_once():
    # every CSV file name in cli.py sits in the _SUBCOMMANDS table, which the
    # handlers, --emit-plot-script and the tests all read
    tree = ast.parse((SRC / "cli.py").read_text())
    (table,) = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_SUBCOMMANDS" for t in node.targets)
    ]
    inside = {id(node) for node in ast.walk(table)}
    outside = [
        f"cli.py:{node.lineno}:{node.value}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".csv" in node.value
        if id(node) not in inside
    ]
    assert outside == []


def test_version_declared_once():
    # pyproject.toml reads the version from hybridlcu.__version__, which every
    # CSV trailer and --version print; read as text, since Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^\s*version\s*=\s*[\"']", text, re.MULTILINE) is None
    assert 'dynamic = ["version"]' in text
    assert 'version = {attr = "hybridlcu.__version__"}' in text


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


# Exports that no run reaches yet and that the pinned acceptance tests do not
# name: each is an oracle that another test compares against.
NAMED_ORACLES = (
    "lchs.measured_r",  # test_lchs.py::test_rp_bound_dominates_measured_gap; ROADMAP item 4 gives it a run
    "lchs.measured_p",  # test_lchs.py::test_rp_bound_dominates_measured_gap, the P side of the measured gap
    "lchs.rp_bound_approx",  # test_lchs.py::test_rp_bound_equals_approx_at_limit_weight
    "lchs.sample_tail",  # test_lchs.py::test_sample_tail_unbiased_against_quadrature
    "partition.fragment_bound",  # test_partition.py::test_fragment_bound_formula_and_instances; ROADMAP item 1
    "partition.tail_bound_R",  # test_lchs.py::test_rp_bound_is_tail_bound_in_normalized_weights; ROADMAP item 1
    "qcore.expm_i_hermitian",  # test_lchs.py::loop_propagators, the per-node oracle of the batched propagators
    "qlss.group_operator",  # test_qlss.py::test_r_int_direct_matches_bruteforce, the sum over j of K_j
)


def _names(node):
    # every identifier the code refers to: plain names, attributes and imported names
    return {
        getattr(n, "id", None) or getattr(n, "attr", None) or n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_export_is_reached():
    # a function or class in __all__ is named by other src code, named by the
    # pinned acceptance tests, or listed above; a listed name that gains a caller
    # leaves the list
    # (module, name the statement defines, names it uses) per top-level statement
    statements = [
        (path.stem, getattr(node, "name", None), _names(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    acceptance = _names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("hybridlcu" if path.stem == "__init__" else f"hybridlcu.{path.stem}")
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            used = any(export in names for stem, defined, names in statements if (stem, defined) != (path.stem, export))
            if not used and export not in acceptance:
                unreached.append(f"{path.stem}.{export}")
    assert sorted(unreached) == sorted(NAMED_ORACLES)
