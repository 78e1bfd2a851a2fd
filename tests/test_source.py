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
    "lchs.measured_r",  # test_lchs.py::test_rp_bound_dominates_measured_gap; ROADMAP's LCHS trade-off item gives it a run
    "lchs.measured_p",  # test_lchs.py::test_rp_bound_dominates_measured_gap, the P side of the measured gap
    "lchs.rp_bound_approx",  # test_lchs.py::test_rp_bound_equals_approx_at_limit_weight
    "lchs.sample_tail",  # test_lchs.py::test_sample_tail_unbiased_against_quadrature
    "partition.fragment_bound",  # test_partition.py::test_fragment_bound_formula_and_instances; ROADMAP's `hybridlcu optimize` item
    "partition.tail_bound_R",  # test_lchs.py::test_rp_bound_is_tail_bound_in_normalized_weights; ROADMAP's `hybridlcu optimize` item
    "qcore.expm_i_hermitian",  # test_lchs.py::loop_propagators, the per-node oracle of the batched propagators
    "qlss.assemble",  # test_qlss.py::test_inverse_error_matches_assembled_matrix_route, the matrix the error reads
    "qlss.group_operator",  # test_qlss.py::test_r_int_direct_matches_bruteforce, the sum over j of K_j
)


def _bindings(tree):
    """({alias: module}, {name: (module, name)}) for the package imports anywhere in a file.

    ``from . import m`` and ``from hybridlcu import m`` bind module aliases;
    ``from .m import f`` and ``from hybridlcu.m import f`` bind m's names.
    """
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package, _, source = (node.module or "").partition(".")
        if node.level:
            source = node.module or ""
        elif package != "hybridlcu":
            continue
        for alias in node.names:
            if source:
                imported[alias.asname or alias.name] = (source, alias.name)
            else:
                aliases[alias.asname or alias.name] = alias.name
    return aliases, imported


def _references(node, stem, bindings):
    """(module, name) of every package name the code refers to.

    An imported name and an attribute of a module alias belong to the
    module they come from; any other bare name belongs to ``stem``, the
    module the code sits in (None for a test file).
    """
    aliases, imported = bindings
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases:
            refs.add((aliases[n.value.id], n.attr))
        elif isinstance(n, ast.Name) and n.id in imported:
            refs.add(imported[n.id])
        elif isinstance(n, ast.Name) and stem is not None and n.id not in aliases:
            refs.add((stem, n.id))
    return refs


def test_every_export_is_reached():
    # a function or class in __all__ is named by other src code, named by the
    # pinned acceptance tests, or listed above; a listed name that gains a caller
    # leaves the list. Names resolve to their module, so lchs calling its own
    # assemble does not reach qlss.assemble
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bindings = {stem: _bindings(tree) for stem, tree in modules.items()}
    # (module, name the statement defines, references) per top-level statement
    statements = [
        (stem, getattr(node, "name", None), _references(node, stem, bindings[stem]))
        for stem, tree in modules.items()
        for node in tree.body
    ]
    acceptance_tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    acceptance = _references(acceptance_tree, None, _bindings(acceptance_tree))
    unreached = []
    for stem in modules:
        module = importlib.import_module("hybridlcu" if stem == "__init__" else f"hybridlcu.{stem}")
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            # a re-exported name is reached through the module that defines it
            key = (obj.__module__.rpartition(".")[2], obj.__name__)
            used = any(key in refs for where, defined, refs in statements if (where, defined) != key)
            if not used and key not in acceptance:
                unreached.append(f"{stem}.{export}")
    assert sorted(unreached) == sorted(NAMED_ORACLES)
