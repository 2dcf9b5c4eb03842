"""The package's import layout, read from the source with ``ast``.

Exponential oracles and definitional references, the refinement iteration
among them, live in :mod:`fuzzts.oracles`; only that module calls
``bisim.refine``, and only the package root (which re-exports them) and the
CLI (for ``check-bisim --naive``) import it.  The text formats read only
the data layer.  No module imports another's private name, and each
setting guard is written once.  The CLI derives a witness's report from
its fields rather than spelling them.  Only
the constructor and the producers whose images are valid as made (checked
as they are read, or taken from checked systems) call the unchecking image
builder, so public input cannot skip the checks, and only ``core`` reads
the stored form of an image or of a state map.  The
strong check reads its answers through ``core.image_sups``, as every other
check reads its suprema.  The package imports nothing from outside the
standard library, and every function the benchmark's tracer wraps by name
resolves.
"""

import ast
import importlib
import sys
from pathlib import Path

import fuzzts

PACKAGE = Path(fuzzts.__file__).parent


def package_imports(source: str) -> set[str]:
    """The ``fuzzts`` modules a source file imports, by bare name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("fuzzts."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names if alias.name.startswith("fuzzts.")
            )
    return found


SOURCES = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
IMPORTS = {name: package_imports(source) for name, source in SOURCES.items()}


def test_every_module_is_read():
    assert {"__init__", "cli", "core", "bisim", "modelfile", "oracles"} <= IMPORTS.keys()
    assert IMPORTS["cli"] >= {"core", "bisim", "modelfile", "oracles"}


def absolute_imports(source: str):
    """The modules a source file imports by absolute name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_imports_only_the_standard_library():
    imported = {
        (name, module.split(".")[0])
        for name, source in SOURCES.items()
        for module in absolute_imports(source)
    }
    assert {("core", "re"), ("modelfile", "collections")} <= imported
    outside = {pair for pair in imported if pair[1] not in sys.stdlib_module_names}
    assert outside == set()


def test_only_the_root_and_the_cli_import_the_oracles():
    importers = {name for name, imports in IMPORTS.items() if "oracles" in imports}
    assert importers == {"__init__", "cli"}


def test_only_the_oracles_iterate_refinement():
    trees = {name: ast.parse(source) for name, source in SOURCES.items()}
    defining = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "iterate_refinement"
    }
    calling = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "refine" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert defining == {"oracles"}
    assert calling == {"oracles"}


def test_modelfile_reads_only_the_data_layer():
    assert IMPORTS["modelfile"] == {"core", "degrees", "errors"}


def test_no_module_imports_a_private_name():
    private = {
        (name, node.module, alias.name)
        for name, source in SOURCES.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names if alias.name.startswith("_")
    }
    assert private == set()


def test_each_setting_guard_is_written_once():
    message = "relation universes do not match"
    assert sum(source.count(message) for source in SOURCES.values()) == 1
    raised = [
        name
        for name, source in SOURCES.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "AlphabetError"
    ]
    assert raised == ["core"]


def test_the_cli_spells_no_witness_degree_field():
    spelled = {"leftDegree", "rightDegree", "left-degree", "right-degree"}
    assert {name for name in spelled if name in SOURCES["cli"]} == set()


def test_the_word_bound_guard_is_written_once():
    assert sum(source.count("max_len must be >= 0") for source in SOURCES.values()) == 1


def scopes_naming(tree: ast.AST, attr: str, scope: str = ""):
    """The qualified name of the innermost function or class around each use
    of the attribute ``attr`` in a tree, "" at a module's top level."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}".lstrip(".")
        elif isinstance(node, ast.Attribute) and node.attr == attr:
            yield scope
        yield from scopes_naming(node, attr, inner)


def test_only_producers_of_checked_images_call_the_builder():
    uses = [
        (module, scope)
        for module, source in SOURCES.items()
        for scope in scopes_naming(ast.parse(source), "_from_images")
    ]
    assert sorted(uses) == [
        ("algebra", "_quotient"),
        ("algebra", "hom_image"),
        ("algebra", "parallel_compose"),
        ("core", "Fts.__init__"),
        ("core", "Fts.from_triples"),
        ("modelfile", "parse_model"),
    ]


def test_only_core_reads_the_stored_images():
    readers = {
        module
        for module, source in SOURCES.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("_delta", "_entries", "_table")
    }
    assert readers == {"core"}


def test_the_strong_check_reads_its_answers_through_the_one_supremum_rule():
    check = next(
        node for node in ast.walk(ast.parse(SOURCES["bisim"]))
        if isinstance(node, ast.FunctionDef) and node.name == "check_strong_bisimulation"
    )
    names = {node.id for node in ast.walk(check) if isinstance(node, ast.Name)}
    assert "image_sups" in names
    assert "max" not in names


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    """``perfbench/tracing.py`` wraps package functions by name, a dotted
    name being a classmethod; a moved or renamed function fails here."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    for layer, name in tracing.WRAPPED:
        module = importlib.import_module(f"fuzzts.{layer}")
        if "." in name:
            cls_name, method = name.split(".")
            assert isinstance(vars(getattr(module, cls_name)).get(method), classmethod), name
        else:
            assert callable(getattr(module, name, None)), (layer, name)
