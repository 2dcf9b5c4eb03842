"""The package's import layout, read from the source with ``ast``.

Exponential oracles live in :mod:`fuzzts.oracles`, and only the package root
(which re-exports them) and the CLI (for ``check-bisim --naive``) import
that module.  The text formats read only the data layer.  No module imports
another's private name, and each setting guard is written once.
"""

import ast
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


def test_only_the_root_and_the_cli_import_the_oracles():
    importers = {name for name, imports in IMPORTS.items() if "oracles" in imports}
    assert importers == {"__init__", "cli"}


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
