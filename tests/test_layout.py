"""The package's import layout, read from the source with ``ast``.

Exponential oracles live in :mod:`fuzzts.oracles`, and only the package root
(which re-exports them) and the CLI (for ``check-bisim --naive``) import
that module.  The text formats read only the data layer.
"""

import ast
from pathlib import Path

import fuzzts

PACKAGE = Path(fuzzts.__file__).parent


def package_imports(path: Path) -> set[str]:
    """The ``fuzzts`` modules a source file imports, by bare name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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


IMPORTS = {path.stem: package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_module_is_read():
    assert {"__init__", "cli", "core", "bisim", "modelfile", "oracles"} <= IMPORTS.keys()
    assert IMPORTS["cli"] >= {"core", "bisim", "modelfile", "oracles"}


def test_only_the_root_and_the_cli_import_the_oracles():
    importers = {name for name, imports in IMPORTS.items() if "oracles" in imports}
    assert importers == {"__init__", "cli"}


def test_modelfile_reads_only_the_data_layer():
    assert IMPORTS["modelfile"] == {"core", "degrees", "errors"}
