"""The package's module import graph, read from the source with ast.

The fits (align, regress, fuse) take plain arrays and import no other branch:
only pipeline composes the branches, so one module decides what each fit is
given (for instance, how the regression branch's retrieved targets are made).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "duet"

# module -> the package modules it imports, exactly. The fits (align,
# regress, fuse) import only core, errors and tsvio.
EXPECTED = {
    "__init__": set(),
    "errors": set(),
    "core": {"errors"},
    "tsvio": {"core", "errors"},
    "metrics": {"core", "errors"},
    "scprior": {"core", "errors"},
    "synth": {"core", "errors", "scprior"},
    "align": {"core", "errors", "tsvio"},
    "regress": {"core", "errors", "tsvio"},
    "fuse": {"core", "errors", "tsvio"},
    "retrieval": {"align", "core", "errors"},
    "pipeline": {"align", "core", "errors", "fuse", "metrics", "regress",
                 "retrieval", "scprior", "synth", "tsvio"},
    "cli": {"errors", "metrics", "pipeline", "tsvio"},
}


def package_imports(source: str) -> set[str]:
    """The duet modules that `source` imports, relatively or as duet.<name>,
    anywhere in the file."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("duet"):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]  # drop the package name
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x, from duet import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("duet."))
    return found


def import_graph() -> dict[str, set[str]]:
    return {path.stem: package_imports(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_import_graph_matches_the_table():
    graph = import_graph()
    assert set(graph) == set(EXPECTED), "a module was added or removed"
    wrong = {name: (sorted(graph[name] - want), sorted(want - graph[name]))
             for name, want in EXPECTED.items() if graph[name] != want}
    assert wrong == {}, "module: (unexpected imports, missing imports)"


def test_scanner_reads_every_import_form():
    source = ("from .core import Mlp\nfrom . import tsvio\nimport duet.align\n"
              "from duet.retrieval import rebuild_db\nfrom duet import fuse\n"
              "import numpy as np\nfrom dataclasses import dataclass\n"
              "def f():\n    from .errors import InputError\n")
    assert package_imports(source) == {"core", "tsvio", "align", "retrieval",
                                       "fuse", "errors"}
