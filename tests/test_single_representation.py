"""Guard: the library works on the CSR tables, never on Python row lists.

An I/O-IMC stores its transitions only as the CSR arrays of its
:class:`repro.ioimc.TransitionIndex`.  The ``interactive``/``markovian``
row views are rebuilt on every access, so a library module walking them
would put a per-state Python loop back on a hot path.  Only the module that
defines the views and the renderer may read them; the names of the retired
row storage must not come back anywhere.
"""

import ast
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules allowed to read the row views (relative to ``src/repro``).
VIEW_READERS = {Path("ioimc/ioimc.py"), Path("ioimc/visualization.py")}

VIEWS = {"interactive", "markovian"}
RETIRED_NAMES = {"_interactive", "_markovian", "rows_from_edges"}


def violations(tree: ast.AST, may_read_views: bool) -> list[tuple[int, str]]:
    # ``builder.interactive(...)`` calls a builder method; a view is a
    # property and is never called, so called attributes are exempt.
    called = {
        id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
            if not may_read_views and node.attr in VIEWS and id(node) not in called:
                found.append((node.lineno, f"reads .{node.attr}"))
        elif isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.alias):
            names.extend([node.name.rsplit(".", 1)[-1], node.asname])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.arg)):
            names.append(getattr(node, "name", None) or getattr(node, "arg", None))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)  # e.g. a ``__slots__`` entry
        for name in names:
            if name in RETIRED_NAMES:
                found.append((getattr(node, "lineno", 0), f"names {name}"))
    return found


def test_only_the_views_module_and_renderer_read_row_views():
    offenders = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        relative = path.relative_to(SOURCE_ROOT)
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, what in violations(tree, relative in VIEW_READERS):
            offenders.append(f"src/repro/{relative.as_posix()}:{line}: {what}")
    assert not offenders, "\n".join(offenders)


def test_guard_detects_a_row_walk():
    code = (
        "from repro.nputil import rows_from_edges\n"
        "def walk(automaton, builder):\n"
        "    builder.interactive('a', 'x', 'b')\n"
        "    return [row for row in automaton.markovian]\n"
    )
    found = violations(ast.parse(code), may_read_views=False)
    assert sorted(what for _, what in found) == [
        "names rows_from_edges",
        "reads .markovian",
    ]
