"""The exported library surface is what the program uses.

Every name in the export tables of ``repro``, ``repro.core``,
``repro.designs``, ``repro.util`` and ``repro.faults`` must be used
somewhere a user reaches: in ``src/`` outside its own definition and the
``__init__`` export tables, in ``examples/``, or as a layer the
benchmark times (``e2ebench/layers.py``). A name no figure, command,
example or gate uses is deleted rather than exported; the few kept
anyway are listed in ``KEEP`` with the reason.
"""

import ast
import os

import pytest

import repro
import repro.core
import repro.designs
import repro.faults
import repro.util

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")

#: Export-table assignments in ``__init__`` modules; they are not uses.
TABLES = {"__all__", "_EXPORTS", "_SIM_NAMES"}

KEEP = {
    "theorem1_constants": "Theorem 1's competitive constants, to be checked "
                          "against the exact placement oracle (ROADMAP)",
    "simple_capacity": "Lemma 1's closed form, checked by the property test "
                       "in tests/test_properties.py",
    "ExhaustiveAdversary": "the brute-force reference that the property "
                           "tests compare branch and bound against",
}

SURFACE = sorted(
    set(repro.__all__) | set(repro.core._EXPORTS) | set(repro.designs.__all__)
    | set(repro.util.__all__) | set(repro.faults.__all__)
)


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


SOURCES = {
    os.path.join(root, filename): _parse(os.path.join(root, filename))
    for root, _, files in os.walk(SRC)
    for filename in files
    if filename.endswith(".py")
}


def _used_names(node):
    """Names ``node`` reads: bare names and attribute names."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _is_export_table(stmt):
    targets = (
        stmt.targets if isinstance(stmt, ast.Assign)
        else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    )
    return any(isinstance(t, ast.Name) and t.id in TABLES for t in targets)


def _uses():
    """name -> set of (file, definition) places that use it."""
    uses = {}

    def record(names, where):
        for name in names:
            uses.setdefault(name, set()).add(where)

    for path, tree in SOURCES.items():
        init = os.path.basename(path) == "__init__.py"
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if init and _is_export_table(stmt):
                continue
            record(_used_names(stmt), (path, getattr(stmt, "name", None)))
    examples = os.path.join(REPO, "examples")
    for filename in sorted(os.listdir(examples)):
        if filename.endswith(".py"):
            path = os.path.join(examples, filename)
            record(_used_names(_parse(path)), (path, None))
    layers = os.path.join(REPO, "e2ebench", "layers.py")
    for child in ast.walk(_parse(layers)):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            record(child.value.split("."), (layers, None))
    return uses


USES = _uses()


def test_keep_list_names_are_exported():
    assert set(KEEP) <= set(SURFACE)


@pytest.mark.parametrize("name", SURFACE)
def test_exported_name_is_used(name):
    # A use inside the name's own definition (recursion, a class naming
    # itself) does not count.
    users = {where for where in USES.get(name, ()) if where[1] != name}
    if name in KEEP:
        assert not users, f"{name} is used now: drop it from KEEP"
        return
    assert users, (
        f"{name} is exported but nothing in src/, examples/ or "
        f"e2ebench/layers.py uses it: delete it, or add it to KEEP with "
        f"the reason"
    )
