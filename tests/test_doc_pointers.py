"""Every Markdown file a ``src/`` docstring names exists in the repo.

A docstring that sends the reader to ``SOMETHING.md`` for a fact is only
useful while that file exists; names are resolved against the repo root.
"""

import ast
import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
MD_NAME = re.compile(r"[\w./-]+\.md\b")


def docstrings(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield doc


def named_markdown_files():
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                for doc in docstrings(path):
                    for md in MD_NAME.findall(doc):
                        yield os.path.relpath(path, REPO), md


def test_docstring_markdown_pointers_exist():
    named = list(named_markdown_files())
    assert named, "expected at least one docstring to name a .md file"
    missing = [
        f"{source}: {md}"
        for source, md in named
        if not os.path.exists(os.path.join(REPO, md))
    ]
    assert missing == []
