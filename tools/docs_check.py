#!/usr/bin/env python
"""Fail if the docs or the package's docstrings reference names that do not exist.

The README's experiment table and command examples are load-bearing
documentation: a reader reproduces the paper by copying them.  This check
keeps them honest by

* importing every ``repro.*`` dotted module (or module attribute)
  referenced anywhere in the checked documents (table rows, prose, command
  lines);
* importing every module used in ``python -m <module>`` invocations inside
  fenced code blocks;
* checking that every relative file/directory link target exists;
* resolving every dotted ``repro.*`` reference in the docstrings and
  comments of ``src/repro/**/*.py``, so deleting a function cannot leave a
  stale cross-reference to it behind;
* checking that every ``*.md`` file named in the documents, or in those
  docstrings and comments, exists relative to the repository root or to
  the directory of the file naming it.

Run via ``make docs-check`` (or directly: ``PYTHONPATH=src python
tools/docs_check.py``).  Exits non-zero listing every stale reference.
"""

from __future__ import annotations

import ast
import importlib
import io
import pathlib
import re
import sys
import tokenize

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = [REPO_ROOT / "README.md", REPO_ROOT / "docs" / "ARCHITECTURE.md"]
SOURCES = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))

#: Dotted repro modules anywhere in the text (prose, table cells, code).
MODULE_PATTERN = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+\b")
#: ``python -m <module>`` inside fenced code blocks.
PYTHON_M_PATTERN = re.compile(r"python\s+-m\s+([A-Za-z_][A-Za-z0-9_.]*)")
#: Markdown links to repo-relative files: [text](path) without a scheme.
LINK_PATTERN = re.compile(r"\[[^\]]+\]\((?!https?://|#)([^)#\s]+)\)")
#: Markdown file names (``ROADMAP.md``, ``../README.md``), outside URLs.
MARKDOWN_PATTERN = re.compile(r"(?<![\w./:-])[\w./-]+\.md\b")


def _module_candidates(text: str) -> set[str]:
    modules = set(MODULE_PATTERN.findall(text))
    modules.update(PYTHON_M_PATTERN.findall(text))
    return modules


def _importable(dotted: str) -> bool:
    # A dotted reference may end in an attribute
    # (repro.experiments.figure9.compute or
    # repro.distance.engine.PrefixDistanceEngine): walk prefixes from the
    # longest and accept if some prefix imports and the remainder resolves as
    # attributes.
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        obj = module
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _missing_markdown(text: str, path: pathlib.Path) -> list[str]:
    """The ``*.md`` names in ``text`` missing from the root and ``path``'s directory."""
    return sorted(
        name
        for name in set(MARKDOWN_PATTERN.findall(text))
        if not (REPO_ROOT / name).exists() and not (path.parent / name).exists()
    )


def check_document(path: pathlib.Path) -> list[str]:
    """Return a list of human-readable problems found in one document."""
    problems: list[str] = []
    if not path.exists():
        return [f"{path.relative_to(REPO_ROOT)}: document is missing"]
    text = path.read_text()
    for dotted in sorted(_module_candidates(text)):
        if not _importable(dotted):
            problems.append(
                f"{path.relative_to(REPO_ROOT)}: reference to non-existent module "
                f"or attribute {dotted!r}"
            )
    for target in sorted(set(LINK_PATTERN.findall(text))):
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            problems.append(
                f"{path.relative_to(REPO_ROOT)}: broken link target {target!r}"
            )
    for name in _missing_markdown(text, path):
        problems.append(
            f"{path.relative_to(REPO_ROOT)}: names non-existent file {name!r}"
        )
    return problems


def _docstrings_and_comments(source: str) -> str:
    """The docstrings and ``#`` comments of one Python module, joined."""
    parts = [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                parts.append(docstring)
    return "\n".join(parts)


def check_source(path: pathlib.Path) -> list[str]:
    """Return the dangling references in one module's docstrings and comments."""
    text = _docstrings_and_comments(path.read_text())
    where = f"{path.relative_to(REPO_ROOT)}: docstring or comment"
    problems = [
        f"{where} references non-existent module or attribute {dotted!r}"
        for dotted in sorted(set(MODULE_PATTERN.findall(text)))
        if not _importable(dotted)
    ]
    problems.extend(
        f"{where} names non-existent file {name!r}"
        for name in _missing_markdown(text, path)
    )
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems: list[str] = []
    for document in DOCUMENTS:
        problems.extend(check_document(document))
    for source in SOURCES:
        problems.extend(check_source(source))
    if problems:
        print("docs-check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"docs-check OK ({len(DOCUMENTS)} documents and {len(SOURCES)} "
        "source files verified)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
