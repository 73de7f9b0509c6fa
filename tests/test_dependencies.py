"""Declared dependencies must cover every unguarded top-level import.

``import repro`` imports every subpackage, so a module-level import of a
package ``pyproject.toml`` does not declare breaks the library on a clean
install.  This scans ``src/repro`` with :mod:`ast` and checks the root of
each import statement that sits directly in a module body (not inside a
function, a ``try`` or an ``if``) against the standard library, the
package itself and the declared ``dependencies``.  Optional extras are
imported lazily or behind ``try``, and that is what keeps them optional.
CI installs the package itself, so its jobs get exactly these dependencies.

The same :mod:`ast` scan also rejects imports that nothing uses, across the
package, its tests, benchmarks, tools and examples.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Trees whose modules must not import names they never use.
IMPORT_SCAN_ROOTS = (
    PACKAGE,
    ROOT / "tests",
    ROOT / "benchmarks",
    ROOT / "tools",
    ROOT / "examples",
)


def _declared() -> set[str]:
    """Import names of the ``[project] dependencies`` in ``pyproject.toml``.

    Read with a regular expression rather than :mod:`tomllib`, which only
    exists from Python 3.11 while the package supports 3.10.
    """
    text = (ROOT / "pyproject.toml").read_text()
    listing = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert listing is not None, "pyproject.toml declares no dependencies list"
    names = set()
    for requirement in re.findall(r"[\"']([^\"']+)[\"']", listing.group(1)):
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _module_level_roots(path: Path) -> set[str]:
    """Roots of the absolute imports directly in the body of one module."""
    roots = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_scan_sees_the_known_third_party_imports():
    roots = _module_level_roots(PACKAGE / "evaluation" / "significance.py")
    assert {"numpy", "scipy"} <= roots


def test_every_unguarded_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"__future__", "repro"} | _declared()
    undeclared = {
        f"{path.relative_to(ROOT)}: {root}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for root in _module_level_roots(path)
        if root not in allowed
    }
    assert not undeclared, (
        "module-level imports of packages pyproject.toml does not declare: "
        f"{sorted(undeclared)}"
    )


def test_ci_installs_the_package_not_a_hand_written_list():
    """Every CI ``pip install`` installs ``.`` (with extras) from ``pyproject.toml``.

    A hand-written package list drifts from the declared dependencies: a job
    installing numpy alone cannot import ``repro.experiments``, which needs
    scipy.
    """
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    installs = re.findall(r"pip install (.+)", workflow)
    assert installs, "no pip install step found in ci.yml"
    for arguments in installs:
        assert re.fullmatch(r"""(["']?)\.(\[[\w,-]+\])?\1""", arguments.strip()), arguments


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names.update(
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                )
    return names


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name no ``ast.Name`` reads.

    ``import a.b`` binds ``a``; ``as`` binds the alias.  Names listed in
    ``__all__`` and imports on a line marked ``# noqa: F401`` are exports,
    not dead code.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound == "*" or bound in used or bound in exported:
                continue
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append((alias.lineno, bound))
    return unused


def test_import_scan_flags_exactly_the_unused_names(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os.path\n"
        "import json as codec\n"
        "from typing import Any, Sequence\n"
        "from math import pi  # noqa: F401\n"
        "from math import tau\n"
        "__all__ = ['tau']\n"
        "codec.dumps(os.sep)\n"
        "value: Any = None\n"
    )
    assert _unused_imports(module) == [(3, "Sequence")]


def test_no_unused_imports():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for root in IMPORT_SCAN_ROOTS
        for path in sorted(root.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(path)
    ]
    assert not unused, f"imported but never used: {unused}"
