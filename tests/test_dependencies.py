"""Declared dependencies must cover every unguarded top-level import.

``import repro`` imports every subpackage, so a module-level import of a
package ``pyproject.toml`` does not declare breaks the library on a clean
install.  This scans ``src/repro`` with :mod:`ast` and checks the root of
each import statement that sits directly in a module body (not inside a
function, a ``try`` or an ``if``) against the standard library, the
package itself and the declared ``dependencies``.  Optional extras are
imported lazily or behind ``try``, and that is what keeps them optional.
CI installs the package itself, so its jobs get exactly these dependencies.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


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
