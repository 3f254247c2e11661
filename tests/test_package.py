"""Every public function and class in ``src/risloc`` earns its place.

A top-level public function or class must be named somewhere in the
package (as a name or an attribute), or be imported by the acceptance
tests, which read a few names that no production path calls. A name that
only unit tests use is test code living in ``src/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "risloc"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions(package):
    """(module, name) of every top-level public function and class in
    the modules of ``package``."""
    return [(path.stem, node.name)
            for path in sorted(package.glob("*.py"))
            for node in _parse(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def used_names(package):
    """Every identifier that the package's code names or looks up."""
    names = set()
    for path in package.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def acceptance_imports(path):
    """Names that ``path`` imports from the risloc package."""
    return {alias.name for node in ast.walk(_parse(path))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "risloc"
            for alias in node.names}


def unused_public_names(package, acceptance):
    keep = used_names(package) | acceptance_imports(acceptance)
    return [f"{module}.{name}"
            for module, name in public_definitions(package)
            if name not in keep]


def test_every_public_name_has_a_caller():
    # The scan must see the package, or an empty tree would pass.
    assert {"estimate", "generate_snapshot", "main"} <= \
        {name for _, name in public_definitions(PACKAGE)}
    unused = unused_public_names(PACKAGE, ACCEPTANCE)
    assert not unused, ("public functions or classes that neither the "
                        f"package nor the acceptance tests use: {unused}")
