"""The public surface of ``arrtwist`` has callers outside the tests.

Every public ``def`` and ``class`` in ``src/arrtwist`` must be referenced
from the library itself (``__init__.py``, which only re-exports, does not
count) or from a demo; a name that the CI workflow mentions counts as well.
A reference is a name, an attribute or an import alias in the syntax tree,
so a definition that only the tests reach shows up here, to be moved into
the tests or deleted.  There is no allowlist.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "arrtwist").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CI = ROOT / ".github" / "workflows" / "ci.yml"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions():
    """(module, name) for every def and class not named with a leading _."""
    found = []
    for path in LIBRARY:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.append((path.stem, node.name))
    return found


def referenced_names():
    names = set()
    for path in [p for p in LIBRARY if p.name != "__init__.py"] + DEMOS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
                if node.asname:
                    names.add(node.asname)
    if CI.exists():
        names.update(re.findall(r"\w+", CI.read_text()))
    return names


def test_sources_are_found():
    assert len(LIBRARY) > 5 and DEMOS
    assert ("linalg", "smith_normal_form") in public_definitions()


def test_every_public_definition_has_a_caller():
    names = referenced_names()
    unused = [f"{mod}.{name}" for mod, name in public_definitions() if name not in names]
    assert not unused, f"public names no library code or demo reaches: {unused}"
