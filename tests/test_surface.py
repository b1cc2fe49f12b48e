"""The public surface of ``arrtwist`` has callers outside the tests.

Every public ``def`` and ``class`` in ``src/arrtwist`` must be referenced
from the library itself (``__init__.py``, which only re-exports, does not
count) or from a demo; a name that the CI workflow's commands mention
counts as well, but not a word of its comments.  A method (a ``def`` in a
class body) is reached only through an attribute (``x.name``); any other
definition through a name, an attribute or an import alias in the syntax
tree.  So a method does not pass because some function or variable shares
its name, and a definition that only the tests reach shows up here, to be
moved into the tests or deleted.  There is no allowlist.
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
    """(module, name, is_method) for every def and class not named with a
    leading _."""
    found = []
    for path in LIBRARY:
        tree = _tree(path)
        methods = {
            id(node)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.append((path.stem, node.name, id(node) in methods))
    return found


def _without_comments(yaml_text):
    """YAML text without its comment lines."""
    return "\n".join(
        line for line in yaml_text.splitlines() if not line.lstrip().startswith("#")
    )


def referenced_names():
    """(names, attributes): every referenced name, and those referenced as
    an attribute."""
    names, attributes = set(), set()
    for path in [p for p in LIBRARY if p.name != "__init__.py"] + DEMOS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
                if node.asname:
                    names.add(node.asname)
    if CI.exists():
        text = _without_comments(CI.read_text())
        names.update(re.findall(r"\w+", text))
        attributes.update(re.findall(r"\.(\w+)", text))
    return names | attributes, attributes


def test_sources_are_found():
    assert len(LIBRARY) > 5 and DEMOS
    assert ("linalg", "smith_normal_form", False) in public_definitions()
    assert ("linalg", "Matrix", False) in public_definitions()
    assert ("linalg", "inverse", True) in public_definitions()


def test_ci_comments_do_not_count():
    text = "run: |\n  # the top degree is free\n  python -c 'x.zeta'\n"
    assert _without_comments(text) == "run: |\n  python -c 'x.zeta'"


def test_every_public_definition_has_a_caller():
    names, attributes = referenced_names()
    unused = [
        f"{mod}.{name}"
        for mod, name, is_method in public_definitions()
        if name not in (attributes if is_method else names)
    ]
    assert not unused, f"public names no library code or demo reaches: {unused}"
