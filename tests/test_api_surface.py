"""Every public function, class and method of wordlm has a caller outside the
tests, and every private module-level function and class has one in the package.

A name counts as called when it appears, as a bare name or as an attribute,
in ``src/wordlm`` or ``perfbench`` (its smoke test excluded) anywhere but the
body of its own definition; a private name must appear in ``src/wordlm``. The
match is by name only, so a method shares its callers with every other method
of the same name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wordlm"

# Public names that may have no caller in the code base.
ALLOWED = {
    "main": "the `wordlm` console script in pyproject.toml calls it",
}


def module_definitions():
    """(module file, node) of every module-level function and class."""
    return [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def public_definitions():
    """(module file, qualified name, bare name) of every public definition."""
    out = []
    for module, node in module_definitions():
        if node.name.startswith("_"):
            continue
        out.append((module, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append((module, f"{node.name}.{item.name}", item.name))
    return out


def referenced_names(files):
    """Names and attributes used in ``files``, each outside the definitions
    that bear the same name."""
    seen = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            seen.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            seen.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in files:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return seen


def test_every_public_name_has_a_non_test_caller():
    definitions = public_definitions()
    assert set(ALLOWED) <= {name for _, _, name in definitions}, "stale ALLOWED entry"
    used = referenced_names(sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_smoke.py"
    ))
    uncalled = [
        f"{module}:{qualified}"
        for module, qualified, name in definitions
        if name not in used and name not in ALLOWED
    ]
    assert not uncalled, f"public API that only tests call: {uncalled}"


def test_every_private_helper_has_a_caller_in_the_package():
    used = referenced_names(sorted(PACKAGE.glob("*.py")))
    uncalled = [
        f"{module}:{node.name}"
        for module, node in module_definitions()
        if node.name.startswith("_") and node.name not in used
    ]
    assert not uncalled, f"private helpers nothing in the package calls: {uncalled}"
