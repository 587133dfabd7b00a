"""Every function, class and method defined in `src/hydrocm/`, and every
name a module assigns at its top level, has a caller or reader in the
shipped code: `src/hydrocm/`, `perfbench/` or `scripts/`. A helper or
constant that only tests reach belongs in `tests/conftest.py`, not in the
package.

The scan is by name, with `ast`. A reference is a name, the attribute of
an attribute access, an imported name, or a part of a dotted string in
`perfbench/` (the tracer binds functions as "Class.method" strings).
References inside a definition's own body (recursion), or inside the
statement that assigns a name (the assigned name itself), do not count.
Dunder methods and names are read by Python itself and are not checked.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hydrocm"
SHIPPED = (PACKAGE, ROOT / "perfbench", ROOT / "scripts")

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

#: Definitions kept without a shipped caller, each with a comment naming
#: the shipped use it is kept for.
ALLOWLIST: dict[str, str] = {}


def references(node: ast.AST, dotted_strings: bool) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
        elif dotted_strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED.fullmatch(sub.value):
                names.update(sub.value.split("."))
    return names


def definitions(tree: ast.Module):
    """Top-level functions, classes and assigned names, and the methods of
    those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and not sub.id.startswith("__"):
                        yield sub.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def shipped_references() -> Counter:
    total = Counter()
    for directory in SHIPPED:
        for path in sorted(directory.rglob("*.py")):
            total += references(parse(path), dotted_strings=directory.name == "perfbench")
    return total


def package_definitions() -> dict:
    return {
        f"{path.stem}.{qualname}": node
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, node in definitions(parse(path))
    }


def test_every_package_definition_has_a_shipped_caller():
    total = shipped_references()
    unreached = []
    for name, node in package_definitions().items():
        bare = name.rsplit(".", 1)[-1]
        if name not in ALLOWLIST and total[bare] <= references(node, dotted_strings=False)[bare]:
            unreached.append(name)
    assert unreached == [], f"reached only from tests (move them to tests/conftest.py): {unreached}"


def test_allowlist_names_existing_definitions():
    assert set(ALLOWLIST) <= set(package_definitions())
