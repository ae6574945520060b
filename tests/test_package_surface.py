"""Every name the package exports has a user outside the tests.

A name that only tests use belongs next to them, in tests/families.py or
tests/oracle.py, not in src/.  A name counts as used when it occurs in
src/ beyond its own definition, in README.md or in demos/.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vilenkin_wavelets"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def has_user(name: str, src: str, docs: str) -> bool:
    word = rf"\b{re.escape(name)}\b"
    definitions = len(re.findall(rf"^\s*(?:def|class)\s+{word}|^{word}\s*[:=]", src, re.MULTILINE))
    return len(re.findall(word, src)) > definitions or re.search(word, docs) is not None


def test_every_export_has_a_user_outside_the_tests():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    src = "\n".join(path.read_text(encoding="utf-8") for path in modules)
    docs = "\n".join(
        path.read_text(encoding="utf-8")
        for path in [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
    )
    names = exported_names()
    assert len(names) > 50  # the parse found the export list
    assert [name for name in names if not has_user(name, src, docs)] == []
