"""Every public function, class and method in ``src/rfplan`` has a caller in
the product: code under ``src/rfplan`` or ``perfbench/``, not only tests.

A name counts as used where it appears in code as an ``ast.Name`` or as an
``ast.Attribute``; import lines, ``__all__`` strings, docstrings and
comments do not.  Click commands and the ``pyproject.toml`` console
scripts are called from outside the code, so they are exempt.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "rfplan"
CALLERS = (SRC, ROOT / "perfbench")


def _trees(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _console_scripts() -> set[tuple[str, str]]:
    """(module path under src, function) of each ``[project.scripts]`` entry."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    scripts = set()
    for module, func in re.findall(r'^\s*[\w-]+\s*=\s*"([\w.]+):(\w+)"', section, re.M):
        scripts.add((module.replace(".", "/") + ".py", func))
    return scripts


def _is_click_command(node) -> bool:
    for deco in node.decorator_list:
        call = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(call, ast.Attribute) and call.attr in ("command", "group"):
            return True
    return False


def _public_definitions(tree: ast.Module):
    """(line, name) of each public module-level function or class and each
    public method of a module-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") and not _is_click_command(node):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield item.lineno, item.name


def _used_names() -> set[str]:
    used = set()
    for root in CALLERS:
        for _, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def unused_public_names() -> list[str]:
    used = _used_names()
    scripts = _console_scripts()
    unused = []
    for path, tree in _trees(SRC):
        rel = path.relative_to(ROOT / "src").as_posix()
        for line, name in _public_definitions(tree):
            if name not in used and (rel, name) not in scripts:
                unused.append(f"{path.relative_to(ROOT).as_posix()}:{line} {name}")
    return unused


def test_scan_sees_public_definitions_and_skips_the_exempt():
    tree = ast.parse(
        "def f(): pass\ndef _g(): pass\nclass C:\n    def m(self): pass\n"
        "    def _n(self): pass\n@cli.command('x')\ndef cmd(): pass\n"
    )
    assert list(_public_definitions(tree)) == [(1, "f"), (3, "C"), (4, "m")]


def test_console_scripts_are_found():
    assert ("rfplan/cli.py", "main") in _console_scripts()


def test_every_public_name_has_a_product_caller():
    assert unused_public_names() == []
