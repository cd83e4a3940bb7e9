"""Every top-level definition in src/aced is used by the system itself.

A def or class in an aced module must be named, as a whole word, somewhere
in src/, scripts/ or perfbench/ outside its own definition; a re-export in
aced/__init__.py is not a use. A definition that only tests reach is dead
weight in the package: the test should call the surviving function that
computes the same quantity, or carry the reference itself.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SYSTEM_DIRS = ("src", "scripts", "perfbench")

# definitions kept although only tests call them, each for a stated reason
ALLOWED = {
    # the paper's prescribed ridge shift for one direction; criterion 3
    # checks the bias bound at exactly this shift
    "ridge_shift",
    # the checker of the paper's claim that ACED's complexity is never worse
    # than the disagreement-coefficient bounds; the complexity tests run it
    "disagreement_bound_check",
}


def _definitions():
    """(module path, name, first line, last line) of every top-level def
    and class in the aced modules other than __init__."""
    for path in sorted((ROOT / "src" / "aced").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, first, node.end_lineno


def test_every_definition_is_used_outside_tests():
    sources = {path: path.read_text().splitlines()
               for d in SYSTEM_DIRS for path in sorted((ROOT / d).rglob("*.py"))
               if path != ROOT / "src" / "aced" / "__init__.py"}
    unused = {}
    for def_path, name, first, last in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line)
                   for path, lines in sources.items()
                   for ln, line in enumerate(lines, start=1)
                   if not (path == def_path and first <= ln <= last)):
            unused[name] = f"{def_path.stem}.{name}"
    extra = [qual for name, qual in unused.items() if name not in ALLOWED]
    assert not extra, f"defined in src/aced but used only by tests: {extra}"
    # an allowlist entry is a definition that still needs its exemption
    assert ALLOWED <= unused.keys(), f"stale allowlist entries: {ALLOWED - unused.keys()}"
