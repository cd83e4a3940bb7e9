"""Every top-level definition and class member in src/aced is used by the
system itself, the package grows no keyword knobs unnoticed, and each
input rule keeps its one home.

A def or class in an aced module must be named, as a whole word, somewhere
in src/, scripts/ or perfbench/ outside its own definition; a re-export in
aced/__init__.py is not a use. A member of a class must be read there as
an attribute. A definition or member that only tests reach is dead weight
in the package: the test should call the surviving function that computes
the same quantity, or carry the reference itself.
"""
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import aced

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


# class members kept although no system code reads them as an attribute
ALLOWED_MEMBERS = {
    # serialised with every other field through dataclasses.fields in to_jsonl
    "RunRecord.params",
    # the reader of the format RunRecord.to_jsonl writes
    "RunRecord.from_jsonl",
}


def _members():
    """(module path, "Class.name", first line, last line) of every
    non-dunder member of a class in the aced modules: its methods and
    properties, the names its body assigns (dataclass and NamedTuple fields
    included) and the self attributes its methods assign."""
    for path in sorted((ROOT / "src" / "aced").glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found = [(node.name, first, node.end_lineno)]
                    found += [(sub.attr, sub.lineno, sub.end_lineno) for sub in ast.walk(node)
                              if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                              and isinstance(sub.value, ast.Name) and sub.value.id == "self"]
                elif isinstance(node, (ast.AnnAssign, ast.Assign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found = [(t.id, node.lineno, node.end_lineno) for t in targets
                             if isinstance(t, ast.Name)]
                else:
                    found = []
                for name, first, last in found:
                    if not (name.startswith("__") and name.endswith("__")):
                        yield path, f"{cls.name}.{name}", first, last


def _attribute_reads():
    """(path, line, name) of every attribute read in src/, scripts/ and
    perfbench/: obj.name in a load, or getattr/hasattr with a literal name."""
    for d in SYSTEM_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    yield path, node.lineno, node.attr
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
                      and isinstance(node.args[1], ast.Constant)):
                    yield path, node.lineno, node.args[1].value


def test_every_class_member_is_read_outside_tests():
    reads = {}
    for path, line, name in _attribute_reads():
        reads.setdefault(name, []).append((path, line))
    unread = set()
    for def_path, qual, first, last in _members():
        name = qual.split(".", 1)[1]
        if not any(not (path == def_path and first <= line <= last)
                   for path, line in reads.get(name, [])):
            unread.add(qual)
    extra = sorted(unread - ALLOWED_MEMBERS)
    assert not extra, f"class members in src/aced read only by tests: {extra}"
    # an allowlist entry is a member that still needs its exemption
    assert ALLOWED_MEMBERS <= unread, f"stale allowlist entries: {ALLOWED_MEMBERS - unread}"


# defaulted parameters over the functions and methods of aced.*; a change
# that adds a knob raises this number and says why in CHANGES.md
DEFAULTED_PARAMETERS = 98


def _defaulted_parameters():
    """"module.function.parameter" of every parameter with a default, over
    the module functions and class methods (a dataclass's generated
    __init__ included) defined in the aced modules."""
    found = []

    def collect(qual, fn):
        found.extend(f"{qual}.{p.name}" for p in inspect.signature(fn).parameters.values()
                     if p.default is not inspect.Parameter.empty)

    for info in pkgutil.iter_modules(aced.__path__):
        mod = importlib.import_module(f"aced.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                collect(f"{info.name}.{name}", obj)
            elif inspect.isclass(obj):
                for member, fn in vars(obj).items():
                    fn = fn.__func__ if isinstance(fn, (staticmethod, classmethod)) else fn
                    if inspect.isfunction(fn):
                        collect(f"{info.name}.{name}.{member}", fn)
    return found


def test_defaulted_parameter_count_does_not_grow():
    found = _defaulted_parameters()
    assert len(found) <= DEFAULTED_PARAMETERS, (
        f"{len(found)} defaulted parameters in aced.* (at most {DEFAULTED_PARAMETERS}):\n"
        + "\n".join(found))


def _scoped(node, scope=()):
    """(node, dotted names of the classes and functions around it) over an AST."""
    for child in ast.iter_child_nodes(node):
        yield child, ".".join(scope)
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scoped(child, scope + (child.name,))
        else:
            yield from _scoped(child, scope)


def _uses(node, module: str, names: set) -> bool:
    """Whether node reads module.<one of names> or imports one of them from module."""
    if isinstance(node, ast.Attribute):
        return (node.attr in names and isinstance(node.value, ast.Name)
                and node.value.id == module)
    return (isinstance(node, ast.ImportFrom) and node.module == module
            and any(alias.name in names for alias in node.names))


def test_each_input_rule_has_one_home():
    # a second enumerability check or integer check, or an ambient knob read
    # from the environment, fails here
    implicit_raises, integral, environment = [], set(), []
    for path in sorted((ROOT / "src" / "aced").glob("*.py")):
        for node, scope in _scoped(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ImplicitClassError":
                    implicit_raises.append(f"{path.stem}.{scope}")
            if _uses(node, "numbers", {"Integral"}):
                integral.add(path.name)
            if _uses(node, "os", {"environ", "getenv"}):
                environment.append(f"{path.name}:{node.lineno}")
    assert implicit_raises == ["core.HypothesisClass.enumerated"]
    assert integral == {"core.py"}
    assert environment == []
