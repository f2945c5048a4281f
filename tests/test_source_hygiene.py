"""The package holds no code that only the tests use, no module of it
uses another module's private names, and every docstring cross-reference
names something."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mcmag").glob("*.py"))
#: Where a use of a package name counts: the package, the benchmark, the build file.
USERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def definitions(tree):
    """(name, first line, last line) of the top-level classes and non-dunder
    functions and constants, and of the non-dunder methods of those classes.
    The interpreter calls dunder functions (a module's ``__getattr__``), which
    no scan of the source sees."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) or (
            isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
        ):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item.lineno, item.end_lineno
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, node.lineno, node.end_lineno


def docstrings(tree):
    """The docstring constants of the module and of each class and function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def uses(tree):
    """(name, line) of every name, attribute and identifier-shaped word in a
    string constant other than a docstring; strings carry ``__all__`` and the
    names the benchmark tracer wraps, while a docstring that names a function
    keeps nothing alive."""
    skipped = set(map(id, docstrings(tree)))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in _WORD.findall(node.value):
                yield word, node.lineno


def test_every_package_name_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    used = {path: list(uses(tree)) for path, tree in trees.items()}
    build_words = set(_WORD.findall((ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    unused = []
    for path in SOURCES:
        for defined, first, last in definitions(trees[path]):
            inside = range(first, last + 1)
            found = defined in build_words or any(
                name == defined and not (user == path and line in inside)
                for user, names in used.items()
                for name, line in names
            )
            if not found:
                unused.append(f"{path.name}:{first} {defined}")
    assert not unused, "used only by the tests (or by nobody): " + ", ".join(unused)


_ROLE = re.compile(r":(?:func|data|class|mod|attr):`~?([^`]+)`")


def resolves(module, target):
    """Whether a docstring's dotted target names an object: from ``mcmag``
    when it starts there, else from the names of the docstring's own module.
    A dataclass field counts as an attribute of its class."""
    *path, name = target.split(".")
    owner = module
    if path[:1] == ["mcmag"]:
        owner, path = importlib.import_module("mcmag"), path[1:]
    try:
        for part in path:
            owner = getattr(owner, part)
    except AttributeError:
        return False
    if hasattr(owner, name):
        return True
    return dataclasses.is_dataclass(owner) and name in {f.name for f in dataclasses.fields(owner)}


def test_every_docstring_cross_reference_resolves():
    unresolved, count = [], 0
    for path in SOURCES:
        name = "mcmag" if path.stem == "__init__" else f"mcmag.{path.stem}"
        module = importlib.import_module(name)
        for doc in docstrings(ast.parse(path.read_text(encoding="utf-8"))):
            for target in _ROLE.findall(doc.value):
                count += 1
                if not resolves(module, target):
                    unresolved.append(f"{path.name}:{doc.lineno} {target}")
    assert count, "no cross-references found: the scan is broken"
    assert not unresolved, "docstring targets that name nothing: " + ", ".join(unresolved)


def private(name):
    return name.startswith("_") and not name.startswith("__")


def borrowed_private_names(tree):
    """(name, line) of every underscore name a module takes from another
    package module: ``from .<module> import _name``, or ``<module>._name`` on a
    module bound by ``from . import <module>``."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                for alias in node.names:
                    if private(alias.name):
                        yield f"{node.module}.{alias.name}", node.lineno
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield f"{node.value.id}.{node.attr}", node.lineno


def test_no_module_takes_another_modules_private_names():
    borrowed = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for name, line in borrowed_private_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not borrowed, "private names used across modules: " + ", ".join(borrowed)


TESTS = sorted((ROOT / "tests").glob("*.py"))
_ITEM = re.compile(r"ROADMAP item \d+")


def _text(node):
    """The literal text of a string constant or f-string (its constant parts)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value for part in node.values if isinstance(part, ast.Constant))
    return ""


def xfail_markers(tree):
    """(line, call or None) of every ``pytest.mark.xfail`` in a test module;
    None where the marker is used without arguments."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "xfail"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "mark"):
            yield node.lineno, calls.get(id(node))


def test_every_known_defect_pin_is_strict_and_names_its_roadmap_item():
    loose, count = [], 0
    for path in TESTS:
        for line, call in xfail_markers(ast.parse(path.read_text(encoding="utf-8"))):
            count += 1
            keywords = {} if call is None else {kw.arg: kw.value for kw in call.keywords}
            strict = keywords.get("strict")
            if not (isinstance(strict, ast.Constant) and strict.value is True):
                loose.append(f"{path.name}:{line} not strict=True")
            if not _ITEM.search(_text(keywords.get("reason"))):
                loose.append(f"{path.name}:{line} reason names no ROADMAP item")
    assert count, "no xfail markers found: the scan is broken"
    assert not loose, ", ".join(loose)
