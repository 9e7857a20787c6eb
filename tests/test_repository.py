"""Repository hygiene: git tracks nothing that .gitignore excludes,
every top-level definition of the package is used somewhere and every
one of the engine is used by the engine, a name that two modules share
is public, one reader turns input text into lines and integers, the
package keeps no process-global cache, and only the CLI names the file
an error is about."""

import ast
import glob
import os
import re
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True)


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or \
            os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
        pytest.skip("not a git checkout")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


PACKAGE = os.path.join(ROOT, "src", "cartwheel_discharge")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _words(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.findall(r"\w+", node.value)
    return []


def _uses(tree):
    """Identifiers and words of string literals in a module, leaving
    out docstrings and each top-level definition's mentions of its own
    name."""
    used = set()
    for top in tree.body:
        own = top.name if isinstance(top, DEFINITIONS) else None
        prose = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Expr) and \
                    isinstance(node.value, ast.Constant):
                prose.add(id(node.value))
            elif id(node) not in prose:
                used.update(w for w in _words(node) if w != own)
    return used


def test_every_package_definition_is_used():
    init = os.path.join(PACKAGE, "__init__.py")
    defined = {}
    used = set()
    for base in ("src", "tests", "perfbench"):
        for path in glob.glob(os.path.join(ROOT, base, "**", "*.py"),
                              recursive=True):
            if path == init:
                continue
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            used |= _uses(tree)
            if os.path.dirname(path) == PACKAGE:
                for top in tree.body:
                    if isinstance(top, DEFINITIONS):
                        defined[top.name] = os.path.relpath(path, ROOT)
    unused = sorted(f"{path}: {name}" for name, path in defined.items()
                    if name not in used)
    assert unused == []


def test_engine_definitions_serve_the_engine():
    """Tests check the engine; they do not keep parts of it alive.  A
    definition that only tests call is a second copy of a fact the
    engine holds elsewhere, or a reference that belongs in oracles.py.
    So each top-level definition of an engine module (the package but
    oracles.py and __init__.py) is named by the engine itself or by a
    non-test file of the benchmark."""
    engine = [path for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
              if os.path.basename(path) not in ("oracles.py", "__init__.py")]
    bench = [path for path in glob.glob(os.path.join(ROOT, "perfbench", "**",
                                                     "*.py"), recursive=True)
             if "tests" not in os.path.relpath(path, ROOT).split(os.sep)]
    trees = {}
    for path in engine + bench:
        with open(path, encoding="utf-8") as fh:
            trees[path] = ast.parse(fh.read(), path)
    used = set().union(*map(_uses, trees.values()))
    idle = sorted(f"{os.path.relpath(path, ROOT)}: {top.name}"
                  for path in engine for top in trees[path].body
                  if isinstance(top, DEFINITIONS) and top.name not in used)
    assert idle == []


def test_no_module_imports_a_private_name_of_another():
    """`from .<module> import _name` means two modules share the name, so
    it is public and loses its underscore; `from . import _module`
    imports a whole module and stays allowed."""
    private = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and \
                    node.module:
                private += [f"{os.path.relpath(path, ROOT)}:{node.lineno} "
                            f"{alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_only_the_line_reader_splits_lines_and_reads_integers():
    """`errors.records` and `errors.integers` are the one place where
    input text is cut into lines and fields become ints."""
    calls = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        if os.path.basename(path) == "errors.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "splitlines") or \
                    (isinstance(f, ast.Name) and f.id == "int"):
                calls.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}")
    assert calls == []


PROCESS_CACHES = {"lru_cache", "cache"}

# calls that build a container, and the methods that change one
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict"}
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove",
            "clear", "update", "setdefault", "add", "discard", "sort",
            "reverse", "difference_update", "intersection_update",
            "symmetric_difference_update", "__setitem__", "__delitem__"}


def _is_container(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    name = f.id if isinstance(f, ast.Name) else \
        f.attr if isinstance(f, ast.Attribute) else None
    return name in CONTAINER_CALLS


def _module_memos(tree):
    """(line, name, how) of each module-level name bound to a dict,
    list or set that a function changes, by a subscript store or
    delete or by a mutating method call."""
    containers = set()
    for top in tree.body:
        if isinstance(top, ast.Assign) and _is_container(top.value):
            containers.update(t.id for t in top.targets
                              if isinstance(t, ast.Name))
        elif isinstance(top, ast.AnnAssign) and top.value is not None \
                and _is_container(top.value) \
                and isinstance(top.target, ast.Name):
            containers.add(top.target.id)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in containers:
                found.append((node.lineno, node.value.id, "[...] store"))
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATORS and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id in containers:
                found.append((node.lineno, node.func.value.id,
                              f".{node.func.attr}()"))
    return found


def test_no_process_global_cache():
    """A memo that outlives one run could hand a later run a stale
    verdict, a false "verified".  So the package rebinds no module
    global, uses no functools cache and changes no module-level dict,
    list or set; a memo belongs to the run that made it."""
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        where = os.path.relpath(path, ROOT)
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{where}:{node.lineno} global")
            elif isinstance(node, ast.ImportFrom) and \
                    node.module == "functools":
                found += [f"{where}:{node.lineno} {alias.name}"
                          for alias in node.names
                          if alias.name in PROCESS_CACHES]
            elif isinstance(node, ast.Attribute) and \
                    node.attr in PROCESS_CACHES and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "functools":
                found.append(f"{where}:{node.lineno} functools.{node.attr}")
        found += [f"{where}:{line} {name}{how}"
                  for line, name, how in _module_memos(tree)]
    assert found == []


@pytest.mark.parametrize("source, hit", [
    ("_MEMO = {}\ndef f(k):\n    _MEMO[k] = 1\n", "_MEMO"),
    ("_SEEN = set()\ndef f(k):\n    _SEEN.add(k)\n", "_SEEN"),
    ("_LOG = [x for x in ()]\ndef f(k):\n    _LOG.append(k)\n", "_LOG"),
    ("import collections\n_BY = collections.defaultdict(list)\n"
     "def f(k):\n    _BY[k].append(1)\n    del _BY[k]\n", "_BY"),
    ("_M: dict = dict()\nclass C:\n    def f(self, k):\n"
     "        _M.setdefault(k, 0)\n", "_M"),
    ("_T = {1: 2}\ndef f(k):\n    return _T[k], _T.get(k)\n", None),
    ("_N = (1, 2)\ndef f(k):\n    d = {}\n    d[k] = _N\n", None),
], ids=["subscript", "set-add", "comprehension", "defaultdict", "method",
        "read-only", "tuple"])
def test_the_cache_guard_sees_module_memos(source, hit):
    found = {name for _, name, _ in _module_memos(ast.parse(source))}
    assert found == ({hit} if hit else set())


def _path_slots():
    """Each CartwheelError class of errors.py mapped to the positional
    index of the `path` parameter its __init__ takes, or None when it
    takes none."""
    with open(os.path.join(PACKAGE, "errors.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    classes = {c.name: c for c in tree.body if isinstance(c, ast.ClassDef)}

    def slot(name):
        for f in classes[name].body:
            if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                params = [a.arg for a in f.args.args[1:]]
                return params.index("path") if "path" in params else None
        return slot(classes[name].bases[0].id)

    def is_error(name):
        return name == "CartwheelError" or name in classes and any(
            isinstance(b, ast.Name) and is_error(b.id)
            for b in classes[name].bases)

    return {name: slot(name) for name in classes if is_error(name)}


def test_only_the_cli_names_files():
    """Parsers and the engine name lines; which file an error is about
    is decided in cli.py alone.  So no other module hands an error a
    path or sets one on it afterwards."""
    slots = _path_slots()
    assert slots["InputError"] == 2
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        if os.path.basename(path) == "cli.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        where = os.path.relpath(path, ROOT)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name in slots and (
                        any(k.arg == "path" for k in node.keywords) or
                        slots[name] is not None and
                        len(node.args) > slots[name]):
                    found.append(f"{where}:{node.lineno} {name} given a path")
            elif isinstance(node, ast.Attribute) and node.attr == "path" and \
                    isinstance(node.ctx, ast.Store) and \
                    not (isinstance(node.value, ast.Name) and
                         node.value.id == "self"):
                found.append(f"{where}:{node.lineno} sets .path")
    assert found == []
