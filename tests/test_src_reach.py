"""src/ holds only what the CLI and the benchmark reach.

Every top-level function or class of `src/curvcert/*.py`, and every method
that is not a dunder, must have its name loaded by other live `src/` code.
Code is live at module level and inside a live definition, so a definition
that only dead code loads is dead too.  Loads are resolved by scope: a
global name load refers to the module's own definition or to the one it
imports with `from .module import name`; a load of a name that the
enclosing function binds (a local variable, an argument) refers to that
local; an import alone is no use.  Methods are used by an attribute load of
their name on any object.  Tests are not callers: code that only tests call
belongs in tests/helpers.py.  A top-level import that its module
never loads fails too, outside `__init__.py`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "curvcert"

#: definitions that no src/ code calls, kept for a caller outside src/, with why
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "algebra.group_exp": "perfbench/checks_curvbench.py imports it (ROADMAP item 1)",
    "algebra.random_skew": "perfbench/checks_curvbench.py imports it (ROADMAP item 1)",
    "certify.min_ad_singular": "perfbench/checks_curvbench.py imports it (ROADMAP item 1)",
    "catalog.CatalogEntry.base_point_A": "perfbench/checks_curvbench.py reads it (ROADMAP item 1)",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds in its own scope."""
    names: set[str] = set()
    if isinstance(scope, _FUNCS):
        names |= {a.arg for a in _all_args(scope.args)}
        body = [scope.body] if isinstance(scope, ast.Lambda) else scope.body
    else:
        body = scope.generators
    declared: set[str] = set()
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)  # its body is another scope
            continue
        if isinstance(node, (ast.Lambda, *_COMPREHENSIONS)) and node is not scope:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared |= set(node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names - declared


class _Module:
    """One module's definitions, its imports from the package, and its loads, each with its owner."""

    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.defs: dict[str, ast.AST] = {}  # "f", "Class", "Class.method"
        self.imports: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
        self.loads: list[tuple[str | None, str, str]] = []  # (owner, "name" or "attr", name)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            self.defs[f"{node.name}.{item.name}"] = item
        self._visit(tree, None, [])

    def _visit(self, node: ast.AST, owner, scopes: list) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            # a name that an enclosing function, lambda or comprehension binds is a local
            if not any(node.id in bound for bound in scopes):
                self.loads.append((owner, "name", node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            self.loads.append((owner, "attr", node.attr))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # decorators, bases, defaults and annotations run in the enclosing scope
            if isinstance(node, ast.ClassDef):
                outer = [*node.decorator_list, *node.bases, *node.keywords]
            else:
                args = node.args
                outer = [*node.decorator_list, *args.defaults, *args.kw_defaults, node.returns,
                         *(a.annotation for a in _all_args(args))]
            inner = node.name if owner is None else f"{owner}.{node.name}"
            if inner not in self.defs:  # a function nested in a function belongs to it
                inner = owner
            for child in filter(None, outer):
                self._visit(child, inner, scopes)
            if isinstance(node, ast.ClassDef):
                for child in node.body:  # a class body is no scope for the functions in it
                    self._visit(child, inner, scopes)
            else:
                inner_scopes = [_bound(node), *scopes]
                for child in node.body:
                    self._visit(child, inner, inner_scopes)
            return
        if isinstance(node, (ast.Lambda, *_COMPREHENSIONS)):
            inner_scopes = [_bound(node), *scopes]
            for child in ast.iter_child_nodes(node):
                self._visit(child, owner, inner_scopes)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, owner, scopes)

    def resolve(self, name: str) -> tuple[str, str] | None:
        """The (module, definition) that a global load of name in this module refers to."""
        if name in self.defs:
            return self.name, name
        return self.imports.get(name)


def _all_args(args: ast.arguments):
    return [*args.posonlyargs, *args.args, *args.kwonlyargs,
            *[a for a in (args.vararg, args.kwarg) if a is not None]]


def unreached(src: Path = SRC, allowed=ALLOWED) -> list[str]:
    """The definitions, as "module.name" or "module.Class.method", that no live src/ code loads.

    The allowed ones count as live.
    """
    modules = {path.stem: _Module(path.stem, ast.parse(path.read_text(), str(path)))
               for path in sorted(src.glob("*.py"))}
    defs = {f"{m.name}.{d}" for m in modules.values() for d in m.defs}
    checked = {d for d in defs if not d.rsplit(".", 1)[1].startswith("__")}
    methods: dict[str, set[str]] = {}  # by name
    for d in defs:
        if d.count(".") == 2:
            methods.setdefault(d.rsplit(".", 1)[1], set()).add(d)
    live = set(defs)
    while True:
        used = set()
        for m in modules.values():
            for owner, kind, name in m.loads:
                where = owner and f"{m.name}.{owner}"
                if where and not _is_live(where, live):
                    continue
                if kind == "name":
                    target = m.resolve(name)
                    targets = {f"{target[0]}.{target[1]}"} if target else set()
                else:
                    targets = methods.get(name, set())
                used |= {d for d in targets if not _inside(where, d)}
        dead = {d for d in checked & live if d not in used and d not in allowed}
        if not dead:
            return sorted(checked - live)
        live -= dead


def _inside(where: str, definition: str) -> bool:
    """True when code owned by `where` lies in the body of `definition`: a load of itself is no use."""
    return bool(where) and (where == definition or where.startswith(definition + "."))


def _is_live(owner: str, live: set[str]) -> bool:
    """A load in a method is live when the method and its class are."""
    module, *path = owner.split(".")
    return all(f"{module}.{'.'.join(path[:i + 1])}" in live for i in range(len(path)))


def unused_imports(src: Path = SRC) -> list[str]:
    """The names, as "module.name", that a top-level import of a non-__init__ module binds and the module never loads.

    `from __future__ import annotations` binds no name that code loads, so it is exempt.
    """
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.stem}.{name}" for name in bound if name not in loaded]
    return unused


def test_every_src_definition_has_a_src_caller():
    dead = unreached()
    assert dead == [], "only tests reach these; move them to tests/helpers.py: " + ", ".join(dead)


def test_each_allowed_definition_has_no_src_caller():
    for name in ALLOWED:
        assert name in unreached(allowed=set(ALLOWED) - {name}), name


def test_imports_self_loads_dead_callers_and_locals_are_no_use(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used(): pass\n"
        "def shadowed(): pass\n"
        "def recursive(): recursive()\n"
        "def dead_caller(): dead_callee()\n"
        "def dead_callee(): pass\n"
        "class C:\n"
        "    def method(self): pass\n"
        "    def __len__(self): return 0\n"
        "class D:\n"
        "    def called(self): pass\n"
        "VALUE = used()\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import C, D, shadowed\n"
        "def f(shadowed):\n"
        "    return [shadowed for _ in ()], lambda shadowed: shadowed\n"
        "X = f(1), D().called()\n"
    )
    assert unreached(tmp_path) == ["a.C", "a.C.method", "a.dead_callee", "a.dead_caller",
                                   "a.recursive", "a.shadowed"]


def test_every_src_import_is_loaded():
    unused = unused_imports()
    assert unused == [], "imported but never loaded: " + ", ".join(unused)


def test_an_import_that_its_module_never_loads_is_unused(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from enum import Enum\n"
        "from .b import loaded, only_imported as renamed\n"
        "def used(x: np.ndarray):\n"
        "    return os.sep, loaded\n"
    )
    assert unused_imports(tmp_path) == ["a.Enum", "a.renamed"]
