"""Every name a function binds is read somewhere in that function.

The package, the tests, the demos and the tools are parsed with ``ast``.
A function's locals are the names its own body stores to: assignment and
loop targets, ``with ... as`` and ``except ... as`` names, walrus targets
and nested ``def``/``class`` names.  Parameters and the names declared
``global`` or ``nonlocal`` are not locals.  A local counts as read when
the function, or any scope nested in it, loads, deletes or augments the
name.  Names that start with ``_`` are exempt, so ``_`` marks a value
that is bound on purpose and dropped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for pattern in ("src/symcoh/*.py", "tests/*.py", "demos/*.py", "tools/*.py")
                 for path in ROOT.glob(pattern))

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = (*FUNCS, ast.ClassDef)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _own_nodes(fn: ast.AST):
    """The nodes of fn's own scope: not inside a nested function or class,
    nor a comprehension's own targets, but a walrus in a comprehension
    binds in fn."""
    body = [fn.body] if isinstance(fn, ast.Lambda) else fn.body
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, SCOPES):
            continue  # its name is fn's; its body is its own scope
        for child in ast.iter_child_nodes(node):
            if isinstance(node, COMPREHENSIONS) and isinstance(child, ast.comprehension):
                stack.extend([*child.ifs, child.iter])
            else:
                stack.append(child)


def _bound(fn: ast.AST) -> dict[str, int]:
    """fn's locals, each with the line of its first binding."""
    bound: dict[str, int] = {}
    declared: set[str] = set()
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.setdefault(node.id, node.lineno)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.setdefault(node.name, node.lineno)
        elif isinstance(node, SCOPES):
            if not isinstance(node, ast.Lambda):
                bound.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return {name: line for name, line in bound.items() if name not in declared}


def _read(fn: ast.AST) -> set[str]:
    """Every name loaded, deleted or augmented in fn or a scope nested in it."""
    read = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            read.add(node.target.id)
    return read


def unused_locals(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCS):
            read = _read(fn)
            found += [(line, name) for name, line in _bound(fn).items()
                      if name not in read and not name.startswith("_")]
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in sorted(found)]


def test_every_local_name_is_read():
    assert {p.parent.name for p in MODULES} == {"symcoh", "tests", "demos", "tools"}
    assert [entry for path in MODULES for entry in unused_locals(path)] == []
