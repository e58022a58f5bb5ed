"""Every name an import binds is referenced in its module.

The package, the tests, the demos and the tools are parsed with ``ast``.
A name bound by ``import`` or ``from ... import`` counts as used when the
module references it as a ``Name`` anywhere, or lists it in ``__all__``;
``from __future__`` imports bind nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for pattern in ("src/symcoh/*.py", "tests/*.py", "demos/*.py", "tools/*.py")
                 for path in ROOT.glob(pattern))


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    bound: dict[str, int] = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in bound.items() if name not in used]


def test_every_imported_name_is_used():
    assert {p.parent.name for p in MODULES} == {"symcoh", "tests", "demos", "tools"}
    assert [entry for path in MODULES for entry in unused_imports(path)] == []
