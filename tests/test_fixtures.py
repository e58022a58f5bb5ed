"""The fixture table of ``tests/fixtures.py`` stays the one table.

No test module keeps its own: none defines at module level a name ending
in ``FIXTURES``, a ``SCRAMBLED_*`` text or a ``build``.  Every entry
builds, and no two build the same algebra and omega, so one fixture has
one name.  Each scrambled entry is pinned by a sha256 prefix of its
printed d and omega, so a change to ``basis_change``'s draws cannot swap a
fixture unseen.
"""

import ast
import hashlib
from pathlib import Path

import pytest

from fixtures import TABLE, build, select
from symcoh.exterior import form_to_str

TESTS = Path(__file__).resolve().parent

PINS = {"scrambled-N6": "64b8444ae997", "scrambled-N6-seed3": "abb27638c7bf",
        "scrambled-N8": "667f1bc2bc9c", "scrambled-N8-seed8": "26454db93dc0"}


def printed(name):
    cx = build(name)
    return "\n".join(form_to_str(f) for f in [*cx.algebra.differentials, cx.omega])


def own_table_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        yield from (t for t in targets
                    if t.endswith("FIXTURES") or t.startswith("SCRAMBLED_") or t == "build")


def test_no_test_module_keeps_its_own_table():
    found = {path.name: names for path in sorted(TESTS.glob("test_*.py"))
             if (names := list(own_table_names(ast.parse(path.read_text()))))}
    assert found == {}


def test_every_entry_builds_and_no_two_are_equal():
    seen = {}
    for name in TABLE:
        seen.setdefault(printed(name), []).append(name)
    assert [names for names in seen.values() if len(names) > 1] == []


def test_scrambled_entries_are_pinned():
    assert {name: hashlib.sha256(printed(name).encode()).hexdigest()[:12]
            for name in select("scrambled")} == PINS


def test_select_refuses_an_unknown_key():
    with pytest.raises(AssertionError, match="no-such-fixture"):
        select("N6", "no-such-fixture")
