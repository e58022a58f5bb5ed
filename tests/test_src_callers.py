"""Every function and class that ``src/symcoh`` defines has a caller there.

The modules are parsed with ``ast``.  A module-level function or class
counts as used when some module of the package references it as a ``Name``
or an ``Attribute``; a method only as an ``Attribute``, so a local variable
or an argument that shares its name does not count.  A reference from
inside the body of a function or method of the same name does not count
either, so neither a recursive call nor a passthrough to a method of the
same name is a caller.  Dunders are skipped.  A second route that only
``tests/`` calls belongs in ``tests/`` as an oracle, so a name defined in
``src/`` but never referenced there fails this test.

``NO_SRC_CALLER`` lists the names that are known to be called only from
``tests/`` or ``demos/``; each is to move to ``tests/`` or get a caller,
and then leave this list.

No method may only forward to a method of a public attribute of its
object: its callers read that attribute instead, so each operation has one
name.
"""

import ast
from pathlib import Path

import symcoh

SRC = Path(symcoh.__file__).parent

NO_SRC_CALLER = {
    # the blades of a Form, for the tests
    "support",
    # their one src caller, the Form-level Lefschetz decomposition and the
    # per-blade del memo, moved to tests/form_oracle.py
    "is_primitive", "is_homogeneous", "coordinates",
    # the Form-level route over del_blades, kept for demos 03/04 and the tests
    "del_plus", "del_minus",
    # the Form-level route over the triple's compound matrices, kept for
    # demo 05 and the tests
    "jay",
    # the Form-level sl(2) grading and symplectic star, for demo 02, the
    # tests and form_oracle.py; the engine reads their matrices instead
    "H", "star",
    # a Form wedged with omega r times: form_oracle.py's volume and the tests
    "L_power",
    # public API: a group's classes as Forms, for demo 03, the tests and
    # library users; the Hodge suite's pairing reads the int rows instead
    "representatives",
    # an entry of M/den, exact: the tests and form_oracle.py read it
    "entry",
    # a Form to a power by repeated wedging: the tests, form_oracle.py and
    # demo 01 use it
    "power",
    # one coefficient of a Form: paper_checks.py's integral and
    # form_oracle.py's volume norm read it
    "coeff",
    # exported from symcoh: contraction, for demo 01 and the tests
    "contract",
    # exported from symcoh: one degree of a Form, for the tests
    "grade_project",
    # exported from symcoh: the compatible triple of a 2-form, for the tests
    # and library users; the Hodge suite builds CompatibleTriple directly
    "build_triple",
    # exported from symcoh: the plane-recursion route to the primitive
    # bases, whose output demo 02 prints under a pinned hash
    "recursive_primitive_basis",
}


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCS, ast.ClassDef)


def defined_and_used() -> tuple[dict[str, str], set[str]]:
    """Each function or class name defined in the package, with where it
    is first defined, and the names it counts as used: every ``Attribute``
    referenced, and every ``Name`` that is not only ever a method's name,
    except a reference to a function or method from inside its own body."""
    defined: dict[str, str] = {}
    methods: set[str] = set()
    others: set[str] = set()
    names: set[str] = set()
    attributes: set[str] = set()

    def visit(node: ast.AST, where: str, enclosing: frozenset[str], in_class: bool):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, DEFS):
                defined.setdefault(child.name, f"{where}:{child.lineno}")
                (methods if in_class else others).add(child.name)
                if not isinstance(child, ast.ClassDef):
                    inner = enclosing | {child.name}
            elif isinstance(child, ast.Name) and child.id not in enclosing:
                names.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in enclosing:
                attributes.add(child.attr)
            visit(child, where, inner, isinstance(child, ast.ClassDef))

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.name, frozenset(), False)
    return defined, attributes | (names - (methods - others))


def test_every_src_definition_has_a_src_caller():
    defined, used = defined_and_used()
    skipped = used | NO_SRC_CALLER
    unused = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name not in skipped
                    and not (name.startswith("__") and name.endswith("__")))
    assert unused == []


def test_allowed_names_are_still_defined_and_uncalled():
    """A listed name that gained a caller, or left ``src/``, leaves the list."""
    defined, used = defined_and_used()
    assert NO_SRC_CALLER <= defined.keys()
    assert NO_SRC_CALLER.isdisjoint(used)


def forwarders() -> list[str]:
    """Each method whose body, docstring aside, is only
    ``return self.<attr>.<method>(...)`` with ``<attr>`` public."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, FUNCS):
                    continue
                body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
                match body:
                    case [ast.Return(value=ast.Call(func=ast.Attribute(value=ast.Attribute(
                            value=ast.Name(id="self"), attr=attr))))] if not attr.startswith("_"):
                        found.append(f"{cls.name}.{fn.name} ({path.name}:{fn.lineno})")
    return found


def test_no_method_only_forwards_to_a_public_attribute():
    assert forwarders() == []
