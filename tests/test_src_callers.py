"""Every function and class that ``src/symcoh`` defines has a caller there.

The modules are parsed with ``ast``.  A module-level function or class
counts as used when some module of the package references it as a ``Name``
or an ``Attribute``; a method only as an ``Attribute``, so a local variable
or an argument that shares its name does not count.  Dunders and the names
``symcoh.__all__`` exports are skipped.  A second
route that only ``tests/`` calls belongs in ``tests/`` as an oracle, so a
name defined in ``src/`` but never referenced there fails this test.

``NO_SRC_CALLER`` lists the names that are known to be called only from
``tests/`` or ``demos/``; each is to move to ``tests/`` or get a caller,
and then leave this list.
"""

import ast
from pathlib import Path

import symcoh

SRC = Path(symcoh.__file__).parent

NO_SRC_CALLER = {
    "check_intersection_bounds", "check_low_degree_equivalence", "classes_span_equal",
    "omega_dependence", "integrate", "is_abelian", "support",
    # their one src caller, the Form-level Lefschetz decomposition and the
    # per-blade del memo, moved to tests/form_oracle.py
    "is_primitive", "is_homogeneous", "coordinates",
    # the Form-level route over del_blades, kept for demos 03/04 and the tests
    "del_plus", "del_minus",
    # the Form-level route over the triple's compound matrices, kept for
    # demo 05 and the tests
    "jay",
    # omega^n/n!: the degeneracy check it fed could not fail after the
    # determinant check; the tests' volume norm and Pfaffian check read it
    "volume",
    # public API: a group's classes as Forms, for demo 03, the tests and
    # library users; the Hodge suite's pairing reads the int rows instead
    "representatives",
    # an entry of M/den, exact: the tests and form_oracle.py read it
    "entry",
    # a Form to a power by repeated wedging: the tests, form_oracle.py and
    # demo 01 use it
    "power",
}


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined_and_used() -> tuple[dict[str, str], set[str]]:
    """Each function or class name defined in the package, with where it
    is first defined, and the names it counts as used: every ``Attribute``
    referenced, and every ``Name`` that is not only ever a method's name."""
    defined: dict[str, str] = {}
    methods: set[str] = set()
    others: set[str] = set()
    names: set[str] = set()
    attributes: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        in_class: set[int] = set()  # the ids of this module's defs in a class body
        # breadth first: a class is visited before the defs in its body
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, DEFS):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
                (methods if id(node) in in_class else others).add(node.name)
            if isinstance(node, ast.ClassDef):
                in_class.update(id(d) for d in node.body if isinstance(d, DEFS))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return defined, attributes | (names - (methods - others))


def test_every_src_definition_has_a_src_caller():
    defined, used = defined_and_used()
    skipped = used | set(symcoh.__all__) | NO_SRC_CALLER
    unused = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name not in skipped
                    and not (name.startswith("__") and name.endswith("__")))
    assert unused == []


def test_allowed_names_are_still_defined_and_uncalled():
    """A listed name that gained a caller, or left ``src/``, leaves the list."""
    defined, used = defined_and_used()
    assert NO_SRC_CALLER <= defined.keys()
    assert NO_SRC_CALLER.isdisjoint(used)
