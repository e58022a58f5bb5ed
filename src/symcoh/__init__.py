"""Exact primitive-cohomology engine for symplectic invariant complexes."""

from .cealgebra import LieAlgebraSpec, parse_algebra, parse_salamon
from .cohomology import CohomologyCalculator, CohomologyGroup
from .exterior import Form, contract, grade_project, parse_form, wedge
from .symplectic import (
    NotSymplecticError,
    SymplecticComplex,
    SymplecticStructure,
    parse_omega,
    recursive_primitive_basis,
    standard_omega,
)

__all__ = [
    "Form", "parse_form", "wedge", "contract", "grade_project",
    "LieAlgebraSpec", "parse_salamon", "parse_algebra",
    "SymplecticStructure", "SymplecticComplex", "NotSymplecticError",
    "parse_omega", "recursive_primitive_basis", "standard_omega",
    "CohomologyCalculator", "CohomologyGroup",
    "CompatibleTriple", "HodgeTheory", "build_triple",
]


def __getattr__(name: str):
    """The Hodge exports, imported from ``hodge`` on first access (PEP 562)."""
    if name in ("CompatibleTriple", "HodgeTheory", "build_triple"):
        from . import hodge
        return getattr(hodge, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
