"""Exact primitive-cohomology engine for symplectic invariant complexes."""

from .cealgebra import LieAlgebraSpec, parse_algebra, parse_salamon
from .cohomology import CohomologyCalculator, CohomologyGroup
from .exterior import Form, contract, grade_project, parse_form, wedge
from .hodge import CompatibleTriple, HodgeTheory, build_triple
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
