"""The paper's side results, checked on a ``CohomologyCalculator``.

The engine computes the six cohomology families and the checks the CLI
runs; these are the remaining statements of the paper, which no command
prints, kept as invariants for the tests:

* ``check_low_degree_equivalence``: in degrees 0 and 1 the one-sided
  primitive groups p+ and p- are the d- and dL-cohomologies, numerators and
  denominators equal as subspaces;
* ``check_intersection_bounds``: dim p+(k) = dim p-(k) >= dim of the
  primitive part of the dL-cohomology, with equality to the primitive parts
  of the d- and dL-cohomologies (``de_rham_primitive_part``,
  ``dlambda_primitive_part``) when the exactness lemma holds;
* ``omega_dependence``: the one-sided dimensions for several symplectic
  forms on one algebra;
* ``classes_span_equal``: do given forms represent a basis of a group;
* ``integrate`` and ``is_abelian`` on a ``LieAlgebraSpec``.

Each takes the calculator or the algebra as its first argument.
"""

from __future__ import annotations

from symcoh.cealgebra import LieAlgebraSpec
from symcoh.cohomology import CohomologyCalculator, CohomologyGroup
from symcoh.exterior import Form
from symcoh.linalg import Subspace, meet
from symcoh.reports import CheckResult
from symcoh.symplectic import SymplecticComplex


def integrate(algebra: LieAlgebraSpec, a: Form):
    """Coefficient of e_{1..2n}; the volume class is normalized to 1."""
    if a.dim != algebra.dim:
        raise ValueError(f"form has dimension {a.dim}, algebra has {algebra.dim}")
    return a.coeff((1 << algebra.dim) - 1)


def is_abelian(algebra: LieAlgebraSpec) -> bool:
    return all(f.is_zero() for f in algebra.differentials)


# -- intersection groups (closed forms that happen to be primitive) ----------

def de_rham_primitive_part(calc: CohomologyCalculator, k: int) -> CohomologyGroup:
    """(ker d ^ P^k) / (im d ^ P^k), P^k = ker Lambda."""
    return calc._finish("dR^P", k, meet(calc.st.primitive_subspace(k), calc.cx.op("d", k)),
                        meet(calc.im("d", k - 1), calc.cx.op("Lambda", k)))


def dlambda_primitive_part(calc: CohomologyCalculator, k: int) -> CohomologyGroup:
    """(ker dL ^ P^k) / (im dL ^ P^k)."""
    return calc._finish("dL^P", k, meet(calc.st.primitive_subspace(k), calc.cx.op("dLambda", k)),
                        meet(calc.im("dL", k + 1), calc.cx.op("Lambda", k)))


# -- class arithmetic ----------------------------------------------------------

def classes_span_equal(calc: CohomologyCalculator, g: CohomologyGroup,
                       forms: list[Form]) -> bool:
    """Do the given forms represent a basis of the group?

    Checked as subspace equality modulo the denominator, never as string
    equality of representatives.
    """
    vecs = [calc.to_vec(f, g.degree) for f in forms]
    if len(vecs) != g.dimension or not all(map(g.numerator.contains, vecs)):
        return False
    lifted = Subspace(g.denominator.ambient, [*g.denominator.ints, *vecs])
    return lifted.dim == g.denominator.dim + g.dimension


# -- structure checks ------------------------------------------------------------

def check_low_degree_equivalence(calc: CohomologyCalculator) -> CheckResult:
    """In degrees 0 and 1 the one-sided primitive groups coincide with the
    d- and dL-cohomologies: numerators and denominators agree as subspaces."""
    details = []
    for k in (0, 1):
        if k >= calc.n:
            continue
        pp, dr = calc.group("p+", k), calc.group("dR", k)
        pm, dl = calc.group("p-", k), calc.group("dL", k)
        for label, a, b in (
            (f"p+/dR numerator k={k}", pp.numerator, dr.numerator),
            (f"p+/dR denominator k={k}", pp.denominator, dr.denominator),
            (f"p-/dL numerator k={k}", pm.numerator, dl.numerator),
            (f"p-/dL denominator k={k}", pm.denominator, dl.denominator),
        ):
            if a != b:
                details.append(f"{label}: subspaces differ ({a.dim} vs {b.dim}); "
                               f"witness {calc._witness(k, a, b)}")
    return CheckResult("low-degree-equivalence", not details, details)


def check_intersection_bounds(calc: CohomologyCalculator) -> CheckResult:
    """dim p+(k) = dim p-(k) >= dim(dL-cohomology ^ P^k) at every k < n;
    when the exactness lemma holds, the one-sided groups equal the
    primitive parts of the d- and dL-cohomologies for 2 <= k < n."""
    details = []
    ok = True
    lemma = calc.check_ddlambda_lemma().passed
    for k in range(calc.n):
        dp = calc.group("p+", k).dimension
        dm = calc.group("p-", k).dimension
        d_cap = de_rham_primitive_part(calc, k).dimension
        dl_cap = dlambda_primitive_part(calc, k).dimension
        details.append(
            f"k={k}: p+={dp} p-={dm} dR^P={d_cap} dL^P={dl_cap}")
        if dp != dm:
            ok = False
            details.append(f"k={k}: one-sided dimensions differ")
        if dp < dl_cap:
            ok = False
            details.append(f"k={k}: lower bound violated ({dp} < {dl_cap})")
        if lemma and 2 <= k < calc.n and (dp != d_cap or dm != dl_cap):
            ok = False
            details.append(f"k={k}: lemma holds but equalities fail")
    return CheckResult("intersection-bounds", ok, details)


def omega_dependence(algebra: LieAlgebraSpec, omegas: list[Form],
                     degree: int = 2) -> list[dict[str, int]]:
    """Dimensions of the one-sided primitive groups for several symplectic
    forms on the same algebra."""
    out = []
    for w in omegas:
        calc = CohomologyCalculator(SymplecticComplex(algebra, w))
        out.append({"p+": calc.group("p+", degree).dimension,
                    "p-": calc.group("p-", degree).dimension})
    return out
