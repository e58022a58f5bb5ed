"""The one table of test fixtures: every (algebra, omega) pair the tests run on.

Each entry names an algebra and an omega text, in the grammars the CLI
reads, its tags and an optional seeded change of basis through
``basis_change``.  ``build(name)`` parses the texts and applies the change
of basis on every call, so a test that writes into a complex's cached
matrices never reaches another test's complex.  A parametrized test takes
its fixtures from ``select``, by name or tag.  ``tests/test_fixtures.py``
holds that no two entries are equal and pins the scrambled ones.  The tags:

* ``core``: N6 under both omegas, KT4 and T6, the hand-picked fixtures;
* ``ladder``: N6 and N6 times a torus of 2, 4, 6 and 8 dims (N8 to N14,
  with ``+78``, ``+9a``, ``+bc`` and ``+de`` added to omega), and T8;
* ``half``: N6, KT4, KT x T2 and T6 with omega doubled or halved, or one
  structure constant of N6 halved, so that an operator has denominator 2;
* ``scrambled``: a seeded integer change of basis of another fixture;
* ``primitive``: the fixtures of the primitive-coordinate oracles
  (``test_primitive_coordinates`` and ``test_meet``).
"""

from __future__ import annotations

import random
from typing import NamedTuple

from basis_change import matrix_moves, scramble, triangle_moves
from symcoh import Form, LieAlgebraSpec, SymplecticComplex, parse_algebra
from symcoh.symplectic import parse_omega

N6 = "(0,0,0,12,14,15+23+24)"
N8 = "(0,0,0,12,14,15+23+24,0,0)"
# the moves of a seeded change of basis of every generator, by kind
MOVES = {"triangle": triangle_moves, "matrix": matrix_moves}


class Entry(NamedTuple):
    algebra: str
    omega: str
    tags: str = ""  # separated by blanks
    # (kind of MOVES, seed): the texts are then the fixture before the change
    moves: tuple[str, int] | None = None


TABLE = {
    "dim-2": Entry("(0,0)", "12"),
    "KT4": Entry("(0,0,0,12)", "13+24", "core"),
    "KT4-half": Entry("(0,0,0,12)", "2*13+24", "half"),
    "N6": Entry(N6, "16+25-34", "core ladder primitive"),
    "N6-prime": Entry(N6, "13+26-45", "core primitive"),
    "N6-half": Entry(N6, "2*16+2*25-2*34", "half"),
    "N6-half-omega": Entry(N6, "1/2*e16 + 1/2*e25 - 1/2*e34", "half"),
    # d e4 = e12/2: the two products in dLambda_k have different denominators
    "N6-half-d": Entry('{"dim": 6, "d": {"4": [[1, 2, "1/2"]], "5": [[1, 4, 1]], '
                       '"6": [[1, 5, 1], [2, 3, 1], [2, 4, 1]]}}', "16+25-2*34", "half"),
    # d e4 = 2/3 e12 and d e5 = 3/5 e14; omega is closed for these ratios
    "N6-p/q": Entry('{"dim": 6, "d": {"4": [[1, 2, "2/3"]], "5": [[1, 4, "3/5"]], '
                    '"6": [[1, 5, 1], [2, 3, 1], [2, 4, 1]]}}', "1/2*e16 + 5/6*e25 - 3/4*e34"),
    "KTxT2": Entry("(0,0,0,12,0,0)", "13+24+56", "primitive"),
    # omega off Darboux form: B_2 and B_3 have pivot entries 1 and 2, so a
    # lifted row can have content 2
    "KTxT2-half": Entry("(0,0,0,12,0,0)", "2*13+24+56", "half primitive"),
    "T6": Entry("(0,0,0,0,0,0)", "12+34+56", "core primitive"),
    "T6-half": Entry("(0,0,0,0,0,0)", "2*12+34+56", "half"),
    "N8": Entry(N8, "16+25-34+78", "ladder primitive"),
    "T8": Entry("(0,0,0,0,0,0,0,0)", "12+34+56+78", "ladder"),
    "N10": Entry("(0,0,0,12,14,15+23+24,0,0,0,0)", "16+25-34+78+9a", "ladder"),
    "N12": Entry("(0,0,0,12,14,15+23+24,0,0,0,0,0,0)", "16+25-34+78+9a+bc", "ladder"),
    "N14": Entry("(0,0,0,12,14,15+23+24,0,0,0,0,0,0,0,0)", "16+25-34+78+9a+bc+de", "ladder"),
    # N6 under a dense unit upper-triangular integer change of basis of all
    # six generators, with omega doubled so that its inverse has entries +-1/2
    "scrambled-N6": Entry(
        "(-12-13-14+3*16-3*23-24-2*25+2*26+34-2*35-8*36-2*45-3*46-6*56,"
        "12+13+2*14-2*16+4*23+24+2*25-4*26-3*34+2*35+8*36+4*45+2*46+4*56,"
        "-12-13-2*14+4*15+10*16+7*24-10*25-12*26+11*34-18*35-24*36-8*45+22*46-52*56,"
        "12+13+14-2*15-7*16+23-3*24+6*25+6*26-5*34+10*35+16*36+4*45-9*46+30*56,"
        "14-3*15-5*16-2*23-6*24+6*25+10*26-8*34+12*35+12*36+5*45-19*46+34*56,"
        "15+2*16+23+2*24-2*25-4*26+2*34-4*35-4*36-45+6*46-12*56)",
        "2*16+2*25-2*34+4*35-2*36+4*45+2*46+4*56", "scrambled"),
    "scrambled-N6-seed3": Entry(N6, "16+25-34", "scrambled primitive", ("triangle", 3)),
    "scrambled-N8": Entry(N8, "16+25-34+78", "scrambled primitive", ("triangle", 11)),
    "scrambled-N8-seed8": Entry(N8, "16+25-34+78", "scrambled", ("matrix", 8)),
}


def select(*keys: str) -> list[str]:
    """The names, in table order, of the entries named by a key or carrying
    one as a tag; a key that is neither is refused."""
    tags = {t for e in TABLE.values() for t in e.tags.split()}
    unknown = set(keys) - tags - TABLE.keys()
    assert not unknown, f"no fixture or tag {sorted(unknown)}"
    return [name for name, e in TABLE.items() if {name, *e.tags.split()} & set(keys)]


def texts(name: str) -> tuple[str, str]:
    """The algebra and omega texts of an entry built with no change of basis."""
    e = TABLE[name]
    assert e.moves is None, f"{name} is built by moves, not from texts"
    return e.algebra, e.omega


def parse(name: str) -> tuple[LieAlgebraSpec, Form]:
    """A freshly parsed algebra and omega of the entry."""
    e = TABLE[name]
    alg = parse_algebra(e.algebra)
    omega = parse_omega(e.omega, alg.dim)
    if e.moves is not None:
        kind, seed = e.moves
        alg, omega = scramble(alg, omega, MOVES[kind](alg.dim, random.Random(seed)))
    return alg, omega


def build(name: str) -> SymplecticComplex:
    """A fresh complex of the entry."""
    return SymplecticComplex(*parse(name))
