"""Seeded integer changes of basis of a symplectic Lie algebra, on Forms.

An elementary move (i, j, c), i != j and c an int, replaces the generator
e^i by f^i = e^i + c e^j and keeps the others.  Then d f^i = d e^i + c d e^j,
and every 2-form (each differential and omega) is rewritten in the new
basis by substituting e^i = f^i - c f^j.  The move is unimodular, so the
result is an isomorphic fixture with integer structure constants and every
cohomology dimension is unchanged.

``scramble`` applies one move for every pair i < j of the first ``moved``
generators, as the benchmark's input generator does, so that the change of
basis is a dense unit upper-triangular matrix: half of the moves have
|c| = 2 and the rest |c| = 1, in seeded places and with seeded signs.
"""

from __future__ import annotations

import random

from symcoh import Form, LieAlgebraSpec


def _substitute(f: Form, images: list[Form]) -> Form:
    """The 2-form f with each e^a replaced by the 1-form images[a - 1]."""
    out = Form.zero(f.dim)
    for mask, c in f.items():
        a, b = (t for t in range(f.dim) if mask >> t & 1)
        out = out + images[a].wedge(images[b]) * c
    return out


def apply_move(diffs: list[Form], omega: Form, move: tuple[int, int, int]
               ) -> tuple[list[Form], Form]:
    """The differentials and omega after the move (i, j, c), 1-based."""
    i, j, c = move
    dim = omega.dim
    diffs = list(diffs)
    diffs[i - 1] = diffs[i - 1] + diffs[j - 1] * c
    images = [Form.e(dim, a) for a in range(1, dim + 1)]
    images[i - 1] = Form.e(dim, i) - Form.e(dim, j) * c
    return [_substitute(f, images) for f in diffs], _substitute(omega, images)


def triangle_moves(moved: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """One move (i, j, c) for every pair i < j <= ``moved``, in order: move
    (i, j) runs before any move that changes e^j."""
    pairs = [(i, j) for i in range(1, moved + 1) for j in range(i + 1, moved + 1)]
    magnitudes = [2] * (len(pairs) // 2) + [1] * (len(pairs) - len(pairs) // 2)
    rng.shuffle(magnitudes)
    return [(i, j, m * rng.choice((1, -1))) for (i, j), m in zip(pairs, magnitudes)]


def scramble(alg: LieAlgebraSpec, omega: Form, moved: int, seed: int
             ) -> tuple[LieAlgebraSpec, Form]:
    """The fixture with its first ``moved`` generators scrambled by
    ``random.Random(seed)``."""
    diffs = list(alg.differentials)
    for move in triangle_moves(moved, random.Random(seed)):
        diffs, omega = apply_move(diffs, omega, move)
    return LieAlgebraSpec(diffs), omega
