"""Seeded integer changes of basis for symplectic Lie algebras.

A fixture is a list of differentials d(e^k), one 2-form per generator, plus
a symplectic 2-form omega.  A 2-form is a dict {(a, b): c} with a < b
(1-based indices) and integer c.  An elementary move (i, j, c) replaces the
1-form e^i by f^i = e^i + c e^j; every other generator stays.  The move is
unimodular, so the result is an isomorphic fixture with integer structure
constants, and every cohomology dimension is unchanged.

This module does not import symcoh: inputs are generated before the program
under test is loaded.
"""

from __future__ import annotations

import random

INDEX_CHARS = "123456789abcdef"


def parse_two_form(text: str) -> dict:
    """Parse '0' or a +/- separated sum of terms '[c*]ab'."""
    text = text.replace(" ", "")
    if text == "0":
        return {}
    out: dict = {}
    pos = 0
    while pos < len(text):
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
        end = pos
        while end < len(text) and text[end] not in "+-":
            end += 1
        term = text[pos:end]
        coeff, _, pair = term.rpartition("*")
        a, b = INDEX_CHARS.index(pair[0]) + 1, INDEX_CHARS.index(pair[1]) + 1
        _add(out, a, b, sign * (int(coeff) if coeff else 1))
        pos = end
    return out


def parse_tuple(text: str) -> list:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    return [parse_two_form(entry) for entry in body.split(",")]


def _add(form: dict, a: int, b: int, c: int) -> None:
    if a == b or not c:
        return
    if a > b:
        a, b, c = b, a, -c
    v = form.get((a, b), 0) + c
    if v:
        form[(a, b)] = v
    else:
        form.pop((a, b), None)


def _rewrite(form: dict, i: int, j: int, c: int) -> dict:
    """Express a 2-form in e-coordinates in the new basis, where
    e^i = f^i - c f^j and e^k = f^k otherwise."""
    out: dict = {}
    for (a, b), v in form.items():
        if a == i:
            _add(out, i, b, v)
            _add(out, j, b, -c * v)
        elif b == i:
            _add(out, a, i, v)
            _add(out, a, j, -c * v)
        else:
            _add(out, a, b, v)
    return out


def apply_move(diffs: list, omega: dict, move: tuple) -> tuple[list, dict]:
    i, j, c = move
    new = [dict(f) for f in diffs]
    for (a, b), v in diffs[j - 1].items():
        _add(new[i - 1], a, b, c * v)
    return [_rewrite(f, i, j, c) for f in new], _rewrite(omega, i, j, c)


def triangle_moves(moved: int, rng: random.Random) -> list:
    """One move (i, j, c) for every pair i < j <= ``moved``, in order, with
    seeded c in {+-1, +-2}.  Move (i, j) runs before any move that changes
    e^j, so the result is f^i = e^i + sum_j c_ij e^j: a dense unit
    upper-triangular change of basis of the first ``moved`` generators.
    Half of the moves (the odd one out gets 1) have |c| = 2, in seeded
    places and with seeded signs.  Moving randomly chosen pairs instead
    varied the program's cost by a factor of two between seeds; drawing
    every |c| independently let the number of 2s vary, and one N8
    compute's cost by 25%."""
    pairs = [(i, j) for i in range(1, moved + 1) for j in range(i + 1, moved + 1)]
    magnitudes = [2] * (len(pairs) // 2) + [1] * (len(pairs) - len(pairs) // 2)
    rng.shuffle(magnitudes)
    return [(i, j, m * rng.choice((1, -1))) for (i, j), m in zip(pairs, magnitudes)]


def scramble(algebra: str, omega: str, moved: int, rng: random.Random) -> tuple[str, str]:
    """Scramble the first ``moved`` generators; return (tuple notation,
    omega shorthand)."""
    diffs = parse_tuple(algebra)
    w = parse_two_form(omega)
    for move in triangle_moves(moved, rng):
        diffs, w = apply_move(diffs, w, move)
    return "(" + ",".join(format_two_form(f) for f in diffs) + ")", format_two_form(w)


def format_two_form(form: dict) -> str:
    if not form:
        return "0"
    parts = []
    for (a, b), c in sorted(form.items()):
        pair = INDEX_CHARS[a - 1] + INDEX_CHARS[b - 1]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        parts.append(sign + (pair if mag == 1 else f"{mag}*{pair}"))
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text
