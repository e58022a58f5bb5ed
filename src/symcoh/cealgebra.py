"""Nilpotent Lie (co)algebra layer.

A ``LieAlgebraSpec`` records, for each generator ``e_i`` of a 2n-dimensional
dual space, its exterior derivative as a 2-form.  d extends to the whole
exterior algebra as an anti-derivation, the one row of the algebra's
operator table (``exterior.BladeOperators``): d_k, from the degree-k blades,
is an int matrix built once from the structure constants (``op("d", k)``),
and ``apply("d", form)`` applies it to a Form.  Construction validates that
d is a differential (d_2 d_1 = 0, d o d = 0 on every generator, i.e. the
Jacobi identity, a failing column printed by ``exterior.row_to_str``) and
that the algebra is unimodular (d_{2n-1}, into the top degree, is 0), so
that top-coefficient extraction behaves like integration over a compact
quotient.

Nilpotency itself is deliberately not checked: the engine is correct for any
unimodular Lie algebra.

Input grammars:

* compact tuple notation, e.g. ``(0,0,0,12,14,15+23+24)``: one entry per
  generator, each ``0`` or a +/- separated sum of terms ``[c*]ab`` with
  single-character indices and optional integer coefficient;
* a JSON object ``{"dim": 6, "d": {"4": [[1,2,1]], ...}}`` listing triples
  ``[a, b, c]`` meaning d(e_i) += c * e_a ^ e_b (the general escape hatch).
  Each key of ``"d"`` is the generator index i in ASCII digits, and names
  its generator at most once; no JSON object may repeat a key.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .exterior import (
    BladeOperators,
    Form,
    FormParseError,
    _CHAR_TO_INDEX,
    _decimal,
    blade_from_indices,
    blade_index,
    blade_operator,
    row_to_str,
)


class AlgebraValidationError(ValueError):
    """The structure constants do not define a unimodular differential."""


class LieAlgebraSpec(BladeOperators):
    """Dimension 2n plus the differential of each generator as a 2-form.

    Its one operator is d: d e_I is the sum over its factors e_i of d(e_i)
    ^ (e_I with e_i contracted), one term for each term of each d(e_i)."""

    __slots__ = ("dim", "differentials", "_ops")
    OPS = {"d": (lambda a, k: k + 1, lambda a, k: blade_operator(a.dim, k, k + 1, [
        (1 << i, m, c) for i, f in enumerate(a.differentials) for m, c in f.items()]))}

    def __init__(self, differentials: list[Form]):
        dim = len(differentials)
        if dim == 0 or dim % 2:
            raise AlgebraValidationError(f"dimension must be even and positive, got {dim}")
        for i, f in enumerate(differentials, start=1):
            if f.dim != dim:
                raise AlgebraValidationError(
                    f"d(e_{i}) has ambient dimension {f.dim}, expected {dim}")
            if f and f.degrees() != {2}:
                raise AlgebraValidationError(f"d(e_{i}) must be a 2-form, got {f}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "differentials", tuple(differentials))
        object.__setattr__(self, "_ops", {})
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebraSpec is immutable")

    def _validate(self):
        dd = self.op("d", 2) @ self.op("d", 1)
        for i, col in enumerate(dd.cols):
            if col:
                raise AlgebraValidationError(
                    f"d(d(e_{i + 1})) = {row_to_str(self.dim, 3, col, dd.den)} != 0: "
                    "structure constants violate the Jacobi identity")
        for beta, col in zip(blade_index(self.dim, self.dim - 1)[0],
                             self.op("d", self.dim - 1).cols):
            if col:
                raise AlgebraValidationError(
                    "algebra is not unimodular: d of a codimension-one form has "
                    f"a top-degree part ({Form(self.dim, {beta: 1})})")

    def __eq__(self, other):
        if not isinstance(other, LieAlgebraSpec):
            return NotImplemented
        return self.differentials == other.differentials

    def __repr__(self):
        return f"LieAlgebraSpec(dim={self.dim})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_structure_entry(entry: str, dim: int, text: str, offset: int) -> Form:
    """One entry of the tuple notation, or the omega shorthand; ``offset`` is
    where the raw entry starts in ``text``, and positions count from there."""
    s = entry.strip()
    offset += len(entry) - len(entry.lstrip())
    if s == "0":
        return Form.zero(dim)
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            if s[pos] == "-":
                sign = -1
            pos += 1
        elif not first:
            raise FormParseError("expected '+' or '-' between terms", text, offset + pos)
        while pos < len(s) and s[pos] == " ":
            pos += 1
        start = pos
        while pos < len(s) and s[pos].isdecimal():
            pos += 1
        coeff = 1
        if pos < len(s) and s[pos] == "*":
            if pos == start:
                raise FormParseError("expected a coefficient before '*'", text, offset + pos)
            coeff = _decimal(s[start:pos], text, offset + start)
            pos += 1
            start = pos
        else:
            pos = start
        while pos < len(s) and s[pos] in _CHAR_TO_INDEX:
            pos += 1
        if pos - start != 2:
            raise FormParseError("expected a two-index term like '12'", text, offset + start)
        a, b = _CHAR_TO_INDEX[s[start]], _CHAR_TO_INDEX[s[start + 1]]
        if a >= b:
            raise FormParseError("term indices must be increasing", text, offset + start)
        if b > dim:
            raise FormParseError(f"index out of range for dimension {dim}", text, offset + start)
        mask = blade_from_indices((a, b))
        coeffs[mask] = coeffs.get(mask, Fraction(0)) + sign * coeff
        while pos < len(s) and s[pos] == " ":
            pos += 1
        first = False
    if first:
        raise FormParseError("empty structure entry", text, offset)
    return Form(dim, coeffs)


def parse_salamon(text: str) -> LieAlgebraSpec:
    """Parse compact tuple notation such as ``(0,0,0,12,14,15+23+24)``."""
    s = text.strip()
    body = s
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    entries = body.split(",")
    dim = len(entries)
    if dim % 2 or dim == 0 or not body.strip():
        raise AlgebraValidationError(
            f"dimension must be even and positive, got {dim} entries in {text!r}")
    if dim > 15:
        raise AlgebraValidationError("at most 15 generators are supported")
    diffs = []
    offset = len(text) - len(text.lstrip()) + s.startswith("(")
    for entry in entries:
        diffs.append(_parse_structure_entry(entry, dim, text, offset))
        offset += len(entry) + 1
    return LieAlgebraSpec(diffs)


def _is_int(x) -> bool:
    # JSON true/false load as bools, which Python counts as ints
    return isinstance(x, int) and not isinstance(x, bool)


def _json_coefficient(c, term) -> Fraction:
    if _is_int(c):
        return Fraction(c)
    if isinstance(c, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", c):
        try:
            return Fraction(c)
        except (ValueError, ZeroDivisionError):  # too many digits, or q = 0
            pass
    raise AlgebraValidationError(f"coefficient must be an integer or 'p/q': {term!r}")


def _object(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key given twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise AlgebraValidationError(f"JSON key {key!r} given twice")
        out[key] = value
    return out


def parse_algebra_json(text: str) -> LieAlgebraSpec:
    """Parse the JSON structure-constant format (see module docstring)."""
    try:
        data = json.loads(text, object_pairs_hook=_object)
    except AlgebraValidationError:
        raise
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise AlgebraValidationError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise AlgebraValidationError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict) or "dim" not in data:
        raise AlgebraValidationError('JSON algebra needs a "dim" field')
    dim = data["dim"]
    if not _is_int(dim) or dim <= 0 or dim % 2 or dim > 15:
        raise AlgebraValidationError(f'"dim" must be a positive even integer <= 15, got {dim!r}')
    table = data.get("d", {})
    if not isinstance(table, dict):
        raise AlgebraValidationError('"d" must map generator indices to term lists')
    diffs = [Form.zero(dim) for _ in range(dim)]
    named: set[int] = set()
    for key, terms in table.items():
        try:
            gen = int(key) if re.fullmatch("[0-9]+", key) else None
        except ValueError:  # more digits than int() reads
            gen = None
        if gen is None:
            raise AlgebraValidationError(f"bad generator index {key!r}")
        if not 1 <= gen <= dim:
            raise AlgebraValidationError(f"generator index {gen} out of range 1..{dim}")
        if gen in named:
            raise AlgebraValidationError(f"generator {gen} named twice")
        named.add(gen)
        if not isinstance(terms, list):
            raise AlgebraValidationError(f"d({key}) must be a list of terms, got {terms!r}")
        coeffs: dict[int, Fraction] = {}
        for term in terms:
            if not (isinstance(term, (list, tuple)) and len(term) == 3):
                raise AlgebraValidationError(f"term {term!r} is not a [a, b, c] triple")
            a, b, c = term
            if not (_is_int(a) and _is_int(b)):
                raise AlgebraValidationError(f"term indices must be integers: {term!r}")
            c = _json_coefficient(c, term)
            if a == b or not (1 <= a <= dim and 1 <= b <= dim):
                raise AlgebraValidationError(f"bad indices in term {term!r}")
            if a > b:
                a, b, c = b, a, -c
            mask = blade_from_indices((a, b))
            coeffs[mask] = coeffs.get(mask, Fraction(0)) + c
        diffs[gen - 1] = Form(dim, coeffs)
    return LieAlgebraSpec(diffs)


def parse_algebra(source: str) -> LieAlgebraSpec:
    """Dispatch between the tuple notation and the JSON format."""
    if source.lstrip().startswith("{"):
        return parse_algebra_json(source)
    return parse_salamon(source)
