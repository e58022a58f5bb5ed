"""Exterior algebra over a 2n-dimensional dual space with exact coefficients.

Blades are bitmasks: bit ``i-1`` set means the basis covector ``e_i`` is a
factor, so a blade's indices are automatically strictly increasing.  A Form is
a finite blade -> coefficient map with no stored zeros, which makes equality
of the maps a canonical equality of forms.

Canonical blade order (frozen; every printed form and every matrix basis uses
it): ascending value of the integer whose base-16 digits are the blade's
indices, e.g. the blade {1,5} sorts as 0x15.  Equivalently: by degree first,
then lexicographically by the index tuple.

The printed grammar is a signed sum of terms ``[c/d*]e{i1}{i2}...`` with
single-character indices 1-9, a-f (so 2n <= 15); a degree-zero term is the
bare coefficient; a coefficient of +-1 on a blade is elided.  One renderer,
``row_to_str``, prints a degree-k int row over the ``blade_index`` basis and
a positive int denominator; ``form_to_str`` prints each degree of a Form
through it.  ``parse_form`` inverts ``form_to_str`` exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Iterable

from .linalg import OperatorMatrix, differing_columns

MAX_DIM = 15

_INDEX_CHARS = "123456789abcdef"
_CHAR_TO_INDEX = {c: i + 1 for i, c in enumerate(_INDEX_CHARS)}


class DimensionMismatchError(ValueError):
    """Operands live in exterior algebras of different ambient dimension."""


class FormParseError(ValueError):
    """The message shows a text over 80 characters only within 30 of ``pos``."""

    def __init__(self, message: str, text: str, pos: int):
        shown = text if len(text) <= 80 else ("…" * (pos > 30) + text[max(pos - 30, 0):pos + 30]
                                              + "…" * (pos + 30 < len(text)))
        super().__init__(f"{message} at position {pos}: {shown!r}")
        self.text = text
        self.pos = pos


# ---------------------------------------------------------------------------
# blades
# ---------------------------------------------------------------------------

def blade_from_indices(indices: Iterable[int]) -> int:
    """Bitmask of a strictly increasing index sequence (1-based)."""
    mask = 0
    prev = 0
    for i in indices:
        if i <= prev:
            raise ValueError(f"blade indices must be strictly increasing, got {tuple(indices)}")
        if i > MAX_DIM:
            raise ValueError(f"blade index {i} exceeds the maximum {MAX_DIM}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def blade_indices(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def blade_degree(mask: int) -> int:
    return mask.bit_count()


def blade_str(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(_INDEX_CHARS[i - 1] for i in blade_indices(mask))


def _below(mask: int) -> int:
    """The bits below an odd number of the bits of mask."""
    out = 0
    while mask:
        out ^= (mask & -mask) - 1
        mask &= mask - 1
    return out


def wedge_sign(a: int, b: int) -> int:
    """Sign of e_A ^ e_B for disjoint blades: parity of index inversions,
    the pairs of an index of B below one of A."""
    return -1 if (b & _below(a)).bit_count() & 1 else 1


def blades(dim: int, k: int) -> list[int]:
    """All degree-k blades in canonical order."""
    if k < 0 or k > dim:
        return []
    # combinations come in lexicographic order, which is the canonical one
    return [blade_from_indices(c) for c in combinations(range(1, dim + 1), k)]


@lru_cache(maxsize=None)
def blade_index(dim: int, k: int) -> tuple[list[int], dict[int, int]]:
    """Canonical degree-k blade order and each blade's position in it.

    Built once per (dim, k) and shared by every caller, which must not
    mutate either.
    """
    order = blades(dim, k)
    return order, {m: i for i, m in enumerate(order)}


@lru_cache(maxsize=None)
def blade_labels(dim: int, k: int) -> list[str]:
    """Each degree-k blade's printed name, in ``blade_index`` order; shared
    like ``blade_index``."""
    return [blade_str(m) for m in blade_index(dim, k)[0]]


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

def _coerce_scalar(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class Form:
    """Exact-coefficient element of the exterior algebra on 2n generators.

    Immutable value; all operations return new Forms.
    """

    __slots__ = ("dim", "_c")

    def __init__(self, dim: int, coeffs=None):
        if not 0 < dim <= MAX_DIM:
            raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}, got {dim}")
        object.__setattr__(self, "dim", dim)
        clean = {}
        if coeffs:
            top = 1 << dim
            for mask, c in coeffs.items():
                if not 0 <= mask < top:
                    raise ValueError(f"blade {blade_str(mask)} does not fit in dimension {dim}")
                c = _coerce_scalar(c)
                if c:
                    clean[mask] = c
        object.__setattr__(self, "_c", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Form":
        return cls(dim)

    @classmethod
    def scalar(cls, dim: int, value) -> "Form":
        return cls(dim, {0: value})

    @classmethod
    def e(cls, dim: int, *indices: int) -> "Form":
        """Basis blade e_{i1...ik} (indices strictly increasing)."""
        return cls(dim, {blade_from_indices(indices): 1})

    # -- accessors -------------------------------------------------------

    def coeff(self, mask: int):
        return self._c.get(mask, Fraction(0))

    def items(self) -> list[tuple[int, object]]:
        """(blade, coefficient) pairs in canonical blade order."""
        return sorted(self._c.items(), key=lambda kv: (kv[0].bit_count(), blade_indices(kv[0])))

    def support(self) -> set[int]:
        return set(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def degrees(self) -> set[int]:
        return {blade_degree(m) for m in self._c}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous non-zero form."""
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError(f"form is not homogeneous non-zero: {self}")
        return degs.pop()

    def grade(self, k: int) -> "Form":
        return Form(self.dim, {m: c for m, c in self._c.items() if blade_degree(m) == k})

    # -- algebra ---------------------------------------------------------

    def _check_dim(self, other: "Form"):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._check_dim(other)
        c = dict(self._c)
        for m, v in other._c.items():
            c[m] = c.get(m, 0) + v
        return Form(self.dim, c)

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._check_dim(other)
        c = dict(self._c)
        for m, v in other._c.items():
            c[m] = c.get(m, 0) - v
        return Form(self.dim, c)

    def __neg__(self) -> "Form":
        return Form(self.dim, {m: -v for m, v in self._c.items()})

    def __mul__(self, scalar) -> "Form":
        if isinstance(scalar, Form):
            raise TypeError("use wedge() for the exterior product")
        s = _coerce_scalar(scalar)
        return Form(self.dim, {m: v * s for m, v in self._c.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Form":
        s = _coerce_scalar(scalar)
        return Form(self.dim, {m: v / s for m, v in self._c.items()})

    def wedge(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            raise TypeError("wedge expects a Form")
        self._check_dim(other)
        c: dict[int, object] = {}
        for ma, va in self._c.items():
            for mb, vb in other._c.items():
                if ma & mb:
                    continue
                m = ma | mb
                c[m] = c.get(m, 0) + wedge_sign(ma, mb) * va * vb
        return Form(self.dim, c)

    def power(self, k: int) -> "Form":
        """k-fold wedge power."""
        out = Form.scalar(self.dim, 1)
        for _ in range(k):
            out = out.wedge(self)
        return out

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.dim == other.dim and self._c == other._c

    def __bool__(self):
        return bool(self._c)

    def __hash__(self):
        return hash((self.dim, frozenset(self._c.items())))

    def __str__(self):
        return form_to_str(self)

    def __repr__(self):
        return f"Form({self.dim}, {form_to_str(self)!r})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def wedge(a: Form, b: Form) -> Form:
    return a.wedge(b)


def contract(i: int, a: Form) -> Form:
    """Interior product with the i-th dual vector, acting from the left."""
    if not 1 <= i <= a.dim:
        raise ValueError(f"contraction index {i} out of range 1..{a.dim}")
    bit = 1 << (i - 1)
    c = {}
    for m, v in a._c.items():
        if m & bit:
            sign = -1 if (m & (bit - 1)).bit_count() & 1 else 1
            c[m ^ bit] = sign * v
    return Form(a.dim, c)


def blade_operator(dim: int, k_from: int, k_to: int, terms: list) -> OperatorMatrix:
    """The matrix, over the least denominator, from the degree-k_from to the
    degree-k_to blades of the sum over the (need, add, c) in ``terms`` of c
    e_add ^ after contracting e_need's factors from the left, highest first:
    e_mask holding need and not add goes to +-c e_{mask ^ need ^ add}."""
    den = lcm(*(c.denominator for _, _, c in terms))
    ints = [(need, add, _below(need) ^ _below(add), (-1) ** (need & _below(add)).bit_count()
             * c.numerator * (den // c.denominator)) for need, add, c in terms]
    idx = blade_index(dim, k_to)[1]
    cols = []
    for mask in blade_index(dim, k_from)[0]:
        col: dict[int, int] = {}
        for need, add, signs, c in ints:
            if mask & need == need and not (mask ^ need) & add:
                i = idx[mask ^ need ^ add]
                col[i] = col.get(i, 0) + (-c if (mask & signs).bit_count() & 1 else c)
        cols.append({i: v for i, v in col.items() if v})
    g = gcd(den, *(v for c in cols for v in c.values()))
    return OperatorMatrix(len(idx), len(cols), [{i: v // g for i, v in c.items()} for c in cols],
                          den // g)


def compound(a: OperatorMatrix, k: int, lower: OperatorMatrix | None) -> OperatorMatrix:
    """The degree-k matrix of the algebra map that sends e_{i+1} to column i
    of the square matrix a.  A blade's column is the image of its lowest
    factor wedged onto the image of the rest, which is the rest's column of
    ``lower``, the degree k-1 matrix.  At k = 0 it is the 1x1 identity and
    outside 0..dim the 0x0 matrix; ``lower`` is not read there."""
    dim = a.nrows
    order = blade_index(dim, k)[0]
    if not 0 < k <= dim:
        return OperatorMatrix.identity(len(order))
    rest = blade_index(dim, k - 1)[1]
    wedges: dict[int, OperatorMatrix] = {}
    cols = []
    for mask in order:
        low = (mask & -mask).bit_length() - 1
        if low not in wedges:
            wedges[low] = blade_operator(dim, k - 1, k,
                                         [(0, 1 << j, v) for j, v in a.cols[low].items()])
        cols.append(wedges[low]._times(lower.cols[rest[mask ^ 1 << low]]))
    den = a.den * lower.den
    g = gcd(den, *(v for c in cols for v in c.values()))
    return OperatorMatrix(len(order), len(order), [{i: v // g for i, v in c.items()} for c in cols],
                          den // g)


def _by_degree(a: Form, dim: int, matrix: Callable[[int], OperatorMatrix],
              to: Callable[[int], int]) -> Form:
    """The form whose degree to(k) part is matrix(k) applied to the degree-k
    part of a, in blade coordinates."""
    if a.dim != dim:
        raise DimensionMismatchError(f"ambient dimensions differ: {a.dim} vs {dim}")
    c = {}
    for k in a.degrees():
        order = blade_index(dim, to(k))[0]
        col = matrix(k).apply(form_to_coords(a.grade(k), blade_index(dim, k)[1]))
        c.update((order[i], v) for i, v in col.items())
    return Form(dim, c)


def grade_project(a: Form, k: int) -> Form:
    if not 0 <= k <= a.dim:
        raise ValueError(f"degree {k} out of range 0..{a.dim}")
    return a.grade(k)


# ---------------------------------------------------------------------------
# printing / parsing
# ---------------------------------------------------------------------------

def row_to_str(dim: int, k: int, row: dict[int, int], den: int = 1) -> str:
    """The printed degree-k form with coordinate row[j]/den on the j-th blade
    of ``blade_index``: non-zero int entries over a positive int den.  Each
    coefficient is ``n`` or ``n/d`` in lowest terms, as a Fraction prints."""
    labels = blade_labels(dim, k)
    terms = []
    for j in sorted(row):
        g = gcd(row[j], den)
        c = f"{row[j] // g}" if g == den else f"{row[j] // g}/{den // g}"
        # a bare coefficient in degree 0; a unit one is elided on a blade
        terms.append(c if not k else c[:-1] + labels[j] if c in ("1", "-1")
                     else f"{c}*{labels[j]}")
    # each term carries its sign: "a + -b" prints as "a - b"
    return " + ".join(terms).replace("+ -", "- ") or "0"


def counterexample(dim: int, k: int, shift: int, a: OperatorMatrix, b: OperatorMatrix) -> str:
    """"" if the maps a and b from the degree-k blades to degree k + shift
    are equal, else the first blade they send apart, with both images:
    "first counterexample e1: e12 != 0"."""
    if not (cols := differing_columns(a, b)):
        return ""
    j = cols[0]
    a_j, b_j = (row_to_str(dim, k + shift, m.cols[j], m.den) for m in (a, b))
    return f"first counterexample {row_to_str(dim, k, {j: 1})}: {a_j} != {b_j}"


def form_to_str(a: Form) -> str:
    """Each degree of ``a``, lowest first, through ``row_to_str`` over the
    lcm of its denominators."""
    parts = []
    for k in sorted(a.degrees()):
        idx = blade_index(a.dim, k)[1]
        m = OperatorMatrix.from_columns([form_to_coords(a.grade(k), idx)], len(idx))
        parts.append(row_to_str(a.dim, k, m.cols[0], m.den))
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _parse_blade(text: str, pos: int, dim: int) -> tuple[int, int]:
    # caller guarantees text[pos] == "e"
    start = pos
    pos += 1
    indices = []
    while pos < len(text) and text[pos] in _CHAR_TO_INDEX:
        indices.append(_CHAR_TO_INDEX[text[pos]])
        pos += 1
    if not indices:
        raise FormParseError("expected blade indices after 'e'", text, start)
    if any(i > dim for i in indices):
        raise FormParseError(f"blade index exceeds dimension {dim}", text, start)
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise FormParseError("blade indices must be strictly increasing", text, start)
    return blade_from_indices(indices), pos


def _decimal(digits: str, text: str, pos: int) -> int:
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        return int(digits)
    except ValueError:
        raise FormParseError("number has too many digits", text, pos) from None


def _parse_number(text: str, pos: int) -> tuple[Fraction, int]:
    start = pos
    while pos < len(text) and text[pos].isdecimal():
        pos += 1
    if pos == start:
        raise FormParseError("expected a number", text, start)
    num = _decimal(text[start:pos], text, start)
    den = 1
    if pos < len(text) and text[pos] == "/":
        pos += 1
        dstart = pos
        while pos < len(text) and text[pos].isdecimal():
            pos += 1
        if pos == dstart:
            raise FormParseError("expected a denominator", text, dstart)
        den = _decimal(text[dstart:pos], text, dstart)
        if den == 0:
            raise FormParseError("zero denominator", text, dstart)
    return Fraction(num, den), pos


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t":
        pos += 1
    return pos


def parse_form(text: str, dim: int) -> Form:
    """Parse the printed form grammar; inverse of ``form_to_str``."""
    coeffs: dict[int, Fraction] = {}
    pos = _skip_ws(text, 0)
    if pos == len(text):
        raise FormParseError("empty form", text, pos)
    first = True
    while pos < len(text):
        sign = 1
        if text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos = _skip_ws(text, pos + 1)
        elif not first:
            raise FormParseError("expected '+' or '-' between terms", text, pos)
        if pos == len(text):
            raise FormParseError("dangling sign", text, pos)
        if text[pos].isdecimal():
            coeff, pos = _parse_number(text, pos)
            if pos < len(text) and text[pos] == "*":
                pos += 1
                if pos == len(text) or text[pos] != "e":
                    raise FormParseError("expected a blade after '*'", text, pos)
                mask, pos = _parse_blade(text, pos, dim)
            else:
                mask = 0
        elif text[pos] == "e":
            coeff = Fraction(1)
            mask, pos = _parse_blade(text, pos, dim)
        else:
            raise FormParseError("expected a term", text, pos)
        coeffs[mask] = coeffs.get(mask, Fraction(0)) + sign * coeff
        pos = _skip_ws(text, pos)
        first = False
    return Form(dim, coeffs)


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------

def form_to_coords(a: Form, index_of_blade: dict[int, int]) -> dict[int, object]:
    """Sparse coordinate vector of a form over an indexed blade basis."""
    out = {}
    for m, c in a._c.items():
        try:
            out[index_of_blade[m]] = c
        except KeyError:
            raise ValueError(f"blade {blade_str(m)} outside the coordinate basis") from None
    return out


def form_from_coords(coords: dict[int, object], blade_order: list[int], dim: int) -> Form:
    return Form(dim, {blade_order[j]: c for j, c in coords.items()})
