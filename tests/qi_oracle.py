"""Test oracle: the splitting operator through a complex cobasis over Q(i).

The engine computes the splitting operator over Q, as the algebra
automorphism induced by J on covectors.  This module keeps the independent
route: rewrite a blade in the complex cobasis theta_j = u*_j + i v*_j and its
conjugates, multiply each (p, q) component by i^(p - q), and rewrite back.
``GaussianRational`` is an exact element of Q(i).  ``Form`` only holds
rationals, so the route works on plain ``{blade: GaussianRational}`` dicts.
"""

from __future__ import annotations

from fractions import Fraction

from symcoh.exterior import blade_indices, wedge_sign

_REAL_TYPES = (int, Fraction)


class GaussianRational:
    """Element of Q(i), stored as exact real and imaginary Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("floats are not exact scalars")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "GaussianRational | None":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, _REAL_TYPES):
            return GaussianRational(x)
        return None

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        c = o.conjugate()
        p = self * c
        return GaussianRational(p.re / n, p.im / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


I = GaussianRational(0, 1)


def i_power(k: int):
    """i**k as a GaussianRational (k may be negative)."""
    return (Fraction(1), I, Fraction(-1), -I)[k % 4]


def real_part(x) -> Fraction:
    if isinstance(x, GaussianRational):
        return x.re
    return Fraction(x)


def imag_part(x) -> Fraction:
    if isinstance(x, GaussianRational):
        return x.im
    return Fraction(0)


# ---------------------------------------------------------------------------
# the substitution route
# ---------------------------------------------------------------------------

def _wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, va in a.items():
        for mb, vb in b.items():
            if not ma & mb:
                m = ma | mb
                out[m] = out.get(m, 0) + wedge_sign(ma, mb) * va * vb
    return {m: v for m, v in out.items() if v}


def _substitute(coeffs: dict, images: list[dict]) -> dict:
    """Replace each factor e_i of every blade by ``images[i - 1]``."""
    out: dict = {}
    for mask, c in coeffs.items():
        term = {0: c}
        for i in blade_indices(mask):
            term = _wedge(term, images[i - 1])
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    return {m: v for m, v in out.items() if v}


class ComplexSplitting:
    """i^(p - q) on (p, q) components, through the complex cobasis of a
    compatible triple's Darboux basis.

    Cobasis index j < n is theta_j, index n + j is its conjugate.  The
    cobasis is inverted in closed form, u*_j = (theta_j + conj theta_j)/2 and
    v*_j = -i (theta_j - conj theta_j)/2, so no Q(i) elimination is needed.
    """

    def __init__(self, triple):
        dim, n = triple.structure.dim, triple.structure.n
        basis = triple.basis              # columns u_1, v_1, u_2, v_2, ...
        dual = basis.invert()             # rows u*_1, v*_1, u*_2, v*_2, ...
        half = Fraction(1, 2)
        self.n = n
        # theta_j and its conjugate in the coordinate cobasis e_1 .. e_dim
        self.theta_in_e = [
            {1 << b: GaussianRational(dual.entry(2 * j, b), sign * dual.entry(2 * j + 1, b))
             for b in range(dim)}
            for sign in (1, -1) for j in range(n)]
        # e_b = sum_j basis[b, 2j] u*_j + basis[b, 2j+1] v*_j
        self.e_in_theta = []
        for b in range(dim):
            image = {}
            for j in range(n):
                re = basis.entry(b, 2 * j) * half
                im = basis.entry(b, 2 * j + 1) * half
                image[1 << j] = GaussianRational(re, -im)
                image[1 << (n + j)] = GaussianRational(re, im)
            self.e_in_theta.append(image)

    def __call__(self, coeffs: dict) -> dict:
        in_theta = _substitute(coeffs, self.e_in_theta)
        p_mask = (1 << self.n) - 1
        scaled = {}
        for mask, c in in_theta.items():
            p = (mask & p_mask).bit_count()
            q = mask.bit_count() - p
            scaled[mask] = c * i_power(p - q)
        return _substitute(scaled, self.theta_in_e)
