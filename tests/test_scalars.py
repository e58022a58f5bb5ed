import random
from fractions import Fraction

import pytest

from qi_oracle import GaussianRational, I, i_power, imag_part, real_part


def test_construction_and_equality():
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert z.re == Fraction(1, 2) and z.im == Fraction(-3, 4)
    assert GaussianRational(2) == 2 == Fraction(2)
    assert GaussianRational(2, 1) != 2
    assert hash(GaussianRational(5)) == hash(Fraction(5))


def test_field_axioms_random():
    rng = random.Random(61)

    def rand():
        return GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                Fraction(rng.randint(-5, 5), rng.randint(1, 4)))

    for _ in range(50):
        a, b, c = rand(), rand(), rand()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        if b:
            assert (a / b) * b == a


def test_i_arithmetic():
    assert I * I == -1
    assert i_power(0) == 1 and i_power(1) == I
    assert i_power(2) == -1 and i_power(3) == -I
    assert i_power(-1) == -I
    assert i_power(7) == i_power(3)


def test_conjugate_and_norm():
    z = GaussianRational(3, 4)
    assert z * z.conjugate() == z.norm() == 25
    assert (1 / z) * z == 1


def test_mixed_arithmetic_with_rationals():
    z = GaussianRational(1, 1)
    assert Fraction(1, 2) * z == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert 1 + z == GaussianRational(2, 1)
    assert 1 - z == GaussianRational(0, -1)
    assert 2 / GaussianRational(1, 1) == GaussianRational(1, -1)


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_parts_and_immutability():
    z = GaussianRational(2, 3)
    assert real_part(z) == 2 and imag_part(z) == 3
    assert real_part(Fraction(7, 2)) == Fraction(7, 2) and imag_part(5) == 0
    with pytest.raises(AttributeError):
        z.re = Fraction(1)


def test_no_coercion_from_floats():
    with pytest.raises((TypeError, ValueError)):
        GaussianRational(0.5) + GaussianRational(1)
