import pytest

from fixtures import parse
from symcoh import CohomologyCalculator, Form, SymplecticComplex


def wedge_chain(dim, index_string):
    """e.g. '315' -> e3 ^ e1 ^ e5, signs handled by the wedge."""
    out = Form.scalar(dim, 1)
    for ch in index_string:
        out = out.wedge(Form.e(dim, int(ch, 16)))
    return out


@pytest.fixture(scope="session")
def nil_algebra():
    return parse("N6")[0]


@pytest.fixture(scope="session")
def torus_algebra():
    return parse("T6")[0]


@pytest.fixture(scope="session")
def omega():
    return parse("N6")[1]


@pytest.fixture(scope="session")
def omega_prime():
    return parse("N6-prime")[1]


@pytest.fixture(scope="session")
def nil_cx(nil_algebra, omega):
    return SymplecticComplex(nil_algebra, omega)


@pytest.fixture(scope="session")
def nil_cx_prime(nil_algebra, omega_prime):
    return SymplecticComplex(nil_algebra, omega_prime)


@pytest.fixture(scope="session")
def torus_cx(torus_algebra):
    return SymplecticComplex(torus_algebra, parse("T6")[1])


@pytest.fixture(scope="session")
def nil_calc(nil_cx):
    return CohomologyCalculator(nil_cx)


@pytest.fixture(scope="session")
def nil_calc_prime(nil_cx_prime):
    return CohomologyCalculator(nil_cx_prime)


@pytest.fixture(scope="session")
def torus_calc(torus_cx):
    return CohomologyCalculator(torus_cx)
