import random

import pytest

from qbic.fields import field_make
from qbic.forms import QBicForm
from qbic.linalg import MatrixF


@pytest.fixture(scope="session")
def gf4():
    return field_make(2, 1, 2)


@pytest.fixture(scope="session")
def gf9():
    return field_make(3, 1, 2)


def random_gram(field, n, rng):
    return MatrixF(field, [[field.random_element(rng) for _ in range(n)]
                           for _ in range(n)])


def random_form(field, n, rng):
    return QBicForm(field, random_gram(field, n, rng))


def random_invertible(field, n, rng):
    while True:
        A = random_gram(field, n, rng)
        if A.is_invertible():
            return A


def rng_for(name):
    return random.Random(name)


# the 14 family witnesses of the classify-ladder benchmark, as
# (family, s, t) for moduli._witness_gram; their nu runs 0-5
LADDER_WITNESSES = ((1, 1, None), (1, 2, None), (2, 1, None), (2, 2, None),
                    (2, 3, None), (3, 1, None), (3, 2, None), (3, 3, None),
                    (4, 1, 1), (4, 2, 2), (5, 1, 1), (6, 0, None),
                    (6, 1, None), (6, 2, None))
