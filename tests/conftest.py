import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

# Shared precisions: the in-process series store holds the longest series
# built per name and serves every shorter request as a truncation, so each
# series is built once at the largest of these that a test asks for.
PREC_FULL = 5000     # acceptance-scale half-integral precision
PREC_INT = 1300      # integral eigenform precision for lift contexts


def forget(*names):
    """Drop the series held under each name, so the next request builds it."""
    from g2lift.modforms import _series_cache

    for name in names:
        _series_cache.pop(name, None)


@pytest.fixture(scope="session")
def delta_full():
    from g2lift.modforms import delta

    return delta(PREC_FULL)


@pytest.fixture(scope="session")
def plus6_full():
    from g2lift.shimura import plus_cusp_basis

    return plus_cusp_basis(6, PREC_FULL)[0]


@pytest.fixture(scope="session")
def lift_ctx():
    from g2lift.lift import LiftContext

    return LiftContext(12, prec_int=PREC_INT, prec_half=600)


@pytest.fixture()
def rng():
    return random.Random(20260808)


def rand_rat(rng, bound=1000):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_mat2(rng, bound=30):
    from g2lift.exact import mat2

    while True:
        A = mat2(*(Fraction(rng.randint(-bound, bound), rng.randint(1, 8)) for _ in range(4)))
        if A.det() != 0:
            return A
