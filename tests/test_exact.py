from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2lift.exact import GRAM, GRAM_INV, Matrix2, Matrix7, mat2, preserves_form

from conftest import rand_rat
from oracles import det_cofactor

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


def rand_matrix7(rng):
    return Matrix7([[rand_rat(rng, 40) for _ in range(7)] for _ in range(7)])


def test_identity_product():
    i7 = Matrix7.identity()
    assert i7 * i7 == i7


def test_gram_inverse():
    assert GRAM * GRAM_INV == Matrix7.identity()


def test_generator_square_matches_doubled_parameter():
    # the exponential one-parameter law, seen through raw matrices
    from g2lift.group import heis_n

    n1 = heis_n(1, 0, 0, 0, 0)
    n2 = heis_n(2, 0, 0, 0, 0)
    assert n1.matrix * n1.matrix == n2.matrix


def test_mat_mul_associative(rng):
    for _ in range(15):
        a, b, c = (rand_matrix7(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_det_matches_cofactor_oracle(rng):
    for _ in range(8):
        m = rand_matrix7(rng)
        assert m.det() == det_cofactor([list(r) for r in m.rows])


def test_det_singular():
    rows = [[F(i + j) for j in range(7)] for i in range(7)]
    assert Matrix7(rows).det() == 0


def test_preserves_form_identity_and_diag():
    assert preserves_form(Matrix7.identity())
    bad = Matrix7.from_entries({(i, i): 1 for i in range(7)} | {(0, 0): 2})
    assert not preserves_form(bad)


def test_preserves_form_all_generators():
    from g2lift.group import ALL_ROOTS, root_generator

    for gamma in ALL_ROOTS:
        for u in (1, -1, 2, -2, F(3, 5)):
            assert preserves_form(root_generator(gamma, u).matrix)


def test_preserves_form_closed_under_product(rng):
    from g2lift.group import ALL_ROOTS, identity, root_generator

    g = identity()
    for _ in range(100):
        gamma = rng.choice(ALL_ROOTS)
        g = g * root_generator(gamma, rand_rat(rng, 20))
        assert preserves_form(g.matrix)


@given(
    a=rationals, b=rationals, c=rationals, d=rationals,
    e=rationals, f=rationals, g=rationals, h=rationals,
)
@settings(max_examples=60, deadline=None)
def test_matrix2_ring_laws(a, b, c, d, e, f, g, h):
    m1, m2 = mat2(a, b, c, d), mat2(e, f, g, h)
    assert (m1 + m2).transpose() == m1.transpose() + m2.transpose()
    assert (m1 * m2).transpose() == m2.transpose() * m1.transpose()
    assert (m1 * m2).det() == m1.det() * m2.det()


def test_matrix2_inverse():
    a = mat2(F(1, 2), 3, -2, F(5, 7))
    assert a * a.inverse() == Matrix2.identity()
    with pytest.raises(ZeroDivisionError):
        mat2(1, 2, 2, 4).inverse()


def test_entries_always_reduced():
    m = mat2(F(2, 4), F(6, 9), 0, 1)
    a, b, _, _ = m.entries()
    assert (a.numerator, a.denominator) == (1, 2)
    assert (b.numerator, b.denominator) == (2, 3)
    assert all(x.denominator > 0 for x in m.entries())


def test_gram_blocks():
    assert GRAM[3, 3] == -2
    assert GRAM[0, 5] == GRAM[5, 0] == 1
    assert GRAM == GRAM.transpose()
