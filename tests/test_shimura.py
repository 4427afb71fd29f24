from fractions import Fraction as F

import pytest

from g2lift.modforms import PrecisionError, QExpansion, delta, eigenform
from g2lift.shimura import (
    c_coeff,
    is_fundamental_discriminant,
    plus_cusp_basis,
    shimura_lift_check,
    theta_half,
    weight2_F,
)


def test_theta_coefficients():
    th = theta_half(30)
    assert [th.coeff(n) for n in range(5)] == [1, 2, 0, 0, 2]
    assert th.coeff(9) == 2 and th.coeff(10) == 0
    assert th.weight == F(1, 2) and th.level == 4


def test_weight2_F_coefficients():
    ff = weight2_F(30)
    assert ff.coeff(1) == 1 and ff.coeff(3) == 4 and ff.coeff(5) == 6 and ff.coeff(9) == 13
    assert all(ff.coeff(n) == 0 for n in range(0, 30, 2))


def test_plus_basis_dimension_one_k6():
    basis = plus_cusp_basis(6, 120)
    assert len(basis) == 1
    g = basis[0]
    assert g.weight == F(13, 2) and g.level == 4
    assert g.coeff(1) == 1
    assert g.coeff(2) == 0 and g.coeff(3) == 0


def test_plus_basis_known_leading_coefficients():
    g = plus_cusp_basis(6, 60)[0]
    # frozen from the exact linear algebra; c(5)^2 / c(4)^2 etc. feed the
    # ratio experiments so these values are pinned
    assert [g.coeff(n) for n in (1, 4, 5, 8, 9, 12, 13)] == [1, -56, 120, -240, 9, 1440, -1320]


def test_plus_support_through_precision():
    g = plus_cusp_basis(6, 400)[0]
    for n in range(400):
        if n % 4 in (2, 3):
            assert g.coeff(n) == 0


def test_plus_basis_dimensions_higher_weights():
    for k in (8, 10):
        assert len(plus_cusp_basis(k, 8 * k + 60)) == 1


def test_plus_basis_guards():
    with pytest.raises(ValueError):
        plus_cusp_basis(7, 200)
    with pytest.raises(PrecisionError):
        plus_cusp_basis(6, 30)


def test_lift_check_small(delta_full, plus6_full):
    assert shimura_lift_check(plus6_full, delta_full, 1, 10)
    assert shimura_lift_check(plus6_full, delta_full, 5, 10)
    assert shimura_lift_check(plus6_full, delta_full, 8, 10)


def test_lift_check_rejects_bad_inputs(plus6_full):
    f16 = eigenform(16, 100)
    with pytest.raises(ValueError):
        shimura_lift_check(plus6_full, f16, 5, 3)
    with pytest.raises(ValueError):
        shimura_lift_check(plus6_full, delta(100), 20, 2)  # 20 not fundamental
    with pytest.raises(PrecisionError):
        shimura_lift_check(plus6_full, delta(100), 5, 50)


def test_lift_check_detects_corruption(delta_full, plus6_full):
    coeffs = [plus6_full.coeff(n) for n in range(500)]
    coeffs[5] += 1
    bad = QExpansion(F(13, 2), 4, coeffs)
    assert not shimura_lift_check(bad, delta_full, 5, 3)


def test_c_coeff():
    g = plus_cusp_basis(6, 120)[0]
    assert c_coeff(g, -1) == 1
    assert c_coeff(g, -2) == 0
    assert c_coeff(g, -5) == 120
    with pytest.raises(ValueError):
        c_coeff(g, 5)
    with pytest.raises(PrecisionError):
        c_coeff(g, -10**6)


def test_fundamental_discriminants():
    fundamentals = [1, 5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40]
    for D in fundamentals:
        assert is_fundamental_discriminant(D)
    for D in (0, -4, 2, 3, 4, 9, 16, 20, 25, 27, 36):
        assert not is_fundamental_discriminant(D)


def test_c1_nonzero_iff_central_value(delta_full, plus6_full):
    """Cross-module: the normalized first coefficient tracks L(k, f)."""
    from g2lift.lfunctions import central_twisted_value

    L = central_twisted_value(delta_full, 1, 1e-10)
    assert (plus6_full.coeff(1) != 0) == (abs(L.value) > 10 * L.abs_error_bound)


def test_lift_check_weight_sixteen():
    """The k = 8 partner lifts to the weight-16 eigenform."""
    g = plus_cusp_basis(8, 300)[0]
    f = eigenform(16, 300)
    assert shimura_lift_check(g, f, 1, 5)
    assert shimura_lift_check(g, f, 5, 7)


def test_lift_check_d1_twenty_terms(delta_full, plus6_full):
    assert shimura_lift_check(plus6_full, delta_full, 1, 20)
