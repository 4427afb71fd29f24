import cmath
import math

import mpmath
import pytest

from g2lift.arith import is_fundamental_discriminant, kronecker
from g2lift.exact import Poly
from g2lift.lfunctions import LValue, SeriesInstability, central_twisted_value, gamma_inc_ratio
from g2lift.lfunctions import _central_sums, _chi_table, _cutoff_terms
from g2lift.modforms import delta, eigenform

from oracles import (
    central_value_by_three_sums,
    cesaro_direct_value,
    cutoff_terms_by_walk,
    factorization_check,
    invert_alpha,
    kronecker_chi,
    kronecker_oracle,
    poly_at,
    shifted_pair_factor,
    smoothed_sums,
    solve_root_number,
    specialize_alpha,
    std7_euler_factor,
    std7_numeric_check,
    sym2_factor,
)


def test_kronecker_matches_oracle():
    for D in (1, 5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40):
        for n in range(0, 120):
            assert kronecker_chi(D, n) == kronecker_oracle(D, n)


def test_kronecker_specific():
    assert kronecker_chi(5, 2) == -1
    assert kronecker_chi(1, 9) == 1
    assert all(kronecker_chi(8, n) == 0 for n in range(0, 40, 2))


def test_kronecker_rejects_nonfundamental():
    with pytest.raises(ValueError):
        kronecker_chi(20, 3)
    with pytest.raises(ValueError):
        kronecker_chi(-3, 2)


def test_kronecker_refuses_a_negative_modulus():
    for a in (-3, 0, 5, 8):
        for n in (-1, -2, -15):
            with pytest.raises(ValueError):
                kronecker(a, n)


def test_gamma_inc_ratio_matches_mpmath():
    for k in (2, 6, 10):
        for x in (0.1, 1.0, 7.5, 33.0, 80.0):
            want = float(mpmath.gammainc(k, x, regularized=True))
            assert abs(gamma_inc_ratio(k, x) - want) <= 1e-14 * max(1, want)


def test_cutoff_bisection_matches_walk():
    """Doubling and bisection return the n of the step-8 walk: the tail
    bound is log-concave in n, so the predicate flips once."""
    for D in [D for D in list(range(1, 300)) + [1001, 2993] if is_fundamental_discriminant(D)]:
        for k in (6, 8, 9, 10, 11, 13):
            for tol in (1e-4, 3e-7, 1e-12):
                assert _cutoff_terms(D, k, tol) == cutoff_terms_by_walk(D, k, tol), (D, k, tol)


def test_chi_table_has_period_D():
    """chi_D(n) = table[n % D] for every n < 3D and every fundamental D < 2000,
    D = 1 mod 4 and D = 0 mod 4 (4m and 8m') alike."""
    discs = [D for D in range(1, 2000) if is_fundamental_discriminant(D)]
    assert {D % 16 for D in discs if D % 4 == 0} == {8, 12}
    for D in discs:
        table = _chi_table(D)
        assert len(table) == D
        assert all(table[n % D] == kronecker(D, n) for n in range(1, 3 * D)), D


def _hex(floats):
    return [x.hex() for x in floats]


def _outcome(fn, *args):
    """fn(*args) as (value, abs_error_bound, terms_used) with the floats as
    their hex, or the refusal it raises."""
    try:
        out = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, LValue):
        out = out.value, out.abs_error_bound, out.terms_used
    return out[0].hex(), out[1].hex(), out[2]


def _largest_answering(k, tol, precision):
    """The largest fundamental D whose doubled cutoff fits the precision."""
    return max(D for D in range(1, precision) if is_fundamental_discriminant(D) and 2 * _cutoff_terms(D, k, tol) < precision)


@pytest.mark.parametrize("two_k", [12, 20, 26])
def test_one_pass_matches_three_sums(two_k):
    """The one-pass sums equal three separate ``smoothed_sum`` calls float
    for float, and so value, abs_error_bound and terms_used (or the
    refusal) equal the three-call computation's, for D = 1, a spread of
    fundamental D and the largest D the precision answers.  2k = 26 has k
    odd, which central_twisted_value refuses; its sums are compared."""
    f = eigenform(two_k, 4000)
    k = two_k // 2
    for tol in (1e-6, 1e-10, 1e-12):
        for D in (1, 5, 8, 12, 13, 40, 61, 105, 136, _largest_answering(k, tol, f.precision)):
            base = _cutoff_terms(D, k, tol)
            assert _hex(_central_sums(f, D, k, base)) == _hex(smoothed_sums(f, D, k, base)), (D, tol)
            if k % 2 == 0:
                got = _outcome(central_twisted_value, f, D, tol)
                assert got == _outcome(central_value_by_three_sums, f, D, tol), (D, tol)
            else:
                with pytest.raises(ValueError, match="k even"):
                    central_twisted_value(f, D, tol)


def test_central_value_delta():
    d = delta(2500)
    val = central_twisted_value(d, 1, 1e-10)
    assert val.abs_error_bound < 1e-10
    assert abs(val.value - 0.7921228386460305) < 1e-10
    assert val.value != 0


def test_central_value_twists_stable():
    d = delta(2500)
    for D in (5, 8, 13):
        val = central_twisted_value(d, D, 1e-10)
        assert val.abs_error_bound < 1e-10
        assert abs(val.value) > 0.01


def test_central_value_agrees_with_mpmath_reference():
    # the same smoothed series recomputed at 40 digits by the oracle
    d = delta(2500)
    for D in (1, 5, 12, 13):
        got = central_twisted_value(d, D, 1e-10).value
        ref = central_value_by_three_sums(d, D, 1e-10, use_mpmath=True)[0]
        assert abs(got - ref) < 1e-11, D


def test_central_value_guards():
    d = delta(2500)
    with pytest.raises(ValueError):
        central_twisted_value(d, 1, 1e-14)  # tol below float support
    with pytest.raises(ValueError):
        central_twisted_value(d, 20, 1e-8)  # not fundamental
    with pytest.raises(ValueError):
        central_twisted_value(delta(30), 1, 1e-10)  # too few coefficients
    for two_k in (18, 22, 26):  # k odd: root number -1, not the +1 assumed
        with pytest.raises(ValueError, match="k even"):
            central_twisted_value(eigenform(two_k, 2500), 5, 1e-10)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_non_finite_tol_rejected(tol):
    """NaN and inf pass a `tol < 1e-12` floor; with them the cutoff
    predicate is always false and the agreement check never fires."""
    with pytest.raises(ValueError, match="finite"):
        central_twisted_value(delta(600), 5, tol)


def test_root_number_solves_to_one():
    d = delta(2500)
    for D in (1, 5, 17):
        assert abs(solve_root_number(d, D) - 1) < 1e-6


def test_cesaro_oracle_cross_check(delta_full):
    # independent direct-summation oracle at loose tolerances
    smoothed = central_twisted_value(delta_full, 1, 1e-10).value
    direct = cesaro_direct_value(delta_full, 1, 2400)
    assert abs(smoothed - direct) < 10 * 1e-3
    smoothed5 = central_twisted_value(delta_full, 5, 1e-10).value
    direct5 = cesaro_direct_value(delta_full, 5, 4900)
    assert abs(smoothed5 - direct5) < 10 * 5e-3


# --- formal Euler algebra -----------------------------------------------------

def test_factorization_formal_identity():
    assert factorization_check()


def _t_coefficient(poly, i):
    """The coefficient of T^i in a Poly in (a, r, T), as a Poly in (a, r)."""
    return Poly(2, {m[:2]: c for m, c in poly.items() if m[2] == i})


def test_std7_shape():
    p7 = std7_euler_factor()
    assert p7.nvars == 3
    assert {m[2] for m in p7} == set(range(8))  # degree 7 in T
    assert _t_coefficient(p7, 0) == Poly.monomial(0, 0)
    # alpha -> 1/alpha leaves the polynomial unchanged
    assert invert_alpha(p7) == p7


def test_std7_t1_coefficient():
    t1 = _t_coefficient(std7_euler_factor(), 1)
    want = -(
        Poly.monomial(0, 0)
        + Poly.monomial(2, 0)
        + Poly.monomial(-2, 0)
        + (Poly.monomial(1, 0) + Poly.monomial(-1, 0))
        * (Poly.monomial(0, 1) + Poly.monomial(0, -1))
    )
    assert t1 == want


def test_std7_alpha_one_specialization():
    expect = Poly.monomial(0, 0, 0)
    for j in (0, 0, 0, 1, 1, -1, -1):
        expect = expect * (Poly.monomial(0, 0, 0) - Poly.monomial(0, j, 1))
    assert specialize_alpha(std7_euler_factor(), 1) == expect


def test_factorization_numeric_spot_checks(rng):
    for _ in range(20):
        alpha = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        p = rng.choice([2, 3, 5, 7, 11, 13])
        T = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        assert std7_numeric_check(alpha, p, T, tol=1e-14)


def test_sym2_times_shifts_is_std7_numerically():
    alpha = cmath.exp(0.77j)
    rp = math.sqrt(7)
    T = 0.21 - 0.05j
    full = sym2_factor() * shifted_pair_factor(1) * shifted_pair_factor(-1)
    lhs = poly_at(full, alpha, rp, T)
    rhs = poly_at(std7_euler_factor(), alpha, rp, T)
    assert abs(lhs - rhs) < 1e-14


# --- Kohnen-Zagier proportionality ---------------------------------------------

def test_kz_ratio_constant(delta_full, plus6_full):
    k = 6
    ratios = []
    for D in (5, 8, 12, 13, 17, 21, 24):
        cD = plus6_full.coeff(D)
        if cD == 0:
            continue
        L = central_twisted_value(delta_full, D, 1e-10)
        ratios.append(float(cD * cD) / (D ** (k - 0.5) * L.value))
    assert len(ratios) >= 6
    spread = (max(ratios) - min(ratios)) / abs(min(ratios))
    assert spread < 1e-5


def test_series_instability_detected():
    """A corrupted tail coefficient breaks the two-cutoff agreement."""
    from g2lift.modforms import QExpansion

    d = delta(2500)
    coeffs = [d.coeff(n) for n in range(d.precision)]
    coeffs[10] += 10**30  # spike weighted differently by each cutoff
    fake = QExpansion(d.weight, 1, coeffs)
    with pytest.raises(SeriesInstability):
        central_twisted_value(fake, 1, 1e-10)


def test_factorization_numeric_specific_point():
    # alpha = i, p = 2, T = 1/3
    assert std7_numeric_check(1j, 2, 1 / 3, tol=1e-14)
