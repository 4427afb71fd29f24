import hashlib
import subprocess
import sys
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import pytest

import g2lift
from g2lift.arith import fundamental_discriminant
from g2lift.modforms import PrecisionError, QExpansion, delta, eigenform
from g2lift.shimura import (
    _bracket,
    is_fundamental_discriminant,
    plus_cusp_basis,
    shimura_lift_check,
    theta_half,
    weight2_F,
)

from conftest import forget
from oracles import bracket_by_products, c_coeff, is_fundamental_by_definition, plus_cusp_basis_monomials, sigma


def test_theta_coefficients():
    th = theta_half(30)
    assert [th.coeff(n) for n in range(5)] == [1, 2, 0, 0, 2]
    assert th.coeff(9) == 2 and th.coeff(10) == 0
    assert th.weight == F(1, 2) and th.level == 4


def test_weight2_F_coefficients():
    ff = weight2_F(30)
    assert ff.coeff(1) == 1 and ff.coeff(3) == 4 and ff.coeff(5) == 6 and ff.coeff(9) == 13
    assert all(ff.coeff(n) == 0 for n in range(0, 30, 2))
    ff = weight2_F(2000)
    assert all(ff.coeff(n) == (sigma(1, n) if n % 2 else 0) for n in range(2000))


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


@pytest.mark.parametrize("k", range(6, 31, 2))
def test_plus_basis_matches_monomial_oracle(k):
    """One kernel over the Rankin-Cohen brackets and the monomials at Sturm
    precision, then the brackets at full precision, gives exactly the basis
    of the independently powered monomials; k = 6..30 spans dimensions 1 to 5."""
    prec = 8 * k + 40
    got = plus_cusp_basis(k, prec)
    want = plus_cusp_basis_monomials(k, prec)
    assert len(got) == len(want) == _dim_cusp_level_one(2 * k)
    for g, h in zip(got, want):
        assert (g.weight, g.level, g.num, g.den) == (h.weight, h.level, h.num, h.den)


KZ_DELTA = [0, 1, 0, 0, -56, 120, 0, 0, -240, 9, 0, 0, 1440, -1320]


def test_plus6_is_the_kohnen_zagier_bracket():
    """Kohnen-Zagier's delta = (60/2 pi i)(2 G4(4z) theta' - G4'(4z) theta)
    starts q - 56q^4 + 120q^5 - 240q^8 + 9q^9 + 1440q^12 - 1320q^13, and so
    do the bracket [E4(4z), theta]_1 and the plus6 basis form."""
    b = _bracket(4, 1, len(KZ_DELTA))
    assert [b.coeff(n) / b.coeff(1) for n in range(len(KZ_DELTA))] == KZ_DELTA
    g = plus_cusp_basis(6, 200)[0]
    assert [g.coeff(n) for n in range(len(KZ_DELTA))] == KZ_DELTA


@pytest.mark.parametrize("k", range(6, 41, 2))
def test_split_bracket_matches_whole_series_products(k):
    """The bracket, split on the residues 0 and 1 mod 4 into shifted sums of
    the packed rows D^r E over theta's squares, equals the sum of whole-series
    products, for every nu <= k // 6; precisions 2 .. 9 and 8k .. 8k + 3 give
    every length of range(eps, prec, 4).  At 4000, for k = 6, 8, 10, 14, 18 and 20 (E_w(4z) has negative coefficients
    when w = 2 mod 4), the packed groups are at least 4/5 as wide as at the
    CLI's precision cap of 20000."""
    precs = [*range(2, 10), *range(8 * k, 8 * k + 4)] + ([4000] if k in (6, 8, 10, 14, 18, 20) else [])
    for nu in range(1, k // 6 + 1):
        for prec in precs:
            got, want = _bracket(k - 2 * nu, nu, prec), bracket_by_products(k - 2 * nu, nu, prec)
            assert (got.weight, got.level, got.num, got.den) == (want.weight, want.level, want.num, want.den), (nu, prec)


def _dim_cusp_level_one(weight):
    return weight // 12 - (1 if weight % 12 == 2 else 0)


def test_brackets_reach_the_kernel_dimension():
    """For every even k to 40 the bracket build returns as many forms as the
    monomial oracle's kernel holds, a dimension found without Kohnen's k // 6."""
    for k in range(6, 41, 2):
        assert len(plus_cusp_basis(k, 8 * k)) == len(plus_cusp_basis_monomials(k, 8 * k)), k


def test_plus_basis_digest_pinned_k6_to_40():
    """One sha256 over every basis vector (weight, level, num, den) for even
    k = 6 .. 40 at precision 8k, recorded from the Fraction Gauss-Jordan
    kernel that the integer Bareiss kernel replaced.  Each basis is built,
    not truncated from one an earlier test left in the series store."""
    h = hashlib.sha256()
    for k in range(6, 41, 2):
        forget(("plus_basis", k))
        for g in plus_cusp_basis(k, 8 * k):
            h.update(repr((g.weight, g.level, g.num, g.den)).encode())
    assert h.hexdigest() == "1b7c09569e9478df06abfd8a54569032ee4d21ff3ec213ca9c8f05e0d6ec2c56"


@pytest.mark.parametrize("k", [6, 12])
def test_corrupted_bracket_is_refused(k, monkeypatch):
    """A bracket that is not modular (one binomial coefficient off by one)
    cannot match a monomial combination through the Sturm bound, so the
    build raises instead of returning a basis."""
    from g2lift import modforms, shimura

    good = shimura._bracket_coefficients

    def corrupted(w, nu):
        out = good(w, nu)
        out[1] += 1
        return out

    monkeypatch.setattr(shimura, "_bracket_coefficients", corrupted)
    monkeypatch.delitem(modforms._series_cache, ("plus_basis", k), raising=False)  # build, not truncate
    prec = 8 * k + 13
    with pytest.raises(ArithmeticError):
        plus_cusp_basis(k, prec)
    monkeypatch.undo()
    assert len(plus_cusp_basis(k, prec)) == _dim_cusp_level_one(2 * k)


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
    with pytest.raises(ValueError, match="level 4"):
        shimura_lift_check(delta(100), delta(100), 5, 2)  # level 1
    with pytest.raises(ValueError, match="weight k \\+ 1/2"):
        shimura_lift_check(weight2_F(100), delta(100), 5, 2)  # integral weight
    with pytest.raises(ValueError):
        shimura_lift_check(plus6_full, delta(100), 20, 2)  # 20 not fundamental
    with pytest.raises(PrecisionError):
        shimura_lift_check(plus6_full, delta(100), 5, 50)


def test_lift_check_detects_corruption(delta_full, plus6_full):
    coeffs = [plus6_full.coeff(n) for n in range(500)]
    coeffs[5] += 1
    bad = QExpansion(F(13, 2), 4, coeffs)
    assert not shimura_lift_check(bad, delta_full, 5, 3)


class _CoeffRaised:
    """A form that delegates every attribute to ``form`` but coeff(n), which
    raises c(index) by ``by``: the perturbed plus form of the benchmark's
    negative control has this shape, so a check that read ``num`` or ``den``
    in place of coeff(n) would pass it."""

    def __init__(self, form, index, by):
        self._form, self._index, self._by = form, index, by

    def __getattr__(self, name):
        return getattr(self._form, name)

    def coeff(self, n):
        c = self._form.coeff(n)
        return c + self._by if n == self._index else c


@pytest.mark.parametrize("by", [1, F(1, 3)])
def test_lift_check_reads_coefficients_through_coeff(delta_full, plus6_full, by):
    for D in (1, 5, 8):
        assert shimura_lift_check(_CoeffRaised(plus6_full, 4 * D, 0), delta_full, D, 10)
        assert not shimura_lift_check(_CoeffRaised(plus6_full, 4 * D, by), delta_full, D, 10)


def test_plus_basis_shared_generators_match_cold_build():
    """The k = 8 basis built on the theta that the k = 6 build left in the
    series store equals one built with none of its names held."""
    from g2lift.modforms import _series_cache

    N = 900

    def purge():
        forget("theta", "F", ("plus_basis", 6), ("plus_basis", 8))

    purge()
    plus_cusp_basis(6, N)
    assert _series_cache["theta"].precision == N
    warm = [(g.num, g.den) for g in plus_cusp_basis(8, N)]
    purge()
    cold = [(g.num, g.den) for g in plus_cusp_basis(8, N)]
    assert warm == cold


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


def test_fundamental_discriminants_match_definition():
    for D in range(-100, 10**4 + 1):
        assert is_fundamental_discriminant(D) == (D > 0 and is_fundamental_by_definition(D)), D


def test_fundamental_discriminant_of_a_square_class():
    for n in range(-2000, 2001):
        if n:
            D = fundamental_discriminant(n)
            assert is_fundamental_by_definition(D) and isqrt(n * D) ** 2 == n * D, n
    with pytest.raises(ValueError, match="no square class"):
        fundamental_discriminant(0)


def test_shimura_and_lfunctions_do_not_import_each_other():
    code = "import sys, g2lift.{0}; print('g2lift.{1}' in sys.modules)"
    src = str(Path(g2lift.__file__).resolve().parents[1])
    for mod, other in (("shimura", "lfunctions"), ("lfunctions", "shimura")):
        out = subprocess.run(
            [sys.executable, "-c", code.format(mod, other)],
            capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False", (mod, other)


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
