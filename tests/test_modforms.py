import hashlib
from fractions import Fraction as F

import pytest

from g2lift.modforms import (
    NonRationalEigenspace,
    PrecisionError,
    QExpansion,
    delta,
    eigenform,
    eisenstein,
    hecke_Tp,
    mu_f,
    satake,
)

from oracles import sigma


def test_eisenstein_against_divisor_sums():
    e4 = eisenstein(4, 60)
    e6 = eisenstein(6, 60)
    assert e4.coeff(0) == 1 and e6.coeff(0) == 1
    for n in range(1, 60):
        assert e4.coeff(n) == 240 * sigma(3, n)
        assert e6.coeff(n) == -504 * sigma(5, n)


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(ValueError):
        eisenstein(8, 10)


def test_delta_normalization_and_values():
    d = delta(60)
    assert d.coeff(0) == 0 and d.coeff(1) == 1
    assert d.coeff(2) == -24 and d.coeff(3) == 252
    assert d.coeff(6) == d.coeff(2) * d.coeff(3)


def test_e4_cubed_minus_e6_squared_divisible():
    e4, e6 = eisenstein(4, 40), eisenstein(6, 40)
    num = e4 * e4 * e4 - e6 * e6
    for n in range(num.precision):
        c = num.coeff(n)
        assert c.denominator == 1 and c.numerator % 1728 == 0


def test_hecke_eigenvalues_delta():
    d = delta(160)
    assert all(hecke_Tp(d, 2).coeff(n) == -24 * d.coeff(n) for n in range(1, 50))
    assert all(hecke_Tp(d, 3).coeff(n) == 252 * d.coeff(n) for n in range(1, 50))


def test_hecke_zero_and_precision_guard():
    z = QExpansion(F(12), 1, (0,) * 40)
    tz = hecke_Tp(z, 3)
    assert all(tz.coeff(n) == 0 for n in range(tz.precision))
    with pytest.raises(PrecisionError):
        hecke_Tp(QExpansion(F(12), 1, (0, 1, 0)), 5)


def test_hecke_commutativity():
    d = delta(400)
    for p, q in ((2, 3), (3, 5), (2, 7)):
        lhs = hecke_Tp(hecke_Tp(d, p), q)
        rhs = hecke_Tp(hecke_Tp(d, q), p)
        n = min(lhs.precision, rhs.precision)
        assert all(lhs.coeff(m) == rhs.coeff(m) for m in range(n))


def test_eigenform_certification():
    for two_k in (12, 16, 18, 20, 22, 26):
        f = eigenform(two_k, 240)
        assert f.coeff(0) == 0 and f.coeff(1) == 1
        for p in (2, 3, 5, 7, 11, 13):
            tp = hecke_Tp(f, p)
            ap = f.coeff(p)
            assert all(tp.coeff(n) == ap * f.coeff(n) for n in range(tp.precision))


def test_eigenform_twelve_is_delta():
    assert eigenform(12, 50) == delta(50)


def test_eigenform_unsupported_weights():
    with pytest.raises(NonRationalEigenspace):
        eigenform(14, 50)
    with pytest.raises(NonRationalEigenspace):
        eigenform(24, 50)


def test_satake_trivial_trace():
    # a_p = 0 forces alpha = i
    f = QExpansion(F(12), 1, tuple([0, 1] + [0] * 30))
    rec = satake(f, 3)
    assert abs(rec.alpha - 1j) < 1e-15


def test_satake_delta_p2():
    d = delta(120)
    rec = satake(d, 2)
    assert abs(rec.alpha.real - (-24 / 2**5.5) / 2) < 1e-14
    assert rec.check()


def test_satake_records_up_to_97():
    d = delta(120)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        assert satake(d, p).check()


def test_mu_f_unitary(rng):
    d = delta(1100)
    assert mu_f(d, 1) == 1
    assert mu_f(d, -1) == 1
    for _ in range(25):
        r = F(rng.randint(1, 900), rng.randint(1, 900))
        assert abs(abs(mu_f(d, r)) - 1) < 1e-12
    with pytest.raises(ValueError):
        mu_f(d, 0)


def test_mu_f_multiplicativity(rng):
    d = delta(1100)
    for _ in range(10):
        r = F(rng.randint(1, 500), rng.randint(1, 500))
        s = F(rng.randint(1, 500), rng.randint(1, 500))
        assert abs(mu_f(d, r * s) - mu_f(d, r) * mu_f(d, s)) < 1e-12


def test_qexp_arithmetic_guards():
    a = QExpansion(F(4), 1, (1, 2, 3))
    b = QExpansion(F(6), 1, (1, 0, 0))
    with pytest.raises(ValueError):
        a + b
    c = a * b
    assert c.weight == 10 and c.precision == 3
    with pytest.raises(PrecisionError):
        a.coeff(5)


def test_dump_load_roundtrip(tmp_path):
    f = eigenform(16, 20)
    path = tmp_path / "cache.mf"
    path.write_text(f.dump())
    g = QExpansion.load(path.read_text())
    assert g == f
    # half-integral header literal
    from g2lift.shimura import theta_half

    th = theta_half(10)
    assert th.dump().splitlines()[0] == "1/2 4 10"
    assert QExpansion.load(th.dump()) == th


def test_packed_convolution_matches_naive(rng):
    """The bigint-packed series product agrees with schoolbook convolution
    on signed rational inputs: unequal lengths, empty, all-zero and
    all-negative lists, trailing zeros, and entries up to 10^40, so that
    the digit bias, the truncation and every carry pattern are exercised."""

    def naive(a, b):
        n = min(len(a), len(b))
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]

    def check(a, b):
        c = QExpansion(F(4), 1, a) * QExpansion(F(6), 1, b)
        assert [c.coeff(k) for k in range(c.precision)] == naive(a, b)

    big = 10**40
    check([], [])
    check([], [1, 2, 3])
    check([0] * 9, [5, -7, 3])
    check([-1] * 12, [-3] * 7)
    check([-big] * 10, [-big] * 10)
    check([big, -big, big], [-big, big, -big, big])
    check([1, 2, 3, 0, 0, 0], [4, 5, 0, 0, 0, 0, 0])
    check([big - 1, 0, 0], [big - 1, 0, 0])
    check([F(-1, 3)] * 5, [F(2, 7), F(-5, 11)])
    # all entries at +-max: one product digit reaches the bound exactly
    for m in (1, 255, 2**32 - 1, big):
        for la in range(1, 6):
            check([m] * la, [m] * 5)
            check([-m] * la, [m] * 5)
    for bound in (1, 10**6, 2**64, big):
        for _ in range(12):
            la, lb = rng.randint(1, 30), rng.randint(1, 30)
            a = [F(rng.randint(-bound, bound), rng.randint(1, 97)) for _ in range(la)]
            b = [F(rng.randint(-bound, bound), rng.randint(1, 97)) for _ in range(lb)]
            if rng.random() < 0.3:
                a = [-abs(x) for x in a]
            if rng.random() < 0.3:
                cut = rng.randint(0, lb - 1)
                b[cut:] = [F(0)] * (lb - cut)
            check(a, b)


def _digest(series):
    h = hashlib.sha256()
    for n in range(series.precision):
        c = series.coeff(n)
        h.update(f"{c.numerator}/{c.denominator}\n".encode())
    return h.hexdigest()


def test_series_digests_pinned():
    """sha256 of every exact coefficient at N = 600, read through coeff(n)."""
    from g2lift.shimura import plus_cusp_basis

    assert _digest(delta(600)) == "d02fc42b9e4e30c313043c83f48f073e604aafa4e54513d98618d686b8bea8fe"
    assert _digest(eigenform(16, 600)) == "cb6a0933cf747d774e3df2b8ea4dcced5fadb79a2802174817e995f7e791dec8"
    assert _digest(plus_cusp_basis(6, 600)[0]) == "c3ee81158b550d3477c8eefd36aa20c7ecef6696b8f7f37429fb836219878a82"
    assert _digest(plus_cusp_basis(8, 600)[0]) == "64533232bfc2c3023d0d7424568e5e0b7cbf25d1e607ebcb627dcea03fed56f0"


def test_tau_congruence_mod_691():
    """tau(n) == sigma_11(n) mod 691, an independent corroboration of the
    discriminant expansion."""
    d = delta(200)
    for n in range(1, 200):
        assert (d.coeff(n) - sigma(11, n)) % 691 == 0


def test_eigenform_classical_second_coefficients():
    # frozen classical values of a_2 for the six one-dimensional weights
    known = {12: -24, 16: 216, 18: -528, 20: 456, 22: -288, 26: -48}
    for two_k, a2 in known.items():
        assert eigenform(two_k, 10).coeff(2) == a2
