from fractions import Fraction as F
from math import lcm

import pytest

from g2lift.cubic import CubicFieldOrbitUnsupported, CubicVector, cubic_ring, is_maximal
from g2lift.exact import mat2
from g2lift.group import ad_weyl_alpha, coad_w, levi_m, levi_m_coords
from g2lift.lift import LiftContext
from g2lift.modforms import satake

from conftest import rand_mat2


def lattice_translate(ctx, base_w, A):
    """coad-translate of base_w by Ad(w_alpha)A, rescaled into the lattice
    by composing A with a scalar; returns (A_used, w)."""
    mp = levi_m_coords(ad_weyl_alpha(levi_m(A)))
    w = coad_w(mp, base_w)
    den = lcm(*(x.denominator for x in (w[0], 3 * w[1], 3 * w[2], w[3])))
    if den != 1:
        A = A * mat2(den, 0, 0, den)
        mp = levi_m_coords(ad_weyl_alpha(levi_m(A)))
        w = coad_w(mp, base_w)
    return A, CubicVector.of(*w)


def test_identity_reduction_record(lift_ctx):
    rec = lift_ctx.fourier_coefficient((-1, 0, F(1, 3), 0))
    assert rec.phase == 1
    assert rec.c_value == 1
    assert (rec.t, rec.S) == (-1, 1)
    assert rec.magnitude_sq == 1
    assert rec.index == 1


def test_records_hold_no_instance_dict(lift_ctx):
    """Lift records and the reductions behind them are slotted: no per-record
    __dict__, still frozen, and dataclasses.replace still builds a copy."""
    import dataclasses

    from g2lift.cubic import reduce_to_canonical

    rec = lift_ctx.fourier_coefficient((-5, 0, F(1, 3), 0))
    red = reduce_to_canonical((-5, 0, F(1, 3), 0))
    for obj in (rec, red):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.t = F(0)
    moved = dataclasses.replace(rec, c_value=rec.c_value + 1)
    assert (moved.c_value, moved.w) == (rec.c_value + 1, rec.w)


def test_record_at_five(lift_ctx):
    rec = lift_ctx.fourier_coefficient((-5, 0, F(1, 3), 0))
    assert rec.c_value == lift_ctx.g.coeff(5) == 120


def test_plus_condition_zero_coefficient(lift_ctx):
    rec = lift_ctx.fourier_coefficient((-1, 0, F(2, 3), 0))
    assert rec.c_value == 0
    assert abs(abs(rec.phase) - 1) < 1e-12


def test_mu_f_power_phase(lift_ctx):
    # S = 4: the phase is the inverse square of the Satake unit at 2
    rec = lift_ctx.fourier_coefficient((-1, 0, F(4, 3), 0))
    a2 = satake(lift_ctx.f, 2)
    assert abs(rec.phase - a2**-2) < 1e-12
    assert rec.c_value == lift_ctx.g.coeff(4) == -56


def test_preconditions(lift_ctx):
    with pytest.raises(ValueError):
        lift_ctx.fourier_coefficient((F(1, 2), 0, 0, 1))  # not lattice
    with pytest.raises(ValueError):
        lift_ctx.fourier_coefficient((1, 0, 0, 1))  # q > 0
    with pytest.raises(CubicFieldOrbitUnsupported):
        lift_ctx.fourier_coefficient((1, 0, -1, 1))
    with pytest.raises(ValueError, match="cubic-field orbit"):
        lift_ctx.l_split((1, 0, -1, 1))
    rec = lift_ctx.fourier_coefficient((-5, 0, F(1, 3), 0))
    with pytest.raises(ValueError, match="invertible"):
        lift_ctx.transform_coefficient(rec, mat2(1, 2, 2, 4))


def test_transform_identity_and_roundtrip(lift_ctx):
    rec = lift_ctx.fourier_coefficient((-5, 0, F(1, 3), 0))
    same = lift_ctx.transform_coefficient(rec, mat2(1, 0, 0, 1))
    assert same.w == rec.w and same.phase == rec.phase and same.c_value == rec.c_value
    m = mat2(2, 1, 1, 1)
    back = lift_ctx.transform_coefficient(lift_ctx.transform_coefficient(rec, m), m.inverse())
    assert back.w == rec.w and back.c_value == rec.c_value
    assert abs(back.phase - rec.phase) < 1e-12


def test_transform_det_one_preserves_magnitude(lift_ctx, rng):
    rec = lift_ctx.fourier_coefficient((-5, 0, F(1, 3), 0))
    for m in (mat2(1, 1, 0, 1), mat2(1, 0, 1, 1), mat2(2, 1, 1, 1)):
        moved = lift_ctx.transform_coefficient(rec, m)
        assert abs(abs(moved.phase) - 1) < 1e-12
        assert moved.magnitude_sq == rec.magnitude_sq


def test_translate_coherence(lift_ctx, rng):
    """fourier_coefficient of a lattice translate equals
    transform_coefficient of the base record."""
    checked = 0
    for D in (5, 8, 13):
        base_w = (F(-D), F(0), F(1, 3), F(0))
        base = lift_ctx.fourier_coefficient(base_w)
        done = 0
        while done < 10:
            A = rand_mat2(rng, bound=9)
            A, wv = lattice_translate(lift_ctx, base_w, A)
            if wv.a2 == 0 and wv.a4 == 0:
                continue  # in-shape translates take the untouched early path
            got = lift_ctx.fourier_coefficient(wv)
            pred = lift_ctx.transform_coefficient(base, A)
            assert got.c_value == pred.c_value
            assert (got.t, got.S) == (pred.t, pred.S)
            assert abs(got.phase - pred.phase) < 1e-10
            done += 1
            checked += 1
    assert checked == 30


def test_path_independence_phase_times_c(lift_ctx, rng):
    """phase * c_value is reduction-independent inside a fixed shape class."""
    base_w = (F(-13), F(0), F(1, 3), F(0))
    base = lift_ctx.fourier_coefficient(base_w)
    ref = base.phase * complex(base.c_value)
    from g2lift.modforms import mu_f

    for _ in range(6):
        A, wv = lattice_translate(lift_ctx, base_w, rand_mat2(rng, bound=7))
        got = lift_ctx.fourier_coefficient(wv)
        # undo the transform factor to compare against the base record
        mp = levi_m_coords(ad_weyl_alpha(levi_m(A)))
        assert abs(got.phase * complex(got.c_value) - ref / mu_f(lift_ctx.f, mp.det())) < 1e-9


def test_gross_ratio_constant(lift_ctx):
    ratios = [lift_ctx.gross_ratio((-D, 0, F(1, 3), 0)) for D in (5, 8, 12, 13, 17)]
    spread = (max(ratios) - min(ratios)) / abs(min(ratios))
    assert spread < 1e-4


def test_gross_ratio_totally_split_uses_square(lift_ctx):
    """The trivial-class shape vector runs against L(k, f)^2."""
    w = (0, F(1, 3), F(1, 3), 0)  # disc 1, maximal ring, totally split
    assert is_maximal(cubic_ring(w))
    assert lift_ctx.gross_ratio(w) > 0


def test_l_split_refuses_an_imaginary_quadratic(lift_ctx):
    """q = 4/27 > 0 and f_w = u(u^2 + v^2): one rational root beside an
    imaginary quadratic factor, which has no real twist to split by."""
    with pytest.raises(ValueError, match="imaginary quadratic"):
        lift_ctx.l_split((1, 0, F(1, 3), 0))


def test_nonvanishing_split(lift_ctx):
    assert lift_ctx.nonvanishing_split() is True


def test_nonvanishing_synthetic_zero(lift_ctx):
    """Force c(1) = 0 and exercise the disagreement branch."""
    import copy

    from g2lift.modforms import QExpansion

    ctx = copy.copy(lift_ctx)
    coeffs = [lift_ctx.g.coeff(n) for n in range(lift_ctx.g.precision)]
    coeffs[1] = F(0)
    ctx.g = QExpansion(F(13, 2), 4, coeffs)
    with pytest.raises(AssertionError):
        ctx.nonvanishing_split()


def test_record_json(lift_ctx):
    rec = lift_ctx.fourier_coefficient((-5, 0, F(1, 3), 0))
    payload = rec.as_json()
    assert payload["schema"] == 1
    assert payload["c_value"] == "120"
    assert payload["magnitude_sq"] == "14400"
    assert payload["index"] == "5"


def test_context_rejects_odd_half_weights():
    with pytest.raises(ValueError):
        LiftContext(18)


def test_gross_ratio_trivial_class_soft(lift_ctx):
    """The trivial-class example runs in soft mode (its ring has index 2)."""
    r = lift_ctx.gross_ratio((-1, 0, F(1, 3), 0))
    assert r > 0


def test_nonvanishing_false_branch(lift_ctx, monkeypatch):
    """Both sides vanishing returns False (central value patched to 0)."""
    import copy

    import g2lift.lift as lift_mod
    from g2lift.lfunctions import LValue
    from g2lift.modforms import QExpansion

    ctx = copy.copy(lift_ctx)
    coeffs = [lift_ctx.g.coeff(n) for n in range(lift_ctx.g.precision)]
    coeffs[1] = F(0)
    ctx.g = QExpansion(F(13, 2), 4, coeffs)
    monkeypatch.setattr(
        lift_mod, "central_twisted_value", lambda *a, **k: LValue(0.0, 1e-12, 1)
    )
    assert ctx.nonvanishing_split() is False


def test_nonvanishing_inconclusive(lift_ctx, monkeypatch):
    """Central value indistinguishable from zero raises the inconclusive error."""
    import copy

    import g2lift.lift as lift_mod
    from g2lift.lfunctions import LValue

    ctx = copy.copy(lift_ctx)
    monkeypatch.setattr(
        lift_mod, "central_twisted_value", lambda *a, **k: LValue(5e-12, 1e-12, 1)
    )
    with pytest.raises(ArithmeticError, match="inconclusive"):
        ctx.nonvanishing_split()


def test_gross_ratio_constant_weight_sixteen():
    """The ratio experiment generalizes to the k = 8 pipeline."""
    ctx = LiftContext(16, prec_int=2000, prec_half=400)
    ratios = [ctx.gross_ratio((-D, 0, F(1, 3), 0), tol=1e-10) for D in (5, 8, 13)]
    spread = (max(ratios) - min(ratios)) / abs(min(ratios))
    assert spread < 1e-4
