from fractions import Fraction as F
from math import lcm

import pytest

from g2lift.arith import BadInput
from g2lift.cubic import CubicFieldOrbitUnsupported, CubicVector, cubic_ring, is_maximal
from g2lift.exact import mat2
from g2lift.group import ad_weyl_alpha, coad_w, levi_m, levi_m_coords
from g2lift.lift import CentralVanishing, LiftContext
from g2lift.modforms import satake

from conftest import PREC_INT, rand_mat2
from oracles import nonvanishing_split


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


def test_record_is_its_reduction(lift_ctx):
    """A lift record is the CanonicalReduction it was read from, so the 7x7
    check takes it as it is, and equal records hash equal through their
    Matrix2."""
    import dataclasses

    from g2lift.cubic import CanonicalReduction, reduce_to_canonical, verify_reduction

    w = coad_w(mat2(1, 2, 0, 1), (F(-5), F(0), F(1, 3), F(0)))
    rec, red = lift_ctx.fourier_coefficient(w), reduce_to_canonical(w)
    assert isinstance(rec, CanonicalReduction)
    assert (rec.t, rec.S, rec.m, rec.index) == (red.t, red.S, red.m, red.index) == (-5, 1, red.m, 5)
    assert rec.w == red.w == w
    assert verify_reduction(rec)
    assert not verify_reduction(dataclasses.replace(rec, S=rec.S + 1))
    copy = dataclasses.replace(rec)
    assert copy == rec and copy is not rec and hash(copy) == hash(rec)


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
    with pytest.raises(CubicFieldOrbitUnsupported, match="cubic-field orbit"):
        lift_ctx.gross_ratio((1, 0, -1, 1))
    rec = lift_ctx.fourier_coefficient((-5, 0, F(1, 3), 0))
    with pytest.raises(ValueError, match="^singular Levi parameter$"):
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


def test_failed_7x7_verification_raises(lift_ctx, monkeypatch, capsys):
    """A reduction or moved record that fails its 7x7 check raises, on the
    in-shape path, the GL2-translate path and transform_coefficient; the CLI
    reports it as INTERNAL_ERROR, a fault of the program, not a refusal."""
    import json

    import g2lift.cubic as cubic_mod
    import g2lift.lift as lift_mod
    from g2lift import cli

    rec = lift_ctx.fourier_coefficient((-5, 0, F(1, 3), 0))
    for mod in (cubic_mod, lift_mod):
        monkeypatch.setattr(mod, "verify_reduction", lambda red: False)
    for w in ((-5, 0, F(1, 3), 0), (-5, 5, F(-14, 3), 4)):
        with pytest.raises(AssertionError, match="^reduction failed its 7x7 verification$"):
            cubic_mod.reduce_to_canonical(w)
    with pytest.raises(AssertionError, match="^transformed record failed its 7x7 verification$"):
        lift_ctx.transform_coefficient(rec, mat2(1, 1, 0, 1))
    assert cli.main(["reduce", "--w=-5,0,1/3,0"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "INTERNAL_ERROR"
    assert out["message"] == "AssertionError: reduction failed its 7x7 verification"


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


def test_gross_ratio_refuses_an_imaginary_quadratic(lift_ctx):
    """q = 4/27 > 0 and f_w = u(u^2 + v^2): one rational root beside an
    imaginary quadratic factor.  No record exists for q(w) >= 0, so the
    ratio refuses it where the coefficient does, before any split."""
    with pytest.raises(ValueError, match=r"q\(w\) < 0 required"):
        lift_ctx.gross_ratio((1, 0, F(1, 3), 0))


def test_gross_ratio_reads_the_etale_type_off_the_record(lift_ctx, monkeypatch):
    """The ratio splits by the record's etale type, so it searches for roots
    only inside the reduction: none in shape, one for a GL2 translate."""
    import g2lift.cubic as cubic

    calls = []
    real = cubic.rational_projective_roots
    monkeypatch.setattr(cubic, "rational_projective_roots", lambda w: calls.append(w) or real(w))
    for w, searches in (((-5, 0, F(1, 3), 0), 0), ((-5, 5, F(-14, 3), 4), 1)):
        calls.clear()
        assert lift_ctx.gross_ratio(w) > 0
        assert len(calls) == searches, w


def test_q_is_computed_once_per_op(lift_ctx, monkeypatch):
    """A coefficient, a ratio and a `reduce` record each compute q(w) once,
    in shape and for a GL2 translate, and q(w) >= 0 has one refusal text:
    the coefficient passes its q to the reduction, which refuses it."""
    import g2lift.cubic as cubic
    import g2lift.lift as lift

    calls = []
    real = cubic.quartic_q
    counted = lambda w: calls.append(w) or real(w)
    monkeypatch.setattr(cubic, "quartic_q", counted)
    monkeypatch.setattr(lift, "quartic_q", counted)
    ops = (lift_ctx.fourier_coefficient, lift_ctx.gross_ratio, cubic.reduction_json)
    for w in ((-5, 0, F(1, 3), 0), (-5, 5, F(-14, 3), 4)):
        for op in ops:
            calls.clear()
            op(w)
            assert len(calls) == 1, (op.__name__, w)
    with pytest.raises(BadInput, match=r"^q\(w\) < 0 required$"):
        lift_ctx.fourier_coefficient((1, 0, 0, 1))
    with pytest.raises(BadInput, match=r"^q\(w\) < 0 required$"):
        cubic.reduce_to_canonical((1, 0, 0, 1))


def _l_at_one(ctx):
    from g2lift.lfunctions import central_twisted_value

    return central_twisted_value(ctx.f, 1, 1e-10)


def test_nonvanishing_split(lift_ctx):
    assert nonvanishing_split(lift_ctx.g.coeff(1), _l_at_one(lift_ctx)) is True


def test_nonvanishing_synthetic_zero(lift_ctx):
    """Force c(1) = 0 and exercise the disagreement branch."""
    with pytest.raises(AssertionError, match="disagree"):
        nonvanishing_split(F(0), _l_at_one(lift_ctx))


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


def test_nonvanishing_false_branch():
    """Both sides vanishing returns False (c(1) = 0 and a zero central value)."""
    from g2lift.lfunctions import LValue

    assert nonvanishing_split(F(0), LValue(0.0, 1e-12, 1)) is False


def test_nonvanishing_inconclusive(lift_ctx):
    """Central value indistinguishable from zero raises the inconclusive error."""
    from g2lift.lfunctions import LValue

    with pytest.raises(ArithmeticError, match="inconclusive"):
        nonvanishing_split(lift_ctx.g.coeff(1), LValue(5e-12, 1e-12, 1))


def _count_central_value_at_1(monkeypatch, fail=None):
    """Patch lift's central_twisted_value to count its D = 1 calls (and
    raise ``fail`` on them, if given); returns the list of tols seen."""
    import g2lift.lift as lift_mod

    real, seen = lift_mod.central_twisted_value, []

    def counted(f, D=1, tol=1e-10, **kwargs):
        if D == 1:
            seen.append(tol)
            if fail is not None:
                raise fail
        return real(f, D, tol, **kwargs)

    monkeypatch.setattr(lift_mod, "central_twisted_value", counted)
    return seen


def test_central_value_at_one_computed_once_per_tol(monkeypatch):
    """Two ratios on one context compute L(f, 1) once, a third reads the
    kept value, and another tol computes it again."""
    ctx = LiftContext(12, prec_int=PREC_INT, prec_half=600)
    seen = _count_central_value_at_1(monkeypatch)
    first = ctx.gross_ratio((-5, 0, F(1, 3), 0))
    assert ctx.gross_ratio((-8, 0, F(1, 3), 0)) > 0
    assert seen == [1e-10]
    assert ctx.gross_ratio((-5, 0, F(1, 3), 0)) == first
    assert seen == [1e-10]
    ctx.gross_ratio((-5, 0, F(1, 3), 0), tol=1e-8)
    assert seen == [1e-10, 1e-8]


def test_central_value_refusal_is_not_kept(monkeypatch):
    """A SeriesInstability from L(f, 1) is raised on every call, and once
    the series settles the value is computed."""
    from g2lift.lfunctions import SeriesInstability

    ctx = LiftContext(12, prec_int=PREC_INT, prec_half=600)
    seen = _count_central_value_at_1(monkeypatch, SeriesInstability("series instability: 1.0 vs 2.0"))
    for _ in range(2):
        with pytest.raises(SeriesInstability):
            ctx.gross_ratio((-5, 0, F(1, 3), 0))
    assert seen == [1e-10, 1e-10]
    monkeypatch.undo()
    seen = _count_central_value_at_1(monkeypatch)
    assert ctx.gross_ratio((-5, 0, F(1, 3), 0)) > 0
    assert seen == [1e-10]


def test_central_value_memo_follows_the_form(monkeypatch):
    """L(f, 1) kept for one form is not read for another: a copy that swaps
    f, and a context whose f is reassigned, compute their own value, and the
    original keeps its own."""
    import copy

    import g2lift.lift as lift_mod
    from g2lift.lfunctions import LValue
    from g2lift.modforms import eigenform

    ctx = LiftContext(12, prec_int=PREC_INT, prec_half=600)
    monkeypatch.setattr(
        lift_mod, "central_twisted_value", lambda f, D=1, tol=1e-10: LValue(float(f.weight), 1e-12, 1)
    )
    f16 = eigenform(16, 200)
    assert ctx._central_value(1e-10).value == 12
    other = copy.copy(ctx)
    other.f = f16
    assert other._central_value(1e-10).value == 16
    assert ctx._central_value(1e-10).value == 12
    ctx.f = f16
    assert ctx._central_value(1e-10).value == 16


def test_gross_ratio_refuses_central_vanishing(lift_ctx, monkeypatch):
    """A split central value within ten error bounds of zero leaves the
    ratio undefined, and gross_ratio raises CentralVanishing."""
    monkeypatch.setattr(LiftContext, "l_split", lambda self, rec, tol=1e-10: (0.0, 1e-12))
    with pytest.raises(CentralVanishing) as err:
        lift_ctx.gross_ratio((-5, 0, F(1, 3), 0))
    assert str(err.value) == "central vanishing; ratio undefined"


def test_gross_ratio_constant_weight_sixteen():
    """The ratio experiment generalizes to the k = 8 pipeline."""
    ctx = LiftContext(16, prec_int=2000, prec_half=400)
    ratios = [ctx.gross_ratio((-D, 0, F(1, 3), 0), tol=1e-10) for D in (5, 8, 13)]
    spread = (max(ratios) - min(ratios)) / abs(min(ratios))
    assert spread < 1e-4
