"""Fourier coefficients of the quaternionic lift, up to one unknown
constant per shape class.

For a lattice vector w with q(w) < 0 whose cubic has a rational projective
root, the reduction w = det(m')^2 rho3(m'^-1) (t, 0, S/3, 0) turns the
coefficient into

    C(S) * mu_f(det m)^-1 * mu_f(S)^-1 * c_{tS},

where c_{tS} = c(-tS) is a coefficient of the weight k + 1/2 plus-space
partner of f and C(S) is never computed: records are only comparable at a
fixed S.  The phase is a product of unit-circle Satake values, so
magnitude data is convention-free while the phase depends on the
alpha vs 1/alpha choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import BadInput
from .cubic import (
    CanonicalReduction, CubicFieldOrbitUnsupported, CubicVector, etale_type, quartic_q, reduce_to_canonical,
    verify_reduction,
)
from .exact import Matrix2
from .group import coad_w, levi_m_prime
from .lfunctions import central_twisted_value
from .modforms import QExpansion, eigenform, mu_f
from .shimura import plus_cusp_basis


class CentralVanishing(ArithmeticError):
    """A ratio was requested against a vanishing central L-value."""


@dataclass(frozen=True, slots=True)
class LiftCoefficient(CanonicalReduction):
    """The reduction (t, S, m) of ``w`` with its phase and c(-tS)."""

    w: CubicVector
    phase: complex
    c_value: Fraction

    @property
    def magnitude_sq(self) -> Fraction:
        return self.c_value * self.c_value

    def as_json(self) -> dict:
        return {
            "schema": 1,
            "w": [str(x) for x in self.w],
            "t": str(self.t),
            "S": str(self.S),
            "m": [[str(self.m[0, 0]), str(self.m[0, 1])], [str(self.m[1, 0]), str(self.m[1, 1])]],
            "phase": {"re": self.phase.real, "im": self.phase.imag},
            "c_value": str(self.c_value),
            "magnitude_sq": str(self.magnitude_sq),
            "index": str(self.index),
            "normalization": "C(S)-relative; c(1)-normalized plus form",
        }


class LiftContext:
    """Holds the eigenform, its plus-space partner, and precisions.

    two_k is the integral weight 2k; the half-integral side has weight
    k + 1/2.  Precision defaults cover indices -tS and twists D up to
    roughly ``prec_half`` and Satake primes below ``prec_int``.  L(f, 1)
    is computed once per ``tol`` and kept with the form it was computed
    from, so a copy or an instance whose ``f`` is replaced computes its own;
    a refusal is not kept.
    """

    def __init__(self, two_k: int = 12, prec_int: int = 2000, prec_half: int = 600):
        if two_k % 4 != 0:
            # k = two_k/2 must be even for the root-number and sign conventions
            raise BadInput("two_k must be divisible by 4")
        self.two_k = two_k
        self.k = two_k // 2
        self.f: QExpansion = eigenform(two_k, prec_int)
        self.g: QExpansion = plus_cusp_basis(self.k, prec_half)[0]
        self._l1: tuple = (self.f, {})

    def _central_value(self, tol: float):
        """L(f, 1) at ``tol``, computed on the first call for that ``tol``
        and this ``f``."""
        f, memo = self._l1
        if f is not self.f:
            memo = {}
            self._l1 = (self.f, memo)
        L = memo.get(tol)
        if L is None:
            L = memo[tol] = central_twisted_value(self.f, 1, tol)
        return L

    # -- coefficient evaluation ---------------------------------------------

    def fourier_coefficient(self, w) -> LiftCoefficient:
        """Coefficient record at a lattice vector w, up to C(S)."""
        w = CubicVector.of(*w)
        if not w.is_lattice():
            raise BadInput("w must lie in the integral lattice")
        if quartic_q(w) >= 0:
            raise BadInput("q(w) < 0 required")
        red = reduce_to_canonical(w)  # raises on cubic-field orbits
        n = int(red.index)  # a positive integer: see CanonicalReduction.index
        c_val = Fraction(0) if n % 4 in (2, 3) else self.g.coeff(n)
        phase = (1 / mu_f(self.f, red.m.det())) * (1 / mu_f(self.f, red.S))
        return LiftCoefficient(w=w, t=red.t, S=red.S, m=red.m, phase=phase, c_value=c_val)

    def transform_coefficient(self, coef: LiftCoefficient, m: Matrix2) -> LiftCoefficient:
        """Move a record along m: the index vector becomes
        det(m')^2 rho3(m'^-1) w and the phase picks up
        mu_f(det m')^-1 sgn(det m')^k, with sign 1: ``LiftContext`` refuses odd k."""
        if m.det() == 0:
            raise BadInput("m must be invertible")
        m_prime = levi_m_prime(m)
        w_new = CubicVector.of(*coad_w(m_prime, coef.w))
        phase = coef.phase / mu_f(self.f, m_prime.det())
        m_new = coef.m * m
        rec = LiftCoefficient(
            w=w_new, t=coef.t, S=coef.S, m=m_new, phase=phase, c_value=coef.c_value
        )
        if not verify_reduction(w_new, rec):
            raise AssertionError("transformed record failed its 7x7 verification")
        return rec

    # -- ratio experiments ---------------------------------------------------

    def l_split(self, w, tol: float = 1e-10):
        """The central-value product matching the etale type of w:
        Q^3 gives L(k, f)^2; Q x Q(sqrt(D)) gives L(k, f) L(k, f x chi_D)."""
        et = etale_type(w)
        L1 = self._central_value(tol)
        if et.kind == "totally_split":
            return L1.value * L1.value, L1.abs_error_bound * 3
        if et.kind == "quadratic_split":
            if not et.real_quadratic:
                raise BadInput("w with an imaginary quadratic factor has no real twist to split by")
            LD = central_twisted_value(self.f, et.quad_disc, tol)
            return L1.value * LD.value, (L1.abs_error_bound + LD.abs_error_bound) * 3
        raise CubicFieldOrbitUnsupported("cubic-field orbit unsupported")

    def gross_ratio(self, w, tol: float = 1e-10) -> float:
        """R(w) = c_{tS}^2 pi^(2k) / (Gamma(k)^2 |q(w)|^(k-1/2) L_split(w));
        predicted constant in w at fixed S.

        The cubic ring need not be maximal: the stand-in experiment runs on
        shape vectors whose rings have index 2 at the rational place, where
        constancy still follows from the half-integral coefficient formula.
        """
        w = CubicVector.of(*w)
        rec = self.fourier_coefficient(w)
        lsplit, lerr = self.l_split(w, tol)
        if abs(lsplit) <= 10 * lerr:
            raise CentralVanishing("central vanishing; ratio undefined")
        k = self.k
        qa = abs(float(quartic_q(w)))
        num = float(rec.magnitude_sq) * math.pi ** (2 * k)
        den = math.gamma(k) ** 2 * qa ** (k - 0.5) * lsplit
        return num / den
