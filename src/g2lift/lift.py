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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .arith import BadInput
from .cubic import CanonicalReduction, CubicVector, quartic_q, reduce_to_canonical, verify_reduction
from .exact import Matrix2
from .group import coad_w, levi_m_prime
from .lfunctions import central_twisted_value
from .modforms import QExpansion, eigenform, mu_f
from .shimura import plus_cusp_basis


class CentralVanishing(ArithmeticError):
    """A ratio was requested against a vanishing central L-value."""


@dataclass(frozen=True, slots=True)
class LiftCoefficient(CanonicalReduction):
    """The reduction (w, t, S, m) with its phase and c(-tS); its JSON
    extends the reduction's."""

    phase: complex
    c_value: Fraction

    @property
    def magnitude_sq(self) -> Fraction:
        return self.c_value * self.c_value

    def as_json(self) -> dict:
        return {
            **CanonicalReduction.as_json(self),
            "phase": {"re": self.phase.real, "im": self.phase.imag},
            "c_value": str(self.c_value),
            "magnitude_sq": str(self.magnitude_sq),
            "index": str(self.index),
            "normalization": "C(S)-relative; c(1)-normalized plus form",
        }


class LiftContext:
    """Holds the eigenform, its plus-space partner, and precisions.

    two_k is the integral weight 2k, k even (``plus_cusp_basis`` refuses
    an odd k); the half-integral side has weight k + 1/2.  Precision
    defaults cover indices -tS and twists D up to roughly ``prec_half`` and
    Satake primes below ``prec_int``.  L(f, 1) is computed once per form and
    ``tol`` and kept under both, so a copy or an instance whose ``f`` is
    replaced computes its own; a refusal is not kept.
    """

    def __init__(self, two_k: int = 12, prec_int: int = 2000, prec_half: int = 600):
        self.two_k = two_k
        self.k = two_k // 2
        self.f: QExpansion = eigenform(two_k, prec_int)
        self.g: QExpansion = plus_cusp_basis(self.k, prec_half)[0]
        self._l1: dict = {}

    def _central_value(self, tol: float):
        """L(f, 1) at ``tol``, computed on the first call for this ``f`` and
        that ``tol``."""
        key = (self.f, tol)
        L = self._l1.get(key)
        if L is None:
            L = self._l1[key] = central_twisted_value(self.f, 1, tol)
        return L

    # -- coefficient evaluation ---------------------------------------------

    def fourier_coefficient(self, w, q: Optional[Fraction] = None) -> LiftCoefficient:
        """Coefficient record at a lattice vector w, up to C(S); ``q`` is q(w)
        when the caller has computed it, as ``gross_ratio`` has."""
        w = CubicVector.of(*w)
        if not w.is_lattice():
            raise BadInput("w must lie in the integral lattice")
        red = reduce_to_canonical(w, q)  # refuses q(w) >= 0 and cubic-field orbits
        n = int(red.index)  # a positive integer: see CanonicalReduction.index
        c_val = Fraction(0) if n % 4 in (2, 3) else self.g.coeff(n)
        phase = (1 / mu_f(self.f, red.m.det())) * (1 / mu_f(self.f, red.S))
        return LiftCoefficient(red.w, red.t, red.S, red.m, phase=phase, c_value=c_val)

    def transform_coefficient(self, coef: LiftCoefficient, m: Matrix2) -> LiftCoefficient:
        """Move a record along m: the index vector becomes
        det(m')^2 rho3(m'^-1) w and the phase picks up
        mu_f(det m')^-1 sgn(det m')^k, with sign 1: ``LiftContext`` refuses odd k."""
        m_prime = levi_m_prime(m)  # refuses a singular m
        w_new = CubicVector.of(*coad_w(m_prime, coef.w))
        phase = coef.phase / mu_f(self.f, m_prime.det())
        rec = replace(coef, w=w_new, m=coef.m * m, phase=phase)
        if not verify_reduction(rec):
            raise AssertionError("transformed record failed its 7x7 verification")
        return rec

    # -- ratio experiments ---------------------------------------------------

    def l_split(self, rec: CanonicalReduction, tol: float = 1e-10):
        """The central-value product matching the etale type of the record
        (``CanonicalReduction.etale``): Q^3 gives L(k, f)^2; Q x Q(sqrt(D))
        gives L(k, f) L(k, f x chi_D).  A record exists only for q(w) < 0 and
        f_w with a rational root, so its quadratic factor, if any, is real."""
        et = rec.etale
        L1 = self._central_value(tol)
        if et.kind == "totally_split":
            return L1.value * L1.value, L1.abs_error_bound * 3
        LD = central_twisted_value(self.f, et.quad_disc, tol)
        return L1.value * LD.value, (L1.abs_error_bound + LD.abs_error_bound) * 3

    def gross_ratio(self, w, tol: float = 1e-10) -> float:
        """R(w) = c_{tS}^2 pi^(2k) / (Gamma(k)^2 |q(w)|^(k-1/2) L_split(w));
        predicted constant in w at fixed S.

        The cubic ring need not be maximal: the stand-in experiment runs on
        shape vectors whose rings have index 2 at the rational place, where
        constancy still follows from the half-integral coefficient formula.
        """
        q = quartic_q(w)
        rec = self.fourier_coefficient(w, q)
        lsplit, lerr = self.l_split(rec, tol)
        if abs(lsplit) <= 10 * lerr:
            raise CentralVanishing("central vanishing; ratio undefined")
        k = self.k
        qa = abs(float(q))
        num = float(rec.magnitude_sq) * math.pi ** (2 * k)
        den = math.gamma(k) ** 2 * qa ** (k - 0.5) * lsplit
        return num / den
