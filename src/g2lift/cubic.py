"""Binary cubic forms, their quartic invariant, cubic rings, and the
reduction of a vector to the shape (t, 0, S/3, 0).

A vector w = (a1, a2, a3, a4) is identified with the binary cubic
f_w(u, v) = a1 u^3 + 3 a2 u^2 v + 3 a3 u v^2 + a4 v^3; the lattice
condition is a1, a4 integral and 3 a2, 3 a3 integral, so (a, b, c, d) =
(a1, 3 a2, 3 a3, a4) is an integral cubic form in the classical sense.
Every computation on a cubic reads this one integral form, taken off the
lattice as e (a1, 3 a2, 3 a3, a4) with e the lcm of the denominators, and
one monic bisection finds its roots (through a unimodular shift if a1 = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple, Optional, Tuple

from .arith import BadInput, SquarefreeCofactor, fundamental_discriminant, prime_powers
from .exact import Matrix2, mat2, over_lcm, rat
from .group import coad_w, heis_n1, levi_m, levi_m_prime


class NonEtaleInput(BadInput):
    """Raised when an operation needs q(w) != 0 and gets a degenerate w."""


class CubicFieldOrbitUnsupported(BadInput):
    """Raised when a reduction needs a rational root and none exists."""

    code = "CUBIC_FIELD_ORBIT"


class CubicVector(NamedTuple):
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction

    @classmethod
    def of(cls, a1, a2, a3, a4) -> "CubicVector":
        return cls(rat(a1), rat(a2), rat(a3), rat(a4))

    def is_lattice(self) -> bool:
        """a1, a4 in Z and a2, a3 in (1/3)Z."""
        return self.denominator() == 1

    def denominator(self) -> int:
        """e, the lcm of the denominators of a1, 3 a2, 3 a3 and a4."""
        return over_lcm((self.a1, 3 * self.a2, 3 * self.a3, self.a4))[1]

    def integral_form(self) -> Tuple[int, int, int, int]:
        """e (a1, 3 a2, 3 a3, a4) by ``over_lcm``: the classical (a, b, c, d)
        on the lattice, where e = 1, and a form with the same roots off it."""
        return over_lcm((self.a1, 3 * self.a2, 3 * self.a3, self.a4))[0]


def _vec(w) -> CubicVector:
    if isinstance(w, CubicVector):
        return w
    return CubicVector.of(*w)


def quartic_q(w) -> Fraction:
    """The quartic invariant
    -3 a2^2 a3^2 + 4 a1 a3^3 + 4 a2^3 a4 - 6 a1 a2 a3 a4 + a1^2 a4^2,
    satisfying q(rho3(A, w)) = det(A)^6 q(w).  It is -disc(f_w)/27, and the
    discriminant has degree 4, so it is read off the integral form e f_w as
    -disc(e f_w) / (27 e^4)."""
    w = _vec(w)
    return Fraction(-form_disc(*w.integral_form()), 27 * w.denominator() ** 4)


def form_disc(a: int, b: int, c: int, d: int) -> int:
    """Discriminant of a x^3 + b x^2 y + c x y^2 + d y^3."""
    return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d


# ---------------------------------------------------------------------------
# Rational root finding for binary cubics

def _monotone_root(g, lo: int, hi: int, sign: int) -> Optional[int]:
    """The integer root of g in [lo, hi], where sign * g is increasing."""
    if lo > hi or sign * g(lo) > 0 or sign * g(hi) < 0:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if sign * g(mid) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo if g(lo) == 0 else None


def _monic_integer_roots(b: int, c: int, d: int) -> list[int]:
    """Integer roots of y^3 + b y^2 + c y + d, each once.

    g' = 3 y^2 + 2 b y + c vanishes at (-b -+ sqrt(b^2 - 3c))/3, so g is
    monotone on the integers up to the floor of the smaller critical point,
    up to the floor of the larger one, and beyond; exact bisection finds
    the one root each range can hold.  Cauchy bounds every root by
    1 + max(|b|, |c|, |d|).
    """

    def g(y: int) -> int:
        return ((y + b) * y + c) * y + d

    bound = 1 + max(abs(b), abs(c), abs(d))
    disc = b * b - 3 * c
    if disc <= 0:  # g' >= 0 everywhere
        ranges = [(-bound, bound, 1)]
    else:
        r = isqrt(disc)
        lo_crit = (-b - r - (r * r != disc)) // 3  # floor((-b - sqrt(disc))/3)
        hi_crit = (-b + r) // 3  # floor((-b + sqrt(disc))/3)
        ranges = [
            (-bound, min(lo_crit, bound), 1),
            (max(lo_crit + 1, -bound), min(hi_crit, bound), -1),
            (max(hi_crit + 1, -bound), bound, 1),
        ]
    found = (_monotone_root(g, lo, hi, sign) for lo, hi, sign in ranges)
    return [y for y in found if y is not None]


def rational_projective_roots(w) -> list[Tuple[int, int]]:
    """All rational projective roots of f_w as primitive pairs (u0, v0),
    sorted; the root at infinity is (1, 0).  Multiplicity not reported.

    With a != 0, the substitution x = y/a turns a x^3 + b x^2 + c x + d
    into a^-2 g(y) for the monic integer cubic
    g(y) = y^3 + b y^2 + (a c) y + a^2 d, whose rational roots are
    integers; they are found by exact bisection on the at most three
    ranges where g is monotone (exact root isolation, Cohen, GTM 138).
    A call costs O(bit length) evaluations of g and no factoring.  For
    d = 0 the root y = 0 is (0 : 1).  A form with a = 0 is read at
    (t u + v, u) for the least t in {0, 1, 2} with f(t, 1) != 0, a nonzero
    polynomial of degree <= 2 in t, as (f(t, 1), 2 b t + c, b, 0); the
    shift is unimodular, so a root (y : a') maps back to the primitive
    root (t y + a' : y).
    """
    a, b, c, d = _vec(w).integral_form()
    if a == 0 and b == 0 and c == 0 and d == 0:
        raise NonEtaleInput("zero form has no root divisor")
    shift = None
    if a == 0:
        shift = next(t for t in range(3) if (b * t + c) * t + d != 0)
        a, b, c, d = (b * shift + c) * shift + d, 2 * b * shift + c, b, 0
    roots = []
    for y in _monic_integer_roots(b, a * c, a * a * d):
        g = gcd(y, a)
        u0, v0 = (y // g, a // g) if shift is None else ((shift * y + a) // g, y // g)
        roots.append((-u0, -v0) if v0 < 0 or (v0 == 0 and u0 < 0) else (u0, v0))
    return sorted(roots)


def fundamental_discriminant_of_class(r: Fraction) -> Tuple[int, Fraction]:
    """Minimal positive integer D0 == 0, 1 (mod 4) in the square class of
    the positive rational r, with the scale lam > 0, lam^2 * r = D0."""
    if r <= 0:
        raise BadInput("positive rational expected")
    d0 = fundamental_discriminant(r.numerator * r.denominator)
    ratio = Fraction(d0) / r
    lam = Fraction(isqrt(ratio.numerator), isqrt(ratio.denominator))
    assert lam * lam * r == d0, "square-class arithmetic broke"
    return d0, lam


# ---------------------------------------------------------------------------
# Etale type

@dataclass(frozen=True)
class EtaleType:
    kind: str  # "totally_split" | "quadratic_split" | "cubic_field"
    quad_disc: Optional[int] = None  # field discriminant in the quadratic case
    real_quadratic: Optional[bool] = None
    cubic_poly: Optional[Tuple[int, int, int, int]] = None  # (a, b, c, d) of f

    def __str__(self):
        if self.kind == "totally_split":
            return "Q^3"
        if self.kind == "quadratic_split":
            return f"Q x Q(sqrt({self.quad_disc}))" + ("" if self.real_quadratic else " (imaginary)")
        a, b, c, d = self.cubic_poly
        return f"cubic field [{a},{b},{c},{d}]"


def etale_type(w) -> EtaleType:
    """Exact factorization type of f_w over Q; requires q(w) != 0."""
    w = _vec(w)
    a, b, c, d = w.integral_form()
    if form_disc(a, b, c, d) == 0:
        raise NonEtaleInput("non-etale input")
    roots = rational_projective_roots(w)
    if not roots:
        return EtaleType("cubic_field", cubic_poly=(a, b, c, d))
    if len(roots) == 3:
        return EtaleType("totally_split")
    # a separable cubic with two rational roots has a rational third: one root
    u0, v0 = roots[0]
    # f = (v0 u - u0 v) * (A u^2 + B u v + C v^2); (u0, v0) is primitive, so
    # by Gauss's lemma A, B, C are integers and each division is exact
    if v0 != 0:
        A = a // v0
        B = (b + A * u0) // v0
        C = (c + B * u0) // v0
    else:  # root at infinity: f = v * (b u^2 + c u v + d v^2)
        A, B, C = b, c, d
    disc2 = B * B - 4 * A * C
    return EtaleType("quadratic_split", quad_disc=fundamental_discriminant(disc2), real_quadratic=disc2 > 0)


# ---------------------------------------------------------------------------
# Cubic rings (integral forms only)

@dataclass(frozen=True)
class CubicRing:
    """Rank-3 ring with basis (1, omega, theta) attached to an integral
    binary cubic (a, b, c, d):

        omega * theta = -a d
        omega^2 = -a c + b omega - a theta
        theta^2 = -b d + d omega - c theta
    """

    a: int
    b: int
    c: int
    d: int

    @property
    def discriminant(self) -> int:
        return form_disc(self.a, self.b, self.c, self.d)


def cubic_ring(w) -> CubicRing:
    """The cubic ring of a lattice vector; discriminant is -27 q(w)."""
    w = _vec(w)
    if not w.is_lattice():
        raise BadInput("vector is not in the integral lattice")
    return CubicRing(*w.integral_form())


def _p_maximal(a, b, c, d, p) -> bool:
    """Local maximality of the ring of (a, b, c, d) at p.

    Dedekind's criterion: non-maximal iff p divides the whole form, or f
    has a multiple root (u0 : v0) mod p with p^2 | f(u0, v0).  Both
    partials of f vanish mod p at a multiple root, so the test does not
    depend on the lift.  For p > 3 the only candidate is the double root
    of the Hessian H = (b^2 - 3ac) u^2 + (bc - 9ad) u v + (c^2 - 3bd) v^2,
    or, when H == 0 mod p and f is a cube, (-b : 3a) ((1 : 0) if p | a);
    for p <= 3 all p + 1 points are tried.  O(1) operations at any p.
    """
    if a % p == 0 and b % p == 0 and c % p == 0 and d % p == 0:
        return False
    if p <= 3:
        points = [(r, 1) for r in range(p)] + [(1, 0)]
    else:
        h2, h1, h0 = b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d
        if h2 % p == 0 and h1 % p == 0 and h0 % p == 0:
            points = [(1, 0) if a % p == 0 else (-b, 3 * a)]
        else:
            points = [(1, 0) if h2 % p == 0 else (-h1, 2 * h2)]
    for u, v in points:
        f_u = 3 * a * u * u + 2 * b * u * v + c * v * v
        f_v = b * u * u + 2 * c * u * v + 3 * d * v * v
        value = a * u**3 + b * u * u * v + c * u * v * v + d * v**3
        if f_u % p == 0 and f_v % p == 0 and value % (p * p) == 0:
            return False
    return True


def is_maximal(ring: CubicRing) -> bool:
    """Maximality via the local criterion at every p with p^2 | disc.

    The local test is closed-form, so the cost is that of factoring the
    discriminant, which raises InputTooLarge past its bound; a squarefree
    cofactor left unsplit holds no such p."""
    disc = ring.discriminant
    if disc == 0:
        raise NonEtaleInput("non-etale input")
    try:
        for p, e in prime_powers(abs(disc)):
            if e >= 2 and not _p_maximal(ring.a, ring.b, ring.c, ring.d, p):
                return False
    except SquarefreeCofactor:
        pass
    return True


# ---------------------------------------------------------------------------
# Reduction to the shape (t, 0, S/3, 0)

@dataclass(frozen=True, slots=True)
class CanonicalReduction:
    """Data (t, S, m) with t < 0 < S and, writing m' = Ad(w_alpha)(m),

        w = det(m')^2 rho3(m'^-1) (t, 0, S/3, 0).

    The identity is re-verified through the 7x7 matrix model before the
    object is returned, never trusted from coordinate algebra alone.
    """

    t: Fraction
    S: Fraction
    m: Matrix2

    @property
    def index(self) -> Fraction:
        """-t*S, the index of the half-integral coefficient it selects.

        For a reduction of a lattice vector it is a positive integer: in
        shape, t = a1 and S = 3 a3 are integers with t < 0 < S; otherwise
        the last two steps of ``reduce_to_canonical`` land on (-D0, 0, 1/3, 0),
        so -t*S = D0."""
        return -self.t * self.S

    @property
    def etale(self) -> EtaleType:
        """The etale type of f_w, read off the record with no root search.

        f_w has the rational root that the reduction moved, and its
        quadratic cofactor has the square class of -t*S.  Off the identity
        reduction that class is D0 = -t*S itself (see ``index``).  In shape,
        w = (t, 0, S/3, 0) has the integral form (a, 0, c, 0), f_w is
        u (a u^2 + c v^2), and the class is that of n = -4ac, which
        ``etale_type`` would factor.  q(w) < 0, so the factor is real."""
        if self.m == Matrix2.identity():
            a, _, c, _ = CubicVector.of(self.t, 0, self.S / 3, 0).integral_form()
            n = -4 * a * c
            d0 = 1 if isqrt(n) ** 2 == n else fundamental_discriminant(n)
        else:
            d0 = int(self.index)
        if d0 == 1:
            return EtaleType("totally_split")
        return EtaleType("quadratic_split", quad_disc=d0, real_quadratic=True)


def verify_reduction(w, red: CanonicalReduction) -> bool:
    """Exact 7x7 check of w = det(m')^2 rho3(m'^-1) w0, w0 = (t, 0, S/3, 0),
    as the one identity m'^-1 n1(w0, 0) m' == n1(w / det m', 0).

    Conjugation inside the matrix group gives the adjoint W-action, which
    coad = det * Ad(inverse) scales by det(m'); n1 is injective, so the
    matrices agree exactly when the coordinates do."""
    w = _vec(w)
    b = levi_m_prime(red.m)
    mp = levi_m(b)
    dt = b.det()
    return mp.inverse() * heis_n1(red.t, 0, red.S / 3, 0, 0) * mp == heis_n1(*(x / dt for x in w), 0)


def reduce_to_canonical(w) -> CanonicalReduction:
    """Reduce w (q(w) < 0, some rational projective root) to shape.

    Steps: move a rational root of f_w to kill a4, shear away a2 (the
    cofactor quadratic has nonzero v^2-coefficient whenever q != 0), flip
    u -> -u if needed so that t < 0 < S.  A vector that was not already in
    shape is then rescaled inside its orbit to (t, S) = (-D0, 1), where D0
    is the minimal positive integer == 0, 1 mod 4 in the square class of
    -t*S; any two vectors of one coadjoint orbit then land on literally the
    same shape vector.  Vectors already in shape return the identity
    reduction untouched, and only they get m = 1: every other reduction
    has -t*S = D0.
    """
    w = _vec(w)
    if quartic_q(w) >= 0:
        raise BadInput("precondition violation: q(w) >= 0")

    if w.a2 == 0 and w.a4 == 0 and w.a1 < 0 and w.a3 > 0:
        red = CanonicalReduction(t=w.a1, S=3 * w.a3, m=mat2(1, 0, 0, 1))
        if not verify_reduction(w, red):
            raise AssertionError("reduction failed its 7x7 verification")
        return red

    total = mat2(1, 0, 0, 1)
    cur = tuple(w)

    def apply(A: Matrix2):
        nonlocal cur, total
        cur = coad_w(A, cur)
        total = total * A

    if cur[3] != 0:
        roots = rational_projective_roots(cur)
        if not roots:
            raise CubicFieldOrbitUnsupported("cubic-field orbit unsupported")
        u0, v0 = roots[0]
        # coad substitutes through the inverse; want that inverse to carry
        # the root into the v^3 slot
        a_inv = mat2(v0, u0, 1, 0) if u0 != 0 else mat2(v0, u0, 0, 1)
        apply(a_inv.inverse())
    if cur[1] != 0:  # a4 = 0 makes q = a3^2 (4 a1 a3 - 3 a2^2) < 0, so a3 != 0
        shear_inv = mat2(1, 0, -cur[1] / (2 * cur[2]), 1)
        apply(shear_inv.inverse())
    if cur[0] > 0:
        apply(mat2(1, 0, 0, -1))
    assert cur[1] == cur[3] == 0 and cur[0] < 0 < cur[2]

    d0, lam = fundamental_discriminant_of_class(-3 * cur[0] * cur[2])
    apply(mat2(lam, 0, 0, lam))
    s_now = 3 * cur[2]
    apply(mat2(1, 0, 0, 1 / s_now))
    assert -cur[0] == d0 and 3 * cur[2] == 1

    # total is m'^-1, and Ad(w_alpha) is an involution on M
    red = CanonicalReduction(t=cur[0], S=3 * cur[2], m=levi_m_prime(total.inverse()))
    if not verify_reduction(w, red):
        raise AssertionError("reduction failed its 7x7 verification")
    return red


def reduction_json(w) -> dict:
    """CLI-facing record for a reduced vector, its etale type read off the
    reduction (``CanonicalReduction.etale``)."""
    w = _vec(w)
    red = reduce_to_canonical(w)
    return {
        "w": [str(x) for x in w],
        "q": str(quartic_q(w)),
        "etale": str(red.etale),
        "t": str(red.t),
        "S": str(red.S),
        "m": [[str(red.m[0, 0]), str(red.m[0, 1])], [str(red.m[1, 0]), str(red.m[1, 1])]],
    }
