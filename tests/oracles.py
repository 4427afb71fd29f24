"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the code paths it checks: symbolic
substitution instead of coefficient formulas, cofactor expansion instead
of Bareiss, superring enumeration instead of local criteria, character
arithmetic instead of the closed plethysm formula.  The plus-space kernel
is checked against a Gauss-Jordan elimination in Fraction arithmetic
(``rational_kernel``) instead of the integer Bareiss echelon.

What only tests call lives here too, with its own arithmetic rather than
borrowed library methods: the degree-7 Euler factorization (criterion 2),
the nonvanishing agreement of c(1) and L(f, 1) (criterion 5), sums and
scalings of series (``series_combination``), scalings of matrices and the
cubic ring product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
from itertools import product


# --- matrix construction by one Fraction product per entry ------------------

def grid_by_fraction_products(rows, size):
    """(num, den) of the size x size matrix ``rows``: den the lcm of the
    entries' denominators and each numerator int(x * den), one Fraction
    product per entry.  The construction that the integer scaling of
    ``exact._MatrixBase.__init__`` replaced."""
    fr = [[Fraction(x) for x in r] for r in rows]
    if len(fr) != size or any(len(r) != size for r in fr):
        raise ValueError(f"expected {size}x{size} matrix")
    den = 1
    for r in fr:
        for x in r:
            den = lcm(den, x.denominator)
    return tuple(tuple(int(x * den) for x in r) for r in fr), den


# --- polynomial substitution oracle for the symmetric-cube action ----------

def poly_from_vec(w):
    """Dense coefficient list [u^3, u^2 v, u v^2, v^3] of f_w."""
    a1, a2, a3, a4 = (Fraction(x) for x in w)
    return [a1, 3 * a2, 3 * a3, a4]


def vec_from_poly(p):
    return (p[0], p[1] / 3, p[2] / 3, p[3])


def substitute(poly, m11, m12, m21, m22):
    """Coefficients of f(m11 u + m12 v, m21 u + m22 v) by brute expansion."""
    out = [Fraction(0)] * 4
    # f = sum_i poly[i] u^(3-i) v^i; substitute and expand binomially
    for i in range(4):
        if poly[i] == 0:
            continue
        # (m11 u + m12 v)^(3-i) * (m21 u + m22 v)^i
        terms = {0: Fraction(1)}
        for _ in range(3 - i):
            new = {}
            for deg, c in terms.items():
                new[deg] = new.get(deg, Fraction(0)) + c * m11
                new[deg + 1] = new.get(deg + 1, Fraction(0)) + c * m12
            terms = new
        for _ in range(i):
            new = {}
            for deg, c in terms.items():
                new[deg] = new.get(deg, Fraction(0)) + c * m21
                new[deg + 1] = new.get(deg + 1, Fraction(0)) + c * m22
            terms = new
        for deg, c in terms.items():
            out[deg] += poly[i] * c
    return out


def rho3_oracle(A, w):
    """The substitution f |-> f(d u + b v, c u + a v), read back as a vector."""
    a, b, c, d = A.entries()
    return vec_from_poly(substitute(poly_from_vec(w), d, b, c, a))


# --- determinant oracle -----------------------------------------------------

def det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        out += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return out


# --- divisor sums ------------------------------------------------------------

def sigma(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


# --- the quartic invariant as a Fraction polynomial --------------------------

def quartic_q_polynomial(w):
    """-3 a2^2 a3^2 + 4 a1 a3^3 + 4 a2^3 a4 - 6 a1 a2 a3 a4 + a1^2 a4^2 in
    Fraction arithmetic on the coordinates themselves, with no integral form
    and no discriminant: the polynomial that ``cubic.quartic_q`` replaced."""
    a1, a2, a3, a4 = (Fraction(x) for x in w)
    return (
        -3 * a2**2 * a3**2
        + 4 * a1 * a3**3
        + 4 * a2**3 * a4
        - 6 * a1 * a2 * a3 * a4
        + a1**2 * a4**2
    )


# --- binary cubic discriminant via the resultant -----------------------------

def disc_resultant(a, b, c, d):
    """disc(f) = -Res(f, f')/a for f = a x^3 + b x^2 + c x + d (a != 0)."""
    # Sylvester matrix of (deg 3, deg 2): 5x5
    rows = [
        [a, b, c, d, 0],
        [0, a, b, c, d],
        [3 * a, 2 * b, c, 0, 0],
        [0, 3 * a, 2 * b, c, 0],
        [0, 0, 3 * a, 2 * b, c],
    ]
    res = det_cofactor([[Fraction(x) for x in r] for r in rows])
    return -res / a


# --- rational root oracle for binary cubics ----------------------------------

def _divisors_by_trial(n):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return out


def prime_powers_by_trial(n):
    """[(p, e), ...] of n >= 1 by unbounded trial division."""
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_fundamental_by_definition(D):
    """D == 1 (mod 4) squarefree, or D = 4m with m == 2, 3 (mod 4)
    squarefree, either sign; the trivial D = 1 is included."""

    def squarefree(n):
        return all(e == 1 for _, e in prime_powers_by_trial(abs(n)))

    if D % 4 == 1:
        return squarefree(D)
    return D % 16 in (8, 12) and squarefree(D // 4)


def rational_roots_bruteforce(a, b, c, d):
    """Rational projective roots of a u^3 + b u^2 v + c u v^2 + d v^3 as
    sorted primitive pairs (u0, v0) with v0 > 0, or (1, 0) for infinity.

    Divisor enumeration: strip the factors u and v, then test every p/q
    with p dividing the last and q dividing the first coefficient left.
    Exponential in bit length, so only for small forms.
    """
    coeffs = [a, b, c, d]
    if not any(coeffs):
        raise ValueError("zero form")
    roots = set()
    if coeffs[0] == 0:
        roots.add((1, 0))
    if coeffs[-1] == 0:
        roots.add((0, 1))
    while coeffs[0] == 0:
        coeffs.pop(0)
    while coeffs[-1] == 0:
        coeffs.pop()
    n = len(coeffs) - 1
    for p in _divisors_by_trial(coeffs[-1]):
        for q in _divisors_by_trial(coeffs[0]):
            for u0 in (p, -p):
                value = sum(coef * u0 ** (n - i) * q**i for i, coef in enumerate(coeffs))
                if value == 0:
                    g = gcd(u0, q)
                    roots.add((u0 // g, q // g))
    return sorted(roots)


# --- maximality oracles ---------------------------------------------------------

def p_maximal_by_scan(a, b, c, d, p):
    """Local maximality at p by scanning every residue for a root of f mod p:
    non-maximal iff p divides the form, or a root moved to the leading slot
    by brute substitution gives p^2 | a' and p | b'.  O(p)."""
    if a % p == 0 and b % p == 0 and c % p == 0 and d % p == 0:
        return False
    roots = [(r, 1) for r in range(p) if (a * r**3 + b * r * r + c * r + d) % p == 0]
    if a % p == 0:
        roots.append((1, 0))
    for (u0, v0) in roots:
        A, B, _, _ = substitute([a, b, c, d], u0, -1, v0, 0) if v0 else (a, b, c, d)
        if A % (p * p) == 0 and B % p == 0:
            return False
    return True


def _subspaces(p):
    """All nonzero subspaces of F_p^3 as lists of basis vectors.

    Lines through normalized vectors, planes as kernels of normalized
    functionals, plus the full space.
    """
    lines = []
    seen = set()
    for v in product(range(p), repeat=3):
        if v == (0, 0, 0):
            continue
        lead = next(x for x in v if x % p)
        inv = pow(lead, -1, p)
        key = tuple(x * inv % p for x in v)
        if key not in seen:
            seen.add(key)
            lines.append([key])
    planes = []
    for a in (key for key in seen):
        basis = []
        for v in product(range(p), repeat=3):
            if v == (0, 0, 0):
                continue
            if sum(ai * vi for ai, vi in zip(a, v)) % p == 0:
                # keep if independent of current basis
                if not _in_span(basis, v, p):
                    basis.append(v)
            if len(basis) == 2:
                break
        planes.append(basis)
    full = [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    return lines + planes + full


def _in_span(basis, v, p):
    """Membership of v in the span of basis vectors over F_p."""
    rows = [list(b) for b in basis] + [list(v)]
    r = 0
    for c in range(3):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    rank_with = r
    return rank_with == len(_rref(basis, p))


def _rref(vectors, p):
    rows = [list(v) for v in vectors]
    r = 0
    for c in range(3):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return [tuple(row) for row in rows[:r] if any(row)]


def ring_multiply(ring, x, y):
    """Product of coordinate vectors on the basis (1, omega, theta) of the
    ring of a ``cubic.CubicRing`` (a, b, c, d), by its multiplication table
    omega theta = -a d, omega^2 = -a c + b omega - a theta and
    theta^2 = -b d + d omega - c theta."""
    a, b, c, d = ring.a, ring.b, ring.c, ring.d
    x0, x1, x2 = x
    y0, y1, y2 = y
    ww = (-a * c, b, -a)
    tt = (-b * d, d, -c)
    wt = (-a * d, 0, 0)
    cross = x1 * y2 + x2 * y1
    return (
        x0 * y0 + x1 * y1 * ww[0] + x2 * y2 * tt[0] + cross * wt[0],
        x0 * y1 + x1 * y0 + x1 * y1 * ww[1] + x2 * y2 * tt[1],
        x0 * y2 + x2 * y0 + x1 * y1 * ww[2] + x2 * y2 * tt[2],
    )


def superring_exists(ring, p) -> bool:
    """Is there an order R < L <= (1/p) R inside R tensor Q?

    Lattices R <= L <= (1/p) R correspond to subspaces V of (Z/p)^3 via
    L = R + span{v/p : v in V}.  Completeness: the multiplier ring of the
    p-radical of a non-p-maximal order strictly contains it and lies in
    (1/p) R, so some subspace witnesses non-maximality.
    """
    for basis in _subspaces(p):
        span = _rref(basis, p)

        def in_lattice(x):
            px = [p * t for t in x]
            if any(t.denominator != 1 for t in px):
                return False
            return _in_span(span, tuple(int(t) % p for t in px), p)

        gens = [[Fraction(x, p) for x in v] for v in span]
        prods = []
        for i, v in enumerate(gens):
            for w in gens[i:]:
                prods.append(ring_multiply(ring, v, w))
            for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                prods.append(ring_multiply(ring, v, [Fraction(x) for x in e]))
        if all(in_lattice(x) for x in prods):
            return True
    return False


def maximal_bruteforce(ring) -> bool:
    disc = ring.discriminant
    n = abs(disc)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0 and superring_exists(ring, p):
            return False
        while n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    return True


# --- Kronecker symbol oracle --------------------------------------------------

def legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def kronecker_oracle(D, n):
    """Multiplicative build-up from Legendre symbols and the (D/2) rule."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    out = 1
    if n < 0:
        n = -n
        if D < 0:
            out = -out
    m = n
    p = 2
    while m > 1:
        while m % p == 0:
            m //= p
            if p == 2:
                out *= 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
            else:
                out *= legendre(D, p)
        p += 1
    return out


# --- SU(2) character plethysm oracle ------------------------------------------

def _ladd(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _lmul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


_SYM_POWERS = [{0: Fraction(1)}]


def sym_power_character(n):
    """h_n of the eigenvalue multiset {x^3, x, x^-1, x^-3} by Newton's
    identities: n h_n = sum_{i<=n} h_{n-i} p_i, exact Laurent arithmetic.
    h_0 .. h_n are built once and shared by every later call."""
    hs = _SYM_POWERS
    for m in range(len(hs), n + 1):
        acc = {}
        for i in range(1, m + 1):
            p_i = {3 * i: Fraction(1), i: Fraction(1), -i: Fraction(1), -3 * i: Fraction(1)}
            acc = _ladd(acc, _lmul(hs[m - i], p_i))
        hs.append({k: v / m for k, v in acc.items() if v})
    out = {}
    for k, v in hs[n].items():
        assert v.denominator == 1
        if v:
            out[k] = int(v)
    return out


def decompose_su2(character):
    """Peel highest weights: returns {j: multiplicity}."""
    ch = dict(character)
    out = {}
    while ch:
        j = max(ch)
        mult = ch[j]
        assert mult > 0, "not a nonnegative character"
        out[j] = mult
        for w in range(-j, j + 1, 2):
            ch[w] = ch.get(w, 0) - mult
            if ch[w] == 0:
                del ch[w]
    return out


def plethysm_oracle(n):
    return decompose_su2(sym_power_character(n))


# --- sums and scalings of series ---------------------------------------------

def series_combination(terms):
    """sum c x over triples (c, num, den) of a rational c and a series x held
    as the integers num over den, truncated to the shortest: (num, den), den
    the lcm of the c.denominator * den, not reduced.  The sums, differences
    and scalings of series that only tests form."""
    terms = [(Fraction(c), num, den) for c, num, den in terms]
    n = min(len(num) for _, num, _ in terms)
    out_den = lcm(*(c.denominator * den for c, _, den in terms))
    out = [0] * n
    for c, num, den in terms:
        s = c.numerator * (out_den // (c.denominator * den))
        out = [y + s * x for y, x in zip(out, num)]
    return out, out_den


# --- Kohnen plus space from independently powered monomials ------------------

def _series_pow(x, k):
    """x^k by square-and-multiply from the unit series."""
    from g2lift.modforms import QExpansion

    out = QExpansion(0, x.level, (1,) + (0,) * (x.precision - 1))
    base = x
    while k:
        if k & 1:
            out = out * base
        if k > 1:
            base = base * base
        k >>= 1
    return out


def rational_kernel(rows, ncols):
    """Kernel basis of the rows by Gauss-Jordan elimination in Fraction
    arithmetic: per column with no pivot, the reduced-echelon vector that
    is 1 there and 0 on the other such columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def plus_cusp_basis_monomials(k, prec):
    """The plus cusp basis built from the monomials theta^(2k+1-4j) F^j,
    each powered independently at full precision, and combined linearly
    along the Gauss-Jordan kernel of the c(0) and plus-support rows;
    c(1)-normalized."""
    from g2lift.modforms import QExpansion
    from g2lift.shimura import theta_half, weight2_F

    th, ff = theta_half(prec), weight2_F(prec)
    mons = []
    for j in range(0, (2 * k + 1) // 4 + 1):
        g = _series_pow(th, 2 * k + 1 - 4 * j)
        mons.append(g * _series_pow(ff, j) if j else g)
    bound = max(32, -(-(2 * k + 1) * 6 // 24) * 2)
    rows = [[g.coeff(0) for g in mons]]
    rows += [[g.coeff(n) for g in mons] for n in range(2, bound + 1) if n % 4 in (2, 3)]
    out = []
    for v in rational_kernel(rows, len(mons)):
        num, _ = series_combination((c, g.num, g.den) for c, g in zip(v, mons))
        assert all(num[n] == 0 for n in range(prec) if n % 4 in (2, 3))
        lead = num[1] if num[1] != 0 else next(c for c in num if c != 0)
        out.append(QExpansion(mons[0].weight, mons[0].level, num, lead))
    return out


# --- Rankin-Cohen brackets from whole-series products --------------------------

def bracket_by_products(w, nu, prec):
    """[E_w(4z), theta]_nu = sum_r c_r D^r[E_w(4z)] D^(nu-r)[theta], D = q d/dq,
    with every term one product of whole series of length prec."""
    from g2lift.modforms import QExpansion, _eisenstein
    from g2lift.shimura import _bracket_coefficients, theta_half

    def q_derivative(x, r):
        return QExpansion(x.weight + 2 * r, x.level, [n**r * c for n, c in enumerate(x.num)], x.den)

    e, th = _eisenstein(w, 4, prec), theta_half(prec)
    terms = []
    for r, c in enumerate(_bracket_coefficients(w, nu)):
        term = q_derivative(e, r) * q_derivative(th, nu - r)
        terms.append((c, term.num, term.den))
    return QExpansion(term.weight, term.level, *series_combination(terms))


# --- the discriminant, Hecke operators and plus-form coefficients ------------

def delta_by_eisenstein(prec):
    """The discriminant as (E4^3 - E6^2)/1728, with the divisibility of
    every coefficient asserted."""
    from g2lift.modforms import QExpansion, eisenstein

    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    cube, square = e4 * e4 * e4, e6 * e6
    num, den = series_combination([(1, cube.num, cube.den), (-1, square.num, square.den)])
    coeffs = []
    for c in num:
        q, r = divmod(c, 1728 * den)
        assert r == 0, "E4^3 - E6^2 not divisible by 1728"
        coeffs.append(q)
    return QExpansion(12, 1, coeffs)


def hecke_Tp(f, p):
    """T_p on level-one integral weight 2k:
    a(n) -> a(pn) + p^(2k-1) a(n/p); output precision floor(prec/p)."""
    from g2lift.modforms import PrecisionError, QExpansion

    if f.level != 1 or f.weight.denominator != 1:
        raise ValueError("T_p implemented for integral-weight level-one forms")
    two_k = int(f.weight)
    n_out = f.precision // p
    if n_out < 2:
        raise PrecisionError("insufficient precision for T_p")
    pw = p ** (two_k - 1)
    coeffs = []
    for n in range(n_out):
        c = f.num[p * n]
        if n % p == 0:
            c += pw * f.num[n // p]
        coeffs.append(c)
    return QExpansion(f.weight, 1, coeffs, f.den)


def c_coeff(g, t):
    """The coefficient c(-t) for negative integer t; exact zero on the
    excluded residues -t == 2, 3 (mod 4)."""
    if t >= 0:
        raise ValueError("t must be a negative integer")
    n = -t
    if n % 4 in (2, 3):
        return Fraction(0)
    return g.coeff(n)


# --- Satake parameters ---------------------------------------------------------

def satake_holds(f, p, alpha, tol=1e-10) -> bool:
    """alpha is a unitary Satake parameter of f at p: |alpha| = 1, and
    alpha + 1/alpha is real and equals a_p / p^((2k-1)/2)."""
    two_k = int(f.weight)
    trace = alpha + 1 / alpha
    unit = abs(abs(alpha) - 1.0) < 1e-12
    real = abs(trace.real - float(f.coeff(p)) / p ** ((two_k - 1) / 2)) < tol
    return unit and real and abs(trace.imag) < tol


# --- L-series cutoff ---------------------------------------------------------

def cutoff_terms_by_walk(D, k, tol):
    """Smallest n = 16 + 8i whose tail bound Q(k, 2 pi n/D) n^(3/2) is at
    most tol * 1e-3, found by walking i = 0, 1, 2, ...; O(D) steps."""
    from g2lift.lfunctions import gamma_inc_ratio

    n = 16
    while gamma_inc_ratio(k, 2 * math.pi * n / D) * n * math.sqrt(n) > tol * 1e-3:
        n += 8
    return n


# --- test-only L-function helpers ---------------------------------------------

def kronecker_chi(D, n):
    """Kronecker symbol (D/n) for fundamental D (or D = 1)."""
    from g2lift.arith import is_fundamental_discriminant, kronecker

    if not is_fundamental_discriminant(D):
        raise ValueError("non-fundamental discriminant rejected")
    return kronecker(D, n)


def solve_root_number(f, D=1, tol=1e-8):
    """Treat the root number as unknown and solve it from two cutoffs."""
    from g2lift.lfunctions import _cutoff_terms, _smoothed_sum

    two_k = int(f.weight)
    k = two_k // 2
    base = _cutoff_terms(D, k, tol)
    if 2 * base >= f.precision:
        raise ValueError("insufficient precision")
    s1a = _smoothed_sum(f, D, k, 1.0, base)
    s1b = s1a
    s2a = _smoothed_sum(f, D, k, 2.0, base)
    s2b = _smoothed_sum(f, D, k, 0.5, 2 * base)
    # L = S(x) + w S(1/x) for every x; eliminate L between x = 1 and x = 2
    return (s1a - s2a) / (s2b - s1b)


def cesaro_direct_value(f, D, n_terms, order=2):
    """Independent oracle: iterated Cesaro means of the raw partial sums
    of sum a_n chi_D(n) n^-k.  Slowly convergent; test-tolerance only."""
    from g2lift.arith import kronecker

    two_k = int(f.weight)
    k = two_k // 2
    if n_terms >= f.precision:
        raise ValueError("insufficient precision")
    part = []
    acc = 0.0
    for n in range(1, n_terms + 1):
        chi = kronecker(D, n)
        if chi:
            acc += chi * (f.num[n] / f.den) * n ** (-k)
        part.append(acc)
    seq = part
    for _ in range(order):
        run = 0.0
        means = []
        for i, x in enumerate(seq, start=1):
            run += x
            means.append(run / i)
        seq = means
    return seq[-1]


def invert_alpha(poly):
    """The involution a -> a^-1 of a Poly whose first indeterminate is a."""
    from g2lift.exact import Poly

    return Poly(poly.nvars, {(-m[0],) + m[1:]: v for m, v in poly.items()})


def specialize_alpha(poly, value):
    """Substitute a rational value for the unit a, the first indeterminate
    of a Poly; the result keeps a, at exponent 0."""
    from g2lift.exact import Poly

    value = Fraction(value)
    terms = {}
    for m, v in poly.items():
        key = (0,) + m[1:]
        terms[key] = terms.get(key, Fraction(0)) + v * value ** m[0]
    return Poly(poly.nvars, terms)


# --- the degree-7 Euler factor (criterion 2) ----------------------------------
#
# An Euler factor is one ``exact.Poly`` in the Satake unit a, a formal
# square root r of p, and T.

def poly_at(poly, *values):
    """The value of a Poly at the point ``values``, nonzero where an exponent
    is negative; exact for exact values."""
    total = 0
    for m, c in poly.items():
        for x, e in zip(values, m):
            c *= x**e
        total += c
    return total


def _euler_factor(*roots):
    """prod (1 - a^i r^j T) over the exponent pairs (i, j) of the roots."""
    from g2lift.exact import Poly

    return math.prod(Poly.monomial(0, 0, 0) - Poly.monomial(i, j, 1) for i, j in roots)


def std7_euler_factor():
    """The degree-7 polynomial in T with roots
    1, a^2, a^-2, a r, a^-1 r, a r^-1, a^-1 r^-1  (r = formal p^(1/2))."""
    return _euler_factor((0, 0), (2, 0), (-2, 0), (1, 1), (-1, 1), (1, -1), (-1, -1))


def sym2_factor():
    """(1 - T)(1 - a^2 T)(1 - a^-2 T)."""
    return _euler_factor((0, 0), (2, 0), (-2, 0))


def shifted_pair_factor(shift):
    """(1 - a r^shift T)(1 - a^-1 r^shift T) for shift in {1, -1}."""
    return _euler_factor((1, shift), (-1, shift))


def factorization_check() -> bool:
    """Exact identity: std7 = sym2 * (half-shift up) * (half-shift down)."""
    return std7_euler_factor() == sym2_factor() * shifted_pair_factor(1) * shifted_pair_factor(-1)


def std7_numeric_check(alpha, p, T, tol=1e-14) -> bool:
    """Spot-check the factorization as complex numbers."""
    rp = math.sqrt(p)
    lhs = poly_at(std7_euler_factor(), alpha, rp, T)
    prod = 1.0 + 0j
    for root in (
        1,
        alpha**2,
        alpha**-2,
        alpha * rp,
        rp / alpha,
        alpha / rp,
        1 / (alpha * rp),
    ):
        prod *= 1 - root * T
    return abs(lhs - prod) <= tol * max(1.0, abs(prod))


# --- nonvanishing of c(1) against L(f, 1) (criterion 5) ------------------------

def nonvanishing_split(c1, L) -> bool:
    """c(1) != 0 iff the central value L = L(f, 1) (an ``LValue``) is
    nonzero, both sides checked: L counts as nonzero beyond 10 times its
    error bound and as zero within a tenth of it, and between the two the
    check is inconclusive."""
    l_nonzero = abs(L.value) > 10 * L.abs_error_bound
    if not l_nonzero and abs(L.value) > L.abs_error_bound / 10:
        raise ArithmeticError("inconclusive: central value within error of 0")
    if (c1 != 0) != l_nonzero:
        raise AssertionError("coefficient and central value disagree on vanishing")
    return c1 != 0


# --- test-only ring and root-datum helpers ------------------------------------

def is_totally_real(w) -> bool:
    """All projective roots of f_w over R are real.

    Projectively a vanishing leading coefficient contributes the real root
    at infinity, so the test reduces to disc(f_w) = -27 q(w) >= 0.
    """
    from g2lift.cubic import quartic_q

    return quartic_q(w) <= 0


def trace_matrix(ring):
    """The trace form of a CubicRing on the basis (1, omega, theta)."""
    a, b, c, d = ring.a, ring.b, ring.c, ring.d
    return (
        (3, b, -c),
        (b, b * b - 2 * a * c, -3 * a * d),
        (-c, -3 * a * d, c * c - 2 * b * d),
    )


# (m, n) with gamma = m*alpha + n*beta
ROOT_COORDS = {
    "a": (1, 0),
    "b": (0, 1),
    "a+b": (1, 1),
    "2a+b": (2, 1),
    "3a+b": (3, 1),
    "3a+2b": (3, 2),
}


def root_coords(label):
    """The (m, n) of a RootLabel gamma = m*alpha + n*beta."""
    m, n = ROOT_COORDS[label.name]
    return (m, n) if label.positive else (-m, -n)


# --- root generators as a sum over the power table ----------------------------

def matrix_scale(m, c):
    """c m for a rational c, entry by entry through the checking constructor."""
    c = Fraction(c)
    return type(m)([[c * x for x in row] for row in m.rows])


def exp_powers(x):
    """[X^k / k!] for k >= 1 until the power vanishes: the power-series table
    of a root matrix X that the generator certificate of ``group`` once
    compared its X and X^2/2 with.  A nilpotent 7x7 X has X^7 = 0, so a
    table that reaches seven terms belongs to an X that is not nilpotent,
    and stops there."""
    powers, term = [], x
    for k in range(2, 9):
        if term.is_zero():
            break
        powers.append(term)
        term = matrix_scale(term * x, Fraction(1, k))
    return powers


def exp_power_table():
    """The power table of each of the 12 root matrices of ``group``."""
    from g2lift.group import ALL_ROOTS, nilpotent_matrix

    return {(gamma.name, gamma.positive): exp_powers(nilpotent_matrix(gamma)) for gamma in ALL_ROOTS}


def exp_by_table_sum(powers, u):
    """I + sum_k u^k (X^k / k!) over a power table [X, X^2/2, ...], one
    Matrix7 addition per term: the construction the one-letter word grid of
    ``group.root_generator`` replaced."""
    from g2lift.exact import Matrix7

    out = Matrix7.identity()
    uk = Fraction(1)
    for power in powers:
        uk *= u
        out = out + matrix_scale(power, uk)
    return out


def certify_by_sampling(table):
    """The sampled certificate the Lie-algebra identities replaced: the
    entries of exp(uX) are polynomials of degree at most 2 in u, so each
    entry of exp(uX)^T S exp(uX) - S has degree at most 4 and
    det exp(uX) - 1 degree at most 14; vanishing at u = 1..15 proves both.
    Returns the keys whose table fails."""
    from g2lift.exact import preserves_form

    return [
        key
        for key, powers in table.items()
        if not all(preserves_form(exp_by_table_sum(powers, Fraction(u))) for u in range(1, 16))
    ]


# --- generator words as products of root generators ---------------------------

def word_by_products(roots, args):
    """x_{g_1}(a_1) ... x_{g_n}(a_n) for RootLabels g_k as n - 1 products of
    7x7 root generators, each a one-letter word of ``group``."""
    from g2lift.group import root_generator

    out = None
    for gamma, x in zip(roots, args):
        g = root_generator(gamma, x)
        out = g if out is None else out * g
    return out


def heis_n_by_products(a1, a2, a3, a4, t):
    """n(a1, a2, a3, a4, t) = x_b(a1) x_{a+b}(a2) x_{2a+b}(a3) x_{3a+b}(a4)
    x_{3a+2b}(t), four 7x7 products: the construction the expanded word
    table of ``group.heis_n`` replaced."""
    from g2lift.group import RootLabel

    names = ("b", "a+b", "2a+b", "3a+b", "3a+2b")
    return word_by_products(map(RootLabel, names), (a1, a2, a3, a4, t))


def u_coord_by_products(a1, a2, a3, a4, z):
    """u(a1, a2, a3, a4, z) = x_a(a1) x_{a+b}(a2) x_{2a+b}(a3) x_{3a+b}(a4)
    x_{3a+2b}(z), four 7x7 products: the construction the expanded word
    table of ``group.u_coord`` replaced."""
    from g2lift.group import RootLabel

    names = ("a", "a+b", "2a+b", "3a+b", "3a+2b")
    return word_by_products(map(RootLabel, names), (a1, a2, a3, a4, z))


def weyl_t_by_products(gamma, t):
    """w_gamma(t) = x_gamma(t) x_{-gamma}(-1/t) x_gamma(t), two 7x7 products:
    the construction the expanded word table of ``group.weyl_t`` replaced."""
    from g2lift.group import root_generator

    t = Fraction(t)
    return root_generator(gamma, t) * root_generator(-gamma, -1 / t) * root_generator(gamma, t)


def torus_by_products(gamma, t):
    """h_gamma(t) = w_gamma(t) w_gamma(1)^-1 over the generator products,
    three 7x7 products and an inverse: the construction the diagonal of
    ``group.torus`` replaced."""
    return weyl_t_by_products(gamma, t) * weyl_t_by_products(gamma, 1).inverse()


def levi_l_by_rows(A):
    """l(A) from Fraction rows, validated by ``preserves_form`` on every call
    (the validating ``GroupElement`` constructor): the construction the
    certified integer grid of ``group.levi_l`` replaced."""
    from g2lift.exact import Matrix7
    from g2lift.group import GroupElement

    a, b, c, d = A.entries()
    dt = a * d - b * c
    if dt == 0:
        raise ValueError("singular Levi parameter")
    rows = [
        [a, 0, 0, 0, b, 0, 0],
        [0, dt, 0, 0, 0, 0, 0],
        [0, 0, a / dt, 0, 0, -b / dt, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [c, 0, 0, 0, d, 0, 0],
        [0, 0, -c / dt, 0, 0, d / dt, 0],
        [0, 0, 0, 0, 0, 0, 1 / dt],
    ]
    return GroupElement(Matrix7(rows))


# --- conjugation by w_alpha as 7x7 products -----------------------------------

def ad_weyl_alpha_by_products(g):
    """w_alpha g w_alpha^-1 as two 7x7 products, w_alpha = w_alpha(1) taken
    from the generator products: the construction the signed permutation of
    ``group.ad_weyl_alpha`` replaced."""
    from g2lift.group import RootLabel

    wa = weyl_t_by_products(RootLabel("a"), 1)
    return wa * g * wa.inverse()


# --- the Gram-form inverse and form check as 7x7 products ---------------------

def _gram_inv():
    """GRAM^-1 written out: the antidiagonal identity blocks around the core
    antidiag(1, -1/2, 1)."""
    from g2lift.exact import Matrix7

    ones = {(0, 5): 1, (5, 0): 1, (1, 6): 1, (6, 1): 1, (2, 4): 1, (4, 2): 1}
    return Matrix7.from_entries({**ones, (3, 3): Fraction(-1, 2)})


GRAM_INV = _gram_inv()


def inverse_by_gram(m):
    """GRAM^-1 m^T GRAM as two 7x7 products: the construction the signed
    permuted transpose of ``exact.form_adjoint`` (behind
    ``GroupElement.inverse``) replaced."""
    from g2lift.exact import GRAM

    return GRAM_INV * m.transpose() * GRAM


def preserves_form_by_products(m):
    """m^T GRAM m == GRAM and det m == 1, two 7x7 products: the check the
    one-product ``exact.preserves_form`` replaced."""
    from g2lift.exact import GRAM

    return m.transpose() * GRAM * m == GRAM and m.det() == 1
