"""Elementary arithmetic shared by the cubic, modular-form and L-function
layers: bounded factoring, fundamental discriminants and the Kronecker
symbol; and the refusal classes that every layer raises.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import isqrt
from typing import Iterator, Tuple


class Refusal(Exception):
    """An input the program declines, with the CLI's error code and exit code
    for it; any other exception is a fault of the program."""

    code, exit_code = "BAD_INPUT", 2


class BadInput(Refusal, ValueError):
    """An argument outside the domain of the function it is passed to."""


class ParseError(BadInput):
    """Outside text that its format does not read; each format declares a
    subclass with its own code."""

    @classmethod
    @contextmanager
    def reading(cls, zero_message: str = "{}"):
        """Raise Python's own errors in the block as cls, with the text of a
        ZeroDivisionError put in zero_message; a refusal passes unchanged."""
        try:
            yield
        except Refusal:
            raise
        except ZeroDivisionError as exc:
            raise cls(zero_message.format(exc)) from exc
        except ValueError as exc:
            raise cls(str(exc)) from exc


class InputTooLarge(BadInput):
    """Raised when an input needs more work than a cap allows: more factoring
    than bounded trial division and primality certification can do, or
    digits past the int/str conversion limit."""

    code = "INPUT_TOO_LARGE"


class SquarefreeCofactor(InputTooLarge):
    """The refusal of prime_powers for a cofactor it cannot split but knows
    to be a product of two distinct primes.  Callers that need only square
    classes read the cofactor, with exponent 1, and answer."""

    def __init__(self, message: str, cofactor: int):
        super().__init__(message)
        self.cofactor = cofactor


TRIAL_LIMIT = 1 << 20
# Miller-Rabin on the first 13 prime bases is exact below _MR_EXACT
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981


def _is_prime_mr(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 41 < n < _MR_EXACT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_powers(n: int) -> Iterator[Tuple[int, int]]:
    """The prime powers (p, e) of n >= 1, p ascending.

    Trial division runs over 2, 3, 5 and the integers prime to 30 up to
    min(TRIAL_LIMIT, sqrt(n)); each block of eight is screened by one
    chained remainder test before its divisors are taken out.  A cofactor
    left with no prime factor up to that bound must be a prime or a prime
    square, certified below TRIAL_LIMIT^2 by size and up to _MR_EXACT by
    Miller-Rabin; anything else raises InputTooLarge after the smaller
    primes are out.  A cofactor below (TRIAL_LIMIT + 1)^3 has at most two
    prime factors, so one that is neither prime nor square is a product of
    two distinct primes; its refusal is a SquarefreeCofactor.
    """
    bound = min(TRIAL_LIMIT, isqrt(n))
    for k in range(0, bound + 1, 30):
        if k > bound:  # bound shrinks as factors come out
            break
        if k and (
            n % (k + 1) and n % (k + 7) and n % (k + 11) and n % (k + 13)
            and n % (k + 17) and n % (k + 19) and n % (k + 23) and n % (k + 29)
        ):
            continue
        block = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) if k == 0 else (
            k + 1, k + 7, k + 11, k + 13, k + 17, k + 19, k + 23, k + 29
        )
        for p in block:
            if p > bound:
                break
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n, e = n // p, e + 1
                yield p, e
                bound = min(bound, isqrt(n))
    # every prime factor of n now exceeds bound, and p = bound + 1 is the
    # first candidate left untried
    p = bound + 1
    if n == 1:
        return
    if n < p * p or (n < _MR_EXACT and _is_prime_mr(n)):
        yield n, 1
        return
    r = isqrt(n)
    if r * r == n and (r < p * p or (r < _MR_EXACT and _is_prime_mr(r))):
        yield r, 2
        return
    message = (
        f"a {n.bit_length()}-bit cofactor has no prime factor below {TRIAL_LIMIT} "
        "and is not a certified prime or prime square"
    )
    if n < p**3:
        raise SquarefreeCofactor(message, n)
    raise InputTooLarge(message)


def fundamental_discriminant(n: int) -> int:
    """The discriminant of Q(sqrt(n)) for nonzero n, sign kept: the
    squarefree part u of n if u == 1 (mod 4), else 4u (1 for squares)."""
    if n == 0:
        raise BadInput("zero has no square class")
    u = -1 if n < 0 else 1
    try:
        for p, e in prime_powers(abs(n)):
            if e % 2:
                u *= p
    except SquarefreeCofactor as exc:
        u *= exc.cofactor
    return u if u % 4 == 1 else 4 * u


def is_fundamental_discriminant(D: int) -> bool:
    """Positive fundamental discriminant, with 1 included as the trivial case."""
    return D > 0 and fundamental_discriminant(D) == D


def kronecker(a: int, n: int) -> int:
    """The Kronecker symbol (a/n) for n >= 0; a negative modulus is refused."""
    if n < 0:
        raise BadInput("negative modulus")
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    sign = 1
    # factor out 2s of n: (a/2) = 0, 1, -1 by a mod 8
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            sign = -sign
    # now n odd positive: Jacobi symbol with reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0
