"""Symmetric-power combinatorics of the quaternionic discrete series.

The restriction to the maximal compact splits as V_{k,n} =
Sym^(2k+n) boxtimes Sym^n(W) over n >= 0, where W is the symmetric cube
of the standard SU(2) module.  The closed two-range floor formula for
Sym^n(W) is implemented here; tests validate it against an independent
character-arithmetic oracle.
"""

from __future__ import annotations

from math import comb
from typing import Dict

from .arith import BadInput

SU2Decomposition = Dict[int, int]  # highest weight j -> multiplicity of Sym^j


def plethysm_symn_sym3(n: int) -> SU2Decomposition:
    """Multiplicities of Sym^(3n-2i) in Sym^n(Sym^3 C^2).

    Two ranges of i with floor-function multiplicities; floor(-1/3) = -1
    (Python's // floors toward -infinity, which is the needed convention).
    Zero multiplicities are omitted from the result.
    """
    if n < 0:
        raise BadInput("n must be nonnegative")
    out: SU2Decomposition = {}
    for i in range(0, n + 1):
        mult = i // 2 - (i - 1) // 3
        if mult:
            out[3 * n - 2 * i] = mult
    for i in range(n + 1, (3 * n) // 2 + 1):
        mult = i // 2 - (i - 1) // 3 - (i - n - 1) // 2 - 1
        if mult:
            out[3 * n - 2 * i] = mult
    return out


def decomposition_dimension(dec: SU2Decomposition) -> int:
    return sum((j + 1) * mult for j, mult in dec.items())


def ktype_dimension(k: int, n: int) -> int:
    """dim V_{k,n} = (2k + n + 1) * C(n + 3, 3)."""
    if k < 2 or n < 0:
        raise BadInput("need k >= 2 and n >= 0")
    return (2 * k + n + 1) * comb(n + 3, 3)
