"""Divisor sums and four-square counts by direct divisor enumeration: the
oracles that ``qmforms.forms``' sieved tables (``sigma_table``, ``r4_table``)
and the series built from them are checked against."""

from __future__ import annotations


def sigma(n: int, k: int) -> int:
    """sigma_k(n) by direct divisor enumeration (exact, no sieve)."""
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    total = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            total += i**k
            j = n // i
            if j != i:
                total += j**k
        i += 1
    return total


def r4(n: int) -> int:
    """Number of representations of n as an ordered sum of four squares.

    Classical closed form: 8 times the sum of divisors of n not divisible
    by 4 (and r4(0) = 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    total = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            if i % 4:
                total += i
            j = n // i
            if j != i and j % 4:
                total += j
        i += 1
    return 8 * total
