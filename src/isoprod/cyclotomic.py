"""Exact evaluation of integer combinations of roots of unity.

Character traces accumulate as formal sums sum_k c_k * exp(2*pi*i*r_k) with
integer multiplicities and rational rotation numbers r_k.  Such a sum is a
rational number precisely when the corresponding polynomial, reduced modulo
the N-th cyclotomic polynomial (N the lcm of the denominators), is constant;
being a sum of algebraic integers, the rational value is then an ordinary
integer.  All arithmetic below is exact integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Long division by a monic integer polynomial; stays in Z[x]."""
    assert den and den[-1] == 1, "divisor must be monic"
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            q[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("n must be positive")
    # x^n - 1 = prod over d | n of Phi_d, so divide out the proper divisors.
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert rem == [0]
    return tuple(num)


def root_of_unity_sum(counts: Mapping[Fraction, int]) -> int | None:
    """Value of sum c_r * exp(2*pi*i*r) if it is an integer, else None.

    Keys are rotation numbers taken mod 1; values are integer multiplicities.
    """
    if not counts:
        return 0
    n = math.lcm(*(r.denominator for r in counts))
    coeffs = [0] * n
    for r, c in counts.items():
        r = r % 1
        coeffs[(r.numerator * (n // r.denominator)) % n] += c
    if n == 1:
        return coeffs[0]
    _, rem = _poly_divmod(coeffs, list(cyclotomic_polynomial(n)))
    if any(rem[1:]):
        return None
    return rem[0]
