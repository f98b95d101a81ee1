"""Analytic kernel: elementary symmetric polynomials, Poisson binomial tails,
and the majority tail of an odd binomial with its closed-form derivative.

``majority_tail(k, x)`` is the probability that a coin with heads
probability x shows at least k heads in 2k-1 tosses.  It drives both the
minimum-probability closed form and the marginal lower bound, so it comes
in a float version and an exact rational twin.  Every float function takes
either one input or a whole batch as arrays and works elementwise, so the
checkers and the vectorized minimizer share one formula: the majority tail
and its derivative take a float or an ndarray of coordinates, and the
symmetric polynomial and the Poisson binomial tail take one coordinate
vector or a 2-D array with one vector per row.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Union

import numpy as np

Number = Union[int, float, Fraction]


def _columns(xs) -> list:
    """The coordinates of ``xs`` in order: the entries of one vector, or the
    columns of a 2-D array holding one vector per row."""
    if isinstance(xs, np.ndarray) and xs.ndim == 2:
        return list(xs.T)
    return list(xs)


def elementary_symmetric(ell: int, xs):
    """The ell-th elementary symmetric polynomial of ``xs``.

    One-pass dynamic program over prefix polynomials: after absorbing x the
    coefficient e[j] becomes e[j] + x * e[j-1].  O(len(xs) * ell) time, all
    additions of non-negative terms for non-negative inputs, so no
    cancellation blow-up.  Works for floats and Fractions alike.

    ``xs`` is one vector (a sequence of numbers) or a 2-D ndarray with one
    vector per row; a batch returns one value per row, each bit-identical to
    the call on that row alone, since every row goes through the same
    operations in the same order.
    """
    cols = _columns(xs)
    m = len(cols)
    if not 1 <= ell <= m:
        raise ValueError(f"order {ell} out of range for {m} inputs")
    zero = cols[0] * 0
    e: List = [zero] * (ell + 1)
    e[0] = zero + 1
    for i, x in enumerate(cols):
        for j in range(min(i + 1, ell), 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e[ell]


def poisson_binomial_tail(xs, k: int):
    """P(at least k successes) for independent Bernoulli(x_i) trials.

    Count-distribution dynamic program: dp[j] = P(j successes among the
    trials absorbed so far).  O(m^2) time, every term non-negative, exact up
    to rounding.  The trial count must be 2k-1 (the odd-election setting).

    ``xs`` is one vector (the result is a float) or a 2-D ndarray with one
    vector per row (the result is an ndarray with one tail per row).  Each
    row runs the same operations in the same order, the tail summed
    dp[k] + ... + dp[m] from left to right, so it is bit-identical to the
    call on that row alone.
    """
    cols = _columns(xs)
    m = len(cols)
    if m != 2 * k - 1:
        raise ValueError(f"expected 2k-1 = {2 * k - 1} coordinates, got {m}")
    for x in cols:
        _check_unit_interval(x)
    dp = [0.0] * (m + 1)
    dp[0] = 1.0
    for i, x in enumerate(cols):
        q = 1.0 - x
        for j in range(i + 1, 0, -1):
            dp[j] = dp[j] * q + dp[j - 1] * x
        dp[0] = dp[0] * q
    total = sum(dp[k:])
    return total if isinstance(total, np.ndarray) else float(total)


def _check_unit_interval(x) -> None:
    if isinstance(x, np.ndarray):
        if not ((0.0 <= x) & (x <= 1.0)).all():
            raise ValueError("coordinates outside [0, 1]")
    elif not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")


def majority_tail(k: int, x):
    """P(at least k heads in 2k-1 tosses of a coin with heads probability x).

    Direct evaluation of sum_{l=0}^{k-1} C(2k-1, l) x^(2k-1-l) (1-x)^l;
    all terms are non-negative, so the sum is stable.  ``x`` is a float
    (the result is a float) or an ndarray (evaluated elementwise).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_unit_interval(x)
    m = 2 * k - 1
    one_minus = 1.0 - x
    total = 0.0
    for l in range(k):
        total += math.comb(m, l) * x ** (m - l) * one_minus ** l
    return total


def majority_tail_exact(k: int, x: Number) -> Fraction:
    """Exact rational twin of :func:`majority_tail` for rational x.

    With x = p/q in lowest terms the tail is one integer over q^(2k-1),
    sum_{l<k} C(2k-1, l) p^(2k-1-l) (q-p)^l / q^(2k-1), so the sum runs in
    integers and a single ``Fraction`` is built (and reduced) at the end.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    xf = Fraction(x)
    if not 0 <= xf <= 1:
        raise ValueError(f"x={x} outside [0, 1]")
    m = 2 * k - 1
    p, q = xf.numerator, xf.denominator
    numerator = sum(math.comb(m, l) * p ** (m - l) * (q - p) ** l for l in range(k))
    return Fraction(numerator, q ** m)


def _derivative_coefficient(k: int) -> float:
    """(2k-1)! / ((k-1)!)^2 for k >= 2, in log space above k = 20 to avoid
    factorial overflow."""
    if k <= 20:
        return float(math.factorial(2 * k - 1) // (math.factorial(k - 1) ** 2))
    return math.exp(math.lgamma(2 * k) - 2.0 * math.lgamma(k))


def majority_tail_derivative(k: int, x):
    """d/dx of :func:`majority_tail`: (2k-1)! / ((k-1)!)^2 * (x(1-x))^(k-1).

    ``x`` is a float or an ndarray, as for :func:`majority_tail`; for k=1
    the derivative is identically 1.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_unit_interval(x)
    if k == 1:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    return _derivative_coefficient(k) * (x * (1.0 - x)) ** (k - 1)
