"""Exact Condorcet winner probabilities: weighted enumeration over a culture's
support, the closed-form minimum over all cultures, and the marginal lower
bound.  Everything here is exact rational arithmetic.

Enumeration runs on integers only.  Each support ranking's pairwise
preferences are packed into one Python int, one small field per ordered
pair of alternatives, so a voter multiset's pairwise tally is one int sum
and its Condorcet winner one mask test per alternative.  The multisets are
walked as multiplicity vectors, the multinomial weight built up as a product
of binomials, so each costs one winner check whatever the support size and
voter count.  Weights are integer numerators over the lcm D of the weight
denominators; the winner mass per alternative accumulates as an integer
over D^(2k-1) and becomes a ``Fraction`` once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .model import (
    MAX_EXPLICIT_SUPPORT,
    CapExceededError,
    Culture,
    SupportTooLargeError,
)
from .special import _tail_numerator, majority_tail_exact

MAX_WINNER_CHECKS = 10 ** 8


@dataclass(frozen=True)
class ExactProbability:
    """An exact probability with its provenance.

    Only support enumeration builds one, so ``method`` is "enumeration".
    ``per_alternative`` decomposes the total by winning alternative; the
    winner is unique, so it sums to ``value``.
    """

    value: Fraction
    method: str
    per_alternative: Optional[Tuple[Fraction, ...]] = None

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError(f"probability {self.value} outside [0, 1]")
        if self.per_alternative is not None and sum(self.per_alternative) != self.value:
            raise ValueError("per-alternative decomposition does not sum to the total")


def multiset_count(support: int, k: int) -> int:
    """Number of multisets of 2k-1 voters over a support of ``support``
    rankings: the winner checks one enumeration makes."""
    voters = 2 * k - 1
    return math.comb(support + voters - 1, voters)


def _pack(culture: Culture, k: int) -> Tuple[List[int], List[int], int]:
    """Packed pairwise preferences of the support rankings, the winner row
    masks and the tally bias.

    Ordered pair (a, b) owns the field of ``w = k.bit_length() + 1`` bits at
    bit ``w * (a * n + b)``; a ranking's packed int holds 1 there when it
    puts a above b.  ``bias`` starts every off-diagonal field at
    2^(w-1) - k, so after 2k-1 voters a field holds 2^(w-1) - k + votes,
    which lies in [0, 2^(w-1) + k - 1] and, as k < 2^(w-1), below 2^w: no
    carry crosses into the next field, and the field's top bit is set
    exactly when at least k voters put a above b.  ``rows[a]`` masks the top
    bits of the fields (a, b) for b != a, so a is the Condorcet winner iff
    ``tally & rows[a] == rows[a]``.
    """
    n = culture.n
    width = k.bit_length() + 1
    top = 1 << (width - 1)
    bit = [[1 << (width * (a * n + b)) for b in range(n)] for a in range(n)]
    packed = []
    for ranking, _ in culture.entries:
        order = ranking.order
        packed.append(
            sum(bit[a][b] for i, a in enumerate(order) for b in order[i + 1:])
        )
    rows = [sum(top * bit[a][b] for b in range(n) if b != a) for a in range(n)]
    bias = (top - k) * sum(bit[a][b] for a in range(n) for b in range(n) if b != a)
    return packed, rows, bias


def _multiset_winner(tally: int, rows: Sequence[int]) -> Optional[int]:
    """Condorcet winner of a voter multiset from its packed pairwise tally
    (see :func:`_pack`), or None when there is none."""
    for a, row in enumerate(rows):
        if tally & row == row:
            return a
    return None


def _enumerate_range(
    packed: Sequence[int],
    rows: Sequence[int],
    bias: int,
    nums: Sequence[int],
    voters: int,
) -> List[int]:
    """Winner mass per alternative over every multiset of ``voters`` support
    indices, as integer numerators over D^voters.

    A multiset with multiplicities c_i adds ``voters! / prod(c_i!) *
    prod(nums[i]^c_i)`` to its winner.  ``walk(start, left, tally, coeff)``
    places the ``left`` remaining voters on indices >= start: index i takes
    a run of r = 1..left voters, each step adding ``packed[i]`` to the tally
    and multiplying ``coeff`` by ``(left - r + 1) / r * nums[i]``, and the
    walk recurses on (i + 1, left - r).  The multinomial is the product of
    the binomials C(left, c_i), so every division is exact.  Three cases
    end the walk: the last index takes every remaining voter, a run that
    takes every remaining voter is a leaf, and a single remaining voter is a
    tight loop over the rest of the support.  Each multiset costs one winner
    check, and the recursion is at most min(support, voters) + 1 deep.
    """
    last = len(packed) - 1
    per_alt = [0] * len(rows)

    def walk(start: int, left: int, tally: int, coeff: int) -> None:
        if left == 1:
            for q in range(start, last + 1):
                winner = _multiset_winner(tally + packed[q], rows)
                if winner is not None:
                    per_alt[winner] += coeff * nums[q]
            return
        for i in range(start, last):
            v, w, t, c = packed[i], nums[i], tally, coeff
            for r in range(1, left):
                t += v
                c = c * (left - r + 1) // r * w
                walk(i + 1, left - r, t, c)
            winner = _multiset_winner(t + v, rows)
            if winner is not None:
                per_alt[winner] += c // left * w
        winner = _multiset_winner(tally + left * packed[last], rows)
        if winner is not None:
            per_alt[winner] += coeff * nums[last] ** left

    walk(0, voters, bias, 1)
    return per_alt


def condorcet_probability(
    culture: Culture,
    k: int,
    max_winner_checks: int = MAX_WINNER_CHECKS,
    max_support: int = MAX_EXPLICIT_SUPPORT,
) -> ExactProbability:
    """Exact probability that a Condorcet winner exists under the culture.

    Enumerates unordered voter multisets over the explicit support with
    multinomial weights, which cuts the work by up to (2k-1)! against
    ordered tuples while keeping the arithmetic exact.  The walk over
    multiplicity vectors (:func:`_enumerate_range`), at most
    min(support, 2k-1) + 1 deep, makes one winner check per multiset and
    builds its multinomial as a product of binomials.  Each multiset's
    pairwise tally is a sum of packed ints, one per voter, and its winner a
    mask test per alternative (:func:`_pack`).  Weights enter as integer
    numerators over D, the lcm of their denominators, so the winner mass
    accumulates as integers over D^(2k-1) and is divided once at the end.

    Raises :class:`SupportTooLargeError` when the explicit support would
    exceed ``max_support`` and :class:`CapExceededError` when the multiset
    count exceeds ``max_winner_checks``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    explicit = culture.expand(max_support)
    support = len(explicit.entries)
    if support > max_support:
        raise SupportTooLargeError(support, max_support)
    multisets = multiset_count(support, k)
    if multisets > max_winner_checks:
        raise CapExceededError("max_winner_checks", multisets, max_winner_checks)

    voters = 2 * k - 1
    scale = math.lcm(*(w.denominator for _, w in explicit.entries))
    nums = [w.numerator * (scale // w.denominator) for _, w in explicit.entries]
    packed, rows, bias = _pack(explicit, k)
    mass = _enumerate_range(packed, rows, bias, nums, voters)
    total_den = scale ** voters
    per_alt = tuple(Fraction(m, total_den) for m in mass)
    return ExactProbability(Fraction(sum(mass), total_den), "enumeration", per_alt)


def min_condorcet_probability(n: int, k: int) -> Fraction:
    """The minimum Condorcet winner probability over all cultures on n
    alternatives with 2k-1 voters, as an exact rational:

        n^-(2k-2) * sum_{l=0}^{k-1} C(2k-1, l) (n-1)^l,

    that is n * majority_tail(k, 1/n).  The cyclic rotation culture attains
    it.  For n <= 2 the value is 1.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    return Fraction(_tail_numerator(k, 1, n), n ** (2 * k - 2))


def marginal_lower_bound(culture: Culture, k: int) -> Fraction:
    """Sum of majority tails of the top-choice marginals.

    Each alternative is a Condorcet winner whenever at least k voters rank
    it first, so this sum is a certified lower bound on the exact winner
    probability.  Exact rational since culture marginals are rational.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return sum(
        (majority_tail_exact(k, x) for x in culture.top_marginals()), Fraction(0)
    )
