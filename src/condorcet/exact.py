"""Exact Condorcet winner probabilities: a dynamic programme over the
voters for the impartial culture, weighted enumeration over the support of
every other culture, the closed-form minimum over all cultures, and the
marginal lower bound.  Everything here is exact rational arithmetic.

The impartial culture never builds its n! support.  By symmetry P is n
times the chance that alternative 0 wins, and the programme follows, voter
by voter, the histogram of the n-1 rivals by how many voters so far rank
each one above 0; a rival that reaches k such votes beats 0, so the
histogram has classes 0..k-1 and a move sends a chosen set of rivals up one
class.  A histogram is one int with a base-n digit per class.  The
programme's cost is polynomial in n for fixed k (:func:`impartial_move_count`).

Enumeration runs on integers only.  Each alternative's winner mass comes
from its own walk over multiplicity vectors, the multinomial weight built
up as a product of binomials, that judges once each only the multisets the
alternative has not lost before their last voter.  The walk for a reads
only a's column: each support ranking packs into one Python int with one
small field per rival b, counting whether the ranking puts b above a, so a
voter multiset's tally against a is one int sum, and one mask test tells
whether some rival has a majority over a: on a partial tally that cuts the
branch, on a full one it decides the win.  Field a never gains a vote, so
one mask and one bias serve every walk.  The cyclic kind is symmetric, so
one walk serves every alternative.  Weights are integer numerators over
the lcm D of the weight denominators; the winner mass accumulates as an
integer over D^(2k-1) and becomes a ``Fraction`` once, at the end.  The
walk over ``impartial_culture(n).expand()`` is the programme's test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import MAX_EXPLICIT_SUPPORT, CapExceededError, Culture, SupportTooLargeError
from .special import _tail_numerator, majority_tail_exact

# Caps the multiset count, checked before any walk (each walk judges at most
# that many multisets, and pruning usually far fewer), and the impartial
# programme's move count, checked before any move.
MAX_WINNER_CHECKS = 10 ** 8


@dataclass(frozen=True)
class ExactProbability:
    """An exact probability with its provenance.

    ``method`` is "dp" for the impartial culture's dynamic programme and
    "enumeration" for the support walk.  ``per_alternative`` decomposes the
    total by winning alternative; the winner is unique, so it sums to
    ``value``.  Each method counts its own work and leaves the other's
    counter None: ``winner_checks`` counts the multisets the enumeration
    judged, summed over its walks, at most the multiset count times the
    number of alternatives walked; ``moves`` counts the weighted histogram
    moves the programme applied, summed over its voters but the last, which
    makes none: :func:`impartial_move_count` for n >= 3, 0 for n <= 2.
    """

    value: Fraction
    method: str
    per_alternative: Optional[Tuple[Fraction, ...]] = None
    winner_checks: Optional[int] = None
    moves: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError(f"probability {self.value} outside [0, 1]")
        if self.per_alternative is not None and sum(self.per_alternative) != self.value:
            raise ValueError("per-alternative decomposition does not sum to the total")


def multiset_count(support: int, k: int) -> int:
    """Number of multisets of 2k-1 voters over a support of ``support``
    rankings: the most winner checks one walk can make."""
    voters = 2 * k - 1
    return math.comb(support + voters - 1, voters)


def impartial_move_count(n: int, k: int) -> int:
    """The moves the impartial programme applies for n >= 3.  Voter t < 2k-2
    moves each histogram h over classes 0..min(t, k-1) in prod_{c<k-1}
    (h_c + 1) ways, which sum to the coefficient of x^(n-1) in (1-x)^(-e),
    e = min(2t+2, 2k-1): C(n-2+e, e-1)."""
    exponents = (min(2 * t + 2, 2 * k - 1) for t in range(2 * k - 2))
    return sum(math.comb(n - 2 + e, e - 1) for e in exponents)


def _histogram_moves(
    state: int, n: int, k: int, scaled: Sequence[int], interned: dict
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Every move of one voter from the rival histogram ``state``, whose
    base-n digit c counts the h_c rivals of class c, as a tuple of targets
    and a tuple of their weights.

    The voter ranks i_c rivals of each class c < k-1 above alternative 0,
    which moves them up a class and adds i_c (n-1) n^c to the state; a
    rival of class k-1 above 0 would get k votes, so that class takes none.
    The weight is prod C(h_c, i_c) times ``scaled[r]``, r = sum i_c, the
    voter's scaled chance of ranking one given r-set of rivals above 0.
    Targets are looked up in ``interned``, so each histogram is one object.
    """
    moves, rest = [(state, 1, 0)], state
    for c in range(k - 1):
        rest, h = divmod(rest, n)
        if h:
            step, row = (n - 1) * n ** c, [math.comb(h, i) for i in range(h + 1)]
            moves = [(t + i * step, w * row[i], r + i)
                     for t, w, r in moves for i in range(h + 1)]
    return (tuple(interned.setdefault(t, t) for t, _, _ in moves),
            tuple(w * scaled[r] for _, w, r in moves))


def _impartial_probability(n: int, k: int, max_winner_checks: int) -> ExactProbability:
    """Exact probability of a Condorcet winner under the impartial culture,
    by a dynamic programme over the 2k-1 voters.

    By symmetry P = n P(0 wins).  A uniform ranking puts 0 at each of the n
    places with chance 1/n and the r rivals above it form a uniform r-subset,
    so it ranks one given r-set of rivals above 0 with chance r! (n-1-r)! /
    n!.  The numerators are divided by their gcd g, which at n = 800 cuts the
    per-voter denominator n!/g from 1977 digits to 345.  The state is the
    histogram of the rivals by their votes over 0, an int whose base-n digit
    c counts the rivals of class c, at most n-1; it starts with all n-1 in
    class 0, and its mass is an integer over (n!/g)^voters.  Voters 0..2k-3
    move it (:func:`_histogram_moves`).  A state's moves are built once and
    kept only while a later moving voter will reach it again, which it
    does, by the move that ranks no rival above 0.  The last voter makes no
    move: 0 wins when it ranks 0 above the j rivals of class k-1, the
    state's top digit, which a uniform ranking does with chance 1/(j+1), so
    each final state adds its mass times (n!/g)/(j+1), which is sum_r
    C(n-1-j, r) scaled[r] and so an integer.  The total, times n, is the
    answer, made a ``Fraction`` once.  For n <= 2 some alternative always
    wins and no move is made.

    Raises :class:`CapExceededError` (``max_winner_checks``) before any
    move when :func:`impartial_move_count` exceeds the cap.
    """
    if n <= 2:
        return ExactProbability(Fraction(1), "dp", (Fraction(1, n),) * n, moves=0)
    needed = impartial_move_count(n, k)
    if needed > max_winner_checks:
        raise CapExceededError("max_winner_checks", needed, max_winner_checks)
    rivals = n - 1
    numerators = [math.factorial(r) * math.factorial(rivals - r) for r in range(n)]
    g = math.gcd(*numerators)
    scaled = [x // g for x in numerators]
    mass, moves_of, interned, moves = {rivals: 1}, {}, {rivals: rivals}, 0
    for voter in range(2 * k - 2):
        revisited = voter < 2 * k - 3
        after: dict = {}
        for state, weight in mass.items():
            moves_here = moves_of.get(state)
            if moves_here is None:
                moves_here = _histogram_moves(state, n, k, scaled, interned)
                if revisited:
                    moves_of[state] = moves_here
            targets, steps = moves_here
            moves += len(targets)
            for target, step in zip(targets, steps):
                after[target] = after.get(target, 0) + weight * step
        mass = after
    per_voter, top = math.factorial(n) // g, n ** (k - 1)
    total = sum(weight * (per_voter // (state // top + 1)) for state, weight in mass.items())
    won = Fraction(total, per_voter ** (2 * k - 1))
    return ExactProbability(n * won, "dp", (won,) * n, moves=moves)


def _fields(where: np.ndarray, width: int) -> List[int]:
    """One int per row of the (rows, n) boolean array ``where``, holding 1 in
    the ``width``-bit field at bit ``width * b`` for every column b the row
    sets, 0 elsewhere, read off one bit array in time linear in its bits."""
    rows, n = where.shape
    bits = np.zeros((rows, n, width), dtype=bool)
    bits[:, :, 0] = where
    packed = np.packbits(bits.reshape(rows, n * width), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _pack(positions: np.ndarray, k: int, a: int) -> List[int]:
    """Column ``a`` of each support ranking, packed: one int per row of
    ``positions`` (row i gives ranking i's position of every alternative).

    Rival b owns the field of ``w = k.bit_length() + 1`` bits at bit w*b
    (see :func:`_fields`); it holds 1 when the ranking puts b above a.  A
    walk starts every field at 2^(w-1) - k, so after 2k-1 voters a field
    holds 2^(w-1) - k + votes < 2^w: no carry crosses fields, and the top
    bit is set exactly when at least k voters put b above a.  Field a never
    gains a vote, so its top bit stays clear, and ``tally & against``, with
    ``against`` the top bit of every field, is nonzero once some b has k
    votes over a.  Every pair has a strict majority among 2k-1 voters, so
    on a full tally a wins exactly when that test is zero.
    """
    return _fields(positions < positions[:, a:a + 1], k.bit_length() + 1)


def _multiset_winner(tally: int, against: int) -> bool:
    """Whether the walked alternative is the Condorcet winner of a voter
    multiset's packed full tally of its column, ``against`` being the defeat
    mask (see :func:`_pack`)."""
    return not tally & against


def _enumerate_range(
    packed: Sequence[int], against: int, bias: int, nums: Sequence[int], voters: int
) -> Tuple[int, int]:
    """Winner mass of one alternative over the multisets of ``voters``
    support indices, as an integer numerator over D^voters, and the number
    of winner checks made.

    A multiset with multiplicities c_i adds ``voters! / prod(c_i!) *
    prod(nums[i]^c_i)`` when the alternative with defeat mask ``against``
    (see :func:`_pack`) wins it.  ``walk(start, left, tally, coeff)``
    places the ``left`` remaining voters on indices >= start: index
    i takes a run of r = 1..left voters, each step adding ``packed[i]`` to
    the tally and multiplying ``coeff`` by ``(left - r + 1) / r * nums[i]``,
    and the walk recurses on (i + 1, left - r).  The multinomial is the
    product of the binomials C(left, c_i), so every division is exact.

    A partial tally with ``tally & against`` nonzero gives some b k votes
    over the alternative; votes only grow along a branch, so the run stops
    there and no multiset below it is visited.  Callers order the support
    by the alternative's position, worst first, so the cut comes after few
    voters.  Three cases end the walk, each with one winner check per
    multiset: the last index takes every remaining voter, a run that takes
    every remaining voter is a leaf, and a single remaining voter is a tight
    loop over the rest of the support.  The recursion is at most
    min(support, voters) + 1 deep.
    """
    last = len(packed) - 1
    mass = checks = 0

    def walk(start: int, left: int, tally: int, coeff: int) -> None:
        nonlocal mass, checks
        if left == 1:
            checks += last + 1 - start
            for q in range(start, last + 1):
                if _multiset_winner(tally + packed[q], against):
                    mass += coeff * nums[q]
            return
        for i in range(start, last):
            v, w, t, c = packed[i], nums[i], tally, coeff
            for r in range(1, left):
                t += v
                if t & against:
                    break
                c = c * (left - r + 1) // r * w
                walk(i + 1, left - r, t, c)
            else:
                checks += 1
                if _multiset_winner(t + v, against):
                    mass += c // left * w
        checks += 1
        if _multiset_winner(tally + left * packed[last], against):
            mass += coeff * nums[last] ** left

    walk(0, voters, bias, 1)
    return mass, checks


def condorcet_probability(
    culture: Culture,
    k: int,
    max_winner_checks: int = MAX_WINNER_CHECKS,
    max_support: int = MAX_EXPLICIT_SUPPORT,
) -> ExactProbability:
    """Exact probability that a Condorcet winner exists under the culture.

    The impartial culture runs the dynamic programme over rival histograms
    (:func:`_impartial_probability`); ``max_support`` does not apply to it,
    since it builds no support, and ``max_winner_checks`` caps its move
    count.  Every other culture is enumerated as follows.

    Enumerates unordered voter multisets over the culture's support, read
    as its position table (:meth:`Culture.support_positions`), with
    multinomial weights, which cuts the work by up to (2k-1)! against
    ordered tuples while keeping the arithmetic exact.  Each alternative's
    winner mass comes from its own walk over multiplicity vectors
    (:func:`_enumerate_range`), at most min(support, 2k-1) + 1 deep, which
    orders the support by that alternative's position, worst first, and
    cuts every branch the alternative has already lost.  Each multiset the
    walk reaches costs one winner check; ``winner_checks`` counts them over
    all walks.  The cyclic kind is invariant under a relabelling that sends
    0 to any alternative, so only alternative 0 is walked and its mass is
    every alternative's; explicit cultures walk every alternative.  A walk's
    tally is a sum of packed ints of the walked alternative's column, one
    per voter, built in time linear in their bits, and one defeat mask, the
    same for every walk, both cuts a lost branch and judges a full tally
    (:func:`_pack`).  Weights enter as integer numerators over D, the lcm of
    their denominators, so the winner mass accumulates as integers over
    D^(2k-1) and is divided once at the end; the cyclic weights are 1 over
    D = S.

    Raises :class:`SupportTooLargeError` when the support would exceed
    ``max_support`` and :class:`CapExceededError` when the multiset count
    exceeds ``max_winner_checks``; both are checked, in that order, before
    the support table is built, so the support cap is the one reported
    when both are exceeded.  No walk checks more multisets than that count.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if culture.kind == "impartial":
        return _impartial_probability(culture.n, k, max_winner_checks)
    support = culture.support_size
    if support > max_support:
        raise SupportTooLargeError(support, max_support)
    multisets = multiset_count(support, k)
    if multisets > max_winner_checks:
        raise CapExceededError("max_winner_checks", multisets, max_winner_checks)

    voters = 2 * k - 1
    symmetric = culture.kind == "cyclic"
    if symmetric:
        scale, nums = support, [1] * support
    else:
        scale = math.lcm(*(w.denominator for _, w in culture.entries))
        nums = [w.numerator * (scale // w.denominator) for _, w in culture.entries]
    positions = culture.support_positions()
    width = k.bit_length() + 1
    ones = _fields(np.ones((1, culture.n), dtype=bool), width)[0]
    against, bias = ones << (width - 1), ones * ((1 << (width - 1)) - k)
    mass, checks = [], 0
    for a in range(1 if symmetric else culture.n):
        order = np.argsort(-positions[:, a], kind="stable")
        won, made = _enumerate_range(
            _pack(positions[order], k, a), against, bias,
            [nums[i] for i in order], voters,
        )
        mass.append(won)
        checks += made
    if symmetric:
        mass *= culture.n
    total_den = scale ** voters
    per_alt = tuple(Fraction(m, total_den) for m in mass)
    return ExactProbability(
        Fraction(sum(mass), total_den), "enumeration", per_alt, winner_checks=checks
    )


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
