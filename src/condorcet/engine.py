"""Pairwise majority decisions and Condorcet winner detection, profile by
profile.

``find_condorcet_winner`` is the package's deliberately naive all-pairs
check: every alternative against every other, O(n^2 k) preference tests.
No production path runs it.  It is the oracle the fast winner checks are
tested against: the Monte Carlo knockout kernel
(``montecarlo._count_winners_vectorized``) and the packed-tally test of
exact enumeration, which judges one alternative a at a time from a's
column, each voter's "b above a" bits packed into one int, with one
defeat mask shared by every alternative: the mask cuts a walk's partial
tallies, and on a full tally ``exact._multiset_winner`` reads a miss as a
win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import Profile


@dataclass(frozen=True)
class CondorcetOutcome:
    """Result of winner detection; ``winner`` is None when no alternative
    beats all others (a Condorcet cycle).  At most one winner can exist."""

    winner: Optional[int]

    @property
    def exists(self) -> bool:
        return self.winner is not None


def majority_prefers(profile: Profile, a: int, b: int) -> bool:
    """True iff at least k of the 2k-1 voters rank ``a`` above ``b``.

    With an odd voter count exactly one of (a over b), (b over a) holds.
    """
    n = profile.n
    if a == b:
        raise ValueError("alternatives must differ")
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"alternative out of range for n={n}")
    k = profile.k
    votes = 0
    for pos in profile.positions:
        if pos[a] < pos[b]:
            votes += 1
            if votes >= k:
                return True
    return False


def find_condorcet_winner(profile: Profile) -> CondorcetOutcome:
    """Find the unique alternative that wins every pairwise majority, if any,
    by checking every alternative against all others."""
    for candidate in range(profile.n):
        if all(
            majority_prefers(profile, candidate, other)
            for other in range(profile.n)
            if other != candidate
        ):
            return CondorcetOutcome(candidate)
    return CondorcetOutcome(None)
