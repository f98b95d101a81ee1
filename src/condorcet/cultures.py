"""Named culture constructors and the seed derivation for random streams.

Reproducibility contract: every random stream in the package comes from
numpy's default PCG64 generator, seeded through :func:`mix64` from the
master seed, words naming the stream (for a Monte Carlo chunk: n, k and the
chunk index; for a verify check: its tag) and a version word:
STREAM_VERSION for Monte Carlo, ``verify.VERIFY_STREAM_VERSION`` for the
verify checks.  Identical words give bit-identical streams on the same
package version; the contract is per (seed, version), not across
versions.  Parallel callers derive independent substreams by varying the
words through the same mixing function instead of sharing one generator.
Profiles are sampled by :mod:`condorcet.montecarlo`.
"""

from __future__ import annotations

from .model import Culture

# Bumped whenever the sampling pipeline changes in a way that alters streams.
# Version 2: impartial profiles are i.i.d. uint64 keys instead of shuffled
# ranks, and each Monte Carlo chunk draws its profiles one block at a time.
# Version 3: impartial keys are uint32, two per generator word; a block
# whose keys tie draws their 32 low bits right after it.
# Version 4: each block is drawn alternative-major, as a (voters, n, profiles)
# array, so each seed puts its keys in other (profile, voter, alternative)
# slots.
# Version 5: voter 0 of an impartial profile holds the identity ranking and
# only voters 1..2k-2 are drawn (low halves too); a block is judged again
# only when its knockout ties or a profile called a winner holds a key equal
# to its champion's.
# Version 6: impartial keys are uint16, four per generator word, while
# (2k - 2)(n - 1) <= 2048, and uint32 past it; impartial blocks of uint16
# keys hold about 3 * 2^17 keys; only the profiles that tie are judged
# again, their low bits drawn once a piece of them has gathered or the
# chunk ends.
# Version 7: voter 0 of a cyclic profile holds rotation 0 and only voters
# 1..2k-2 are drawn; on the winner-table path each chunk draws one uniform
# table index per profile in one call.
# Version 8: a tied impartial profile is judged again on a ladder of keys,
# each rung doubling their width with fresh low bits drawn as keys of the
# old width: 16-bit keys go to 32 bits, and only the profiles that tie
# again go on to 64 bits; 32-bit keys go to 64 bits at once.
# Version 9: a culture with at most min(samples, 2^18) distinct profiles
# draws each chunk's win count as one Binomial(size, q) variate instead of
# one table index per profile; q is exact.condorcet_probability rounded
# once.  Version 9 first took q as a float dot product over a winner
# table; the exact q moved no seeded draw of the tests, so the version
# stayed, though an explicit culture's p_hat from that first form can
# rarely differ, where a draw hinged on the last ulps of q.
STREAM_VERSION = 9

_MASK64 = (1 << 64) - 1


def mix64(*words: int) -> int:
    """Mix integer words into one 64-bit seed (splitmix64 finalizer per word).

    This is the documented derivation for every substream in the package:
    feeding (master, a, b, ...) word by word, each step adds the golden-ratio
    increment and applies the splitmix64 avalanche, so nearby inputs land far
    apart in seed space.
    """
    h = 0
    for w in words:
        h = (h + (int(w) & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        z = h
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = z ^ (z >> 31)
    return h


def impartial_culture(n: int) -> Culture:
    """The uniform culture on all n! rankings, kept symbolic."""
    return Culture(n, "impartial")


def cyclic_culture(n: int) -> Culture:
    """The n rotations of (0, ..., n-1), each weight 1/n, kept symbolic: the
    culture that minimizes the Condorcet winner probability on n alternatives."""
    return Culture(n, "cyclic")
