"""Monte Carlo estimation of Condorcet winner probability.

The sample space is split into fixed-size chunks; chunk i is generated by a
fresh PCG64 generator seeded with mix64(seed, n, k, i, STREAM_VERSION).
On the key path a chunk is sampled and judged one block of profiles at a
time (see :func:`_block_rows`), so its working set stays in cache and no
chunk-sized tensor is ever built.  :func:`_sample_positions` is the
package's one profile sampler: it draws a block as a tensor of ranking
keys, never as Ranking objects, laid out alternative-major as a C-order
(voters, n, profiles) array and handed over as its (profiles, voters, n)
view.  With w workers, worker j runs key-path chunks j, j + w, j + 2w, ...
in turn, one task per worker; the merge is an integer sum of per-chunk
winner counts, so p_hat depends on (seed, version) alone and is identical
for any worker count.

The winner kernel, :func:`_count_winners_vectorized`, is a knockout
tournament run on a key tensor: ceil(log2 n) rounds of paired majority
contests, in which the odd column of an odd-width round has a bye, leave
one survivor per profile, and one verification pass checks it against all
n alternatives.  On the alternative-major layout each compare and select
covers one contiguous (alternatives, profiles) array per voter, and the
temporaries are at most half a block.  A Condorcet winner beats everyone,
so it survives any bracket, and the count equals that of any
candidate-elimination scan.  It only compares keys, so any keys whose
order is the voter's ranking will do.  Its oracle is the all-pairs check
:func:`condorcet.engine.find_condorcet_winner`.

Relabelling the alternatives does not change whether a profile has a
Condorcet winner, so under the impartial culture voter 0's ranking can be
fixed (the conditioning of Gehrlein, *Condorcet's Paradox*, 2006): voter 0
holds the identity ranking, key a for alternative a, and only voters 1 to
2k - 2 are drawn.  Their keys are the high bits of i.i.d. uniform 64-bit
keys: 16 bits, four per generator word, while a profile's knockout
compares at most ``_NARROW_COMPARISONS`` pairs of drawn keys (2048 at
k = 2, 3072 at k = 3, 4 and 5), and 32 bits, two per word, past that (see
:func:`_key_dtype`).  Each worker keeps one block buffer for its share of
chunks, lays voter 0 out in it at the start of each chunk and copies every
block's drawn keys into it.  The kernel flags each profile in which a
comparison it made was a tie, or which it calls a winner while a rival
holds a key equal to its champion's; an unflagged profile's verdict is the
one it would give on the 64-bit keys, whatever their low bits.  The
flagged profiles, about 3% at n = 800, k = 2 on 16-bit keys and 0.7% at
n = 200, k = 2, are held by the chunk (see :class:`_TiedProfiles`) and
judged again on a ladder of wider keys, each rung doubling the width with
low bits from the chunk's generator: 16-bit keys go to 32 bits, and only
the profiles that tie again go on to 64 bits, where 32-bit keys go at
once.  The last rung is always 64 bits, so p_hat is the 64-bit
estimator's and its bias bound, (2k - 2) C(n, 2) / 2^64, does not depend
on the first pass's key width.

The same holds for the cyclic culture under a rotation of the labels: the
profiles with voter 0 on rotation r map onto those with voter 0 on
rotation 0, so voter 0 holds rotation 0 and voters 1 to 2k - 2 are drawn
uniformly from the n rotations, one of n^(2k-2) tuples.

A culture with finite support of S rankings (cyclic or explicit) gives a
profile as a tuple of support indices: one of S^(2k-1) for an explicit
culture and of n^(2k-2) for the cyclic one.  When there are at most
min(samples, ``_BLOCK_KEYS``) tuples (cyclic: n <= 512 at k = 2, n <= 22
at k = 3), a drawn profile has a winner with probability q, the culture's
exact winner probability from :func:`condorcet.exact.condorcet_probability`
rounded once to a float, so a chunk's win count, a sum of i.i.d.
Bernoulli(q) verdicts, is Binomial(size, q): each chunk draws it as one
variate from its own generator and counts as one block.  These chunks run
inline whatever the worker count, as each takes microseconds.  p_hat has
the distribution the kernel's verdicts on drawn rank tensors would give it,
up to the one rounding of q.
"""

from __future__ import annotations

import math
import secrets
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import NAMED_KINDS, Culture
from .cultures import STREAM_VERSION, mix64
from .exact import condorcet_probability

CHUNK_SAMPLES = 1 << 14
# Keys per sampled block, 1 MiB of uint32 impartial keys: small enough for
# the block and the kernel's temporaries to stay in cache, large enough to
# amortise numpy's per-call cost.  On 2 vCPUs with 2 MiB L2 per core and
# alternative-major blocks, 2^19 ran impartial n = 800, k = 2 and n = 50,
# k = 5 within noise of 2^18 in process (0.20-0.23 s and 0.08-0.09 s per
# call), and 3-5% faster in paired benchmark runs, but added 1.5-1.7 MB of
# peak RSS.  2^17 took 0.13 s at n = 50, k = 5, with 22 400 minor page
# faults per warm call against none at 2^18.
_BLOCK_KEYS = 1 << 18
# Keys per block of uint16 impartial keys, 768 KiB.  In process on 2 vCPUs,
# blocks of 2^18, 3 * 2^17 and 2^19 such keys ran n = 800, k = 2 and n = 50,
# k = 5 within noise of each other, while the traced peak of an n = 800
# chunk, after a first one, grew from 1.6 to 1.8 and 2.1 MiB.
_NARROW_BLOCK_KEYS = 3 << 17
# Keys of tied profiles judged again on uint64 keys in one kernel call,
# 192 KiB; a call on uint32 keys judges twice as many keys, the same bytes.
# A call costs about 0.2 ms however few profiles it judges, so tied
# profiles gather over blocks first.  At n = 800, k = 2, in process on
# 2 vCPUs, pieces of 128 KiB took 11% longer than pieces of 256 KiB, and
# 256 KiB pieces added 0.3 MB to a forked child's peak RSS, where 192 KiB
# pieces kept it at the 32-bit path's.
_REJUDGE_KEYS = 3 << 13
# Impartial keys are drawn as uint16 while a profile's knockout compares at
# most this many pairs of drawn keys, (2k - 2)(n - 1), and as uint32 past
# it; a k not listed takes k = 2's 2048.  At k = 2, in process on 2 vCPUs,
# uint16 keys took 12-21% less time than uint32 at 2048 pairs, 4% less at
# 2560, 0-12% more at 3072 and 12% more at 4096.  At k = 3, 4 and 5 (8192
# profiles, CPU time, medians of 5 or 7 alternating runs; two runs give two
# figures), with the share of profiles judged again on uint16 keys:
#   pairs   k = 3        k = 4        k = 5        judged again
#   2048    -17%         -23%         -25%         3.3-3.6%
#   3072    -12%, -12%   -11%, -8%    -20%, -10%   5.0-5.2%
#   3584    -8%          -7%          -9%          5.9-6.0%
#   4096    -3%          -1%          +2%          6.6-6.9%
# So k = 3, 4 and 5 keep uint16 keys up to 3072 pairs.  3584 gains too, but
# 3072 keeps the share judged again near 5%, well inside the 7% the tests
# hold the uint16 side to.
_NARROW_COMPARISONS = {2: 1 << 11, 3: 3 << 10, 4: 3 << 10, 5: 3 << 10}

_Z95 = 1.96


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with its binomial error and 95% interval.

    ``std_error`` is the plug-in standard error sqrt(p_hat (1 - p_hat) / N),
    which is 0 when p_hat is 0 or 1.  The interval is therefore the Wilson
    score interval, not p_hat +/- 1.96 std_error: it keeps a width of order
    1/N at p_hat = 0 or 1 and lies inside [0, 1] by construction.
    ``winner_checks`` is the number of voter multisets the exact walk
    judged to get q, the winner probability the win counts were drawn with
    (see :func:`condorcet.exact.condorcet_probability`); it is 0 at k = 1,
    where q = 1 needs no walk, and when the knockout kernel judged each
    sampled profile.
    ``blocks`` counts the blocks the chunks were sampled in, one per chunk
    when each draws its win count as one binomial variate, and
    ``rejudged_profiles`` the profiles in whose 16- or 32-bit keys the
    kernel met a tie, so it judged them again on wider keys, at least
    once.
    """

    p_hat: float
    samples: int
    std_error: float
    ci_low: float
    ci_high: float
    seed: int
    winner_checks: int
    blocks: int
    rejudged_profiles: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError(f"p_hat {self.p_hat} outside [0, 1]")


def _cumulative_weights(culture: Culture) -> Optional[np.ndarray]:
    """The cumulative support weights of a finite-support culture, the last
    set to 1.0, which :func:`_sample_support` inverts (None for the cyclic
    culture, which it draws uniformly)."""
    if culture.kind == "cyclic":
        return None
    cum = np.cumsum([float(w) for _, w in culture.entries])
    cum[-1] = 1.0
    return cum


def _sample_support(
    culture: Culture,
    k: int,
    size: int,
    rng: np.random.Generator,
    cum: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Support indices for ``size`` profiles of a finite-support culture:
    out[b, v] is the ranking of voter v of profile b, drawn with its weight
    by inverting ``cum``, which :func:`_cumulative_weights` builds if it is
    not given.  A cyclic profile's voter 0 holds rotation 0 and voters 1 to
    2k - 2 are uniform on the n rotations, which keeps the winner
    probability, as rotating the labels maps the profiles with voter 0 on
    rotation r onto those with it on rotation 0."""
    voters = 2 * k - 1
    if culture.kind == "cyclic":
        drawn = rng.integers(0, culture.n, size=(size, voters - 1), dtype=np.int32)
        return np.concatenate([np.zeros((size, 1), dtype=np.int32), drawn], axis=1)
    if cum is None:
        cum = _cumulative_weights(culture)
    idx = np.searchsorted(cum, rng.random((size, voters)), side="right")
    return np.clip(idx, 0, len(culture.entries) - 1, out=idx)


def _random_keys(shape: Tuple[int, int, int], rng: np.random.Generator, dtype) -> np.ndarray:
    """i.i.d. uniform keys of the unsigned ``dtype`` and ``shape`` =
    (size, voters, n): 8 / itemsize per 64-bit generator word, the low end
    first on any host, with the last word's unused keys dropped.  They are
    drawn in the kernel's alternative-major order: the result is the
    (size, voters, n) view of a C-order (voters, n, size) array."""
    size, voters, n = shape
    count, width = size * voters * n, np.dtype(dtype).itemsize
    words = rng.bit_generator.random_raw(-(-count * width // 8)).astype("<u8", copy=False)
    return words.view(f"<u{width}")[:count].reshape(voters, n, size).transpose(2, 0, 1)


def _key_dtype(n: int, k: int) -> type:
    """Width of the impartial culture's drawn keys: uint16 while a profile's
    knockout compares at most ``_NARROW_COMPARISONS`` pairs of drawn keys,
    (2k - 2)(n - 1), so that a few percent of profiles tie at most, and
    uint32 past it.  Voter 0's keys 0..n-1 must fit too."""
    limit = _NARROW_COMPARISONS.get(k, _NARROW_COMPARISONS[2])
    if (2 * k - 2) * (n - 1) <= limit and n <= 1 << 16:
        return np.uint16
    return np.uint32


def _block_rows(culture: Culture, k: int) -> int:
    """Profiles per sampled block: about ``_NARROW_BLOCK_KEYS`` keys on
    uint16 impartial keys, and ``_BLOCK_KEYS`` otherwise."""
    keys = _BLOCK_KEYS
    if culture.kind == "impartial" and _key_dtype(culture.n, k) is np.uint16:
        keys = _NARROW_BLOCK_KEYS
    return max(1, keys // ((2 * k - 1) * culture.n))


def _gather_ranks(ranks: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rank tensor of the profiles whose voter v holds support ranking
    idx[b, v]: out[b, v] = ranks[idx[b, v]], in the kernel's
    alternative-major order, as the (rows, voters, n) view of a C-order
    (voters, n, rows) array.  Each voter's rows are gathered whole and
    written transposed into the block.  In process, cyclic n = 800, k = 2
    at 16384 profiles took 0.13 s this way, against 0.25 s with an
    element-wise gather along the support axis and 0.19 s with every voter
    gathered before one transposing copy, which holds two blocks at once
    and took 33 600 minor page faults per call."""
    rows, voters = idx.shape
    out = np.empty((voters, ranks.shape[1], rows), dtype=ranks.dtype)
    for v in range(voters):
        out[v] = ranks[idx[:, v]].T
    return out.transpose(2, 0, 1)


def _identity_voter(block: np.ndarray) -> np.ndarray:
    """``block``, a C-order (voters, n, rows) key array, with key a for
    alternative a in every profile of its voter-0 slice, voter 0's identity
    ranking."""
    block[0] = np.arange(block.shape[1], dtype=block.dtype)[:, None]
    return block


def _impartial_block(n: int, k: int, rows: int) -> np.ndarray:
    """A C-order (2k - 1, n, rows) block of :func:`_key_dtype` keys whose
    voter-0 slice holds voter 0's identity ranking; the drawn voters'
    slices are left unset."""
    return _identity_voter(np.empty((2 * k - 1, n, rows), dtype=_key_dtype(n, k)))


def _sample_positions(
    culture: Culture,
    k: int,
    size: int,
    rng: np.random.Generator,
    tables: Optional[Tuple[np.ndarray, Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """Key tensors for ``size`` profiles: voter v of profile b prefers
    alternative a to alternative c exactly when out[b, v, a] < out[b, v, c].

    The tensor is the (size, voters, n) view of a C-order (voters, n, size)
    array, so the kernel reads each voter's keys of one alternative as one
    contiguous run over the profiles and copies nothing.

    ``tables`` holds what the caller builds once and reuses for every block
    it draws; it is built here if it is not given.  The cyclic and explicit
    cultures give ranks 0..n-1 (the position of a in the voter's ranking),
    the rows of :meth:`Culture.support_positions` picked by
    :func:`_sample_support` (a cyclic voter 0 on rotation 0); their
    ``tables`` are that table and the
    :func:`_cumulative_weights`, which an estimate builds once for all its
    blocks.

    The impartial culture's ``tables`` is (block, None), a worker's
    :func:`_impartial_block` buffer of as many profiles as its blocks hold,
    with voter 0 laid out at the start of the chunk.
    Voter 0 keeps the buffer's identity ranking, and voters 1..2k-2 get
    i.i.d. uniform keys of the buffer's :func:`_key_dtype`, uint16 or
    uint32, drawn in one call and copied into the buffer, whose contents the
    next block overwrites.  The keys are the high 16 or 32 bits of i.i.d.
    uniform uint64 keys, whose low bits are drawn only for a profile in
    which the kernel meets a tie (see :func:`_count_winners_vectorized`).
    Given distinct 64-bit keys, each drawn voter's ranking is exactly
    uniform on the n! orders, and fixing voter 0 leaves the probability of
    a Condorcet winner unchanged, since relabelling the alternatives maps
    the profiles with voter 0 on any one ranking onto those with it on the
    identity.  A 64-bit tie has probability at most C(n, 2) / 2^64 per drawn
    voter, and it can only change the indicator of the profile it sits in,
    so |E[p_hat] - P| <= (2k - 2) C(n, 2) / 2^64, which is 3.5e-14 at
    n = 800, k = 2.
    """
    if culture.kind == "impartial":
        n, voters = culture.n, 2 * k - 1
        block = _impartial_block(n, k, size) if tables is None else tables[0]
        if block.shape[2] != size:
            # A chunk's short last block: a contiguous prefix of the buffer,
            # with voter 0 laid out again for ``size`` profiles.  That breaks
            # the full-size layout, so the next chunk lays voter 0 out anew.
            block = _identity_voter(block.reshape(-1)[:voters * n * size].reshape(voters, n, size))
        block[1:] = _random_keys((size, voters - 1, n), rng, block.dtype).transpose(1, 2, 0)
        return block.transpose(2, 0, 1)
    if tables is None:
        tables = culture.support_positions(), _cumulative_weights(culture)
    ranks, cum = tables
    return _gather_ranks(ranks, _sample_support(culture, k, size, rng, cum))


def _winner_mask(pos: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-profile Condorcet winner indicators of the key tensor, and
    per-profile flags of the profiles in which a comparison the kernel made
    was a tie.

    The kernel runs on the alternative-major (voters, n, rows) layout, which
    is the memory of every tensor :func:`_sample_positions` returns, so
    ``np.ascontiguousarray`` copies only a tensor laid out otherwise.  Each
    voter's keys of a run of alternatives are then one contiguous (run,
    rows) array, and every compare and select below covers one such array
    per voter.

    Knockout rounds: in a round of width w, let h = floor(w / 2); column
    i < h meets column i + (w - h) and the majority winner of each pair
    survives.  Both halves are contiguous per voter.  With w odd the middle
    column has a bye: it passes to the next round without playing, so no
    column ever meets itself.  A column is dropped only when it loses, so a
    Condorcet winner beats every alternative and is the last survivor
    whenever it exists.  One verification pass against all n alternatives
    then decides each profile.

    The verification pass counts, for each alternative, the voters whose
    champion key is at most the alternative's, and a profile has a winner
    when the least count reaches k; the champion's own column counts every
    voter, so only a rival can hold the least count.

    A tie is two equal keys of one voter.  The knockout sees one as a
    difference left - right of 0.  If none occurs, every knockout comparison
    had the result it would have on any keys extending these in the low
    bits, so the champion is the one those keys give.  A champion with
    fewer than k such votes against some rival loses to it on any low bits,
    and one with at least k against every rival wins on any low bits unless
    one of those votes is a key equal to the champion's.  So the pass checks
    equality only on the profiles it calls winners, where a key equal to the
    champion's other than the champion's own is a tie.  Rank tensors never
    tie.  A profile's comparisons involve its own keys only, so on every
    profile not flagged the verdict is that of any keys extending these in
    the low bits.

    Ties are rare, so each round and the equality check first count over the
    whole block, which costs one ``count_nonzero``, and only a count that
    shows a tie is followed by the per-profile reduction that flags its
    profiles; the reduction costs more than twice as much as the count
    (57 against 25 us on a first round at n = 800, k = 2).

    Every vote count is one boolean comparison of all voters at once,
    summed over voters in the smallest unsigned type that holds 2k - 1, so
    the temporaries are half the tensor and a boolean array of at most a
    quarter of its bytes; the caller bounds them by passing one block at a
    time.
    """
    rows, voters, n = pos.shape
    keys = np.ascontiguousarray(pos.transpose(1, 2, 0))
    count_dtype = np.min_scalar_type(voters)
    tied = np.zeros(rows, dtype=bool)
    survivors = keys
    while survivors.shape[1] > 1:
        width = survivors.shape[1]
        half = width // 2
        left = survivors[:, :half]
        right = survivors[:, width - half:]
        votes = np.add.reduce(left < right, axis=0, dtype=count_dtype)
        following = np.empty((voters, width - half, rows), dtype=keys.dtype)
        won = following[:, :half]
        # right + (left - right) * [left won], written into one buffer.  On
        # unsigned keys the subtraction wraps, but every step is exact modulo
        # 2^bits, so the result is left or right exactly.
        np.subtract(left, right, out=won)
        if np.count_nonzero(won) != won.size:
            tied |= np.minimum.reduce(won, axis=(0, 1)) == 0
        won *= votes >= k
        won += right
        if width % 2:
            following[:, half] = survivors[:, half]
        survivors = following
    champion = survivors[:, 0]
    votes = np.add.reduce(champion[:, None] <= keys, axis=0, dtype=count_dtype)
    winner = np.minimum.reduce(votes, axis=0) >= k
    winners = np.flatnonzero(winner)
    picked = keys.reshape(voters * n, rows)[:, winners].reshape(voters, n, len(winners))
    equal = picked == champion[:, None, winners]
    if np.count_nonzero(equal) != voters * len(winners):
        tied[winners[np.count_nonzero(equal, axis=(0, 1)) != voters]] = True
    return winner, tied


def _widen(keys: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``keys``, a (voters, n, profiles) array of 16- or 32-bit impartial
    keys, as keys of twice the width that extend them in the low bits:
    every key shifted up by its width, and each drawn voter's key given as
    many fresh low bits, drawn from ``rng`` as keys of the old width (see
    :func:`_random_keys`).  Voter 0's keys, the distinct identity keys of
    the sampler, are only shifted."""
    voters, n, rows = keys.shape
    wide = np.left_shift(keys, 8 * keys.dtype.itemsize, dtype=f"u{2 * keys.dtype.itemsize}")
    wide[1:] |= _random_keys((rows, voters - 1, n), rng, keys.dtype).transpose(1, 2, 0)
    return wide


class _TiedProfiles:
    """The profiles of one impartial chunk whose keys tied, held as (voters,
    n, profiles) keys by width until they are judged on wider keys.

    A held profile's drawn voters' keys are the high bits of uint64 keys,
    and each rung of a ladder doubles their width (see :func:`_widen`): a
    profile flagged on 16-bit keys is judged again on 32-bit keys, and only
    one that ties again on those goes on to 64-bit keys, as does one
    flagged on 32-bit keys.  Once a piece's worth of profiles is held at a
    width, 192 KiB of the widened keys (``_REJUDGE_KEYS`` 64-bit keys, or
    twice as many 32-bit ones), or the chunk's last block has been judged,
    the held profiles get their low bits from the chunk's generator in the
    order they were held, one piece at a time, 16-bit profiles before
    32-bit ones, and the kernel judges each piece.  The 64-bit keys' rung
    takes the verdicts whatever those tie, so the estimator is the 64-bit
    keys' one.  Which profiles tie follows from the chunk's own draws, so
    the order of the generator calls, and p_hat, depend on (seed, version)
    alone.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.held: Dict[int, List[np.ndarray]] = {16: [], 32: []}

    def judge(self, keys: np.ndarray, k: int, last: bool) -> Tuple[int, int]:
        """Hold ``keys`` and judge every whole piece held, or everything held
        when ``last``: the wins among the profiles whose verdicts are taken,
        and the number of ``keys``' width that were judged again."""
        voters, n = keys.shape[:2]
        first = 8 * keys.dtype.itemsize
        if keys.shape[2]:
            self.held[first].append(keys)
        wins = judged = 0
        for width in (16, 32):
            rows = max(1, _REJUDGE_KEYS * 32 // width // (voters * n))
            count = sum(held.shape[2] for held in self.held[width])
            cut = count if last else count - count % rows
            if cut == 0:
                continue
            held = np.concatenate(self.held[width], axis=2)
            self.held[width] = [held[:, :, cut:]]
            if width == first:
                judged = cut
            for lo in range(0, cut, rows):
                wide = _widen(held[:, :, lo:min(lo + rows, cut)], self.rng)
                winner, tied = _winner_mask(wide.transpose(2, 0, 1), k)
                if width == 16 and tied.any():
                    self.held[32].append(wide[:, :, tied])
                    winner &= ~tied
                wins += int(np.count_nonzero(winner))
        return wins, judged


def _count_winners_vectorized(
    pos: np.ndarray, k: int, tied: Optional[_TiedProfiles] = None, last: bool = True
) -> Tuple[int, int]:
    """Wins counted in this call, and the number of profiles it judged again
    on wider keys.

    The profiles in which :func:`_winner_mask` flags a tie on impartial 16-
    or 32-bit keys go to the chunk's ``tied``; their wins are counted when
    it takes their verdicts on wider keys, in this call or a later
    block's.
    ``last`` marks the chunk's last block, after which nothing stays held.
    Without ``tied`` the verdicts are taken as they are, which is exact for
    rank tensors, which never tie, and for 64-bit keys; narrow keys that tie
    raise ValueError.
    """
    winner, flags = _winner_mask(pos, k)
    if tied is None:
        if pos.dtype.itemsize < 8 and flags.any():
            raise ValueError("tied keys need the chunk's tied profiles to be judged again")
        return int(np.count_nonzero(winner)), 0
    picked = np.flatnonzero(flags)
    winner[picked] = False
    wins, judged = tied.judge(pos.transpose(1, 2, 0)[:, :, picked], k, last)
    return int(np.count_nonzero(winner)) + wins, judged


def _chunk_layout(samples: int, chunk: int) -> List[Tuple[int, int]]:
    return [(i, min(chunk, samples - lo)) for i, lo in enumerate(range(0, samples, chunk))]


def _check_counts(samples: int, k: int, workers: int) -> None:
    for name, value in (("samples", samples), ("k", k), ("workers", workers)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1")


def estimate_condorcet_probability(
    culture: Culture,
    k: int,
    samples: int,
    seed: Optional[int] = None,
    workers: int = 1,
) -> Estimate:
    """Estimate P(Condorcet winner exists) from i.i.d. sampled profiles.

    The indicator mean; deterministic for a fixed (seed, version)
    regardless of ``workers``.  It is unbiased for the cyclic and explicit
    cultures, up to the one rounding of q where each chunk draws its wins
    from q, the exact winner probability; for the impartial culture, whose
    sampler draws i.i.d. keys, |E[p_hat] - P| <= (2k - 2) C(n, 2) / 2^64
    (see :func:`_sample_positions`).
    """
    _check_counts(samples, k, workers)
    if seed is None:
        seed = secrets.randbits(63)

    # The distinct profiles are S^(2k-1) support tuples, or n^(2k-2) for the
    # cyclic culture with voter 0 on rotation 0.  When there are at most
    # min(samples, _BLOCK_KEYS) of them, each chunk draws its wins from q,
    # the exact winner probability, and the key path's tables go unbuilt.
    block_rows = _block_rows(culture, k)
    tables = q = None
    checks = 0
    if culture.kind != "impartial":
        cyclic = culture.kind == "cyclic"
        if culture.support_size ** (2 * k - 1 - cyclic) > min(samples, _BLOCK_KEYS):
            tables = culture.support_positions(), _cumulative_weights(culture)
        else:
            exact = condorcet_probability(culture, k)
            q, checks = float(exact.value), exact.winner_checks

    def generator(index: int) -> np.random.Generator:
        return np.random.default_rng(mix64(seed, culture.n, k, index, STREAM_VERSION))

    def run_chunk(task: Tuple[int, int], block: Optional[np.ndarray]) -> Tuple[int, int, int]:
        """A key-path chunk's wins, blocks and profiles judged again on wider
        keys (see :func:`_count_winners_vectorized`), its blocks drawn with
        ``tables`` (see :func:`_sample_positions`)."""
        index, size = task
        rng = generator(index)
        chunk_tables, tied = tables, None
        if block is not None:
            chunk_tables, tied = (_identity_voter(block), None), _TiedProfiles(rng)
        judged = [
            _count_winners_vectorized(
                _sample_positions(culture, k, min(block_rows, size - lo), rng, chunk_tables),
                k, tied, lo + block_rows >= size,
            )
            for lo in range(0, size, block_rows)
        ]
        return sum(wins for wins, _ in judged), len(judged), sum(again for _, again in judged)

    def run_share(share: List[Tuple[int, int]]) -> List[Tuple[int, int, int]]:
        """The counts of each chunk of one worker's share, run in turn.  An
        impartial share reuses one block buffer of its own for all its
        chunks, as shares run at once on several threads."""
        block = None
        if culture.kind == "impartial":
            block = _impartial_block(culture.n, k, min(block_rows, max(size for _, size in share)))
        return [run_chunk(task, block) for task in share]

    tasks = _chunk_layout(samples, CHUNK_SAMPLES)
    if q is not None:
        # A chunk's wins are a sum of i.i.d. Bernoulli(q) verdicts, drawn as
        # one Binomial(size, q) variate, one block per chunk and inline:
        # a thread pool for microsecond draws only costs time.
        counts = [(int(generator(index).binomial(size, q)), 1, 0) for index, size in tasks]
    else:
        shares = [tasks[w::workers] for w in range(min(workers, len(tasks)))]
        if len(shares) == 1:
            counts = run_share(shares[0])
        else:
            with ThreadPoolExecutor(max_workers=len(shares)) as pool:
                counts = [c for done in pool.map(run_share, shares) for c in done]
    wins, blocks, rejudged = (sum(column) for column in zip(*counts))

    p_hat = wins / samples
    std_error = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    ci_low, ci_high = _wilson_interval(p_hat, samples)
    return Estimate(p_hat, samples, std_error, ci_low, ci_high, seed, checks, blocks, rejudged)


def _wilson_interval(p_hat: float, samples: int) -> Tuple[float, float]:
    """Wilson 95% score interval for a proportion p_hat out of N = ``samples``,
    with z = 1.96:

        (p_hat + z^2/2N -/+ z sqrt(p_hat (1 - p_hat)/N + z^2/4N^2)) / (1 + z^2/N).

    The exact bounds lie in [0, 1] and contain p_hat (they meet it only at
    p_hat = 0 or 1); the float bounds are held to that, so rounding cannot
    push them past either.
    """
    z2 = _Z95 * _Z95 / samples
    center = p_hat + 0.5 * z2
    spread = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / samples + 0.25 * z2 / samples)
    scale = 1.0 + z2
    low = min(p_hat, max(0.0, (center - spread) / scale))
    high = max(p_hat, min(1.0, (center + spread) / scale))
    return low, high


def sweep(
    family: str,
    k: int,
    n_values: Sequence[int],
    samples: int,
    seed: Optional[int] = None,
    workers: int = 1,
) -> List[Tuple[int, Estimate]]:
    """One estimate per n for a named culture family.

    Each cell runs with its own seed mix64(master, n, k), recorded in the
    cell's Estimate, so any cell can be reproduced in isolation.
    """
    if family not in NAMED_KINDS:
        raise ValueError(f"unknown culture family {family!r}")
    _check_counts(samples, k, workers)
    if seed is None:
        seed = secrets.randbits(63)
    results = []
    for n in n_values:
        cell_seed = mix64(seed, n, k)
        estimate = estimate_condorcet_probability(
            Culture(n, family), k, samples, seed=cell_seed, workers=workers
        )
        results.append((int(n), estimate))
    return results
