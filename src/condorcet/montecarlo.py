"""Monte Carlo estimation of Condorcet winner probability.

The sample space is split into fixed-size chunks; chunk i is generated by a
fresh PCG64 generator seeded with mix64(seed, n, k, i, STREAM_VERSION).
A chunk is sampled and judged one block of profiles at a time (see
:func:`_block_rows`), so its working set stays in cache and no chunk-sized
tensor is ever built.  :func:`_sample_positions` is the package's one
profile sampler: it draws a block as a tensor of ranking keys, never as
Ranking objects, laid out alternative-major as a C-order (voters, n,
profiles) array and handed over as its (profiles, voters, n) view.  Workers
only decide which thread evaluates a chunk, and the merge is an integer sum
of winner counts, so p_hat depends on (seed, version) alone and is
identical for any worker count.

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
compares at most 2048 pairs of drawn keys, and 32 bits, two per word, past
that (see :func:`_key_dtype`).  Each chunk lays voter 0 out once in one
block buffer and copies every block's drawn keys into it.  The kernel flags
each profile in which a comparison it made was a tie, or which it calls a
winner while a rival holds a key equal to its champion's; an unflagged
profile's verdict is the one it would give on the 64-bit keys, whatever
their low bits.  The flagged profiles, about 3% at n = 800, k = 2 on 16-bit
keys and 0.7% at n = 200, k = 2, are held by the chunk (see
:class:`_TiedProfiles`), given their low bits from its generator and judged
again on the 64-bit keys, so p_hat is the 64-bit estimator's and its bias
bound, (2k - 2) C(n, 2) / 2^64, does not depend on the first pass's key
width.

A culture with finite support of S rankings (cyclic or explicit) gives a
profile of m = 2k - 1 voters as one of S^m tuples of support indices.  When
S^m <= min(samples, ``_BLOCK_KEYS``), the kernel judges every tuple once,
before the chunks run, into a winner table of at most 256 KiB, never judging
more profiles than the run would; each block then draws its support indices
with :func:`_sample_support` and counts the table entries they index.  The
draws are the calls :func:`_sample_positions` makes on the same blocks, so
p_hat is the one the kernel would give on the block's rank tensors.
"""

from __future__ import annotations

import math
import secrets
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import NAMED_KINDS, Culture
from .cultures import STREAM_VERSION, mix64

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
# 192 KiB.  A call costs about 0.2 ms however few profiles it judges, so
# tied profiles gather over blocks first.  At n = 800, k = 2, in process on
# 2 vCPUs, pieces of 128 KiB took 11% longer than pieces of 256 KiB, and
# 256 KiB pieces added 0.3 MB to a forked child's peak RSS, where 192 KiB
# pieces kept it at the 32-bit path's.
_REJUDGE_KEYS = 3 << 13
# Impartial keys are drawn as uint16 while a profile's knockout compares at
# most this many pairs of drawn keys, (2k - 2)(n - 1), and as uint32 past
# it.  In process on 2 vCPUs, uint16 keys took 12-21% less time than uint32
# at 2048 pairs (n = 1025, 513 and 257 at k = 2, 3 and 5; 3.4-4% of
# profiles judged again), 4% less at 2560 (n = 1281, k = 2), and at 3072
# from 0-12% more (k = 2, 5.6% judged again) to 20% less (k = 5).
_NARROW_COMPARISONS = 1 << 11

_Z95 = 1.96


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with its binomial error and 95% interval.

    ``std_error`` is the plug-in standard error sqrt(p_hat (1 - p_hat) / N),
    which is 0 when p_hat is 0 or 1.  The interval is therefore the Wilson
    score interval, not p_hat +/- 1.96 std_error: it keeps a width of order
    1/N at p_hat = 0 or 1 and lies inside [0, 1] by construction.
    ``winner_table`` is the number of entries of the winner table the
    profiles were judged by, 0 when the knockout kernel judged each one.
    ``blocks`` counts the blocks the chunks were sampled in, and
    ``rejudged_profiles`` the profiles in whose 16- or 32-bit keys the
    kernel met a tie, so it judged them again on 64-bit keys.
    """

    p_hat: float
    samples: int
    std_error: float
    ci_low: float
    ci_high: float
    seed: int
    winner_table: int
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
    (cyclic: uniform on the n rotations) by inverting ``cum``, which
    :func:`_cumulative_weights` builds if it is not given."""
    voters = 2 * k - 1
    if culture.kind == "cyclic":
        return rng.integers(0, culture.n, size=(size, voters), dtype=np.int32)
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
    if (2 * k - 2) * (n - 1) <= _NARROW_COMPARISONS and n <= 1 << 16:
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


def _impartial_block(n: int, k: int, rows: int) -> np.ndarray:
    """A C-order (2k - 1, n, rows) block of :func:`_key_dtype` keys whose
    voter-0 slice holds key a for alternative a in every profile, voter 0's
    identity ranking; the drawn voters' slices are left unset."""
    block = np.empty((2 * k - 1, n, rows), dtype=_key_dtype(n, k))
    block[0] = np.arange(n, dtype=block.dtype)[:, None]
    return block


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
    :func:`_sample_support`; their ``tables`` are that table and the
    :func:`_cumulative_weights`, which an estimate builds once for all its
    blocks.

    The impartial culture's ``tables`` is (block, None), a chunk's
    :func:`_impartial_block` buffer of as many profiles as its blocks hold.
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
            # the full-size layout, so no block of the chunk may follow it.
            block = block.reshape(-1)[:voters * n * size].reshape(voters, n, size)
            block[0] = np.arange(n, dtype=block.dtype)[:, None]
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


class _TiedProfiles:
    """The profiles of one impartial chunk whose 16- or 32-bit keys tied,
    held as (voters, n, profiles) keys until they are judged on 64-bit keys.

    A held profile's drawn voters' keys are the high bits of uint64 keys.
    Once ``_REJUDGE_KEYS`` keys' worth of profiles is held, or the chunk's
    last block has been judged, the held profiles get their low 48 or 32
    bits from the chunk's generator in the order they were held, one piece
    of that size at a time, laid out alternative-major as (2k - 2, n,
    profiles).  Voter 0's keys, the distinct identity keys of the sampler,
    are only shifted.  The kernel then judges each piece on the 64-bit keys,
    whatever those tie, so the estimator is the 64-bit keys' one.  Which
    profiles tie follows from the chunk's own draws, so the order of the
    generator calls, and p_hat, depend on (seed, version) alone.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.held: List[np.ndarray] = []

    def judge(self, keys: np.ndarray, k: int, last: bool) -> Tuple[int, int]:
        """Hold ``keys`` and judge every whole piece held, or everything held
        when ``last``: the wins among the profiles judged, and their number."""
        if keys.shape[2]:
            self.held.append(keys)
        voters, n = keys.shape[:2]
        rows = max(1, _REJUDGE_KEYS // (voters * n))
        count = sum(held.shape[2] for held in self.held)
        cut = count if last else count - count % rows
        if cut == 0:
            return 0, 0
        held = np.concatenate(self.held, axis=2)
        self.held = [held[:, :, cut:]]
        width = 8 * held.dtype.itemsize
        wins = 0
        for lo in range(0, cut, rows):
            wide = np.left_shift(held[:, :, lo:min(lo + rows, cut)], 64 - width, dtype=np.uint64)
            low = _random_keys((wide.shape[2], voters - 1, n), self.rng, np.uint64)
            low >>= np.uint64(width)
            wide[1:] |= low.transpose(1, 2, 0)
            wins += int(np.count_nonzero(_winner_mask(wide.transpose(2, 0, 1), k)[0]))
        return wins, cut


def _count_winners_vectorized(
    pos: np.ndarray, k: int, tied: Optional[_TiedProfiles] = None, last: bool = True
) -> Tuple[int, int]:
    """Wins counted in this call, and the number of profiles it judged again
    on 64-bit keys.

    The profiles in which :func:`_winner_mask` flags a tie on impartial 16-
    or 32-bit keys go to the chunk's ``tied``; their wins are counted when
    it judges them on 64-bit keys, in this call or a later block's.
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


def _digit_weights(culture: Culture, k: int) -> np.ndarray:
    """S^(m-1-v) for voter v of m = 2k - 1: a support tuple (i_0, ..., i_m-1)
    has flat index sum_v i_v S^(m-1-v) in the winner table."""
    size = culture.support_size
    return size ** np.arange(2 * k - 2, -1, -1, dtype=np.int64)


def _winner_table(ranks: np.ndarray, weights: np.ndarray, k: int, block_rows: int) -> np.ndarray:
    """Winner indicator of every support tuple, by flat index: the knockout
    kernel judges ``ranks[tuple]``, ``block_rows`` tuples at a time, where
    ``ranks`` is the culture's support position table and ``weights`` its
    :func:`_digit_weights`.  The digits are formed arithmetically, as
    np.indices allows at most 64 dimensions and a profile may have more
    voters."""
    size = len(ranks)
    flat = np.arange(size ** (2 * k - 1))
    return np.concatenate([
        _winner_mask(_gather_ranks(ranks, flat[lo:lo + block_rows, None] // weights % size), k)[0]
        for lo in range(0, len(flat), block_rows)
    ])


def _chunk_layout(samples: int, chunk: int) -> List[Tuple[int, int]]:
    return [(i, min(chunk, samples - lo)) for i, lo in enumerate(range(0, samples, chunk))]


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
    cultures; for the impartial culture, whose sampler draws i.i.d. keys,
    |E[p_hat] - P| <= (2k - 2) C(n, 2) / 2^64 (see :func:`_sample_positions`).
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if seed is None:
        seed = secrets.randbits(63)

    voters = 2 * k - 1
    block_rows = _block_rows(culture, k)
    tables = table = None
    if culture.kind != "impartial":
        tables = culture.support_positions(), _cumulative_weights(culture)
        if culture.support_size ** voters <= min(samples, _BLOCK_KEYS):
            weights = _digit_weights(culture, k)
            table = _winner_table(tables[0], weights, k, block_rows)

    def run_block(
        size: int,
        rng: np.random.Generator,
        tables: tuple,
        tied: Optional[_TiedProfiles],
        last: bool,
    ) -> Tuple[int, int]:
        """Wins among ``size`` profiles drawn with ``tables`` (see
        :func:`_sample_positions`), and the number of profiles judged again
        on 64-bit keys (see :func:`_count_winners_vectorized`)."""
        if table is not None:
            idx = _sample_support(culture, k, size, rng, tables[1])
            return int(np.count_nonzero(table[idx @ weights])), 0
        keys = _sample_positions(culture, k, size, rng, tables)
        return _count_winners_vectorized(keys, k, tied, last)

    def run_chunk(task: Tuple[int, int]) -> Tuple[int, int, int]:
        index, size = task
        rng = np.random.default_rng(mix64(seed, culture.n, k, index, STREAM_VERSION))
        # An impartial chunk reuses a block buffer of its own, as chunks may
        # run at once on several threads.
        chunk_tables, tied = tables, None
        if tables is None:
            chunk_tables = _impartial_block(culture.n, k, min(block_rows, size)), None
            tied = _TiedProfiles(rng)
        judged = [
            run_block(min(block_rows, size - lo), rng, chunk_tables, tied, lo + block_rows >= size)
            for lo in range(0, size, block_rows)
        ]
        return sum(wins for wins, _ in judged), len(judged), sum(again for _, again in judged)

    tasks = _chunk_layout(samples, CHUNK_SAMPLES)
    if workers == 1 or len(tasks) == 1:
        counts = [run_chunk(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run_chunk, tasks))
    wins, blocks, rejudged = (sum(column) for column in zip(*counts))

    p_hat = wins / samples
    std_error = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    ci_low, ci_high = _wilson_interval(p_hat, samples)
    winner_table = 0 if table is None else len(table)
    return Estimate(
        p_hat, samples, std_error, ci_low, ci_high, seed, winner_table, blocks, rejudged
    )


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
    if workers < 1:
        raise ValueError("workers must be at least 1")
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
