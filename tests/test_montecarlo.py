import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from condorcet import montecarlo
from condorcet.cultures import STREAM_VERSION, cyclic_culture, impartial_culture, mix64
from condorcet.engine import find_condorcet_winner
from condorcet.exact import condorcet_probability, min_condorcet_probability
from condorcet.model import Culture, Profile, Ranking, culture_from_entries
from condorcet.montecarlo import (
    CHUNK_SAMPLES,
    _BLOCK_KEYS,
    _NARROW_BLOCK_KEYS,
    _NARROW_COMPARISONS,
    _TiedProfiles,
    _block_rows,
    _chunk_layout,
    _count_winners_vectorized,
    _gather_ranks,
    _key_dtype,
    _sample_positions,
    _sample_support,
    _winner_mask,
    estimate_condorcet_probability,
    sweep,
)


def test_seed_fixes_the_estimate():
    culture = cyclic_culture(6)
    a = estimate_condorcet_probability(culture, 2, 30_000, seed=5)
    b = estimate_condorcet_probability(culture, 2, 30_000, seed=5)
    assert a == b
    c = estimate_condorcet_probability(culture, 2, 30_000, seed=6)
    assert c.p_hat != a.p_hat  # astronomically unlikely to collide


def test_workers_do_not_change_p_hat():
    culture = impartial_culture(5)
    alone = estimate_condorcet_probability(culture, 2, 50_000, seed=11, workers=1)
    pooled = estimate_condorcet_probability(culture, 2, 50_000, seed=11, workers=8)
    assert alone.p_hat == pooled.p_hat
    assert alone == pooled


def test_generated_seed_is_recorded_and_reproduces():
    culture = cyclic_culture(5)
    first = estimate_condorcet_probability(culture, 2, 10_000)
    again = estimate_condorcet_probability(culture, 2, 10_000, seed=first.seed)
    assert again.p_hat == first.p_hat


def test_point_mass_culture_always_wins():
    # the plug-in standard error is 0 at p_hat = 1, but the Wilson interval
    # keeps its lower end at N / (N + z^2) below 1, even from 10 samples
    culture = culture_from_entries(4, [((3, 0, 1, 2), "1")])
    for samples in (10, 5_000):
        est = estimate_condorcet_probability(culture, 2, samples, seed=1)
        assert est.p_hat == 1.0
        assert est.std_error == 0.0
        assert est.ci_high == 1.0
        assert est.ci_low == pytest.approx(samples / (samples + 1.96 ** 2), rel=1e-12)
    assert estimate_condorcet_probability(culture, 2, 10, seed=1).ci_low < 0.73


def oracle_winners(pos, k):
    """Per-profile winner indicators from the all-pairs oracle."""
    return [
        find_condorcet_winner(
            Profile(tuple(Ranking(tuple(int(a) for a in np.argsort(row))) for row in block), k)
        ).exists
        for block in pos
    ]


def widen(pos, rng, bits=64, keep=None):
    """The ``bits``-bit keys that extend a tensor of 16- or 32-bit impartial
    keys in the low bits, made as the re-judge ladder makes them, one rung
    at a time, each doubling the width: voter 0's keys shifted, and the
    drawn voters' keys given as many low bits as they had, drawn from
    ``rng`` as keys of their width, 64 / width per generator word, laid out
    alternative-major as (2k - 2, n, profiles).  ``keep`` masks the low
    bits drawn as 16-bit keys, as a sampler patched the same way would."""
    rows, voters, n = pos.shape
    keys = pos.transpose(1, 2, 0)
    while 8 * keys.dtype.itemsize < bits:
        width, count = 8 * keys.dtype.itemsize, (voters - 1) * n * rows
        words = rng.bit_generator.random_raw(-(-count * width // 64)).astype("<u8")
        low = words.view(f"<u{width // 8}")[:count].reshape(voters - 1, n, rows)
        if keep is not None and width == 16:
            low = low & keep
        wider = np.dtype(f"u{width // 4}")
        keys = keys.astype(wider) << wider.type(width)
        keys[1:] |= low
    return keys.transpose(2, 0, 1)


def rejudge_piece(n, k, bits):
    """Tied profiles widened to ``bits``-bit keys per draw of low bits:
    192 KiB of them."""
    return max(1, montecarlo._REJUDGE_KEYS * 64 // bits // ((2 * k - 1) * n))


class Ladder:
    """The re-judge of one impartial chunk, replayed with the all-pairs
    oracle.  The profiles the kernel flags are held by key width and
    widened one rung at a time (see :func:`widen`), in
    :func:`rejudge_piece` pieces, 16-bit pieces before 32-bit ones, each
    piece's low bits drawn from the chunk's generator ``rng`` in the order
    its profiles were held.  A profile widened to 32 bits that the kernel
    flags again is held for the 64-bit rung; every other one is judged by
    the oracle on its keys extended to 64 bits by low bits from ``spare``,
    on which its verdict does not depend.  It counts the wins, the profiles
    held from a first pass (``rejudged``) and the profiles each rung
    widened (``rungs``, by the width they reach)."""

    def __init__(self, rng, spare, n, k, keep=None):
        self.rng, self.spare, self.n, self.k, self.keep = rng, spare, n, k, keep
        self.held = {16: [], 32: []}
        self.wins = self.rejudged = 0
        self.rungs = {32: 0, 64: 0}

    def hold(self, profiles):
        self.held[8 * profiles.dtype.itemsize].extend(profiles)
        self.rejudged += len(profiles)

    def flush(self, last):
        for width in (16, 32):
            piece, held = rejudge_piece(self.n, self.k, 2 * width), self.held[width]
            while len(held) >= piece or (held and last):
                group, held = np.stack(held[:piece]), held[piece:]
                wide = widen(group, self.rng, 2 * width, self.keep)
                self.rungs[2 * width] += len(group)
                if width == 16:
                    tied = _winner_mask(wide, self.k)[1]
                    self.wins += sum(oracle_winners(widen(wide[~tied], self.spare), self.k))
                    self.held[32].extend(wide[tied])
                else:
                    self.wins += sum(oracle_winners(wide, self.k))
            self.held[width] = held


def oracle_on_64_bit_keys(pos, k, rng):
    """The oracle's win count on the 64-bit keys that a chunk with generator
    ``rng`` gives the impartial key tensor ``pos`` when it is the chunk's
    only block: the profiles the kernel flags climb the ladder (see
    :class:`Ladder`); every other profile takes its low bits from a
    generator of its own, as its verdict does not depend on them."""
    rows, voters, n = pos.shape
    spare = np.random.default_rng(mix64(rows, n, 71))
    tied = _winner_mask(pos, k)[1]
    ladder = Ladder(rng, spare, n, k)
    ladder.hold(pos[tied])
    ladder.flush(last=True)
    return sum(oracle_winners(widen(pos[~tied], spare), k)) + ladder.wins


def test_naive_and_vectorized_kernels_agree():
    """The chunk kernel's winner count equals the all-pairs oracle's count
    on the same sampled position tensor: on the ranks of the cyclic and
    explicit cultures, and on the 64-bit keys that extend the impartial
    culture's keys, the profiles the kernel flags as tied judged again on
    the same low bits."""
    explicit = culture_from_entries(
        4, [((0, 1, 2, 3), "0.4"), ((1, 2, 3, 0), "0.35"), ((3, 2, 0, 1), "0.25")]
    )
    for culture, k in ((impartial_culture(3), 2), (cyclic_culture(5), 2), (explicit, 3)):
        rng = np.random.default_rng(mix64(3, culture.n, k))
        pos = _sample_positions(culture, k, 2_048, rng)
        if culture.kind == "impartial":
            slow = oracle_on_64_bit_keys(pos, k, np.random.default_rng(8))
            tied = _TiedProfiles(np.random.default_rng(8))
            fast = _count_winners_vectorized(pos, k, tied)
            assert fast == (slow, np.count_nonzero(_winner_mask(pos, k)[1]))
        else:
            slow = sum(oracle_winners(pos, k))
            assert _count_winners_vectorized(pos, k) == (slow, 0)
        assert 0 < slow < len(pos)  # both outcomes occur, so the count can tell


EXPLICIT_5 = culture_from_entries(
    5,
    [((0, 1, 2, 3, 4), "1/3"), ((1, 2, 3, 4, 0), "1/4"), ((2, 3, 4, 0, 1), "1/4"),
     ((4, 3, 2, 1, 0), "1/6")],
)


def replay_impartial(n, k, samples, seed, keep=None, keep_low=None):
    """Win count and number of profiles judged again of an impartial run,
    replayed with the all-pairs oracle, the blocks it draws, and the
    profiles each rung of the re-judge ladder widened.

    The replay makes the production path's generator calls in its order,
    chunk by chunk: each block's drawn voters' keys, (2k - 2, n, rows) of
    :func:`_key_dtype`, 8 / itemsize per generator word, and after each
    block the low bits of every whole piece of tied profiles, or of all
    of them after the chunk's last block (see :class:`Ladder`).  A tied
    profile is one the kernel flags; each profile whose keys never tie is
    judged by the oracle on its keys extended by low bits from another
    generator, on which its verdict does not depend.  ``keep`` masks the
    drawn voters' keys and ``keep_low`` the low bits drawn as 16-bit keys,
    as a sampler patched the same way would."""
    voters = 2 * k - 1
    dtype = np.dtype(_key_dtype(n, k))
    keys = montecarlo._NARROW_BLOCK_KEYS if dtype == np.uint16 else montecarlo._BLOCK_KEYS
    rows = max(1, keys // (voters * n))
    wins = rejudged = 0
    rungs = {32: 0, 64: 0}
    blocks = []
    for index, size in _chunk_layout(samples, montecarlo.CHUNK_SAMPLES):
        rng = np.random.default_rng(mix64(seed, n, k, index, STREAM_VERSION))
        spare = np.random.default_rng(mix64(seed, index, 71))
        ladder = Ladder(rng, spare, n, k, keep_low)
        for lo in range(0, size, rows):
            shape = (voters - 1, n, min(rows, size - lo))
            words = rng.bit_generator.random_raw(-(-math.prod(shape) * dtype.itemsize // 8))
            drawn = words.astype("<u8").view(dtype.newbyteorder("<"))[:math.prod(shape)]
            drawn = drawn.reshape(shape).astype(dtype)
            if keep is not None:
                drawn &= keep
            identity = np.broadcast_to(np.arange(n, dtype=dtype)[:, None], (1, n, shape[2]))
            block = np.concatenate([identity, drawn]).transpose(2, 0, 1)
            blocks.append(block)
            tied = _winner_mask(block, k)[1]
            wins += sum(oracle_winners(widen(block[~tied], spare), k))
            ladder.hold(block[tied])
            ladder.flush(last=lo + rows >= size)
        wins += ladder.wins
        rejudged += ladder.rejudged
        for bits in rungs:
            rungs[bits] += ladder.rungs[bits]
    return wins, rejudged, blocks, rungs


def record_blocks(monkeypatch):
    """The list of every block the production path draws from here on.  The
    impartial sampler hands each block over in a buffer that the chunk's
    next block overwrites, so each is kept as a copy."""
    drawn = []

    def record(*args):
        block = _sample_positions(*args)
        drawn.append(block.copy())
        return block

    monkeypatch.setattr(montecarlo, "_sample_positions", record)
    return drawn


# Rows of one sampled block at impartial n = 40, k = 2, on uint16 keys.
ROWS_N40_K2 = _NARROW_BLOCK_KEYS // (3 * 40)


@pytest.mark.parametrize(
    "culture, k, profiles",
    [
        (impartial_culture(1), 2, 50),
        (impartial_culture(2), 2, 200),
        (impartial_culture(7), 2, 600),
        (impartial_culture(13), 2, 600),
        (impartial_culture(6), 1, 200),
        (impartial_culture(4), 5, 400),
        (cyclic_culture(7), 3, 400),
        (EXPLICIT_5, 3, 400),
        (impartial_culture(40), 2, ROWS_N40_K2 + 1),
    ],
    ids=["n1", "n2", "n7_byes", "n13_byes", "k1", "k5", "cyclic", "explicit",
         "partial_block"],
)
def test_kernel_matches_oracle_profile_by_profile(culture, k, profiles, monkeypatch):
    """One chunk through the production path: it draws blocks of
    :func:`_block_rows` profiles one after another from the chunk's
    generator, and its win count equals the oracle's on those same draws,
    which for the impartial culture is the replay's (see
    :func:`replay_impartial`), drawn blocks included.  Profile by profile
    and as one tensor, the kernel flags the same profiles as tied and gives
    the oracle's verdict on every other one (on the impartial keys extended
    by any low bits); rank tensors never tie.  Odd widths give byes in
    several rounds (7 -> 4 -> 2 -> 1 and 13 -> 7 -> 4 -> 2 -> 1); a chunk of
    one block plus one profile ends on a partial block."""
    drawn = record_blocks(monkeypatch)
    assert profiles <= CHUNK_SAMPLES  # one chunk, so one generator draws every block
    est = estimate_condorcet_probability(culture, k, profiles, seed=17)
    rows = _block_rows(culture, k)
    assert [len(b) for b in drawn] == [min(rows, profiles - lo) for lo in range(0, profiles, rows)]
    pos = np.concatenate(drawn)
    impartial = culture.kind == "impartial"
    keys = widen(pos, np.random.default_rng(5)) if impartial else pos
    expected = np.array(oracle_winners(keys, k))
    mask, tied = _winner_mask(pos, k)
    alone = [_winner_mask(pos[i:i + 1], k) for i in range(len(pos))]
    assert [(bool(m[0]), bool(t[0])) for m, t in alone] == list(zip(mask.tolist(), tied.tolist()))
    assert mask[~tied].tolist() == expected[~tied].tolist()
    if impartial:
        wins, rejudged, blocks, _ = replay_impartial(culture.n, k, profiles, 17)
        assert len(blocks) == len(drawn) and all((b == d).all() for b, d in zip(blocks, drawn))
        assert est.p_hat == wins / profiles
        assert est.rejudged_profiles == rejudged == np.count_nonzero(tied)
    else:
        assert not tied.any() and _count_winners_vectorized(pos, k) == (sum(expected), 0)
        assert est.p_hat == sum(expected) / profiles and est.rejudged_profiles == 0
    assert est.blocks == len(drawn)
    if culture.n >= 3 and k >= 2:
        assert 0 < sum(expected) < len(pos)  # both outcomes occur


def winner_table(culture, k, block_rows):
    """The support tuples of a finite-support culture's distinct profiles,
    in ``itertools.product`` order, and the knockout kernel's verdict on
    each, judged ``block_rows`` tuples at a time on the ranks the sampler
    gathers (see :func:`montecarlo._gather_ranks`).  Voter v of tuple t
    holds support ranking t[v]: every voter ranges over the support of an
    explicit culture, and voters 1..2k-2 over the n rotations of the cyclic
    one, with voter 0 on rotation 0."""
    ranks = culture.support_positions()
    cyclic = culture.kind == "cyclic"
    drawn = itertools.product(range(len(ranks)), repeat=2 * k - 1 - cyclic)
    tuples = np.array([(0,) * cyclic + t for t in drawn])
    verdicts = [
        _winner_mask(_gather_ranks(ranks, tuples[lo:lo + block_rows]), k)[0]
        for lo in range(0, len(tuples), block_rows)
    ]
    return tuples, np.concatenate(verdicts)


@pytest.mark.parametrize(
    "culture, k",
    [(cyclic_culture(5), 2), (cyclic_culture(4), 3), (EXPLICIT_5, 2), (EXPLICIT_5, 3)],
    ids=["cyclic5_k2", "cyclic4_k3", "explicit_k2", "explicit_k3"],
)
@pytest.mark.parametrize("block_rows", [1, 7, 24, 4096])
def test_winner_table_matches_oracle(culture, k, block_rows):
    """On every distinct profile of a finite-support culture (see
    :func:`winner_table`) the kernel gives the oracle's verdict, whether the
    profiles are judged in many blocks or in one."""
    support = [ranking for ranking, _ in culture.expand().entries]
    tuples, table = winner_table(culture, k, block_rows)
    drawn = 2 * k - 2 if culture.kind == "cyclic" else 2 * k - 1
    assert table.dtype == bool and len(table) == len(support) ** drawn
    expected = [
        find_condorcet_winner(Profile(tuple(support[i] for i in t), k)).exists for t in tuples
    ]
    assert table.tolist() == expected
    assert 0 < sum(expected) < len(tuples)  # both outcomes occur


@pytest.mark.parametrize("n, k", [(10, 2), (7, 3), (5, 4), (30, 2)])
def test_cyclic_table_mean_is_the_closed_form_minimum(n, k):
    """Fixing voter 0 on rotation 0 keeps the winner probability, as the
    cyclic key path assumes: the kernel's wins over the n^(2k-2) tuples of
    voters 1..2k-2 are n P(Bin(2k-1, 1/n) >= k), exactly."""
    culture = cyclic_culture(n)
    _, table = winner_table(culture, k, _block_rows(culture, k))
    assert len(table) == n ** (2 * k - 2)
    assert Fraction(int(np.count_nonzero(table)), len(table)) == min_condorcet_probability(n, k)


def replay_draws(culture, k, samples, seed, table):
    """Win count of the run's own draws and the number of blocks drawn.  The
    chunk generators are those of :func:`estimate_condorcet_probability`.
    On the ``table`` path each chunk draws its win count as one
    Binomial(size, q) variate, q the culture's exact winner probability
    rounded once, and counts one block.  Otherwise it draws blocks of
    _BLOCK_KEYS // ((2k - 1) n) profiles, the cyclic voters 1..2k-2
    uniform on the rotations with voter 0 on rotation 0, the explicit
    voters with their weights, each profile judged by the knockout kernel
    on its rank tensor."""
    n, voters = culture.n, 2 * k - 1
    ranks = np.array([ranking.positions for ranking, _ in culture.expand().entries])
    rows = max(1, _BLOCK_KEYS // (voters * n))
    q = float(condorcet_probability(culture, k).value) if table else None
    wins = blocks = 0
    for index, size in _chunk_layout(samples, CHUNK_SAMPLES):
        rng = np.random.default_rng(mix64(seed, n, k, index, STREAM_VERSION))
        if table:
            wins += int(rng.binomial(size, q))
            blocks += 1
            continue
        for lo in range(0, size, rows):
            count = min(rows, size - lo)
            if culture.kind != "cyclic":
                idx = _sample_support(culture, k, count, rng)
            else:
                drawn = rng.integers(0, n, (count, voters - 1), dtype=np.int32)
                idx = np.concatenate([np.zeros((count, 1), dtype=drawn.dtype), drawn], axis=1)
            wins += _count_winners_vectorized(ranks[idx], k)[0]
            blocks += 1
    return wins, blocks


# Three rankings at weight 1/3 each.  THIRDS_3 always has a Condorcet
# winner at k = 2, yet the float dot product of its profiles' weights with
# their verdicts gives 0.9999999999999993; THIRDS_5's exact 7/9 rounds to
# 0.7777777777777778, and that dot product gives 0.7777777777777775.
THIRDS_3 = culture_from_entries(3, [((0, 1, 2), "1/3"), ((1, 2, 0), "1/3"), ((2, 1, 0), "1/3")])
THIRDS_5 = culture_from_entries(
    5, [((0, 1, 2, 3, 4), "1/3"), ((1, 2, 3, 4, 0), "1/3"), ((2, 0, 4, 1, 3), "1/3")]
)


@pytest.mark.parametrize(
    "culture, k, samples, workers",
    [
        (cyclic_culture(10), 2, 1 << 15, 1),
        (cyclic_culture(10), 2, 1 << 15, 2),
        (EXPLICIT_5, 2, 5_000, 1),
        (THIRDS_5, 2, 5_000, 1),
    ],
    ids=["cyclic10_w1", "cyclic10_w2", "explicit_k2", "thirds5_k2"],
)
def test_table_path_equals_key_path(culture, k, samples, workers):
    """A culture with at most min(samples, _BLOCK_KEYS) distinct profiles
    draws its wins from its exact winner probability q.  A key-path chunk's
    wins are a sum of i.i.d. Bernoulli(q) verdicts, so such a run draws
    them as one Binomial(size, q) variate per chunk, from the chunk's own
    generator: the replay (see :func:`replay_draws`) gives p_hat bit for
    bit, whatever the workers, and each chunk is one block.  The estimate
    reports the multisets the exact walk judged."""
    est = estimate_condorcet_probability(culture, k, samples, seed=23, workers=workers)
    assert est.winner_checks == condorcet_probability(culture, k).winner_checks > 0
    wins, blocks = replay_draws(culture, k, samples, 23, table=True)
    assert est.p_hat == wins / samples and est.blocks == blocks
    assert est.blocks == len(_chunk_layout(samples, CHUNK_SAMPLES))


def test_table_share_is_the_exact_winner_probability(monkeypatch):
    """Every chunk draws its wins with q, the exact winner probability
    rounded once, seen by recording the p of each binomial draw: 1.0 for
    THIRDS_3 and a point mass, 7/9 rounded for THIRDS_5, the closed-form
    minimum 0.28 for cyclic (10, 2).  So THIRDS_3 gives p_hat = 1 at every
    seed."""
    real, drawn = np.random.default_rng, []

    class Recording:
        def __init__(self, seed):
            self.rng = real(seed)

        def binomial(self, size, q):
            drawn.append(q)
            return self.rng.binomial(size, q)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    point_mass = culture_from_entries(4, [((3, 0, 1, 2), "1")])
    cases = [(THIRDS_3, 2, 1.0), (point_mass, 2, 1.0), (THIRDS_5, 2, 0.7777777777777778),
             (cyclic_culture(10), 2, 0.28), (EXPLICIT_5, 3, 907 / 1152)]
    for culture, k, q in cases:
        drawn.clear()
        estimate_condorcet_probability(culture, k, 3 * CHUNK_SAMPLES, seed=37)
        assert drawn == [q] * 3 and q == float(condorcet_probability(culture, k).value)
    for seed in range(20):
        assert estimate_condorcet_probability(THIRDS_3, 2, 2 * CHUNK_SAMPLES, seed=seed).p_hat == 1.0


def test_table_needs_no_more_entries_than_samples(monkeypatch):
    """Cyclic (5, 2) has 25 tuples of voters 1 and 2: 25 samples draw their
    wins from the exact q, 24 stay on the key path and sample rank tensors.
    Both give the p_hat of their own draws, replayed: 24 rank tensors judged
    by the kernel, and one Binomial(25, q) variate (see
    :func:`replay_draws`)."""
    drawn = record_blocks(monkeypatch)
    culture = cyclic_culture(5)
    on_keys = estimate_condorcet_probability(culture, 2, 24, seed=4)
    assert on_keys.winner_checks == 0
    assert sum(len(block) for block in drawn) == 24
    assert (drawn[0][:, 0] == np.arange(5)).all()  # voter 0 on rotation 0
    assert on_keys.p_hat == replay_draws(culture, 2, 24, 4, table=False)[0] / 24
    drawn.clear()
    by_table = estimate_condorcet_probability(culture, 2, 25, seed=4)
    assert by_table.winner_checks == condorcet_probability(culture, 2).winner_checks == 5
    assert drawn == []
    assert by_table.p_hat == replay_draws(culture, 2, 25, 4, table=True)[0] / 25


def test_one_voter_needs_no_walk():
    """At k = 1 every cyclic culture has one distinct profile, and the one
    voter's first choice always wins, so each chunk draws from q = 1 with
    no exact walk, whose n x n table would take 9 * 10^6 ranks at
    n = 3000; the traced peak stays under 64 KiB, after a first call has
    made numpy's lazy imports."""
    estimate_condorcet_probability(cyclic_culture(3), 1, 1, seed=3)
    tracemalloc.start()
    try:
        est = estimate_condorcet_probability(cyclic_culture(3000), 1, 2 * CHUNK_SAMPLES, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.p_hat, est.winner_checks, est.blocks) == (1.0, 0, 2)
    assert peak < 1 << 16


def assert_kernel_matches_oracle_on(pool, seed):
    """Profiles whose voters each hold n distinct keys of ``pool``, at
    (n, k) = (8, 2), (5, 3) and (6, 1): the kernel's verdicts are the
    oracle's, profile by profile and as one tensor, with no tie reported."""
    rng = np.random.default_rng(mix64(seed, len(pool)))
    for n, k in ((8, 2), (5, 3), (6, 1)):
        profiles, voters = 300, 2 * k - 1
        keys = rng.permuted(np.tile(pool, (profiles * voters, 1)), axis=1)[:, :n]
        pos = np.ascontiguousarray(keys).reshape(profiles, voters, n)
        expected = oracle_winners(pos, k)
        got = [_count_winners_vectorized(pos[i:i + 1], k) for i in range(profiles)]
        assert got == [(int(e), False) for e in expected]
        assert _count_winners_vectorized(pos, k) == (sum(expected), False)
        if k >= 2:
            assert 0 < sum(expected) < profiles  # both outcomes occur


def test_kernel_on_extreme_uint64_keys():
    """Keys judged again span all of uint64.  Keys at both ends and on either
    side of 2^63: a signed cast puts every key from 2^63 up ahead of the
    rest, a float cast merges neighbours such as 2^64 - 2 and 2^64 - 1, and
    the survivor update must return one of the two keys exactly although
    left - right wraps."""
    pool = np.array(
        [0, 1, 2 ** 63 - 2, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 2, 2 ** 64 - 1],
        dtype=np.uint64,
    )
    assert_kernel_matches_oracle_on(pool, 29)


def test_kernel_on_extreme_uint32_keys():
    """Impartial keys are drawn as uint32.  Keys at both ends and on either
    side of 2^31: a signed cast puts every key from 2^31 up ahead of the
    rest, and the survivor update must return one of the two keys exactly
    although left - right wraps modulo 2^32."""
    pool = np.array(
        [0, 1, 2 ** 31 - 2, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 2, 2 ** 32 - 1],
        dtype=np.uint32,
    )
    assert_kernel_matches_oracle_on(pool, 43)


@pytest.mark.parametrize("n", [3, 5, 7, 13, 17])
def test_odd_widths_give_byes(n):
    """An odd round width leaves its middle column a bye (17 -> 9 -> 5 ->
    3 -> 2 -> 1).  Verdicts match the oracle on the cyclic ranks and, on
    every profile not flagged as tied, on the impartial keys extended by
    any low bits; rank tensors report no tie: a column that met itself would
    read as one."""
    for culture, k in ((impartial_culture(n), 2), (impartial_culture(n), 3), (cyclic_culture(n), 2)):
        rng = np.random.default_rng(mix64(37, n, k))
        pos = _sample_positions(culture, k, 300, rng)
        impartial = culture.kind == "impartial"
        expected = np.array(oracle_winners(widen(pos, rng) if impartial else pos, k))
        mask, tied = _winner_mask(pos, k)
        assert mask[~tied].tolist() == expected[~tied].tolist()
        assert impartial or not tied.any()
        assert 0 < sum(expected) < len(pos)  # both outcomes occur


@pytest.mark.parametrize("n, k", [(3, 2), (5, 2), (8, 2), (6, 3), (9, 1)])
def test_untied_verdicts_hold_for_any_low_bits(n, k):
    """High keys drawn from 40 values tie often.  Whenever the kernel
    reports no tie on a profile's 16- or 32-bit high keys, its verdict is
    that of the 64-bit kernel and of the oracle on (hi << (64 - bits)) | lo,
    for two draws of random low bits.  For k >= 2 the oracle's verdicts on
    the two draws differ on some profiles, so a tie left unreported would
    show; at k = 1 the one voter's top alternative wins on any low bits."""
    for bits in (16, 32):
        assert_untied_verdicts_hold_for_any_low_bits(n, k, bits)


def assert_untied_verdicts_hold_for_any_low_bits(n, k, bits):
    rng = np.random.default_rng(mix64(31, n, k, bits))
    profiles, voters = 400, 2 * k - 1
    dtype = np.uint16 if bits == 16 else np.uint32
    hi = rng.integers(0, 40, size=(profiles, voters, n), dtype=dtype)
    full, other = (
        hi.astype(np.uint64) << np.uint64(64 - bits)
        | rng.integers(0, 2 ** (64 - bits), size=hi.shape, dtype=np.uint64)
        for _ in range(2)
    )
    expected, also = oracle_winners(full, k), oracle_winners(other, k)
    verdicts, flags = [], []
    for i in range(profiles):
        narrow, tied = _winner_mask(hi[i:i + 1], k)
        wide, wide_tied = _winner_mask(full[i:i + 1], k)
        assert wide[0] == expected[i] and not wide_tied[0]
        if not tied[0]:
            assert narrow[0] == wide[0] == also[i]
        verdicts.append(bool(narrow[0]))
        flags.append(bool(tied[0]))
    assert 0 < sum(flags) < profiles  # both kinds of profile occur
    if k >= 2:
        assert expected != also
    # Judged as one block, each profile gets the verdict and flag it gets alone.
    mask, tied = _winner_mask(hi, k)
    assert mask.tolist() == verdicts and tied.tolist() == flags
    untied = np.flatnonzero(~tied)
    mask, tied = _winner_mask(hi[untied], k)
    assert not tied.any() and mask.tolist() == [expected[i] for i in untied]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_at_most_votes_judge_tied_keys_soundly(k):
    """High keys drawn from 5n values put equal keys in most profiles.  The
    verification pass counts a voter whose champion key is at most a
    rival's as a vote for the champion, and looks for equal keys only in
    the profiles it calls winners.  On every profile it reports untied, its
    verdict is the oracle's on the 64-bit keys for two draws of random low
    bits, although many of those profiles hold equal keys; for k >= 2 both
    verdicts occur among them, and the two draws' verdicts differ on some
    profile, so the data can tell a verdict that depends on the low bits."""
    rng = np.random.default_rng(mix64(47, k))
    profiles, voters = 600, 2 * k - 1
    for n in (9, 12):
        hi = rng.integers(0, 5 * n, size=(profiles, voters, n), dtype=np.uint32)
        first, second = (
            oracle_winners(
                hi.astype(np.uint64) << np.uint64(32)
                | rng.integers(0, 2 ** 32, size=hi.shape, dtype=np.uint32),
                k,
            )
            for _ in range(2)
        )
        untied, equal_keys = [], 0
        for i in range(profiles):
            mask, tied = _winner_mask(hi[i:i + 1], k)
            if not tied:
                assert mask[0] == first[i] == second[i]
                untied.append(bool(mask[0]))
                equal_keys += any(len(np.unique(row)) < n for row in hi[i])
        assert 4 * equal_keys > len(untied) > 0
        if k >= 2:
            assert 0 < sum(untied) < len(untied) and first != second
        else:
            assert all(untied)


@pytest.mark.parametrize(
    "culture, k, checks",
    [(cyclic_culture(10), 2, 10), (cyclic_culture(9), 3, 0), (EXPLICIT_5, 2, 27),
     (EXPLICIT_5, 3, 0), (impartial_culture(7), 2, 0)],
    ids=["cyclic_table", "cyclic_ranks", "explicit_table", "explicit_ranks", "impartial"],
)
def test_workers_give_bit_identical_estimates(monkeypatch, culture, k, checks):
    """Each worker runs a fixed share of the chunks, every chunk on its own
    generator, so p_hat, the blocks and the profiles judged again are the
    same for 1, 2, 3 and 5 workers.  1000 samples make four chunks of at
    most 256 profiles, so 5 workers are more than there are chunks, and
    shares of one and of two chunks occur.  Impartial blocks hold at most 45
    profiles, so a chunk ends on a short block, which breaks the layout of
    the block buffer the next chunk of its share reuses."""
    monkeypatch.setattr(montecarlo, "CHUNK_SAMPLES", 256)
    monkeypatch.setattr(montecarlo, "_NARROW_BLOCK_KEYS", 45 * (2 * k - 1) * culture.n)
    runs = [estimate_condorcet_probability(culture, k, 1_000, seed=13, workers=workers)
            for workers in (1, 2, 3, 5)]
    assert all(run == runs[0] for run in runs[1:])
    assert runs[0].winner_checks == checks and runs[0].blocks >= 4
    if culture.kind == "impartial":
        wins, rejudged, blocks, _ = replay_impartial(culture.n, k, 1_000, 13)
        assert runs[0].p_hat == wins / 1_000 and runs[0].blocks == len(blocks) == 24


def shrink_chunks(monkeypatch, n, k):
    """Chunks of 256 profiles, blocks of at most 45, and re-judge pieces of
    at most 8 profiles on 32-bit keys and 4 on 64-bit keys, so pieces
    straddle blocks and end short at a chunk's end."""
    monkeypatch.setattr(montecarlo, "CHUNK_SAMPLES", 256)
    monkeypatch.setattr(montecarlo, "_NARROW_BLOCK_KEYS", 45 * (2 * k - 1) * n)
    monkeypatch.setattr(montecarlo, "_REJUDGE_KEYS", 4 * (2 * k - 1) * n)
    assert _key_dtype(n, k) is np.uint16
    assert (rejudge_piece(n, k, 32), rejudge_piece(n, k, 64)) == (8, 4)


@pytest.mark.parametrize("workers", [1, 2])
def test_tied_profiles_are_judged_on_64_bit_keys(monkeypatch, workers):
    """A sampler keeping 4 bits of each drawn voter's 16-bit keys makes
    about two profiles in three tie; voter 0's identity ranking is left whole,
    so it never ties.  p_hat equals the replay's (see
    :func:`replay_impartial`), which judges each profile with the oracle on
    the 64-bit keys its own low bits give, for one worker and for two.
    Three chunks of blocks of at most 45 profiles, the last block of each
    chunk short (see :func:`shrink_chunks`)."""
    n, k, samples = 7, 2, 600
    shrink_chunks(monkeypatch, n, k)
    real = montecarlo._sample_positions
    keep = np.array([2 ** 16 - 1] + [0xF] * (2 * k - 2), dtype=np.uint16)[:, None]
    monkeypatch.setattr(montecarlo, "_sample_positions", lambda *args: real(*args) & keep)
    est = estimate_condorcet_probability(impartial_culture(n), k, samples, seed=41, workers=workers)
    wins, rejudged, blocks, rungs = replay_impartial(n, k, samples, 41, keep=np.uint16(0xF))
    assert [len(block) for block in blocks] == ([45] * 5 + [31]) * 2 + [45, 43]
    assert est.blocks == len(blocks)
    # some chunk ends on a short piece of the 32-bit rung
    assert samples // 4 < rejudged < 3 * samples // 4 and rejudged % 8 != 0
    assert rungs[32] == rejudged
    assert est.rejudged_profiles == rejudged
    assert est.p_hat == wins / samples


@pytest.mark.parametrize("workers", [1, 3])
def test_tied_profiles_climb_the_ladder_to_64_bit_keys(monkeypatch, workers):
    """Keeping 2 bits of every key drawn as uint16, the drawn voters' keys
    and the 16-bit low draws alike, makes most profiles tie on their first
    pass and many of those tie again on their 32-bit keys, so both rungs
    run: 16 to 32 bits and 32 to 64 bits.  The kernel judges on 32-bit keys
    exactly the profiles judged again, and on 64-bit keys exactly those the
    replay (see :func:`replay_impartial`) sends on, in pieces that straddle
    blocks and end short (see :func:`shrink_chunks`); p_hat is the replay's,
    every verdict of which is the oracle's on 64-bit keys."""
    n, k, samples = 7, 2, 600
    shrink_chunks(monkeypatch, n, k)
    real_keys, real_mask = montecarlo._random_keys, montecarlo._winner_mask

    def masked(shape, rng, dtype):
        keys = real_keys(shape, rng, dtype)
        return keys & np.uint16(0x3) if np.dtype(dtype) == np.uint16 else keys

    judged = []
    monkeypatch.setattr(montecarlo, "_random_keys", masked)
    monkeypatch.setattr(montecarlo, "_winner_mask",
                        lambda pos, k: judged.append((pos.dtype.itemsize, len(pos)))
                        or real_mask(pos, k))
    est = estimate_condorcet_probability(impartial_culture(n), k, samples, seed=44, workers=workers)
    wins, rejudged, blocks, rungs = replay_impartial(
        n, k, samples, 44, keep=np.uint16(0x3), keep_low=np.uint16(0x3))
    widths = {size: sum(rows for s, rows in judged if s == size) for size in (2, 4, 8)}
    assert widths == {2: samples, 4: rungs[32], 8: rungs[64]}
    assert rejudged == rungs[32] > samples // 2
    assert samples // 20 < rungs[64] < rungs[32] and rungs[64] % 4 != 0
    assert (est.rejudged_profiles, est.blocks) == (rejudged, len(blocks))
    assert est.p_hat == wins / samples


# Win counts and profiles judged again at seed 2026 on STREAM_VERSION 9,
# where impartial keys of (2k - 2)(n - 1) <= 2048 are drawn as uint16, only
# the profiles that tie are judged again, on 32-bit keys before 64-bit
# ones, a cyclic voter 0 holds rotation 0, and a culture with few distinct
# profiles draws each chunk's wins as one binomial variate.  A change to the
# draw order, the key width or the block sizes moves them; such a change
# must bump STREAM_VERSION and re-pin them here.  The last two runs draw
# binomial variates, after exact walks of 10 and 27 winner checks.
STREAM_PINS = [
    (impartial_culture(200), 2, 4_096, 1, 0, 746, 40),
    (impartial_culture(50), 5, 20_000, 1, 0, 4_167, 137),
    (impartial_culture(50), 5, 20_000, 2, 0, 4_167, 137),
    (cyclic_culture(40), 3, 20_000, 1, 0, 120, 0),
    (EXPLICIT_5, 3, 1_000, 1, 0, 812, 0),
    (cyclic_culture(10), 2, 1 << 19, 2, 10, 146_556, 0),
    (EXPLICIT_5, 2, 5_000, 1, 27, 4_388, 0),
]
STREAM_PIN_IDS = ["impartial200_k2", "impartial50_k5_w1", "impartial50_k5_w2", "cyclic40_k3",
                  "explicit_k3", "cyclic10_k2_table", "explicit_k2_table"]


@pytest.mark.parametrize(
    "culture, k, samples, workers, checks, wins, rejudged", STREAM_PINS, ids=STREAM_PIN_IDS
)
def test_stream_is_pinned(culture, k, samples, workers, checks, wins, rejudged):
    """The impartial runs judge some profiles again, the rank tensors and
    the binomial draws none."""
    assert STREAM_VERSION == 9
    est = estimate_condorcet_probability(culture, k, samples, seed=2026, workers=workers)
    assert est.winner_checks == checks and est.rejudged_profiles == rejudged
    assert est.p_hat == wins / samples


# The key-path runs of STREAM_PINS as STREAM_VERSION 8 gave them.
VERSION_8_PINS = [
    (impartial_culture(200), 2, 4_096, 1, 757, 36),
    (impartial_culture(50), 5, 20_000, 1, 4_126, 154),
    (impartial_culture(50), 5, 20_000, 2, 4_126, 154),
    (cyclic_culture(40), 3, 20_000, 1, 129, 0),
    (EXPLICIT_5, 3, 1_000, 1, 783, 0),
]


@pytest.mark.parametrize(
    "culture, k, samples, workers, wins, rejudged", VERSION_8_PINS, ids=STREAM_PIN_IDS[:5]
)
def test_key_path_keeps_the_version_8_stream(monkeypatch, culture, k, samples, workers, wins,
                                             rejudged):
    """Version 9 changed only the winner-table path: with the version word
    of the chunk seeds set back to 8, every key-path run gives version 8's
    wins and profiles judged again."""
    monkeypatch.setattr(montecarlo, "STREAM_VERSION", 8)
    est = estimate_condorcet_probability(culture, k, samples, seed=2026, workers=workers)
    assert est.winner_checks == 0 and est.rejudged_profiles == rejudged
    assert est.p_hat == wins / samples


def test_readme_names_the_stream_version():
    """The README's reproducibility section describes the current stream
    version, so a bump cannot leave it describing the last one."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"Version {STREAM_VERSION} (this one)" in " ".join(readme.split())


@pytest.mark.parametrize(
    "culture, k",
    [(impartial_culture(50), 5), (impartial_culture(7), 2), (cyclic_culture(40), 3),
     (EXPLICIT_5, 3)],
    ids=["impartial50_k5", "impartial7_k2", "cyclic40_k3", "explicit_k3"],
)
def test_sampled_blocks_are_alternative_major(culture, k):
    """The sampler's (size, voters, n) tensor is a view of a C-order
    (voters, n, size) array, the layout the kernel runs on, so the
    production path hands the kernel a block it need not copy."""
    pos = _sample_positions(culture, k, 300, np.random.default_rng(mix64(53, culture.n, k)))
    assert pos.shape == (300, 2 * k - 1, culture.n)
    assert pos.transpose(1, 2, 0).flags.c_contiguous


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_key_width_switches_at_the_threshold(k):
    """Impartial keys are uint16 while a profile's knockout compares at most
    _NARROW_COMPARISONS[k] pairs of drawn keys, (2k - 2)(n - 1), 2048 at
    k = 2 and 3072 at k = 3, 4 and 5, and uint32 from the next n on; the
    sampler's keys and the block sizes follow.  On the uint16 side the
    profiles judged again stay under 7% (3.4-4% measured on 8192 profiles
    at 2048 pairs, 5.0-5.2% at 3072), and on the uint32 side under 0.1%.
    Other k take k = 2's threshold.  At k = 1 no key is drawn, and voter 0's
    keys 0..n-1 fit uint16 up to n = 2^16."""
    last = _NARROW_COMPARISONS[k] // (2 * k - 2) + 1
    rng = np.random.default_rng(mix64(67, k))
    for n, dtype, keys, share in ((last, np.uint16, _NARROW_BLOCK_KEYS, 0.07),
                                  (last + 1, np.uint32, _BLOCK_KEYS, 0.001)):
        culture = impartial_culture(n)
        assert _key_dtype(n, k) is dtype
        assert _sample_positions(culture, k, 3, rng).dtype == dtype
        assert _block_rows(culture, k) == keys // ((2 * k - 1) * n)
        est = estimate_condorcet_probability(culture, k, 2_048, seed=67)
        assert est.rejudged_profiles < share * est.samples
    assert _key_dtype(2 ** 16, 1) is np.uint16 and _key_dtype(2 ** 16 + 1, 1) is np.uint32
    assert _key_dtype(205, 6) is np.uint16 and _key_dtype(206, 6) is np.uint32


def assert_keys_vary(keys):
    """The keys take at least 99% of the N (1 - e^(-m/N)) distinct values
    that m i.i.d. uniform keys of N values take on average."""
    values, m = 2.0 ** (8 * keys.itemsize), keys.size
    assert len(np.unique(keys)) > 0.99 * values * -math.expm1(-m / values)


def test_impartial_voter_zero_holds_the_identity_ranking(monkeypatch):
    """Voter 0 of every impartial profile has key a for alternative a, on a
    block drawn alone and on every block of a chunk, its short last block
    included, on uint16 and on uint32 keys, while the drawn voters' keys
    vary."""
    rng = np.random.default_rng(mix64(61))
    for n, k, dtype in ((1, 2, np.uint16), (7, 2, np.uint16), (50, 5, np.uint16),
                        (6, 1, np.uint16), (2000, 2, np.uint32)):
        pos = _sample_positions(impartial_culture(n), k, 300, rng)
        assert pos.dtype == dtype and pos.shape == (300, 2 * k - 1, n)
        assert (pos[:, 0] == np.arange(n)).all()
        if k > 1:
            assert_keys_vary(pos[:, 1:])
    drawn = record_blocks(monkeypatch)
    estimate_condorcet_probability(impartial_culture(40), 2, 2 * ROWS_N40_K2 + 5, seed=3)
    assert [len(block) for block in drawn] == [ROWS_N40_K2, ROWS_N40_K2, 5]
    for block in drawn:
        assert (block[:, 0] == np.arange(40)).all()
        assert_keys_vary(block[:, 1:])


def test_kernel_gives_the_same_verdicts_on_any_layout():
    """A C-order copy of a block, which the kernel must copy into its own
    layout, gets the verdicts and tie flags of the block itself: on rank
    tensors, on uint16 keys and on uint64 keys drawn from 12 values, which
    tie."""
    rng = np.random.default_rng(mix64(59))
    tying = rng.integers(0, 12, size=(5, 6, 400), dtype=np.uint64) << np.uint64(40)
    cases = [
        (_sample_positions(cyclic_culture(9), 2, 400, rng), 2, False),
        (_sample_positions(EXPLICIT_5, 3, 400, rng), 3, False),
        (_sample_positions(impartial_culture(13), 3, 400, rng), 3, None),
        (tying.transpose(2, 0, 1), 3, True),
    ]
    for block, k, tied in cases:
        copy = np.ascontiguousarray(block)
        assert copy.flags.c_contiguous and not block.flags.c_contiguous
        mask, block_tied = _winner_mask(block, k)
        assert tied is None or block_tied.any() == tied
        copy_mask, copy_tied = _winner_mask(copy, k)
        assert copy_mask.tolist() == mask.tolist() and copy_tied.tolist() == block_tied.tolist()
        assert 0 < np.count_nonzero(mask) < len(mask)  # both outcomes occur


def test_kernel_counts_more_than_255_votes():
    """k = 129 gives 257 voters, past what uint8 vote counts can hold."""
    k = 129
    unanimous = culture_from_entries(3, [((2, 0, 1), "1")])
    pos = _sample_positions(unanimous, k, 4, np.random.default_rng(0))
    assert _count_winners_vectorized(pos, k) == (4, False)
    assert estimate_condorcet_probability(unanimous, k, 4, seed=1).p_hat == 1.0
    pos = _sample_positions(impartial_culture(3), k, 12, np.random.default_rng(1))
    slow = oracle_on_64_bit_keys(pos, k, np.random.default_rng(2))
    assert _count_winners_vectorized(pos, k, _TiedProfiles(np.random.default_rng(2)))[0] == slow


def test_kernel_temporaries_stay_small():
    """One impartial n = 800, k = 2 chunk is sampled and judged block by
    block on 16-bit keys, so its traced peak stays below 3 MiB: a block's
    keys take 768 KiB and the kernel's temporaries about as much again
    (2.2 MiB measured), and its tied profiles, about 3% here, are judged
    again 20 at a time on 32-bit keys, 192 KiB of them.  The chunk's uint64
    keys drawn whole would take 315 MB."""
    n, k = 800, 2
    tracemalloc.start()
    try:
        est = estimate_condorcet_probability(impartial_culture(n), k, CHUNK_SAMPLES, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.samples == CHUNK_SAMPLES
    assert 0 < est.rejudged_profiles < CHUNK_SAMPLES // 20
    assert peak < 3 * 2 ** 20


def test_estimate_within_four_sigma_of_exact():
    cases = [
        (impartial_culture(3), 2, Fraction(17, 18)),
        (impartial_culture(4), 2, Fraction(8, 9)),
        (impartial_culture(5), 2, Fraction(21, 25)),
        (impartial_culture(4), 3, Fraction(31, 36)),
        (cyclic_culture(10), 2, min_condorcet_probability(10, 2)),
    ]
    for culture, k, exact in cases:
        est = estimate_condorcet_probability(culture, k, 40_000, seed=2718)
        sigma = math.sqrt(float(exact) * (1 - float(exact)) / est.samples)
        assert abs(est.p_hat - float(exact)) < 4 * sigma


# Impartial k = 2 winner probabilities from the three-voter formula,
# perfbench/reference.py::impartial_three_voter_probability (exact up to
# float rounding; it reproduces 17/18, 8/9 and 21/25 at n = 3, 4, 5).
IMPARTIAL_K2 = {200: 0.18676376905325828, 800: 0.09592072429103762}


def test_impartial_estimate_within_four_sigma_at_large_n():
    """The production sampler and kernel at the paper's decay-trend cells."""
    for n, exact in IMPARTIAL_K2.items():
        est = estimate_condorcet_probability(impartial_culture(n), 2, 16_384, seed=2718)
        sigma = math.sqrt(exact * (1 - exact) / est.samples)
        assert abs(est.p_hat - exact) < 4 * sigma


def test_explicit_culture_estimate_matches_enumeration():
    culture = culture_from_entries(
        3, [((0, 1, 2), "0.5"), ((1, 2, 0), "0.3"), ((2, 0, 1), "0.2")]
    )
    exact = float(condorcet_probability(culture, 2).value)
    est = estimate_condorcet_probability(culture, 2, 40_000, seed=31)
    sigma = math.sqrt(exact * (1 - exact) / est.samples)
    assert abs(est.p_hat - exact) < 4 * sigma


def test_sample_count_not_multiple_of_chunk():
    est = estimate_condorcet_probability(cyclic_culture(4), 2, 20_000, seed=8)
    assert est.samples == 20_000
    # p_hat is wins / samples for an integer win count
    wins = est.p_hat * 20_000
    assert wins == pytest.approx(round(wins), abs=1e-9)


def test_confidence_interval_shape():
    """The interval is the Wilson score interval: its ends are the two roots
    p of (p_hat - p)^2 = z^2 p (1 - p) / N with z = 1.96, so they sit
    asymmetrically around p_hat, pulled toward 1/2."""
    z = 1.96
    cases = [
        (impartial_culture(3), 2, 10_000, 4),
        (cyclic_culture(10), 2, 2_000, 9),
        (culture_from_entries(4, [((3, 0, 1, 2), "1")]), 2, 25, 1),
    ]
    for culture, k, samples, seed in cases:
        est = estimate_condorcet_probability(culture, k, samples, seed=seed)
        assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0
        assert est.std_error == math.sqrt(est.p_hat * (1.0 - est.p_hat) / samples)
        for end in (est.ci_low, est.ci_high):
            score = (est.p_hat - end) ** 2
            assert score == pytest.approx(z * z * end * (1.0 - end) / samples, rel=1e-9)
        center = (est.p_hat + z * z / (2 * samples)) / (1 + z * z / samples)
        assert 0.5 * (est.ci_low + est.ci_high) == pytest.approx(center, rel=1e-12)


def test_confidence_interval_covers_the_exact_value_at_two_hundred_alternatives():
    """The Wilson 95% interval of short impartial runs at n = 200, on the
    16-bit key path, covers the exact value the programme gives in at least
    90% of 200 seeds; criterion 08 checks the same at n = 4."""
    exact = float(condorcet_probability(impartial_culture(200), 2).value)
    hits = 0
    for rep in range(200):
        est = estimate_condorcet_probability(impartial_culture(200), 2, 2000, seed=mix64(2026, rep))
        hits += est.ci_low <= exact <= est.ci_high
    assert hits >= 180


def test_confidence_interval_covers_the_exact_value_at_eight_hundred_alternatives():
    """The Wilson 95% interval of short impartial (800, 2) runs, where about
    3% of profiles tie on their 16-bit keys and are judged again, covers
    the exact value.  At N = 2000 the interval covers it with probability
    0.94731 (summed over Bin(2000, p)), so the hits over 200 seeds are
    Bin(200, 0.94731), and fewer than 179 has probability 9.5e-4."""
    exact = IMPARTIAL_K2[800]
    hits = rejudged = 0
    for rep in range(200):
        est = estimate_condorcet_probability(impartial_culture(800), 2, 2000, seed=mix64(2026, rep))
        hits += est.ci_low <= exact <= est.ci_high
        rejudged += est.rejudged_profiles
    assert hits >= 179
    assert 0.02 * 200 * 2000 < rejudged < 0.04 * 200 * 2000


def test_confidence_interval_covers_the_exact_value_at_k_three():
    """The Wilson 95% interval of short impartial (100, 3) runs, on 16-bit
    keys over (2k-2)(n-1) = 396 pairs with under 1% of profiles judged
    again, covers the exact value 0.16976104402511766, which
    ``exact._impartial_probability(100, 3)`` gives.  At N = 2000 the
    interval covers it with probability 0.95072, so the hits over 200 seeds
    are Bin(200, 0.95072), and fewer than 180 has probability 9.7e-4."""
    exact = 0.16976104402511766
    hits = 0
    for rep in range(200):
        est = estimate_condorcet_probability(impartial_culture(100), 3, 2000, seed=mix64(2026, rep))
        hits += est.ci_low <= exact <= est.ci_high
    assert hits >= 180


def test_confidence_interval_covers_the_quadrature_value_on_32_bit_keys():
    """The Wilson 95% interval of short impartial (800, 3) runs, on 32-bit
    keys over (2k-2)(n-1) = 3196 compared pairs, past the 3072 of the
    16-bit side, covers P_n = 0.0461459354534 (the quadrature of
    :func:`test_confidence_interval_covers_the_quadrature_values`).  At
    N = 1000 the interval covers it with probability 0.95046 (summed over
    Bin(1000, p)), so the hits over 160 seeds are Bin(160, 0.95046), and
    fewer than 143 has probability 1.0e-3.  Few profiles tie on 32-bit
    keys."""
    n, k, exact = 800, 3, 0.0461459354534
    assert _key_dtype(n, k) is np.uint32
    hits = rejudged = 0
    for rep in range(160):
        est = estimate_condorcet_probability(impartial_culture(n), k, 1000, seed=mix64(2026, rep))
        hits += est.ci_low <= exact <= est.ci_high
        rejudged += est.rejudged_profiles
    assert hits >= 143
    assert rejudged < 0.001 * 160 * 1000


def test_confidence_interval_covers_the_quadrature_value_at_k_four_on_32_bit_keys():
    """The Wilson 95% interval of short impartial (800, 4) runs, on 32-bit
    keys over (2k-2)(n-1) = 4794 compared pairs, covers P_n =
    0.0330695542400 (the quadrature of
    :func:`test_confidence_interval_covers_the_quadrature_values`, whose
    passes of 24/32 nodes per axis agree to 3.6e-13 relative).  At N = 1000 the interval covers it with probability 0.95867
    (summed over Bin(1000, p)), so the hits over 110 seeds are
    Bin(110, 0.95867), and fewer than 98 has probability 6.4e-4."""
    n, k, exact = 800, 4, 0.0330695542400
    assert _key_dtype(n, k) is np.uint32
    hits = rejudged = 0
    for rep in range(110):
        est = estimate_condorcet_probability(impartial_culture(n), k, 1000, seed=mix64(2026, rep))
        hits += est.ci_low <= exact <= est.ci_high
        rejudged += est.rejudged_profiles
    assert hits >= 98
    assert rejudged < 0.001 * 110 * 1000


@pytest.mark.parametrize(
    "n, k, exact",
    [(200, 3, 0.110888239729064), (200, 4, 0.0877679915556), (50, 5, 0.206036084331284)],
    ids=["n200_k3", "n200_k4", "n50_k5"],
)
def test_confidence_interval_covers_the_quadrature_values(n, k, exact):
    """The Wilson 95% interval of short impartial runs at k = 3, 4 and 5, on
    16-bit keys over (2k-2)(n-1) = 796, 1194 and 392 compared pairs, covers
    P_n = n * integral over [0, 1]^(2k-1) of T(t)^(n-1), T being the chance
    that k of the 2k - 1 voters prefer an alternative to a fixed rival.  The
    values are a graded Gauss-Legendre rule's over the orbits of the
    symmetric axes, with the last axis in closed form; passes of 32/48,
    24/32 and 16/20 nodes per axis agree to 1.3e-14, 1.3e-14 and 1.0e-14
    relative.  At N = 2000 the interval covers them with probability
    0.94993, 0.95194 and 0.95036, so the hits over 200 seeds are binomial,
    and fewer than 180 has probability 1.2e-3, 7.1e-4 and 1.1e-3."""
    assert _key_dtype(n, k) is np.uint16
    hits = 0
    for rep in range(200):
        est = estimate_condorcet_probability(impartial_culture(n), k, 2000, seed=mix64(2026, rep))
        hits += est.ci_low <= exact <= est.ci_high
    assert hits >= 180


def test_confidence_interval_covers_the_closed_form_on_the_cyclic_table():
    """The Wilson 95% interval of short cyclic (10, 2) runs, whose chunks
    draw their wins from the exact q, covers the closed-form minimum 0.28.  At
    N = 2000 the interval covers it with probability 0.95087, so fewer than
    180 hits over 200 seeds has probability 9.3e-4."""
    exact = float(min_condorcet_probability(10, 2))
    hits = 0
    for rep in range(200):
        est = estimate_condorcet_probability(cyclic_culture(10), 2, 2000, seed=mix64(2026, rep))
        assert est.winner_checks == 10
        hits += est.ci_low <= exact <= est.ci_high
    assert hits >= 180


def test_confidence_interval_covers_the_exact_value_on_the_explicit_table():
    """The Wilson 95% interval of short EXPLICIT_5, k = 2 runs, whose
    chunks draw their wins from the exact q, covers the exact value 7/8 that
    enumeration gives.  At N = 2000 the interval covers it with probability 0.94612, so
    fewer than 179 hits over 200 seeds has probability 1.3e-3."""
    exact = condorcet_probability(EXPLICIT_5, 2).value
    assert exact == Fraction(7, 8)
    hits = 0
    for rep in range(200):
        est = estimate_condorcet_probability(EXPLICIT_5, 2, 2000, seed=mix64(2026, rep))
        assert est.winner_checks == 27
        hits += est.ci_low <= exact <= est.ci_high
    assert hits >= 179


def test_input_validation():
    with pytest.raises(ValueError):
        estimate_condorcet_probability(impartial_culture(3), 2, 0, seed=1)
    with pytest.raises(ValueError):
        estimate_condorcet_probability(impartial_culture(3), 0, 100, seed=1)
    with pytest.raises(ValueError):
        sweep("urn", 2, [3], 100, seed=1)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            estimate_condorcet_probability(impartial_culture(3), 2, 100, seed=1, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            sweep("cyclic", 2, [3], 100, seed=1, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            sweep("cyclic", 2, [], 100, seed=1, workers=workers)
    for samples, k, name in ((0, 2, "samples"), (-1, 2, "samples"), (100, 0, "k")):
        for n_values in ([3], []):
            with pytest.raises(ValueError, match=name):
                sweep("cyclic", k, n_values, samples, seed=1)


@pytest.mark.parametrize("workers", [1, 2])
def test_support_tables_are_built_once_per_estimate(monkeypatch, workers):
    """An explicit culture on the key path reads its rank table and its
    cumulative weights in every block (three per chunk here), but builds
    each once per estimate; cyclic (10, 2) builds neither, only the exact
    walk's rank table, and draws one binomial variate, one block, per
    chunk."""
    built = []
    real_positions, real_weights = Culture.support_positions, montecarlo._cumulative_weights
    monkeypatch.setattr(Culture, "support_positions",
                        lambda culture: built.append("support_positions") or real_positions(culture))
    monkeypatch.setattr(montecarlo, "_cumulative_weights",
                        lambda culture: built.append("_cumulative_weights") or real_weights(culture))
    samples = 3 * CHUNK_SAMPLES
    for culture, k, checks, blocks, tables in (
        (EXPLICIT_5, 5, 0, 9, ["_cumulative_weights", "support_positions"]),
        (cyclic_culture(10), 2, 10, 3, ["support_positions"]),
    ):
        built.clear()
        est = estimate_condorcet_probability(culture, k, samples, seed=29, workers=workers)
        assert est.winner_checks == checks
        assert sorted(built) == tables
        wins, replayed = replay_draws(culture, k, samples, 29, checks > 0)
        assert est.p_hat == wins / samples and est.blocks == replayed == blocks


def test_sweep_cells_reproduce_in_isolation():
    master = 414
    cells = sweep("cyclic", 2, [3, 5, 8], 8_192, seed=master)
    assert [n for n, _ in cells] == [3, 5, 8]
    for n, est in cells:
        cell_seed = mix64(master, n, 2)
        assert est.seed == cell_seed
        redo = estimate_condorcet_probability(
            cyclic_culture(n), 2, 8_192, seed=cell_seed
        )
        assert redo.p_hat == est.p_hat


def test_sweep_empty_n_values():
    assert sweep("impartial", 2, [], 1_000, seed=0) == []


def test_sweep_tracks_known_values():
    cells = sweep("cyclic", 2, [3, 4], 60_000, seed=77)
    for n, est in cells:
        exact = float(min_condorcet_probability(n, 2))
        sigma = math.sqrt(exact * (1 - exact) / est.samples)
        assert abs(est.p_hat - exact) < 4 * sigma
