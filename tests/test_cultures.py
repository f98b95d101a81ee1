import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from condorcet.cultures import STREAM_VERSION, cyclic_culture, impartial_culture, mix64
from condorcet.engine import find_condorcet_winner
from condorcet.model import Profile, Ranking, culture_from_entries, rotation_ranking
from condorcet.montecarlo import _sample_positions

# chi-squared critical values at significance 1e-3 (upper tail), by degrees
# of freedom n!-1 for n = 2, 3, 4
CHI2_999 = {1: 10.827566170662733, 5: 20.515005652432873, 23: 49.7282324664315}


def stream(master_seed, stream_id=0):
    return np.random.default_rng(mix64(master_seed, stream_id, STREAM_VERSION))


def orders(pos):
    """Each voter's ranking, best first, decoded from a position row by
    argsort: one tuple per row of the flattened (profiles * voters, n) array."""
    rows = pos.reshape(-1, pos.shape[-1])
    return [tuple(int(a) for a in np.argsort(row)) for row in rows]


def has_winner(block, k):
    voters = tuple(Ranking(tuple(int(a) for a in np.argsort(row))) for row in block)
    return find_condorcet_winner(Profile(voters, k)).exists


def test_mix64_is_deterministic_and_spreads():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    seen = {mix64(seed, stream) for seed in range(30) for stream in range(30)}
    assert len(seen) == 900  # no collisions among nearby inputs
    assert all(0 <= h < 2 ** 64 for h in seen)


def test_mix64_order_sensitive():
    assert mix64(1, 2) != mix64(2, 1)


def test_sampler_reproducibility():
    culture = impartial_culture(5)
    a = _sample_positions(culture, 2, 20, stream(42, 3))
    b = _sample_positions(culture, 2, 20, stream(42, 3))
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    """At k = 2, since an impartial profile's voter 0 holds the identity
    ranking and only the other voters are drawn (at k = 1 none is)."""
    culture = impartial_culture(6)
    draws_a = orders(_sample_positions(culture, 2, 50, stream(42, 0)))
    draws_b = orders(_sample_positions(culture, 2, 50, stream(42, 1)))
    assert draws_a != draws_b


def test_stream_version_feeds_the_seed():
    assert mix64(7, 0, STREAM_VERSION) != mix64(7, 0, STREAM_VERSION + 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_impartial_sampling_uniform_chi_squared(n):
    """10^5 drawn rankings against the uniform law on n! rankings,
    significance 1e-3: voters 1 and 2 of 5 * 10^4 profiles at k = 2 (voter
    0 holds the identity ranking)."""
    draws = 100_000
    pos = _sample_positions(impartial_culture(n), 2, draws // 2, stream(561 + n))
    counts = Counter(orders(pos[:, 1:]))
    cells = math.factorial(n)
    assert set(counts) <= set(permutations(range(n)))
    expected = draws / cells
    stat = sum(
        (counts.get(p, 0) - expected) ** 2 / expected
        for p in permutations(range(n))
    )
    assert stat < CHI2_999[cells - 1]


def test_cyclic_sampling_hits_only_rotations():
    """Voter 0 of a cyclic profile holds rotation 0; voters 1..2k-2 are
    drawn, and in 5000 draws of 5 outcomes each of them hits every
    rotation."""
    n, k = 5, 3
    allowed = {rotation_ranking(n, s).order for s in range(n)}
    pos = _sample_positions(cyclic_culture(n), k, 5_000, stream(9))
    assert set(orders(pos[:, 0])) == {rotation_ranking(n, 0).order}
    for voter in range(1, 2 * k - 1):
        assert set(Counter(orders(pos[:, voter]))) == allowed


def test_explicit_sampling_matches_top_marginal():
    culture = culture_from_entries(
        3, [((0, 1, 2), "0.7"), ((1, 2, 0), "0.2"), ((2, 0, 1), "0.1")]
    )
    draws = 40_000
    tops = Counter(order[0] for order in orders(_sample_positions(culture, 1, draws, stream(77))))
    for alt, marginal in enumerate(culture.top_marginals()):
        p = float(marginal)
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(tops[alt] / draws - p) < 5 * sigma


def test_sample_positions_shape_and_membership():
    culture = cyclic_culture(4)
    pos = _sample_positions(culture, 3, 7, stream(3))
    assert pos.shape == (7, 5, 4)  # profiles, 2k-1 voters, alternatives
    allowed = {r.order for r, _ in culture.expand().entries}
    assert set(orders(pos)) <= allowed


def test_stream_pairwise_independence_smoke():
    """Winner indicators from two stream ids correlate below 4 sigma."""
    culture = impartial_culture(3)
    trials = 2_000
    xs, ys = (
        np.array(
            [1.0 if has_winner(block, 2) else 0.0
             for block in _sample_positions(culture, 2, trials, stream(1001, sid))]
        )
        for sid in (0, 1)
    )
    corr = np.corrcoef(xs, ys)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(trials)


def test_cyclic_culture_minimal_n():
    c = cyclic_culture(1)
    assert c.support_size == 1
    assert c.expand().entries[0][1] == Fraction(1)
