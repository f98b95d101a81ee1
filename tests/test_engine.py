import random
from collections import Counter

import pytest

from condorcet.engine import find_condorcet_winner, majority_prefers
from condorcet.model import Profile, Ranking, rotation_ranking


def random_profile(rng, n, k):
    voters = tuple(
        Ranking(tuple(rng.sample(range(n), n))) for _ in range(2 * k - 1)
    )
    return Profile(voters, k)


def test_three_cycle_has_no_winner():
    # the classic paradox profile
    voters = (Ranking((0, 1, 2)), Ranking((1, 2, 0)), Ranking((2, 0, 1)))
    outcome = find_condorcet_winner(Profile(voters, 2))
    assert not outcome.exists
    assert outcome.winner is None


def test_unanimous_profile_winner():
    r = Ranking((3, 1, 0, 2))
    p = Profile((r, r, r, r, r), 3)
    assert find_condorcet_winner(p).winner == 3


def test_majority_prefers_validates_arguments():
    p = Profile((Ranking((0, 1)), Ranking((0, 1)), Ranking((1, 0))), 2)
    with pytest.raises(ValueError):
        majority_prefers(p, 0, 0)
    with pytest.raises(ValueError):
        majority_prefers(p, 0, 2)


def test_majority_is_antisymmetric():
    # odd voter count: exactly one direction wins every pairing
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(2, 6)
        k = rng.randint(1, 3)
        profile = random_profile(rng, n, k)
        for a in range(n):
            for b in range(a + 1, n):
                assert majority_prefers(profile, a, b) != majority_prefers(
                    profile, b, a
                )


def test_reported_winner_beats_everyone():
    rng = random.Random(7)
    seen_winner = 0
    for _ in range(2_000):
        n = rng.randint(2, 6)
        k = rng.randint(1, 3)
        profile = random_profile(rng, n, k)
        outcome = find_condorcet_winner(profile)
        if outcome.exists:
            seen_winner += 1
            w = outcome.winner
            assert all(
                majority_prefers(profile, w, other)
                for other in range(n)
                if other != w
            )
    assert seen_winner > 0


def test_cyclic_profile_winner_characterization():
    """Under rotation-only profiles, j wins iff at least k voters hold the
    rotation that starts at j.

    Every rotation ranks j directly above j-1 except the one starting at j,
    so the j vs j-1 pairing is the binding one.
    """
    rng = random.Random(2024)
    for _ in range(2_000):
        n = rng.randint(2, 7)
        k = rng.randint(1, 3)
        starts = [rng.randrange(n) for _ in range(2 * k - 1)]
        profile = Profile(tuple(rotation_ranking(n, s) for s in starts), k)
        outcome = find_condorcet_winner(profile)
        counts = Counter(starts)
        expected = [j for j in range(n) if counts[j] >= k]
        assert len(expected) <= 1
        if expected:
            assert outcome.winner == expected[0]
        else:
            assert outcome.winner is None
