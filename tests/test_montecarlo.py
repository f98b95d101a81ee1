import math
from fractions import Fraction

import numpy as np
import pytest

from condorcet.cultures import cyclic_culture, impartial_culture, mix64
from condorcet.engine import find_condorcet_winner
from condorcet.exact import condorcet_probability, min_condorcet_probability
from condorcet.model import Profile, Ranking, culture_from_entries
from condorcet.montecarlo import (
    _count_winners_vectorized,
    _sample_positions,
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


def test_naive_and_vectorized_kernels_agree():
    """The chunk kernel's winner count equals the all-pairs oracle's count,
    profile by profile, on the same sampled position tensor."""
    explicit = culture_from_entries(
        4, [((0, 1, 2, 3), "0.4"), ((1, 2, 3, 0), "0.35"), ((3, 2, 0, 1), "0.25")]
    )
    for culture, k in ((impartial_culture(3), 2), (cyclic_culture(5), 2), (explicit, 3)):
        rng = np.random.default_rng(mix64(3, culture.n, k))
        pos = _sample_positions(culture, k, 2_048, rng)
        slow = 0
        for block in pos:
            voters = tuple(Ranking(tuple(int(a) for a in np.argsort(row))) for row in block)
            slow += find_condorcet_winner(Profile(voters, k), naive=True).exists
        assert 0 < slow < len(pos)  # both outcomes occur, so the count can tell
        assert _count_winners_vectorized(pos, k) == slow


def test_estimate_within_four_sigma_of_exact():
    cases = [
        (impartial_culture(3), 2, Fraction(17, 18)),
        (impartial_culture(4), 2, Fraction(8, 9)),
        (cyclic_culture(10), 2, min_condorcet_probability(10, 2)),
    ]
    for culture, k, exact in cases:
        est = estimate_condorcet_probability(culture, k, 40_000, seed=2718)
        sigma = math.sqrt(float(exact) * (1 - float(exact)) / est.samples)
        assert abs(est.p_hat - float(exact)) < 4 * sigma


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


def test_input_validation():
    with pytest.raises(ValueError):
        estimate_condorcet_probability(impartial_culture(3), 2, 0, seed=1)
    with pytest.raises(ValueError):
        estimate_condorcet_probability(impartial_culture(3), 0, 100, seed=1)
    with pytest.raises(ValueError):
        sweep("urn", 2, [3], 100, seed=1)


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
