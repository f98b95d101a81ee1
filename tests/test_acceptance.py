"""Acceptance suite: one test per release criterion, tolerances pinned.

Each criterion gets exactly one test function (criterion 11 splits its two
independent clauses) so the -v report reads as a pass/fail checklist.  The
brute-force election oracle below is written against the raw definition,
independent of the package's winner engine, and comes first so criterion 1
checks the package against it rather than against itself.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

import condorcet.cli as cli
from condorcet.cultures import cyclic_culture, impartial_culture, mix64
from condorcet.exact import (
    condorcet_probability,
    marginal_lower_bound,
    min_condorcet_probability,
)
from condorcet.asymptotic import (
    estimate_leading_constant,
    min_prob_large_n_leading,
    min_prob_large_k_rate,
)
from condorcet.model import Culture, Ranking
from condorcet.montecarlo import estimate_condorcet_probability
from condorcet.special import majority_tail_exact
from condorcet.verify import (
    check_scaled_tail_bound,
    check_tail_convexity,
    check_tail_derivative,
    check_tail_sandwich,
    check_tail_symmetry,
    check_taylor_bounds,
    run_suites,
)
from descent import minimize_marginal_bound


# ---------------------------------------------------------------------------
# independent oracle: probability of a pairwise-unbeaten alternative under
# the uniform culture on 3 alternatives with 3 voters, straight from the
# definition, no package machinery
# ---------------------------------------------------------------------------

def brute_force_uniform_3x3():
    rankings = list(permutations(range(3)))
    winners = 0
    total = 0
    for profile in product(rankings, repeat=3):
        total += 1
        for candidate in range(3):
            beats_all = True
            for other in range(3):
                if other == candidate:
                    continue
                votes = sum(
                    1 for order in profile
                    if order.index(candidate) < order.index(other)
                )
                if votes < 2:
                    beats_all = False
                    break
            if beats_all:
                winners += 1
                break
    return Fraction(winners, total)


def random_culture_corpus(count=200, seed=90125):
    """Random explicit cultures with exact rational weights summing to 1."""
    rnd = random.Random(seed)
    corpus = []
    for _ in range(count):
        n = rnd.randint(2, 5)
        support = rnd.randint(1, min(6, math.factorial(n)))
        orders = rnd.sample(list(permutations(range(n))), support)
        numerators = [rnd.randint(1, 99) for _ in range(support)]
        total = sum(numerators)
        entries = tuple(
            (Ranking(order), Fraction(a, total))
            for order, a in zip(orders, numerators)
        )
        k = rnd.randint(1, 2)
        corpus.append((Culture(n, "explicit", entries), k))
    return corpus


def run_cli_json(capsys, argv):
    code = cli.run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_exact_impartial_baseline(capsys):
    oracle = brute_force_uniform_3x3()
    assert oracle == Fraction(17, 18)
    start = time.monotonic()
    code, record = run_cli_json(
        capsys, ["exact", "--culture", "impartial", "--n", "3", "--voters", "3"]
    )
    elapsed = time.monotonic() - start
    assert code == 0
    assert record["results"]["value"] == str(oracle)
    assert elapsed < 1.0


def test_criterion_02_cyclic_culture_attains_closed_form():
    start = time.monotonic()
    for n in range(1, 7):
        for k in range(1, 4):
            enumerated = condorcet_probability(cyclic_culture(n), k).value
            assert enumerated == min_condorcet_probability(n, k), (n, k)
    assert time.monotonic() - start < 30.0


def test_criterion_03_closed_form_is_the_minimum():
    violations = [
        (culture.n, k)
        for culture, k in random_culture_corpus()
        if condorcet_probability(culture, k).value
        < min_condorcet_probability(culture.n, k)
    ]
    assert violations == []


def test_criterion_04_marginal_bound_sandwich():
    violations = []
    for culture, k in random_culture_corpus():
        exact = condorcet_probability(culture, k).value
        bound = marginal_lower_bound(culture, k)
        floor = culture.n * majority_tail_exact(k, Fraction(1, culture.n))
        if exact < bound:
            violations.append(("exact<bound", culture.n, k))
        if float(bound - floor) < -1e-12:
            violations.append(("bound<floor", culture.n, k))
    assert violations == []


def test_criterion_05_closed_form_equals_scaled_tail():
    for n in range(1, 51):
        for k in range(1, 7):
            assert min_condorcet_probability(n, k) == n * majority_tail_exact(
                k, Fraction(1, n)
            ), (n, k)


def test_criterion_06_leading_constants():
    start = time.monotonic()
    one = estimate_leading_constant(1, target_error=1e-6)
    assert abs(one.value - 1.0) <= 1e-6
    reference = math.pi ** 1.5 / 2.0
    two = estimate_leading_constant(2)
    assert abs(two.value - reference) / reference <= 0.05
    assert abs(two.value - reference) <= two.total_error
    assert time.monotonic() - start < 300.0


def test_criterion_07_impartial_decay_trend():
    start = time.monotonic()
    seed = 20260821
    p200 = estimate_condorcet_probability(
        impartial_culture(200), 2, 200_000, seed=seed, workers=1
    ).p_hat
    p800 = estimate_condorcet_probability(
        impartial_culture(800), 2, 200_000, seed=seed, workers=1
    ).p_hat
    ratio = p800 / p200
    assert abs(ratio - 0.5) / 0.5 <= 0.15
    target = 2.7842 * 800 ** -0.5
    assert abs(p800 - target) / target <= 0.15
    assert time.monotonic() - start < 600.0


def test_criterion_08_confidence_interval_calibration():
    exact = float(condorcet_probability(impartial_culture(4), 2).value)
    master = 8451
    hits = 0
    for rep in range(200):
        est = estimate_condorcet_probability(
            impartial_culture(4), 2, 10_000, seed=mix64(master, rep)
        )
        if est.ci_low <= exact <= est.ci_high:
            hits += 1
    assert hits >= 180  # at least 90% coverage of the 95% interval


def test_criterion_09_inequality_suites_all_clean():
    reports = [check_taylor_bounds()]
    for k in (1, 2, 3, 4):
        reports.append(check_tail_sandwich(k, trials=10_000, seed=417))
    reports.append(check_tail_symmetry())
    reports.append(check_tail_convexity())
    reports.append(check_scaled_tail_bound())
    reports.append(check_tail_derivative())
    failing = {r.name: r.worst_witness for r in reports if not r.passed}
    assert failing == {}


def test_criterion_10_optimizer_respects_floor():
    for n in range(1, 9):
        for k in range(1, 5):
            floor = float(n * majority_tail_exact(k, Fraction(1, n)))
            result = minimize_marginal_bound(n, k, starts=100, seed=1805)
            assert result.value >= floor - 1e-9, (n, k, result.value, floor)
    argmin = minimize_marginal_bound(3, 2, starts=100, seed=1805).point
    assert max(abs(c - 1.0 / 3.0) for c in argmin) < 1e-3
    # the descent is the naive oracle; the minimizer suite proves the floor
    proof, identity = run_suites(["minimizer"])
    assert (proof.trials, proof.violations) == (18, 0)
    assert (identity.trials, identity.violations) == (14, 0)


def test_criterion_11a_large_n_leading_term():
    n = 10_000
    exact = float(min_condorcet_probability(n, 2))  # (3n-2)/n^2
    leading = min_prob_large_n_leading(n, 2)  # 3/n
    assert abs(exact - leading) / leading <= 1e-4


def test_criterion_11b_large_k_decay_rate():
    # -ln P/k = ln(9/8) + (ln(k)/2 + O(1))/k at n = 3: the binomial tail's
    # polynomial prefactor keeps the raw rate 21% high at k = 40, so k = 40
    # is checked against the tail's rigorous bracket, and the rate at
    # k = 1000, where it is 2.1% off.  For n >= 3 each tail term is at most
    # (k-1)/((k+1)(n-1)) times the one before, so the leading term L bounds
    # P below and L (n-1)/(n-2) = 2L bounds it above.
    k = 40
    leading = Fraction(3 * math.comb(2 * k - 1, k) * 2 ** (k - 1), 3 ** (2 * k - 1))
    assert leading <= min_condorcet_probability(3, k) <= 2 * leading
    k = 1000
    rate = min_prob_large_k_rate(3)
    empirical = -math.log(min_condorcet_probability(3, k)) / k
    deviation = abs(empirical - rate) / rate
    assert deviation <= 0.10, (
        f"-ln(min_prob(3,{k}))/{k} = {empirical:.6f} vs ln(9/8) = {rate:.6f}: "
        f"relative deviation {deviation:.4f} exceeds 0.10"
    )


def test_criterion_12_worker_count_invariance(capsys):
    argv = ["simulate", "--culture", "cyclic", "--n", "10", "--voters", "3",
            "--samples", "50000", "--seed", "2025"]
    code1, rec1 = run_cli_json(capsys, argv + ["--workers", "1"])
    code8, rec8 = run_cli_json(capsys, argv + ["--workers", "8"])
    assert code1 == 0 and code8 == 0
    assert rec1["results"]["p_hat"] == rec8["results"]["p_hat"]
