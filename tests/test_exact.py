import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from condorcet import exact
from condorcet.cultures import cyclic_culture, impartial_culture
from condorcet.engine import find_condorcet_winner
from condorcet.exact import (
    condorcet_probability,
    marginal_lower_bound,
    min_condorcet_probability,
    multiset_count,
)
from condorcet.model import (
    MAX_EXPLICIT_SUPPORT,
    CapExceededError,
    Culture,
    Profile,
    Ranking,
    SupportTooLargeError,
    culture_from_entries,
)
from condorcet.special import majority_tail_exact


def test_impartial_three_alternatives_three_voters():
    result = condorcet_probability(impartial_culture(3), 2)
    assert result.value == Fraction(17, 18)
    assert result.method == "dp"
    # voter 0 makes 3 moves and voter 1 makes 3 + 2 + 1; the last voter none
    assert result.winner_checks is None and result.moves == 9


def test_two_alternatives_always_have_a_winner():
    # with n=2 the majority direction is the winner, whatever the culture
    for k in (1, 2, 3):
        assert condorcet_probability(impartial_culture(2), k).value == 1
    assert condorcet_probability(cyclic_culture(2), 2).value == 1
    biased = culture_from_entries(2, [((0, 1), "0.9"), ((1, 0), "0.1")])
    assert condorcet_probability(biased, 2).value == 1


def test_single_alternative_trivially_wins():
    assert condorcet_probability(impartial_culture(1), 3).value == 1


def test_per_alternative_decomposition():
    result = condorcet_probability(impartial_culture(4), 2)
    assert result.value == Fraction(8, 9)
    # symmetry of the uniform culture: every alternative wins equally often
    assert result.per_alternative == (Fraction(2, 9),) * 4
    assert sum(result.per_alternative) == result.value

    skew = culture_from_entries(
        3, [((0, 1, 2), "2/3"), ((1, 2, 0), "1/6"), ((2, 0, 1), "1/6")]
    )
    skewed = condorcet_probability(skew, 2)
    assert sum(skewed.per_alternative) == skewed.value
    assert skewed.per_alternative[0] > skewed.per_alternative[1]


def test_pinned_impartial_rationals():
    pinned = {
        (3, 2): Fraction(17, 18),
        (4, 2): Fraction(8, 9),
        (4, 3): Fraction(31, 36),
        (5, 2): Fraction(21, 25),
        # the walk over the 120 expanded rankings gives this in about 30 s,
        # too slow to rerun with the other cells of the walk comparison
        (5, 3): Fraction(32019, 40000),
        (3, 9): Fraction(15974593747, 17414258688),
        # no oracle reaches these cells; they pin the programme's own values
        (7, 3): Fraction(608721061, 864360000),
        (12, 3): Fraction(72037694217551, 130166688960000),
        (6, 4): Fraction(42520181, 58320000),
        (10, 5): Fraction(5199740492614861326737, 9293221266064146432000),
    }
    for (n, k), value in pinned.items():
        result = condorcet_probability(impartial_culture(n), k)
        assert result.value == value, (n, k)
        assert sum(result.per_alternative) == value, (n, k)


def _three_voter_probability(n):
    """The three-voter impartial value, exact: alternative x wins iff the
    sets of rivals each voter ranks above x are pairwise disjoint, and given
    x's ranks r_i those sets are independent uniform r_i-subsets of the
    m = n - 1 rivals, so

        P = n^-2 sum_{r1, r2, r3} C(m-r1, r2)/C(m, r2) C(m-r1-r2, r3)/C(m, r3).
    """
    m = n - 1
    ratio = [[Fraction(math.comb(a, r), math.comb(m, r)) for r in range(a + 1)]
             for a in range(m + 1)]
    tail = [sum(ratio[m - s]) for s in range(m + 1)]
    total = sum(ratio[m - r1][r2] * tail[r1 + r2]
                for r1 in range(m + 1) for r2 in range(m - r1 + 1))
    return total / (n * n)


def _three_alternative_probability(voters):
    """The impartial value at n = 3, exact: the distribution of the margins
    (a-b, b-c, c-a), built voter by voter over the six rankings, less the
    two cycles, all three margins positive or all negative."""
    steps = []
    for order in itertools.permutations("abc"):
        rank = {x: i for i, x in enumerate(order)}
        steps.append(tuple(1 if rank[x] < rank[y] else -1 for x, y in ("ab", "bc", "ca")))
    margins = {(0, 0, 0): 1}
    for _ in range(voters):
        after = {}
        for (x, y, z), count in margins.items():
            for dx, dy, dz in steps:
                key = (x + dx, y + dy, z + dz)
                after[key] = after.get(key, 0) + count
        margins = after
    cycles = sum(count for (x, y, z), count in margins.items()
                 if (x > 0 and y > 0 and z > 0) or (x < 0 and y < 0 and z < 0))
    return 1 - Fraction(cycles, 6 ** voters)


@pytest.mark.parametrize(
    "n, k",
    [(n, k) for n in range(1, 6) for k in range(1, 4) if (n, k) != (5, 3)] + [(3, 4), (3, 5)],
)
def test_impartial_programme_matches_the_walk(n, k):
    """The walk over the n! expanded rankings, which assumes no symmetry and
    walks every alternative, is the programme's oracle."""
    result = condorcet_probability(impartial_culture(n), k)
    walked = condorcet_probability(impartial_culture(n).expand(), k)
    assert (result.method, walked.method) == ("dp", "enumeration")
    assert result.value == walked.value
    assert result.per_alternative == walked.per_alternative


@pytest.mark.parametrize("n", [50, 200])
def test_impartial_programme_matches_the_three_voter_formula(n):
    assert condorcet_probability(impartial_culture(n), 2).value == _three_voter_probability(n)


def test_impartial_programme_matches_the_margin_recursion():
    for k in range(1, 13):
        result = condorcet_probability(impartial_culture(3), k)
        assert result.value == _three_alternative_probability(2 * k - 1), k


def test_impartial_programme_is_one_where_a_winner_is_certain():
    # n <= 2 makes no move at all; k = 1 leaves every rival in class 0
    for n in (1, 2):
        for k in (1, 2, 5, 1000):
            result = condorcet_probability(impartial_culture(n), k)
            assert (result.value, result.moves) == (1, 0)
            assert result.per_alternative == (Fraction(1, n),) * n
    for n in range(1, 9):
        assert condorcet_probability(impartial_culture(n), 1).value == 1


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (4, 3), (6, 2), (3, 9), (7, 3)])
def test_impartial_moves_stay_within_the_bound(n, k):
    """The move count the cap checks is exact, not only a bound."""
    result = condorcet_probability(impartial_culture(n), k)
    assert result.moves == exact.impartial_move_count(n, k) > 0


def test_impartial_move_count_at_pinned_cells():
    # at k = 2 voter 0 makes n moves and voter 1 makes n + (n-1) + ... + 1
    assert exact.impartial_move_count(200, 2) == 200 + 200 * 201 // 2 == 20300
    assert exact.impartial_move_count(100, 3) == 9014350
    assert exact.impartial_move_count(24, 4) == 1525964
    assert exact.impartial_move_count(3, 1) == 0


def test_impartial_move_cap_refuses_before_any_move(monkeypatch):
    needed = exact.impartial_move_count(4, 2)
    assert needed == 4 + math.comb(5, 2) == 14
    assert condorcet_probability(impartial_culture(4), 2, max_winner_checks=needed).moves == needed

    def refuse(*args):
        raise AssertionError("built a move of a programme the cap refuses")

    monkeypatch.setattr(exact, "_histogram_moves", refuse)
    with pytest.raises(CapExceededError) as exc:
        condorcet_probability(impartial_culture(4), 2, max_winner_checks=needed - 1)
    assert (exc.value.cap_name, exc.value.needed, exc.value.cap) == (
        "max_winner_checks", needed, needed - 1)
    with pytest.raises(CapExceededError) as exc:
        condorcet_probability(impartial_culture(800), 2, max_winner_checks=1000)
    assert exc.value.needed == 800 + math.comb(801, 2)


def _ordered_tuple_oracle(culture, k):
    """Winner mass per alternative summed over ordered voter tuples, each
    tuple's winner found by the naive all-pairs check."""
    per_alt = [Fraction(0)] * culture.n
    for tup in itertools.product(culture.entries, repeat=2 * k - 1):
        weight = math.prod((w for _, w in tup), start=Fraction(1))
        profile = Profile(tuple(r for r, _ in tup), k)
        winner = find_condorcet_winner(profile).winner
        if winner is not None:
            per_alt[winner] += weight
    return per_alt


@pytest.mark.parametrize(
    "culture",
    [
        culture_from_entries(
            3, [((0, 1, 2), "1/3"), ((1, 2, 0), "1/4"), ((2, 1, 0), "1/4"), ((2, 0, 1), "1/6")]
        ),
        culture_from_entries(
            4,
            [((0, 1, 2, 3), "1/2"), ((3, 2, 1, 0), "0"), ((1, 3, 0, 2), "1/3"), ((2, 0, 3, 1), "1/6")],
        ),
        culture_from_entries(1, [((0,), "1")]),
    ],
    ids=["mixed_denominators", "zero_weight", "one_alternative"],
)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumeration_matches_ordered_tuple_oracle(culture, k):
    # k = 1, 2..3 and 4 give packed fields of 2, 3 and 4 bits
    result = condorcet_probability(culture, k)
    expected = _ordered_tuple_oracle(culture, k)
    assert list(result.per_alternative) == expected
    assert result.value == sum(expected)


def test_winner_checks_count_the_checks_made(monkeypatch):
    calls = []
    check = exact._multiset_winner

    def counted(tally, against):
        calls.append(tally)
        return check(tally, against)

    monkeypatch.setattr(exact, "_multiset_winner", counted)
    cases = (
        (impartial_culture(3).expand(), 2),
        (cyclic_culture(5), 3),
        (impartial_culture(2).expand(), 1),
        (impartial_culture(2).expand(), 1000),
        (cyclic_culture(12), 4),
        (cyclic_culture(5).expand(), 3),
    )
    checks = {}
    for culture, k in cases:
        result = condorcet_probability(culture, k)
        assert result.method == "enumeration" and result.moves is None
        walked = 1 if culture.kind == "cyclic" else culture.n
        assert len(calls) == result.winner_checks, (culture.kind, culture.n, k)
        assert result.winner_checks <= walked * multiset_count(culture.support_size, k)
        checks[culture.kind, culture.n, k] = result.winner_checks
        calls.clear()
    # the cut, not the result, is what keeps the cyclic minimiser cheap
    assert multiset_count(12, 4) == 31824
    assert checks["cyclic", 12, 4] < 31824 // 10


@pytest.mark.parametrize(
    "culture, k",
    [
        (cyclic_culture(5), 2),
        (cyclic_culture(6), 3),
        (cyclic_culture(7), 2),
        (impartial_culture(3), 3),
        (impartial_culture(4), 2),
    ],
    ids=["cyclic_5_2", "cyclic_6_3", "cyclic_7_2", "impartial_3_3", "impartial_4_2"],
)
def test_symmetric_shortcut_matches_every_walk(culture, k):
    # the explicit expansion assumes no symmetry and walks every alternative
    symbolic = condorcet_probability(culture, k)
    walked = condorcet_probability(culture.expand(), k)
    assert walked.per_alternative == symbolic.per_alternative
    assert walked.value == symbolic.value


@pytest.mark.parametrize(
    "culture, k",
    [
        (impartial_culture(3), 2),
        (impartial_culture(3), 3),
        (cyclic_culture(4), 2),
        (cyclic_culture(5), 3),
    ],
    ids=["impartial_3_2", "impartial_3_3", "cyclic_4_2", "cyclic_5_3"],
)
def test_symmetric_cultures_match_ordered_tuple_oracle(culture, k):
    expected = _ordered_tuple_oracle(culture.expand(), k)
    assert list(condorcet_probability(culture, k).per_alternative) == expected


def _sum_form_pack(culture, k):
    """The naive full-pair packing: ordered pair (a, b) owns the field at
    bit w * (a * n + b), set when a ranking puts a above b.  Each int is a
    sum of one shifted int per field it sets, O(n^4 w) bit work per ranking,
    kept as the oracle of the linear column packing."""
    n = culture.n
    width = k.bit_length() + 1
    bit = [[1 << (width * (a * n + b)) for b in range(n)] for a in range(n)]
    packed = []
    for ranking, _ in culture.entries:
        order = ranking.order
        packed.append(sum(bit[a][b] for i, a in enumerate(order) for b in order[i + 1:]))
    return packed


def _column(full, n, k, a):
    """Column a of a full-pair packing: field (b, a) moved to field b."""
    width = k.bit_length() + 1
    field = (1 << width) - 1
    return sum((full >> width * (b * n + a) & field) << width * b for b in range(n))


def _random_explicit_culture(n, seed):
    """Up to four distinct rankings of n alternatives drawn from a seeded
    generator, with weights of several denominators."""
    orders = random.Random(seed).sample(list(itertools.permutations(range(n))),
                                        min(4, math.factorial(n)))
    raw = [6, 4, 1, 1][:len(orders)]
    return culture_from_entries(n, [(o, Fraction(r, sum(raw))) for o, r in zip(orders, raw)])


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("n", range(1, 8))
def test_pack_matches_sum_form(n, k):
    # k = 1, 2..3 and 5 give fields of 2, 3 and 4 bits
    cultures = [impartial_culture(n).expand(), cyclic_culture(n).expand(),
                _random_explicit_culture(n, 100 * n + k)]
    for culture in cultures:
        full = _sum_form_pack(culture, k)
        positions = np.array([ranking.positions for ranking, _ in culture.entries])
        for a in range(n):
            columns = [_column(packed, n, k, a) for packed in full]
            assert exact._pack(positions, k, a) == columns, (culture.kind, a)


def test_cyclic_minimiser_at_two_hundred_alternatives():
    # linear packing puts n in the hundreds within reach of enumeration
    result = condorcet_probability(cyclic_culture(200), 2)
    assert result.value == min_condorcet_probability(200, 2)
    assert result.winner_checks == 200


@pytest.mark.parametrize("n, k, checks", [(1000, 2, 1000), (200, 3, 20100)])
def test_cyclic_minimiser_at_hundreds_of_alternatives(n, k, checks):
    # column packing puts n in the thousands within reach of enumeration; the
    # multiset counts, 1.7e8 and 2.8e9, exceed the default winner-check cap
    result = condorcet_probability(cyclic_culture(n), k, max_winner_checks=10 ** 10)
    assert result.value == min_condorcet_probability(n, k)
    assert result.winner_checks == checks


def test_impartial_three_voter_paradox_at_six_alternatives():
    # the classical three-voter value: no winner with probability 0.2022
    result = condorcet_probability(impartial_culture(6), 2)
    assert result.value == Fraction(359, 450)
    assert result.per_alternative == (Fraction(359, 2700),) * 6


def test_winner_check_cap():
    with pytest.raises(CapExceededError) as exc:
        condorcet_probability(impartial_culture(4).expand(), 2, max_winner_checks=100)
    assert exc.value.cap_name == "max_winner_checks"
    assert exc.value.needed == math.comb(24 + 2, 3)


def test_winner_check_cap_refuses_before_expanding(monkeypatch):
    # 900 rotations fit the support cap, but their multisets exceed the
    # winner-check cap, so neither the support nor its table is ever built
    def refuse(self, *args, **kwargs):
        raise AssertionError("built the support of a culture the winner-check cap refuses")

    monkeypatch.setattr(Culture, "expand", refuse)
    monkeypatch.setattr(Culture, "support_positions", refuse)
    with pytest.raises(CapExceededError) as exc:
        condorcet_probability(cyclic_culture(900), 2)
    assert exc.value.cap_name == "max_winner_checks"
    assert exc.value.needed == multiset_count(900, 2) > exact.MAX_WINNER_CHECKS


@pytest.mark.parametrize("culture, k", [(impartial_culture(4), 2), (cyclic_culture(12), 4)],
                         ids=["impartial_4_2", "cyclic_12_4"])
def test_named_kinds_enumerate_without_rankings(monkeypatch, culture, k):
    """The named kinds need no Ranking on the way, nor an expanded culture:
    the cyclic table comes straight from the kind, and the impartial
    programme builds no support at all."""
    expected = condorcet_probability(culture.expand(), k)

    def refuse(self, *args):
        raise AssertionError("built a Ranking")

    monkeypatch.setattr(Ranking, "__post_init__", refuse)
    monkeypatch.setattr(Culture, "expand", refuse)
    result = condorcet_probability(culture, k)
    assert (result.value, result.per_alternative) == (expected.value, expected.per_alternative)


def test_support_cap():
    with pytest.raises(SupportTooLargeError):
        condorcet_probability(cyclic_culture(MAX_EXPLICIT_SUPPORT + 1), 2)
    with pytest.raises(SupportTooLargeError):
        condorcet_probability(impartial_culture(4).expand(), 2, max_support=10)
    # the impartial programme tabulates no support, so no support cap applies
    assert condorcet_probability(impartial_culture(10), 2, max_support=1).method == "dp"


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        condorcet_probability(impartial_culture(3), 0)
    with pytest.raises(ValueError):
        min_condorcet_probability(3, 0)
    with pytest.raises(ValueError):
        marginal_lower_bound(impartial_culture(3), -1)


def test_min_probability_closed_form_values():
    assert min_condorcet_probability(3, 2) == Fraction(7, 9)
    assert min_condorcet_probability(5, 3) == Fraction(181, 625)
    # n <= 2 or k = 1: some alternative always wins
    for k in (1, 2, 5):
        assert min_condorcet_probability(1, k) == 1
        assert min_condorcet_probability(2, k) == 1
    for n in (3, 10, 41):
        assert min_condorcet_probability(n, 1) == 1


def test_cyclic_culture_attains_the_minimum():
    cases = [(n, k) for n in (3, 4, 5) for k in (1, 2)] + [(3, 10), (3, 25), (3, 40)]
    cases += [(12, 4), (10, 5), (16, 5), (8, 8)]
    for n, k in cases:
        enumerated = condorcet_probability(cyclic_culture(n), k).value
        assert enumerated == min_condorcet_probability(n, k), (n, k)


@pytest.mark.parametrize("k", [1, 2, 30, 200])
def test_two_rankings_many_voters(k):
    # tiny support, many voters: each alternative wins with its majority tail
    culture = culture_from_entries(2, [((0, 1), "1/3"), ((1, 0), "2/3")])
    result = condorcet_probability(culture, k)
    assert result.per_alternative == (
        majority_tail_exact(k, Fraction(1, 3)),
        majority_tail_exact(k, Fraction(2, 3)),
    )
    assert result.value == 1


def test_min_probability_equals_scaled_tail():
    # the closed form is n times the majority tail at 1/n, exactly
    for n in range(1, 13):
        for k in range(1, 5):
            assert min_condorcet_probability(n, k) == n * majority_tail_exact(
                k, Fraction(1, n)
            )


def test_marginal_bound_uniform_case():
    for n in (3, 4, 6):
        for k in (1, 2, 3):
            bound = marginal_lower_bound(impartial_culture(n), k)
            assert bound == n * majority_tail_exact(k, Fraction(1, n))


def test_marginal_bound_is_a_lower_bound():
    culture = culture_from_entries(
        3, [((0, 1, 2), "1/2"), ((1, 0, 2), "1/2")]
    )
    # both top marginals are 1/2, so the bound is 2 * tail(k, 1/2) = 1, and
    # alternative 2 never wins: one of 0, 1 holds the majority and beats both
    for k in (1, 2, 3):
        assert marginal_lower_bound(culture, k) == 1
        assert condorcet_probability(culture, k).value == 1

    point_mass = culture_from_entries(3, [((2, 0, 1), "1")])
    assert marginal_lower_bound(point_mass, 2) == 1
    assert condorcet_probability(point_mass, 2).value == 1


def test_marginal_bound_below_exact_on_skewed_culture():
    culture = culture_from_entries(
        4,
        [
            ((0, 1, 2, 3), "1/3"),
            ((1, 2, 3, 0), "1/4"),
            ((2, 3, 0, 1), "1/4"),
            ((3, 0, 1, 2), "1/6"),
        ],
    )
    for k in (1, 2):
        bound = marginal_lower_bound(culture, k)
        exact = condorcet_probability(culture, k).value
        assert bound <= exact
