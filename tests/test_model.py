import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import condorcet
from condorcet.cultures import cyclic_culture, impartial_culture
from condorcet.model import (
    MAX_EXPLICIT_SUPPORT,
    NAMED_KINDS,
    Culture,
    Profile,
    Ranking,
    SupportTooLargeError,
    culture_from_entries,
    culture_from_json_obj,
    culture_to_json_obj,
    load_culture,
    parse_probability,
    rotation_ranking,
    save_culture,
)


def test_ranking_rejects_non_permutation():
    with pytest.raises(ValueError):
        Ranking((0, 0, 1))
    with pytest.raises(ValueError):
        Ranking((1, 2, 3))
    with pytest.raises(ValueError):
        Ranking(())


def test_ranking_accessors():
    r = Ranking((2, 0, 1))
    assert r.n == 3
    assert r.top == 2
    assert r.positions == (1, 2, 0)


@given(st.permutations(list(range(6))))
def test_positions_is_inverse_permutation(order):
    r = Ranking(order)
    for rank, alt in enumerate(order):
        assert r.positions[alt] == rank


def test_rotation_ranking_wraps():
    assert rotation_ranking(4, 0).order == (0, 1, 2, 3)
    assert rotation_ranking(4, 2).order == (2, 3, 0, 1)
    assert rotation_ranking(1, 0).order == (0,)


def test_parse_probability_is_exact():
    assert parse_probability("0.25") == Fraction(1, 4)
    assert parse_probability("1/6") == Fraction(1, 6)
    # decimal strings parse over a power of ten, not through a float
    assert parse_probability("0.1") == Fraction(1, 10)
    assert parse_probability("0.1") != Fraction(0.1)


def test_parse_probability_rejects_out_of_range():
    with pytest.raises(ValueError):
        parse_probability("-0.1")
    with pytest.raises(ValueError):
        parse_probability("1.5")


def test_culture_weight_sum_must_be_one():
    with pytest.raises(ValueError, match="sum"):
        culture_from_entries(2, [((0, 1), "0.5"), ((1, 0), "0.4")])


def test_culture_rejects_duplicate_rankings():
    with pytest.raises(ValueError, match="duplicate"):
        culture_from_entries(2, [((0, 1), "0.5"), ((0, 1), "0.5")])


def test_culture_rejects_mismatched_ranking_length():
    with pytest.raises(ValueError):
        Culture(3, "explicit", ((Ranking((0, 1)), Fraction(1)),))


def test_culture_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        Culture(3, "urn")


def test_cyclic_culture_shape():
    c = cyclic_culture(4)
    assert c.entries is None
    assert c.support_size == 4
    expanded = c.expand()
    assert expanded.kind == "explicit"
    assert len(expanded.entries) == 4
    share = Fraction(1, 4)
    for i, (r, w) in enumerate(expanded.entries):
        assert w == share
        assert r.order == rotation_ranking(4, i).order


def test_cyclic_expand_equals_validated_rotations():
    """expand's rotations are the rotation rankings, hash alike and carry
    the same positions."""
    for n in (1, 2, 3, 7, 50, 301):
        expanded = cyclic_culture(n).expand()
        rankings = [r for r, _ in expanded.entries]
        assert rankings == [rotation_ranking(n, s) for s in range(n)]
        assert {hash(r) for r in rankings} == {hash(rotation_ranking(n, s)) for s in range(n)}
        assert all(type(r.order) is tuple and r.order == Ranking(r.order).order for r in rankings)
        assert rankings[-1].positions == rotation_ranking(n, n - 1).positions


def test_impartial_expand_equals_validated_permutations():
    for n in (1, 3, 5):
        rankings = [r for r, _ in impartial_culture(n).expand().entries]
        assert rankings == [Ranking(p) for p in itertools.permutations(range(n))]


@pytest.mark.parametrize("kind", NAMED_KINDS)
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_expanded_culture_equals_validated_explicit_culture(kind, n):
    # expand builds its culture through the validating constructor
    expanded = Culture(n, kind).expand()
    validated = Culture(n, "explicit", expanded.entries)
    assert expanded == validated
    assert hash(expanded) == hash(validated)
    assert expanded.support_size == validated.support_size == Culture(n, kind).support_size


EXPLICIT_SUPPORTS = [
    culture_from_entries(3, [((2, 0, 1), "1/2"), ((0, 1, 2), "1/3"), ((1, 2, 0), "1/6")]),
    culture_from_entries(5, [((4, 3, 2, 1, 0), "0.25"), ((1, 3, 0, 4, 2), "0.75")]),
]


# The impartial kind has no table of its own; the exact engine's test
# oracle walks the table of its expansion.
IMPARTIAL_EXPANSIONS = [impartial_culture(n).expand() for n in range(1, 7)]


@pytest.mark.parametrize(
    "culture",
    IMPARTIAL_EXPANSIONS
    + [cyclic_culture(n) for n in range(1, 10)]
    + EXPLICIT_SUPPORTS,
    ids=[f"impartial{n}" for n in range(1, 7)] + [f"cyclic{n}" for n in range(1, 10)]
    + ["explicit3", "explicit5"],
)
def test_support_positions_are_the_expanded_positions(culture):
    """Row i of the table is support ranking i of expand, in int16; the
    cyclic table is a view nothing may write through.  An impartial
    expansion's rows invert the n! permutations in lexicographic order."""
    table = culture.support_positions()
    expected = np.array([r.positions for r, _ in culture.expand().entries])
    assert table.dtype == np.int16
    assert table.shape == expected.shape == (culture.support_size, culture.n)
    assert (table == expected).all()
    if culture in IMPARTIAL_EXPANSIONS:
        orders = np.array(list(itertools.permutations(range(culture.n))))
        assert (table == np.argsort(orders, axis=1)).all()
    if culture.kind == "cyclic":
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_impartial_support_positions_are_refused():
    """No engine reads the impartial kind's n! rows, so it builds none."""
    for n in (1, 3, 12):
        with pytest.raises(ValueError, match="no support table"):
            impartial_culture(n).support_positions()


def test_cyclic_support_positions_beyond_int16():
    n = 40_000
    table = cyclic_culture(n).support_positions()
    assert table.dtype == np.int32 and table.shape == (n, n)
    for s in (0, 1, 12_345, 32_767, 32_768, n - 1):
        assert tuple(table[s].tolist()) == rotation_ranking(n, s).positions


def test_cyclic_support_positions_are_never_refused():
    """Monte Carlo draws from this table at any n; a support of a million
    and one rotations, above the exact engine's support cap, still builds,
    in O(n) memory."""
    n = MAX_EXPLICIT_SUPPORT + 1
    table = cyclic_culture(n).support_positions()
    assert table.shape == (n, n) and table.dtype == np.int32
    alternatives = np.arange(n)
    for s in (0, 7, n - 1):
        assert (table[s] == (alternatives - s) % n).all()


def test_cyclic_kind_validates_entries():
    # a named kind is symbolic: not even its own support is kept as entries
    for kind in NAMED_KINDS:
        entries = Culture(3, kind).expand().entries
        with pytest.raises(ValueError, match=f"{kind} culture keeps no explicit entries"):
            Culture(3, kind, entries)


def test_expand_is_the_support_cap_for_every_kind():
    with pytest.raises(SupportTooLargeError) as exc:
        cyclic_culture(3).expand(max_support=2)
    assert (exc.value.needed, exc.value.cap) == (3, 2)
    two = culture_from_entries(2, [((0, 1), "1/2"), ((1, 0), "1/2")])
    with pytest.raises(SupportTooLargeError):
        two.expand(max_support=1)
    assert two.expand(max_support=2) is two


def test_impartial_expand_and_cap():
    c = impartial_culture(3)
    assert c.support_size == 6
    expanded = c.expand()
    assert len(expanded.entries) == 6
    assert all(w == Fraction(1, 6) for _, w in expanded.entries)

    big = impartial_culture(10)  # 10! > 10**6
    assert big.support_size == math.factorial(10)
    with pytest.raises(SupportTooLargeError) as exc:
        big.expand()
    assert exc.value.cap_name == "max_support"


def test_top_marginals_sum_to_one():
    c = culture_from_entries(
        3, [((0, 1, 2), "1/2"), ((1, 0, 2), "1/3"), ((0, 2, 1), "1/6")]
    )
    marg = c.top_marginals()
    assert marg == (Fraction(2, 3), Fraction(1, 3), Fraction(0))
    assert sum(marg) == 1

    assert impartial_culture(5).top_marginals() == (Fraction(1, 5),) * 5
    assert cyclic_culture(5).top_marginals() == (Fraction(1, 5),) * 5


@st.composite
def explicit_cultures(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    perms = draw(
        st.lists(
            st.permutations(list(range(n))).map(tuple),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    numerators = draw(
        st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=len(perms),
            max_size=len(perms),
        )
    )
    total = sum(numerators)
    entries = tuple(
        (Ranking(p), Fraction(a, total)) for p, a in zip(perms, numerators)
    )
    return Culture(n, "explicit", entries)


@given(explicit_cultures())
def test_json_round_trip_weight_exact(culture):
    obj = culture_to_json_obj(culture)
    back = culture_from_json_obj(json.loads(json.dumps(obj)))
    assert back == culture


def test_save_load_round_trip(tmp_path):
    c = culture_from_entries(3, [((2, 1, 0), "0.75"), ((0, 1, 2), "1/4")])
    path = tmp_path / "culture.json"
    save_culture(c, str(path))
    assert load_culture(str(path)) == c


def test_load_culture_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid culture file"):
        load_culture(str(path))


def test_culture_from_json_obj_requires_fields():
    with pytest.raises(ValueError):
        culture_from_json_obj({"entries": []})
    with pytest.raises(ValueError):
        culture_from_json_obj({"n": 3})


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"n": 3, "entries": [{"ranking": [0.9, 1.2, 2.7], "p": "1"}]},
         "culture entry 0 is invalid (ranking entry must be an integer, got 0.9)"),
        ({"n": 3.5, "kind": "cyclic"}, "culture 'n' must be an integer, got 3.5"),
        ({"n": True, "kind": "cyclic"}, "culture 'n' must be an integer, got True"),
    ],
    ids=["float_ranking", "float_n", "bool_n"],
)
def test_culture_object_rejects_lossy_integers(obj, message):
    """A float or bool where an integer belongs is refused by name, not
    truncated: these loaded as the ranking (0, 1, 2), n = 3 and n = 1."""
    with pytest.raises(ValueError) as caught:
        culture_from_json_obj(obj)
    assert message in str(caught.value)


def test_ranking_takes_ints_and_numpy_integers_only():
    assert Ranking(np.array([2, 0, 1])).order == (2, 0, 1)
    assert all(type(a) is int for a in Ranking(np.array([2, 0, 1])).order)
    for order in ((0.0, 1.0), (False, True), ("0", "1")):
        with pytest.raises(ValueError, match="ranking entry must be an integer"):
            Ranking(order)


@pytest.mark.parametrize("kind", NAMED_KINDS)
def test_named_kind_json_round_trip(kind):
    culture = Culture(5, kind)
    assert culture_to_json_obj(culture) == {"n": 5, "kind": kind}
    assert culture_from_json_obj({"n": 5, "kind": kind}) == culture


def test_unknown_kind_in_culture_object():
    with pytest.raises(ValueError, match="unknown culture kind 'urn'"):
        culture_from_json_obj({"n": 3, "kind": "urn"})


def _listed(culture):
    return [{"ranking": list(r.order), "p": str(w)} for r, w in culture.expand().entries]


def test_named_kind_with_its_support_listed_loads():
    # cyclic files used to list the n rotations; any order of them loads
    obj = {"n": 4, "kind": "cyclic", "entries": _listed(cyclic_culture(4))[::-1]}
    assert culture_from_json_obj(obj) == cyclic_culture(4)
    obj = {"n": 3, "kind": "impartial", "entries": _listed(impartial_culture(3))}
    assert culture_from_json_obj(obj) == impartial_culture(3)


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 3, "kind": "cyclic", "entries": [
            {"ranking": [0, 1, 2], "p": "1/2"},
            {"ranking": [1, 2, 0], "p": "1/4"},
            {"ranking": [2, 0, 1], "p": "1/4"},
        ]},
        {"n": 3, "kind": "cyclic", "entries": [
            {"ranking": [0, 1, 2], "p": "1/3"},
            {"ranking": [1, 2, 0], "p": "1/3"},
            {"ranking": [2, 1, 0], "p": "1/3"},
        ]},
        {"n": 3, "kind": "impartial", "entries": [
            {"ranking": [0, 1, 2], "p": "1/2"},
            {"ranking": [2, 1, 0], "p": "1/2"},
        ]},
    ],
    ids=["cyclic_weights", "cyclic_rankings", "impartial_two_rankings"],
)
def test_named_kind_with_other_entries_is_rejected(obj):
    with pytest.raises(ValueError, match=f"{obj['kind']} culture entries must be exactly"):
        culture_from_json_obj(obj)


def test_public_names_exist_once():
    names = condorcet.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(condorcet, name)] == []


def test_profile_requires_odd_matching_count():
    r = Ranking((0, 1, 2))
    with pytest.raises(ValueError):
        Profile((r, r), 2)  # 2k-1 = 3, gave 2
    with pytest.raises(ValueError):
        Profile((r, Ranking((0, 1))), 1)  # mixed n with k=1... count wrong too
    mixed = (r, r, Ranking((1, 0)))
    with pytest.raises(ValueError):
        Profile(mixed, 2)


def test_profile_positions_match_voters():
    voters = (Ranking((2, 0, 1)), Ranking((0, 1, 2)), Ranking((1, 2, 0)))
    p = Profile(voters, 2)
    assert p.n == 3
    assert p.positions == tuple(v.positions for v in voters)
