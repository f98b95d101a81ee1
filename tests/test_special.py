import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condorcet.special import (
    _derivative_coefficient,
    _tail_numerator,
    elementary_symmetric,
    majority_tail,
    majority_tail_derivative,
    majority_tail_exact,
    poisson_binomial_tail,
)


def esp_by_subsets(ell, xs):
    """Oracle: sum of products over all size-ell subsets, exponential time."""
    total = xs[0] * 0
    for combo in combinations(xs, ell):
        prod = xs[0] * 0 + 1
        for x in combo:
            prod = prod * x
        total = total + prod
    return total


def tail_by_outcomes(xs, k):
    """Oracle: exact tail by summing over all 2^m success patterns."""
    m = len(xs)
    total = Fraction(0)
    for mask in range(1 << m):
        successes = bin(mask).count("1")
        if successes < k:
            continue
        prob = Fraction(1)
        for i, x in enumerate(xs):
            prob *= x if (mask >> i) & 1 else 1 - x
        total += prob
    return total


def test_elementary_symmetric_matches_subset_sum():
    rnd = __import__("random").Random(5)
    for m in range(1, 13):
        xs = [rnd.random() for _ in range(m)]
        for ell in range(1, m + 1):
            dp = elementary_symmetric(ell, xs)
            direct = esp_by_subsets(ell, xs)
            assert dp == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_elementary_symmetric_exact_on_fractions():
    xs = [Fraction(1, 3), Fraction(2, 5), Fraction(7, 11), Fraction(1, 2)]
    for ell in range(1, 5):
        assert elementary_symmetric(ell, xs) == esp_by_subsets(ell, xs)


def test_elementary_symmetric_range_check():
    with pytest.raises(ValueError):
        elementary_symmetric(0, [0.5])
    with pytest.raises(ValueError):
        elementary_symmetric(3, [0.5, 0.5])


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=9),
    st.data(),
)
def test_elementary_symmetric_permutation_invariant(xs, data):
    ell = data.draw(st.integers(min_value=1, max_value=len(xs)))
    shuffled = data.draw(st.permutations(xs))
    assert elementary_symmetric(ell, xs) == pytest.approx(
        elementary_symmetric(ell, list(shuffled)), rel=1e-12, abs=1e-12
    )


def test_poisson_binomial_tail_matches_outcome_sum():
    rnd = __import__("random").Random(17)
    for k in (1, 2, 3):
        m = 2 * k - 1
        for _ in range(50):
            qs = [Fraction(rnd.randint(0, 64), 64) for _ in range(m)]
            expected = tail_by_outcomes(qs, k)
            got = poisson_binomial_tail([float(q) for q in qs], k)
            assert got == pytest.approx(float(expected), abs=1e-12)


def test_poisson_binomial_tail_validates_input():
    with pytest.raises(ValueError, match="coordinates"):
        poisson_binomial_tail([0.5, 0.5], 1)
    with pytest.raises(ValueError, match="outside"):
        poisson_binomial_tail([0.5, 1.5, 0.5], 2)


def test_batched_tail_and_symmetric_polynomial_match_row_calls():
    """A 2-D call (one vector per row) runs the scalar dynamic program on
    the columns, in the same order, so every row is bit-identical to the
    call on that row alone, corner rows included."""
    rng = np.random.default_rng(23)
    for k in range(1, 5):
        m = 2 * k - 1
        corners = [(0.0,) * m, (1.0,) * m, (0.5,) * m, (1e-9,) * m,
                   (1.0,) + (0.0,) * (m - 1), (0.0,) + (0.5,) * (m - 1)]
        rows = np.vstack([rng.random((300, m)), corners])
        as_tuples = [tuple(row) for row in rows.tolist()]
        tails = poisson_binomial_tail(rows, k)
        assert tails.shape == (len(rows),)
        assert np.array_equal(tails, [poisson_binomial_tail(xs, k) for xs in as_tuples])
        for ell in range(1, m + 1):
            sigmas = elementary_symmetric(ell, rows)
            assert np.array_equal(sigmas, [elementary_symmetric(ell, xs) for xs in as_tuples])


def test_batched_tail_validates_input():
    with pytest.raises(ValueError, match="coordinates"):
        poisson_binomial_tail(np.full((4, 2), 0.5), 2)
    with pytest.raises(ValueError, match="outside"):
        poisson_binomial_tail(np.array([[0.5, 0.5, 0.5], [0.5, 1.0 + 1e-12, 0.5]]), 2)
    with pytest.raises(ValueError):
        elementary_symmetric(4, np.full((4, 3), 0.5))


def fraction_loop_tail(k, x):
    """The rational majority tail as a sum of Fraction products, term by term."""
    xf = Fraction(x)
    m = 2 * k - 1
    total = Fraction(0)
    for l in range(k):
        total += math.comb(m, l) * xf ** (m - l) * (1 - xf) ** l
    return total


def test_majority_tail_exact_matches_fraction_loop():
    points = [0, 1, 0.0, 1.0, 0.3, 0.75, 1e-9, Fraction(1, 2), Fraction(2, 6),
              Fraction(0), Fraction(1), Fraction(9, 10)]
    for k in range(1, 9):
        for x in points:
            got = majority_tail_exact(k, x)
            assert type(got) is Fraction
            assert got == fraction_loop_tail(k, x)
        for n in range(1, 61):
            assert n * majority_tail_exact(k, Fraction(1, n)) == n * fraction_loop_tail(
                k, Fraction(1, n)
            )


def test_tail_numerator_horner_matches_term_sum():
    """The Horner form equals the term-by-term sum, on pairs that include
    both ends p = 0 and p = q."""
    pairs = [(p, q) for q in (1, 2, 3, 7, 200) for p in sorted({0, 1, q // 2, q - 1, q})]
    pairs += [(123456789, 987654321), (3, 10**30)]
    for k in range(1, 13):
        m = 2 * k - 1
        for p, q in pairs:
            terms = sum(math.comb(m, l) * p ** (m - l) * (q - p) ** l for l in range(k))
            assert _tail_numerator(k, p, q) == terms, (k, p, q)
        assert _tail_numerator(k, 0, 5) == 0
        assert _tail_numerator(k, 5, 5) == 5 ** m
        # object arrays of Python ints run elementwise, exactly
        p = np.array([p for p, _ in pairs], dtype=object)
        q = np.array([q for _, q in pairs], dtype=object)
        assert list(_tail_numerator(k, p, q)) == [_tail_numerator(k, *pair) for pair in pairs]
        n = np.arange(1, 60, dtype=object)
        assert list(_tail_numerator(k, 1, n)) == [_tail_numerator(k, 1, int(v)) for v in n]


def test_equal_coordinate_identity():
    # the tail of 2k-1 equal coins is the majority tail, to 1e-12
    for k in range(1, 6):
        m = 2 * k - 1
        for i in range(0, 101):
            x = i / 100.0
            lhs = poisson_binomial_tail((x,) * m, k)
            rhs = majority_tail(k, x)
            assert abs(lhs - rhs) <= 1e-12


def test_majority_tail_endpoints_and_half():
    for k in range(1, 8):
        assert majority_tail(k, 0.0) == 0.0
        assert majority_tail(k, 1.0) == 1.0
        assert majority_tail_exact(k, Fraction(1, 2)) == Fraction(1, 2)


def test_majority_tail_exact_agrees_with_float():
    for k in range(1, 7):
        for i in range(0, 33):
            x = Fraction(i, 32)
            assert majority_tail(k, float(x)) == pytest.approx(
                float(majority_tail_exact(k, x)), abs=1e-13
            )


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_majority_tail_monotone_in_x(k, a, b):
    lo, hi = sorted((a, b))
    assert majority_tail(k, lo) <= majority_tail(k, hi) + 1e-12


@given(st.integers(min_value=1, max_value=6), st.floats(min_value=0.0, max_value=1.0))
def test_majority_tail_in_unit_interval(k, x):
    assert -1e-15 <= majority_tail(k, x) <= 1.0 + 1e-15


def test_majority_tail_symmetry_exact():
    for k in range(1, 7):
        for i in range(0, 65):
            x = Fraction(i, 64)
            assert majority_tail_exact(k, x) + majority_tail_exact(k, 1 - x) == 1


def test_majority_tail_rejects_bad_input():
    with pytest.raises(ValueError):
        majority_tail(0, 0.5)
    with pytest.raises(ValueError):
        majority_tail(2, -0.01)
    with pytest.raises(ValueError):
        majority_tail_exact(2, Fraction(3, 2))


def test_derivative_closed_form_small_k():
    # k=2: d/dx of 3x^2 - 2x^3 is 6x(1-x)
    for x in (0.0, 0.1, 0.37, 0.5, 0.93, 1.0):
        assert majority_tail_derivative(2, x) == pytest.approx(
            6.0 * x * (1.0 - x), abs=1e-13
        )
    assert majority_tail_derivative(1, 0.25) == 1.0


def test_derivative_positive_inside_zero_at_ends():
    for k in range(2, 7):
        assert majority_tail_derivative(k, 0.0) == 0.0
        assert majority_tail_derivative(k, 1.0) == 0.0
        assert majority_tail_derivative(k, 0.4) > 0.0


def test_derivative_coefficient_is_one_rounded_integer():
    """(2k-1)! / ((k-1)!)^2 = k * C(2k-1, k) is rounded to a float once, for
    every k up to the last one a float holds."""
    for k in range(1, 511):
        assert _derivative_coefficient(k) == float(k * math.comb(2 * k - 1, k))
    with pytest.raises(OverflowError):
        _derivative_coefficient(511)


def test_derivative_log_gamma_branch_continuous():
    # the exact coefficient agrees with its log-gamma form
    x = 0.31
    exact_coeff = math.factorial(41) / math.factorial(20) ** 2
    lg_coeff = math.exp(math.lgamma(42) - 2 * math.lgamma(21))
    assert lg_coeff == pytest.approx(exact_coeff, rel=1e-12)
    assert majority_tail_derivative(21, x) == pytest.approx(
        lg_coeff * (x * (1 - x)) ** 20, rel=1e-12
    )


def test_tail_and_derivative_on_arrays_match_scalar_calls():
    """Arrays run the scalar formula elementwise.  numpy's vectorized power
    and Python's float power may round x**e one ulp apart, so the two agree
    to a few ulps (measured at most 4 for the tail, 2 for the derivative on
    a 10^5-point grid, k <= 40), and exactly where every power is exact."""
    xs = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-9, 0.3333333333333333, 0.999]])
    grid = xs.reshape(4, 11)  # any shape works elementwise
    exact_points = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for k in range(1, 7):
        for fn in (majority_tail, majority_tail_derivative):
            values = fn(k, grid)
            assert isinstance(values, np.ndarray) and values.shape == grid.shape
            scalars = [fn(k, float(x)) for x in grid.ravel()]
            assert all(type(v) is float for v in scalars)
            np.testing.assert_array_max_ulp(values.ravel(), np.array(scalars), maxulp=4)
            assert fn(k, exact_points).tolist() == [fn(k, float(x)) for x in exact_points]
    # k = 1 is x itself and a constant derivative: no power to round
    assert majority_tail(1, grid).tolist() == grid.tolist()
    assert majority_tail_derivative(1, grid).tolist() == np.ones_like(grid).tolist()


def test_tail_and_derivative_reject_arrays_outside_unit_interval():
    for bad in (np.array([0.2, 1.0 + 1e-12, 0.5]), np.array([[0.1], [-1e-300]])):
        for k in (1, 3):
            with pytest.raises(ValueError):
                majority_tail(k, bad)
            with pytest.raises(ValueError):
                majority_tail_derivative(k, bad)


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_tail_sandwiched_by_symmetric_polynomial(k, data):
    m = 2 * k - 1
    xs = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=m, max_size=m
        )
    )
    tail = poisson_binomial_tail(xs, k)
    sigma = elementary_symmetric(k, xs)
    assert tail <= sigma + 1e-12
    assert tail >= 2.0 ** (1 - 2 * k) * sigma - 1e-12
