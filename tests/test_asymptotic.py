import math

import numpy as np
import pytest

from condorcet.asymptotic import (
    DEFAULT_DEGREE,
    DEFAULT_GAMMA,
    MAX_QUADRATURE_POINTS,
    _axis_rule,
    _tensor_quad,
    estimate_leading_constant,
    impartial_leading_term,
    min_prob_asymptotics,
    min_prob_large_k_rate,
    min_prob_large_n_leading,
    orthant_tail_bound,
    truncated_box_integral,
)
from condorcet.exact import min_condorcet_probability
from condorcet.model import CapExceededError


def test_tail_bound_validation():
    with pytest.raises(ValueError):
        orthant_tail_bound(1, 3, 10.0)  # order below 2 has no bound
    with pytest.raises(ValueError):
        orthant_tail_bound(3, 3, 10.0)  # order must be below dimension
    with pytest.raises(ValueError):
        orthant_tail_bound(2, 3, 0.5)  # box too small


def test_tail_bound_formula_and_monotonicity():
    # m=3, ell=2: 3 * 2 * (2!)^2 * a^-1 = 24 / a
    assert orthant_tail_bound(2, 3, 48.0) == pytest.approx(0.5)
    assert orthant_tail_bound(2, 3, 100.0) < orthant_tail_bound(2, 3, 50.0)


def test_one_dimensional_box_integral():
    # integral of exp(-x) over [0, a] is 1 - exp(-a)
    for a in (1.0, 5.0, 30.0):
        got = truncated_box_integral(1, 1, a)
        assert got == pytest.approx(1.0 - math.exp(-a), abs=1e-12)


def test_separable_two_dimensional_integral():
    # sigma_1 = x + y factorizes: the box integral is (1 - exp(-a))^2
    a = 6.0
    got = truncated_box_integral(1, 2, a)
    assert got == pytest.approx((1.0 - math.exp(-a)) ** 2, rel=1e-12)


def simpson(f, lo, hi, steps):
    # steps must be even
    h = (hi - lo) / steps
    total = f(lo) + f(hi)
    for i in range(1, steps):
        total += f(lo + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def test_product_kernel_against_one_dimensional_reduction():
    """Oracle for the smallest non-separable case.

    Integrating exp(-x*y) over [0,a]^2 in y first gives
    (1 - exp(-a*x)) / x, a smooth one-dimensional integrand that a dense
    Simpson rule nails independently of the tensor code.
    """
    a = 2.0

    def inner(x):
        if x < 1e-12:
            return a - a * a * x / 2.0  # series limit as x -> 0
        return (1.0 - math.exp(-a * x)) / x

    oracle = simpson(inner, 0.0, a, 20_000)
    got = truncated_box_integral(2, 2, a, cells=32, degree=8)
    assert got == pytest.approx(oracle, rel=1e-9)


def test_quadrature_point_budget():
    with pytest.raises(CapExceededError) as exc:
        truncated_box_integral(2, 4, 10.0, cells=48, degree=8)
    assert exc.value.cap_name == "max_quadrature_points"
    with pytest.raises(CapExceededError):
        truncated_box_integral(2, 3, 10.0, cells=16, degree=8, max_points=1_000)


def test_leading_constant_one_dimension():
    est = estimate_leading_constant(1, target_error=1e-6)
    assert abs(est.value - 1.0) <= 1e-6
    assert est.total_error <= 1e-6 + 1e-12
    assert est.total_error == est.quadrature_error + est.truncation_bound


def test_leading_constant_one_dimension_brackets_truth_at_every_target():
    # the truth is exactly 1; the budget must cover the last-bit rounding of
    # the value too, so it brackets 1 and is never zero at any target
    for target in np.geomspace(0.9, 1e-13, 120):
        est = estimate_leading_constant(1, target_error=float(target))
        assert abs(est.value - 1.0) <= est.total_error, target
        assert est.quadrature_error > 0.0, target
        assert est.total_error == est.quadrature_error + est.truncation_bound, target


def test_leading_constant_k2_brackets_reference():
    reference = math.pi ** 1.5 / 2.0
    est = estimate_leading_constant(2)
    assert abs(est.value - reference) <= est.total_error
    assert abs(est.value - reference) / reference < 0.05
    # crude integrability cap: the full orthant integral is below ((2k-1)!)^2
    assert est.value < float(math.factorial(3) ** 2)


def test_reduced_and_full_integrators_agree():
    reduced = estimate_leading_constant(2, target_error=0.1, reduced=True)
    full = estimate_leading_constant(2, target_error=0.5, reduced=False)
    assert abs(reduced.value - full.value) <= reduced.total_error + full.total_error


def test_refinement_history_records_every_pass():
    """Each pass of the reduced k = 2 refinement is the tensor quadrature at
    its mesh, and each reported error compares it with the pass before."""
    target = 0.001
    est = estimate_leading_constant(2, target_error=target)
    passes = est.refinements
    assert len(passes) == 4
    assert (passes[-1].value, passes[-1].error) == (est.value, est.quadrature_error)
    assert passes[0].error is None
    for i, step in enumerate(passes):
        assert step.cells == 16 * 2 ** i
        assert step.points == (step.cells * DEFAULT_DEGREE) ** 2
        nodes, weights = _axis_rule(est.truncation_a, step.cells, DEFAULT_DEGREE, DEFAULT_GAMMA)
        assert step.value == _tensor_quad(2, 2, nodes, weights, reduced=True)
        if i > 0:
            assert step.error > abs(step.value - passes[i - 1].value)
            assert (step.error <= target / 2) == (i == len(passes) - 1)


def test_leading_constant_rejects_unsupported_k():
    with pytest.raises(ValueError):
        estimate_leading_constant(4)
    with pytest.raises(ValueError):
        estimate_leading_constant(2, target_error=0.0)


def test_unreachable_target_raises_instead_of_lying():
    with pytest.raises(CapExceededError) as exc:
        estimate_leading_constant(3, target_error=1e-9)
    assert exc.value.cap_name == "max_quadrature_points"
    assert exc.value.cap == MAX_QUADRATURE_POINTS


def test_impartial_leading_term():
    assert impartial_leading_term(100, 2, 2.7842) == pytest.approx(0.27842)
    assert impartial_leading_term(7, 1, 5.0) == 5.0  # exponent 0 at k=1
    with pytest.raises(ValueError):
        impartial_leading_term(0, 2, 1.0)
    with pytest.raises(ValueError):
        impartial_leading_term(10, 2, 0.0)


def test_large_n_leading_term_tracks_closed_form():
    # k=2: exact (3n-2)/n^2 against leading 3/n; gap is 2/(3n) relative
    n = 10_000
    exact = float(min_condorcet_probability(n, 2))
    leading = min_prob_large_n_leading(n, 2)
    assert leading == pytest.approx(3.0 / n)
    assert abs(exact - leading) / leading == pytest.approx(2.0 / (3.0 * n), rel=1e-6)


def test_large_k_rate():
    assert min_prob_large_k_rate(3) == pytest.approx(math.log(9.0 / 8.0))
    assert min_prob_large_k_rate(4) == pytest.approx(math.log(16.0 / 12.0))
    with pytest.raises(ValueError):
        min_prob_large_k_rate(2)


def test_asymptotics_bundle():
    bundle = min_prob_asymptotics(50, 2)
    assert bundle.large_n_leading == min_prob_large_n_leading(50, 2)
    assert bundle.large_k_rate == min_prob_large_k_rate(50)
