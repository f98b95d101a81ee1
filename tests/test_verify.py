import math
from fractions import Fraction

import numpy as np
import pytest

from condorcet.special import majority_tail_derivative, majority_tail_exact
from condorcet.verify import (
    SUITES,
    TOL_OPTIMIZER,
    _project_simplex,
    check_scaled_tail_bound,
    check_tail_sandwich,
    check_taylor_bounds,
    check_truncated_integral_bounds,
    minimize_marginal_bound,
    run_suites,
)


def test_all_suites_pass():
    reports = run_suites(["all"], seed=20240817)
    assert len(reports) >= len(SUITES)
    failing = [r.name for r in reports if not r.passed]
    assert failing == []
    for r in reports:
        assert r.trials > 0
        assert r.worst_witness is not None


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["frobnicate"])


def test_taylor_worst_witness_reproduces():
    report = check_taylor_bounds()
    witness = report.worst_witness
    t = float(witness["input"])
    if witness["inequality"].startswith("exp(-t-t^2)"):
        margin = (1.0 - t) - math.exp(-t - t * t)
    else:
        margin = math.exp(-t) - (1.0 - t)
    assert margin == pytest.approx(witness["margin"], abs=1e-15)


def test_taylor_rejects_out_of_domain_grid():
    with pytest.raises(ValueError):
        check_taylor_bounds(grid=[0.0, 0.5])


def test_sandwich_report_is_seed_reproducible():
    a = check_tail_sandwich(3, trials=500, seed=4)
    b = check_tail_sandwich(3, trials=500, seed=4)
    assert a == b
    assert a.violations == 0


def test_sandwich_counts_corner_cases():
    report = check_tail_sandwich(2, trials=100, seed=0)
    assert report.trials > 100  # corners ride along with the random draws


def test_scaled_tail_bound_small_range():
    report = check_scaled_tail_bound(n_max=50, k_max=6)
    assert report.passed
    # the bound is tight at n=1 where n * tail(1) = 1 exactly
    assert 1 * majority_tail_exact(3, Fraction(1, 1)) == 1


def test_truncated_integral_check_validates():
    with pytest.raises(ValueError):
        check_truncated_integral_bounds(3, 3, 10.0)
    with pytest.raises(ValueError):
        check_truncated_integral_bounds(2, 6, 10.0)


def test_minimizer_never_beats_uniform_floor():
    for n in (2, 3, 5, 8):
        for k in (1, 2, 3, 4):
            floor = float(n * majority_tail_exact(k, Fraction(1, n)))
            result = minimize_marginal_bound(n, k, starts=30, seed=1)
            assert result.value >= floor - TOL_OPTIMIZER


def test_minimizer_finds_uniform_point():
    result = minimize_marginal_bound(3, 2, starts=50, seed=2)
    assert result.converged
    for coord in result.point:
        assert abs(coord - 1.0 / 3.0) < 1e-3


def test_minimizer_validates_input():
    with pytest.raises(ValueError):
        minimize_marginal_bound(0, 2)
    with pytest.raises(ValueError):
        minimize_marginal_bound(3, 2, tol=0.0)


def test_interior_coordinates_share_gradient_at_optimum():
    # at a simplex-interior stationary point the gradient components agree,
    # i.e. x_i (1 - x_i) is constant across coordinates held strictly inside
    for n, k in ((3, 2), (4, 3), (6, 2)):
        result = minimize_marginal_bound(n, k, starts=40, seed=3)
        inside = [x for x in result.point if x > 1e-6]
        products = [x * (1.0 - x) for x in inside]
        assert max(products) - min(products) < 1e-6


def test_stationary_point_with_large_coordinate_pairs_products():
    """A stationary point with a coordinate above 1/2 must balance
    x(1-x) against the small coordinates.

    On two alternatives every point of the simplex is stationary for the
    tail sum (the objective is identically 1 by tail symmetry), so running
    the projected-gradient step from (x, 1-x) with x in (1/2, 1) stays put
    and exhibits the pairing directly.
    """
    for k in (2, 3):
        for x in (0.6, 0.75, 0.9):
            point = np.array([[x, 1.0 - x]])
            step = 0.05
            moved = _project_simplex(point - step * majority_tail_derivative(k, point))
            assert np.abs(moved - point).max() < 1e-12  # stationary
            x1, xn = float(moved[0, 0]), float(moved[0, 1])
            assert xn < 0.5 < x1 < 1.0
            assert abs(x1 * (1.0 - x1) - xn * (1.0 - xn)) < TOL_OPTIMIZER


def test_project_simplex_basics():
    points = np.array([[0.5, 0.5, 0.5], [2.0, -1.0, 0.0], [1.0 / 3] * 3])
    projected = _project_simplex(points)
    assert np.allclose(projected.sum(axis=1), 1.0, atol=1e-12)
    assert (projected >= -1e-12).all()
    # a point already on the simplex is a fixed point
    assert np.allclose(projected[2], 1.0 / 3, atol=1e-12)
    # projection of (2, -1, 0) clips to the vertex
    assert np.allclose(projected[1], [1.0, 0.0, 0.0], atol=1e-12)
