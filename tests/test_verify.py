import math
from fractions import Fraction

import numpy as np
import pytest

import condorcet.verify as verify
from condorcet.cultures import STREAM_VERSION, mix64
from condorcet.special import (
    elementary_symmetric,
    majority_tail_derivative,
    majority_tail_exact,
    poisson_binomial_tail,
)
from condorcet.verify import (
    SUITES,
    TOL_ALGEBRA,
    TOL_OPTIMIZER,
    _project_simplex,
    _sandwich_corner_cases,
    _Tracker,
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


def scalar_sandwich(k, trials, seed, tail_fn=poisson_binomial_tail,
                    sigma_fn=elementary_symmetric, n_values=(3, 10, 100, 1000)):
    """Oracle: the sandwich check as one scalar call and one recorded margin
    at a time.  Returns (trials, violations, worst witness)."""
    m = 2 * k - 1
    rng = np.random.default_rng(mix64(seed, verify._TAG_SANDWICH, k, STREAM_VERSION))
    lower_factor = 2.0 ** (1 - 2 * k)
    refine_coeff = 2.0 ** (4 * k - 2)
    active_n = [n for n in n_values if 2.0 * math.log(n) / (n - 1) <= 1.0 / 3.0]
    vectors = [tuple(float(v) for v in rng.random(m)) for _ in range(trials)]
    vectors.extend(_sandwich_corner_cases(k))
    violations, worst = 0, None

    def record(margin, xs, inequality):
        nonlocal violations, worst
        margin = float(margin)
        violations += margin < -TOL_ALGEBRA
        if worst is None or margin < worst["margin"]:
            worst = {"input": xs, "inequality": inequality, "margin": margin}

    for xs in vectors:
        tail = tail_fn(xs, k)
        s = float(sigma_fn(k, xs))
        record(s - tail, xs, "tail <= sigma")
        record(tail - lower_factor * s, xs, "2^(1-2k) sigma <= tail")
        record(tail - (s - refine_coeff * s ** ((k + 1) / k)), xs,
               "tail >= sigma - 2^(4k-2) sigma^((k+1)/k)")
        if k >= 2:
            for n in active_n:
                ratio = math.log(n) / (n - 1)
                if tail <= 2.0 * ratio:
                    factor = 1.0 - 2.0 ** (4 * k) * ratio ** (1.0 / k)
                    record(tail - factor * s, xs, f"near-equality below threshold, n={n}")
    return len(vectors), violations, worst


def assert_same_report(report, oracle):
    trials, violations, worst = oracle
    assert (report.trials, report.violations) == (trials, violations)
    got = report.worst_witness
    assert got["input"] == worst["input"]
    assert got["inequality"] == worst["inequality"]
    # the batch takes sigma^((k+1)/k) as a numpy power, which may round
    # differently from Python's float power
    np.testing.assert_array_max_ulp(got["margin"], worst["margin"], maxulp=4)


def test_sandwich_matches_scalar_oracle():
    for seed in (0, 1, 2):
        for k in (2, 3, 4):
            report = check_tail_sandwich(k, trials=300, seed=seed)
            assert_same_report(report, scalar_sandwich(k, 300, seed))


def test_broken_sandwich_bound_reports_violations(monkeypatch):
    # sigma scaled down by 10% breaks "tail <= sigma" wherever the tail is
    # close to sigma; batch and scalar oracle must count the same rows
    def shrunk_sigma(ell, xs):
        return 0.9 * elementary_symmetric(ell, xs)

    monkeypatch.setattr(verify, "elementary_symmetric", shrunk_sigma)
    for k in (2, 3):
        report = check_tail_sandwich(k, trials=300, seed=5)
        oracle = scalar_sandwich(k, 300, 5, sigma_fn=shrunk_sigma)
        assert report.violations > 0
        assert report.worst_witness["margin"] < -TOL_ALGEBRA
        assert_same_report(report, oracle)


def test_record_array_counts_and_keeps_first_worst():
    tracker = _Tracker("t", 0.5)
    calls = []

    def inputs(row, column):
        calls.append((row, column))
        return {"row": row, "column": column}

    margins = np.array([[3.0, np.inf], [-1.0, 2.0], [0.0, -1.0], [-1.0, np.inf]])
    tracker.record_array(margins, inputs, ("first", "second"))
    # +inf rows are neither trials nor witnesses; -1.0 < -0.5 three times
    assert (tracker.trials, tracker.violations) == (6, 3)
    # three entries tie at -1.0; the first in row-major order wins
    assert tracker.worst == {
        "input": {"row": 1, "column": 0}, "inequality": "first", "margin": -1.0
    }
    assert calls == [(1, 0)]
    # a later tie does not displace the earlier witness, a lower margin does
    tracker.record_array([5.0, -1.0], inputs, "third")
    tracker.record(-1.0, "scalar", "fourth")
    assert tracker.worst["inequality"] == "first"
    tracker.record_array([-0.25, -2.0], inputs, "third")
    assert tracker.worst == {
        "input": {"row": 1, "column": 0}, "inequality": "third", "margin": -2.0
    }
    assert (tracker.trials, tracker.violations) == (11, 6)


def test_record_array_matches_record_loop():
    rng = np.random.default_rng(8)
    margins = np.round(rng.normal(size=(50, 3)), 1)
    margins[rng.random((50, 3)) < 0.2] = np.inf
    names = ("a", "b", "c")
    batch, loop = _Tracker("t", 0.3), _Tracker("t", 0.3)
    batch.record_array(margins, lambda row, column: (row, column), names)
    for row in range(50):
        for column in range(3):
            if margins[row, column] != np.inf:
                loop.record(margins[row, column], (row, column), names[column])
    assert batch.report() == loop.report()


def test_record_array_all_inactive_keeps_no_witness():
    tracker = _Tracker("t", 0.0)
    tracker.record_array(np.full((3, 2), np.inf), lambda row, column: row, ("a", "b"))
    assert (tracker.trials, tracker.violations, tracker.worst) == (0, 0, None)


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
