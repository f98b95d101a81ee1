import itertools
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from condorcet.asymptotic import (
    DEFAULT_DEGREE,
    MAX_QUADRATURE_POINTS,
    MESH_GRADING,
    ROUNDING_ULPS,
    _axis_rule,
    _grow_simplex,
    _orbits,
    _simplex_quad,
    _tensor_quad,
    estimate_leading_constant,
    impartial_leading_term,
    min_prob_large_k_rate,
    min_prob_large_n_leading,
    min_prob_large_n_leading_exact,
    orthant_tail_bound,
    truncated_box_integral,
)
import condorcet.asymptotic as asymptotic
from condorcet.exact import min_condorcet_probability
from condorcet.model import CapExceededError

# C_3, the orthant integral of exp(-sigma_3) in five dimensions, from the
# simplex identity in mpmath; an independent scipy dblquad of the same
# formula gave 4.284122826932564 with an error estimate of 6e-11.
C3 = 4.284122826932527


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


def test_quadrature_point_budget(monkeypatch):
    with pytest.raises(CapExceededError) as exc:
        truncated_box_integral(2, 4, 10.0, cells=48, degree=8)
    assert exc.value.cap_name == "max_quadrature_points"
    monkeypatch.setattr(asymptotic, "MAX_QUADRATURE_POINTS", 1_000)
    with pytest.raises(CapExceededError):
        truncated_box_integral(2, 3, 10.0, cells=16, degree=8)


def test_leading_constant_one_dimension():
    est = estimate_leading_constant(1, target_error=1e-6)
    assert abs(est.value - 1.0) <= 1e-6
    assert est.total_error <= 1e-6 + 1e-12
    assert est.total_error == est.quadrature_error + est.truncation_bound


def test_leading_constant_one_dimension_brackets_truth_at_every_target():
    # C_1 is the integral of exp(-x) over x >= 0, exactly 1: no quadrature
    # runs, at any target, and the error is zero
    for target in np.geomspace(1e3, 1e-300, 120):
        est = estimate_leading_constant(1, target_error=float(target))
        assert est.value == 1.0, target
        assert est.total_error == est.quadrature_error == est.truncation_bound == 0.0, target
        assert (est.truncation_a, est.refinements) == (None, ()), target


def test_leading_constant_k2_brackets_reference():
    reference = math.pi ** 1.5 / 2.0
    est = estimate_leading_constant(2)
    assert abs(est.value - reference) <= est.total_error
    assert abs(est.value - reference) / reference < 0.05
    # crude integrability cap: the full orthant integral is below ((2k-1)!)^2
    assert est.value < float(math.factorial(3) ** 2)


def test_leading_constant_k3_meets_a_tight_target():
    est = estimate_leading_constant(3, target_error=1e-12)
    assert abs(est.value - C3) <= est.total_error <= 1e-12
    assert (est.truncation_bound, est.truncation_a) == (0.0, None)
    assert est.total_error == est.quadrature_error


def test_leading_constant_k2_near_the_rounding_floor():
    """At k = 2 the simplex is one point: each pass is one evaluation and
    the passes agree exactly, so only the rounding allowance is left."""
    reference = math.pi ** 1.5 / 2.0
    est = estimate_leading_constant(2, target_error=1e-13)
    assert abs(est.value - reference) <= est.total_error <= 1e-13
    assert [step.evaluations for step in est.refinements] == [1, 1]


def test_simplex_history_records_every_pass():
    """Each pass of the k = 3 simplex refinement is the rule, graded as
    t^3, at its node count, and each reported error compares it with the
    pass before."""
    target = 1e-12
    est = estimate_leading_constant(3, target_error=target)
    passes = est.refinements
    assert [step.nodes for step in passes] == [8, 12, 16, 24, 32]
    assert (passes[-1].value, passes[-1].error) == (est.value, est.quadrature_error)
    assert passes[0].error is None
    for i, step in enumerate(passes):
        assert step.evaluations == step.nodes ** 2
        assert step.value == _simplex_quad(3, step.nodes, 3)
        if i > 0:
            assert step.error > abs(step.value - passes[i - 1].value)
            assert (step.error <= target) == (i == len(passes) - 1)


@pytest.mark.parametrize("k, nodes", [(3, 32), (4, 24)])
def test_simplex_gradings_agree(k, nodes):
    """Grading the cube axes as t^(k+2) instead of t^k changes how the
    nodes crowd toward the vertex and the faces, not the integral: the two
    rules agree to 1e-10 relative (2.4e-11 and 2.2e-11 measured)."""
    graded = _simplex_quad(k, nodes, k)
    steeper = _simplex_quad(k, nodes, k + 2)
    assert abs(graded - steeper) <= 1e-10 * graded


def test_leading_constant_k4_covers_the_other_grading():
    est = estimate_leading_constant(4, target_error=1e-6)
    assert abs(est.value - _simplex_quad(4, 24, 6)) <= est.total_error <= 1e-6


def test_simplex_value_inside_the_box_bracket(monkeypatch):
    """The box oracle's value, widened by its error and the simplex error,
    holds the simplex value.  At k = 2 that is the box path's own estimate;
    at k = 3 no box pass fits the point budget, so the bracket is two box
    meshes on [0, 10^4]^5, their difference plus the tail bound."""
    simplex = estimate_leading_constant(2, target_error=0.1)
    box = estimate_leading_constant(2, target_error=0.5, box=True)
    assert abs(simplex.value - box.value) <= box.total_error + simplex.total_error

    monkeypatch.setattr(asymptotic, "MAX_QUADRATURE_POINTS", 10 ** 10)
    a = 1e4
    coarse = truncated_box_integral(3, 5, a, cells=8, degree=4)
    fine = truncated_box_integral(3, 5, a, cells=16, degree=4)
    box_error = abs(fine - coarse) + orthant_tail_bound(3, 5, a)
    simplex = estimate_leading_constant(3, target_error=0.1)
    assert abs(simplex.value - fine) <= box_error + simplex.total_error


def broadcasting_tensor_quad(ell, dims, nodes, weights):
    """Naive reference tensor quadrature: every point of the full grid, with
    its own symmetric-polynomial recurrence absorbing one broadcast axis at
    a time."""
    points = len(nodes)
    slab = max(1, int(4_000_000 // points ** (dims - 1)))
    total = 0.0
    for start in range(0, points, slab):
        x0 = nodes[start : start + slab]
        w0 = weights[start : start + slab]
        shape0 = (len(x0),) + (1,) * (dims - 1)
        e = [np.ones(shape0)] + [np.zeros(shape0) for _ in range(ell)]
        e[1] = e[1] + x0.reshape(shape0)
        for axis in range(1, dims):
            shape = (1,) * axis + (points,) + (1,) * (dims - 1 - axis)
            xa = nodes.reshape(shape)
            for j in range(min(axis + 1, ell), 0, -1):
                e[j] = e[j] + xa * e[j - 1]
        values = np.exp(-e[ell])
        for axis in range(1, dims):
            shape = (1,) * axis + (points,) + (1,) * (dims - 1 - axis)
            values = values * weights.reshape(shape)
        total += float(values.sum(axis=tuple(range(1, dims))) @ w0)
    return total


# the False in each id marks the unreduced integrand exp(-e_ell)
@pytest.mark.parametrize("ell, dims", [(2, 3), (2, 4)], ids=["2-3-False", "2-4-False"])
@pytest.mark.parametrize("a, cells, degree", [(12.0, 3, 4), (40.0, 2, 6)])
def test_tensor_quad_matches_full_grid(ell, dims, a, cells, degree):
    """The orbit sum adds the same positive terms as the full grid in
    another order, so the two agree up to rounding: within a quarter of the
    rounding allowance the refinement reports."""
    nodes, weights = _axis_rule(a, cells, degree)
    got = _tensor_quad(ell, dims, nodes, weights)
    naive = broadcasting_tensor_quad(ell, dims, nodes, weights)
    assert abs(got - naive) <= ROUNDING_ULPS / 4 * sys.float_info.epsilon * naive


def test_axis_rule_grades_cells_toward_zero():
    """Each cell of the axis rule carries ``degree`` Gauss-Legendre nodes
    inside it and weights summing to its width; the cell edges are
    a * (i / cells)^MESH_GRADING."""
    a, cells, degree = 12.0, 4, 3
    nodes, weights = _axis_rule(a, cells, degree)
    edges = a * (np.arange(cells + 1) / cells) ** MESH_GRADING
    for c in range(cells):
        cell = slice(c * degree, (c + 1) * degree)
        assert ((edges[c] < nodes[cell]) & (nodes[cell] < edges[c + 1])).all()
        assert weights[cell].sum() == pytest.approx(edges[c + 1] - edges[c], rel=1e-14)


@pytest.mark.parametrize("points", [1, 2, 5, 7])
@pytest.mark.parametrize("dims", [1, 2, 3, 4])
def test_orbits_are_the_sorted_grid_tuples(points, dims):
    tuples, mult = _orbits(points, dims)
    grid = Counter(tuple(sorted(t)) for t in itertools.product(range(points), repeat=dims))
    assert [tuple(t) for t in tuples.tolist()] == sorted(grid)
    assert mult.tolist() == [grid[t] for t in sorted(grid)]
    assert int(mult.sum()) == points ** dims


@pytest.mark.parametrize(
    "ell, dims, a, cells", [(2, 3, 4800.0, 32)], ids=["k2_full"]
)
def test_tensor_quad_temporaries_stay_small(ell, dims, a, cells):
    """One k = 2 box pass (at target 0.01) works block by block on the
    orbits, so its traced peak stays under 16 MB; the full-grid slabs of
    the broadcasting sum took 153 MB."""
    nodes, weights = _axis_rule(a, cells, DEFAULT_DEGREE)
    tracemalloc.start()
    try:
        _tensor_quad(ell, dims, nodes, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_refinement_history_records_every_pass():
    """Each pass of the k = 2 box refinement is the tensor quadrature at its
    mesh, and each reported error compares it with the pass before."""
    target = 0.002
    est = estimate_leading_constant(2, target_error=target, box=True)
    passes = est.refinements
    assert len(passes) == 3
    assert (passes[-1].value, passes[-1].error) == (est.value, est.quadrature_error)
    assert passes[0].error is None
    for i, step in enumerate(passes):
        cells = step.nodes // DEFAULT_DEGREE
        assert cells == 16 * 2 ** i and step.nodes == cells * DEFAULT_DEGREE
        assert step.evaluations == math.comb(step.nodes + 2, 3)
        nodes, weights = _axis_rule(est.truncation_a, cells, DEFAULT_DEGREE)
        assert step.value == _tensor_quad(2, 3, nodes, weights)
        if i > 0:
            assert step.error > abs(step.value - passes[i - 1].value)
            assert (step.error <= target / 2) == (i == len(passes) - 1)


def test_leading_constant_rejects_unsupported_k():
    with pytest.raises(ValueError):
        estimate_leading_constant(5)
    with pytest.raises(ValueError):
        estimate_leading_constant(2, target_error=0.0)
    with pytest.raises(ValueError):
        estimate_leading_constant(1, target_error=math.nan)
    # C_1 = 1 is exact, and the box oracle serves k >= 2 only
    with pytest.raises(ValueError, match="k >= 2"):
        estimate_leading_constant(1, box=True)


def test_target_below_rounding_floor_fails_fast():
    """When the rounding allowance of a pass, 64 eps |value|, already
    exceeds the quadrature's target, no finer rule can meet it: the loop
    raises after one pass instead of refining up to the point budget.  The
    floor it names is in the caller's units: a quadrature that gets half of
    the target error, as the box's does, names twice the allowance."""
    calls = []

    def quad(nodes):
        calls.append(nodes)
        return 1.0, 1

    with pytest.raises(CapExceededError) as exc:
        asymptotic._refine(quad, 8, lambda nodes: 2 * nodes, 1, 1e-14, target=5e-15)
    assert exc.value.cap_name == "max_quadrature_points"
    assert exc.value.needed == math.inf
    assert exc.value.cap == MAX_QUADRATURE_POINTS
    assert calls == [8]
    assert str(exc.value) == (
        "target error 1e-14, of which the quadrature gets 5e-15, is below the rounding floor, "
        "2.85e-14 rounded up: the rounding allowance of a pass, 64 eps |value|, is 1.42e-14, "
        "and no target error below the floor can be met"
    )


def test_simplex_target_below_rounding_floor_fails_fast(monkeypatch):
    """The simplex rule's allowance, 64 eps |value|, exceeds 1e-14 at
    k = 2 and 3, so the first pass raises without a second one."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _simplex_quad(*args, **kwargs)

    monkeypatch.setattr(asymptotic, "_simplex_quad", counted)
    for k in (2, 3):
        with pytest.raises(CapExceededError) as exc:
            estimate_leading_constant(k, target_error=1e-14)
        assert exc.value.needed == math.inf
    assert len(calls) == 2


def test_simplex_point_cap_names_the_error_reached(monkeypatch):
    """With the budget cut to 24^3 terms, k = 3 runs its 8, 12, 16 and 24
    node passes and stops before the 32-node pass; the message names the
    error the 24-node pass reached, the one the full budget reports for it.
    With room for the first pass only, no error was reached."""
    def simplex(nodes):
        return _simplex_quad(3, nodes, 3), nodes ** 2

    reached = asymptotic._refine(simplex, 8, _grow_simplex, 3, 1e-11)[-1]
    assert reached.nodes == 24
    monkeypatch.setattr(asymptotic, "MAX_QUADRATURE_POINTS", 24 ** 3)
    with pytest.raises(CapExceededError) as exc:
        estimate_leading_constant(3, target_error=1e-13)
    assert exc.value.needed == 32 ** 3 and exc.value.cap == 24 ** 3
    assert str(exc.value) == (
        f"cap 'max_quadrature_points' exceeded: needed 32768, cap 13824; for the target "
        f"error 1e-13 the last pass within it, on 24 nodes, reached error {reached.error:.3g}"
    )
    monkeypatch.setattr(asymptotic, "MAX_QUADRATURE_POINTS", 8 ** 3)
    with pytest.raises(CapExceededError) as exc:
        estimate_leading_constant(3, target_error=1e-13)
    assert str(exc.value).endswith(
        "; for the target error 1e-13 no two passes fit within it, so no error was reached"
    )


@pytest.mark.parametrize("target", [1e-7, 1e-10, 1e-14])
def test_unresolved_mesh_is_never_accepted(monkeypatch, target):
    """For the k = 2 box below 1e-6 the box grows to 48/target, and the
    graded meshes the budget allows put their first node far from the axes,
    where the integrand has underflowed: every pass sees almost none of the
    mass and two such passes agree.  No pass below the unit-cube bound is
    accepted, so the budget runs out instead of a near-zero value being
    reported as converged."""
    budget = 2 * 10 ** 7
    monkeypatch.setattr(asymptotic, "MAX_QUADRATURE_POINTS", budget)
    with pytest.raises(CapExceededError) as exc:
        estimate_leading_constant(2, target_error=target, box=True)
    assert exc.value.needed == (64 * DEFAULT_DEGREE) ** 3 > budget


def test_unreachable_target_raises_instead_of_lying():
    with pytest.raises(CapExceededError) as exc:
        estimate_leading_constant(3, target_error=1e-9, box=True)
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


def test_large_n_leading_term_at_large_k():
    # 10^-(k-1) alone underflows a float at k = 400 and C(2k-1, k) alone
    # overflows at k = 1000; the term is formed exactly and rounded once:
    # about 9.4e-161 at k = 400, 0.0 (underflow) at k = 1000
    k = 400
    log_term = math.lgamma(2 * k) - math.lgamma(k + 1) - math.lgamma(k) - (k - 1) * math.log(10)
    assert min_prob_large_n_leading(10, k) == pytest.approx(math.exp(log_term), rel=1e-9)
    assert min_prob_large_n_leading(10, 1000) == 0.0
    assert min_prob_large_n_leading_exact(10, 1000) > 0


def test_large_k_rate():
    assert min_prob_large_k_rate(3) == pytest.approx(math.log(9.0 / 8.0))
    assert min_prob_large_k_rate(4) == pytest.approx(math.log(16.0 / 12.0))
    with pytest.raises(ValueError):
        min_prob_large_k_rate(2)
