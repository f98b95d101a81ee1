"""Quadrature for the impartial-culture leading constant and evaluators for
the closed-form asymptotic expressions.

The constant for 2k-1 voters is the integral of exp(-sigma_k) over the
positive orthant in dimension 2k-1, where sigma_k is the k-th elementary
symmetric polynomial of the coordinates.  It is estimated on a truncated box
[0, a]^m with two error terms that are always reported separately and then
added:

* a rigorous tail bound for the mass outside the box,
  m (m-1) ((m-1)!)^2 a^(-(m-l)/(l-1)) for the order-l polynomial in m
  variables (l >= 2; for k=1 the tail is exactly exp(-a)), and
* an empirical quadrature error, the change in value when the mesh count
  doubles plus a floating-point allowance that scales with the value, so
  it is never reported as zero.

Both parts are rounded outward with ``math.nextafter``: the tail bound is at
least the true tail for the float box size in use, and the quadrature error
covers the rounding of the tensor sum and of the final ``quadrature_error +
truncation_bound`` addition.  The reported value then lies within
``total_error`` of the truth whenever the mesh-doubling estimate holds.

The integrand does not decay along the coordinate axes (sigma_k vanishes
there), so the mesh is graded toward zero by a power law and each cell gets
a Gauss-Legendre rule.  Since sigma_k is linear in any single coordinate,
the last coordinate can be integrated out analytically,

    integral_0^inf exp(-sigma_k(x', t)) dt = exp(-sigma_k(x')) / sigma_{k-1}(x'),

dropping the dimension by one; the reduced and full integrators are
cross-checked against each other in the tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import CapExceededError

SUPPORTED_K = (1, 2, 3)

DEFAULT_DEGREE = 8
DEFAULT_GAMMA = 4.0
MAX_QUADRATURE_POINTS = 2 * 10 ** 8

# Rounding allowance of a quadrature value, in units of eps relative to it.
# Every term of the tensor sum is positive, so the rounding of the terms
# (nodes, weights, the symmetric polynomials, exp) and of their pairwise sum
# stays a small multiple of eps times the value; measured sums for k = 1 and
# k = 2 sit within 4 eps of their exact-arithmetic sums.
ROUNDING_ULPS = 64


@dataclass(frozen=True)
class Refinement:
    """One tensor pass of the mesh refinement: ``cells`` per axis,
    ``points`` in the tensor grid, the quadrature ``value`` and the error
    reported against the previous pass (None on the first pass, which has
    nothing to compare with)."""

    cells: int
    points: int
    value: float
    error: Optional[float]


@dataclass(frozen=True)
class ConstantEstimate:
    """Estimated orthant integral with its two labeled error parts.

    ``truncation_bound`` is rigorous and rounded up; ``quadrature_error`` is
    the empirical mesh-doubling estimate plus a rounding allowance, rounded
    up and never zero.  The honest total is their plain float sum; the
    allowance already covers the rounding of that addition.
    ``refinements`` lists every pass of the mesh refinement in order; the
    last one holds ``value`` and ``quadrature_error``.
    """

    k: int
    value: float
    quadrature_error: float
    truncation_bound: float
    truncation_a: float
    refinements: Tuple[Refinement, ...]

    @property
    def total_error(self) -> float:
        return self.quadrature_error + self.truncation_bound


def orthant_tail_bound(ell: int, m: int, a: float) -> float:
    """Upper bound on the exp(-sigma_ell) mass outside [0, a]^m, for ell >= 2.

    Each rounded step (the power, then the product) is pushed up one ulp,
    so the float result is at least the bound for the float ``a``.
    """
    if ell < 2:
        raise ValueError("tail bound formula requires order at least 2")
    if not ell < m:
        raise ValueError("order must be below the dimension")
    if a < 1.0:
        raise ValueError("tail bound requires a >= 1")
    power = math.nextafter(a ** (-(m - ell) / (ell - 1)), math.inf)
    return math.nextafter(m * (m - 1) * math.factorial(m - 1) ** 2 * power, math.inf)


@lru_cache(maxsize=None)
def _axis_rule(a: float, cells: int, degree: int, gamma: float) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, a] over a power-law graded mesh."""
    edges = a * (np.arange(cells + 1) / cells) ** gamma
    ref_x, ref_w = leggauss(degree)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (ref_x + 1.0))
        weights.append(half * ref_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _tensor_quad(
    ell: int,
    dims: int,
    nodes: np.ndarray,
    weights: np.ndarray,
    reduced: bool,
) -> float:
    """Tensor quadrature of exp(-e_ell) (or exp(-e_ell)/e_{ell-1} when
    ``reduced``) over the grid, where e_j is the j-th elementary symmetric
    polynomial of the coordinates.

    The symmetric polynomials are built by absorbing one axis at a time with
    broadcasting (e_j += x * e_{j-1}), and the first axis is processed in
    slabs to bound memory.  Slab results are accumulated in a fixed order,
    so the total is reproducible.
    """
    points = len(nodes)
    if dims == 1:
        if reduced:
            raise ValueError("reduced integrand needs at least two dimensions")
        return float(np.dot(weights, np.exp(-nodes)))

    slab = max(1, int(4_000_000 // points ** (dims - 1)))
    total = 0.0
    for start in range(0, points, slab):
        x0 = nodes[start : start + slab]
        w0 = weights[start : start + slab]
        shape0 = (len(x0),) + (1,) * (dims - 1)
        e: List[np.ndarray] = [np.ones(shape0)] + [
            np.zeros(shape0) for _ in range(ell)
        ]
        e[1] = e[1] + x0.reshape(shape0)
        for axis in range(1, dims):
            shape = (1,) * axis + (points,) + (1,) * (dims - 1 - axis)
            xa = nodes.reshape(shape)
            for j in range(min(axis + 1, ell), 0, -1):
                e[j] = e[j] + xa * e[j - 1]
        values = np.exp(-e[ell])
        if reduced:
            values = values / e[ell - 1]
        for axis in range(1, dims):
            shape = (1,) * axis + (points,) + (1,) * (dims - 1 - axis)
            values = values * weights.reshape(shape)
        total += float(values.sum(axis=tuple(range(1, dims))) @ w0)
    return total


def truncated_box_integral(
    ell: int,
    m: int,
    a: float,
    cells: int = 32,
    degree: int = DEFAULT_DEGREE,
    gamma: float = DEFAULT_GAMMA,
    max_points: int = MAX_QUADRATURE_POINTS,
) -> float:
    """Quadrature value of the integral of exp(-sigma_ell) over [0, a]^m."""
    if not 1 <= ell <= m:
        raise ValueError("order out of range for the dimension")
    nodes, weights = _axis_rule(float(a), cells, degree, gamma)
    if len(nodes) ** m > max_points:
        raise CapExceededError("max_quadrature_points", len(nodes) ** m, max_points)
    return _tensor_quad(ell, m, nodes, weights, reduced=False)


def _refine(
    ell: int,
    dims: int,
    a: float,
    target: float,
    degree: int,
    gamma: float,
    max_points: int,
    reduced: bool,
) -> Tuple[Refinement, ...]:
    """Double the mesh until the reported error is within ``target``.

    The reported error is the mesh-doubling difference plus a rounding
    allowance of ``ROUNDING_ULPS`` eps times max(|value|, target), rounded
    up.  The |value| part covers the rounding of the tensor sum; the target
    part covers the caller's addition of a tail bound no larger than
    ``target``.  The error is therefore never zero, and a target below the
    rounding floor exhausts the point budget instead of being under-reported.

    Returns every pass in order; the last one carries the value and its
    reported error.  Raises when the next refinement would blow the point
    budget before the target is met.
    """
    passes: List[Refinement] = []
    cells = 16
    while True:
        points = (cells * degree) ** dims
        if points > max_points:
            raise CapExceededError("max_quadrature_points", points, max_points)
        nodes, weights = _axis_rule(a, cells, degree, gamma)
        value = _tensor_quad(ell, dims, nodes, weights, reduced)
        error = None
        if passes:
            allowance = ROUNDING_ULPS * sys.float_info.epsilon * max(abs(value), target)
            error = math.nextafter(abs(value - passes[-1].value) + allowance, math.inf)
        passes.append(Refinement(cells, points, value, error))
        if error is not None and error <= target:
            return tuple(passes)
        cells *= 2


def estimate_leading_constant(
    k: int,
    target_error: float = 0.1,
    degree: int = DEFAULT_DEGREE,
    gamma: float = DEFAULT_GAMMA,
    max_points: int = MAX_QUADRATURE_POINTS,
    reduced: bool = True,
) -> ConstantEstimate:
    """Estimate the orthant integral of exp(-sigma_k) in dimension 2k-1.

    The box size is chosen so the rigorous tail bound stays below half the
    target, then the mesh refines until the empirical quadrature error
    covers the other half.  When the point budget cannot reach the target
    the estimator raises instead of under-reporting the error.
    """
    if k not in SUPPORTED_K:
        raise ValueError(f"k={k} outside supported range {SUPPORTED_K}")
    if target_error <= 0:
        raise ValueError("target_error must be positive")
    m = 2 * k - 1

    if k == 1:
        # One dimension: the tail beyond a is exactly exp(-a), rounded up.
        a = max(1.0, -math.log(min(0.5, target_error / 2.0)))
        passes = _refine(1, 1, a, target_error / 2.0, degree, gamma, max_points, False)
        tail = math.nextafter(math.exp(-a), math.inf)
        return ConstantEstimate(1, passes[-1].value, passes[-1].error, tail, a, passes)

    # Solve tail_bound(a) = target/2; the exponent (m-k)/(k-1) equals 1 here.
    coeff = m * (m - 1) * math.factorial(m - 1) ** 2
    exponent = (m - k) / (k - 1)
    a = (2.0 * coeff / target_error) ** (1.0 / exponent)
    tail = orthant_tail_bound(k, m, a)
    dims = m - 1 if reduced else m
    passes = _refine(k, dims, a, target_error / 2.0, degree, gamma, max_points, reduced)
    return ConstantEstimate(k, passes[-1].value, passes[-1].error, tail, a, passes)


def impartial_leading_term(n: int, k: int, constant: float) -> float:
    """Leading term of the impartial-culture winner probability for large n:
    constant * n^(-(k-1)/k).  The neglected remainder is O((ln n)^(1/k) / n)
    with an unquantified k-dependent factor."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if constant <= 0:
        raise ValueError("constant must be positive")
    return constant * float(n) ** (-(k - 1) / k)


def min_prob_large_n_leading(n: int, k: int) -> float:
    """Leading large-n term of the minimum winner probability:
    C(2k-1, k) * n^(-(k-1))."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    return math.comb(2 * k - 1, k) * float(n) ** (-(k - 1))


def min_prob_large_k_rate(n: int) -> float:
    """Exponential decay rate of the minimum winner probability in k at fixed
    n >= 3: ln(n^2 / (4(n-1))).  For n in {1, 2} the probability is always 1
    and there is no decay."""
    if n < 3:
        raise ValueError("the large-k rate needs n >= 3")
    return math.log(n * n / (4.0 * (n - 1)))


class MinProbAsymptotics(NamedTuple):
    large_n_leading: float
    large_k_rate: float


def min_prob_asymptotics(n: int, k: int) -> MinProbAsymptotics:
    """Both asymptotic readouts of the minimum-probability formula."""
    return MinProbAsymptotics(min_prob_large_n_leading(n, k), min_prob_large_k_rate(n))
