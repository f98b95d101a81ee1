"""Quadrature for the impartial-culture leading constant and evaluators for
the closed-form asymptotic expressions.

The constant C_k for 2k-1 voters is the integral of exp(-sigma_k) over the
positive orthant in dimension m = 2k-1, where sigma_k is the k-th elementary
symmetric polynomial of the coordinates.  C_1 is the integral of exp(-x)
over x >= 0, exactly 1, and takes no quadrature.  For k >= 2 it comes from
an identity with no truncation: split x = (y, s, t) with y of d = 2k-3
coordinates, so sigma_k(x) = sigma_k(y) + (s+t) sigma_{k-1}(y) +
st sigma_{k-2}(y); integrate s and t, put y = r u with u on the simplex
sum(u) = 1 and integrate r.  That leaves

    C_k = Gamma((k-1)/k) * integral over the simplex of
          S_{k-2}^-1 (S_{k-2} / S_{k-1}^2)^((k-1)/k) J_k(c) du,
    c = S_k S_{k-2} / S_{k-1}^2,   S_j = sigma_j(u),
    J_k(c) = pi / (k sin(pi/k)) (1-c)^(-(k-1)/k)
             - integral_0^(c^(1/k)) dw / (w^k + 1 - c),

a (2k-4)-dimensional integral (du over the first d-1 coordinates).
Newton's inequalities give c < 1, so J_k is smooth.  The integrand is
symmetric, so the rule covers the fundamental domain u_1 >= ... >= u_d,
one of d! copies, Duffy-mapped from its vertex e_1 onto the unit cube; the
map's volume factor 1/d! cancels the d! copies.  The vertex singularity and
the kink of c^(1/k) on the face u_d = 0 are absorbed by grading every cube
axis as x = t^k, after which a Gauss-Legendre rule of N nodes per axis (and
N nodes for J_k's inner integral) converges spectrally.  At k = 2 the
simplex is one point and the rule one evaluation, pi^(3/2)/2.  The passes
take N = 8, 12, 16, 24, 32, ... nodes, and there is no truncation part.

The box path (``box=True``, which ``ck --full`` selects; k >= 2) is the
naive oracle.  It integrates over a truncated box [0, a]^m and reports two
error terms separately, then adds them:

* a rigorous tail bound for the mass outside the box,
  m (m-1) ((m-1)!)^2 a^(-(m-l)/(l-1)) for the order-l polynomial in m
  variables (l >= 2), with a chosen so that it is half the target, and
* the quadrature error of mesh passes that double the cells per axis,
  within the other half.

Every rule runs in one refinement loop, :func:`_refine`, which records
each pass as one :class:`Refinement`.  A pass's quadrature error is its
difference from the pass before plus a floating-point allowance that
scales with the value, so it is never reported as zero.  The tail bound
and the quadrature error are rounded outward with ``math.nextafter``: the
tail bound is at least the true tail for the float box size in use, and
the quadrature error covers the rounding of the sum and of the final
``quadrature_error + truncation_bound`` addition.  The reported value then
lies within ``total_error`` of the truth whenever the pass-to-pass
estimate holds.

The box integrand does not decay along the coordinate axes (sigma_k
vanishes there), so the mesh is graded toward zero by a power law and each
cell gets a Gauss-Legendre rule.  Every axis carries the same rule and the
integrand is symmetric in its coordinates, so the tensor sum visits each
orbit of the grid under permutation of the axes once, a non-decreasing
index tuple weighted by the number of grid points it stands for:
C(P+d-1, d) integrand values for P nodes per axis in d dimensions instead
of P^d, about d! times fewer.  The point cap still counts tensor points,
P^d.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import CapExceededError
from .special import _symmetric_polynomials

SUPPORTED_K = (1, 2, 3, 4)

DEFAULT_DEGREE = 8
# Power of the mesh grading: cell edges at a * (i / cells)^MESH_GRADING.
MESH_GRADING = 4.0
# Point budget of every tensor rule, read by the quadrature functions when
# they run.
MAX_QUADRATURE_POINTS = 2 * 10 ** 8

# Rounding allowance of a quadrature value, in units of eps relative to it.
# Every term of the tensor sum is positive, so the rounding of the terms
# (nodes, weights, the symmetric polynomials, exp) and of their pairwise sum
# stays a small multiple of eps times the value; measured sums for k = 1 and
# k = 2 sit within 4 eps of their exact-arithmetic sums.
ROUNDING_ULPS = 64

# Integrand values per block of the orbit sum in _tensor_quad (and inner
# rule terms per block of _simplex_quad), so a block's temporaries stay in
# cache.  Blocks of 2^12 to 2^17 terms were timed (2 vCPUs, 2 MiB L2 per
# core) on k = 2 box passes (2-D at 1e-4, 3-D at 0.01) and the
# truncated_integral suite; 2^14 was the best or within 5% of it.
_BLOCK_TERMS = 1 << 14

# Nodes per axis of the first simplex pass; see _grow_simplex for the rest.
_SIMPLEX_FIRST_NODES = 8


@dataclass(frozen=True)
class Refinement:
    """One pass of a refinement: ``nodes`` Gauss-Legendre nodes per axis
    (for the box, cells times ``DEFAULT_DEGREE``; for the simplex rule,
    per cube axis and for J_k's inner integral), the integrand
    ``evaluations`` (the box grid's orbits under permutation of the axes,
    C(nodes+m-1, m); the simplex rule's nodes^(2k-4), one at k = 2), the
    quadrature ``value`` and the error reported against the previous pass
    (None on the first pass, which has nothing to compare with)."""

    nodes: int
    evaluations: int
    value: float
    error: Optional[float]


@dataclass(frozen=True)
class ConstantEstimate:
    """Estimated orthant integral with its two labeled error parts.

    ``truncation_bound`` is rigorous and rounded up; ``quadrature_error`` is
    the empirical difference from the previous pass plus a rounding
    allowance, rounded up and never zero for a quadrature.  The honest total
    is their plain float sum; the allowance already covers the rounding of
    that addition.  Only the box oracle has a box: elsewhere
    ``truncation_bound`` is 0.0 and ``truncation_a`` None.  ``refinements``
    lists every pass in order; the last one holds ``value`` and
    ``quadrature_error``.  C_1 = 1 is exact: value 1.0, both errors 0.0 and
    no passes.
    """

    k: int
    value: float
    quadrature_error: float
    truncation_bound: float
    truncation_a: Optional[float]
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


def _axis_rule(a: float, cells: int, degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, a] over a power-law graded mesh."""
    edges = a * (np.arange(cells + 1) / cells) ** MESH_GRADING
    ref_x, ref_w = leggauss(degree)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (ref_x + 1.0))
        weights.append(half * ref_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _orbits(points: int, dims: int) -> Tuple[np.ndarray, np.ndarray]:
    """The non-decreasing ``dims``-tuples of range(points), one per row in
    lexicographic order, and the multiplicity of each: the number of grid
    points it stands for, dims! / prod(count!) over its distinct entries.

    Built one leading coordinate at a time: the tuples whose first entry is
    at least v form a suffix of the lexicographic list, so prepending v to
    that suffix, for v = 0, 1, ..., keeps the order.  Prepending v to a
    tuple u of length l multiplies its multiplicity by l + 1 and divides it
    by the new number of leading entries equal to v.
    """
    tuples = np.arange(points).reshape(-1, 1)
    mult = np.ones(points, dtype=np.int64)
    run = np.ones(points, dtype=np.int64)
    for length in range(1, dims):
        starts = np.searchsorted(tuples[:, 0], np.arange(points))
        counts = len(tuples) - starts
        rows = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - starts, counts)
        lead = np.repeat(np.arange(points), counts)
        run = np.where(tuples[rows, 0] == lead, run[rows] + 1, 1)
        mult = mult[rows] * (length + 1) // run
        tuples = np.column_stack([lead, tuples[rows]])
    return tuples, mult


def _tensor_quad(ell: int, dims: int, nodes: np.ndarray, weights: np.ndarray) -> float:
    """Tensor quadrature of exp(-e_ell) over the grid, where e_j is the j-th
    elementary symmetric polynomial of the coordinates.

    Every axis carries the same rule and the integrand is symmetric, so the
    sum runs over the orbits of the grid, its non-decreasing index tuples
    (i, t): C(P+dims-1, dims) integrand values for P nodes per axis instead
    of P^dims.  The trailing tuples t come from :func:`_orbits` once, with
    their E_j = e_j(x_t) from :func:`special._symmetric_polynomials`; the
    first coordinate x_i then enters as e_j = E_j + x_i E_{j-1}.  Each term
    is weighted by its weights' product times the orbit's multiplicity,
    dims! / prod(count!): dims times that of t, divided by the number of
    coordinates equal to x_i when i is t's first index.  The tuples with
    i equal to t's first index are summed in one pass; those with a smaller
    i in blocks of first-axis nodes of about ``_BLOCK_TERMS`` terms, each
    block on the suffix of tuples whose first index exceeds its first node.
    Every term is positive and the partial sums are added in a fixed order,
    so the total is reproducible.
    """
    points = len(nodes)
    if dims == 1:
        return float(np.dot(weights, np.exp(-nodes)))

    tail, mult = _orbits(points, dims - 1)
    lead = tail[:, 0]
    copies = (tail == lead[:, None]).sum(axis=1) + 1
    e = _symmetric_polynomials(ell, [nodes[column] for column in tail.T])
    column_weights = dims * mult * np.prod(weights[tail], axis=1)

    def integrand(x, cols):
        return np.exp(-(e[ell][cols] + x * e[ell - 1][cols]))

    count = len(tail)
    total = float(
        integrand(nodes[lead], slice(None)) @ (column_weights * weights[lead] / copies)
    )
    starts = np.searchsorted(lead, np.arange(points + 1))
    i = 0
    while i < points - 1:
        lo = starts[i + 1]
        stop = min(points - 1, i + max(1, _BLOCK_TERMS // (count - lo)))
        values = integrand(nodes[i:stop, None], slice(lo, count))
        # the tuples led by an index inside the block count only for the
        # first-axis nodes before it
        inside = starts[stop] - lo
        values[:, :inside] *= lead[lo : lo + inside] > np.arange(i, stop)[:, None]
        total += float(weights[i:stop] @ (values @ column_weights[lo:]))
        i = stop
    return total


def truncated_box_integral(
    ell: int,
    m: int,
    a: float,
    cells: int = 32,
    degree: int = DEFAULT_DEGREE,
) -> float:
    """Quadrature value of the integral of exp(-sigma_ell) over [0, a]^m."""
    if not 1 <= ell <= m:
        raise ValueError("order out of range for the dimension")
    nodes, weights = _axis_rule(float(a), cells, degree)
    if len(nodes) ** m > MAX_QUADRATURE_POINTS:
        raise CapExceededError("max_quadrature_points", len(nodes) ** m, MAX_QUADRATURE_POINTS)
    return _tensor_quad(ell, m, nodes, weights)


def _round_up(x: float) -> str:
    """``x`` rounded up to three significant digits, as text."""
    exact = Decimal(x)
    return f"{exact.quantize(Decimal(1).scaleb(exact.adjusted() - 2), ROUND_CEILING):.3g}"


def _refine(
    quad: Callable[[int], Tuple[float, int]],
    nodes: int,
    grow: Callable[[int], int],
    cost_exponent: int,
    target_error: float,
    target: Optional[float] = None,
    floor: float = 0.0,
) -> Tuple[Refinement, ...]:
    """Run a rule on more nodes each pass until the reported error is within
    ``target``, the quadrature's share of ``target_error`` (all of it unless
    given; the box's tail bound takes the rest).  ``quad(nodes)`` gives a
    pass's value and integrand evaluations; the first pass has ``nodes``
    nodes per axis and each later one ``grow(nodes)``.

    The reported error is the difference from the previous pass plus a
    rounding allowance of ``ROUNDING_ULPS`` eps times max(|value|, target),
    rounded up.  The |value| part covers the rounding of the rule's sum of
    positive terms; the target part covers the caller's addition of a tail
    bound no larger than ``target``.  The error is therefore never zero.  A
    pass is accepted only if its value also reaches ``floor``: the box path
    passes a lower bound on the integral over the unit cube, which the box
    [0, a]^m (a >= 1) contains, since e_k <= C(m, k) there.  A mesh too
    coarse to resolve the integrand near the axes can see almost none of
    its mass; two such passes agree and would otherwise report a near-zero
    value as converged.

    Returns every pass in order; the last one carries the value and its
    reported error.  Raises when a pass's nodes^cost_exponent terms would
    exceed the point budget, naming the error the last pass within it
    reached.  Raises at once when a pass's allowance alone exceeds the
    target, since no finer rule can then meet it; the allowance then scales
    with |value|, as a larger target would clear it, and the message names
    the rounding floor in ``target_error``'s units, rounded up.
    """
    if target is None:
        target = target_error
    goal = f"target error {target_error:g}"
    if target != target_error:
        goal += f", of which the quadrature gets {target:g},"
    passes: List[Refinement] = []
    while True:
        cost = nodes ** cost_exponent
        if cost > MAX_QUADRATURE_POINTS:
            if not passes or passes[-1].error is None:
                reached = "no two passes fit within it, so no error was reached"
            else:
                last = passes[-1]
                reached = (f"the last pass within it, on {last.nodes} nodes, reached error "
                           f"{last.error:.3g}")
            raise CapExceededError(
                "max_quadrature_points", cost, MAX_QUADRATURE_POINTS,
                f"cap 'max_quadrature_points' exceeded: needed {cost}, "
                f"cap {MAX_QUADRATURE_POINTS}; for the {goal} {reached}",
            )
        value, evaluations = quad(nodes)
        allowance = ROUNDING_ULPS * sys.float_info.epsilon * max(abs(value), target)
        if allowance > target:
            raise CapExceededError(
                "max_quadrature_points", math.inf, MAX_QUADRATURE_POINTS,
                f"{goal} is below the rounding floor, "
                f"{_round_up(allowance * (target_error / target))} rounded up: the rounding "
                f"allowance of a pass, {ROUNDING_ULPS} eps |value|, is {allowance:.3g}, and no "
                f"target error below the floor can be met",
            )
        error = None
        if passes:
            error = math.nextafter(abs(value - passes[-1].value) + allowance, math.inf)
        passes.append(Refinement(nodes, evaluations, value, error))
        if error is not None and error <= target and value >= floor:
            return tuple(passes)
        nodes = grow(nodes)


def _simplex_quad(k: int, nodes: int, grading: float) -> float:
    """The simplex rule for C_k, k >= 2 (see the module docstring), with
    ``nodes`` Gauss-Legendre nodes per cube axis and for J_k's inner
    integral, each cube axis graded as x = t^grading.

    The d = 2k-3 vertices of the fundamental domain u_1 >= ... >= u_d are
    v_j = (1/j, ..., 1/j, 0, ...).  The Duffy map sends x in [0, 1]^(d-1) to
    the barycentric weights 1 - x_1, x_1 (1 - x_2), ..., x_1 ... x_(d-1) of
    v_1, ..., v_d, with Jacobian prod x_i^(d-1-i) / d!, and the 1/d! cancels
    the d! copies of the domain; the grading adds grading * t_i^(grading-1).  J_k's inner integral is taken as
    c^(1/k) * integral_0^1 ds / (c s^k + 1 - c).  The grid is walked in
    blocks of about ``_BLOCK_TERMS`` inner-rule terms.
    """
    d = 2 * k - 3
    ref_x, ref_w = leggauss(nodes)
    t = 0.5 * (ref_x + 1.0)
    half_w = 0.5 * ref_w
    x = t ** grading
    axis_weights = [half_w * grading * t ** (grading * (d - i) - 1) for i in range(1, d)]
    inner_s = t ** k
    power = (k - 1) / k
    whole = math.pi / (k * math.sin(math.pi / k))
    points = nodes ** (d - 1)
    block = max(1, _BLOCK_TERMS // nodes)
    total = 0.0
    for lo in range(0, points, block):
        index = np.arange(lo, min(points, lo + block))
        digits = []
        for _ in range(d - 1):
            index, digit = np.divmod(index, nodes)
            digits.append(digit)
        reach = np.ones(len(index))
        weight = np.ones(len(index))
        bary = []
        for axis, digit in enumerate(reversed(digits)):
            bary.append(reach * (1.0 - x[digit]))
            reach = reach * x[digit]
            weight = weight * axis_weights[axis][digit]
        bary.append(reach)
        # u_i = sum over j >= i of bary_j / j
        u = [bary[-1] / d]
        for j in range(d - 1, 0, -1):
            u.append(u[-1] + bary[j - 1] / j)
        e = _symmetric_polynomials(k, u)
        c = e[k] * e[k - 2] / e[k - 1] ** 2
        inner = (1.0 / (c[:, None] * inner_s + (1.0 - c)[:, None])) @ half_w
        j_k = whole * (1.0 - c) ** -power - c ** (1.0 / k) * inner
        values = (e[k - 2] / e[k - 1] ** 2) ** power / e[k - 2] * j_k
        total += float(weight @ values)
    return math.gamma(power) * total


def _grow_simplex(nodes: int) -> int:
    """Nodes of the simplex pass after one on ``nodes``: 3/2 as many after a
    power of two, else 4/3 (8, 12, 16, 24, 32, ...)."""
    return nodes * 3 // 2 if nodes & (nodes - 1) == 0 else nodes * 4 // 3


def estimate_leading_constant(
    k: int,
    target_error: float = 0.1,
    box: bool = False,
) -> ConstantEstimate:
    """Estimate the orthant integral of exp(-sigma_k) in dimension 2k-1.

    C_1 = 1 exactly.  For k >= 2 the simplex rule refines until its error
    meets the target, with no truncation part.  With ``box`` (k >= 2 only)
    the box size is chosen so the rigorous tail bound is half the target,
    then the mesh refines until the empirical quadrature error covers the
    other half.  When the point budget cannot reach the target, or the
    quadrature's target is below its rounding allowance, the estimator
    raises instead of under-reporting the error.
    """
    if k not in SUPPORTED_K:
        raise ValueError(f"k={k} outside supported range {SUPPORTED_K}")
    if not target_error > 0:
        raise ValueError("target_error must be positive")
    if k == 1:
        if box:
            raise ValueError("the box oracle needs k >= 2; C_1 = 1 exactly")
        return ConstantEstimate(1, 1.0, 0.0, 0.0, None, ())
    if not box:
        passes = _refine(
            lambda nodes: (_simplex_quad(k, nodes, grading=k), nodes ** (2 * k - 4)),
            _SIMPLEX_FIRST_NODES, _grow_simplex, 2 * k - 3, target_error,
        )
        return ConstantEstimate(k, passes[-1].value, passes[-1].error, 0.0, None, passes)
    m = 2 * k - 1
    # Solve tail_bound(a) = target/2; the exponent (m-k)/(k-1) equals 1.
    a = 2 * m * (m - 1) * math.factorial(m - 1) ** 2 / target_error

    def box_pass(nodes: int) -> Tuple[float, int]:
        rule = _axis_rule(a, nodes // DEFAULT_DEGREE, DEFAULT_DEGREE)
        return _tensor_quad(k, m, *rule), math.comb(nodes + m - 1, m)

    passes = _refine(
        box_pass, 16 * DEFAULT_DEGREE, lambda nodes: 2 * nodes, m, target_error,
        target=target_error / 2.0, floor=math.exp(-math.comb(m, k)),
    )
    tail = orthant_tail_bound(k, m, a)
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


def min_prob_large_n_leading_exact(n: int, k: int) -> Fraction:
    """Leading large-n term of the minimum winner probability as an exact
    rational: C(2k-1, k) / n^(k-1)."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    return Fraction(math.comb(2 * k - 1, k), n ** (k - 1))


def min_prob_large_n_leading(n: int, k: int) -> float:
    """The leading large-n term as a float, rounded once from the rational:
    C(2k-1, k) alone overflows a float from k = 516 on, while the term
    itself underflows to 0.0 at large k."""
    return float(min_prob_large_n_leading_exact(n, k))


def min_prob_large_k_rate(n: int) -> float:
    """Exponential decay rate of the minimum winner probability in k at fixed
    n >= 3: ln(n^2 / (4(n-1))).  For n in {1, 2} the probability is always 1
    and there is no decay."""
    if n < 3:
        raise ValueError("the large-k rate needs n >= 3")
    return math.log(n * n / (4.0 * (n - 1)))
