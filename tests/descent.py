"""Multi-start projected gradient descent on the marginal bound.

The naive oracle for the ``minimizer`` verify suite, which proves the
minimum sum_j majority_tail(k, x_j) = n * majority_tail(k, 1/n) over the
probability simplex exactly: this descent searches for a smaller value
numerically, and the tests check that it finds none.  Its draws are
mix64(seed, ``_TAG_MINIMIZER``, n, k, ``VERIFY_STREAM_VERSION``), so a
seeded result is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from condorcet.cultures import mix64
from condorcet.special import _derivative_coefficient, majority_tail, majority_tail_derivative
from condorcet.verify import VERIFY_STREAM_VERSION

TOL_OPTIMIZER = 1e-9
_TAG_MINIMIZER = 103
_MINIMIZER_STEPS = 2000
# Value of the minimizer's unused columns before a projection: finite, so
# no NaN or warning appears, and far below any real coordinate.
_PAD = -1e300


def _project_simplex(points: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex
    (sorting-based, exact up to rounding)."""
    sorted_desc = np.sort(points, axis=1)[:, ::-1]
    cumulative = np.cumsum(sorted_desc, axis=1) - 1.0
    counts = np.arange(1, points.shape[1] + 1)
    positive = sorted_desc - cumulative / counts > 0
    rho = positive.sum(axis=1)
    theta = cumulative[np.arange(len(points)), rho - 1] / rho
    return np.maximum(points - theta[:, None], 0.0)


@dataclass(frozen=True)
class MinimizeResult:
    """Best value and point found; ``converged`` is False when the iteration
    budget ran out before the step size stalled."""

    value: float
    point: Tuple[float, ...]
    converged: bool


def minimize_marginal_bound(n: int, k: int, starts: int = 100, seed: int = 0) -> MinimizeResult:
    """Minimize sum_j majority_tail(k, x_j) over the probability simplex.

    Multi-start projected gradient descent with the closed-form gradient,
    vectorized across starts.  It stops once no point moves more than 1e-13
    in a step (``converged``) or after ``_MINIMIZER_STEPS`` steps.  The true
    minimum is n * majority_tail(k, 1/n), attained at the uniform point; the
    tests check the returned value against it.  This is the
    one-problem call of :func:`_minimize_batch`.
    """
    return _minimize_batch((n,), k, starts, seed)[0]


def _minimize_batch(
    sizes: Sequence[int], k: int, starts: int, seed: int
) -> List[MinimizeResult]:
    """:func:`minimize_marginal_bound` for every n in ``sizes`` at one k,
    run as one descent over all their starts.

    Each problem draws its own seeded starts and fills the first n columns
    of its rows; the other columns are set to ``_PAD`` before each
    projection, so they sort last and project to 0, and every real column
    goes through the operations a problem alone would see.  A problem
    freezes at the step where it converges, and its final values sum its
    own n columns only, so each result equals the one-problem run.
    """
    if k < 1 or min(sizes) < 1:
        raise ValueError("n and k must be at least 1")
    width = max(sizes)
    points = np.zeros((len(sizes) * starts, width))
    for i, n in enumerate(sizes):
        rng = np.random.default_rng(mix64(seed, _TAG_MINIMIZER, n, k, VERIFY_STREAM_VERSION))
        block = points[i * starts:(i + 1) * starts, :n]
        block[:] = rng.dirichlet(np.ones(n), size=starts)
        block[0] = 1.0 / n
        if starts > 1:
            block[1] = 0.0
            block[1, 0] = 1.0
    padding = np.arange(width) >= np.repeat(sizes, starts)[:, None]

    if k == 1:
        step = 0.5
    else:
        lipschitz = _derivative_coefficient(k) * (k - 1) * 0.25 ** (k - 2)
        step = 1.0 / (lipschitz + 1.0)

    converged = np.zeros(len(sizes), dtype=bool)
    live = np.arange(len(sizes))
    for _ in range(_MINIMIZER_STEPS):
        rows = (live[:, None] * starts + np.arange(starts)).reshape(-1)
        current = points[rows]
        gradient = majority_tail_derivative(k, current)
        moved = _project_simplex(np.where(padding[rows], _PAD, current - step * gradient))
        points[rows] = moved
        done = np.abs(moved - current).reshape(len(live), -1).max(axis=1) <= 1e-13
        converged[live[done]] = True
        live = live[~done]
        if live.size == 0:
            break

    tails = majority_tail(k, points)
    results = []
    for i, n in enumerate(sizes):
        values = tails[i * starts:(i + 1) * starts, :n].sum(axis=1)
        best = int(np.argmin(values))
        point = points[i * starts + best, :n]
        results.append(
            MinimizeResult(float(values[best]), tuple(float(v) for v in point), bool(converged[i]))
        )
    return results
