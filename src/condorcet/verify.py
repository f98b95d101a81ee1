"""Executable checkers for the package's analytic claims.

Each check sweeps a grid or a seeded random cloud through one family of
inequalities and returns a :class:`CheckReport` counting violations beyond
tolerance, together with the worst witness seen.  The tolerances separate
rounding noise from genuine violations: 1e-12 for algebraic identities,
1e-9 for optimizer claims, 1e-6 for derivative checks.  The tail checks
evaluate each grid or cloud in one array call per k; their reports count
trials and violations and pick the worst witness exactly as a
point-by-point sweep would.

A report with zero violations is reproducible from (name, seed, trials):
every random draw goes through mix64 with a per-check tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .asymptotic import orthant_tail_bound, truncated_box_integral
from .cultures import STREAM_VERSION, mix64
from .special import (
    _derivative_coefficient,
    elementary_symmetric,
    majority_tail,
    majority_tail_derivative,
    majority_tail_exact,
    poisson_binomial_tail,
)

TOL_ALGEBRA = 1e-12
TOL_OPTIMIZER = 1e-9
TOL_DERIVATIVE = 1e-6

# Per-check stream tags so suites stay independent under one master seed.
_TAG_SANDWICH = 101
_TAG_CONVEXITY = 102
_TAG_MINIMIZER = 103


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: how many inputs were tried, how many violated
    their inequality beyond tolerance, and the most negative margin seen.

    ``worst_witness`` holds the offending (or merely tightest) input with
    its signed margin, enough to re-evaluate the inequality directly.
    """

    name: str
    trials: int
    violations: int
    worst_witness: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.violations == 0


class _Tracker:
    """Accumulates margins; a margin below -tolerance counts as a violation."""

    def __init__(self, name: str, tolerance: float) -> None:
        self.name = name
        self.tolerance = tolerance
        self.trials = 0
        self.violations = 0
        self.worst: Optional[dict] = None

    def record(self, margin: float, witness_input, inequality: str) -> None:
        self.trials += 1
        margin = float(margin)
        if margin < -self.tolerance:
            self.violations += 1
        if self.worst is None or margin < self.worst["margin"]:
            self.worst = {
                "input": witness_input,
                "inequality": inequality,
                "margin": margin,
            }

    def record_array(
        self,
        margins,
        inputs: Callable[[int, int], object],
        inequality: Union[str, Sequence[str]],
    ) -> None:
        """Record a whole block of margins as if :meth:`record` had run on
        each, row by row and within a row column by column.

        ``margins`` has one row per input and one column per inequality (a
        1-D array when ``inequality`` is a single name); ``inputs(row,
        column)`` builds the witness input of one margin, called only for
        the margin that becomes the worst witness.  A ``+inf`` margin marks
        an inequality that does not apply to that row: it is neither a
        trial nor a candidate witness.  The worst witness is the first
        minimum in that row-major order, the one the scalar loop would keep.
        """
        names = (inequality,) if isinstance(inequality, str) else tuple(inequality)
        flat = np.asarray(margins, dtype=float).reshape(-1)
        if flat.size == 0:
            return
        self.trials += int(np.count_nonzero(flat != math.inf))
        self.violations += int(np.count_nonzero(flat < -self.tolerance))
        index = int(np.argmin(flat))
        margin = float(flat[index])
        if margin == math.inf:
            return
        if self.worst is None or margin < self.worst["margin"]:
            row, column = divmod(index, len(names))
            self.worst = {
                "input": inputs(row, column),
                "inequality": names[column],
                "margin": margin,
            }

    def report(self, trials: Optional[int] = None) -> CheckReport:
        return CheckReport(
            self.name,
            self.trials if trials is None else trials,
            self.violations,
            self.worst,
        )


def check_taylor_bounds(grid: Optional[Sequence[float]] = None) -> CheckReport:
    """exp(-t - t^2) <= 1 - t <= exp(-t) pointwise on [0, 1/3]."""
    if grid is None:
        grid = np.linspace(0.0, 1.0 / 3.0, 10_000)
    tracker = _Tracker("taylor_bounds", 1e-15)
    for t in grid:
        t = float(t)
        if not 0.0 <= t <= 1.0 / 3.0 + 1e-15:
            raise ValueError(f"grid point {t} outside [0, 1/3]")
        tracker.record((1.0 - t) - math.exp(-t - t * t), t, "exp(-t-t^2) <= 1-t")
        tracker.record(math.exp(-t) - (1.0 - t), t, "1-t <= exp(-t)")
    return tracker.report()


def _sandwich_corner_cases(k: int) -> List[Tuple[float, ...]]:
    m = 2 * k - 1
    cases: List[Tuple[float, ...]] = []
    for x in np.linspace(0.0, 1.0, 21):
        cases.append((float(x),) * m)
    cases.append((1.0,) + (0.0,) * (m - 1))
    cases.append((1e-9,) * m)
    cases.append((0.0,) + (0.5,) * (m - 1))
    cases.append((1.0,) * m)
    return cases


def check_tail_sandwich(
    k: int,
    trials: int = 10_000,
    seed: int = 0,
    n_values: Sequence[int] = (3, 10, 100, 1000),
) -> CheckReport:
    """Sandwich of the Poisson binomial tail by the k-th symmetric polynomial.

    For xs in [0,1]^(2k-1) with tail T and polynomial value s:

        2^(1-2k) * s <= T <= s
        T >= s - 2^(4k-2) * s^((k+1)/k)

    and, for k >= 2 and each n with 2 ln(n)/(n-1) <= 1/3, whenever
    T <= 2 ln(n)/(n-1) additionally

        T >= (1 - 2^(4k) * (ln(n)/(n-1))^(1/k)) * s.

    Random draws plus adversarial corners (all equal, one-hot, near zero).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    m = 2 * k - 1
    rng = np.random.default_rng(mix64(seed, _TAG_SANDWICH, k, STREAM_VERSION))
    tracker = _Tracker(f"tail_sandwich_k{k}", TOL_ALGEBRA)
    lower_factor = 2.0 ** (1 - 2 * k)
    refine_coeff = 2.0 ** (4 * k - 2)
    active_n = [n for n in n_values if 2.0 * math.log(n) / (n - 1) <= 1.0 / 3.0]

    vectors = np.vstack([rng.random((trials, m)), _sandwich_corner_cases(k)])
    tail = poisson_binomial_tail(vectors, k)
    s = elementary_symmetric(k, vectors)
    columns = [
        s - tail,
        tail - lower_factor * s,
        tail - (s - refine_coeff * s ** ((k + 1) / k)),
    ]
    inequalities = [
        "tail <= sigma",
        "2^(1-2k) sigma <= tail",
        "tail >= sigma - 2^(4k-2) sigma^((k+1)/k)",
    ]
    if k >= 2:
        for n in active_n:
            ratio = math.log(n) / (n - 1)
            factor = 1.0 - 2.0 ** (4 * k) * ratio ** (1.0 / k)
            # the inequality only claims rows below the threshold
            columns.append(np.where(tail <= 2.0 * ratio, tail - factor * s, math.inf))
            inequalities.append(f"near-equality below threshold, n={n}")
    tracker.record_array(
        np.column_stack(columns),
        lambda row, _: tuple(vectors[row].tolist()),
        inequalities,
    )
    return tracker.report(trials=len(vectors))


def check_tail_symmetry(k_max: int = 6, points: int = 201) -> CheckReport:
    """majority_tail(x) + majority_tail(1-x) = 1: exact for rational x,
    within 1e-12 in floating point."""
    tracker = _Tracker("tail_symmetry", TOL_ALGEBRA)
    exact_grid = [Fraction(i, points - 1) for i in range(points)]
    grid = np.arange(points) / (points - 1)
    for k in range(1, k_max + 1):
        exact_drift = [
            abs(float(majority_tail_exact(k, x) + majority_tail_exact(k, 1 - x) - 1))
            for x in exact_grid
        ]
        float_drift = np.abs(majority_tail(k, grid) + majority_tail(k, 1.0 - grid) - 1.0)
        tracker.record_array(
            -np.column_stack([exact_drift, float_drift]),
            lambda row, column, k=k: {
                "k": k,
                "x": str(exact_grid[row]) if column == 0 else float(grid[row]),
            },
            ("exact symmetry", "float symmetry"),
        )
    return tracker.report()


def _central_difference(k: int, x: np.ndarray, h: float) -> np.ndarray:
    """Central difference of the majority tail, evaluated on the stable side.

    For x above 1/2 the tail sits just under 1 and the difference of two
    such values drowns in rounding; the symmetry tail(x) = 1 - tail(1-x)
    makes the difference exactly equal to the reflected one near 0, where
    both values are small and fully resolved.
    """
    x = np.where(x > 0.5, 1.0 - x, x)
    return (majority_tail(k, x + h) - majority_tail(k, x - h)) / (2.0 * h)


def check_tail_derivative(k_max: int = 6, h: float = 1e-6) -> CheckReport:
    """Closed-form derivative against central finite differences, relative."""
    tracker = _Tracker("tail_derivative", TOL_DERIVATIVE)
    grid = np.arange(0.01, 0.99 + 1e-12, 0.005)
    for k in range(1, k_max + 1):
        closed = majority_tail_derivative(k, grid)
        rel = np.abs(_central_difference(k, grid, h) - closed) / np.abs(closed)
        tracker.record_array(
            -rel,
            lambda row, _, k=k: {"k": k, "x": float(grid[row])},
            "derivative vs central difference",
        )
    return tracker.report()


def check_tail_convexity(
    k_max: int = 6, points: int = 401, pairs: int = 2000, seed: int = 0
) -> CheckReport:
    """Convexity of the majority tail on [0, 1/2]: non-decreasing derivative
    along the grid and midpoint convexity for sampled grid pairs."""
    tracker = _Tracker("tail_convexity", TOL_ALGEBRA)
    rng = np.random.default_rng(mix64(seed, _TAG_CONVEXITY, STREAM_VERSION))
    grid = np.linspace(0.0, 0.5, points)
    for k in range(1, k_max + 1):
        derivs = majority_tail_derivative(k, grid)
        tracker.record_array(
            derivs[1:] - derivs[:-1],
            lambda row, _, k=k: {"k": k, "x": float(grid[row])},
            "derivative non-decreasing on [0, 1/2]",
        )
        a = grid[rng.integers(0, points, pairs)]
        b = grid[rng.integers(0, points, pairs)]
        margins = 0.5 * (majority_tail(k, a) + majority_tail(k, b)) - majority_tail(
            k, 0.5 * (a + b)
        )
        tracker.record_array(
            margins,
            lambda row, _, k=k: {"k": k, "a": float(a[row]), "b": float(b[row])},
            "midpoint convexity",
        )
    return tracker.report()


def check_scaled_tail_bound(n_max: int = 1000, k_max: int = 10) -> CheckReport:
    """n * majority_tail(k, 1/n) <= 1, checked in exact rational arithmetic."""
    tracker = _Tracker("scaled_tail_bound", 0.0)
    for k in range(1, k_max + 1):
        margins = [
            float(1 - n * majority_tail_exact(k, Fraction(1, n)))
            for n in range(1, n_max + 1)
        ]
        tracker.record_array(
            margins, lambda row, _, k=k: {"n": row + 1, "k": k}, "n * tail(1/n) <= 1"
        )
    return tracker.report()


def check_truncated_integral_bounds(
    ell: int,
    m: int,
    a: float,
    cells: int = 48,
    degree: int = 8,
) -> CheckReport:
    """Bounds on the orthant integral of exp(-sigma_ell) in m variables.

    The truncated box value must stay below (m!)^2, and for ell >= 2 it must
    sit within the rigorous tail bound of a better estimate computed on a
    box four times larger.
    """
    if not ell < m:
        raise ValueError("order must be below the dimension")
    if m > 5:
        raise ValueError("dimension above 5 is out of supported range")
    tracker = _Tracker(f"truncated_integral_l{ell}_m{m}", TOL_DERIVATIVE)
    value = truncated_box_integral(ell, m, a, cells=cells, degree=degree)
    cap = float(math.factorial(m) ** 2)
    tracker.record(cap - value, {"ell": ell, "m": m, "a": a}, "value <= (m!)^2")
    if ell >= 2:
        fuller = truncated_box_integral(ell, m, 4.0 * a, cells=cells, degree=degree)
        tail = orthant_tail_bound(ell, m, a)
        tracker.record(
            value - (fuller - tail),
            {"ell": ell, "m": m, "a": a, "fuller": fuller},
            "truncated >= full - tail bound",
        )
    return tracker.report()


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


def minimize_marginal_bound(
    n: int,
    k: int,
    starts: int = 100,
    seed: int = 0,
    tol: float = TOL_OPTIMIZER,
    max_iter: int = 2000,
) -> MinimizeResult:
    """Minimize sum_j majority_tail(k, x_j) over the probability simplex.

    Multi-start projected gradient descent with the closed-form gradient,
    vectorized across starts.  The true minimum is n * majority_tail(k, 1/n),
    attained at the uniform point, so the returned value never sits below
    that by more than ``tol``.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(mix64(seed, _TAG_MINIMIZER, n, k, STREAM_VERSION))
    points = rng.dirichlet(np.ones(n), size=starts)
    points[0] = 1.0 / n
    if starts > 1:
        points[1] = 0.0
        points[1, 0] = 1.0

    if k == 1:
        step = 0.5
    else:
        lipschitz = _derivative_coefficient(k) * (k - 1) * 0.25 ** (k - 2)
        step = 1.0 / (lipschitz + 1.0)

    converged = False
    for _ in range(max_iter):
        gradient = majority_tail_derivative(k, points)
        moved = _project_simplex(points - step * gradient)
        shift = np.abs(moved - points).max()
        points = moved
        if shift <= 1e-13:
            converged = True
            break

    values = majority_tail(k, points).sum(axis=1)
    best = int(np.argmin(values))
    return MinimizeResult(
        float(values[best]), tuple(float(v) for v in points[best]), converged
    )


def _suite_taylor(seed: int) -> List[CheckReport]:
    return [check_taylor_bounds()]


def _suite_sandwich(seed: int) -> List[CheckReport]:
    return [check_tail_sandwich(k, trials=10_000, seed=seed) for k in (2, 3, 4)]


def _suite_symmetry(seed: int) -> List[CheckReport]:
    return [check_tail_symmetry()]


def _suite_derivative(seed: int) -> List[CheckReport]:
    return [check_tail_derivative()]


def _suite_convexity(seed: int) -> List[CheckReport]:
    return [check_tail_convexity(seed=seed)]


def _suite_scaled_tail(seed: int) -> List[CheckReport]:
    return [check_scaled_tail_bound()]


def _suite_truncated_integral(seed: int) -> List[CheckReport]:
    return [
        check_truncated_integral_bounds(1, 2, 30.0),
        check_truncated_integral_bounds(2, 3, 40.0),
        check_truncated_integral_bounds(2, 4, 10.0, cells=12, degree=6),
    ]


def _suite_minimizer(seed: int) -> List[CheckReport]:
    tracker = _Tracker("minimizer_attains_bound", TOL_OPTIMIZER)
    for n in range(1, 9):
        for k in range(1, 5):
            floor = float(n * majority_tail_exact(k, Fraction(1, n)))
            result = minimize_marginal_bound(n, k, starts=20, seed=seed)
            tracker.record(
                result.value - floor,
                {"n": n, "k": k, "point": result.point},
                "optimized value >= n * tail(1/n)",
            )
    return [tracker.report()]


SUITES: Dict[str, Callable[[int], List[CheckReport]]] = {
    "taylor": _suite_taylor,
    "tail_sandwich": _suite_sandwich,
    "tail_symmetry": _suite_symmetry,
    "tail_derivative": _suite_derivative,
    "tail_convexity": _suite_convexity,
    "scaled_tail": _suite_scaled_tail,
    "truncated_integral": _suite_truncated_integral,
    "minimizer": _suite_minimizer,
}


def run_suites(names: Sequence[str], seed: int = 0) -> List[CheckReport]:
    """Run the named suites (or all of them) and return their reports."""
    selected = list(SUITES) if list(names) == ["all"] else list(names)
    reports: List[CheckReport] = []
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        reports.extend(SUITES[name](seed))
    return reports
