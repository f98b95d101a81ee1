"""Executable checkers for the package's analytic claims.

Each check proves its claim in integers, or sweeps a grid or a seeded
random cloud through one family of inequalities, and returns a
:class:`CheckReport` counting violations beyond tolerance, together with
the worst witness seen.  The majority tail's symmetry, derivative and
convexity and the paper's minimum are proved from integer power-basis and
Bernstein coefficients, with no tolerance; the float tail and derivative
are held to a stated ulp bound of their exact values.  The sampled checks
evaluate each grid or cloud as arrays, one call per k, with tolerance
1e-12 for the sandwich; their reports count trials and violations and
pick the worst witness exactly as a point-by-point sweep would.

A report with zero violations is reproducible from (name, seed, trials):
every random draw goes through mix64 with a per-check tag and
``VERIFY_STREAM_VERSION``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cultures import mix64
from .special import (
    _tail_numerator,
    elementary_symmetric,
    majority_tail,
    majority_tail_derivative,
    poisson_binomial_tail,
)

TOL_ALGEBRA = 1e-12

# Stream tag of the sandwich cloud, the one check that draws inputs.
_TAG_SANDWICH = 101
# Version word of every verify stream, apart from the Monte Carlo
# STREAM_VERSION: it changes only when a verify draw changes, so a change to
# profile sampling re-draws no verify cloud.  4 was the package's stream
# version when the two were split.
VERIFY_STREAM_VERSION = 4

# Fixed grids of the checks.  The majority-tail checks run k = 1..6, and the
# float tail and derivative on x = i / _TAIL_Q, a power of two so that every
# grid point and 1 - x are exact floats, to _ULP_BOUND eps of the exact
# value; the sandwich's near-equality claim is tried at these n.
_TAIL_K_MAX = 6
_TAIL_Q = 256
_ULP_BOUND = 64
_SANDWICH_N = (3, 10, 100, 1000)


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

    def record_array(
        self,
        margins,
        inputs: Callable[[int, int], object],
        inequality: Union[str, Sequence[str]],
    ) -> None:
        """Record a block of margins, one trial each, read row by row and
        within a row column by column.

        ``margins`` has one row per input and one column per inequality (a
        1-D array when ``inequality`` is a single name); ``inputs(row,
        column)`` builds the witness input of one margin, called only for
        the margin that becomes the worst witness.  A ``+inf`` margin marks
        an inequality that does not apply to that row: it is neither a
        trial nor a candidate witness.  The worst witness is the first
        minimum in that row-major order, the one a margin-by-margin loop
        would keep.
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

    def report(self) -> CheckReport:
        return CheckReport(self.name, self.trials, self.violations, self.worst)


def check_taylor_bounds() -> CheckReport:
    """exp(-t - t^2) <= 1 - t <= exp(-t) pointwise on a grid of [0, 1/3].

    The grid goes through ``np.exp`` as one array, which may differ from
    ``math.exp`` in the last bit at some points; away from t = 0, where
    both sides are exact, every margin exceeds 5e-10, so the report is the
    same either way.
    """
    t = np.linspace(0.0, 1.0 / 3.0, 10_000)
    tracker = _Tracker("taylor_bounds", 1e-15)
    tracker.record_array(
        np.column_stack([(1.0 - t) - np.exp(-t - t * t), np.exp(-t) - (1.0 - t)]),
        lambda row, _: float(t[row]),
        ("exp(-t-t^2) <= 1-t", "1-t <= exp(-t)"),
    )
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


def check_tail_sandwich(k: int, trials: int = 10_000, seed: int = 0) -> CheckReport:
    """Sandwich of the Poisson binomial tail by the k-th symmetric polynomial.

    For xs in [0,1]^(2k-1) with tail T and polynomial value s:

        2^(1-2k) * s <= T <= s
        T >= s - 2^(4k-2) * s^((k+1)/k)

    and, for k >= 2 and each n in ``_SANDWICH_N`` with 2 ln(n)/(n-1) <= 1/3,
    whenever T <= 2 ln(n)/(n-1) additionally

        T >= (1 - 2^(4k) * (ln(n)/(n-1))^(1/k)) * s.

    Random draws plus adversarial corners (all equal, one-hot, near zero).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    m = 2 * k - 1
    rng = np.random.default_rng(mix64(seed, _TAG_SANDWICH, k, VERIFY_STREAM_VERSION))
    tracker = _Tracker(f"tail_sandwich_k{k}", TOL_ALGEBRA)
    lower_factor = 2.0 ** (1 - 2 * k)
    refine_coeff = 2.0 ** (4 * k - 2)
    active_n = [n for n in _SANDWICH_N if 2.0 * math.log(n) / (n - 1) <= 1.0 / 3.0]

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
    return tracker.report()


def _record_identity(tracker: _Tracker, k: int, gaps: Sequence[int], inequality: str) -> None:
    """One trial for k of a polynomial identity whose integer coefficient
    gaps must all be 0: the margin is minus the largest |gap|."""
    index = max(range(len(gaps)), key=lambda j: abs(gaps[j]))
    tracker.record_array(
        [float(-abs(gaps[index]))], lambda *_: {"k": k, "coefficient": index}, inequality
    )


def _record_float(tracker: _Tracker, k: int, function: Callable, numerator, scale: int) -> None:
    """``function(k, x)`` on x = i / ``_TAIL_Q`` against its exact value
    ``numerator`` / ``scale`` (an object array of Python ints over an int,
    rounded once by true division): margin ``_ULP_BOUND`` eps |exact| minus
    the error."""
    exact = (numerator / scale).astype(float)
    error = np.abs(function(k, np.arange(_TAIL_Q + 1) / _TAIL_Q) - exact)
    tracker.record_array(
        _ULP_BOUND * np.finfo(float).eps * np.abs(exact) - error,
        lambda row, _: {"k": k, "x": row / _TAIL_Q},
        f"{function.__name__} within {_ULP_BOUND} eps of exact",
    )


def check_tail_symmetry() -> CheckReport:
    """T(x) + T(1-x) = 1, T = majority_tail(k, .), proved: every integer
    coefficient of T(x) + T(1-x) - 1 is 0.  The float tail is checked
    against :func:`~condorcet.special._tail_numerator` (k, i, q) / q^(2k-1)."""
    tracker = _Tracker("tail_symmetry", 0.0)
    i = np.arange(_TAIL_Q + 1, dtype=object)
    for k in range(1, _TAIL_K_MAX + 1):
        tail, reflected = _substituted_tail(k, 0, 1, 1), _substituted_tail(k, 1, -1, 1)
        gaps = [a + b for a, b in zip(tail, reflected)]
        gaps[0] -= 1
        _record_identity(tracker, k, gaps, "proved: T(x) + T(1-x) - 1 == 0 identically")
        numerator = _tail_numerator(k, i, _TAIL_Q)
        _record_float(tracker, k, majority_tail, numerator, _TAIL_Q ** (2 * k - 1))
    return tracker.report()


def _derivative_power(k: int) -> List[int]:
    """Integer coefficients in x of k C(2k-1, k) (x(1-x))^(k-1), the closed
    form :func:`~condorcet.special.majority_tail_derivative` evaluates."""
    factor = k * math.comb(2 * k - 1, k)
    return [0] * (k - 1) + [(-1) ** i * math.comb(k - 1, i) * factor for i in range(k)]


def check_tail_derivative() -> CheckReport:
    """T' = k C(2k-1, k) (x(1-x))^(k-1), proved: the coefficients j t_j of T'
    equal :func:`_derivative_power`.  The float derivative is checked
    against k C(2k-1, k) (i(q-i))^(k-1) / q^(2k-2)."""
    tracker = _Tracker("tail_derivative", 0.0)
    i = np.arange(_TAIL_Q + 1, dtype=object)
    for k in range(1, _TAIL_K_MAX + 1):
        slope = [j * t for j, t in enumerate(_substituted_tail(k, 0, 1, 1))][1:]
        gaps = [a - b for a, b in zip(slope, _derivative_power(k))]
        _record_identity(tracker, k, gaps, "proved: T' == k C(2k-1, k) (x(1-x))^(k-1) identically")
        numerator = k * math.comb(2 * k - 1, k) * (i * (_TAIL_Q - i)) ** (k - 1)
        _record_float(tracker, k, majority_tail_derivative, numerator, _TAIL_Q ** (2 * k - 2))
    return tracker.report()


def check_tail_convexity() -> CheckReport:
    """T'' >= 0 on [0, 1/2], proved.  The coefficients of 2^(2k-1) T(u/2)
    (:func:`_substituted_tail` (k, 0, 1, 2)) differentiated twice in u are
    those of 2^(2k-3) T''(u/2), and its integer Bernstein coefficients on
    u in [0, 1] are all >= 0.  The margin, the least over its scale, is a
    lower bound on T'' on [0, 1/2]: 0, since T''(1/2) = 0."""
    tracker = _Tracker("tail_convexity", 0.0)
    for k in range(1, _TAIL_K_MAX + 1):
        second = [j * (j - 1) * c for j, c in enumerate(_substituted_tail(k, 0, 1, 2))][2:] or [0]
        coefficients = _bernstein_coefficients(second)
        index = coefficients.index(min(coefficients))
        scale = math.factorial(len(second) - 1) * 2.0 ** (2 * k - 3)
        tracker.record_array(
            [coefficients[index] / scale],
            lambda *_: {"k": k, "coefficient": index},
            "proved: Bernstein coefficient of T'' on [0, 1/2] >= 0",
        )
    return tracker.report()


def _scaled_tail_margins(k: int, n_max: int) -> np.ndarray:
    """1 - n * majority_tail(k, 1/n) for n = 1..n_max, each correctly rounded.

    n * T(1/n) = N / n^(2k-2) for the integer N = ``_tail_numerator(k, 1,
    n)``, so the margin is (n^(2k-2) - N) / n^(2k-2), and Python's int true
    division rounds that quotient correctly, as float(Fraction) would.  The
    n run as one object array of Python ints, so every step stays exact.
    """
    n = np.arange(1, n_max + 1, dtype=object)
    scale = n ** (2 * k - 2)
    return ((scale - _tail_numerator(k, 1, n)) / scale).astype(float)


def check_scaled_tail_bound(n_max: int = 1000, k_max: int = 10) -> CheckReport:
    """n * majority_tail(k, 1/n) <= 1, checked in exact integer arithmetic."""
    tracker = _Tracker("scaled_tail_bound", 0.0)
    for k in range(1, k_max + 1):
        tracker.record_array(
            _scaled_tail_margins(k, n_max),
            lambda row, _, k=k: {"n": row + 1, "k": k},
            "n * tail(1/n) <= 1",
        )
    return tracker.report()


def _substituted_tail(k: int, p0: int, p1: int, q: int) -> List[int]:
    """Integer coefficients in u of q^(2k-1) * majority_tail(k, (p0 + p1 u) / q),
    through the tail's own integer coefficients t_j in majority_tail(k, x) =
    sum_{l<k} C(2k-1, l) x^(2k-1-l) (1-x)^l = sum_j t_j x^j."""
    m = 2 * k - 1
    tail = [0] * (m + 1)
    for l in range(k):
        for i in range(l + 1):
            tail[m - l + i] += (-1) ** i * math.comb(m, l) * math.comb(l, i)
    coefficients = [0] * (m + 1)
    for j, t in enumerate(tail):
        for r in range(j + 1):
            coefficients[r] += t * q ** (m - j) * math.comb(j, r) * p0 ** (j - r) * p1 ** r
    return coefficients


def _bernstein_coefficients(power: Sequence[int]) -> List[int]:
    """m! times the Bernstein coefficients on [0, 1] of the degree-m
    polynomial sum_j power[j] u^j: sum_{j<=i} C(i, j) j! (m-j)! power[j] for
    i = 0..m, integers.  The polynomial is a convex combination of its
    Bernstein coefficients at every u in [0, 1], so their minimum is a lower
    bound on it there."""
    m = len(power) - 1
    weighted = [math.factorial(j) * math.factorial(m - j) * a for j, a in enumerate(power)]
    return [sum(math.comb(i, j) * weighted[j] for j in range(i + 1)) for i in range(m + 1)]


def _uniform_minimum_certificate(n: int, k: int) -> Tuple[List[int], int]:
    """The Bernstein coefficients of g(x) - n * majority_tail(k, 1/n) on
    x in [1/2, 1], for n >= 2, as integers over a common scale D, returned
    with D.

    g(x) = T(x) + (n-1) T((1-x)/(n-1)), T = majority_tail(k, .), is expanded
    in u = 2x - 1 in [0, 1] over D = (2(n-1))^m n^(m-1) m!, m = 2k-1, and
    the constant n T(1/n) is :func:`~condorcet.special._tail_numerator`
    (k, 1, n) / n^(m-1).  Every coefficient >= 0 proves g >= n T(1/n) on
    [1/2, 1]; the least one over D is a lower bound on the minimum of
    g - n T(1/n) there.
    """
    m = 2 * k - 1
    spread = n ** (m - 1)
    head = _substituted_tail(k, 1, 1, 2)  # 2^m T(x)
    rest = _substituted_tail(k, 1, -1, 2 * (n - 1))  # (2(n-1))^m T((1-x)/(n-1))
    power = [(n - 1) * spread * ((n - 1) ** (m - 1) * h + r) for h, r in zip(head, rest)]
    power[0] -= (2 * (n - 1)) ** m * _tail_numerator(k, 1, n)
    return _bernstein_coefficients(power), (2 * (n - 1)) ** m * spread * math.factorial(m)


def _suite_taylor(seed: int) -> List[CheckReport]:
    return [check_taylor_bounds()]


def _suite_sandwich(seed: int) -> List[CheckReport]:
    return [check_tail_sandwich(k, trials=10_000, seed=seed) for k in (2, 3, 4)]


def _suite_symmetry(seed: int) -> List[CheckReport]:
    return [check_tail_symmetry()]


def _suite_derivative(seed: int) -> List[CheckReport]:
    return [check_tail_derivative()]


def _suite_convexity(seed: int) -> List[CheckReport]:
    return [check_tail_convexity()]


def _suite_scaled_tail(seed: int) -> List[CheckReport]:
    return [check_scaled_tail_bound()]


def _suite_minimizer(seed: int) -> List[CheckReport]:
    """Proves sum_j T(x_j) >= n T(1/n) on the probability simplex, with
    T = majority_tail(k, .), for n = 1..8 and k = 1..4: the paper's minimum,
    which the cyclic culture attains.

    At most one x_j exceeds 1/2, and T is convex on [0, 1/2], which the
    ``tail_convexity`` suite proves for k <= 6 (:func:`check_tail_convexity`).
    So Jensen gives the claim when every x_j <= 1/2, and otherwise
    sum_j T(x_j) >= g(x_1), the function of
    :func:`_uniform_minimum_certificate`.

    Two reports.  ``uniform_minimum_proved`` covers the cells with n >= 3
    and k >= 2; its margin is the least Bernstein coefficient, and a
    negative one is a violation (not proved).  ``uniform_minimum_identity``
    covers the cells where the sum is 1 on the whole simplex, so the claim
    holds with equality: n = 1 is a single point, n = 2 is the identity
    T(x) + T(1-x) = 1, and k = 1 has T(x) = x.  Its margin is minus the
    largest |coefficient|, exactly 0 when g - n T(1/n) vanishes on [1/2, 1]
    (n = 1 records 0).  No input is drawn, so neither report depends on
    ``seed``.
    """
    proved, proved_inputs, identity, identity_inputs = [], [], [], []
    for n in range(1, 9):
        for k in range(1, 5):
            if n == 1:
                identity.append(0.0)
                identity_inputs.append({"n": n, "k": k, "coefficient": None})
                continue
            coefficients, scale = _uniform_minimum_certificate(n, k)
            if n == 2 or k == 1:
                index = coefficients.index(max(coefficients, key=abs))
                identity.append(-abs(coefficients[index]) / scale)
                identity_inputs.append({"n": n, "k": k, "coefficient": index})
            else:
                index = coefficients.index(min(coefficients))
                proved.append(coefficients[index] / scale)
                proved_inputs.append({"n": n, "k": k, "coefficient": index})
    tracker = _Tracker("uniform_minimum_proved", 0.0)
    tracker.record_array(
        proved, lambda row, _: proved_inputs[row],
        "Bernstein coefficient of g - n * tail(1/n) >= 0",
    )
    equality = _Tracker("uniform_minimum_identity", 0.0)
    equality.record_array(
        identity, lambda row, _: identity_inputs[row],
        "g - n * tail(1/n) == 0 identically",
    )
    return [tracker.report(), equality.report()]


SUITES: Dict[str, Callable[[int], List[CheckReport]]] = {
    "taylor": _suite_taylor,
    "tail_sandwich": _suite_sandwich,
    "tail_symmetry": _suite_symmetry,
    "tail_derivative": _suite_derivative,
    "tail_convexity": _suite_convexity,
    "scaled_tail": _suite_scaled_tail,
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
